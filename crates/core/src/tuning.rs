//! Thread-count and SIMD-mapping heuristics (§III-C of the paper).
//!
//! The SpMM kernel's dense dimension `d` must be mapped onto the SIMD width
//! of the machine (32 lanes per warp on the evaluated GPU). §III-C
//! distinguishes three regimes — `d == lanes`, `d > lanes` (replicate each
//! logical thread across several warps), and `d < lanes` (pack several
//! logical threads into one warp) — and ties the *merge-path cost* (work
//! per thread) to the regime via an empirical table (Figure 6).

/// Minimum logical-thread floor for small graphs (§III-C1: "When the
/// computed threads are below a threshold (e.g., 1024), the total thread
/// count is set to the threshold value").
pub const MIN_THREADS: usize = 1024;

/// Register-tile height of the engine's dense GEMM microkernel when
/// columns lie in lanes: this many `A` rows share every loaded `B`
/// vector, so each load feeds `GEMM_MR` multiplies instead of one (each
/// a separate multiply and add — nothing here fuses them). The AVX-512F
/// tile for a `B` wider than 16 columns is four rows × 32 columns: eight
/// `zmm` accumulators, two per row, which leaves most of the 32
/// registers for the two `B` vectors, the broadcast `A` value and the
/// products. The autovectorized 16-column tile of the other clones (and
/// of AVX-512F widths 9 to 16) holds four rows × 16 lanes: eight of
/// AVX2's 16 `ymm` registers. A narrower `B` under AVX-512F puts rows in
/// lanes instead, 16 rows per tile, and does not use this height
/// (`datapath::NARROW_GEMM_COLS`).
pub(crate) const GEMM_MR: usize = 4;

/// Row granule of the engine's parallel GEMM: every band
/// ([`gemm_band_rows`]) is a whole multiple of this many rows, so band
/// edges fall on register-tile edges, the 16-row rows-in-lanes tile's
/// included. At `ppi-gcn`'s widths (50 → 128,
/// 128 → 121) one granule already holds over 200 K multiply-adds and is
/// the band itself; narrower layers stack granules up to
/// [`GEMM_BAND_MIN_MACS`].
pub(crate) const GEMM_BAND_ROWS: usize = 32;

/// Multiply-add floor of one GEMM band, the unit workers claim. A claim
/// costs an atomic increment and a slot lock, and a worker that wakes
/// for a tiny product costs more than the product. At 32 rows a
/// `molecule-pack` 32 → 2 band held 2,048 multiply-adds, and two workers
/// spent 1.7× the CPU of one for no gain in wall time. This floor stays
/// at or under 204,800, one 32-row band of `ppi-gcn`'s narrowest layer,
/// so that workload's bands (and its allocations) stay as they were.
pub(crate) const GEMM_BAND_MIN_MACS: usize = 1 << 16;

/// Rows per band of an `m × k · k × n` GEMM: the smallest multiple of
/// [`GEMM_BAND_ROWS`] whose `k × n` multiply-adds per row reach
/// [`GEMM_BAND_MIN_MACS`], capped at one band over the whole matrix. An
/// empty product (`k × n == 0`) is one band. The band count, and with it
/// the number of workers a GEMM occupies, follows its work, not its
/// rows: a GEMM that fits one band runs inline on the caller.
pub(crate) fn gemm_band_rows(m: usize, k: usize, n: usize) -> usize {
    let whole = m.div_ceil(GEMM_BAND_ROWS).max(1) * GEMM_BAND_ROWS;
    let macs_per_row = k.saturating_mul(n);
    if macs_per_row == 0 {
        return whole;
    }
    let rows = GEMM_BAND_MIN_MACS.div_ceil(macs_per_row);
    (rows.div_ceil(GEMM_BAND_ROWS) * GEMM_BAND_ROWS).min(whole)
}

/// How logical threads map onto SIMD units for a given dense dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdMapping {
    /// SIMD lanes per hardware unit (warp).
    pub lanes: usize,
    /// Dense dimension size being processed.
    pub dim: usize,
    /// Number of warps each logical thread is replicated across
    /// (`> 1` when `dim > lanes`; §III-C2).
    pub warps_per_thread: usize,
    /// Number of logical threads packed into each warp
    /// (`> 1` when `dim < lanes`; §III-C3).
    pub threads_per_warp: usize,
}

impl SimdMapping {
    /// Computes the mapping for dense dimension `dim` on `lanes`-wide SIMD
    /// units.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lanes == 0`.
    pub fn for_dim(dim: usize, lanes: usize) -> Self {
        assert!(dim > 0, "dimension size must be positive");
        assert!(lanes > 0, "SIMD width must be positive");
        if dim >= lanes {
            Self {
                lanes,
                dim,
                warps_per_thread: dim.div_ceil(lanes),
                threads_per_warp: 1,
            }
        } else {
            Self {
                lanes,
                dim,
                warps_per_thread: 1,
                threads_per_warp: (lanes / dim).max(1),
            }
        }
    }
}

/// The empirically best merge-path cost per dimension size (Figure 6 of
/// the paper, sweeping costs 2–50 at each dimension).
///
/// * dims 256/512 → 55/60 (extrapolated past the figure's sweep: at
///   hidden widths this wide each logical thread is already replicated
///   8–16× across warps, so ever-larger costs — fewer threads, fewer
///   atomics — keep winning, flattening out as the dense axis dominates),
/// * dim 128 → 50 (threads already replicated 4× across warps; favour
///   fewer atomics),
/// * dim 64 → 35, dim 32 → 30, dim 16 → 20, dims 8 and 4 → 15 (buy
///   parallelism with some extra atomics),
/// * dim 2 → 50 (extreme thread divergence favours fewer warps).
///
/// Dimensions between table entries use the nearest entry (ties toward the
/// larger dimension).
pub fn default_cost_for_dim(dim: usize) -> usize {
    const TABLE: [(usize, usize); 9] = [
        (2, 50),
        (4, 15),
        (8, 15),
        (16, 20),
        (32, 30),
        (64, 35),
        (128, 50),
        (256, 55),
        (512, 60),
    ];
    assert!(dim > 0, "dimension size must be positive");
    let mut best = TABLE[0];
    let mut best_dist = usize::MAX;
    for &(d, cost) in &TABLE {
        let dist = d.abs_diff(dim);
        if dist < best_dist || (dist == best_dist && d > best.0) {
            best = (d, cost);
            best_dist = dist;
        }
    }
    best.1
}

/// Number of logical threads for a given merge-path length and cost,
/// applying the small-graph floor (§III-C1).
pub fn thread_count(merge_items: usize, cost: usize, min_threads: usize) -> usize {
    assert!(cost > 0, "merge-path cost must be positive");
    let computed = merge_items.div_ceil(cost).max(1);
    if computed < min_threads {
        min_threads.min(merge_items).max(1)
    } else {
        computed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_matches_lanes() {
        let m = SimdMapping::for_dim(32, 32);
        assert_eq!(m.warps_per_thread, 1);
        assert_eq!(m.threads_per_warp, 1);
    }

    #[test]
    fn mapping_dim_greater_than_lanes() {
        // §III-C2: "If the dimension size is 64, each thread is executed
        // using two warps."
        let m = SimdMapping::for_dim(64, 32);
        assert_eq!(m.warps_per_thread, 2);
        let m = SimdMapping::for_dim(128, 32);
        assert_eq!(m.warps_per_thread, 4);
        // Non-multiple: 48 dims → 2 warps.
        let m = SimdMapping::for_dim(48, 32);
        assert_eq!(m.warps_per_thread, 2);
    }

    #[test]
    fn mapping_dim_smaller_than_lanes() {
        // §III-C3: "If the dimension size is 16, two threads execute on a
        // single warp."
        let m = SimdMapping::for_dim(16, 32);
        assert_eq!(m.threads_per_warp, 2);
        // §V: "At the dimension size of 2, each SIMD unit is mapped with 16
        // threads."
        let m = SimdMapping::for_dim(2, 32);
        assert_eq!(m.threads_per_warp, 16);
    }

    #[test]
    fn default_costs_match_figure6() {
        assert_eq!(default_cost_for_dim(128), 50);
        assert_eq!(default_cost_for_dim(64), 35);
        assert_eq!(default_cost_for_dim(32), 30);
        assert_eq!(default_cost_for_dim(16), 20);
        assert_eq!(default_cost_for_dim(8), 15);
        assert_eq!(default_cost_for_dim(4), 15);
        assert_eq!(default_cost_for_dim(2), 50);
        // Wide hidden layers: the table now covers 256/512 explicitly.
        assert_eq!(default_cost_for_dim(256), 55);
        assert_eq!(default_cost_for_dim(512), 60);
        // Off-table dimension snaps to the nearest entry (ties toward the
        // larger dimension: 384 is equidistant from 256 and 512).
        assert_eq!(default_cost_for_dim(24), 30);
        assert_eq!(default_cost_for_dim(384), 60);
        assert_eq!(default_cost_for_dim(4096), 60);
    }

    #[test]
    fn gemm_band_rows_reach_the_mac_floor_in_whole_granules() {
        for m in [0usize, 1, 31, 32, 33, 70, 1000, 17_650, 56_944] {
            for k in [0usize, 1, 2, 16, 32, 50, 128, 200, 512] {
                for n in [0usize, 1, 2, 16, 32, 121, 128, 512] {
                    let rows = gemm_band_rows(m, k, n);
                    let ctx = format!("m={m} k={k} n={n} rows={rows}");
                    assert!(rows >= GEMM_BAND_ROWS, "{ctx}");
                    assert_eq!(rows % GEMM_BAND_ROWS, 0, "{ctx}");
                    let whole = rows >= m;
                    assert!(whole || rows * k * n >= GEMM_BAND_MIN_MACS, "{ctx}");
                    // The smallest such multiple: one granule fewer
                    // falls under the floor.
                    let fewer = rows - GEMM_BAND_ROWS;
                    assert!(fewer == 0 || fewer * k * n < GEMM_BAND_MIN_MACS, "{ctx}");
                }
            }
        }
        // `ppi-gcn`'s layers keep one granule per band: 1,780 bands of
        // 56,944 rows, as before the floor.
        const { assert!(GEMM_BAND_MIN_MACS <= GEMM_BAND_ROWS * 50 * 128) };
        assert_eq!(gemm_band_rows(56_944, 50, 128), GEMM_BAND_ROWS);
        assert_eq!(gemm_band_rows(56_944, 128, 121), GEMM_BAND_ROWS);
        // `molecule-pack`'s packed windows stack granules.
        assert_eq!(gemm_band_rows(17_650, 16, 32), 128);
        assert_eq!(gemm_band_rows(17_650, 32, 2), 1024);
        // Under one band of work the band is the whole matrix.
        assert_eq!(gemm_band_rows(70, 32, 2), 96);
        assert_eq!(gemm_band_rows(70, 0, 2), 96);
    }

    #[test]
    fn thread_count_applies_floor() {
        // Plenty of work: cost division wins.
        assert_eq!(thread_count(100_000, 20, MIN_THREADS), 5_000);
        // Small graph: floor of MIN_THREADS.
        assert_eq!(thread_count(10_000, 20, MIN_THREADS), MIN_THREADS);
        // Tiny graph: floor clamped to merge items.
        assert_eq!(thread_count(100, 20, MIN_THREADS), 100);
        assert_eq!(thread_count(0, 20, MIN_THREADS), 1);
    }
}
