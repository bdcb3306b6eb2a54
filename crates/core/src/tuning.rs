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

/// Row-degree threshold of the reproduction's plan statistics: segments
/// with at most this many non-zeros count as short ("gather-bound"),
/// longer ones as long, when passed as the `gather_max` of
/// [`crate::KernelPlan::dispatch_profile`] or
/// [`crate::Schedule::gather_bound_fraction`] (`bench_simd` reports the
/// latter). Power-law graphs put most rows (but few non-zeros) below this
/// line. The engine reads no row degree: every row runs the same tile
/// plan.
pub const GATHER_MAX_NNZ: usize = 4;

/// Register-tile height of the engine's dense GEMM microkernel: this
/// many `A` rows share every loaded `B` vector, so each load feeds
/// `GEMM_MR` multiplies instead of one (each a separate multiply and
/// add — nothing here fuses them). The AVX-512F tile is four rows ×
/// 32 columns: eight `zmm` accumulators, two per row, which leaves most
/// of the 32 registers for the two `B` vectors, the broadcast `A` value
/// and the products. The autovectorized 16-column tile of the other
/// clones holds four rows × 16 lanes: eight of AVX2's 16 `ymm`
/// registers.
pub(crate) const GEMM_MR: usize = 4;

/// Row granule of the engine's parallel GEMM: every band
/// ([`gemm_band_rows`]) is a whole multiple of this many rows, so band
/// edges fall on register-tile edges. At `ppi-gcn`'s widths (50 → 128,
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

/// Below this many f32 elements an element-wise pass
/// ([`crate::parallel_apply_chunks`]) runs inline on the caller: a 16 K
/// element sweep finishes in a few microseconds, under the pool's
/// dispatch-plus-barrier cost.
pub const PAR_APPLY_MIN_LEN: usize = 1 << 14;

/// Tiny CPU cache model the engine's dense GEMM sizes its blocking from:
/// the output column panel ([`panel_cols`], from L1) and the `k`-block
/// depth of the `B` slab under it ([`gemm_kc`], from L2).
///
/// Only order-of-magnitude accuracy matters: the blocking changes which
/// products stay cache-resident, never the order they are added in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheModel {
    /// Per-core L1 data cache capacity in bytes.
    pub(crate) l1_bytes: usize,
    /// Per-core L2 capacity in bytes (the `k`-block budget).
    pub(crate) l2_bytes: usize,
}

impl Default for CacheModel {
    /// Conservative defaults (32 KiB L1d / 1 MiB L2) that fit every
    /// mainstream x86-64 and AArch64 core of the last decade.
    fn default() -> Self {
        Self {
            l1_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
        }
    }
}

/// Panel rows the model fits in half of L1 at once, which caps a GEMM
/// column panel at 512 f32 columns on a 32 KiB L1.
const PANEL_RESIDENT_ROWS: usize = 8;

/// Column-panel width (in f32 columns) of the engine's dense GEMM over a
/// `dim`-wide output with `lanes`-wide register tiles: the width of the
/// `B` slab whose depth [`gemm_kc`] sizes for L2, and the unit
/// [`crate::EngineStats::gemm_panels`] counts. The SpMM has no panels:
/// its row fold covers a block's whole width with one tile plan.
///
/// Model: `PANEL_RESIDENT_ROWS` panel rows fill half of L1 (the other
/// half absorbs the `A` rows and the destination tile), rounded down to
/// a multiple of `lanes` so a panel never splits a register tile's
/// column block. The result is clamped to cover `dim` in one panel when
/// `dim` already fits (the common GNN case — hidden widths of 16–128 are
/// far below the ~512-column panel a 32 KiB L1 yields).
///
/// # Panics
///
/// Panics if `lanes == 0`.
pub(crate) fn panel_cols(dim: usize, lanes: usize, model: &CacheModel) -> usize {
    assert!(lanes > 0, "lane width must be positive");
    let budget = model.l1_bytes / 2;
    let raw = budget / (PANEL_RESIDENT_ROWS * std::mem::size_of::<f32>());
    let aligned = (raw / lanes).max(1) * lanes;
    aligned.min(dim.next_multiple_of(lanes).max(lanes))
}

/// Smallest useful `k`-block of the engine's blocked GEMM: below this the
/// per-block accumulator round-trip through the destination row costs
/// more than the locality buys.
const GEMM_KC_MIN: usize = 64;

/// `k`-block depth for the engine's GEMM: the deepest block whose `B`
/// panel (`kc × panel` f32) stays resident in a quarter of L2 while it
/// is reused across every register tile of a row band. A quarter — not
/// half — because the slab shares L2 with the `A` band, the destination
/// band, and (under the fused serving pipeline) concurrent SpMM
/// traffic; on AVX-512 hardware the measured throughput knee at
/// `n = 512` sits at the quarter-L2 slab, a third faster than the
/// half-L2 one. Clamped to `[GEMM_KC_MIN, k]` so short reductions
/// run unblocked.
///
/// Blocking `k` does **not** change results: blocks are visited in
/// ascending order, the first block's accumulators start from `0.0` and
/// each later block's are seeded from the destination row, so every
/// output element still sums its products in exactly the naive loop's
/// order.
pub(crate) fn gemm_kc(k: usize, panel: usize, model: &CacheModel) -> usize {
    let k = k.max(1);
    let bytes_per_k = panel.max(1) * std::mem::size_of::<f32>();
    let raw = (model.l2_bytes / 4) / bytes_per_k;
    raw.clamp(GEMM_KC_MIN.min(k), k)
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
    fn panel_model_aligns_and_clamps() {
        let m = CacheModel::default();
        // 32 KiB L1 → 16 KiB row budget / (8 rows × 4 B) = 512 columns.
        assert_eq!(panel_cols(4096, 16, &m), 512);
        assert_eq!(panel_cols(4096, 8, &m), 512);
        // GNN-sized dims fit in a single panel (rounded up to the lane
        // width so the wide block never splits).
        assert_eq!(panel_cols(16, 16, &m), 16);
        assert_eq!(panel_cols(32, 16, &m), 32);
        assert_eq!(panel_cols(20, 16, &m), 32);
        assert_eq!(panel_cols(0, 8, &m), 8);
        // A tiny L1 still yields at least one lane-aligned panel.
        let tiny = CacheModel {
            l1_bytes: 64,
            l2_bytes: 1024,
        };
        assert_eq!(panel_cols(4096, 16, &tiny), 16);
    }

    #[test]
    fn panel_model_covers_wide_dims_and_clamps_past_l1() {
        let m = CacheModel::default();
        // 256 and 512 still fit one L1 panel (budget is 512 columns).
        assert_eq!(panel_cols(256, 16, &m), 256);
        assert_eq!(panel_cols(512, 16, &m), 512);
        assert_eq!(panel_cols(512, 8, &m), 512);
        // Past dim = l1_bytes / 4 (8192 f32 for the 32 KiB default) the
        // panel is pinned at the cache budget, never at dim: the sweep
        // must tile.
        let past_l1 = m.l1_bytes / std::mem::size_of::<f32>() + 16;
        assert!(past_l1 > 8192);
        assert_eq!(panel_cols(past_l1, 16, &m), 512);
        assert_eq!(panel_cols(2 * past_l1, 8, &m), 512);
    }

    #[test]
    fn gemm_kc_keeps_b_panel_l2_resident() {
        let m = CacheModel::default();
        // 256 KiB / (512 cols × 4 B) = 128-deep blocks.
        assert_eq!(gemm_kc(512, 512, &m), 128);
        assert_eq!(gemm_kc(1024, 512, &m), 128);
        // Short reductions run unblocked (kc = k).
        assert_eq!(gemm_kc(128, 512, &m), 128);
        assert_eq!(gemm_kc(16, 512, &m), 16);
        assert_eq!(gemm_kc(0, 512, &m), 1);
        // Narrow panels allow deeper blocks.
        assert_eq!(gemm_kc(100_000, 16, &m), 4096);
        // A tiny L2 clamps to the minimum useful block, not below.
        let tiny = CacheModel {
            l1_bytes: 64,
            l2_bytes: 1024,
        };
        assert_eq!(gemm_kc(512, 512, &tiny), 64);
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
