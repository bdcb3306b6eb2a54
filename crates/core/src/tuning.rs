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

/// Degree-adaptive dispatch threshold of the CPU data path: segments with
/// at most this many non-zeros run the gather microkernel; longer
/// segments run the streaming panel kernel. Power-law graphs put most
/// rows (but few non-zeros) below this line, which is exactly the regime
/// where per-panel loop restarts cost more than the segment's arithmetic.
pub const GATHER_MAX_NNZ: usize = 4;

/// Self-scheduled chunks carved per worker by the SpGEMM numeric phase.
///
/// The output rows are pre-split into `workers × this` flop-balanced
/// [`ChunkDesc`](crate::ChunkDesc)s (capped at one row per chunk) that
/// workers claim off a shared cursor: enough granularity that a worker
/// which drew cheap rows keeps claiming, few enough that the cursor
/// traffic stays negligible next to a chunk's arithmetic.
pub const SPGEMM_CHUNKS_PER_WORKER: usize = 6;

/// Register-tile height of the engine's dense GEMM microkernel: this
/// many `A` rows share every loaded `B` row panel, so each `B` element
/// feeds `GEMM_MR` fused multiply-adds instead of one. Four rows ×
/// 16 lanes = 64 live f32 accumulators, which fits the 16 (32 with
/// AVX-512) architectural vector registers with spill-free headroom.
pub const GEMM_MR: usize = 4;

/// Rows per work unit of the engine's parallel GEMM. Bands self-schedule
/// across pool workers; 32 rows amortize the per-band dispatch while
/// keeping `workers × several` bands available for balancing on
/// GNN-sized matrices.
pub const GEMM_BAND_ROWS: usize = 32;

/// Below this many f32 elements an element-wise pass
/// ([`crate::parallel_apply_chunks`]) runs inline on the caller: a 16 K
/// element sweep finishes in a few microseconds, under the pool's
/// dispatch-plus-barrier cost.
pub const PAR_APPLY_MIN_LEN: usize = 1 << 14;

/// SpGEMM row classification: a row combining at most this many `B`
/// rows runs the sorted multi-way merge accumulator. Mirroring the
/// binary-row-merging CPU SpGEMM observation (arXiv 2206.06611), most
/// rows of a power-law adjacency matrix merge a handful of neighbor
/// lists; streaming them in column order emits the output row already
/// sorted with no scratch, no hashing, and no sort — at four ways the
/// per-entry min scan is still a couple of compares.
pub const SPGEMM_MERGE_MAX_WAYS: usize = 4;

/// SpGEMM row classification: the dense-scratch accumulator runs when
/// the row's nnz upper bound times this factor reaches `B`'s column
/// count (fill ≥ 1/8). At that density most scratch slots are touched
/// anyway, so direct indexing beats hashing and the touched-column sort
/// is the same either way; below it the dense reset-on-touch walk and
/// cold scratch lines stop paying for themselves.
pub const SPGEMM_DENSE_FILL_DIV: usize = 8;

/// Minimum slot count of the SpGEMM hash accumulator. Tiny rows still
/// get a table two cache lines wide so the load factor stays under 1/2
/// and linear probes terminate quickly.
pub const SPGEMM_HASH_MIN_SLOTS: usize = 16;

/// Ways at or below which the SpGEMM merge accumulator uses the linear
/// head scan; above it (a forced-merge strategy on a hub row) it
/// switches to the binary heap, whose `(col, way)` pop order preserves
/// the same ascending-`k` accumulation order bit for bit.
pub const SPGEMM_MERGE_SCAN_MAX_WAYS: usize = 8;

/// Tiny CPU cache model the plan uses to size feature-dimension panels.
///
/// Only order-of-magnitude accuracy matters: the panel must keep a
/// segment's working set — a few gathered `B` row panels plus the
/// accumulator row — resident in L1 while leaving headroom for the
/// streamed index/value arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheModel {
    /// Per-core L1 data cache capacity in bytes.
    pub l1_bytes: usize,
    /// Per-core L2 capacity in bytes (reserved for multi-level blocking).
    pub l2_bytes: usize,
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

/// Number of distinct `B` rows the panel model budgets as simultaneously
/// hot during one segment sweep.
const PANEL_RESIDENT_ROWS: usize = 8;

/// Column-panel width (in f32 columns) for sweeping a `dim`-wide dense
/// operand with `lanes`-wide accumulator blocks.
///
/// Model: reserve half of L1 for gathered `B` row panels (the other half
/// absorbs the streamed indices/values and the destination row), assume
/// `PANEL_RESIDENT_ROWS` rows hot at a time, and round the resulting
/// width down to a multiple of `lanes` so panels never split a wide
/// block. The result is clamped to cover `dim` in one panel when `dim`
/// already fits (the common GNN case — hidden widths of 16–128 are far
/// below the ~512-column panel a 32 KiB L1 yields).
///
/// # Panics
///
/// Panics if `lanes == 0`.
pub fn panel_cols(dim: usize, lanes: usize, model: &CacheModel) -> usize {
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
/// ascending order and each block's accumulators are seeded from the
/// destination row, so every output element still sums its products in
/// exactly the naive loop's order.
pub fn gemm_kc(k: usize, panel: usize, model: &CacheModel) -> usize {
    let k = k.max(1);
    let bytes_per_k = panel.max(1) * std::mem::size_of::<f32>();
    let raw = (model.l2_bytes / 4) / bytes_per_k;
    raw.clamp(GEMM_KC_MIN.min(k), k)
}

/// SIMD lanes per warp on the evaluated GPU (NVidia, 32-lane warps).
pub const GPU_SIMD_LANES: usize = 32;

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

    /// Number of warps needed to run `logical_threads` threads under this
    /// mapping.
    pub fn warps_for_threads(&self, logical_threads: usize) -> usize {
        if self.warps_per_thread > 1 {
            logical_threads * self.warps_per_thread
        } else {
            logical_threads.div_ceil(self.threads_per_warp)
        }
    }

    /// Fraction of SIMD lanes doing useful work in each warp, in `(0, 1]`.
    ///
    /// When `dim` is not a multiple of `lanes`, the last replica warp
    /// carries only `dim % lanes` live lanes — but it is *shared*: the
    /// §III-C3 packing applies to the residual slice exactly as it does to
    /// whole sub-lane dimensions, so `floor(lanes / tail)` logical
    /// threads' tails ride in one warp and each thread is charged only its
    /// `lanes / floor(lanes / tail)` share. Charging every thread a full
    /// tail warp (the previous accounting) under-reported utilization at
    /// large dims — e.g. dim 96 on 64-lane units is fully packed (two
    /// 32-wide tails per warp), not 75%.
    pub fn lane_utilization(&self) -> f64 {
        if self.dim >= self.lanes {
            let used = self.dim as f64;
            let full = self.dim / self.lanes;
            let tail = self.dim % self.lanes;
            // Tail warp shared by floor(lanes / tail) threads; no tail
            // warp at all when `dim` divides evenly (`tail == 0`).
            let provisioned = match self.lanes.checked_div(tail) {
                Some(share) if share > 0 => {
                    (full * self.lanes) as f64 + self.lanes as f64 / share as f64
                }
                _ => (full * self.lanes) as f64,
            };
            used / provisioned
        } else {
            (self.threads_per_warp * self.dim) as f64 / self.lanes as f64
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
        assert_eq!(m.warps_for_threads(100), 100);
        assert_eq!(m.lane_utilization(), 1.0);
    }

    #[test]
    fn mapping_dim_greater_than_lanes() {
        // §III-C2: "If the dimension size is 64, each thread is executed
        // using two warps."
        let m = SimdMapping::for_dim(64, 32);
        assert_eq!(m.warps_per_thread, 2);
        assert_eq!(m.warps_for_threads(10), 20);
        let m = SimdMapping::for_dim(128, 32);
        assert_eq!(m.warps_per_thread, 4);
        // Non-multiple: 48 dims → 2 warps, but the 16-wide tail packs two
        // threads per tail warp (§III-C3 on the residual slice), so the
        // mapping is fully utilized.
        let m = SimdMapping::for_dim(48, 32);
        assert_eq!(m.warps_per_thread, 2);
        assert!((m.lane_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_warp_utilization_at_large_dims() {
        // Exact multiples at the regression dims stay fully utilized.
        for (dim, lanes) in [(96, 32), (192, 32), (384, 32), (192, 64), (384, 64)] {
            let m = SimdMapping::for_dim(dim, lanes);
            assert_eq!(
                m.lane_utilization(),
                1.0,
                "dim {dim} lanes {lanes} is an exact multiple"
            );
        }
        // dim 96 on 64-lane units: one full warp plus a 32-wide tail that
        // packs two threads — fully utilized, not the 75% the old
        // full-tail-warp accounting reported.
        let m = SimdMapping::for_dim(96, 64);
        assert_eq!(m.warps_per_thread, 2);
        assert!((m.lane_utilization() - 1.0).abs() < 1e-12);
        // A tail that does not divide the lane width still wastes its
        // packing remainder: dim 44 on 32 lanes has a 12-wide tail shared
        // by floor(32/12) = 2 threads, 16 lanes charged for 12 used.
        let m = SimdMapping::for_dim(44, 32);
        assert!((m.lane_utilization() - 44.0 / 48.0).abs() < 1e-12);
        // A tail over half the lane width cannot pack and is charged in
        // full, as before.
        let m = SimdMapping::for_dim(50, 32);
        assert!((m.lane_utilization() - 50.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn mapping_dim_smaller_than_lanes() {
        // §III-C3: "If the dimension size is 16, two threads execute on a
        // single warp."
        let m = SimdMapping::for_dim(16, 32);
        assert_eq!(m.threads_per_warp, 2);
        assert_eq!(m.warps_for_threads(10), 5);
        // §V: "At the dimension size of 2, each SIMD unit is mapped with 16
        // threads."
        let m = SimdMapping::for_dim(2, 32);
        assert_eq!(m.threads_per_warp, 16);
        assert_eq!(m.lane_utilization(), 1.0);
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
