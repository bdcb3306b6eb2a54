//! Vectorized, cache-blocked inner data path for the execution engine.
//!
//! The engine schedules rows onto workers; this module supplies the
//! kernels that fold each row:
//!
//! * **Wide-lane streaming kernels** — const-generic register-accumulator
//!   blocks of 16 and 8 f32 lanes ([`LaneWidth`] picks the widest the CPU
//!   supports at runtime), plus 128-, 64- and 32-column blocks (eight,
//!   four and two `zmm` accumulators) on AVX-512F, each compiled to
//!   straight-line code LLVM auto-vectorizes. A remainder narrower than a
//!   block is covered by one more block that ends at the panel's end and
//!   reaches back over columns already stored: the streaming kernels only
//!   store, and every column's sum is the same whichever block computes
//!   it, so the overlap rewrites the same bits and no column runs a
//!   scalar chain.
//! * **ISA clones** — the vectorized row fold and the 16-lane GEMM tile
//!   both run through one pair of `#[target_feature]` trampolines
//!   ([`with_isa`]), so the same kernel bodies compile to 512- or 256-bit
//!   code when the CPU proves AVX-512F or AVX2 at runtime ([`WideIsa`]).
//!   Under AVX-512F a GEMM wider than 16 columns runs an explicit
//!   4 × 32 `zmm` tile instead ([`gemm_pack_width`]).
//! * **Feature-dimension panel blocking** — for large `dim` a segment is
//!   swept in L1-resident column panels ([`crate::tuning::panel_cols`]),
//!   so the gathered rows of `B` are touched one cache-friendly panel at
//!   a time instead of streaming full rows past the accumulators.
//! * **Degree-adaptive dispatch** — segments with at most
//!   [`crate::tuning::GATHER_MAX_NNZ`] non-zeros (the short-row regime
//!   that dominates power-law graphs) skip the column-blocked machinery
//!   and run a gather microkernel that initializes the destination once
//!   and axpy-accumulates row by row; long segments take the streaming
//!   panel kernel. The engine records the split in
//!   [`crate::EngineStats`].
//! * **Gather prefetch** — an engine worker walks one contiguous run
//!   of non-zeros, so the kernel knows which `B` rows it reads next, across
//!   row boundaries. While it accumulates non-zero `k` it
//!   hints `B` row `cols[k + PREFETCH_DISTANCE]` over the current panel,
//!   one 64-byte line at a time (`prefetcht0` on x86-64; no hint
//!   elsewhere). The hints only pay when `B` misses cache, so
//!   [`ResolvedPath::prefetch`] turns them on once per run, only when
//!   `B`'s touched footprint — its rows times the dense width times
//!   4 bytes — is several times
//!   [`CacheModel::l2_bytes`] ([`prefetch_pays`]). Hints never change a
//!   value, so every path stays bit-identical with them on or off.
//!
//! # Why the scalar kernel stays the oracle
//!
//! Every kernel here gives each output column its **own** accumulator and
//! adds that column's products in non-zero order. Lane width, panel
//! boundaries, and the gather-vs-stream choice only change *which columns
//! are grouped together*, never the order of additions within a column —
//! so all paths produce exactly equal values (f32 `==`, zero tolerance)
//! to [`accumulate_segment_scalar`] (and hence to
//! [`crate::executor::execute_sequential`]). The streaming kernels fold
//! in the oracle's leading `0.0` and are bit-identical; the gather
//! microkernel fuses the products directly, which can differ from the
//! oracle only in the **sign of a zero** result (`-0.0` vs `+0.0`, a
//! 0-ulp difference) — the property tests assert exact equality, not a
//! tolerance, and pass because `-0.0 == 0.0`. Building with the
//! `force-scalar` feature pins [`DataPath::Auto`] to the scalar path,
//! keeping a known-good oracle build available at all times.
//!
//! # Tuning constants
//!
//! The data path reads no environment variable. The gather threshold is
//! the constant [`GATHER_MAX_NNZ`] — the same one
//! [`crate::PreparedPlan::dispatch_profile`] counts against, so the
//! gather/stream counters always describe what ran. The prefetch distance
//! is a constant too, and the prefetch gate follows from the
//! [`CacheModel`]; neither has a switch.

use mpspmm_sparse::{CsrMatrix, DenseMatrix};

use crate::plan::Segment;
use crate::tuning::{panel_cols, CacheModel, GATHER_MAX_NNZ, GEMM_MR};

/// Which inner data path an [`crate::ExecEngine`] drives its segments
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPath {
    /// Pick automatically: the vectorized path, unless the crate is built
    /// with the `force-scalar` feature (then the scalar oracle).
    #[default]
    Auto,
    /// Scalar per-column accumulation — the correctness oracle.
    Scalar,
    /// Wide-lane streaming kernels with panel blocking and
    /// degree-adaptive gather dispatch.
    Vector,
}

/// Accumulator width of the streaming kernel, selected at runtime.
/// How many registers a block fills depends on the [`WideIsa`] clone the
/// kernel runs in: the SpMM row fold and the GEMM tile both run in the
/// widest clone the CPU proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneWidth {
    /// 8 f32 accumulators per block (two SSE vectors, one AVX vector).
    W8,
    /// 16 f32 accumulators per block (four SSE vectors in baseline code,
    /// two AVX vectors in the AVX2 clone, one `zmm` register in the
    /// AVX-512F clone).
    W16,
}

impl LaneWidth {
    /// Picks the widest block the running CPU vectorizes profitably:
    /// 16 lanes with AVX2/AVX-512, 8 otherwise (and on non-x86_64).
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") || is_x86_feature_detected!("avx2") {
                return LaneWidth::W16;
            }
        }
        LaneWidth::W8
    }

    /// Number of f32 lanes per block.
    pub(crate) fn lanes(self) -> usize {
        match self {
            LaneWidth::W8 => 8,
            LaneWidth::W16 => 16,
        }
    }
}

/// Widest x86 vector extension the vectorized SpMM row fold and the GEMM
/// tile may be *compiled* for, proven present at runtime. [`LaneWidth`]
/// only sizes accumulator blocks; this selects a `#[target_feature]`
/// clone of the same kernel body ([`with_isa`]), so the identical scalar
/// arithmetic (separate multiply and add, `k` ascending — never
/// FMA-contracted, which would change rounding) is emitted with 256- or
/// 512-bit instructions. Results stay bit-equal across all variants
/// because every vector lane is an independent output column. Under
/// `Avx512f` the streaming SpMM kernel also runs 128-, 64- and 32-column
/// blocks ahead of the 16-lane one; that too only regroups columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WideIsa {
    /// Baseline codegen (also all non-x86_64 targets).
    Portable,
    /// AVX2 proven by `is_x86_feature_detected!`.
    Avx2,
    /// AVX-512F proven by `is_x86_feature_detected!`.
    Avx512f,
}

impl WideIsa {
    /// Detects the widest ISA clone the running CPU supports.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return WideIsa::Avx512f;
            }
            if is_x86_feature_detected!("avx2") {
                return WideIsa::Avx2;
            }
        }
        WideIsa::Portable
    }
}

/// Concrete kernel family after [`DataPath`] resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathKind {
    Scalar,
    Vector,
}

/// A [`DataPath`] resolved against a dense dimension: the kernel family,
/// the lane width, the ISA clone and the column panel, fixed once per
/// engine run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedPath {
    pub kind: PathKind,
    pub lanes: LaneWidth,
    pub wide_isa: WideIsa,
    pub panel: usize,
    /// Gather prefetch on (see the module docs): only for the `Vector`
    /// family, and only when the run's `B` footprint overflows L2
    /// ([`prefetch_pays`]). Hints never change a value.
    pub prefetch: bool,
}

impl DataPath {
    /// The kernel family this path runs: `Auto` is the vectorized one
    /// unless the crate is built with `force-scalar`.
    fn kind(self) -> PathKind {
        match self {
            DataPath::Auto if cfg!(feature = "force-scalar") => PathKind::Scalar,
            DataPath::Auto | DataPath::Vector => PathKind::Vector,
            DataPath::Scalar => PathKind::Scalar,
        }
    }

    /// The instruction set this path's SpMM and GEMM kernels run compiled
    /// for on the running CPU: `"avx512f"`, `"avx2"` or `"baseline"` for
    /// the vectorized path, and always `"baseline"` for the scalar oracle.
    /// Benches record it next to their timings.
    pub fn isa(self) -> &'static str {
        match (self.kind(), WideIsa::detect()) {
            (PathKind::Vector, WideIsa::Avx512f) => "avx512f",
            (PathKind::Vector, WideIsa::Avx2) => "avx2",
            _ => "baseline",
        }
    }

    /// Resolves the path for one execution over a `b_rows × dim` dense
    /// operand. Gather prefetch is decided here too, once per run, by
    /// [`prefetch_pays`].
    pub(crate) fn resolve(self, b_rows: usize, dim: usize) -> ResolvedPath {
        let kind = self.kind();
        let lanes = LaneWidth::detect();
        let model = CacheModel::default();
        ResolvedPath {
            kind,
            lanes,
            wide_isa: WideIsa::detect(),
            panel: panel_cols(dim, lanes.lanes(), &model),
            prefetch: kind == PathKind::Vector && prefetch_pays(b_rows, dim, &model),
        }
    }
}

/// How many times the cache model's L2 `B`'s touched footprint must
/// exceed before the gathers miss often enough for hints to pay. The
/// model's 1 MiB L2 is a floor; on a core with a larger L2, gathers over
/// 1–1.3 MiB of `B` still mostly hit, and the hints cost 17–59% there.
/// DESIGN.md §2.3.1 records the sweep.
const PREFETCH_L2_MULTIPLE: usize = 4;

/// The gather-prefetch gate: hints pay only when the gathered rows miss
/// cache, i.e. when `B`'s touched footprint — `b_rows` rows of `dim`
/// f32 columns — is more than [`PREFETCH_L2_MULTIPLE`]
/// times L2. Below that most gathers already hit, and the hints are
/// mostly instruction overhead.
pub(crate) fn prefetch_pays(b_rows: usize, dim: usize, model: &CacheModel) -> bool {
    b_rows
        .saturating_mul(dim)
        .saturating_mul(std::mem::size_of::<f32>())
        > model.l2_bytes.saturating_mul(PREFETCH_L2_MULTIPLE)
}

/// Scalar oracle: one column at a time, additions in non-zero order.
pub(crate) fn accumulate_segment_scalar(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    dst: &mut [f32],
) {
    for (d, slot) in dst.iter_mut().enumerate() {
        let mut s = 0.0f32;
        for k in seg.nz_start..seg.nz_end {
            s += vals[k] * b.row(cols[k])[d];
        }
        *slot = s;
    }
}

/// One `W`-column register-accumulator block: `W` f32 accumulators live
/// across the whole segment sweep, loads of `B` go through a fixed-size
/// `[f32; W]` view so the inner loop is bounds-check-free straight-line
/// code LLVM vectorizes. Columns start at `d` in both `B` and `dst`.
/// `pf` is the column window to hint ahead ([`hint_ahead`]) while
/// sweeping, or `None`.
#[inline(always)]
fn stream_block<const W: usize>(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    d: usize,
    dst: &mut [f32],
    pf: Option<(usize, usize)>,
) {
    let mut acc = [0.0f32; W];
    for k in seg.nz_start..seg.nz_end {
        if let Some(window) = pf {
            hint_ahead(cols, k, b, window);
        }
        let v = vals[k];
        let row = b.row(cols[k]);
        let blk: &[f32; W] = row[d..d + W].try_into().expect("block inside dense row");
        for (a, &x) in acc.iter_mut().zip(blk) {
            *a += v * x;
        }
    }
    dst[d..d + W].copy_from_slice(&acc);
}

/// Runs `W`-column [`stream_block`]s from column `d` while they fit
/// before `p1`. A remainder wider than half a block (any remainder, at
/// the narrowest, 4-column block) is then covered by one more block that
/// ends at `p1` and reaches back over columns already stored — when the
/// row is at least `W` columns wide. A narrower remainder is left to the
/// next narrower block, so a remainder costs one sweep by the narrowest
/// block that covers it. The streaming blocks only store, and a column's
/// sum does not depend on the block that computes it, so the overlap
/// rewrites the same bits. Returns the first column not yet stored. The
/// first block run takes the hint window `pf`.
#[inline(always)]
fn stream_blocks<const W: usize>(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    (mut d, p1): (usize, usize),
    dst: &mut [f32],
    pf: &mut Option<(usize, usize)>,
) -> usize {
    while d + W <= p1 {
        stream_block::<W>(seg, cols, vals, b, d, dst, pf.take());
        d += W;
    }
    let cover = if W > 4 { W / 2 } else { 0 };
    if p1 - d > cover && p1 >= W {
        stream_block::<W>(seg, cols, vals, b, p1 - W, dst, pf.take());
        d = p1;
    }
    d
}

/// Gather microkernel for short segments: fuse all (at most
/// [`GATHER_MAX_NNZ`], i.e. four) gathered rows into a single
/// register-accumulating pass over the destination —
/// one `dst` write per column, no per-block loop restarts, no staging
/// array. The column-blocked machinery would cost more than the segment
/// itself.
///
/// Per column the products are summed left-to-right in non-zero order,
/// the oracle's order; the only representational difference is that the
/// oracle folds in a leading `0.0` (which can flip a `-0.0` product to
/// `+0.0`), so results are equal under f32 `==` and may differ only in
/// the sign of zero.
#[inline(always)]
pub(crate) fn gather_segment(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    dst: &mut [f32],
) {
    let k = seg.nz_start;
    let row = |i: usize| b.row(cols[k + i]);
    match seg.len() {
        0 => dst.fill(0.0),
        1 => {
            let v0 = vals[k];
            for (slot, &x0) in dst.iter_mut().zip(row(0)) {
                *slot = v0 * x0;
            }
        }
        2 => {
            let (v0, v1) = (vals[k], vals[k + 1]);
            for ((slot, &x0), &x1) in dst.iter_mut().zip(row(0)).zip(row(1)) {
                *slot = v0 * x0 + v1 * x1;
            }
        }
        3 => {
            let (v0, v1, v2) = (vals[k], vals[k + 1], vals[k + 2]);
            for (((slot, &x0), &x1), &x2) in dst.iter_mut().zip(row(0)).zip(row(1)).zip(row(2)) {
                *slot = v0 * x0 + v1 * x1 + v2 * x2;
            }
        }
        4 => {
            let (v0, v1, v2, v3) = (vals[k], vals[k + 1], vals[k + 2], vals[k + 3]);
            for ((((slot, &x0), &x1), &x2), &x3) in dst
                .iter_mut()
                .zip(row(0))
                .zip(row(1))
                .zip(row(2))
                .zip(row(3))
            {
                *slot = v0 * x0 + v1 * x1 + v2 * x2 + v3 * x3;
            }
        }
        n => unreachable!("gather segment of {n} > GATHER_MAX_NNZ non-zeros"),
    }
}

/// Streaming panel kernel for long segments: sweeps the destination row
/// in `rp.panel`-column panels. Within a panel it runs 128-, 64- and
/// 32-column blocks under [`WideIsa::Avx512f`] (eight, four and two `zmm`
/// accumulators: independent add chains), then blocks at `rp.lanes`, 8
/// and 4, and covers a remainder with one overlapping block ending at the
/// panel's end ([`stream_blocks`]); only a row narrower than four columns
/// needs a block of its own width.
#[inline(always)]
pub(crate) fn stream_segment(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    dst: &mut [f32],
    rp: &ResolvedPath,
) {
    let dim = dst.len();
    let panel = rp.panel.max(1);
    let mut p0 = 0;
    while p0 < dim {
        let p1 = (p0 + panel).min(dim);
        // The panel's first block, whichever width it is, hints the whole
        // panel window ahead; the later blocks find those lines in cache.
        let mut pf = rp.prefetch.then_some((p0, p1));
        let mut d = p0;
        if rp.wide_isa == WideIsa::Avx512f {
            d = stream_blocks::<128>(seg, cols, vals, b, (d, p1), dst, &mut pf);
            d = stream_blocks::<64>(seg, cols, vals, b, (d, p1), dst, &mut pf);
            d = stream_blocks::<32>(seg, cols, vals, b, (d, p1), dst, &mut pf);
        }
        if rp.lanes == LaneWidth::W16 {
            d = stream_blocks::<16>(seg, cols, vals, b, (d, p1), dst, &mut pf);
        }
        d = stream_blocks::<8>(seg, cols, vals, b, (d, p1), dst, &mut pf);
        d = stream_blocks::<4>(seg, cols, vals, b, (d, p1), dst, &mut pf);
        match p1 - d {
            0 => {}
            1 => stream_block::<1>(seg, cols, vals, b, d, dst, pf),
            2 => stream_block::<2>(seg, cols, vals, b, d, dst, pf),
            _ => stream_block::<3>(seg, cols, vals, b, d, dst, pf),
        }
        p0 = p1;
    }
}

/// How many non-zeros ahead of the one being accumulated the vectorized
/// kernels hint the gathered `B` row. Far enough that the line arrives
/// before its use, near enough that it is still in L1 then; DESIGN.md
/// §2.3.1 records the sweep that chose it.
const PREFETCH_DISTANCE: usize = 8;

/// Hints `B` row `cols[k + PREFETCH_DISTANCE]` over the source columns
/// `[lo, hi)`. The index is clipped at the end of the index array, not
/// at the segment's end, so the hints run ahead into the next rows an
/// engine worker will walk. A hint never faults and never changes a
/// value; a row outside `b` (impossible for a checked operand) is not
/// hinted.
#[inline(always)]
fn hint_ahead(cols: &[usize], k: usize, b: &DenseMatrix<f32>, (lo, hi): (usize, usize)) {
    let Some(&c) = cols.get((k + PREFETCH_DISTANCE).min(cols.len().saturating_sub(1))) else {
        return;
    };
    let start = c * b.cols() + lo;
    if let Some(window) = b.as_slice().get(start..start + (hi - lo)) {
        #[cfg(target_arch = "x86_64")]
        wide::prefetch_lines(window);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = window;
    }
}

/// The vectorized path's degree-adaptive dispatch: gather microkernel at
/// or below the threshold, streaming panel kernel above it. With
/// [`ResolvedPath::prefetch`]
/// set, both kernels hint the `B` row [`PREFETCH_DISTANCE`] non-zeros
/// ahead of each non-zero they use: the gather kernel sends its few
/// hints up front, the streaming kernel during its first block's sweep.
#[inline(always)]
pub(crate) fn vector_segment(
    seg: &Segment,
    cols: &[usize],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    dst: &mut [f32],
    rp: &ResolvedPath,
) {
    if seg.len() <= GATHER_MAX_NNZ {
        if rp.prefetch {
            for k in seg.nz_start..seg.nz_end {
                hint_ahead(cols, k, b, (0, dst.len()));
            }
        }
        gather_segment(seg, cols, vals, b, dst);
    } else {
        stream_segment(seg, cols, vals, b, dst, rp);
    }
}

/// Accumulates one segment into the full output row `dst`, overwriting
/// it, through the resolved data path. `inline(always)`, like every
/// vectorized kernel below it, so the ISA clone that runs the row fold
/// compiles all of it under its own features.
#[inline(always)]
pub(crate) fn accumulate_segment_dispatch(
    rp: &ResolvedPath,
    seg: &Segment,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    dst: &mut [f32],
) {
    let (cols, vals) = (a.col_indices(), a.values());
    match rp.kind {
        PathKind::Scalar => accumulate_segment_scalar(seg, cols, vals, b, dst),
        PathKind::Vector => vector_segment(seg, cols, vals, b, dst, rp),
    }
}

/// Dense GEMM band kernel for [`crate::ExecEngine::gemm`]: computes the
/// `dst.len() / b.cols()` output rows starting at `row_start` of
/// `C = A · B` into the row-major slice `dst`. Returns the number of
/// column panels executed (the [`crate::EngineStats::gemm_panels`] unit;
/// the scalar path counts one panel per band).
///
/// The scalar path accumulates into `dst`, which must arrive zeroed. The
/// vectorized path stores every element of `dst` and reads none before
/// its first store, so `dst` may hold anything. It reads `B` only through
/// `packed`, the [`pack_b`] layout at [`gemm_pack_width`]. It
/// register-tiles [`GEMM_MR`] `A` rows against one packed column block
/// at a time, sweeping the output width in [`panel_cols`]-sized panels;
/// the last block of a width that is not a block multiple runs on its
/// zero-padded lanes and stores only the valid ones. The reduction is
/// **`k`-blocked** at depth `kc` ([`crate::tuning::gemm_kc`]): the
/// `kc`-deep `B` panel is reused across every register tile of the band
/// before the next block streams in, keeping it L2-resident at wide
/// output dims. Blocking does not change results — blocks run in
/// ascending `k` order, the first block's accumulators start from the
/// literal `0.0` and each later block's from the destination row, so
/// every output element still sums its products in exactly the naive
/// `ikj` loop's order, bit-equal to that loop (this kernel has **no**
/// per-element `a == 0.0` skip; skipping is worthwhile only for sparse
/// feature inputs, which the GCN layer-0 path keeps on the naive loop).
pub(crate) fn gemm_band(
    a: &DenseMatrix<f32>,
    b: &DenseMatrix<f32>,
    packed: &[f32],
    row_start: usize,
    rp: &ResolvedPath,
    kc: usize,
    dst: &mut [f32],
) -> u64 {
    let n = b.cols();
    if n == 0 || dst.is_empty() {
        return 0;
    }
    if rp.kind == PathKind::Scalar {
        for (r, crow) in dst.chunks_exact_mut(n).enumerate() {
            for (p, &av) in a.row(row_start + r).iter().enumerate() {
                for (c, &bv) in crow.iter_mut().zip(b.row(p)) {
                    *c += av * bv;
                }
            }
        }
        return 1;
    }
    let k = a.cols();
    let kc = kc.max(1);
    let mut panels = 0u64;
    let mut kb0 = 0usize;
    loop {
        let kb1 = (kb0 + kc).min(k);
        let krange = kb0..kb1;
        let mut r = 0usize;
        let mut quads = dst.chunks_exact_mut(GEMM_MR * n);
        for quad in quads.by_ref() {
            let arows: [&[f32]; GEMM_MR] = std::array::from_fn(|i| a.row(row_start + r + i));
            let mut rows = quad.chunks_exact_mut(n);
            let mut crows: [&mut [f32]; GEMM_MR] =
                std::array::from_fn(|_| rows.next().expect("quad holds GEMM_MR rows"));
            panels += gemm_rows(arows, packed, (k, n), rp, krange.clone(), &mut crows);
            r += GEMM_MR;
        }
        for crow in quads.into_remainder().chunks_exact_mut(n) {
            panels += gemm_rows(
                [a.row(row_start + r)],
                packed,
                (k, n),
                rp,
                krange.clone(),
                &mut [crow],
            );
            r += 1;
        }
        kb0 = kb1;
        if kb0 >= k {
            break;
        }
    }
    panels
}

/// Columns of the explicit AVX-512F GEMM tile: two `zmm` accumulators
/// per row.
const AVX512_GEMM_COLS: usize = 32;

/// The column-block width the GEMM pack buffer is laid out at for this
/// resolved path and an `n`-column `B`, or `None` when the path never
/// enters a register tile (the scalar path) and packing would be wasted
/// copies. The width picks the tile: [`AVX512_GEMM_COLS`] runs the
/// explicit AVX-512F tile, which only pays when `B` is wider than one
/// `zmm` register; any other width runs [`gemm_rows_body`] at the lane
/// width.
pub(crate) fn gemm_pack_width(rp: &ResolvedPath, n: usize) -> Option<usize> {
    match rp.kind {
        PathKind::Scalar => None,
        PathKind::Vector if rp.wide_isa == WideIsa::Avx512f && n > 16 => Some(AVX512_GEMM_COLS),
        PathKind::Vector => Some(rp.lanes.lanes()),
    }
}

/// Packs `b` into a lane-blocked layout: block `jb` (columns
/// `jb*w .. jb*w + w`) occupies the contiguous region
/// `packed[jb*k*w ..][.. k*w]`, with its `k` rows of `w` floats back to
/// back, and `packed` holds `n.div_ceil(w)` blocks. The last block of a
/// width that is not a multiple of `w` is zero-padded to `w` lanes, so
/// every column runs in a full-width microkernel; the padded lanes'
/// sums are never stored. The microkernel streams whole cache lines
/// sequentially instead of striding `n × 4` bytes per `k` step — at
/// `n = 512` that stride is 2 KiB, which aliases cache sets badly enough
/// to halve the kernel's throughput. Packing is pure data movement (each
/// value is copied, never recomputed), so it cannot change one bit of the
/// result; its one-pass cost is amortized over every row band of the
/// whole GEMM.
pub(crate) fn pack_b(b: &DenseMatrix<f32>, w: usize, packed: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    let w = w.max(1);
    debug_assert_eq!(packed.len(), n.div_ceil(w) * k * w);
    for (kk, brow) in b.as_slice().chunks_exact(n.max(1)).enumerate() {
        for (jb, src) in brow.chunks(w).enumerate() {
            let dst = &mut packed[jb * k * w + kk * w..][..w];
            let (valid, pad) = dst.split_at_mut(src.len());
            valid.copy_from_slice(src);
            pad.fill(0.0);
        }
    }
}

/// Sweeps the full output width for one register tile of `MR` rows over
/// the `k`-block `krange`. A 32-column pack runs the explicit AVX-512F
/// tile; any other runs [`gemm_rows_body`] through the widest kernel
/// clone the CPU proved it supports ([`with_isa`]). Every tile adds the
/// same products in the same order, so the choice affects instruction
/// encoding only, never results.
#[inline]
fn gemm_rows<const MR: usize>(
    arows: [&[f32]; MR],
    packed: &[f32],
    kn: (usize, usize),
    rp: &ResolvedPath,
    krange: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if gemm_pack_width(rp, kn.1) == Some(AVX512_GEMM_COLS) {
        return wide::gemm_rows_avx512f(rp.wide_isa, arows, packed, kn, rp.panel, krange, crows);
    }
    // The tiles are `inline(always)` closures: passing
    // `gemm_micro_packed` as a fn item instead made the 56,944 × 32 ·
    // 32 × 2 GEMM 2–3× slower (2 workers, AVX-512 host).
    with_isa(
        rp.wide_isa,
        #[inline(always)]
        || match rp.lanes {
            LaneWidth::W16 => gemm_rows_body::<MR, 16>(
                arows,
                packed,
                kn,
                rp.panel,
                krange,
                crows,
                #[inline(always)]
                |ablk, pb, d, valid, crows, first| {
                    gemm_micro_packed::<MR, 16>(ablk, pb, d, valid, crows, first)
                },
            ),
            LaneWidth::W8 => gemm_rows_body::<MR, 8>(
                arows,
                packed,
                kn,
                rp.panel,
                krange,
                crows,
                #[inline(always)]
                |ablk, pb, d, valid, crows, first| {
                    gemm_micro_packed::<MR, 8>(ablk, pb, d, valid, crows, first)
                },
            ),
        },
    )
}

/// Runs `body` compiled for `isa`: the AVX-512F or AVX2
/// `#[target_feature]` trampoline, or baseline code. Every vectorized
/// kernel body is `#[inline(always)]`, and so is the closure handed in,
/// so the trampoline absorbs the whole kernel under its features. The
/// body's arithmetic is the same in every clone (no FMA is enabled, so
/// no multiply-add is contracted), so the choice never changes a bit.
#[inline(always)]
pub(crate) fn with_isa<R>(isa: WideIsa, body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    return wide::run(isa, body);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = isa;
        body()
    }
}

/// The two `#[target_feature]` trampolines behind [`with_isa`], the
/// explicit AVX-512F GEMM tile, and the gather-prefetch hint. This is
/// one of the two modules allowed out of the crate's `deny(unsafe_code)`
/// (with [`crate::pool`]): calling a `#[target_feature]` function is
/// `unsafe` because executing it on a CPU without the feature is
/// undefined behavior — here each call is gated on the matching
/// `is_x86_feature_detected!` proof captured in
/// [`ResolvedPath::wide_isa`] at path-resolution time. Inside the tile,
/// arithmetic intrinsics are safe calls; only its one vector load and
/// one vector store helper are `unsafe`, typed so a whole 16-lane block
/// is always in bounds.
///
/// The clones enable `avx2` / `avx512f` and **not** `fma`: rustc never
/// contracts a separate multiply and add into an FMA on its own, so
/// wider encodings cannot perturb the bit-exact arithmetic.
#[cfg(target_arch = "x86_64")]
mod wide {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    use std::ops::Range;

    use super::WideIsa;

    /// Emits one `prefetcht0` for every 64-byte cache line that
    /// `window` touches.
    #[inline(always)]
    pub(super) fn prefetch_lines(window: &[f32]) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let base = window.as_ptr().cast::<i8>();
        let start = base as usize;
        let end = start + std::mem::size_of_val(window);
        let mut line = start & !(LINE - 1);
        while line < end {
            // The first line may begin before the window: hint it at the
            // window's first byte instead.
            let at = line.max(start) - start;
            // SAFETY: `at < size_of_val(window)`, so the pointer stays
            // inside the live slice `window`. `prefetcht0` is a hint: it
            // cannot fault, writes nothing, and returns no value to the
            // program. SSE, which provides it, is part of the x86-64
            // baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(at)) };
            line += LINE;
        }
    }

    /// Runs `body` in the AVX-512F or AVX2 trampoline, or directly.
    /// `wide_isa` is only ever set to a non-`Portable` variant by
    /// `WideIsa::detect` after the matching `is_x86_feature_detected!`
    /// check succeeded on this CPU; the dispatch tests force each variant
    /// only under that same check. Debug builds re-check the proof.
    #[inline(always)]
    pub(super) fn run<R>(isa: WideIsa, body: impl FnOnce() -> R) -> R {
        match isa {
            WideIsa::Avx512f => {
                debug_assert!(is_x86_feature_detected!("avx512f"));
                // SAFETY: `Avx512f` is only resolved, or forced by a
                // test, after `is_x86_feature_detected!("avx512f")`
                // succeeded on this CPU.
                unsafe { run_avx512f(body) }
            }
            WideIsa::Avx2 => {
                debug_assert!(is_x86_feature_detected!("avx2"));
                // SAFETY: `Avx2` is only resolved, or forced by a test,
                // after `is_x86_feature_detected!("avx2")` succeeded on
                // this CPU.
                unsafe { run_avx2(body) }
            }
            WideIsa::Portable => body(),
        }
    }

    /// `body` compiled with 256-bit codegen. No FMA: the body's separate
    /// multiply and add must stay separate instructions for bit-equality
    /// with the baseline code.
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// `body` compiled with 512-bit codegen (a 16-lane block is exactly
    /// one `zmm` register).
    #[target_feature(enable = "avx512f")]
    unsafe fn run_avx512f<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// Sweeps one register tile of `MR` rows over the `k`-block `krange`
    /// in the 32-column [`super::pack_b`] layout with the explicit
    /// AVX-512F tile ([`tile_avx512f`]). `isa` is the caller's proof that
    /// the CPU runs AVX-512F.
    ///
    /// # Panics
    ///
    /// Panics unless `isa` is [`WideIsa::Avx512f`].
    #[inline]
    pub(super) fn gemm_rows_avx512f<const MR: usize>(
        isa: WideIsa,
        arows: [&[f32]; MR],
        packed: &[f32],
        kn: (usize, usize),
        panel: usize,
        krange: Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        assert_eq!(
            isa,
            WideIsa::Avx512f,
            "the 32-column GEMM tile needs AVX-512F"
        );
        debug_assert!(is_x86_feature_detected!("avx512f"));
        // SAFETY: `Avx512f` is only resolved, or forced by a test, after
        // `is_x86_feature_detected!("avx512f")` succeeded on this CPU,
        // and the assert above rules out every other arm.
        unsafe { sweep_avx512f::<MR>(arows, packed, kn, panel, krange, crows) }
    }

    /// [`super::gemm_rows_body`] at 32 columns, compiled for AVX-512F,
    /// with [`tile_avx512f`] as its tile.
    #[target_feature(enable = "avx512f")]
    fn sweep_avx512f<const MR: usize>(
        arows: [&[f32]; MR],
        packed: &[f32],
        kn: (usize, usize),
        panel: usize,
        krange: Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        super::gemm_rows_body::<MR, 32>(
            arows,
            packed,
            kn,
            panel,
            krange,
            crows,
            |ablk, pb, d, valid, crows, first| tile_avx512f::<MR>(ablk, pb, d, valid, crows, first),
        )
    }

    /// 32 columns as the two 16-lane halves that two `zmm` registers hold.
    type Line = [[f32; 16]; 2];

    /// `MR × 32` register tile over one 32-column [`super::pack_b`]
    /// block: two `zmm` accumulators per row live across the `k`-block,
    /// each `k` step loads the block's two `B` vectors once and feeds
    /// them to all `MR` rows. Per element it computes exactly what
    /// `gemm_micro_packed` does: on the `first` `k`-block the
    /// accumulators start from `0.0` and the destination is never read;
    /// later blocks seed from the destination; every step is a separate
    /// `_mm512_mul_ps` and `_mm512_add_ps` (no FMA), in ascending `k`.
    /// A partial block (the row's last, fewer than 32 `valid` columns)
    /// seeds from and stores into a zero-padded stack copy, so every
    /// vector load and store covers a whole `[f32; 16]`.
    #[target_feature(enable = "avx512f")]
    fn tile_avx512f<const MR: usize>(
        ablk: [&[f32]; MR],
        pb: &[f32],
        d: usize,
        valid: usize,
        crows: &mut [&mut [f32]; MR],
        first: bool,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        if !first {
            for (accr, crow) in acc.iter_mut().zip(crows.iter()) {
                let c = &crow[d..d + valid];
                *accr = match c.as_chunks::<16>() {
                    ([lo, hi], []) => [load(lo), load(hi)],
                    _ => {
                        let mut pad: Line = [[0.0; 16]; 2];
                        pad.as_flattened_mut()[..valid].copy_from_slice(c);
                        [load(&pad[0]), load(&pad[1])]
                    }
                };
            }
        }
        let (lines, _) = pb.as_chunks::<16>().0.as_chunks::<2>();
        // With every `A` row as long as the k-block, indexing a row at
        // `kk` needs no bounds check of its own inside the loop.
        let klen = lines.len();
        for a in &ablk {
            assert_eq!(a.len(), klen, "A rows span the k-block");
        }
        for (kk, [lo, hi]) in lines.iter().enumerate() {
            let (b0, b1) = (load(lo), load(hi));
            for (accr, a) in acc.iter_mut().zip(&ablk) {
                let av = _mm512_set1_ps(a[kk]);
                accr[0] = _mm512_add_ps(accr[0], _mm512_mul_ps(av, b0));
                accr[1] = _mm512_add_ps(accr[1], _mm512_mul_ps(av, b1));
            }
        }
        for (&[lo, hi], crow) in acc.iter().zip(crows.iter_mut()) {
            let c = &mut crow[d..d + valid];
            match c.as_chunks_mut::<16>() {
                ([clo, chi], []) => {
                    store(clo, lo);
                    store(chi, hi);
                }
                _ => {
                    let mut pad: Line = [[0.0; 16]; 2];
                    let [plo, phi] = &mut pad;
                    store(plo, lo);
                    store(phi, hi);
                    c.copy_from_slice(&pad.as_flattened()[..valid]);
                }
            }
        }
    }

    /// Loads one 16-lane block.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(src: &[f32; 16]) -> __m512 {
        // SAFETY: `src` is 16 initialized f32s, the 64 bytes the
        // unaligned load reads; AVX-512F is enabled on this function.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }

    /// Stores one 16-lane block.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(dst: &mut [f32; 16], v: __m512) {
        // SAFETY: `dst` is 16 exclusively borrowed f32s, the 64 bytes the
        // unaligned store writes; AVX-512F is enabled on this function.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }
}

/// The panel sweep for one register tile of `MR` rows over the `k`-block
/// `krange`, in `W`-column blocks of the [`pack_b`] layout: panel loop
/// outside, one `tile` call per block inside. `kn` is `B`'s
/// `(rows, cols)`. `tile` gets the block's `A` rows, its packed slab, its
/// first column, how many of its `W` columns exist, the output rows, and
/// whether this is the first `k`-block.
///
/// Every per-`k` slice is hoisted out of the hot loop here: the `A` rows
/// are restricted to the `k`-block once, and the block's packed `B` rows
/// are one contiguous slab — the `k` loop itself carries no bounds checks
/// or row-address recomputation, which is what lets the autovectorizer
/// keep the whole accumulator tile in registers. Each output element's
/// products are still added in ascending `k` order in its own
/// accumulator chain. (A 32-column autovectorized block spills: its
/// two-register accumulator columns devectorize the loop and run 7–9×
/// slower. The AVX-512F clone therefore runs the 32-column tile written
/// with explicit `zmm` intrinsics instead, which keeps all eight
/// accumulators in registers.)
#[inline(always)]
fn gemm_rows_body<const MR: usize, const W: usize>(
    arows: [&[f32]; MR],
    packed: &[f32],
    (k, n): (usize, usize),
    panel: usize,
    krange: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
    mut tile: impl FnMut([&[f32]; MR], &[f32], usize, usize, &mut [&mut [f32]; MR], bool),
) -> u64 {
    // Panels are rounded to whole blocks, so every block starts on a
    // block boundary; only the row's last block can hold fewer than `W`
    // columns.
    let panel = panel.max(1).next_multiple_of(W);
    let ablk: [&[f32]; MR] = std::array::from_fn(|i| &arows[i][krange.clone()]);
    let first = krange.start == 0;
    let mut panels = 0u64;
    let mut p0 = 0;
    while p0 < n {
        let p1 = (p0 + panel).min(n);
        for d in (p0..p1).step_by(W) {
            let base = (d / W) * k * W;
            let pb = &packed[base + krange.start * W..base + krange.end * W];
            tile(ablk, pb, d, (p1 - d).min(W), crows, first);
        }
        p0 = p1;
        panels += 1;
    }
    panels
}

/// `MR × W` register microkernel over one [`pack_b`] column block:
/// `MR * W` f32 accumulators live across the whole `k`-block sweep, each
/// `k` step reads one contiguous `W`-float line that feeds all `MR` rows,
/// and the destination is written once per tile. On the `first` `k`-block
/// the accumulators start from the literal `0.0` of the naive loop, so
/// the destination is never read before this tile stores it; each later
/// block **seeds from the destination** (read-modify-write) and continues
/// the exact same addition sequence — `k`-blocking therefore cannot
/// change a single bit. Only the first `valid` columns exist: a partial
/// block seeds its padded lanes with zero, runs them on the packed zero
/// padding, and stores only the valid lanes. No zero-skip branch — the
/// inner loop stays straight-line mul/add code, separate instructions,
/// so rounding matches the naive oracle under every ISA clone.
#[inline(always)]
fn gemm_micro_packed<const MR: usize, const W: usize>(
    ablk: [&[f32]; MR],
    pb: &[f32],
    d: usize,
    valid: usize,
    crows: &mut [&mut [f32]; MR],
    first: bool,
) {
    let mut acc = [[0.0f32; W]; MR];
    if !first {
        for (accr, crow) in acc.iter_mut().zip(crows.iter()) {
            if valid == W {
                accr.copy_from_slice(&crow[d..d + W]);
            } else {
                accr[..valid].copy_from_slice(&crow[d..d + valid]);
            }
        }
    }
    let klen = ablk[0].len();
    for kk in 0..klen {
        let blk: &[f32; W] = pb[kk * W..kk * W + W].try_into().expect("packed block row");
        for (accr, ab) in acc.iter_mut().zip(&ablk) {
            let av = ab[kk];
            for (s, &bv) in accr.iter_mut().zip(blk) {
                *s += av * bv;
            }
        }
    }
    for (accr, crow) in acc.iter().zip(crows.iter_mut()) {
        if valid == W {
            crow[d..d + W].copy_from_slice(accr);
        } else {
            crow[d..d + valid].copy_from_slice(&accr[..valid]);
        }
    }
}

/// `Portable` and every `#[target_feature]` clone this CPU proves: the
/// only arms the `unsafe` dispatch may take.
#[cfg(test)]
pub(crate) fn proven_isas() -> Vec<WideIsa> {
    let mut isas = vec![WideIsa::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            isas.push(WideIsa::Avx2);
        }
        if is_x86_feature_detected!("avx512f") {
            isas.push(WideIsa::Avx512f);
        }
    }
    isas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Flush;
    use crate::spmm::test_support::{random_dense, random_matrix};

    fn seg(nz_start: usize, nz_end: usize) -> Segment {
        Segment {
            row: 0,
            nz_start,
            nz_end,
            flush: Flush::Regular,
        }
    }

    fn scalar_reference(
        s: &Segment,
        a: &CsrMatrix<f32>,
        b: &DenseMatrix<f32>,
        dim: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; dim];
        accumulate_segment_scalar(s, a.col_indices(), a.values(), b, &mut out);
        out
    }

    fn resolved(kind: PathKind, lanes: LaneWidth, panel: usize) -> ResolvedPath {
        ResolvedPath {
            kind,
            lanes,
            wide_isa: WideIsa::detect(),
            panel,
            prefetch: false,
        }
    }

    /// Every kernel variant, ISA clone, lane width and panel size must be
    /// bit-identical to the scalar oracle on all dims 1..=67 and at the
    /// wide dims around the 64- and 32-column blocks — including empty
    /// segments and single-nnz rows. Narrow panels make the remainder
    /// block reach back across a panel edge.
    #[test]
    fn all_kernels_bit_match_scalar_oracle_dims_1_to_67() {
        let a = random_matrix(64, 64, 300, 21);
        let row_end = a.row_ptr()[1];
        let segments = [
            seg(0, row_end), // the evil long row
            seg(0, 0),       // empty
            seg(2, 3),       // single non-zero
            seg(1, row_end - 1),
            seg(3, 5),                  // two non-zeros (gather)
            seg(4, 7),                  // three non-zeros (gather)
            seg(5, 5 + GATHER_MAX_NNZ), // the widest gather segment
        ];
        let isas = proven_isas();
        for dim in (1..=67usize).chain([96, 121, 127, 128, 129, 200]) {
            let b = random_dense(64, dim, 22);
            for s in &segments {
                let want = scalar_reference(s, &a, &b, dim);
                let mut got = vec![f32::NAN; dim];
                for &wide_isa in &isas {
                    for lanes in [LaneWidth::W8, LaneWidth::W16] {
                        for panel in [8usize, 16, 32, 48, 1024] {
                            let rp = ResolvedPath {
                                wide_isa,
                                ..resolved(PathKind::Vector, lanes, panel)
                            };
                            got.fill(f32::NAN);
                            with_isa(wide_isa, || {
                                vector_segment(s, a.col_indices(), a.values(), &b, &mut got, &rp)
                            });
                            assert_eq!(
                                got, want,
                                "vector {wide_isa:?} dim={dim} lanes={lanes:?} \
                                 panel={panel} seg={s:?}"
                            );
                        }
                    }
                }
                if s.len() <= GATHER_MAX_NNZ {
                    got.fill(f32::NAN);
                    gather_segment(s, a.col_indices(), a.values(), &b, &mut got);
                    assert_eq!(got, want, "gather dim={dim} seg={s:?}");
                }
                got.fill(f32::NAN);
                let rp = resolved(PathKind::Vector, LaneWidth::W16, 16);
                stream_segment(s, a.col_indices(), a.values(), &b, &mut got, &rp);
                assert_eq!(got, want, "stream dim={dim} seg={s:?}");
            }
        }
    }

    /// Gather prefetch must never change a value: `vector_segment` with
    /// the hints on and off, on both lane widths and in every ISA clone,
    /// equals the scalar oracle exactly. The segments include empty ones
    /// and ones that end at the matrix's last non-zero, where
    /// `k + PREFETCH_DISTANCE` runs past the index array and the hint
    /// index is clipped. The narrow panel width hands the hint interior
    /// panel windows, so this drives the prefetch `unsafe` block at
    /// every window edge (lane-misaligned starts, single columns,
    /// windows ending at the row's last column).
    #[test]
    fn prefetch_on_and_off_bit_match_scalar_oracle() {
        let a = random_matrix(64, 64, 300, 23);
        let nnz = a.nnz();
        let row_end = a.row_ptr()[1];
        let segments = [
            seg(0, row_end),                            // the evil long row
            seg(0, 0),                                  // empty at the start
            seg(nnz, nnz),                              // empty at the end
            seg(nnz - 1, nnz),                          // last non-zero alone
            seg(nnz - GATHER_MAX_NNZ, nnz),             // widest gather, clipped
            seg(nnz - PREFETCH_DISTANCE - 3, nnz),      // streaming, clipped
            seg(nnz - 40, nnz - PREFETCH_DISTANCE / 2), // clip in the last hints
            seg(5, 5 + GATHER_MAX_NNZ + 1),             // shortest streaming
        ];
        for dim in [1usize, 5, 16, 17, 33, 67, 128] {
            let b = random_dense(64, dim, 24);
            for s in &segments {
                let mut want = vec![0.0f32; dim];
                accumulate_segment_scalar(s, a.col_indices(), a.values(), &b, &mut want);
                for lanes in [LaneWidth::W8, LaneWidth::W16] {
                    for panel in [8usize, 1024] {
                        for (prefetch, wide_isa) in [false, true]
                            .into_iter()
                            .flat_map(|p| proven_isas().into_iter().map(move |i| (p, i)))
                        {
                            let rp = ResolvedPath {
                                prefetch,
                                wide_isa,
                                ..resolved(PathKind::Vector, lanes, panel)
                            };
                            let ctx = format!(
                                "dim={dim} lanes={lanes:?} panel={panel} \
                                 prefetch={prefetch} {wide_isa:?} seg={s:?}"
                            );
                            let mut got = vec![f32::NAN; dim];
                            with_isa(wide_isa, || {
                                vector_segment(s, a.col_indices(), a.values(), &b, &mut got, &rp)
                            });
                            assert_eq!(got, want, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// The prefetch gate: on only for the vectorized family, and only
    /// when `B`'s footprint (`b_rows × dim × 4` bytes) is more than
    /// [`PREFETCH_L2_MULTIPLE`] times the cache model's L2.
    #[test]
    fn resolve_gates_prefetch_on_the_l2_footprint() {
        let bound = CacheModel::default().l2_bytes * PREFETCH_L2_MULTIPLE;
        let dim = 64;
        let fits = bound / (dim * std::mem::size_of::<f32>());
        assert!(
            !DataPath::Vector.resolve(fits, dim).prefetch,
            "exactly at the bound"
        );
        assert!(DataPath::Vector.resolve(fits + 1, dim).prefetch);
        assert!(!DataPath::Vector.resolve(1, dim).prefetch);
        assert!(!DataPath::Vector.resolve(0, dim).prefetch);
        assert!(!DataPath::Scalar.resolve(fits + 1, dim).prefetch);
        assert!(!DataPath::Scalar.resolve(1 << 30, 1 << 10).prefetch);
        let auto = DataPath::Auto.resolve(fits + 1, dim);
        assert_eq!(auto.prefetch, auto.kind == PathKind::Vector);
        // Saturating arithmetic: an absurd footprint is "above L2", never
        // a wrapped-around small one.
        assert!(prefetch_pays(
            usize::MAX,
            usize::MAX,
            &CacheModel::default()
        ));
    }

    /// Every arm of the GEMM ISA dispatch computes the same bits as the
    /// scalar path's naive loop: the `Portable` body and each
    /// `#[target_feature]` clone this CPU proves, at both lane widths,
    /// over a full `GEMM_MR` tile plus a remainder row, with `k` spanning
    /// three `k`-blocks. `B` is packed per arm at that arm's width, so
    /// under AVX-512F every width above 16 runs the explicit 32-column
    /// tile and its gated call, load and store helpers. The widths cover
    /// a lone padded block (1, 2, 7, 9, 15, 31), exact blocks (8, 16, 32,
    /// 64, 128) and a padded last block after full ones (17, 33, 63, 65,
    /// 121, 127), whose seeded partial lanes carry the sum across
    /// `k`-blocks. The packed buffer and the output are poisoned with
    /// NaN first, so a padded lane left unwritten, one stored into `C`,
    /// or an output element the first `k`-block fails to store, shows.
    #[test]
    fn gemm_dispatch_arms_bit_match_portable() {
        let isas = proven_isas();
        let (rows, k, kc) = (GEMM_MR + 1, 75, 32);
        let a = random_dense(rows, k, 31);
        let model = CacheModel::default();
        let widths = [1usize, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65];
        for n in widths.into_iter().chain([121, 127, 128]) {
            let b = random_dense(k, n, 32);
            let mut naive = vec![0.0f32; rows * n];
            gemm_band(
                &a,
                &b,
                &[],
                0,
                &DataPath::Scalar.resolve(k, n),
                kc,
                &mut naive,
            );
            for lanes in [LaneWidth::W8, LaneWidth::W16] {
                for &wide_isa in &isas {
                    let rp = ResolvedPath {
                        wide_isa,
                        ..resolved(
                            PathKind::Vector,
                            lanes,
                            panel_cols(n, lanes.lanes(), &model),
                        )
                    };
                    let w = gemm_pack_width(&rp, n).expect("vector path packs");
                    let want_w = match wide_isa {
                        WideIsa::Avx512f if n > 16 => AVX512_GEMM_COLS,
                        _ => lanes.lanes(),
                    };
                    assert_eq!(w, want_w, "{wide_isa:?} n={n} lanes={lanes:?}");
                    let mut packed = vec![f32::NAN; n.div_ceil(w) * k * w];
                    pack_b(&b, w, &mut packed);
                    assert!(packed.iter().all(|v| !v.is_nan()), "n={n}: pad zeroed");
                    let mut dst = vec![f32::NAN; rows * n];
                    let panels = gemm_band(&a, &b, &packed, 0, &rp, kc, &mut dst);
                    assert!(panels > 0);
                    assert_eq!(dst, naive, "{wide_isa:?} n={n} lanes={lanes:?}");
                }
            }
        }
    }

    #[test]
    fn dispatch_routes_short_segments_to_gather() {
        // The dispatch itself is value-transparent; this pins the routing
        // threshold semantics: len <= GATHER_MAX_NNZ gathers.
        let a = random_matrix(32, 32, 150, 5);
        let b = random_dense(32, 24, 6);
        let rp = DataPath::Vector.resolve(32, 24);
        let short = seg(0, GATHER_MAX_NNZ);
        let long = seg(0, GATHER_MAX_NNZ + 1);
        for s in [&short, &long] {
            let want = scalar_reference(s, &a, &b, 24);
            let mut got = vec![f32::NAN; 24];
            vector_segment(s, a.col_indices(), a.values(), &b, &mut got, &rp);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn resolve_honors_explicit_paths_and_panel_model() {
        assert_eq!(DataPath::Scalar.resolve(32, 32).kind, PathKind::Scalar);
        assert_eq!(DataPath::Vector.resolve(32, 32).kind, PathKind::Vector);
        let auto = DataPath::Auto.resolve(32, 32).kind;
        if cfg!(feature = "force-scalar") {
            assert_eq!(auto, PathKind::Scalar);
        } else {
            assert_eq!(auto, PathKind::Vector);
        }
        let rp = DataPath::Vector.resolve(32, 4096);
        assert_eq!(rp.panel % rp.lanes.lanes(), 0);
        assert!(rp.panel <= 4096 + rp.lanes.lanes());
    }

    #[test]
    fn lane_detection_is_stable_and_wide_enough() {
        let w = LaneWidth::detect();
        assert_eq!(w, LaneWidth::detect());
        assert!(w.lanes() >= 8);
    }
}
