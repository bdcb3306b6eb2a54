//! Vectorized, cache-blocked inner data path for the execution engine.
//!
//! The engine schedules rows onto workers; this module supplies the
//! kernels that fold each row:
//!
//! * **One row fold per block** — a block's column-tile plan
//!   ([`TilePlan`]) is fixed once per (span, block) run from its width and
//!   the ISA, and every row of the span runs through it with no other
//!   per-row decision. The plan's tiles are const-generic
//!   register-accumulator blocks: 128-, 64- and 32-column tiles (eight,
//!   four and two `zmm` accumulators) on AVX-512F, then tiles at the lane
//!   width ([`LaneWidth`] picks 16 or 8 at runtime), 8 and 4, each
//!   compiled to straight-line code LLVM auto-vectorizes. A remainder
//!   narrower than a tile is covered by one more tile that ends at the
//!   row's end and reaches back over columns already stored: the tiles
//!   only store, and every column's sum is the same whichever tile
//!   computes it, so the overlap rewrites the same bits and no column runs
//!   a scalar chain. Only a row narrower than four columns takes a tile of
//!   its own width. A one-tile plan (widths 1–4 and 8, the lane width, and
//!   32, 64 and 128 under AVX-512F) folds the whole span at that const
//!   width.
//! * **ISA clones** — the vectorized row fold and the 16-lane GEMM tile
//!   both run through one pair of `#[target_feature]` trampolines
//!   ([`with_isa`]), so the same kernel bodies compile to 512- or 256-bit
//!   code when the CPU proves AVX-512F or AVX2 at runtime ([`WideIsa`]).
//!   Under AVX-512F a GEMM wider than 16 columns runs an explicit
//!   4 × 32 `zmm` tile instead ([`gemm_pack_width`]).
//! * **Feature-dimension panel blocking** — the GEMM sweeps its output
//!   width in L1-resident column panels ([`crate::tuning::panel_cols`]).
//!
//! # Why the scalar kernel stays the oracle
//!
//! Every kernel here gives each output column its **own** accumulator,
//! seeds it from `0.0` and adds that column's products in non-zero order.
//! Lane width and tile plan only change *which columns are grouped
//! together*, never the order of additions within a column — so every
//! path produces the same bits as [`fold_row_scalar`] (and hence as
//! [`crate::executor::execute_sequential`]), the sign of a zero included.
//! Building with the `force-scalar` feature pins [`DataPath::Auto`] to the
//! scalar path, keeping a known-good oracle build available at all times.
//!
//! # Tuning constants
//!
//! The data path reads no environment variable and has no switch: the
//! tile plan follows from the block's width and the ISA alone.

use mpspmm_sparse::DenseMatrix;

use crate::tuning::GEMM_MR;

/// Which inner data path an [`crate::ExecEngine`] drives its rows
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataPath {
    /// Pick automatically: the vectorized path, unless the crate is built
    /// with the `force-scalar` feature (then the scalar oracle).
    #[default]
    Auto,
    /// Scalar per-column accumulation — the correctness oracle.
    Scalar,
    /// Wide-lane register tiles, one column-tile plan per block.
    Vector,
}

/// Accumulator width of the lane-width SpMM tile and the GEMM tile,
/// selected at runtime.
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
/// `Avx512f` the SpMM tile plan also runs 128-, 64- and 32-column tiles
/// ahead of the 16-lane one; that too only regroups columns.
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

/// A [`DataPath`] resolved on the running CPU: the kernel family, the
/// lane width and the ISA clone, fixed once per engine run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedPath {
    pub kind: PathKind,
    pub lanes: LaneWidth,
    pub wide_isa: WideIsa,
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

    /// Resolves the path for one execution on this CPU.
    pub(crate) fn resolve(self) -> ResolvedPath {
        ResolvedPath {
            kind: self.kind(),
            lanes: LaneWidth::detect(),
            wide_isa: WideIsa::detect(),
        }
    }
}

/// Scalar oracle: one column at a time, each summed from `0.0` over the
/// row's non-zeros (`cols`, `vals`) in order, stored into `dst`.
pub(crate) fn fold_row_scalar(cols: &[usize], vals: &[f32], b: &DenseMatrix<f32>, dst: &mut [f32]) {
    for (d, slot) in dst.iter_mut().enumerate() {
        let mut s = 0.0f32;
        for (&v, &c) in vals.iter().zip(cols) {
            s += v * b.row(c)[d];
        }
        *slot = s;
    }
}

/// One `W`-column register tile of a row: `W` f32 accumulators, seeded
/// from `0.0`, sweep the row's non-zeros (`cols`, `vals`) in ascending
/// `k`, then store into `dst[d..d + W]`. `b` is the dense operand's
/// row-major storage, `dim` columns wide; loads of it go through a
/// fixed-size `[f32; W]` view, so the inner loop is straight-line code
/// LLVM vectorizes.
#[inline(always)]
pub(crate) fn tile<const W: usize>(
    cols: &[usize],
    vals: &[f32],
    b: &[f32],
    dim: usize,
    d: usize,
    dst: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (&v, &c) in vals.iter().zip(cols) {
        let x: &[f32; W] = b[c * dim + d..][..W]
            .try_into()
            .expect("tile inside the row");
        for (a, &x) in acc.iter_mut().zip(x) {
            *a += v * x;
        }
    }
    dst[d..d + W].copy_from_slice(&acc);
}

/// `count` side-by-side tiles of `width` columns from column `start`: one
/// run of a [`TilePlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TileRun {
    pub width: usize,
    pub start: usize,
    pub count: usize,
}

/// Runs a [`TilePlan`] holds at most: one per tile width, plus the
/// overlapping tile that ends the row.
const MAX_TILE_RUNS: usize = 7;

/// The column tiles that cover a `dim`-wide row, fixed once per block run
/// from the width and the ISA. Under AVX-512F it starts with 128-, 64-
/// and 32-column tiles; then come tiles at the lane width, 8 and 4. At
/// each width, tiles run side by side while they fit; a remainder wider
/// than half a tile (any remainder, at 4) then takes one more tile that
/// ends at the row's end, when the row is at least that wide, and the
/// plan is complete. Only a row narrower than four columns takes a tile
/// of its own width. Width 121 under AVX-512F is a 64-column tile at 0
/// and one at 57. The plan lives on the stack: building it allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePlan {
    runs: [TileRun; MAX_TILE_RUNS],
    len: usize,
}

impl TilePlan {
    /// The plan of a `dim`-wide row under `rp`'s lane width and ISA.
    pub(crate) fn new(dim: usize, rp: &ResolvedPath) -> Self {
        let mut plan = Self {
            runs: [TileRun::default(); MAX_TILE_RUNS],
            len: 0,
        };
        let mut push = |run: TileRun| {
            plan.runs[plan.len] = run;
            plan.len += 1;
        };
        let wide: &[usize] = match rp.wide_isa {
            WideIsa::Avx512f => &[128, 64, 32],
            _ => &[],
        };
        let lanes: &[usize] = match rp.lanes {
            LaneWidth::W16 => &[16],
            LaneWidth::W8 => &[],
        };
        let mut d = 0;
        for &width in wide.iter().chain(lanes).chain(&[8, 4]) {
            let count = (dim - d) / width;
            if count > 0 {
                push(TileRun {
                    width,
                    start: d,
                    count,
                });
                d += count * width;
            }
            let cover = if width > 4 { width / 2 } else { 0 };
            if dim - d > cover && dim >= width {
                push(TileRun {
                    width,
                    start: dim - width,
                    count: 1,
                });
                d = dim;
            }
        }
        if d < dim {
            push(TileRun {
                width: dim - d,
                start: d,
                count: 1,
            });
        }
        plan
    }

    /// The plan's runs, in column order.
    pub(crate) fn runs(&self) -> &[TileRun] {
        &self.runs[..self.len]
    }

    /// The tile width when one tile covers the whole row.
    pub(crate) fn single(&self) -> Option<usize> {
        match self.runs() {
            [TileRun {
                width, count: 1, ..
            }] => Some(*width),
            _ => None,
        }
    }

    /// Stores the sum of one row's non-zeros (`cols`, `vals`) into every
    /// column of `dst`, tile by tile in plan order. `b` is the dense
    /// operand's row-major storage, `dst.len()` columns wide.
    #[inline(always)]
    pub(crate) fn fold_row(&self, cols: &[usize], vals: &[f32], b: &[f32], dst: &mut [f32]) {
        let dim = dst.len();
        for run in self.runs() {
            for d in (run.start..).step_by(run.width).take(run.count) {
                match run.width {
                    128 => tile::<128>(cols, vals, b, dim, d, dst),
                    64 => tile::<64>(cols, vals, b, dim, d, dst),
                    32 => tile::<32>(cols, vals, b, dim, d, dst),
                    16 => tile::<16>(cols, vals, b, dim, d, dst),
                    8 => tile::<8>(cols, vals, b, dim, d, dst),
                    4 => tile::<4>(cols, vals, b, dim, d, dst),
                    3 => tile::<3>(cols, vals, b, dim, d, dst),
                    2 => tile::<2>(cols, vals, b, dim, d, dst),
                    1 => tile::<1>(cols, vals, b, dim, d, dst),
                    w => unreachable!("no {w}-column tile"),
                }
            }
        }
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
/// at a time, sweeping the output width in `panel`-column panels
/// ([`crate::tuning::panel_cols`]);
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
    (panel, kc): (usize, usize),
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
            panels += gemm_rows(arows, packed, (k, n), rp, panel, krange.clone(), &mut crows);
            r += GEMM_MR;
        }
        for crow in quads.into_remainder().chunks_exact_mut(n) {
            panels += gemm_rows(
                [a.row(row_start + r)],
                packed,
                (k, n),
                rp,
                panel,
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
    panel: usize,
    krange: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if gemm_pack_width(rp, kn.1) == Some(AVX512_GEMM_COLS) {
        return wide::gemm_rows_avx512f(rp.wide_isa, arows, packed, kn, panel, krange, crows);
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
                panel,
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
                panel,
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

/// The two `#[target_feature]` trampolines behind [`with_isa`] and the
/// explicit AVX-512F GEMM tile. This is
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
    use crate::spmm::test_support::{random_dense, random_matrix};
    use crate::tuning::{panel_cols, CacheModel};

    fn resolved(kind: PathKind, lanes: LaneWidth) -> ResolvedPath {
        ResolvedPath {
            kind,
            lanes,
            wide_isa: WideIsa::detect(),
        }
    }

    /// The (ISA, lane width) pairs a tile plan is built for: every ISA,
    /// proven or not (building a plan runs nothing), at both lane widths.
    fn plan_paths() -> Vec<ResolvedPath> {
        let isas = [WideIsa::Portable, WideIsa::Avx2, WideIsa::Avx512f];
        isas.into_iter()
            .flat_map(|wide_isa| {
                [LaneWidth::W8, LaneWidth::W16].map(|lanes| ResolvedPath {
                    wide_isa,
                    ..resolved(PathKind::Vector, lanes)
                })
            })
            .collect()
    }

    /// The plan rule at the widths the served workloads and the docs
    /// name, and, at every width up to 300 under every ISA and lane
    /// width, plans whose tiles stay inside the row and cover every
    /// column, widest tiles first.
    #[test]
    fn tile_plans_cover_every_column_by_the_width_rule() {
        let run = |width, start, count| TileRun {
            width,
            start,
            count,
        };
        let rp = |wide_isa, lanes| ResolvedPath {
            wide_isa,
            ..resolved(PathKind::Vector, lanes)
        };
        let avx512 = rp(WideIsa::Avx512f, LaneWidth::W16);
        let avx2 = rp(WideIsa::Avx2, LaneWidth::W16);
        let sse = rp(WideIsa::Portable, LaneWidth::W8);
        let cases = [
            (121, avx512, vec![run(64, 0, 1), run(64, 57, 1)]),
            (128, avx512, vec![run(128, 0, 1)]),
            (32, avx512, vec![run(32, 0, 1)]),
            (32, avx2, vec![run(16, 0, 2)]),
            (16, avx2, vec![run(16, 0, 1)]),
            (16, sse, vec![run(8, 0, 2)]),
            (200, avx512, vec![run(128, 0, 1), run(128, 72, 1)]),
            (136, avx512, vec![run(128, 0, 1), run(8, 128, 1)]),
            (21, avx2, vec![run(16, 0, 1), run(8, 13, 1)]),
            (5, avx512, vec![run(4, 0, 1), run(4, 1, 1)]),
            (3, avx512, vec![run(3, 0, 1)]),
            (1, sse, vec![run(1, 0, 1)]),
        ];
        for (dim, rp, want) in cases {
            assert_eq!(TilePlan::new(dim, &rp).runs(), want, "dim={dim} {rp:?}");
        }
        for rp in plan_paths() {
            for dim in 1..=300usize {
                let plan = TilePlan::new(dim, &rp);
                let mut covered = vec![false; dim];
                for r in plan.runs() {
                    assert!(r.count > 0 && r.start + r.count * r.width <= dim);
                    covered[r.start..r.start + r.count * r.width].fill(true);
                }
                assert!(covered.iter().all(|&c| c), "dim={dim} {rp:?}");
                assert!(plan.runs().windows(2).all(|w| w[0].width >= w[1].width));
                if let Some(width) = plan.single() {
                    assert_eq!(width, dim, "a lone tile spans the row");
                }
            }
        }
    }

    /// Every tile plan, run in every ISA clone this CPU proves at both
    /// lane widths, stores exactly the scalar oracle's bits on all widths
    /// 1..=67 and the wide widths around the 128-, 64- and 32-column
    /// tiles: for a long row, an empty row, and rows of one to four
    /// non-zeros. The output starts as NaN, so a column no tile stores
    /// shows.
    #[test]
    fn tile_plans_bit_match_the_scalar_oracle() {
        let a = random_matrix(64, 64, 300, 21);
        let (cols, vals) = (a.col_indices(), a.values());
        let long = a.row_ptr()[1];
        let rows = [0..long, 0..0, 2..3, 1..long - 1, 3..5, 4..7, 5..9];
        let isas = proven_isas();
        for dim in (1..=67usize).chain([96, 121, 127, 128, 129, 200]) {
            let b = random_dense(64, dim, 22);
            for nz in &rows {
                let (c, v) = (&cols[nz.clone()], &vals[nz.clone()]);
                let mut want = vec![f32::NAN; dim];
                fold_row_scalar(c, v, &b, &mut want);
                for rp in plan_paths()
                    .into_iter()
                    .filter(|rp| isas.contains(&rp.wide_isa))
                {
                    let plan = TilePlan::new(dim, &rp);
                    let mut got = vec![f32::NAN; dim];
                    with_isa(rp.wide_isa, || plan.fold_row(c, v, b.as_slice(), &mut got));
                    assert_eq!(got, want, "dim={dim} row={nz:?} {rp:?}");
                }
            }
        }
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
            let panel = |lanes: usize| panel_cols(n, lanes, &model);
            let scalar = DataPath::Scalar.resolve();
            gemm_band(&a, &b, &[], 0, &scalar, (panel(8), kc), &mut naive);
            for lanes in [LaneWidth::W8, LaneWidth::W16] {
                for &wide_isa in &isas {
                    let rp = ResolvedPath {
                        wide_isa,
                        ..resolved(PathKind::Vector, lanes)
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
                    let blocking = (panel(lanes.lanes()), kc);
                    let panels = gemm_band(&a, &b, &packed, 0, &rp, blocking, &mut dst);
                    assert!(panels > 0);
                    assert_eq!(dst, naive, "{wide_isa:?} n={n} lanes={lanes:?}");
                }
            }
        }
    }

    #[test]
    fn resolve_honors_explicit_paths_and_panel_model() {
        assert_eq!(DataPath::Scalar.resolve().kind, PathKind::Scalar);
        assert_eq!(DataPath::Vector.resolve().kind, PathKind::Vector);
        let auto = DataPath::Auto.resolve().kind;
        if cfg!(feature = "force-scalar") {
            assert_eq!(auto, PathKind::Scalar);
        } else {
            assert_eq!(auto, PathKind::Vector);
        }
        let lanes = DataPath::Vector.resolve().lanes.lanes();
        let panel = panel_cols(4096, lanes, &CacheModel::default());
        assert_eq!(panel % lanes, 0);
        assert!(panel <= 4096 + lanes);
    }

    #[test]
    fn lane_detection_is_stable_and_wide_enough() {
        let w = LaneWidth::detect();
        assert_eq!(w, LaneWidth::detect());
        assert!(w.lanes() >= 8);
    }
}
