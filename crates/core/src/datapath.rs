//! Vectorized inner data path for the execution engine.
//!
//! The engine schedules rows onto workers; this module supplies the
//! kernels that fold each row:
//!
//! * **One row fold per block** — a block's column-tile plan
//!   ([`TilePlan`]) is fixed once per (span, block) run from its width and
//!   the ISA, and every row of the span runs through it with no other
//!   per-row decision. The plan's tiles are const-generic
//!   register-accumulator blocks: 64- and 32-column tiles (four and two
//!   `zmm` accumulators) on AVX-512F, then tiles at the
//!   ISA's lane width ([`WideIsa::lanes`]: 16 with AVX2 or AVX-512F, 8
//!   otherwise), 8 and 4, each compiled to straight-line code LLVM
//!   auto-vectorizes. A remainder narrower than a tile is covered by one
//!   more tile that ends at the row's end and reaches back over columns
//!   already stored: the tiles only store, and every column's sum is the
//!   same whichever tile computes it, so the overlap rewrites the same
//!   bits and no column runs a scalar chain. Only a row narrower than four
//!   columns takes a tile of its own width. A one-tile plan (widths 1–4
//!   and 8, the lane width, and 32 and 64 under AVX-512F) folds the
//!   whole span at that const width. There is no 128-column tile: two
//!   64-column passes ran faster at every measured width (DESIGN.md
//!   §2.3.1).
//! * **ISA clones** — the vectorized row fold and the 16-lane GEMM tile
//!   both run through one pair of `#[target_feature]` trampolines
//!   ([`with_isa`]), so the same kernel bodies compile to 512- or 256-bit
//!   code when the CPU proves AVX-512F or AVX2 at runtime ([`WideIsa`]).
//!   Under AVX-512F a GEMM runs explicit `zmm` tiles instead
//!   ([`gemm_pack_width`]): 4 × 32 when `B` is wider than 16 columns, and
//!   a rows-in-lanes tile of 16 rows (one per lane) when it is at most
//!   [`NARROW_GEMM_COLS`] wide.
//! * **One GEMM sweep per register tile** — each register tile of output
//!   rows sweeps every column of `B` over the full reduction depth and
//!   stores it once ([`gemm_band`]); there is no cache blocking of `k` or
//!   of the output width.
//!
//! # Why the scalar kernel stays the oracle
//!
//! Every kernel here gives each output column its **own** accumulator,
//! seeds it from `0.0` and adds that column's products in non-zero order.
//! Lane width and tile plan only change *which columns are grouped
//! together*, never the order of additions within a column — so every
//! path produces the same bits as [`fold_row_scalar`] (and hence as
//! [`crate::executor::execute_sequential`]), the sign of a zero included.
//! [`DataPath::Scalar`] selects the scalar kernels on any engine, so the
//! oracle runs next to the default path in the same build.
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
    /// Scalar per-column accumulation — the correctness oracle.
    Scalar,
    /// Wide-lane register tiles, one column-tile plan per block, in the
    /// widest ISA clone the CPU proves.
    #[default]
    Vector,
}

/// Widest x86 vector extension the vectorized SpMM row fold and the GEMM
/// tile may be *compiled* for, proven present at runtime. It selects a
/// `#[target_feature]` clone of the same kernel body ([`with_isa`]) and
/// the lane width of its accumulator blocks ([`WideIsa::lanes`]), so the
/// identical scalar arithmetic (separate multiply and add, `k` ascending
/// — never FMA-contracted, which would change rounding) is emitted with
/// 256- or 512-bit instructions. Results stay bit-equal across all
/// variants because every vector lane is an independent output column.
/// Under `Avx512f` the SpMM tile plan also runs 64- and 32-column tiles
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

    /// f32 accumulators per lane-width block in this clone: 16 (one `zmm`
    /// register under AVX-512F, two `ymm` under AVX2), 8 in baseline code
    /// (two SSE vectors).
    pub(crate) fn lanes(self) -> usize {
        match self {
            WideIsa::Portable => 8,
            WideIsa::Avx2 | WideIsa::Avx512f => 16,
        }
    }
}

/// A [`DataPath`] resolved on the running CPU: the scalar oracle, or the
/// vectorized kernels in one ISA clone, fixed once per engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedPath {
    Scalar,
    Vector(WideIsa),
}

impl DataPath {
    /// The instruction set this path's SpMM and GEMM kernels run compiled
    /// for on the running CPU: `"avx512f"`, `"avx2"` or `"baseline"` for
    /// the vectorized path, and always `"baseline"` for the scalar oracle.
    /// Benches record it next to their timings.
    pub fn isa(self) -> &'static str {
        match self.resolve() {
            ResolvedPath::Vector(WideIsa::Avx512f) => "avx512f",
            ResolvedPath::Vector(WideIsa::Avx2) => "avx2",
            _ => "baseline",
        }
    }

    /// Resolves the path for one execution on this CPU.
    pub(crate) fn resolve(self) -> ResolvedPath {
        match self {
            DataPath::Scalar => ResolvedPath::Scalar,
            DataPath::Vector => ResolvedPath::Vector(WideIsa::detect()),
        }
    }
}

/// Scalar oracle: one column at a time, each summed from `0.0` over the
/// row's non-zeros (`cols`, `vals`) in order, stored into `dst`. `b` is
/// the dense operand's row-major storage, `dst.len()` columns wide.
pub(crate) fn fold_row_scalar(cols: &[usize], vals: &[f32], b: &[f32], dst: &mut [f32]) {
    let dim = dst.len();
    for (d, slot) in dst.iter_mut().enumerate() {
        let mut s = 0.0f32;
        for (&v, &c) in vals.iter().zip(cols) {
            s += v * b[c * dim + d];
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
const MAX_TILE_RUNS: usize = 6;

/// The column tiles that cover a `dim`-wide row, fixed once per block run
/// from the width and the ISA. Under AVX-512F it starts with 64- and
/// 32-column tiles; then come tiles at the lane width, 8 and 4. At
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
    /// The plan of a `dim`-wide row in `isa`'s clone.
    pub(crate) fn new(dim: usize, isa: WideIsa) -> Self {
        let mut plan = Self {
            runs: [TileRun::default(); MAX_TILE_RUNS],
            len: 0,
        };
        let mut push = |run: TileRun| {
            plan.runs[plan.len] = run;
            plan.len += 1;
        };
        let widths: &[usize] = match isa {
            WideIsa::Avx512f => &[64, 32, 16, 8, 4],
            WideIsa::Avx2 => &[16, 8, 4],
            WideIsa::Portable => &[8, 4],
        };
        let mut d = 0;
        for &width in widths {
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

/// Dense GEMM band kernel for [`crate::ExecEngine::gemm`] and the packed
/// forward's group GEMMs ([`crate::ExecEngine::forward`]):
/// computes `dst.len() / b.cols()` output rows of `C = A · B` into the
/// row-major slice `dst`, reading their `k`-long `A` rows in order from
/// `arows`, which may come from different matrices.
///
/// Every path stores each element of `dst` once, so `dst` may hold
/// anything: the scalar path zero-fills each output row, then adds into
/// it in ascending `k`; the vectorized path reads none of `dst`. Under
/// AVX-512F a `B` of at most [`NARROW_GEMM_COLS`] columns runs the
/// rows-in-lanes tile on `b` as it lies, 16 rows at a time (fewer in the
/// band's last tile); every other shape reads `B` only through
/// `packed`, the [`pack_b`] layout at
/// [`gemm_pack_width`]. There each register tile of [`GEMM_MR`] `A` rows
/// (then one row at a time for the remainder) sweeps every packed column
/// block over the full `k` from a literal `0.0` seed and stores the block
/// once; the last block of a width that is not a block multiple runs on
/// its zero-padded lanes and stores only the valid ones. Every output
/// element sums its products in ascending `k`, exactly the naive `ikj`
/// loop's order, so the result is bit-equal to that loop. No tile skips
/// a zero `A` element as the seed code's loop did; with a finite `B` the
/// skip moves no bit (DESIGN.md §2.10).
pub(crate) fn gemm_band<'a>(
    arows: impl Iterator<Item = &'a [f32]>,
    k: usize,
    b: &DenseMatrix<f32>,
    packed: &[f32],
    rp: &ResolvedPath,
    dst: &mut [f32],
) {
    let n = b.cols();
    if n == 0 || dst.is_empty() {
        return;
    }
    let isa = match *rp {
        ResolvedPath::Scalar => {
            for (crow, arow) in dst.chunks_exact_mut(n).zip(arows) {
                crow.fill(0.0);
                for (p, &av) in arow.iter().enumerate() {
                    for (c, &bv) in crow.iter_mut().zip(b.row(p)) {
                        *c += av * bv;
                    }
                }
            }
            return;
        }
        ResolvedPath::Vector(isa) => isa,
    };
    let kn = (k, n);
    // Only the explicit AVX-512F tiles read `B` other than packed at the
    // lane width.
    #[cfg(target_arch = "x86_64")]
    if gemm_pack_width(rp, n) != Some(isa.lanes()) {
        return wide::gemm_band_avx512f(isa, arows, b.as_slice(), packed, kn, dst);
    }
    row_tiles(
        arows,
        dst,
        n,
        |a, c| gemm_rows(a, packed, kn, isa, c),
        |a, c| gemm_rows(a, packed, kn, isa, c),
    );
}

/// Hands each [`GEMM_MR`]-row tile of `dst` (`n` columns wide) to
/// `tile`, then each remainder row to `row`, with their `A` rows drawn in
/// order from `arows`.
#[inline(always)]
fn row_tiles<'a>(
    mut arows: impl Iterator<Item = &'a [f32]>,
    dst: &mut [f32],
    n: usize,
    mut tile: impl FnMut([&'a [f32]; GEMM_MR], &mut [&mut [f32]; GEMM_MR]),
    mut row: impl FnMut([&'a [f32]; 1], &mut [&mut [f32]; 1]),
) {
    let mut next_row = || arows.next().expect("one A row per output row");
    let mut quads = dst.chunks_exact_mut(GEMM_MR * n);
    for quad in quads.by_ref() {
        let a: [&[f32]; GEMM_MR] = std::array::from_fn(|_| next_row());
        let mut rows = quad.chunks_exact_mut(n);
        let mut crows: [&mut [f32]; GEMM_MR] =
            std::array::from_fn(|_| rows.next().expect("quad holds GEMM_MR rows"));
        tile(a, &mut crows);
    }
    for crow in quads.into_remainder().chunks_exact_mut(n) {
        row([next_row()], &mut [crow]);
    }
}

/// Columns of the explicit AVX-512F GEMM tile: two `zmm` accumulators
/// per row.
const AVX512_GEMM_COLS: usize = 32;

/// Widest `B` the rows-in-lanes AVX-512F GEMM tile takes: one `zmm`
/// accumulator per output column. Past it the 16-lane zero-padded block
/// is faster; the crossover sweep is in DESIGN.md §2.11.
pub(crate) const NARROW_GEMM_COLS: usize = 8;

/// Whether a vectorized GEMM of an `n`-column `B` runs in `isa`'s
/// rows-in-lanes tile: under AVX-512F, for `n` up to
/// [`NARROW_GEMM_COLS`].
pub(crate) fn narrow_gemm(isa: WideIsa, n: usize) -> bool {
    isa == WideIsa::Avx512f && n <= NARROW_GEMM_COLS
}

/// The column-block width the GEMM pack buffer is laid out at for this
/// resolved path and an `n`-column `B`, or `None` when no tile reads a
/// pack: the scalar path, and the rows-in-lanes tile ([`narrow_gemm`]),
/// which reads `B` as it lies. The width picks the tile:
/// [`AVX512_GEMM_COLS`] runs the explicit AVX-512F tile, which only
/// pays when `B` is wider than one `zmm` register; any other width runs
/// [`gemm_rows_body`] at the lane width.
pub(crate) fn gemm_pack_width(rp: &ResolvedPath, n: usize) -> Option<usize> {
    match *rp {
        ResolvedPath::Scalar => None,
        ResolvedPath::Vector(isa) if narrow_gemm(isa, n) => None,
        ResolvedPath::Vector(WideIsa::Avx512f) if n > 16 => Some(AVX512_GEMM_COLS),
        ResolvedPath::Vector(isa) => Some(isa.lanes()),
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

/// Sweeps the full output width for one register tile of `MR` rows with
/// [`gemm_rows_body`] at `isa`'s lane width, over the [`pack_b`] layout
/// at that width, through the matching kernel clone ([`with_isa`]).
#[inline]
fn gemm_rows<const MR: usize>(
    arows: [&[f32]; MR],
    packed: &[f32],
    kn: (usize, usize),
    isa: WideIsa,
    crows: &mut [&mut [f32]; MR],
) {
    // The body is an `inline(always)` closure so the trampoline compiles
    // all of it under the clone's features.
    with_isa(
        isa,
        #[inline(always)]
        || match isa.lanes() {
            16 => gemm_rows_body::<MR, 16>(arows, packed, kn, crows),
            8 => gemm_rows_body::<MR, 8>(arows, packed, kn, crows),
            w => unreachable!("no {w}-lane GEMM tile"),
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
/// explicit AVX-512F GEMM tiles. This is
/// one of the two modules allowed out of the crate's `deny(unsafe_code)`
/// (with [`crate::pool`]): calling a `#[target_feature]` function is
/// `unsafe` because executing it on a CPU without the feature is
/// undefined behavior — here each call is gated on the matching
/// `is_x86_feature_detected!` proof captured in the [`WideIsa`] of
/// [`ResolvedPath::Vector`] at path-resolution time. Both tiles are
/// entered through one gated call per band. Inside them, arithmetic and
/// shuffle intrinsics are safe calls; only the one vector load and one
/// vector store helper are `unsafe`, typed so a whole 16-lane block is
/// always in bounds.
///
/// The clones enable `avx2` / `avx512f` and **not** `fma`: rustc never
/// contracts a separate multiply and add into an FMA on its own, so
/// wider encodings cannot perturb the bit-exact arithmetic.
#[cfg(target_arch = "x86_64")]
mod wide {
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_castpd_ps, _mm512_castps_pd, _mm512_loadu_ps,
        _mm512_mask_permutexvar_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setr_epi32,
        _mm512_setzero_ps, _mm512_shuffle_f32x4, _mm512_storeu_ps, _mm512_unpackhi_pd,
        _mm512_unpackhi_ps, _mm512_unpacklo_pd, _mm512_unpacklo_ps,
    };

    use super::WideIsa;

    /// Runs `body` in the AVX-512F or AVX2 trampoline, or directly.
    /// `isa` is only ever set to a non-`Portable` variant by
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

    /// Runs one band's AVX-512F GEMM ([`super::gemm_band`]'s vector
    /// path when `B` is narrow or wider than 16 columns): the
    /// rows-in-lanes [`tile_narrow`] over unpacked `b` when
    /// [`super::narrow_gemm`] holds, else the 4 × 32 [`tile_avx512f`]
    /// over the 32-column [`super::pack_b`] layout in `packed`. `isa` is
    /// the caller's proof that the CPU runs AVX-512F.
    ///
    /// # Panics
    ///
    /// Panics unless `isa` is [`WideIsa::Avx512f`].
    #[inline]
    pub(super) fn gemm_band_avx512f<'a>(
        isa: WideIsa,
        arows: impl Iterator<Item = &'a [f32]>,
        b: &[f32],
        packed: &[f32],
        kn: (usize, usize),
        dst: &mut [f32],
    ) {
        assert_eq!(isa, WideIsa::Avx512f, "the GEMM tiles here need AVX-512F");
        debug_assert!(is_x86_feature_detected!("avx512f"));
        // SAFETY: `Avx512f` is only resolved, or forced by a test, after
        // `is_x86_feature_detected!("avx512f")` succeeded on this CPU,
        // and the assert above rules out every other arm.
        unsafe { band_avx512f(arows, b, packed, kn, dst) }
    }

    /// The band loop of [`gemm_band_avx512f`], compiled for AVX-512F.
    /// Narrow tiles take 16 rows at a time, the band's last tile fewer,
    /// at the const width `B` has ([`band_narrow`]); the 32-column tile
    /// takes `GEMM_MR` rows, then one row at a time.
    #[target_feature(enable = "avx512f")]
    fn band_avx512f<'a>(
        arows: impl Iterator<Item = &'a [f32]>,
        b: &[f32],
        packed: &[f32],
        (k, n): (usize, usize),
        dst: &mut [f32],
    ) {
        if super::narrow_gemm(WideIsa::Avx512f, n) {
            return match n {
                1 => band_narrow::<1>(arows, b, dst),
                2 => band_narrow::<2>(arows, b, dst),
                3 => band_narrow::<3>(arows, b, dst),
                4 => band_narrow::<4>(arows, b, dst),
                5 => band_narrow::<5>(arows, b, dst),
                6 => band_narrow::<6>(arows, b, dst),
                7 => band_narrow::<7>(arows, b, dst),
                8 => band_narrow::<8>(arows, b, dst),
                _ => unreachable!("no {n}-column narrow tile"),
            };
        }
        super::row_tiles(
            arows,
            dst,
            n,
            |a, c| sweep_avx512f(a, packed, (k, n), c),
            |a, c| sweep_avx512f(a, packed, (k, n), c),
        );
    }

    /// The [`super::gemm_rows_body`] sweep at 32 columns with
    /// [`tile_avx512f`] as its tile, compiled for AVX-512F.
    #[target_feature(enable = "avx512f")]
    fn sweep_avx512f<const MR: usize>(
        arows: [&[f32]; MR],
        packed: &[f32],
        (k, n): (usize, usize),
        crows: &mut [&mut [f32]; MR],
    ) {
        for (d, pb) in super::packed_blocks::<32>(packed, k, n) {
            tile_avx512f::<MR>(arows, pb, d, (n - d).min(32), crows);
        }
    }

    /// Rows of the rows-in-lanes tile, and the depth of one transposed
    /// block of `A`: one per `zmm` lane.
    const LANES: usize = 16;

    /// The narrow band loop at `N` columns: 16 rows per
    /// [`tile_narrow`], fewer in the band's last tile, whose missing
    /// rows repeat its first row in lanes that are never stored. `b` is
    /// `B` row-major, `N` wide.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn band_narrow<'a, const N: usize>(
        mut arows: impl Iterator<Item = &'a [f32]>,
        b: &[f32],
        dst: &mut [f32],
    ) {
        let (brows, []) = b.as_chunks::<N>() else {
            unreachable!("B is N wide")
        };
        for out in dst.as_chunks_mut::<N>().0.chunks_mut(LANES) {
            let mut a = [&[][..]; LANES];
            for slot in a.iter_mut().take(out.len()) {
                *slot = arows.next().expect("one A row per output row");
            }
            for r in out.len()..LANES {
                a[r] = a[0];
            }
            tile_narrow(a, brows, out);
        }
    }

    /// Rows-in-lanes register tile for an `N`-column `B` (`brows`, its
    /// `k` rows): lane `r` of every register is output row `r`. Each
    /// 16-deep block of the 16 `A` rows is transposed in registers
    /// ([`transpose`]), so register `kk` holds column `kk` of the block,
    /// one row per lane. One `zmm` accumulator per output column starts
    /// from `0.0`, and each `k` step adds a separate `_mm512_mul_ps` of
    /// that register by the broadcast `B[k][j]`, in ascending `k`
    /// ([`madd`]): each output element sums exactly the naive `ikj`
    /// loop's products in its order. A `k` tail of a row at least 16 deep
    /// loads the row's last 16 elements, and only the registers of its
    /// `k mod 16` real steps are added; a shallower row loads through a
    /// zero-padded stack copy and adds its real steps only, so no padded
    /// product reaches a sum (a row of `-0.0` products must sum to
    /// `+0.0`). A whole 16-row tile is interleaved into its `16 × N`
    /// row-major output in registers ([`interleave`]) and stored in `N`
    /// vector stores; only a band's last, shorter tile stores its lanes
    /// one element at a time.
    #[target_feature(enable = "avx512f")]
    fn tile_narrow<const N: usize>(
        arows: [&[f32]; LANES],
        brows: &[[f32; N]],
        out: &mut [[f32; N]],
    ) {
        let k = brows.len();
        for a in arows {
            assert_eq!(a.len(), k, "A rows span k");
        }
        let mut acc = [_mm512_setzero_ps(); N];
        let (bfull, btail) = brows.as_chunks::<LANES>();
        for (kb, bk) in bfull.iter().enumerate() {
            let at = transpose(std::array::from_fn(|r| {
                load(
                    arows[r][kb * LANES..][..LANES]
                        .try_into()
                        .expect("16 floats"),
                )
            }));
            madd(&mut acc, &at, bk);
        }
        let tail = btail.len();
        if tail > 0 && k >= LANES {
            let at = transpose(std::array::from_fn(|r| {
                load(arows[r][k - LANES..].try_into().expect("16 floats"))
            }));
            madd(&mut acc, &at[LANES - tail..], btail);
        } else if tail > 0 {
            let at = transpose(std::array::from_fn(|r| {
                let mut pad = [0.0f32; LANES];
                pad[..tail].copy_from_slice(arows[r]);
                load(&pad)
            }));
            madd(&mut acc, &at, btail);
        }
        if out.len() == LANES {
            let (lines, []) = out.as_flattened_mut().as_chunks_mut::<LANES>() else {
                unreachable!("16 rows of N columns are N lines")
            };
            for (v, line) in lines.iter_mut().enumerate() {
                store(line, interleave(&acc, v));
            }
            return;
        }
        let mut cols = [[0.0f32; LANES]; N];
        for (c, v) in cols.iter_mut().zip(acc) {
            store(c, v);
        }
        for (r, row) in out.iter_mut().enumerate().take(LANES) {
            for (o, c) in row.iter_mut().zip(&cols) {
                *o = c[r];
            }
        }
    }

    /// Line `v` of the `16 × N` row-major output whose column `j` is
    /// `acc[j]`, row `r` in lane `r`: lane `i` of the line is element
    /// `16v + i`, row `(16v + i) / N` of column `(16v + i) mod N`. One
    /// masked lane permute per column moves that column's lanes in. Pure
    /// data movement; the indices and masks fold to constants.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn interleave<const N: usize>(acc: &[__m512; N], v: usize) -> __m512 {
        let at = |i: usize| LANES * v + i;
        let row = |i: usize| (at(i) / N) as i32;
        let idx = _mm512_setr_epi32(
            row(0),
            row(1),
            row(2),
            row(3),
            row(4),
            row(5),
            row(6),
            row(7),
            row(8),
            row(9),
            row(10),
            row(11),
            row(12),
            row(13),
            row(14),
            row(15),
        );
        let mut line = _mm512_setzero_ps();
        for (j, &col) in acc.iter().enumerate() {
            let mask = (0..LANES)
                .filter(|&i| at(i) % N == j)
                .fold(0u16, |m, i| m | 1 << i);
            line = _mm512_mask_permutexvar_ps(line, mask, idx, col);
        }
        line
    }

    /// Adds one transposed block's products into the accumulators:
    /// `acc[j] += at[kk] * B[kk][j]` for `kk` ascending over the block's
    /// rows of `B` (`bk`, at most 16, as many as `at` holds).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn madd<const N: usize>(acc: &mut [__m512; N], at: &[__m512], bk: &[[f32; N]]) {
        for (a, brow) in at.iter().zip(bk) {
            for (s, &bv) in acc.iter_mut().zip(brow) {
                *s = _mm512_add_ps(*s, _mm512_mul_ps(*a, _mm512_set1_ps(bv)));
            }
        }
    }

    /// Transposes a 16 × 16 block held in 16 registers: lane `r` of
    /// output `c` is lane `c` of input `r`. Pure data movement: two
    /// unpack rounds transpose each 4 × 4 sub-block inside the 128-bit
    /// lanes, then two rounds of 128-bit lane shuffles move the
    /// sub-blocks.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(v: [__m512; LANES]) -> [__m512; LANES] {
        // Row pairs interleaved, then pairs of pairs: `u[4g + c]` holds
        // rows `4g..4g + 4` of column `4l + c` in its 128-bit lane `l`.
        let t: [__m512; LANES] = std::array::from_fn(|i| {
            let (x, y) = (v[i & !1], v[i | 1]);
            match i % 2 {
                0 => _mm512_unpacklo_ps(x, y),
                _ => _mm512_unpackhi_ps(x, y),
            }
        });
        let u: [__m512; LANES] = std::array::from_fn(|i| {
            let g = i & !3;
            let (x, y) = (
                _mm512_castps_pd(t[g + (i & 2) / 2]),
                _mm512_castps_pd(t[g + 2 + (i & 2) / 2]),
            );
            _mm512_castpd_ps(match i % 2 {
                0 => _mm512_unpacklo_pd(x, y),
                _ => _mm512_unpackhi_pd(x, y),
            })
        });
        // Output `4l + c` gathers lane `l` of `u[c]`, `u[4 + c]`,
        // `u[8 + c]` and `u[12 + c]`.
        let mut out = [_mm512_setzero_ps(); LANES];
        for c in 0..4 {
            let x0 = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
            let x1 = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
            let x2 = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
            let x3 = _mm512_shuffle_f32x4::<0xDD>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_f32x4::<0x88>(x0, x2);
            out[4 + c] = _mm512_shuffle_f32x4::<0x88>(x1, x3);
            out[8 + c] = _mm512_shuffle_f32x4::<0xDD>(x0, x2);
            out[12 + c] = _mm512_shuffle_f32x4::<0xDD>(x1, x3);
        }
        out
    }

    /// 32 columns as the two 16-lane halves that two `zmm` registers hold.
    type Line = [[f32; 16]; 2];

    /// `MR × 32` register tile over one 32-column [`super::pack_b`]
    /// block: two `zmm` accumulators per row start from `0.0` and live
    /// across the whole `k` sweep, each `k` step loads the block's two `B`
    /// vectors once and feeds them to all `MR` rows, and the destination
    /// is never read. Per element it computes exactly what
    /// `gemm_micro_packed` does: every step is a separate `_mm512_mul_ps`
    /// and `_mm512_add_ps` (no FMA), in ascending `k`. A partial block
    /// (the row's last, fewer than 32 `valid` columns) stores through a
    /// zero-padded stack copy, so every vector store covers a whole
    /// `[f32; 16]`.
    #[target_feature(enable = "avx512f")]
    fn tile_avx512f<const MR: usize>(
        arows: [&[f32]; MR],
        pb: &[f32],
        d: usize,
        valid: usize,
        crows: &mut [&mut [f32]; MR],
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        let (lines, _) = pb.as_chunks::<16>().0.as_chunks::<2>();
        // With every `A` row as long as `k`, indexing a row at `kk` needs
        // no bounds check of its own inside the loop.
        let klen = lines.len();
        for a in &arows {
            assert_eq!(a.len(), klen, "A rows span k");
        }
        for (kk, [lo, hi]) in lines.iter().enumerate() {
            let (b0, b1) = (load(lo), load(hi));
            for (accr, a) in acc.iter_mut().zip(&arows) {
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

/// The first column and the packed slab of every `W`-column block of an
/// `n`-column, `k`-deep `B` in the [`pack_b`] layout, left to right. Each
/// slab is contiguous, so a tile's `k` loop carries no bounds checks or
/// row-address recomputation, which is what lets the autovectorizer keep
/// the whole accumulator tile in registers.
#[inline(always)]
fn packed_blocks<const W: usize>(
    packed: &[f32],
    k: usize,
    n: usize,
) -> impl Iterator<Item = (usize, &[f32])> {
    (0..n)
        .step_by(W)
        .map(move |d| (d, &packed[(d / W) * k * W..][..k * W]))
}

/// The sweep for one register tile of `MR` rows: [`gemm_micro_packed`]
/// on every `W`-column block, left to right. `kn` is `B`'s
/// `(rows, cols)`. Each output element's products are added in ascending
/// `k` order in its own accumulator chain. (A 32-column autovectorized
/// block spills: its two-register accumulator columns devectorize the
/// loop and run 7–9× slower. The AVX-512F clone therefore runs the
/// 32-column tile written with explicit `zmm` intrinsics instead, which
/// keeps all eight accumulators in registers.)
#[inline(always)]
fn gemm_rows_body<const MR: usize, const W: usize>(
    arows: [&[f32]; MR],
    packed: &[f32],
    (k, n): (usize, usize),
    crows: &mut [&mut [f32]; MR],
) {
    for (d, pb) in packed_blocks::<W>(packed, k, n) {
        gemm_micro_packed::<MR, W>(arows, pb, d, (n - d).min(W), crows);
    }
}

/// `MR × W` register microkernel over one [`pack_b`] column block:
/// `MR * W` f32 accumulators start from the literal `0.0` of the naive
/// loop and live across the whole `k` sweep, each `k` step reads one
/// contiguous `W`-float line that feeds all `MR` rows, and the
/// destination is written once per tile and never read. Only the first
/// `valid` columns exist: a partial block runs its padded lanes on the
/// packed zero padding and stores only the valid lanes. No zero-skip
/// branch — the inner loop stays straight-line mul/add code, separate
/// instructions, so rounding matches the naive oracle under every ISA
/// clone.
#[inline(always)]
fn gemm_micro_packed<const MR: usize, const W: usize>(
    arows: [&[f32]; MR],
    pb: &[f32],
    d: usize,
    valid: usize,
    crows: &mut [&mut [f32]; MR],
) {
    let mut acc = [[0.0f32; W]; MR];
    let klen = arows[0].len();
    for kk in 0..klen {
        let blk: &[f32; W] = pb[kk * W..kk * W + W].try_into().expect("packed block row");
        for (accr, ab) in acc.iter_mut().zip(&arows) {
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

    /// Every ISA a tile plan is built for, proven or not: building a plan
    /// runs nothing.
    const ALL_ISAS: [WideIsa; 3] = [WideIsa::Portable, WideIsa::Avx2, WideIsa::Avx512f];

    /// The plan rule at the widths the served workloads and the docs
    /// name, and, at every width up to 300 under every ISA, plans whose
    /// tiles stay inside the row and cover every column, widest tiles
    /// first.
    #[test]
    fn tile_plans_cover_every_column_by_the_width_rule() {
        let run = |width, start, count| TileRun {
            width,
            start,
            count,
        };
        let (avx512, avx2, sse) = (WideIsa::Avx512f, WideIsa::Avx2, WideIsa::Portable);
        let cases = [
            (121, avx512, vec![run(64, 0, 1), run(64, 57, 1)]),
            (128, avx512, vec![run(64, 0, 2)]),
            (32, avx512, vec![run(32, 0, 1)]),
            (32, avx2, vec![run(16, 0, 2)]),
            (16, avx2, vec![run(16, 0, 1)]),
            (16, sse, vec![run(8, 0, 2)]),
            (200, avx512, vec![run(64, 0, 3), run(8, 192, 1)]),
            (136, avx512, vec![run(64, 0, 2), run(8, 128, 1)]),
            (21, avx2, vec![run(16, 0, 1), run(8, 13, 1)]),
            (5, avx512, vec![run(4, 0, 1), run(4, 1, 1)]),
            (3, avx512, vec![run(3, 0, 1)]),
            (1, sse, vec![run(1, 0, 1)]),
        ];
        for (dim, isa, want) in cases {
            assert_eq!(TilePlan::new(dim, isa).runs(), want, "dim={dim} {isa:?}");
        }
        for isa in ALL_ISAS {
            for dim in 1..=300usize {
                let plan = TilePlan::new(dim, isa);
                let mut covered = vec![false; dim];
                for r in plan.runs() {
                    assert!(r.count > 0 && r.start + r.count * r.width <= dim);
                    covered[r.start..r.start + r.count * r.width].fill(true);
                }
                assert!(covered.iter().all(|&c| c), "dim={dim} {isa:?}");
                assert!(plan.runs().windows(2).all(|w| w[0].width >= w[1].width));
                if let Some(width) = plan.single() {
                    assert_eq!(width, dim, "a lone tile spans the row");
                }
            }
        }
    }

    /// Every tile plan, run in every ISA clone this CPU proves, stores
    /// exactly the scalar oracle's bits on all widths 1..=67 and the wide
    /// widths 96 to 200, `ppi-gcn`'s 121 and 128 among them: for a long row,
    /// an empty row, and rows of one to four non-zeros. The output starts
    /// as NaN, so a column no tile stores shows.
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
                fold_row_scalar(c, v, b.as_slice(), &mut want);
                for &isa in &isas {
                    let plan = TilePlan::new(dim, isa);
                    let mut got = vec![f32::NAN; dim];
                    with_isa(isa, || plan.fold_row(c, v, b.as_slice(), &mut got));
                    assert_eq!(got, want, "dim={dim} row={nz:?} {isa:?}");
                }
            }
        }
    }

    /// Every arm of the GEMM ISA dispatch computes the same bits as the
    /// scalar path's naive loop: the `Portable` body and each
    /// `#[target_feature]` clone this CPU proves, over two 16-row tiles
    /// plus a 5-row remainder (nine `GEMM_MR` tiles plus a remainder
    /// row), at depths 1, 15, 16, 17, 32 and 75, so the rows-in-lanes
    /// tile runs a lone `k` tail, whole 16-deep blocks, and both. `B` is
    /// packed per arm at that arm's width, so under AVX-512F every width
    /// above 16 runs the explicit 32-column tile and its gated call, load
    /// and store helpers, and every width up to [`NARROW_GEMM_COLS`] the
    /// rows-in-lanes tile, which reads `B` unpacked. The widths cover
    /// every narrow width and the first past it (1..=9), a lone padded
    /// block (15, 31), exact blocks (16, 32, 64, 128) and a padded last
    /// block after full ones (17, 33, 63, 65, 121, 127). Row 0 of `A` is
    /// all `-0.0` over a `B` of no negative value, so every product of
    /// that row is `-0.0` and the naive loop's `+0.0` seed must survive:
    /// outputs are compared bit for bit. The packed buffer and the output
    /// are poisoned with NaN first, so a padded lane left unwritten, one
    /// stored into `C`, or an output element no tile stores, shows.
    #[test]
    fn gemm_dispatch_arms_bit_match_portable() {
        let isas = proven_isas();
        let rows = 37;
        let widths = (1usize..=9).chain([15, 16, 17, 31, 32, 33, 63, 64, 65, 121, 127, 128]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 15, 16, 17, 32, 75] {
            let mut a = random_dense(rows, k, 31);
            a.row_mut(0).fill(-0.0);
            for n in widths.clone() {
                let b = DenseMatrix::from_fn(k, n, {
                    let b = random_dense(k, n, 32);
                    move |r, c| b.get(r, c).abs()
                });
                let mut naive = vec![0.0f32; rows * n];
                let arows = || (0..rows).map(|r| a.row(r));
                gemm_band(arows(), k, &b, &[], &ResolvedPath::Scalar, &mut naive);
                assert!(naive[..n].iter().all(|v| v.to_bits() == 0), "k={k} n={n}");
                for &isa in &isas {
                    let rp = ResolvedPath::Vector(isa);
                    let w = gemm_pack_width(&rp, n);
                    let want_w = match isa {
                        WideIsa::Avx512f if n <= NARROW_GEMM_COLS => None,
                        WideIsa::Avx512f if n > 16 => Some(AVX512_GEMM_COLS),
                        _ => Some(isa.lanes()),
                    };
                    assert_eq!(w, want_w, "{isa:?} n={n}");
                    let mut packed = match w {
                        Some(w) => vec![f32::NAN; n.div_ceil(w) * k * w],
                        None => Vec::new(),
                    };
                    if let Some(w) = w {
                        pack_b(&b, w, &mut packed);
                    }
                    assert!(packed.iter().all(|v| !v.is_nan()), "n={n}: pad zeroed");
                    let mut dst = vec![f32::NAN; rows * n];
                    gemm_band(arows(), k, &b, &packed, &rp, &mut dst);
                    assert_eq!(bits(&dst), bits(&naive), "{isa:?} k={k} n={n}");
                }
            }
        }
    }

    /// Under AVX-512F the rows-in-lanes tile takes `molecule-pack`'s
    /// 32 → 2 layer and none of the other served GEMMs, which keep the
    /// packed 32-column tile; no other clone ever takes it.
    #[test]
    fn narrow_tile_routing_is_pinned_at_the_served_shapes() {
        let avx512 = ResolvedPath::Vector(WideIsa::Avx512f);
        assert!(
            narrow_gemm(WideIsa::Avx512f, 2),
            "molecule-pack layer 1 (32 -> 2)"
        );
        assert_eq!(gemm_pack_width(&avx512, 2), None);
        for (k, n) in [(16usize, 32usize), (50, 128), (128, 121)] {
            assert!(!narrow_gemm(WideIsa::Avx512f, n), "{k} -> {n}");
            assert_eq!(gemm_pack_width(&avx512, n), Some(AVX512_GEMM_COLS));
        }
        for isa in [WideIsa::Portable, WideIsa::Avx2] {
            assert!((0..=NARROW_GEMM_COLS).all(|n| !narrow_gemm(isa, n)));
        }
    }

    /// `Vector` is the default path and resolves to the detected clone,
    /// whose lane width is 16 exactly when it is not `Portable`.
    #[test]
    fn resolve_honors_explicit_paths() {
        assert_eq!(DataPath::default(), DataPath::Vector);
        assert_eq!(DataPath::Scalar.resolve(), ResolvedPath::Scalar);
        let isa = WideIsa::detect();
        assert_eq!(DataPath::Vector.resolve(), ResolvedPath::Vector(isa));
        let want = if isa == WideIsa::Portable { 8 } else { 16 };
        assert_eq!(isa.lanes(), want);
    }
}
