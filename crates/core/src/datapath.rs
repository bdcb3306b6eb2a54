//! Vectorized, cache-blocked inner data path for the execution engine.
//!
//! PR 1's engine removed the *scheduling* overheads (thread spawn, global
//! atomics, re-planning); the inner loop it kept is a scalar-accumulator
//! kernel unrolled by 8/4. This module supplies the data-path side:
//!
//! * **Wide-lane streaming kernels** — const-generic register-accumulator
//!   blocks of 16 and 8 f32 lanes ([`LaneWidth`] picks the widest the CPU
//!   supports at runtime), each compiled to straight-line FMA-friendly
//!   code LLVM auto-vectorizes, with an 8/4/scalar tail cascade for
//!   dimension remainders.
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
//! * **Packed indices** — every kernel is generic over the column-index
//!   type, so it runs on the `u32` SoA packing
//!   ([`mpspmm_sparse::PackedCsr`]-style, built by
//!   [`crate::PreparedPlan::pack_indices`]) when available and on the
//!   plain `usize` CSR arrays otherwise.
//! * **Gather prefetch** — a merge-path worker walks one contiguous run
//!   of non-zeros, so the kernel knows which `B` rows it reads next, across
//!   segment and row boundaries. While it accumulates non-zero `k` it
//!   hints `B` row `cols[k + PREFETCH_DISTANCE]` over its column window,
//!   one 64-byte line at a time (`prefetcht0` on x86-64; no hint
//!   elsewhere). The hints only pay when `B` misses cache, so
//!   [`ResolvedPath::prefetch`] turns them on once per run, only when
//!   `B`'s touched footprint — its rows times the column window times
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
//! # FastMath (opt-in FMA contraction)
//!
//! The exact kernels above keep multiply and add as separate
//! instructions — the price of bit-equality with the scalar oracle. The
//! opt-in **FastMath** mode ([`crate::ExecEngine::with_fast_math`] or
//! `MPSPMM_FASTMATH=1`) permits fused multiply-add contraction in the
//! streaming SpMM kernel and the GEMM microkernel: the same loops with
//! `f32::mul_add`, compiled under `#[target_feature]` clones that enable
//! the `fma` extension (a bare `mul_add` without it lowers to a libm
//! call). FMA skips the intermediate rounding of the product, so
//! FastMath results can differ from the oracle by a rounding-level
//! amount per product — it is **never** selected by default, never used
//! by the oracles, and the gather microkernel (too short to benefit)
//! stays exact even under FastMath. See DESIGN.md §2.11 for the
//! carve-out.
//!
//! # Tuning knobs
//!
//! One environment variable, read **once per process** at the first
//! engine construction (never in the segment loop or per engine run):
//! `MPSPMM_FASTMATH=1` opts the process into FastMath; unset or `0`
//! keeps it off, and any other value also keeps it off with a one-line
//! warning (`resolve_fastmath`).
//! Like `MPSPMM_WORKERS`, changing it after the first engine run has no
//! effect — a serving process resolves its configuration at startup. The
//! gather threshold is the constant [`GATHER_MAX_NNZ`] — the same one
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
    /// The PR-1 register-tiled kernel (8/4-unrolled, `usize` indices, no
    /// panel blocking). Kept selectable so benchmarks can regenerate the
    /// PR-1 baseline on the same binary.
    Tiled,
    /// Wide-lane streaming kernels with panel blocking, packed-index
    /// support, and degree-adaptive gather dispatch.
    Vector,
}

/// Accumulator width of the streaming kernel, selected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// 8 f32 accumulators per block (two SSE vectors, one AVX vector).
    W8,
    /// 16 f32 accumulators per block (two AVX vectors, one AVX-512
    /// vector).
    W16,
}

impl LaneWidth {
    /// Picks the widest block the running CPU vectorizes profitably:
    /// 16 lanes with AVX2/AVX-512, 8 otherwise (and on non-x86_64).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") || is_x86_feature_detected!("avx2") {
                return LaneWidth::W16;
            }
        }
        LaneWidth::W8
    }

    /// Number of f32 lanes per block.
    pub fn lanes(self) -> usize {
        match self {
            LaneWidth::W8 => 8,
            LaneWidth::W16 => 16,
        }
    }
}

/// Widest x86 vector extension the GEMM microkernel may be *compiled*
/// for, proven present at runtime. [`LaneWidth`] only sizes accumulator
/// blocks for the baseline autovectorizer; this goes further and selects
/// a `#[target_feature]` clone of the same kernel body, so the identical
/// scalar arithmetic (separate multiply and add, `k` ascending — never
/// FMA-contracted, which would change rounding) is emitted with 256- or
/// 512-bit instructions. Results stay bit-equal across all variants
/// because every vector lane is an independent output column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WideIsa {
    /// Baseline codegen (also all non-x86_64 targets).
    Portable,
    /// AVX2 proven by `is_x86_feature_detected!`.
    Avx2,
    /// AVX-512F proven by `is_x86_feature_detected!`.
    Avx512f,
}

impl WideIsa {
    /// Detects the widest ISA clone the running CPU supports.
    pub fn detect() -> Self {
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
    Tiled,
    Vector,
}

/// A [`DataPath`] resolved against a dense dimension: the kernel family,
/// the lane width, the column panel, and whether FMA contraction is
/// permitted, fixed once per engine run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ResolvedPath {
    pub kind: PathKind,
    pub lanes: LaneWidth,
    pub wide_isa: WideIsa,
    pub panel: usize,
    /// FMA contraction permitted (FastMath): only ever `true` when the
    /// engine opted in **and** [`fastmath_supported`] proved the CPU can
    /// run the fma clones **and** the kernel family is `Vector` (the
    /// scalar/tiled baselines stay exact unconditionally).
    pub fastmath: bool,
    /// Gather prefetch on (see the module docs): only for the `Vector`
    /// family, and only when the run's `B` footprint overflows L2
    /// ([`prefetch_pays`]). Hints never change a value.
    pub prefetch: bool,
}

impl DataPath {
    /// Resolves the path for one execution over a `b_rows × dim` dense
    /// operand, with FastMath off (the exact default). Production call
    /// sites all thread the engine's FastMath flag through
    /// [`DataPath::resolve_fast`]; this shorthand remains for tests and
    /// any caller that wants the exact path unconditionally.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn resolve(self, b_rows: usize, dim: usize) -> ResolvedPath {
        self.resolve_fast(b_rows, dim, false)
    }

    /// Resolves the path for one execution over a `b_rows × dim` dense
    /// operand; `want_fastmath` requests FMA contraction, granted only
    /// when the resolved kernel family is `Vector` and the CPU supports
    /// the fma kernel clones. Gather prefetch is decided here too, once
    /// per run, by [`prefetch_pays`].
    pub(crate) fn resolve_fast(
        self,
        b_rows: usize,
        dim: usize,
        want_fastmath: bool,
    ) -> ResolvedPath {
        let kind = match self {
            DataPath::Auto => {
                if cfg!(feature = "force-scalar") {
                    PathKind::Scalar
                } else {
                    PathKind::Vector
                }
            }
            DataPath::Scalar => PathKind::Scalar,
            DataPath::Tiled => PathKind::Tiled,
            DataPath::Vector => PathKind::Vector,
        };
        let lanes = LaneWidth::detect();
        let model = CacheModel::default();
        ResolvedPath {
            kind,
            lanes,
            wide_isa: WideIsa::detect(),
            panel: panel_cols(dim, lanes.lanes(), &model),
            fastmath: want_fastmath && kind == PathKind::Vector && fastmath_supported(),
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
/// cache, i.e. when `B`'s touched footprint — `b_rows` rows of a
/// `window`-column window of f32 — is more than [`PREFETCH_L2_MULTIPLE`]
/// times L2. Below that most gathers already hit, and the hints are
/// mostly instruction overhead.
pub(crate) fn prefetch_pays(b_rows: usize, window: usize, model: &CacheModel) -> bool {
    b_rows
        .saturating_mul(window)
        .saturating_mul(std::mem::size_of::<f32>())
        > model.l2_bytes.saturating_mul(PREFETCH_L2_MULTIPLE)
}

/// Whether this CPU can run the FastMath kernel clones: on x86-64, a
/// proven `fma` extension alongside a wide ISA clone (AVX2/AVX-512F —
/// `fma` does not meaningfully exist without them); elsewhere always, as
/// `f32::mul_add` is a native instruction (e.g. NEON) on every supported
/// target. FastMath being *supported* does not make it *selected*: the
/// engine must still opt in.
pub fn fastmath_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("fma") && WideIsa::detect() != WideIsa::Portable
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        true
    }
}

/// `MPSPMM_FASTMATH` opt-in (`1` only), resolved once per process; an
/// unrecognized value warns once on stderr.
pub(crate) fn env_fastmath() -> bool {
    static FASTMATH: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FASTMATH.get_or_init(|| {
        let raw = std::env::var("MPSPMM_FASTMATH").ok();
        let (on, warning) = resolve_fastmath(raw.as_deref());
        if let Some(msg) = warning {
            eprintln!("{msg}");
        }
        on
    })
}

/// Pure resolution of the `MPSPMM_FASTMATH` opt-in: `(on, warning)`.
///
/// `None` (variable unset) and `"0"` resolve to off, `"1"` to on.
/// Anything else — `"false"`, `"off"`, an empty value — also resolves to
/// off, with a one-line warning, so a misspelled opt-out can never
/// silently leave the exact arithmetic contract.
pub(crate) fn resolve_fastmath(raw: Option<&str>) -> (bool, Option<String>) {
    match raw.map(str::trim) {
        None | Some("0") => (false, None),
        Some("1") => (true, None),
        Some(_) => (
            false,
            Some(format!(
                "mpspmm: ignoring invalid MPSPMM_FASTMATH={:?} (want 0 or 1); FastMath stays off",
                raw.unwrap_or_default()
            )),
        ),
    }
}

/// Column-index view the kernels are generic over: plain CSR `usize`
/// indices or the packed `u32` form.
pub(crate) trait ColIdx: Copy {
    fn to_usize(self) -> usize;
}

impl ColIdx for usize {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self
    }
}

impl ColIdx for u32 {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self as usize
    }
}

/// Scalar oracle: one column at a time, additions in non-zero order.
/// `off` shifts the window into `B`'s rows: the kernel computes output
/// columns `[off, off + dst.len())` into `dst[0..]` (the column-striped
/// executor hands each worker such a window; every full-row caller
/// passes `0`).
pub(crate) fn accumulate_segment_scalar<I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
) {
    for (d, slot) in dst.iter_mut().enumerate() {
        let mut s = 0.0f32;
        for k in seg.nz_start..seg.nz_end {
            s += vals[k] * b.row(cols[k].to_usize())[off + d];
        }
        *slot = s;
    }
}

/// The PR-1 register-tiled kernel, re-expressed over the shared wide-lane
/// blocks: unrolled blocks of 8 and 4 plus a scalar tail, full-width (no
/// panel loop), `usize` indices. Arithmetic per column is unchanged from
/// PR 1 — same block cascade, same accumulation order. `off` windows the
/// source columns as in [`accumulate_segment_scalar`].
#[inline]
pub(crate) fn accumulate_segment_tiled(
    seg: &Segment,
    a: &CsrMatrix<f32>,
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
) {
    let cols = a.col_indices();
    let vals = a.values();
    let dim = dst.len();
    let mut d = 0;
    while d + 8 <= dim {
        stream_block::<8, false, _>(seg, cols, vals, b, off, d, dst, None);
        d += 8;
    }
    if d + 4 <= dim {
        stream_block::<4, false, _>(seg, cols, vals, b, off, d, dst, None);
        d += 4;
    }
    tail_columns::<false, _>(seg, cols, vals, b, off, d..dim, dst, None);
}

/// One `W`-column register-accumulator block: `W` f32 accumulators live
/// across the whole segment sweep, loads of `B` go through a fixed-size
/// `[f32; W]` view so the inner loop is bounds-check-free straight-line
/// code LLVM vectorizes. Source columns start at `off + d` in `B`;
/// destination columns at `d` in `dst`. `FAST` switches the accumulate
/// to `mul_add` — only the FastMath `#[target_feature(…,fma)]` clones
/// instantiate it with `true`. `pf` is the source-column window to hint
/// ahead ([`hint_ahead`]) while sweeping, or `None`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn stream_block<const W: usize, const FAST: bool, I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
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
        let row = b.row(cols[k].to_usize());
        let blk: &[f32; W] = row[off + d..off + d + W]
            .try_into()
            .expect("block inside dense row");
        for (a, &x) in acc.iter_mut().zip(blk) {
            if FAST {
                *a = v.mul_add(x, *a);
            } else {
                *a += v * x;
            }
        }
    }
    dst[d..d + W].copy_from_slice(&acc);
}

/// Scalar remainder columns of a panel (`range` indexes `dst`; the
/// source column is `off` further right). `pf` hints as in
/// [`stream_block`], during the first column's sweep only.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tail_columns<const FAST: bool, I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    range: std::ops::Range<usize>,
    dst: &mut [f32],
    mut pf: Option<(usize, usize)>,
) {
    for d in range {
        let mut s = 0.0f32;
        let hint = pf.take();
        for k in seg.nz_start..seg.nz_end {
            if let Some(window) = hint {
                hint_ahead(cols, k, b, window);
            }
            let x = b.row(cols[k].to_usize())[off + d];
            if FAST {
                s = vals[k].mul_add(x, s);
            } else {
                s += vals[k] * x;
            }
        }
        dst[d] = s;
    }
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
pub(crate) fn gather_segment<I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
) {
    let dim = dst.len();
    let k = seg.nz_start;
    let row = |i: usize| &b.row(cols[k + i].to_usize())[off..off + dim];
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

/// The streaming panel sweep shared by the exact kernel and its FastMath
/// clones: sweeps the destination window in `rp.panel`-column panels;
/// within a panel, wide-lane blocks at `rp.lanes`, then an 8/4/scalar
/// cascade for the remainder. `inline(always)` so each
/// `#[target_feature]` clone absorbs the whole cascade under its own
/// codegen features.
#[inline(always)]
fn stream_segment_body<const FAST: bool, I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
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
        let mut pf = rp.prefetch.then_some((off + p0, off + p1));
        let mut d = p0;
        if rp.lanes == LaneWidth::W16 {
            while d + 16 <= p1 {
                stream_block::<16, FAST, _>(seg, cols, vals, b, off, d, dst, pf.take());
                d += 16;
            }
        }
        while d + 8 <= p1 {
            stream_block::<8, FAST, _>(seg, cols, vals, b, off, d, dst, pf.take());
            d += 8;
        }
        if d + 4 <= p1 {
            stream_block::<4, FAST, _>(seg, cols, vals, b, off, d, dst, pf.take());
            d += 4;
        }
        tail_columns::<FAST, _>(seg, cols, vals, b, off, d..p1, dst, pf);
        p0 = p1;
    }
}

/// Streaming panel kernel for long segments — the exact (bit-equal to
/// the oracle) instantiation of [`stream_segment_body`].
pub(crate) fn stream_segment<I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
    rp: &ResolvedPath,
) {
    stream_segment_body::<false, I>(seg, cols, vals, b, off, dst, rp);
}

/// FastMath streaming kernel: [`stream_segment_body`] with `mul_add`,
/// dispatched to the `#[target_feature(…, "fma")]` clone matching the
/// proven [`WideIsa`]. Only reachable when [`ResolvedPath::fastmath`] is
/// set, which implies the fma proof on x86-64.
fn stream_segment_fast<I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
    rp: &ResolvedPath,
) {
    #[cfg(target_arch = "x86_64")]
    wide::stream_fast(seg, cols, vals, b, off, dst, rp);
    #[cfg(not(target_arch = "x86_64"))]
    stream_segment_body::<true, I>(seg, cols, vals, b, off, dst, rp);
}

/// How many non-zeros ahead of the one being accumulated the vectorized
/// kernels hint the gathered `B` row. Far enough that the line arrives
/// before its use, near enough that it is still in L1 then; DESIGN.md
/// §2.3.1 records the sweep that chose it.
const PREFETCH_DISTANCE: usize = 8;

/// Hints `B` row `cols[k + PREFETCH_DISTANCE]` over the source columns
/// `[lo, hi)`. The index is clipped at the end of the index array, not
/// at the segment's end, so the hints run ahead into the next segments a
/// merge-path worker will walk. A hint never faults and never changes a
/// value; a row outside `b` (impossible for a checked operand) is not
/// hinted.
#[inline(always)]
fn hint_ahead<I: ColIdx>(cols: &[I], k: usize, b: &DenseMatrix<f32>, (lo, hi): (usize, usize)) {
    let Some(&c) = cols.get((k + PREFETCH_DISTANCE).min(cols.len().saturating_sub(1))) else {
        return;
    };
    let start = c.to_usize() * b.cols() + lo;
    if let Some(window) = b.as_slice().get(start..start + (hi - lo)) {
        #[cfg(target_arch = "x86_64")]
        wide::prefetch_lines(window);
        #[cfg(not(target_arch = "x86_64"))]
        let _ = window;
    }
}

/// The vectorized path's degree-adaptive dispatch: gather microkernel at
/// or below the threshold (always exact — a ≤ 4-nnz segment has no FMA
/// win), streaming panel kernel above it (FastMath clone when the
/// resolved path permits contraction). With [`ResolvedPath::prefetch`]
/// set, both kernels hint the `B` row [`PREFETCH_DISTANCE`] non-zeros
/// ahead of each non-zero they use: the gather kernel sends its few
/// hints up front, the streaming kernel during its first block's sweep.
#[inline]
pub(crate) fn vector_segment<I: ColIdx>(
    seg: &Segment,
    cols: &[I],
    vals: &[f32],
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
    rp: &ResolvedPath,
) {
    if seg.len() <= GATHER_MAX_NNZ {
        if rp.prefetch {
            for k in seg.nz_start..seg.nz_end {
                hint_ahead(cols, k, b, (off, off + dst.len()));
            }
        }
        gather_segment(seg, cols, vals, b, off, dst);
    } else if rp.fastmath {
        stream_segment_fast(seg, cols, vals, b, off, dst, rp);
    } else {
        stream_segment(seg, cols, vals, b, off, dst, rp);
    }
}

/// Accumulates one segment into `dst`, overwriting it, through the
/// resolved data path. `dst` covers output columns
/// `[off, off + dst.len())` — full rows pass `off = 0`, the
/// column-striped executor passes its stripe window. `cols32` is the
/// packed `u32` index array when the prepared plan carries one.
pub(crate) fn accumulate_segment_dispatch(
    rp: &ResolvedPath,
    seg: &Segment,
    a: &CsrMatrix<f32>,
    cols32: Option<&[u32]>,
    b: &DenseMatrix<f32>,
    off: usize,
    dst: &mut [f32],
) {
    match rp.kind {
        PathKind::Scalar => {
            accumulate_segment_scalar(seg, a.col_indices(), a.values(), b, off, dst);
        }
        PathKind::Tiled => accumulate_segment_tiled(seg, a, b, off, dst),
        PathKind::Vector => match cols32 {
            Some(cols) => vector_segment(seg, cols, a.values(), b, off, dst, rp),
            None => vector_segment(seg, a.col_indices(), a.values(), b, off, dst, rp),
        },
    }
}

/// Dense GEMM band kernel for [`crate::ExecEngine::gemm`]: computes the
/// `dst.len() / b.cols()` output rows starting at `row_start` of
/// `C = A · B` into the zeroed row-major slice `dst`. Returns the number
/// of column panels executed (the [`crate::EngineStats::gemm_panels`]
/// unit; the scalar path counts one panel per band).
///
/// The blocked path register-tiles [`GEMM_MR`] `A` rows against the same
/// wide-lane cascade as the streaming SpMM kernel (16-lane blocks when
/// [`LaneWidth::W16`], then 8/4/scalar tails), sweeping the output width
/// in [`panel_cols`]-sized panels. The reduction is **`k`-blocked** at
/// depth `kc` ([`crate::tuning::gemm_kc`]): the `kc`-deep `B` panel is
/// reused across every register tile of the band before the next block
/// streams in, keeping it L2-resident at wide output dims. Blocking does
/// not change results — blocks run in ascending `k` order and each
/// block's accumulators are seeded from the destination row, so every
/// output element still sums its products in exactly the naive `ikj`
/// loop's order, bit-equal to that loop up to the sign of zeros (this
/// kernel has **no** per-element `a == 0.0` skip; skipping is worthwhile
/// only for sparse feature inputs, which the GCN layer-0 path keeps on
/// the naive loop). Under FastMath ([`ResolvedPath::fastmath`]) the
/// microkernels contract to `mul_add` and the bit-equality carve-out of
/// the module docs applies.
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
            panels += gemm_rows(arows, b, packed, n, rp, krange.clone(), &mut crows);
            r += GEMM_MR;
        }
        for crow in quads.into_remainder().chunks_exact_mut(n) {
            panels += gemm_rows(
                [a.row(row_start + r)],
                b,
                packed,
                n,
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

/// The lane width the GEMM pack buffer is blocked at for this resolved
/// path, or `None` when the path never enters the wide microkernel (the
/// scalar path) and packing would be wasted copies.
pub(crate) fn gemm_pack_width(rp: &ResolvedPath) -> Option<usize> {
    match rp.kind {
        PathKind::Scalar => None,
        _ => Some(if rp.lanes == LaneWidth::W16 { 16 } else { 8 }),
    }
}

/// Packs the full-width column blocks of `b` into a lane-blocked layout:
/// block `jb` (columns `jb*w .. jb*w + w`) occupies the contiguous
/// region `packed[jb*k*w ..][.. k*w]`, with its `k` rows of `w` floats
/// back to back. The leading microkernel loop then streams whole cache
/// lines sequentially instead of striding `n × 4` bytes per `k` step —
/// at `n = 512` that stride is 2 KiB, which aliases cache sets badly
/// enough to halve the kernel's throughput. Packing is pure data
/// movement (each value is copied, never recomputed), so it cannot
/// change one bit of the result; its one-pass cost is amortized over
/// every row band of the whole GEMM. Columns past the last full block
/// (`n % w`) stay unpacked — the narrower cascade tails read `b`
/// directly.
pub(crate) fn pack_b(b: &DenseMatrix<f32>, w: usize, packed: &mut [f32]) {
    let (k, n) = (b.rows(), b.cols());
    let nb = n / w.max(1);
    debug_assert_eq!(packed.len(), nb * k * w);
    for (kk, brow) in b.as_slice().chunks_exact(n.max(1)).enumerate() {
        for jb in 0..nb {
            let dst = jb * k * w + kk * w;
            packed[dst..dst + w].copy_from_slice(&brow[jb * w..(jb + 1) * w]);
        }
    }
}

/// Sweeps the full output width for one register tile of `MR` rows over
/// the `k`-block `krange`, through the widest kernel clone the CPU
/// proved it supports (see [`WideIsa`]) — the exact clones all run the
/// same [`gemm_rows_body`], so the choice affects instruction encoding
/// only, never results; the FastMath clones run the `mul_add` body.
#[inline]
fn gemm_rows<const MR: usize>(
    arows: [&[f32]; MR],
    b: &DenseMatrix<f32>,
    packed: &[f32],
    n: usize,
    rp: &ResolvedPath,
    krange: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if rp.wide_isa != WideIsa::Portable {
        return wide::gemm_rows_wide(arows, b, packed, n, rp, krange, crows);
    }
    if rp.fastmath {
        // Only reachable off x86-64 (resolve_fast requires a wide ISA
        // there), where `mul_add` is native.
        gemm_rows_body::<MR, true>(arows, b, packed, n, rp, krange, crows)
    } else {
        gemm_rows_body::<MR, false>(arows, b, packed, n, rp, krange, crows)
    }
}

/// The `#[target_feature]` clones of [`gemm_rows_body`] and
/// [`stream_segment_body`], and the gather-prefetch hint. This is one of
/// the three modules allowed out of the crate's `deny(unsafe_code)` (with
/// [`crate::pool`] and [`crate::stripe`]): calling a
/// `#[target_feature]` function is `unsafe` because executing it on a
/// CPU without the feature is undefined behavior — here each call is
/// gated on the matching `is_x86_feature_detected!` proof captured in
/// [`ResolvedPath::wide_isa`] (and, for the `fma` clones, the
/// [`fastmath_supported`] proof behind [`ResolvedPath::fastmath`]) at
/// path-resolution time.
///
/// The exact clones (`avx2` / `avx512f`, **no** fma) run the `FAST =
/// false` bodies: rustc never contracts a separate multiply and add into
/// an FMA on its own, so enabling wider encodings cannot perturb the
/// bit-exact path. The FastMath clones additionally enable `fma` and run
/// the `FAST = true` bodies, whose `mul_add` lowers to a single FMA
/// instruction.
#[cfg(target_arch = "x86_64")]
mod wide {
    #![allow(unsafe_code)]

    use super::{gemm_rows_body, stream_segment_body, ColIdx, DenseMatrix, ResolvedPath, WideIsa};
    use crate::plan::Segment;

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

    /// Dispatches one register tile to the AVX-512F or AVX2 clone
    /// (FastMath variant when the resolved path permits contraction).
    #[inline]
    pub(super) fn gemm_rows_wide<const MR: usize>(
        arows: [&[f32]; MR],
        b: &DenseMatrix<f32>,
        packed: &[f32],
        n: usize,
        rp: &ResolvedPath,
        krange: std::ops::Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        match (rp.wide_isa, rp.fastmath) {
            // SAFETY: `wide_isa` is only ever set to a non-`Portable`
            // variant by `WideIsa::detect` after the corresponding
            // `is_x86_feature_detected!` check succeeded on this CPU;
            // `fastmath` additionally carries the `fma` proof from
            // `fastmath_supported`.
            (WideIsa::Avx512f, false) => unsafe {
                gemm_rows_avx512f(arows, b, packed, n, rp, krange, crows)
            },
            (WideIsa::Avx512f, true) => unsafe {
                gemm_rows_avx512fma(arows, b, packed, n, rp, krange, crows)
            },
            (WideIsa::Avx2, false) => unsafe {
                gemm_rows_avx2(arows, b, packed, n, rp, krange, crows)
            },
            (WideIsa::Avx2, true) => unsafe {
                gemm_rows_avx2fma(arows, b, packed, n, rp, krange, crows)
            },
            (WideIsa::Portable, _) => {
                gemm_rows_body::<MR, false>(arows, b, packed, n, rp, krange, crows)
            }
        }
    }

    /// [`gemm_rows_body`] compiled with 256-bit codegen. No FMA: the
    /// body's separate multiply and add must stay separate instructions
    /// for bit-equality with the portable clone.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_rows_avx2<const MR: usize>(
        arows: [&[f32]; MR],
        b: &DenseMatrix<f32>,
        packed: &[f32],
        n: usize,
        rp: &ResolvedPath,
        krange: std::ops::Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        gemm_rows_body::<MR, false>(arows, b, packed, n, rp, krange, crows)
    }

    /// [`gemm_rows_body`] compiled with 512-bit codegen (a W16 block is
    /// exactly one `zmm` register).
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_rows_avx512f<const MR: usize>(
        arows: [&[f32]; MR],
        b: &DenseMatrix<f32>,
        packed: &[f32],
        n: usize,
        rp: &ResolvedPath,
        krange: std::ops::Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        gemm_rows_body::<MR, false>(arows, b, packed, n, rp, krange, crows)
    }

    /// FastMath [`gemm_rows_body`]: 256-bit codegen with FMA contraction.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_rows_avx2fma<const MR: usize>(
        arows: [&[f32]; MR],
        b: &DenseMatrix<f32>,
        packed: &[f32],
        n: usize,
        rp: &ResolvedPath,
        krange: std::ops::Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        gemm_rows_body::<MR, true>(arows, b, packed, n, rp, krange, crows)
    }

    /// FastMath [`gemm_rows_body`]: 512-bit codegen with FMA contraction.
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn gemm_rows_avx512fma<const MR: usize>(
        arows: [&[f32]; MR],
        b: &DenseMatrix<f32>,
        packed: &[f32],
        n: usize,
        rp: &ResolvedPath,
        krange: std::ops::Range<usize>,
        crows: &mut [&mut [f32]; MR],
    ) -> u64 {
        gemm_rows_body::<MR, true>(arows, b, packed, n, rp, krange, crows)
    }

    /// Dispatches one segment to the AVX-512F or AVX2 FastMath stream
    /// clone matching the proven [`WideIsa`].
    #[inline]
    pub(super) fn stream_fast<I: ColIdx>(
        seg: &Segment,
        cols: &[I],
        vals: &[f32],
        b: &DenseMatrix<f32>,
        off: usize,
        dst: &mut [f32],
        rp: &ResolvedPath,
    ) {
        match rp.wide_isa {
            // SAFETY: `fastmath` is only set by `resolve_fast` after
            // `fastmath_supported` proved `fma` plus a non-Portable wide
            // ISA via `is_x86_feature_detected!` on this CPU.
            WideIsa::Avx512f => unsafe { stream_avx512fma(seg, cols, vals, b, off, dst, rp) },
            WideIsa::Avx2 => unsafe { stream_avx2fma(seg, cols, vals, b, off, dst, rp) },
            // Unreachable under `resolve_fast`'s gating; keep the exact
            // kernel as the safe fallback (a bare `mul_add` would be a
            // libm call here).
            WideIsa::Portable => stream_segment_body::<false, I>(seg, cols, vals, b, off, dst, rp),
        }
    }

    /// FastMath [`stream_segment_body`]: 256-bit codegen with FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn stream_avx2fma<I: ColIdx>(
        seg: &Segment,
        cols: &[I],
        vals: &[f32],
        b: &DenseMatrix<f32>,
        off: usize,
        dst: &mut [f32],
        rp: &ResolvedPath,
    ) {
        stream_segment_body::<true, I>(seg, cols, vals, b, off, dst, rp)
    }

    /// FastMath [`stream_segment_body`]: 512-bit codegen with FMA.
    #[target_feature(enable = "avx512f,fma")]
    unsafe fn stream_avx512fma<I: ColIdx>(
        seg: &Segment,
        cols: &[I],
        vals: &[f32],
        b: &DenseMatrix<f32>,
        off: usize,
        dst: &mut [f32],
        rp: &ResolvedPath,
    ) {
        stream_segment_body::<true, I>(seg, cols, vals, b, off, dst, rp)
    }
}

/// The actual panel sweep for one register tile of `MR` rows over the
/// `k`-block `krange`: panel loop outside, wide-lane cascade inside —
/// the GEMM analogue of [`stream_segment`]'s panel sweep.
/// `inline(always)` so each `#[target_feature]` clone in [`wide`]
/// absorbs the whole body (and the microkernels below) under its own
/// codegen features. `FAST = true` contracts each multiply-add to
/// `mul_add`; the `false` instantiation is the exact default.
///
/// Every per-`k` slice is hoisted out of the hot loop here: the `A` rows
/// are restricted to the `k`-block once, and the block's `B` rows become
/// one contiguous slab the microkernels index directly — the `k` loop
/// itself carries no bounds checks or row-address recomputation, which
/// is what lets the autovectorizer keep the whole accumulator tile in
/// registers. (A wider 32-column leading block was tried and rejected:
/// two-register accumulator columns spill and devectorize the loop.)
/// Neither change touches results: each output element's products are
/// still added in ascending `k` order in its own accumulator chain.
///
/// When `packed` is non-empty it holds `B` re-laid into lane-width
/// column blocks by [`pack_b`]: the leading full-width loop then streams
/// one contiguous `W`-float line per `k` step instead of striding `n`
/// floats per row — at `n = 512` the unpacked stride is 2 KiB, which
/// aliases cache sets and stalls the sweep. Remainder columns (`n`
/// modulo the pack width) are not packed and fall through to the
/// unpacked cascade. Packing is pure data movement: every accumulator
/// still consumes the same products in the same ascending-`k` order, so
/// packed and unpacked sweeps are bit-identical.
#[inline(always)]
fn gemm_rows_body<const MR: usize, const FAST: bool>(
    arows: [&[f32]; MR],
    b: &DenseMatrix<f32>,
    packed: &[f32],
    n: usize,
    rp: &ResolvedPath,
    krange: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
) -> u64 {
    let panel = rp.panel.max(1);
    let k = b.rows();
    let ablk: [&[f32]; MR] = std::array::from_fn(|i| &arows[i][krange.clone()]);
    let bslab = &b.as_slice()[krange.start * n..krange.end * n];
    let mut panels = 0u64;
    let mut p0 = 0;
    while p0 < n {
        let p1 = (p0 + panel).min(n);
        let mut d = p0;
        if rp.lanes == LaneWidth::W16 {
            if packed.is_empty() {
                while d + 16 <= p1 {
                    gemm_micro::<MR, 16, FAST>(ablk, bslab, n, d, crows);
                    d += 16;
                }
            } else {
                while d + 16 <= p1 {
                    // Panels are lane-aligned, so `d` sits on a block
                    // boundary; `d + 16 <= n` keeps `jb` a full block.
                    debug_assert_eq!(d % 16, 0);
                    let base = (d / 16) * k * 16;
                    let pb = &packed[base + krange.start * 16..base + krange.end * 16];
                    gemm_micro_packed::<MR, 16, FAST>(ablk, pb, d, crows);
                    d += 16;
                }
            }
        } else if !packed.is_empty() {
            while d + 8 <= p1 {
                debug_assert_eq!(d % 8, 0);
                let base = (d / 8) * k * 8;
                let pb = &packed[base + krange.start * 8..base + krange.end * 8];
                gemm_micro_packed::<MR, 8, FAST>(ablk, pb, d, crows);
                d += 8;
            }
        }
        while d + 8 <= p1 {
            gemm_micro::<MR, 8, FAST>(ablk, bslab, n, d, crows);
            d += 8;
        }
        if d + 4 <= p1 {
            gemm_micro::<MR, 4, FAST>(ablk, bslab, n, d, crows);
            d += 4;
        }
        gemm_tail::<MR, FAST>(ablk, bslab, n, d..p1, crows);
        p0 = p1;
        panels += 1;
    }
    panels
}

/// [`gemm_micro`] over a [`pack_b`] column block: identical accumulator
/// tile and ascending-`k` chains, but each `k` step reads one contiguous
/// `W`-float line from the packed block instead of a `W`-wide window of
/// an `n`-wide row. Bit-identical to the unpacked microkernel by
/// construction — same values, same order, only the load addresses
/// differ.
#[inline(always)]
fn gemm_micro_packed<const MR: usize, const W: usize, const FAST: bool>(
    ablk: [&[f32]; MR],
    pb: &[f32],
    d: usize,
    crows: &mut [&mut [f32]; MR],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (accr, crow) in acc.iter_mut().zip(crows.iter()) {
        accr.copy_from_slice(&crow[d..d + W]);
    }
    let klen = ablk[0].len();
    for kk in 0..klen {
        let blk: &[f32; W] = pb[kk * W..kk * W + W].try_into().expect("packed block row");
        for (accr, ab) in acc.iter_mut().zip(&ablk) {
            let av = ab[kk];
            for (s, &bv) in accr.iter_mut().zip(blk) {
                if FAST {
                    *s = av.mul_add(bv, *s);
                } else {
                    *s += av * bv;
                }
            }
        }
    }
    for (accr, crow) in acc.iter().zip(crows.iter_mut()) {
        crow[d..d + W].copy_from_slice(accr);
    }
}

/// `MR × W` register microkernel: `MR * W` f32 accumulators live across
/// the whole `k`-block sweep, each loaded `B` block feeds all `MR` rows,
/// and the destination is written once per tile. The accumulators are
/// **seeded from the destination** (read-modify-write): the engine zeroes
/// `C` up front, so for the first `k`-block the seed is the literal
/// `0.0` the old unblocked kernel used, and each later block continues
/// the exact same addition sequence — `k`-blocking therefore cannot
/// change a single bit. No zero-skip branch — the dense inner loop stays
/// straight-line mul/add code (separate instructions when `FAST =
/// false`, so rounding matches the naive oracle even under the
/// FMA-capable [`wide`] clones; `FAST = true` fuses them to `mul_add`).
#[inline(always)]
fn gemm_micro<const MR: usize, const W: usize, const FAST: bool>(
    ablk: [&[f32]; MR],
    bslab: &[f32],
    n: usize,
    d: usize,
    crows: &mut [&mut [f32]; MR],
) {
    let mut acc = [[0.0f32; W]; MR];
    for (accr, crow) in acc.iter_mut().zip(crows.iter()) {
        accr.copy_from_slice(&crow[d..d + W]);
    }
    let klen = ablk[0].len();
    for kk in 0..klen {
        let brow = &bslab[kk * n..];
        let blk: &[f32; W] = brow[d..d + W].try_into().expect("block inside dense row");
        for (accr, ab) in acc.iter_mut().zip(&ablk) {
            let av = ab[kk];
            for (s, &bv) in accr.iter_mut().zip(blk) {
                if FAST {
                    *s = av.mul_add(bv, *s);
                } else {
                    *s += av * bv;
                }
            }
        }
    }
    for (accr, crow) in acc.iter().zip(crows.iter_mut()) {
        crow[d..d + W].copy_from_slice(accr);
    }
}

/// Scalar remainder columns of a GEMM panel, still `k`-ascending and
/// seeded from the destination like [`gemm_micro`].
#[inline(always)]
fn gemm_tail<const MR: usize, const FAST: bool>(
    ablk: [&[f32]; MR],
    bslab: &[f32],
    n: usize,
    range: std::ops::Range<usize>,
    crows: &mut [&mut [f32]; MR],
) {
    for d in range {
        for (ab, crow) in ablk.iter().zip(crows.iter_mut()) {
            let mut s = crow[d];
            for (&av, brow) in ab.iter().zip(bslab.chunks_exact(n)) {
                if FAST {
                    s = av.mul_add(brow[d], s);
                } else {
                    s += av * brow[d];
                }
            }
            crow[d] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Flush;
    use crate::spmm::test_support::{random_dense, random_matrix};

    #[test]
    fn fastmath_opt_in_accepts_only_one() {
        assert_eq!(resolve_fastmath(None), (false, None));
        assert_eq!(resolve_fastmath(Some("0")), (false, None));
        assert_eq!(resolve_fastmath(Some("1")), (true, None));
        for bad in ["", "false", "off"] {
            let (on, warning) = resolve_fastmath(Some(bad));
            assert!(!on, "input {bad:?} must keep FastMath off");
            let msg = warning.unwrap_or_else(|| panic!("no warning for {bad:?}"));
            assert!(
                msg.contains("MPSPMM_FASTMATH"),
                "warning names the variable: {msg}"
            );
        }
    }

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
        accumulate_segment_scalar(s, a.col_indices(), a.values(), b, 0, &mut out);
        out
    }

    fn resolved(kind: PathKind, lanes: LaneWidth, panel: usize) -> ResolvedPath {
        ResolvedPath {
            kind,
            lanes,
            wide_isa: WideIsa::detect(),
            panel,
            fastmath: false,
            prefetch: false,
        }
    }

    /// Every kernel variant, lane width, panel size, and index type must be
    /// bit-identical to the scalar oracle on all dims 1..=67 — including
    /// empty segments and single-nnz rows.
    #[test]
    fn all_kernels_bit_match_scalar_oracle_dims_1_to_67() {
        let a = random_matrix(64, 64, 300, 21);
        let cols32: Vec<u32> = a.col_indices().iter().map(|&c| c as u32).collect();
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
        for dim in 1..=67usize {
            let b = random_dense(64, dim, 22);
            for s in &segments {
                let want = scalar_reference(s, &a, &b, dim);
                let mut got = vec![f32::NAN; dim];
                accumulate_segment_tiled(s, &a, &b, 0, &mut got);
                assert_eq!(got, want, "tiled dim={dim} seg={s:?}");
                for lanes in [LaneWidth::W8, LaneWidth::W16] {
                    for panel in [8usize, 16, 32, 1024] {
                        let rp = resolved(PathKind::Vector, lanes, panel);
                        got.fill(f32::NAN);
                        vector_segment(s, a.col_indices(), a.values(), &b, 0, &mut got, &rp);
                        assert_eq!(
                            got, want,
                            "vector/usize dim={dim} lanes={lanes:?} panel={panel} seg={s:?}"
                        );
                        got.fill(f32::NAN);
                        vector_segment(s, &cols32, a.values(), &b, 0, &mut got, &rp);
                        assert_eq!(
                            got, want,
                            "vector/u32 dim={dim} lanes={lanes:?} panel={panel} seg={s:?}"
                        );
                    }
                }
                if s.len() <= GATHER_MAX_NNZ {
                    got.fill(f32::NAN);
                    gather_segment(s, a.col_indices(), a.values(), &b, 0, &mut got);
                    assert_eq!(got, want, "gather dim={dim} seg={s:?}");
                }
                got.fill(f32::NAN);
                let rp = resolved(PathKind::Vector, LaneWidth::W16, 16);
                stream_segment(s, a.col_indices(), a.values(), &b, 0, &mut got, &rp);
                assert_eq!(got, want, "stream dim={dim} seg={s:?}");
            }
        }
    }

    /// Gather prefetch must never change a value: `vector_segment` with
    /// the hints on and off, on both index types, full rows and `off > 0`
    /// column windows, equals the scalar oracle exactly. The segments
    /// include empty ones and ones that end at the matrix's last
    /// non-zero, where `k + PREFETCH_DISTANCE` runs past the index array
    /// and the hint index is clipped. This drives the prefetch `unsafe`
    /// block at every window edge (lane-misaligned starts, single
    /// columns, windows ending at the row's last column).
    #[test]
    fn prefetch_on_and_off_bit_match_scalar_oracle() {
        let a = random_matrix(64, 64, 300, 23);
        let cols32: Vec<u32> = a.col_indices().iter().map(|&c| c as u32).collect();
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
            let windows = [
                (0, dim),
                (dim / 2, dim),
                (dim / 3, dim / 3 + 1),
                (1.min(dim), dim),
            ];
            for s in &segments {
                for &(lo, hi) in &windows {
                    let mut want = vec![0.0f32; hi - lo];
                    accumulate_segment_scalar(s, a.col_indices(), a.values(), &b, lo, &mut want);
                    for lanes in [LaneWidth::W8, LaneWidth::W16] {
                        for panel in [8usize, 1024] {
                            for prefetch in [false, true] {
                                let rp = ResolvedPath {
                                    prefetch,
                                    ..resolved(PathKind::Vector, lanes, panel)
                                };
                                let ctx = format!(
                                    "dim={dim} window={lo}..{hi} lanes={lanes:?} \
                                     panel={panel} prefetch={prefetch} seg={s:?}"
                                );
                                let mut got = vec![f32::NAN; hi - lo];
                                vector_segment(
                                    s,
                                    a.col_indices(),
                                    a.values(),
                                    &b,
                                    lo,
                                    &mut got,
                                    &rp,
                                );
                                assert_eq!(got, want, "usize {ctx}");
                                got.fill(f32::NAN);
                                vector_segment(s, &cols32, a.values(), &b, lo, &mut got, &rp);
                                assert_eq!(got, want, "u32 {ctx}");
                            }
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
        assert!(DataPath::Vector.resolve_fast(fits + 1, dim, true).prefetch);
        assert!(!DataPath::Vector.resolve(1, dim).prefetch);
        assert!(!DataPath::Vector.resolve(0, dim).prefetch);
        for path in [DataPath::Scalar, DataPath::Tiled] {
            assert!(!path.resolve(fits + 1, dim).prefetch, "{path:?}");
            assert!(!path.resolve(1 << 30, 1 << 10).prefetch, "{path:?}");
        }
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
            vector_segment(s, a.col_indices(), a.values(), &b, 0, &mut got, &rp);
            assert_eq!(got, want);
        }
    }

    /// Running every kernel on a column window `[off, off + w)` must
    /// reproduce exactly that slice of the full-row result — the
    /// column-striped executor's kernel-level correctness condition.
    #[test]
    fn windowed_kernels_match_full_row_slices() {
        let a = random_matrix(48, 48, 220, 31);
        let cols32: Vec<u32> = a.col_indices().iter().map(|&c| c as u32).collect();
        let row_end = a.row_ptr()[1];
        let segments = [
            seg(0, row_end),
            seg(0, 0),
            seg(2, 3),
            seg(1, row_end - 1),
            seg(3, 3 + GATHER_MAX_NNZ),
        ];
        for dim in [33usize, 67, 128] {
            let b = random_dense(48, dim, 32);
            // Window partitions including empty, single-column, and
            // lane-misaligned interior windows.
            let windows = [(0usize, dim), (0, dim / 2), (dim / 2, dim), (5, 6), (7, 7)];
            for s in &segments {
                let want = scalar_reference(s, &a, &b, dim);
                for &(lo, hi) in &windows {
                    let w = hi - lo;
                    let mut got = vec![f32::NAN; w];
                    got.fill(0.0);
                    accumulate_segment_scalar(s, a.col_indices(), a.values(), &b, lo, &mut got);
                    assert_eq!(got, want[lo..hi], "scalar window {lo}..{hi} dim={dim}");
                    got.fill(0.0);
                    accumulate_segment_tiled(s, &a, &b, lo, &mut got);
                    assert_eq!(got, want[lo..hi], "tiled window {lo}..{hi} dim={dim}");
                    if s.len() <= GATHER_MAX_NNZ {
                        got.fill(0.0);
                        gather_segment(s, a.col_indices(), a.values(), &b, lo, &mut got);
                        assert_eq!(got, want[lo..hi], "gather window {lo}..{hi} dim={dim}");
                    }
                    for lanes in [LaneWidth::W8, LaneWidth::W16] {
                        let rp = resolved(PathKind::Vector, lanes, 16);
                        got.fill(0.0);
                        vector_segment(s, a.col_indices(), a.values(), &b, lo, &mut got, &rp);
                        assert_eq!(
                            got,
                            want[lo..hi],
                            "vector/usize window {lo}..{hi} dim={dim} lanes={lanes:?}"
                        );
                        got.fill(0.0);
                        vector_segment(s, &cols32, a.values(), &b, lo, &mut got, &rp);
                        assert_eq!(
                            got,
                            want[lo..hi],
                            "vector/u32 window {lo}..{hi} dim={dim} lanes={lanes:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_fast_gates_on_kind_and_support() {
        // Default resolve never enables FastMath.
        assert!(!DataPath::Vector.resolve(64, 256).fastmath);
        // Non-vector kinds never enable it even when asked.
        assert!(!DataPath::Scalar.resolve_fast(64, 256, true).fastmath);
        assert!(!DataPath::Tiled.resolve_fast(64, 256, true).fastmath);
        // The vector kind enables it iff the CPU proof holds.
        let rp = DataPath::Vector.resolve_fast(64, 256, true);
        assert_eq!(rp.fastmath, fastmath_supported());
        assert!(!DataPath::Vector.resolve_fast(64, 256, false).fastmath);
    }

    /// FastMath changes rounding (FMA keeps the infinitely precise
    /// product), so it is held to a relative tolerance against the scalar
    /// oracle, never bit-equality.
    #[test]
    fn fastmath_stream_stays_within_tolerance() {
        if !fastmath_supported() {
            return;
        }
        let a = random_matrix(64, 64, 400, 41);
        let row_end = a.row_ptr()[1];
        let s = seg(0, row_end);
        for dim in [48usize, 128, 256] {
            let b = random_dense(64, dim, 42);
            let want = scalar_reference(&s, &a, &b, dim);
            let rp = DataPath::Vector.resolve_fast(64, dim, true);
            assert!(rp.fastmath);
            let mut got = vec![0.0f32; dim];
            vector_segment(&s, a.col_indices(), a.values(), &b, 0, &mut got, &rp);
            for (d, (&g, &w)) in got.iter().zip(&want).enumerate() {
                let err = (g - w).abs();
                let tol = 1e-5 * w.abs().max(1.0);
                assert!(err <= tol, "dim={dim} col={d}: got {g}, want {w}");
            }
        }
    }

    #[test]
    fn resolve_honors_explicit_paths_and_panel_model() {
        assert_eq!(DataPath::Scalar.resolve(32, 32).kind, PathKind::Scalar);
        assert_eq!(DataPath::Tiled.resolve(32, 32).kind, PathKind::Tiled);
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
