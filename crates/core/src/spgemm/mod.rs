//! Sparse×sparse SpGEMM: merge-path-balanced CSR×CSR with per-row
//! adaptive accumulators.
//!
//! Every other data path in this crate produces a *dense* output; this
//! module multiplies two CSR matrices into a CSR result
//! ([`ExecEngine::spgemm`]), the kernel behind multi-hop propagation
//! (`A²X` for 2-hop GNNs), graph coarsening, and similarity joins. It
//! runs in two phases:
//!
//! 1. **Symbolic** — per output row `i`, an upper bound on its non-zero
//!    count: `ub(i) = Σ_k nnz(B
//!    row k)` over `A`'s row `i` (exact only when no column collides).
//!    The cumulative bounds feed the *merge-path chunker*
//!    ([`crate::plan::chunk_threads`]) with one logical thread per
//!    row, so chunk boundaries balance `rows + flops` exactly like the
//!    SpMM planner balances `threads + nnz` — a power-law hub row
//!    cannot serialize a whole worker span.
//! 2. **Numeric** — workers self-schedule chunks off an atomic cursor
//!    (no per-worker deques: chunks are already flop-balanced). Each
//!    row picks an
//!    accumulator by [`classify_row`], mirroring the row classification
//!    of the binary-row-merging CPU SpGEMM work (arXiv 2206.06611):
//!    *merge* for rows combining few `B` rows, *dense scratch* for
//!    short wide rows, *hash* for the sparse rest. Chunk outputs are
//!    emitted into arena-backed segments and stitched serially into the
//!    final CSR via
//!    [`from_parts_unchecked`](CsrMatrix::from_parts_unchecked) — the
//!    invariants hold by construction, so the stitch is O(nnz) copies
//!    with no re-validation.
//!
//! # Determinism
//!
//! The engine's output is **bit-identical** to [`spgemm_sequential`]
//! for every strategy and worker count. Three facts make this hold (see
//! the `accum` submodule docs for the per-accumulator argument):
//! every accumulator applies a row's contributions to a given output
//! column in ascending-`k` order with first-touch assignment; each
//! output row is computed by exactly one worker (chunks never split a
//! row); and chunks are stitched in row order regardless of which
//! worker finished them when. Worker count changes only *which* worker
//! computes a row, never the arithmetic inside it.

mod accum;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use mpspmm_sparse::{CsrMatrix, SparseFormatError};

use crate::arena::BufferArena;
use crate::engine::ExecEngine;
use crate::plan::{chunk_threads, static_span_skew, ChunkDesc};
use crate::pool::{ScopedJob, WorkerPool};
use crate::tuner::{spgemm_arm_space, GraphFingerprint};
use crate::tuning::{
    SPGEMM_CHUNKS_PER_WORKER, SPGEMM_DENSE_FILL_DIV, SPGEMM_MERGE_MAX_WAYS, TUNE_MEASURES_PER_ARM,
};

use accum::{merge_row, DenseAccumulator, HashAccumulator};

/// Which accumulator family [`ExecEngine::spgemm`] runs rows through.
///
/// [`Adaptive`](Self::Adaptive) (the default) classifies per row via
/// [`classify_row`]; the forced variants pin every row to one family —
/// an A/B switch for benchmarks and the bit-equality test matrix, and
/// the arm family the online tuner explores
/// ([`crate::tuner::spgemm_arm_space`]). All variants produce identical
/// bits; only speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpgemmStrategy {
    /// Per-row choice by [`classify_row`] — the static heuristic.
    #[default]
    Adaptive,
    /// Every row through the dense-scratch accumulator.
    Dense,
    /// Every row through the u32-keyed hash accumulator.
    Hash,
    /// Every row through the sorted multi-way merge.
    Merge,
}

/// The accumulator a row classifies to. Discriminants index the
/// per-chunk class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumKind {
    /// Dense scratch (short, wide rows).
    Dense = 0,
    /// u32-keyed open-addressing hash (sparse rows).
    Hash = 1,
    /// Sorted multi-way merge (few `B` rows combined).
    Merge = 2,
}

/// The static per-row accumulator choice of
/// [`SpgemmStrategy::Adaptive`]: merge when the row combines at most
/// [`SPGEMM_MERGE_MAX_WAYS`] `B` rows, else dense scratch when the nnz
/// upper bound `ub` is at least `b_cols /`
/// [`SPGEMM_DENSE_FILL_DIV`], else hash. `ways` is the A-row's nnz,
/// `ub` the row's upper bound, `b_cols` the output width.
pub fn classify_row(ways: usize, ub: usize, b_cols: usize) -> AccumKind {
    if ways <= SPGEMM_MERGE_MAX_WAYS {
        AccumKind::Merge
    } else if ub.saturating_mul(SPGEMM_DENSE_FILL_DIV) >= b_cols {
        AccumKind::Dense
    } else {
        AccumKind::Hash
    }
}

/// Cumulative per-row nnz upper bounds (`ends[i]` = Σ of `ub` over rows
/// `0..=i`) — the symbolic phase's output and the chunker's balance
/// signal.
fn upper_bound_ends(a: &CsrMatrix<f32>, b: &CsrMatrix<f32>) -> Vec<usize> {
    let mut ends = Vec::with_capacity(a.rows());
    let mut running = 0usize;
    for arow in a.iter_rows() {
        for &k in arow.cols {
            running += b.row_nnz(k);
        }
        ends.push(running);
    }
    ends
}

/// Total multiply-add upper bound of `A × B` (Σ over `A`'s non-zeros
/// `(i, k)` of `nnz(B row k)`) — the flop count the symbolic phase
/// balances on and the work term of the two-hop crossover model and
/// the SpGEMM benchmark.
pub fn spgemm_flops_upper_bound(a: &CsrMatrix<f32>, b: &CsrMatrix<f32>) -> usize {
    debug_assert_eq!(a.cols(), b.rows(), "operand shapes must chain");
    a.col_indices().iter().map(|&k| b.row_nnz(k)).sum()
}

/// Sequential SpGEMM oracle: one dense scratch pass per row, full
/// [`CsrMatrix::new`] validation on the result. This is the bit-level
/// ground truth [`ExecEngine::spgemm`] is tested against — it follows
/// the same accumulation contract (ascending-`k` order, first-touch
/// assignment, plain scalar products) as every engine accumulator.
///
/// # Errors
///
/// Returns [`SparseFormatError::ShapeMismatch`] if
/// `a.cols() != b.rows()`.
pub fn spgemm_sequential(
    a: &CsrMatrix<f32>,
    b: &CsrMatrix<f32>,
) -> Result<CsrMatrix<f32>, SparseFormatError> {
    check_spgemm_shapes(a, b)?;
    let mut acc = DenseAccumulator::new(Vec::new(), b.cols());
    let mut cols32 = Vec::new();
    let mut vals = Vec::new();
    let mut row_ptr = Vec::with_capacity(a.rows() + 1);
    row_ptr.push(0usize);
    for arow in a.iter_rows() {
        for (&k, &av) in arow.cols.iter().zip(arow.vals) {
            let brow = b.row(k);
            for (&c, &bv) in brow.cols.iter().zip(brow.vals) {
                acc.accumulate(c, av * bv);
            }
        }
        acc.flush_into(&mut cols32, &mut vals);
        row_ptr.push(cols32.len());
    }
    let col_indices = cols32.into_iter().map(|c| c as usize).collect();
    CsrMatrix::new(a.rows(), b.cols(), row_ptr, col_indices, vals)
}

fn check_spgemm_shapes(a: &CsrMatrix<f32>, b: &CsrMatrix<f32>) -> Result<(), SparseFormatError> {
    if a.cols() != b.rows() {
        return Err(SparseFormatError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    Ok(())
}

/// One chunk's output segment: column/value tails (arena-backed) plus
/// per-row lengths and per-class row counts, stitched serially after
/// the join.
struct ChunkOut {
    cols: Vec<u32>,
    vals: Vec<f32>,
    row_nnz: Vec<u32>,
    counts: [u64; 3],
}

/// One worker's drain loop: claim chunks off the shared cursor until
/// none remain. Accumulator state (hash table, dense scratch) lives
/// per worker and is reused across its chunks; the dense scratch is
/// only materialized if a dense-classified row actually appears.
#[allow(clippy::too_many_arguments)]
fn numeric_worker(
    a: &CsrMatrix<f32>,
    b: &CsrMatrix<f32>,
    ub_ends: &[usize],
    chunks: &[ChunkDesc],
    strategy: SpgemmStrategy,
    arena: &BufferArena,
    cursor: &AtomicUsize,
    outs: &[OnceLock<ChunkOut>],
) {
    let mut hash = HashAccumulator::default();
    let mut dense: Option<DenseAccumulator> = None;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= chunks.len() {
            break;
        }
        let out = run_chunk(
            a, b, ub_ends, chunks[i], strategy, arena, &mut dense, &mut hash,
        );
        assert!(outs[i].set(out).is_ok(), "chunk {i} executed twice");
    }
    if let Some(d) = dense {
        arena.put(d.into_vals());
    }
}

/// Executes every row of one chunk through its (classified or forced)
/// accumulator, emitting into fresh arena segments.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    a: &CsrMatrix<f32>,
    b: &CsrMatrix<f32>,
    ub_ends: &[usize],
    chunk: ChunkDesc,
    strategy: SpgemmStrategy,
    arena: &BufferArena,
    dense: &mut Option<DenseAccumulator>,
    hash: &mut HashAccumulator,
) -> ChunkOut {
    let b_cols = b.cols();
    let mut cols = arena.take_indices(chunk.nnz);
    let mut vals = arena.take_cleared(chunk.nnz);
    let mut row_nnz = Vec::with_capacity(chunk.threads());
    let mut counts = [0u64; 3];
    for r in chunk.thread_start as usize..chunk.thread_end as usize {
        let arow = a.row(r);
        let ub = ub_ends[r] - if r == 0 { 0 } else { ub_ends[r - 1] };
        let kind = match strategy {
            SpgemmStrategy::Adaptive => classify_row(arow.cols.len(), ub, b_cols),
            SpgemmStrategy::Dense => AccumKind::Dense,
            SpgemmStrategy::Hash => AccumKind::Hash,
            SpgemmStrategy::Merge => AccumKind::Merge,
        };
        let n = match kind {
            AccumKind::Merge => merge_row(arow.cols, arow.vals, b, &mut cols, &mut vals),
            AccumKind::Dense => {
                let acc = dense.get_or_insert_with(|| {
                    DenseAccumulator::new(arena.take_cleared(b_cols), b_cols)
                });
                for (&k, &av) in arow.cols.iter().zip(arow.vals) {
                    let brow = b.row(k);
                    for (&c, &bv) in brow.cols.iter().zip(brow.vals) {
                        acc.accumulate(c, av * bv);
                    }
                }
                acc.flush_into(&mut cols, &mut vals)
            }
            AccumKind::Hash => {
                hash.reserve(ub);
                for (&k, &av) in arow.cols.iter().zip(arow.vals) {
                    let brow = b.row(k);
                    for (&c, &bv) in brow.cols.iter().zip(brow.vals) {
                        hash.accumulate(c as u32, av * bv);
                    }
                }
                hash.flush_into(&mut cols, &mut vals)
            }
        };
        row_nnz.push(n as u32);
        counts[kind as usize] += 1;
    }
    ChunkOut {
        cols,
        vals,
        row_nnz,
        counts,
    }
}

/// Online tuner state for one SpGEMM shape class: measure every
/// strategy arm [`TUNE_MEASURES_PER_ARM`] times on the numeric phase,
/// then pin the fastest (ties break to the lowest index, i.e. the
/// heuristic incumbent). Kept per engine, keyed by
/// [`GraphFingerprint`], only when an [`crate::AutoTuner`] is attached.
#[derive(Debug)]
pub(crate) struct SpgemmSlot {
    arms: Vec<SpgemmStrategy>,
    observed: Vec<u32>,
    best_ns: Vec<u64>,
    cursor: usize,
    converged: Option<usize>,
}

impl SpgemmSlot {
    fn new(arms: Vec<SpgemmStrategy>) -> Self {
        let n = arms.len();
        Self {
            arms,
            observed: vec![0; n],
            best_ns: vec![u64::MAX; n],
            cursor: 0,
            converged: None,
        }
    }

    /// Picks the arm for the next run: the winner once converged, else
    /// the next arm still short of its measure quota (round-robin).
    /// Returns `(arm index, strategy, whether this run is a measured
    /// exploration)`.
    fn begin(&mut self) -> (usize, SpgemmStrategy, bool) {
        if let Some(i) = self.converged {
            return (i, self.arms[i], false);
        }
        let n = self.arms.len();
        for _ in 0..n {
            let i = self.cursor % n;
            self.cursor += 1;
            if self.observed[i] < TUNE_MEASURES_PER_ARM {
                return (i, self.arms[i], true);
            }
        }
        // Every arm has its quota but a concurrent observe has not yet
        // declared the winner; run the current best meanwhile.
        let i = self.best_index();
        (i, self.arms[i], false)
    }

    /// Records a measured numeric-phase time for arm `idx`. Returns
    /// `(excess over the incumbent best, whether this observation
    /// completed convergence)`.
    fn observe(&mut self, idx: usize, ns: u64) -> (u64, bool) {
        let incumbent = self.best_ns.iter().copied().min().unwrap_or(u64::MAX);
        let excess = if incumbent == u64::MAX {
            0
        } else {
            ns.saturating_sub(incumbent)
        };
        self.best_ns[idx] = self.best_ns[idx].min(ns);
        self.observed[idx] += 1;
        let done =
            self.converged.is_none() && self.observed.iter().all(|&o| o >= TUNE_MEASURES_PER_ARM);
        if done {
            self.converged = Some(self.best_index());
        }
        (excess, done)
    }

    fn best_index(&self) -> usize {
        let mut best = 0;
        for i in 1..self.arms.len() {
            if self.best_ns[i] < self.best_ns[best] {
                best = i;
            }
        }
        best
    }

    /// The converged winner, if any — exposed through
    /// [`ExecEngine::spgemm_tuned_strategy`].
    fn winner(&self) -> Option<SpgemmStrategy> {
        self.converged.map(|i| self.arms[i])
    }
}

/// Per-engine SpGEMM tuner slots, keyed by shape class.
pub(crate) type SpgemmSlots = HashMap<GraphFingerprint, SpgemmSlot>;

impl ExecEngine {
    /// Pins every SpGEMM row to one accumulator family instead of the
    /// per-row [`classify_row`] heuristic. An A/B switch for the
    /// benchmark and the bit-equality test matrix — results are
    /// identical bits under every strategy; only speed changes. When a
    /// tuner is attached ([`with_autotuner`](Self::with_autotuner) or
    /// `MPSPMM_TUNE`), converged shape classes override this pin.
    #[must_use]
    pub fn with_spgemm_strategy(mut self, strategy: SpgemmStrategy) -> Self {
        self.spgemm_strategy = strategy;
        self
    }

    /// The accumulator strategy untuned SpGEMM runs execute with.
    pub fn spgemm_strategy(&self) -> SpgemmStrategy {
        self.spgemm_strategy
    }

    /// The converged tuner verdict for the SpGEMM shape class of
    /// `(a, b)`, or `None` while exploring or when no tuner is
    /// attached — exposed so tests and the benchmark can assert on
    /// convergence.
    pub fn spgemm_tuned_strategy(
        &self,
        a: &CsrMatrix<f32>,
        b: &CsrMatrix<f32>,
    ) -> Option<SpgemmStrategy> {
        self.autotuner()?;
        let ub_ends = upper_bound_ends(a, b);
        let fp = self.spgemm_fingerprint(a, b, &ub_ends);
        self.spgemm_slots
            .lock()
            .unwrap()
            .get(&fp)
            .and_then(SpgemmSlot::winner)
    }

    /// The quantized shape class an SpGEMM of `(a, b)` files under:
    /// output rows, flop upper bound as the nnz feature, `B`'s column
    /// count as the dense dimension, and the chunk-free static skew of
    /// the upper-bound partition.
    fn spgemm_fingerprint(
        &self,
        a: &CsrMatrix<f32>,
        b: &CsrMatrix<f32>,
        ub_ends: &[usize],
    ) -> GraphFingerprint {
        let eff = self.workers.min(a.rows()).max(1);
        GraphFingerprint::from_features(
            a.rows(),
            ub_ends.last().copied().unwrap_or(0),
            b.cols(),
            static_span_skew(ub_ends, eff),
            0,
            0,
            eff,
        )
    }

    /// Multiplies two CSR matrices into a CSR result, `C = A × B`.
    ///
    /// Two phases (see the [module docs](self)): a serial symbolic
    /// pass computes per-row nnz upper bounds and merge-path-chunks the
    /// rows; the numeric pass runs the chunks on the worker pool with
    /// per-row adaptive accumulators. The output has sorted, duplicate-
    /// free column indices and is **bit-identical** to
    /// [`spgemm_sequential`] at every strategy and worker count.
    /// Explicit zeros are kept: an entry whose products cancel to zero
    /// is structurally present, exactly as in the oracle.
    ///
    /// Phase timings and the per-accumulator row distribution land in
    /// [`EngineStats::spgemm`](crate::EngineStats).
    ///
    /// # Errors
    ///
    /// Returns [`SparseFormatError::ShapeMismatch`] if
    /// `a.cols() != b.rows()`.
    pub fn spgemm(
        &self,
        a: &CsrMatrix<f32>,
        b: &CsrMatrix<f32>,
    ) -> Result<CsrMatrix<f32>, SparseFormatError> {
        check_spgemm_shapes(a, b)?;
        if b.cols() as u64 >= u32::MAX as u64 {
            // Column keys must fit u32 (u32::MAX is the hash empty
            // sentinel); absurd widths take the oracle verbatim.
            let out = spgemm_sequential(a, b)?;
            self.spgemm_rows
                .fetch_add(a.rows() as u64, Ordering::Relaxed);
            return Ok(out);
        }
        let rows = a.rows();
        let sym_t = Instant::now();
        let ub_ends = upper_bound_ends(a, b);
        let eff = self.workers.min(rows).max(1);
        let target = (eff * SPGEMM_CHUNKS_PER_WORKER).min(rows.max(1));
        let chunks = chunk_threads(&ub_ends, target);
        self.spgemm_symbolic_ns
            .fetch_add(sym_t.elapsed().as_nanos() as u64, Ordering::Relaxed);

        // Strategy: the tuner slot when one is attached (explore until
        // the shape class converges), else the engine's pinned choice.
        let ticket = if self.autotuner().is_some() && rows > 0 {
            let fp = self.spgemm_fingerprint(a, b, &ub_ends);
            let mut slots = self.spgemm_slots.lock().unwrap();
            let slot = slots
                .entry(fp)
                .or_insert_with(|| SpgemmSlot::new(spgemm_arm_space(&fp)));
            let (idx, strategy, explore) = slot.begin();
            Some((fp, idx, strategy, explore))
        } else {
            None
        };
        let strategy = ticket.map_or(self.spgemm_strategy, |(_, _, s, _)| s);

        // Numeric phase: timed around the parallel chunk drain only —
        // the serial stitch is excluded so the figure is the one the
        // makespan model of `bench_spgemm` calibrates against.
        let outs: Vec<OnceLock<ChunkOut>> = chunks.iter().map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let num_t = Instant::now();
        let drivers = eff.min(chunks.len()).max(1);
        if drivers <= 1 {
            numeric_worker(
                a,
                b,
                &ub_ends,
                &chunks,
                strategy,
                &self.arena,
                &cursor,
                &outs,
            );
        } else {
            let jobs: Vec<ScopedJob<'_>> = (0..drivers)
                .map(|_| {
                    let (ub_ends, chunks, outs, cursor) = (&ub_ends, &chunks, &outs, &cursor);
                    Box::new(move || {
                        numeric_worker(a, b, ub_ends, chunks, strategy, &self.arena, cursor, outs);
                    }) as ScopedJob<'_>
                })
                .collect();
            WorkerPool::global().scope_run(jobs);
        }
        let numeric_ns = num_t.elapsed().as_nanos() as u64;
        self.spgemm_numeric_ns
            .fetch_add(numeric_ns, Ordering::Relaxed);

        if let Some((fp, idx, _, true)) = ticket {
            let mut slots = self.spgemm_slots.lock().unwrap();
            if let Some(slot) = slots.get_mut(&fp) {
                let (excess, converged) = slot.observe(idx, numeric_ns);
                self.tuner_explorations.fetch_add(1, Ordering::Relaxed);
                self.tuner_exploration_ns
                    .fetch_add(numeric_ns, Ordering::Relaxed);
                self.tuner_excess_ns.fetch_add(excess, Ordering::Relaxed);
                if converged {
                    self.tuner_converged.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Serial stitch, in chunk (= row) order: whichever worker
        // finished a chunk, its segment lands at the same offset.
        let total: usize = outs
            .iter()
            .map(|o| o.get().map_or(0, |c| c.cols.len()))
            .sum();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0usize);
        let mut col_indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        let mut counts = [0u64; 3];
        let mut running = 0usize;
        for out in outs {
            let out = out.into_inner().expect("every chunk executed");
            for &n in &out.row_nnz {
                running += n as usize;
                row_ptr.push(running);
            }
            col_indices.extend(out.cols.iter().map(|&c| c as usize));
            values.extend_from_slice(&out.vals);
            for (t, c) in counts.iter_mut().zip(out.counts) {
                *t += c;
            }
            self.arena.put_indices(out.cols);
            self.arena.put(out.vals);
        }
        self.spgemm_rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.spgemm_dense.fetch_add(counts[0], Ordering::Relaxed);
        self.spgemm_hash.fetch_add(counts[1], Ordering::Relaxed);
        self.spgemm_merge.fetch_add(counts[2], Ordering::Relaxed);
        Ok(CsrMatrix::from_parts_unchecked(
            rows,
            b.cols(),
            row_ptr,
            col_indices,
            values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpspmm_sparse::testing::assert_csr_eq;

    fn power_law_pair() -> (CsrMatrix<f32>, CsrMatrix<f32>) {
        // Hand-rolled skew: row r of A has ~64/(r+1) entries, B is a
        // banded matrix — enough structure to hit all three classes.
        let n = 64;
        let a_rows: Vec<Vec<(usize, f32)>> = (0..n)
            .map(|r| {
                (0..(n / (r + 1)).max(1))
                    .map(|j| ((j * (r + 3)) % n, 0.5 + (r * 7 + j) as f32 * 0.25))
                    .collect::<Vec<_>>()
            })
            .map(|mut row| {
                row.sort_unstable_by_key(|&(c, _)| c);
                row.dedup_by_key(|&mut (c, _)| c);
                row
            })
            .collect();
        let b_rows: Vec<Vec<(usize, f32)>> = (0..n)
            .map(|r| {
                (r..(r + 5).min(n))
                    .map(|c| (c, 1.0 - (c as f32) * 0.01))
                    .collect()
            })
            .collect();
        (
            CsrMatrix::from_sorted_rows(n, &a_rows).unwrap(),
            CsrMatrix::from_sorted_rows(n, &b_rows).unwrap(),
        )
    }

    #[test]
    fn sequential_oracle_matches_dense_reference() {
        let (a, b) = power_law_pair();
        let c = spgemm_sequential(&a, &b).unwrap();
        let (ad, bd, cd) = (a.to_dense(), b.to_dense(), c.to_dense());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut want = 0.0f32;
                let mut first = true;
                for k in 0..a.cols() {
                    let (av, bv) = (ad.get(i, k), bd.get(k, j));
                    if a.row(i).cols.contains(&k) && b.row(k).cols.contains(&j) {
                        let contrib = av * bv;
                        if first {
                            want = contrib;
                            first = false;
                        } else {
                            want += contrib;
                        }
                    }
                }
                assert_eq!(cd.get(i, j).to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn engine_matches_oracle_on_every_strategy() {
        let (a, b) = power_law_pair();
        let want = spgemm_sequential(&a, &b).unwrap();
        for strategy in [
            SpgemmStrategy::Adaptive,
            SpgemmStrategy::Dense,
            SpgemmStrategy::Hash,
            SpgemmStrategy::Merge,
        ] {
            for workers in [1, 3] {
                let engine = ExecEngine::new(workers).with_spgemm_strategy(strategy);
                let got = engine.spgemm(&a, &b).unwrap();
                assert_csr_eq(&got, &want);
            }
        }
    }

    #[test]
    fn adaptive_classification_lands_in_stats() {
        let (a, b) = power_law_pair();
        let engine = ExecEngine::new(2);
        engine.spgemm(&a, &b).unwrap();
        let s = engine.stats().spgemm;
        assert_eq!(s.rows, a.rows() as u64);
        assert_eq!(s.classified_rows(), s.rows);
        // The skewed A has hub rows (dense or hash) *and* thin rows
        // (merge) — the classifier must actually split.
        assert!(s.accum_merge > 0, "thin rows classify to merge: {s:?}");
        assert!(
            s.accum_dense + s.accum_hash > 0,
            "hub rows classify off the merge path: {s:?}"
        );
        // A hand-run of the classifier over the rows must agree.
        let ub_ends = upper_bound_ends(&a, &b);
        let mut want = [0u64; 3];
        for r in 0..a.rows() {
            let ub = ub_ends[r] - if r == 0 { 0 } else { ub_ends[r - 1] };
            want[classify_row(a.row_nnz(r), ub, b.cols()) as usize] += 1;
        }
        assert_eq!([s.accum_dense, s.accum_hash, s.accum_merge], want);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = CsrMatrix::<f32>::zeros(2, 3);
        let b = CsrMatrix::<f32>::zeros(4, 2);
        assert!(matches!(
            spgemm_sequential(&a, &b),
            Err(SparseFormatError::ShapeMismatch { .. })
        ));
        assert!(ExecEngine::new(1).spgemm(&a, &b).is_err());
    }

    #[test]
    fn empty_operands_produce_empty_outputs() {
        let a = CsrMatrix::<f32>::zeros(3, 4);
        let b = CsrMatrix::<f32>::zeros(4, 5);
        let engine = ExecEngine::new(2);
        let c = engine.spgemm(&a, &b).unwrap();
        assert_eq!((c.rows(), c.cols(), c.nnz()), (3, 5, 0));
        assert_csr_eq(&c, &spgemm_sequential(&a, &b).unwrap());
        let empty_rows = ExecEngine::new(1)
            .spgemm(&CsrMatrix::zeros(0, 4), &b)
            .unwrap();
        assert_eq!((empty_rows.rows(), empty_rows.cols()), (0, 5));
    }

    #[test]
    fn slot_converges_to_argmin_with_heuristic_tiebreak() {
        let mut slot = SpgemmSlot::new(vec![
            SpgemmStrategy::Adaptive,
            SpgemmStrategy::Hash,
            SpgemmStrategy::Merge,
        ]);
        let mut converged = false;
        let mut runs = 0;
        while !converged {
            let (idx, _, explore) = slot.begin();
            assert!(explore, "must explore until every arm is measured");
            // Arm 1 (Hash) is fastest; ties elsewhere.
            let ns = if idx == 1 { 100 } else { 300 };
            converged = slot.observe(idx, ns).1;
            runs += 1;
            assert!(runs <= 3 * TUNE_MEASURES_PER_ARM, "must converge");
        }
        assert_eq!(slot.winner(), Some(SpgemmStrategy::Hash));
        let (_, strategy, explore) = slot.begin();
        assert_eq!((strategy, explore), (SpgemmStrategy::Hash, false));
    }
}
