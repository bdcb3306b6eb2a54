//! Per-engine buffer arena: pooled output / scratch buffers so
//! steady-state inference performs no heap allocation.
//!
//! Every [`crate::ExecEngine`] execution needs one dense output buffer
//! (`rows × dim` f32s) per block it computes; a column batch folds each
//! block straight into its own, so that is all it checks out. Only a
//! batch of single-column blocks also checks out an interleaved
//! combined operand and its combined result. Without this arena each
//! run would allocate (and drop) them; under serving traffic that is
//! pure allocator churn on buffers whose sizes repeat forever, because
//! the graph and feature dimensions of a tenant are stationary. The
//! arena keeps one small pool of retired `f32` buffers and hands them
//! back out by best capacity fit, so the steady state is 100% reuse.
//!
//! Alignment: fresh f32 buffers are allocated with capacities rounded up
//! to whole 64-byte cache lines, so the allocator serves them from
//! stable size classes (large ones page-aligned) and reuse preserves the
//! original placement run over run.
//!
//! Zeroing: the SpMM row fold, the GEMM's vectorized tiles and the
//! single-column interleave store every element of the buffers they
//! fill, so they check out with `take`, which keeps a recycled buffer's
//! stale values and runs no zeroing pass. Only callers that accumulate
//! into their buffer (the scalar GEMM, a `k == 0` GEMM, a leased input)
//! pay for `take_zeroed`.
//!
//! Ownership of outputs *leaves* the engine as [`DenseMatrix`] values
//! (which demand a plain `Vec<f32>`), so reuse of those is cooperative:
//! callers that are done with a result hand it back via
//! [`crate::ExecEngine::recycle`]. The GCN forward pass recycles each
//! activation at its last read, a layer's input as soon as its GEMMs
//! have read it, so the aggregation writes into it; a reply a serving
//! client drops costs one fresh buffer on the next call.
//!
//! A panic while the pool's lock is held poisons it; the next lock
//! recovers by dropping every pooled buffer and clearing the poison, so
//! a poisoned arena only loses its reuse.
//!
//! [`DenseMatrix`]: mpspmm_sparse::DenseMatrix

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Retired buffers kept per pool; beyond this the smallest is dropped.
/// Serving batches split into at most a handful of per-tenant blocks, so
/// eight covers every concurrent shape seen in practice.
const MAX_POOLED: usize = 8;

/// f32 elements per 64-byte cache line.
const LINE_F32: usize = 16;

/// The engine's buffer pool. See the module docs for the design; all
/// methods are `&self` and internally locked, matching the engine's
/// share-one-instance concurrency model. Lock hold times are O(pool
/// size) scans — zeroing happens outside the lock.
#[derive(Debug, Default)]
pub(crate) struct BufferArena {
    outputs: Mutex<Vec<Vec<f32>>>,
    reuses: AtomicU64,
    misses: AtomicU64,
}

/// Pops the best (smallest sufficient) capacity fit from `pool`, or the
/// overall smallest entry (to be dropped by the caller) when nothing
/// fits and the pool is full.
fn pop_fit(pool: &mut Vec<Vec<f32>>, need: usize) -> Option<(Vec<f32>, bool)> {
    let mut best: Option<(usize, usize)> = None; // (index, capacity)
    let mut smallest: Option<(usize, usize)> = None;
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= need && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
        if smallest.is_none_or(|(_, c)| cap < c) {
            smallest = Some((i, cap));
        }
    }
    if let Some((i, _)) = best {
        return Some((pool.swap_remove(i), true));
    }
    // Nothing fits: evict the smallest if the pool is at capacity so it
    // self-corrects toward the sizes actually in use.
    if pool.len() >= MAX_POOLED {
        let (i, _) = smallest?;
        return Some((pool.swap_remove(i), false));
    }
    None
}

impl BufferArena {
    /// Locks the pool. A thread that panicked while holding the lock
    /// poisons it and may have left the pool mid-update, so a poisoned
    /// pool is recovered by dropping every pooled buffer and clearing the
    /// poison: the next checkouts allocate afresh, and no stale buffer or
    /// half-made pool entry is ever handed out.
    fn pool(&self) -> MutexGuard<'_, Vec<Vec<f32>>> {
        self.outputs.lock().unwrap_or_else(|poisoned| {
            let mut pool = poisoned.into_inner();
            pool.clear();
            self.outputs.clear_poison();
            pool
        })
    }

    /// Checks out a zeroed `Vec<f32>` of exactly `len` elements, reusing
    /// a pooled buffer when one is large enough.
    pub(crate) fn take_zeroed(&self, len: usize) -> Vec<f32> {
        self.checkout(len, true)
    }

    /// Checks out a `Vec<f32>` of exactly `len` elements whose values are
    /// unspecified: a recycled buffer keeps its stale values, and only
    /// elements past its old length are zeroed. For callers that store
    /// every element before they read it.
    pub(crate) fn take(&self, len: usize) -> Vec<f32> {
        self.checkout(len, false)
    }

    fn checkout(&self, len: usize, zeroed: bool) -> Vec<f32> {
        let popped = pop_fit(&mut self.pool(), len);
        match popped {
            Some((mut buf, true)) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                if zeroed {
                    buf.clear();
                }
                buf.resize(len, 0.0);
                buf
            }
            // `popped` may hold an evicted too-small buffer; drop it.
            _ => self.fresh(len),
        }
    }

    /// Allocates a zeroed `Vec<f32>` of exactly `len` elements without
    /// looking at the pool, counted as a miss: for the many small outputs
    /// of one run (a packed window's per-graph replies), which the
    /// best-fit pool would otherwise serve from a whole window's buffer.
    pub(crate) fn fresh(&self, len: usize) -> Vec<f32> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut buf = Vec::with_capacity(len.next_multiple_of(LINE_F32));
        buf.resize(len, 0.0);
        buf
    }

    /// Returns an output buffer to the pool (dropped if the pool is full
    /// and every pooled buffer is at least as large).
    pub(crate) fn put(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut pool = self.pool();
        if pool.len() >= MAX_POOLED {
            // Keep the MAX_POOLED largest buffers.
            if let Some((i, _)) = pool
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.capacity()))
                .min_by_key(|&(_, c)| c)
            {
                if pool[i].capacity() < buf.capacity() {
                    pool[i] = buf;
                }
                return;
            }
        }
        pool.push(buf);
    }

    /// Executions served from the pool without allocating.
    pub(crate) fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Executions that had to allocate a fresh buffer.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops all pooled buffers and zeroes the counters.
    pub(crate) fn clear(&self) {
        self.pool().clear();
        self.reuses.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_roundtrip_reuses_capacity() {
        let arena = BufferArena::default();
        let a = arena.take_zeroed(100);
        assert_eq!(arena.misses(), 1);
        arena.put(a);
        let b = arena.take_zeroed(80);
        assert_eq!(arena.reuses(), 1, "smaller request reuses the buffer");
        assert_eq!(b.len(), 80);
        assert!(b.iter().all(|&v| v == 0.0));
        arena.put(b);
        let c = arena.take_zeroed(200);
        assert_eq!(arena.misses(), 2, "larger request allocates fresh");
        assert_eq!(c.len(), 200);
    }

    #[test]
    fn take_zeroed_clears_dirty_recycled_buffers() {
        let arena = BufferArena::default();
        let mut a = arena.take_zeroed(16);
        a.iter_mut().for_each(|v| *v = 7.0);
        arena.put(a);
        let b = arena.take_zeroed(16);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_reuses_without_zeroing() {
        let arena = BufferArena::default();
        arena.put(vec![7.0; 16]);
        let shorter = arena.take(8);
        assert_eq!(arena.reuses(), 1);
        assert_eq!(shorter, [7.0; 8], "stale values are kept");
        arena.put(shorter);
        let longer = arena.take(16);
        assert_eq!(longer[..8], [7.0; 8]);
        assert_eq!(longer[8..], [0.0; 8], "growth is zero-filled");
    }

    #[test]
    fn pool_is_bounded_and_prefers_large_buffers() {
        let arena = BufferArena::default();
        for len in 1..=(2 * MAX_POOLED) {
            arena.put(vec![0.0; len * 16]);
        }
        let pooled = arena.outputs.lock().unwrap().len();
        assert_eq!(pooled, MAX_POOLED);
        // The survivors are the largest ones: a request for the largest
        // size must hit.
        let _ = arena.take_zeroed(2 * MAX_POOLED * 16);
        assert_eq!(arena.reuses(), 1);
    }

    /// Poisons `arena`'s pool lock from a thread that panics while
    /// holding it.
    fn poison(arena: &BufferArena) {
        std::thread::scope(|s| {
            let held = s.spawn(|| {
                let _guard = arena.pool();
                panic!("panics while holding the pool lock");
            });
            assert!(held.join().is_err());
        });
        assert!(arena.outputs.is_poisoned());
    }

    #[test]
    fn poisoned_pool_recovers_by_dropping_its_buffers() {
        let arena = BufferArena::default();
        arena.put(vec![7.0; 16]);
        poison(&arena);
        let fresh = arena.take_zeroed(16);
        assert!(!arena.outputs.is_poisoned(), "recovery clears the poison");
        assert_eq!(
            (arena.reuses(), arena.misses()),
            (0, 1),
            "pooled buffer dropped"
        );
        assert_eq!(fresh, [0.0; 16]);

        arena.put(vec![7.0; 16]);
        poison(&arena);
        assert_eq!(arena.take(8), [0.0; 8], "no stale buffer survives");
        assert_eq!(arena.misses(), 2);

        poison(&arena);
        arena.put(vec![7.0; 16]);
        assert_eq!(arena.take(16), [7.0; 16], "put after recovery pools");
        arena.put(vec![7.0; 16]);
        assert_eq!(arena.take_zeroed(16), [0.0; 16], "reuse is still zeroed");
        assert_eq!(arena.reuses(), 2);

        poison(&arena);
        arena.clear();
        assert!(!arena.outputs.is_poisoned());
        assert_eq!((arena.reuses(), arena.misses()), (0, 0));
    }

    #[test]
    fn clear_resets_pools_and_counters() {
        let arena = BufferArena::default();
        arena.put(vec![0.0; 64]);
        let _ = arena.take_zeroed(8);
        arena.clear();
        assert_eq!(arena.reuses(), 0);
        assert_eq!(arena.misses(), 0);
        let _ = arena.take_zeroed(8);
        assert_eq!(arena.misses(), 1);
    }
}
