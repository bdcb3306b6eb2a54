//! Persistent worker pool for the execution engine.
//!
//! The seed executor spawned (scoped) OS threads on every `spmm` call;
//! for GNN inference — thousands of small SpMM calls — the spawn/join
//! cost is pure overhead the paper's GPU kernels never pay. This module
//! keeps a process-wide set of long-lived workers and hands them batches
//! of borrowed closures per call.
//!
//! # Safety argument (the one `unsafe` block)
//!
//! [`WorkerPool::scope_run`] accepts closures borrowing the caller's
//! stack (`'scope`) and erases that lifetime to `'static` so they can sit
//! in the shared job queue. Soundness rests on a completion barrier, the
//! same argument `std::thread::scope` / crossbeam's scope make:
//!
//! 1. every submitted job decrements the shared [`Completion`] counter
//!    exactly once — even when the closure panics, because the decrement
//!    happens after `catch_unwind`;
//! 2. `scope_run` does not return (not even by panicking) before the
//!    counter reaches zero — the only panic it raises is *after* the
//!    wait, to propagate worker panics;
//! 3. therefore no erased closure (or anything it borrows) is ever used
//!    after `scope_run` returns, so the `'scope` borrows never dangle.
//!
//! Jobs must not block on other jobs of the same pool (they don't: the
//! engine's workers only touch disjoint output slices and atomics, and
//! self-scheduled workers only contend on short mutex-guarded slot
//! claims — a claim takes work, it never waits for another job to
//! finish), and [`WorkerPool::scope_run`] must not be
//! called from inside a pool worker: the nested call would wait on jobs
//! queued behind the very worker that is waiting, which deadlocks a
//! one-thread pool (the default on a 2-vCPU host). The engine only
//! enters it from caller threads, and debug builds assert this with a
//! thread-local flag that [`worker_loop`] sets.
//!
//! Every lock here guards one queue push or pop, or one counter
//! decrement, none of which can stop halfway. A lock poisoned by a panic
//! elsewhere therefore still guards whole state, and every site takes it
//! as it is (`PoisonError::into_inner`): one poisoning must not kill each
//! worker at its next job and leave the next batch waiting forever on
//! its completion counter.
//!
#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// A job after lifetime erasure, parked in the shared queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set on pool worker threads, so debug builds can reject a nested
    /// [`WorkerPool::scope_run`].
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// [`WorkerPool::scope_run`] calls made from this thread, so a unit
    /// test can count the dispatches one engine call makes.
    pub(crate) static SCOPE_RUNS: Cell<usize> = const { Cell::new(0) };
}

/// A borrowed job as submitted by the engine.
pub(crate) type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
}

struct Completion {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// A fixed set of long-lived worker threads consuming a shared job queue.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` detached workers (min 1).
    fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
        });
        for i in 0..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mpspmm-pool-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        Self { shared }
    }

    /// The process-wide pool, sized to the default worker count minus the
    /// caller thread (which executes one job of every batch itself).
    pub(crate) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::new(crate::spmm::default_workers().saturating_sub(1)))
    }

    /// Runs every job to completion before returning; the last job runs on
    /// the calling thread (so a batch of `n` jobs occupies `n - 1` pool
    /// workers plus the caller).
    ///
    /// Must not be called from a pool worker (see the module-level
    /// safety argument); debug builds assert this.
    ///
    /// # Panics
    ///
    /// Panics (after all jobs finished) if any job panicked.
    pub(crate) fn scope_run(&self, mut jobs: Vec<ScopedJob<'_>>) {
        debug_assert!(
            !IN_POOL_WORKER.with(Cell::get),
            "WorkerPool::scope_run entered from a pool worker"
        );
        #[cfg(test)]
        SCOPE_RUNS.with(|n| n.set(n.get() + 1));
        let Some(local) = jobs.pop() else { return };
        let completion = Arc::new(Completion {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        {
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for job in jobs {
                // SAFETY: see the module-level safety argument — the
                // completion barrier below keeps this function from
                // returning until the erased closure has run, so its
                // borrows outlive every use. The barrier completes only
                // if this call is not made from a pool worker, which
                // the assertion at the top checks in debug builds.
                let job: Job = unsafe { std::mem::transmute::<ScopedJob<'_>, Job>(job) };
                let completion = Arc::clone(&completion);
                queue.push_back(Box::new(move || {
                    if catch_unwind(AssertUnwindSafe(job)).is_err() {
                        completion.panicked.store(true, Ordering::SeqCst);
                    }
                    let mut remaining = completion
                        .remaining
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    *remaining -= 1;
                    if *remaining == 0 {
                        completion.done.notify_all();
                    }
                }));
            }
            self.shared.job_ready.notify_all();
        }

        let local_result = catch_unwind(AssertUnwindSafe(local));

        let mut remaining = completion
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 {
            remaining = completion
                .done
                .wait(remaining)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(remaining);

        if local_result.is_err() || completion.panicked.load(Ordering::SeqCst) {
            panic!("engine worker job panicked");
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL_WORKER.with(|w| w.set(true));
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .job_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Jobs contain their own catch_unwind; a stray panic here would
        // only kill this worker, so keep the loop tight and let the
        // wrapper absorb unwinds.
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_jobs_and_observes_borrowed_state() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..16)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as ScopedJob<'_>
            })
            .collect();
        pool.scope_run(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn disjoint_mutable_borrows_work() {
        let pool = WorkerPool::new(2);
        let mut data = vec![0usize; 4];
        let jobs: Vec<ScopedJob<'_>> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = i + 1;
                }) as ScopedJob<'_>
            })
            .collect();
        pool.scope_run(jobs);
        assert_eq!(data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn reuse_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..32 {
            let sum = AtomicUsize::new(0);
            let jobs: Vec<ScopedJob<'_>> = (0..5)
                .map(|i| {
                    let sum = &sum;
                    Box::new(move || {
                        sum.fetch_add(i, Ordering::SeqCst);
                    }) as ScopedJob<'_>
                })
                .collect();
            pool.scope_run(jobs);
            assert_eq!(sum.load(Ordering::SeqCst), 10, "round {round}");
        }
    }

    #[test]
    fn panicking_job_propagates_after_completion() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<ScopedJob<'_>> = vec![
                Box::new(|| panic!("boom")),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }),
            ];
            pool.scope_run(jobs);
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::SeqCst), 1, "other jobs still complete");
    }

    /// A job that re-enters `scope_run` on its pool worker trips the
    /// debug assertion. The job captures the assertion's message and the
    /// test thread re-raises it, so the expected text proves which panic
    /// fired. The nested batch is one job, which runs inline, so a
    /// missing assertion fails the test instead of hanging it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scope_run entered from a pool worker")]
    fn nested_scope_run_from_a_worker_panics_in_debug() {
        let pool = WorkerPool::new(1);
        let message = Mutex::new(String::new());
        let jobs: Vec<ScopedJob<'_>> = vec![
            Box::new(|| {
                let nested = catch_unwind(AssertUnwindSafe(|| {
                    pool.scope_run(vec![Box::new(|| {})]);
                }));
                if let Err(payload) = nested {
                    let text = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    *message.lock().unwrap() = text;
                }
            }),
            // Runs on the caller thread, which is not a pool worker.
            Box::new(|| {}),
        ];
        pool.scope_run(jobs);
        panic!("{}", message.into_inner().unwrap());
    }

    /// A thread that panics while it holds the queue lock poisons it.
    /// The next batch must still run on every worker and return; it runs
    /// on its own thread, so a hang fails the test at the timeout
    /// instead of stalling the suite.
    #[test]
    fn poisoned_queue_lock_still_runs_the_next_batch() {
        let pool = Arc::new(WorkerPool::new(2));
        let poisoner = Arc::clone(&pool);
        let poisoned = std::thread::spawn(move || {
            let _queue = poisoner.shared.queue.lock().unwrap();
            panic!("poison the pool's queue lock");
        })
        .join();
        assert!(poisoned.is_err());
        assert!(pool.shared.queue.is_poisoned());

        let (tx, rx) = std::sync::mpsc::channel();
        let batches = std::thread::spawn(move || {
            for _ in 0..4 {
                let counter = AtomicUsize::new(0);
                let jobs: Vec<ScopedJob<'_>> = (0..6)
                    .map(|_| {
                        Box::new(|| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        }) as ScopedJob<'_>
                    })
                    .collect();
                pool.scope_run(jobs);
                tx.send(counter.into_inner()).unwrap();
            }
        });
        for round in 0..4 {
            let ran = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("batch {round} did not finish: {e}"));
            assert_eq!(ran, 6, "batch {round}");
        }
        batches.join().expect("batch thread returns");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.scope_run(Vec::new());
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
    }
}
