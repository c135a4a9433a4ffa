//! A minimal scoped worker pool for fork/join parallelism.
//!
//! crates.io is unreachable from this environment, so instead of `rayon`
//! this crate carries its own tiny fork/join primitive (the `shims` crates
//! are the precedent for vendoring what the toolchain lacks). The pool is
//! intentionally small: a list of independent jobs is executed by a fixed
//! number of scoped threads pulling indices off a shared atomic counter,
//! and the results come back **in job order** — so callers that concatenate
//! per-job outputs get exactly the order a serial loop would have produced,
//! which is what lets the parallel fold of the PPO checker promise
//! violation lists identical to the serial one.
//!
//! The crate forbids `unsafe`, so jobs are parked in `Mutex<Option<_>>`
//! slots (taken exactly once each) rather than handed out through raw
//! pointers. The per-job locking cost is irrelevant at the granularity this
//! pool is used for (one contiguous chunk of a batch's pair sweep per
//! worker, thousands to millions of events each).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width fork/join worker pool. `WorkerPool::new(1)` (or a
/// single-job input) degrades to a plain serial loop on the calling thread,
/// so the fold runs the same code at every worker count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// Creates a pool that runs jobs on up to `workers` scoped threads
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads this pool uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns their outputs **in job order**.
    ///
    /// Jobs must be independent; they are claimed by index from a shared
    /// counter, so the assignment of jobs to threads is nondeterministic but
    /// the returned `Vec` is not. With one worker (or fewer than two jobs)
    /// everything runs on the calling thread.
    pub fn scoped_map<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = jobs.len();
        if self.workers == 1 || n <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i].lock().expect("pool slot poisoned").take();
                    if let Some(f) = job {
                        let out = f();
                        *results[i].lock().expect("pool result poisoned") = Some(out);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("pool result poisoned")
                    .expect("every job slot is claimed exactly once")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
            let got = pool.scoped_map(jobs);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_job_inputs() {
        let pool = WorkerPool::new(4);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(pool.scoped_map(empty).is_empty());
        assert_eq!(pool.scoped_map(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.scoped_map(vec![|| 1u8, || 2u8]), vec![1, 2]);
    }
}
