//! A hand-rolled work-stealing thread pool for simulation sweeps: bench
//! driver cells, fleet chunks, and serve `sweep` cells.
//!
//! The environment has no `rayon`, so sharding cells across cores is
//! done here with `std` only. The design is the classic one: every
//! worker owns a deque seeded round-robin with job indices; a worker
//! pops from the *front* of its own deque and, when empty, steals the
//! *back half* of the fullest victim's deque. Jobs never spawn jobs, so
//! termination is simply "all deques empty".
//!
//! Two properties every caller depends on:
//!
//! * **Deterministic results.** Each job writes its result into its own
//!   index slot, so the output order equals the input order no matter
//!   which worker ran what when — `--jobs 1` and `--jobs 8` produce
//!   byte-identical artifacts (a regression test holds this).
//! * **Borrow-friendly jobs.** Workers are scoped threads, so jobs may
//!   borrow from the caller's stack (prebuilt programs, shared specs)
//!   without `Arc`.
//!
//! A panicking job poisons its worker; the scope re-raises the panic on
//! join, so a failing assertion inside one cell still fails the whole
//! sweep loudly instead of vanishing on a detached thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A boxed job yielding a `T`, runnable on any worker.
pub type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One worker's deque of (input index, job) pairs.
type JobDeque<'a, T> = Mutex<VecDeque<(usize, Job<'a, T>)>>;

/// Counters describing one [`run_jobs_counting`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PoolStats {
    /// Worker threads actually spawned (0 for the inline fast path).
    pub(crate) workers: usize,
    /// Jobs that ran on a worker other than the one seeded with them.
    pub(crate) steals: u64,
}

/// Number of workers to use when `--jobs` is not given: the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every job and returns the results in input order. `workers <= 1`
/// runs inline on the calling thread (no spawns, same results).
pub fn run_jobs<'a, T: Send>(jobs: Vec<Job<'a, T>>, workers: usize) -> Vec<T> {
    run_jobs_counting(jobs, workers).0
}

/// [`run_jobs`] that also reports scheduling counters, for tests that
/// assert stealing actually happens.
pub(crate) fn run_jobs_counting<'a, T: Send>(
    jobs: Vec<Job<'a, T>>,
    workers: usize,
) -> (Vec<T>, PoolStats) {
    let n_jobs = jobs.len();
    let workers = workers.min(n_jobs);
    if workers <= 1 {
        let results = jobs
            .into_iter()
            .map(|j| {
                let _span = ocelot_telemetry::span!("pool.task", "pool");
                j()
            })
            .collect();
        return (results, PoolStats::default());
    }

    // Deques of (index, job), seeded round-robin so every worker starts
    // with an even share regardless of job order.
    let mut queues: Vec<JobDeque<'a, T>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        queues.push(Mutex::new(VecDeque::new()));
    }
    for (i, job) in jobs.into_iter().enumerate() {
        queues[i % workers].lock().unwrap().push_back((i, job));
    }
    for q in &queues {
        ocelot_telemetry::metrics::POOL_QUEUE_DEPTH.observe(q.lock().unwrap().len() as u64);
    }
    let queues = &queues;
    let steals = AtomicU64::new(0);
    let steals_ref = &steals;

    let mut collected: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own work first, front to back.
                        let next = queues[me].lock().unwrap().pop_front();
                        if let Some((idx, job)) = next {
                            let _span = ocelot_telemetry::span!("pool.task", "pool");
                            out.push((idx, job()));
                            continue;
                        }
                        // Steal the back half of the fullest victim.
                        match steal_half(queues, me) {
                            Some(batch) => {
                                steals_ref.fetch_add(batch.len() as u64, Ordering::Relaxed);
                                ocelot_telemetry::metrics::POOL_STEALS.add(batch.len() as u64);
                                let mut q = queues[me].lock().unwrap();
                                let depth = q.len() + batch.len();
                                ocelot_telemetry::metrics::POOL_QUEUE_DEPTH.observe(depth as u64);
                                q.extend(batch);
                            }
                            // Nothing anywhere; jobs never spawn jobs,
                            // so this worker is done.
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Re-raise a job panic with its original payload so the
                // failing cell's message reaches the caller's test.
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
            })
            .collect()
    });

    // Reassemble in input order: each index appears exactly once.
    let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
    for (idx, value) in collected.drain(..).flatten() {
        debug_assert!(slots[idx].is_none(), "job {idx} ran twice");
        slots[idx] = Some(value);
    }
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(i, v)| v.unwrap_or_else(|| panic!("job {i} never ran")))
        .collect();
    let stats = PoolStats {
        workers,
        steals: steals.load(Ordering::Relaxed),
    };
    (results, stats)
}

/// Takes the back half (at least one) of the fullest non-empty deque
/// other than `me`, or `None` when every other deque is empty.
fn steal_half<'a, T>(
    queues: &[JobDeque<'a, T>],
    me: usize,
) -> Option<VecDeque<(usize, Job<'a, T>)>> {
    // Snapshot each length once and pick the fullest (lowest index on
    // ties). Other workers pop concurrently, so a snapshot may be stale;
    // re-check under the victim's lock and rescan if it drained. Jobs
    // never spawn jobs, so an all-empty snapshot means nothing is left.
    loop {
        let mut best: Option<(usize, usize)> = None;
        for i in (0..queues.len()).filter(|&i| i != me) {
            let len = queues[i].lock().unwrap().len();
            if len > 0 && best.map_or(true, |(l, _)| len > l) {
                best = Some((len, i));
            }
        }
        let (_, victim) = best?;
        let mut q = queues[victim].lock().unwrap();
        let len = q.len();
        if len > 0 {
            return Some(q.split_off(len - len.div_ceil(2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_input_order_at_any_width() {
        let jobs = |n: usize| -> Vec<Job<'static, usize>> {
            (0..n)
                .map(|i| Box::new(move || i * i) as Job<'static, usize>)
                .collect()
        };
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for w in [1, 2, 3, 8, 64] {
            assert_eq!(run_jobs(jobs(37), w), expect, "workers={w}");
        }
        assert_eq!(run_jobs(jobs(0), 4), Vec::<usize>::new());
    }

    #[test]
    fn empty_jobs_under_heavy_stealing_never_panic() {
        // Thousands of no-op jobs keep every worker stealing while the
        // victims' deques shrink underneath the victim scan: the
        // contention that once broke a sort-based scan's total order and
        // panicked. The 40-worker case gives the scan more than 20
        // victims, past the length where std's sort checks the order.
        for round in 0..40 {
            for w in [8, 16, 40] {
                let jobs: Vec<Job<'static, usize>> = (0..4_000usize)
                    .map(|i| Box::new(move || i) as Job<'static, usize>)
                    .collect();
                let out = run_jobs(jobs, w);
                assert!(
                    out.iter().copied().eq(0..4_000),
                    "round {round}, workers={w}"
                );
            }
        }
    }

    #[test]
    fn jobs_can_borrow_from_the_caller() {
        let data: Vec<u64> = (0..100).collect();
        let jobs: Vec<Job<'_, u64>> = data
            .chunks(10)
            .map(|c| Box::new(move || c.iter().sum::<u64>()) as Job<'_, u64>)
            .collect();
        let sums = run_jobs(jobs, 4);
        assert_eq!(sums.iter().sum::<u64>(), 4950);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<Job<'_, ()>> = (0..200)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Job<'_, ()>
            })
            .collect();
        run_jobs(jobs, 8);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn idle_workers_steal_from_busy_ones() {
        // Worker 1's seed jobs (odd indices) sleep; worker 0 finishes
        // its own share quickly and must steal the sleepers' backlog.
        let jobs: Vec<Job<'static, usize>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i % 2 == 1 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                }) as Job<'static, usize>
            })
            .collect();
        let (results, stats) = run_jobs_counting(jobs, 2);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        assert_eq!(stats.workers, 2);
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
    }

    #[test]
    #[should_panic(expected = "cell 3 exploded")]
    fn a_panicking_job_fails_the_whole_sweep() {
        let jobs: Vec<Job<'static, usize>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    assert!(i != 3, "cell {i} exploded");
                    i
                }) as Job<'static, usize>
            })
            .collect();
        run_jobs(jobs, 4);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
