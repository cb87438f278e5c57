//! Scoped-thread fan-out for independent jobs.
//!
//! This lives in `ecolife-sim` (the lowest crate that fans work out) so
//! the sharded replay engine and the experiment and planner layers above
//! share one implementation; callers use `ecolife_sim::parallel_map`
//! directly.
//!
//! One call is one [`std::thread::scope`]: the caller's thread and up to
//! `threads − 1` helpers claim inputs from one shared iterator, and every
//! helper is joined before the call returns, so jobs may borrow the
//! caller's stack. The sharded replay engine calls it once per
//! reconciliation period, and the period boundary is the scope's join.
//!
//! Work distribution never affects results: each input is claimed once,
//! carries its index, and its result lands in that index's position —
//! which thread runs which job is scheduling, not semantics.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Fan independent jobs out over worker threads and collect results in
/// input order, using [`std::thread::available_parallelism`] workers. See
/// [`parallel_map_threads`] for the explicit-thread-count variant
/// (determinism tests force `threads ∈ {1, 2, 4, …}` through it).
///
/// At most `available_parallelism` workers run — a sweep of hundreds of
/// configurations never spawns one OS thread per job — and they pull
/// from a shared queue, so a few expensive configurations cannot
/// serialize behind each other while the other workers idle. The
/// per-job synchronization cost is irrelevant next to a simulation run.
pub fn parallel_map<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_threads(default_threads(), inputs, f)
}

/// The thread count [`parallel_map`] inherits when none is forced.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

/// [`parallel_map`] with an explicit worker-thread override.
///
/// The caller's thread works too, so `threads = 1` spawns nothing and
/// runs every job in input order on the calling thread. Results are
/// identical at any `threads` value (workers only decide *where* a job
/// runs, never *what* it computes), which is exactly what the
/// determinism suite asserts by forcing 1, 2, and 4 workers over the
/// same inputs instead of inheriting the machine's parallelism.
///
/// A panicking job's original payload reaches the caller, so an
/// assertion inside a job surfaces with its own message.
pub fn parallel_map_threads<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let helpers = threads.min(inputs.len()).saturating_sub(1);
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            // Claim in its own statement: the guard drops before `f`
            // runs, so a panicking job never poisons the queue.
            let claimed = queue.lock().expect("input queue").next();
            let Some((index, input)) = claimed else {
                return done;
            };
            done.push((index, f(input)));
        }
    };
    let mut out = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..helpers).map(|_| scope.spawn(work)).collect();
        // A panic here unwinds through the scope, which joins the
        // helpers and then re-raises this payload.
        let mut out = work();
        for helper in spawned {
            match helper.join() {
                Ok(done) => out.extend(done),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    });
    out.sort_unstable_by_key(|&(index, _)| index);
    out.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..32).collect(), |i: i32| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_oversized_batches() {
        assert_eq!(parallel_map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        // Far more jobs than cores: with one-thread-per-job this would
        // spawn 2048 OS threads; the fan-out spawns at most
        // `threads - 1` helpers, whatever the job count.
        let n = 2048u64;
        let out = parallel_map((0..n).collect(), |i: u64| i + 1);
        assert_eq!(out.len(), n as usize);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn forced_thread_counts_agree() {
        let inputs: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = inputs.iter().map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 4, 16] {
            let out = parallel_map_threads(threads, inputs.clone(), |i| i * 7 + 1);
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        parallel_map_threads(0, vec![1], |i: i32| i);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_thread_pool_rejected() {
        // The thread count is checked before the batch is looked at: an
        // empty batch would otherwise run (and spawn nothing) at 0.
        parallel_map_threads(0, Vec::<i32>::new(), |i| i);
    }

    #[test]
    fn pool_runs_empty_batches() {
        // An empty batch claims no job and spawns no helper, whatever
        // the thread count; the scope still returns an empty result.
        for threads in [1, 2, 4] {
            let out: Vec<u32> =
                parallel_map_threads(threads, Vec::<u32>::new(), |_| unreachable!("no jobs"));
            assert!(out.is_empty(), "threads = {threads}");
        }
    }

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_own_payload() {
        // Either way the caller sees the panicking job's own message, not
        // a generic "a scoped thread panicked". With helpers, the caller's
        // thread waits inside its job until the bad job has started, so
        // it cannot claim the bad job itself unless that was its first
        // claim (job 0, as a rule): a panic at 3 or 7 is a helper's.
        let caller = std::thread::current().id();
        for threads in [1, 2, 4] {
            for bad in [0u32, 3, 7] {
                let started = (Mutex::new(false), std::sync::Condvar::new());
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    parallel_map_threads(threads, (0..8u32).collect(), |i| {
                        if i == bad {
                            *started.0.lock().expect("flag") = true;
                            started.1.notify_all();
                            panic!("job {i} failed");
                        }
                        if threads > 1 && std::thread::current().id() == caller {
                            let mut flag = started.0.lock().expect("flag");
                            while !*flag {
                                flag = started.1.wait(flag).expect("flag");
                            }
                        }
                        i
                    })
                }));
                let payload = caught.expect_err("a job panic must reach the caller");
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("job {bad} failed")),
                    "threads = {threads}, bad = {bad}"
                );
            }
        }
    }
}
