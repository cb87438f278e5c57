//! Thread-pool fan-out for independent jobs.
//!
//! This lives in `ecolife-sim` (the lowest crate that fans work out) so
//! the sharded replay engine and the experiment and planner layers above
//! share one implementation; callers use `ecolife_sim::parallel_map`
//! directly.
//!
//! Two layers:
//!
//! * [`WorkerPool`] — a persistent set of worker threads executing
//!   *batches* of indexed jobs with a barrier between batches. The
//!   sharded replay engine keeps one pool alive across its per-period
//!   fan-outs (an hours-long trace has hundreds of reconciliation
//!   periods; spawning a fresh scoped-thread set per period was pure
//!   overhead).
//! * [`parallel_map`] / [`parallel_map_threads`] — the one-shot
//!   fan-out-and-collect API, now a thin wrapper that builds a transient
//!   pool for the single batch.
//!
//! Work distribution never affects results: workers claim job *indices*
//! from a shared atomic counter, and each job reads/writes only its own
//! slot — which worker runs which job is scheduling, not semantics.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Fan independent jobs out over worker threads and collect results in
/// input order, using [`std::thread::available_parallelism`] workers. See
/// [`parallel_map_threads`] for the explicit-thread-count variant
/// (determinism tests force `threads ∈ {1, 2, 4, …}` through it).
///
/// At most `available_parallelism` workers are spawned — a sweep of
/// hundreds of configurations never spawns one OS thread per job — and
/// they pull from a shared index counter, so a few expensive
/// configurations cannot serialize behind each other while the other
/// workers idle. The per-job synchronization cost is irrelevant next to a
/// simulation run.
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
/// Results are identical at any `threads` value (workers only decide
/// *where* a job runs, never *what* it computes), which is exactly what
/// the determinism suite asserts by forcing 1, 2, and 4 workers over the
/// same inputs instead of inheriting the machine's parallelism.
pub fn parallel_map_threads<T, R, F>(threads: usize, inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let mut pool = WorkerPool::new(threads.min(n));
    pool.run_map(inputs, f)
}

/// Lifetime-erased pointer to a batch's job closure. Soundness rests on
/// the [`WorkerPool::run`] barrier: the pointer is installed when a batch
/// starts and every worker has finished using it before `run` returns,
/// so the borrow it was erased from is alive for every dereference.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls from many threads are the
// point) and the barrier protocol above bounds its lifetime.
unsafe impl Send for JobPtr {}

/// State shared between the pool's owner and its workers.
struct PoolShared {
    state: Mutex<BatchState>,
    /// Owner → workers: a new batch was posted (or shutdown).
    work_ready: Condvar,
    /// Workers → owner: the last worker finished the batch.
    work_done: Condvar,
    /// Next unclaimed job index of the current batch.
    next: AtomicUsize,
    /// The first panic payload of the current batch, re-raised by the
    /// owner so the original assertion message/location survives (the
    /// scoped-thread implementation this pool replaced propagated it
    /// intact too).
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct BatchState {
    /// Bumped per batch; workers wait for it to move.
    epoch: u64,
    n_jobs: usize,
    job: Option<JobPtr>,
    /// Workers still working on (or not yet done observing) the current
    /// batch; the owner waits for 0.
    active_workers: usize,
    shutdown: bool,
}

/// A persistent pool of worker threads executing batches of indexed jobs.
///
/// ```
/// # use ecolife_sim::parallel::WorkerPool;
/// let mut pool = WorkerPool::new(4);
/// let mut out = vec![0u64; 16];
/// for round in 0..3u64 {
///     // Reuses the same OS threads every round; `run_map` blocks until
///     // the whole batch completed (the per-period barrier).
///     out = pool.run_map(out, |v| v + round);
/// }
/// assert!(out.iter().all(|&v| v == 3));
/// ```
///
/// Threads are spawned once in [`WorkerPool::new`], parked on a condvar
/// between batches, and joined on drop. Batches run through
/// [`WorkerPool::run`] (indexed jobs) or [`WorkerPool::run_map`]
/// (move-in/move-out values); both block until every job completed, so
/// job closures may freely borrow the caller's stack.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `threads` persistent workers (≥ 1).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(BatchState {
                epoch: 0,
                n_jobs: 0,
                job: None,
                active_workers: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            next: AtomicUsize::new(0),
            panic_payload: Mutex::new(None),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Execute one batch: `job(i)` for every `i in 0..n_jobs`, distributed
    /// over the workers, returning when all completed. If a job panicked,
    /// the first payload is re-raised here (after the batch drains), so
    /// the original assertion message and location survive.
    pub fn run(&mut self, n_jobs: usize, job: &(dyn Fn(usize) + Sync)) {
        // SAFETY: `run` blocks until every worker reported done for this
        // batch and clears the pointer before returning, so the erased
        // borrow outlives every use (same layout: both are fat pointers
        // to the same trait object, only the lifetime is erased).
        let ptr = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), JobPtr>(job) };
        let mut st = self.shared.state.lock().expect("pool state");
        debug_assert_eq!(st.active_workers, 0, "batches never overlap");
        self.shared.next.store(0, Ordering::Relaxed);
        *self.shared.panic_payload.lock().expect("panic slot") = None;
        st.job = Some(ptr);
        st.n_jobs = n_jobs;
        st.active_workers = self.workers.len();
        st.epoch += 1;
        self.shared.work_ready.notify_all();
        while st.active_workers > 0 {
            st = self.shared.work_done.wait(st).expect("pool state");
        }
        st.job = None;
        drop(st);
        // Take the payload in its own statement: an `if let` scrutinee
        // would keep the guard alive across `resume_unwind`, poisoning
        // the mutex for the pool's next batch.
        let payload = self.shared.panic_payload.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Run `f` over every input (workers claim inputs from a shared
    /// counter) and collect the results in input order.
    pub fn run_map<T, R, F>(&mut self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = inputs.len();
        let slots: Vec<Mutex<Option<T>>> =
            inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(n, &|i: usize| {
            let input = slots[i]
                .lock()
                .expect("input slot")
                .take()
                .expect("each index claimed once");
            let result = f(input);
            *out[i].lock().expect("output slot") = Some(result);
        });
        out.into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("workers joined")
                    .expect("batch completed every job")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        // Park until a new batch (or shutdown).
        let (job, n_jobs) = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    break;
                }
                st = shared.work_ready.wait(st).expect("pool state");
            }
            seen_epoch = st.epoch;
            (st.job.expect("posted batch carries a job"), st.n_jobs)
        };
        // Claim-and-run until the batch is exhausted.
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            // SAFETY: see `JobPtr` — the owner blocks in `run` until this
            // batch completes, keeping the erased borrow alive.
            let f = unsafe { &*job.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                // Keep the first payload for the owner to re-raise.
                let mut slot = shared.panic_payload.lock().expect("panic slot");
                slot.get_or_insert(payload);
                // Abandon the rest of the batch: later claims see an
                // exhausted counter. (`store(n_jobs)`, not `usize::MAX`,
                // so concurrent `fetch_add`s cannot wrap.)
                shared.next.store(n_jobs, Ordering::Relaxed);
            }
        }
        let mut st = shared.state.lock().expect("pool state");
        st.active_workers -= 1;
        if st.active_workers == 0 {
            shared.work_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..32).collect(), |i: i32| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_oversized_batches() {
        assert_eq!(parallel_map(Vec::<u32>::new(), |i| i), Vec::<u32>::new());
        // Far more jobs than cores: with one-thread-per-job this would
        // spawn 2048 OS threads; the pool bounds it at the worker count.
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
        WorkerPool::new(0);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The run_sharded shape: one pool, hundreds of barrier-separated
        // batches, state threaded through run_map.
        let mut pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let mut values: Vec<u64> = (0..17).collect();
        for round in 0..200u64 {
            values = pool.run_map(values, |v| v + round);
        }
        let offset: u64 = (0..200).sum();
        assert_eq!(
            values,
            (0..17).map(|i| i + offset).collect::<Vec<_>>(),
            "every batch must complete before the next starts"
        );
    }

    #[test]
    fn pool_batches_may_borrow_the_stack() {
        let mut pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..64).collect();
        let sum = std::sync::atomic::AtomicU64::new(0);
        pool.run(data.len(), &|i| {
            sum.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), (0..64).sum::<u64>());
    }

    #[test]
    fn pool_runs_empty_batches() {
        let mut pool = WorkerPool::new(2);
        pool.run(0, &|_| unreachable!("no jobs to claim"));
        let out: Vec<u32> = pool.run_map(Vec::<u32>::new(), |v| v);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_propagates_job_panics() {
        let mut pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        // The *original* payload reaches the caller — a shard assertion
        // failure must surface its message, not a generic wrapper.
        let payload = caught.expect_err("job panic must propagate to the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // The pool remains usable for the next batch.
        let out = pool.run_map(vec![1u32, 2, 3], |v| v * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
