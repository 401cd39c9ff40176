//! Thread-parallel execution substrate: the workspace's only home for
//! thread creation on kernel paths.
//!
//! Three facilities, one per kind of parallelism the repo needs:
//!
//! 1. [`ThreadPool`] — persistent workers spawned once and parked on a
//!    condvar, running `'static` jobs. Batches are tracked by per-batch
//!    completion latches ([`BatchHandle`]): concurrent callers sharing one
//!    pool wait only for *their own* jobs, and a panicking job is re-thrown
//!    to the waiter at the batch barrier (matching `std::thread::scope`
//!    semantics). The sweep runner and `blob-serve` use it to parallelise
//!    across problem sizes.
//! 2. [`run_scoped`] — scoped dispatch for *borrowing* (non-`'static`)
//!    closures, used by the parallel GEMM and GEMV kernels.
//!    This is the workspace's **only** `std::thread::scope` call site
//!    (enforced by the `no-adhoc-scope` blob-check rule): one job runs
//!    inline with zero dispatch, and `k` jobs cost `k − 1` spawns because
//!    the caller executes the first job itself while the scope runs the
//!    rest.
//! 3. [`parallel_for`] — index-range data-parallelism built on
//!    [`run_scoped`], with min-chunk merging so tiny ranges never dispatch.
//!
//! ## Why borrowed closures cannot ride the persistent workers
//!
//! The workspace denies `unsafe` (`Cargo.toml` workspace lints, plus the
//! `no-unsafe` blob-check rule). A parked `'static` worker that runs a
//! closure borrowing the caller's stack requires erasing the closure's
//! lifetime before it crosses the queue — exactly the `unsafe` transmute
//! at the heart of rayon's and crossbeam's scope implementations. Safe
//! Rust has precisely one primitive that performs this erasure with a
//! compiler-verified barrier: `std::thread::scope`. So borrowed dispatch
//! is built on that primitive, confined to this module, and the real
//! per-call costs are attacked where they actually are:
//!
//! - **below the crossover, no threads at all** — the work-based sizing
//!   ([`effective_workers`]) runs small problems inline, which is where
//!   the offload threshold lives and where spawn overhead distorts
//!   timings (DESIGN.md "Execution substrate");
//! - **above it, `k − 1` spawns instead of `k`** — the caller participates;
//! - **zero steady-state allocation** — packing buffers come from
//!   [`arena`](crate::arena), not per-call `Vec`s.
//!
//! Interleaving-sensitive spots call [`perturb::point`](crate::perturb),
//! which the seeded stress tests use to explore schedules.

use crate::fault;
use crate::perturb;
use crate::trace;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Minimum floating-point operations a worker must own before compute-bound
/// scoped dispatch pays for itself.
///
/// Measured on the container this repo builds in: one scoped spawn plus
/// join costs ~20–60 µs, and the explicit-SIMD blocked GEMM sustains tens
/// of GFLOP/s per core — roughly 2× the autovectorized kernel it replaced
/// — so a thread needs on the order of 2·10⁷ flops (a few ms of work)
/// before the hand-off is amortised below a few percent. The constant
/// doubled when the SIMD micro-kernels landed: halving the per-flop cost
/// moves the dispatch crossover up by the same factor. Concretely, with 4
/// requested threads this sends ≤ 256³ GEMM (34 MFLOP) down the inline
/// path and splits 512³ (268 MFLOP) four ways — the ledger's `gemm_band`
/// and `gemm_large` workloads measure either side of the crossover.
pub const MIN_FLOPS_PER_THREAD: usize = 32_000_000;

/// Minimum streamed elements a worker must own before bandwidth-bound
/// scoped dispatch (GEMV) pays for itself: ~4 MiB of f64 traffic, a few
/// hundred µs of streaming — same amortisation argument as
/// [`MIN_FLOPS_PER_THREAD`] for kernels that move one element per flop.
pub const MIN_ELEMS_PER_THREAD: usize = 1 << 19;

/// How many workers `total_work` justifies, given a requested thread count:
/// `min(threads, total_work / min_per_worker)`, at least 1.
///
/// This is the crossover that makes tiny parallel calls degrade to inline
/// single-threaded execution instead of paying dispatch: below
/// `2 × min_per_worker` of work the answer is 1 and [`run_scoped`] runs
/// the single job on the caller with no thread machinery at all.
pub fn effective_workers(threads: usize, total_work: usize, min_per_worker: usize) -> usize {
    let by_work = total_work / min_per_worker.max(1);
    threads.max(1).min(by_work.max(1))
}

/// Caps a requested worker count at **twice** the host's available
/// hardware parallelism ([`available_threads`]).
///
/// Compute-bound kernels gain nothing from more workers than cores:
/// every extra worker re-packs its own panels and context-switches
/// against its siblings for zero added throughput (measured ~15% lost on
/// a 512³ GEMM split four ways in a 1-core container). The factor of two
/// leaves headroom for asymmetric stalls (one worker page-faulting while
/// another computes) — and keeps genuinely multi-worker schedules
/// reachable for the perturbation stress tests on narrow CI hosts; beyond
/// it, scheduling overhead strictly dominates. The parallel kernel entry
/// points apply this cap *before* the work-based crossover, so a caller
/// asking for 8 threads on a 2-core box dispatches at most 4 ways.
pub fn cap_at_host_parallelism(threads: usize) -> usize {
    threads.min(2 * available_threads()).max(1)
}

/// Lock a mutex, recovering the guard if a previous holder panicked.
///
/// The pool's invariants (queue contents, latch counts) are updated under
/// the lock with non-panicking code, so a poisoned lock still guards
/// consistent data; recovering keeps one panicking *job* from wedging every
/// later wait.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Job queue shared between submitters and workers. Each job carries the
/// latch of the batch it belongs to.
struct Queue {
    jobs: Mutex<QueueState>,
    ready: Condvar,
    /// Live worker count. Zero means every job must run inline on the
    /// submitting thread (spawn-degraded pool, or all workers killed by
    /// injected faults and not yet replaced).
    alive: AtomicUsize,
}

struct QueueState {
    jobs: VecDeque<(Job, Arc<Latch>)>,
    shutdown: bool,
}

/// A per-batch completion latch: outstanding-job count plus the first
/// panic payload captured from this batch's jobs.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(LatchState {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        })
    }

    fn incr(&self) {
        lock_ignore_poison(&self.state).pending += 1;
    }

    /// Marks one job finished, recording `panic` if it unwound. The first
    /// payload wins, like the first propagating panic under
    /// `std::thread::scope`.
    fn decr(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut s = lock_ignore_poison(&self.state);
        s.pending -= 1;
        if s.panic.is_none() {
            s.panic = panic;
        }
        if s.pending == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until the batch drains or `timeout` elapses. Returns true
    /// when the batch is done (after re-throwing a captured panic); false
    /// on timeout, so the waiter can check worker health and retry.
    fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut s = lock_ignore_poison(&self.state);
        while s.pending != 0 {
            let (guard, res) = self
                .done
                .wait_timeout(s, timeout)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            s = guard;
            if res.timed_out() && s.pending != 0 {
                return false;
            }
        }
        if let Some(payload) = s.panic.take() {
            drop(s);
            resume_unwind(payload);
        }
        true
    }
}

thread_local! {
    /// True on a [`ThreadPool`] worker thread — the nested-dispatch guard.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A fixed-size pool of persistent worker threads for `'static` jobs.
///
/// Workers are spawned once at construction and park on a condvar between
/// jobs, so steady-state submission costs a queue push and a wake-up, not
/// an OS thread spawn. Work is grouped into batches ([`batch`](Self::batch)):
/// each batch has its own completion latch, so concurrent callers sharing
/// one pool do not wait on each other's jobs, and a panic inside a job is
/// re-thrown to that batch's waiter at [`BatchHandle::wait`] — the same
/// contract `std::thread::scope` gives for scoped spawns.
///
/// A job submitted *from a pool worker* runs inline instead of being
/// queued: with every worker blocked inside such a job, queueing and
/// waiting would deadlock (see `nested_dispatch_runs_inline`).
///
/// ## Worker-death detection and replacement
///
/// A worker can die: the `pool.worker` fault point
/// ([`crate::fault`]) injects clean exits and panics to model it.
/// Death is *detected* at the batch barrier — [`BatchHandle::wait`] polls
/// on a short timeout and calls [`ThreadPool::ensure_workers`], which
/// joins finished workers and spawns replacements (counted by
/// [`ThreadPool::replaced_workers`]). Because a dying worker never holds
/// a dequeued job (the fault point sits *before* the dequeue, and a
/// mid-job panic is caught by `run_job` and routed to the batch latch),
/// no job is ever lost: it stays queued until a live or replacement
/// worker picks it up, so batches always complete.
///
/// Dropping the pool drains the queue and joins all workers.
pub struct ThreadPool {
    queue: Arc<Queue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Configured worker count; `ensure_workers` respawns back up to it.
    target: usize,
    /// Monotonic id source for worker thread names.
    next_id: AtomicUsize,
    /// Workers respawned after death (fault-injected or otherwise).
    replaced: AtomicU64,
}

/// How often a blocked batch waiter re-checks worker health. Long enough
/// to be free next to real kernel work, short enough that an injected
/// worker death stalls a batch imperceptibly.
const WORKER_CHECK_PERIOD: Duration = Duration::from_millis(25);

fn spawn_worker(queue: &Arc<Queue>, idx: usize) -> Option<JoinHandle<()>> {
    // Count the worker alive *before* it runs so a submit racing with
    // construction queues instead of falling back to inline execution.
    queue.alive.fetch_add(1, Ordering::Relaxed);
    let q = Arc::clone(queue);
    let handle = std::thread::Builder::new()
        .name(format!("blob-worker-{idx}"))
        .spawn(move || {
            IS_POOL_WORKER.with(|f| f.set(true));
            let _guard = AliveGuard(&q.alive);
            worker_loop(&q);
        });
    match handle {
        Ok(h) => Some(h),
        Err(_) => {
            queue.alive.fetch_sub(1, Ordering::Relaxed);
            None
        }
    }
}

/// Decrements the live-worker count however the worker exits — clean
/// shutdown, injected death, or panic unwind.
struct AliveGuard<'a>(&'a AtomicUsize);

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (at least 1).
    ///
    /// If the OS refuses to spawn any worker thread at all, the pool
    /// degrades to running jobs inline on the submitting thread rather
    /// than failing: a benchmark harness should keep producing numbers on
    /// a resource-starved host, just slowly.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            alive: AtomicUsize::new(0),
        });
        let workers: Vec<JoinHandle<()>> = (0..threads)
            .filter_map(|idx| spawn_worker(&queue, idx))
            .collect();
        Self {
            queue,
            workers: Mutex::new(workers),
            target: threads,
            next_id: AtomicUsize::new(threads),
            replaced: AtomicU64::new(0),
        }
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(available_threads())
    }

    /// Configured worker count (callers size their fan-out with this; the
    /// live count may dip below it briefly between a worker death and its
    /// replacement).
    pub fn threads(&self) -> usize {
        self.target
    }

    /// Workers respawned after death, across the pool's lifetime.
    pub fn replaced_workers(&self) -> u64 {
        self.replaced.load(Ordering::Relaxed)
    }

    /// Joins any dead workers and spawns replacements up to the
    /// configured count. Called from the batch barrier's health poll;
    /// harmless (and cheap) when every worker is healthy.
    pub fn ensure_workers(&self) {
        let mut workers = lock_ignore_poison(&self.workers);
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let h = workers.swap_remove(i);
                let _ = h.join();
            } else {
                i += 1;
            }
        }
        while workers.len() < self.target {
            let idx = self.next_id.fetch_add(1, Ordering::Relaxed);
            match spawn_worker(&self.queue, idx) {
                Some(h) => {
                    workers.push(h);
                    self.replaced.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
    }

    /// Opens a new batch. Jobs submitted through the handle complete —
    /// or re-throw their panic — at [`BatchHandle::wait`].
    pub fn batch(&self) -> BatchHandle<'_> {
        BatchHandle {
            pool: self,
            latch: Latch::new(),
        }
    }

    /// Submits one fire-and-forget job (a single-job batch nobody waits
    /// on). The job still completes before [`Drop`] returns.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut b = self.batch();
        b.submit(job);
        // handle dropped without wait: the latch keeps the job tracked
        // only for queue draining on Drop
    }

    fn enqueue(&self, job: Job, latch: &Arc<Latch>) {
        let inline =
            self.queue.alive.load(Ordering::Relaxed) == 0 || IS_POOL_WORKER.with(Cell::get);
        latch.incr();
        if inline {
            // Spawn-degraded pool or nested dispatch from a worker: run on
            // the current thread. Queueing from a worker could deadlock —
            // every worker may already be blocked in a wait of its own.
            run_job(job, latch);
            return;
        }
        perturb::point(perturb::tags::POOL_SUBMIT);
        let dispatch = trace::span(trace::names::POOL_DISPATCH, trace::cats::POOL);
        {
            let mut state = lock_ignore_poison(&self.queue.jobs);
            state.jobs.push_back((job, Arc::clone(latch)));
            dispatch.annotate("queued", state.jobs.len() as u64);
        }
        self.queue.ready.notify_one();
    }
}

/// An open batch of jobs on a [`ThreadPool`].
///
/// Submit any number of `'static` jobs, then call [`wait`](Self::wait) —
/// it returns when every job of *this* batch has finished and re-throws
/// the first panic any of them raised.
pub struct BatchHandle<'p> {
    pool: &'p ThreadPool,
    latch: Arc<Latch>,
}

impl BatchHandle<'_> {
    /// Submits a job to this batch.
    pub fn submit(&mut self, job: impl FnOnce() + Send + 'static) {
        self.pool.enqueue(Box::new(job), &self.latch);
    }

    /// Blocks until every submitted job has completed. If a job panicked,
    /// the first captured payload is re-thrown here — the batch barrier
    /// mirrors `std::thread::scope`'s join-then-propagate contract.
    ///
    /// The wait doubles as the pool's worker-death detector: each
    /// [`WORKER_CHECK_PERIOD`] without completion it joins dead workers
    /// and spawns replacements, so a batch survives losing every worker
    /// mid-flight.
    pub fn wait(self) {
        perturb::point(perturb::tags::BATCH_WAIT);
        let _wait = trace::span(trace::names::POOL_WAIT, trace::cats::POOL);
        while !self.latch.wait_timeout(WORKER_CHECK_PERIOD) {
            self.pool.ensure_workers();
        }
    }
}

/// Runs one job, routing a panic into its batch latch instead of letting
/// it unwind the worker (or the submitting thread, for inline dispatch).
fn run_job(job: Job, latch: &Arc<Latch>) {
    // AssertUnwindSafe: the closure's captured state is dropped with the
    // closure either way; the latch is the only thing observed after a
    // panic and is updated under its own lock. A panic unwinds the span
    // guard too, so the trace stays balanced.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _job = trace::span(trace::names::POOL_JOB, trace::cats::POOL);
        job();
    }));
    perturb::point(perturb::tags::POOL_DONE);
    latch.decr(outcome.err());
}

fn worker_loop(queue: &Queue) {
    loop {
        // The fault point sits *before* the dequeue so an injected death
        // never takes a job with it: the job stays queued for a live or
        // replacement worker, and batch latches never leak a count.
        if fault::point(fault::sites::POOL_WORKER).is_err() {
            return;
        }
        let (job, latch) = {
            let mut state = lock_ignore_poison(&queue.jobs);
            loop {
                if let Some(entry) = state.jobs.pop_front() {
                    break entry;
                }
                if state.shutdown {
                    return;
                }
                state = queue
                    .ready
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        perturb::point(perturb::tags::POOL_DEQUEUE);
        run_job(job, &latch);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = lock_ignore_poison(&self.queue.jobs);
            state.shutdown = true;
        }
        // Workers drain remaining jobs (pop_front wins over shutdown),
        // then exit once the queue is empty.
        self.queue.ready.notify_all();
        for w in lock_ignore_poison(&self.workers).drain(..) {
            let _ = w.join();
        }
        // Injected worker death can leave jobs queued with no worker to
        // run them; finish those inline so Drop keeps its drain contract.
        loop {
            let entry = lock_ignore_poison(&self.queue.jobs).jobs.pop_front();
            match entry {
                Some((job, latch)) => run_job(job, &latch),
                None => break,
            }
        }
    }
}

/// The host's available hardware parallelism (>= 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs a set of borrowing jobs, executing the first on the calling thread
/// and the rest on scoped threads.
///
/// This is the kernels' dispatch primitive and the workspace's only
/// `std::thread::scope` call site (rule `no-adhoc-scope`). The cost model
/// the kernels rely on:
///
/// - `jobs.len() <= 1` → the job runs inline; **zero** thread machinery.
/// - `jobs.len() == k` → `k − 1` scoped spawns; the caller runs job 0
///   while the scope runs the rest, so no core idles waiting.
///
/// Panic semantics are `std::thread::scope`'s own: a panic in any job —
/// spawned or caller-run — propagates out of this call after every job
/// has been joined.
pub fn run_scoped<F>(jobs: Vec<F>)
where
    F: FnOnce() + Send,
{
    let mut jobs = jobs;
    if jobs.len() <= 1 {
        if let Some(job) = jobs.pop() {
            job();
        }
        return;
    }
    let dispatch = trace::span(trace::names::POOL_DISPATCH, trace::cats::POOL);
    dispatch.annotate("jobs", jobs.len() as u64);
    let rest = jobs.split_off(1);
    let Some(first) = jobs.pop() else {
        return;
    };
    // Join handles explicitly: an implicit scope-exit join replaces a
    // spawned job's panic payload with a generic "a scoped thread
    // panicked" message, and callers (and the panic-propagation tests)
    // want the original payload.
    let spawned_panic = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .into_iter()
            .map(|job| {
                s.spawn(move || {
                    perturb::point(perturb::tags::SCOPED_JOB);
                    let _job = trace::span(trace::names::POOL_JOB, trace::cats::POOL);
                    job();
                })
            })
            .collect();
        perturb::point(perturb::tags::SCOPED_CALLER);
        {
            let _job = trace::span(trace::names::POOL_JOB, trace::cats::POOL);
            first();
        }
        handles.into_iter().filter_map(|h| h.join().err()).next()
    });
    if let Some(payload) = spawned_panic {
        std::panic::resume_unwind(payload);
    }
}

/// Splits `range` into at most `threads` contiguous chunks and runs `f` on
/// each chunk via [`run_scoped`]. Chunks smaller than `min_chunk` are
/// merged so tiny ranges do not pay dispatch for no useful work; one
/// resulting chunk means `f` runs inline on the caller with no thread
/// machinery (see [`effective_workers`] for the kernels' work-based way to
/// choose `threads`).
///
/// `f` receives the sub-range it owns; every index is covered exactly once.
pub fn parallel_for<F>(threads: usize, range: Range<usize>, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let min_chunk = min_chunk.max(1);
    let max_chunks = len.div_ceil(min_chunk);
    let chunks = threads.max(1).min(max_chunks);
    if chunks <= 1 {
        f(range);
        return;
    }
    let chunk = len / chunks;
    let rem = len % chunks;
    let f = &f;
    let mut start = range.start;
    let jobs: Vec<_> = (0..chunks)
        .map(|c| {
            // distribute the remainder one element at a time over leading chunks
            let this = chunk + usize::from(c < rem);
            let sub = start..start + this;
            start += this;
            move || {
                perturb::point(perturb::tags::PARALLEL_FOR_CHUNK);
                f(sub)
            }
        })
        .collect();
    run_scoped(jobs);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut batch = pool.batch();
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            batch.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        batch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pool_wait_on_empty_batch_is_immediate() {
        let pool = ThreadPool::new(2);
        pool.batch().wait(); // must not deadlock
    }

    #[test]
    fn pool_reusable_across_batches() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 1..=3 {
            let mut batch = pool.batch();
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                batch.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            batch.wait();
            assert_eq!(counter.load(Ordering::Relaxed), round * 10);
        }
    }

    #[test]
    fn pool_at_least_one_thread() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let mut batch = pool.batch();
        batch.submit(move || {
            d.store(1, Ordering::Relaxed);
        });
        batch.wait();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_drop_drains_outstanding_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No wait: Drop must still run every submitted job.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panicking_job_propagates_at_the_batch_barrier() {
        let pool = ThreadPool::new(2);
        let mut batch = pool.batch();
        batch.submit(|| panic!("job failure"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| batch.wait()))
            .expect_err("wait() must re-throw the job's panic");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload preserved");
        assert_eq!(msg, "job failure");
        // …and the pool survives for the next batch.
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let mut batch = pool.batch();
        batch.submit(move || {
            d.store(1, Ordering::Relaxed);
        });
        batch.wait();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_does_not_leak_across_batches() {
        let pool = ThreadPool::new(2);
        let mut bad = pool.batch();
        bad.submit(|| panic!("isolated"));
        let mut good = pool.batch();
        good.submit(|| {});
        good.wait(); // clean batch: must not observe the other's panic
        assert!(std::panic::catch_unwind(AssertUnwindSafe(|| bad.wait())).is_err());
    }

    #[test]
    fn nested_dispatch_runs_inline() {
        // A single-worker pool: if a job's own submission were queued and
        // waited on, the lone worker would deadlock on itself.
        let pool = Arc::new(ThreadPool::new(1));
        let p = Arc::clone(&pool);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let mut outer = pool.batch();
        outer.submit(move || {
            let mut inner = p.batch();
            let d2 = Arc::clone(&d);
            inner.submit(move || {
                d2.fetch_add(1, Ordering::Relaxed);
            });
            inner.wait();
            d.fetch_add(1, Ordering::Relaxed);
        });
        outer.wait();
        assert_eq!(done.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_batches_wait_only_for_their_own_jobs() {
        // Batch A holds a slow job; batch B must complete without waiting
        // for it. Verified by ordering: B's wait returns while A's job
        // still holds the gate open.
        let pool = ThreadPool::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let mut a = pool.batch();
        a.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock_ignore_poison(lock);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|p| p.into_inner());
            }
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let mut b = pool.batch();
        b.submit(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        b.wait(); // would deadlock if latches were shared pool-wide
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        let (lock, cv) = &*gate;
        *lock_ignore_poison(lock) = true;
        cv.notify_all();
        a.wait();
    }

    #[test]
    fn run_scoped_executes_every_job() {
        let hits: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<_> = (0..9)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        run_scoped(jobs);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn run_scoped_single_job_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(None);
        run_scoped(vec![|| {
            *lock_ignore_poison(&seen) = Some(std::thread::current().id());
        }]);
        assert_eq!(*lock_ignore_poison(&seen), Some(caller));
    }

    #[test]
    fn run_scoped_empty_is_a_no_op() {
        run_scoped(Vec::<fn()>::new());
    }

    #[test]
    fn run_scoped_propagates_spawned_panic() {
        let jobs: Vec<Box<dyn FnOnce() + Send>> =
            vec![Box::new(|| {}), Box::new(|| panic!("scoped failure"))];
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| run_scoped(jobs)))
            .expect_err("panic must cross the scope barrier");
        assert_eq!(err.downcast_ref::<&str>().copied(), Some("scoped failure"));
    }

    #[test]
    fn host_parallelism_cap() {
        let cap = 2 * available_threads();
        assert_eq!(cap_at_host_parallelism(0), 1);
        assert_eq!(cap_at_host_parallelism(1), 1);
        assert_eq!(cap_at_host_parallelism(cap), cap);
        assert_eq!(cap_at_host_parallelism(cap + 7), cap);
        assert_eq!(cap_at_host_parallelism(usize::MAX), cap);
    }

    #[test]
    fn effective_workers_crossover() {
        // far below the bound: inline
        assert_eq!(
            effective_workers(4, MIN_FLOPS_PER_THREAD - 1, MIN_FLOPS_PER_THREAD),
            1
        );
        // exactly one worker's worth: still inline (no second worker earned)
        assert_eq!(
            effective_workers(4, MIN_FLOPS_PER_THREAD, MIN_FLOPS_PER_THREAD),
            1
        );
        // two workers' worth: split two ways
        assert_eq!(
            effective_workers(4, 2 * MIN_FLOPS_PER_THREAD, MIN_FLOPS_PER_THREAD),
            2
        );
        // plenty of work: capped by the requested thread count
        assert_eq!(effective_workers(4, usize::MAX, MIN_FLOPS_PER_THREAD), 4);
        // degenerate inputs stay sane
        assert_eq!(effective_workers(0, 0, 0), 1);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 1013;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(7, 0..n, 1, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_respects_min_chunk() {
        // 10 elements with min_chunk 8 => at most 2 chunks
        let chunks = AtomicUsize::new(0);
        parallel_for(16, 0..10, 8, |_r| {
            chunks.fetch_add(1, Ordering::Relaxed);
        });
        assert!(chunks.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn parallel_for_empty_range() {
        parallel_for(4, 5..5, 1, |_r| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_offset_range() {
        let sum = AtomicUsize::new(0);
        parallel_for(3, 10..20, 1, |r| {
            for i in r {
                sum.fetch_add(i, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..20).sum::<usize>());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
