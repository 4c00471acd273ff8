//! The persistent worker pool.
//!
//! The build environment cannot vendor `rayon`, and the seed parallelised
//! with `std::thread::scope`, which re-spawns OS threads on every launch and
//! transfer — an overhead that dominates small grids. This module replaces
//! that with a **persistent pool**: worker threads are spawned once, live
//! behind a channel-style work queue, and execute borrowed (scoped) tasks
//! submitted through [`WorkerPool::scope`]. Dispatching a task is a queue
//! push instead of a thread spawn.
//!
//! Determinism: the pool only changes *which OS thread* runs a task, never
//! what the task computes or which memory it owns. Every helper here hands
//! each closure the same disjoint `&mut` data regardless of the worker
//! count, so results are bit-identical for any thread count — the same
//! argument (and the same property tests) as the seed's scoped
//! implementation.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a pool mutex, recovering the data if a panicking thread poisoned it.
/// The pool's shared state (a job queue, a counter, a panic slot) has no
/// invariant a panic can tear, so poisoning must never cascade into killing
/// unrelated scopes — this is the lock half of poisoned-worker recovery.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Available cores, resolved once per process. `available_parallelism`
/// re-reads cgroup quota files on every call (several heap allocations and
/// file reads) — far too expensive for a check on every launch/transfer, and
/// the answer cannot change for the lifetime of the process anyway.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Resolves a `host_threads` knob: `0` means "all available cores", any other
/// value is clamped to at least one thread, at most one thread per work item,
/// and never more threads than physical cores (oversubscribing a streaming
/// workload only thrashes the cache). Allocation-free: the core count is
/// cached per process, so this is safe to call on every hot-path operation.
pub fn resolve_threads(requested: usize, work_items: usize) -> usize {
    let cores = available_cores();
    let threads = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    threads.clamp(1, work_items.max(1))
}

/// A unit of queued work. Tasks are lifetime-erased in [`Scope::spawn`]; the
/// scope guarantees they never outlive the borrows they capture.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_available: Condvar,
    /// Jobs currently executing on any thread (workers + helping waiters).
    /// Updated with relaxed atomics around each job — occupancy telemetry,
    /// never consulted for scheduling.
    busy: AtomicUsize,
    /// Total jobs ever executed on this pool.
    executed: AtomicU64,
}

/// Runs one popped job with occupancy accounting (shared by the worker loop
/// and the helping waiter in [`WorkerPool::scope`]).
fn run_job(shared: &PoolShared, job: Job) {
    shared.busy.fetch_add(1, Ordering::Relaxed);
    // Jobs carry their own catch (scope tasks record panics in their
    // scope), but a defective payload can still panic on the way out —
    // contain it here so a poisoned job can never take a worker thread
    // down with it (the scope that owned the job has already observed the
    // original panic) and the busy count always drops back.
    let _ = panic::catch_unwind(AssertUnwindSafe(job));
    shared.busy.fetch_sub(1, Ordering::Relaxed);
    shared.executed.fetch_add(1, Ordering::Relaxed);
}

impl PoolShared {
    fn push(&self, job: Job) {
        let mut state = relock(&self.state);
        state.queue.push_back(job);
        drop(state);
        self.work_available.notify_one();
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut state = relock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(&shared, job);
    }
}

/// A pool of long-lived worker threads behind a channel-based work queue.
///
/// Workers are spawned once in [`WorkerPool::new`] and live until the pool is
/// dropped; work is submitted through [`WorkerPool::scope`]. The thread that
/// opens a scope *helps*: while waiting for its tasks it drains the queue, so
/// nested scopes (a pool task that itself fans work out over the same pool)
/// make progress even when every worker is busy — the pool can never
/// deadlock on its own queue.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` persistent workers (`0` = one per
    /// available core). The count is *not* capped at the physical core count:
    /// callers that want the cap apply [`resolve_threads`] per operation, and
    /// deliberately oversubscribed pools let single-core CI hosts exercise
    /// the concurrent machinery.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            available_cores()
        } else {
            threads
        }
        .max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            busy: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cinm-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of persistent worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently executing (occupancy): queued tasks being run by
    /// workers or by helping waiters. A telemetry reading — instantaneous
    /// and racy by nature, never used for scheduling.
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Total tasks this pool has ever executed.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`Scope`] on which borrowed tasks can be spawned, and
    /// does not return until every task spawned on the scope (including tasks
    /// spawned by other tasks) has completed.
    ///
    /// While waiting, the calling thread executes queued jobs itself, so a
    /// scope opened from *inside* a pool task still completes even if all
    /// workers are occupied.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panics, the panic is resumed here — after
    /// all tasks of the scope have finished, so borrowed data is never
    /// observable by a still-running task during unwinding.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let core = Arc::new(ScopeCore {
            shared: Arc::clone(&self.shared),
            pending: Mutex::new(0),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            core: Arc::clone(&core),
            _env: PhantomData,
        };
        // Catch a panic in the body so already-spawned tasks are always
        // waited for before unwinding past the borrowed environment.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help: drain the queue until every task of this scope completed,
        // blocking on the shared condvar while idle (the final
        // `ScopeCore::complete` of the scope wakes it — see that method for
        // the missed-wakeup argument).
        loop {
            let job = {
                let mut state = relock(&self.shared.state);
                loop {
                    if core.is_done() {
                        break None;
                    }
                    if let Some(job) = state.queue.pop_front() {
                        break Some(job);
                    }
                    state = self
                        .shared
                        .work_available
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => run_job(&self.shared, job),
                None => break,
            }
        }
        if let Some(payload) = relock(&core.panic).take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        relock(&self.shared.state).shutdown = true;
        self.shared.work_available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Completion tracking of one scope: a count of outstanding tasks plus the
/// first panic payload, if any.
struct ScopeCore {
    shared: Arc<PoolShared>,
    pending: Mutex<usize>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeCore {
    fn increment(&self) {
        *relock(&self.pending) += 1;
    }

    fn complete(&self, panic_payload: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(payload) = panic_payload {
            let mut slot = relock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut pending = relock(&self.pending);
        *pending -= 1;
        let now_done = *pending == 0;
        drop(pending);
        if now_done {
            // Wake the scope's helping waiter, which blocks on the shared
            // `work_available` condvar. Missed-wakeup argument: the waiter
            // only sleeps while holding the state lock between its
            // `is_done` check and `wait`; acquiring (and releasing) that
            // lock here before notifying means this notification cannot
            // fire inside that window, so the waiter either re-checks
            // `is_done` as true or is already waiting when notified. No
            // other lock is held here, so the state/pending lock orders
            // cannot invert.
            drop(relock(&self.shared.state));
            self.shared.work_available.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        *relock(&self.pending) == 0
    }
}

/// Renders a panic payload's message, if it carries one (the payloads of
/// `panic!` with a literal or a formatted string do).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

/// Handle for spawning borrowed tasks onto a [`WorkerPool`]; see
/// [`WorkerPool::scope`]. Task bodies receive the scope again so they can
/// spawn follow-up tasks (the command-stream scheduler uses this to release
/// dependents as commands complete).
pub struct Scope<'env> {
    core: Arc<ScopeCore>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task that may borrow from `'env`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.spawn_inner(None, f);
    }

    /// Spawns a task carrying a diagnostic label (a device name, a shard
    /// identifier). If the task panics, the payload propagated out of
    /// [`WorkerPool::scope`] is rewritten to name the label and the original
    /// panic message, instead of rethrowing the bare payload — so a panic
    /// deep in a sharded dispatch reports *which* device's task died.
    pub fn spawn_labeled<F>(&self, label: &'static str, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.spawn_inner(Some(label), f);
    }

    fn spawn_inner<F>(&self, label: Option<&'static str>, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.core.increment();
        let core = Arc::clone(&self.core);
        let boxed: Box<dyn FnOnce(&Scope<'env>) + Send + 'env> = Box::new(f);
        // SAFETY: lifetime erasure. The task (and everything it borrows from
        // `'env`) is guaranteed to finish before `WorkerPool::scope` returns:
        // the scope's pending count was incremented above and `scope` blocks
        // until it reaches zero, resuming panics only afterwards. Tasks can
        // only be spawned through a `&Scope<'env>`, which exists solely
        // inside that window.
        let boxed: Box<dyn FnOnce(&Scope<'static>) + Send + 'static> =
            unsafe { std::mem::transmute(boxed) };
        let shared = Arc::clone(&self.core.shared);
        shared.push(Box::new(move || {
            let scope = Scope {
                core: Arc::clone(&core),
                _env: PhantomData,
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| boxed(&scope)));
            let payload = result.err().map(|p| match label {
                Some(label) => {
                    let message = payload_message(p.as_ref());
                    Box::new(format!("task '{label}' panicked: {message}"))
                        as Box<dyn std::any::Any + Send>
                }
                None => p,
            });
            core.complete(payload);
        }));
    }
}

fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        // At least two workers even on single-core hosts, so the concurrent
        // paths are genuinely exercised everywhere (parallelism is still
        // gated per operation by `resolve_threads`).
        let cores = available_cores();
        WorkerPool::new(cores.max(2))
    })
}

/// A cheap, cloneable reference to a worker pool, carried by the simulator
/// configurations.
///
/// The default handle points at a lazily-created **process-global** pool
/// (sized to the available cores), so simulators work out of the box;
/// [`PoolHandle::with_threads`] creates a dedicated pool shared by everything
/// the handle is cloned into — the experiment and bench harnesses construct
/// one per sweep.
#[derive(Clone, Default)]
pub struct PoolHandle {
    /// `None` = the process-global pool.
    owned: Option<Arc<WorkerPool>>,
}

impl PoolHandle {
    /// The handle of the process-global pool (the default).
    pub fn global() -> Self {
        PoolHandle { owned: None }
    }

    /// Creates a dedicated pool with `threads` workers (`0` = one per core)
    /// and returns its handle; clones of the handle share the pool.
    pub fn with_threads(threads: usize) -> Self {
        PoolHandle {
            owned: Some(Arc::new(WorkerPool::new(threads))),
        }
    }

    /// Wraps an existing pool.
    pub fn from_pool(pool: Arc<WorkerPool>) -> Self {
        PoolHandle { owned: Some(pool) }
    }

    /// The underlying pool.
    pub fn get(&self) -> &WorkerPool {
        match &self.owned {
            Some(pool) => pool,
            None => global_pool(),
        }
    }

    /// Whether this handle points at the process-global pool.
    pub fn is_global(&self) -> bool {
        self.owned.is_none()
    }

    /// Splits `data` into up to `threads` contiguous *bands* of whole
    /// `chunk`-sized slices and applies `f(first_chunk, band)` to each, where
    /// `first_chunk` is the index of the band's first chunk. This is the one
    /// scheduling loop of the data-parallel helpers: one thread is one band
    /// run on the caller, `k` threads are `k` bands of the same closure on
    /// the pool, the last one ragged when the chunks do not divide evenly.
    ///
    /// Each invocation of `f` receives a disjoint `&mut` band and the bands
    /// partition `data` in order, so a closure whose result for a chunk
    /// depends only on the chunk's index produces bit-identical data for
    /// every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero while `data` is non-empty, or if
    /// `data.len()` is not a multiple of `chunk`; panics inside `f` are
    /// propagated after all bands have finished.
    pub fn for_each_band_mut<T, F>(&self, threads: usize, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(chunk > 0, "chunk size must be positive");
        assert_eq!(
            data.len() % chunk,
            0,
            "data must be a whole number of chunks"
        );
        let n_chunks = data.len() / chunk;
        let threads = resolve_threads(threads, n_chunks);
        if threads <= 1 {
            // One band: no scope, no queue push, no allocation.
            f(0, data);
            return;
        }
        let chunks_per_band = n_chunks.div_ceil(threads);
        let f = &f;
        self.get().scope(|scope| {
            for (band, band_slice) in data.chunks_mut(chunks_per_band * chunk).enumerate() {
                scope.spawn(move |_| f(band * chunks_per_band, band_slice));
            }
        });
    }

    /// Applies `f` to every `chunk`-sized slice of `data`, indexed by chunk
    /// number, on the bands of [`for_each_band_mut`](Self::for_each_band_mut)
    /// (same arguments, same panics).
    pub fn for_each_chunk_mut<T, F>(&self, threads: usize, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_each_band_mut(threads, data, chunk, |first, band| {
            for (j, c) in band.chunks_mut(chunk).enumerate() {
                f(first + j, c);
            }
        });
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.owned {
            None => f.write_str("PoolHandle(global)"),
            Some(pool) => write!(f, "PoolHandle({} workers)", pool.workers()),
        }
    }
}

/// Two handles are equal when they refer to the same pool. (Configurations
/// derive `PartialEq`; pool identity is the only meaningful comparison.)
impl PartialEq for PoolHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.owned, &other.owned) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_threads_clamps_and_resolves_auto() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_threads(4, 100), 4.min(cores));
        assert!(resolve_threads(4, 2) <= 2);
        assert_eq!(resolve_threads(1, 0), 1);
        assert!(resolve_threads(0, 64) >= 1);
        // Requests are capped at the physical core count.
        assert!(resolve_threads(10_000, 10_000) <= cores);
    }

    #[test]
    fn parallel_schedule_matches_sequential() {
        let pool = PoolHandle::with_threads(3);
        let chunk = 16;
        let n = 64 * chunk;
        let mut seq: Vec<i64> = vec![0; n];
        for threads in [1usize, 2, 3, 8, 64] {
            let mut par: Vec<i64> = vec![0; n];
            let body = |d: usize, out: &mut [i64]| {
                for (i, v) in out.iter_mut().enumerate() {
                    *v = (d * 1_000 + i) as i64;
                }
            };
            pool.for_each_chunk_mut(1, &mut seq, chunk, body);
            pool.for_each_chunk_mut(threads, &mut par, chunk, body);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn empty_data_is_a_no_op() {
        let pool = PoolHandle::global();
        let mut empty: Vec<i32> = Vec::new();
        pool.for_each_chunk_mut(8, &mut empty, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    #[should_panic(expected = "whole number of chunks")]
    fn ragged_data_is_rejected() {
        let pool = PoolHandle::global();
        let mut data = vec![0i32; 10];
        pool.for_each_chunk_mut(2, &mut data, 4, |_, _| {});
    }

    /// The `(first_chunk, chunks)` of every band of one schedule, in order.
    fn bands_of(
        pool: &PoolHandle,
        threads: usize,
        n_chunks: usize,
        chunk: usize,
    ) -> Vec<[usize; 2]> {
        let seen = Mutex::new(Vec::new());
        let mut data = vec![0u8; n_chunks * chunk];
        pool.for_each_band_mut(threads, &mut data, chunk, |first, band| {
            assert_eq!(band.len() % chunk, 0, "bands hold whole chunks");
            relock(&seen).push([first, band.len() / chunk]);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn bands_partition_the_chunks_exactly_once() {
        let pool = PoolHandle::with_threads(3);
        for (n_chunks, chunk) in [(1usize, 5usize), (7, 3), (64, 1), (10, 4)] {
            for threads in [1usize, 2, 3, 8] {
                let bands = bands_of(&pool, threads, n_chunks, chunk);
                assert!(bands.len() <= threads, "{bands:?}");
                // In order, back to back, covering 0..n_chunks.
                let mut next = 0;
                for [first, chunks] in &bands {
                    assert_eq!(*first, next, "{bands:?}");
                    assert!(*chunks > 0);
                    next += chunks;
                }
                assert_eq!(next, n_chunks, "{bands:?}");
                // Only the last band may be ragged (shorter than the rest).
                let full = bands[0][1];
                let (last, rest) = bands.split_last().unwrap();
                assert!(rest.iter().all(|b| b[1] == full), "{bands:?}");
                assert!(last[1] <= full, "{bands:?}");
            }
        }
        assert_eq!(bands_of(&pool, 1, 7, 3), [[0, 7]], "one thread, one band");
    }

    #[test]
    fn banded_schedules_match_for_every_thread_count() {
        let pool = PoolHandle::with_threads(3);
        let chunk = 4;
        let run = |threads: usize| {
            let mut data = vec![0usize; 11 * chunk];
            pool.for_each_band_mut(threads, &mut data, chunk, |first, band| {
                for (j, c) in band.chunks_mut(chunk).enumerate() {
                    c.fill(first + j);
                }
            });
            data
        };
        let reference = run(1);
        assert_eq!(reference[10 * chunk], 10);
        for threads in [2usize, 8] {
            assert_eq!(run(threads), reference, "threads = {threads}");
        }
        let mut empty: Vec<i32> = Vec::new();
        pool.for_each_band_mut(8, &mut empty, 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn a_panicking_band_propagates_after_the_others_finish() {
        let pool = PoolHandle::with_threads(3);
        let n_chunks = 8;
        let n_bands = bands_of(&pool, 8, n_chunks, 1).len();
        let finished = AtomicUsize::new(0);
        let mut data = vec![0u8; n_chunks];
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_band_mut(8, &mut data, 1, |first, _| {
                if first == 0 {
                    panic!("band failed");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::SeqCst), n_bands - 1);
    }

    #[test]
    fn scope_runs_all_tasks_and_nested_spawns() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let counter = &counter;
                s.spawn(move |s| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    // A task spawning a follow-up task (the DAG scheduler
                    // relies on this).
                    s.spawn(move |_| {
                        counter.fetch_add(10, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 11);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(1)); // single worker: worst case
        let total = AtomicUsize::new(0);
        let p = &pool;
        let total_ref = &total;
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(move |_| {
                    // Each task opens another scope on the same pool.
                    p.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move |_| {
                                total_ref.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn task_panics_propagate_after_completion() {
        let pool = WorkerPool::new(2);
        let done = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let done = &done;
                s.spawn(move |_| panic!("task failed"));
                for _ in 0..4 {
                    s.spawn(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err());
        // Every non-panicking task still ran to completion.
        assert_eq!(done.load(Ordering::SeqCst), 4);
        // The pool stays usable after a panic.
        pool.scope(|s| {
            let done = &done;
            s.spawn(move |_| {
                done.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn labeled_panic_from_nested_scope_task_names_the_task() {
        // Regression test: a panicking task spawned from *inside* another
        // pool task (a nested scope, the sharded-dispatch shape) must
        // propagate an error message naming the originating task's label,
        // not the bare payload.
        let pool = Arc::new(WorkerPool::new(2));
        let p = &pool;
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(move |_| {
                    p.scope(|inner| {
                        inner.spawn_labeled("cnm-shard", move |_| {
                            panic!("MRAM exhausted");
                        });
                    });
                });
            });
        }));
        let payload = result.unwrap_err();
        let message = payload_message(payload.as_ref());
        assert!(
            message.contains("cnm-shard") && message.contains("MRAM exhausted"),
            "panic message should name the task and the cause: {message:?}"
        );
    }

    #[test]
    fn workers_survive_repeated_task_panics() {
        // Poisoned-worker recovery: a storm of panicking tasks must leave
        // every worker alive and the pool fully functional.
        let pool = WorkerPool::new(2);
        for _ in 0..8 {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    s.spawn_labeled("doomed", move |_| panic!("boom"));
                });
            }));
            assert!(result.is_err());
        }
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            let done = &done;
            for _ in 0..16 {
                s.spawn(move |_| {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 16);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn pool_handles_compare_by_identity() {
        let a = PoolHandle::with_threads(1);
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, PoolHandle::with_threads(1));
        assert_eq!(PoolHandle::global(), PoolHandle::global());
        assert_ne!(a, PoolHandle::global());
        assert!(PoolHandle::default().is_global());
    }
}
