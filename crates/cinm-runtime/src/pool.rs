//! The persistent worker pool.
//!
//! The build environment cannot vendor `rayon`, and the seed parallelised
//! with `std::thread::scope`, which re-spawns OS threads on every launch and
//! transfer — an overhead that dominates small grids. This module replaces
//! that with a **persistent pool**: worker threads are spawned once, live
//! behind a channel-style work queue, and execute borrowed (scoped) tasks
//! submitted through [`WorkerPool::scope`]. Dispatching a task is a queue
//! push instead of a thread spawn — and the thread that opens a scope is its
//! first worker: the first task spawned from the scope body never enters the
//! queue, the opener runs it itself, so a one-task scope touches neither the
//! queue nor another thread.
//!
//! Determinism: the pool only changes *which OS thread* runs a task, never
//! what the task computes or which memory it owns. Every helper here hands
//! each closure the same disjoint `&mut` data regardless of the worker
//! count, so results are bit-identical for any thread count — the same
//! argument (and the same property tests) as the seed's scoped
//! implementation.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

type PanicPayload = Box<dyn Any + Send>;

/// One spawned task and the scope it was counted in. The body is
/// lifetime-erased in [`Scope::spawn`]; the scope guarantees it never
/// outlives the borrows it captures.
struct Job {
    core: Arc<ScopeCore>,
    label: Option<&'static str>,
    body: Box<dyn FnOnce(&Scope<'static>) + Send + 'static>,
}

impl Job {
    /// Runs the task with occupancy accounting and completes it in its
    /// scope — on a worker, a helping waiter, or (the kept first task) the
    /// thread that opened the scope.
    fn run(self) {
        let Job { core, label, body } = self;
        // Follow-up tasks spawned from a task are always queued: only the
        // scope body's first task is kept.
        let scope = Scope {
            core,
            keep_next: Cell::new(false),
            kept: Cell::new(None),
            _env: PhantomData,
        };
        let shared = &scope.core.shared;
        shared.busy.fetch_add(1, Ordering::Relaxed);
        // The inner catch records the task's panic; the outer one contains a
        // defective payload that panics on the way out (while it is labelled
        // and dropped), so a poisoned task can never take a worker thread
        // down with it or leave its scope waiting for a completion.
        let payload = panic::catch_unwind(AssertUnwindSafe(|| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| body(&scope)));
            result.err().map(|p| match label {
                Some(label) => {
                    let message = payload_message(p.as_ref());
                    Box::new(format!("task '{label}' panicked: {message}")) as PanicPayload
                }
                None => p,
            })
        }))
        .unwrap_or_else(Some);
        // Accounted before the completion, so both readings are settled when
        // `WorkerPool::scope` returns.
        shared.busy.fetch_sub(1, Ordering::Relaxed);
        shared.executed.fetch_add(1, Ordering::Relaxed);
        scope.core.complete(payload);
    }
}

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Workers blocked on `work_available`.
    idle_workers: usize,
    /// Scope openers blocked on `scope_event`.
    parked_openers: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Idle workers sleep here; a push wakes one.
    work_available: Condvar,
    /// Openers whose scope is unfinished and who found the queue empty sleep
    /// here: a push wakes one when no worker is idle (helping waits), the
    /// last completion of a scope whose opener is parked wakes them all —
    /// idle workers never hear about completions.
    scope_event: Condvar,
    /// Jobs currently executing on any thread (workers, helping waiters and
    /// openers running their kept task). Updated with relaxed atomics around
    /// each job — occupancy telemetry, never consulted for scheduling.
    busy: AtomicUsize,
    /// Total jobs ever executed on this pool.
    executed: AtomicU64,
    /// Sleepers woken for a queued job (read only by this module's tests).
    wakeups: AtomicU64,
}

impl PoolShared {
    /// Queues a job and wakes exactly one sleeper for it, if there is one: an
    /// idle worker, else a parked opener (which helps). Awake threads need
    /// no signal — every one of them returns to the queue before it sleeps.
    fn push(&self, job: Job) {
        let mut state = relock(&self.state);
        state.queue.push_back(job);
        let sleepers = if state.idle_workers > 0 {
            &self.work_available
        } else if state.parked_openers > 0 {
            &self.scope_event
        } else {
            return;
        };
        drop(state);
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        sleepers.notify_one();
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
                state.idle_workers += 1;
                state = shared
                    .work_available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.idle_workers -= 1;
            }
        };
        job.run();
    }
}

/// A pool of long-lived worker threads behind a channel-based work queue.
///
/// Workers are spawned once in [`WorkerPool::new`] and live until the pool is
/// dropped; work is submitted through [`WorkerPool::scope`]. The thread that
/// opens a scope is its first worker — it runs the first task spawned from
/// the scope body itself — and then *helps*: while waiting for the remaining
/// tasks it drains the queue, so nested scopes (a pool task that itself fans
/// work out over the same pool) make progress even when every worker is
/// busy — the pool can never deadlock on its own queue.
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
                idle_workers: 0,
                parked_openers: 0,
            }),
            work_available: Condvar::new(),
            scope_event: Condvar::new(),
            busy: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
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

    /// Jobs currently executing (occupancy): tasks being run by workers, by
    /// helping waiters or by the thread that opened their scope. A telemetry
    /// reading — instantaneous and racy by nature, never used for
    /// scheduling.
    pub fn busy_workers(&self) -> usize {
        self.shared.busy.load(Ordering::Relaxed)
    }

    /// Total tasks this pool has ever executed, on any thread.
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`Scope`] on which borrowed tasks can be spawned, and
    /// does not return until every task spawned on the scope (including tasks
    /// spawned by other tasks) has completed.
    ///
    /// The calling thread is the scope's first worker. The first task `f`
    /// spawns is kept for it — never queued, waking nobody — and runs when
    /// `f` returns; every later task is queued and wakes one sleeping worker.
    /// A one-task scope therefore runs entirely on the caller, and `k` tasks
    /// cost `k − 1` wake-ups. No task is guaranteed to start before `f`
    /// returns, so **`f` must not block on the tasks it spawned**.
    ///
    /// After its own task the calling thread executes queued jobs while it
    /// waits, so a scope opened from *inside* a pool task still completes
    /// even if all workers are occupied.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panics, the panic is resumed here — after
    /// all tasks of the scope (the kept one included) have finished, so
    /// borrowed data is never observable by a still-running task during
    /// unwinding.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let scope = Scope {
            core: Arc::new(ScopeCore {
                shared: Arc::clone(&self.shared),
                pending: AtomicUsize::new(0),
                parked: AtomicBool::new(false),
                panicked: AtomicBool::new(false),
                panic: Mutex::new(None),
            }),
            keep_next: Cell::new(true),
            kept: Cell::new(None),
            _env: PhantomData,
        };
        // Catch a panic in the body so already-spawned tasks are always
        // run and waited for before unwinding past the borrowed environment.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        let Scope { core, kept, .. } = scope;
        if let Some(job) = kept.into_inner() {
            job.run();
        }
        self.help_until_done(&core);
        if core.panicked.load(Ordering::SeqCst) {
            if let Some(payload) = relock(&core.panic).take() {
                panic::resume_unwind(payload);
            }
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Drains the queue until every task of `core`'s scope has completed,
    /// sleeping on `scope_event` while the queue is empty. A scope whose
    /// tasks all ran on the opener is done on arrival and takes no lock.
    ///
    /// Missed-wakeup argument, for the scope's last completion: the opener
    /// raises `parked` and re-reads `pending` while it holds the state lock,
    /// and releases that lock only inside `wait`. The completing thread
    /// zeroes `pending` and then reads `parked` (both `SeqCst`, so one of the
    /// two sees the other's store): either the opener sees the scope done
    /// and does not sleep, or the completer sees `parked`, takes the state
    /// lock — which it can only get once the opener is waiting — and
    /// notifies. For a push: the job is queued and the sleeper counts are
    /// read under the same lock the opener holds from its queue check to its
    /// `wait`.
    fn help_until_done(&self, core: &ScopeCore) {
        if core.is_done() {
            return;
        }
        loop {
            let job = {
                let mut state = relock(&self.shared.state);
                loop {
                    if core.is_done() {
                        return;
                    }
                    if let Some(job) = state.queue.pop_front() {
                        break job;
                    }
                    core.parked.store(true, Ordering::SeqCst);
                    if core.is_done() {
                        return;
                    }
                    state.parked_openers += 1;
                    state = self
                        .shared
                        .scope_event
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.parked_openers -= 1;
                    core.parked.store(false, Ordering::SeqCst);
                }
            };
            job.run();
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
    /// Spawned tasks that have not completed. A task is counted before it
    /// can run and follow-ups are counted before their parent completes, so
    /// the count reaches zero exactly once.
    pending: AtomicUsize,
    /// The opener is asleep on `scope_event` (or about to be): the last
    /// completion must wake it. See [`WorkerPool::help_until_done`].
    parked: AtomicBool,
    /// `panic` holds a payload — lets the opener skip the lock otherwise.
    panicked: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
}

impl ScopeCore {
    fn complete(&self, panic_payload: Option<PanicPayload>) {
        if let Some(payload) = panic_payload {
            relock(&self.panic).get_or_insert(payload);
            self.panicked.store(true, Ordering::SeqCst);
        }
        let last = self.pending.fetch_sub(1, Ordering::SeqCst) == 1;
        if last && self.parked.load(Ordering::SeqCst) {
            // Passing through the state lock orders this notification after
            // the opener's `wait` (it holds the lock from raising `parked`
            // until it sleeps). No other lock is held here, so lock orders
            // cannot invert.
            drop(relock(&self.shared.state));
            self.shared.scope_event.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.pending.load(Ordering::SeqCst) == 0
    }
}

/// Renders a panic payload's message, if it carries one (the payloads of
/// `panic!` with a literal or a formatted string do).
fn payload_message(payload: &(dyn Any + Send)) -> &str {
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
/// spawn follow-up tasks.
pub struct Scope<'env> {
    core: Arc<ScopeCore>,
    /// Whether the next spawn is kept for the opening thread: true on the
    /// scope handed to the body until its first spawn, never on the scopes
    /// handed to tasks.
    keep_next: Cell<bool>,
    kept: Cell<Option<Job>>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task that may borrow from `'env`.
    ///
    /// The first task spawned from the scope body is kept for the thread
    /// that opened the scope and starts when the body returns; every other
    /// task — later ones from the body, and all follow-ups spawned by tasks —
    /// is queued for the workers and may start at once.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'env>) + Send + 'env,
    {
        self.spawn_inner(None, f);
    }

    /// Spawns a task carrying a diagnostic label (a device name, a shard
    /// identifier), under the start rule of [`spawn`](Self::spawn). If the
    /// task panics, the payload propagated out of [`WorkerPool::scope`] is
    /// rewritten to name the label and the original panic message, instead
    /// of rethrowing the bare payload — so a panic deep in a sharded
    /// dispatch reports *which* device's task died.
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
        self.core.pending.fetch_add(1, Ordering::SeqCst);
        let body: Box<dyn FnOnce(&Scope<'env>) + Send + 'env> = Box::new(f);
        // SAFETY: lifetime erasure. The task (and everything it borrows from
        // `'env`) is guaranteed to finish before `WorkerPool::scope` returns:
        // the scope's pending count was incremented above and `scope` runs
        // the kept task and blocks until the count reaches zero, resuming
        // panics only afterwards. Tasks can only be spawned through a
        // `&Scope<'env>`, which exists solely inside that window.
        let body: Box<dyn FnOnce(&Scope<'static>) + Send + 'static> =
            unsafe { std::mem::transmute(body) };
        let core = Arc::clone(&self.core);
        let job = Job { core, label, body };
        if self.keep_next.replace(false) {
            self.kept.set(Some(job));
        } else {
            self.core.shared.push(job);
        }
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
/// (one worker per available core, at least two), so simulators work out of
/// the box;
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
    /// run on the caller, `k` threads are `k` bands of the same closure in
    /// one scope of the pool (the caller takes band 0, the workers the
    /// rest), the last one ragged when the chunks do not divide evenly.
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
    use std::time::{Duration, Instant};

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

    /// Blocks until `n` workers of `pool` sleep on the queue, so the next
    /// pushes each find a sleeper to wake.
    fn wait_for_idle_workers(pool: &WorkerPool, n: usize) {
        while relock(&pool.shared.state).idle_workers < n {
            std::thread::yield_now();
        }
    }

    fn wakeups(pool: &WorkerPool) -> u64 {
        pool.shared.wakeups.load(Ordering::Relaxed)
    }

    #[test]
    fn a_lone_task_runs_on_the_opening_thread_and_wakes_nobody() {
        let pool = WorkerPool::new(2);
        wait_for_idle_workers(&pool, 2);
        let opener = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.scope(|s| {
            s.spawn(|_| *relock(&ran_on) = Some(std::thread::current().id()));
            // Kept, not started: no task runs before the body returns.
            assert_eq!(*relock(&ran_on), None);
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(opener));
        assert_eq!(wakeups(&pool), 0);
        assert_eq!(relock(&pool.shared.state).idle_workers, 2);
    }

    #[test]
    fn k_tasks_on_k_idle_workers_run_once_each_with_k_minus_one_wakeups() {
        const K: usize = 3;
        let pool = WorkerPool::new(K);
        wait_for_idle_workers(&pool, K);
        let opener = std::thread::current().id();
        let runs: [AtomicUsize; K] = Default::default();
        let first_ran_on = Mutex::new(None);
        pool.scope(|s| {
            for (i, run) in runs.iter().enumerate() {
                let first_ran_on = &first_ran_on;
                s.spawn(move |_| {
                    run.fetch_add(1, Ordering::SeqCst);
                    if i == 0 {
                        *relock(first_ran_on) = Some(std::thread::current().id());
                    }
                });
            }
        });
        for run in &runs {
            assert_eq!(run.load(Ordering::SeqCst), 1);
        }
        assert_eq!(first_ran_on.into_inner().unwrap(), Some(opener));
        assert_eq!(wakeups(&pool), K as u64 - 1);
    }

    #[test]
    fn three_tasks_of_one_scope_run_at_once() {
        // Each task waits until all three have arrived, so the scope can only
        // finish if the opener and both workers run its tasks concurrently.
        // A pool that ran them one after another would leave the first
        // waiting forever; the deadline turns that into a failure.
        const TASKS: usize = 3;
        let deadline = Instant::now() + Duration::from_secs(10);
        let pool = WorkerPool::new(TASKS - 1);
        let (arrived, all_here) = (Mutex::new(0usize), Condvar::new());
        let met = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..TASKS {
                let (arrived, all_here, met) = (&arrived, &all_here, &met);
                s.spawn(move |_| {
                    let mut n = relock(arrived);
                    *n += 1;
                    all_here.notify_all();
                    while *n < TASKS {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return;
                        }
                        n = all_here.wait_timeout(n, left).expect("rendezvous lock").0;
                    }
                    met.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(
            met.load(Ordering::SeqCst),
            TASKS,
            "the scope's tasks never ran at the same time"
        );
    }

    #[test]
    fn a_labeled_panic_in_the_kept_task_propagates_after_the_queued_tasks() {
        let pool = WorkerPool::new(2);
        let opener = std::thread::current().id();
        let done = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn_labeled("first-shard", move |_| {
                    assert_eq!(std::thread::current().id(), opener, "kept for the opener");
                    panic!("MRAM exhausted");
                });
                for _ in 0..4 {
                    let done = &done;
                    s.spawn(move |_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        let payload = result.unwrap_err();
        let message = payload_message(payload.as_ref());
        assert!(
            message.contains("first-shard") && message.contains("MRAM exhausted"),
            "{message:?}"
        );
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn a_panicking_body_still_runs_its_kept_task_before_unwinding() {
        let pool = WorkerPool::new(1);
        let ran = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let ran = &ran;
                s.spawn(move |_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
                panic!("body failed");
            })
        }));
        let payload = result.unwrap_err();
        assert_eq!(payload_message(payload.as_ref()), "body failed");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn follow_ups_of_the_kept_task_complete_on_one_worker() {
        // The DAG scheduler's shape: one ready node, whose completion
        // releases dependents, which release theirs.
        fn node<'env>(s: &Scope<'env>, depth: usize, count: &'env AtomicUsize) {
            count.fetch_add(1, Ordering::SeqCst);
            if depth > 0 {
                for _ in 0..3 {
                    s.spawn(move |s| node(s, depth - 1, count));
                }
            }
        }
        let pool = WorkerPool::new(1);
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            let count = &count;
            s.spawn(move |s| node(s, 3, count));
        });
        assert_eq!(count.load(Ordering::SeqCst), 1 + 3 + 9 + 27);
        assert_eq!(pool.tasks_executed(), 40);
    }

    #[test]
    fn nested_scopes_of_the_kept_and_the_queued_task_share_one_worker() {
        // The barrier holds the opener (in its kept task) and the one worker
        // (in the queued task) inside the outer scope at once; both then
        // open a scope on the same pool whose queued tasks nobody else can
        // take — each opener must help.
        let pool = WorkerPool::new(1);
        let both_running = std::sync::Barrier::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..2 {
                let (pool, both_running, total) = (&pool, &both_running, &total);
                s.spawn(move |_| {
                    both_running.wait();
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move |_| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn occupancy_settles_and_kept_tasks_are_counted() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            let pool = &pool;
            s.spawn(move |_| assert_eq!(pool.busy_workers(), 1));
        });
        assert_eq!((pool.busy_workers(), pool.tasks_executed()), (0, 1));
        pool.scope(|s| {
            for _ in 0..5 {
                s.spawn(|_| {});
            }
        });
        assert_eq!((pool.busy_workers(), pool.tasks_executed()), (0, 6));
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
