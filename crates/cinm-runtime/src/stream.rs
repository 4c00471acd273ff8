//! Hazard-tracked command streams.
//!
//! A [`CommandStream`] records device commands instead of executing them
//! eagerly. Each command declares the buffers it reads and writes
//! ([`Access`]); [`hazard_deps`] turns the recorded program into a
//! dependency DAG using the classic data-hazard rules on [`BufferId`]s:
//!
//! * **RAW** — a read depends on the most recent writer of the buffer;
//! * **WAW** — a write depends on the most recent writer;
//! * **WAR** — a write depends on every read issued since that writer.
//!
//! [`execute_stream`] then runs the DAG on a [`WorkerPool`]: commands whose
//! dependencies have completed execute concurrently, so independent commands
//! on disjoint buffers overlap while dependent chains stay ordered.
//!
//! # Determinism
//!
//! The schedule can never change results: a command's functional effect
//! depends only on the contents of the buffers it accesses, and the hazard
//! edges reproduce exactly the buffer contents each command would observe
//! under eager in-order execution. Accounting (simulated statistics) is the
//! caller's job and is folded in **program order** after the batch executes,
//! so statistics are bit-identical to eager sequential execution too.
//!
//! [`WorkerPool`]: crate::WorkerPool

use std::sync::{Mutex, PoisonError};

use crate::fault::CommandError;
use crate::pool::{PoolHandle, Scope};

/// Identifier of a device buffer (matches `upmem_sim::BufferId`; the
/// memristor simulator uses tile indices in the same space).
pub type BufferId = u32;

/// The read/write sets of one command.
#[derive(Debug, Clone, Default)]
pub struct Access {
    /// Buffers the command reads.
    pub reads: Vec<BufferId>,
    /// Buffers the command writes.
    pub writes: Vec<BufferId>,
}

impl Access {
    /// A read-only access.
    pub fn reads(reads: Vec<BufferId>) -> Self {
        Access {
            reads,
            writes: Vec::new(),
        }
    }

    /// A write-only access.
    pub fn writes(writes: Vec<BufferId>) -> Self {
        Access {
            reads: Vec::new(),
            writes,
        }
    }
}

/// A command type that can be recorded in a [`CommandStream`].
pub trait StreamCommand {
    /// The buffers this command reads and writes.
    fn access(&self) -> Access;
}

/// An ordered record of device commands awaiting execution.
///
/// `enqueue` records a command and returns its index; the device's `sync`
/// entry point (e.g. `UpmemSystem::sync`) drains the stream, executes it via
/// [`execute_stream`], and returns one output per command in enqueue order.
#[derive(Debug, Default)]
pub struct CommandStream<C> {
    commands: Vec<C>,
}

impl<C: StreamCommand> CommandStream<C> {
    /// Creates an empty stream.
    pub fn new() -> Self {
        CommandStream {
            commands: Vec::new(),
        }
    }

    /// Records a command, returning its index (the position of its output in
    /// the `sync` result).
    pub fn enqueue(&mut self, command: C) -> usize {
        self.commands.push(command);
        self.commands.len() - 1
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// The recorded commands, in enqueue order.
    pub fn commands(&self) -> &[C] {
        &self.commands
    }

    /// Drains the recorded commands (the stream can be reused afterwards).
    pub fn take_commands(&mut self) -> Vec<C> {
        std::mem::take(&mut self.commands)
    }
}

/// Builds the dependency lists of a recorded program: `deps[i]` holds the
/// indices of earlier commands that must complete before command `i` may
/// start, derived from the RAW/WAR/WAW hazard rules described in the module
/// documentation.
pub fn hazard_deps(accesses: &[Access]) -> Vec<Vec<usize>> {
    use std::collections::HashMap;

    #[derive(Default)]
    struct BufState {
        last_writer: Option<usize>,
        readers_since_write: Vec<usize>,
    }

    let mut bufs: HashMap<BufferId, BufState> = HashMap::new();
    let mut deps = Vec::with_capacity(accesses.len());
    for (i, access) in accesses.iter().enumerate() {
        let mut d: Vec<usize> = Vec::new();
        for b in &access.reads {
            if let Some(w) = bufs.get(b).and_then(|s| s.last_writer) {
                d.push(w); // RAW
            }
        }
        for b in &access.writes {
            if let Some(state) = bufs.get(b) {
                if let Some(w) = state.last_writer {
                    d.push(w); // WAW
                }
                d.extend(state.readers_since_write.iter().copied()); // WAR
            }
        }
        d.retain(|&j| j != i);
        d.sort_unstable();
        d.dedup();
        for b in &access.reads {
            bufs.entry(*b).or_default().readers_since_write.push(i);
        }
        for b in &access.writes {
            let state = bufs.entry(*b).or_default();
            state.last_writer = Some(i);
            state.readers_since_write.clear();
        }
        deps.push(d);
    }
    deps
}

/// Scheduler bookkeeping of one DAG execution: outstanding dependency
/// counts, the ready queue, and the in-flight cap.
struct SchedState {
    indegree: Vec<usize>,
    ready: std::collections::VecDeque<usize>,
    in_flight: usize,
    cap: usize,
}

impl SchedState {
    /// Pops as many ready nodes as the in-flight cap allows, accounting them
    /// as started.
    fn claim_ready(&mut self) -> Vec<usize> {
        let mut claimed = Vec::new();
        while self.in_flight < self.cap {
            match self.ready.pop_front() {
                Some(node) => {
                    self.in_flight += 1;
                    claimed.push(node);
                }
                None => break,
            }
        }
        claimed
    }
}

/// Shared state of one DAG execution.
struct DagRun<'a, C, R, E, F> {
    commands: &'a [C],
    run: &'a F,
    dependents: &'a [Vec<usize>],
    sched: &'a Mutex<SchedState>,
    slots: &'a [Mutex<Option<Result<R, E>>>],
}

fn run_node<'env, C, R, E, F>(ctx: &'env DagRun<'env, C, R, E, F>, i: usize, scope: &Scope<'env>)
where
    C: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &C) -> Result<R, E> + Sync,
{
    let result = (ctx.run)(i, &ctx.commands[i]);
    *ctx.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
    // Release dependents whose last prerequisite just completed, then start
    // as many ready nodes as the freed slot (plus any spare capacity)
    // allows. Capacity can never strand a ready node: whenever the queue is
    // non-empty at least one node is in flight, and every completion drains
    // the queue up to the cap before returning.
    let to_spawn: Vec<usize> = {
        let mut sched = ctx.sched.lock().unwrap_or_else(PoisonError::into_inner);
        for &d in &ctx.dependents[i] {
            sched.indegree[d] -= 1;
            if sched.indegree[d] == 0 {
                sched.ready.push_back(d);
            }
        }
        sched.in_flight -= 1;
        sched.claim_ready()
    };
    for d in to_spawn {
        scope.spawn(move |scope| run_node(ctx, d, scope));
    }
}

/// Executes a recorded program, returning one `Result` per command in
/// program order.
///
/// A command that returns `Err` does **not** stop the batch: its dependents
/// still execute (against whatever buffer state the failed command left
/// behind) and report their own `Result`s. Callers whose `run` is fallible
/// must therefore treat every output after a program-order error as suspect
/// — the simulators avoid this entirely by validating the whole batch up
/// front and running with an infallible closure.
///
/// `threads` bounds the number of commands in flight: `1` executes
/// sequentially in program order (trivially a valid topological order), `0`
/// means "as many as the DAG allows". Otherwise the hazard DAG is scheduled
/// dynamically on the pool with at most `threads` commands in flight: every
/// command whose dependencies have completed is eligible to run, and
/// completions release their dependents. The first ready command runs on
/// the calling thread (see [`crate::WorkerPool::scope`]); the other initially
/// ready ones and every released dependent are queued for the workers. The
/// cap bounds *command-level*
/// concurrency only; it is deliberately not tied to the physical core count
/// — overlap cannot change results (see the module documentation), and the
/// pool's worker count bounds actual parallelism.
///
/// # Errors
///
/// [`CommandError`] when the executor itself misbehaves: a scheduled node
/// that never produced a result ([`CommandError::Unexecuted`]) or a result
/// slot poisoned by a panicking worker task ([`CommandError::Poisoned`]).
/// Per-command failures of `run` are *not* executor errors — they come back
/// as the inner `Result`s.
pub fn execute_stream<C, R, E, F>(
    pool: &PoolHandle,
    threads: usize,
    commands: &[C],
    run: F,
) -> Result<Vec<Result<R, E>>, CommandError>
where
    C: StreamCommand + Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &C) -> Result<R, E> + Sync,
{
    let n = commands.len();
    let cap = if threads == 0 { n } else { threads };
    if cap <= 1 || n <= 1 {
        return Ok(commands
            .iter()
            .enumerate()
            .map(|(i, c)| run(i, c))
            .collect());
    }
    let accesses: Vec<Access> = commands.iter().map(StreamCommand::access).collect();
    let deps = hazard_deps(&accesses);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (i, ds) in deps.iter().enumerate() {
        indegree[i] = ds.len();
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let mut sched = SchedState {
        ready: (0..n).filter(|&i| indegree[i] == 0).collect(),
        indegree,
        in_flight: 0,
        cap,
    };
    let first = sched.claim_ready();
    let slots: Vec<Mutex<Option<Result<R, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let ctx = DagRun {
        commands,
        run: &run,
        dependents: &dependents,
        sched: &Mutex::new(sched),
        slots: &slots,
    };
    let ctx = &ctx;
    pool.get().scope(|scope| {
        for i in first {
            scope.spawn(move |scope| run_node(ctx, i, scope));
        }
    });
    let mut results = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let inner = slot
            .into_inner()
            .map_err(|_| CommandError::Poisoned { index: i })?;
        results.push(inner.ok_or(CommandError::Unexecuted { index: i })?);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestCmd(Access);
    impl StreamCommand for TestCmd {
        fn access(&self) -> Access {
            self.0.clone()
        }
    }

    fn cmd(reads: &[BufferId], writes: &[BufferId]) -> TestCmd {
        TestCmd(Access {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
        })
    }

    #[test]
    fn hazards_build_raw_war_waw_edges() {
        // 0: write A      (scatter)
        // 1: write B      (scatter, independent of 0)
        // 2: read A,B write C   (launch: RAW on 0 and 1)
        // 3: read C       (gather: RAW on 2)
        // 4: write A      (scatter: WAR on 2, WAW on 0)
        // 5: read A write A     (aliased launch: RAW/WAW on 4)
        let accesses: Vec<Access> = [
            cmd(&[], &[0]),
            cmd(&[], &[1]),
            cmd(&[0, 1], &[2]),
            cmd(&[2], &[]),
            cmd(&[], &[0]),
            cmd(&[0], &[0]),
        ]
        .iter()
        .map(|c| c.access())
        .collect();
        let deps = hazard_deps(&accesses);
        assert_eq!(deps[0], Vec::<usize>::new());
        assert_eq!(deps[1], Vec::<usize>::new());
        assert_eq!(deps[2], vec![0, 1]);
        assert_eq!(deps[3], vec![2]);
        assert_eq!(deps[4], vec![0, 2]);
        assert_eq!(deps[5], vec![4]);
    }

    #[test]
    fn two_readers_share_no_edge_but_order_against_writes() {
        let accesses: Vec<Access> = [
            cmd(&[], &[7]), // 0: write
            cmd(&[7], &[]), // 1: read
            cmd(&[7], &[]), // 2: read (concurrent with 1)
            cmd(&[], &[7]), // 3: write: WAR on both readers, WAW on 0
        ]
        .iter()
        .map(|c| c.access())
        .collect();
        let deps = hazard_deps(&accesses);
        assert_eq!(deps[1], vec![0]);
        assert_eq!(deps[2], vec![0]);
        assert_eq!(deps[3], vec![0, 1, 2]);
    }

    #[test]
    fn execute_stream_respects_dependencies_at_any_thread_count() {
        // A chain incrementing one cell must observe strict ordering; an
        // independent chain interleaves freely. Repeat to shake out races.
        for _ in 0..50 {
            let a = Mutex::new(Vec::new());
            let b = Mutex::new(Vec::new());
            let commands: Vec<TestCmd> = vec![
                cmd(&[], &[0]),
                cmd(&[0], &[0]),
                cmd(&[0], &[0]),
                cmd(&[], &[1]),
                cmd(&[1], &[1]),
            ];
            for threads in [1usize, 2, 8] {
                let pool = PoolHandle::global();
                let results = execute_stream(&pool, threads, &commands, |i, _c| {
                    if i < 3 {
                        a.lock().unwrap().push(i);
                    } else {
                        b.lock().unwrap().push(i);
                    }
                    Ok::<usize, ()>(i)
                })
                .unwrap();
                assert_eq!(*a.lock().unwrap(), vec![0, 1, 2], "threads {threads}");
                assert_eq!(*b.lock().unwrap(), vec![3, 4], "threads {threads}");
                let outs: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
                assert_eq!(outs, vec![0, 1, 2, 3, 4]);
                a.lock().unwrap().clear();
                b.lock().unwrap().clear();
            }
        }
    }

    #[test]
    fn in_flight_cap_bounds_command_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Twelve fully independent commands, cap 2: never more than two in
        // flight even on a wider pool.
        let commands: Vec<TestCmd> = (0..12).map(|i| cmd(&[], &[i as BufferId])).collect();
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let pool = PoolHandle::with_threads(8);
        let results = execute_stream(&pool, 2, &commands, |_, _| {
            let now = current.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            current.fetch_sub(1, Ordering::SeqCst);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(results.len(), 12);
        assert!(results.iter().all(Result::is_ok));
        assert!(peak.load(Ordering::SeqCst) <= 2, "{peak:?}");
    }

    #[test]
    fn errors_are_reported_in_program_order_slots() {
        let commands: Vec<TestCmd> = vec![cmd(&[], &[0]), cmd(&[], &[1]), cmd(&[1], &[])];
        let pool = PoolHandle::global();
        let results = execute_stream(&pool, 4, &commands, |i, _c| {
            if i == 1 {
                Err("boom")
            } else {
                Ok(i)
            }
        })
        .unwrap();
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err("boom"));
        assert!(results[2].is_ok());
    }
}
