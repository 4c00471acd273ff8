//! The batched host API: recording UPMEM commands into a
//! [`CommandStream`] and executing them with [`UpmemSystem::sync`].
//!
//! PrIM-style host programs and the UPMEM SDK model the host side as an
//! asynchronous command queue with explicit synchronisation; this module is
//! that queue for the simulator. Commands ([`Command::Scatter`],
//! [`Command::Broadcast`], [`Command::Launch`], [`Command::Gather`]) are
//! recorded with per-buffer read/write sets, `cinm-runtime` builds a
//! RAW/WAR/WAW hazard DAG over the [`BufferId`]s, and [`UpmemSystem::sync`]
//! executes ready commands concurrently on the shared worker pool — so
//! independent kernels on disjoint buffers overlap while dependent chains
//! stay ordered.
//!
//! # Determinism
//!
//! Results and statistics are **bit-identical to eager sequential
//! execution** for any thread count:
//!
//! * every command's functional effect depends only on the contents of the
//!   buffers it accesses, and the hazard edges reproduce exactly the buffer
//!   contents the command would observe under in-order execution;
//! * every command's cost is a pure function of the configuration and its
//!   own payload, and the accumulated [`SystemStats`](crate::SystemStats) are
//!   folded in
//!   **program order** after the batch completes — the same f64 additions in
//!   the same order as the eager path.
//!
//! `tests/properties.rs` asserts this against the eager
//! [`NaiveUpmemSystem`](crate::NaiveUpmemSystem) oracle over randomized
//! interleaved programs with aliasing buffers at thread counts {1, 2, 8}.
//!
//! # Error semantics
//!
//! `sync` validates the whole batch in program order *before* executing
//! anything: on a validation error (unknown buffer, oversized chunk, bad
//! kernel shape) no buffer is modified and no statistic is accounted — the
//! batch is transactional. (The eager methods instead apply every command
//! preceding the failing one.)

use std::borrow::Cow;
use std::cell::UnsafeCell;

use cinm_runtime::{execute_stream, Access, CommandStream, StreamCommand};

use crate::config::UpmemConfig;
use crate::kernel::{KernelSpec, MAX_FUSED_STAGES};
use crate::stats::{LaunchStats, TransferStats};
use crate::system::{
    broadcast_slab, gather_slab, kernel_launch_cost, launch_slabs, scatter_slab, BufferId,
    SimError, SimResult, Slab, UpmemSystem,
};

/// One recorded host-runtime operation.
///
/// Transfer payloads are [`Cow`]s so hot paths can record *borrowed* host
/// slices (no copy beyond the one into the slab, exactly like the eager
/// methods) while owned vectors still work for `'static` programs.
#[derive(Debug, Clone, PartialEq)]
pub enum Command<'a> {
    /// Scatter host data across the DPUs in `chunk`-element strides
    /// (see [`UpmemSystem::scatter_i32`]).
    Scatter {
        /// Destination buffer.
        buffer: BufferId,
        /// Host payload.
        data: Cow<'a, [i32]>,
        /// Elements per DPU.
        chunk: usize,
    },
    /// Copy the same host data to the buffer of every DPU
    /// (see [`UpmemSystem::broadcast_i32`]).
    Broadcast {
        /// Destination buffer.
        buffer: BufferId,
        /// Host payload (replicated per DPU).
        data: Cow<'a, [i32]>,
    },
    /// Launch a kernel on every DPU (see [`UpmemSystem::launch`]).
    Launch {
        /// The kernel to run.
        spec: KernelSpec,
    },
    /// Gather `chunk` elements from every DPU back to the host
    /// (see [`UpmemSystem::gather_i32`]).
    Gather {
        /// Source buffer.
        buffer: BufferId,
        /// Elements per DPU.
        chunk: usize,
    },
}

impl StreamCommand for Command<'_> {
    fn access(&self) -> Access {
        match self {
            Command::Scatter { buffer, .. } | Command::Broadcast { buffer, .. } => {
                Access::writes(vec![*buffer])
            }
            Command::Launch { spec } => Access {
                reads: spec.inputs.clone(),
                writes: spec.outputs().collect(),
            },
            Command::Gather { buffer, .. } => Access::reads(vec![*buffer]),
        }
    }
}

/// The per-command result of a synced stream, in enqueue order.
#[derive(Debug, Clone, PartialEq)]
pub enum CommandOutput {
    /// Result of a [`Command::Scatter`] or [`Command::Broadcast`].
    Transfer(TransferStats),
    /// Result of a [`Command::Launch`].
    Launch(LaunchStats),
    /// Result of a [`Command::Gather`]: the gathered host vector.
    Gather(Vec<i32>, TransferStats),
}

impl CommandOutput {
    /// The gathered host data, if this was a gather.
    pub fn into_gathered(self) -> Option<Vec<i32>> {
        match self {
            CommandOutput::Gather(data, _) => Some(data),
            _ => None,
        }
    }

    /// The launch statistics, if this was a launch.
    pub fn launch_stats(&self) -> Option<LaunchStats> {
        match self {
            CommandOutput::Launch(s) => Some(*s),
            _ => None,
        }
    }
}

/// A slab with interior mutability, so hazard-independent commands can
/// execute concurrently against disjoint buffers of one system.
struct SlabCell(UnsafeCell<Slab>);

// SAFETY: access is coordinated by the hazard DAG — see `StreamSession`.
unsafe impl Sync for SlabCell {}

/// Shared view of the system state during one `sync`.
///
/// # Safety invariant
///
/// The hazard scheduler (`cinm_runtime::execute_stream`) guarantees that at
/// any moment each buffer is accessed either by a single writing command or
/// by any number of reading commands — RAW/WAR/WAW edges order every
/// conflicting pair, and a command only starts after all its dependencies
/// completed (with a happens-before edge through the scheduler lock). All
/// `unsafe` dereferences below rely on exactly that invariant.
struct StreamSession<'a> {
    config: &'a UpmemConfig,
    num_dpus: usize,
    cells: Vec<SlabCell>,
}

impl<'a> StreamSession<'a> {
    fn new(config: &'a UpmemConfig, num_dpus: usize, slabs: Vec<Slab>) -> Self {
        StreamSession {
            config,
            num_dpus,
            cells: slabs
                .into_iter()
                .map(|s| SlabCell(UnsafeCell::new(s)))
                .collect(),
        }
    }

    fn into_slabs(self) -> Vec<Slab> {
        self.cells.into_iter().map(|c| c.0.into_inner()).collect()
    }

    /// Shared view of a buffer this command reads.
    ///
    /// # Safety
    ///
    /// No command writing `buffer` may be running (struct-level invariant).
    unsafe fn reader(&self, buffer: BufferId) -> &Slab {
        // SAFETY: guaranteed by the caller.
        unsafe { &*self.cells[buffer as usize].0.get() }
    }

    /// Exclusive view of a buffer this command writes. This is the only way
    /// a slab's storage form changes during a `sync`: the replicated →
    /// per-DPU expansion happens inside a command the hazard DAG already
    /// orders as a writer of that buffer.
    ///
    /// # Safety
    ///
    /// The calling command must be the only one accessing `buffer` right now
    /// (struct-level invariant), and must not hold another view of it.
    #[allow(clippy::mut_from_ref)]
    unsafe fn writer(&self, buffer: BufferId) -> &mut Slab {
        // SAFETY: guaranteed by the caller.
        unsafe { &mut *self.cells[buffer as usize].0.get() }
    }

    /// Executes one (pre-validated) command functionally and returns its
    /// output and pure per-command cost. Never touches accumulated
    /// statistics — the caller folds them in program order. The operation
    /// bodies are the shared `crate::system` helpers
    /// ([`scatter_slab`]/[`broadcast_slab`]/[`gather_slab`]/[`launch_slabs`])
    /// also used by the eager methods, so the two paths cannot drift.
    fn run(&self, cmd: &Command<'_>) -> CommandOutput {
        match cmd {
            Command::Scatter {
                buffer,
                data,
                chunk,
            } => {
                // SAFETY: this command is the sole writer of `buffer`.
                let slab = unsafe { self.writer(*buffer) };
                CommandOutput::Transfer(scatter_slab(
                    self.config,
                    self.num_dpus,
                    slab,
                    data,
                    *chunk,
                ))
            }
            Command::Broadcast { buffer, data } => {
                // SAFETY: this command is the sole writer of `buffer`.
                let slab = unsafe { self.writer(*buffer) };
                CommandOutput::Transfer(broadcast_slab(self.config, self.num_dpus, slab, data))
            }
            Command::Gather { buffer, chunk } => {
                // SAFETY: readers may share the buffer; no writer is
                // concurrent with a reader.
                let slab = unsafe { self.reader(*buffer) };
                let (out, t) = gather_slab(self.config, self.num_dpus, slab, *chunk);
                CommandOutput::Gather(out, t)
            }
            Command::Launch { spec } => {
                self.launch(spec);
                let tasklets = spec.tasklets.unwrap_or(self.config.tasklets);
                CommandOutput::Launch(kernel_launch_cost(
                    self.config,
                    spec,
                    tasklets,
                    self.num_dpus,
                ))
            }
        }
    }

    /// Borrows the launch's output slabs mutably and its inputs shared from
    /// the cells and hands them to the shared [`launch_slabs`] executor (the
    /// same code the eager [`UpmemSystem::launch`] runs). The slabs stay in
    /// their cells throughout, so a panicking kernel never strips the system
    /// of a buffer.
    fn launch(&self, spec: &KernelSpec) {
        let mut unused: [Slab; MAX_FUSED_STAGES] = std::array::from_fn(|_| Slab::default());
        let mut outs = unused.each_mut();
        for (slot, b) in outs.iter_mut().zip(spec.outputs()) {
            // SAFETY: this command is the sole accessor of every buffer it
            // writes, and its outputs are pairwise distinct (a non-fused
            // launch has one; fused outputs are validated distinct), so
            // these mutable borrows never alias each other.
            *slot = unsafe { self.writer(b) };
        }
        launch_slabs(
            self.config,
            self.num_dpus,
            spec,
            // SAFETY: `launch_slabs` resolves only inputs that are not the
            // launch's output through this (an aliased input is read through
            // the output borrow above), and no writer of an input runs
            // concurrently with this command.
            |b| unsafe { self.reader(b) },
            &mut outs[..spec.outputs().count()],
            &mut Vec::new(),
        );
    }
}

impl UpmemSystem {
    /// Validates one recorded command without executing it.
    fn validate_command(&self, cmd: &Command<'_>) -> SimResult<()> {
        match cmd {
            Command::Scatter { buffer, chunk, .. } => {
                self.validate_chunk(*buffer, *chunk).map(|_| ())
            }
            Command::Broadcast { buffer, data } => {
                self.validate_broadcast(*buffer, data.len()).map(|_| ())
            }
            Command::Launch { spec } => self.validate_launch(spec),
            Command::Gather { buffer, chunk } => self.validate_chunk(*buffer, *chunk).map(|_| ()),
        }
    }

    /// Draws the fault decision for one command. Called in program order
    /// during the pre-execution validation pass, so the injector consumes
    /// exactly the same event sequence as the eager methods would for the
    /// same program — and a faulted batch leaves the system untouched.
    fn inject_command(&mut self, cmd: &Command<'_>) -> SimResult<()> {
        match cmd {
            Command::Scatter { .. } => self.inject_transfer("scatter"),
            Command::Broadcast { .. } => self.inject_transfer("broadcast"),
            Command::Gather { .. } => self.inject_transfer("gather"),
            Command::Launch { spec } => self.inject_launch(spec),
        }
    }

    /// Executes every command recorded in `stream` and returns one
    /// [`CommandOutput`] per command, in enqueue order.
    ///
    /// The stream is drained; hazard-independent commands execute
    /// concurrently on the configured worker pool — at most
    /// [`host_threads`](UpmemConfig::host_threads) commands in flight (`0` =
    /// as many as the DAG allows) — while dependent chains stay ordered.
    /// Buffers and accumulated [`SystemStats`](crate::SystemStats) end up
    /// **bit-identical** to calling the eager methods in enqueue order, for
    /// every thread count — see the [module documentation](self) for the
    /// argument.
    ///
    /// # Errors
    ///
    /// The whole batch is validated in program order before execution; on the
    /// first invalid command — or injected fault, when a
    /// [`FaultConfig`](cinm_runtime::FaultConfig) is attached — an error is
    /// returned and **nothing** is applied (no buffer changes, no
    /// statistics). The recorded program is left in the stream so it can be
    /// resubmitted: a retried batch after a transient fault produces exactly
    /// the results and statistics of an unfaulted one.
    pub fn sync(
        &mut self,
        stream: &mut CommandStream<Command<'_>>,
    ) -> SimResult<Vec<CommandOutput>> {
        // Validate before draining: on error the recorded program stays in
        // the stream, so the caller can inspect or resubmit it. Fault
        // decisions are drawn in the same pass so the batch stays
        // transactional under injected faults too.
        for cmd in stream.commands() {
            self.validate_command(cmd)?;
        }
        for cmd in stream.commands() {
            self.inject_command(cmd)?;
        }
        let commands = stream.take_commands();
        if commands.is_empty() {
            return Ok(Vec::new());
        }

        // Command-level concurrency follows `host_threads` (`0` = as many
        // commands in flight as the DAG allows). Deliberately not capped at
        // the physical core count — overlap cannot change results, and
        // single-core hosts still exercise the concurrent machinery.
        let session =
            StreamSession::new(&self.config, self.num_dpus, std::mem::take(&mut self.slabs));
        // Catch panics from command bodies so the slab storage taken above
        // is always restored — a panicking batch may leave partially written
        // *contents*, but never strips the system of its buffers.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_stream(
                &self.config.pool,
                self.config.host_threads,
                &commands,
                |_, cmd| Ok::<CommandOutput, std::convert::Infallible>(session.run(cmd)),
            )
        }));
        self.slabs = session.into_slabs();
        let results = match results {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // Scheduler-level failures (a slot left unexecuted or poisoned) can
        // only follow a command panic, which was re-raised above; surface
        // them as errors rather than panicking if that invariant ever bends.
        let results = results.map_err(|e| SimError::new(format!("command stream: {e}")))?;

        let outputs: Vec<CommandOutput> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| match e {}))
            .collect();

        // Fold statistics in program order through the same accounting
        // bodies as the eager methods (bit-identical, telemetry included).
        for (cmd, out) in commands.iter().zip(&outputs) {
            match (cmd, out) {
                (Command::Scatter { .. }, CommandOutput::Transfer(t)) => {
                    self.account_scatter(t);
                }
                (Command::Broadcast { .. }, CommandOutput::Transfer(t)) => {
                    self.account_broadcast(t);
                }
                (Command::Gather { .. }, CommandOutput::Gather(_, t)) => {
                    self.account_gather(t);
                }
                (Command::Launch { .. }, CommandOutput::Launch(l)) => {
                    self.account_launch(l);
                }
                _ => unreachable!("command/output kinds always correspond"),
            }
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BinOp, DpuKernelKind};

    fn small_config(threads: usize) -> UpmemConfig {
        let mut cfg = UpmemConfig::with_ranks(1).with_host_threads(threads);
        cfg.dpus_per_rank = 4;
        cfg
    }

    /// Eagerly applies the same program through the classic methods.
    fn run_eager(sys: &mut UpmemSystem, commands: &[Command<'_>]) -> Vec<CommandOutput> {
        commands
            .iter()
            .map(|c| match c {
                Command::Scatter {
                    buffer,
                    data,
                    chunk,
                } => CommandOutput::Transfer(sys.scatter_i32(*buffer, data, *chunk).unwrap()),
                Command::Broadcast { buffer, data } => {
                    CommandOutput::Transfer(sys.broadcast_i32(*buffer, data).unwrap())
                }
                Command::Launch { spec } => CommandOutput::Launch(sys.launch(spec).unwrap()),
                Command::Gather { buffer, chunk } => {
                    let (data, t) = sys.gather_i32(*buffer, *chunk).unwrap();
                    CommandOutput::Gather(data, t)
                }
            })
            .collect()
    }

    fn demo_program(a: BufferId, b: BufferId, c: BufferId, d: BufferId) -> Vec<Command<'static>> {
        let data: Vec<i32> = (0..64).map(|i| i * 13 % 31 - 15).collect();
        vec![
            Command::Scatter {
                buffer: a,
                data: data.clone().into(),
                chunk: 16,
            },
            Command::Broadcast {
                buffer: b,
                data: data[..16].to_vec().into(),
            },
            Command::Launch {
                spec: KernelSpec::new(
                    DpuKernelKind::Elementwise {
                        op: BinOp::Mul,
                        len: 16,
                    },
                    vec![a, b],
                    c,
                ),
            },
            // Independent kernel on disjoint buffers: overlaps with the one
            // above.
            Command::Launch {
                spec: KernelSpec::new(
                    DpuKernelKind::Scan {
                        op: BinOp::Add,
                        len: 16,
                    },
                    vec![b],
                    d,
                ),
            },
            Command::Gather {
                buffer: c,
                chunk: 16,
            },
            Command::Gather {
                buffer: d,
                chunk: 16,
            },
            // Rewrite an input (WAR against the launches) and reduce over it.
            Command::Scatter {
                buffer: a,
                data: data.iter().rev().copied().collect::<Vec<i32>>().into(),
                chunk: 16,
            },
            Command::Launch {
                spec: KernelSpec::new(
                    DpuKernelKind::Reduce {
                        op: BinOp::Add,
                        len: 16,
                    },
                    vec![a],
                    d,
                ),
            },
            Command::Gather {
                buffer: d,
                chunk: 1,
            },
        ]
    }

    #[test]
    fn sync_matches_eager_execution_for_all_thread_counts() {
        let mut eager = UpmemSystem::new(small_config(1));
        let bufs: Vec<BufferId> = (0..4).map(|_| eager.alloc_buffer(16).unwrap()).collect();
        let program = demo_program(bufs[0], bufs[1], bufs[2], bufs[3]);
        let eager_out = run_eager(&mut eager, &program);

        for threads in [1usize, 2, 8, 0] {
            let mut sys = UpmemSystem::new(small_config(threads));
            for _ in 0..4 {
                sys.alloc_buffer(16).unwrap();
            }
            let mut stream = CommandStream::new();
            for c in &program {
                stream.enqueue(c.clone());
            }
            let out = sys.sync(&mut stream).unwrap();
            assert!(stream.is_empty());
            assert_eq!(out, eager_out, "threads = {threads}");
            assert_eq!(sys.stats(), eager.stats(), "threads = {threads}");
            // The broadcast operand is only read by the launches, so it is
            // still stored once; every written buffer expanded inside its
            // writing command.
            assert_eq!(sys.stored_len(bufs[1]), 16, "threads = {threads}");
            for buf in [bufs[0], bufs[2], bufs[3]] {
                assert_eq!(sys.stored_len(buf), 16 * sys.num_dpus());
            }
            for buf in &bufs {
                for d in 0..sys.num_dpus() {
                    assert_eq!(
                        sys.dpu_buffer(d, *buf).unwrap(),
                        eager.dpu_buffer(d, *buf).unwrap(),
                        "threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_launches_in_a_stream_match_eager_execution() {
        use crate::kernel::{FusedArg, FusedStage};
        let data: Vec<i32> = (0..64).map(|i| i * 19 % 41 - 20).collect();
        let fused = KernelSpec::new(
            DpuKernelKind::FusedElementwise {
                stages: vec![
                    FusedStage {
                        op: BinOp::Mul,
                        lhs: FusedArg::Input(0),
                        rhs: FusedArg::Input(1),
                    },
                    FusedStage {
                        op: BinOp::Add,
                        lhs: FusedArg::Stage(0),
                        rhs: FusedArg::Input(0),
                    },
                ],
                len: 16,
                arity: 2,
            },
            vec![0, 1],
            2,
        )
        .with_extra_outputs(vec![3]);
        let program = vec![
            Command::Scatter {
                buffer: 0,
                data: data.clone().into(),
                chunk: 16,
            },
            Command::Broadcast {
                buffer: 1,
                data: data[..16].to_vec().into(),
            },
            Command::Launch { spec: fused },
            // Reads both fused outputs: the hazard DAG must order this after
            // the fused launch via its full write set (incl. extra_outputs).
            Command::Launch {
                spec: KernelSpec::new(
                    DpuKernelKind::Elementwise {
                        op: BinOp::Add,
                        len: 16,
                    },
                    vec![2, 3],
                    4,
                ),
            },
            Command::Gather {
                buffer: 4,
                chunk: 16,
            },
        ];

        let mut eager = UpmemSystem::new(small_config(1));
        for _ in 0..5 {
            eager.alloc_buffer(16).unwrap();
        }
        let eager_out = run_eager(&mut eager, &program);

        for threads in [1usize, 2, 8, 0] {
            let mut sys = UpmemSystem::new(small_config(threads));
            for _ in 0..5 {
                sys.alloc_buffer(16).unwrap();
            }
            let mut stream = CommandStream::new();
            for c in &program {
                stream.enqueue(c.clone());
            }
            let out = sys.sync(&mut stream).unwrap();
            assert_eq!(out, eager_out, "threads = {threads}");
            assert_eq!(sys.stats(), eager.stats(), "threads = {threads}");
        }
    }

    #[test]
    fn sync_rejects_hand_built_specs_with_wrong_arity() {
        let mut sys = UpmemSystem::new(small_config(2));
        let a = sys.alloc_buffer(8).unwrap();
        // Bypass the KernelSpec::new arity assert via the public fields.
        let mut spec = KernelSpec::new(
            DpuKernelKind::Reduce {
                op: BinOp::Add,
                len: 8,
            },
            vec![a],
            a,
        );
        spec.inputs.clear();
        let mut stream = CommandStream::new();
        stream.enqueue(Command::Launch { spec });
        let err = sys.sync(&mut stream).unwrap_err();
        assert!(err.message().contains("expects 1 inputs"), "{err}");
        assert_eq!(sys.stats().launches, 0);
    }

    #[test]
    fn sync_is_transactional_on_validation_errors() {
        let mut sys = UpmemSystem::new(small_config(2));
        let a = sys.alloc_buffer(8).unwrap();
        let mut stream = CommandStream::new();
        stream.enqueue(Command::Scatter {
            buffer: a,
            data: vec![1; 32].into(),
            chunk: 8,
        });
        // Invalid: chunk exceeds the buffer.
        stream.enqueue(Command::Gather {
            buffer: a,
            chunk: 9,
        });
        let err = sys.sync(&mut stream).unwrap_err();
        assert!(err.message().contains("exceeds"));
        // Nothing was applied: the scatter did not run.
        assert_eq!(sys.stats().host_to_dpu_bytes, 0);
        assert_eq!(sys.dpu_buffer(0, a).unwrap(), &[0; 8]);
    }

    #[test]
    fn aliased_launch_in_a_stream_reads_pre_launch_state() {
        let mut sys = UpmemSystem::new(small_config(8));
        let a = sys.alloc_buffer(4).unwrap();
        let mut stream = CommandStream::new();
        stream.enqueue(Command::Broadcast {
            buffer: a,
            data: vec![1, 2, 3, 4].into(),
        });
        stream.enqueue(Command::Launch {
            spec: KernelSpec::new(
                DpuKernelKind::Scan {
                    op: BinOp::Add,
                    len: 4,
                },
                vec![a],
                a,
            ),
        });
        let g = stream.enqueue(Command::Gather {
            buffer: a,
            chunk: 4,
        });
        let out = sys.sync(&mut stream).unwrap();
        let gathered = out[g].clone().into_gathered().unwrap();
        assert_eq!(&gathered[..4], &[1, 3, 6, 10]);
    }

    #[test]
    fn faulted_sync_is_transactional_and_resubmission_recovers() {
        let mut oracle = UpmemSystem::new(small_config(1));
        for _ in 0..4 {
            oracle.alloc_buffer(16).unwrap();
        }
        let program = demo_program(0, 1, 2, 3);
        let eager_out = run_eager(&mut oracle, &program);

        // 40% launch + 20% transfer faults over several seeds: every run
        // must converge to the fault-free result, and at least one sync
        // across the sweep must actually fault.
        let mut total_faults = 0;
        for seed in 0..8u64 {
            let fault = cinm_runtime::FaultConfig::seeded(seed)
                .with_launch_fault_rate(0.4)
                .with_transfer_timeout_rate(0.2);
            let mut cfg = small_config(2).with_fault(fault);
            cfg.dpus_per_rank = 4;
            let mut sys = UpmemSystem::new(cfg);
            for _ in 0..4 {
                sys.alloc_buffer(16).unwrap();
            }
            let mut stream = CommandStream::new();
            for c in &program {
                stream.enqueue(c.clone());
            }
            let mut attempts = 0;
            let out = loop {
                attempts += 1;
                assert!(attempts <= 256, "sync never succeeded (seed {seed})");
                match sys.sync(&mut stream) {
                    Ok(out) => break out,
                    Err(e) => {
                        assert!(e.is_transient_fault(), "{e}");
                        // Transactional: the program is still enqueued and
                        // no statistic was accounted.
                        assert_eq!(stream.commands().len(), program.len());
                        assert_eq!(sys.stats().launches, 0);
                        total_faults += 1;
                    }
                }
            };
            assert_eq!(out, eager_out, "seed {seed}");
            assert_eq!(sys.stats(), oracle.stats(), "seed {seed}");
        }
        assert!(
            total_faults > 0,
            "the sweep should inject at least one fault"
        );
    }
}
