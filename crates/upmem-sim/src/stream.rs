//! The batched host API: recording UPMEM commands into a
//! [`CommandStream`] and executing them with [`UpmemSystem::sync`].
//!
//! A PrIM-style host program is a scatter → launch → gather sequence with
//! synchronous launches; this module records such a sequence
//! ([`Command::Scatter`], [`Command::Broadcast`], [`Command::Launch`],
//! [`Command::Gather`]) and [`UpmemSystem::sync`] applies it **in program
//! order**, each command through the body its eager method runs. Results and
//! [`SystemStats`](crate::SystemStats) therefore equal the eager call
//! sequence by construction, for every
//! [`host_threads`](crate::UpmemConfig::host_threads) (which only sets the
//! data parallelism inside a command). `tests/properties.rs` pins this
//! against the eager [`NaiveUpmemSystem`](crate::NaiveUpmemSystem) oracle
//! over randomized interleaved programs with aliasing buffers at thread
//! counts {1, 2, 8}.
//!
//! # Error semantics
//!
//! `sync` validates the whole batch in program order and then draws its
//! fault decisions in program order *before* applying anything: on a
//! validation error (unknown buffer, oversized chunk, bad kernel shape) or an
//! injected fault no buffer is modified and no statistic is accounted — the
//! batch is transactional. (The eager methods instead apply every command
//! preceding the failing one.)

use std::borrow::Cow;

use cinm_runtime::CommandStream;

use crate::kernel::KernelSpec;
use crate::stats::{LaunchStats, TransferStats};
use crate::system::{BufferId, SimResult, UpmemSystem};

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

impl UpmemSystem {
    /// Validates one recorded command without executing it.
    fn validate_command(&self, cmd: &Command<'_>) -> SimResult<()> {
        match cmd {
            Command::Scatter { buffer, chunk, .. } | Command::Gather { buffer, chunk } => {
                self.validate_chunk(*buffer, *chunk)
            }
            Command::Broadcast { buffer, data } => self.validate_broadcast(*buffer, data.len()),
            Command::Launch { spec } => self.validate_launch(spec),
        }
    }

    /// Draws the fault decision for one command. Called in program order
    /// before anything is applied, so the injector consumes exactly the same
    /// event sequence as the eager methods would for the same program — and
    /// a faulted batch leaves the system untouched.
    fn inject_command(&mut self, cmd: &Command<'_>) -> SimResult<()> {
        match cmd {
            Command::Scatter { .. } => self.inject_transfer("scatter"),
            Command::Broadcast { .. } => self.inject_transfer("broadcast"),
            Command::Gather { .. } => self.inject_transfer("gather"),
            Command::Launch { spec } => self.inject_launch(spec),
        }
    }

    /// Applies one validated command past its fault draw, through the body
    /// its eager method runs (functional effect and accounting together).
    fn apply_command(&mut self, cmd: &Command<'_>) -> CommandOutput {
        match cmd {
            Command::Scatter {
                buffer,
                data,
                chunk,
            } => CommandOutput::Transfer(self.apply_scatter(*buffer, data, *chunk)),
            Command::Broadcast { buffer, data } => {
                CommandOutput::Transfer(self.apply_broadcast(*buffer, data))
            }
            Command::Launch { spec } => CommandOutput::Launch(self.apply_launch(spec)),
            Command::Gather { buffer, chunk } => {
                let mut out = Vec::new();
                let t = self.apply_gather(*buffer, *chunk, &mut out);
                CommandOutput::Gather(out, t)
            }
        }
    }

    /// Executes every command recorded in `stream`, in enqueue order, and
    /// returns one [`CommandOutput`] per command in that order.
    ///
    /// The stream is drained. Buffers and accumulated
    /// [`SystemStats`](crate::SystemStats) end up **bit-identical** to
    /// calling the eager methods in enqueue order — each command runs the
    /// eager method's own body — for every
    /// [`host_threads`](crate::UpmemConfig::host_threads).
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
        // Validate and draw before draining: on error the recorded program
        // stays in the stream, so the caller can inspect or resubmit it.
        for cmd in stream.commands() {
            self.validate_command(cmd)?;
        }
        for cmd in stream.commands() {
            self.inject_command(cmd)?;
        }
        let commands = stream.take_commands();
        Ok(commands.iter().map(|cmd| self.apply_command(cmd)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpmemConfig;
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
            // Independent kernel on disjoint buffers.
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
            // Rewrite an input the launches above read, and reduce over it.
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
            // Reads both fused outputs (incl. extra_outputs) of the launch
            // above.
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
            // Distinct pre-batch contents per buffer and DPU, so an applied
            // command would show (statistics are reset before the batch).
            for b in 0..4u32 {
                let prior: Vec<i32> = (0..64).map(|i| i * 7 + b as i32 * 1000 - 99).collect();
                while let Err(e) = sys.scatter_i32(b, &prior, 16) {
                    assert!(e.is_transient_fault(), "{e}");
                }
            }
            sys.reset_stats();
            let before = sys.clone();
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
                        // Transactional: the program is still enqueued, no
                        // statistic was accounted and no buffer of any DPU
                        // changed — wherever in the batch the fault fell.
                        assert_eq!(stream.commands().len(), program.len());
                        assert_eq!(sys.stats(), before.stats(), "seed {seed}");
                        for b in 0..4u32 {
                            for d in 0..sys.num_dpus() {
                                assert_eq!(
                                    sys.dpu_buffer(d, b).unwrap(),
                                    before.dpu_buffer(d, b).unwrap(),
                                    "seed {seed}: buffer {b} of DPU {d} after a faulted sync"
                                );
                            }
                        }
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
