//! The batched host API of the crossbar accelerator: recording tile
//! commands into a [`CommandStream`] and executing them with
//! [`CrossbarAccelerator::sync`].
//!
//! `sync` applies the recorded commands **in program order**, each through
//! the body its eager method runs ([`WriteTile`] ↦ one `write_tile`, [`Mvm`]
//! ↦ one `mvm`, [`MvmGroup`] ↦ one `mvm_parallel` batch with single-MVM
//! latency and per-tile energy), so results and accounted statistics equal
//! the eager call sequence by construction. A [`MvmGroup`] is data-parallel
//! across [`host_threads`](crate::CrossbarConfig::host_threads) inside the
//! command.
//!
//! Like [`UpmemSystem::sync`] the batch is transactional: the program is
//! validated in order (tracking which tiles earlier `WriteTile` commands
//! program) and its fault decisions are drawn in order before anything is
//! applied.
//!
//! [`WriteTile`]: XbarCommand::WriteTile
//! [`Mvm`]: XbarCommand::Mvm
//! [`MvmGroup`]: XbarCommand::MvmGroup
//! [`UpmemSystem::sync`]: https://docs.rs/upmem-sim

use std::borrow::Cow;

use cinm_runtime::CommandStream;

use crate::crossbar::{CimResult, CrossbarAccelerator};

/// One recorded crossbar operation.
///
/// Payloads are [`Cow`]s so hot paths (the `cinm-lowering` CIM backend's
/// staging arena) can record *borrowed* weight and input slices — recording a
/// command never clones the payload — while owned vectors still work for
/// `'static` programs.
#[derive(Debug, Clone, PartialEq)]
pub enum XbarCommand<'a> {
    /// Program a weight matrix into a tile
    /// (see [`CrossbarAccelerator::write_tile`]).
    WriteTile {
        /// Destination tile.
        tile: usize,
        /// Row-major `rows × cols` weights.
        weights: Cow<'a, [i32]>,
        /// Matrix rows.
        rows: usize,
        /// Matrix columns.
        cols: usize,
    },
    /// One analog MVM on a programmed tile
    /// (see [`CrossbarAccelerator::mvm`]).
    Mvm {
        /// Source tile.
        tile: usize,
        /// Input vector (`len <= tile_rows`).
        input: Cow<'a, [i32]>,
    },
    /// The same MVM issued on several tiles *in parallel* (the
    /// `cim-parallel` configuration; see
    /// [`CrossbarAccelerator::mvm_parallel`]): single-MVM latency, energy
    /// per tile.
    MvmGroup {
        /// `(tile, input)` pairs.
        requests: Vec<(usize, Cow<'a, [i32]>)>,
    },
}

/// The per-command result of a synced stream, in enqueue order.
#[derive(Debug, Clone, PartialEq)]
pub enum XbarOutput {
    /// A [`XbarCommand::WriteTile`] completed.
    Written,
    /// Result vector of a [`XbarCommand::Mvm`].
    Mvm(Vec<i32>),
    /// Result vectors of a [`XbarCommand::MvmGroup`], in request order.
    MvmGroup(Vec<Vec<i32>>),
}

impl XbarOutput {
    /// The single-MVM result, if this was an [`XbarCommand::Mvm`].
    pub fn into_mvm(self) -> Option<Vec<i32>> {
        match self {
            XbarOutput::Mvm(y) => Some(y),
            _ => None,
        }
    }
}

impl CrossbarAccelerator {
    /// Validates one command against the geometry and the set of tiles that
    /// will be programmed once all preceding commands have run, using the
    /// same shared checks
    /// ([`validate_write`](CrossbarAccelerator::validate_write) /
    /// [`validate_mvm`](CrossbarAccelerator::validate_mvm)) as the eager
    /// methods, so both paths accept and reject identical programs.
    fn validate_xbar_command(
        &self,
        cmd: &XbarCommand<'_>,
        programmed: &mut [bool],
    ) -> CimResult<()> {
        match cmd {
            XbarCommand::WriteTile {
                tile,
                weights,
                rows,
                cols,
            } => {
                self.validate_write(*tile, weights.len(), *rows, *cols)?;
                programmed[*tile] = true;
                Ok(())
            }
            XbarCommand::Mvm { tile, input } => {
                self.validate_mvm(*tile, input.len(), |t| programmed[t])
            }
            XbarCommand::MvmGroup { requests } => {
                for (tile, input) in requests {
                    self.validate_mvm(*tile, input.len(), |t| programmed[t])?;
                }
                Ok(())
            }
        }
    }

    /// Draws the fault decision of one command — one per issued command, as
    /// the eager methods do (an empty `MvmGroup` issues nothing).
    fn inject_xbar_command(&mut self, cmd: &XbarCommand<'_>) -> CimResult<()> {
        match cmd {
            XbarCommand::WriteTile { .. } => self.inject_op("tile write"),
            XbarCommand::Mvm { .. } => self.inject_op("mvm"),
            XbarCommand::MvmGroup { requests } if requests.is_empty() => Ok(()),
            XbarCommand::MvmGroup { .. } => self.inject_op("parallel mvm"),
        }
    }

    /// Applies one validated command past its fault draw, through the body
    /// its eager method runs (functional effect and accounting together).
    fn apply_xbar_command(&mut self, cmd: &XbarCommand<'_>) -> XbarOutput {
        match cmd {
            XbarCommand::WriteTile {
                tile,
                weights,
                rows,
                cols,
            } => {
                self.apply_write(*tile, weights, *rows, *cols);
                XbarOutput::Written
            }
            XbarCommand::Mvm { tile, input } => XbarOutput::Mvm(self.apply_mvm(*tile, input)),
            XbarCommand::MvmGroup { requests } => {
                XbarOutput::MvmGroup(self.apply_mvm_parallel(requests))
            }
        }
    }

    /// Executes every command recorded in `stream`, in enqueue order, and
    /// returns one [`XbarOutput`] per command in that order.
    ///
    /// Results and accounted [`CimStats`](crate::CimStats) are bit-identical
    /// to issuing the same operations eagerly in enqueue order — each command
    /// runs the eager method's own body — for every
    /// [`host_threads`](crate::CrossbarConfig::host_threads).
    ///
    /// # Errors
    ///
    /// The whole batch is validated in program order before execution; on
    /// the first invalid command — or injected fault, when a
    /// [`FaultConfig`](cinm_runtime::FaultConfig) is attached — an error is
    /// returned and **nothing** is applied (no tile changes, no statistics).
    /// The recorded program is left in the stream so it can be resubmitted:
    /// a retried batch after a transient fault produces exactly the results
    /// and statistics of an unfaulted one.
    pub fn sync(
        &mut self,
        stream: &mut CommandStream<XbarCommand<'_>>,
    ) -> CimResult<Vec<XbarOutput>> {
        // Validate and draw before draining: on error the recorded program
        // stays in the stream, so the caller can inspect or resubmit it.
        let mut programmed = self.programmed_tiles();
        for cmd in stream.commands() {
            self.validate_xbar_command(cmd, &mut programmed)?;
        }
        for cmd in stream.commands() {
            self.inject_xbar_command(cmd)?;
        }
        let commands = stream.take_commands();
        Ok(commands
            .iter()
            .map(|cmd| self.apply_xbar_command(cmd))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossbarConfig;

    fn xbar(threads: usize) -> CrossbarAccelerator {
        CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(threads))
    }

    fn demo_program() -> Vec<XbarCommand<'static>> {
        vec![
            XbarCommand::WriteTile {
                tile: 0,
                weights: vec![1, 2, 3, 4].into(),
                rows: 2,
                cols: 2,
            },
            XbarCommand::WriteTile {
                tile: 1,
                weights: vec![5, 6, 7, 8].into(),
                rows: 2,
                cols: 2,
            },
            // MVMs on distinct tiles.
            XbarCommand::Mvm {
                tile: 0,
                input: vec![1, 1].into(),
            },
            XbarCommand::Mvm {
                tile: 1,
                input: vec![2, -1].into(),
            },
            // Re-program tile 0 (which the MVM above read) and re-issue.
            XbarCommand::WriteTile {
                tile: 0,
                weights: vec![-1, 0, 0, -1].into(),
                rows: 2,
                cols: 2,
            },
            XbarCommand::MvmGroup {
                requests: vec![(0, vec![3, 4].into()), (1, vec![1, 0].into())],
            },
        ]
    }

    /// The same program through the eager methods.
    fn run_eager(x: &mut CrossbarAccelerator, program: &[XbarCommand<'_>]) -> Vec<XbarOutput> {
        program
            .iter()
            .map(|cmd| match cmd {
                XbarCommand::WriteTile {
                    tile,
                    weights,
                    rows,
                    cols,
                } => {
                    x.write_tile(*tile, weights, *rows, *cols).unwrap();
                    XbarOutput::Written
                }
                XbarCommand::Mvm { tile, input } => XbarOutput::Mvm(x.mvm(*tile, input).unwrap()),
                XbarCommand::MvmGroup { requests } => {
                    let borrowed: Vec<(usize, &[i32])> =
                        requests.iter().map(|(t, v)| (*t, v.as_ref())).collect();
                    XbarOutput::MvmGroup(x.mvm_parallel(&borrowed).unwrap())
                }
            })
            .collect()
    }

    #[test]
    fn sync_matches_eager_execution_for_all_thread_counts() {
        let program = demo_program();
        let mut eager = xbar(1);
        let eager_out = run_eager(&mut eager, &program);
        for threads in [1usize, 2, 8, 0] {
            let mut x = xbar(threads);
            let mut stream = CommandStream::new();
            for c in &program {
                stream.enqueue(c.clone());
            }
            let out = x.sync(&mut stream).unwrap();
            assert_eq!(out, eager_out, "threads = {threads}");
            assert_eq!(x.stats(), eager.stats(), "threads = {threads}");
            assert_eq!(x.tile_weights(0), eager.tile_weights(0));
            assert_eq!(x.tile_weights(1), eager.tile_weights(1));
        }
    }

    #[test]
    fn sync_is_transactional_on_validation_errors() {
        let mut x = xbar(2);
        let mut stream = CommandStream::new();
        stream.enqueue(XbarCommand::WriteTile {
            tile: 0,
            weights: vec![1].into(),
            rows: 1,
            cols: 1,
        });
        // Tile 1 is never programmed: the whole batch must fail untouched.
        stream.enqueue(XbarCommand::Mvm {
            tile: 1,
            input: vec![1].into(),
        });
        let err = x.sync(&mut stream).unwrap_err();
        assert!(err.message().contains("not been programmed"));
        assert_eq!(x.stats().tile_writes, 0);
        assert!(x.tile_weights(0).is_none());
    }

    #[test]
    fn mvm_after_in_stream_write_sees_the_new_weights() {
        let mut x = xbar(8);
        let mut stream = CommandStream::new();
        stream.enqueue(XbarCommand::WriteTile {
            tile: 2,
            weights: vec![2, 0, 0, 2].into(),
            rows: 2,
            cols: 2,
        });
        let m = stream.enqueue(XbarCommand::Mvm {
            tile: 2,
            input: vec![10, 20].into(),
        });
        let out = x.sync(&mut stream).unwrap();
        let y = out[m].clone().into_mvm().unwrap();
        assert_eq!(&y[..2], &[20, 40]);
    }

    #[test]
    fn faulted_sync_is_transactional_and_resubmission_recovers() {
        let program = demo_program();
        let mut oracle = xbar(1);
        let eager_out = run_eager(&mut oracle, &program);

        // 20% faults per issued command over several seeds: every run must
        // converge to the fault-free result, and at least one sync across
        // the sweep must actually fault.
        let mut total_faults = 0;
        for seed in 0..8u64 {
            let fault = cinm_runtime::FaultConfig::seeded(seed).with_transfer_timeout_rate(0.2);
            let config = CrossbarConfig::default()
                .with_host_threads(2)
                .with_fault(fault);
            let mut x = CrossbarAccelerator::new(config);
            // Prior weights in both tiles, so an applied write would show
            // (statistics are reset before the batch).
            for tile in 0..2 {
                while let Err(e) = x.write_tile(tile, &[9, 8, 7, 6], 2, 2) {
                    assert!(e.is_transient_fault(), "{e}");
                }
            }
            x.reset_stats();
            let before = x.clone();
            let mut stream = CommandStream::new();
            for c in &program {
                stream.enqueue(c.clone());
            }
            let mut attempts = 0;
            let out = loop {
                attempts += 1;
                assert!(attempts <= 256, "sync never succeeded (seed {seed})");
                match x.sync(&mut stream) {
                    Ok(out) => break out,
                    Err(e) => {
                        assert!(e.is_transient_fault(), "{e}");
                        // Transactional: the program is still enqueued, no
                        // statistic was accounted and no tile was
                        // re-programmed — wherever in the batch the fault fell.
                        assert_eq!(stream.commands().len(), program.len());
                        assert_eq!(x.stats(), before.stats(), "seed {seed}");
                        for tile in 0..x.num_tiles() {
                            assert_eq!(
                                x.tile_weights(tile),
                                before.tile_weights(tile),
                                "seed {seed}: tile {tile} after a faulted sync"
                            );
                        }
                        total_faults += 1;
                    }
                }
            };
            assert_eq!(out, eager_out, "seed {seed}");
            assert_eq!(x.stats(), oracle.stats(), "seed {seed}");
        }
        assert!(
            total_faults > 0,
            "the sweep should inject at least one fault"
        );
    }
}
