//! The batched host API of the crossbar accelerator: recording tile
//! commands into a [`CommandStream`] and executing them with
//! [`CrossbarAccelerator::sync`].
//!
//! Commands are hazard-tracked on **tile indices**: a
//! [`XbarCommand::WriteTile`] writes its tile, [`XbarCommand::Mvm`] and
//! [`XbarCommand::MvmGroup`] read theirs. The RAW/WAR/WAW dependency DAG
//! from `cinm-runtime` orders programming against the MVMs that consume the
//! weights (and against later re-programming), while MVMs on distinct tiles
//! — or any number of MVMs on the *same* programmed tile — overlap on the
//! shared worker pool.
//!
//! Accounted statistics are folded in **program order** after the batch and
//! are bit-identical to issuing the same calls eagerly: each command's cost
//! is a pure function of the configuration ([`WriteTile`] ↦ one
//! `write_tile`, [`Mvm`] ↦ one `mvm`, [`MvmGroup`] ↦ one `mvm_parallel`
//! batch with single-MVM latency and per-tile energy).
//!
//! Like [`UpmemSystem::sync`] the batch is transactional on validation
//! errors: the program is checked in order (tracking which tiles earlier
//! `WriteTile` commands program) before anything executes.
//!
//! [`WriteTile`]: XbarCommand::WriteTile
//! [`Mvm`]: XbarCommand::Mvm
//! [`MvmGroup`]: XbarCommand::MvmGroup
//! [`UpmemSystem::sync`]: https://docs.rs/upmem-sim

use std::borrow::Cow;
use std::cell::UnsafeCell;

use cinm_runtime::{execute_stream, Access, BufferId, CommandStream, StreamCommand};

use crate::crossbar::{
    mvm_on_weights, program_tile, CimError, CimResult, CrossbarAccelerator, Tile,
};

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

impl StreamCommand for XbarCommand<'_> {
    fn access(&self) -> Access {
        match self {
            XbarCommand::WriteTile { tile, .. } => Access::writes(vec![*tile as BufferId]),
            XbarCommand::Mvm { tile, .. } => Access::reads(vec![*tile as BufferId]),
            XbarCommand::MvmGroup { requests } => {
                Access::reads(requests.iter().map(|(t, _)| *t as BufferId).collect())
            }
        }
    }
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

/// A tile with interior mutability so hazard-independent commands can run
/// concurrently; same invariant as the UPMEM slab session — the hazard DAG
/// guarantees one writer XOR any number of readers per tile at any moment.
struct TileCell(UnsafeCell<Tile>);

// SAFETY: access is coordinated by the hazard DAG — see `TileCell`.
unsafe impl Sync for TileCell {}

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

    /// Executes every command recorded in `stream` and returns one
    /// [`XbarOutput`] per command, in enqueue order.
    ///
    /// Hazard-independent commands execute concurrently on the configured
    /// worker pool — at most
    /// [`host_threads`](crate::CrossbarConfig::host_threads) commands in
    /// flight (`0` = as many as the DAG allows); results and accounted
    /// [`CimStats`](crate::CimStats) are bit-identical to issuing the same
    /// operations eagerly in enqueue order.
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
        // Validate before draining: on error the recorded program stays in
        // the stream, so the caller can inspect or resubmit it. Fault
        // decisions are drawn in the same pass (one per command, in program
        // order — matching the eager issue sequence), so the batch stays
        // transactional under injected faults too.
        let mut programmed: Vec<bool> = self.tiles.iter().map(|t| t.weights.is_some()).collect();
        for cmd in stream.commands() {
            self.validate_xbar_command(cmd, &mut programmed)?;
        }
        for cmd in stream.commands() {
            match cmd {
                XbarCommand::WriteTile { .. } => self.inject_op("tile write")?,
                XbarCommand::Mvm { .. } => self.inject_op("mvm")?,
                XbarCommand::MvmGroup { requests } => {
                    if !requests.is_empty() {
                        self.inject_op("parallel mvm")?;
                    }
                }
            }
        }
        let commands = stream.take_commands();
        if commands.is_empty() {
            return Ok(Vec::new());
        }

        let config = self.config.clone();
        let cells: Vec<TileCell> = std::mem::take(&mut self.tiles)
            .into_iter()
            .map(|t| TileCell(UnsafeCell::new(t)))
            .collect();
        let cells_ref = &cells;
        let cfg = &config;
        // Catch panics from command bodies so the tile storage taken above
        // is always restored — a panicking batch may leave partially
        // programmed tiles, but never strips the accelerator of its array.
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_stream(
                &config.pool,
                config.host_threads,
                &commands,
                move |_, cmd| {
                    let out = match cmd {
                        XbarCommand::WriteTile {
                            tile,
                            weights,
                            rows,
                            cols,
                        } => {
                            let programmed = program_tile(cfg, weights, *rows, *cols);
                            // SAFETY: sole writer of this tile right now (hazard DAG).
                            let slot = unsafe { &mut *cells_ref[*tile].0.get() };
                            *slot = programmed;
                            XbarOutput::Written
                        }
                        XbarCommand::Mvm { tile, input } => {
                            // SAFETY: shared read; no concurrent writer (hazard DAG).
                            let tile_ref = unsafe { &*cells_ref[*tile].0.get() };
                            XbarOutput::Mvm(mvm_on_weights(tile_ref, input.as_ref(), cfg.tile_cols))
                        }
                        XbarCommand::MvmGroup { requests } => {
                            let mut results: Vec<Vec<i32>> = vec![Vec::new(); requests.len()];
                            cfg.pool.for_each_chunk_mut(
                                cfg.host_threads,
                                &mut results,
                                1,
                                |i, slot| {
                                    let (tile, input) = &requests[i];
                                    // SAFETY: shared read (hazard DAG).
                                    let tile_ref = unsafe { &*cells_ref[*tile].0.get() };
                                    slot[0] =
                                        mvm_on_weights(tile_ref, input.as_ref(), cfg.tile_cols);
                                },
                            );
                            XbarOutput::MvmGroup(results)
                        }
                    };
                    Ok::<XbarOutput, std::convert::Infallible>(out)
                },
            )
        }));
        self.tiles = cells.into_iter().map(|c| c.0.into_inner()).collect();
        let results = match results {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        // Scheduler-level failures (a slot left unexecuted or poisoned) can
        // only follow a command panic, which was re-raised above; surface
        // them as errors rather than panicking if that invariant ever bends.
        let results = results.map_err(|e| CimError::new(format!("command stream: {e}")))?;

        let outputs: Vec<XbarOutput> = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| match e {}))
            .collect();

        // Fold statistics in program order (bit-identical to eager calls).
        for out in &outputs {
            match out {
                XbarOutput::Written => self.account_tile_write(),
                XbarOutput::Mvm(_) => self.account_mvm(1),
                XbarOutput::MvmGroup(results) => {
                    if !results.is_empty() {
                        self.account_parallel_mvm(results.len());
                    }
                }
            }
        }
        Ok(outputs)
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
            // Independent MVMs on distinct tiles: overlap.
            XbarCommand::Mvm {
                tile: 0,
                input: vec![1, 1].into(),
            },
            XbarCommand::Mvm {
                tile: 1,
                input: vec![2, -1].into(),
            },
            // Re-program tile 0 (WAR against the MVM above) and re-issue.
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
}
