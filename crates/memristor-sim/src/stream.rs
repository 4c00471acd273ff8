//! The batched host API of the crossbar accelerator: recording tile
//! commands into a [`CommandStream`] and executing them with
//! [`CrossbarAccelerator::sync`].
//!
//! `sync` applies the recorded commands **in program order**, each through
//! the body its eager method runs: [`WriteTile`] ↦ one `write_tile`;
//! [`MvmBand`] ↦ the MVMs of one output row band against a batch of
//! programmed tiles — one `mvm_parallel` issue per input row when
//! `parallel` (single-MVM latency, per-tile energy), one `mvm` per tile and
//! row otherwise — validated, fault-drawn and accounted issue by issue, so
//! results and statistics equal the eager call sequence by construction. A
//! band borrows its input rows from the caller's matrix and accumulates
//! every MVM straight into the output matrix passed to `sync`: no vector is
//! built per MVM. Its rows are data-parallel across
//! [`host_threads`](crate::CrossbarConfig::host_threads) inside the command.
//!
//! Like [`UpmemSystem::sync`] the batch is transactional: the program is
//! validated in order (tracking which tiles earlier `WriteTile` commands
//! program) and its fault decisions are drawn in order before anything is
//! applied.
//!
//! [`WriteTile`]: XbarCommand::WriteTile
//! [`MvmBand`]: XbarCommand::MvmBand
//! [`UpmemSystem::sync`]: https://docs.rs/upmem-sim

use std::borrow::Cow;

use cinm_runtime::CommandStream;

use crate::crossbar::{CimError, CimResult, CrossbarAccelerator};

/// One tile's share of an [`XbarCommand::MvmBand`]: the block
/// `[row, row + rows) × [col, col + cols)` of the stationary operand that
/// crossbar tile `tile` holds. Input row `r` of the band feeds the tile
/// `a[r * k + row..][..rows]`, and the tile's MVM accumulates into columns
/// `[col, col + cols)` of output row `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandTile {
    /// The programmed crossbar tile.
    pub tile: usize,
    /// First input column the tile consumes.
    pub row: usize,
    /// Input elements per MVM (`<= tile_rows`).
    pub rows: usize,
    /// First output column the tile produces.
    pub col: usize,
    /// Output columns per MVM.
    pub cols: usize,
}

/// One recorded crossbar operation.
///
/// Payloads are borrowed: a weight block is a [`Cow`] (the `cinm-lowering`
/// CIM backend records slices of its staging arena, owned vectors still work
/// for `'static` programs) and a band reads its input rows in place from the
/// caller's matrix — recording a command never clones a payload.
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
    /// The analog MVMs of output rows `[row0, row0 + rows)` against `tiles`:
    /// `c[r, t.col..][..t.cols] += a[r, t.row..][..t.rows] × W[t.tile]` for
    /// every row `r` of the band and every tile `t`, where `c` is the output
    /// matrix handed to [`CrossbarAccelerator::sync`].
    MvmBand {
        /// Row-major input matrix with `k` columns.
        a: &'a [i32],
        /// Columns of `a`.
        k: usize,
        /// Columns of the output matrix.
        n: usize,
        /// First row of the band (of `a` and of the output).
        row0: usize,
        /// Rows in the band.
        rows: usize,
        /// The programmed tiles each row is multiplied with.
        tiles: &'a [BandTile],
        /// Issue each row on all tiles at once (the `cim-parallel`
        /// configuration; see [`CrossbarAccelerator::mvm_parallel`]) instead
        /// of one [`mvm`](CrossbarAccelerator::mvm) per tile and row
        /// (tile-major).
        parallel: bool,
    },
}

impl XbarCommand<'_> {
    /// Device command issues this command stands for — what the eager call
    /// sequence would issue one by one, each with its own fault decision: one
    /// per tile write, one per row of a parallel band (none when it has no
    /// tiles), one per tile and row otherwise.
    pub fn issues(&self) -> usize {
        match *self {
            XbarCommand::WriteTile { .. } => 1,
            XbarCommand::MvmBand {
                rows,
                tiles,
                parallel: true,
                ..
            } => rows * usize::from(!tiles.is_empty()),
            XbarCommand::MvmBand { rows, tiles, .. } => rows * tiles.len(),
        }
    }
}

impl CrossbarAccelerator {
    /// Validates one command against the geometry and the set of tiles that
    /// will be programmed once all preceding commands have run, using the
    /// same shared checks
    /// ([`validate_write`](CrossbarAccelerator::validate_write) /
    /// [`validate_mvm`](CrossbarAccelerator::validate_mvm)) as the eager
    /// methods, so both paths accept and reject identical programs. A band
    /// additionally has to lie inside its input matrix and the `c_len`
    /// elements of the output matrix.
    fn validate_xbar_command(
        &self,
        cmd: &XbarCommand<'_>,
        programmed: &mut [bool],
        c_len: usize,
    ) -> CimResult<()> {
        match *cmd {
            XbarCommand::WriteTile {
                tile,
                ref weights,
                rows,
                cols,
            } => {
                self.validate_write(tile, weights.len(), rows, cols)?;
                programmed[tile] = true;
                Ok(())
            }
            XbarCommand::MvmBand {
                a,
                k,
                n,
                row0,
                rows,
                tiles,
                ..
            } => {
                let end = row0 + rows;
                if end * k > a.len() || end * n > c_len {
                    return Err(CimError::new(format!(
                        "band rows {row0}..{end} exceed the {}-element input (k = {k}) \
                         or the {c_len}-element output (n = {n})",
                        a.len()
                    )));
                }
                for t in tiles {
                    self.validate_mvm(t.tile, t.rows, |i| programmed[i])?;
                    if t.row + t.rows > k || t.col + t.cols > n {
                        return Err(CimError::new(format!(
                            "tile {} block {}+{} x {}+{} exceeds the {k} x {n} operand",
                            t.tile, t.row, t.rows, t.col, t.cols
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Draws the fault decisions of one command — one per
    /// [issue](XbarCommand::issues), as the eager methods do.
    fn inject_xbar_command(&mut self, cmd: &XbarCommand<'_>) -> CimResult<()> {
        let what = match cmd {
            XbarCommand::WriteTile { .. } => "tile write",
            XbarCommand::MvmBand { parallel: true, .. } => "parallel mvm",
            XbarCommand::MvmBand { .. } => "mvm",
        };
        (0..cmd.issues()).try_for_each(|_| self.inject_op(what))
    }

    /// Applies one validated command past its fault draws, through the body
    /// its eager method runs (functional effect and accounting together).
    fn apply_xbar_command(&mut self, cmd: &XbarCommand<'_>, c: &mut [i32]) {
        match *cmd {
            XbarCommand::WriteTile {
                tile,
                ref weights,
                rows,
                cols,
            } => self.apply_write(tile, weights, rows, cols),
            XbarCommand::MvmBand {
                a,
                k,
                n,
                row0,
                rows,
                tiles,
                parallel,
            } => {
                let band = &mut c[row0 * n..(row0 + rows) * n];
                self.apply_mvm_band(&a[row0 * k..], k, band, n, rows, tiles, parallel);
            }
        }
    }

    /// Executes every command recorded in `stream`, in enqueue order,
    /// accumulating the MVMs of its bands into the row-major output matrix
    /// `c` (left untouched by a stream of tile writes).
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
    /// returned and **nothing** is applied (no tile changes, no statistics,
    /// `c` untouched). The recorded program is left in the stream so it can
    /// be resubmitted: a retried batch after a transient fault produces
    /// exactly the results and statistics of an unfaulted one.
    pub fn sync(
        &mut self,
        stream: &mut CommandStream<XbarCommand<'_>>,
        c: &mut [i32],
    ) -> CimResult<()> {
        // Validate and draw before draining: on error the recorded program
        // stays in the stream, so the caller can inspect or resubmit it.
        let mut programmed = self.programmed_tiles();
        for cmd in stream.commands() {
            self.validate_xbar_command(cmd, &mut programmed, c.len())?;
        }
        for cmd in stream.commands() {
            self.inject_xbar_command(cmd)?;
        }
        for cmd in stream.take_commands() {
            self.apply_xbar_command(&cmd, c);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrossbarConfig;

    fn xbar(threads: usize) -> CrossbarAccelerator {
        CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(threads))
    }

    fn write(tile: usize, weights: Vec<i32>) -> XbarCommand<'static> {
        XbarCommand::WriteTile {
            tile,
            weights: weights.into(),
            rows: 2,
            cols: 2,
        }
    }

    /// A 3×4 input matrix (`k = 4`) and the two 2×2 blocks of a 4×2 operand
    /// (`n = 2`): both tiles feed the same output columns from different
    /// input columns, so every band accumulates.
    const A: [i32; 12] = [1, 1, 2, -1, 3, 4, 1, 0, -2, 5, 0, 7];
    const TILES: [BandTile; 2] = [
        BandTile {
            tile: 0,
            row: 0,
            rows: 2,
            col: 0,
            cols: 2,
        },
        BandTile {
            tile: 1,
            row: 2,
            rows: 2,
            col: 0,
            cols: 2,
        },
    ];

    fn band(
        row0: usize,
        rows: usize,
        tiles: &'static [BandTile],
        parallel: bool,
    ) -> XbarCommand<'static> {
        XbarCommand::MvmBand {
            a: &A,
            k: 4,
            n: 2,
            row0,
            rows,
            tiles,
            parallel,
        }
    }

    fn demo_program() -> Vec<XbarCommand<'static>> {
        vec![
            write(0, vec![1, 2, 3, 4]),
            write(1, vec![5, 6, 7, 8]),
            // Single MVMs, tile-major, on a two-row band and on each tile
            // alone.
            band(0, 2, &TILES, false),
            band(2, 1, &TILES[..1], false),
            band(2, 1, &TILES[1..], true),
            // Re-program tile 0 (which the MVMs above read) and re-issue
            // every row on both tiles in parallel.
            write(0, vec![-1, 0, 0, -1]),
            band(0, 3, &TILES, true),
        ]
    }

    /// The same program through the eager methods: a band is the
    /// `mvm_parallel` call per row (`parallel`) or the `mvm` call per tile
    /// and row that it stands for, each result added into `c`.
    fn run_eager(x: &mut CrossbarAccelerator, program: &[XbarCommand<'_>], c: &mut [i32]) {
        let merge = |c: &mut [i32], n: usize, r: usize, t: &BandTile, y: &[i32]| {
            for (dst, v) in c[r * n + t.col..][..t.cols].iter_mut().zip(y) {
                *dst = dst.wrapping_add(*v);
            }
        };
        for cmd in program {
            match *cmd {
                XbarCommand::WriteTile {
                    tile,
                    ref weights,
                    rows,
                    cols,
                } => x.write_tile(tile, weights, rows, cols).unwrap(),
                XbarCommand::MvmBand {
                    a,
                    k,
                    n,
                    row0,
                    rows,
                    tiles,
                    parallel,
                } => {
                    let input = |r: usize, t: &BandTile| &a[r * k + t.row..][..t.rows];
                    if parallel {
                        for r in row0..row0 + rows {
                            let requests: Vec<(usize, &[i32])> =
                                tiles.iter().map(|t| (t.tile, input(r, t))).collect();
                            let results = x.mvm_parallel(&requests).unwrap();
                            for (t, y) in tiles.iter().zip(&results) {
                                merge(c, n, r, t, y);
                            }
                        }
                    } else {
                        for t in tiles {
                            for r in row0..row0 + rows {
                                let y = x.mvm(t.tile, input(r, t)).unwrap();
                                merge(c, n, r, t, &y);
                            }
                        }
                    }
                }
            }
        }
    }

    fn record<'a>(program: &[XbarCommand<'a>]) -> CommandStream<XbarCommand<'a>> {
        let mut stream = CommandStream::new();
        for c in program {
            stream.enqueue(c.clone());
        }
        stream
    }

    #[test]
    fn sync_matches_eager_execution_for_all_thread_counts() {
        let program = demo_program();
        let mut eager = xbar(1);
        let mut eager_c = vec![100i32; 6];
        run_eager(&mut eager, &program, &mut eager_c);
        // By hand: rows 0..2 on the first weights, row 2 on both tiles, then
        // every row again on the re-programmed tile 0 and tile 1.
        assert_ne!(eager_c, vec![100i32; 6]);
        for threads in [1usize, 2, 8, 0] {
            let mut x = xbar(threads);
            let mut stream = record(&program);
            let mut c = vec![100i32; 6];
            x.sync(&mut stream, &mut c).unwrap();
            assert!(stream.is_empty());
            assert_eq!(c, eager_c, "threads = {threads}");
            assert_eq!(x.stats(), eager.stats(), "threads = {threads}");
            assert_eq!(x.tile_weights(0), eager.tile_weights(0));
            assert_eq!(x.tile_weights(1), eager.tile_weights(1));
        }
    }

    /// A band against the eager `mvm` / `mvm_parallel` sequence on a real
    /// decomposition: a 150×100 input against a 100×70 operand in 64×64
    /// tiles (ragged in every dimension, the last band 22 rows), in batches
    /// of one and of four tiles, grouped and not.
    #[test]
    fn bands_match_the_eager_mvm_sequence_for_grouped_and_ungrouped_batches() {
        let (m, k, n, tile) = (150usize, 100usize, 70usize, 64usize);
        let a: Vec<i32> = (0..m * k).map(|i| (i * 7 % 23) as i32 - 11).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i * 5 % 17) as i32 - 8).collect();
        let blocks: Vec<BandTile> = (0..k.div_ceil(tile))
            .flat_map(|bi| (0..n.div_ceil(tile)).map(move |bj| (bi * tile, bj * tile)))
            .enumerate()
            .map(|(slot, (row, col))| BandTile {
                tile: slot,
                row,
                rows: tile.min(k - row),
                col,
                cols: tile.min(n - col),
            })
            .collect();
        assert_eq!(blocks.len(), 4);
        let weights: Vec<Vec<i32>> = blocks
            .iter()
            .map(|t| {
                (0..t.rows)
                    .flat_map(|r| b[(t.row + r) * n + t.col..][..t.cols].to_vec())
                    .collect()
            })
            .collect();
        for (group, parallel) in [(1usize, false), (4, false), (4, true), (1, true)] {
            // Batches of `group` tiles: program them into slots 0..group,
            // then one band per 64 output rows.
            let batches: Vec<Vec<BandTile>> = blocks
                .chunks(group)
                .map(|batch| {
                    batch
                        .iter()
                        .enumerate()
                        .map(|(slot, t)| BandTile { tile: slot, ..*t })
                        .collect()
                })
                .collect();
            let mut program = Vec::new();
            for (bi, batch) in batches.iter().enumerate() {
                for (slot, t) in batch.iter().enumerate() {
                    program.push(XbarCommand::WriteTile {
                        tile: slot,
                        weights: weights[bi * group + slot].as_slice().into(),
                        rows: t.rows,
                        cols: t.cols,
                    });
                }
                for row0 in (0..m).step_by(tile) {
                    program.push(XbarCommand::MvmBand {
                        a: &a,
                        k,
                        n,
                        row0,
                        rows: tile.min(m - row0),
                        tiles: batch,
                        parallel,
                    });
                }
            }
            let mut eager = xbar(1);
            let mut want = vec![0i32; m * n];
            run_eager(&mut eager, &program, &mut want);
            // The product itself, so both sides are checked against the math.
            let product: Vec<i32> = (0..m * n)
                .map(|i| {
                    (0..k).fold(0i32, |acc, l| {
                        acc.wrapping_add(a[i / n * k + l].wrapping_mul(b[l * n + i % n]))
                    })
                })
                .collect();
            assert_eq!(want, product);
            for threads in [1usize, 2, 8, 0] {
                let mut x = xbar(threads);
                let mut c = vec![0i32; m * n];
                x.sync(&mut record(&program), &mut c).unwrap();
                let case = format!("group {group}, parallel {parallel}, threads {threads}");
                assert_eq!(c, want, "{case}");
                assert_eq!(x.stats(), eager.stats(), "{case}");
            }
            let issues: usize = program.iter().map(XbarCommand::issues).sum();
            assert_eq!(
                issues as u64,
                eager.stats().tile_writes
                    + if parallel && group > 1 {
                        (m * batches.len()) as u64
                    } else {
                        eager.stats().mvm_ops
                    },
                "group {group}, parallel {parallel}"
            );
        }
    }

    #[test]
    fn sync_is_transactional_on_validation_errors() {
        let mut x = xbar(2);
        let mut c = vec![7i32; 6];
        // Tile 1 is never programmed: the whole batch must fail untouched.
        let mut stream = record(&[write(0, vec![1, 2, 3, 4]), band(0, 1, &TILES, false)]);
        let err = x.sync(&mut stream, &mut c).unwrap_err();
        assert!(err.message().contains("not been programmed"));
        assert_eq!(x.stats().tile_writes, 0);
        assert!(x.tile_weights(0).is_none());
        assert_eq!(c, vec![7i32; 6]);
        assert_eq!(stream.len(), 2);
    }

    #[test]
    fn bands_outside_their_matrices_are_rejected_before_anything_runs() {
        static WIDE: [BandTile; 1] = [BandTile {
            tile: 0,
            row: 3,
            rows: 2,
            col: 0,
            cols: 2,
        }];
        static RIGHT: [BandTile; 1] = [BandTile {
            tile: 0,
            row: 0,
            rows: 2,
            col: 1,
            cols: 2,
        }];
        for (bad, c_len) in [
            (band(2, 2, &TILES[..1], false), 8), // rows 2..4 of a 3-row input
            (band(0, 3, &TILES[..1], true), 4),  // 3 rows into a 2-row output
            (band(0, 1, &WIDE, false), 6),       // input columns 3..5 of 4
            (band(0, 1, &RIGHT, true), 6),       // output columns 1..3 of 2
        ] {
            let mut x = xbar(1);
            let mut c = vec![0i32; c_len];
            let mut stream = record(&[write(0, vec![1, 2, 3, 4]), bad.clone()]);
            let err = x.sync(&mut stream, &mut c).unwrap_err();
            assert!(err.fault_kind().is_none(), "{bad:?}: {err}");
            assert!(err.message().contains("exceed"), "{bad:?}: {err}");
            assert_eq!(x.stats().tile_writes, 0, "{bad:?}");
            assert!(c.iter().all(|&v| v == 0), "{bad:?}");
        }
        // An empty band issues nothing.
        let mut x = xbar(1);
        let mut stream = record(&[write(0, vec![1, 2, 3, 4]), band(3, 0, &TILES[..1], true)]);
        x.sync(&mut stream, &mut [0; 6]).unwrap();
        assert_eq!(x.stats().tile_writes, 1);
        assert_eq!(x.stats().mvm_ops, 0);
    }

    #[test]
    fn mvm_after_in_stream_write_sees_the_new_weights() {
        static ONE: [BandTile; 1] = [BandTile {
            tile: 2,
            row: 0,
            rows: 2,
            col: 0,
            cols: 2,
        }];
        let mut x = xbar(8);
        let mut stream = CommandStream::new();
        stream.enqueue(write(2, vec![2, 0, 0, 2]));
        stream.enqueue(XbarCommand::MvmBand {
            a: &[10, 20],
            k: 2,
            n: 2,
            row0: 0,
            rows: 1,
            tiles: &ONE,
            parallel: false,
        });
        let mut y = [0i32; 2];
        x.sync(&mut stream, &mut y).unwrap();
        assert_eq!(y, [20, 40]);
    }

    #[test]
    fn faulted_sync_is_transactional_and_resubmission_recovers() {
        let program = demo_program();
        let mut oracle = xbar(1);
        let mut want = vec![-5i32; 6];
        run_eager(&mut oracle, &program, &mut want);

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
            let mut stream = record(&program);
            let mut c = vec![-5i32; 6];
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(attempts <= 4096, "sync never succeeded (seed {seed})");
                match x.sync(&mut stream, &mut c) {
                    Ok(()) => break,
                    Err(e) => {
                        assert!(e.is_transient_fault(), "{e}");
                        // Transactional: the program is still enqueued, no
                        // statistic was accounted, no tile was re-programmed
                        // and no MVM reached the output — wherever in the
                        // batch the fault fell.
                        assert_eq!(stream.commands().len(), program.len());
                        assert_eq!(x.stats(), before.stats(), "seed {seed}");
                        assert_eq!(c, vec![-5i32; 6], "seed {seed}: output after a fault");
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
            }
            assert_eq!(c, want, "seed {seed}");
            assert_eq!(x.stats(), oracle.stats(), "seed {seed}");
        }
        assert!(
            total_faults > 0,
            "the sweep should inject at least one fault"
        );
    }
}
