//! The one crossbar schedule (paper Section 3.2.4), the crossbar's twin of
//! [`CnmOp::geometry`](crate::cnm_op::CnmOp::geometry): the tile writes and
//! MVM bands of a `cim` GEMM. [`CimBackend`](crate::CimBackend) walks it and
//! [`CimCostModel`](crate::CimCostModel) prices it. `B` is tiled into
//! `tile_rows × tile_cols` blocks, programmed row-major, or column-major
//! under `cim-min-writes` (the loop interchange), in batches of `num_tiles`
//! under `cim-parallel` (one tile otherwise); output rows go in bands of
//! `tile_rows`. It is a few integers, and every count is closed-form. The
//! orchestrating ARM host is part of the schedule too: it issues every
//! command ([`SECONDS_PER_COMMAND`] each) and merges the partial results in one
//! pass over the output ([`CimSchedule::merge`]).

use cpu_sim::model::{CpuModel, OpCounts};
use memristor_sim::{BandTile, CrossbarConfig};

/// Host seconds charged per crossbar command issue.
pub(crate) const SECONDS_PER_COMMAND: f64 = 50.0e-9;

/// The crossbar schedule of one GEMM (see the [module documentation](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CimSchedule {
    m: usize,
    /// `B` is `k × n`.
    b: (usize, usize),
    /// `(tile_rows, tile_cols)`.
    edge: (usize, usize),
    /// Tiles of `B` along `k` and along `n`.
    grid: (usize, usize),
    /// Tiles per batch.
    group: usize,
    min_writes: bool,
}

impl CimSchedule {
    /// The schedule of `C[m×n] = A[m×k] × B[k×n]` on the geometry of
    /// `config` under the `(cim-min-writes, cim-parallel)` flags. A product
    /// with nothing to compute (`m`, `k` or `n` of zero) issues no command.
    pub(crate) fn new(
        (m, k, n): (usize, usize, usize),
        config: &CrossbarConfig,
        (min_writes, parallel_tiles): (bool, bool),
    ) -> Self {
        let edge = (config.tile_rows.max(1), config.tile_cols.max(1));
        let m = if k == 0 || n == 0 { 0 } else { m };
        let (k, n) = if m == 0 { (0, 0) } else { (k, n) };
        CimSchedule {
            m,
            b: (k, n),
            edge,
            grid: (k.div_ceil(edge.0), n.div_ceil(edge.1)),
            group: if parallel_tiles { config.num_tiles } else { 1 }.max(1),
            min_writes,
        }
    }

    /// `(tile rows, tiles per batch)`: the tile edge the product is blocked
    /// by and how many tiles are programmed and run together.
    pub(crate) fn blocking(&self) -> (usize, usize) {
        (self.edge.0, self.group)
    }

    /// Crossbar tiles `B` occupies.
    fn tiles(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    fn batches(&self) -> usize {
        self.tiles().div_ceil(self.group)
    }

    fn bands(&self) -> usize {
        self.m.div_ceil(self.edge.0)
    }

    /// Tile writes: each tile once per band, or once under `cim-min-writes`.
    pub(crate) fn tile_writes(&self) -> usize {
        self.tiles() * if self.min_writes { 1 } else { self.bands() }
    }

    /// MVMs, one per output row and tile (`CimStats::mvm_ops`; energy).
    pub(crate) fn mvms(&self) -> usize {
        self.m * self.tiles()
    }

    /// MVM latencies, one per output row and batch (its tiles overlap).
    fn latency_mvms(&self) -> usize {
        self.m * self.batches()
    }

    /// Host command issues: one per tile write and per MVM latency.
    pub(crate) fn host_issues(&self) -> usize {
        self.tile_writes() + self.latency_mvms()
    }

    /// The host's pass over the `m × n` output that merges the partial
    /// results (`cinm.mergePartial`), or `None` for a product with nothing
    /// to compute.
    pub(crate) fn merge(&self) -> Option<OpCounts> {
        let out = (self.m * self.b.1) as f64;
        (out > 0.0).then_some(OpCounts {
            int_ops: out,
            mul_ops: 0.0,
            bytes_read: out * 4.0,
            bytes_written: out * 4.0,
        })
    }

    /// The walk in command order, as `(batch, row band, program the batch
    /// first?)` steps: under `cim-min-writes` a batch is programmed at its
    /// first band and kept for the rest; otherwise each band programs every
    /// batch before its MVMs.
    pub(crate) fn steps(self) -> impl Iterator<Item = (usize, usize, bool)> {
        let (batches, bands, min_writes) = (self.batches(), self.bands(), self.min_writes);
        (0..batches * bands).map(move |s| {
            if min_writes {
                (s / bands, s % bands, s % bands == 0)
            } else {
                (s % batches, s / batches, true)
            }
        })
    }

    /// The tiles of batch `b`, each bound to the slot it is programmed into.
    pub(crate) fn batch(&self, b: usize) -> impl Iterator<Item = BandTile> + '_ {
        let ((k, n), (tr, tc), (along_k, along_n)) = (self.b, self.edge, self.grid);
        let first = b * self.group;
        (first..(first + self.group).min(self.tiles())).map(move |i| {
            let (r, c) = if self.min_writes {
                (i % along_k, i / along_k)
            } else {
                (i / along_n, i % along_n)
            };
            let (row, col) = (r * tr, c * tc);
            let (rows, cols) = (tr.min(k - row), tc.min(n - col));
            BandTile {
                tile: i % self.group,
                row,
                rows,
                col,
                cols,
            }
        })
    }

    /// The output rows `(first, count)` of band `band`.
    pub(crate) fn band(&self, band: usize) -> (usize, usize) {
        let first = band * self.edge.0;
        (first, self.edge.0.min(self.m - first))
    }

    /// Simulated seconds the schedule bills: the tile writes and MVM
    /// latencies times the crossbar's own per-command times, then the host's
    /// issue overhead and merge pass on `host`.
    pub(crate) fn seconds(&self, config: &CrossbarConfig, host: &CpuModel) -> f64 {
        self.tile_writes() as f64 * config.tile_program_seconds()
            + self.latency_mvms() as f64 * config.mvm_seconds()
            + self.host_issues() as f64 * SECONDS_PER_COMMAND
            + self
                .merge()
                .map_or(0.0, |merge| host.execution_seconds(&merge))
    }

    /// Simulated joules the schedule bills: the tile writes and MVMs times
    /// the crossbar's own per-command energies, then the host's issue time
    /// at its active power and its merge pass on `host`.
    pub(crate) fn joules(&self, config: &CrossbarConfig, host: &CpuModel) -> f64 {
        self.tile_writes() as f64 * config.tile_program_energy()
            + self.mvms() as f64 * config.mvm_energy()
            + self.host_issues() as f64 * SECONDS_PER_COMMAND * host.active_power_w
            + self.merge().map_or(0.0, |merge| host.energy_joules(&merge))
    }
}
