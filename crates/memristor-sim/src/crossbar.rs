//! The crossbar accelerator: tiles, programming, analog MVM and statistics.

use cinm_runtime::{FaultInjector, FaultKind};

use crate::config::CrossbarConfig;

/// A tile programmed with fewer live columns than this is stored
/// column-major and multiplied as one contiguous dot product per column;
/// a wider one is stored row-major and multiplied as one saxpy per input
/// row. The crossover is measured (EXPERIMENTS.md, "Grid-level kernel
/// execution"): the dot product is faster at every width below 16 and the
/// saxpy at 16 and at the widths that fill whole vectors beyond it.
const DOT_PRODUCT_BELOW_COLS: usize = 16;

/// A tile programmed with at least this many live columns, all of whose
/// weights fit `i16`, also keeps an `i16` copy of them. On a one-column tile
/// the narrow dot product is no faster than the `i32` one (EXPERIMENTS.md,
/// "Narrow multiply-accumulate"), so the copy would only add programming
/// work.
const NARROW_FROM_COLS: usize = 2;

/// The shortest input that is multiplied with a tile's `i16` copy (when it
/// fits `i16`). A shorter one keeps the `i32` loops: against a wide tile's
/// row-major saxpy, the horizontal sum every narrow dot product pays costs
/// more than its narrow products save (same measurement).
const NARROW_FROM_ROWS: usize = 16;

/// Whether a tile programmed with `cols` live columns is stored column-major.
fn column_major(cols: usize) -> bool {
    cols < DOT_PRODUCT_BELOW_COLS
}

/// Whether every element of `v` lies in `i16`'s `[−2¹⁵, 2¹⁵)`: adding 2¹⁵
/// maps that range, and only it, onto `[0, 2¹⁶)`, so the OR of the shifted
/// values has no bit above the low sixteen. Branch-free, so it vectorises.
fn fits_i16(v: &[i32]) -> bool {
    v.iter()
        .fold(0u32, |wide, &e| wide | (e as u32).wrapping_add(0x8000))
        >> 16
        == 0
}

/// The wrapping dot product of `a` and `b` (of `a`'s length) for an `a`
/// whose elements fit `i16`. Each `a[i] as i16` is then exact and no product
/// of two `i16`s overflows `i32`, so the wrapping sum equals the `i32` loop's
/// in any order. LLVM lowers the whole groups of eight to SSE2 `pmaddwd` on
/// the low halves of `a`'s lanes. The up to seven elements left over take
/// plain `i32` products, equal for an `a` that fits and cheaper than a
/// truncated scalar one.
fn dot_narrow(a: &[i32], b: &[i16]) -> i32 {
    let body = a.len() / 8 * 8;
    let head = a[..body].iter().zip(b).fold(0, |acc: i32, (&a, &b)| {
        acc.wrapping_add(a as i16 as i32 * b as i32)
    });
    a[body..]
        .iter()
        .zip(&b[body..])
        .fold(head, |acc, (&a, &b)| {
            acc.wrapping_add(a.wrapping_mul(b as i32))
        })
}

/// Programs a validated `rows × cols` weight matrix: zero-padded to the full
/// tile rows (padding cells are still programmed, as on a real array where
/// stale states must be overwritten), remembering how many columns are live.
/// A narrow matrix ([`column_major`]) is stored as its `cols` live columns of
/// `tile_rows` weights each; a wide one as the full row-major
/// `tile_rows × tile_cols` array. Weights that all fit `i16` on a tile of
/// [`NARROW_FROM_COLS`] or more columns are kept a second time, as `i16`
/// live columns of `tile_rows` each. A pure function of the configuration
/// and the weights; [`mvm_wide`] and [`mvm_narrow`] are the only readers of
/// the layouts.
fn program_tile(config: &CrossbarConfig, weights: &[i32], rows: usize, cols: usize) -> Tile {
    let (tile_rows, tile_cols) = (config.tile_rows, config.tile_cols);
    let narrow = (cols >= NARROW_FROM_COLS && fits_i16(weights)).then(|| {
        let mut columns = vec![0i16; cols * tile_rows];
        for r in 0..rows {
            for c in 0..cols {
                columns[c * tile_rows + r] = weights[r * cols + c] as i16;
            }
        }
        columns
    });
    let stored = if column_major(cols) {
        let mut columns = vec![0i32; cols * tile_rows];
        for r in 0..rows {
            for c in 0..cols {
                columns[c * tile_rows + r] = weights[r * cols + c];
            }
        }
        columns
    } else {
        let mut padded = vec![0i32; tile_rows * tile_cols];
        for r in 0..rows {
            padded[r * tile_cols..r * tile_cols + cols]
                .copy_from_slice(&weights[r * cols..(r + 1) * cols]);
        }
        padded
    };
    Tile {
        weights: Some(stored),
        narrow,
        cols,
    }
}

/// The narrow MVM on a tile's `i16` copy `columns`: one [`dot_narrow`] per
/// column of `out`, accumulated. Returns `false`, having done nothing, when
/// `input` is shorter than [`NARROW_FROM_ROWS`] or does not fit `i16`.
fn mvm_narrow(columns: &[i16], tile_rows: usize, input: &[i32], out: &mut [i32]) -> bool {
    if input.len() < NARROW_FROM_ROWS || !fits_i16(input) {
        return false;
    }
    for (c, slot) in out.iter_mut().enumerate() {
        let column = &columns[c * tile_rows..c * tile_rows + input.len()];
        *slot = slot.wrapping_add(dot_narrow(input, column));
    }
    true
}

/// The analog MVM on an already-validated programmed tile, accumulated into
/// the caller's output: `out += x × W` (wrapping) over the leading columns of
/// the tile that `out` covers. A tile with an `i16` copy tries
/// [`mvm_narrow`] first; everything else is [`mvm_wide`]. Every layout sums
/// the same products mod 2³², so the order they sum them in cannot show.
/// This is the single functional core every MVM path (single, parallel,
/// band) funnels through, so results cannot diverge.
fn mvm_accumulate(config: &CrossbarConfig, tile: &Tile, input: &[i32], out: &mut [i32]) {
    if let Some(columns) = tile.narrow.as_deref() {
        let live = tile.cols.min(out.len());
        if mvm_narrow(columns, config.tile_rows, input, &mut out[..live]) {
            return;
        }
    }
    mvm_wide(config, tile, input, out);
}

/// [`mvm_accumulate`] on the `i32` weights: only the columns the tile was
/// programmed with are multiplied; the padded ones hold zero weights and add
/// nothing.
#[inline(always)]
fn mvm_wide(config: &CrossbarConfig, tile: &Tile, input: &[i32], out: &mut [i32]) {
    let weights = tile.weights.as_deref().expect("validated");
    let live = tile.cols.min(out.len());
    let out = &mut out[..live];
    let tile_rows = config.tile_rows;
    if column_major(tile.cols) {
        for (c, slot) in out.iter_mut().enumerate() {
            let column = &weights[c * tile_rows..c * tile_rows + input.len()];
            let dot = column
                .iter()
                .zip(input)
                .fold(0i32, |acc, (&w, &x)| acc.wrapping_add(w.wrapping_mul(x)));
            *slot = slot.wrapping_add(dot);
        }
        return;
    }
    let tile_cols = config.tile_cols;
    for (r, &x) in input.iter().enumerate() {
        if x == 0 {
            continue;
        }
        let w_row = &weights[r * tile_cols..r * tile_cols + live];
        for (slot, &w) in out.iter_mut().zip(w_row) {
            *slot = slot.wrapping_add(x.wrapping_mul(w));
        }
    }
}

/// The analog MVM written into caller scratch: `out[..tile_cols] = x × W`
/// ([`mvm_accumulate`] onto zeros).
fn mvm_on_weights_into(config: &CrossbarConfig, tile: &Tile, input: &[i32], out: &mut [i32]) {
    let out = &mut out[..config.tile_cols];
    out.fill(0);
    mvm_accumulate(config, tile, input, out);
}

/// The analog MVM on an already-validated programmed tile:
/// `y[tile_cols] = x × W` (allocating convenience over
/// [`mvm_on_weights_into`]).
fn mvm_on_weights(config: &CrossbarConfig, tile: &Tile, input: &[i32]) -> Vec<i32> {
    let mut out = vec![0i32; config.tile_cols];
    mvm_on_weights_into(config, tile, input, &mut out);
    out
}

/// The MVMs of one band row: `a_row` times every tile of `tiles`, each
/// accumulated into its columns of `c_row` by `mvm`.
#[inline(always)]
fn band_row(
    mvm: impl Fn(&CrossbarConfig, &Tile, &[i32], &mut [i32]),
    config: &CrossbarConfig,
    programmed: &[Tile],
    tiles: &[BandTile],
    a_row: &[i32],
    c_row: &mut [i32],
) {
    for t in tiles {
        mvm(
            config,
            &programmed[t.tile],
            &a_row[t.row..t.row + t.rows],
            &mut c_row[t.col..t.col + t.cols],
        );
    }
}

/// One tile's share of a band of MVMs
/// ([`CrossbarAccelerator::mvm_band`]): the block
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

/// Accumulated statistics of the accelerator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CimStats {
    /// Number of tile-programming operations (crossbar writes).
    pub tile_writes: u64,
    /// Number of individual cells programmed.
    pub cell_writes: u64,
    /// Number of analog MVM issues.
    pub mvm_ops: u64,
    /// Number of ADC conversions performed.
    pub adc_conversions: u64,
    /// Seconds spent programming tiles.
    pub write_seconds: f64,
    /// Seconds spent on MVMs and readout.
    pub compute_seconds: f64,
    /// Dynamic energy spent programming, in joules.
    pub write_energy_j: f64,
    /// Dynamic energy spent computing, in joules.
    pub compute_energy_j: f64,
}

impl CimStats {
    /// Total accelerator busy time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.write_seconds + self.compute_seconds
    }

    /// Total dynamic energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.write_energy_j + self.compute_energy_j
    }
}

/// Errors reported by the crossbar simulator: either an invalid request
/// (bad tile index or shape — `fault_kind() == None`) or an injected device
/// fault (transient write/MVM faults, permanent stuck-at tiles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CimError {
    message: String,
    fault: Option<FaultKind>,
}

impl CimError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        CimError {
            message: message.into(),
            fault: None,
        }
    }

    pub(crate) fn fault(kind: FaultKind, message: impl Into<String>) -> Self {
        CimError {
            message: message.into(),
            fault: Some(kind),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The injected-fault kind, or `None` for plain validation errors.
    pub fn fault_kind(&self) -> Option<FaultKind> {
        self.fault
    }

    /// Whether this is an injected fault that may clear on retry.
    pub fn is_transient_fault(&self) -> bool {
        self.fault == Some(FaultKind::Transient)
    }

    /// Whether this is an injected fault that can never clear.
    pub fn is_permanent_fault(&self) -> bool {
        self.fault == Some(FaultKind::Permanent)
    }
}

impl std::fmt::Display for CimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CimError {}

/// Convenience alias for crossbar results.
pub type CimResult<T> = Result<T, CimError>;

#[derive(Debug, Clone, Default)]
struct Tile {
    /// Programmed weights in the layout [`program_tile`] chose for `cols`;
    /// `None` when the tile has not been programmed yet.
    weights: Option<Vec<i32>>,
    /// The live columns again as `i16`, `tile_rows` each, when
    /// [`program_tile`] found every weight to fit.
    narrow: Option<Vec<i16>>,
    /// Columns of the matrix the tile was programmed with; every column
    /// beyond holds zero weights.
    cols: usize,
}

/// The simulated memristive crossbar accelerator.
#[derive(Debug, Clone)]
pub struct CrossbarAccelerator {
    config: CrossbarConfig,
    tiles: Vec<Tile>,
    stats: CimStats,
    /// Deterministic fault injector; `None` when the accelerator is
    /// fault-free.
    fault: Option<FaultInjector>,
    /// Per-op telemetry handles, resolved once at construction when the
    /// config carries a registry (see [`CrossbarConfig::telemetry`]).
    tele: Option<CimTele>,
}

/// Telemetry handles of one crossbar accelerator. Names are shared across
/// clones and spares (get-or-register), so failover keeps accumulating into
/// the same series.
#[derive(Debug, Clone)]
struct CimTele {
    mvm_ops: cinm_telemetry::Counter,
    tile_writes: cinm_telemetry::Counter,
    faults: cinm_telemetry::Counter,
    energy_j: cinm_telemetry::Gauge,
}

impl CimTele {
    fn register(t: &cinm_telemetry::Telemetry) -> Self {
        CimTele {
            mvm_ops: t.counter("cim.mvm_ops"),
            tile_writes: t.counter("cim.tile_writes"),
            faults: t.counter("cim.faults.injected"),
            energy_j: t.gauge("cim.energy_j"),
        }
    }
}

impl CrossbarAccelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: CrossbarConfig) -> Self {
        let tiles = vec![Tile::default(); config.num_tiles];
        let fault = config
            .fault
            .clone()
            .filter(|f| f.any_enabled())
            .map(FaultInjector::new);
        let tele = config.telemetry.as_ref().map(CimTele::register);
        CrossbarAccelerator {
            config,
            tiles,
            stats: CimStats::default(),
            fault,
            tele,
        }
    }

    /// The fault injector, if fault injection is enabled.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Permanent stuck-at check for one tile; drawn from configuration, not
    /// from the event stream, so it is free on the hot path and identical in
    /// every validation order.
    fn check_stuck(&self, tile: usize) -> CimResult<()> {
        if let Some(inj) = &self.fault {
            if inj.tile_stuck(tile) {
                return Err(CimError::fault(
                    FaultKind::Permanent,
                    format!("tile {tile} has permanent stuck-at defects"),
                ));
            }
        }
        Ok(())
    }

    /// Draws the next transient-fault decision for a write or MVM issue.
    /// Called after validation and before any tile or stats mutation, so a
    /// faulted operation leaves the accelerator untouched. One decision is
    /// drawn per issued command — a parallel MVM batch is a single analog
    /// issue and consumes a single event.
    fn inject_op(&mut self, what: &str) -> CimResult<()> {
        if let Some(inj) = self.fault.as_mut() {
            if let Err(ev) = inj.check_transfer() {
                if let Some(tele) = &self.tele {
                    tele.faults.inc();
                }
                return Err(CimError::fault(
                    ev.kind,
                    format!("{what}: {}", ev.description),
                ));
            }
        }
        Ok(())
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &CrossbarConfig {
        &self.config
    }

    /// Number of crossbar tiles.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CimStats {
        &self.stats
    }

    /// Resets the accumulated statistics (programmed weights are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CimStats::default();
    }

    /// Programs a weight matrix into a tile.
    ///
    /// The matrix is `rows × cols`, row-major, and must fit the tile
    /// geometry; smaller matrices are zero-padded (padding cells are still
    /// programmed, as on a real array where stale states must be overwritten).
    ///
    /// # Errors
    ///
    /// Returns an error if the tile index or matrix shape is invalid.
    pub fn write_tile(
        &mut self,
        tile: usize,
        weights: &[i32],
        rows: usize,
        cols: usize,
    ) -> CimResult<()> {
        self.validate_write(tile, weights.len(), rows, cols)?;
        self.inject_op("tile write")?;
        self.tiles[tile] = program_tile(&self.config, weights, rows, cols);
        self.account_tile_write();
        Ok(())
    }

    /// Validates the shape of a tile-programming request (index, geometry
    /// fit, weight-buffer length).
    fn validate_write(
        &self,
        tile: usize,
        weights_len: usize,
        rows: usize,
        cols: usize,
    ) -> CimResult<()> {
        let c = &self.config;
        if tile >= self.tiles.len() {
            return Err(CimError::new(format!("tile {tile} out of range")));
        }
        self.check_stuck(tile)?;
        if rows > c.tile_rows || cols > c.tile_cols {
            return Err(CimError::new(format!(
                "matrix {rows}x{cols} does not fit a {}x{} tile",
                c.tile_rows, c.tile_cols
            )));
        }
        if weights_len != rows * cols {
            return Err(CimError::new(format!(
                "weight buffer has {weights_len} elements, expected {}",
                rows * cols
            )));
        }
        Ok(())
    }

    /// Validates an MVM request (index, programmed-ness, input length)
    /// against the current tile state.
    fn validate_mvm(&self, tile: usize, input_len: usize) -> CimResult<()> {
        if tile >= self.tiles.len() {
            return Err(CimError::new(format!("tile {tile} out of range")));
        }
        self.check_stuck(tile)?;
        if self.tiles[tile].weights.is_none() {
            return Err(CimError::new(format!(
                "tile {tile} has not been programmed"
            )));
        }
        if input_len > self.config.tile_rows {
            return Err(CimError::new(format!(
                "input of {input_len} elements exceeds {} tile rows",
                self.config.tile_rows
            )));
        }
        Ok(())
    }

    /// Accounts the cost of programming one full tile.
    fn account_tile_write(&mut self) {
        let c = &self.config;
        let cells = (c.tile_rows * c.tile_cols * c.slices_per_weight()) as u64;
        self.stats.tile_writes += 1;
        self.stats.cell_writes += cells;
        self.stats.write_seconds += c.tile_program_seconds();
        self.stats.write_energy_j += c.tile_program_energy();
        if let Some(tele) = &self.tele {
            tele.tile_writes.inc();
            tele.energy_j.add(c.tile_program_energy());
        }
    }

    /// Issues one analog MVM: `y[cols] = x[rows] × W` on the programmed tile.
    ///
    /// The computation is bit-exact (the simulator models the ideal bit-sliced
    /// shift-and-add pipeline); latency and energy follow the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the tile is not programmed or the input length
    /// exceeds the tile rows.
    pub fn mvm(&mut self, tile: usize, input: &[i32]) -> CimResult<Vec<i32>> {
        self.validate_mvm(tile, input.len())?;
        self.inject_op("mvm")?;
        let result = mvm_on_weights(&self.config, &self.tiles[tile], input);
        self.account_mvm(1);
        Ok(result)
    }

    /// Issues one analog MVM writing the result into caller scratch:
    /// `out[..tile_cols] = x[rows] × W` (the allocation-free form of
    /// [`mvm`](Self::mvm) — results and accounted statistics are
    /// bit-identical, only the storage of the result differs).
    ///
    /// # Errors
    ///
    /// Returns an error if `out` is shorter than the tile columns, the tile
    /// is not programmed, or the input length exceeds the tile rows.
    pub fn mvm_into(&mut self, tile: usize, input: &[i32], out: &mut [i32]) -> CimResult<()> {
        let cols = self.config.tile_cols;
        if out.len() < cols {
            return Err(CimError::new(format!(
                "output scratch of {} elements is shorter than {cols} tile columns",
                out.len()
            )));
        }
        self.validate_mvm(tile, input.len())?;
        self.inject_op("mvm")?;
        mvm_on_weights_into(&self.config, &self.tiles[tile], input, out);
        self.account_mvm(1);
        Ok(())
    }

    /// Issues the same MVM on several tiles *in parallel* (the `cim-parallel`
    /// configuration of the paper): the latency of the batch is that of a
    /// single MVM, energy is paid per tile. Requests borrow their input
    /// vectors, so recording a batch never clones payloads.
    ///
    /// The functional execution of the batch is data-parallel across host
    /// threads (see [`CrossbarConfig::host_threads`]); results and accounted
    /// statistics are bit-identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if any tile is not programmed or any input is too
    /// long.
    pub fn mvm_parallel(&mut self, requests: &[(usize, &[i32])]) -> CimResult<Vec<Vec<i32>>> {
        for &(tile, input) in requests {
            self.validate_mvm(tile, input.len())?;
        }
        if !requests.is_empty() {
            self.inject_op("parallel mvm")?;
        }
        let mut results: Vec<Vec<i32>> = vec![Vec::new(); requests.len()];
        let (config, tiles) = (&self.config, &self.tiles);
        config
            .pool
            .for_each_chunk_mut(config.host_threads, &mut results, 1, |i, slot| {
                let (tile, input) = requests[i];
                slot[0] = mvm_on_weights(config, &tiles[tile], input);
            });
        if !requests.is_empty() {
            self.account_parallel_mvm(requests.len());
        }
        Ok(results)
    }

    /// Issues the analog MVMs of one band of output rows: every row `r` of
    /// `band` (row-major, `n` columns) accumulates
    /// `band[r, t.col..][..t.cols] += a[r, t.row..][..t.rows] × W[t.tile]`
    /// for every tile `t` of `tiles`, where `a` is row-major with `k`
    /// columns and holds at least as many rows as `band`. The MVMs read
    /// their input rows in place and accumulate straight into `band`, so
    /// nothing is allocated per MVM; rows are data-parallel across
    /// [`host_threads`](CrossbarConfig::host_threads).
    ///
    /// The band stands for the calls it replaces — one
    /// [`mvm_parallel`](Self::mvm_parallel) issue per row when `parallel`
    /// (none when `tiles` is empty), one [`mvm`](Self::mvm) per tile and row
    /// otherwise — and draws one fault decision and accounts one issue for
    /// each, so results and statistics equal that call sequence.
    ///
    /// # Errors
    ///
    /// Returns an error if `band` is not whole rows of `n`, `a` holds fewer
    /// rows, a block lies outside the `k × n` operand, or a tile would be
    /// rejected by [`mvm`](Self::mvm); or, with a
    /// [`FaultConfig`](cinm_runtime::FaultConfig) attached, when any issue
    /// draws a fault. Validation and every draw come first, so a failed band
    /// applies nothing: `band`, the tiles and the statistics are untouched.
    pub fn mvm_band(
        &mut self,
        a: &[i32],
        k: usize,
        band: &mut [i32],
        n: usize,
        tiles: &[BandTile],
        parallel: bool,
    ) -> CimResult<()> {
        let rows = band.len().checked_div(n).unwrap_or(0);
        if rows * n != band.len() || rows * k > a.len() {
            return Err(CimError::new(format!(
                "a band of {} output elements (n = {n}) exceeds whole rows or the \
                 {}-element input (k = {k})",
                band.len(),
                a.len()
            )));
        }
        for t in tiles {
            self.validate_mvm(t.tile, t.rows)?;
            if t.row + t.rows > k || t.col + t.cols > n {
                return Err(CimError::new(format!(
                    "tile {} block {}+{} x {}+{} exceeds the {k} x {n} operand",
                    t.tile, t.row, t.rows, t.col, t.cols
                )));
            }
        }
        let (what, issues) = if parallel {
            ("parallel mvm", rows * usize::from(!tiles.is_empty()))
        } else {
            ("mvm", rows * tiles.len())
        };
        (0..issues).try_for_each(|_| self.inject_op(what))?;

        let (config, programmed) = (&self.config, &self.tiles);
        // A band none of whose tiles keeps an `i16` copy (the GEMV's
        // one-column tiles) runs the `i32` body alone: a narrow branch in
        // that loop measurably slowed the one-column MVMs (≈ 18 ns each) of
        // the crossbar `mv` run.
        let (pool, threads) = (&config.pool, config.host_threads);
        if tiles.iter().any(|t| programmed[t.tile].narrow.is_some()) {
            pool.for_each_chunk_mut(threads, band, n, |r, c_row| {
                band_row(
                    mvm_accumulate,
                    config,
                    programmed,
                    tiles,
                    &a[r * k..(r + 1) * k],
                    c_row,
                )
            });
        } else {
            pool.for_each_chunk_mut(threads, band, n, |r, c_row| {
                band_row(
                    mvm_wide,
                    config,
                    programmed,
                    tiles,
                    &a[r * k..(r + 1) * k],
                    c_row,
                )
            });
        }
        for _ in 0..rows {
            if !parallel {
                tiles.iter().for_each(|_| self.account_mvm(1));
            } else if !tiles.is_empty() {
                self.account_parallel_mvm(tiles.len());
            }
        }
        Ok(())
    }

    /// The allocation-free form of [`mvm_parallel`](Self::mvm_parallel):
    /// request `i`'s result lands in `out[i * tile_cols..(i + 1) * tile_cols]`
    /// of the caller-provided scratch. Results and accounted statistics are
    /// bit-identical to the allocating form.
    ///
    /// # Errors
    ///
    /// Returns an error if `out` is shorter than `requests.len() × tile_cols`
    /// or any request is invalid; nothing is accounted on error.
    pub fn mvm_parallel_into(
        &mut self,
        requests: &[(usize, &[i32])],
        out: &mut [i32],
    ) -> CimResult<()> {
        let cols = self.config.tile_cols;
        if out.len() < requests.len() * cols {
            return Err(CimError::new(format!(
                "output scratch of {} elements cannot hold {} results of {cols} columns",
                out.len(),
                requests.len()
            )));
        }
        // Validate without collecting: the compute closure re-resolves the
        // (already validated) tiles, so the steady-state batch performs no
        // heap allocation at all.
        for &(tile, input) in requests {
            self.validate_mvm(tile, input.len())?;
        }
        if !requests.is_empty() {
            self.inject_op("parallel mvm")?;
        }
        let (config, tiles) = (&self.config, &self.tiles);
        config.pool.for_each_chunk_mut(
            config.host_threads,
            &mut out[..requests.len() * cols],
            cols,
            |i, slot| {
                let (tile, input) = requests[i];
                mvm_on_weights_into(config, &tiles[tile], input, slot);
            },
        );
        if !requests.is_empty() {
            self.account_parallel_mvm(requests.len());
        }
        Ok(())
    }

    fn account_mvm(&mut self, count: usize) {
        let c = &self.config;
        let conversions = (c.tile_cols * c.slices_per_weight() * count) as u64;
        self.stats.mvm_ops += count as u64;
        self.stats.adc_conversions += conversions;
        self.stats.compute_seconds += c.mvm_seconds() * count as f64;
        self.stats.compute_energy_j += c.mvm_energy() * count as f64;
        if let Some(tele) = &self.tele {
            tele.mvm_ops.add(count as u64);
            tele.energy_j.add(c.mvm_energy() * count as f64);
        }
    }

    fn account_parallel_mvm(&mut self, tiles: usize) {
        let c = &self.config;
        let conversions = (c.tile_cols * c.slices_per_weight() * tiles) as u64;
        self.stats.mvm_ops += tiles as u64;
        self.stats.adc_conversions += conversions;
        // Latency of one MVM (tiles operate concurrently), energy per tile.
        self.stats.compute_seconds += c.mvm_seconds();
        self.stats.compute_energy_j += c.mvm_energy() * tiles as f64;
    }

    /// Convenience: computes `A[m×rows] × W[tile]` by issuing one MVM per row
    /// of `A`, returning the `m × tile_cols` result. Each row's MVM writes
    /// straight into its band of the result (one allocation for the whole
    /// product, not one per row); accounting is identical to issuing the
    /// row MVMs individually.
    ///
    /// # Errors
    ///
    /// Returns an error if the tile is not programmed or a row is too long.
    pub fn gemm_tile(&mut self, tile: usize, a: &[i32], m: usize, k: usize) -> CimResult<Vec<i32>> {
        if a.len() != m * k {
            return Err(CimError::new(format!(
                "input buffer has {} elements, expected {}",
                a.len(),
                m * k
            )));
        }
        let cols = self.config.tile_cols;
        let mut out = vec![0i32; m * cols];
        for (i, band) in out.chunks_mut(cols.max(1)).enumerate().take(m) {
            let row = &a[i * k..(i + 1) * k];
            self.mvm_into(tile, row, band)?;
        }
        Ok(out)
    }

    /// Returns the programmed weights of a tile as stored (testing aid): a
    /// wide tile row-major `tile_rows × tile_cols`, a narrow one column-major,
    /// `tile_rows` weights per programmed column.
    pub fn tile_weights(&self, tile: usize) -> Option<&[i32]> {
        self.tiles.get(tile).and_then(|t| t.weights.as_deref())
    }

    /// Decomposes a weight into bit slices and recombines them with
    /// shift-and-add, as the column periphery does. Exposed for property
    /// testing the bit-slicing model.
    pub fn shift_add_roundtrip(&self, weight: i32) -> i64 {
        let c = &self.config;
        let slices = c.slices_per_weight() as u32;
        let bits = c.cell_bits;
        let mask = (1u64 << bits) - 1;
        let w = weight as i64 as u64;
        let mut acc: i64 = 0;
        for s in 0..slices {
            let slice = (w >> (s * bits)) & mask;
            acc += (slice as i64) << (s * bits);
        }
        // Interpret back as the original two's-complement width.
        acc as i32 as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xbar() -> CrossbarAccelerator {
        CrossbarAccelerator::new(CrossbarConfig::default())
    }

    #[test]
    fn write_then_mvm_computes_exact_product() {
        let mut x = xbar();
        // 3x2 weight matrix in a 64x64 tile.
        let w = vec![1, 2, 3, 4, 5, 6];
        x.write_tile(0, &w, 3, 2).unwrap();
        let y = x.mvm(0, &[1, 1, 1]).unwrap();
        assert_eq!(&y[..2], &[1 + 3 + 5, 2 + 4 + 6]);
        assert!(y[2..].iter().all(|&v| v == 0));
        assert_eq!(x.stats().tile_writes, 1);
        assert_eq!(x.stats().mvm_ops, 1);
        assert!(x.stats().write_seconds > 0.0);
        assert!(x.stats().compute_seconds > 0.0);
    }

    #[test]
    fn mvm_into_matches_mvm_bit_for_bit() {
        let mut alloc = xbar();
        let mut scratchy = xbar();
        let w: Vec<i32> = (0..9).map(|i| i * 7 - 30).collect();
        alloc.write_tile(0, &w, 3, 3).unwrap();
        scratchy.write_tile(0, &w, 3, 3).unwrap();
        let mut scratch = vec![-99i32; alloc.config().tile_cols];
        for input in [vec![1, 2, 3], vec![0, -5, 7], vec![11]] {
            let y = alloc.mvm(0, &input).unwrap();
            scratchy.mvm_into(0, &input, &mut scratch).unwrap();
            assert_eq!(scratch, y, "input {input:?}");
        }
        assert_eq!(alloc.stats(), scratchy.stats());
        // Undersized scratch is rejected before any accounting.
        let ops_before = scratchy.stats().mvm_ops;
        let mut short = vec![0i32; 3];
        assert!(scratchy.mvm_into(0, &[1, 1, 1], &mut short).is_err());
        assert_eq!(scratchy.stats().mvm_ops, ops_before);
    }

    #[test]
    fn mvm_requires_programmed_tile() {
        let mut x = xbar();
        let err = x.mvm(1, &[1, 2, 3]).unwrap_err();
        assert!(err.message().contains("not been programmed"));
    }

    #[test]
    fn write_rejects_oversized_matrices() {
        let mut x = xbar();
        let w = vec![0; 65 * 64];
        assert!(x.write_tile(0, &w, 65, 64).is_err());
        assert!(x.write_tile(9, &[0], 1, 1).is_err());
        assert!(x.write_tile(0, &[0, 1], 1, 1).is_err());
    }

    #[test]
    fn gemm_tile_runs_one_mvm_per_row() {
        let mut x = xbar();
        // Identity-ish 2x2 weights.
        x.write_tile(0, &[1, 0, 0, 1], 2, 2).unwrap();
        let a = vec![3, 4, 5, 6]; // 2x2
        let out = x.gemm_tile(0, &a, 2, 2).unwrap();
        assert_eq!(out[0], 3);
        assert_eq!(out[1], 4);
        assert_eq!(out[64], 5);
        assert_eq!(out[65], 6);
        assert_eq!(x.stats().mvm_ops, 2);
    }

    #[test]
    fn parallel_mvm_takes_single_mvm_latency() {
        let mut serial = xbar();
        let mut parallel = xbar();
        for t in 0..4 {
            serial.write_tile(t, &[1, 2, 3, 4], 2, 2).unwrap();
            parallel.write_tile(t, &[1, 2, 3, 4], 2, 2).unwrap();
        }
        serial.reset_stats();
        parallel.reset_stats();
        let input = vec![1, 1];
        for t in 0..4 {
            serial.mvm(t, &input).unwrap();
        }
        let reqs: Vec<(usize, &[i32])> = (0..4).map(|t| (t, input.as_slice())).collect();
        let results = parallel.mvm_parallel(&reqs).unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0], results[3]);
        // The scratch-writing form produces the same results and statistics.
        let mut into = xbar();
        for t in 0..4 {
            into.write_tile(t, &[1, 2, 3, 4], 2, 2).unwrap();
        }
        into.reset_stats();
        let mut scratch = vec![-1i32; 4 * into.config().tile_cols];
        into.mvm_parallel_into(&reqs, &mut scratch).unwrap();
        let cols = into.config().tile_cols;
        for (i, r) in results.iter().enumerate() {
            assert_eq!(&scratch[i * cols..(i + 1) * cols], r.as_slice());
        }
        assert_eq!(into.stats(), parallel.stats());
        assert!(parallel.stats().compute_seconds < serial.stats().compute_seconds / 3.0);
        // Energy is not reduced by parallelism.
        assert!(
            (parallel.stats().compute_energy_j - serial.stats().compute_energy_j).abs() < 1e-15
        );
    }

    #[test]
    fn host_threads_do_not_change_batch_results_or_stats() {
        let inputs: Vec<Vec<i32>> = (0..4i32).map(|t| vec![t + 1, 2]).collect();
        let reqs: Vec<(usize, &[i32])> = inputs
            .iter()
            .enumerate()
            .map(|(t, v)| (t, v.as_slice()))
            .collect();
        let run = |threads: usize| {
            let mut x =
                CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(threads));
            for t in 0..4 {
                x.write_tile(t, &[1, 2, 3, 4 + t as i32], 2, 2).unwrap();
            }
            let results = x.mvm_parallel(&reqs).unwrap();
            (results, *x.stats())
        };
        let (ref_results, ref_stats) = run(1);
        for threads in [2usize, 3, 8, 0] {
            let (results, stats) = run(threads);
            assert_eq!(results, ref_results, "threads = {threads}");
            assert_eq!(stats, ref_stats, "threads = {threads}");
        }
    }

    #[test]
    fn batch_validation_errors_before_any_accounting() {
        let mut x = xbar();
        x.write_tile(0, &[1], 1, 1).unwrap();
        x.reset_stats();
        // Second request targets an unprogrammed tile: the whole batch fails
        // and nothing is accounted.
        let one = [1i32];
        let reqs: Vec<(usize, &[i32])> = vec![(0, &one), (1, &one)];
        assert!(x.mvm_parallel(&reqs).is_err());
        let mut scratch = vec![0i32; 2 * x.config().tile_cols];
        assert!(x.mvm_parallel_into(&reqs, &mut scratch).is_err());
        assert_eq!(x.stats().mvm_ops, 0);
        assert_eq!(x.stats().compute_seconds, 0.0);
    }

    #[test]
    fn min_writes_behaviour_write_once_reuse_many() {
        // Programming a tile once and issuing many MVMs must be much cheaper
        // than reprogramming before every MVM — the premise of the
        // cim-min-writes loop interchange.
        let mut reuse = xbar();
        let mut rewrite = xbar();
        let w = vec![1; 64 * 64];
        let x = vec![1; 64];
        reuse.write_tile(0, &w, 64, 64).unwrap();
        for _ in 0..16 {
            reuse.mvm(0, &x).unwrap();
        }
        for _ in 0..16 {
            rewrite.write_tile(0, &w, 64, 64).unwrap();
            rewrite.mvm(0, &x).unwrap();
        }
        assert_eq!(reuse.stats().tile_writes, 1);
        assert_eq!(rewrite.stats().tile_writes, 16);
        assert!(rewrite.stats().total_seconds() > 5.0 * reuse.stats().total_seconds());
        assert!(rewrite.stats().total_energy_j() > reuse.stats().total_energy_j());
    }

    #[test]
    fn shift_add_roundtrip_is_exact() {
        let x = xbar();
        for v in [0, 1, -1, 42, -12345, i32::MAX, i32::MIN, 0x7ead_beef] {
            assert_eq!(x.shift_add_roundtrip(v), v as i64, "value {v}");
        }
    }

    #[test]
    fn stats_totals() {
        let mut x = xbar();
        x.write_tile(0, &[1], 1, 1).unwrap();
        x.mvm(0, &[1]).unwrap();
        let s = x.stats();
        assert!(s.total_seconds() > 0.0);
        assert!(s.total_energy_j() > 0.0);
        assert!((s.total_seconds() - (s.write_seconds + s.compute_seconds)).abs() < 1e-18);
    }

    #[test]
    fn stuck_tile_rejects_writes_and_mvms_permanently() {
        let fault = cinm_runtime::FaultConfig::seeded(0).with_stuck_tiles(vec![1]);
        let mut x = CrossbarAccelerator::new(CrossbarConfig::default().with_fault(fault));
        // Healthy tile works.
        x.write_tile(0, &[1, 2, 3, 4], 2, 2).unwrap();
        assert_eq!(x.mvm(0, &[1, 1]).unwrap()[..2], [4, 6]);
        // Stuck tile fails permanently, with nothing accounted.
        let before = *x.stats();
        let err = x.write_tile(1, &[1, 2, 3, 4], 2, 2).unwrap_err();
        assert!(err.is_permanent_fault(), "{err}");
        let err = x.mvm(1, &[1, 1]).unwrap_err();
        assert!(err.is_permanent_fault(), "{err}");
        assert_eq!(x.stats(), &before);
    }

    #[test]
    fn transient_mvm_fault_is_transactional_and_retry_recovers_bit_identically() {
        let fault = cinm_runtime::FaultConfig::seeded(2).with_transfer_timeout_rate(0.4);
        let mut faulty = CrossbarAccelerator::new(CrossbarConfig::default().with_fault(fault));
        let mut oracle = xbar();
        let w: Vec<i32> = (0..16).collect();
        let x: Vec<i32> = (0..4).map(|i| i - 2).collect();
        oracle.write_tile(0, &w, 4, 4).unwrap();
        let want = oracle.mvm(0, &x).unwrap();

        let mut write_ok = false;
        for attempt in 0..64 {
            match faulty.write_tile(0, &w, 4, 4) {
                Ok(()) => {
                    write_ok = true;
                    break;
                }
                Err(e) => {
                    assert!(e.is_transient_fault(), "attempt {attempt}: {e}");
                    assert_eq!(faulty.stats().tile_writes, 0, "faulted write accounted");
                }
            }
        }
        assert!(write_ok);
        let got = loop {
            match faulty.mvm(0, &x) {
                Ok(y) => break y,
                Err(e) => assert!(e.is_transient_fault(), "{e}"),
            }
        };
        assert_eq!(got, want, "recovered MVM must be bit-identical");
        assert_eq!(faulty.stats(), oracle.stats());
    }

    fn threaded(threads: usize) -> CrossbarAccelerator {
        CrossbarAccelerator::new(CrossbarConfig::default().with_host_threads(threads))
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

    /// The calls a band stands for, as its oracle: one `mvm_parallel` per
    /// row (`parallel`) or one `mvm` per tile and row (tile-major), each
    /// result added into `band`.
    fn per_tile_band(
        x: &mut CrossbarAccelerator,
        (a, k): (&[i32], usize),
        (band, n): (&mut [i32], usize),
        tiles: &[BandTile],
        parallel: bool,
    ) {
        let merge = |band: &mut [i32], r: usize, t: &BandTile, y: &[i32]| {
            for (dst, v) in band[r * n + t.col..][..t.cols].iter_mut().zip(y) {
                *dst = dst.wrapping_add(*v);
            }
        };
        let input = |r: usize, t: &BandTile| &a[r * k + t.row..][..t.rows];
        let rows = band.len() / n;
        if parallel {
            for r in 0..rows {
                let requests: Vec<(usize, &[i32])> =
                    tiles.iter().map(|t| (t.tile, input(r, t))).collect();
                let results = x.mvm_parallel(&requests).unwrap();
                for (t, y) in tiles.iter().zip(&results) {
                    merge(band, r, t, y);
                }
            }
        } else {
            for t in tiles {
                for r in 0..rows {
                    let y = x.mvm(t.tile, input(r, t)).unwrap();
                    merge(band, r, t, &y);
                }
            }
        }
    }

    /// One step of a test program over [`A`]: a 2×2 tile write, or the band
    /// of output rows `[row0, row0 + rows)` against some of [`TILES`].
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Write(usize, [i32; 4]),
        Band(usize, usize, &'static [BandTile], bool),
    }

    const PROGRAM: [Step; 7] = [
        Step::Write(0, [1, 2, 3, 4]),
        Step::Write(1, [5, 6, 7, 8]),
        // Single MVMs, tile-major, on a two-row band and on each tile alone.
        Step::Band(0, 2, &TILES, false),
        Step::Band(2, 1, &TILES_FIRST, false),
        Step::Band(2, 1, &TILES_SECOND, true),
        // Re-program tile 0 (which the MVMs above read) and re-issue every
        // row on both tiles in parallel.
        Step::Write(0, [-1, 0, 0, -1]),
        Step::Band(0, 3, &TILES, true),
    ];
    const TILES_FIRST: [BandTile; 1] = [TILES[0]];
    const TILES_SECOND: [BandTile; 1] = [TILES[1]];

    /// Runs one step into the 3×2 output `c`: through `mvm_band`, or through
    /// the per-tile calls it stands for.
    fn run_step(
        x: &mut CrossbarAccelerator,
        step: Step,
        c: &mut [i32],
        via_band: bool,
    ) -> CimResult<()> {
        match step {
            Step::Write(tile, w) => x.write_tile(tile, &w, 2, 2),
            Step::Band(row0, rows, tiles, parallel) => {
                let (a, band) = (&A[row0 * 4..], &mut c[row0 * 2..(row0 + rows) * 2]);
                if !via_band {
                    per_tile_band(x, (a, 4), (band, 2), tiles, parallel);
                    return Ok(());
                }
                x.mvm_band(a, 4, band, 2, tiles, parallel)
            }
        }
    }

    #[test]
    fn mvm_bands_match_the_per_tile_mvms_for_all_thread_counts() {
        let mut oracle = threaded(1);
        let mut want = vec![100i32; 6];
        for step in PROGRAM {
            run_step(&mut oracle, step, &mut want, false).unwrap();
        }
        assert_ne!(want, vec![100i32; 6]);
        for threads in [1usize, 2, 8, 0] {
            let mut x = threaded(threads);
            let mut c = vec![100i32; 6];
            for step in PROGRAM {
                run_step(&mut x, step, &mut c, true).unwrap();
            }
            assert_eq!(c, want, "threads = {threads}");
            assert_eq!(x.stats(), oracle.stats(), "threads = {threads}");
            assert_eq!(x.tile_weights(0), oracle.tile_weights(0));
            assert_eq!(x.tile_weights(1), oracle.tile_weights(1));
        }
    }

    /// Bands against the per-tile `mvm` / `mvm_parallel` sequence on a real
    /// decomposition: a 150×100 input against a 100×70 operand in 64×64
    /// tiles (ragged in every dimension, the last band 22 rows), in batches
    /// of one and of four tiles, grouped and not — with one fault decision
    /// drawn per issue the band stands for.
    #[test]
    fn mvm_bands_match_the_per_tile_mvm_sequence_for_grouped_and_ungrouped_batches() {
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
        let product: Vec<i32> = (0..m * n)
            .map(|i| {
                (0..k).fold(0i32, |acc, l| {
                    acc.wrapping_add(a[i / n * k + l].wrapping_mul(b[l * n + i % n]))
                })
            })
            .collect();
        // A schedule that never fires but counts its draws.
        let counting =
            cinm_runtime::FaultConfig::seeded(0).with_transfer_timeout_rate(f64::MIN_POSITIVE);
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
            let run = |x: &mut CrossbarAccelerator, via_band: bool| {
                let mut c = vec![0i32; m * n];
                for (bi, batch) in batches.iter().enumerate() {
                    for (slot, t) in batch.iter().enumerate() {
                        let w = &weights[bi * group + slot];
                        x.write_tile(slot, w, t.rows, t.cols).unwrap();
                    }
                    for row0 in (0..m).step_by(tile) {
                        let rows = tile.min(m - row0);
                        let (a, band) = (&a[row0 * k..], &mut c[row0 * n..(row0 + rows) * n]);
                        if via_band {
                            x.mvm_band(a, k, band, n, batch, parallel).unwrap();
                        } else {
                            per_tile_band(x, (a, k), (band, n), batch, parallel);
                        }
                    }
                }
                c
            };
            let mut oracle = threaded(1);
            let want = run(&mut oracle, false);
            assert_eq!(want, product);
            for threads in [1usize, 2, 8, 0] {
                let config = CrossbarConfig::default()
                    .with_host_threads(threads)
                    .with_fault(counting.clone());
                let mut x = CrossbarAccelerator::new(config);
                let case = format!("group {group}, parallel {parallel}, threads {threads}");
                assert_eq!(run(&mut x, true), want, "{case}");
                assert_eq!(x.stats(), oracle.stats(), "{case}");
                // One draw per tile write, per parallel row, or per MVM.
                let issues = if parallel && group > 1 {
                    (m * batches.len()) as u64
                } else {
                    oracle.stats().mvm_ops
                };
                assert_eq!(
                    x.fault_injector().unwrap().events(),
                    oracle.stats().tile_writes + issues,
                    "{case}"
                );
            }
        }
    }

    #[test]
    fn mvm_band_on_an_unprogrammed_tile_is_rejected_whole() {
        let mut x = threaded(2);
        x.write_tile(0, &[1, 2, 3, 4], 2, 2).unwrap();
        let before = *x.stats();
        let mut c = vec![7i32; 2];
        // Tile 1 is never programmed: tile 0's MVM must not run either.
        let err = x.mvm_band(&A, 4, &mut c, 2, &TILES, false).unwrap_err();
        assert!(err.message().contains("not been programmed"), "{err}");
        assert_eq!(x.stats(), &before);
        assert_eq!(c, vec![7i32; 2]);
    }

    #[test]
    fn bands_outside_their_matrices_are_rejected_before_anything_runs() {
        const WIDE: [BandTile; 1] = [BandTile {
            tile: 0,
            row: 3,
            rows: 2,
            col: 0,
            cols: 2,
        }];
        const RIGHT: [BandTile; 1] = [BandTile {
            tile: 0,
            row: 0,
            rows: 2,
            col: 1,
            cols: 2,
        }];
        for (what, row0, band_len, tiles) in [
            ("rows 2..4 of a 3-row input", 2, 4, &TILES_FIRST),
            ("a band of half a row", 0, 3, &TILES_FIRST),
            ("input columns 3..5 of 4", 0, 2, &WIDE),
            ("output columns 1..3 of 2", 0, 2, &RIGHT),
        ] {
            for parallel in [false, true] {
                let mut x = threaded(1);
                x.write_tile(0, &[1, 2, 3, 4], 2, 2).unwrap();
                let before = *x.stats();
                let mut band = vec![0i32; band_len];
                let err = x
                    .mvm_band(&A[row0 * 4..], 4, &mut band, 2, tiles, parallel)
                    .unwrap_err();
                assert!(err.fault_kind().is_none(), "{what}: {err}");
                assert!(err.message().contains("exceeds"), "{what}: {err}");
                assert_eq!(x.stats(), &before, "{what}");
                assert!(band.iter().all(|&v| v == 0), "{what}");
            }
        }
        // An empty band issues nothing.
        let mut x = threaded(1);
        x.write_tile(0, &[1, 2, 3, 4], 2, 2).unwrap();
        x.mvm_band(&A[12..], 4, &mut [], 2, &TILES_FIRST, true)
            .unwrap();
        assert_eq!(x.stats().tile_writes, 1);
        assert_eq!(x.stats().mvm_ops, 0);
    }

    #[test]
    fn mvm_band_after_a_write_sees_the_new_weights() {
        const ONE: [BandTile; 1] = [BandTile {
            tile: 2,
            row: 0,
            rows: 2,
            col: 0,
            cols: 2,
        }];
        let mut x = threaded(8);
        let mut y = [0i32; 2];
        x.write_tile(2, &[2, 0, 0, 2], 2, 2).unwrap();
        x.mvm_band(&[10, 20], 2, &mut y, 2, &ONE, false).unwrap();
        assert_eq!(y, [20, 40]);
        x.write_tile(2, &[0, 1, 1, 0], 2, 2).unwrap();
        x.mvm_band(&[10, 20], 2, &mut y, 2, &ONE, true).unwrap();
        assert_eq!(y, [40, 50]);
    }

    /// Every step of a program under 20% faults per issue: a faulted write
    /// or band applies nothing — no tile, no statistic and no element of the
    /// output changes, wherever among the band's issues the fault fell — and
    /// retrying the step recovers the fault-free result and statistics.
    #[test]
    fn a_faulted_band_applies_nothing_and_its_retry_recovers() {
        let mut oracle = threaded(1);
        let mut want = vec![-5i32; 6];
        for step in PROGRAM {
            run_step(&mut oracle, step, &mut want, false).unwrap();
        }
        let mut band_faults = 0;
        for seed in 0..8u64 {
            let fault = cinm_runtime::FaultConfig::seeded(seed).with_transfer_timeout_rate(0.2);
            let config = CrossbarConfig::default()
                .with_host_threads(2)
                .with_fault(fault);
            let mut x = CrossbarAccelerator::new(config);
            let mut c = vec![-5i32; 6];
            for step in PROGRAM {
                let mut attempts = 0;
                loop {
                    let (before, before_c) = (x.clone(), c.clone());
                    let Err(e) = run_step(&mut x, step, &mut c, true) else {
                        break;
                    };
                    attempts += 1;
                    assert!(attempts <= 256, "{step:?} never succeeded (seed {seed})");
                    assert!(e.is_transient_fault(), "{e}");
                    assert_eq!(x.stats(), before.stats(), "seed {seed}: {step:?}");
                    assert_eq!(c, before_c, "seed {seed}: {step:?} reached the output");
                    for tile in 0..x.num_tiles() {
                        assert_eq!(x.tile_weights(tile), before.tile_weights(tile));
                    }
                    band_faults += usize::from(matches!(step, Step::Band(..)));
                }
            }
            assert_eq!(c, want, "seed {seed}");
            assert_eq!(x.stats(), oracle.stats(), "seed {seed}");
        }
        assert!(band_faults > 0, "the sweep should fault at least one band");
    }
}
