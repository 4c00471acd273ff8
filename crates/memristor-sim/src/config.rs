//! Configuration of the simulated memristive crossbar accelerator.
//!
//! Default values follow the paper's CIM evaluation setup: a PCM-based
//! accelerator with four 64×64 crossbar tiles, analog matrix-vector
//! multiplication in (near) constant time per tile, bit-sliced operands with
//! shift-and-add merging at the column outputs, and read/write latency and
//! energy figures in the ranges reported by ISAAC (Shafiee et al.) and the
//! PCM characterisation of Le Gallo et al. that the paper cites.

/// Geometry and device parameters of the crossbar accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarConfig {
    /// Rows of one crossbar tile (operand vector length).
    pub tile_rows: usize,
    /// Columns of one crossbar tile (output vector length).
    pub tile_cols: usize,
    /// Number of crossbar tiles in the accelerator.
    pub num_tiles: usize,
    /// Bits stored per memristive cell.
    pub cell_bits: u32,
    /// Bits of the weight operands (INT32 workloads are bit-sliced).
    pub weight_bits: u32,
    /// Latency of one analog MVM issue on a tile, in seconds (DAC + array +
    /// sample/hold), excluding ADC readout.
    pub mvm_latency_s: f64,
    /// Latency of one ADC conversion (one column, one slice), in seconds.
    pub adc_latency_s: f64,
    /// Number of ADCs shared per tile (columns are read out in groups).
    pub adcs_per_tile: usize,
    /// Latency of programming one cell (including write-verify), in seconds.
    pub cell_write_latency_s: f64,
    /// Cells programmed in parallel during tile programming (one row at a
    /// time is typical for write-verify PCM programming).
    pub parallel_writes: usize,
    /// Energy of one analog MVM on a full tile, in joules.
    pub mvm_energy_j: f64,
    /// Energy of one ADC conversion, in joules.
    pub adc_energy_j: f64,
    /// Energy of programming one cell, in joules.
    pub cell_write_energy_j: f64,
    /// Static/peripheral power of the accelerator, in watts.
    pub static_power_w: f64,
    /// Host worker threads used for the *functional* side of the simulation
    /// (per-tile MVM execution in batches). `0` means "use all available
    /// cores", `1` (the default) is fully sequential. This knob changes only
    /// simulator wall-clock time — results and accounted statistics are
    /// bit-identical for every value.
    pub host_threads: usize,
    /// The persistent worker pool executing the functional simulation
    /// (batched MVMs and the rows of
    /// [`CrossbarAccelerator::mvm_band`](crate::CrossbarAccelerator::mvm_band)).
    /// Defaults to the process-global pool; harnesses construct one shared
    /// pool per sweep. Never affects results or accounted statistics.
    pub pool: cinm_runtime::PoolHandle,
    /// Deterministic fault-injection schedule (`None` = fault-free). The
    /// transfer rates of the schedule drive transient write/MVM faults here;
    /// `stuck_tiles` marks crossbar tiles with permanent stuck-at defects
    /// that reject programming and MVMs. Faults are injected before any
    /// state is touched or accounted, so a faulted operation can always be
    /// retried and recovered runs stay bit-identical to fault-free ones.
    pub fault: Option<cinm_runtime::FaultConfig>,
    /// Optional metrics registry: when set, the accelerator registers
    /// per-op counters (`cim.mvm_ops`, `cim.tile_writes`, injected faults)
    /// and accumulates `cim.energy_j`. Recording is atomics-only and never
    /// affects results or accounted statistics. Equality is registry
    /// identity.
    pub telemetry: Option<cinm_telemetry::Telemetry>,
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        CrossbarConfig {
            tile_rows: 64,
            tile_cols: 64,
            num_tiles: 4,
            cell_bits: 2,
            weight_bits: 32,
            mvm_latency_s: 100.0e-9,
            adc_latency_s: 1.0e-9,
            adcs_per_tile: 4,
            cell_write_latency_s: 60.0e-9,
            parallel_writes: 64,
            mvm_energy_j: 2.0e-9,
            adc_energy_j: 2.0e-12,
            cell_write_energy_j: 10.0e-12,
            static_power_w: 0.25,
            host_threads: 1,
            pool: cinm_runtime::PoolHandle::global(),
            fault: None,
            telemetry: None,
        }
    }
}

impl CrossbarConfig {
    /// Overrides the number of host worker threads used for functional
    /// simulation (`0` = all available cores).
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Attaches a shared worker pool (see [`CrossbarConfig::pool`]).
    pub fn with_pool(mut self, pool: cinm_runtime::PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches a deterministic fault-injection schedule (see
    /// [`CrossbarConfig::fault`]).
    pub fn with_fault(mut self, fault: cinm_runtime::FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attaches a metrics registry (see [`CrossbarConfig::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: cinm_telemetry::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Number of bit slices one weight is spread across.
    pub fn slices_per_weight(&self) -> usize {
        (self.weight_bits as usize).div_ceil(self.cell_bits as usize)
    }

    /// Time to program a full `tile_rows × tile_cols` tile.
    pub fn tile_program_seconds(&self) -> f64 {
        let cells = (self.tile_rows * self.tile_cols * self.slices_per_weight()) as f64;
        cells / self.parallel_writes as f64 * self.cell_write_latency_s
    }

    /// Energy to program a full tile.
    pub fn tile_program_energy(&self) -> f64 {
        let cells = (self.tile_rows * self.tile_cols * self.slices_per_weight()) as f64;
        cells * self.cell_write_energy_j
    }

    /// Time of one MVM on a tile including the (shared-ADC) readout of every
    /// column of every slice.
    pub fn mvm_seconds(&self) -> f64 {
        let conversions = (self.tile_cols * self.slices_per_weight()) as f64;
        self.mvm_latency_s + conversions / self.adcs_per_tile as f64 * self.adc_latency_s
    }

    /// Energy of one MVM on a tile including readout.
    pub fn mvm_energy(&self) -> f64 {
        let conversions = (self.tile_cols * self.slices_per_weight()) as f64;
        self.mvm_energy_j + conversions * self.adc_energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let c = CrossbarConfig::default();
        assert_eq!(c.tile_rows, 64);
        assert_eq!(c.tile_cols, 64);
        assert_eq!(c.num_tiles, 4);
        assert_eq!(c.slices_per_weight(), 16);
    }

    #[test]
    fn writes_are_orders_of_magnitude_slower_than_mvms() {
        let c = CrossbarConfig::default();
        // The central premise of the cim-min-writes optimisation: programming
        // a tile costs far more than computing with it.
        assert!(c.tile_program_seconds() > 50.0 * c.mvm_seconds());
        assert!(c.tile_program_energy() > c.mvm_energy());
    }

    #[test]
    fn mvm_latency_is_roughly_constant_time() {
        let c = CrossbarConfig::default();
        // ~100ns array + readout — well under a microsecond.
        assert!(c.mvm_seconds() < 1.0e-6);
        assert!(c.mvm_seconds() >= c.mvm_latency_s);
    }
}
