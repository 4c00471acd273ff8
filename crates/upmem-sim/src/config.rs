//! Configuration of the simulated UPMEM system.
//!
//! Default values follow the paper's experimental setup (Section 4.1) and the
//! PrIM characterisation of the UPMEM architecture: DDR4-2400 PIM DIMMs with
//! 128 DPUs each, DPUs clocked at 350 MHz with a 14-stage fine-grained
//! multithreaded pipeline (fully utilised at ≥ 11 tasklets), 64 kB WRAM,
//! 64 MB MRAM, and DMA/host-transfer bandwidths in the ranges PrIM reports.

use crate::stats::TransferStats;

/// Per-instruction cycle costs of the DPU ISA (32-bit RISC, no hardware
/// 32-bit multiplier — multiplications are emulated and therefore expensive).
#[derive(Debug, Clone, PartialEq)]
pub struct InstrCosts {
    /// Integer add/sub/logic/compare.
    pub alu: f64,
    /// 32-bit integer multiply (the DPU has an 8×8 multiplier; wider
    /// multiplies are sequences of `mul_step` instructions — we charge the
    /// effective average cost).
    pub mul32: f64,
    /// 32-bit integer division.
    pub div32: f64,
    /// WRAM load or store.
    pub wram_access: f64,
    /// Loop/branch overhead per iteration.
    pub branch: f64,
}

impl Default for InstrCosts {
    fn default() -> Self {
        InstrCosts {
            alu: 1.0,
            mul32: 8.0,
            div32: 32.0,
            wram_access: 1.0,
            branch: 2.0,
        }
    }
}

/// First-order per-DPU energy model, the CNM counterpart of the crossbar
/// energy constants in `memristor_sim::CrossbarConfig`. Calibrated like the
/// timing model: against the published UPMEM/PrIM power characterisation
/// (a loaded rank of 128 DPUs draws ~23 W, i.e. ~180 mW per DPU at 350 MHz,
/// of which roughly a third is static) rather than per-event measurements,
/// so absolute joules are first-order but *relative* comparisons (CNM vs
/// CIM vs host, kernel vs transfer) are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyCosts {
    /// Dynamic energy per retired DPU instruction in joules (instruction
    /// fetch from IRAM, decode and the in-order pipeline, in DRAM-process
    /// logic — far costlier per op than a CMOS-process core).
    pub pipeline_j_per_instr: f64,
    /// Dynamic MRAM↔WRAM DMA energy per byte in joules (DRAM row activation
    /// plus the on-chip transfer).
    pub dma_j_per_byte: f64,
    /// Host↔MRAM transfer energy per byte in joules (DDR4 interface energy,
    /// ~7.5 pJ/bit).
    pub host_j_per_byte: f64,
    /// Static (leakage + clock) power per DPU in watts, charged for the
    /// duration of a launch across every DPU of the grid.
    pub static_w_per_dpu: f64,
}

impl Default for EnergyCosts {
    fn default() -> Self {
        EnergyCosts {
            pipeline_j_per_instr: 250.0e-12,
            dma_j_per_byte: 150.0e-12,
            host_j_per_byte: 60.0e-12,
            static_w_per_dpu: 0.06,
        }
    }
}

/// Configuration of the simulated UPMEM machine.
#[derive(Debug, Clone, PartialEq)]
pub struct UpmemConfig {
    /// Number of PIM DIMMs (the paper evaluates 4, 8 and 16).
    pub ranks: usize,
    /// DPUs per DIMM (16 chips × 8 DPUs = 128).
    pub dpus_per_rank: usize,
    /// Tasklets (hardware threads) used per DPU.
    pub tasklets: usize,
    /// DPU clock frequency in Hz.
    pub dpu_freq_hz: f64,
    /// WRAM scratchpad size in bytes.
    pub wram_bytes: usize,
    /// MRAM size in bytes.
    pub mram_bytes: usize,
    /// Pipeline depth that must be covered by tasklets for full issue rate.
    pub pipeline_depth: usize,
    /// Sustained MRAM↔WRAM DMA bandwidth per DPU in bytes/second.
    pub mram_bandwidth_bytes_per_s: f64,
    /// Fixed DMA setup latency in DPU cycles per transfer.
    pub dma_setup_cycles: f64,
    /// Sustained host↔MRAM bandwidth per rank in bytes/second
    /// (parallel transfers across ranks scale linearly).
    pub host_bandwidth_per_rank_bytes_per_s: f64,
    /// Fixed host-side latency per bulk transfer in seconds (driver overhead).
    pub host_transfer_latency_s: f64,
    /// Host worker threads used for the *functional* side of the simulation
    /// (kernel execution and bulk transfers over the slab storage). `0` means
    /// "use all available cores", `1` (the default) is fully sequential.
    /// This knob changes only simulator wall-clock time — simulated results
    /// and statistics are bit-identical for every value.
    pub host_threads: usize,
    /// The persistent worker pool executing the functional simulation (data
    /// parallelism inside launches and transfers). Defaults to the
    /// process-global pool; harnesses construct one shared pool per sweep.
    /// Never affects simulated results or statistics.
    pub pool: cinm_runtime::PoolHandle,
    /// Per-instruction cycle costs.
    pub instr: InstrCosts,
    /// Per-event energy costs (see [`EnergyCosts`]): every launch and bulk
    /// transfer is billed joules next to seconds, accumulated into
    /// [`SystemStats`](crate::SystemStats).
    pub energy: EnergyCosts,
    /// Optional metrics registry: when set, the system registers per-op
    /// counters (`upmem.launches`, scatter/gather/broadcast bytes, injected
    /// faults) and accumulates `upmem.energy_j`. Recording is atomics-only —
    /// the warmed hot path stays allocation-free — and never affects
    /// simulated results or statistics. Equality is registry identity.
    pub telemetry: Option<cinm_telemetry::Telemetry>,
    /// Deterministic fault-injection schedule (`None` = fault-free). Faults
    /// are injected before any state is touched or accounted, so a faulted
    /// operation can always be retried and recovered runs stay bit-identical
    /// to fault-free ones.
    pub fault: Option<cinm_runtime::FaultConfig>,
}

impl Default for UpmemConfig {
    fn default() -> Self {
        UpmemConfig::with_ranks(16)
    }
}

impl UpmemConfig {
    /// Creates the paper's configuration with the given number of DIMMs
    /// (e.g. 4, 8 or 16) and 16 tasklets per DPU.
    pub fn with_ranks(ranks: usize) -> Self {
        UpmemConfig {
            ranks,
            dpus_per_rank: 128,
            tasklets: 16,
            dpu_freq_hz: 350.0e6,
            wram_bytes: 64 * 1024,
            mram_bytes: 64 * 1024 * 1024,
            pipeline_depth: 11,
            mram_bandwidth_bytes_per_s: 700.0e6,
            dma_setup_cycles: 77.0,
            host_bandwidth_per_rank_bytes_per_s: 1.0e9,
            host_transfer_latency_s: 40.0e-6,
            host_threads: 1,
            pool: cinm_runtime::PoolHandle::global(),
            instr: InstrCosts::default(),
            energy: EnergyCosts::default(),
            telemetry: None,
            fault: None,
        }
    }

    /// Attaches a metrics registry (see [`UpmemConfig::telemetry`]).
    pub fn with_telemetry(mut self, telemetry: cinm_telemetry::Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a deterministic fault-injection schedule (see
    /// [`UpmemConfig::fault`]).
    pub fn with_fault(mut self, fault: cinm_runtime::FaultConfig) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Overrides the number of tasklets per DPU.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        assert!((1..=24).contains(&tasklets), "tasklets must be in 1..=24");
        self.tasklets = tasklets;
        self
    }

    /// Overrides the number of host worker threads used for functional
    /// simulation (`0` = all available cores).
    pub fn with_host_threads(mut self, host_threads: usize) -> Self {
        self.host_threads = host_threads;
        self
    }

    /// Attaches a shared worker pool (see [`UpmemConfig::pool`]).
    pub fn with_pool(mut self, pool: cinm_runtime::PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Total number of DPUs in the system.
    pub fn num_dpus(&self) -> usize {
        self.ranks * self.dpus_per_rank
    }

    /// Effective issue slots: with fewer tasklets than the pipeline depth the
    /// DPU cannot dispatch an instruction every cycle.
    ///
    /// Returns the average cycles per retired instruction.
    pub fn cycles_per_instruction(&self) -> f64 {
        let t = self.tasklets as f64;
        let depth = self.pipeline_depth as f64;
        if t >= depth {
            1.0
        } else {
            depth / t
        }
    }

    /// Seconds corresponding to the given number of DPU cycles.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.dpu_freq_hz
    }

    /// DMA time in cycles for one MRAM↔WRAM transfer of `bytes` bytes.
    pub fn dma_cycles(&self, bytes: f64) -> f64 {
        let bytes_per_cycle = self.mram_bandwidth_bytes_per_s / self.dpu_freq_hz;
        self.dma_setup_cycles + bytes / bytes_per_cycle
    }

    /// What a scatter or gather of `elems` host elements bills: `elems × 4`
    /// bytes spread across all ranks in parallel, plus one transfer latency.
    pub fn chunked_transfer(&self, elems: usize) -> TransferStats {
        let bytes = (elems * 4) as u64;
        let bw = self.host_bandwidth_per_rank_bytes_per_s * self.ranks as f64;
        TransferStats {
            bytes,
            seconds: self.host_transfer_latency_s + bytes as f64 / bw,
            energy_j: self.transfer_energy_j(bytes as f64),
        }
    }

    /// What a broadcast of `elems` elements into the MRAM of every DPU
    /// bills. Every replica crosses the host interface (`elems × 4 ×
    /// num_dpus` bytes and their energy), but the replicated image is pushed
    /// to all ranks in parallel (PrIM-style `dpu_broadcast_to`), so the time
    /// is that of writing one rank's worth of copies — `elems × 4 ×
    /// dpus_per_rank` bytes — through a single rank's channel, independent
    /// of the number of ranks. Unlike
    /// [`chunked_transfer`](Self::chunked_transfer), which spreads
    /// *distinct* data across ranks, a broadcast sends the *same* data to
    /// every rank.
    pub fn broadcast_transfer(&self, elems: usize) -> TransferStats {
        let bytes = (elems * 4 * self.num_dpus()) as u64;
        let rank_image = (elems * 4) as f64 * self.dpus_per_rank as f64;
        TransferStats {
            bytes,
            seconds: self.host_transfer_latency_s
                + rank_image / self.host_bandwidth_per_rank_bytes_per_s,
            energy_j: self.transfer_energy_j(bytes as f64),
        }
    }

    /// Host↔MRAM transfer energy in joules for the given *billed* bytes
    /// (for a broadcast that is every replica, matching the byte accounting
    /// of [`SystemStats`](crate::SystemStats) — every replica is physically
    /// written into a DPU's MRAM).
    fn transfer_energy_j(&self, bytes: f64) -> f64 {
        bytes * self.energy.host_j_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_machine() {
        let c = UpmemConfig::default();
        assert_eq!(c.ranks, 16);
        assert_eq!((c.dpus_per_rank, c.dpu_freq_hz), (128, 350.0e6));
        assert_eq!(c.num_dpus(), 2048);
        assert_eq!(c.tasklets, 16);
        assert_eq!(c.wram_bytes, 65_536);
        assert_eq!(c.mram_bytes, 67_108_864);
    }

    #[test]
    fn pipeline_model_saturates_at_depth() {
        let full = UpmemConfig::with_ranks(4).with_tasklets(16);
        assert_eq!(full.cycles_per_instruction(), 1.0);
        let half = UpmemConfig::with_ranks(4).with_tasklets(4);
        assert!(half.cycles_per_instruction() > 2.0);
        // More tasklets never hurt.
        assert!(
            UpmemConfig::with_ranks(4)
                .with_tasklets(24)
                .cycles_per_instruction()
                <= UpmemConfig::with_ranks(4)
                    .with_tasklets(1)
                    .cycles_per_instruction()
        );
    }

    #[test]
    fn dma_and_host_transfer_costs_scale_with_bytes() {
        let c = UpmemConfig::with_ranks(4);
        assert!(c.dma_cycles(2048.0) > c.dma_cycles(256.0));
        // Fixed setup cost dominates tiny transfers.
        assert!(c.dma_cycles(8.0) > 70.0);
        // Host transfers scale with ranks: 16 ranks move data 4x faster than 4.
        let t4 = UpmemConfig::with_ranks(4).chunked_transfer(250_000_000);
        let t16 = UpmemConfig::with_ranks(16).chunked_transfer(250_000_000);
        assert!(t4.seconds > 3.0 * t16.seconds);
    }

    #[test]
    #[should_panic(expected = "tasklets must be in 1..=24")]
    fn tasklet_bounds_are_enforced() {
        let _ = UpmemConfig::with_ranks(1).with_tasklets(25);
    }
}
