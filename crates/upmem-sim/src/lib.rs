//! # upmem-sim — a functional and timing simulator of the UPMEM PIM system
//!
//! The CINM paper evaluates its CNM backend on a real 16-DIMM UPMEM machine.
//! This crate stands in for that machine: it models the DPU grid (128
//! general-purpose 350 MHz DPUs per DIMM, each with 64 kB WRAM and 64 MB
//! MRAM), host↔MRAM bulk transfers, MRAM↔WRAM DMA, and the fine-grained
//! multithreaded pipeline of the DPU, while executing kernels *functionally*
//! on per-DPU data so that results can be validated against a host reference.
//!
//! The intended flow is exactly the UPMEM SDK flow the paper's `upmem`
//! dialect lowers to:
//!
//! 1. allocate buffers on the grid ([`UpmemSystem::alloc_buffer`]),
//! 2. scatter / broadcast host data ([`UpmemSystem::scatter_i32`],
//!    [`UpmemSystem::broadcast_i32`]),
//! 3. launch a kernel ([`UpmemSystem::launch`] with a [`KernelSpec`]),
//! 4. gather results ([`UpmemSystem::gather_i32`]) and read the accumulated
//!    [`SystemStats`].
//!
//! ```
//! use upmem_sim::{BinOp, DpuKernelKind, KernelSpec, UpmemConfig, UpmemSystem};
//!
//! # fn main() -> Result<(), upmem_sim::SimError> {
//! let mut cfg = UpmemConfig::with_ranks(1);
//! cfg.dpus_per_rank = 2;
//! let mut sys = UpmemSystem::new(cfg);
//! let a = sys.alloc_buffer(4)?;
//! let b = sys.alloc_buffer(4)?;
//! let c = sys.alloc_buffer(4)?;
//! sys.scatter_i32(a, &[1, 2, 3, 4, 5, 6, 7, 8], 4)?;
//! sys.scatter_i32(b, &[10, 20, 30, 40, 50, 60, 70, 80], 4)?;
//! sys.launch(&KernelSpec::new(
//!     DpuKernelKind::Elementwise { op: BinOp::Add, len: 4 },
//!     vec![a, b],
//!     c,
//! ))?;
//! let (sum, _) = sys.gather_i32(c, 4)?;
//! assert_eq!(sum, vec![11, 22, 33, 44, 55, 66, 77, 88]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod exec;
pub mod kernel;
pub mod naive;
pub mod stats;
pub mod system;

// The band-scheduling helpers previously duplicated here (`par`) and in
// `memristor_sim::crossbar` now live in `cinm-runtime`; the canonical
// `resolve_threads` is re-exported for downstream users.
pub use cinm_runtime::{
    resolve_threads, FaultConfig, FaultInjector, FaultKind, PoolHandle, RetryPolicy, WorkerPool,
};

pub use config::{InstrCosts, UpmemConfig};
pub use kernel::{BinOp, DpuKernelKind, FusedArg, FusedStage, KernelSpec, MAX_FUSED_STAGES};
pub use naive::NaiveUpmemSystem;
pub use stats::{LaunchStats, SystemStats, TransferStats};
pub use system::{
    kernel_launch_cost, validate_kernel_shape, BufferId, DpuSystem, HostImage, SimError, SimResult,
    UpmemSystem,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_with_ranks_improves_kernel_throughput_per_element() {
        // The same total problem mapped to more DIMMs => smaller per-DPU
        // chunks => shorter kernel time (Figure 12 behaviour).
        let total: usize = 1 << 20;
        let mut times = Vec::new();
        for ranks in [4, 8, 16] {
            let cfg = UpmemConfig::with_ranks(ranks);
            let n_dpus = cfg.num_dpus();
            let chunk = total / n_dpus;
            let mut sys = UpmemSystem::new(cfg);
            let a = sys.alloc_buffer(chunk).unwrap();
            let b = sys.alloc_buffer(chunk).unwrap();
            let c = sys.alloc_buffer(chunk).unwrap();
            let spec = KernelSpec::new(
                DpuKernelKind::Elementwise {
                    op: BinOp::Add,
                    len: chunk,
                },
                vec![a, b],
                c,
            );
            let stats = sys.launch(&spec).unwrap();
            times.push(stats.seconds);
        }
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
    }
}
