//! # cinm-lowering — progressive lowering and device back-ends
//!
//! This crate implements the paper's compilation pipeline on top of
//! `cinm-ir`/`cinm-dialects`:
//!
//! * [`convert`] — the dialect-conversion passes of Figure 4
//!   (`tosa → linalg → cinm → {cnm, cim} → {upmem, memristor}`) including the
//!   conv→GEMM and contraction→GEMM rewrites of Figure 5;
//! * [`cnm_op`] — the one lowering table from a `cinm` op to its `cnm`
//!   scatter / launch / gather form ([`cnm_op::CnmOp::geometry`]), read by
//!   every execution layer below, and the one derivation of how a DPU
//!   kernel is generated (tasklets, WRAM tile, locality optimisation,
//!   instruction overhead), shared by the pass, the backend and the cost
//!   model;
//! * [`backend`] — the device run-times the device dialects map onto:
//!   [`backend::UpmemBackend`] drives the `upmem-sim` DPU-grid simulator and
//!   [`backend::CimBackend`] drives the `memristor-sim` crossbar simulator
//!   with an ARM orchestration host, both functionally exact and timed;
//! * [`device`] — the **unified device abstraction**: the [`device::Target`]
//!   enum, the [`device::CostModel`] trait (`price(op) → {seconds, joules}`)
//!   and the [`device::Device`] trait (cost hookup, `run(op, operands)`)
//!   implemented by
//!   [`device::UpmemDevice`], [`device::CimDevice`] and
//!   [`device::HostDevice`], plus the per-device first-order cost models
//!   (the CNM model is calibrated against `upmem_sim::kernel_launch_cost`);
//! * [`sharded`] — heterogeneous sharded execution:
//!   [`sharded::ShardedBackend`] co-executes one `cinm` op across all three
//!   [`device::Device`]s concurrently on the shared `cinm_runtime` worker
//!   pool, merging results bit-identically to the golden host kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod batch;
mod cim_schedule;
pub mod cnm_op;
pub mod convert;
pub mod device;
mod pinned;
pub mod sharded;

pub use backend::{CimBackend, CimRunOptions, CimRunStats, UpmemBackend, UpmemRunOptions};
pub use batch::BatchPlan;
pub use convert::{
    CimLoweringOptions, CimToMemristorPass, CinmToCimPass, CinmToCnmPass, CnmLoweringOptions,
    CnmToUpmemPass, LinalgToCinmPass, TosaToLinalgPass, UpmemLoweringOptions,
};
pub use device::{
    CimCostModel, CimDevice, CnmCostModel, Cost, CostModel, Device, DeviceFuture, HostCostModel,
    HostDevice, ShardOp, ShardShape, Target, UpmemDevice,
};
pub use sharded::{ShardError, ShardSplit, ShardStats, ShardedBackend, ShardedRunOptions};
