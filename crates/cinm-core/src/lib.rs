//! # cinm-core — the CINM (Cinnamon) compiler driver and evaluation harness
//!
//! Ties the whole reproduction together:
//!
//! * [`pipeline`] — the pre-assembled lowering pipelines of Figure 4
//!   (`tosa/linalg → cinm → cnm → upmem` and `… → cim → memristor`);
//! * [`target`] — target selection and the cost-model registration mechanism
//!   of Sections 3.2.2 and 3.3;
//! * [`shard`] — the cost-model-driven shard planner splitting one op across
//!   UPMEM, the crossbar and the host (executed by
//!   `cinm_lowering::ShardedBackend`);
//! * [`runner`] — executes every benchmark on the host reference, the UPMEM
//!   backend and the crossbar backend, with simulated time and energy;
//! * [`experiments`] — regenerates Figure 10, Figure 11, Figure 12 and
//!   Table 4 of the paper, plus the heterogeneous-sharding study
//!   (see `EXPERIMENTS.md`);
//! * [`serve`] — the multi-tenant serving runtime: a [`SessionServer`]
//!   owning the device set, with admission control, cross-tenant batching
//!   keyed on canonical plan signatures, and weighted-fair scheduling.
//!
//! The `cinm-experiments` binary prints any of the experiments:
//!
//! ```text
//! cargo run -p cinm-core --release --bin cinm-experiments -- fig11 --scale bench
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
mod fusion;
mod pinned;
pub mod pipeline;
pub mod runner;
pub mod serve;
pub mod session;
pub mod shard;
pub mod target;

pub use experiments::{figure10, figure11, figure12, table4};
pub use pipeline::{cim_pipeline, cinm_pipeline, cnm_pipeline, compile};
pub use serve::{
    ModelId, RequestReport, RequestTicket, ServeError, ServerOptions, ServerResidency, ServerStats,
    SessionServer, TenantId, TenantSpec, TenantStats,
};
pub use session::{
    OptimizerStats, PlanCacheStats, ResidencyStats, Session, SessionOptions, TensorHandle,
    TensorShape,
};
pub use shard::{ShardPlan, ShardPlanner, ShardPolicy};
pub use target::{CostModel, Target, TargetSelector};
