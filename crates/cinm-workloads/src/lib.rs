//! # cinm-workloads — the benchmark suite of the CINM evaluation
//!
//! Provides the fifteen applications of the paper's evaluation (Table 4):
//! the ML/linear-algebra kernels used for the CIM comparison and the UPMEM
//! optimisation study, and the PrIM kernels used for the comparison against
//! hand-optimised DPU code. Each workload knows its shapes at three scales,
//! builds its high-level IR representation (`linalg`/`tosa`, or `cinm` for
//! the manually translated PrIM kernels), generates deterministic input data
//! and records the hand-written UPMEM C/C++ lines of code of Table 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod data;
pub mod suite;

pub use suite::{build_func, Scale, WorkloadId, WorkloadParams};
