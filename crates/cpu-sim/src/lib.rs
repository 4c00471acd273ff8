//! # cpu-sim — host CPU reference executors and baseline timing models
//!
//! The CINM evaluation compares its generated device code against two host
//! baselines: the optimised Xeon `cpu-opt` configuration (Figures 11/12) and
//! the in-order ARM host of the gem5 CIM setup (Figure 10). This crate
//! provides
//!
//! * [`kernels`] — golden single-threaded implementations of every evaluated
//!   kernel, used to validate the functional results of the UPMEM and
//!   memristor simulators, and
//! * [`model`] — first-order roofline timing/energy models for the two
//!   baseline CPUs.
//!
//! ```
//! use cpu_sim::kernels::matmul;
//! use cpu_sim::model::{CpuModel, OpCounts};
//!
//! let c = matmul(&[1, 2, 3, 4], &[5, 6, 7, 8], 2, 2, 2);
//! assert_eq!(c, vec![19, 22, 43, 50]);
//!
//! let time = CpuModel::xeon_opt().execution_seconds(&OpCounts::dense(1e9, 4e6, 4e6));
//! assert!(time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod kernels;
pub mod model;

pub use model::{CpuModel, OpCounts};
