//! # CINM (Cinnamon) — Rust reproduction facade
//!
//! A compilation infrastructure for heterogeneous compute-in-memory (CIM) and
//! compute-near-memory (CNM) paradigms, reproduced from the ASPLOS 2024 paper
//! by Khan et al. This facade crate re-exports the whole stack:
//!
//! * [`ir`] — the MLIR-like IR substrate (types, ops, regions, passes);
//! * [`dialects`] — the dialect stack (`linalg`/`tosa` front ends, the
//!   device-agnostic `cinm` abstraction, the `cnm`/`cim` paradigm
//!   abstractions and the `upmem`/`memristor` device dialects);
//! * [`lowering`] — the progressive-lowering passes and the device back-ends;
//! * [`runtime`] — the shared host runtime: the persistent worker pool and
//!   the recorded command batches both simulators apply in program order;
//! * [`telemetry`] — the lock-light production metrics registry (counters,
//!   gauges, histograms; atomics on the hot path) every layer above exports
//!   per-op, per-tenant and energy series into;
//! * [`upmem`] / [`memristor`] / [`cpu`] — the simulated evaluation substrate;
//! * [`workloads`] — the fifteen benchmark applications of the evaluation;
//! * [`core`] — pipelines, target selection, cost models, the experiment
//!   runners regenerating every table and figure of the paper, and the
//!   [`core::session::Session`] graph API — the one public execution entry
//!   point: lazy op graphs over typed tensor handles, shard-planned across
//!   the [`lowering::Device`] set, with device-resident intermediates.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `EXPERIMENTS.md` for the paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub use cinm_core as core;
pub use cinm_dialects as dialects;
pub use cinm_ir as ir;
pub use cinm_lowering as lowering;
pub use cinm_runtime as runtime;
pub use cinm_telemetry as telemetry;
pub use cinm_workloads as workloads;
pub use cpu_sim as cpu;
pub use memristor_sim as memristor;
pub use upmem_sim as upmem;
