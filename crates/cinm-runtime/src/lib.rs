//! # cinm-runtime — the shared host runtime of the CINM simulators
//!
//! The paper's Figure 4 flow ends in device back-ends that drive a host
//! runtime; a PrIM-style host program is a synchronous scatter → launch →
//! gather sequence, one call after another. This crate provides the building
//! blocks both simulators share:
//!
//! * [`WorkerPool`] / [`PoolHandle`] — a **persistent worker pool**: threads
//!   are spawned once and re-used for every launch and transfer, replacing
//!   the per-operation `std::thread::scope` spawns of the seed. The
//!   band-scheduling helpers [`resolve_threads`] and
//!   [`PoolHandle::for_each_band_mut`] (with the per-chunk
//!   [`PoolHandle::for_each_chunk_mut`] on top of it) live here as the single
//!   source of truth (they were previously duplicated in `upmem_sim::par`
//!   and `memristor_sim::crossbar`).
//! * [`FaultInjector`] / [`RetryPolicy`] — deterministic fault injection
//!   and capped-backoff retries. Every device command validates and draws
//!   its faults before it mutates anything, so one command is the unit of
//!   fault atomicity and retrying it is always safe (see [`fault`]).
//!   ([`hazard_deps`] and [`Access`] are retained for one benchmark probe
//!   only — see [`stream`].)
//! * [`alloc_count`] — a counting global allocator, the measurement side of
//!   the "allocation-free hot path" contract: `tests/alloc_regression.rs`
//!   asserts zero steady-state allocations in the launch+MVM loop with it,
//!   and `cinm-benchmark` reports `runtime.allocs_per_op` per workload.
//!
//! # `unsafe`
//!
//! Every other workspace crate is `#![forbid(unsafe_code)]`; this one keeps
//! six `unsafe` lines, each with its `SAFETY` argument next to it: the
//! `GlobalAlloc` pass-through of [`alloc_count`] (the `unsafe impl` and its
//! four `unsafe fn`s) and the one lifetime-erasing `transmute` behind
//! [`WorkerPool::scope`] in [`pool`].
//!
//! ```
//! use cinm_runtime::PoolHandle;
//!
//! let pool = PoolHandle::with_threads(2);
//! let mut data = vec![0i32; 8 * 16];
//! pool.for_each_chunk_mut(2, &mut data, 16, |chunk_index, chunk| {
//!     for v in chunk.iter_mut() {
//!         *v = chunk_index as i32;
//!     }
//! });
//! assert_eq!(data[0], 0);
//! assert_eq!(data[7 * 16], 7);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc_count;
pub mod fault;
pub mod pool;
pub mod queue;
pub mod stream;

pub use fault::{
    FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultStats, RetryLog, RetryPolicy,
};
pub use pool::{resolve_threads, PoolHandle, Scope, WorkerPool};
pub use queue::{AdmissionError, FairQueue};
pub use stream::{hazard_deps, Access, BufferId};
