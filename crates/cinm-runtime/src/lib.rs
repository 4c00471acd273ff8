//! # cinm-runtime — the shared host runtime of the CINM simulators
//!
//! The paper's Figure 4 flow ends in device back-ends that drive a host
//! runtime; PrIM-style host programs and the UPMEM SDK both model that host
//! side as an asynchronous command queue with explicit synchronisation. This
//! crate provides the two building blocks both simulators share:
//!
//! * [`WorkerPool`] / [`PoolHandle`] — a **persistent worker pool**: threads
//!   are spawned once and re-used for every launch and transfer, replacing
//!   the per-operation `std::thread::scope` spawns of the seed. The
//!   band-scheduling helpers [`resolve_threads`] and
//!   [`PoolHandle::for_each_band_mut`] (with the per-chunk
//!   [`PoolHandle::for_each_chunk_mut`] on top of it) live here as the single
//!   source of truth (they were previously duplicated in `upmem_sim::par`
//!   and `memristor_sim::crossbar`).
//! * [`CommandStream`] / [`execute_stream`] — a **hazard-tracked command
//!   stream**: devices record commands with per-buffer read/write sets
//!   ([`Access`]), [`hazard_deps`] builds a RAW/WAR/WAW dependency DAG, and
//!   the stream executes on the pool with independent commands overlapping
//!   while dependent chains stay ordered. Results and accounted statistics
//!   are bit-identical to eager sequential execution for any thread count.
//! * [`alloc_count`] — a counting global allocator, the measurement side of
//!   the "allocation-free hot path" contract: `tests/alloc_regression.rs`
//!   asserts zero steady-state allocations in the launch+MVM loop with it,
//!   and `cinm-benchmark` reports `runtime.allocs_per_op` per workload.
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
    CommandError, FaultConfig, FaultEvent, FaultInjector, FaultKind, FaultStats, RetryLog,
    RetryPolicy,
};
pub use pool::{resolve_threads, PoolHandle, Scope, WorkerPool};
pub use queue::{AdmissionError, FairQueue};
pub use stream::{execute_stream, hazard_deps, Access, BufferId, CommandStream, StreamCommand};
