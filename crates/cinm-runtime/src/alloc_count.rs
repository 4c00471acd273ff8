//! A counting global allocator for allocation-regression testing.
//!
//! The hot-path work of this codebase (launches, MVMs, transfers) is meant to
//! be **allocation-free in steady state**: the simulators reuse slabs, scratch
//! arenas and shape-keyed execution contexts instead of allocating fresh
//! `Vec`s per operation. This module provides the measurement side of that
//! contract: [`CountingAllocator`] wraps the system allocator and counts every
//! allocation (the call and the bytes it asked for) per thread, so
//! `tests/alloc_regression.rs` can assert that a warmed-up launch+MVM loop
//! performs **zero** heap allocations and that a cold run stays under a byte
//! ceiling, and `cinm-benchmark` can report `runtime.allocs_per_op` next to
//! its wall-clock numbers.
//!
//! Counters are thread-local (const-initialised, so reading them never
//! allocates or recurses into the allocator) — a measurement window on one
//! thread is unaffected by allocator traffic on pool workers or other test
//! threads. A process-global total is kept as well, which doubles as the
//! "is a counting allocator installed?" signal: binaries that never installed
//! [`CountingAllocator`] as their `#[global_allocator]` observe a total of
//! zero and must not interpret per-thread deltas as a real measurement.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cinm_runtime::alloc_count::CountingAllocator =
//!     cinm_runtime::alloc_count::CountingAllocator;
//!
//! let (result, allocs) = cinm_runtime::alloc_count::count_in(|| hot_loop());
//! assert_eq!(allocs, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocations performed by the current thread (const-init: reading or
    /// bumping this cell can never itself allocate).
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a `realloc` counts its growth).
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide allocation count (all threads). Non-zero once any allocation
/// went through an installed [`CountingAllocator`].
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` that forwards to [`System`] and counts every
/// `alloc`/`realloc` call per thread (frees are not counted: a regression
/// test that sees zero allocations in a window has, by construction, also
/// seen zero frees of newly allocated blocks).
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the bookkeeping touches only a
// const-initialised thread-local `Cell` and a relaxed atomic, neither of
// which can allocate or panic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[inline]
fn record(bytes: usize) {
    // `try_with`: during thread teardown the TLS slot may be gone; missing a
    // count there is fine (measurement windows never span thread exit).
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Allocations performed by the **current thread** so far. Only meaningful
/// when [`CountingAllocator`] is installed as the global allocator (see
/// [`installed`]).
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Whether a [`CountingAllocator`] is actually installed in this process
/// (heuristic: some allocation has been counted — always true by the time
/// `main` runs under an installed counting allocator).
pub fn installed() -> bool {
    TOTAL_ALLOCS.load(Ordering::Relaxed) > 0
}

/// Runs `f` and returns its result together with the number of allocations
/// the **current thread** performed inside it. Work `f` fans out to pool
/// workers is not attributed to this thread — pin `host_threads` to 1 when
/// the measured path must be provably allocation-free end to end.
pub fn count_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let result = f();
    (result, thread_allocations() - before)
}

/// [`count_in`] in bytes: runs `f` and returns its result together with the
/// number of bytes the **current thread** asked the allocator for inside it
/// (every `alloc`'s size plus every `realloc`'s growth; frees are not
/// subtracted, so this is allocation traffic, not a high-water mark).
pub fn bytes_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = THREAD_BYTES.with(Cell::get);
    let result = f();
    (result, THREAD_BYTES.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests run without `CountingAllocator` installed (the test
    // harness uses the default allocator), so they only exercise the counter
    // plumbing, not real interception — `tests/alloc_regression.rs` at the
    // workspace root installs the allocator for real.
    #[test]
    fn count_in_reports_a_delta_of_the_thread_counter() {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 5));
        let ((), seen) = count_in(|| {
            THREAD_ALLOCS.with(|c| c.set(c.get() + 3));
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn record_bumps_thread_and_total_counters() {
        let t0 = thread_allocations();
        let ((), bytes) = bytes_in(|| {
            record(24);
            record(8);
        });
        assert_eq!(bytes, 32);
        assert_eq!(thread_allocations(), t0 + 2);
        assert!(installed());
    }
}
