//! A counting global allocator for zero-allocation regression tests.
//!
//! The workspace's hot loops (the phase driver beat loop, the tenancy
//! service event loop) are required to perform **zero** heap
//! allocations per beat once warmed up. That property is easy to
//! regress silently — a stray `collect()` or `Box::new` compiles fine
//! and only shows up as throughput loss. This crate makes the property
//! testable: install [`CountingAlloc`] as the `#[global_allocator]`
//! in a test binary, snapshot [`allocations`] around the warmed
//! region, and assert the delta is zero.
//!
//! ```ignore
//! use alloc_counter::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let before = alloc_counter::allocations();
//! run_warmed_hot_loop();
//! assert_eq!(alloc_counter::allocations() - before, 0);
//! ```
//!
//! Counters are process-global relaxed atomics: cheap enough to leave
//! enabled for an entire test binary, and exact as long as the
//! measured region runs on one thread (measurement tests should be
//! the only `#[test]` in their file so the libtest harness cannot run
//! a neighbour concurrently).
//!
//! This is the one crate in the workspace allowed to contain `unsafe`:
//! implementing [`GlobalAlloc`] requires it. Every unsafe call simply
//! forwards to [`std::alloc::System`] with the caller's own contract.

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total `alloc` + `realloc` calls since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Total `dealloc` calls since process start.
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Total bytes requested by `alloc`, `alloc_zeroed` and `realloc`
/// (its new size) since process start.
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and counts calls.
///
/// `realloc` counts as an allocation: a growing `Vec` in the hot loop
/// is exactly the churn the zero-allocation tests exist to catch.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A counting allocator (all state is in process-global statics,
    /// so every instance observes the same counters).
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards the caller's layout/pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counter
// updates are lock-free atomics and cannot allocate or panic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
///
/// Only meaningful when [`CountingAlloc`] is installed as the
/// `#[global_allocator]` of the running binary; otherwise stays 0.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deallocation calls so far. See [`allocations`] for caveats.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by allocation calls so far (a `realloc` counts its
/// new size). See [`allocations`] for caveats.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}
