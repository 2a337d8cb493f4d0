//! A counting global allocator for allocation-budget tests.
//!
//! A test binary that pins an allocation count installs the allocator
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: rubik_testalloc::CountingAllocator = rubik_testalloc::CountingAllocator;
//! ```
//!
//! and reads [`allocations`] (or [`bytes_allocated`], for a heap budget)
//! before and after the code under test.
//!
//! The count is **per thread**. The test harness runs a binary's tests on
//! parallel threads, so a process-wide counter charges each test with
//! whatever its neighbours allocate at the same moment, and the budgets
//! flake under load. Code under test must therefore allocate on the
//! calling thread (every measured run in this workspace is single-threaded).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so touching them from
    // inside the allocator never allocates or registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made
/// on each thread, and the bytes they request.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations made so far on the calling thread (zero
/// unless [`CountingAllocator`] is the binary's global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Bytes requested so far on the calling thread: each allocation's size,
/// and each reallocation's full new size. Frees never subtract, so the
/// difference across a measured section bounds the heap it can have kept
/// (zero unless [`CountingAllocator`] is the binary's global allocator).
pub fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}
