//! A counting global allocator. Counting is off unless a traced run
//! switches it on, so timed runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static GLOBAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// a relaxed atomic and a const-initialised thread-local `Cell`, neither
// of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[inline]
fn count() {
    if ON.load(Ordering::Relaxed) {
        GLOBAL.fetch_add(1, Ordering::Relaxed);
        // a thread being torn down has no slot left; skip it
        let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    }
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Allocations (and reallocations) made by every thread while counting.
pub fn global() -> u64 {
    GLOBAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread while counting.
pub fn local() -> u64 {
    LOCAL.with(Cell::get)
}
