//! Counting allocator: the copy/allocation pin of ROADMAP item 1.
//!
//! Every allocation of every thread — client, in-process servers, delay
//! relay — is counted while [`arm`]ed, so `allocs_per_op` and
//! `alloc_kib_per_op` move when a change adds or removes a page copy
//! anywhere on the data path. The harness itself allocates one expected
//! page (8 KiB) per random-mix op inside the armed region; that constant
//! is part of the reported figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s contract is the one upheld; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Starts (`true`) or stops (`false`) counting; returns the previous
/// state, so a caller can suspend counting and restore it.
pub fn arm(on: bool) -> bool {
    ARMED.swap(on, Ordering::Relaxed)
}

/// `(allocations, bytes)` counted so far.
pub fn counted() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
