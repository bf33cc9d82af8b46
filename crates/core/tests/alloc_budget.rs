//! The allocation budget of one fault, as a count.
//!
//! A no-reliability pagein or rewrite over a real `MemoryServer` is one
//! frame each way; this test counts every allocation every thread makes
//! while a thousand of each run — client, reactor driver and server
//! session together — and holds the per-op figure to a budget. The pager
//! is a one-shard `ShardedPager`, so the budget covers the whole split
//! path: begin under the shard lock, park without it, complete — a
//! flight allocates nothing. Counts
//! repeat exactly from run to run, so there is no timing in it: a change
//! that puts a page-sized buffer or a per-call `Vec` back on the data
//! path fails here, by the number it added.
//!
//! The counting allocator is the binary's global allocator, so this file
//! holds exactly one test: a second one running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rmp_cluster::{Registry, ServerInfo};
use rmp_core::ShardedPager;
use rmp_server::{MemoryServer, ServerConfig};
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId};

struct Counting;

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

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, KiB)` per op over `ops` calls of `op`, every thread's
/// counted.
fn per_op(ops: u64, mut op: impl FnMut(u64)) -> (f64, f64) {
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ARMED.store(true, Ordering::Relaxed);
    for i in 0..ops {
        op(i);
    }
    ARMED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    (
        allocs as f64 / ops as f64,
        bytes as f64 / 1024.0 / ops as f64,
    )
}

#[test]
fn a_fault_stays_within_its_allocation_budget() {
    const PAGES: u64 = 64;
    const OPS: u64 = 1000;

    let server = MemoryServer::spawn(ServerConfig::default()).expect("spawn server");
    let mut registry = Registry::new();
    registry
        .add(ServerInfo {
            id: ServerId(0),
            addr: server.addr().to_string(),
            link_cost: 1.0,
        })
        .expect("register");
    // No read-ahead: which reads it would turn into batches, and when a
    // batch is harvested, depends on what has arrived by then — the one
    // thing here that would not count the same twice.
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(1)
        .with_shard_count(1)
        .with_prefetch_window(0);
    let pager = ShardedPager::connect(config, &registry).expect("connect pager");

    // Everything that grows once — the placement table, the store's map,
    // the connection's buffers, the trace ring — grows here, uncounted.
    let pages: Vec<Page> = (0..PAGES).map(Page::deterministic).collect();
    for round in 0..2 {
        for (id, page) in pages.iter().enumerate() {
            pager.page_out(PageId(id as u64), page).expect("preload");
            if round == 1 {
                pager.page_in(PageId(id as u64)).expect("warm read");
            }
        }
    }

    // Scattered, as a random-access client's faults are.
    let scattered = |i: u64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % PAGES;

    let (allocs, kib) = per_op(OPS, |i| {
        let id = scattered(i);
        let page = pager.page_in(PageId(id)).expect("pagein");
        assert_eq!(page, pages[id as usize]);
    });
    // Measured: 1.001 allocations and 8.05 KiB — the page handed back.
    println!("pagein: {allocs:.3} allocations, {kib:.3} KiB per op");
    // Strictly: one more allocation per op is exactly 2.
    assert!(allocs < 2.0, "a pagein made {allocs} allocations");
    assert!(kib <= 9.0, "a pagein allocated {kib} KiB");

    let (allocs, kib) = per_op(OPS, |i| {
        let id = scattered(i);
        pager
            .page_out(PageId(id), &pages[((id + 1) % PAGES) as usize])
            .expect("rewrite");
    });
    // Measured: 1.000 allocations and 8.02 KiB — the page the server keeps.
    println!("rewrite: {allocs:.3} allocations, {kib:.3} KiB per op");
    assert!(allocs < 2.0, "a rewrite made {allocs} allocations");
    assert!(kib <= 9.0, "a rewrite allocated {kib} KiB");

    drop(pager);
    server.shutdown();
}
