//! The allocation budget of one fault, as a count.
//!
//! A no-reliability pagein or rewrite over a real `MemoryServer` is one
//! frame each way; this test counts every allocation every thread makes
//! while a thousand of each run — the client, which reads its own
//! replies, and the server session together — and holds the per-op figure to a budget. The pager
//! is a one-shard `ShardedPager`, so the budget covers the whole split
//! path: begin under the shard lock, park without it — or, for a rewrite,
//! land in a later turn — complete; a flight allocates nothing. Counts
//! repeat exactly from run to run, so there is no timing in it: a change
//! that puts a page-sized buffer or a per-call `Vec` back on the data
//! path fails here, by the number it added.
//!
//! A first placement is held to its count the same way, landing too.
//!
//! The same test then holds the waves of ISSUE 21 to their counts: a warm
//! two-frame burst against two one-frame submits, a sealing parity-log
//! pageout, an erasure-coded (4, 1) rewrite. And read-ahead to its: a
//! page read ahead is one plain read, so a sequential sweep through two
//! shards allocates its pages and nothing else, whoever fetched them.
//!
//! The counting allocator is the binary's global allocator, so this file
//! holds exactly one test: a second one running beside it would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{ShardedPager, WindowedTransport};
use rmp_proto::Message;
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId, StoreKey};

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

/// Runs `op` uncounted inside a [`per_op`] closure: what sets the counted
/// operation up. Every operation here has collected all its replies by
/// the time it returns, so no other thread is mid-allocation.
fn uncounted<R>(op: impl FnOnce() -> R) -> R {
    ARMED.store(false, Ordering::Relaxed);
    let done = op();
    ARMED.store(true, Ordering::Relaxed);
    done
}

/// `n` memory servers and a one-shard pager of `config` over them, with
/// no read-ahead: every fault is its own frame.
fn cluster(config: PagerConfig, n: u32) -> (Vec<ServerHandle>, ShardedPager) {
    connect(config.with_shard_count(1).with_prefetch_window(0), n)
}

/// `n` memory servers and a pager of `config` over them.
fn connect(config: PagerConfig, n: u32) -> (Vec<ServerHandle>, ShardedPager) {
    let mut registry = Registry::new();
    let servers: Vec<ServerHandle> = (0..n)
        .map(|id| {
            let server = MemoryServer::spawn(ServerConfig::default()).expect("spawn server");
            let addr = server.addr().to_string();
            let info = ServerInfo {
                id: ServerId(id),
                addr,
                link_cost: 1.0,
            };
            registry.add(info).expect("register");
            server
        })
        .collect();
    let pager = ShardedPager::connect(config, &registry).expect("connect pager");
    (servers, pager)
}

const PAGES: u64 = 64;
const OPS: u64 = 1000;

#[test]
fn a_fault_stays_within_its_allocation_budget() {
    a_burst_of_two_allocates_no_more_than_two_submits_of_one();
    a_sealing_pageout_and_a_coded_rewrite_keep_their_counts();
    a_sweep_on_read_ahead_allocates_its_pages_and_nothing_else();

    let config = PagerConfig::new(Policy::NoReliability).with_servers(1);
    let (servers, pager) = cluster(config, 1);

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

    // A rewrite returns with its frame on the wire and lands in a later
    // turn, so rewrites back to back keep up to a chunk of frames in
    // flight (`batch_max_pages`, within a window): the connection's reply
    // slots for that many are made here, uncounted, by a window of reads
    // (of keys no page has) at once. The
    // last rewrite is landed inside the count, so every landing — and its
    // server's store — is counted.
    pager.with_shard(0, |p| {
        let window = p.config().transport.window_max_inflight as u64;
        let keys = (0..window).map(|k| StoreKey((1 << 40) + k));
        let reads: Vec<_> = keys
            .map(|k| p.pool_mut().begin_page_in(ServerId(0), k))
            .collect();
        for read in reads {
            assert!(p
                .pool_mut()
                .finish_page_in_unretried(read)
                .expect("a miss")
                .is_none());
        }
    });
    let (allocs, kib) = per_op(OPS, |i| {
        let id = scattered(i);
        pager
            .page_out(PageId(id), &pages[((id + 1) % PAGES) as usize])
            .expect("rewrite");
        if i + 1 == OPS {
            assert_eq!(pager.stats().pageouts, 2 * PAGES + OPS);
        }
    });
    // Measured: 1.000 to 1.003 allocations and 8.02 KiB — the page the
    // server keeps, as when each caller waited for its ack. One more
    // allocation per hundred rewrites fails.
    println!("rewrite: {allocs:.3} allocations, {kib:.3} KiB per op");
    assert!(allocs < 1.01, "a rewrite made {allocs} allocations");
    assert!(kib <= 9.0, "a rewrite allocated {kib} KiB");

    // A first placement lands behind its caller like a rewrite; what it
    // adds is the page's entries — its row, its checksum, the server's
    // key — and an `Alloc` of 64 frame grants every 64 pages.
    let (allocs, kib) = per_op(OPS, |i| {
        let id = PAGES + i;
        pager
            .page_out(PageId(id), &pages[(id % PAGES) as usize])
            .expect("first placement");
        if i + 1 == OPS {
            assert_eq!(pager.stats().pageouts, 2 * PAGES + 2 * OPS);
        }
    });
    // Measured: 4.180 allocations and 8.41 KiB — the page the server
    // keeps, the placement's three short lists (the live servers the
    // cursor walks, the servers tried, the takers) and the tables'
    // growth. One allocation more per op fails.
    println!("first placement: {allocs:.3} allocations, {kib:.3} KiB per op");
    assert!(allocs < 5.18, "a first placement made {allocs} allocations");
    assert!(kib <= 9.0, "a first placement allocated {kib} KiB");

    drop(pager);
    servers.into_iter().for_each(ServerHandle::shutdown);
}

/// The slots of a burst come from the connection's pool like a lone
/// frame's, and a pair keeps them inline: once warm, what is left is the
/// reply vector `wait_all` hands back — one for the burst, two for the
/// two submits.
fn a_burst_of_two_allocates_no_more_than_two_submits_of_one() {
    let server = MemoryServer::spawn(ServerConfig::default()).expect("spawn server");
    let mut wire = WindowedTransport::connect(&server.addr().to_string()).expect("connect");
    let two = [Message::LoadQuery, Message::LoadQuery];
    let mut submit = |msgs: &[Message]| {
        let replies = wire
            .submit(msgs)
            .expect("submit")
            .wait_all()
            .expect("replies");
        assert_eq!(replies.len(), msgs.len());
    };
    (0..8).for_each(|_| submit(&two));
    let (singles, _) = per_op(OPS, |_| two.chunks(1).for_each(&mut submit));
    let (burst, _) = per_op(OPS, |_| submit(&two));
    println!("two submits of one: {singles:.3} allocations, a burst of two: {burst:.3}");
    assert!(burst <= singles, "a burst of two made {burst} allocations");
    drop(wire);
    server.shutdown();
}

/// A wave that stores new units and releases the superseded ones, and a
/// wave that overwrites units in place. Counts, so the bound on
/// e2ebench's `allocs_per_op` (9.5 on `gauss_plog_lan`, 28 on
/// `write_heavy_ec_loopback`) is held here too.
fn a_sealing_pageout_and_a_coded_rewrite_keep_their_counts() {
    let pages: Vec<Page> = (0..PAGES + 1).map(Page::deterministic).collect();
    let content = |id: u64, i: u64| &pages[((id + i) % (PAGES + 1)) as usize];

    // Parity logging, groups of two: every second rewrite seals — its
    // data frame, the parity page and the frees of the group the pair
    // superseded in one wave — and only that one is counted.
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(2);
    let (servers, pager) = cluster(config, 3);
    let rewrite = |id: u64, i: u64| pager.page_out(PageId(id), content(id, i)).expect("rewrite");
    (0..2 * PAGES).for_each(|i| rewrite(i % PAGES, i / PAGES));
    let (allocs, kib) = per_op(OPS, |i| {
        let id = 2 * (i % (PAGES / 2));
        uncounted(|| rewrite(id, i + 2));
        rewrite(id + 1, i + 2);
    });
    // Measured: 19.429 allocations and 25.87 KiB — the two pages the
    // servers keep and the buffer's fresh accumulator. One allocation
    // more per op fails.
    println!("sealing pageout: {allocs:.3} allocations, {kib:.3} KiB per op");
    assert!(allocs < 20.4, "a sealing pageout made {allocs} allocations");
    assert!(kib <= 26.5, "a sealing pageout allocated {kib} KiB");
    drop(pager);
    servers.into_iter().for_each(ServerHandle::shutdown);

    // Erasure coding (4, 1): each unit overwritten under its own key, one
    // store a server and no free.
    let config = PagerConfig::new(Policy::ErasureCoded).with_ec_splits(4, 1);
    let (servers, pager) = cluster(config, 5);
    let rewrite = |id: u64, i: u64| pager.page_out(PageId(id), content(id, i)).expect("rewrite");
    (0..2 * PAGES).for_each(|i| rewrite(i % PAGES, i / PAGES));
    let (allocs, kib) = per_op(OPS, |i| rewrite(i % PAGES, i + 2));
    // Measured: 23.0 allocations and 24.75 KiB — five 2 KiB units, cut
    // from the page, encoded and stored at their size (37.7 and 34.45
    // when a rewrite placed a fresh stripe and freed the old one; 94.19
    // KiB when each unit was padded out to a page). One allocation more
    // per op fails, and so does one padded unit.
    println!("coded rewrite: {allocs:.3} allocations, {kib:.3} KiB per op");
    assert!(allocs < 24.0, "a coded rewrite made {allocs} allocations");
    assert!(kib <= 27.0, "a coded rewrite allocated {kib} KiB");
    drop(pager);
    servers.into_iter().for_each(ServerHandle::shutdown);
}

/// A sequential sweep through two shards, with the front door's
/// read-ahead at `window`: allocations per fault, and read-ahead hits.
fn swept(window: usize) -> (f64, u64) {
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_shard_count(2)
        .with_prefetch_window(window);
    let (servers, pager) = connect(config, 2);
    let pages: Vec<Page> = (0..PAGES).map(Page::deterministic).collect();
    let fault = |i: u64| {
        let page = pager.page_in(PageId(i % PAGES)).expect("pagein");
        assert_eq!(page, pages[(i % PAGES) as usize]);
    };
    for (id, page) in pages.iter().enumerate() {
        pager.page_out(PageId(id as u64), page).expect("preload");
    }
    // The caches and the lists of reads on their way grow here.
    (0..2 * PAGES).for_each(fault);
    let (allocs, _) = per_op(OPS, fault);
    let hits = |shard| {
        pager.with_shard(shard, |p| {
            p.metrics().counter("pager_prefetch_hits_total").get()
        })
    };
    let hits = hits(0) + hits(1);
    drop(pager);
    servers.into_iter().for_each(ServerHandle::shutdown);
    (allocs, hits)
}

/// A page costs its one allocation whether a fault fetched it or a
/// read-ahead did — a plain keyed read either way, begun by one shard's
/// fault and issued into the other's pool — and planning costs none.
/// What is still on its way when the count stops, eight pages at most,
/// is the slack.
fn a_sweep_on_read_ahead_allocates_its_pages_and_nothing_else() {
    let (demand, hits) = swept(0);
    assert_eq!(hits, 0);
    let (one_ahead, hits) = swept(1);
    println!("sweep: {demand:.3} allocations per demand fault, {one_ahead:.3} one page ahead");
    // Warm-up included: 1,128 faults, 18 of them the jump back to page 0.
    assert!(
        hits > OPS,
        "every fault but the wrap-around rode on read-ahead"
    );
    assert!(
        one_ahead <= demand + 0.01,
        "a one-page read-ahead made {one_ahead} allocations, a demand pagein {demand}"
    );
    let (eight_ahead, hits) = swept(8);
    // Measured: 1.004, 1.004 and about 1.01 — the page.
    println!("sweep: {eight_ahead:.3} allocations per fault eight pages ahead");
    assert!(hits > OPS);
    assert!(
        eight_ahead <= demand + 0.02,
        "a fault made {eight_ahead} allocations"
    );
}
