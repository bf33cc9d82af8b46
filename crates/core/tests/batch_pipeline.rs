//! Gather and read-ahead behavior against in-process servers.
//!
//! Covers the contract the TCP tests cannot stage deterministically: a
//! gather that names one holder many times returns misses in their
//! places, a single bad page in it surfaces as the same typed error the
//! single-page path produces while the other pages are still counted, a
//! gather is one submission however many frames it has, a burst answered
//! out of order by something that runs no window is refused by the keys
//! the replies echo, and the stride prefetcher serves sequential
//! workloads from its cache (and drops entries the moment they could go
//! stale). On a windowed connection replies out of order or late are
//! matched by window seq, which `windowed_transport.rs` covers.

mod support;

use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::{ServerPool, ShardedPager};
use rmp_proto::Opcode;
use rmp_types::{Page, PageId, PagerConfig, Policy, RmpError, ServerId, StoreKey};

use support::{counted, one_shard};

/// `n` in-process servers under a plan that counts every submission,
/// and a pool over them.
fn batch_pool(n: usize) -> (ChaosCluster, ServerPool) {
    let cluster = ChaosCluster::new(n, FaultPlan::seeded(0));
    cluster.plan().arm();
    let pool = cluster.pool(&Default::default());
    (cluster, pool)
}

/// Frames the servers of `cluster` served, and submissions that reached
/// them: a burst is one decision of the plan.
fn traffic(cluster: &ChaosCluster, servers: usize) -> (u64, u64) {
    let frames = (0..servers).map(|i| cluster.server(i).served_requests());
    (frames.sum(), cluster.plan().calls())
}

/// Server 0 of `cluster` meets `action` on its next burst of reads.
fn bend_reads(cluster: &ChaosCluster, action: FaultAction) {
    let rule = FaultRule::new(action).on_server(ServerId(0)).times(1);
    cluster
        .plan()
        .inject(rule.on_ops(OpFilter::Op(Opcode::PageIn)));
}

/// Stores pages `0..n` on server 0, one frame per page.
fn preload(pool: &mut ServerPool, n: u64) {
    for i in 0..n {
        pool.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i))
            .expect("preload");
    }
}

/// Reads of `keys`, all off server 0.
fn reads_of(keys: impl IntoIterator<Item = u64>) -> Vec<(ServerId, StoreKey)> {
    (keys.into_iter())
        .map(|key| (ServerId(0), StoreKey(key)))
        .collect()
}

#[test]
fn batch_round_trip_and_misses() {
    let (cluster, mut pool) = batch_pool(1);
    preload(&mut pool, 6);
    assert_eq!(cluster.server(0).stored_pages(), 6);
    let got = pool.page_in_wave(&reads_of([0, 99, 5])).expect("gather");
    assert_eq!(got[0], Some(Page::deterministic(0)));
    assert_eq!(got[1], None, "unknown key is a miss, not an error");
    assert_eq!(got[2], Some(Page::deterministic(5)));
}

#[test]
fn out_of_order_replies_without_a_window_are_refused_by_key() {
    // A transport that is no windowed connection has only order to match
    // replies by. A plain reply names its key, so a burst answered out of
    // order is a protocol error, not pages handed to the wrong reads.
    let (cluster, mut pool) = batch_pool(1);
    preload(&mut pool, 4);
    bend_reads(&cluster, FaultAction::ReorderBurst);
    let err = pool
        .page_in_wave(&reads_of(0..4))
        .expect_err("reordered burst");
    assert!(
        matches!(&err, RmpError::Protocol(m) if m.contains("read of key0 with key3")),
        "got {err:?}"
    );
}

#[test]
fn one_bad_page_fails_the_batch_with_a_typed_error() {
    // Wire corruption of a single page maps to CorruptPage against that
    // key, exactly like the single-page frame verification. A burst's
    // corruption hits its first page: behind a miss, the bad page is the
    // burst's second read, not its first.
    let (cluster, mut pool) = batch_pool(1);
    preload(&mut pool, 4);
    bend_reads(&cluster, FaultAction::CorruptReply { byte: 0, bit: 0 });
    let err = pool
        .page_in_wave(&reads_of([99, 2, 0, 1, 3]))
        .expect_err("corrupt page");
    assert!(
        matches!(
            err,
            RmpError::CorruptPage {
                server: ServerId(0),
                key: StoreKey(2)
            }
        ),
        "got {err:?}"
    );
    // The reads behind the bad one were still collected: every page that
    // crossed the wire is counted, the bad one included.
    assert_eq!(pool.wire_transfers(), 4 + 4);
}

#[test]
fn batching_collapses_frame_counts() {
    let (single, mut pool) = batch_pool(1);
    preload(&mut pool, 16);
    let stored = traffic(&single, 1);
    for i in 0..16 {
        pool.page_in(ServerId(0), StoreKey(i)).expect("single in");
    }
    assert_eq!(
        traffic(&single, 1).0 - stored.0,
        16,
        "one frame per single-page call"
    );

    let (gathered, mut pool) = batch_pool(1);
    preload(&mut pool, 16);
    let (frames, bursts) = traffic(&gathered, 1);
    pool.page_in_wave(&reads_of(0..16)).expect("gather");
    let (after, then) = traffic(&gathered, 1);
    assert_eq!(
        (after - frames, then - bursts),
        (16, 1),
        "16 reads of one holder are one submission of 16 frames"
    );
    // Wire-transfer accounting counts *pages*, not frames, so the two
    // paths agree on how much data moved.
    assert_eq!(pool.wire_transfers(), 16 + 16);
}

// --- prefetching ------------------------------------------------------------

fn prefetch_pager(n_servers: usize) -> (ChaosCluster, ShardedPager) {
    let (cluster, pool) = batch_pool(n_servers);
    let config = PagerConfig::new(Policy::NoReliability).with_servers(n_servers);
    (cluster, one_shard(config, pool, Vec::new()))
}

#[test]
fn sequential_pageins_hit_the_prefetch_cache() {
    let (_cluster, pager) = prefetch_pager(2);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    let hits = counted(&pager, "pager_prefetch_hits_total");
    let issued = counted(&pager, "pager_prefetch_issued_total");
    assert!(
        hits > 0,
        "a strictly sequential scan must hit the prefetch cache"
    );
    assert!(issued >= hits, "hits only come from issued prefetches");
    // Every page read exactly once, however it was served.
    assert_eq!(pager.stats().pageins, 40);
    assert_eq!(pager.stats().net_fetches, 40);
}

#[test]
fn prefetched_pages_are_invalidated_by_writes_and_frees() {
    let (_cluster, pager) = prefetch_pager(2);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Scan, overwriting each page two ahead of the read cursor: whether
    // its old copy sits in the cache or in a read-ahead that is still out, the
    // read must return the new contents, never the stale prefetched copy.
    for i in 0..20u64 {
        let expected = if i < 2 { i } else { 1000 + i };
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(expected),
            "a write invalidates any prefetched copy of page {i}"
        );
        pager
            .page_out(PageId(i + 2), &Page::deterministic(1000 + i + 2))
            .expect("overwrite");
    }
    assert!(
        counted(&pager, "pager_prefetch_hits_total") > 0,
        "the scan ran on read-ahead"
    );
    assert_eq!(
        pager.stats().checksum_failures,
        0,
        "stale copies were forgotten, not cached and then caught by their checksums"
    );
    // Freeing a page drops its cached copy too.
    pager.free(PageId(22)).expect("free");
    assert!(
        matches!(
            pager.page_in(PageId(22)),
            Err(RmpError::PageNotFound(PageId(22)))
        ),
        "a freed page cannot be served from the prefetch cache"
    );
    // Every copy a write or free dropped, cached or on the wire, is
    // counted useless: the read-ahead ledger balances.
    let held = pager.with_shard(0, |p| p.read_ahead_held()) as u64;
    let count = |what| counted(&pager, &format!("pager_prefetch_{what}_total"));
    assert_eq!(count("issued"), count("hits") + count("useless") + held);
}

#[test]
fn disabled_prefetch_window_never_prefetches() {
    let (cluster, pool) = batch_pool(2);
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_prefetch_window(0);
    let pager = one_shard(config, pool, Vec::new());
    for i in 0..20u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..20u64 {
        pager.page_in(PageId(i)).expect("read");
    }
    assert_eq!(
        counted(&pager, "pager_prefetch_issued_total"),
        0,
        "prefetch_window = 0 disables the prefetcher"
    );
    // Every operation is a submission of its own one frame, and nothing
    // else was submitted.
    let (frames, submissions) = traffic(&cluster, 2);
    assert_eq!(
        submissions,
        40 + 2,
        "one submission per operation and allocation"
    );
    assert_eq!(
        frames,
        40 + 2,
        "no read-ahead frames without a prefetcher: one frame per operation, and the two allocations"
    );
}
