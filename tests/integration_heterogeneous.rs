//! Section 5 future work: heterogeneous networks and adaptive switching.
//!
//! The paper sketches two extensions we implement: per-server link costs
//! (a wider-area cluster where transfer time differs per server) and the
//! network-load adaptive switch (fall back to the local disk when the
//! network's service time exceeds a threshold).

use rmp::blockdev::RamDisk;
use rmp::core::{Clock, ServerPool};
use rmp::prelude::*;
use rmp::server::ServerConfig;
use rmp::types::TransportConfig;
use rmp_chaos::{ChaosCluster, FaultPlan};

/// In-process servers of the given `(capacity_pages, overflow_fraction,
/// link_cost)`, and a pool over them. The pool runs on a manual clock: a
/// reply takes no time, so no server turns suspect by answering late, and
/// placement follows memory and link cost alone.
fn weighted_cluster(servers: &[(usize, f64, f64)]) -> (ChaosCluster, ServerPool) {
    let servers = servers
        .iter()
        .map(|&(capacity_pages, overflow_fraction, cost)| {
            let config = ServerConfig {
                capacity_pages,
                overflow_fraction,
                ..ServerConfig::default()
            };
            (config, cost)
        });
    let cluster = ChaosCluster::with_servers(servers.collect(), FaultPlan::seeded(0))
        .on_clock(Clock::manual());
    let pool = cluster.pool(&TransportConfig::default());
    (cluster, pool)
}

/// A one-shard pager over `pool`, with a RAM disk to fall back on.
fn one_shard(config: PagerConfig, pool: ServerPool) -> ShardedPager {
    ShardedPager::builder(config.with_shard_count(1))
        .pools(vec![pool])
        .disks(vec![Box::new(RamDisk::unbounded())])
        .build()
        .expect("pager")
}

#[test]
fn cheap_links_attract_more_pages() {
    // Server 0 is local (cost 1), server 1 sits across a slow WAN hop
    // (cost 20): with equal free memory, placement should prefer srv0.
    let (cluster, pool) = weighted_cluster(&[(8192, 0.10, 1.0), (8192, 0.10, 20.0)]);
    let pager = one_shard(
        PagerConfig::new(Policy::NoReliability).with_servers(2),
        pool,
    );
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    for i in 0..200u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout lands before the servers are counted.
    pager.flush().expect("flush");
    let near = cluster.server(0).stored_pages();
    let far = cluster.server(1).stored_pages();
    // The no-reliability engine round-robins over *live* servers for
    // spread, but fresh placements that consult most_promising (including
    // every fallback decision) weigh the link cost; the cheap server must
    // carry at least as much as the expensive one.
    assert!(
        near >= far,
        "near {near} pages vs far {far}: expensive link must not dominate"
    );
    // And the selection primitive itself is cost-aware.
    let promising = pager.with_shard(0, |p| p.pool().most_promising(&[]));
    assert_eq!(
        promising,
        Some(ServerId(0)),
        "equal memory, cheaper link wins"
    );
    for i in 0..200u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn far_server_still_used_when_near_is_full() {
    // Near server with almost no memory, far server with plenty: the
    // memory hierarchy gains a level (local mem, near remote, far remote,
    // disk), exactly the Section 5 discussion.
    let (cluster, pool) = weighted_cluster(&[(8, 0.0, 1.0), (8192, 0.0, 10.0)]);
    let pager = one_shard(
        PagerConfig::new(Policy::NoReliability).with_servers(2),
        pool,
    );
    for i in 0..100u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    let stored = |i| cluster.server(i).stored_pages();
    assert!(stored(0) <= 8);
    assert!(
        stored(1) >= 80,
        "overflow went over the expensive link rather than to disk: {}",
        stored(1)
    );
    for i in 0..100u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn adaptive_switch_recovers_when_network_improves() {
    let cluster = LocalCluster::spawn(2, 8192).expect("cluster");
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_adaptive_threshold_ms(1e-9); // Loopback instantly "too slow".
    let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
    for i in 0..20u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    assert!(pager.with_shard(0, |p| p.prefers_disk()), "threshold trips");
    // All pages readable wherever they landed.
    for i in 0..20u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    // Pages parked on disk get promoted back when the network recovers
    // (rebalance is the paper's periodic re-check).
    let disk_writes = pager.stats().disk_writes;
    assert!(disk_writes > 0);
}

#[test]
fn adaptive_switch_follows_a_long_healthy_pool_both_ways() {
    use rmp_chaos::{FaultAction, FaultRule, OpFilter};
    use std::time::Duration;

    let cluster = ChaosCluster::new(2, FaultPlan::seeded(16));
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_prefetch_window(0)
        .with_adaptive_threshold_ms(5.0);
    let pager = one_shard(config.clone(), cluster.pool(&config.transport));
    let write = |id: u64| {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("pageout");
    };
    let prefers_disk = || pager.with_shard(0, |p| p.prefers_disk());
    let avg_service_ms = || pager.with_shard(0, |p| p.pool().avg_service_ms());
    // A long healthy history: well over a thousand calls at in-process
    // speed. An all-time mean would now take thousands of slow calls to
    // move; the switch has to follow the network as it is.
    for round in 0..40u64 {
        for i in 0..16 {
            write(i);
            pager.page_in(PageId(i)).expect("read");
        }
        assert!(!prefers_disk(), "round {round}: the network is fast");
    }
    // Congestion: every data call now takes 15 ms. The switch is
    // re-evaluated on pageouts, so sixteen slow reads, then one write.
    cluster.plan().inject(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(15))).on_ops(OpFilter::DataOps),
    );
    cluster.plan().arm();
    for i in 0..16 {
        pager.page_in(PageId(i)).expect("slow read");
    }
    write(0);
    assert!(
        prefers_disk(),
        "sixteen 15 ms attempts put the estimate ({} ms) over the 5 ms threshold",
        avg_service_ms()
    );
    // The congestion clears; reads of the pages still in remote memory are
    // fast again and pull the estimate back under half the threshold.
    cluster.plan().disarm();
    for _ in 0..4 {
        for i in 1..16 {
            pager.page_in(PageId(i)).expect("fast read");
        }
    }
    write(1);
    assert!(
        !prefers_disk(),
        "fast replies pull the estimate ({} ms) back down",
        avg_service_ms()
    );
}
