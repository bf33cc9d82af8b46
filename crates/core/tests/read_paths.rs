//! Every path an operation can take through the pager — hedged, degraded,
//! prefetch hit, recover-and-retry — counts it exactly once, and a
//! demand read never dials a holder it already knows to be dead.
//!
//! All of it runs on the in-process chaos cluster: faults are scripted,
//! nothing waits on a timer to line events up.

use std::time::Duration;

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_core::chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::Pager;
use rmp_proto::Opcode;
use rmp_types::{Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId, TransportConfig};

fn fast_transport() -> TransportConfig {
    TransportConfig {
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    }
}

fn pager(cluster: &ChaosCluster, config: PagerConfig) -> Pager {
    let config = config.with_transport(fast_transport());
    Pager::builder(config.clone())
        .pool(cluster.pool(&config.transport))
        .disk(Box::new(RamDisk::unbounded()))
        .build()
        .expect("pager")
}

fn fill(pager: &mut Pager, pages: u64) {
    for i in 0..pages {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture write");
    }
}

/// Reads `ids`, checking contents; returns how many reads succeeded.
fn read(pager: &mut Pager, ids: impl IntoIterator<Item = u64>) -> u64 {
    let mut served = 0;
    for i in ids {
        if let Ok(page) = pager.page_in(PageId(i)) {
            assert_eq!(page, Page::deterministic(i), "page {i}");
            served += 1;
        }
    }
    served
}

#[test]
fn hedged_pageins_are_counted() {
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(1));
    let config = PagerConfig::new(Policy::Mirroring)
        .with_prefetch_window(0)
        .with_hedge_suspicion_threshold(2.0);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 32);
    // Warm the latency baselines, then turn server 0 gray: every data
    // call is served, 20 ms late — far enough from in-process latencies
    // that an oversubscribed test machine cannot blur the two.
    let mut served = read(&mut pager, 0..32);
    cluster.plan().inject(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(20)))
            .on_server(ServerId(0))
            .on_ops(OpFilter::DataOps),
    );
    cluster.plan().arm();
    for _ in 0..4 {
        served += read(&mut pager, 0..32);
    }
    let (_, wins) = pager.pool().hedge_stats();
    assert!(wins > 0, "the gray primary was hedged around");
    assert_eq!(served, 5 * 32);
    assert_eq!(pager.stats().pageins, served, "hedge wins are pageins too");
}

#[test]
fn degraded_pageins_are_counted_once() {
    let cluster = ChaosCluster::new(3, FaultPlan::seeded(2));
    let config = PagerConfig::new(Policy::Mirroring)
        .with_prefetch_window(0)
        .with_hedge_suspicion_threshold(f64::INFINITY);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 24);
    cluster.server(0).crash();
    // One read discovers the crash, the rest start from a dead primary.
    let served = read(&mut pager, 0..24);
    assert_eq!(served, 24);
    assert!(pager.stats().degraded_reads > 1);
    assert_eq!(pager.stats().pageins, served);
}

#[test]
fn prefetch_hits_are_counted_once() {
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(3));
    let config = PagerConfig::new(Policy::NoReliability).with_prefetch_window(8);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 64);
    // Reordering is a fault of bursts only, and harmless to a burst of
    // one frame: it fires on whatever arrives through `call_pipelined` —
    // where a transport without a window completes a `submit`, so on
    // read-ahead and on the demand reads' flights — and on nothing the
    // pool sends through `call`.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::ReorderBurst));
    cluster.plan().arm();
    let served = read(&mut pager, 0..64);
    assert_eq!(served, 64);
    let hits = pager.metrics().counter("pager_prefetch_hits_total").get();
    assert!(hits > 0, "a sequential scan hits the prefetch cache");
    assert_eq!(pager.stats().pageins, served);
    let events = cluster.plan().events();
    let submitted = |op| events.iter().filter(|e| e.opcode == op).count() as u64;
    let (batches, demand) = (submitted(Opcode::PageInBatch), submitted(Opcode::PageIn));
    assert!(
        batches > 0 && batches + demand == events.len() as u64,
        "read-ahead and demand reads, and only those, were submitted: {events:?}"
    );
    assert_eq!(demand, served - hits, "each demand miss is submitted once");
}

#[test]
fn wire_corruption_is_counted_once_in_both_ledgers() {
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(8));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(0);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 4);
    cluster.plan().inject(
        FaultRule::new(FaultAction::CorruptReply { byte: 100, bit: 3 })
            .on_ops(OpFilter::Op(Opcode::PageIn))
            .times(1),
    );
    cluster.plan().arm();
    // The pool catches the flipped bit on the wire; the mirror serves it.
    assert_eq!(read(&mut pager, 0..4), 4);
    assert_eq!(cluster.plan().events().len(), 1, "the flip fired");
    assert_eq!(pager.stats().checksum_failures, 1);
    assert_eq!(
        pager
            .metrics()
            .counter("pager_checksum_failures_total")
            .get(),
        pager.stats().checksum_failures,
        "the registry and the transfer stats tell one story"
    );
}

#[test]
fn a_pageout_retried_after_recovery_is_counted_once() {
    // Three data servers, the parity server (the last one) and a spare.
    let cluster = ChaosCluster::new(5, FaultPlan::seeded(4));
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 6);
    // The parity server dies. The pageout that seals the next group finds
    // out, the pager recovers onto the spare and runs the pageout again.
    cluster.server(4).crash();
    let mut written = 6;
    for i in 6..12 {
        if pager.page_out(PageId(i), &Page::deterministic(i)).is_ok() {
            written += 1;
        }
    }
    assert!(
        !pager.pool().view().is_alive(ServerId(4)),
        "a pageout ran into the dead parity server"
    );
    assert_eq!(written, 12, "recover-and-retry served every pageout");
    assert_eq!(pager.stats().pageouts, written);
    assert_eq!(read(&mut pager, 0..12), 12);
}

#[test]
fn a_failed_operation_is_not_counted() {
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(5));
    let mut pager = pager(&cluster, PagerConfig::new(Policy::NoReliability));
    fill(&mut pager, 4);
    assert!(pager.page_in(PageId(99)).is_err());
    assert_eq!(read(&mut pager, 0..4), 4);
    assert_eq!(pager.stats().pageins, 4);
    assert_eq!(pager.stats().pageouts, 4);
}

#[test]
fn a_known_dead_holder_is_not_dialled_again() {
    // Basic parity over three data servers plus parity; pages go to the
    // data servers round-robin, so 0, 3, 6 and 9 live on server 0.
    let cluster = ChaosCluster::new(4, FaultPlan::seeded(6));
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(3)
        .with_prefetch_window(0)
        .with_hedge_suspicion_threshold(f64::INFINITY);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 12);
    cluster.server(0).crash();
    // This read discovers the crash and pays the pool's retry budget.
    assert_eq!(read(&mut pager, [0]), 1);
    assert!(!pager.pool().view().is_alive(ServerId(0)));
    // From here on every call that reaches server 0's transport leaves
    // an event behind.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Drop).on_server(ServerId(0)));
    cluster.plan().arm();
    let degraded = pager.stats().degraded_reads;
    assert_eq!(read(&mut pager, [3, 6, 9]), 3);
    assert_eq!(pager.stats().degraded_reads, degraded + 3);
    assert_eq!(
        cluster.plan().events(),
        Vec::new(),
        "server 0 was dialled although the view holds it dead"
    );
}

#[test]
fn prefetch_is_not_aimed_at_a_known_dead_holder() {
    // Two mirrors, so nothing can be re-replicated away from the dead one
    // and the pages it was primary for keep pointing at it. A fast server
    // that dies keeps its tens-of-µs latency estimate, so it never looks
    // gray: only the view says it is gone.
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(7));
    let config = PagerConfig::new(Policy::Mirroring)
        .with_prefetch_window(8)
        .with_hedge_suspicion_threshold(f64::INFINITY);
    let mut pager = pager(&cluster, config);
    fill(&mut pager, 48);
    cluster.server(0).crash();
    // A load probe notices the crash and pays the pool's retry budget.
    assert_eq!(pager.pool_mut().refresh_loads(), vec![ServerId(0)]);
    let retries = pager.metrics().counter("pool_retries_total").get();
    // From here on every call that reaches server 0's transport leaves
    // an event behind.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Drop).on_server(ServerId(0)));
    cluster.plan().arm();
    assert_eq!(read(&mut pager, 0..48), 48);
    assert_eq!(
        cluster.plan().events(),
        Vec::new(),
        "read-ahead dialled server 0 although the view holds it dead"
    );
    assert_eq!(
        pager.metrics().counter("pool_retries_total").get(),
        retries,
        "a speculative fetch spent the retry budget"
    );
}
