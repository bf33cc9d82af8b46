//! Every path an operation can take through the pager — around a gray
//! holder, degraded, prefetch hit, recover-and-retry — counts it exactly
//! once; a demand read dials a holder it knows to be dead, backing off or
//! gray only when no other way is left; and the read-ahead ledger balances
//! after every operation: what was issued is a hit, useless, or still held
//! for a fault to come.
//!
//! All of it runs on the in-process chaos cluster: faults are scripted,
//! nothing waits on a timer to line events up.

mod support;

use std::time::Duration;

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::detector::GRAY_SUSPICION;
use rmp_core::{Clock, Readable, ShardedPager};
use rmp_proto::Opcode;
use rmp_types::{
    Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId, StoreKey, TransportConfig,
};

use support::{counted, one_shard};

/// In-process servers under `plan`, on a manual clock: delays and
/// backoffs advance it, and nothing here waits on the wall clock.
fn in_process(servers: usize, plan: FaultPlan) -> ChaosCluster {
    ChaosCluster::new(servers, plan).on_clock(Clock::manual())
}

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

/// A one-shard pager over `cluster`, with a RAM disk.
fn pager(cluster: &ChaosCluster, config: PagerConfig) -> ShardedPager {
    let config = config.with_transport(fast_transport());
    let pool = cluster.pool(&config.transport);
    one_shard(config, pool, vec![Box::new(RamDisk::unbounded())])
}

fn fill(pager: &ShardedPager, pages: u64) {
    for i in 0..pages {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture write");
        assert_ledger_balances(pager);
    }
}

/// `pager_prefetch_{issued, hits, useless}_total`, and the copies held,
/// summed over the shards.
fn ledger(pager: &ShardedPager) -> (u64, u64, u64, u64) {
    let of_shard = |s| {
        pager.with_shard(s, |p| {
            let count = |name| p.metrics().counter(name).get();
            (
                count("pager_prefetch_issued_total"),
                count("pager_prefetch_hits_total"),
                count("pager_prefetch_useless_total"),
                p.read_ahead_held() as u64,
            )
        })
    };
    (0..pager.shard_count())
        .map(of_shard)
        .fold((0, 0, 0, 0), |sum, l| {
            (sum.0 + l.0, sum.1 + l.1, sum.2 + l.2, sum.3 + l.3)
        })
}

fn assert_ledger_balances(pager: &ShardedPager) {
    let (issued, hits, useless, held) = ledger(pager);
    assert_eq!(
        issued,
        hits + useless + held,
        "issued = {hits} hits + {useless} useless + {held} cached or on the wire"
    );
}

/// Reads `ids`, checking contents; returns how many reads succeeded.
fn read(pager: &ShardedPager, ids: impl IntoIterator<Item = u64>) -> u64 {
    let mut served = 0;
    for i in ids {
        if let Ok(page) = pager.page_in(PageId(i)) {
            assert_eq!(page, Page::deterministic(i), "page {i}");
            served += 1;
        }
        assert_ledger_balances(pager);
    }
    served
}

/// Writes `pages` under mirroring on two servers, reads them once to warm
/// the latency baselines, then turns server 0 gray: every data call is
/// served 20 ms late, on the cluster's manual clock — which moves only
/// then, so in-process latencies are none at all.
fn gray_mirrors(seed: u64, pages: u64) -> (ChaosCluster, ShardedPager) {
    gray_cluster(2, PagerConfig::new(Policy::Mirroring), seed, pages)
}

/// As [`gray_mirrors`], for any policy on `servers` servers.
fn gray_cluster(
    servers: usize,
    config: PagerConfig,
    seed: u64,
    pages: u64,
) -> (ChaosCluster, ShardedPager) {
    let cluster = in_process(servers, FaultPlan::seeded(seed));
    let pager = pager(&cluster, config.with_prefetch_window(0));
    fill(&pager, pages);
    assert_eq!(read(&pager, 0..pages), pages);
    cluster.plan().inject(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(20)))
            .on_server(ServerId(0))
            .on_ops(OpFilter::DataOps),
    );
    cluster.plan().arm();
    (cluster, pager)
}

/// Reads round and round `0..pages` until server 0 looks gray enough to
/// be read around; returns how many reads that took.
fn read_until_gray(pager: &ShardedPager, pages: u64) -> u64 {
    let mut reads = 0;
    while pager.with_shard(0, |p| p.pool().suspicion(ServerId(0))) < GRAY_SUSPICION {
        assert!(reads < 4 * pages, "server 0 never looked gray");
        assert_eq!(read(pager, [reads % pages]), 1);
        reads += 1;
    }
    reads
}

#[test]
fn reads_around_a_gray_holder_are_degraded_reads() {
    let (_cluster, pager) = gray_mirrors(1, 32);
    read_until_gray(&pager, 32);
    let before = pager.stats();
    assert_eq!(read(&pager, 0..32), 32);
    let after = pager.stats();
    assert_eq!(after.pageins - before.pageins, 32, "each read is a pagein");
    assert_eq!(
        after.degraded_reads - before.degraded_reads,
        32,
        "and a degraded read: each went around the gray holder"
    );
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "gray, not dead"
    );
    assert_eq!(pager.recovery_backlog(), 0, "nothing to rebuild");
    assert!(pager.with_shard(0, |p| p.pool().suspicion(ServerId(0))) >= GRAY_SUSPICION);
}

#[test]
fn a_lone_server_is_never_gray() {
    // One slow server and nowhere else to go: however late it answers,
    // reading around it is no option, and read-ahead goes on using it.
    let cluster = in_process(1, FaultPlan::seeded(17));
    let mut pool = cluster.pool(&fast_transport());
    let lone = ServerId(0);
    (pool.page_out(lone, StoreKey(1), &Page::filled(1))).expect("store");
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Delay(Duration::from_millis(
            20,
        ))));
    cluster.plan().arm();
    while pool.suspicion(lone) < GRAY_SUSPICION {
        (pool.page_in(lone, StoreKey(1))).expect("a slow read");
    }
    for ahead in [false, true] {
        assert_eq!(pool.may_read(lone, ahead), Readable::Yes);
    }
}

#[test]
fn a_backing_off_holder_is_read_when_the_way_around_is_gone() {
    let cluster = in_process(2, FaultPlan::seeded(12));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(0);
    let pager = pager(&cluster, config);
    fill(&pager, 8);
    pager.with_shard(0, |p| p.pool_mut().declare_dead(ServerId(1), "test"));
    // The first read of server 0 is lost: server 0 backs off, and the
    // mirror that could serve around it is dead.
    cluster.plan().inject(
        FaultRule::new(FaultAction::Drop)
            .on_server(ServerId(0))
            .on_ops(OpFilter::Op(Opcode::PageIn))
            .times(1),
    );
    cluster.plan().arm();
    for i in 0..8 {
        let page = pager.page_in(PageId(i));
        assert_eq!(
            page.expect("the live holder serves it"),
            Page::deterministic(i)
        );
    }
    assert_eq!(cluster.plan().events().len(), 1, "the drop fired");
    assert!(
        counted(&pager, "pool_retries_total") >= 1,
        "the read climbed server 0's rung"
    );
    assert!(pager.with_shard(0, |p| p.pool().alive(ServerId(0))));
}

#[test]
fn a_gray_holder_is_read_when_the_way_around_is_gone() {
    let (_cluster, pager) = gray_mirrors(13, 8);
    pager.with_shard(0, |p| p.pool_mut().declare_dead(ServerId(1), "test"));
    // Once server 0 looks gray its reads go around it, find the mirror
    // dead, and read it after all.
    let warm = read_until_gray(&pager, 8);
    assert_eq!(read(&pager, (0..16).map(|i| i % 8)), 16);
    assert_eq!(pager.stats().pageins, 8 + warm + 16);
    assert_eq!(pager.stats().degraded_reads, 0);
    assert!(pager.with_shard(0, |p| p.pool().suspicion(ServerId(0))) >= GRAY_SUSPICION);
}

#[test]
fn a_gray_holder_is_read_when_the_way_around_is_corrupt() {
    let (cluster, pager) = gray_mirrors(14, 8);
    read_until_gray(&pager, 8);
    // Every copy the mirror sends back now arrives with a flipped bit:
    // each read around the gray primary fails its checksum, and the
    // primary, alive and holding good bytes, serves it after all.
    cluster.plan().inject(
        FaultRule::new(FaultAction::CorruptReply { byte: 100, bit: 3 })
            .on_server(ServerId(1))
            .on_ops(OpFilter::Op(Opcode::PageIn)),
    );
    for i in 0..8 {
        let page = pager.page_in(PageId(i));
        assert_eq!(
            page.expect("the live holder serves it"),
            Page::deterministic(i)
        );
    }
    let flips = (cluster.plan().events().iter())
        .filter(|e| e.server == ServerId(1))
        .count() as u64;
    assert!(flips >= 1, "the mirror was read around the gray holder");
    assert_eq!(pager.stats().checksum_failures, flips);
    assert!(pager.with_shard(0, |p| p.pool().alive(ServerId(0))));
}

#[test]
fn a_dead_holder_stays_refused_when_a_gray_one_is_read() {
    let config = PagerConfig::new(Policy::ErasureCoded).with_ec_splits(2, 1);
    let (cluster, pager) = gray_cluster(3, config, 15, 8);
    read_until_gray(&pager, 8);
    cluster.server(1).crash();
    pager.with_shard(0, |p| p.pool_mut().declare_dead(ServerId(1), "test"));
    // A stripe with its data on gray 0 and dead 1 cannot be read around
    // 0: the gray holder is read after all, and dead 1 is read around
    // from 0 and the parity — never dialled, so no rung is climbed.
    let retries = counted(&pager, "pool_retries_total");
    for i in 0..8 {
        let page = pager.page_in(PageId(i));
        assert_eq!(page.expect("served"), Page::deterministic(i));
    }
    assert_eq!(
        counted(&pager, "pool_retries_total"),
        retries,
        "no read climbed the dead holder's ladder"
    );
}

#[test]
fn degraded_pageins_are_counted_once() {
    let cluster = in_process(3, FaultPlan::seeded(2));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(0);
    let pager = pager(&cluster, config);
    fill(&pager, 24);
    cluster.server(0).crash();
    // One read discovers the crash, the rest go around a primary that is
    // backing off — or, once its rungs have run out, dead.
    let served = read(&pager, 0..24);
    assert_eq!(served, 24);
    assert!(pager.stats().degraded_reads > 1);
    assert_eq!(pager.stats().pageins, served);
}

#[test]
fn prefetch_hits_are_counted_once() {
    let cluster = in_process(2, FaultPlan::seeded(3));
    let config = PagerConfig::new(Policy::NoReliability).with_prefetch_window(8);
    let pager = pager(&cluster, config);
    fill(&pager, 64);
    // A delay of nothing changes nothing and fires on every submission:
    // the plan's trace is a log of what went to the wire.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Delay(Duration::ZERO)));
    cluster.plan().arm();
    let served = read(&pager, 0..64);
    assert_eq!(served, 64);
    let hits = counted(&pager, "pager_prefetch_hits_total");
    assert!(hits > 0, "a sequential scan hits the prefetch cache");
    assert_eq!(pager.stats().pageins, served);
    let events = cluster.plan().events();
    assert!(
        events.iter().all(|e| e.opcode == Opcode::PageIn),
        "read-ahead and demand reads are plain keyed reads: {events:?}"
    );
    let (issued, ..) = ledger(&pager);
    assert_eq!(
        events.len() as u64,
        issued + (served - hits),
        "each read-ahead and each demand miss is submitted once, and nothing else"
    );
    // One run: a page, then two, four, and eight at a time. Only the
    // faults before the vote had a majority, and the one that started
    // the run, went to the wire.
    assert_eq!((hits, issued), (61, 61));
}

#[test]
fn every_way_a_read_ahead_is_lost_counts_it_useless() {
    let cluster = in_process(2, FaultPlan::seeded(9));
    let config = PagerConfig::new(Policy::NoReliability).with_prefetch_window(8);
    let pager = pager(&cluster, config);
    fill(&pager, 32);
    // 0, 1, 2 start a run: page 3 is read ahead, and overtaken by a write
    // before any fault collects it.
    assert_eq!(read(&pager, 0..3), 3);
    assert_eq!(ledger(&pager), (1, 0, 0, 1));
    (pager.page_out(PageId(3), &Page::deterministic(3))).expect("overwrite");
    assert_eq!(ledger(&pager), (1, 0, 1, 0), "voided on the wire");
    // 3 misses and restarts the run with page 4; 4 hits and plans 5 and
    // 6 — and the read of 5 is lost on the wire.
    assert_eq!(read(&pager, 3..4), 1);
    cluster.plan().inject(
        FaultRule::new(FaultAction::Drop)
            .on_ops(OpFilter::Op(Opcode::PageIn))
            .times(1),
    );
    cluster.plan().arm();
    assert_eq!(read(&pager, 4..5), 1);
    assert_eq!(cluster.plan().events().len(), 1, "the drop fired");
    assert_eq!(
        ledger(&pager),
        (4, 1, 1, 2),
        "a lost read is held until collected"
    );
    let retries = counted(&pager, "pool_retries_total");
    assert_eq!(read(&pager, 5..7), 2);
    assert_eq!(
        ledger(&pager),
        (5, 2, 2, 1),
        "5 failed, 6 hit and planned 7"
    );
    assert_eq!(
        counted(&pager, "pool_retries_total"),
        retries,
        "a speculative fetch spent the retry budget"
    );
    // A cached copy whose page is freed.
    pager.free(PageId(7)).expect("free");
    assert_eq!(ledger(&pager), (5, 2, 3, 0));
}

#[test]
fn a_rewrite_voids_the_read_behind_it_overtakes() {
    let cluster = in_process(2, FaultPlan::seeded(16));
    let config = PagerConfig::new(Policy::NoReliability).with_prefetch_window(8);
    let pager = pager(&cluster, config);
    fill(&pager, 2);
    // Faults 0, 1, 0, 1: page 0 is followed by page 1 twice running, so
    // it loops; nothing is read ahead.
    assert_eq!(read(&pager, [0, 1, 0, 1]), 4);
    assert_eq!(ledger(&pager), (0, 0, 0, 0));
    // Its acknowledged pageout reads it back behind the write, as it
    // lands (`stats` lands every landing).
    let (first, second) = (Page::deterministic(100), Page::deterministic(101));
    pager.page_out(PageId(0), &first).expect("rewrite");
    pager.stats();
    assert_eq!(ledger(&pager), (1, 0, 0, 1));
    // Rewritten before any fault takes it: that copy is void, and the
    // new write is read behind in its place.
    pager.page_out(PageId(0), &second).expect("rewrite");
    pager.stats();
    assert_eq!(ledger(&pager), (2, 0, 1, 1));
    assert_eq!(pager.page_in(PageId(0)).expect("a hit"), second);
    assert_eq!(ledger(&pager).1, 1, "the fault took the fresh copy");
    assert_ledger_balances(&pager);
    assert_eq!(pager.stats().checksum_failures, 0);
}

#[test]
fn only_a_page_held_whole_by_one_unit_is_read_ahead() {
    // One sequential scan, read back whole under both geometries: a
    // mirror's copy is one unit holding the page, fetched ahead; a coded
    // stripe's read joins two units, and no single key yields the page.
    let scan = |config: PagerConfig| {
        let pager = pager(&in_process(3, FaultPlan::seeded(12)), config);
        fill(&pager, 32);
        assert_eq!(read(&pager, 0..32), 32, "every page reads back");
        counted(&pager, "pager_prefetch_issued_total")
    };
    let coded = PagerConfig::new(Policy::ErasureCoded).with_ec_splits(2, 1);
    assert_eq!(scan(coded.with_prefetch_window(8)), 0);
    let mirrored = PagerConfig::new(Policy::Mirroring).with_prefetch_window(8);
    assert!(scan(mirrored) > 0, "a sequential scan reads ahead");
}

#[test]
fn a_recovery_counts_the_copies_it_drops_useless() {
    let cluster = in_process(3, FaultPlan::seeded(10));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(8);
    let pager = pager(&cluster, config);
    fill(&pager, 16);
    assert_eq!(read(&pager, 0..5), 5);
    let (_, _, useless, held) = ledger(&pager);
    assert!(held > 0, "a run is under way");
    cluster.server(1).crash();
    pager.recover_from_crash(ServerId(1)).expect("rebuilt");
    assert_eq!(ledger(&pager).2, useless + held);
    assert_ledger_balances(&pager);
    assert_eq!(read(&pager, 5..16), 11);
}

#[test]
fn wire_corruption_is_counted_once_in_both_ledgers() {
    let cluster = in_process(2, FaultPlan::seeded(8));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(0);
    let pager = pager(&cluster, config);
    fill(&pager, 4);
    cluster.plan().inject(
        FaultRule::new(FaultAction::CorruptReply { byte: 100, bit: 3 })
            .on_ops(OpFilter::Op(Opcode::PageIn))
            .times(1),
    );
    cluster.plan().arm();
    // The pool catches the flipped bit on the wire; the mirror serves it.
    assert_eq!(read(&pager, 0..4), 4);
    assert_eq!(cluster.plan().events().len(), 1, "the flip fired");
    assert_eq!(pager.stats().checksum_failures, 1);
    assert_eq!(
        counted(&pager, "pager_checksum_failures_total"),
        pager.stats().checksum_failures,
        "the registry and the transfer stats tell one story"
    );
}

#[test]
fn a_pageout_retried_after_recovery_is_counted_once() {
    // Three data servers, the parity server (the last one) and a spare.
    let cluster = in_process(5, FaultPlan::seeded(4));
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let pager = pager(&cluster, config);
    fill(&pager, 6);
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
        !pager.with_shard(0, |p| p.pool().alive(ServerId(4))),
        "a pageout ran into the dead parity server"
    );
    assert_eq!(written, 12, "recover-and-retry served every pageout");
    assert_eq!(pager.stats().pageouts, written);
    assert_eq!(read(&pager, 0..12), 12);
}

#[test]
fn a_failed_operation_is_not_counted() {
    let cluster = in_process(2, FaultPlan::seeded(5));
    let pager = pager(&cluster, PagerConfig::new(Policy::NoReliability));
    fill(&pager, 4);
    assert!(pager.page_in(PageId(99)).is_err());
    assert_eq!(read(&pager, 0..4), 4);
    assert_eq!(pager.stats().pageins, 4);
    assert_eq!(pager.stats().pageouts, 4);
}

#[test]
fn a_known_dead_holder_is_not_dialled_again() {
    // Basic parity over three data servers plus parity; pages go to the
    // data servers round-robin, so 0, 3, 6 and 9 live on server 0.
    let cluster = in_process(4, FaultPlan::seeded(6));
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(3)
        .with_prefetch_window(0);
    let pager = pager(&cluster, config);
    fill(&pager, 12);
    cluster.server(0).crash();
    // This read discovers the crash and goes around it; a load probe has
    // no way around, and pays the rest of the pool's retry budget.
    assert_eq!(read(&pager, [0]), 1);
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    assert!(!pager.with_shard(0, |p| p.pool().alive(ServerId(0))));
    // From here on every call that reaches server 0's transport leaves
    // an event behind.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Drop).on_server(ServerId(0)));
    cluster.plan().arm();
    let degraded = pager.stats().degraded_reads;
    assert_eq!(read(&pager, [3, 6, 9]), 3);
    assert_eq!(pager.stats().degraded_reads, degraded + 3);
    assert_eq!(
        cluster.plan().events(),
        Vec::new(),
        "server 0 was dialled although the pool holds it dead"
    );
}

#[test]
fn prefetch_is_not_aimed_at_a_known_dead_holder() {
    // Two mirrors, so nothing can be re-replicated away from the dead one
    // and the pages it was primary for keep pointing at it. A fast server
    // that dies keeps its tens-of-µs latency estimate, so it never looks
    // gray: only the pool says it is gone.
    let cluster = in_process(2, FaultPlan::seeded(7));
    let config = PagerConfig::new(Policy::Mirroring).with_prefetch_window(8);
    let pager = pager(&cluster, config);
    fill(&pager, 48);
    cluster.server(0).crash();
    // A load probe notices the crash and pays the pool's retry budget.
    assert_eq!(
        pager.with_shard(0, |p| p.pool_mut().refresh_loads()),
        vec![ServerId(0)]
    );
    let retries = counted(&pager, "pool_retries_total");
    // From here on every call that reaches server 0's transport leaves
    // an event behind.
    cluster
        .plan()
        .inject(FaultRule::new(FaultAction::Drop).on_server(ServerId(0)));
    cluster.plan().arm();
    assert_eq!(read(&pager, 0..48), 48);
    assert_eq!(
        cluster.plan().events(),
        Vec::new(),
        "read-ahead dialled server 0 although the pool holds it dead"
    );
    assert_eq!(
        counted(&pager, "pool_retries_total"),
        retries,
        "a speculative fetch spent the retry budget"
    );
}

// --- the headline trace ----------------------------------------------------

/// The request stream `gauss_plog_lan` puts to its device: GAUSS of
/// dimension 96 — 96 × 96 `f64`, row-major, 1,024 to a page, nine pages —
/// under a three-frame LRU that writes a dirty victim back before it
/// faults the wanted page in, as `rmp_vm::PagedMemory` does.
struct GaussTrace {
    /// Resident pages: id, last-use stamp, dirty.
    frames: Vec<(u64, u64, bool)>,
    tick: u64,
    /// The version of each page's copy on the device, once it has one.
    stored: [Option<u64>; 9],
    pageins: u64,
}

impl GaussTrace {
    const N: usize = 96;

    fn touch(&mut self, dev: &mut dyn PagingDevice, index: usize, write: bool) {
        let page = (index / 1024) as u64;
        self.tick += 1;
        if let Some(frame) = self.frames.iter_mut().find(|f| f.0 == page) {
            *frame = (page, self.tick, frame.2 || write);
            return;
        }
        if self.frames.len() == 3 {
            let lru = (0..3).min_by_key(|&f| self.frames[f].1).expect("frames");
            let (victim, _, dirty) = self.frames.swap_remove(lru);
            if dirty {
                let version = self.stored[victim as usize].map_or(0, |v| v + 1);
                let written = Page::deterministic(victim << 32 | version);
                dev.page_out(PageId(victim), &written).expect("write-back");
                self.stored[victim as usize] = Some(version);
            }
        }
        if let Some(version) = self.stored[page as usize] {
            let read = dev.page_in(PageId(page)).expect("fault");
            assert_eq!(
                read,
                Page::deterministic(page << 32 | version),
                "page {page}"
            );
            self.pageins += 1;
        }
        self.frames.push((page, self.tick, write));
    }

    /// One whole solve; returns its pageins.
    fn solve(&mut self, dev: &mut dyn PagingDevice) -> u64 {
        let (n, before) = (Self::N, self.pageins);
        for index in 0..n * n {
            self.touch(dev, index, true);
        }
        for k in 0..n {
            self.touch(dev, k * n + k, false);
            for i in k + 1..n {
                self.touch(dev, i * n + k, false);
                self.touch(dev, i * n + k, true);
                for j in k + 1..n {
                    self.touch(dev, k * n + j, false);
                    self.touch(dev, i * n + j, true);
                }
            }
        }
        for i in 1..n {
            (0..i.min(8)).for_each(|j| self.touch(dev, i * n + j, false));
            self.touch(dev, i * n + i, false);
        }
        self.pageins - before
    }
}

/// Replays two solves through `pager` — the first has no copy on the
/// device to fault in until it evicts one, every later one is like the
/// second — and returns the second's pageins, those served without a
/// demand read (read-ahead hits and faults served from the page a landing
/// keeps) and pages fetched (demand reads and read-ahead).
fn replay_gauss(pager: &mut ShardedPager) -> [u64; 3] {
    // The read-ahead ledger and the landing hits, over every shard.
    let counters = |pager: &ShardedPager| {
        let kept =
            |s| pager.with_shard(s, |p| p.metrics().counter("pager_landing_hits_total").get());
        (
            ledger(pager),
            (0..pager.shard_count()).map(kept).sum::<u64>(),
        )
    };
    let mut trace = GaussTrace {
        frames: Vec::new(),
        tick: 0,
        stored: [None; 9],
        pageins: 0,
    };
    trace.solve(pager);
    let ((issued_before, hits_before, useless_before, _), kept_before) = counters(pager);
    let pageins = trace.solve(pager);
    let ((issued, hits, useless, held), kept) = counters(pager);
    assert_eq!(issued, hits + useless + held, "the ledger balances");
    let (issued, hits, kept) = (
        issued - issued_before,
        hits - hits_before,
        kept - kept_before,
    );
    // At most one read-ahead in twenty may go unread: each costs a
    // transfer and saves nothing.
    let useless = useless - useless_before;
    assert!(
        20 * useless <= issued,
        "{useless} of {issued} read-aheads useless"
    );
    let served = hits + kept;
    [pageins, served, pageins - served + issued]
}

#[test]
fn read_ahead_on_the_gauss_trace_is_the_same_however_many_shards() {
    let config = PagerConfig::new(Policy::ParityLogging)
        .with_servers(3)
        .with_transport(fast_transport());
    let mut runs = Vec::new();
    for shards in [1, 2, 4] {
        let cluster = in_process(4, FaultPlan::seeded(11));
        let config = config.clone().with_shard_count(shards);
        let pools = (0..shards).map(|_| cluster.pool(&config.transport));
        let mut sharded = (ShardedPager::builder(config.clone()).pools(pools.collect()))
            .build()
            .expect("sharded pager");
        runs.push(replay_gauss(&mut sharded));
    }
    println!("[pageins, served without a demand read, pages fetched] a solve: {runs:?}");
    for [pageins, served, fetched] in runs.iter().copied() {
        assert_eq!(pageins, 395, "the trace is gauss_plog_lan's");
        // The stride vote alone got 300: it ignores the jump from page 8
        // back to the pivot row's successor, which the successor table
        // plans once it has repeated (357). Per-shard votes got 178 with
        // two shards and 3 with four. A sweep's first fault misses
        // without read-behind, the looping page read back once its
        // pageout is acknowledged (373, when every pageout waited for its
        // ack); the fault on a recurring page is served from the page
        // its landing keeps.
        assert!(
            served >= 370,
            "{served} of {pageins} pageins served without a demand read"
        );
        // A window that is always eight fetches 465: it asks for pages
        // the VM still holds dirty and writes a fault later. So does one
        // that keeps doubling across a planned wrap (57 useless a solve),
        // and a successor planned before it repeats fetches 408.
        assert!(
            fetched <= 405,
            "{fetched} pages fetched for {pageins} pageins"
        );
    }
    assert!(runs.iter().all(|run| *run == runs[0]), "{runs:?}");
}

/// xorshift64 from `seed`: a uniform stream of pages below `pages`.
fn uniform(seed: u64, pages: u64) -> impl Iterator<Item = u64> {
    let mut x = seed;
    std::iter::repeat_with(move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % pages
    })
}

#[test]
fn a_scan_then_random_misses_reads_ahead_no_more_than_a_page_a_miss() {
    // `crash_cycle_bparity_loopback`'s shape: a verify that reads every
    // page in order — it trains stride +1 — then random reads, which
    // miss, cycle after cycle.
    const PAGES: u64 = 2048;
    let cluster = in_process(5, FaultPlan::seeded(3));
    let config = PagerConfig::new(Policy::BasicParity)
        .with_transport(fast_transport())
        .with_shard_count(2);
    let pools = (0..2).map(|_| cluster.pool(&config.transport)).collect();
    let pager = (ShardedPager::builder(config).pools(pools))
        .build()
        .expect("sharded pager");
    fill(&pager, PAGES);
    let mut random = uniform(0x2545_f491_4f6c_dd1d, PAGES);
    let mut after_scans = 0;
    for _ in 0..4 {
        assert_eq!(read(&pager, 0..PAGES), PAGES);
        let (scanned, ..) = ledger(&pager);
        assert_eq!(read(&pager, random.by_ref().take(32)), 32);
        after_scans += ledger(&pager).0 - scanned;
    }
    println!("pages read ahead in four cycles of random misses: {after_scans}");
    // Each of the first misses after a scan plans one page while the vote
    // still holds the scan's stride: three a cycle at most, as before a
    // learnt sweep's miss planned as it parked. A scan confirms no
    // successor, so no random miss restarts a learnt sweep.
    assert!(
        after_scans <= 12,
        "{after_scans} pages read ahead in four cycles of random misses"
    );
    assert_ledger_balances(&pager);
}
