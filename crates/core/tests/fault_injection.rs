//! Byzantine and partial-failure tests against in-process servers.
//!
//! The TCP integration tests exercise clean crashes; this suite drives
//! the pager against in-process servers that can deny allocations, die
//! mid-call, "forget" pages, answer with protocol garbage, or flap
//! between dead and alive — failure shapes a real cluster produces and
//! the wire tests cannot stage deterministically.

mod support;

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_chaos::{ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::ShardedPager;
use rmp_proto::Opcode;
use rmp_server::ServerConfig;
use rmp_types::{ErrorCode, Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId};

use support::{landed, one_shard};

/// Scripted failure modes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// Healthy operation.
    None,
    /// Connection failures on every call, memory kept (a partition).
    Dead,
    /// Deny all allocation requests: the host's own load took the memory.
    DenyAlloc,
    /// Refuse every store as out of memory.
    RefuseStore,
    /// Lose every page stored (a restart the client did not see).
    Amnesia,
    /// Reply with a nonsensical message (protocol violation).
    Garbage,
    /// Serve pageins with one bit flipped and the checksum recomputed
    /// over the corrupted bytes — corruption *at rest*: the reply is
    /// self-consistent, so only the writer's own checksum can catch it.
    BitFlipStore,
    /// Serve pageins with one bit flipped but the stored page's checksum
    /// — corruption *on the wire*: the reply is self-inconsistent and the
    /// pool's frame verification catches it.
    BitFlipWire,
}

/// Makes server `i` of `cluster` misbehave as `fault` says, from now on.
fn set_fault(cluster: &ChaosCluster, i: usize, fault: Fault) {
    let inject = |action, ops| {
        let rule = FaultRule::new(action).on_server(ServerId(i as u32));
        cluster.plan().inject(rule.on_ops(ops));
        cluster.plan().arm();
    };
    let (any, stores, reads) = (
        OpFilter::Any,
        OpFilter::Op(Opcode::PageOut),
        OpFilter::Op(Opcode::PageIn),
    );
    let server = cluster.server(i);
    match fault {
        Fault::None => {}
        Fault::Dead => inject(FaultAction::Disconnect, any),
        Fault::DenyAlloc => server.set_native_usage(ServerConfig::default().capacity_pages),
        Fault::RefuseStore => inject(FaultAction::Refuse(ErrorCode::OutOfMemory), stores),
        Fault::Amnesia => {
            server.crash();
            server.restart();
        }
        Fault::Garbage => inject(FaultAction::WrongReply, any),
        Fault::BitFlipStore => inject(FaultAction::CorruptStored { byte: 0, bit: 0 }, reads),
        Fault::BitFlipWire => inject(FaultAction::CorruptReply { byte: 0, bit: 0 }, reads),
    }
}

/// Builds a one-shard pager over `n` in-process servers.
fn cluster_pager(policy: Policy, servers: usize, n: usize) -> (ChaosCluster, ShardedPager) {
    cluster_pager_on(policy, servers, n, vec![Box::new(RamDisk::unbounded())])
}

/// [`cluster_pager`] with `disks`: its one shard's disk, or none.
fn cluster_pager_on(
    policy: Policy,
    servers: usize,
    n: usize,
    disks: Vec<Box<dyn PagingDevice>>,
) -> (ChaosCluster, ShardedPager) {
    let cluster = ChaosCluster::new(n, FaultPlan::seeded(0));
    let config = PagerConfig::new(policy).with_servers(servers);
    let pool = cluster.pool(&config.transport);
    (cluster, one_shard(config, pool, disks))
}

/// Pages server `i` of `cluster` holds.
fn stored(cluster: &ChaosCluster, i: usize) -> usize {
    cluster.server(i).stored_pages()
}

#[test]
fn fake_cluster_round_trips() {
    let (cluster, pager) = cluster_pager(Policy::ParityLogging, 4, 5);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    let stored: usize = (0..5).map(|i| stored(&cluster, i)).sum();
    assert!(stored >= 40, "pages plus parity stored: {stored}");
}

#[test]
fn mid_run_death_is_recovered_transparently() {
    let (cluster, pager) = cluster_pager(Policy::ParityLogging, 4, 5);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    // Server 1 dies *and loses its memory* (fault + wipe).
    cluster.server(1).crash();
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("auto-recovered read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn allocation_denial_is_not_fatal() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    set_fault(&cluster, 0, Fault::DenyAlloc);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout routes around the denying server");
    }
    for i in 0..30u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    assert_eq!(stored(&cluster, 0), 0, "denying server got nothing");
    assert!(stored(&cluster, 1) > 0);
}

#[test]
fn all_servers_denying_falls_back_to_disk() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    for i in 0..2 {
        set_fault(&cluster, i, Fault::DenyAlloc);
    }
    for i in 0..10u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("disk fallback");
    }
    assert!(pager.stats().disk_writes >= 10);
    for i in 0..10u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn amnesia_surfaces_as_page_not_found() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    pager
        .page_out(PageId(1), &Page::deterministic(1))
        .expect("pageout");
    for i in 0..2 {
        set_fault(&cluster, i, Fault::Amnesia);
    }
    let err = pager
        .page_in(PageId(1))
        .expect_err("server forgot the page");
    assert!(matches!(err, RmpError::PageNotFound(_)), "got {err}");
}

#[test]
fn garbage_replies_surface_as_protocol_errors() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    pager
        .page_out(PageId(1), &Page::deterministic(1))
        .expect("pageout");
    for i in 0..2 {
        set_fault(&cluster, i, Fault::Garbage);
    }
    let err = pager.page_in(PageId(1)).expect_err("garbage reply");
    assert!(matches!(err, RmpError::Protocol(_)), "got {err}");
}

#[test]
fn flapping_server_keeps_data_consistent() {
    let (cluster, pager) = cluster_pager(Policy::Mirroring, 2, 3);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Server 0 flaps: dead during reads, then back (without losing state
    // — a network partition, not a crash).
    set_fault(&cluster, 0, Fault::Dead);
    for i in 0..30u64 {
        assert_eq!(
            pager
                .page_in(PageId(i))
                .expect("mirror covers the partition"),
            Page::deterministic(i)
        );
    }
    cluster.plan().disarm();
    pager.with_shard(0, |p| p.pool_mut().absolve(ServerId(0)));
    // Updates after the flap still round trip.
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(500 + i))
            .expect("pageout after flap");
    }
    for i in 0..30u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(500 + i)
        );
    }
}

#[test]
fn advisories_trigger_automatic_migration() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    for i in 0..20u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    let on_zero = stored(&cluster, 0);
    assert!(on_zero > 0);
    // Server 0 comes under native memory pressure.
    set_fault(&cluster, 0, Fault::DenyAlloc);
    let moved = pager.with_shard(0, |p| {
        p.pool_mut().refresh_loads();
        p.service_advisories()
    });
    let moved = moved.expect("migration");
    assert_eq!(moved as usize, on_zero);
    assert_eq!(stored(&cluster, 0), 0, "server 0 drained");
    for i in 0..20u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

/// Writes through `pager`, corrupts server 0 with `fault`, and asserts
/// every read still returns the exact bytes written — the redundant
/// policies must detect the flip (at either layer) and heal the read from
/// redundancy, never serve wrong content.
fn assert_bit_flip_healed(policy: Policy, servers: usize, n: usize, fault: Fault) {
    let (cluster, pager) = cluster_pager(policy, servers, n);
    for i in 0..24u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    set_fault(&cluster, 0, fault);
    for i in 0..24u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("healed from redundancy"),
            Page::deterministic(i),
            "{policy:?}/{fault:?}: page {i} must never come back wrong"
        );
    }
    let stats = pager.stats();
    assert!(
        stats.checksum_failures > 0,
        "{policy:?}/{fault:?}: the flipped bits were detected"
    );
    assert!(
        stats.degraded_reads > 0,
        "{policy:?}/{fault:?}: corrupted copies were served from redundancy"
    );
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "{policy:?}/{fault:?}: a corrupt page is a data fault, not a crash"
    );
    // The scan was sequential, so corrupt copies were read ahead too: one
    // the pool refused on the wire, or the writer's checksum at the
    // fault, is useless — not gone from the books.
    let count = |name| pager.with_shard(0, |p| p.metrics().counter(name).get());
    assert_eq!(
        count("pager_prefetch_issued_total"),
        count("pager_prefetch_hits_total")
            + count("pager_prefetch_useless_total")
            + pager.with_shard(0, |p| p.read_ahead_held()) as u64,
        "{policy:?}/{fault:?}: the read-ahead ledger balances"
    );
}

#[test]
fn mirroring_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::Mirroring, 2, 3, Fault::BitFlipStore);
}

#[test]
fn mirroring_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::Mirroring, 2, 3, Fault::BitFlipWire);
}

#[test]
fn basic_parity_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::BasicParity, 2, 3, Fault::BitFlipStore);
}

#[test]
fn basic_parity_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::BasicParity, 2, 3, Fault::BitFlipWire);
}

#[test]
fn parity_logging_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::ParityLogging, 2, 3, Fault::BitFlipStore);
}

#[test]
fn parity_logging_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::ParityLogging, 2, 3, Fault::BitFlipWire);
}

#[test]
fn erasure_coded_heals_store_level_bit_flips() {
    // Default 2 + 1 stripe across three servers. The corrupt split may
    // be any data split, so the heal path must locate it by exclusion.
    assert_bit_flip_healed(Policy::ErasureCoded, 2, 3, Fault::BitFlipStore);
}

#[test]
fn erasure_coded_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::ErasureCoded, 2, 3, Fault::BitFlipWire);
}

#[test]
fn write_through_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::WriteThrough, 2, 2, Fault::BitFlipStore);
}

#[test]
fn write_through_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::WriteThrough, 2, 2, Fault::BitFlipWire);
}

#[test]
fn unreplicated_bit_flip_surfaces_as_corrupt_page() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    for i in 0..16u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..2 {
        set_fault(&cluster, i, Fault::BitFlipStore);
    }
    let mut corrupt = 0u64;
    for i in 0..16u64 {
        match pager.page_in(PageId(i)) {
            Ok(page) => assert_eq!(
                page,
                Page::deterministic(i),
                "a page served as Ok must be the bytes written"
            ),
            Err(RmpError::CorruptPage { .. }) => corrupt += 1,
            Err(other) => panic!("expected CorruptPage, got {other}"),
        }
    }
    assert!(
        corrupt > 0,
        "without redundancy the flip is surfaced, not silently served"
    );
    assert!(pager.stats().checksum_failures >= corrupt);
}

#[test]
fn dead_server_calls_stop_quickly() {
    let (cluster, pager) = cluster_pager(Policy::NoReliability, 2, 2);
    for i in 0..10u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    set_fault(&cluster, 0, Fault::Dead);
    // One failing call marks the server dead; subsequent traffic must not
    // hammer it.
    let _ = pager.page_in(PageId(0));
    // Every call server 0 gets fails, and is a fault event.
    let calls = || {
        (cluster.plan().events().iter())
            .filter(|e| e.server == ServerId(0))
            .count()
    };
    let calls_after_death = calls();
    for i in 0..10u64 {
        let _ = pager.page_out(PageId(100 + i), &Page::deterministic(i));
    }
    assert!(
        calls() <= calls_after_death + 1,
        "dead server left alone: {} vs {}",
        calls(),
        calls_after_death
    );
}

/// Parity logging over data servers 0..=2 with the parity page on 4 and
/// 3 spare; the pageout of page 2 seals the first group.
fn pager_about_to_seal(parity_fault: Fault) -> (ChaosCluster, ShardedPager) {
    let (cluster, pager) = cluster_pager(Policy::ParityLogging, 3, 5);
    set_fault(&cluster, 4, parity_fault);
    for i in 0..2u64 {
        landed(&pager, PageId(i), &Page::deterministic(i))
            .expect("a pending member needs no parity server");
    }
    (cluster, pager)
}

/// Server 0 — holder of page 0, the first member of the group whose seal
/// failed — dies with its memory; every page must still read back.
fn assert_sealed_members_survive_a_data_crash(cluster: &ChaosCluster, pager: &ShardedPager) {
    assert_pages_survive_a_data_crash(cluster, pager, &[0, 1, 2]);
}

/// Server 0 dies with its memory; page `i` must still read back as
/// `Page::deterministic(fills[i])`.
fn assert_pages_survive_a_data_crash(cluster: &ChaosCluster, pager: &ShardedPager, fills: &[u64]) {
    cluster.server(0).crash();
    for (i, &fill) in fills.iter().enumerate() {
        assert_eq!(
            pager
                .page_in(PageId(i as u64))
                .expect("the group of the failed seal still covers its members"),
            Page::deterministic(fill)
        );
    }
}

#[test]
fn parity_crash_on_the_sealing_pageout_keeps_the_group_covered() {
    let (cluster, pager) = pager_about_to_seal(Fault::Dead);
    // The parity page finds its server dead; the pager recovers that
    // server — which has to rebuild the parity of the group being sealed
    // — and retries the pageout.
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("recovered and retried");
    assert_sealed_members_survive_a_data_crash(&cluster, &pager);
}

#[test]
fn parity_refusal_on_the_sealing_pageout_keeps_the_group_covered() {
    let (cluster, pager) = pager_about_to_seal(Fault::DenyAlloc);
    // The parity server takes no frame; a seal is never undone: its
    // parity page goes to the one live server holding no member, 3.
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("the spare takes the parity page");
    assert_eq!((stored(&cluster, 3), stored(&cluster, 4)), (1, 0));
    // Moving the parity off the refusing server leaves the group as it is.
    pager
        .recover_from_crash(ServerId(4))
        .expect("parity moved elsewhere");
    assert_sealed_members_survive_a_data_crash(&cluster, &pager);
}

#[test]
fn a_sealing_rewrite_whose_parity_is_refused_reads_back_what_it_committed() {
    let (cluster, pager) = cluster_pager(Policy::ParityLogging, 3, 5);
    // Every third pageout seals a group and takes one of the parity
    // server's granted frames; rewrite until the next seal asks for more
    // ahead of need (below half a chunk of 64), deny that and every later
    // allocation, and rewrite until the grants are spent.
    let mut fill = 0;
    let mut round = |pager: &ShardedPager| {
        fill += 10;
        let rewrite = |i| landed(pager, PageId(i), &Page::deterministic(fill + i));
        (0..3).map(rewrite).collect::<Vec<Result<()>>>()
    };
    let grants =
        |pager: &ShardedPager| pager.with_shard(0, |p| p.pool().granted_frames(ServerId(4)));
    while grants(&pager) > 32 || pager.stats().pageouts == 0 {
        let acked = round(&pager);
        assert!(acked.iter().all(Result::is_ok), "{acked:?}");
    }
    // Server 4 refuses every allocation from now on, out of memory; what
    // it granted still takes a page.
    let alloc = FaultRule::new(FaultAction::Refuse(ErrorCode::OutOfMemory)).on_server(ServerId(4));
    cluster
        .plan()
        .inject(alloc.on_ops(OpFilter::Op(Opcode::Alloc)));
    cluster.plan().arm();
    while grants(&pager) > 0 {
        let acked = round(&pager);
        assert!(acked.iter().all(Result::is_ok), "{acked:?}");
    }
    let on_spare = stored(&cluster, 3);
    let outcomes = round(&pager);
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    assert_eq!(
        stored(&cluster, 3),
        on_spare + 1,
        "the parity page went to 3"
    );
    // The parity server took no frame for the seal, which is not undone:
    // each page reads back as the bytes its pageout committed — verified
    // against the sum it took, not flagged against the one acked before.
    let current = [fill, fill + 1, fill + 2];
    for (i, &fill) in current.iter().enumerate() {
        let read = pager.page_in(PageId(i as u64)).expect("pagein");
        assert_eq!(read, Page::deterministic(fill));
    }
    assert_eq!(pager.stats().checksum_failures, 0);
    assert_eq!(pager.stats().degraded_reads, 0);
    // The group is covered by the parity page on the spare.
    pager
        .recover_from_crash(ServerId(4))
        .expect("parity moved off the refusing server");
    assert_pages_survive_a_data_crash(&cluster, &pager, &current);
}

#[test]
fn a_sealing_pageout_no_server_takes_leaves_the_group_without_it() {
    let (cluster, pager) = pager_about_to_seal(Fault::None);
    // Servers 0 and 1 hold the group's other members, so the frame server
    // 2 refuses has nowhere to go but the disk — after the wave that
    // carried it has stored a parity page that includes it.
    set_fault(&cluster, 2, Fault::RefuseStore);
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("the disk takes the page");
    assert_eq!(pager.stats().disk_writes, 1);
    assert_eq!((stored(&cluster, 2), stored(&cluster, 4)), (0, 1));
    // Server 2 granted its first chunk of frames to this pageout, and
    // every refused store gave its frame back.
    let granted = |server| pager.with_shard(0, |p| p.pool().granted_frames(server));
    let chunk = granted(ServerId(0)) + 1;
    assert_eq!(granted(ServerId(2)), chunk);
    // The parity page was stored again without page 2: page 0 is rebuilt
    // from page 1 and it alone.
    assert_sealed_members_survive_a_data_crash(&cluster, &pager);
}

#[test]
fn a_sealing_pageout_with_nowhere_to_go_fails_typed_and_spares_the_group() {
    let (cluster, pager) = cluster_pager_on(Policy::ParityLogging, 3, 5, Vec::new());
    for i in 0..2u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pending");
    }
    set_fault(&cluster, 2, Fault::RefuseStore);
    // The pageout returns with its frames on the wire; its landing
    // reports the failure, to the page's next operation.
    (pager.page_out(PageId(2), &Page::deterministic(2))).expect("on the wire");
    let err = pager.page_in(PageId(2)).expect_err("no server and no disk");
    assert!(matches!(err, RmpError::ClusterFull), "got {err}");
    let err = pager.page_in(PageId(2)).expect_err("never stored");
    assert!(
        matches!(err, RmpError::PageNotFound(PageId(2))),
        "got {err}"
    );
    assert_pages_survive_a_data_crash(&cluster, &pager, &[0, 1]);
}
