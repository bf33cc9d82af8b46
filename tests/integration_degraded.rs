//! Degraded reads, incremental recovery, and rejoin across the stack.
//!
//! The robustness contract under test: a crash must never stall a pagein
//! (the surviving redundancy serves it at O(1) cost while the full rebuild
//! is deferred), the deferred rebuild proceeds in budgeted steps from
//! `periodic_maintenance`, a second crash mid-rebuild re-plans or surfaces
//! a typed `Unrecoverable` — never wrong bytes — and a rebooted
//! workstation rejoins the pool and takes new placements.

use rmp::prelude::*;
use rmp::types::RmpError;

/// Pages the budgeted-recovery tests write: enough that a crashed
/// server's share outlasts three 64-page maintenance steps.
const BUDGETED_PAGES: u64 = 1280;

#[test]
fn degraded_read_is_o1_and_defers_the_rebuild() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    let wire_transfers = || pager.with_shard(0, |p| p.pool().wire_transfers());
    for i in 0..200u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    let lost = cluster.handles()[1].stored_pages();
    assert!(lost > 20, "server 1 holds a real share of the data: {lost}");
    cluster.handles()[1].crash();
    // Read until a page homed on the dead server is hit: that pagein is
    // served by reconstructing just its parity group.
    let mut cost_of_degraded = None;
    for i in 0..200u64 {
        let wire_before = wire_transfers();
        let degraded_before = pager.stats().degraded_reads;
        let page = pager
            .page_in(PageId(i))
            .expect("every read survives the crash");
        assert_eq!(page, Page::deterministic(i));
        if pager.stats().degraded_reads > degraded_before {
            cost_of_degraded = Some(wire_transfers() - wire_before);
            break;
        }
    }
    let cost = cost_of_degraded.expect("some page was homed on the crashed server");
    assert!(
        cost <= 6,
        "one degraded read fetches one parity group (S-1 members plus \
         parity), not the {lost} lost pages; measured {cost} transfers"
    );
    // The read waited for no verdict: one missed attempt put the server on
    // the retry ladder, and nothing is queued on a miss.
    assert!(pager.with_shard(0, |p| p.pool().alive(ServerId(1))));
    assert_eq!(pager.recovery_backlog(), 0);
    // A load probe has no way around the server: it walks the rest of the
    // ladder to the verdict, and the next read of a lost page queues the
    // rebuild.
    let probed = pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    assert_eq!(probed, vec![ServerId(1)]);
    for i in 0..200u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    assert!(
        pager.recovery_backlog() > 0,
        "the full rebuild was deferred, not run inline with the pagein"
    );
    // Draining the deferred rebuild restores full redundancy.
    let reports = pager
        .recover_from_crash(ServerId(1))
        .expect("deferred rebuild drains");
    assert!(reports[0].pages_rebuilt > 0);
    assert_eq!(pager.recovery_backlog(), 0);
    for i in 0..200u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read after rebuild"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn maintenance_rebuilds_in_budgeted_steps() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..BUDGETED_PAGES {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    cluster.handles()[3].crash();
    // The maintenance timer notices the crash via the load probes and
    // works the rebuild off 64 pages at a time.
    let mut rounds = 0u32;
    loop {
        pager.periodic_maintenance().expect("maintenance");
        rounds += 1;
        if pager.recovery_backlog() == 0 {
            break;
        }
        assert!(rounds < 500, "maintenance must converge");
    }
    assert!(
        rounds > 2,
        "a 64-page budget spreads the rebuild over many timer ticks, got {rounds}"
    );
    assert!(pager.stats().recovery_steps > 2);
    for i in 0..BUDGETED_PAGES {
        assert_eq!(
            pager
                .page_in(PageId(i))
                .expect("read after incremental rebuild"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn restarted_server_rejoins_and_takes_new_pages() {
    let cluster = LocalCluster::spawn(3, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(PagerConfig::new(Policy::Mirroring).with_shard_count(1))
        .expect("pager");
    for i in 0..60u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout is acked before the crash: `flush` returns once each
    // has landed.
    pager.flush().expect("flush");
    cluster.handles()[0].crash();
    pager
        .recover_from_crash(ServerId(0))
        .expect("re-mirror on the survivors");
    // The workstation reboots empty and rejoins the pool.
    cluster.handles()[0].restart();
    pager.reconnect(ServerId(0)).expect("rejoin");
    pager.with_shard(0, |p| p.pool_mut().refresh_loads());
    assert_eq!(cluster.handles()[0].stored_pages(), 0);
    for i in 100..160u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout after rejoin");
    }
    assert!(
        cluster.handles()[0].stored_pages() > 0,
        "the rejoined server is reused for new placements"
    );
    for i in (0..60u64).chain(100..160) {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

/// Crashes a second server while the first rebuild is mid-flight. The
/// acceptable outcomes are a re-planned rebuild or a typed
/// [`RmpError::Unrecoverable`] — never a wrong-content page.
fn double_fault_mid_recovery(policy: Policy, n: usize, servers: usize) {
    let cluster = LocalCluster::spawn(n, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(policy)
                .with_servers(servers)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..BUDGETED_PAGES {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    cluster.handles()[0].crash();
    // A few budgeted steps: the rebuild of server 0 is genuinely mid-flight.
    for _ in 0..3 {
        pager.periodic_maintenance().expect("maintenance");
    }
    assert!(
        pager.recovery_backlog() > 0,
        "{policy:?}: the second crash must land mid-rebuild"
    );
    cluster.handles()[1].crash();
    // Drive maintenance until the backlog settles; unrecoverable plans are
    // dropped (the data cannot come back), everything else completes.
    let mut rounds = 0u32;
    while pager.recovery_backlog() > 0 {
        pager.periodic_maintenance().expect("maintenance");
        rounds += 1;
        assert!(rounds < 1000, "{policy:?}: maintenance must converge");
    }
    // Safety over availability: reads return the exact bytes written or a
    // typed error — never garbage.
    let (mut ok, mut errors) = (0u64, 0u64);
    for i in 0..BUDGETED_PAGES {
        match pager.page_in(PageId(i)) {
            Ok(page) => {
                assert_eq!(
                    page,
                    Page::deterministic(i),
                    "{policy:?}: page {i} served with wrong content"
                );
                ok += 1;
            }
            Err(_) => errors += 1,
        }
    }
    assert!(
        ok > 0,
        "{policy:?}: pages outside the double-loss blast radius still read"
    );
    if errors > 0 {
        // Data really was lost: a synchronous recovery attempt must say so
        // with the typed error, not loop or fabricate pages.
        let err = pager
            .recover_from_crash(ServerId(0))
            .expect_err("double loss cannot fully recover");
        assert!(
            matches!(err, RmpError::Unrecoverable(_)),
            "{policy:?}: expected Unrecoverable, got {err}"
        );
    }
}

#[test]
fn mirroring_double_fault_mid_recovery_is_safe() {
    double_fault_mid_recovery(Policy::Mirroring, 4, 2);
}

#[test]
fn parity_logging_double_fault_mid_recovery_is_safe() {
    double_fault_mid_recovery(Policy::ParityLogging, 5, 4);
}
