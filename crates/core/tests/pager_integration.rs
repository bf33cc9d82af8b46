//! End-to-end tests of the pager against real TCP memory servers.

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_cluster::{Registry, ServerInfo};
use rmp_core::{Pager, ServerPool};
use rmp_server::{MemoryServer, ServerConfig, ServerHandle};
use rmp_types::{Page, PageId, PagerConfig, Policy, RmpError, ServerId, PAGE_SIZE};

/// Spawns `n` servers with `capacity` frames each and returns handles plus
/// a connected pool.
fn cluster(n: usize, capacity: usize) -> (Vec<ServerHandle>, ServerPool) {
    let mut handles = Vec::new();
    let mut registry = Registry::new();
    for i in 0..n {
        let handle = MemoryServer::spawn(ServerConfig {
            capacity_pages: capacity,
            overflow_fraction: 0.10,
            ..ServerConfig::default()
        })
        .expect("spawn server");
        registry
            .add(ServerInfo {
                id: ServerId(i as u32),
                addr: handle.addr().to_string(),
                link_cost: 1.0,
            })
            .expect("register");
        handles.push(handle);
    }
    let pool = ServerPool::connect(&registry).expect("connect pool");
    (handles, pool)
}

fn pager(policy: Policy, servers: usize, handles_capacity: usize) -> (Vec<ServerHandle>, Pager) {
    let pool_size = match policy {
        // Parity needs the dedicated parity server; erasure coding needs
        // k + 1 distinct servers for its default r = 1 stripe.
        Policy::BasicParity | Policy::ParityLogging | Policy::ErasureCoded => servers + 1,
        _ => servers,
    };
    let (handles, pool) = cluster(pool_size, handles_capacity);
    let config = match policy {
        Policy::ErasureCoded => PagerConfig::new(policy).with_ec_splits(servers, 1),
        _ => PagerConfig::new(policy).with_servers(servers),
    };
    let pager = Pager::builder(config)
        .pool(pool)
        .disk(Box::new(RamDisk::unbounded()))
        .build()
        .expect("build pager");
    (handles, pager)
}

fn fill(pager: &mut Pager, count: u64) {
    for i in 0..count {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .unwrap_or_else(|e| panic!("pageout {i}: {e}"));
    }
}

fn verify(pager: &mut Pager, count: u64) {
    for i in 0..count {
        let page = pager
            .page_in(PageId(i))
            .unwrap_or_else(|e| panic!("pagein {i}: {e}"));
        assert_eq!(page, Page::deterministic(i), "page {i} contents");
    }
}

#[test]
fn every_policy_round_trips_pages() {
    for policy in Policy::ALL {
        let servers = match policy {
            Policy::BasicParity | Policy::ParityLogging => 4,
            _ => 2,
        };
        let (_handles, mut pager) = pager(policy, servers, 4096);
        fill(&mut pager, 50);
        // Overwrite some pages with new contents.
        for i in 0..10u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(1000 + i))
                .expect("overwrite");
        }
        for i in 0..10u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("read"),
                Page::deterministic(1000 + i),
                "{policy}: overwritten page {i}"
            );
        }
        for i in 10..50u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("read"),
                Page::deterministic(i),
                "{policy}: page {i}"
            );
        }
        assert_eq!(pager.stats().pageouts, 60, "{policy}");
        assert_eq!(pager.stats().pageins, 50, "{policy}");
    }
}

#[test]
fn parity_logging_transfer_overhead_is_one_plus_one_over_s() {
    let (_handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    fill(&mut pager, 400);
    pager.flush().expect("flush");
    let s = pager.stats();
    let overhead = s.outbound_transfers_per_pageout();
    assert!(
        (overhead - 1.25).abs() < 0.01,
        "expected ~1.25 transfers/pageout, got {overhead}"
    );
}

#[test]
fn mirroring_transfer_overhead_is_two() {
    let (_handles, mut pager) = pager(Policy::Mirroring, 2, 4096);
    fill(&mut pager, 100);
    let s = pager.stats();
    assert!((s.outbound_transfers_per_pageout() - 2.0).abs() < 1e-9);
}

#[test]
fn basic_parity_transfer_overhead_is_two() {
    let (_handles, mut pager) = pager(Policy::BasicParity, 4, 4096);
    fill(&mut pager, 100);
    let s = pager.stats();
    assert!((s.outbound_transfers_per_pageout() - 2.0).abs() < 1e-9);
}

#[test]
fn parity_logging_survives_data_server_crash() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    fill(&mut pager, 200);
    pager.flush().expect("flush");
    // Kill a data server (id 1 = handles[1]).
    handles[1].crash();
    let report = pager
        .recover_from_crash(ServerId(1))
        .expect("recovery succeeds");
    assert!(report.pages_rebuilt > 0, "server 1 held pages");
    verify(&mut pager, 200);
}

#[test]
fn parity_logging_survives_crash_with_pending_group() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    // 4k+2 pageouts leaves 2 pages pending in the buffer.
    fill(&mut pager, 42);
    handles[0].crash();
    let _ = pager
        .recover_from_crash(ServerId(0))
        .expect("pending pages recoverable from client buffer");
    verify(&mut pager, 42);
}

#[test]
fn parity_logging_survives_parity_server_crash() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    fill(&mut pager, 100);
    pager.flush().expect("flush");
    // The parity server is the highest-id pool member: handles[4].
    handles[4].crash();
    let report = pager
        .recover_from_crash(ServerId(4))
        .expect("parity rebuilt");
    assert!(report.parity_rebuilt > 0);
    assert_eq!(report.pages_rebuilt, 0, "no data pages lost");
    verify(&mut pager, 100);
    // Reliability is restored: crash another server and recover again.
    handles[2].crash();
    pager
        .recover_from_crash(ServerId(2))
        .expect("second crash still recoverable");
    verify(&mut pager, 100);
}

#[test]
fn parity_logging_auto_recovers_on_pagein() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    fill(&mut pager, 100);
    pager.flush().expect("flush");
    handles[2].crash();
    // No explicit recovery: the pager detects the dead server during the
    // pagein, reconstructs, and retries — the application never notices.
    verify(&mut pager, 100);
}

#[test]
fn mirroring_survives_crash_and_remirrors() {
    let (handles, mut pager) = pager(Policy::Mirroring, 3, 4096);
    fill(&mut pager, 120);
    handles[0].crash();
    let report = pager.recover_from_crash(ServerId(0)).expect("recovery");
    assert!(report.pages_rebuilt > 0);
    verify(&mut pager, 120);
    // A second, different crash is survivable because re-mirroring
    // restored two live copies of everything.
    handles[1].crash();
    pager.recover_from_crash(ServerId(1)).expect("second crash");
    verify(&mut pager, 120);
}

#[test]
fn a_reported_crash_is_a_death_like_any_other() {
    let (handles, mut pager) = pager(Policy::Mirroring, 3, 4096);
    fill(&mut pager, 30);
    let victim = ServerId(0);
    assert!(pager.pool().granted_frames(victim) > 0, "an unused grant");
    handles[0].crash();
    // The pool has not touched the server since and still holds it
    // healthy; the pager is told of the crash from outside.
    pager.note_crash(victim);
    assert!(!pager.pool().view().is_alive(victim));
    assert_eq!(
        pager.pool().granted_frames(victim),
        0,
        "grants die with the server, whoever noticed the death"
    );
    assert_eq!(
        pager.pool().suspicion(victim),
        rmp_core::detector::SUSPICION_CAP
    );
    let deaths = pager.metrics().counter("pool_deaths_total");
    assert_eq!(deaths.get(), 1);
    pager.note_crash(victim);
    assert_eq!(deaths.get(), 1, "an already-dead server dies once");
    verify(&mut pager, 30);
}

#[test]
fn basic_parity_rebuilds_in_place_after_restart() {
    let (handles, mut pager) = pager(Policy::BasicParity, 4, 4096);
    fill(&mut pager, 100);
    handles[2].crash();
    // In-place rebuild requires the workstation to rejoin first.
    assert!(pager.recover_from_crash(ServerId(2)).is_err());
    handles[2].restart();
    pager.pool_mut().reconnect(ServerId(2)).expect("reconnect");
    let report = pager.recover_from_crash(ServerId(2)).expect("rebuild");
    assert!(report.pages_rebuilt > 0);
    verify(&mut pager, 100);
}

#[test]
fn basic_parity_rebuilds_parity_server() {
    let (handles, mut pager) = pager(Policy::BasicParity, 4, 4096);
    fill(&mut pager, 60);
    handles[4].crash();
    handles[4].restart();
    pager.pool_mut().reconnect(ServerId(4)).expect("reconnect");
    let report = pager.recover_from_crash(ServerId(4)).expect("rebuild");
    assert!(report.parity_rebuilt > 0);
    // Now crash a data server: parity must again protect everything.
    handles[1].crash();
    handles[1].restart();
    pager.pool_mut().reconnect(ServerId(1)).expect("reconnect");
    pager.recover_from_crash(ServerId(1)).expect("data rebuild");
    verify(&mut pager, 60);
}

#[test]
fn write_through_never_loses_data() {
    let (handles, mut pager) = pager(Policy::WriteThrough, 2, 4096);
    fill(&mut pager, 80);
    handles[0].crash();
    handles[1].crash();
    // Even with every server dead the disk has everything.
    pager.pool_mut().view_mut().mark_dead(ServerId(0));
    pager.pool_mut().view_mut().mark_dead(ServerId(1));
    verify(&mut pager, 80);
    assert!(pager.stats().disk_reads > 0, "reads fell back to disk");
}

#[test]
fn no_reliability_loses_pages_on_crash() {
    let (handles, mut pager) = pager(Policy::NoReliability, 2, 4096);
    fill(&mut pager, 50);
    handles[0].crash();
    let err = pager
        .recover_from_crash(ServerId(0))
        .expect_err("no redundancy");
    assert!(matches!(err, RmpError::Unrecoverable(_)));
}

#[test]
fn allocation_denial_falls_back_to_disk() {
    // Tiny servers: 16 frames each; 100 pages cannot fit remotely.
    let (_handles, mut pager) = pager(Policy::NoReliability, 2, 16);
    fill(&mut pager, 100);
    verify(&mut pager, 100);
    let s = pager.stats();
    assert!(s.disk_writes > 0, "overflow went to the local disk");
}

#[test]
fn rebalance_promotes_disk_pages_when_space_frees() {
    let (_handles, mut pager) = pager(Policy::NoReliability, 2, 40);
    fill(&mut pager, 100);
    let before = pager.stats().disk_writes;
    assert!(before > 0, "some pages spilled to disk");
    // Free most remote pages to open space, then rebalance.
    for i in 0..60u64 {
        pager.free(PageId(i)).expect("free");
    }
    let promoted = pager.rebalance().expect("rebalance");
    assert!(promoted > 0, "disk pages promoted back to remote memory");
    for i in 60..100u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

/// A local disk that refuses to free anything.
struct StuckFree(RamDisk);

impl PagingDevice for StuckFree {
    fn page_out(&mut self, id: PageId, page: &Page) -> rmp_types::Result<()> {
        self.0.page_out(id, page)
    }

    fn page_in(&mut self, id: PageId) -> rmp_types::Result<Page> {
        self.0.page_in(id)
    }

    fn free(&mut self, _id: PageId) -> rmp_types::Result<()> {
        Err(RmpError::Io(std::io::Error::other(
            "the disk refuses frees",
        )))
    }

    fn contains(&self, id: PageId) -> bool {
        self.0.contains(id)
    }

    fn stats(&self) -> rmp_types::TransferStats {
        self.0.stats()
    }
}

#[test]
fn a_page_promoted_off_the_disk_stays_recorded_when_the_disk_cannot_free_it() {
    let (handles, pool) = cluster(2, 64);
    let mut pager = Pager::builder(PagerConfig::new(Policy::NoReliability).with_servers(2))
        .pool(pool)
        .disk(Box::new(StuckFree(RamDisk::unbounded())))
        .build()
        .expect("build pager");
    // While no server is held alive, pages 0 and 1 go to the disk.
    for server in [ServerId(0), ServerId(1)] {
        pager.pool_mut().view_mut().mark_dead(server);
    }
    fill(&mut pager, 2);
    for server in [ServerId(0), ServerId(1)] {
        pager.pool_mut().absolve(server);
    }
    // Page 0 is written anew, and page 1 promoted: each is placed, and
    // then the disk refuses to free its old copy.
    assert!(pager.page_out(PageId(0), &Page::filled(7)).is_err());
    assert!(pager.rebalance().is_err());
    let stored = || {
        handles
            .iter()
            .map(ServerHandle::stored_pages)
            .sum::<usize>()
    };
    assert_eq!(stored(), 2);
    // The placements were recorded all the same: the pages read back from
    // the servers, and freeing them leaves nothing stored.
    assert_eq!(pager.page_in(PageId(0)).expect("page 0"), Page::filled(7));
    assert_eq!(
        pager.page_in(PageId(1)).expect("page 1"),
        Page::deterministic(1)
    );
    for id in [PageId(0), PageId(1)] {
        pager.free(id).expect("free");
    }
    assert_eq!(stored(), 0, "a unit no row names stayed stored");
}

#[test]
fn migrate_from_empties_a_loaded_server() {
    let (handles, mut pager) = pager(Policy::NoReliability, 3, 4096);
    fill(&mut pager, 90);
    let loaded: usize = handles[0].stored_pages();
    assert!(loaded > 0);
    let moved = pager.migrate_from(ServerId(0)).expect("migration");
    assert_eq!(moved as usize, loaded);
    assert_eq!(handles[0].stored_pages(), 0, "server 0 emptied");
    verify(&mut pager, 90);
    assert_eq!(pager.stats().migrations, moved);
}

#[test]
fn parity_logging_migration_relogs_pages() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    fill(&mut pager, 80);
    pager.flush().expect("flush");
    let moved = pager.migrate_from(ServerId(0)).expect("migration");
    assert!(moved > 0);
    verify(&mut pager, 80);
    // Old versions drain as groups go inactive; the stale copies on
    // server 0 disappear once every group containing them is reclaimed.
    let _ = handles; // Keep servers alive to the end.
}

#[test]
fn basic_parity_cannot_migrate() {
    let (_handles, mut pager) = pager(Policy::BasicParity, 4, 4096);
    fill(&mut pager, 10);
    assert!(matches!(
        pager.migrate_from(ServerId(0)),
        Err(RmpError::Unsupported(_))
    ));
}

#[test]
fn free_releases_remote_storage() {
    let (handles, mut pager) = pager(Policy::NoReliability, 2, 4096);
    fill(&mut pager, 40);
    let stored: usize = handles.iter().map(|h| h.stored_pages()).sum();
    assert_eq!(stored, 40);
    for i in 0..40u64 {
        pager.free(PageId(i)).expect("free");
    }
    let stored: usize = handles.iter().map(|h| h.stored_pages()).sum();
    assert_eq!(stored, 0);
    assert!(matches!(
        pager.page_in(PageId(0)),
        Err(RmpError::PageNotFound(_))
    ));
}

#[test]
fn parity_logging_reclaims_fully_inactive_groups() {
    let (handles, mut pager) = pager(Policy::ParityLogging, 4, 4096);
    // Two full rounds over the same pages: the first round's groups all
    // go inactive when the second round reregisters every page.
    fill(&mut pager, 64);
    pager.flush().expect("flush");
    let after_first: usize = handles.iter().map(|h| h.stored_pages()).sum();
    fill(&mut pager, 64);
    pager.flush().expect("flush");
    let s = pager.stats();
    assert!(
        s.groups_reclaimed >= 16,
        "first-round groups reclaimed, got {}",
        s.groups_reclaimed
    );
    // Storage did not double: reclaimed versions were freed.
    let after_second: usize = handles.iter().map(|h| h.stored_pages()).sum();
    assert!(
        after_second <= after_first + 8,
        "storage bounded: {after_second} vs {after_first}"
    );
    verify(&mut pager, 64);
}

#[test]
fn parity_logging_gc_compacts_under_memory_pressure() {
    // Small servers force the log to hit the capacity wall and GC.
    let (_handles, mut pager) = pager(Policy::ParityLogging, 4, 64);
    // Rewrite a small working set many times: versions accumulate until
    // GC reclaims inactive groups.
    for round in 0..20u64 {
        for i in 0..32u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(round * 100 + i))
                .expect("pageout");
        }
    }
    pager.flush().expect("flush");
    for i in 0..32u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(19 * 100 + i)
        );
    }
    let s = pager.stats();
    assert!(s.groups_reclaimed > 0, "groups were reclaimed");
}

#[test]
fn adaptive_switch_prefers_disk_under_slow_network() {
    let (_handles, pool) = cluster(2, 4096);
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        // Loopback service times are microseconds; an absurdly low
        // threshold forces the switch immediately.
        .with_adaptive_threshold_ms(1e-9);
    let mut pager = Pager::builder(config)
        .pool(pool)
        .disk(Box::new(RamDisk::unbounded()))
        .build()
        .expect("build");
    fill(&mut pager, 20);
    assert!(pager.prefers_disk(), "switch engaged");
    assert!(pager.stats().disk_writes > 0);
    verify(&mut pager, 20);
}

#[test]
fn pager_requires_enough_servers() {
    let (_handles, pool) = cluster(2, 128);
    let result = Pager::builder(PagerConfig::new(Policy::ParityLogging).with_servers(4))
        .pool(pool)
        .build();
    match result {
        Err(RmpError::Config(_)) => {}
        Err(other) => panic!("expected Config error, got {other}"),
        Ok(_) => panic!("expected error, pager built"),
    }
}

#[test]
fn stats_track_both_directions() {
    let (_handles, mut pager) = pager(Policy::NoReliability, 2, 4096);
    fill(&mut pager, 30);
    verify(&mut pager, 30);
    let s = pager.stats();
    assert_eq!(s.net_data_transfers, 30);
    assert_eq!(s.net_fetches, 30);
    assert_eq!(s.total_net_transfers(), 60);
}

/// Builds an erasure-coded pager over `n` servers with a `k` + `r`
/// stripe (bypasses the generic helper, which pins the stripe width to
/// the cluster size).
fn ec_pager(n: usize, k: usize, r: usize) -> (Vec<ServerHandle>, Pager) {
    let (handles, pool) = cluster(n, 4096);
    let config = PagerConfig::new(Policy::ErasureCoded).with_ec_splits(k, r);
    let pager = Pager::builder(config)
        .pool(pool)
        .disk(Box::new(RamDisk::unbounded()))
        .build()
        .expect("build pager");
    (handles, pager)
}

#[test]
fn erasure_coded_transfer_overhead_counts_split_frames() {
    let (_handles, mut pager) = ec_pager(3, 2, 1);
    fill(&mut pager, 100);
    let s = pager.stats();
    // k + r = 3 split-sized frames leave the client per pageout.
    assert!(
        (s.outbound_transfers_per_pageout() - 3.0).abs() < 1e-9,
        "got {}",
        s.outbound_transfers_per_pageout()
    );
}

/// Bytes the servers of `handles` hold between them.
fn stored_bytes(handles: &[ServerHandle]) -> usize {
    handles.iter().map(ServerHandle::stored_bytes).sum()
}

#[test]
fn erasure_coded_stores_one_and_a_quarter_pages_a_page() {
    const N: u64 = 64;
    let (handles, mut coded) = ec_pager(5, 4, 1);
    fill(&mut coded, N);
    // Five units of PAGE_SIZE / 4 bytes each: 1 + r/k pages a page.
    let closed_form = N as usize * 5 * PAGE_SIZE / 4;
    assert_eq!(stored_bytes(&handles), closed_form);
    assert_eq!(
        handles
            .iter()
            .map(ServerHandle::stored_pages)
            .sum::<usize>(),
        5 * N as usize
    );
    // A rewrite overwrites each unit in place: nothing is left beside it.
    for i in 0..N {
        coded
            .page_out(PageId(i), &Page::deterministic(N + i))
            .expect("rewrite");
    }
    assert_eq!(stored_bytes(&handles), closed_form);
    for i in 0..N {
        assert_eq!(
            coded.page_in(PageId(i)).expect("read"),
            Page::deterministic(N + i)
        );
    }

    let (handles, mut mirrored) = pager(Policy::Mirroring, 2, 4096);
    fill(&mut mirrored, N);
    assert_eq!(stored_bytes(&handles), 2 * N as usize * PAGE_SIZE);
}

#[test]
fn erasure_coded_survives_any_single_server_crash() {
    // Placement puts every split of a page on a distinct server, so no
    // matter which server dies, each page loses at most one split — and
    // one parity split covers that. A doubled-up placement would make
    // some victim unrecoverable.
    for victim in 0..3usize {
        let (handles, mut pager) = ec_pager(3, 2, 1);
        fill(&mut pager, 60);
        assert!(
            handles[victim].stored_pages() > 0,
            "srv{victim} holds splits, so the crash actually loses data"
        );
        handles[victim].crash();
        verify(&mut pager, 60);
    }
}

#[test]
fn erasure_coded_rebuilds_lost_splits_onto_a_spare() {
    let (handles, mut pager) = ec_pager(4, 2, 1);
    fill(&mut pager, 120);
    handles[0].crash();
    let report = pager.recover_from_crash(ServerId(0)).expect("recovery");
    assert!(report.pages_rebuilt > 0, "server 0 held splits");
    verify(&mut pager, 120);
    // Redundancy was restored onto the spare: a second, different crash
    // is survivable too.
    handles[1].crash();
    pager.recover_from_crash(ServerId(1)).expect("second crash");
    verify(&mut pager, 120);
}

#[test]
fn erasure_coded_wide_stripe_survives_r_crashes() {
    let (handles, mut pager) = ec_pager(6, 4, 2);
    fill(&mut pager, 40);
    // r = 2 parity splits tolerate two lost servers at once.
    handles[0].crash();
    handles[3].crash();
    verify(&mut pager, 40);
}
