//! Server-focused integration: concurrency, advisories, migration.

use rmp::prelude::*;
use rmp::proto::{Framed, LoadHint, Message};
use rmp::server::{MemoryServer, ServerConfig};
use rmp::types::StoreKey;

use std::net::TcpStream;

#[test]
fn many_concurrent_clients_share_one_server() {
    let server = MemoryServer::spawn(ServerConfig {
        capacity_pages: 4096,
        overflow_fraction: 0.0,
        ..ServerConfig::default()
    })
    .expect("spawn");
    let addr = server.addr();
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut framed = Framed::new(TcpStream::connect(addr).expect("connect"));
                for i in 0..50u64 {
                    let key = StoreKey(t * 1000 + i);
                    let page = Page::deterministic(key.0);
                    match framed
                        .call(&Message::PageOut {
                            id: key,
                            checksum: page.checksum(),
                            page,
                        })
                        .expect("pageout")
                    {
                        Message::PageOutAck { .. } => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
                for i in 0..50u64 {
                    let key = StoreKey(t * 1000 + i);
                    match framed.call(&Message::PageIn { id: key }).expect("pagein") {
                        Message::PageInReply { page, .. } => {
                            assert_eq!(page, Page::deterministic(key.0), "thread {t} key {i}");
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    assert_eq!(server.stored_pages(), 400);
    assert!(server.served_requests() >= 800);
    server.shutdown();
}

#[test]
fn native_load_triggers_stop_sending_and_migration() {
    let cluster = LocalCluster::spawn(3, 256).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::NoReliability)
                .with_servers(3)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..120u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Native memory demand arrives on server 0: it reclaims its frames.
    cluster.handles()[0].set_native_usage(256);
    // `stats` lands every pageout: the migration plans against the whole
    // placement table, with nothing on the wire.
    pager.stats();
    // The paper's reaction: migrate the pages away.
    let migrated = pager.with_shard(0, |p| {
        p.pool_mut().refresh_loads();
        p.migrate_from(ServerId(0))
    });
    let migrated = migrated.expect("migration");
    assert!(migrated > 0);
    assert_eq!(cluster.handles()[0].stored_pages(), 0);
    for i in 0..120u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn load_reports_reflect_server_state() {
    let cluster = LocalCluster::spawn(1, 100).expect("cluster");
    let mut pool = cluster.pool().expect("pool");
    let (free0, stored0, _cpu, hint0) = pool.query_load(ServerId(0)).expect("load");
    assert_eq!(stored0, 0);
    assert!(free0 >= 100);
    assert_eq!(hint0, LoadHint::Ok);
    // Store pages directly and watch the report change.
    for i in 0..80u64 {
        pool.page_out(ServerId(0), StoreKey(i), &Page::zeroed())
            .expect("pageout");
    }
    let (free1, stored1, _, _) = pool.query_load(ServerId(0)).expect("load");
    assert_eq!(stored1, 80);
    assert!(free1 < free0);
}

#[test]
fn busy_server_cpu_stays_low_under_paging_load() {
    // The Section 4.5 claim on our real server: hammer it with requests
    // and check the measured service CPU fraction stays small.
    let cluster = LocalCluster::spawn(1, 8192).expect("cluster");
    let mut pool = cluster.pool().expect("pool");
    for i in 0..2000u64 {
        pool.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..2000u64 {
        pool.page_in(ServerId(0), StoreKey(i)).expect("pagein");
    }
    let busy = cluster.handles()[0].busy_fraction();
    assert!(
        busy < 0.60,
        "loopback hammering keeps server CPU moderate (measured {busy}); the
         paper's 15 % bound included real network pacing"
    );
    assert!(busy > 0.0, "requests consumed some CPU");
}

#[test]
fn crashed_then_restarted_server_rejoins_cluster() {
    let cluster = LocalCluster::spawn(2, 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::Mirroring)
                .with_servers(2)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..50u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout is acked before the crash: `flush` returns once each
    // has landed.
    pager.flush().expect("flush");
    cluster.handles()[1].crash();
    // With only one live server plus disk fallback, recovery re-mirrors
    // onto the disk.
    pager.recover_from_crash(ServerId(1)).expect("recovery");
    // The workstation reboots and rejoins empty.
    cluster.handles()[1].restart();
    pager.reconnect(ServerId(1)).expect("reconnect");
    // New pageouts can use it again.
    for i in 50..100u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout after rejoin");
    }
    for i in 0..100u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    assert!(
        cluster.handles()[1].stored_pages() > 0,
        "rejoined server used"
    );
}

#[test]
fn list_keys_paginates_full_inventory() {
    let cluster = LocalCluster::spawn(1, 4096).expect("cluster");
    let mut pool = cluster.pool().expect("pool");
    // More keys than one ListPages chunk (512) to force pagination.
    for i in 0..1300u64 {
        pool.page_out(ServerId(0), StoreKey(i * 3), &Page::zeroed())
            .expect("pageout");
    }
    let keys = pool.list_keys(ServerId(0)).expect("list");
    assert_eq!(keys.len(), 1300);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "ascending, no dupes");
    assert_eq!(keys[0], StoreKey(0));
    assert_eq!(keys[1299], StoreKey(1299 * 3));
}

#[test]
fn server_inventory_matches_client_accounting() {
    // Audit: after a run with rewrites (inactive versions) and a flush,
    // the total keys on all servers must equal the client's accounting:
    // stored versions + parity pages (every group) with nothing leaked.
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    for round in 0..3u64 {
        for i in 0..40u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(round * 100 + i))
                .expect("pageout");
        }
    }
    pager.flush().expect("flush");
    let mut total_keys = 0usize;
    for id in 0..5u32 {
        let keys = pager.with_shard(0, |p| p.pool_mut().list_keys(ServerId(id)));
        total_keys += keys.expect("list").len();
    }
    // Reclaimed groups freed their storage: the servers hold at most the
    // versions of the live groups plus their parity pages, and at least
    // one version of each of the 40 live pages.
    let stats = pager.stats();
    assert!(stats.groups_reclaimed > 0, "rewrites reclaimed groups");
    assert!(total_keys >= 40 + 10, "live pages plus parity present");
    assert!(
        total_keys <= 3 * 40 + 30 + 10,
        "no unbounded leak of stale versions: {total_keys} keys"
    );
}

#[test]
fn client_swap_spaces_are_isolated() {
    // The paper: "clients never share their swap spaces". Two clients
    // using the *same* storage keys on one server must not interfere.
    let cluster = LocalCluster::spawn(1, 4096).expect("cluster");
    let mut a = cluster.pool().expect("pool a");
    let mut b = cluster.pool().expect("pool b");
    for i in 0..50u64 {
        a.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i))
            .expect("a pageout");
        b.page_out(ServerId(0), StoreKey(i), &Page::deterministic(1000 + i))
            .expect("b pageout");
    }
    for i in 0..50u64 {
        assert_eq!(
            a.page_in(ServerId(0), StoreKey(i)).expect("a read"),
            Page::deterministic(i),
            "client A sees its own page {i}"
        );
        assert_eq!(
            b.page_in(ServerId(0), StoreKey(i)).expect("b read"),
            Page::deterministic(1000 + i),
            "client B sees its own page {i}"
        );
    }
    // Freeing in one namespace leaves the other untouched.
    for i in 0..50u64 {
        a.free(ServerId(0), StoreKey(i)).expect("a free");
    }
    assert!(a.list_keys(ServerId(0)).expect("a list").is_empty());
    assert_eq!(b.list_keys(ServerId(0)).expect("b list").len(), 50);
    assert_eq!(cluster.handles()[0].stored_pages(), 50);
}

#[test]
fn two_pagers_share_a_cluster_concurrently() {
    // Two full paging clients (threads) run different workloads against
    // the same five servers at once — the cluster the paper envisions,
    // where several memory-starved workstations page simultaneously.
    use rmp::workloads::{Gauss, Qsort, Workload};
    let cluster = std::sync::Arc::new(LocalCluster::spawn(5, 16 * 4096).expect("cluster"));
    let spawn_client = |cluster: std::sync::Arc<LocalCluster>, which: usize| {
        std::thread::spawn(move || {
            let pager = cluster
                .pager(
                    PagerConfig::new(Policy::ParityLogging)
                        .with_servers(4)
                        .with_shard_count(1),
                )
                .expect("pager");
            let mut vm = PagedMemory::new(pager, VmConfig::with_frames(5));
            let verified = if which == 0 {
                Gauss::new(72).run(&mut vm).expect("gauss").verified
            } else {
                Qsort::new(25_000).run(&mut vm).expect("qsort").verified
            };
            assert!(verified, "client {which} verified");
        })
    };
    let t0 = spawn_client(std::sync::Arc::clone(&cluster), 0);
    let t1 = spawn_client(std::sync::Arc::clone(&cluster), 1);
    t0.join().expect("client 0");
    t1.join().expect("client 1");
}

#[test]
fn periodic_maintenance_heals_the_placement() {
    let cluster = LocalCluster::spawn(3, 256).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::NoReliability)
                .with_servers(3)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..120u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Native load takes server 0's memory; one maintenance round should
    // refresh the view, migrate its pages away, and (with nothing on
    // disk) promote nothing.
    cluster.handles()[0].set_native_usage(256);
    let (migrated, _promoted) = pager.periodic_maintenance().expect("maintenance");
    assert!(migrated > 0, "stop-sending server drained");
    assert_eq!(cluster.handles()[0].stored_pages(), 0);
    // The load lifts; the next round needs no migration.
    cluster.handles()[0].set_native_usage(0);
    let (migrated, _) = pager.periodic_maintenance().expect("maintenance");
    assert_eq!(migrated, 0, "healthy cluster needs no migration");
    for i in 0..120u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}
