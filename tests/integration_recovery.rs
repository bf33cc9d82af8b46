//! Crash-recovery integration across the whole stack.

use rmp::prelude::*;
use rmp::workloads::{Qsort, Workload};

#[test]
fn workload_survives_mid_run_crash() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    let mut vm = PagedMemory::new(pager, VmConfig::with_frames(6));
    // Warm up: get pages onto the servers.
    let w = Qsort::new(40_000);
    // Crash a server from another thread shortly after the run starts.
    let handle = {
        let crash_target = cluster.handles()[1].addr();
        std::thread::spawn(move || {
            // Connect-and-crash via the protocol, like a real fault.
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Ok(stream) = std::net::TcpStream::connect(crash_target) {
                let mut framed = rmp::proto::Framed::new(stream);
                let _ = framed.send(&rmp::proto::Message::InjectCrash);
            }
        })
    };
    let report = w.run(&mut vm).expect("run completes despite the crash");
    handle.join().expect("crasher thread");
    assert!(report.verified, "sorted output correct after recovery");
}

#[test]
fn sequential_crashes_of_every_data_server_are_survivable() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..400u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    // Crash data servers one at a time, recovering between crashes. After
    // each recovery the redundancy is restored, so the next crash is
    // survivable too (the paper's single-failure model applied serially).
    for victim in [1u32, 0, 2] {
        cluster.handles()[victim as usize].crash();
        pager
            .recover_from_crash(ServerId(victim))
            .unwrap_or_else(|e| panic!("crash {victim}: {e}"));
    }
    for i in 0..400u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i),
            "page {i} after three serial crashes"
        );
    }
}

#[test]
fn recovery_cost_scales_with_pages_lost() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..200u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    let lost = cluster.handles()[3].stored_pages() as u64;
    cluster.handles()[3].crash();
    let report = pager.recover_from_crash(ServerId(3)).expect("recovery")[0];
    assert_eq!(report.pages_rebuilt, lost);
    // Each rebuilt page costs S-1 member fetches + 1 parity fetch + 1
    // store = S+1 transfers with S=4 (degraded co-location allowed).
    assert!(report.transfers >= report.pages_rebuilt * 4);
}

#[test]
fn mirroring_and_parity_agree_after_recovery() {
    for policy in [Policy::Mirroring, Policy::ParityLogging] {
        let n = if policy == Policy::ParityLogging {
            5
        } else {
            3
        };
        let servers = if policy == Policy::ParityLogging {
            4
        } else {
            3
        };
        let cluster = LocalCluster::spawn(n, 16 * 4096).expect("cluster");
        let pager = cluster
            .pager(
                PagerConfig::new(policy)
                    .with_servers(servers)
                    .with_shard_count(1),
            )
            .expect("pager");
        for i in 0..150u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(i ^ 0xABCD))
                .expect("pageout");
        }
        pager.flush().expect("flush");
        cluster.handles()[0].crash();
        pager.recover_from_crash(ServerId(0)).expect("recovery");
        for i in 0..150u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("read"),
                Page::deterministic(i ^ 0xABCD),
                "{policy}: page {i}"
            );
        }
    }
}

#[test]
fn overwrites_after_recovery_stay_consistent() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    for i in 0..100u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    cluster.handles()[2].crash();
    pager.recover_from_crash(ServerId(2)).expect("recovery");
    // Keep working after recovery: overwrite everything with new data.
    for i in 0..100u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(7000 + i))
            .expect("pageout after recovery");
    }
    pager.flush().expect("flush");
    for i in 0..100u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(7000 + i)
        );
    }
}
