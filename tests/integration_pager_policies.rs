//! Cross-crate integration: real workloads through every policy.

use rmp::prelude::*;
use rmp::workloads::{Fft, Gauss, Mvec, Qsort, Workload};

fn run_workload<W: Workload>(w: &W, policy: Policy, servers: usize, frames: usize) {
    let pool_size = match policy {
        // Parity needs the dedicated parity server; erasure coding needs
        // k + 1 distinct servers for its default r = 1 stripe.
        Policy::BasicParity | Policy::ParityLogging | Policy::ErasureCoded => servers + 1,
        _ => servers,
    };
    let cluster = LocalCluster::spawn(pool_size, 16 * 4096).expect("cluster");
    let config = match policy {
        Policy::ErasureCoded => PagerConfig::new(policy).with_ec_splits(servers, 1),
        _ => PagerConfig::new(policy).with_servers(servers),
    };
    let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
    let mut vm = PagedMemory::new(pager, VmConfig::with_frames(frames));
    let report = w.run(&mut vm).unwrap_or_else(|e| panic!("{policy}: {e}"));
    assert!(report.verified, "{policy}: output verified");
    assert!(
        report.faults.pageins > 0 || report.faults.pageouts > 0,
        "{policy}: the run must actually page"
    );
}

#[test]
fn gauss_is_correct_under_every_policy() {
    for policy in Policy::ALL {
        let servers = match policy {
            Policy::BasicParity | Policy::ParityLogging => 4,
            _ => 2,
        };
        run_workload(&Gauss::new(80), policy, servers, 3);
    }
}

#[test]
fn qsort_is_correct_under_parity_logging_and_disk() {
    run_workload(&Qsort::new(30_000), Policy::ParityLogging, 4, 6);
    run_workload(&Qsort::new(30_000), Policy::DiskOnly, 2, 6);
}

#[test]
fn fft_is_correct_under_mirroring_and_write_through() {
    run_workload(&Fft::new(8192), Policy::Mirroring, 2, 4);
    run_workload(&Fft::new(8192), Policy::WriteThrough, 2, 4);
}

#[test]
fn mvec_is_correct_under_basic_parity() {
    run_workload(&Mvec::new(150), Policy::BasicParity, 4, 8);
}

#[test]
fn parity_logging_overhead_holds_under_a_real_workload() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    let mut vm = PagedMemory::new(pager, VmConfig::with_frames(4));
    let report = Gauss::new(96).run(&mut vm).expect("runs");
    assert!(report.verified);
    vm.device_mut().flush().expect("flush");
    let stats = vm.device().stats();
    let overhead = stats.outbound_transfers_per_pageout();
    assert!(
        overhead > 1.0 && overhead < 1.3,
        "parity logging costs 1 + 1/4 transfers per pageout, measured {overhead}"
    );
}

#[test]
fn workload_results_identical_across_policies() {
    // The same computation must produce identical fault behaviour (same
    // VM, same replacement) regardless of which device absorbs the pages
    // — paging policy must be transparent to the application.
    let mut reference = None;
    for policy in [
        Policy::DiskOnly,
        Policy::NoReliability,
        Policy::ParityLogging,
    ] {
        let pool_size = if policy == Policy::ParityLogging {
            5
        } else {
            2
        };
        let servers = if policy == Policy::ParityLogging {
            4
        } else {
            2
        };
        let cluster = LocalCluster::spawn(pool_size, 16 * 4096).expect("cluster");
        let pager = cluster
            .pager(
                PagerConfig::new(policy)
                    .with_servers(servers)
                    .with_shard_count(1),
            )
            .expect("pager");
        let mut vm = PagedMemory::new(pager, VmConfig::with_frames(4));
        let report = Gauss::new(64).run(&mut vm).expect("runs");
        let key = (
            report.faults.pageins,
            report.faults.pageouts,
            report.faults.accesses,
            report.ops,
        );
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(*r, key, "{policy} diverged"),
        }
    }
}
