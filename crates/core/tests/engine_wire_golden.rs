//! Wire-level characterisation of the seven policy engines.
//!
//! One fixed script runs against every policy on an in-process cluster
//! (no sockets, no timing, prefetch and hedging off) and, after each
//! phase, every wire-level counter of [`TransferStats`], the pool's own
//! count of frames that carried a page, and the pages each server holds
//! are compared with constants recorded from the engines as they stood
//! before the stripe-engine refactor. A change to how many units of a
//! page go where, or to what a degraded read, a rebuild, a migration or
//! a promotion costs, shows up here as a number, per policy and phase.
//!
//! `pageins`/`pageouts` are left out on purpose: they count caller
//! operations, not wire traffic.

mod support;

use std::time::Duration;

use rmp_blockdev::RamDisk;
use rmp_chaos::{ChaosCluster, FaultPlan};
use rmp_core::ShardedPager;
use rmp_proto::LoadHint;
use rmp_server::ServerConfig;
use rmp_types::{
    Page, PageId, PagerConfig, Policy, RetryPolicy, RmpError, ServerId, TransferStats,
    TransportConfig,
};

use support::one_shard;

const SERVERS: usize = 4;
const PAGES: u64 = 24;
const REWRITES: u64 = 8;
const CRASHED: ServerId = ServerId(0);
const LOADED: ServerId = ServerId(2);

/// What one phase left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Snap {
    /// `net_data_transfers`, `net_parity_transfers`, `net_fetches`,
    /// `disk_reads`, `disk_writes`, `migrations`, `degraded_reads`.
    stats: [u64; 7],
    /// `ServerPool::wire_transfers`: frames that carried a page, counted
    /// below the engines.
    wire: u64,
    /// Pages held by each server.
    stored: [usize; SERVERS],
    /// The phase's own result: failed operations, or pages the call
    /// reported moved, rebuilt or promoted.
    outcome: u64,
}

fn config(policy: Policy) -> PagerConfig {
    let config = match policy {
        Policy::ErasureCoded => PagerConfig::new(policy).with_ec_splits(2, 1),
        _ => PagerConfig::new(policy).with_servers(3),
    };
    config
        .with_prefetch_window(0)
        .with_shard_count(1)
        .with_transport(TransportConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(1),
                jitter: 0.0,
            },
            ..TransportConfig::default()
        })
}

/// Every pageout lands first (`stats`), so a phase's traffic is all in.
fn snap(cluster: &ChaosCluster, pager: &ShardedPager, outcome: u64) -> Snap {
    let s: TransferStats = pager.stats();
    Snap {
        stats: [
            s.net_data_transfers,
            s.net_parity_transfers,
            s.net_fetches,
            s.disk_reads,
            s.disk_writes,
            s.migrations,
            s.degraded_reads,
        ],
        wire: pager.with_shard(0, |p| p.pool().wire_transfers()),
        stored: std::array::from_fn(|i| cluster.server(i).stored_pages()),
        outcome,
    }
}

fn content(id: u64) -> Page {
    Page::deterministic(if id < REWRITES { 100 + id } else { id })
}

/// Reads every live page back; returns how many reads failed. A read
/// that succeeds must return the bytes last written.
fn read_all(pager: &ShardedPager, policy: Policy, phase: &str) -> u64 {
    let mut failed = 0;
    for id in 0..PAGES - 1 {
        match pager.page_in(PageId(id)) {
            Ok(page) => assert_eq!(page, content(id), "{policy} {phase}: page {id}"),
            Err(_) => failed += 1,
        }
    }
    failed
}

/// `server` says `hint` of its memory — its host's own load takes all of
/// it (`StopSending`) or none (`Ok`) — and the pager's load probe hears
/// it: a `LoadQuery`, which carries no page.
fn say(cluster: &ChaosCluster, pager: &ShardedPager, server: ServerId, hint: LoadHint) {
    let native = match hint {
        LoadHint::StopSending => ServerConfig::default().capacity_pages,
        _ => 0,
    };
    cluster.server(server.0 as usize).set_native_usage(native);
    let heard = pager.with_shard(0, |p| p.pool_mut().query_load(server));
    assert_eq!(heard.expect("load report").3, hint);
}

/// Whether the disk-fallback and promotion phases are pinned for
/// `policy`. Mirroring is left out: before the refactor it placed each
/// copy on its own, so with no server left it wrote the page to disk
/// twice and then refused it, and with one server left it kept one copy
/// there and one on disk; ISSUE 14 defines a placement as all units on
/// distinct servers or the whole page on disk.
fn falls_back_to_disk(policy: Policy) -> bool {
    policy != Policy::Mirroring
}

fn run(policy: Policy) -> Vec<(&'static str, Snap)> {
    let cluster = ChaosCluster::new(SERVERS, FaultPlan::seeded(14));
    let config = config(policy);
    let pool = cluster.pool(&config.transport);
    let pager = one_shard(config, pool, vec![Box::new(RamDisk::unbounded())]);
    let mut snaps = Vec::new();

    for id in 0..PAGES {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("first pageout");
    }
    pager.flush().expect("flush");
    snaps.push(("first pageouts", snap(&cluster, &pager, 0)));

    for id in 0..REWRITES {
        pager.page_out(PageId(id), &content(id)).expect("rewrite");
    }
    pager.flush().expect("flush");
    snaps.push(("rewrites", snap(&cluster, &pager, 0)));

    for id in 0..PAGES {
        let want = if id == PAGES - 1 {
            Page::deterministic(id)
        } else {
            content(id)
        };
        assert_eq!(pager.page_in(PageId(id)).expect("pagein"), want);
    }
    snaps.push(("pageins", snap(&cluster, &pager, 0)));

    pager.free(PageId(PAGES - 1)).expect("free");
    snaps.push(("free", snap(&cluster, &pager, 0)));

    // A load probe notices the crash, so that no policy's numbers depend
    // on how much of a half-fetched stripe arrived before it was noticed
    // (a read spanning several servers visits them in hash order).
    cluster.server(CRASHED.0 as usize).crash();
    assert!(pager.with_shard(0, |p| p.pool_mut().query_load(CRASHED).is_err()));
    let failed = read_all(&pager, policy, "degraded");
    snaps.push(("degraded reads", snap(&cluster, &pager, failed)));

    // Basic parity rebuilds in place, so its server comes back first;
    // everyone else rebuilds around the hole and the server rejoins
    // empty afterwards.
    let absolve = |server| pager.with_shard(0, |p| p.pool_mut().absolve(server));
    if policy == Policy::BasicParity {
        cluster.server(CRASHED.0 as usize).restart();
        absolve(CRASHED);
    }
    let rebuilt = match pager.recover_from_crash(CRASHED) {
        Ok(reports) => reports[0].total_rebuilt(),
        Err(RmpError::Unrecoverable(_)) => NONE,
        Err(e) => panic!("{policy}: recovery failed with {e}"),
    };
    cluster.server(CRASHED.0 as usize).restart();
    absolve(CRASHED);
    snaps.push(("recovery", snap(&cluster, &pager, rebuilt)));

    let failed = read_all(&pager, policy, "after recovery");
    snaps.push(("reads after recovery", snap(&cluster, &pager, failed)));

    // The snapshot landed every pageout: the migration and the
    // promotion below plan with nothing on the wire.
    say(&cluster, &pager, LOADED, LoadHint::StopSending);
    let moved = match pager.with_shard(0, |p| p.migrate_from(LOADED)) {
        Ok(moved) => moved,
        Err(RmpError::Unsupported(_)) => NONE,
        Err(e) => panic!("{policy}: migration failed with {e}"),
    };
    say(&cluster, &pager, LOADED, LoadHint::Ok);
    snaps.push(("migration", snap(&cluster, &pager, moved)));

    if falls_back_to_disk(policy) {
        // No server is left to take a new page.
        for i in 0..SERVERS {
            pager.with_shard(0, |p| p.pool_mut().declare_dead(ServerId(i as u32), "test"));
        }
        let mut refused = 0;
        for id in 200..204 {
            if pager
                .page_out(PageId(id), &Page::deterministic(id))
                .is_err()
            {
                refused += 1;
            }
        }
        snaps.push(("disk fallback", snap(&cluster, &pager, refused)));

        for i in 0..SERVERS {
            absolve(ServerId(i as u32));
        }
        let promoted = pager.with_shard(0, |p| p.rebalance()).expect("rebalance");
        snaps.push(("promotion", snap(&cluster, &pager, promoted)));
        for id in 200..204 {
            // A refused page stays unknown.
            if let Ok(page) = pager.page_in(PageId(id)) {
                assert_eq!(page, Page::deterministic(id), "{policy}: page {id}");
            }
        }
    }
    snaps
}

/// A stats cell that is not pinned.
const ANY: u64 = u64::MAX;
/// The outcome of a phase the policy cannot run: recovery without
/// redundancy, migration off a fixed layout.
const NONE: u64 = u64::MAX;

/// `(phase, stats, wire, stored, outcome)` as recorded before the
/// refactor.
///
/// The erasure-coded engine left the units it re-placed during recovery,
/// migration and promotion out of `net_data_transfers` and
/// `net_parity_transfers` (every other engine counted them), so those
/// two cells are [`ANY`] from its recovery on; `wire`, counted by the
/// pool, holds that traffic.
type Row = (&'static str, [u64; 7], u64, [usize; SERVERS], u64);

#[rustfmt::skip]
fn recorded(policy: Policy) -> &'static [Row] {
    match policy {
        Policy::NoReliability => &[
            ("first pageouts", [24, 0, 0, 0, 0, 0, 0], 24, [6, 6, 6, 6], 0),
            ("rewrites", [32, 0, 0, 0, 0, 0, 0], 32, [6, 6, 6, 6], 0),
            ("pageins", [32, 0, 24, 0, 0, 0, 0], 56, [6, 6, 6, 6], 0),
            ("free", [32, 0, 24, 0, 0, 0, 0], 56, [6, 6, 6, 5], 0),
            ("degraded reads", [32, 0, 41, 0, 0, 0, 0], 73, [0, 6, 6, 5], 6),
            ("recovery", [32, 0, 41, 0, 0, 0, 0], 73, [0, 6, 6, 5], NONE),
            ("reads after recovery", [32, 0, 58, 0, 0, 0, 0], 90, [0, 6, 6, 5], 6),
            ("migration", [38, 0, 64, 0, 0, 6, 0], 102, [6, 6, 0, 5], 6),
            ("disk fallback", [38, 0, 64, 0, 4, 6, 0], 102, [6, 6, 0, 5], 0),
            // A promoted page goes to the server whose `LoadReport` names
            // the most free frames: server 2, emptied by the migration
            // (server 0, the lower id, when every report read 1 << 20).
            ("promotion", [42, 0, 64, 4, 4, 6, 0], 106, [6, 6, 4, 5], 4),
        ],
        Policy::ParityLogging => &[
            ("first pageouts", [24, 8, 0, 0, 0, 0, 0], 32, [8, 8, 8, 8], 0),
            ("rewrites", [32, 11, 0, 0, 0, 0, 0], 43, [9, 9, 8, 9], 0),
            ("pageins", [32, 11, 24, 0, 0, 0, 0], 67, [9, 9, 8, 9], 0),
            ("free", [32, 11, 24, 0, 0, 0, 0], 67, [9, 9, 8, 9], 0),
            ("degraded reads", [32, 11, 62, 0, 0, 0, 8], 105, [0, 9, 8, 9], 0),
            ("recovery", [55, 23, 88, 0, 0, 0, 8], 166, [0, 11, 12, 12], 9),
            ("reads after recovery", [55, 23, 111, 0, 0, 0, 8], 189, [0, 11, 12, 12], 0),
            ("migration", [57, 24, 123, 0, 10, 12, 8], 204, [1, 12, 11, 12], 12),
            ("disk fallback", [57, 24, 123, 0, 14, 12, 8], 204, [1, 12, 11, 12], 0),
            ("promotion", [71, 28, 123, 14, 14, 12, 8], 222, [6, 16, 16, 16], 14),
        ],
        Policy::Mirroring => &[
            ("first pageouts", [48, 0, 0, 0, 0, 0, 0], 48, [12, 12, 12, 12], 0),
            ("rewrites", [64, 0, 0, 0, 0, 0, 0], 64, [12, 12, 12, 12], 0),
            ("pageins", [64, 0, 24, 0, 0, 0, 0], 88, [12, 12, 12, 12], 0),
            ("free", [64, 0, 24, 0, 0, 0, 0], 88, [12, 12, 11, 11], 0),
            ("degraded reads", [64, 0, 47, 0, 0, 0, 12], 111, [0, 12, 11, 11], 0),
            ("recovery", [76, 0, 59, 0, 0, 0, 12], 135, [0, 12, 23, 11], 12),
            ("reads after recovery", [76, 0, 82, 0, 0, 0, 12], 158, [0, 12, 23, 11], 0),
            ("migration", [99, 0, 105, 0, 0, 23, 12], 204, [23, 12, 0, 11], 23),
        ],
        Policy::DiskOnly => &[
            ("first pageouts", [0, 0, 0, 0, 24, 0, 0], 0, [0, 0, 0, 0], 0),
            ("rewrites", [0, 0, 0, 0, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("pageins", [0, 0, 0, 24, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("free", [0, 0, 0, 24, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("degraded reads", [0, 0, 0, 47, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("recovery", [0, 0, 0, 47, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("reads after recovery", [0, 0, 0, 70, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("migration", [0, 0, 0, 70, 32, 0, 0], 0, [0, 0, 0, 0], 0),
            ("disk fallback", [0, 0, 0, 70, 36, 0, 0], 0, [0, 0, 0, 0], 0),
            ("promotion", [0, 0, 0, 70, 36, 0, 0], 0, [0, 0, 0, 0], 0),
        ],
        Policy::WriteThrough => &[
            ("first pageouts", [24, 0, 0, 0, 24, 0, 0], 24, [6, 6, 6, 6], 0),
            ("rewrites", [32, 0, 0, 0, 32, 0, 0], 32, [6, 6, 6, 6], 0),
            ("pageins", [32, 0, 24, 0, 32, 0, 0], 56, [6, 6, 6, 6], 0),
            ("free", [32, 0, 24, 0, 32, 0, 0], 56, [6, 6, 6, 5], 0),
            ("degraded reads", [32, 0, 41, 6, 32, 0, 6], 73, [0, 6, 6, 5], 0),
            ("recovery", [38, 0, 41, 12, 32, 0, 6], 79, [0, 12, 6, 5], 6),
            ("reads after recovery", [38, 0, 64, 12, 32, 0, 6], 102, [0, 12, 6, 5], 0),
            ("migration", [44, 0, 64, 18, 32, 6, 6], 108, [6, 12, 0, 5], 6),
            // Declared dead on the pool, the four servers are verdicts the
            // front-end passes on: each queues a rebuild, which the next
            // pageout drains from the disk copies (23 reads, 23 writes),
            // and promotion then moves 27 pages back, not the 4 fallbacks
            // alone (18 / 40 and 4 when the deaths queued nothing).
            ("disk fallback", [44, 0, 64, 41, 63, 6, 6], 108, [6, 12, 0, 5], 0),
            // Promoted pages go to server 2, as with no reliability.
            ("promotion", [71, 0, 64, 68, 63, 6, 6], 135, [6, 12, 27, 5], 27),
        ],
        Policy::BasicParity => &[
            ("first pageouts", [24, 24, 0, 0, 0, 0, 0], 48, [8, 8, 8, 8], 0),
            ("rewrites", [32, 32, 0, 0, 0, 0, 0], 64, [8, 8, 8, 8], 0),
            ("pageins", [32, 32, 24, 0, 0, 0, 0], 88, [8, 8, 8, 8], 0),
            ("free", [32, 33, 25, 0, 0, 0, 0], 90, [8, 8, 7, 8], 0),
            ("degraded reads", [32, 33, 63, 0, 0, 0, 8], 128, [0, 8, 7, 8], 0),
            ("recovery", [40, 33, 86, 0, 0, 0, 8], 159, [8, 8, 7, 8], 8),
            ("reads after recovery", [40, 33, 109, 0, 0, 0, 8], 182, [8, 8, 7, 8], 0),
            ("migration", [40, 33, 109, 0, 0, 0, 8], 182, [8, 8, 7, 8], NONE),
            ("disk fallback", [44, 37, 109, 0, 0, 0, 8], 190, [10, 9, 8, 10], 0),
            ("promotion", [44, 37, 109, 0, 0, 0, 8], 190, [10, 9, 8, 10], 0),
        ],
        Policy::ErasureCoded => &[
            ("first pageouts", [48, 24, 0, 0, 0, 0, 0], 72, [24, 24, 24, 0], 0),
            ("rewrites", [64, 32, 0, 0, 0, 0, 0], 96, [24, 24, 24, 0], 0),
            ("pageins", [64, 32, 48, 0, 0, 0, 0], 144, [24, 24, 24, 0], 0),
            ("free", [64, 32, 48, 0, 0, 0, 0], 144, [23, 23, 23, 0], 0),
            ("degraded reads", [64, 32, 94, 0, 0, 0, 23], 190, [0, 23, 23, 0], 0),
            ("recovery", [ANY, ANY, 140, 0, 0, 0, 23], 259, [0, 23, 23, 23], 23),
            ("reads after recovery", [ANY, ANY, 186, 0, 0, 0, 23], 305, [0, 23, 23, 23], 0),
            ("migration", [ANY, ANY, 209, 0, 0, 23, 23], 351, [23, 23, 0, 23], 23),
            ("disk fallback", [ANY, ANY, 209, 0, 4, 23, 23], 351, [23, 23, 0, 23], 0),
            ("promotion", [ANY, ANY, 209, 4, 4, 23, 23], 363, [27, 27, 4, 23], 4),
        ],
    }
}

#[test]
fn every_policy_moves_the_recorded_traffic() {
    for policy in Policy::ALL {
        let actual = run(policy);
        let recorded = recorded(policy);
        assert_eq!(actual.len(), recorded.len(), "{policy}: phases run");
        for ((phase, got), &(name, stats, wire, stored, outcome)) in actual.iter().zip(recorded) {
            assert_eq!(*phase, name, "{policy}: phase order");
            for (i, (&got, want)) in got.stats.iter().zip(stats).enumerate() {
                assert!(
                    want == ANY || got == want,
                    "{policy} after {phase}: stats[{i}] is {got}, recorded {want} ({got:?})"
                );
            }
            assert_eq!(got.wire, wire, "{policy} after {phase}: wire transfers");
            assert_eq!(got.stored, stored, "{policy} after {phase}: stored pages");
            assert_eq!(got.outcome, outcome, "{policy} after {phase}: outcome");
        }
    }
}
