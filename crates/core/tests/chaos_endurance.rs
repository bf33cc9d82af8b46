//! Chaos endurance: randomized seeded fault schedules against the
//! sharded pager, plus the targeted regressions the chaos engine exists
//! to catch — quiesce-time crashes, non-idempotent parity retries,
//! control-path trust laundering, gray-server hedging, and the
//! determinism contract that makes any failure replayable from its
//! printed seed.

mod support;

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_chaos::{
    run_schedule, ChaosCluster, FaultAction, FaultEvent, FaultPlan, FaultRule, OpFilter,
};
use rmp_core::detector::GRAY_SUSPICION;
use rmp_core::pool::CHUNK_PAGES;
use rmp_core::{Clock, ShardedPager};
use rmp_proto::Opcode;
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId, TransportConfig,
};

use support::one_shard;

const POLICIES: [Policy; 6] = [
    Policy::NoReliability,
    Policy::Mirroring,
    Policy::BasicParity,
    Policy::ParityLogging,
    Policy::ErasureCoded,
    Policy::WriteThrough,
];

/// In-process servers under `plan`, on a manual clock: delays and
/// backoffs advance it, and nothing here waits on the wall clock.
fn in_process(servers: usize, plan: FaultPlan) -> ChaosCluster {
    ChaosCluster::new(servers, plan).on_clock(Clock::manual())
}

fn fast_transport() -> TransportConfig {
    TransportConfig {
        retry: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            jitter: 0.0,
        },
        ..TransportConfig::default()
    }
}

// --- the endurance sweep ---------------------------------------------------

/// ≥20 distinct seeded schedules across all six policies. Every
/// schedule's outcome is printed with its seed; a violation fails the
/// test with the exact seeds to replay (`run_schedule(policy, seed)`).
/// Scale up with `CHAOS_SEEDS=<n>` (seeds per policy, default 4).
#[test]
fn endurance_schedules_hold_invariants_across_policies() {
    let per_policy: u64 = std::env::var("CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut failures = Vec::new();
    let mut total = 0u64;
    for (pi, &policy) in POLICIES.iter().enumerate() {
        for s in 0..per_policy {
            let seed = (pi as u64) * 7919 + s * 104_729 + 1;
            let outcome = run_schedule(policy, seed);
            total += 1;
            println!(
                "chaos schedule policy={:?} seed={} ops={} faults={} crash={} \
                 lost_tolerated={} -> {}",
                outcome.policy,
                outcome.seed,
                outcome.ops,
                outcome.faults,
                outcome.crash_fired,
                outcome.lost_tolerated,
                if outcome.passed() { "PASS" } else { "FAIL" },
            );
            if !outcome.passed() {
                failures.extend(outcome.violations);
            }
        }
    }
    assert!(total >= 20, "need at least 20 schedules, ran {total}");
    assert!(
        failures.is_empty(),
        "invariant violations (replay with run_schedule(policy, seed)):\n{}",
        failures.join("\n")
    );
}

/// Schedules that caught a bug once, replayed whatever `CHAOS_SEEDS`
/// says. 128487: a sealing wave whose data frame failed returned before
/// the group it had announced was registered ("pg0 unreadable after
/// heal"). 609656: a seal whose parity page timed out left a registered
/// group naming a key no server held, and the recovery that needed it
/// stuck on "no longer holds key". 7250059 and 20026997: a seal whose
/// parity page was lost with its server, held dead, left its group naming
/// that page; the server's rebuild, which recomputes it, was dropped as
/// unrecoverable — a second server was down at once — and a later rebuild
/// that read the page stuck on "no longer holds key". 120568 (basic
/// parity): a read that went around a holder which had only missed an
/// attempt queued its rebuild, and pages rebuilt in place over live ones
/// failed their checksum after heal.
#[test]
fn schedules_that_once_failed_stay_fixed() {
    for seed in [128_487, 609_656, 7_250_059, 20_026_997] {
        let outcome = run_schedule(Policy::ParityLogging, seed);
        assert!(outcome.passed(), "{:?}", outcome.violations);
    }
    let outcome = run_schedule(Policy::BasicParity, 120_568);
    assert!(outcome.passed(), "{:?}", outcome.violations);
}

/// A server the pool holds dead keeps no grants. Under parity logging a
/// shard that declared the dedicated parity server dead still seals
/// groups onto it; the frames an allocation it answers grants must not
/// outlive the reservation that asked; seed 966319 once left a shard
/// holding the rest of one.
#[test]
fn a_server_held_dead_keeps_no_grants() {
    let outcome = run_schedule(Policy::ParityLogging, 966_319);
    assert!(outcome.passed(), "{:?}", outcome.violations);
}

// --- parity-log appends landing through crashes ---------------------------

/// Parity-log appends land behind their callers while a data server and
/// then the parity server die, each with an append's frame on it: the
/// data frame is stored again from the kept page, the parity page is
/// rebuilt by the recovery the pageout's retry runs. No page whose
/// pageout was acked — and whose landing reported no failure to the
/// page's next operation or the next flush — is lost.
#[test]
fn parity_log_appends_landing_through_a_data_and_a_parity_crash_lose_no_acked_page() {
    // Data servers 0..=2, parity pages on 4, 3 spare.
    let cluster = in_process(5, FaultPlan::seeded(37));
    let tcfg = fast_transport();
    let config = PagerConfig::new(Policy::ParityLogging)
        .with_servers(3)
        .with_shard_count(2)
        .with_transport(tcfg.clone());
    let pager = ShardedPager::builder(config)
        .pools((0..2).map(|_| cluster.pool(&tcfg)).collect())
        .build()
        .expect("pager");
    // Fill of each page's last acked write, and the pages whose last
    // write may still be landing.
    let mut acked: HashMap<u64, u64> = HashMap::new();
    let mut landing: HashSet<u64> = HashSet::new();
    for id in 0..48u64 {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("preload");
        acked.insert(id, id);
    }
    let mut rng = StdRng::seed_from_u64(37);
    for victim in [ServerId(1), ServerId(4)] {
        cluster.plan().inject(
            FaultRule::new(FaultAction::Crash)
                .on_server(victim)
                .on_ops(OpFilter::Op(Opcode::PageOut))
                .times(1),
        );
        cluster.plan().arm();
        for _ in 0..96 {
            let id = rng.gen_range(0u64..48);
            if rng.gen_bool(0.6) {
                let fill = rng.gen_range(48u64..1 << 32);
                match pager.page_out(PageId(id), &Page::deterministic(fill)) {
                    Ok(()) => {
                        acked.insert(id, fill);
                        landing.insert(id);
                    }
                    Err(_) => {
                        acked.remove(&id);
                        landing.remove(&id);
                    }
                }
            } else {
                match pager.page_in(PageId(id)) {
                    Ok(page) => {
                        let fill = acked.get(&id).copied();
                        assert!(fill.is_none_or(|fill| page == Page::deterministic(fill)));
                    }
                    Err(_) if landing.remove(&id) => {
                        acked.remove(&id);
                    }
                    Err(e) => panic!("page {id} unreadable: {e}"),
                }
            }
        }
        cluster.plan().disarm();
        assert!(
            cluster.server(victim.0 as usize).is_crashed(),
            "{victim} lived"
        );
        // The verdict's rebuild finishes before the next server goes.
        if pager.flush().is_err() {
            landing.iter().for_each(|id| {
                acked.remove(id);
            });
        }
        landing.clear();
        assert!(drain_backlog(&pager), "recovery from {victim} stuck");
    }
    assert!(acked.len() > 24, "only {} pages acked", acked.len());
    for (&id, &fill) in &acked {
        let page = pager.page_in(PageId(id));
        assert_eq!(page.expect("acked"), Page::deterministic(fill), "page {id}");
    }
}

// --- crash during quiesce (flush / recover_from_crash) ---------------------

fn absolve_all(pager: &ShardedPager, shards: usize, servers: u32) {
    for shard in 0..shards {
        pager.with_shard(shard, |p| {
            for s in 0..servers {
                p.pool_mut().absolve(ServerId(s));
            }
            // Replacement-copy placement consults each server's last
            // reported free pages.
            p.pool_mut().refresh_loads();
        });
    }
}

fn drain_backlog(pager: &ShardedPager) -> bool {
    for _ in 0..50 {
        if pager.recovery_backlog() == 0 {
            return true;
        }
        let _ = pager.periodic_maintenance();
    }
    false
}

/// A server crash landing in the middle of a multi-shard ascending-order
/// quiesce must neither deadlock nor wedge recovery. Two quiesced paths
/// are attacked: `flush` (ParityLogging seals partial parity groups on
/// the wire mid-quiesce) and `recover_from_crash` (BasicParity rebuilds
/// the crashed server's pages in place — and the server dies *again*
/// under the rebuild writes). The whole scenario runs on a watchdog
/// thread: a deadlock fails the test by timeout instead of hanging CI.
#[test]
fn crash_during_quiesce_converges_without_deadlock() {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        // --- part 1: crash mid-flush ---------------------------------
        let cluster = in_process(3, FaultPlan::seeded(5150));
        let tcfg = fast_transport();
        let config = PagerConfig::new(Policy::ParityLogging)
            .with_servers(2)
            .with_shard_count(2)
            .with_transport(tcfg.clone());
        let pager = ShardedPager::builder(config)
            .pools((0..2).map(|_| cluster.pool(&tcfg)).collect())
            .disks(
                (0..2)
                    .map(|_| Box::new(RamDisk::unbounded()) as Box<dyn PagingDevice>)
                    .collect(),
            )
            .build()
            .expect("pager");
        // An odd count leaves partial parity groups behind, so the
        // quiesced flush has real sealing work to do on the wire.
        for i in 0..31u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("fixture writes");
        }
        cluster.plan().inject(
            FaultRule::new(FaultAction::Crash)
                .on_ops(OpFilter::DataOps)
                .times(1),
        );
        cluster.plan().arm();
        let _ = pager.flush(); // typed error or success; must return
        if cluster.plan().events().is_empty() {
            // Nothing was pending to seal; the armed crash fires on the
            // next ordinary data call instead.
            let _ = pager.page_out(PageId(200), &Page::deterministic(200));
        }
        let events = cluster.plan().events();
        assert!(!events.is_empty(), "the quiesce-time crash never fired");
        let victim = events
            .iter()
            .find(|e| e.action == "crash")
            .expect("crash")
            .server;
        cluster.heal();
        absolve_all(&pager, 2, 3);
        pager
            .recover_from_crash(victim)
            .expect("single-crash recovery succeeds after healing");
        assert!(drain_backlog(&pager), "flush-crash backlog never drained");
        for i in 0..31u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("page survives flush crash"),
                Page::deterministic(i),
                "pg{i} corrupted by the flush-time crash"
            );
        }

        // --- part 2: crash inside recover_from_crash -----------------
        let cluster = in_process(3, FaultPlan::seeded(5151));
        let config = PagerConfig::new(Policy::BasicParity)
            .with_servers(2)
            .with_shard_count(2)
            .with_transport(tcfg.clone());
        let pager = ShardedPager::builder(config)
            .pools((0..2).map(|_| cluster.pool(&tcfg)).collect())
            .disks(
                (0..2)
                    .map(|_| Box::new(RamDisk::unbounded()) as Box<dyn PagingDevice>)
                    .collect(),
            )
            .build()
            .expect("pager");
        for i in 0..32u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("fixture writes");
        }
        // Server 0 fail-stops and reboots wiped; the in-place rebuild
        // then writes reconstructed pages back to it — and the armed
        // rule kills it *again* under those writes, mid-quiesce.
        cluster.server(0).crash();
        cluster.server(0).restart();
        cluster.plan().inject(
            FaultRule::new(FaultAction::Crash)
                .on_server(ServerId(0))
                .on_ops(OpFilter::DataOps)
                .times(1),
        );
        cluster.plan().arm();
        let _ = pager.recover_from_crash(ServerId(0)); // must return, Ok or Err
        assert!(
            !cluster.plan().events().is_empty(),
            "the recovery-time crash never fired"
        );
        cluster.heal();
        absolve_all(&pager, 2, 3);
        pager
            .recover_from_crash(ServerId(0))
            .expect("second recovery completes after the repeat crash");
        assert!(
            drain_backlog(&pager),
            "recovery-crash backlog never drained"
        );
        for i in 0..32u64 {
            assert_eq!(
                pager
                    .page_in(PageId(i))
                    .expect("page survives repeated crash"),
                Page::deterministic(i),
                "pg{i} corrupted by the recovery-time crash"
            );
        }
        tx.send(()).expect("report completion");
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("quiesce-crash scenario deadlocked or wedged");
}

// --- non-idempotent parity calls under retry -------------------------------

/// Dropped and blackholed `XorInto`/`PageOutDelta` calls must not desync
/// the basic-parity stripe: the engine detects the ambiguous retry and
/// rebuilds the parity from ground truth, so a later crash still
/// reconstructs every page bit-exact.
#[test]
fn retried_parity_updates_do_not_desync_the_stripe() {
    let cluster = in_process(3, FaultPlan::seeded(77));
    let tcfg = fast_transport();
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(2)
        .with_transport(tcfg.clone());
    let pager = one_shard(config, cluster.pool(&tcfg), Vec::new());
    for i in 0..8u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture writes");
    }
    // One XorInto vanishes entirely (all three attempts dropped) and one
    // is executed with its reply lost (applied, retried, applied again —
    // the classic double-XOR that cancels the delta).
    cluster.plan().inject(
        FaultRule::new(FaultAction::Drop)
            .on_ops(OpFilter::Op(Opcode::XorInto))
            .times(3),
    );
    cluster.plan().inject(
        FaultRule::new(FaultAction::BlackholeReply)
            .on_ops(OpFilter::Op(Opcode::XorInto))
            .times(1),
    );
    cluster.plan().arm();
    for i in 0..8u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i + 100))
            .expect("overwrites survive parity-path faults");
    }
    cluster.plan().disarm();
    assert!(
        !cluster.plan().events().is_empty(),
        "the parity fault rules never fired"
    );
    // Crash each data server in turn; reconstruction through the parity
    // is the only way back, so a stale parity turns into wrong bytes.
    for victim in [ServerId(0), ServerId(1)] {
        cluster.server(victim.0 as usize).crash();
        cluster.server(victim.0 as usize).restart();
        pager.with_shard(0, |p| {
            p.pool_mut().absolve(victim);
            p.pool_mut().refresh_loads();
        });
        pager
            .recover_from_crash(victim)
            .expect("parity reconstruction succeeds");
        for i in 0..8u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("page readable"),
                Page::deterministic(i + 100),
                "pg{i} corrupted after losing {victim} — parity desynced"
            );
        }
    }
}

// --- a rebuild that fails stays queued --------------------------------------

/// `recover_from_crash` used to take the server out of the queue, run the
/// plan and drop it on `?`: a rebuild stopped by a fault that passes was
/// queued nowhere, the backlog read 0, and the next pageout wrote into a
/// half-rebuilt stripe. The plan now stays the active one — the very
/// next pageout finishes it first — and the synchronous drain books its
/// steps where the maintenance tick does.
#[test]
fn a_rebuild_stopped_by_a_passing_fault_stays_queued() {
    let cluster = in_process(3, FaultPlan::seeded(23));
    let tcfg = fast_transport();
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(2)
        .with_transport(tcfg.clone());
    let pager = one_shard(config, cluster.pool(&tcfg), Vec::new());
    // Three chunks' worth of pages on each data server.
    let pages = 6 * CHUNK_PAGES as u64;
    for i in 0..pages {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture writes");
    }
    let victim = ServerId(0);
    cluster.server(0).crash();
    cluster.server(0).restart();
    let absolve = |server| pager.with_shard(0, |p| p.pool_mut().absolve(server));
    absolve(victim);
    // The first chunk's store wave lands — a harmless rule spends itself
    // on it — and the second's is refused until the ladder gives the
    // rebooted server up again.
    let stores = |action| {
        FaultRule::new(action)
            .on_server(victim)
            .on_ops(OpFilter::Op(Opcode::PageOut))
    };
    cluster
        .plan()
        .inject(stores(FaultAction::Delay(Duration::ZERO)).times(1));
    cluster
        .plan()
        .inject(stores(FaultAction::Refuse(ErrorCode::Overloaded)).times(3));
    cluster.plan().arm();
    let failed = pager.recover_from_crash(victim);
    cluster.plan().disarm();
    assert!(failed.is_err(), "the refused chunk fails the drain");
    assert_eq!(
        cluster.server(0).stored_pages(),
        CHUNK_PAGES,
        "one chunk got through"
    );
    assert_eq!(pager.recovery_backlog(), 1, "and the rebuild stays queued");
    let steps = pager.stats().recovery_steps;
    // The server is fine again, and nobody calls for the rebuild: the
    // next pageout — of a page whose frame on it is still empty — finds
    // the rebuild queued and finishes it before it writes.
    absolve(victim);
    let rewritten = |i: u64| Page::deterministic(if i == 64 { 164 } else { i });
    pager
        .page_out(PageId(64), &rewritten(64))
        .expect("a pageout drains the queued rebuild first");
    assert_eq!(pager.recovery_backlog(), 0);
    assert!(pager.stats().recovery_steps > steps, "the drain is booked");
    let done = pager.with_shard(0, |p| {
        (p.metrics())
            .counter("pager_recoveries_completed_total")
            .get()
    });
    assert_eq!(done, 1);
    assert_eq!(
        cluster.server(0).stored_pages(),
        3 * CHUNK_PAGES,
        "every lost page is back"
    );
    // Had the write gone into the half-rebuilt stripe, its parity would be
    // wrong now, and losing the other data server would show it.
    cluster.server(1).crash();
    cluster.server(1).restart();
    absolve(ServerId(1));
    pager
        .recover_from_crash(ServerId(1))
        .expect("second rebuild");
    for i in 0..pages {
        assert_eq!(
            pager.page_in(PageId(i)).expect("readable"),
            rewritten(i),
            "pg{i} after two rebuilds, the first in two goes"
        );
    }
}

// --- control-path calls must not launder trust -----------------------------

/// A Suspect server that answers `GetStats`/`LoadQuery` promptly while
/// its paging path is unproven must stay Suspect; only clean data-path
/// replies earn the promotion back to Healthy.
#[test]
fn stats_replies_do_not_promote_a_suspect_server() {
    let cluster = in_process(
        1,
        FaultPlan::seeded(9).with_rule(FaultRule::new(FaultAction::Drop).times(1)),
    );
    cluster.plan().arm();
    let mut pool = cluster.pool(&fast_transport());
    let sid = ServerId(0);
    pool.page_out(sid, rmp_types::StoreKey(1), &Page::deterministic(1))
        .expect("rides through the one drop");
    assert!(pool.suspected(sid), "one miss suspects");
    // A storm of clean *control* replies: suspicion decays but the
    // data-path streak stays frozen — no promotion.
    for _ in 0..6 {
        pool.get_stats(sid).expect("stats answer");
        pool.query_load(sid).expect("load answer");
    }
    assert!(
        pool.suspected(sid),
        "control-path replies must not re-promote a suspect server"
    );
    // Clean data-path replies do.
    for _ in 0..3 {
        pool.page_in(sid, rmp_types::StoreKey(1)).expect("read");
    }
    assert!(
        pool.alive(sid) && !pool.suspected(sid),
        "three clean data replies earn the server back"
    );
}

// --- reads around a gray primary -------------------------------------------

/// A slow-dripping (gray) primary must get read around — reads take the
/// mirror copy, as degraded reads — while the server is *not* declared
/// dead: gray is neither healthy nor crashed.
#[test]
fn gray_primary_is_read_around_not_buried() {
    let cluster = in_process(2, FaultPlan::seeded(31));
    let tcfg = fast_transport();
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(2)
        .with_prefetch_window(0)
        .with_transport(tcfg.clone());
    let pager = one_shard(config, cluster.pool(&tcfg), Vec::new());
    for i in 0..32u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture writes");
    }
    // Warm the latency baselines with fault-free reads.
    for i in 0..32u64 {
        pager.page_in(PageId(i)).expect("warm read");
    }
    // Server 0 turns gray: every data call is served 20 ms late, on the
    // cluster's clock — which moves only then. No drops, no crashes.
    cluster.plan().inject(
        FaultRule::new(FaultAction::Delay(Duration::from_millis(20)))
            .on_server(ServerId(0))
            .on_ops(OpFilter::DataOps),
    );
    cluster.plan().arm();
    // Unmeasured reads until sustained slowness makes it look gray.
    let suspicion = || pager.with_shard(0, |p| p.pool().suspicion(ServerId(0)));
    let mut warm = 0u64;
    while suspicion() < GRAY_SUSPICION {
        assert!(warm < 128, "the slow primary never looked gray");
        pager.page_in(PageId(warm % 32)).expect("warm gray read");
        warm += 1;
    }
    let before = pager.stats();
    for round in 0..4 {
        for i in 0..32u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("gray reads still answer"),
                Page::deterministic(i),
                "round {round}: wrong bytes from a gray cluster"
            );
        }
    }
    let after = pager.stats();
    assert_eq!(after.pageins - before.pageins, 4 * 32);
    assert_eq!(
        after.degraded_reads - before.degraded_reads,
        4 * 32,
        "every read went around the gray primary, as a degraded read"
    );
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "a slow server is gray, not dead"
    );
    assert_eq!(
        pager.recovery_backlog(),
        0,
        "slowness must not trigger crash recovery"
    );
    assert!(
        suspicion() >= GRAY_SUSPICION,
        "sustained slowness accrues suspicion"
    );
}

// --- determinism: the replay contract --------------------------------------

/// Same seed, same plan, same op sequence → identical fault traces and
/// identical final pager state. The cluster and its pools run on a manual
/// clock, so latencies, rungs and budgets — the detector's inputs — are a
/// pure function of the seed too.
#[test]
fn identical_seeds_replay_identical_histories() {
    fn one_run(seed: u64) -> (Vec<FaultEvent>, Vec<String>) {
        let plan = FaultPlan::seeded(seed)
            .with_rule(
                FaultRule::new(FaultAction::Drop)
                    .on_ops(OpFilter::DataOps)
                    .with_probability(0.12),
            )
            .with_rule(
                FaultRule::new(FaultAction::BlackholeReply)
                    .on_ops(OpFilter::DataOps)
                    .with_probability(0.08),
            )
            .with_rule(
                FaultRule::new(FaultAction::Refuse(ErrorCode::Overloaded)).with_probability(0.08),
            )
            .with_rule(
                FaultRule::new(FaultAction::CorruptReply { byte: 11, bit: 2 })
                    .on_ops(OpFilter::Op(Opcode::PageIn))
                    .with_probability(0.1),
            )
            .with_rule(FaultRule::new(FaultAction::ReorderBurst).with_probability(0.2));
        let cluster = in_process(2, plan);
        let tcfg = TransportConfig::default();
        let config = PagerConfig::new(Policy::Mirroring)
            .with_servers(2)
            .with_shard_count(2)
            .with_transport(tcfg.clone());
        let pager = ShardedPager::builder(config)
            .pools((0..2).map(|_| cluster.pool(&tcfg)).collect())
            .disks(
                (0..2)
                    .map(|_| Box::new(RamDisk::unbounded()) as Box<dyn PagingDevice>)
                    .collect(),
            )
            .build()
            .expect("pager");
        for i in 0..32u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("fixture writes");
        }
        cluster.plan().arm();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let mut journal = Vec::new();
        for _ in 0..200u32 {
            let id = rng.gen_range(0u64..48);
            let roll = rng.gen_range(0u32..10);
            let entry = if roll < 5 {
                let fill = rng.gen_range(0u64..1 << 20);
                match pager.page_out(PageId(id), &Page::deterministic(fill)) {
                    Ok(()) => format!("out pg{id}={fill} ok"),
                    Err(e) => format!("out pg{id}={fill} err {e}"),
                }
            } else if roll < 9 {
                match pager.page_in(PageId(id)) {
                    Ok(p) => format!("in pg{id} ok {:016x}", p.checksum()),
                    Err(e) => format!("in pg{id} err {e}"),
                }
            } else {
                match pager.free(PageId(id)) {
                    Ok(()) => format!("free pg{id} ok"),
                    Err(e) => format!("free pg{id} err {e}"),
                }
            };
            journal.push(entry);
        }
        cluster.plan().disarm();
        for i in 0..48u64 {
            journal.push(match pager.page_in(PageId(i)) {
                Ok(p) => format!("final pg{i} {:016x}", p.checksum()),
                Err(e) => format!("final pg{i} err {e}"),
            });
        }
        (cluster.plan().events(), journal)
    }

    let (events_a, journal_a) = one_run(424_242);
    let (events_b, journal_b) = one_run(424_242);
    assert!(!events_a.is_empty(), "the schedule injected nothing");
    assert_eq!(events_a, events_b, "fault traces diverged across replays");
    assert_eq!(
        journal_a, journal_b,
        "pager histories diverged across replays"
    );
    let (events_c, _) = one_run(424_243);
    assert_ne!(
        events_a, events_c,
        "a different seed should explore a different schedule"
    );
}
