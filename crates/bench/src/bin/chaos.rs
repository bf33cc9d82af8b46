//! Chaos endurance bench: randomized seeded fault schedules plus the
//! gray-server bound, written as `BENCH_chaos.json` for CI.
//!
//! Phase A replays `CHAOS_SCHEDULES` randomized fault schedules (drops,
//! delays, duplicated and reordered replies, bit-flips, blackholed
//! replies, overload storms, crashes) per policy through the sharded
//! pager and asserts the endurance invariants: no acknowledged page is
//! ever lost or corrupted, faults surface only as typed errors, and
//! recovery converges after healing. The schedules run on a manual
//! clock, so each replays from its printed seed: its row's `digest` of
//! the fault trace and of every operation's outcome is the same on every
//! run.
//!
//! Phase B turns one mirror gray — every data call answered correctly
//! but ~10× late — warms up until its suspicion looks gray, and asserts
//! that reads go around it as degraded reads, keeping p99 within 3× the
//! fault-free p99, while the slow server is *not* declared dead: the
//! gray server neither holds the tail hostage nor gets evicted.
//!
//! The binary self-asserts (exits nonzero on any violation), so CI can
//! run it bare; `BENCH_OUT` overrides the JSON path.

use std::time::{Duration, Instant};

use rmp_chaos::{run_schedule, ChaosCluster, FaultAction, FaultPlan, FaultRule, OpFilter};
use rmp_core::detector::GRAY_SUSPICION;
use rmp_core::ShardedPager;
use rmp_types::{Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId, TransportConfig};

const POLICIES: [Policy; 5] = [
    Policy::NoReliability,
    Policy::Mirroring,
    Policy::BasicParity,
    Policy::ParityLogging,
    Policy::WriteThrough,
];

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

fn p99_us(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((samples.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    samples[idx.min(samples.len() - 1)]
}

fn main() {
    let per_policy: u64 = std::env::var("CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // --- Phase A: randomized schedule sweep --------------------------
    println!("Chaos endurance: {per_policy} seeded schedules per policy\n");
    println!(
        "{:<15} {:>12} {:>6} {:>7} {:>6} {:>6} {:>8} {:>18}",
        "policy", "seed", "ops", "faults", "crash", "lost", "verdict", "digest"
    );
    let mut schedule_rows: Vec<String> = Vec::new();
    let mut passed = 0u64;
    let mut total = 0u64;
    for (pi, policy) in POLICIES.iter().enumerate() {
        for s in 0..per_policy {
            let seed = (pi as u64) * 7919 + s * 104_729 + 1;
            let outcome = run_schedule(*policy, seed);
            total += 1;
            if outcome.passed() {
                passed += 1;
            } else {
                for v in &outcome.violations {
                    eprintln!("  VIOLATION [{} seed {seed}]: {v}", policy.label());
                }
            }
            println!(
                "{:<15} {:>12} {:>6} {:>7} {:>6} {:>6} {:>8} {:#018x}",
                policy.label(),
                seed,
                outcome.ops,
                outcome.faults,
                if outcome.crash_fired { "yes" } else { "no" },
                outcome.lost_tolerated,
                if outcome.passed() { "PASS" } else { "FAIL" },
                outcome.digest,
            );
            schedule_rows.push(format!(
                "    {{\"policy\": \"{}\", \"seed\": {seed}, \"ops\": {}, \
                 \"faults\": {}, \"crash_fired\": {}, \"lost_tolerated\": {}, \
                 \"violations\": {}, \"passed\": {}, \"digest\": \"{:#018x}\"}}",
                policy.label(),
                outcome.ops,
                outcome.faults,
                outcome.crash_fired,
                outcome.lost_tolerated,
                outcome.violations.len(),
                outcome.passed(),
                outcome.digest,
            ));
        }
    }
    println!("\nschedules: {passed}/{total} passed");

    // --- Phase B: gray-server bound ----------------------------------
    // On the wall clock: the bound compares the reads' wall times, and a
    // read served by the gray server spends its 3 ms there.
    const ROUNDS: u64 = 8;
    const WORKING_SET: u64 = 32;
    let cluster = ChaosCluster::new(2, FaultPlan::seeded(0x9e37));
    let tcfg = fast_transport();
    let config = PagerConfig::new(Policy::Mirroring)
        .with_servers(2)
        .with_shard_count(1)
        .with_transport(tcfg.clone());
    let pager = ShardedPager::builder(config)
        .pools(vec![cluster.pool(&tcfg)])
        .build()
        .expect("pager");
    let suspicion_of = |server| pager.with_shard(0, |p| p.pool().suspicion(server));
    for i in 0..WORKING_SET {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("fixture writes");
    }
    let mut baseline: Vec<f64> = Vec::new();
    for _ in 0..ROUNDS {
        for i in 0..WORKING_SET {
            let t = Instant::now();
            pager.page_in(PageId(i)).expect("fault-free read");
            baseline.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let baseline_p99 = p99_us(&mut baseline);
    // Server 0 goes gray: every data call answered correctly but 3 ms
    // late — roughly 10× the in-process baseline, with margin.
    let gray_delay = Duration::from_millis(3);
    cluster.plan().inject(
        FaultRule::new(FaultAction::Delay(gray_delay))
            .on_server(ServerId(0))
            .on_ops(OpFilter::DataOps),
    );
    cluster.plan().arm();
    // Unmeasured reads let suspicion accrue until the server looks gray.
    let mut warm = 0;
    while suspicion_of(ServerId(0)) < GRAY_SUSPICION {
        assert!(warm < 4 * WORKING_SET, "the slow mirror never turned gray");
        pager
            .page_in(PageId(warm % WORKING_SET))
            .expect("warm gray read");
        warm += 1;
    }
    let degraded_before = pager.stats().degraded_reads;
    let mut gray: Vec<f64> = Vec::new();
    for _ in 0..ROUNDS {
        for i in 0..WORKING_SET {
            let t = Instant::now();
            let page = pager.page_in(PageId(i)).expect("gray read");
            assert_eq!(page, Page::deterministic(i), "gray reads stay correct");
            gray.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let gray_p99 = p99_us(&mut gray);
    let degraded = pager.stats().degraded_reads - degraded_before;
    let slow_alive = pager.with_shard(0, |p| p.pool().alive(ServerId(0)));
    let suspicion = suspicion_of(ServerId(0));
    // In-process calls finish in single-digit microseconds, where 3× is
    // inside scheduler noise; the floor keeps the bound meaningful
    // without loosening it against a real (network-scale) baseline.
    let bound_us = 3.0 * baseline_p99.max(150.0);
    let within_bound = gray_p99 <= bound_us;
    println!(
        "\nGray server (one mirror +{}ms on every data call):",
        gray_delay.as_millis()
    );
    println!("  fault-free p99: {baseline_p99:>8.1} us");
    println!("  gray p99:       {gray_p99:>8.1} us  (bound {bound_us:.1} us)");
    println!("  degraded reads: {degraded} (after {warm} warm-up reads)");
    println!(
        "  slow server:    {} (suspicion {suspicion:.2})",
        if slow_alive { "alive" } else { "DEAD" }
    );

    // --- JSON + self-assertions --------------------------------------
    let json = format!(
        "{{\n  \"bench\": \"chaos\",\n  \"schema\": \"rmp-chaos-bench-v2\",\n  \
         \"schedules_per_policy\": {per_policy},\n  \"schedules_total\": {total},\n  \
         \"schedules_passed\": {passed},\n  \"schedules\": [\n{}\n  ],\n  \
         \"gray\": {{\"baseline_p99_us\": {baseline_p99:.3}, \"gray_p99_us\": {gray_p99:.3}, \
         \"gray_delay_us\": {}, \"bound_us\": {bound_us:.3}, \"within_bound\": {within_bound}, \
         \"degraded_reads\": {degraded}, \
         \"slow_server_alive\": {slow_alive}, \"slow_server_suspicion\": {suspicion:.3}}}\n}}\n",
        schedule_rows.join(",\n"),
        gray_delay.as_micros(),
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_chaos.json".into());
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");

    assert_eq!(
        passed, total,
        "every chaos schedule must pass; failing seeds printed above"
    );
    assert!(degraded > 0, "reads must go around the gray mirror");
    assert!(
        within_bound,
        "gray p99 {gray_p99:.1}us exceeds 3x fault-free bound {bound_us:.1}us"
    );
    assert!(
        slow_alive,
        "a slow-but-correct server must stay gray, not be declared dead"
    );
    println!("\nall chaos invariants held: no acked page lost, typed errors only,");
    println!("recovery converges, and a gray mirror neither drags p99 nor dies.");
}
