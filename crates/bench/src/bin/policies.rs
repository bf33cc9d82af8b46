//! Section 2.2 — the reliability cost table, measured.
//!
//! Runs the `rmpstat` probes ([`rmp::stat`]) over every policy and writes
//! the `rmp-policy-probe-v1` JSON document (`BENCH_policies.json`, or the
//! path in `BENCH_OUT`) so CI can archive it. Latency distributions use
//! the shared `rmp-metrics-v1` histogram snapshot schema — the same
//! [`rmp_types::metrics::Histogram`] the pager exports at runtime.
//!
//! The probes run over loopback, where a fan-out that visits its servers
//! one after another costs microseconds; [`bench::round_trips`] measures
//! each policy's pageout and pagein again over an emulated link and adds
//! `round_trips_per_pageout` / `round_trips_per_pagein` to every row.
//!
//! `PROBE_PAGES` overrides the per-policy workload size for smoke runs.

use rmp::stat::{probe_all, probes_to_json};

fn main() {
    let pages: usize = std::env::var("PROBE_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    println!("Reliability cost table, measured ({pages} pages per policy)\n");
    let mut probes = probe_all(pages).expect("probe");
    println!(
        "{:<16} {:>14} {:>9} {:>15} {:>9} {:>13} {:>12}",
        "policy",
        "xfers/pageout",
        "expected",
        "degraded xfers",
        "expected",
        "RTTs/pageout",
        "RTTs/pagein"
    );
    for p in &mut probes {
        let (trips_out, trips_in) = bench::round_trips(p.policy).expect("round trips");
        p.round_trips = Some((trips_out, trips_in));
        let expected_degraded = match p.expected_degraded_transfers {
            Some(v) => format!("{v:.2}"),
            None => "-".into(),
        };
        let degraded = if p.degraded_reads > 0 {
            format!("{:.2}", p.measured_degraded_transfers)
        } else {
            "-".into()
        };
        println!(
            "{:<16} {:>14.2} {:>9.2} {:>15} {:>9} {:>13.2} {:>12.2}",
            p.policy.label(),
            p.measured_transfers_per_pageout,
            p.expected_transfers_per_pageout,
            degraded,
            expected_degraded,
            trips_out,
            trips_in,
        );
        assert!(
            (p.measured_transfers_per_pageout - p.expected_transfers_per_pageout).abs() < 0.05,
            "{}: measured pageout cost {:.4} drifted from the paper's {:.4}",
            p.policy.label(),
            p.measured_transfers_per_pageout,
            p.expected_transfers_per_pageout
        );
        // One wave per pageout — but for basic parity, whose delta comes
        // back to the client to be folded into the parity page (ROADMAP
        // item 3).
        assert!(
            trips_out <= 1.15 || p.policy == rmp_types::Policy::BasicParity,
            "{}: a pageout waited {trips_out:.2} link round trips, more than one wave",
            p.policy.label()
        );
        if let Some(expected) = p.expected_degraded_transfers {
            assert!(
                p.degraded_reads > 0,
                "{}: no degraded reads",
                p.policy.label()
            );
            assert!(
                (p.measured_degraded_transfers - expected).abs() < 0.05,
                "{}: measured degraded cost {:.4} drifted from the paper's {:.4}",
                p.policy.label(),
                p.measured_degraded_transfers,
                expected
            );
        }
    }
    let json = probes_to_json(&probes);
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_policies.json".into());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
}
