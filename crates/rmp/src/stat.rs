//! Probes behind the `rmpstat` inspector.
//!
//! Each probe runs a short deterministic workload for one reliability
//! policy against an in-process loopback cluster and reports the
//! *measured* transfer costs next to the paper's closed-form cost table
//! (Section 2.2): transfers per pageout, wire transfers per degraded
//! read, and the pageout/pagein latency distributions from the pager's
//! own [`rmp_types::metrics`] histograms.
//!
//! ```no_run
//! use rmp::stat::{probe_policy, probe_to_json};
//! use rmp::types::Policy;
//!
//! let probe = probe_policy(Policy::Mirroring, 32).unwrap();
//! assert!((probe.measured_transfers_per_pageout - 2.0).abs() < 0.01);
//! println!("{}", probe_to_json(&probe));
//! ```

use std::sync::Arc;

use rmp_types::metrics::HistogramSnapshot;
use rmp_types::{Page, PageId, PagerConfig, Policy, Result};

use crate::local::LocalCluster;

/// Data servers per redundancy group in every probe (the paper's `S`).
pub const PROBE_DATA_SERVERS: usize = 4;

/// Measured behaviour of one policy under the probe workload.
#[derive(Clone, Debug)]
pub struct PolicyProbe {
    /// The probed policy.
    pub policy: Policy,
    /// Data servers per redundancy group (`S`).
    pub servers: usize,
    /// Pageouts issued (one per distinct page).
    pub pageouts: u64,
    /// Outbound transfers per pageout, measured from
    /// [`rmp_types::TransferStats`].
    pub measured_transfers_per_pageout: f64,
    /// The paper's closed-form cost
    /// ([`Policy::transfers_per_pageout`]).
    pub expected_transfers_per_pageout: f64,
    /// Degraded reads served after the probe crashed one server
    /// (0 when the policy keeps no redundancy).
    pub degraded_reads: u64,
    /// Measured wire transfers per degraded read.
    pub measured_degraded_transfers: f64,
    /// Expected wire transfers per degraded read: 1 for mirroring, `S`
    /// for the parity policies, 0 for write-through; `None` when the
    /// policy cannot serve degraded reads.
    pub expected_degraded_transfers: Option<f64>,
    /// Pageout latency distribution (`pager_pageout_latency_us`).
    pub pageout_latency: HistogramSnapshot,
    /// Pagein latency distribution (`pager_pagein_latency_us`).
    pub pagein_latency: HistogramSnapshot,
    /// Pages the stride prefetcher requested ahead of demand
    /// (`pager_prefetch_issued_total`).
    pub prefetch_issued: u64,
    /// Pageins served from the prefetch cache
    /// (`pager_prefetch_hits_total`).
    pub prefetch_hits: u64,
    /// Prefetched pages evicted or invalidated unread
    /// (`pager_prefetch_useless_total`).
    pub prefetch_useless: u64,
    /// Fraction of all pageins served from the prefetch cache.
    pub prefetch_hit_rate: f64,
    /// Accrual-detector suspicion per server at probe end, ordered by
    /// server id. The crashed server reports the pinned cap; survivors
    /// report their (near-zero) steady-state score.
    pub server_suspicion: Vec<(u32, f64)>,
    /// Link round trips per steady-state pageout and per pagein. The
    /// loopback cluster of the probe has no link to count them on:
    /// `bench --bin policies` measures them over an emulated one and
    /// fills them in; `None` (JSON `null`) from the probe alone.
    pub round_trips: Option<(f64, f64)>,
}

/// Expected wire transfers per degraded read for `policy` with `s` data
/// servers, per Section 2.2; `None` when the policy keeps no redundancy.
pub fn expected_degraded_transfers(policy: Policy, s: usize) -> Option<f64> {
    match policy {
        Policy::Mirroring => Some(1.0),
        // Erasure coding reconstructs from any `k` survivors; the probe
        // runs it with `k = s` data splits, so the count matches parity.
        Policy::BasicParity | Policy::ParityLogging | Policy::ErasureCoded => Some(s as f64),
        Policy::WriteThrough => Some(0.0),
        Policy::NoReliability | Policy::DiskOnly => None,
    }
}

/// Runs the probe workload for one policy: page out `pages` distinct
/// pages, flush, read them all back, then crash one server and read them
/// again to measure the degraded path (skipped for policies that cannot
/// survive a crash).
///
/// # Errors
///
/// Propagates cluster spawn and paging failures.
pub fn probe_policy(policy: Policy, pages: usize) -> Result<PolicyProbe> {
    let s = PROBE_DATA_SERVERS;
    let cluster_n = match policy {
        // One extra workstation for the dedicated parity server, or for
        // the single parity split (`r = 1`) of the erasure-coded stripe.
        Policy::BasicParity | Policy::ParityLogging | Policy::ErasureCoded => s + 1,
        Policy::DiskOnly => 1,
        _ => s,
    };
    let cluster = LocalCluster::spawn(cluster_n, pages * 4)?;
    let config = match policy {
        Policy::BasicParity | Policy::ParityLogging => PagerConfig::new(policy).with_servers(s),
        Policy::ErasureCoded => PagerConfig::new(policy).with_ec_splits(s, 1),
        _ => PagerConfig::new(policy),
    };
    // One shard: one pool's wire counters and one registry see it all.
    let pager = cluster.pager(config.with_shard_count(1))?;
    for i in 0..pages {
        pager.page_out(PageId(i as u64), &Page::deterministic(i as u64))?;
    }
    pager.flush()?;
    for i in 0..pages {
        pager.page_in(PageId(i as u64))?;
    }
    let healthy = pager.stats();

    // Degraded pass: crash one server and read everything again. Healthy
    // pageins cost exactly one wire fetch, so the degraded cost falls out
    // of the wire-transfer delta.
    let mut degraded_reads = 0;
    let mut measured_degraded = 0.0;
    if policy.survives_single_crash() && policy != Policy::DiskOnly {
        cluster.handles()[0].crash();
        // Warm-up read so the pool discovers the crash before the
        // baseline is taken, and a load probe to walk the rest of the
        // retry ladder to the verdict: engines that gather several splits
        // per read waste the partial batch issued against the server
        // whenever its next rung is due, which would otherwise pollute
        // the steady-state degraded cost.
        pager.page_in(PageId(0))?;
        pager.with_shard(0, |p| p.pool_mut().refresh_loads());
        let baseline = pager.stats();
        let wire_before = pager.with_shard(0, |p| p.pool().wire_transfers());
        for i in 0..pages {
            pager.page_in(PageId(i as u64))?;
        }
        let after = pager.stats();
        degraded_reads = after.degraded_reads - baseline.degraded_reads;
        let wire_delta = pager.with_shard(0, |p| p.pool().wire_transfers()) - wire_before;
        let healthy_reads = pages as u64 - degraded_reads;
        // Healthy pageins cost one wire fetch — except erasure coding,
        // whose demand path always gathers the `k` data splits.
        let healthy_cost = match policy {
            Policy::ErasureCoded => s as u64,
            _ => 1,
        };
        if degraded_reads > 0 {
            measured_degraded = wire_delta.saturating_sub(healthy_reads * healthy_cost) as f64
                / degraded_reads as f64;
        }
    }

    let metrics = pager.with_shard(0, |p| Arc::clone(p.metrics()));
    let total_pageins = pager.stats().pageins;
    let prefetch_issued = metrics.counter("pager_prefetch_issued_total").get();
    let prefetch_hits = metrics.counter("pager_prefetch_hits_total").get();
    let prefetch_useless = metrics.counter("pager_prefetch_useless_total").get();
    let prefetch_hit_rate = if total_pageins > 0 {
        prefetch_hits as f64 / total_pageins as f64
    } else {
        0.0
    };
    let mut server_suspicion: Vec<(u32, f64)> = pager.with_shard(0, |p| {
        let pool = p.pool();
        let ids = pool.server_ids().into_iter();
        ids.map(|id| (id.0, pool.suspicion(id))).collect()
    });
    server_suspicion.sort_unstable_by_key(|&(id, _)| id);
    Ok(PolicyProbe {
        policy,
        servers: s,
        pageouts: healthy.pageouts,
        measured_transfers_per_pageout: healthy.outbound_transfers_per_pageout(),
        // Closed-form costs count page-sized transfers; erasure coding
        // moves `k + r` split-sized frames per pageout, and the wire
        // stats count messages, so its expectation is quoted in frames.
        expected_transfers_per_pageout: match policy {
            Policy::ErasureCoded => (s + 1) as f64,
            _ => policy.transfers_per_pageout(s),
        },
        degraded_reads,
        measured_degraded_transfers: measured_degraded,
        expected_degraded_transfers: expected_degraded_transfers(policy, s),
        pageout_latency: metrics.histogram("pager_pageout_latency_us").snapshot(),
        pagein_latency: metrics.histogram("pager_pagein_latency_us").snapshot(),
        prefetch_issued,
        prefetch_hits,
        prefetch_useless,
        prefetch_hit_rate,
        server_suspicion,
        round_trips: None,
    })
}

/// Probes every policy of the paper with the same workload size.
///
/// # Errors
///
/// Propagates the first failing probe.
pub fn probe_all(pages: usize) -> Result<Vec<PolicyProbe>> {
    [
        Policy::NoReliability,
        Policy::Mirroring,
        Policy::BasicParity,
        Policy::ParityLogging,
        Policy::ErasureCoded,
        Policy::WriteThrough,
        Policy::DiskOnly,
    ]
    .into_iter()
    .map(|p| probe_policy(p, pages))
    .collect()
}

/// Renders one probe as a JSON object (histograms use the shared
/// `rmp-metrics-v1` snapshot schema).
pub fn probe_to_json(p: &PolicyProbe) -> String {
    let expected_degraded = match p.expected_degraded_transfers {
        Some(v) => format!("{v:.4}"),
        None => "null".into(),
    };
    let suspicion: Vec<String> = p
        .server_suspicion
        .iter()
        .map(|(id, s)| format!("\"srv{id}\": {s:.3}"))
        .collect();
    let (trips_out, trips_in) = match p.round_trips {
        Some((pageout, pagein)) => (format!("{pageout:.2}"), format!("{pagein:.2}")),
        None => ("null".into(), "null".into()),
    };
    format!(
        concat!(
            "{{\"policy\": \"{}\", \"servers\": {}, \"pageouts\": {}, ",
            "\"measured_transfers_per_pageout\": {:.4}, ",
            "\"expected_transfers_per_pageout\": {:.4}, ",
            "\"degraded_reads\": {}, ",
            "\"measured_degraded_transfers\": {:.4}, ",
            "\"expected_degraded_transfers\": {}, ",
            "\"round_trips_per_pageout\": {}, \"round_trips_per_pagein\": {}, ",
            "\"prefetch\": {{\"issued\": {}, \"hits\": {}, \"useless\": {}, ",
            "\"hit_rate\": {:.4}}}, ",
            "\"detector\": {{\"suspicion\": {{{}}}}}, ",
            "\"pageout_latency_us\": {}, \"pagein_latency_us\": {}}}"
        ),
        p.policy.label(),
        p.servers,
        p.pageouts,
        p.measured_transfers_per_pageout,
        p.expected_transfers_per_pageout,
        p.degraded_reads,
        p.measured_degraded_transfers,
        expected_degraded,
        trips_out,
        trips_in,
        p.prefetch_issued,
        p.prefetch_hits,
        p.prefetch_useless,
        p.prefetch_hit_rate,
        suspicion.join(", "),
        p.pageout_latency.to_json(),
        p.pagein_latency.to_json(),
    )
}

/// Renders a probe set as the `rmp-policy-probe-v1` JSON document
/// consumed by `rmpstat --json` and the CI policy bench.
pub fn probes_to_json(probes: &[PolicyProbe]) -> String {
    let body: Vec<String> = probes.iter().map(probe_to_json).collect();
    format!(
        "{{\"schema\": \"rmp-policy-probe-v1\", \"policies\": [{}]}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_degraded_matches_cost_table() {
        assert_eq!(expected_degraded_transfers(Policy::Mirroring, 4), Some(1.0));
        assert_eq!(
            expected_degraded_transfers(Policy::BasicParity, 4),
            Some(4.0)
        );
        assert_eq!(
            expected_degraded_transfers(Policy::ParityLogging, 4),
            Some(4.0)
        );
        assert_eq!(
            expected_degraded_transfers(Policy::ErasureCoded, 4),
            Some(4.0)
        );
        assert_eq!(
            expected_degraded_transfers(Policy::WriteThrough, 4),
            Some(0.0)
        );
        assert_eq!(expected_degraded_transfers(Policy::NoReliability, 4), None);
        assert_eq!(expected_degraded_transfers(Policy::DiskOnly, 4), None);
    }

    #[test]
    fn sequential_probe_reports_prefetch_hits() {
        let probe = probe_policy(Policy::NoReliability, 32).expect("probe");
        assert!(
            probe.prefetch_hits > 0,
            "sequential probe workload must hit the prefetch cache: {probe:?}"
        );
        assert!(
            probe.prefetch_hit_rate > 0.0 && probe.prefetch_hit_rate <= 1.0,
            "hit rate is a fraction of pageins: {}",
            probe.prefetch_hit_rate
        );
        assert!(probe.prefetch_issued >= probe.prefetch_hits);
        let json = probe_to_json(&probe);
        assert!(json.contains("\"prefetch\": {\"issued\": "), "{json}");
    }

    #[test]
    fn probe_reports_detector_state_for_the_crashed_server() {
        let probe = probe_policy(Policy::Mirroring, 16).expect("probe");
        let crashed = probe
            .server_suspicion
            .iter()
            .find(|(id, _)| *id == 0)
            .expect("srv0 sampled");
        assert!(
            crashed.1 >= 2.0,
            "the probe crashes srv0, which must carry pinned suspicion: {:?}",
            probe.server_suspicion
        );
        let json = probe_to_json(&probe);
        assert!(
            json.contains("\"detector\": {\"suspicion\": {\"srv0\": "),
            "{json}"
        );
    }

    #[test]
    fn erasure_probe_matches_closed_form() {
        let probe = probe_policy(Policy::ErasureCoded, 16).expect("probe");
        assert!(
            (probe.measured_transfers_per_pageout - 5.0).abs() < 1e-9,
            "k = 4 data + 1 parity split frames per pageout: {}",
            probe.measured_transfers_per_pageout
        );
        assert!(probe.degraded_reads > 0, "crash produced degraded reads");
        assert!(
            (probe.measured_degraded_transfers - 4.0).abs() < 1e-9,
            "degraded read gathers any k = 4 survivors: {}",
            probe.measured_degraded_transfers
        );
        let json = probe_to_json(&probe);
        assert!(json.contains("\"policy\": \"Erasure coded\""), "{json}");
    }

    #[test]
    fn mirroring_probe_matches_paper() {
        let probe = probe_policy(Policy::Mirroring, 16).expect("probe");
        assert!(
            (probe.measured_transfers_per_pageout - 2.0).abs() < 1e-9,
            "mirroring writes both copies: {}",
            probe.measured_transfers_per_pageout
        );
        assert!(probe.degraded_reads > 0, "crash produced degraded reads");
        assert!(
            (probe.measured_degraded_transfers - 1.0).abs() < 1e-9,
            "mirror degraded read costs one transfer: {}",
            probe.measured_degraded_transfers
        );
        assert_eq!(probe.pageout_latency.count, 16);
        let json = probe_to_json(&probe);
        assert!(json.contains("\"policy\": \"Mirroring\""), "{json}");
    }
}
