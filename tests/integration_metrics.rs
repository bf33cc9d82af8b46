//! End-to-end observability: the metrics registry, trace events, the
//! `GetStats` wire frame, and the paper's Section 2.2 cost table as
//! measured by the `rmpstat` probes.
//!
//! The contract under test: every pageout/pagein/degraded read leaves a
//! counter, a latency sample, and a trace event behind; the per-policy
//! transfer costs measured through those metrics match the closed-form
//! table (mirroring 2/pageout, parity logging 1 + 1/S, degraded reads at
//! 1, S, and 0 transfers for mirror/parity/write-through); and a server
//! answers `GetStats` with its own `rmp-server-v1` document.

use std::sync::Arc;

use rmp::prelude::*;
use rmp::stat::{probe_policy, probes_to_json};
use rmp::types::metrics::EventKind;

#[test]
fn pageouts_and_pageins_leave_counters_latency_and_events() {
    let cluster = LocalCluster::spawn(3, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(PagerConfig::new(Policy::NoReliability).with_shard_count(1))
        .expect("pager");
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("pagein"),
            Page::deterministic(i)
        );
    }
    let metrics = pager.with_shard(0, |p| Arc::clone(p.metrics()));
    assert_eq!(metrics.counter("pager_pageouts_total").get(), 40);
    assert_eq!(metrics.counter("pager_pageins_total").get(), 40);
    assert_eq!(metrics.histogram("pager_pageout_latency_us").count(), 40);
    assert_eq!(metrics.histogram("pager_pagein_latency_us").count(), 40);
    assert!(
        metrics.counter("pool_calls_total").get() >= 40,
        "every pageout is its own pool call (pageins may arrive batched)"
    );
    assert!(
        metrics.counter("pool_wire_transfers_total").get() >= 80,
        "batched or not, every page crosses the wire once per direction"
    );
    let (events, evicted) = metrics.events();
    assert_eq!(evicted, 0, "40+40 events fit the default ring");
    let pageouts = events
        .iter()
        .filter(|e| e.kind == EventKind::PageOut)
        .count();
    let pageins = events
        .iter()
        .filter(|e| e.kind == EventKind::PageIn)
        .count();
    assert_eq!(pageouts, 40);
    assert_eq!(pageins, 40);
    assert!(
        events.iter().all(|e| e.outcome == "ok"),
        "healthy run traces only successes"
    );
}

#[test]
fn snapshot_json_carries_schema_stats_and_metric_names() {
    let cluster = LocalCluster::spawn(2, 4096).expect("cluster");
    let pager = cluster
        .pager(PagerConfig::new(Policy::Mirroring).with_shard_count(1))
        .expect("pager");
    for i in 0..10u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout lands, and is booked, before the snapshot.
    pager.flush().expect("flush");
    let json = pager.metrics_snapshot_json();
    for needle in [
        "\"schema\": \"rmp-pager-v1\"",
        "\"policy\": \"Mirroring\"",
        "\"transfer_stats\"",
        "\"outbound_transfers_per_pageout\": 2.0000",
        "pager_pageouts_total",
        "pager_pageout_latency_us",
        "pool_wire_transfers_total",
        "\"events\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
}

#[test]
fn mirroring_costs_two_transfers_per_pageout() {
    let probe = probe_policy(Policy::Mirroring, 24).expect("probe");
    assert!(
        (probe.measured_transfers_per_pageout - 2.0).abs() < 1e-9,
        "mirroring ships both copies: {}",
        probe.measured_transfers_per_pageout
    );
    assert!(probe.degraded_reads > 0);
    assert!(
        (probe.measured_degraded_transfers - 1.0).abs() < 1e-9,
        "mirror serves a degraded read from the one surviving copy: {}",
        probe.measured_degraded_transfers
    );
}

#[test]
fn parity_logging_costs_one_plus_one_over_s() {
    let probe = probe_policy(Policy::ParityLogging, 32).expect("probe");
    let expected = 1.0 + 1.0 / probe.servers as f64;
    assert!(
        (probe.measured_transfers_per_pageout - expected).abs() < 1e-9,
        "parity logging pays 1 + 1/S = {expected}: {}",
        probe.measured_transfers_per_pageout
    );
    assert!(probe.degraded_reads > 0);
    assert!(
        (probe.measured_degraded_transfers - probe.servers as f64).abs() < 1e-9,
        "reconstruction reads S group members: {}",
        probe.measured_degraded_transfers
    );
}

#[test]
fn write_through_serves_degraded_reads_for_free() {
    let probe = probe_policy(Policy::WriteThrough, 24).expect("probe");
    assert!(
        (probe.measured_transfers_per_pageout - 1.0).abs() < 1e-9,
        "one wire transfer per pageout (the disk copy is local): {}",
        probe.measured_transfers_per_pageout
    );
    assert!(probe.degraded_reads > 0);
    assert!(
        probe.measured_degraded_transfers.abs() < 1e-9,
        "the local disk answers degraded reads with zero wire transfers: {}",
        probe.measured_degraded_transfers
    );
}

#[test]
fn probe_document_covers_every_policy() {
    let probes = [
        probe_policy(Policy::NoReliability, 8).expect("norel"),
        probe_policy(Policy::DiskOnly, 8).expect("disk"),
    ];
    let json = probes_to_json(&probes);
    assert!(json.contains("\"schema\": \"rmp-policy-probe-v1\""));
    assert!(json.contains("\"policy\": \"No reliability\""));
    assert!(json.contains("\"expected_degraded_transfers\": null"));
    assert!(json.contains("\"p99_us\""));
}

#[test]
fn crash_and_degraded_read_leave_trace_events() {
    let cluster = LocalCluster::spawn(2, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(PagerConfig::new(Policy::Mirroring).with_shard_count(1))
        .expect("pager");
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout is acked before the crash: `flush` returns once each
    // has landed.
    pager.flush().expect("flush");
    cluster.handles()[0].crash();
    for i in 0..30u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("survives the crash"),
            Page::deterministic(i)
        );
    }
    // The reads went around the server; a load probe has no way around
    // it, and walks what is left of the retry ladder to the verdict.
    let metrics = pager.with_shard(0, |p| {
        p.pool_mut().refresh_loads();
        Arc::clone(p.metrics())
    });
    let (events, _) = metrics.events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Crash),
        "the pool traces the death"
    );
    let degraded: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::DegradedRead)
        .collect();
    assert!(!degraded.is_empty(), "degraded reads are traced");
    assert!(
        degraded
            .iter()
            .all(|e| e.outcome == "ok" && e.policy == Some(Policy::Mirroring)),
        "degraded events carry outcome and policy"
    );
    assert!(
        metrics.counter("pager_degraded_reads_total").get() > 0,
        "and the counter agrees"
    );
}

#[test]
fn get_stats_round_trips_through_the_pool() {
    let cluster = LocalCluster::spawn(2, 4096).expect("cluster");
    let pager = cluster
        .pager(PagerConfig::new(Policy::NoReliability).with_shard_count(1))
        .expect("pager");
    for i in 0..12u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Every pageout lands before the servers are asked what they hold.
    pager.flush().expect("flush");
    let json = pager.with_shard(0, |p| p.pool_mut().get_stats(ServerId(0)));
    let json = json.expect("get stats");
    for needle in [
        "\"schema\": \"rmp-server-v1\"",
        "server_requests_total",
        "server_request_latency_us",
        "server_stored_pages",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }
    // The two servers split the round-robin placement, so each reports a
    // non-zero occupancy.
    let stored: usize = cluster.handles().iter().map(|h| h.stored_pages()).sum();
    assert_eq!(stored, 12);
}

/// The prefixes of the metric families this repository exports.
const METRIC_PREFIXES: [&str; 6] = [
    "server_",
    "pool_",
    "pager_",
    "engine_",
    "detector_",
    "recovery_",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The metric names `source` registers or reads: the literal first
/// argument of a `counter(`, `gauge(` or `histogram(` call — directly or
/// through `format!` — up to any `{` of a label. A name ending in `_` is
/// a family completed at run time.
fn metric_literals(source: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for call in ["counter(", "gauge(", "histogram("] {
        for (at, _) in source.match_indices(call) {
            let arg = source[at + call.len()..].trim_start();
            let arg = arg.strip_prefix("&format!(").unwrap_or(arg);
            let Some(literal) = arg.strip_prefix('"') else {
                continue;
            };
            let name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
            let name = &literal[..literal.find(|c| !name_char(c)).unwrap_or(literal.len())];
            if METRIC_PREFIXES
                .iter()
                .any(|prefix| name.starts_with(prefix))
            {
                names.push(name);
            }
        }
    }
    names
}

#[test]
fn every_metric_in_the_code_is_catalogued() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let catalogue = std::fs::read_to_string(root.join("OBSERVABILITY.md")).expect("catalogue");
    // Names are catalogued as code spans, labels (`{srvN}`) and all.
    let catalogued: Vec<&str> = (catalogue.split('`').skip(1).step_by(2))
        .map(|span| span.split('{').next().unwrap_or(span))
        .collect();
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates") {
        let src = krate.expect("crate").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut missing = Vec::new();
    for file in &files {
        let source = std::fs::read_to_string(file).expect("source");
        for name in metric_literals(&source) {
            let known = match name.ends_with('_') {
                true => catalogued.iter().any(|c| c.starts_with(name)),
                false => catalogued.contains(&name),
            };
            if !known {
                missing.push(format!("{name} ({})", file.display()));
            }
        }
    }
    assert!(
        !files.is_empty() && missing.is_empty(),
        "metrics OBSERVABILITY.md does not list: {missing:#?}"
    );
}
