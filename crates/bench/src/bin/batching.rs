//! A gather of plain reads vs. one call per page, measured.
//!
//! Drives the pool's gather and the pager's stride prefetcher over an
//! in-memory transport with a fixed per-burst delay (a synthetic round
//! trip), so the win is deterministic: a burst of reads pays the round
//! trip once plus a small per-frame serialization cost, while single-page
//! calls pay the round trip every time.
//!
//! Writes the `rmp-batching-bench-v1` JSON document (`BENCH_batching.json`,
//! or the path in `BENCH_OUT`) for CI to schema-check and archive, and
//! asserts the claim in-process: gathered pagein throughput is at least
//! 2x the one-call-a-page baseline for every burst width >= 8 (`batch` in
//! the document), and the prefetcher wins every policy's sequential scan.
//!
//! `BENCH_PAGES` overrides the workload size; `FRAME_DELAY_US` the
//! synthetic round trip (default 200 us).

use std::time::{Duration, Instant};

use bench::{delay_pool, one_shard};
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId, StoreKey};

/// Wire serialization cost charged per frame inside a pipelined burst.
const PER_FRAME: Duration = Duration::from_micros(20);

fn pages_per_sec(pages: usize, elapsed: Duration) -> f64 {
    pages as f64 / elapsed.as_secs_f64()
}

struct BatchRow {
    batch: usize,
    pagein_pps: f64,
    pagein_speedup: f64,
}

/// Pool-level comparison: `pages` single-frame pageins vs. the same
/// reads gathered `batch` to a wave, across burst widths.
fn bench_pool(pages: usize, round_trip: Duration) -> (f64, Vec<BatchRow>) {
    let reads: Vec<(ServerId, StoreKey)> = (0..pages as u64)
        .map(|key| (ServerId(0), StoreKey(key)))
        .collect();
    let preloaded = || {
        let mut pool = delay_pool(1, round_trip, PER_FRAME);
        for &(server, key) in &reads {
            pool.page_out(server, key, &Page::deterministic(key.0))
                .expect("page_out");
        }
        pool
    };

    let mut pool = preloaded();
    let started = Instant::now();
    for &(server, key) in &reads {
        pool.page_in(server, key).expect("page_in");
    }
    let unbatched = pages_per_sec(pages, started.elapsed());

    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 8, 16, 32] {
        let mut pool = preloaded();
        let started = Instant::now();
        for chunk in reads.chunks(batch) {
            let got = pool.page_in_wave(chunk).expect("gather");
            assert!(got.iter().all(|p| p.is_some()), "every page came back");
        }
        let pagein_pps = pages_per_sec(pages, started.elapsed());
        rows.push(BatchRow {
            batch,
            pagein_pps,
            pagein_speedup: pagein_pps / unbatched,
        });
    }
    (unbatched, rows)
}

struct PolicyRow {
    policy: Policy,
    demand_pps: f64,
    prefetch_pps: f64,
    speedup: f64,
    prefetch_hits: u64,
}

/// End-to-end read path per policy: a sequential pagein scan with the
/// stride prefetcher (windowed read-ahead) vs. `prefetch_window = 0`
/// (one demand fetch per page).
fn bench_policy(policy: Policy, pages: usize, round_trip: Duration) -> PolicyRow {
    let data_servers = 4usize;
    let cluster_n = match policy {
        Policy::BasicParity | Policy::ParityLogging => data_servers + 1,
        _ => data_servers,
    };
    let scan = |window: usize| -> (Duration, u64) {
        let pool = delay_pool(cluster_n, round_trip, PER_FRAME);
        let config = PagerConfig::new(policy)
            .with_servers(data_servers)
            .with_prefetch_window(window);
        let pager = one_shard(config, pool).expect("pager");
        for i in 0..pages as u64 {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("pageout");
        }
        pager.flush().expect("flush");
        let started = Instant::now();
        for i in 0..pages as u64 {
            assert_eq!(
                pager.page_in(PageId(i)).expect("pagein"),
                Page::deterministic(i)
            );
        }
        let elapsed = started.elapsed();
        let hits = pager.with_shard(0, |p| {
            p.metrics().counter("pager_prefetch_hits_total").get()
        });
        (elapsed, hits)
    };
    let (demand_elapsed, demand_hits) = scan(0);
    assert_eq!(demand_hits, 0, "window 0 disables the prefetcher");
    let (prefetch_elapsed, prefetch_hits) = scan(16);
    let demand_pps = pages_per_sec(pages, demand_elapsed);
    let prefetch_pps = pages_per_sec(pages, prefetch_elapsed);
    PolicyRow {
        policy,
        demand_pps,
        prefetch_pps,
        speedup: prefetch_pps / demand_pps,
        prefetch_hits,
    }
}

fn main() {
    let pages: usize = std::env::var("BENCH_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let delay_us: u64 = std::env::var("FRAME_DELAY_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let round_trip = Duration::from_micros(delay_us);
    println!(
        "Gathered reads vs. one call a page \
         ({pages} pages, {delay_us} us synthetic round trip)\n"
    );

    let (unbatched, rows) = bench_pool(pages, round_trip);
    println!("-- pool level: one server, one call per page vs. bursts of plain reads --");
    println!("{:<10} {:>14} {:>10}", "burst", "pagein p/s", "speedup");
    println!("{:<10} {:>14.0} {:>9.2}x", "single", unbatched, 1.0);
    for r in &rows {
        println!(
            "{:<10} {:>14.0} {:>9.2}x",
            r.batch, r.pagein_pps, r.pagein_speedup
        );
        if r.batch >= 8 {
            assert!(
                r.pagein_speedup >= 2.0,
                "burst of {} pagein speedup {:.2}x fell below the 2x floor",
                r.batch,
                r.pagein_speedup
            );
        }
    }

    let policies = [
        Policy::NoReliability,
        Policy::Mirroring,
        Policy::BasicParity,
        Policy::ParityLogging,
    ];
    println!("\n-- pager level: sequential scan, demand reads vs. stride prefetch --");
    println!(
        "{:<16} {:>13} {:>14} {:>9} {:>7}",
        "policy", "demand p/s", "prefetch p/s", "speedup", "hits"
    );
    let mut policy_rows = Vec::new();
    for policy in policies {
        let row = bench_policy(policy, pages, round_trip);
        println!(
            "{:<16} {:>13.0} {:>14.0} {:>8.2}x {:>7}",
            row.policy.label(),
            row.demand_pps,
            row.prefetch_pps,
            row.speedup,
            row.prefetch_hits
        );
        assert!(
            row.prefetch_hits > 0,
            "{}: sequential scan never hit the prefetch cache",
            row.policy.label()
        );
        assert!(
            row.speedup > 1.2,
            "{}: prefetch speedup {:.2}x is not a win",
            row.policy.label(),
            row.speedup
        );
        policy_rows.push(row);
    }

    let batch_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"batch\": {}, \"pagein_pages_per_sec\": {:.1}, \"pagein_speedup\": {:.3}}}",
                r.batch, r.pagein_pps, r.pagein_speedup
            )
        })
        .collect();
    let policy_json: Vec<String> = policy_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"policy\": \"{}\", \"demand_pages_per_sec\": {:.1}, ",
                    "\"prefetch_pages_per_sec\": {:.1}, \"speedup\": {:.3}, ",
                    "\"prefetch_hits\": {}}}"
                ),
                r.policy.label(),
                r.demand_pps,
                r.prefetch_pps,
                r.speedup,
                r.prefetch_hits
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\"schema\": \"rmp-batching-bench-v1\", \"pages\": {}, ",
            "\"frame_delay_us\": {}, ",
            "\"unbatched\": {{\"pagein_pages_per_sec\": {:.1}}}, ",
            "\"batched\": [{}], \"policies\": [{}]}}"
        ),
        pages,
        delay_us,
        unbatched,
        batch_json.join(", "),
        policy_json.join(", ")
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_batching.json".into());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
}
