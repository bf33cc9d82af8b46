//! Concurrency endurance: aggregate paging throughput vs. client threads.
//!
//! Drives one shared [`ShardedPager`] from 1, 2, 4, and 8 threads over
//! in-memory transports with a fixed synthetic round trip per frame, so
//! the sharding win is deterministic even on a single-CPU host: a thread
//! sleeping out a round trip holds only its own shard's lock, and other
//! threads keep their own shards' wires full. A single thread pays every
//! round trip serially; `t` threads on disjoint shards pay them `t` ways
//! in parallel.
//!
//! Two series are measured:
//!
//! * **partitioned** — each thread owns a disjoint set of shard residues
//!   (the scaling claim; asserted in-process: >= 4x aggregate pageout
//!   throughput at 8 threads, pagein p99 within 2x of single-threaded).
//! * **contended** — every thread sweeps all shards (informational; shows
//!   what shard-lock collisions cost when placement is adversarial).
//!
//! Writes the `rmp-concurrency-bench-v1` JSON document
//! (`BENCH_concurrency.json`, or the path in `BENCH_OUT`) for CI to
//! schema-check and archive. `BENCH_PAGES` overrides the total workload
//! size; `FRAME_DELAY_US` the synthetic round trip (default 200 us).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::delay_pool;
use rmp_core::ShardedPager;
use rmp_types::{Page, PageId, PagerConfig, Policy};

/// Shard count for every configuration; 16 leaves headroom over the
/// largest thread count so the partitioned series stays collision-free.
const SHARDS: usize = 16;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Builds a sharded pager over `SHARDS` shards, each with its own pool
/// of two in-memory servers that charge one synthetic round trip per
/// call. Every pool owns its servers outright, so a sleeping thread
/// shares no lock with another shard's.
fn sharded_pager(round_trip: Duration) -> Arc<ShardedPager> {
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(2)
        .with_shard_count(SHARDS)
        .with_prefetch_window(0);
    Arc::new(
        ShardedPager::builder(config)
            .pools(
                (0..SHARDS)
                    .map(|_| delay_pool(2, round_trip, Duration::ZERO))
                    .collect(),
            )
            .build()
            .expect("build sharded pager"),
    )
}

/// Thread `t`'s `i`-th page id for a run with `threads` threads.
/// Partitioned: thread `t` owns shard residues `[t*span, (t+1)*span)`,
/// so no two threads ever touch the same shard. Contended: every thread
/// sweeps all residues. High bits keep ids unique across threads.
fn pid(t: usize, i: usize, threads: usize, partitioned: bool) -> PageId {
    let (residue, seq) = if partitioned {
        let span = SHARDS / threads;
        (t * span + (i % span), i / span)
    } else {
        (i % SHARDS, i / SHARDS)
    };
    PageId(((t as u64) << 40) | ((seq as u64) << 4) | residue as u64)
}

struct Run {
    threads: usize,
    pageout_pps: f64,
    pagein_pps: f64,
    pagein_p99_us: u64,
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    sorted[(sorted.len() * pct / 100).min(sorted.len() - 1)]
}

/// One measured configuration: `threads` threads split `total_pages`
/// evenly, page everything out, then page everything back in, through
/// one shared pager. Returns aggregate throughputs and the merged
/// pagein p99.
fn run(total_pages: usize, threads: usize, round_trip: Duration, partitioned: bool) -> Run {
    let pager = sharded_pager(round_trip);
    let per_thread = total_pages / threads;

    // Page contents are precomputed so the timed region holds only
    // paging work.
    let work: Vec<Vec<(PageId, Page)>> = (0..threads)
        .map(|t| {
            (0..per_thread)
                .map(|i| {
                    let id = pid(t, i, threads, partitioned);
                    (id, Page::deterministic(id.0))
                })
                .collect()
        })
        .collect();

    let started = Instant::now();
    let handles: Vec<_> = work
        .iter()
        .map(|chunk| {
            let pager = Arc::clone(&pager);
            let chunk = chunk.clone();
            std::thread::spawn(move || {
                for (id, page) in &chunk {
                    pager.page_out(*id, page).expect("pageout");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("pageout thread");
    }
    let pageout_pps = total_pages as f64 / started.elapsed().as_secs_f64();

    let started = Instant::now();
    let handles: Vec<_> = work
        .iter()
        .map(|chunk| {
            let pager = Arc::clone(&pager);
            let chunk = chunk.clone();
            std::thread::spawn(move || {
                let mut latencies_us = Vec::with_capacity(chunk.len());
                for (id, page) in &chunk {
                    let op = Instant::now();
                    let got = pager.page_in(*id).expect("pagein");
                    latencies_us.push(op.elapsed().as_micros() as u64);
                    assert_eq!(&got, page, "page {id:?} round-tripped");
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(total_pages);
    for h in handles {
        latencies.extend(h.join().expect("pagein thread"));
    }
    let pagein_pps = total_pages as f64 / started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Run {
        threads,
        pageout_pps,
        pagein_pps,
        pagein_p99_us: percentile(&latencies, 99),
    }
}

fn print_series(label: &str, runs: &[Run]) {
    println!("\n-- {label} --");
    println!(
        "{:<8} {:>14} {:>9} {:>14} {:>14}",
        "threads", "pageout p/s", "speedup", "pagein p/s", "pagein p99 us"
    );
    let base = runs[0].pageout_pps;
    for r in runs {
        println!(
            "{:<8} {:>14.0} {:>8.2}x {:>14.0} {:>14}",
            r.threads,
            r.pageout_pps,
            r.pageout_pps / base,
            r.pagein_pps,
            r.pagein_p99_us
        );
    }
}

fn series_json(runs: &[Run]) -> String {
    let base_out = runs[0].pageout_pps;
    let base_p99 = runs[0].pagein_p99_us.max(1);
    let rows: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"threads\": {}, \"pageout_pages_per_sec\": {:.1}, ",
                    "\"pageout_speedup\": {:.3}, \"pagein_pages_per_sec\": {:.1}, ",
                    "\"pagein_p99_us\": {}, \"pagein_p99_ratio\": {:.3}}}"
                ),
                r.threads,
                r.pageout_pps,
                r.pageout_pps / base_out,
                r.pagein_pps,
                r.pagein_p99_us,
                r.pagein_p99_us as f64 / base_p99 as f64
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn main() {
    let pages: usize = std::env::var("BENCH_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    let delay_us: u64 = std::env::var("FRAME_DELAY_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let round_trip = Duration::from_micros(delay_us);
    println!(
        "Sharded pager concurrency endurance \
         ({pages} pages total, {SHARDS} shards, {delay_us} us synthetic round trip)"
    );

    let partitioned: Vec<Run> = THREAD_COUNTS
        .iter()
        .map(|&t| run(pages, t, round_trip, true))
        .collect();
    print_series(
        "partitioned: disjoint shard residues per thread",
        &partitioned,
    );

    let contended: Vec<Run> = THREAD_COUNTS
        .iter()
        .map(|&t| run(pages, t, round_trip, false))
        .collect();
    print_series("contended: every thread sweeps all shards", &contended);

    // The tentpole claims, asserted on the partitioned series.
    let base = &partitioned[0];
    let at8 = partitioned.last().expect("8-thread run");
    let speedup = at8.pageout_pps / base.pageout_pps;
    assert!(
        speedup >= 4.0,
        "8-thread aggregate pageout throughput is {speedup:.2}x the \
         single-thread baseline; the sharded pager promises >= 4x"
    );
    let p99_ratio = at8.pagein_p99_us as f64 / base.pagein_p99_us.max(1) as f64;
    assert!(
        p99_ratio <= 2.0,
        "8-thread pagein p99 ({} us) is {p99_ratio:.2}x the single-thread \
         baseline ({} us); the bound is 2x",
        at8.pagein_p99_us,
        base.pagein_p99_us
    );
    println!(
        "\n8-thread pageout speedup {speedup:.2}x (floor 4x); \
         pagein p99 ratio {p99_ratio:.2}x (ceiling 2x)"
    );

    let json = format!(
        concat!(
            "{{\"schema\": \"rmp-concurrency-bench-v1\", \"pages\": {}, ",
            "\"frame_delay_us\": {}, \"shards\": {}, ",
            "\"partitioned\": {}, \"contended\": {}}}"
        ),
        pages,
        delay_us,
        SHARDS,
        series_json(&partitioned),
        series_json(&contended)
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_concurrency.json".into());
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
