//! Section 2.2 — crash-recovery cost per reliability policy.
//!
//! The paper ranks the three costs of redundancy: runtime overhead,
//! memory overhead, and crash-recovery overhead ("not as important ...
//! since it is affordable to devote a few more seconds whenever a server
//! crashes"). This harness crashes a real server under each policy and
//! measures what recovery actually takes: the cost of serving pageins
//! *degraded* (straight from the surviving redundancy, before any rebuild
//! runs), then pages rebuilt, page transfers, and wall time for the full
//! recovery — alongside the policy's steady-state overheads.
//!
//! The first degraded read is timed alone too (`first_degraded_read_us`):
//! it is the read that finds the crash, and it is asserted to take less
//! than the retry ladder's first backoff — a read that can be served
//! around a failing holder does not wait for the verdict on it.
//!
//! The rebuild is then costed twice more per policy: `rebuild_us_per_page`
//! is the wall time above over the pages rebuilt, and
//! `round_trips_per_rebuilt_page` is [`bench::rebuild_round_trips`] — the
//! same rebuild over an emulated 5 ms link, where what counts is how many
//! times it waits for the wire, not how fast loopback is. The second is
//! asserted: basic parity gathers a chunk of stripes in one wave and
//! ships it in another (two round trips per sixteen pages, where a page
//! at a time cost two each), mirroring gathers a chunk and places page
//! by page, parity logging gathers a chunk of groups and re-logs member
//! by member.
//!
//! Results are also written as JSON (`BENCH_recovery.json`, or the path
//! in `BENCH_OUT`) so CI can archive them; `RECOVERY_PAGES` overrides the
//! resident-page count for smoke runs.

use std::time::Instant;

use rmp::LocalCluster;
use rmp_types::metrics::Histogram;
use rmp_types::{Page, PageId, PagerConfig, Policy, RetryPolicy, ServerId};

/// The most link round trips a rebuilt page may cost under `policy` over
/// [`bench::rebuild_round_trips`]' geometry (48 pages, groups of three,
/// five servers). Each bound sits between what the policy costs with a
/// gather per chunk and what it cost with one per page: basic parity 0.20
/// (two waves and an allocation for sixteen pages) against 2.15, mirroring
/// 1.14 against 2.06, parity logging 4.76 against 5.69 (its re-logs are
/// appends either way). Write-through reads its disk: 1.03, unbounded.
fn most_round_trips(policy: Policy) -> Option<f64> {
    match policy {
        Policy::BasicParity => Some(0.25),
        Policy::Mirroring => Some(1.6),
        Policy::ParityLogging => Some(5.3),
        _ => None,
    }
}

fn main() {
    let pages: u64 = std::env::var("RECOVERY_PAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500);
    println!("Crash recovery cost per reliability policy ({pages} pages resident)\n");
    println!(
        "{:<15} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>10}",
        "policy",
        "xfers/out",
        "mem ovhd",
        "deg xfers",
        "1st deg us",
        "rebuilt",
        "rec xfers",
        "rec time",
        "us/page",
        "RTTs/page",
        "data loss"
    );
    let mut json_rows: Vec<String> = Vec::new();
    for policy in [
        Policy::NoReliability,
        Policy::ParityLogging,
        Policy::BasicParity,
        Policy::Mirroring,
        Policy::WriteThrough,
        Policy::ErasureCoded,
    ] {
        // Erasure coding stripes (2, 1) splits — `servers` is its `k` —
        // and needs a fourth server to re-home a lost split on.
        let servers = match policy {
            Policy::BasicParity | Policy::ParityLogging => 4,
            _ => 2,
        };
        let pool_size = match policy {
            Policy::BasicParity | Policy::ParityLogging => servers + 1,
            Policy::ErasureCoded => servers + 2,
            _ => servers,
        };
        let cluster = LocalCluster::spawn(pool_size, 16384).expect("cluster");
        // One shard: its pool's wire counters see every transfer.
        let config = PagerConfig::new(policy).with_servers(servers);
        let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
        let wire_transfers = || pager.with_shard(0, |p| p.pool().wire_transfers());
        for i in 0..pages {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("pageout");
        }
        pager.flush().expect("flush");
        let overhead = pager.stats().outbound_transfers_per_pageout();
        // Crash the server holding the most pages; on a tie prefer the
        // lowest index, so parity policies lose a data server (reads then
        // actually exercise the degraded path) rather than the parity
        // column parked on the highest-numbered server.
        let victim = (0..pool_size)
            .max_by_key(|&i| (cluster.handles()[i].stored_pages(), std::cmp::Reverse(i)))
            .expect("nonempty");
        cluster.handles()[victim].crash();
        // Degraded reads first: pageins naming the dead server are served
        // from redundancy at per-page cost, before any rebuild runs.
        let mut degraded = 0u64;
        let mut degraded_transfers = 0u64;
        // Same fixed-bucket histogram the pager exports at runtime, so
        // this bench and `rmpstat` share one latency schema.
        let degraded_latency = Histogram::default();
        let mut first_degraded_us = 0.0;
        if policy.survives_single_crash() {
            for i in 0..pages {
                let before = pager.stats().degraded_reads;
                let wire = wire_transfers();
                let t = Instant::now();
                let page = pager.page_in(PageId(i)).expect("degraded read");
                let took = t.elapsed();
                assert_eq!(page, Page::deterministic(i), "{policy}: degraded content");
                if pager.stats().degraded_reads > before {
                    if degraded == 0 {
                        first_degraded_us = took.as_secs_f64() * 1e6;
                    }
                    degraded += 1;
                    degraded_transfers += wire_transfers() - wire;
                    degraded_latency.record(took);
                    if degraded >= 32 {
                        break;
                    }
                }
            }
        }
        let deg_per_read = if degraded > 0 {
            degraded_transfers as f64 / degraded as f64
        } else {
            0.0
        };
        let degraded_snapshot = degraded_latency.snapshot();
        let deg_ms_per_read = degraded_snapshot.mean_us() / 1e3;
        let first_backoff = RetryPolicy::default().base_backoff;
        if policy.survives_single_crash() {
            assert!(
                first_degraded_us < first_backoff.as_secs_f64() * 1e6,
                "{policy}: the first degraded read took {first_degraded_us:.0} us, \
                 at least the ladder's first backoff ({first_backoff:?})"
            );
        }
        if policy == Policy::BasicParity {
            cluster.handles()[victim].restart();
            pager.reconnect(ServerId(victim as u32)).expect("reconnect");
        }
        let outcome = pager.recover_from_crash(ServerId(victim as u32));
        let outcome = outcome.map(|reports| reports[0]);
        match outcome {
            Ok(report) => {
                // Verify everything afterwards.
                let mut intact = true;
                for i in 0..pages {
                    if pager.page_in(PageId(i)).ok().as_ref() != Some(&Page::deterministic(i)) {
                        intact = false;
                        break;
                    }
                }
                let rebuild_us = report.elapsed.as_secs_f64() * 1e6;
                let us_per_page = rebuild_us / report.total_rebuilt().max(1) as f64;
                let trips = bench::rebuild_round_trips(policy).expect("rebuild round trips");
                println!(
                    "{:<15} {:>9.2} {:>9.2}x {:>10.2} {:>10.0} {:>10} {:>10} {:>9.1} ms {:>9.1} {:>9.2} {:>10}",
                    policy.label(),
                    overhead,
                    policy.memory_overhead(servers, 0.10),
                    deg_per_read,
                    first_degraded_us,
                    report.total_rebuilt(),
                    report.transfers,
                    rebuild_us / 1000.0,
                    us_per_page,
                    trips,
                    if intact { "none" } else { "CORRUPT" },
                );
                assert!(intact, "{policy}: data intact after recovery");
                if let Some(most) = most_round_trips(policy) {
                    assert!(
                        trips <= most,
                        "{policy}: {trips:.2} round trips per rebuilt page, at most {most} expected"
                    );
                }
                json_rows.push(format!(
                    "    {{\"policy\": \"{}\", \"transfers_per_pageout\": {:.4}, \
                     \"memory_overhead\": {:.4}, \"degraded_reads\": {}, \
                     \"degraded_transfers_per_read\": {:.4}, \
                     \"degraded_ms_per_read\": {:.4}, \
                     \"first_degraded_read_us\": {:.1}, \
                     \"degraded_latency_us\": {}, \"pages_rebuilt\": {}, \
                     \"recovery_transfers\": {}, \"recovery_ms\": {:.3}, \
                     \"rebuild_us_per_page\": {:.3}, \
                     \"round_trips_per_rebuilt_page\": {:.4}, \
                     \"data_loss\": false}}",
                    policy.label(),
                    overhead,
                    policy.memory_overhead(servers, 0.10),
                    degraded,
                    deg_per_read,
                    deg_ms_per_read,
                    first_degraded_us,
                    degraded_snapshot.to_json(),
                    report.total_rebuilt(),
                    report.transfers,
                    rebuild_us / 1000.0,
                    us_per_page,
                    trips,
                ));
            }
            Err(e) => {
                println!(
                    "{:<15} {:>9.2} {:>9.2}x {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>10}",
                    policy.label(),
                    overhead,
                    policy.memory_overhead(servers, 0.10),
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "ALL LOST",
                );
                assert!(
                    policy == Policy::NoReliability,
                    "only no-reliability may lose data, got {e} under {policy}"
                );
                json_rows.push(format!(
                    "    {{\"policy\": \"{}\", \"transfers_per_pageout\": {:.4}, \
                     \"memory_overhead\": {:.4}, \"degraded_reads\": 0, \
                     \"degraded_transfers_per_read\": 0, \"degraded_ms_per_read\": 0, \
                     \"pages_rebuilt\": 0, \"recovery_transfers\": 0, \
                     \"recovery_ms\": 0, \"data_loss\": true}}",
                    policy.label(),
                    overhead,
                    policy.memory_overhead(servers, 0.10),
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"pages\": {pages},\n  \"policies\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_recovery.json".into());
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out}");
    println!("\npaper's trade-off, measured: mirroring recovers with the fewest");
    println!("transfers but pays 2x memory and 2 transfers per pageout; parity");
    println!("logging pays 1+1/S per pageout and ~1.1x memory, recovering each");
    println!("lost page from S-1 members plus parity.");
}
