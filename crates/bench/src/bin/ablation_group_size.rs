//! Ablation — parity-group size `S`.
//!
//! Section 2.2 derives the parity-logging overheads analytically:
//! `1 + 1/S` transfers per pageout and `(1 + 1/S)` remote memory. Bigger
//! groups amortize the parity page over more data but make recovery
//! fetch more survivors per lost page. This harness measures all three
//! effects on the real system across stripe widths.

use rmp::LocalCluster;
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId};

const PAGES: u64 = 800;

fn main() {
    println!("Ablation: parity-logging group size S ({PAGES} pages)\n");
    println!(
        "{:<4} {:>14} {:>12} {:>12} {:>16} {:>12}",
        "S", "xfers/pageout", "analytic", "mem ovhd", "rec xfers/page", "rec time"
    );
    for s in [2usize, 3, 4, 6, 8] {
        let cluster = LocalCluster::spawn(s + 1, 16384).expect("cluster");
        let config = PagerConfig::new(Policy::ParityLogging).with_servers(s);
        let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
        for i in 0..PAGES {
            pager
                .page_out(PageId(i), &Page::deterministic(i))
                .expect("pageout");
        }
        pager.flush().expect("flush");
        let measured = pager.stats().outbound_transfers_per_pageout();
        let analytic = Policy::ParityLogging.transfers_per_pageout(s);
        assert!(
            (measured - analytic).abs() < 0.05,
            "S={s}: measured {measured} vs analytic {analytic}"
        );
        // Crash one data server and measure recovery.
        cluster.handles()[0].crash();
        let before = pager.stats();
        let report = pager.recover_from_crash(ServerId(0)).expect("recovery")[0];
        let after = pager.stats();
        let rec_fetches = after.net_fetches - before.net_fetches;
        println!(
            "{:<4} {:>14.3} {:>12.3} {:>11.2}x {:>16.1} {:>9.1} ms",
            s,
            measured,
            analytic,
            Policy::ParityLogging.memory_overhead(s, 0.10),
            rec_fetches as f64 / report.pages_rebuilt.max(1) as f64,
            report.elapsed.as_secs_f64() * 1000.0,
        );
        // Verify integrity post-recovery.
        for i in (0..PAGES).step_by(7) {
            assert_eq!(
                pager.page_in(PageId(i)).expect("read"),
                Page::deterministic(i),
                "S={s} page {i}"
            );
        }
    }
    println!("\nthe trade-off the paper settles at S=4: transfer overhead has");
    println!("flattened (1.25x) while recovery still only reads S-1+1 pages per");
    println!("lost page.");
}
