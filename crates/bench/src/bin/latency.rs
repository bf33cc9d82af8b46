//! Sections 3.1 and 4.4 — per-page latency breakdown.
//!
//! The paper's numbers: 8.4 ms to move an 8 KB page over the Ethernet vs
//! ~17 ms to/from the disk (Section 3.1); end-to-end paging latency of
//! 11.24 ms per transfer = 1.6 ms protocol processing + 9.64 ms wire time
//! (Section 4.4); and, for contrast, the 45 ms/4 KB of the Mach-based
//! Schilit-Duchamp system. This harness prints the model's decomposition
//! and measures our real implementation's software latency on loopback.

use rmp_types::{Hw1996, Page, PageId, PagerConfig, Policy};

fn model_table() {
    let hw = Hw1996::default();
    println!("-- 1996 model (8 KB page) --");
    println!(
        "  raw wire time (10 Mbit/s)         : {:>6.2} ms",
        hw.raw_wire_ms()
    );
    println!(
        "  TCP/IP protocol processing        : {:>6.2} ms  (paper: 1.6)",
        hw.pptime_ms
    );
    println!(
        "  wire + medium access              : {:>6.2} ms  (paper: 9.64)",
        hw.wire_ms_per_page
    );
    println!(
        "  end-to-end network page transfer  : {:>6.2} ms  (paper: 11.24)",
        hw.net_ms_per_page()
    );
    println!(
        "  disk page transfer under paging   : {:>6.2} ms  (paper: ~17)",
        hw.disk_ms_per_page
    );
    println!(
        "  random disk access (seek+rot+xfer): {:>6.2} ms",
        hw.random_disk_access_ms()
    );
    println!(
        "  network:disk advantage            : {:>6.2}x",
        hw.disk_ms_per_page / hw.net_ms_per_page()
    );
    println!("\n-- comparison with Schilit-Duchamp (Mach 2.5, 386, 4 KB) --");
    println!("  their pagein: 45 ms = 19 TCP + 4 Mach IPC + 7.2 wire + rest I/O bus");
    println!("  our software latency: 1.6 ms (block driver, no IPC, fast Alpha bus)");
}

fn measured_loopback() {
    use rmp::LocalCluster;
    let cluster = LocalCluster::spawn(2, 4096).expect("cluster");
    let config = PagerConfig::new(Policy::NoReliability).with_servers(2);
    let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
    // Warm up connections and measure round trips.
    let n = 2000u64;
    for i in 0..n {
        pager
            .page_out(PageId(i % 64), &Page::deterministic(i))
            .expect("pageout");
    }
    let start = std::time::Instant::now();
    for i in 0..n {
        pager.page_in(PageId(i % 64)).expect("pagein");
    }
    let per_page_us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    println!("\n-- measured on this machine (loopback TCP, real protocol) --");
    println!("  mean pagein round trip            : {per_page_us:>8.1} us");
    println!("  (no 10 Mbit/s wire in the path; this is the software overhead");
    println!("   the paper quotes as 1.6 ms on a 150 MHz Alpha)");
}

fn main() {
    println!("Sections 3.1 / 4.4: the latency of remote memory paging\n");
    model_table();
    measured_loopback();
}
