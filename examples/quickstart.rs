//! Quickstart: page to remote memory, crash a server, lose nothing.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rmp::prelude::*;

fn main() -> Result<()> {
    // 1. Spin up four remote memory servers plus a parity server — all
    //    real TCP servers on loopback, each donating 4096 page frames of
    //    "idle DRAM" (32 MB).
    let cluster = LocalCluster::spawn(5, 4096)?;
    println!("cluster: {} servers", cluster.len());
    for (i, h) in cluster.handles().iter().enumerate() {
        println!("  srv{i} listening on {}", h.addr());
    }

    // 2. Build the pager with the paper's headline policy: parity logging
    //    over 4 data servers + 1 parity server, 10 % overflow memory.
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(4);
    let pager = cluster.pager(config)?;

    // 3. Page out a working set bigger than local memory and read a few
    //    pages back.
    println!("\npaging out 1000 pages (8 MB)...");
    for i in 0..1000u64 {
        pager.page_out(PageId(i), &Page::deterministic(i))?;
    }
    pager.flush()?; // Seal the last parity group.
    let stats = pager.stats();
    println!(
        "  {} pageouts -> {} data + {} parity transfers ({:.3} transfers/pageout)",
        stats.pageouts,
        stats.net_data_transfers,
        stats.net_parity_transfers,
        stats.outbound_transfers_per_pageout(),
    );

    // 4. Kill a workstation. In 1996 this was someone powering off their
    //    DECstation; here it is one method call. All pages it held are
    //    gone.
    println!(
        "\ncrashing srv2 (it held {} pages)...",
        cluster.handles()[2].stored_pages()
    );
    cluster.handles()[2].crash();

    // 5. Recovery: each of the pager's shards XORs its damaged parity
    //    groups back together and re-homes the lost pages on the
    //    survivors.
    let reports = pager.recover_from_crash(ServerId(2))?;
    let rebuilt: u64 = reports.iter().map(|r| r.pages_rebuilt).sum();
    let transfers: u64 = reports.iter().map(|r| r.transfers).sum();
    let elapsed: std::time::Duration = reports.iter().map(|r| r.elapsed).sum();
    println!("  rebuilt {rebuilt} pages with {transfers} transfers in {elapsed:?}");

    // 6. Every page is intact.
    for i in 0..1000u64 {
        assert_eq!(pager.page_in(PageId(i))?, Page::deterministic(i));
    }
    println!("\nall 1000 pages verified after the crash — no data lost.");
    Ok(())
}
