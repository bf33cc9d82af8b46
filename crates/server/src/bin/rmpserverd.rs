//! `rmpserverd` — the remote memory server daemon.
//!
//! The paper's deployment: every workstation willing to donate idle DRAM
//! runs a user-level server, and clients find them through a common
//! registration file. This binary is that daemon.
//!
//! ```text
//! rmpserverd [--port P] [--capacity-mb MB] [--overflow FRACTION]
//!            [--max-sessions N] [--window-cap N]
//! ```
//!
//! It prints its registry line (`<id> <host:port> <link-cost>`) on
//! startup so operators can append it to the cluster's common file, then
//! serves until killed. Sending SIGINT (ctrl-C) is an abrupt stop — the
//! crash the reliability policies are built to survive.

use std::net::TcpListener;

use rmp_server::{MemoryServer, ServerConfig};
use rmp_types::PAGE_SIZE;

struct Args {
    port: u16,
    capacity_mb: f64,
    overflow: f64,
    id: u32,
    max_sessions: usize,
    window_cap: usize,
}

fn parse_args() -> Result<Args, String> {
    let defaults = ServerConfig::default();
    let mut args = Args {
        port: 0,
        capacity_mb: 32.0,
        overflow: 0.10,
        id: 0,
        max_sessions: defaults.max_sessions,
        window_cap: defaults.window_cap,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--capacity-mb" => {
                args.capacity_mb = value("--capacity-mb")?
                    .parse()
                    .map_err(|e| format!("--capacity-mb: {e}"))?
            }
            "--overflow" => {
                args.overflow = value("--overflow")?
                    .parse()
                    .map_err(|e| format!("--overflow: {e}"))?
            }
            "--id" => args.id = value("--id")?.parse().map_err(|e| format!("--id: {e}"))?,
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--window-cap" => {
                args.window_cap = value("--window-cap")?
                    .parse()
                    .map_err(|e| format!("--window-cap: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: rmpserverd [--id N] [--port P] [--capacity-mb MB] [--overflow F] \
                     [--max-sessions N] [--window-cap N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmpserverd: {e}");
            std::process::exit(2);
        }
    };
    let capacity_pages = (args.capacity_mb * 1048576.0 / PAGE_SIZE as f64) as usize;
    // Spawn on the requested port by binding it first when nonzero.
    // MemoryServer::spawn picks its own port; for a fixed port we check
    // availability up front to fail fast with a clear message.
    if args.port != 0 {
        match TcpListener::bind(("127.0.0.1", args.port)) {
            Ok(probe) => drop(probe),
            Err(e) => {
                eprintln!("rmpserverd: port {} unavailable: {e}", args.port);
                std::process::exit(1);
            }
        }
    }
    let handle = match MemoryServer::spawn(ServerConfig {
        capacity_pages,
        overflow_fraction: args.overflow,
        simulated_cpu_permille: 0,
        max_sessions: args.max_sessions,
        window_cap: args.window_cap,
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rmpserverd: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# rmpserverd donating {} pages ({} MB) with {:.0}% overflow",
        capacity_pages,
        args.capacity_mb,
        args.overflow * 100.0
    );
    println!("# registry line (append to the cluster's common file):");
    println!("{} {} 1.0", args.id, handle.addr());
    // Serve until killed; report load once a minute like the paper's
    // periodic load information.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        eprintln!(
            "# stored={} served={} busy={:.1}%",
            handle.stored_pages(),
            handle.served_requests(),
            handle.busy_fraction() * 100.0
        );
    }
}
