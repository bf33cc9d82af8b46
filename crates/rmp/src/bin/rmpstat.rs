//! `rmpstat` — inspect the pager's reliability-cost table live.
//!
//! Runs the [`rmp::stat`] probes (a short deterministic workload per
//! policy against an in-process loopback cluster) and prints the
//! measured transfer costs next to the paper's closed-form cost table,
//! plus pageout/pagein latency percentiles from the pager's histograms.
//!
//! ```text
//! rmpstat                  # human-readable table, all policies
//! rmpstat --json           # one-shot rmp-policy-probe-v1 JSON
//! rmpstat --policy mirror  # probe a single policy
//! rmpstat --pages 64       # workload size (default 32)
//! rmpstat --watch 5        # redraw the table every 5 seconds
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use rmp::stat::{probe_all, probe_policy, probes_to_json, PolicyProbe};
use rmp::types::Policy;

struct Options {
    json: bool,
    pages: usize,
    policy: Option<Policy>,
    watch_secs: Option<u64>,
}

fn usage() -> &'static str {
    "usage: rmpstat [--json] [--pages N] [--policy NAME] [--watch SECS]\n\
     \n\
     Probes every reliability policy of the paper with a short loopback\n\
     workload and reports measured vs. expected transfer costs plus\n\
     latency percentiles.\n\
     \n\
     --json         emit the rmp-policy-probe-v1 JSON document\n\
     --pages N      pages per probe workload (default 32)\n\
     --policy NAME  probe one policy (mirror, parity, log, ...)\n\
     --watch SECS   re-probe and redraw every SECS seconds"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        pages: 32,
        policy: None,
        watch_secs: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--pages" => {
                let v = it.next().ok_or("--pages needs a value")?;
                opts.pages = v.parse().map_err(|_| format!("bad --pages {v:?}"))?;
                if opts.pages == 0 {
                    return Err("--pages must be positive".into());
                }
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                opts.policy = Some(Policy::from_str(v)?);
            }
            "--watch" => {
                let v = it.next().ok_or("--watch needs a value")?;
                opts.watch_secs = Some(v.parse().map_err(|_| format!("bad --watch {v:?}"))?);
            }
            "--help" | "-h" => return Err(usage().into()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn render_table(probes: &[PolicyProbe]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>2} {:>8} {:>14} {:>9} {:>15} {:>9} {:>8} {:>21} {:>21}\n",
        "policy",
        "S",
        "pageouts",
        "xfers/pageout",
        "expected",
        "degraded xfers",
        "expected",
        "pf hit%",
        "pageout p50/p99 us",
        "pagein p50/p99 us",
    ));
    for p in probes {
        let expected_degraded = match p.expected_degraded_transfers {
            Some(v) => format!("{v:.2}"),
            None => "-".into(),
        };
        let degraded = if p.degraded_reads > 0 {
            format!("{:.2}", p.measured_degraded_transfers)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<16} {:>2} {:>8} {:>14.2} {:>9.2} {:>15} {:>9} {:>7.1}% {:>10.0}/{:>10.0} {:>10.0}/{:>10.0}\n",
            p.policy.label(),
            p.servers,
            p.pageouts,
            p.measured_transfers_per_pageout,
            p.expected_transfers_per_pageout,
            degraded,
            expected_degraded,
            p.prefetch_hit_rate * 100.0,
            p.pageout_latency.p50_us(),
            p.pageout_latency.p99_us(),
            p.pagein_latency.p50_us(),
            p.pagein_latency.p99_us(),
        ));
    }
    out.push_str(
        "\ndetector (accrual suspicion per server at probe end; the crashed \
         server pins at the cap)\n",
    );
    for p in probes {
        let suspicion: Vec<String> = p
            .server_suspicion
            .iter()
            .map(|(id, s)| format!("srv{id} {s:.2}"))
            .collect();
        out.push_str(&format!(
            "{:<16} {}\n",
            p.policy.label(),
            suspicion.join("  ")
        ));
    }
    out
}

fn run_once(opts: &Options) -> Result<String, String> {
    let probes = match opts.policy {
        Some(policy) => vec![probe_policy(policy, opts.pages).map_err(|e| e.to_string())?],
        None => probe_all(opts.pages).map_err(|e| e.to_string())?,
    };
    Ok(if opts.json {
        probes_to_json(&probes)
    } else {
        render_table(&probes)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        match run_once(&opts) {
            Ok(report) => print!("{report}"),
            Err(msg) => {
                eprintln!("rmpstat: {msg}");
                return ExitCode::FAILURE;
            }
        }
        let Some(secs) = opts.watch_secs else {
            return ExitCode::SUCCESS;
        };
        println!();
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}
