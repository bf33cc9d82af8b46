//! `e2e` — one costed page fault.
//!
//! Runs a named workload over real TCP memory servers through
//! `ShardedPager`, checks every page it reads back, and prints every
//! metric by name and unit, then one JSON line. See `README.md`.

mod alloc;
mod compare;
mod env;
mod est;
mod json;
mod kernels;
mod link;
mod load;
mod run;
mod spec;
mod sys;
mod trace;

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use run::{Budget, Outcome};
use spec::{Shape, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
           [--trace-out FILE] [--rounds-out FILE] [--out FILE] [--no-pin]
       e2e --smoke
       e2e --compare A.jsonl B.jsonl
       e2e --spread A.jsonl
       e2e --list";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    rounds_out: Option<String>,
    out: Option<String>,
    pin: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
        rounds_out: None,
        out: None,
        pin: true,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--rounds-out" => args.rounds_out = Some(value()?),
            "--out" => args.out = Some(value()?),
            "--no-pin" => args.pin = false,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn print_metrics(o: &Outcome) {
    for (name, unit, value) in &o.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "not-a-git-checkout".to_string(),
            |s| s.trim().to_string(),
        )
}

/// What a reader needs to reproduce a number, carried by every `--out`
/// line.
fn header_json(w: &Workload, args: &Args, seconds: f64, pinned: Option<usize>) -> String {
    format!(
        "{{\"git_sha\": \"{}\", \"nproc\": {}, \"pinned_cpu\": {}, \"profile\": \"{}\", \
         \"link\": \"{}\", \"seed\": {}, \"seconds\": {}, \"estimator\": \"p{} nearest rank of \
         per-round series, at least the second fastest; {} ops/round/thread, {} warm-up \
         rounds, {} set-ups\"}}",
        git_sha(),
        sys::allowed_cpus().len(),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if w.lan {
            "1 ms one-way delay line, replies undelayed"
        } else {
            "none (loopback)"
        },
        args.seed,
        seconds,
        est::FAST_PCT,
        w.ops_per_round,
        w.warmup_rounds,
        w.setups,
    )
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let w = Workload::named(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })?;
    // Before any thread exists, so every thread inherits the mask: a
    // cross-CPU wake-up costs more than the whole loopback data path.
    let nproc = sys::allowed_cpus().len();
    let pinned = args.pin.then(sys::pin_to_one_cpu).flatten();
    let seconds = args.seconds.unwrap_or(15.0);
    println!(
        "{} seed {} {} s trace {} | {} allowed CPUs, pinned to {}",
        w.name,
        args.seed,
        seconds,
        u8::from(args.trace),
        nproc,
        pinned.map_or("none".to_string(), |c| format!("CPU {c}")),
    );
    let budget = Budget::Time(Duration::from_secs_f64(seconds));
    let outcome = if args.trace {
        run::per_layer(&w, args.seed, budget, args.trace_out.as_deref())?
    } else {
        run::end_to_end(&w, args.seed, budget, args.rounds_out.as_deref())?
    };
    print_metrics(&outcome);
    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        let line = format!(
            "{{\"header\": {}, \"workload\": \"{}\", \"trace\": {}, {}\n",
            header_json(&w, args, seconds, pinned),
            w.name,
            u8::from(args.trace),
            &result[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Every workload at a few hundred ops, both passes, with the checks
/// that need no clock: correctness, the policies' closed forms, and an
/// op stream that depends on the seed alone.
fn smoke() -> Result<ExitCode, String> {
    sys::pin_to_one_cpu();
    let mut ok = true;
    let mut check = |what: String, pass: bool| {
        if !pass {
            println!("SMOKE FAILED: {what}");
            ok = false;
        }
    };
    for w in WORKLOADS.iter().map(|w| w.smoke()) {
        let rounds = match w.shape {
            Shape::Gauss { .. } | Shape::Crash { .. } => 2,
            Shape::Mix { .. } => 256 / (w.ops_per_round * w.threads as u64),
        };
        let e2e = run::end_to_end(&w, 7, Budget::Rounds(rounds), None)?;
        let traced = run::per_layer(&w, 7, Budget::Rounds(rounds), None)?;
        println!("smoke {} e2e {}", w.name, result_json(&e2e));
        println!("smoke {} layers {}", w.name, result_json(&traced));
        for o in [&e2e, &traced] {
            check(format!("{}: {} ops failed", w.name, o.failed), o.correct());
        }
        check(
            format!("{}: same seed, different op stream", w.name),
            e2e.stream_hash == traced.stream_hash && e2e.attempted == traced.attempted,
        );
        let ops = (e2e.pageins + e2e.pageouts) as f64;
        let closed_form = match (w.config)().policy {
            rmp_types::Policy::NoReliability => Some((1.0, 1.0)),
            // (4, 1): five split frames out, four in, five store entries.
            rmp_types::Policy::ErasureCoded => {
                Some(((5 * e2e.pageouts + 4 * e2e.pageins) as f64 / ops, 5.0))
            }
            _ => None,
        };
        if let Some((transfers, stored)) = closed_form {
            let got = (
                e2e.metric("wire_transfers_per_op"),
                e2e.metric("stored_pages_per_user_page"),
            );
            check(
                format!(
                    "{}: transfers/op, stored/page {got:?} != ({transfers}, {stored})",
                    w.name
                ),
                got == (transfers, stored),
            );
        }
        if !matches!(w.shape, Shape::Crash { .. }) {
            for name in ["pool.retries", "pool.hedged_pageins"] {
                check(
                    format!(
                        "{}: {name} = {} on a fault-free workload",
                        w.name,
                        traced.metric(name)
                    ),
                    traced.metric(name) == 0.0,
                );
            }
        }
    }
    Ok(if ok {
        println!("smoke ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The tables as JSON, for `tests/smoke.rs` to hold against
/// `BENCHMARK.json`.
fn list() {
    let metrics = |table: &[spec::Metric]| -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect();
        rows.join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    println!(
        "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
        workloads.join(", "),
        metrics(&spec::END_TO_END),
        metrics(&spec::PER_LAYER)
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        Some("--list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("--spread") if argv.len() == 2 => {
            compare::spread_report(&argv[1]).map(|()| ExitCode::SUCCESS)
        }
        Some("--compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]).map(|worse| {
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }),
        _ => parse_args(&argv).and_then(|args| run_workload(&args)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
