//! `--compare A.jsonl B.jsonl` and `--spread A.jsonl`: medians, spreads
//! and verdicts over sets of `--out` lines, against the bounds of
//! [`END_TO_END`].

use std::collections::BTreeMap;

use crate::est::quartiles;
use crate::json::{parse, Value};
use crate::spec::{END_TO_END, WORKLOADS};

/// One side: per workload, per metric, the values of its runs, plus the
/// failed and attempted op totals.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, (f64, f64)>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| format!("{path}:{}: no \"{name}\"", n + 1))
        };
        // Per-layer lines carry no judged metric.
        if field("trace")?.num() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        let totals = side.failed.entry(workload.clone()).or_default();
        totals.0 += field("failed")?.num().unwrap_or(0.0);
        totals.1 += field("attempted")?.num().unwrap_or(0.0);
        let metrics = field("metrics")?;
        for name in metrics.keys() {
            if let Some(x) = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Value::num)
            {
                side.values
                    .entry((workload.clone(), name.to_string()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(side)
}

/// `(median, IQR / median, (max − min) / median)` of a metric's runs.
/// The first spread is the one the accepting driver computes; the
/// second is the stricter one this benchmark's own report shows.
fn spread(values: &[f64]) -> (f64, f64, f64) {
    let (q1, med, q3, lo, hi) = quartiles(values);
    if med == 0.0 {
        return (med, 0.0, 0.0);
    }
    (med, (q3 - q1) / med, (hi - lo) / med)
}

/// Prints the repeatability table of one set of runs (markdown).
pub fn spread_report(path: &str) -> Result<(), String> {
    let side = load(path)?;
    println!("| workload | metric | runs | median | IQR/median | (max-min)/median | bound |");
    println!("|---|---|---:|---:|---:|---:|---:|");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let Some(values) = side.values.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            let (med, iqr, range) = spread(values);
            println!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} |",
                w.name,
                m.name,
                values.len(),
                med,
                iqr,
                range,
                m.bound
            );
        }
    }
    Ok(())
}

/// Prints medians per side and a verdict per row; `Ok(true)` when some
/// row is `worse`.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<30} {:<28} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "iqr A", "iqr B"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let (med_a, iqr_a, _) = spread(va);
            let (med_b, iqr_b, _) = spread(vb);
            // Every end-to-end metric is lower-is-better.
            let change = if med_a == 0.0 {
                0.0
            } else {
                (med_b - med_a) / med_a
            };
            let verdict = if iqr_a > m.bound || iqr_b > m.bound {
                "unresolved"
            } else if change > m.bound {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<30} {:<28} {:>12.4} {:>12.4} {:>+7.1}% {:>6.2} {:>7.4} {:>7.4}  {}",
                w.name,
                m.name,
                med_a,
                med_b,
                change * 100.0,
                m.bound,
                iqr_a,
                iqr_b,
                verdict
            );
        }
        let share = |side: &Side| {
            side.failed
                .get(w.name)
                .map_or(0.0, |&(failed, attempted)| failed / attempted.max(1.0))
        };
        println!(
            "{:<30} failed-op share: A {:.6}, B {:.6}",
            w.name,
            share(&a),
            share(&b)
        );
    }
    Ok(any_worse)
}
