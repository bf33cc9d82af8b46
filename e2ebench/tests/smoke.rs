//! Drives the built `e2e` binary: every workload at a few hundred ops
//! (`--smoke`, which itself checks correctness, the policies' closed
//! forms and that the op stream depends on the seed alone), and the
//! binary's tables against `BENCHMARK.json`.

use std::process::Command;

#[path = "../src/json.rs"]
mod json;

use json::Value;

fn e2e(arg: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .arg(arg)
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "e2e {arg} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

fn names(table: &Value) -> Vec<String> {
    items(table)
        .iter()
        .map(|row| {
            row.get("name")
                .and_then(Value::str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn tables_equal_benchmark_json() {
    let listed = json::parse(&e2e("--list")).expect("--list prints JSON");
    let committed = benchmark_json();
    for table in ["workloads", "end_to_end", "per_layer"] {
        let (ours, theirs) = (listed.get(table), committed.get(table));
        assert!(ours.is_some(), "--list has no {table}");
        if table == "per_layer" {
            // Per-layer metrics carry no bound in BENCHMARK.json.
            let strip = |v: &Value| -> Vec<Value> {
                items(v)
                    .iter()
                    .map(|row| match row {
                        Value::Object(m) => {
                            let mut m = m.clone();
                            m.remove("bound");
                            Value::Object(m)
                        }
                        other => other.clone(),
                    })
                    .collect()
            };
            assert_eq!(
                ours.map(strip),
                theirs.map(strip),
                "per_layer differs from BENCHMARK.json"
            );
        } else {
            assert_eq!(ours, theirs, "{table} differs from BENCHMARK.json");
        }
    }
    for w in items(committed.get("workloads").expect("workloads")) {
        let why = w.get("why").and_then(Value::str).expect("a why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
}

#[test]
fn smoke_runs_every_workload_and_prints_every_metric() {
    let committed = benchmark_json();
    let workloads = names(committed.get("workloads").expect("workloads"));
    let mut end_to_end = names(committed.get("end_to_end").expect("end_to_end"));
    let mut per_layer = names(committed.get("per_layer").expect("per_layer"));
    end_to_end.sort();
    per_layer.sort();

    let started = std::time::Instant::now();
    let out = e2e("--smoke");
    let elapsed = started.elapsed();
    let mut seen = Vec::new();
    for line in out.lines() {
        let Some(rest) = line.strip_prefix("smoke ") else {
            continue;
        };
        let mut parts = rest.splitn(3, ' ');
        let (Some(workload), Some(pass), Some(result)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let result = json::parse(result).expect("a result line is JSON");
        assert_eq!(
            result.keys(),
            ["attempted", "correct", "failed", "metrics"],
            "{workload} {pass}: result keys"
        );
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload} {pass}"
        );
        assert_eq!(
            result.get("failed").and_then(Value::num),
            Some(0.0),
            "{workload} {pass}"
        );
        assert!(result.get("attempted").and_then(Value::num) >= Some(1.0));
        let printed = result.get("metrics").expect("metrics").keys();
        let expected = if pass == "e2e" {
            &end_to_end
        } else {
            &per_layer
        };
        assert_eq!(&printed, expected, "{workload} {pass}: metric names");
        seen.push(format!("{workload} {pass}"));
    }
    let expected: Vec<String> = workloads
        .iter()
        .flat_map(|w| [format!("{w} e2e"), format!("{w} layers")])
        .collect();
    assert_eq!(seen, expected, "one e2e and one layers line per workload");
    assert!(out.contains("smoke ok"));
    // Ten seconds is the budget for an optimised build; a debug build
    // (plain `cargo test`) gets the same work and more time.
    let budget = if cfg!(debug_assertions) { 60 } else { 10 };
    assert!(elapsed.as_secs() < budget, "smoke took {elapsed:?}");
}
