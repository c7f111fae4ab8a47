//! Self-test of the benchmark: a tiny run of each workload prints every
//! metric `BENCHMARK.json` names, with its unit, and an altered expected
//! result fails the run.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 5] = [
    "fig4-grid",
    "consolidation-grid",
    "paper-suite",
    "rack",
    "serve",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = v
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

/// Runs the benchmark tiny; returns (exit code, parsed last stdout line,
/// parsed line before it if that is JSON).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Value, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", scratch(workload).to_str().expect("utf-8 path")])
        .args(extra)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let last = lines.next().unwrap_or_default();
    let before = lines.next().and_then(|l| serde_json::parse_value(l).ok());
    let v = serde_json::parse_value(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), v, before)
}

/// `(metric, workload)` from a traced run's `per_layer_sources` line.
fn sources(line: Option<Value>) -> Vec<(String, String)> {
    let Some(Value::Object(by_workload)) = line.as_ref().and_then(|v| v.get("per_layer_sources"))
    else {
        panic!("no per_layer_sources line: {line:?}");
    };
    let mut out: Vec<(String, String)> = by_workload
        .iter()
        .flat_map(|(w, names)| {
            names
                .as_array()
                .expect("metric list")
                .iter()
                .map(|n| (n.as_str().expect("metric name").to_string(), w.clone()))
        })
        .collect();
    out.sort();
    out
}

fn printed(v: &Value) -> Vec<(String, String)> {
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("no metrics object: {v:?}");
    };
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            (name.clone(), unit.to_string())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_prints_every_named_metric() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let (code, v, before) = run(w, trace, &[]);
            assert_eq!(code, 0, "{w} trace={trace}: {v:?}");
            assert!(
                matches!(v.get("correct"), Some(Value::Bool(true))),
                "{w}: {v:?}"
            );
            assert_eq!(&printed(&v), want, "{w} trace={trace}");
            if trace {
                // Every per-layer figure names the one workload it came from.
                let src = sources(before);
                let names: Vec<&String> = src.iter().map(|(n, _)| n).collect();
                let want_names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
                assert_eq!(names, want_names, "{w}: per_layer_sources");
                assert!(src
                    .iter()
                    .any(|(n, s)| s == w && n == "trace.overhead_frac"));
            }
        }
    }
}

#[test]
fn an_altered_expected_result_fails_the_run() {
    let path = repo_root().join("perfbench/expected/grid-cells.tsv");
    let text = std::fs::read_to_string(path).expect("expected cells");
    // Add one transition to the first tiny-scale Fig-4 cell.
    let mut altered = String::new();
    let mut done = false;
    for line in text.lines() {
        let mut f: Vec<String> = line.split('\t').map(String::from).collect();
        if !done && !line.starts_with('#') && f[0] == "10" {
            let t: u64 = f[4].parse().expect("transitions");
            f[4] = (t + 1).to_string();
            done = true;
        }
        altered.push_str(&f.join("\t"));
        altered.push('\n');
    }
    let altered_path = scratch("altered").join("grid-cells.tsv");
    std::fs::write(&altered_path, altered).expect("write altered copy");
    let arg = altered_path.to_str().expect("utf-8 path");

    let (code, v, _) = run("fig4-grid", false, &["--expected", arg]);
    assert_eq!(code, 1, "{v:?}");
    assert!(matches!(v.get("correct"), Some(Value::Bool(false))));
    assert!(v.get("failed").and_then(Value::as_u64).unwrap_or(0) > 0);

    let (code, v, _) = run("fig4-grid", true, &["--expected", arg]);
    assert_eq!(code, 1);
    let error_frac = v
        .get("metrics")
        .and_then(|m| m.get("error_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .expect("error_frac");
    assert!(error_frac > 0.0, "{v:?}");
}
