//! perfbench: hvx's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fig4-grid|consolidation-grid|paper-suite|rack|serve>
//!           --seed N --seconds S --trace 0|1 [--tiny] [--expected FILE] [--out DIR]
//! perfbench --write-expected FILE
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`; the line before it then names the workload each per-layer
//! figure came from). A failed check makes `correct` false and the exit
//! code 1; a usage or set-up error exits 2 without a result.

mod common;
mod grid;
mod rack;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use common::{Config, Outcome};
use stats::{median, Metrics};
use trace::Tracer;

const WORKLOADS: [&str; 5] = [
    "fig4-grid",
    "consolidation-grid",
    "paper-suite",
    "rack",
    "serve",
];

/// End-to-end metrics every `--trace 0` run prints.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "sim_tps",
    "pass_p50_ms",
    "pass_p90_ms",
    "hit_p50_ms",
    "hit_p99_ms",
    "miss_p50_ms",
    "miss_p90_ms",
    "goodput_rps",
    "sustained_rps",
    "peak_rss_mb",
];

/// The workloads that own layers other workloads lack, in the order a
/// traced run fills them.
const LAYER_OWNERS: [&str; 4] = ["fig4-grid", "paper-suite", "rack", "serve"];

/// `(per-layer metric, workload that measured it)`.
type Sources = Vec<(String, String)>;

/// Measured seconds of each fill run of a traced run (at normal size).
const FILL_SECONDS: f64 = 5.0;

fn run_workload(name: &str, cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    match name {
        "fig4-grid" => grid::run(cfg, tr, grid::Grid::Fig4),
        "consolidation-grid" => grid::run(cfg, tr, grid::Grid::Consolidation),
        "paper-suite" => suite::run(cfg, tr),
        "rack" => rack::run(cfg, tr),
        "serve" => serve::run(cfg, tr),
        _ => Err(format!("unknown workload '{name}'")),
    }
}

/// A fixed integer kernel that is not hvx code, timed to calibrate the
/// host: a run on a busy machine stands out, and machines compare by
/// ratio.
fn host_calib_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let mut x = std::hint::black_box(0x1234_5678_9abc_def0_u64);
        for i in 0..4_000_000u64 {
            x = (x.rotate_left(7) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        std::hint::black_box(x);
        times.push(stats::ms(t.elapsed()));
    }
    median(&times)
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("rss: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "rss: no VmHWM line".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expected: PathBuf,
    out: PathBuf,
    write_expected: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expected: PathBuf::from("perfbench/expected/grid-cells.tsv"),
        out: PathBuf::from(".perfbench"),
        write_expected: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            a.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--expected" => a.expected = value.into(),
            "--out" => a.out = value.into(),
            "--write-expected" => a.write_expected = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.write_expected.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// Runs the workload. A traced run keeps the layers the workload measures
/// itself and fills every other layer from a traced run of the owning
/// workload at its normal size (tiny if this run is tiny). Returns, with
/// the metrics, the workload each per-layer figure came from.
fn measure(a: &Args, cfg: &Config) -> Result<(Outcome, Metrics, Sources), String> {
    let tracer = Tracer::new(a.trace);
    let mut out = run_workload(&a.workload, cfg, &tracer)?;
    let mut metrics;
    let mut sources = Vec::new();
    if a.trace {
        metrics = std::mem::take(&mut out.layers);
        for (name, ..) in metrics.iter() {
            sources.push((name.to_string(), a.workload.clone()));
        }
        for other in LAYER_OWNERS.iter().filter(|w| **w != a.workload) {
            let fill = Config {
                seconds: if cfg.tiny {
                    1.0
                } else {
                    FILL_SECONDS.min(cfg.seconds)
                },
                started: Instant::now(),
                work: cfg.work.join(other),
                ..cfg.clone()
            };
            let o = run_workload(other, &fill, &Tracer::new(false))?;
            out.attempted += o.attempted;
            out.failed += o.failed;
            for (name, value, unit) in o.layers.iter() {
                if metrics.get(name).is_none() {
                    metrics.put(name, value, unit);
                    sources.push((name.to_string(), other.to_string()));
                }
            }
        }
        let stem = format!("{}-seed{}", a.workload, a.seed);
        tracer
            .write(&a.out, &stem)
            .map_err(|e| format!("writing spans: {e}"))?;
        eprint!(
            "perfbench: {} spans in {}/{stem}.jsonl; self times:\n{}",
            tracer.len(),
            a.out.display(),
            trace::render_self_times(&tracer.self_times())
        );
    } else {
        metrics = std::mem::take(&mut out.e2e);
        metrics.put("setup_s", median(&out.setup_s), "s");
        metrics.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    }
    Ok((out, metrics, sources))
}

/// One JSON line naming, per workload, the per-layer metrics it measured.
fn json_sources(sources: &Sources) -> String {
    let mut by_workload: Vec<(&str, Vec<&str>)> = Vec::new();
    for (metric, workload) in sources {
        match by_workload.iter_mut().find(|(w, _)| w == workload) {
            Some((_, names)) => names.push(metric),
            None => by_workload.push((workload, vec![metric])),
        }
    }
    let body: Vec<String> = by_workload
        .iter()
        .map(|(w, names)| {
            let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
            format!("\"{w}\": [{}]", names.join(", "))
        })
        .collect();
    format!("{{\"per_layer_sources\": {{{}}}}}", body.join(", "))
}

fn json_result(out: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &a.write_expected {
        if let Err(e) = grid::write_expected(path) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let work = a.out.join(format!("work-{}", std::process::id()));
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        tiny: a.tiny,
        trace: a.trace,
        jobs,
        work: work.clone(),
        expected: a.expected.clone(),
        baselines: PathBuf::from("baselines"),
        started,
    };
    let result = measure(&a, &cfg);
    let _ = std::fs::remove_dir_all(&work);
    let (mut out, mut metrics, mut sources) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // After the workload, so the first set-up is timed from process start.
    let calib = host_calib_ms();
    eprintln!(
        "perfbench: workload={} seed={} jobs={jobs} host.calib_ms={calib:.3}",
        a.workload, a.seed
    );
    if a.trace {
        metrics.put("host.calib_ms", calib, "ms");
        metrics.put(
            "error_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        for name in ["host.calib_ms", "error_frac"] {
            sources.push((name.to_string(), a.workload.clone()));
        }
        println!("{}", json_sources(&sources));
    } else if let Some(missing) = END_TO_END.iter().find(|m| metrics.get(m).is_none()) {
        eprintln!("perfbench: end-to-end metric {missing} was not measured");
        std::process::exit(2);
    }
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        out.failed += 1;
    }
    if out.attempted == 0 {
        out.attempted = 1;
        out.failed = 1;
        eprintln!("perfbench: nothing was checked");
    }
    println!("{}", json_result(&out, &metrics));
    std::process::exit(i32::from(out.failed > 0));
}
