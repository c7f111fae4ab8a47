//! What every workload shares: its configuration, its outcome, and the
//! end-to-end metrics of a closed-loop batch workload.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::stats::{median, quantile, Metrics};

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Small inputs, for the self-test.
    pub tiny: bool,
    /// Compute this workload's per-layer metrics.
    pub trace: bool,
    /// Workers: the host's available parallelism.
    pub jobs: usize,
    /// Scratch directory of this run (removed when it ends).
    pub work: PathBuf,
    /// Expected grid cells.
    pub expected: PathBuf,
    /// Golden artifact texts.
    pub baselines: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub started: Instant,
}

impl Config {
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    pub e2e: Metrics,
    pub layers: Metrics,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// Times set-up `SETUPS` times (the first from process start) and keeps
/// the last set-up's state.
pub fn timed_setups<T>(
    cfg: &Config,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for i in 0..SETUPS {
        let start = if i == 0 { cfg.started } else { Instant::now() };
        let state = setup()?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        kept = Some(state);
    }
    Ok(kept.expect("SETUPS > 0"))
}

/// One pass of a closed-loop batch workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall: Duration,
    pub transitions: u64,
    /// Units (cells or artifacts) that completed and matched.
    pub units_ok: u64,
    /// Host latency of each unit, ms.
    pub unit_ms: Vec<f64>,
    /// Busy time of all units, summed over workers.
    pub busy: Duration,
    pub traced: bool,
    /// Start of the timed region.
    pub t0: Option<Instant>,
    /// Gap between the previous pass's timed end and this pass's timed
    /// start: the generator's own checking and bookkeeping time.
    pub gap: Duration,
}

/// End-to-end metrics of a batch workload. A unit (cell or artifact) is
/// its smallest request and a pass its full pipeline, so `hit_*` reads
/// unit latency and `miss_*` pass latency (the same values as `pass_*`).
///
/// Each sample is the mean over `block` consecutive untraced passes
/// (batch means): on a shared host single short passes switch between a
/// fast and a slow mode for seconds at a time, and the median of a
/// bimodal sample is unsteady.
pub fn batch_e2e(passes: &[Pass], block: usize) -> Metrics {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let block = block.clamp(1, untraced.len().max(1));
    let mut wall_ms = Vec::new();
    let mut tps = Vec::new();
    let mut rate = Vec::new();
    let mut units = Vec::new();
    for chunk in untraced.chunks_exact(block) {
        let wall: f64 = chunk.iter().map(|p| p.wall.as_secs_f64()).sum();
        let transitions: u64 = chunk.iter().map(|p| p.transitions).sum();
        let ok: u64 = chunk.iter().map(|p| p.units_ok).sum();
        wall_ms.push(wall * 1e3 / chunk.len() as f64);
        tps.push(transitions as f64 / wall);
        rate.push(ok as f64 / wall);
        let n = chunk.iter().map(|p| p.unit_ms.len()).min().unwrap_or(0);
        for j in 0..n {
            units.push(chunk.iter().map(|p| p.unit_ms[j]).sum::<f64>() / chunk.len() as f64);
        }
    }
    let total_s: f64 = untraced.iter().map(|p| p.wall.as_secs_f64()).sum();
    let total_ok: u64 = untraced.iter().map(|p| p.units_ok).sum();
    let mut m = Metrics::default();
    m.put("sim_tps", median(&tps), "transitions/s");
    m.put("pass_p50_ms", median(&wall_ms), "ms");
    m.put("pass_p90_ms", quantile(&wall_ms, 0.9), "ms");
    m.put("hit_p50_ms", median(&units), "ms");
    m.put("hit_p99_ms", quantile(&units, 0.99), "ms");
    m.put("miss_p50_ms", median(&wall_ms), "ms");
    m.put("miss_p90_ms", quantile(&wall_ms, 0.9), "ms");
    m.put("goodput_rps", total_ok as f64 / total_s.max(1e-9), "req/s");
    m.put("sustained_rps", median(&rate), "req/s");
    m
}

/// Layer metrics every batch workload reports about its own loop:
/// worker utilisation, generator lateness and the tracing overhead.
pub fn batch_layers(passes: &[Pass], workers: usize) -> Metrics {
    let util: Vec<f64> = passes
        .iter()
        .map(|p| p.busy.as_secs_f64() / (p.wall.as_secs_f64() * workers as f64))
        .collect();
    let gaps: Vec<f64> = passes
        .iter()
        .skip(1)
        .map(|p| crate::stats::ms(p.gap))
        .collect();
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall.as_secs_f64())
            .collect()
    };
    let mut m = Metrics::default();
    m.put("gen.worker_util", median(&util), "ratio");
    m.put("gen.late_p99_ms", quantile(&gaps, 0.99), "ms");
    m.put(
        "trace.overhead_frac",
        median(&walls(true)) / median(&walls(false)) - 1.0,
        "ratio",
    );
    m
}

/// Runs passes until the deadline (at least `min_passes`), alternating
/// untraced and traced passes when `trace` is set.
pub fn run_passes(
    cfg: &Config,
    min_passes: usize,
    mut pass: impl FnMut(usize, bool) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let deadline = cfg.deadline();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || Instant::now() < deadline {
        let i = passes.len();
        let traced = cfg.trace && i % 2 == 1;
        let mut p = pass(i, traced)?;
        p.traced = traced;
        if let (Some(prev), Some(t0)) = (passes.last(), p.t0) {
            let prev_end = prev.t0.map(|t| t + prev.wall);
            p.gap = prev_end.map_or(Duration::ZERO, |e| t0.saturating_duration_since(e));
        }
        passes.push(p);
    }
    Ok(passes)
}
