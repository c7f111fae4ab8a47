//! `paper-suite`: `runner::run_artifacts_with` over all 13 artifacts at
//! paper size, back to back at `--jobs` = host parallelism, no cache.
//! Short cells: `SimBuilder` set-up, runner fan-out and the interpreted
//! SMP scheduler dominate, and compiled replay barely runs.

use std::collections::HashMap;
use std::time::Instant;

use hvx_suite::runner::{self, ArtifactId, ArtifactReport, RunnerConfig};

use crate::common::{self, Config, Outcome, Pass};
use crate::stats::{median, ms, Metrics};
use crate::trace::{SpanId, Tracer};

/// Passes per sample: a pass is about 30 ms (see `common::batch_e2e`).
const BLOCK: usize = 8;

/// Times of one traced pass's two runner phases.
struct Phases {
    run_ms: f64,
    render_ms: f64,
}

fn load_baselines(cfg: &Config) -> Result<HashMap<ArtifactId, String>, String> {
    ArtifactId::ALL
        .iter()
        .map(|&id| {
            let path = cfg.baselines.join(format!("{}.txt", id.json_name()));
            std::fs::read_to_string(&path)
                .map(|t| (id, t))
                .map_err(|e| format!("baseline {}: {e}", path.display()))
        })
        .collect()
}

/// One pass. Unsplit it is exactly the user's call; split it makes the
/// same two calls `run_artifacts_with` makes, each timed and in a span.
fn pass(
    jobs: usize,
    split: bool,
    tr: &Tracer,
    key: u64,
) -> Result<
    (
        Instant,
        std::time::Duration,
        Vec<ArtifactReport>,
        Option<Phases>,
    ),
    String,
> {
    let cfg = RunnerConfig::default();
    let t0 = Instant::now();
    if !split {
        let outcome =
            runner::run_artifacts_with(&ArtifactId::ALL, jobs, &cfg).map_err(|e| e.to_string())?;
        return Ok((t0, t0.elapsed(), outcome.reports, None));
    }
    tr.span("suite.pass", key, SpanId::ROOT, |p| {
        let plan = runner::plan(&ArtifactId::ALL);
        let t = Instant::now();
        let results = tr
            .span("runner.run", key, p, |_| {
                runner::run_scenarios_with(&plan, jobs, &cfg)
            })
            .map_err(|e| e.to_string())?;
        let run_ms = ms(t.elapsed());
        let t = Instant::now();
        let reports = tr
            .span("runner.render", key, p, |_| {
                runner::assemble(&ArtifactId::ALL, &results)
            })
            .map_err(|e| e.to_string())?;
        let render_ms = ms(t.elapsed());
        Ok((
            t0,
            t0.elapsed(),
            reports,
            Some(Phases { run_ms, render_ms }),
        ))
    })
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let baselines = common::timed_setups(cfg, &mut out, || {
        let baselines = load_baselines(cfg)?;
        pass(cfg.jobs, false, &off, 0)?;
        Ok(baselines)
    })?;

    let mut phases = Vec::new();
    let passes = common::run_passes(cfg, if cfg.tiny { 2 } else { 5 }, |i, traced| {
        let t = if traced { tr } else { &off };
        let (t0, wall, reports, ph) = pass(cfg.jobs, traced, t, i as u64)?;
        let mut p = Pass {
            wall,
            t0: Some(t0),
            ..Pass::default()
        };
        for r in &reports {
            let ok = r.failures.is_empty() && baselines.get(&r.id) == Some(&r.text);
            out.check(ok, || {
                format!("artifact {} differs from its baseline", r.id.cli_name())
            });
            p.units_ok += u64::from(ok);
            p.transitions += r.transitions;
            p.unit_ms.push(ms(r.wall));
            p.busy += r.wall;
        }
        phases.extend(ph);
        Ok(p)
    })?;
    out.e2e = common::batch_e2e(&passes, BLOCK);
    if cfg.trace {
        out.layers = common::batch_layers(&passes, cfg.jobs);
        let run: Vec<f64> = phases.iter().map(|p| p.run_ms).collect();
        let render: Vec<f64> = phases.iter().map(|p| p.render_ms).collect();
        out.layers.put("runner.run_ms_p50", median(&run), "ms");
        out.layers
            .put("runner.render_ms_p50", median(&render), "ms");
        out.layers
            .fill_from(&artifacts_alone(tr, if cfg.tiny { 1 } else { 5 })?);
    }
    Ok(out)
}

/// Each artifact alone via `run_artifacts(&[id], 1)`: median wall, ms.
fn artifacts_alone(tr: &Tracer, reps: usize) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    for id in ArtifactId::ALL {
        let mut walls = Vec::with_capacity(reps);
        for rep in 0..reps {
            let t = Instant::now();
            tr.span("runner.artifact", rep as u64, SpanId::ROOT, |_| {
                runner::run_artifacts(&[id], 1)
            })
            .map_err(|e| e.to_string())?;
            walls.push(ms(t.elapsed()));
        }
        m.put(
            format!("artifact.{}_ms", id.cli_name()),
            median(&walls),
            "ms",
        );
    }
    Ok(m)
}
