//! `rack`: sharded rack cells in two shapes, both on `jobs` shard
//! workers through `rack::run_cell_with`, each checked against the
//! serial execution of the same cell. The only workload that runs
//! `hvx_engine::shard`.
//!
//! * dense: 8 hosts x 192 VMs, about 7 events per host per window;
//! * sparse: 16 hosts x 4 VMs under seeded `wire_drop` plans, at most 4
//!   events per host per window, thinning as tokens are dropped. Each
//!   pass runs `SPARSE_CELLS` of them, one per derived fault seed, since
//!   the drops decide a sparse cell's length.

use std::time::{Duration, Instant};

use hvx_engine::FaultPlan;
use hvx_suite::rack::{CellConfig, CellResult, Composition};

use crate::common::{self, Config, Outcome, Pass};
use crate::stats::{median, ms, quantile, Metrics};
use crate::trace::{SpanId, Tracer};

/// Wire-drop probability of the sparse shape: a dropped token is gone,
/// so the ring thins out as the cell runs.
const SPARSE_DROP: &str = "wire_drop=0.005";

/// Sparse cells per pass, each under its own fault seed.
const SPARSE_CELLS: u64 = 4;

#[derive(Debug, Clone)]
struct Shape {
    name: &'static str,
    cfg: CellConfig,
    /// Serial reference result.
    reference: CellResult,
    /// Transitions of one execution (from the serial reference).
    transitions: u64,
}

fn configs(cfg: &Config) -> Result<Vec<(&'static str, CellConfig)>, String> {
    let (dense_rounds, sparse_rounds) = if cfg.tiny { (2, 2) } else { (16, 10) };
    let mut out = vec![(
        "dense",
        CellConfig {
            composition: Composition::Mixed,
            hosts: 8,
            vms_per_host: 192,
            rounds: dense_rounds,
            jobs: 1,
            fault: None,
        },
    )];
    for k in 0..SPARSE_CELLS {
        let seed = cfg.seed.wrapping_mul(SPARSE_CELLS).wrapping_add(k);
        let plan = FaultPlan::parse(SPARSE_DROP, seed).map_err(|e| format!("fault plan: {e}"))?;
        out.push((
            "sparse",
            CellConfig {
                composition: Composition::Mixed,
                hosts: 16,
                vms_per_host: 4,
                rounds: sparse_rounds,
                jobs: 1,
                fault: Some(plan),
            },
        ));
    }
    Ok(out)
}

/// Runs one cell on `jobs` shard workers; returns its result and wall.
fn run_cell(
    shape: &Shape,
    jobs: usize,
    tr: &Tracer,
    name: &'static str,
    key: u64,
    parent: SpanId,
) -> Result<(CellResult, Duration), String> {
    let cell = CellConfig {
        jobs,
        ..shape.cfg.clone()
    };
    let t = Instant::now();
    let r = tr
        .span(name, key, parent, |_| hvx_suite::rack::run_cell_with(&cell))
        .map_err(|e| format!("rack {}: {e}", shape.name))?;
    Ok((r, t.elapsed()))
}

fn setup(cfg: &Config) -> Result<Vec<Shape>, String> {
    let off = Tracer::new(false);
    let mut shapes = Vec::new();
    for (name, cell) in configs(cfg)? {
        let before = hvx_engine::thread_transitions();
        let reference =
            hvx_suite::rack::run_cell_with(&cell).map_err(|e| format!("rack {name}: {e}"))?;
        let transitions = hvx_engine::thread_transitions() - before;
        shapes.push(Shape {
            name,
            cfg: cell,
            reference,
            transitions,
        });
    }
    // Warm-up: one sharded execution of each shape.
    for s in &shapes {
        run_cell(s, cfg.jobs, &off, "shard.parallel", 0, SpanId::ROOT)?;
    }
    Ok(shapes)
}

/// Per cell: its parallel walls, and in a traced run its serial walls.
#[derive(Default)]
struct ShardSamples {
    serial: Vec<f64>,
    parallel: Vec<f64>,
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let shapes = common::timed_setups(cfg, &mut out, || setup(cfg))?;
    let mut samples: Vec<ShardSamples> = shapes.iter().map(|_| ShardSamples::default()).collect();

    let passes = common::run_passes(cfg, if cfg.tiny { 2 } else { 3 }, |i, traced| {
        let t = if traced { tr } else { &off };
        let t0 = Instant::now();
        let root = t.begin("rack.pass", i as u64, SpanId::ROOT);
        let mut results = Vec::new();
        for s in &shapes {
            results.push(run_cell(
                s,
                cfg.jobs,
                t,
                "shard.parallel",
                i as u64,
                root.id(),
            )?);
        }
        t.end(root);
        let mut p = Pass {
            wall: t0.elapsed(),
            t0: Some(t0),
            ..Pass::default()
        };
        for ((s, (r, wall)), smp) in shapes.iter().zip(results).zip(samples.iter_mut()) {
            let ok = r == s.reference;
            out.check(ok, || {
                format!("rack {} sharded result differs from serial", s.name)
            });
            p.units_ok += u64::from(ok);
            p.transitions += s.transitions;
            p.unit_ms.push(ms(wall));
            p.busy += wall;
            smp.parallel.push(wall.as_secs_f64());
        }
        // The traced run also times each shape serially, for the shard
        // layer's serial-versus-parallel split.
        if cfg.trace {
            for (s, smp) in shapes.iter().zip(samples.iter_mut()) {
                let (r, wall) = run_cell(s, 1, t, "shard.serial", i as u64, SpanId::ROOT)?;
                out.check(r == s.reference, || {
                    format!("rack {} serial rerun differs", s.name)
                });
                smp.serial.push(wall.as_secs_f64());
            }
        }
        Ok(p)
    })?;
    out.e2e = common::batch_e2e(&passes, 1);
    // A request here is one conservative window: hits read the sparse
    // cells' windows, misses the dense cell's. Per window, because the
    // seeded drops set how many windows a sparse cell runs.
    let per_window = |sparse: bool| -> Vec<f64> {
        shapes
            .iter()
            .zip(&samples)
            .filter(|(s, _)| (s.name == "sparse") == sparse)
            .flat_map(|(s, smp)| {
                let windows = s.reference.windows.max(1) as f64;
                smp.parallel.iter().map(move |w| w * 1e3 / windows)
            })
            .collect()
    };
    out.e2e.put("hit_p50_ms", median(&per_window(true)), "ms");
    out.e2e
        .put("hit_p99_ms", quantile(&per_window(true), 0.99), "ms");
    out.e2e.put("miss_p50_ms", median(&per_window(false)), "ms");
    out.e2e
        .put("miss_p90_ms", quantile(&per_window(false), 0.9), "ms");
    if cfg.trace {
        out.layers = common::batch_layers(&passes, 1);
        // The layer reads the dense cell and the first sparse cell.
        for (s, smp) in shapes.iter().zip(&samples).take(2) {
            out.layers.fill_from(&shard_layer(s, smp, cfg.jobs));
        }
    }
    Ok(out)
}

fn shard_layer(s: &Shape, smp: &ShardSamples, jobs: usize) -> Metrics {
    let mut m = Metrics::default();
    let r = &s.reference;
    let serial = median(&smp.serial);
    let parallel = median(&smp.parallel);
    let name = |what: &str| format!("shard.{}.{what}", s.name);
    m.put(name("serial_s"), serial, "s");
    m.put(name("parallel_s"), parallel, "s");
    m.put(name("speedup"), serial / parallel, "x");
    m.put(
        name("overhead_us_per_window"),
        (parallel - serial / jobs as f64) / r.windows.max(1) as f64 * 1e6,
        "us",
    );
    m.put(name("windows"), r.windows as f64, "count");
    m.put(
        name("events_per_window_p50"),
        r.window_events_p50 as f64,
        "count",
    );
    m.put(name("lookahead_stalls"), r.lookahead_stalls as f64, "count");
    m.put(name("imbalance_p95"), r.imbalance_p95 as f64, "count");
    m.put(name("wire_drops"), r.wire_drops as f64, "count");
    m
}
