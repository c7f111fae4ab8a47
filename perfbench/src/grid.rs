//! The iteration-scaled grids of `hvx_suite::bench_grid`, run by `jobs`
//! work-stealing workers:
//!
//! * `fig4-grid`: the 36 Figure 4 cells (9 workloads x 4 hypervisors).
//!   Compiled replay and the per-hypervisor transition models do nearly
//!   all the work.
//! * `consolidation-grid`: the 12 consolidation cells (4 hypervisors x
//!   1, 4 and 16 two-vCPU VMs on 2 pCPUs, credit scheduler). Contended
//!   cells never compile, so the interpreted SMP scheduler does the work.
//!
//! The shard, runner and serve layers are absent from both. Each grid
//! measures its own `workloads` and `compile` layers.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use hvx_core::{SchedPolicy, SimBuilder, VirqPolicy};
use hvx_suite::workloads::{self, catalog, Mix};
use hvx_suite::{bench_grid, consolidation, paper};

use crate::common::{self, Config, Outcome, Pass};
use crate::stats::{median, ms, quantile, us, Metrics, Rng};
use crate::trace::{SpanId, Tracer};

/// Iteration multiplier of a full run.
const SCALE: u32 = bench_grid::DEFAULT_SCALE;
/// Iteration multiplier of a tiny run.
const TINY_SCALE: u32 = 10;
/// Passes per sample (see `common::batch_e2e`): a pass is about 0.3 s,
/// and one slow pass should not set the p90.
const BLOCK: usize = 3;
/// Consolidation ratios, as `bench_grid` samples them.
const RATIOS: [u32; 3] = [1, 4, 16];

/// Which grid a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    Fig4,
    Consolidation,
}

#[derive(Debug, Clone, Copy)]
enum Cell {
    Fig4 { workload: usize, column: usize },
    Consol { column: usize, ratio: u32 },
}

impl Cell {
    fn column(self) -> usize {
        match self {
            Cell::Fig4 { column, .. } | Cell::Consol { column, .. } => column,
        }
    }

    fn id(self) -> u64 {
        let n = paper::COLUMNS.len();
        match self {
            Cell::Fig4 { workload, column } => (workload * n + column) as u64,
            Cell::Consol { column, ratio } => 1000 + (ratio as usize * n + column) as u64,
        }
    }

    /// The cell's row in the expected-cells file: (scale, workload, column).
    fn key(self, scale: u32) -> (u32, String, String) {
        let col = paper::COLUMNS[self.column()];
        match self {
            Cell::Fig4 { workload, .. } => {
                (scale, catalog()[workload].name.to_string(), col.to_string())
            }
            Cell::Consol { ratio, .. } => (
                scale,
                "Consolidation".to_string(),
                format!("{col} {ratio}:1"),
            ),
        }
    }
}

#[derive(Debug, Clone)]
struct CellOut {
    makespan: Option<u64>,
    transitions: u64,
    build: Duration,
    run: Duration,
    replayed: u64,
    compiled: bool,
}

/// `(scale, workload, column)` -> `(makespan or None, transitions)`.
type Expected = HashMap<(u32, String, String), (Option<u64>, u64)>;

/// Lower-case, dash-separated column name (`KVM ARM` -> `kvm-arm`).
fn column_slug(column: usize) -> String {
    paper::COLUMNS[column]
        .to_string()
        .to_lowercase()
        .replace(' ', "-")
}

/// Transactions per VM of a consolidation cell, scaled like the Figure 4
/// iteration counts (as `bench_grid` does).
fn consol_txns(scale: u32) -> u32 {
    (scale * 2).max(consolidation::TRANSACTIONS_PER_VM)
}

fn run_cell(cell: Cell, mixes: &[Mix], scale: u32, tr: &Tracer, parent: SpanId) -> CellOut {
    tr.span("grid.cell", cell.id(), parent, |p| {
        let before = hvx_engine::thread_transitions();
        let kind = paper::COLUMNS[cell.column()];
        let t = Instant::now();
        let (makespan, build, replayed, compiled) = match cell {
            Cell::Fig4 { workload, .. } => {
                let built = tr.span("sim.build", cell.id(), p, |_| SimBuilder::new(kind).build());
                let build = t.elapsed();
                match built {
                    Ok(sim) => {
                        let mut hv = sim.into_inner();
                        let r = tr.span("workloads.run", cell.id(), p, |_| {
                            workloads::run(hv.as_mut(), mixes[workload], VirqPolicy::Vcpu0)
                        });
                        let m = hv.machine();
                        let replayed = m.iters_replayed();
                        let compiled = m.loop_compiled() || replayed > 0;
                        (r.ok().map(|c| c.as_u64()), build, replayed, compiled)
                    }
                    Err(_) => (None, build, 0, false),
                }
            }
            Cell::Consol { ratio, .. } => {
                let r = tr.span("consolidation.run", cell.id(), p, |_| {
                    consolidation::run_cell(
                        kind,
                        ratio,
                        SchedPolicy::Credit,
                        consol_txns(scale),
                        workloads::compile_enabled(),
                    )
                });
                let replayed = r.as_ref().map_or(0, |c| c.iters_replayed);
                let makespan = r.ok().map(|c| c.makespan_cycles);
                (makespan, Duration::ZERO, replayed, replayed > 0)
            }
        };
        CellOut {
            makespan,
            transitions: hvx_engine::thread_transitions() - before,
            build,
            run: t.elapsed() - build,
            replayed,
            compiled,
        }
    })
}

/// One pass over `order` with `jobs` work-stealing workers; results are
/// indexed like `order`.
fn pass(
    order: &[Cell],
    mixes: &[Mix],
    scale: u32,
    jobs: usize,
    tr: &Tracer,
    key: u64,
) -> (Instant, Duration, Vec<CellOut>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let root = tr.begin("grid.pass", key, SpanId::ROOT);
    let parent = root.id();
    let mut outs: Vec<(usize, CellOut)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.clamp(1, order.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell) = order.get(i) else { break };
                        mine.push((i, run_cell(cell, mixes, scale, tr, parent)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("grid worker panicked"))
            .collect()
    });
    tr.end(root);
    let wall = t0.elapsed();
    outs.sort_by_key(|(i, _)| *i);
    (t0, wall, outs.into_iter().map(|(_, o)| o).collect())
}

fn load_expected(path: &Path) -> Result<Expected, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("expected cells {}: {e}", path.display()))?;
    let mut out = Expected::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let [scale, workload, column, makespan, transitions] = f[..] else {
            return Err(format!("bad expected line: {line}"));
        };
        let num = |s: &str| s.parse::<u64>().map_err(|e| format!("{line}: {e}"));
        let makespan = if makespan == "none" {
            None
        } else {
            Some(num(makespan)?)
        };
        out.insert(
            (num(scale)? as u32, workload.into(), column.into()),
            (makespan, num(transitions)?),
        );
    }
    Ok(out)
}

fn cells(grid: Grid) -> Vec<Cell> {
    let columns = 0..paper::COLUMNS.len();
    match grid {
        Grid::Fig4 => (0..catalog().len())
            .flat_map(|workload| {
                columns
                    .clone()
                    .map(move |column| Cell::Fig4 { workload, column })
            })
            .collect(),
        Grid::Consolidation => columns
            .flat_map(|column| RATIOS.map(|ratio| Cell::Consol { column, ratio }))
            .collect(),
    }
}

fn mixes(scale: u32) -> Vec<Mix> {
    catalog().iter().map(|w| w.mix.scaled(scale)).collect()
}

/// Writes the expected-cells file from one serial pass of each grid at
/// each scale.
pub fn write_expected(path: &Path) -> Result<(), String> {
    let mut text = String::from(
        "# scale\tworkload\tcolumn\tmakespan_cycles\ttransitions (perfbench --write-expected)\n",
    );
    for grid in [Grid::Fig4, Grid::Consolidation] {
        for scale in [TINY_SCALE, SCALE] {
            let order = cells(grid);
            let (_, _, outs) = pass(&order, &mixes(scale), scale, 1, &Tracer::new(false), 0);
            for (cell, out) in order.iter().zip(outs) {
                let (scale, workload, column) = cell.key(scale);
                let makespan = out.makespan.map_or("none".to_string(), |m| m.to_string());
                text.push_str(&format!(
                    "{scale}\t{workload}\t{column}\t{makespan}\t{}\n",
                    out.transitions
                ));
            }
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn run(cfg: &Config, tr: &Tracer, grid: Grid) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scale = if cfg.tiny { TINY_SCALE } else { SCALE };
    let off = Tracer::new(false);

    // Set-up: the seeded cell order, the expected cells, and a warm-up
    // pass.
    let (order, mixes, expected) = common::timed_setups(cfg, &mut out, || {
        let mut order = cells(grid);
        Rng::new(cfg.seed).shuffle(&mut order);
        let mixes = mixes(scale);
        let expected = load_expected(&cfg.expected)?;
        pass(&order, &mixes, scale, cfg.jobs, &off, 0);
        Ok((order, mixes, expected))
    })?;

    let mut per_pass: Vec<Vec<CellOut>> = Vec::new();
    let passes = common::run_passes(cfg, if cfg.tiny { 2 } else { 3 }, |i, traced| {
        let (t0, wall, outs) = pass(
            &order,
            &mixes,
            scale,
            cfg.jobs,
            if traced { tr } else { &off },
            i as u64,
        );
        let mut p = Pass {
            wall,
            t0: Some(t0),
            ..Pass::default()
        };
        for (cell, o) in order.iter().zip(&outs) {
            let key = cell.key(scale);
            let ok = expected.get(&key) == Some(&(o.makespan, o.transitions));
            out.check(ok, || {
                format!(
                    "grid cell {key:?}: got ({:?}, {}), expected {:?}",
                    o.makespan,
                    o.transitions,
                    expected.get(&key)
                )
            });
            p.units_ok += u64::from(ok);
            p.transitions += o.transitions;
            p.unit_ms.push(ms(o.build + o.run));
            p.busy += o.build + o.run;
        }
        per_pass.push(outs);
        Ok(p)
    })?;
    out.e2e = common::batch_e2e(&passes, BLOCK);
    if cfg.trace {
        out.layers = common::batch_layers(&passes, cfg.jobs.clamp(1, order.len()));
        out.layers.fill_from(&layers(grid, &order, &per_pass));
    }
    Ok(out)
}

/// The `workloads` and `compile` layers of a grid, from every pass, and on
/// the Fig-4 grid the `sim` layer. On the consolidation grid `workloads.*`
/// times `consolidation::run_cell`, which builds its own machine, so
/// `sim.build_us_p50` comes from the Fig-4 grid.
fn layers(grid: Grid, order: &[Cell], per_pass: &[Vec<CellOut>]) -> Metrics {
    let mut m = Metrics::default();
    let sum_s = |outs: &[CellOut], f: &dyn Fn(usize) -> bool| -> f64 {
        outs.iter()
            .enumerate()
            .filter(|(i, _)| f(*i))
            .map(|(_, o)| o.run.as_secs_f64())
            .sum()
    };
    let busy: Vec<f64> = per_pass.iter().map(|o| sum_s(o, &|_| true)).collect();
    m.put("workloads.busy_s", median(&busy), "s");
    let all: Vec<&CellOut> = per_pass.iter().flatten().collect();
    let runs: Vec<f64> = all.iter().map(|o| ms(o.run)).collect();
    m.put("workloads.cell_p50_ms", median(&runs), "ms");
    let maxes: Vec<f64> = per_pass
        .iter()
        .map(|o| o.iter().map(|c| ms(c.run)).fold(0.0, f64::max))
        .collect();
    m.put("workloads.cell_max_ms", median(&maxes), "ms");
    for column in 0..paper::COLUMNS.len() {
        let col: Vec<f64> = per_pass
            .iter()
            .map(|o| sum_s(o, &|i| order[i].column() == column))
            .collect();
        m.put(
            format!("workloads.{}.busy_s", column_slug(column)),
            median(&col),
            "s",
        );
    }
    let compiled = all.iter().filter(|o| o.compiled).count();
    m.put(
        "compile.compiled_cells_frac",
        compiled as f64 / all.len().max(1) as f64,
        "ratio",
    );
    let replayed: Vec<f64> = per_pass
        .iter()
        .map(|o| o.iter().map(|c| c.replayed as f64).sum())
        .collect();
    m.put("compile.iters_replayed", median(&replayed), "count");
    if grid == Grid::Fig4 {
        let builds: Vec<f64> = all.iter().map(|o| us(o.build)).collect();
        m.put("sim.build_us_p50", quantile(&builds, 0.5), "us");
    }
    m
}
