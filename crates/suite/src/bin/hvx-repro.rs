//! `hvx-repro` — one-command reproduction of every artifact in the
//! paper, with optional JSON export, a parallel scenario runner, and an
//! instrumentation-driven profiler.
//!
//! ```text
//! hvx-repro run [--json DIR] [--jobs N] [--timing]
//!           [--fault-plan SPEC] [--fault-seed N] [--keep-going]
//!           [--cycle-budget N] [--livelock-limit N] [--wall-timeout SECS]
//!           [--chaos KIND] [--spec FILE] [ARTIFACT...]
//! hvx-repro profile [--scenario NAME]... [--jobs N] [--json DIR]
//!           [--fault-plan SPEC] [--fault-seed N]
//! hvx-repro trace <scenario> [--hypervisor HV] [--out FILE] [--ring N]
//! hvx-repro trace query FILE [--transition NAME] [--track pcpuN]
//!           [--from CYC] [--to CYC] [--top K] [--validate]
//! hvx-repro trace bench [--out FILE] [--ring N]
//! hvx-repro serve [--addr HOST:PORT] [--workers N] [--cache DIR]
//!           [--journal FILE] [--max-queue-weight N] [--client-cap N]
//!           [--max-results N] [--retries N]
//! hvx-repro serve submit --addr A (--spec FILE | --chaos KIND)
//!           [--client NAME] [--wait SECS]
//! hvx-repro serve sweep --addr A --template FILE [--client NAME]
//! hvx-repro serve poll --addr A JOBID
//! hvx-repro serve stats --addr A
//! hvx-repro serve metrics --addr A
//! hvx-repro serve trace --addr A FINGERPRINT [--top K]
//! hvx-repro serve drain --addr A
//! hvx-repro serve bench [--out FILE]
//! hvx-repro list-scenarios
//!
//! ARTIFACTs: table2 table3 table5 fig4 irq vhe zerocopy link vapic
//!            oversub storage faultrec rack all   (default: all)
//! ```
//!
//! `--fault-plan` installs a seeded deterministic fault plan (wire
//! drops, vIRQ loss, grant-copy failures, ...) that every scenario
//! consults; recovery costs are charged through the normal transition
//! accounting so profiles stay conservative. Scenario failures are
//! isolated: a panicking, timed-out, or livelocked scenario degrades to
//! a marked gap in its artifact and the process exits 3 (0 with
//! `--keep-going`, which demotes failures to stderr warnings).
//!
//! Invoking the binary with no arguments at all behaves like `run`
//! with every artifact. The historical pre-subcommand spelling
//! (`hvx-repro table2 --jobs 2` and friends) is retired: any first
//! token that is not a subcommand exits 2 with a pointer to the
//! equivalent `run` invocation. `run --spec FILE` runs the single
//! scenario a JSON [`ScenarioSpec`] file describes instead of an
//! artifact matrix. `--jobs N` fans
//! independent scenarios across N OS threads; output is byte-identical
//! to `--jobs 1`.
//! `--timing` reports per-artifact wall-clock on stderr. Throughput is
//! measured by the separate `perfbench` package, not by this binary:
//! the retired `bench` subcommand exits 2 and names the command.
//!
//! `profile` runs scenarios with the observability layer enabled and
//! prints a Table-3-style cycle-attribution breakdown per scenario; the
//! per-transition exclusive cycles sum exactly to the run's total busy
//! cycles (conservation), and output is byte-identical across `--jobs`.
//!
//! `trace` runs one scenario with the causal event tracer on and writes
//! Chrome trace-event JSON (open it in <https://ui.perfetto.dev> or
//! `chrome://tracing`); `trace query` filters an exported trace, ranks
//! critical chains, and (with `--validate`) gates on its structural
//! invariants; `trace bench` measures tracing overhead over the Fig. 4
//! sweep.
//!
//! `baseline write` snapshots every artifact (bytes + input
//! fingerprints + Figure 4 span profiles) under `baselines/`;
//! `check` re-runs and classifies divergences: an expected schema bump
//! (fingerprints moved) exits 0, silent drift (same fingerprints,
//! different bytes) exits 4 with a per-cell span-delta report.
//! `--cache DIR` on `run`/`baseline write`/`check` consults a
//! content-addressed result cache so warm reruns skip unchanged cells.
//!
//! `serve` starts the crash-safe sweep server (`hvx-serve`): clients
//! POST spec bodies and poll results over HTTP/JSON while the server
//! sheds overload, quarantines failing fingerprints, and journals
//! every acceptance for exactly-once crash recovery. The `serve
//! submit/sweep/poll/stats/drain` subcommands are a built-in client
//! (responses print as JSON envelopes carrying the HTTP `status`);
//! `serve bench` measures cold/warm round-trip latency and the shed
//! threshold, writing `BENCH_serve.json`. `run --out json` switches
//! stdout to the structured [`RunReport`](hvx_core::report::RunReport)
//! (one record per scenario: typed failure kind, retry count, content
//! fingerprint) instead of rendered artifact text.

use hvx_core::{Error, HvKind, ScenarioSpec, Workload};
use hvx_engine::FaultPlan;
use hvx_serve::{client as serve_client, Server, ServerConfig};
use hvx_suite::cache::ResultCache;
use hvx_suite::diff;
use hvx_suite::profile;
use hvx_suite::runner::{self, ArtifactId, ChaosKind, RunnerConfig};
use hvx_suite::service::{self, SuiteExecutor};
use hvx_suite::spec_run;
use hvx_suite::trace;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct RunArgs {
    json_dir: Option<PathBuf>,
    jobs: usize,
    timing: bool,
    artifacts: Vec<ArtifactId>,
    cfg: RunnerConfig,
    keep_going: bool,
    cache_dir: Option<PathBuf>,
    out_json: bool,
}

struct ServeArgs {
    addr: String,
    workers: usize,
    cache_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    max_queue_weight: u64,
    client_cap: usize,
    max_results: usize,
    retries: u32,
}

struct BaselineArgs {
    dir: PathBuf,
    artifacts: Vec<ArtifactId>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
}

struct ProfileArgs {
    specs: Vec<ScenarioSpec>,
    jobs: usize,
    json_dir: Option<PathBuf>,
}

struct TraceRunArgs {
    spec: ScenarioSpec,
    ring: Option<usize>,
    out: Option<PathBuf>,
}

struct TraceQueryArgs {
    file: PathBuf,
    query: trace::Query,
    validate: bool,
}

fn usage() -> String {
    let names: Vec<&str> = ArtifactId::ALL.iter().map(|a| a.cli_name()).collect();
    format!(
        "usage: hvx-repro run [--json DIR] [--jobs N] [--timing]\n\
         \x20               [--cache DIR] [--spec FILE] [ARTIFACT...]\n\
         \x20               (no arguments at all: same as 'run all')\n\
         \x20      hvx-repro profile [--scenario NAME]... [--jobs N] [--json DIR]\n\
         \x20      hvx-repro trace SCENARIO [--hypervisor HV] [--out FILE] [--ring N]\n\
         \x20      hvx-repro trace query FILE [--transition NAME] [--track pcpuN]\n\
         \x20                [--from CYC] [--to CYC] [--top K] [--validate]\n\
         \x20      hvx-repro trace bench [--out FILE] [--ring N]\n\
         \x20      hvx-repro baseline write [--dir DIR] [--jobs N] [--cache DIR] [ARTIFACT...]\n\
         \x20      hvx-repro check [--baseline DIR] [--jobs N] [--cache DIR] [ARTIFACT...]\n\
         \x20      hvx-repro serve [--addr HOST:PORT] [--workers N] [--cache DIR]\n\
         \x20                [--journal FILE] [--max-queue-weight N] [--client-cap N]\n\
         \x20                [--max-results N] [--retries N]\n\
         \x20      hvx-repro serve submit --addr A (--spec FILE | --chaos KIND)\n\
         \x20                [--client NAME] [--wait SECS]\n\
         \x20      hvx-repro serve sweep --addr A --template FILE [--client NAME]\n\
         \x20      hvx-repro serve poll --addr A JOBID\n\
         \x20      hvx-repro serve stats --addr A | serve drain --addr A\n\
         \x20      hvx-repro serve metrics --addr A\n\
         \x20      hvx-repro serve trace --addr A FINGERPRINT [--top K]\n\
         \x20      hvx-repro serve bench [--out FILE]\n\
         \x20      hvx-repro list-scenarios\n\
         run/profile fault options:\n\
         \x20 --fault-plan SPEC    inject faults, e.g. 'wire_drop=0.02,grant_copy_fail=0.01'\n\
         \x20 --fault-seed N       seed for the fault plan's deterministic RNG (default 42)\n\
         run spec option:\n\
         \x20 --spec FILE          run the one scenario a JSON ScenarioSpec file\n\
         \x20                      describes (paper or consolidation shape) and print\n\
         \x20                      its report; combines with no other run options\n\
         run output option:\n\
         \x20 --out json|text      'json' prints the structured RunReport (one record per\n\
         \x20                      scenario: label, fingerprint, retries, cached, failure)\n\
         \x20                      instead of rendered artifact text (default 'text')\n\
         run robustness options:\n\
         \x20 --keep-going         report failed scenarios on stderr but exit 0\n\
         \x20 --cycle-budget N     abort any scenario past N simulated cycles (timed out)\n\
         \x20 --livelock-limit N   abort after N consecutive zero-progress charges\n\
         \x20 --wall-timeout SECS  classify scenarios over SECS wall seconds as timed out\n\
         \x20 --chaos KIND         append a chaos scenario: panic, spin, or livelock\n\
         observability:\n\
         \x20 --log-level LEVEL    structured JSON logs on stderr: off, error, info,\n\
         \x20                      debug (default off; HVX_LOG=LEVEL sets the same knob;\n\
         \x20                      accepted before or after any subcommand)\n\
         \x20 GET /metrics         a running 'serve' exports Prometheus text; /trace/FP\n\
         \x20                      serves ranked critical chains from the warm cache\n\
         caching / baselines:\n\
         \x20 --cache DIR          content-addressed result cache; warm reruns skip\n\
         \x20                      unchanged scenarios (bypassed when HVX_COST_PERTURB is set)\n\
         \x20 baseline write       snapshot artifacts + fingerprints under --dir (default\n\
         \x20                      '{base}')\n\
         \x20 check                re-run and diff against the baseline; schema bumps are\n\
         \x20                      expected, silent drift exits 4 with a span-delta report\n\
         exit codes: 0 ok, 1 runtime error (incl. invalid trace), 2 usage error,\n\
         \x20           3 scenario failure, 4 drift\n\
         artifacts: {} all\n\
         profile/trace scenarios: <workload>-<hypervisor>, e.g. netperf-kvm-arm \
         (see list-scenarios)",
        names.join(" "),
        base = diff::DEFAULT_DIR,
    )
}

enum SubmitSource {
    Spec(PathBuf),
    Chaos(String),
}

enum ServeCmd {
    Run(ServeArgs),
    Submit {
        addr: String,
        client: String,
        source: SubmitSource,
        wait_secs: Option<f64>,
    },
    Sweep {
        addr: String,
        client: String,
        template: PathBuf,
    },
    Poll {
        addr: String,
        job: u64,
    },
    Stats {
        addr: String,
    },
    Metrics {
        addr: String,
    },
    TraceQuery {
        addr: String,
        fingerprint: String,
        top: usize,
    },
    Drain {
        addr: String,
    },
    Bench {
        out: PathBuf,
    },
}

enum Parsed {
    Run(Box<RunArgs>),
    SpecRun { path: PathBuf, out_json: bool },
    Serve(ServeCmd),
    Profile(ProfileArgs),
    TraceRun(TraceRunArgs),
    TraceQuery(TraceQueryArgs),
    TraceBench { out: PathBuf, ring: usize },
    BaselineWrite(BaselineArgs),
    Check(BaselineArgs),
    ListScenarios,
    Help,
}

/// One subcommand's arguments. It remembers the flag it read last, so
/// a missing or malformed value names that flag, and it owns the one
/// "unexpected argument" error.
struct Args {
    cmd: String,
    it: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    fn new(cmd: &str, args: Vec<String>) -> Args {
        Args {
            cmd: cmd.to_string(),
            it: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next argument, left in place.
    fn peek(&self) -> Option<String> {
        self.it.as_slice().first().cloned()
    }

    /// Consumes the next argument as the subcommand `sub` of this one.
    fn sub(mut self, sub: &str) -> Args {
        self.it.next();
        self.cmd = format!("{} {sub}", self.cmd);
        self
    }

    fn next(&mut self) -> Option<String> {
        let arg = self.it.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }

    /// The last flag's value; `what` names it in the error.
    fn value(&mut self, what: &str) -> Result<String, String> {
        self.it
            .next()
            .ok_or_else(|| format!("{} requires {what}", self.flag))
    }

    fn path(&mut self, what: &str) -> Result<PathBuf, String> {
        self.value(what).map(PathBuf::from)
    }

    /// The last flag's value as an integer of at least `min`.
    fn count<T: FromStr + PartialOrd + From<u8>>(&mut self, min: u8) -> Result<T, String> {
        let n = self.value("a count")?;
        n.parse::<T>()
            .ok()
            .filter(|v| *v >= T::from(min))
            .ok_or_else(|| {
                let bound = if min == 0 { "non-negative" } else { "positive" };
                format!("{} needs a {bound} integer, got '{n}'", self.flag)
            })
    }

    /// The last flag's value as finite seconds, above zero when
    /// `positive` and at least zero otherwise.
    fn secs(&mut self, positive: bool) -> Result<f64, String> {
        let s = self.value("seconds")?;
        s.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && (*v > 0.0 || (!positive && *v == 0.0)))
            .ok_or_else(|| {
                let bound = if positive { "positive" } else { "non-negative" };
                format!("{} needs {bound} seconds, got '{s}'", self.flag)
            })
    }

    /// A mandatory value the loop did not see.
    fn require<T>(&self, value: Option<T>, what: &str) -> Result<T, String> {
        value.ok_or_else(|| format!("{} requires {what}", self.cmd))
    }

    /// `--help`/`-h` asks for the usage; anything else is unexpected.
    fn reject(&self, arg: &str) -> Result<Parsed, String> {
        match arg {
            "--help" | "-h" => Ok(Parsed::Help),
            _ => Err(format!(
                "{}: unexpected argument '{arg}'; try --help",
                self.cmd
            )),
        }
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn build_fault_plan(spec: Option<&str>, seed: u64) -> Result<Option<FaultPlan>, String> {
    spec.map(|s| FaultPlan::parse(s, seed).map_err(|e| format!("--fault-plan: {e}")))
        .transpose()
}

/// Adds the artifacts a positional `run`/`baseline`/`check` token names.
fn select(requested: &mut Vec<ArtifactId>, token: &str) -> Result<(), String> {
    match token {
        "all" => requested.extend(ArtifactId::ALL),
        _ => requested.push(
            ArtifactId::parse(token)
                .ok_or_else(|| format!("unknown artifact '{token}'; try --help"))?,
        ),
    }
    Ok(())
}

/// The requested artifacts in their fixed print order (the `ALL`
/// order), deduplicated: requests only select.
fn print_order(requested: &[ArtifactId]) -> Vec<ArtifactId> {
    ArtifactId::ALL
        .into_iter()
        .filter(|a| requested.contains(a))
        .collect()
}

/// Parses the `run` subcommand's flags (also what a bare `hvx-repro`
/// invocation gets: run everything with the defaults).
fn parse_run(mut a: Args) -> Result<Parsed, String> {
    let mut args = RunArgs {
        json_dir: None,
        jobs: default_jobs(),
        timing: false,
        artifacts: Vec::new(),
        cfg: RunnerConfig::default(),
        keep_going: false,
        cache_dir: None,
        out_json: false,
    };
    let mut spec = None;
    let mut fault_spec = None;
    let mut fault_seed = 42;
    let mut requested = Vec::new();
    while let Some(arg) = a.next() {
        let cfg = &mut args.cfg;
        match arg.as_str() {
            "--out" => {
                args.out_json = match a.value("'json' or 'text'")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("--out needs 'json' or 'text', got '{other}'")),
                }
            }
            "--json" => args.json_dir = Some(a.path("a directory")?),
            "--cache" => args.cache_dir = Some(a.path("a directory")?),
            "--spec" => spec = Some(a.path("a spec file")?),
            "--jobs" => args.jobs = a.count(1)?,
            "--timing" => args.timing = true,
            "--fault-plan" => fault_spec = Some(a.value("a spec")?),
            "--fault-seed" => fault_seed = a.count(0)?,
            "--keep-going" => args.keep_going = true,
            "--cycle-budget" => cfg.watchdog.cycle_budget = Some(a.count(0)?),
            "--livelock-limit" => cfg.watchdog.livelock_threshold = Some(a.count(0)?),
            "--wall-timeout" => cfg.wall_timeout = Some(Duration::from_secs_f64(a.secs(false)?)),
            "--chaos" => {
                let kind = a.value("a kind")?;
                cfg.chaos.push(ChaosKind::parse(&kind).ok_or_else(|| {
                    format!("--chaos needs panic, spin, or livelock, got '{kind}'")
                })?);
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            other => select(&mut requested, other)?,
        }
    }
    if let Some(path) = spec {
        // A spec file is the single source of truth for its scenario;
        // conflicting knobs are rejected, never silently dropped.
        let cfg = &args.cfg;
        let extra: Vec<&str> = [
            (args.json_dir.is_some(), "--json"),
            (args.timing, "--timing"),
            (fault_spec.is_some(), "--fault-plan"),
            (args.keep_going, "--keep-going"),
            (cfg.watchdog.cycle_budget.is_some(), "--cycle-budget"),
            (
                cfg.watchdog.livelock_threshold.is_some(),
                "--livelock-limit",
            ),
            (cfg.wall_timeout.is_some(), "--wall-timeout"),
            (!cfg.chaos.is_empty(), "--chaos"),
            (args.cache_dir.is_some(), "--cache"),
            (!requested.is_empty(), "artifact names"),
        ]
        .into_iter()
        .filter_map(|(set, name)| set.then_some(name))
        .collect();
        if !extra.is_empty() {
            return Err(format!(
                "--spec runs exactly the scenario the file describes; drop {}",
                extra.join(", ")
            ));
        }
        return Ok(Parsed::SpecRun {
            path,
            out_json: args.out_json,
        });
    }
    if requested.is_empty() {
        requested.extend(ArtifactId::ALL);
    }
    args.artifacts = print_order(&requested);
    args.cfg.fault_plan = build_fault_plan(fault_spec.as_deref(), fault_seed)?;
    Ok(Parsed::Run(Box::new(args)))
}

/// Parses the `serve` subcommand family: bare `serve` starts the
/// server; `serve submit|sweep|poll|stats|metrics|trace|drain|bench`
/// are clients.
fn parse_serve(a: Args) -> Result<Parsed, String> {
    let Some(sub) = a.peek() else {
        return parse_serve_run(a);
    };
    match sub.as_str() {
        "submit" => parse_serve_submit(a.sub(&sub)),
        "sweep" => parse_serve_sweep(a.sub(&sub)),
        "poll" => parse_serve_poll(a.sub(&sub)),
        "trace" => parse_serve_trace(a.sub(&sub)),
        "stats" => parse_addr_only(a.sub(&sub), |addr| ServeCmd::Stats { addr }),
        "metrics" => parse_addr_only(a.sub(&sub), |addr| ServeCmd::Metrics { addr }),
        "drain" => parse_addr_only(a.sub(&sub), |addr| ServeCmd::Drain { addr }),
        "bench" => {
            let mut a = a.sub(&sub);
            let mut out = PathBuf::from("BENCH_serve.json");
            while let Some(arg) = a.next() {
                match arg.as_str() {
                    "--out" => out = a.path("an output file")?,
                    other => return a.reject(other),
                }
            }
            Ok(Parsed::Serve(ServeCmd::Bench { out }))
        }
        _ => parse_serve_run(a),
    }
}

fn parse_serve_run(mut a: Args) -> Result<Parsed, String> {
    let mut args = ServeArgs {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: None,
        journal: Some(PathBuf::from("hvx-serve.journal.jsonl")),
        max_queue_weight: 120,
        client_cap: 8,
        max_results: 256,
        retries: 2,
    };
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => args.addr = a.value("HOST:PORT")?,
            "--workers" => args.workers = a.count(1)?,
            "--cache" => args.cache_dir = Some(a.path("a directory")?),
            "--journal" => args.journal = Some(a.path("a file")?),
            "--no-journal" => args.journal = None,
            "--max-queue-weight" => args.max_queue_weight = a.count(0)?,
            "--client-cap" => args.client_cap = a.count(0)?,
            "--max-results" => args.max_results = a.count(0)?,
            "--retries" => args.retries = a.count(0)?,
            other => return a.reject(other),
        }
    }
    Ok(Parsed::Serve(ServeCmd::Run(args)))
}

fn parse_addr_only(mut a: Args, wrap: fn(String) -> ServeCmd) -> Result<Parsed, String> {
    let mut addr = None;
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => addr = Some(a.value("HOST:PORT")?),
            other => return a.reject(other),
        }
    }
    Ok(Parsed::Serve(wrap(a.require(addr, "--addr HOST:PORT")?)))
}

fn parse_serve_submit(mut a: Args) -> Result<Parsed, String> {
    let (mut addr, mut client, mut source, mut wait_secs) = (None, "cli".to_string(), None, None);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => addr = Some(a.value("HOST:PORT")?),
            "--client" => client = a.value("a name")?,
            "--spec" => source = Some(SubmitSource::Spec(a.path("a spec file")?)),
            "--chaos" => source = Some(SubmitSource::Chaos(a.value("a kind")?)),
            "--wait" => wait_secs = Some(a.secs(true)?),
            other => return a.reject(other),
        }
    }
    Ok(Parsed::Serve(ServeCmd::Submit {
        addr: a.require(addr, "--addr HOST:PORT")?,
        client,
        source: a.require(source, "--spec FILE or --chaos KIND")?,
        wait_secs,
    }))
}

fn parse_serve_sweep(mut a: Args) -> Result<Parsed, String> {
    let (mut addr, mut client, mut template) = (None, "cli".to_string(), None);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => addr = Some(a.value("HOST:PORT")?),
            "--client" => client = a.value("a name")?,
            "--template" => template = Some(a.path("a file")?),
            other => return a.reject(other),
        }
    }
    Ok(Parsed::Serve(ServeCmd::Sweep {
        addr: a.require(addr, "--addr HOST:PORT")?,
        client,
        template: a.require(template, "--template FILE")?,
    }))
}

fn parse_serve_poll(mut a: Args) -> Result<Parsed, String> {
    let (mut addr, mut job) = (None, None);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => addr = Some(a.value("HOST:PORT")?),
            other => match other.parse::<u64>() {
                Ok(id) => job = Some(id),
                Err(_) => return a.reject(other),
            },
        }
    }
    Ok(Parsed::Serve(ServeCmd::Poll {
        addr: a.require(addr, "--addr HOST:PORT")?,
        job: a.require(job, "a job id")?,
    }))
}

fn parse_serve_trace(mut a: Args) -> Result<Parsed, String> {
    let (mut addr, mut fingerprint, mut top) = (None, None, 5);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--addr" => addr = Some(a.value("HOST:PORT")?),
            "--top" => top = a.count(1)?,
            other if !other.starts_with('-') && fingerprint.is_none() => {
                fingerprint = Some(other.to_string());
            }
            other => return a.reject(other),
        }
    }
    Ok(Parsed::Serve(ServeCmd::TraceQuery {
        addr: a.require(addr, "--addr HOST:PORT")?,
        fingerprint: a.require(fingerprint, "a scenario fingerprint")?,
        top,
    }))
}

/// Parses `baseline write` / `check` arguments. `dir_flag` is the flag
/// that names the baseline directory (`--dir` resp. `--baseline`).
fn parse_baseline(
    mut a: Args,
    dir_flag: &str,
    wrap: fn(BaselineArgs) -> Parsed,
) -> Result<Parsed, String> {
    let mut args = BaselineArgs {
        dir: PathBuf::from(diff::DEFAULT_DIR),
        artifacts: Vec::new(),
        jobs: default_jobs(),
        cache_dir: None,
    };
    let mut requested = Vec::new();
    while let Some(arg) = a.next() {
        match arg.as_str() {
            flag if flag == dir_flag => args.dir = a.path("a directory")?,
            "--jobs" => args.jobs = a.count(1)?,
            "--cache" => args.cache_dir = Some(a.path("a directory")?),
            "--help" | "-h" => return Ok(Parsed::Help),
            other => select(&mut requested, other)?,
        }
    }
    args.artifacts = print_order(&requested);
    Ok(wrap(args))
}

/// Parses `profile`: each `--scenario` names a paper-shape spec, and
/// `--fault-plan`/`--fault-seed` set the fault plan of every one.
fn parse_profile(mut a: Args) -> Result<Parsed, String> {
    let mut specs = Vec::new();
    let (mut jobs, mut json_dir, mut fault_spec, mut fault_seed) = (default_jobs(), None, None, 42);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--scenario" => {
                let name = a.value("a name")?;
                specs.push(spec_run::paper_spec(&name).map_err(|e| e.to_string())?);
            }
            "--jobs" => jobs = a.count(1)?,
            "--json" => json_dir = Some(a.path("a directory")?),
            "--fault-plan" => fault_spec = Some(a.value("a spec")?),
            "--fault-seed" => fault_seed = a.count(0)?,
            other => return a.reject(other),
        }
    }
    if specs.is_empty() {
        specs = profile::default_set();
    }
    if let Some(plan) = build_fault_plan(fault_spec.as_deref(), fault_seed)? {
        for spec in &mut specs {
            spec.set_fault_plan(&plan);
        }
    }
    Ok(Parsed::Profile(ProfileArgs {
        specs,
        jobs,
        json_dir,
    }))
}

/// Parses the `trace` subcommand family: `trace <scenario> ...`,
/// `trace query FILE ...`, `trace bench ...`.
fn parse_trace(mut a: Args) -> Result<Parsed, String> {
    match a.peek().as_deref() {
        None | Some("--help" | "-h") => Ok(Parsed::Help),
        Some("query") => parse_trace_query(a.sub("query")),
        Some("bench") => {
            let mut a = a.sub("bench");
            let (mut out, mut ring) = (PathBuf::from("BENCH_trace.json"), 4096);
            while let Some(arg) = a.next() {
                match arg.as_str() {
                    "--out" => out = a.path("an output file")?,
                    "--ring" => ring = a.count(1)?,
                    other => return a.reject(other),
                }
            }
            Ok(Parsed::TraceBench { out, ring })
        }
        Some(_) => {
            let scenario = a.next().expect("peeked an argument");
            parse_trace_run(&scenario, a)
        }
    }
}

/// Parses `trace <scenario>`: a `<workload>-<hypervisor>` name, or a
/// workload with `--hypervisor`, straight into a paper-shape spec.
fn parse_trace_run(scenario: &str, mut a: Args) -> Result<Parsed, String> {
    let (mut hypervisor, mut out, mut ring) = (None, None, None);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--hypervisor" => hypervisor = Some(a.value("a name")?),
            "--out" => out = Some(a.path("an output file")?),
            "--ring" => ring = Some(a.count(1)?),
            other => return a.reject(other),
        }
    }
    let spec = match hypervisor {
        Some(slug) => HvKind::parse(&slug)
            .ok_or(Error::UnknownScenario { name: slug })
            .and_then(|kind| {
                Ok(ScenarioSpec::paper(kind).with_workload(Workload::parse(scenario)?))
            }),
        None => spec_run::paper_spec(scenario),
    }
    .map_err(|e| format!("trace: {e}"))?;
    Ok(Parsed::TraceRun(TraceRunArgs { spec, ring, out }))
}

fn parse_trace_query(mut a: Args) -> Result<Parsed, String> {
    let (mut file, mut query, mut validate) = (None, trace::Query::default(), false);
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--transition" => query.transition = Some(a.value("a name")?),
            "--track" => query.track = Some(a.value("a track name")?),
            "--from" => query.from = Some(a.count(0)?),
            "--to" => query.to = Some(a.count(0)?),
            "--top" => query.top = Some(a.count(1)?),
            "--validate" => validate = true,
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(PathBuf::from(other));
            }
            other => return a.reject(other),
        }
    }
    Ok(Parsed::TraceQuery(TraceQueryArgs {
        file: a.require(file, "a trace file")?,
        query,
        validate,
    }))
}

/// What `hvx-repro bench` prints: the benchmark moved to `perfbench`.
const BENCH_RETIRED: &str = "the 'bench' subcommand has been retired; run the benchmark with \
     'cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
     --workload fig4-grid --seed 1 --seconds 30 --trace 0' (see perfbench/README.md)";

fn parse_args() -> Result<Parsed, String> {
    // Structured logging is off unless HVX_LOG or --log-level turns it
    // on; either way the setting only ever writes to stderr, so
    // artifact stdout stays byte-identical.
    hvx_obs::log::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(pos) = args.iter().position(|a| a == "--log-level") {
        let Some(level) = args.get(pos + 1).cloned() else {
            return Err("--log-level requires a level (off, error, info, debug)".into());
        };
        let Some(lv) = hvx_obs::LogLevel::parse(&level) else {
            return Err(format!(
                "unknown log level '{level}' (off, error, info, debug)"
            ));
        };
        hvx_obs::log::set_level(lv);
        args.drain(pos..pos + 2);
    }
    let Some(cmd) = args.first().cloned() else {
        // Bare `hvx-repro` still reproduces everything.
        return parse_run(Args::new("run", args));
    };
    let mut a = Args::new(&cmd, args.split_off(1));
    match cmd.as_str() {
        "run" => parse_run(a),
        "bench" => Err(BENCH_RETIRED.to_string()),
        "profile" => parse_profile(a),
        "trace" => parse_trace(a),
        "serve" => parse_serve(a),
        "baseline" => match a.peek().as_deref() {
            Some("write") => parse_baseline(a.sub("write"), "--dir", Parsed::BaselineWrite),
            Some("--help" | "-h") | None => Ok(Parsed::Help),
            Some(other) => Err(format!(
                "baseline: unknown subcommand '{other}' (expected 'write'); try --help"
            )),
        },
        "check" => parse_baseline(a, "--baseline", Parsed::Check),
        "list-scenarios" => match a.next() {
            None => Ok(Parsed::ListScenarios),
            Some(other) => a.reject(&other),
        },
        "--help" | "-h" => Ok(Parsed::Help),
        // The historical pre-subcommand spelling (artifact names or
        // flags as the first token) is retired and points at the `run`
        // equivalent.
        other => Err(format!(
            "the no-subcommand interface has been retired; \
             use 'hvx-repro run {other} ...' instead (try --help)"
        )),
    }
}

/// Opens the result cache named by `--cache`, or bypasses it (with a
/// warning) when `HVX_COST_PERTURB` is set: perturbed charging costs
/// are deliberately *not* part of the fingerprint — that is the drift
/// drill — so serving cached unperturbed results would mask exactly
/// the divergence the perturbation exists to demonstrate.
fn open_cache(dir: Option<&PathBuf>) -> Result<Option<Arc<ResultCache>>, Error> {
    let Some(dir) = dir else { return Ok(None) };
    if std::env::var("HVX_COST_PERTURB").is_ok_and(|s| !s.trim().is_empty()) {
        eprintln!(
            "hvx-repro: warning: HVX_COST_PERTURB is set; bypassing the result cache \
             so perturbed runs are never served from (or stored into) it"
        );
        return Ok(None);
    }
    Ok(Some(Arc::new(ResultCache::open(dir)?)))
}

fn report_cache_stats(cache: &Option<Arc<ResultCache>>) {
    if let Some(cache) = cache {
        eprintln!("hvx-repro: {}", cache.stats());
    }
}

fn baseline_write(args: &BaselineArgs) -> Result<(), Error> {
    let artifacts: Vec<ArtifactId> = if args.artifacts.is_empty() {
        ArtifactId::ALL.to_vec()
    } else {
        args.artifacts.clone()
    };
    let cache = open_cache(args.cache_dir.as_ref())?;
    let report = diff::write_baseline(&args.dir, &artifacts, args.jobs, cache.clone())?;
    report_cache_stats(&cache);
    println!(
        "baseline: wrote {} artifact(s) and {} span profile(s) to {}",
        report.artifacts.len(),
        report.span_profiles,
        report.dir.display()
    );
    Ok(())
}

fn check(args: &BaselineArgs) -> Result<(), Error> {
    let cache = open_cache(args.cache_dir.as_ref())?;
    let report = diff::check_baseline(&args.dir, &args.artifacts, args.jobs, cache.clone())?;
    report_cache_stats(&cache);
    print!("{}", report.rendered);
    let report = report.into_result()?;
    println!(
        "check: {} artifact(s) {}",
        report.verdicts.len(),
        if report.schema_bump {
            "checked; divergences are an expected schema bump"
        } else {
            "byte-identical to the baseline"
        }
    );
    Ok(())
}

fn run(args: &RunArgs) -> Result<(), Error> {
    if !args.out_json {
        println!("hvx — reproducing \"ARM Virtualization: Performance and Architectural");
        println!("Implications\" (ISCA 2016) on the simulator. Paper values in parentheses.\n");
    }

    let cache = open_cache(args.cache_dir.as_ref())?;
    let cfg = RunnerConfig {
        cache: cache.clone(),
        ..args.cfg.clone()
    };
    let started = Instant::now();
    let outcome = runner::run_artifacts_with(&args.artifacts, args.jobs, &cfg)?;
    let elapsed = started.elapsed().as_secs_f64();
    let reports = &outcome.reports;
    for r in reports {
        if !args.out_json {
            print!("{}", r.text);
        }
        if let Some(dir) = &args.json_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("{}.json", r.id.json_name()));
            std::fs::write(&path, &r.json)?;
            eprintln!("wrote {}", path.display());
        }
        if args.timing {
            eprintln!(
                "[timing] {:<10} {:>9.3}s",
                r.id.cli_name(),
                r.wall.as_secs_f64()
            );
        }
    }
    if args.timing {
        let total: f64 = reports.iter().map(|r| r.wall.as_secs_f64()).sum();
        eprintln!(
            "[timing] {:<10} {total:>9.3}s (sum over scenarios, --jobs {})",
            "total", args.jobs
        );
        // Self-telemetry: worker utilization distinguishes a warm run
        // (cache hits, workers mostly idle) from a cold one. stderr
        // only — artifact stdout/JSON must stay byte-identical.
        let capacity = args.jobs as f64 * elapsed;
        let utilization = if capacity > 0.0 {
            100.0 * total / capacity
        } else {
            0.0
        };
        eprintln!(
            "[timing] {:<10} {elapsed:>9.3}s wall, worker utilization {utilization:.1}%",
            "run"
        );
        if let Some(cache) = &cache {
            let s = cache.stats();
            let temperature = match (s.hits, s.misses) {
                (0, _) => "cold",
                (_, 0) => "warm",
                _ => "mixed",
            };
            eprintln!(
                "[timing] {:<10} {} hits, {} misses ({temperature})",
                "cache", s.hits, s.misses
            );
        }
    }

    if args.out_json {
        // The structured report replaces the rendered artifact text on
        // stdout: one record per scenario (chaos last), carrying the
        // typed failure kind, retry count, and content fingerprint.
        let report = hvx_core::report::RunReport {
            cells: outcome.cells.clone(),
        };
        println!("{}", pretty(&Serialize::serialize(&report))?);
    }

    report_cache_stats(&cache);
    let failures = outcome.failures();
    for (label, f) in &failures {
        eprintln!("hvx-repro: warning: scenario '{label}' {f}");
    }
    match failures.into_iter().next() {
        None => Ok(()),
        Some((scenario, f)) if args.keep_going => {
            eprintln!(
                "hvx-repro: warning: continuing despite failures \
                 (--keep-going); first was '{scenario}' ({})",
                f.kind
            );
            Ok(())
        }
        Some((scenario, f)) => Err(Error::Scenario {
            scenario,
            kind: f.kind,
            detail: f.detail,
        }),
    }
}

/// `run --spec FILE`: load the scenario spec, run the one scenario it
/// describes, print its report — as text, or (`--out json`) as the
/// structured `{report, cell}` record.
fn run_spec_file(path: &Path, out_json: bool) -> Result<(), Error> {
    let run = spec_run::run_spec_report(&spec_run::load(path)?)?;
    if out_json {
        let v = Value::Object(vec![
            ("report".into(), Value::Str(run.report)),
            ("cell".into(), Serialize::serialize(&run.cell)),
        ]);
        println!("{}", pretty(&v)?);
    } else {
        print!("{}", run.report);
    }
    Ok(())
}

fn pretty(v: &Value) -> Result<String, Error> {
    serde_json::to_string_pretty(v).map_err(|e| Error::Serialize {
        what: "JSON output",
        detail: e.to_string(),
    })
}

/// Prints an HTTP client response as a JSON envelope: the response
/// body's fields with a `status` field prepended. The process exits 0
/// whenever the round trip succeeded — error *statuses* (shed,
/// quarantined, draining) are data for the caller to inspect, exactly
/// like `curl`.
fn print_envelope(status: u16, body: Value) -> Result<(), Error> {
    let mut pairs = vec![("status".to_string(), Value::U64(u64::from(status)))];
    match body {
        Value::Object(fields) => pairs.extend(fields),
        other => pairs.push(("body".to_string(), other)),
    }
    println!("{}", pretty(&Value::Object(pairs))?);
    Ok(())
}

fn serve_err(detail: String) -> Error {
    Error::Serve { detail }
}

/// `serve` with no client subcommand: bind, announce, serve until a
/// drain completes.
fn serve_run(args: &ServeArgs) -> Result<(), Error> {
    let cache = open_cache(args.cache_dir.as_ref())?;
    let cfg = ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        max_queue_weight: args.max_queue_weight,
        client_inflight_cap: args.client_cap,
        max_results: args.max_results,
        max_retries: args.retries,
        journal: args.journal.clone(),
        ..ServerConfig::default()
    };
    let server = Server::bind(cfg, Arc::new(SuiteExecutor::new(cache)))?;
    // The resolved address goes to stdout (scripts capture it to learn
    // an ephemeral port); progress chatter stays on stderr.
    println!("hvx-serve: listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    eprintln!(
        "hvx-serve: journal {}, cache {}",
        args.journal
            .as_ref()
            .map_or("disabled".to_string(), |p| p.display().to_string()),
        args.cache_dir
            .as_ref()
            .map_or("disabled".to_string(), |p| p.display().to_string()),
    );
    server.run()
}

fn serve_cmd(cmd: &ServeCmd) -> Result<(), Error> {
    match cmd {
        ServeCmd::Run(args) => serve_run(args),
        ServeCmd::Submit {
            addr,
            client,
            source,
            wait_secs,
        } => {
            let body = match source {
                SubmitSource::Spec(path) => std::fs::read_to_string(path)?,
                SubmitSource::Chaos(kind) => format!("{{\"chaos\": \"{kind}\"}}"),
            };
            let (status, v) = serve_client::submit(addr, client, &body).map_err(serve_err)?;
            if let (Some(secs), Some(id)) = (wait_secs, v.get("job").and_then(Value::as_u64)) {
                if status == 200 || status == 202 {
                    let v = serve_client::wait(addr, id, Duration::from_secs_f64(*secs))
                        .map_err(serve_err)?;
                    return print_envelope(200, v);
                }
            }
            print_envelope(status, v)
        }
        ServeCmd::Sweep {
            addr,
            client,
            template,
        } => {
            let body = std::fs::read_to_string(template)?;
            let (status, v) = serve_client::sweep(addr, client, &body).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Poll { addr, job } => {
            let (status, v) = serve_client::poll(addr, *job).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Stats { addr } => {
            let v = serve_client::stats(addr).map_err(serve_err)?;
            print_envelope(200, v)
        }
        ServeCmd::Metrics { addr } => {
            let text = serve_client::metrics(addr).map_err(serve_err)?;
            print!("{text}");
            Ok(())
        }
        ServeCmd::TraceQuery {
            addr,
            fingerprint,
            top,
        } => {
            let (status, v) = serve_client::trace(addr, fingerprint, *top).map_err(serve_err)?;
            print_envelope(status, v)
        }
        ServeCmd::Drain { addr } => {
            serve_client::drain(addr).map_err(serve_err)?;
            print_envelope(
                200,
                Value::Object(vec![("draining".into(), Value::Bool(true))]),
            )
        }
        ServeCmd::Bench { out } => {
            eprintln!("serve bench: in-process server, cold + warm round trip, shed burst ...");
            let report = service::bench()?;
            let data = serde_json::to_string_pretty(&report).map_err(|e| Error::Serialize {
                what: "serve bench report",
                detail: e.to_string(),
            })?;
            std::fs::write(out, data)?;
            eprintln!(
                "serve bench: cold {}us, warm {}us ({:.1}x), shed after {} of weight bound {}, \
                 wrote {}",
                report.cold_us,
                report.warm_us,
                report.warm_speedup,
                report.accepted_before_shed,
                report.max_queue_weight,
                out.display()
            );
            eprintln!(
                "serve bench: scrape {}us, warm submit {}us plain vs {}us scraped \
                 ({:.1}% overhead)",
                report.scrape_us,
                report.warm_plain_us,
                report.warm_scraped_us,
                report.scrape_overhead_pct
            );
            Ok(())
        }
    }
}

fn run_profile(args: &ProfileArgs) -> Result<(), Error> {
    let reports = profile::run_profiles(&args.specs, args.jobs)?;
    print!("{}", profile::render_profiles(&reports));
    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir)?;
        for r in &reports {
            let data = serde_json::to_string_pretty(r).map_err(|e| Error::Serialize {
                what: "profile report",
                detail: e.to_string(),
            })?;
            let path = dir.join(format!("profile-{}.json", r.scenario));
            std::fs::write(&path, data)?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

fn trace_run(args: &TraceRunArgs) -> Result<(), Error> {
    let report = trace::run_trace(&args.spec, args.ring)?;
    print!("{}", report.render());
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("trace-{}.json", report.scenario)));
    std::fs::write(&path, &report.json)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn trace_query(args: &TraceQueryArgs) -> Result<(), Error> {
    let text = std::fs::read_to_string(&args.file)?;
    let parsed = trace::ParsedTrace::parse(&text)?;
    if args.validate {
        print!("{}", trace::validate(&parsed)?);
        return Ok(());
    }
    print!(
        "{}",
        trace::render_query(&parsed, &args.query, &args.file.display().to_string())
    );
    Ok(())
}

fn trace_bench(out: &PathBuf, ring: usize) -> Result<(), Error> {
    eprintln!("trace bench: running the Fig. 4 sweep tracing-off, tracing-on, ring({ring}) ...");
    let report = trace::run_trace_bench(ring)?;
    let data = serde_json::to_string_pretty(&report).map_err(|e| Error::Serialize {
        what: "trace bench report",
        detail: e.to_string(),
    })?;
    std::fs::write(out, data)?;
    eprintln!(
        "trace bench: off {:.3}s, on {:.3}s ({:.2}x), ring {:.3}s ({:.2}x), wrote {}",
        report.off_seconds,
        report.on_seconds,
        report.on_overhead,
        report.ring_seconds,
        report.ring_overhead,
        out.display()
    );
    Ok(())
}

fn list_scenarios() {
    println!("artifacts (run):");
    for a in ArtifactId::ALL {
        println!("  {}", a.cli_name());
    }
    println!("\nprofile scenarios (profile --scenario NAME):");
    println!("  default set:");
    for spec in profile::default_set() {
        println!("    {}", spec_run::paper_name(&spec));
    }
    println!("  (trace SCENARIO accepts the same names, or <workload> --hypervisor <hv>)");
    println!("  any <workload>-<hypervisor> combination, e.g. mysql-xen-arm;");
    let workloads: Vec<&str> = Workload::SLUGS.iter().map(|(_, slug)| *slug).collect();
    println!("  workloads: {}", workloads[..5].join(" "));
    println!("             {}", workloads[5..].join(" "));
    let kinds: Vec<&str> = HvKind::ALL.iter().map(|k| k.slug()).collect();
    println!("  hypervisors: {}", kinds.join(" "));
}

fn main() {
    let parsed = match parse_args() {
        Ok(p) => p,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = match &parsed {
        Parsed::Help => {
            println!("{}", usage());
            return;
        }
        Parsed::ListScenarios => {
            list_scenarios();
            return;
        }
        Parsed::Run(args) => run(args),
        Parsed::SpecRun { path, out_json } => run_spec_file(path, *out_json),
        Parsed::Serve(cmd) => serve_cmd(cmd),
        Parsed::Profile(args) => run_profile(args),
        Parsed::TraceRun(args) => trace_run(args),
        Parsed::TraceQuery(args) => trace_query(args),
        Parsed::TraceBench { out, ring } => trace_bench(out, *ring),
        Parsed::BaselineWrite(args) => baseline_write(args),
        Parsed::Check(args) => check(args),
    };
    if let Err(e) = result {
        eprintln!("hvx-repro: {e}");
        let code = match e {
            Error::Scenario { .. } => 3,
            Error::BaselineDrift { .. } => 4,
            _ => 1,
        };
        std::process::exit(code);
    }
}
