//! The suite side of the sweep server: a [`JobExecutor`] over the spec
//! runner and the content-addressed cache.
//!
//! `hvx-serve` is domain-agnostic — it admits, queues, retries, and
//! journals opaque job bodies. [`SuiteExecutor`] supplies the domain:
//!
//! * **prepare** parses a body as either a [`ScenarioSpec`] or a chaos
//!   probe (`{"chaos": "panic"}`), validates it, and derives the
//!   admission metadata (label, content fingerprint, weight);
//! * **lookup** consults the [`ResultCache`] by spec fingerprint, so
//!   warm submissions are answered at admission time without touching
//!   the worker pool;
//! * **run** executes one attempt through [`spec_run::run_spec_report`],
//!   which enforces the spec's watchdog and classifies panics with
//!   [`runner::classify_panic`], so a poisoned spec becomes a typed
//!   [`JobFailure`] instead of a dead worker;
//! * **expand** turns a sweep template into individual spec bodies for
//!   all-or-nothing batched admission.
//!
//! [`ScenarioSpec`]: hvx_core::ScenarioSpec

use crate::cache::{self, ResultCache};
use crate::runner::{self, ChaosKind, RunnerConfig, Scenario};
use crate::spec_run;
use crate::trace::{self, ParsedTrace};
use hvx_core::report::CellReport;
use hvx_core::{Error, ScenarioFailureKind, ScenarioSpec, SchedPolicy, SpecShape, TopologySpec};
use hvx_engine::Watchdog;
use hvx_serve::{client, JobExecutor, JobFailure, JobOutput, PreparedJob, Server, ServerConfig};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache entry tag for spec-run results (`{"report", "cell"}` payloads).
const SPEC_RESULT_KIND: &str = "spec-result";

/// Cache entry tag for stored trace queries (ranked critical chains).
const TRACE_RESULT_KIND: &str = "trace-query";

/// Ranked chains kept per stored trace. Bounds the cache entry; the
/// server truncates further per request (`?top=K`).
const MAX_STORED_CHAINS: usize = 64;

/// Derived cache key for a fingerprint's stored trace: the spec result
/// lives at `<fp>.json`, its trace at `<fp>-trace.json`.
fn trace_key(fingerprint: &str) -> String {
    format!("{fingerprint}-trace")
}

/// Admission weight of a paper-shape spec (a full Figure-4-style
/// workload run), on the same scale as the runner's scenario weights.
const PAPER_WEIGHT: u64 = 25;

/// Watchdog for chaos probes: spin/livelock probes must trip a limit
/// instead of wedging a worker, whatever the probe body says.
const CHAOS_WATCHDOG: Watchdog = Watchdog {
    cycle_budget: Some(200_000_000),
    livelock_threshold: Some(10_000),
};

/// The production [`JobExecutor`]: spec runner + result cache.
#[derive(Debug, Default)]
pub struct SuiteExecutor {
    cache: Option<Arc<ResultCache>>,
}

impl SuiteExecutor {
    /// An executor serving warm results from (and storing clean runs
    /// to) `cache`; `None` disables caching entirely.
    pub fn new(cache: Option<Arc<ResultCache>>) -> SuiteExecutor {
        SuiteExecutor { cache }
    }

    /// Stores ranked critical chains for a just-completed cold
    /// paper-shape run, so `GET /trace/<fp>` answers from the warm
    /// cache without re-running anything. The traced run is the spec's
    /// own — fault plan, watchdog and vIRQ policy included — so the
    /// chains belong to the run `fingerprint` names. Best-effort: a
    /// spec of another shape, or a trace that fails to run or parse,
    /// simply leaves no stored trace (the endpoint 404s), never failing
    /// the job itself.
    fn store_trace(&self, fingerprint: &str, spec: &ScenarioSpec) {
        let Some(cache) = &self.cache else { return };
        let Ok(report) = trace::run_trace(spec, None) else {
            return;
        };
        let Some(chains) = top_chains(&report.json) else {
            return;
        };
        cache.store_raw(
            &trace_key(fingerprint),
            TRACE_RESULT_KIND,
            Value::Object(vec![
                ("scenario".into(), Value::Str(report.scenario)),
                ("fingerprint".into(), Value::Str(fingerprint.to_string())),
                ("chains".into(), chains),
            ]),
        );
    }
}

/// The top [`MAX_STORED_CHAINS`] chains of an exported trace, in the
/// query ranking (longest end-to-end latency first, chain id as the
/// deterministic tiebreak), as the JSON array `/trace/<fp>` serves.
fn top_chains(json: &str) -> Option<Value> {
    let mut chains = ParsedTrace::parse(json).ok()?.chains();
    chains.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.id.cmp(&b.id)));
    chains.truncate(MAX_STORED_CHAINS);
    Some(Value::Array(
        chains
            .iter()
            .map(|c| {
                Value::Object(vec![
                    ("kind".into(), Value::Str(c.kind.clone())),
                    ("id".into(), Value::U64(c.id)),
                    ("complete".into(), Value::Bool(c.complete)),
                    ("latency_cycles".into(), Value::U64(c.latency)),
                    (
                        "hops".into(),
                        Value::Array(
                            c.hops
                                .iter()
                                .map(|h| {
                                    Value::Object(vec![
                                        ("ph".into(), Value::Str(h.ph.clone())),
                                        ("ts".into(), Value::U64(h.ts)),
                                        ("tid".into(), Value::U64(h.tid)),
                                        ("hop".into(), Value::Str(h.hop.clone())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    ))
}

/// Parses a chaos probe body (`{"chaos": "panic" | "spin" |
/// "livelock"}`), or `None` when the body is not a chaos object.
fn parse_chaos(body: &str) -> Option<Result<ChaosKind, String>> {
    let v = serde_json::parse_value(body.trim()).ok()?;
    let name = v.get("chaos")?;
    let Some(name) = name.as_str() else {
        return Some(Err("\"chaos\" must be a string".into()));
    };
    Some(
        ChaosKind::parse(name)
            .ok_or_else(|| format!("unknown chaos kind '{name}' (panic, spin, livelock)")),
    )
}

fn spec_weight(shape: SpecShape) -> u64 {
    match shape {
        SpecShape::Paper => PAPER_WEIGHT,
        SpecShape::Consolidation { ratio } => 5 + u64::from(ratio) / 2,
        SpecShape::Rack {
            hosts,
            vms_per_host,
        } => 5 + u64::from(hosts) * u64::from(vms_per_host),
    }
}

impl JobExecutor for SuiteExecutor {
    fn prepare(&self, body: &str) -> Result<PreparedJob, String> {
        if let Some(chaos) = parse_chaos(body) {
            let kind = chaos?;
            return Ok(PreparedJob {
                label: format!("chaos-{}", kind.name()),
                // A synthetic stable fingerprint: chaos probes are
                // uncacheable but the circuit breaker still groups
                // their failures by kind.
                fingerprint: format!("chaos-{}", kind.name()),
                cacheable: false,
                weight: 1,
                body: body.to_string(),
            });
        }
        let spec = spec_run::parse(body).map_err(|e| e.to_string())?;
        let shape = spec.shape().map_err(|e| e.to_string())?;
        // Reject malformed fault plans at admission, not on a worker.
        spec.fault_plan().map_err(|e| e.to_string())?;
        Ok(PreparedJob {
            label: spec_run::label(&spec),
            fingerprint: cache::spec_fingerprint(&spec).to_hex(),
            cacheable: true,
            weight: spec_weight(shape),
            body: body.to_string(),
        })
    }

    fn lookup(&self, job: &PreparedJob) -> Option<JobOutput> {
        if !job.cacheable {
            return None;
        }
        let cache = self.cache.as_ref()?;
        let payload = cache.lookup_raw(&job.fingerprint, SPEC_RESULT_KIND)?;
        let report = payload.get("report")?.as_str()?.to_string();
        let mut cell: CellReport = Deserialize::deserialize(payload.get("cell")?).ok()?;
        cell.cached = true;
        Some(JobOutput { report, cell })
    }

    fn run(&self, job: &PreparedJob) -> Result<JobOutput, JobFailure> {
        if let Some(chaos) = parse_chaos(&job.body) {
            return run_chaos(chaos.map_err(|detail| JobFailure {
                kind: ScenarioFailureKind::Failed,
                detail,
                transient: false,
            })?);
        }
        let spec = spec_run::parse(&job.body).map_err(|e| JobFailure {
            kind: ScenarioFailureKind::Failed,
            detail: e.to_string(),
            transient: false,
        })?;
        match spec_run::run_spec_report(&spec) {
            Err(Error::Scenario { kind, detail, .. }) => Err(JobFailure {
                // Panics are plausibly transient (a host-side resource
                // blip); watchdog trips are deterministic under a fixed
                // spec and must fail fast.
                transient: kind == ScenarioFailureKind::Panicked,
                kind,
                detail,
            }),
            Err(e) => Err(JobFailure {
                kind: ScenarioFailureKind::Failed,
                detail: e.to_string(),
                transient: false,
            }),
            Ok(run) => {
                if job.cacheable {
                    if let Some(cache) = &self.cache {
                        cache.store_raw(
                            &job.fingerprint,
                            SPEC_RESULT_KIND,
                            Value::Object(vec![
                                ("report".into(), Value::Str(run.report.clone())),
                                ("cell".into(), Serialize::serialize(&run.cell)),
                            ]),
                        );
                    }
                    self.store_trace(&job.fingerprint, &spec);
                }
                Ok(JobOutput {
                    report: run.report,
                    cell: run.cell,
                })
            }
        }
    }

    fn trace(&self, fingerprint: &str) -> Option<String> {
        let cache = self.cache.as_ref()?;
        let payload = cache.lookup_raw(&trace_key(fingerprint), TRACE_RESULT_KIND)?;
        serde_json::to_string(&payload).ok()
    }

    fn expand(&self, body: &str) -> Result<Vec<String>, String> {
        let v = serde_json::parse_value(body.trim()).map_err(|e| format!("sweep: {e}"))?;
        let Some(sweep) = v.get("sweep") else {
            return Err("sweep template must carry a \"sweep\" key".into());
        };
        // Explicit form: {"sweep": [body, body, ...]}.
        if let Some(items) = sweep.as_array() {
            return items
                .iter()
                .map(|item| serde_json::to_string(item).map_err(|e| format!("sweep item: {e}")))
                .collect();
        }
        // Template form: {"sweep": {"base": SPEC, "ratios": [..],
        // "schedulers": [..]}} — the cross product over a consolidation
        // base spec.
        let Some(base) = sweep.get("base") else {
            return Err("sweep template needs \"base\" (a spec) or an array of bodies".into());
        };
        let base: ScenarioSpec =
            Deserialize::deserialize(base).map_err(|e| format!("sweep base: {e}"))?;
        let ratios: Vec<u32> = match sweep.get("ratios") {
            None => vec![base.topology.vms],
            Some(r) => r
                .as_array()
                .ok_or("\"ratios\" must be an array")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(|n| n as u32)
                        .ok_or("ratios must be integers")
                })
                .collect::<Result<_, _>>()?,
        };
        let scheds: Vec<SchedPolicy> = match sweep.get("schedulers") {
            None => vec![base.scheduler],
            Some(s) => s
                .as_array()
                .ok_or("\"schedulers\" must be an array")?
                .iter()
                .map(|v| {
                    let name = v.as_str().ok_or("schedulers must be strings")?;
                    SchedPolicy::parse(name).map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
        };
        let mut out = Vec::with_capacity(ratios.len() * scheds.len());
        for &sched in &scheds {
            for &ratio in &ratios {
                let mut spec = base.clone();
                spec.topology = TopologySpec::consolidation(ratio);
                spec.scheduler = sched;
                spec.shape().map_err(|e| format!("sweep cell: {e}"))?;
                out.push(
                    serde_json::to_string(Serialize::serialize(&spec))
                        .map_err(|e| format!("sweep cell: {e}"))?,
                );
            }
        }
        Ok(out)
    }
}

/// Runs one chaos probe through the hardened runner (which owns the
/// `catch_unwind`) and maps the classified outcome to a job result.
fn run_chaos(kind: ChaosKind) -> Result<JobOutput, JobFailure> {
    let cfg = RunnerConfig {
        watchdog: CHAOS_WATCHDOG,
        ..RunnerConfig::default()
    };
    let results = runner::run_scenarios_with(&[Scenario::Chaos(kind)], 1, &cfg)
        .expect("one job is a valid job count");
    let result = &results[0];
    match &result.outcome {
        Ok(_) => Ok(JobOutput {
            report: format!("chaos-{} survived its run\n", kind.name()),
            cell: result.cell_report(),
        }),
        Err(f) => Err(JobFailure {
            transient: f.kind == ScenarioFailureKind::Panicked,
            kind: f.kind,
            detail: f.detail.clone(),
        }),
    }
}

/// What `hvx-repro serve bench` measured: admission-path latencies and
/// the shed threshold of a default-tuned in-process server.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBench {
    /// Cold submit→done latency (the cell actually simulated), in
    /// microseconds of host wall clock.
    pub cold_us: u64,
    /// Warm submit latency for the same spec (answered from the cache
    /// at admission, no worker involved), in microseconds.
    pub warm_us: u64,
    /// Cold/warm speedup (×).
    pub warm_speedup: f64,
    /// Jobs accepted before the first 429 shed under a burst of
    /// distinct heavy submissions.
    pub accepted_before_shed: u64,
    /// The queue-weight bound the shed fired against.
    pub max_queue_weight: u64,
    /// Mean `GET /metrics` scrape latency, microseconds.
    pub scrape_us: u64,
    /// Mean warm-submit latency with no scraper running, microseconds.
    pub warm_plain_us: u64,
    /// Mean warm-submit latency while a concurrent scraper hammers
    /// `/metrics` in a loop, microseconds.
    pub warm_scraped_us: u64,
    /// Relative slowdown the scraper imposed on the serving path,
    /// percent (0 when scraping measured faster — noise floor).
    pub scrape_overhead_pct: f64,
}

/// Benchmarks the serving path end to end: binds an in-process server
/// on an ephemeral port over a temporary cache, measures a cold and a
/// warm round trip for the same consolidation spec, then bursts
/// distinct submissions until admission sheds.
///
/// # Errors
///
/// [`Error::Serve`] for server/transport failures during the bench.
pub fn bench() -> Result<ServeBench, Error> {
    let dir = std::env::temp_dir().join(format!("hvx-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ResultCache::open(&dir.join("cache"))?);
    let cfg = ServerConfig {
        workers: 2,
        max_queue_weight: 60,
        client_inflight_cap: 64,
        journal: Some(dir.join("journal.jsonl")),
        ..ServerConfig::default()
    };
    let max_queue_weight = cfg.max_queue_weight;
    let server = Server::bind(cfg, Arc::new(SuiteExecutor::new(Some(cache))))?;
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());

    let serve_err = |detail: String| Error::Serve { detail };
    // Heavy enough that the worker run dominates the cold round trip;
    // the warm resubmission skips it entirely at admission.
    let mut spec = ScenarioSpec::consolidation(hvx_core::HvKind::KvmArm, 16, SchedPolicy::Credit);
    spec.transactions = Some(4_000);
    let body = serde_json::to_string(Serialize::serialize(&spec)).expect("spec serializes");

    let round_trip = |tag: &str| -> Result<u64, Error> {
        let start = Instant::now();
        let (status, v) = client::submit(&addr, "bench", &body).map_err(serve_err)?;
        if status != 200 && status != 202 {
            return Err(serve_err(format!("{tag} submit: status {status}")));
        }
        let id = v
            .get("job")
            .and_then(Value::as_u64)
            .ok_or_else(|| serve_err(format!("{tag} submit: no job id")))?;
        client::wait(&addr, id, Duration::from_secs(60)).map_err(serve_err)?;
        Ok(start.elapsed().as_micros() as u64)
    };
    let cold_us = round_trip("cold")?;
    let warm_us = round_trip("warm")?.max(1);

    // Scrape cost and scrape-on overhead: mean warm-submit latency with
    // and without a concurrent scraper looping over /metrics. Warm
    // submissions never touch a worker, so this isolates the admission
    // path — the lock the scraper contends on.
    let scrape_us = {
        let reps = 20u32;
        let start = Instant::now();
        for _ in 0..reps {
            client::metrics(&addr).map_err(serve_err)?;
        }
        (start.elapsed().as_micros() as u64 / u64::from(reps)).max(1)
    };
    let warm_burst = |reps: u32| -> Result<u64, Error> {
        let start = Instant::now();
        for _ in 0..reps {
            let (status, _) = client::submit(&addr, "bench", &body).map_err(serve_err)?;
            if status != 200 {
                return Err(serve_err(format!("warm burst: status {status}")));
            }
        }
        Ok((start.elapsed().as_micros() as u64 / u64::from(reps)).max(1))
    };
    let reps = 30u32;
    let warm_plain_us = warm_burst(reps)?;
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = client::metrics(&addr);
            }
        })
    };
    let warm_scraped_us = warm_burst(reps)?;
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = scraper.join();
    let scrape_overhead_pct =
        ((warm_scraped_us as f64 - warm_plain_us as f64) / warm_plain_us as f64 * 100.0).max(0.0);

    // Burst: distinct heavy cells (transaction counts never repeat, so
    // nothing dedupes) until the weight bound sheds.
    let mut accepted_before_shed = 0u64;
    for txns in 0..200u32 {
        let mut s = spec.clone();
        s.topology = TopologySpec::consolidation(16);
        s.transactions = Some(1_000 + txns);
        let b = serde_json::to_string(Serialize::serialize(&s)).expect("spec serializes");
        let (status, _) = client::submit(&addr, "bench", &b).map_err(serve_err)?;
        match status {
            202 => accepted_before_shed += 1,
            429 => break,
            other => return Err(serve_err(format!("burst: unexpected status {other}"))),
        }
    }

    client::drain(&addr).map_err(serve_err)?;
    running
        .join()
        .map_err(|_| serve_err("server thread panicked".into()))??;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ServeBench {
        cold_us,
        warm_us,
        warm_speedup: cold_us as f64 / warm_us as f64,
        accepted_before_shed,
        max_queue_weight,
        scrape_us,
        warm_plain_us,
        warm_scraped_us,
        scrape_overhead_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_core::HvKind;

    fn spec_body(ratio: u32, txns: u32) -> String {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, ratio, SchedPolicy::Credit);
        spec.transactions = Some(txns);
        serde_json::to_string(Serialize::serialize(&spec)).unwrap()
    }

    #[test]
    fn prepare_classifies_specs_and_chaos_and_rejects_garbage() {
        let exec = SuiteExecutor::new(None);
        let spec = exec.prepare(&spec_body(8, 8)).unwrap();
        assert_eq!(spec.label, "KVM ARM consolidation 8:1");
        assert_eq!(spec.weight, 9);
        assert!(spec.cacheable);
        assert_eq!(spec.fingerprint.len(), 32);

        let chaos = exec.prepare("{\"chaos\": \"panic\"}").unwrap();
        assert_eq!(chaos.label, "chaos-panic");
        assert!(!chaos.cacheable);
        assert_eq!(chaos.weight, 1);

        assert!(exec.prepare("{\"chaos\": \"explode\"}").is_err());
        assert!(exec.prepare("not json").is_err());
        // A structurally valid spec with an impossible topology.
        let mut bad = ScenarioSpec::paper(HvKind::KvmArm);
        bad.topology.vcpus_per_vm = 3;
        let body = serde_json::to_string(Serialize::serialize(&bad)).unwrap();
        assert!(exec.prepare(&body).is_err());
    }

    #[test]
    fn run_matches_direct_spec_run_and_caches() {
        let dir = std::env::temp_dir().join(format!(
            "hvx-service-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        let exec = SuiteExecutor::new(Some(Arc::clone(&cache)));

        let body = spec_body(4, 8);
        let job = exec.prepare(&body).unwrap();
        assert!(exec.lookup(&job).is_none(), "cold cache");
        let out = exec.run(&job).unwrap();
        let direct = spec_run::run_spec(&spec_run::parse(&body).unwrap()).unwrap();
        assert_eq!(out.report, direct, "server path is byte-identical");
        assert!(!out.cell.cached);

        // The run stored the result: lookup now serves it, marked
        // cached, with the identical report bytes.
        let warm = exec.lookup(&job).expect("stored after run");
        assert_eq!(warm.report, direct);
        assert!(warm.cell.cached);
        assert_eq!(
            warm.cell.fingerprint.as_deref(),
            Some(job.fingerprint.as_str())
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_trace_comes_from_the_specs_own_run() {
        let dir = std::env::temp_dir().join(format!(
            "hvx-service-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir).unwrap());
        let exec = SuiteExecutor::new(Some(cache));

        let mut spec = ScenarioSpec::paper(HvKind::KvmArm);
        spec.set_fault_plan(&hvx_engine::FaultPlan::parse("wire_drop=0.1", 7).unwrap());
        let job = exec.prepare(&spec_run::to_json(&spec)).unwrap();
        exec.run(&job).unwrap();
        let stored = exec
            .trace(&job.fingerprint)
            .expect("a cold paper-shape run stores its trace");
        let stored = serde_json::parse_value(&stored).unwrap();
        let chains = |s: &ScenarioSpec| top_chains(&trace::run_trace(s, None).unwrap().json);
        assert_eq!(Some(&stored["chains"]), chains(&spec).as_ref());
        let clean = ScenarioSpec::paper(HvKind::KvmArm);
        assert_ne!(
            Some(&stored["chains"]),
            chains(&clean).as_ref(),
            "the stored chains must carry the spec's fault plan"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_probes_fail_typed_without_killing_the_caller() {
        let exec = SuiteExecutor::new(None);
        let job = exec.prepare("{\"chaos\": \"panic\"}").unwrap();
        let failure = exec.run(&job).unwrap_err();
        assert_eq!(failure.kind, ScenarioFailureKind::Panicked);
        assert!(failure.transient, "panics retry before quarantine");
        assert!(exec.lookup(&job).is_none(), "chaos is never cached");
    }

    #[test]
    fn sweeps_expand_both_forms_and_validate_cells() {
        let exec = SuiteExecutor::new(None);
        // Explicit list form.
        let body = format!(
            "{{\"sweep\": [{}, {}]}}",
            spec_body(2, 4),
            "{\"chaos\": \"panic\"}"
        );
        let items = exec.expand(&body).unwrap();
        assert_eq!(items.len(), 2);
        assert!(exec.prepare(&items[0]).unwrap().cacheable);
        assert!(!exec.prepare(&items[1]).unwrap().cacheable);

        // Cross-product template form.
        let body = format!(
            "{{\"sweep\": {{\"base\": {}, \"ratios\": [2, 4, 8], \
             \"schedulers\": [\"credit\", \"cfs\"]}}}}",
            spec_body(2, 4)
        );
        let items = exec.expand(&body).unwrap();
        assert_eq!(items.len(), 6);
        let labels: Vec<String> = items
            .iter()
            .map(|b| exec.prepare(b).unwrap().label)
            .collect();
        assert!(labels.contains(&"KVM ARM consolidation 8:1".to_string()));
        // All six cells are distinct fingerprints (no accidental dupes).
        let mut fps: Vec<String> = items
            .iter()
            .map(|b| exec.prepare(b).unwrap().fingerprint)
            .collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), 6);

        assert!(exec.expand("{\"nope\": 1}").is_err());
        assert!(exec
            .expand("{\"sweep\": {\"base\": {\"hypervisor\": \"KvmArm\"}}}")
            .is_err());
    }
}
