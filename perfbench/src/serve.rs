//! `serve`: an in-process `Server::bind` over a fresh cache and journal,
//! driven open-loop by one scheduling thread (with a pool of blocking
//! senders so the schedule never waits on a response) and one poller.
//!
//! Arrivals follow a seeded Poisson schedule of `POST /jobs` drawn from
//! consolidation and paper specs. A seeded share repeats specs already in
//! the cache (hits, answered at admission); the rest are distinct
//! (misses, which queue, journal, run and store). The schedule walks a
//! fixed ladder of offered rates; the nominal step supplies the latency
//! percentiles.
//!
//! The mix is synthetic: no recorded request log exists to draw it from,
//! so the constants below are chosen, each for the reason given beside
//! it, and make no claim to represent real traffic.

use std::collections::HashSet;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hvx_core::{HvKind, ScenarioSpec, SchedPolicy, Workload};
use hvx_serve::journal::Journal;
use hvx_serve::{client, JobExecutor, Server, ServerConfig};
use hvx_suite::cache::{self, ResultCache};
use hvx_suite::service::SuiteExecutor;
use hvx_suite::{paper, spec_run};
use serde::Value;

use crate::common::{self, Config, Outcome};
use crate::stats::{median, ms, quantile, us, Metrics, Rng};
use crate::trace::{SpanId, Tracer};

/// A hit must be answered within this long after it was due: forty times
/// the warm round trip (about 5 ms, the accept loop's sleep).
const HIT_LIMIT_MS: f64 = 200.0;
/// A miss must be seen `done` within this long after it was due: a miss
/// runs for 0.1-3 ms and is seen by a 10 ms poll, so only a backlog, not
/// one slow run, crosses a second.
const MISS_LIMIT_MS: f64 = 1000.0;
/// Offered rate of the nominal ladder step, requests per second. Sized so
/// that the nominal step of a 30 s run (18 s) holds at least 1,000 hits
/// and 100 misses at any hit share in `HIT_SHARE`: ten samples past
/// `hit_p99_ms` and past `miss_p90_ms`.
const NOMINAL_RPS: f64 = 100.0;
const TINY_RPS: f64 = 40.0;
/// Range from which each seed draws its share of requests that repeat a
/// cached spec. Its ends keep both tails sampled at the nominal rate: at
/// most 0.9, so at least 10% of requests are misses, and at least 0.8, so
/// hits stay the larger class, as in a sweep resubmitted over a warm cache.
const HIT_SHARE: (f64, f64) = (0.8, 0.9);
/// Offered-rate ladder: (multiple of the nominal rate, share of the run).
/// Doubling steps bracket the nominal rate from below and above so
/// `sustained_rps` has a step on each side; the nominal step takes most of
/// the run for its percentile samples, and each other step is long enough
/// for the twelve backlog samples of `steps`.
const LADDER: [(f64, f64); 4] = [(0.5, 0.1), (1.0, 0.6), (2.0, 0.15), (4.0, 0.15)];
const NOMINAL_STEP: usize = 1;
/// Blocking sender threads behind the scheduling thread.
const SENDERS: usize = 8;
/// The poller's period (the same cadence as `client::wait`).
const POLL_EVERY: Duration = Duration::from_millis(10);
/// A miss not done this long after it was due counts as timed out.
const MISS_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone)]
struct Spec {
    spec: ScenarioSpec,
    body: String,
}

impl Spec {
    fn new(spec: ScenarioSpec) -> Spec {
        let body = spec_run::to_json(&spec);
        Spec { spec, body }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Hit(usize),
    Miss(usize),
}

#[derive(Debug, Clone, Copy)]
struct Req {
    step: usize,
    /// When the request is due, from the start of the schedule.
    due: Duration,
    kind: Kind,
    traced: bool,
}

#[derive(Debug, Default, Clone)]
struct Res {
    sent: Option<Instant>,
    answered: Option<Instant>,
    done: Option<Instant>,
    job: Option<u64>,
    failure: Option<String>,
    report: Option<String>,
    /// The request's span (traced requests only); its children are the
    /// submit and the polls.
    span: Option<SpanId>,
}

/// One consolidation spec: a TCP_RR cell of 1..=8 VMs. Chosen light and
/// even (0.1-3 ms to run) so a miss never holds a worker long enough to
/// stall the hits behind it; that is a choice for a steady measurement,
/// not a sample of the specs a server is sent.
fn consolidation_spec(rng: &mut Rng) -> ScenarioSpec {
    let kind = paper::COLUMNS[rng.below(paper::COLUMNS.len() as u64) as usize];
    let ratio = 1 + rng.below(8) as u32;
    let sched = if rng.below(2) == 0 {
        SchedPolicy::Credit
    } else {
        SchedPolicy::Cfs
    };
    let mut spec = ScenarioSpec::consolidation(kind, ratio, sched);
    spec.transactions = Some(100 + rng.below(100) as u32);
    spec
}

/// Paper-shape specs for the hit pool. A cold paper-shape job also
/// stores a trace of the run, which takes from 40 ms to over 30 s
/// depending on the cell, so the pool draws from the cheapest cells and
/// misses are consolidation specs only.
const PAPER_POOL: [Workload; 3] = [Workload::TcpRr, Workload::TcpStream, Workload::TcpMaerts];

fn paper_spec(rng: &mut Rng) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper(HvKind::KvmX86);
    spec.workload = Some(PAPER_POOL[rng.below(PAPER_POOL.len() as u64) as usize]);
    spec
}

/// Draws `n` specs not in `seen`, from `draw`.
fn distinct_specs(
    rng: &mut Rng,
    n: usize,
    seen: &mut HashSet<String>,
    draw: fn(&mut Rng) -> ScenarioSpec,
) -> Vec<Spec> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let spec = draw(rng);
        if seen.insert(cache::spec_fingerprint(&spec).to_hex()) {
            out.push(Spec::new(spec));
        }
    }
    out
}

/// The seeded inputs: hit pool, distinct miss specs, and the schedule.
struct Inputs {
    hit_share: f64,
    pool: Vec<Spec>,
    misses: Vec<Spec>,
    reqs: Vec<Req>,
    /// (start, length) of each ladder step, from the schedule start.
    steps: Vec<(Duration, Duration)>,
}

fn inputs(cfg: &Config) -> Inputs {
    let mut rng = Rng::new(cfg.seed);
    let hit_share = HIT_SHARE.0 + (HIT_SHARE.1 - HIT_SHARE.0) * rng.unit();
    let mut seen = HashSet::new();
    // The hit pool: two paper-shape specs and consolidation specs.
    let mut pool = distinct_specs(&mut rng, 2, &mut seen, paper_spec);
    let n_consolidation = if cfg.tiny { 1 } else { 6 };
    pool.extend(distinct_specs(
        &mut rng,
        n_consolidation,
        &mut seen,
        consolidation_spec,
    ));
    let nominal = if cfg.tiny { TINY_RPS } else { NOMINAL_RPS };
    let mut reqs = Vec::new();
    let mut steps = Vec::new();
    let mut n_miss = 0;
    let mut start = 0.0;
    for (step, (mult, share)) in LADDER.iter().enumerate() {
        let len = cfg.seconds * share;
        let rate = nominal * mult;
        let mut t = start;
        loop {
            t += rng.exp(1.0 / rate);
            if t >= start + len {
                break;
            }
            let kind = if rng.unit() < hit_share {
                Kind::Hit(rng.below(pool.len() as u64) as usize)
            } else {
                n_miss += 1;
                Kind::Miss(n_miss - 1)
            };
            reqs.push(Req {
                step,
                due: Duration::from_secs_f64(t),
                kind,
                traced: reqs.len() % 2 == 1,
            });
        }
        steps.push((Duration::from_secs_f64(start), Duration::from_secs_f64(len)));
        start += len;
    }
    let misses = distinct_specs(&mut rng, n_miss, &mut seen, consolidation_spec);
    Inputs {
        hit_share,
        pool,
        misses,
        reqs,
        steps,
    }
}

/// A bound server with its pool cached; drains and joins on drop.
struct Live {
    addr: String,
    dir: std::path::PathBuf,
    /// Pool reports, as the server returned them and as verified.
    pool_reports: Vec<String>,
    handle: Option<JoinHandle<Result<(), hvx_core::Error>>>,
}

impl Drop for Live {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            if client::drain(&self.addr).is_ok() {
                let _ = h.join();
            }
        }
    }
}

/// Runs `spec` directly and returns its report and transitions.
fn reference(spec: &ScenarioSpec) -> Result<(String, u64), String> {
    let before = hvx_engine::thread_transitions();
    let report = spec_run::run_spec(spec).map_err(|e| e.to_string())?;
    Ok((report, hvx_engine::thread_transitions() - before))
}

fn setup(cfg: &Config, n: usize, pool: &[Spec], out: &mut Outcome) -> Result<Live, String> {
    let dir = cfg.work.join(format!("serve-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).map_err(|e| e.to_string())?);
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: cfg.jobs,
            max_queue_weight: u64::MAX / 4,
            client_inflight_cap: usize::MAX / 4,
            max_results: usize::MAX / 4,
            journal: Some(dir.join("journal.jsonl")),
            ..ServerConfig::default()
        },
        Arc::new(SuiteExecutor::new(Some(cache))),
    )
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let mut live = Live {
        addr,
        dir,
        pool_reports: Vec::new(),
        handle: Some(std::thread::spawn(move || server.run())),
    };
    for s in pool {
        let (status, v) = client::submit(&live.addr, "perfbench-pool", &s.body)?;
        let id = v
            .get("job")
            .and_then(Value::as_u64)
            .ok_or(format!("pool submit: status {status}"))?;
        let v = client::wait(&live.addr, id, MISS_TIMEOUT)?;
        let report = v
            .get("report")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let (want, _) = reference(&s.spec)?;
        out.check(report == want, || {
            format!("pool report differs: {}", s.body)
        });
        live.pool_reports.push(report);
    }
    Ok(live)
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Everything the open loop observed.
struct Observed {
    start: Instant,
    res: Vec<Res>,
    polls: u64,
    /// `/stats` samples (queue depth, worker occupancy), traced runs only.
    stats: Vec<(f64, f64)>,
    sender_busy: Duration,
    senders: usize,
    end: Instant,
}

fn open_loop(cfg: &Config, live: &Live, inp: &Inputs, tr: &Tracer) -> Observed {
    let res: Vec<Mutex<Res>> = inp
        .reqs
        .iter()
        .map(|_| Mutex::new(Res::default()))
        .collect();
    let polls = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let stats = Mutex::new(Vec::new());
    let addr = live.addr.as_str();
    let body = |k: Kind| match k {
        Kind::Hit(i) => inp.pool[i].body.as_str(),
        Kind::Miss(i) => inp.misses[i].body.as_str(),
    };
    let lock = |i: usize| res[i].lock().expect("result slot lock");
    let (tx, rx) = mpsc::channel::<usize>();
    let rx = Mutex::new(rx);
    let (ptx, prx) = mpsc::channel::<(usize, u64)>();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + inp.reqs[i].due;
    let senders = if cfg.tiny { 4 } else { SENDERS };

    std::thread::scope(|s| {
        for _ in 0..senders {
            let ptx = ptx.clone();
            let (rx, lock, busy_ns) = (&rx, &lock, &busy_ns);
            s.spawn(move || loop {
                let Ok(i) = rx.lock().expect("sender queue lock").recv() else {
                    break;
                };
                let req = inp.reqs[i];
                let span = (req.traced && tr.on()).then(|| tr.reserve());
                let sent = Instant::now();
                let r = client::submit(addr, "perfbench", body(req.kind));
                let answered = Instant::now();
                busy_ns.fetch_add((answered - sent).as_nanos() as u64, Ordering::Relaxed);
                let mut slot = lock(i);
                slot.sent = Some(sent);
                slot.answered = Some(answered);
                let job = r
                    .as_ref()
                    .ok()
                    .and_then(|(_, v)| v.get("job").and_then(Value::as_u64));
                slot.job = job;
                slot.span = span;
                let outcome = match (&r, req.kind) {
                    (Err(e), _) => Err(e.clone()),
                    (Ok((200, v)), Kind::Hit(_))
                        if matches!(v.get("cached"), Some(Value::Bool(true))) =>
                    {
                        Ok(())
                    }
                    (Ok((202, _)), Kind::Miss(_)) if job.is_some() => Ok(()),
                    (Ok((status, v)), _) => Err(format!("status {status}: {v:?}")),
                };
                match outcome {
                    Err(e) => slot.failure = Some(e),
                    Ok(()) => {
                        if let (Kind::Miss(_), Some(job)) = (req.kind, job) {
                            let _ = ptx.send((i, job));
                        }
                    }
                }
                drop(slot);
                if let Some(id) = span {
                    tr.record(SpanId::ROOT, "serve.submit", i as u64, id, sent, answered);
                    if matches!(req.kind, Kind::Hit(_)) {
                        tr.record(id, "serve.hit", i as u64, SpanId::ROOT, due(i), answered);
                    }
                }
            });
        }
        drop(ptx);

        // The poller: every POLL_EVERY, one `poll` per outstanding miss.
        let (polls, stats) = (&polls, &stats);
        s.spawn(move || {
            let mut outstanding: Vec<(usize, u64)> = Vec::new();
            let mut open = true;
            let mut tick = Instant::now();
            let mut n_tick = 0u64;
            while open || !outstanding.is_empty() {
                loop {
                    match prx.try_recv() {
                        Ok(m) => outstanding.push(m),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                outstanding.retain(|&(i, job)| {
                    let t0 = Instant::now();
                    let r = client::poll(addr, job);
                    let now = Instant::now();
                    polls.fetch_add(1, Ordering::Relaxed);
                    let state = match &r {
                        Ok((200, v)) => v.get("state").and_then(Value::as_str).unwrap_or(""),
                        _ => "",
                    };
                    let mut slot = lock(i);
                    if let Some(id) = slot.span {
                        tr.record(SpanId::ROOT, "serve.poll", i as u64, id, t0, now);
                    }
                    match (state, &r) {
                        ("done", Ok((_, v))) => {
                            slot.done = Some(now);
                            slot.report = v.get("report").and_then(Value::as_str).map(String::from);
                            if let Some(id) = slot.span {
                                tr.record(id, "serve.miss", i as u64, SpanId::ROOT, due(i), now);
                            }
                            false
                        }
                        ("queued" | "running", _) if now < due(i) + MISS_TIMEOUT => true,
                        ("queued" | "running", _) => {
                            slot.failure = Some("timed out".into());
                            false
                        }
                        _ => {
                            slot.failure = Some(format!("poll: {r:?}"));
                            false
                        }
                    }
                });
                n_tick += 1;
                if cfg.trace && n_tick.is_multiple_of(10) {
                    if let Ok(v) = client::stats(addr) {
                        let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
                        stats
                            .lock()
                            .expect("stats lock")
                            .push((f("queue_depth"), f("worker_occupancy")));
                    }
                }
                tick += POLL_EVERY;
                let now = Instant::now();
                if tick < now {
                    tick = now;
                }
                sleep_until(tick);
            }
        });

        // The schedule: hand each request to a sender when it is due.
        for i in 0..inp.reqs.len() {
            sleep_until(due(i));
            if tx.send(i).is_err() {
                break;
            }
        }
        drop(tx);
    });
    Observed {
        start,
        res: res
            .into_iter()
            .map(|m| m.into_inner().expect("result slot"))
            .collect(),
        polls: polls.into_inner(),
        stats: stats.into_inner().expect("stats lock"),
        sender_busy: Duration::from_nanos(busy_ns.into_inner()),
        senders,
        end: Instant::now(),
    }
}

/// One ladder step's verdict.
struct Step {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    good: u64,
    failed: u64,
    growing: bool,
    len: Duration,
}

impl Step {
    fn meets_limit(&self) -> bool {
        self.failed == 0
            && quantile(&self.hit_ms, 0.99) <= HIT_LIMIT_MS
            && quantile(&self.miss_ms, 0.9) <= MISS_LIMIT_MS
            && !self.growing
    }
}

fn steps(inp: &Inputs, obs: &Observed) -> Vec<Step> {
    inp.steps
        .iter()
        .enumerate()
        .map(|(k, &(from, len))| {
            let mut st = Step {
                hit_ms: Vec::new(),
                miss_ms: Vec::new(),
                good: 0,
                failed: 0,
                growing: false,
                len,
            };
            let mut misses = Vec::new();
            for (req, r) in inp.reqs.iter().zip(&obs.res).filter(|(q, _)| q.step == k) {
                let due = obs.start + req.due;
                if r.failure.is_some() {
                    st.failed += 1;
                    continue;
                }
                let (lat, limit) = match req.kind {
                    Kind::Hit(_) => (r.answered, HIT_LIMIT_MS),
                    Kind::Miss(_) => (r.done, MISS_LIMIT_MS),
                };
                let Some(lat) = lat.map(|t| ms(t.saturating_duration_since(due))) else {
                    st.failed += 1;
                    continue;
                };
                st.good += u64::from(lat <= limit);
                match req.kind {
                    Kind::Hit(_) => st.hit_ms.push(lat),
                    Kind::Miss(_) => {
                        st.miss_ms.push(lat);
                        misses.push((due, r.done));
                    }
                }
            }
            // Backlog: misses due but not yet done, sampled 12 times over
            // the step. Steady service holds it flat; overload grows it
            // with time, so the last third averages well above the first
            // (a single stall lifts one or two samples, not a third).
            let backlog = |at: Instant| {
                misses
                    .iter()
                    .filter(|(due, done)| *due <= at && done.is_none_or(|d| d > at))
                    .count() as f64
            };
            let samples: Vec<f64> = (1..=12)
                .map(|k| backlog(obs.start + from + len * k / 12))
                .collect();
            let first = samples[..4].iter().sum::<f64>() / 4.0;
            let last = samples[8..].iter().sum::<f64>() / 4.0;
            st.growing = last > 2.0 * first + 5.0;
            st
        })
        .collect()
}

/// Quantile of a Prometheus histogram, interpolated inside its bucket.
fn prom_quantile(text: &str, family: &str, q: f64) -> f64 {
    let prefix = format!("{family}_bucket{{le=\"");
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((le, n)) = rest.split_once("\"} ") else {
            continue;
        };
        let (Ok(le), Ok(n)) = (le.parse::<f64>(), n.trim().parse::<f64>()) else {
            continue;
        };
        buckets.push((le, n));
    }
    let Some(&(_, total)) = buckets.last() else {
        return 0.0;
    };
    let target = q * total;
    let mut lo = (0.0, 0.0);
    for &(le, n) in &buckets {
        if n >= target && n > lo.1 {
            return lo.0 + (le - lo.0) * (target - lo.1) / (n - lo.1);
        }
        lo = (le, n);
    }
    lo.0
}

fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Post-run checks: each miss report against `run_spec` of its spec, each
/// hit's report against the verified pool report. Returns the transitions
/// the misses simulated.
fn verify(cfg: &Config, live: &Live, inp: &Inputs, obs: &Observed, out: &mut Outcome) -> u64 {
    for r in obs.res.iter().filter_map(|r| r.failure.as_ref()) {
        out.check(false, || format!("request failed: {r}"));
    }
    let done: Vec<usize> = (0..inp.reqs.len())
        .filter(|&i| obs.res[i].failure.is_none())
        .collect();
    let next = AtomicU64::new(0);
    // Hit checks wait on the server, miss checks on the CPU: use more
    // threads than cores.
    let results: Vec<(usize, bool, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4 * cfg.jobs.max(2))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(&i) = done.get(k) else { break };
                        let r = &obs.res[i];
                        let (ok, transitions) = match inp.reqs[i].kind {
                            Kind::Miss(m) => match reference(&inp.misses[m].spec) {
                                Ok((want, t)) => (r.report.as_deref() == Some(want.as_str()), t),
                                Err(_) => (false, 0),
                            },
                            Kind::Hit(p) => {
                                let got = r.job.and_then(|j| client::poll(&live.addr, j).ok());
                                let report = got
                                    .as_ref()
                                    .and_then(|(_, v)| v.get("report").and_then(Value::as_str));
                                (report == Some(live.pool_reports[p].as_str()), 0)
                            }
                        };
                        mine.push((i, ok, transitions));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier panicked"))
            .collect()
    });
    let mut transitions = 0;
    for (i, ok, t) in results {
        out.check(ok, || format!("request {i}: report differs from run_spec"));
        transitions += t;
    }
    transitions
}

/// Direct calls on the layers under the server: spec parsing, the
/// executor's prepare/lookup/run, raw cache I/O and journal appends.
fn direct_layers(dir: &Path, pool: &[Spec], reps: usize) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let cache = Arc::new(ResultCache::open(&dir.join("direct-cache")).map_err(|e| e.to_string())?);
    let exec = SuiteExecutor::new(Some(Arc::clone(&cache)));
    let time_us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        us(t.elapsed())
    };
    let mut parse = Vec::new();
    let mut prepare = Vec::new();
    let mut lookup = Vec::new();
    let mut run = Vec::new();
    let prepared: Vec<_> = pool
        .iter()
        .map(|s| exec.prepare(&s.body))
        .collect::<Result<_, _>>()?;
    for job in &prepared {
        let t = Instant::now();
        exec.run(job).map_err(|f| f.detail)?;
        run.push(ms(t.elapsed()));
    }
    for k in 0..reps {
        let s = &pool[k % pool.len()];
        parse.push(time_us(&mut || {
            let _ = std::hint::black_box(spec_run::parse(&s.body));
        }));
        prepare.push(time_us(&mut || {
            let _ = std::hint::black_box(exec.prepare(&s.body));
        }));
        let job = &prepared[k % prepared.len()];
        lookup.push(time_us(&mut || {
            std::hint::black_box(exec.lookup(job));
        }));
    }
    m.put("spec_run.parse_us_p50", median(&parse), "us");
    m.put("service.prepare_us_p50", median(&prepare), "us");
    m.put("service.lookup_us_p50", median(&lookup), "us");
    m.put("service.run_ms_p50", median(&run), "ms");

    let payload = Value::Object(vec![("report".into(), Value::Str("x".repeat(1024)))]);
    let mut store = Vec::new();
    let mut load = Vec::new();
    for k in 0..reps {
        let fp = format!("{:032x}", 0xbe7c_0000_u64 + k as u64);
        store.push(time_us(&mut || {
            cache.store_raw(&fp, "perfbench", payload.clone())
        }));
        load.push(time_us(&mut || {
            std::hint::black_box(cache.lookup_raw(&fp, "perfbench"));
        }));
    }
    m.put("cache.store_raw_us_p50", median(&store), "us");
    m.put("cache.lookup_raw_us_p50", median(&load), "us");

    let journal = Journal::open(&dir.join("direct-journal.jsonl")).map_err(|e| e.to_string())?;
    let mut accepted = Vec::new();
    let mut terminal = Vec::new();
    for k in 0..reps {
        let job = &prepared[k % prepared.len()];
        let mut err = None;
        accepted.push(time_us(&mut || {
            err = journal.accepted(k as u64, "perfbench", job).err();
        }));
        terminal.push(time_us(&mut || {
            err = err.take().or(journal.terminal(k as u64, "done").err());
        }));
        if let Some(e) = err {
            return Err(format!("journal: {e}"));
        }
    }
    m.put("journal.accepted_us_p50", median(&accepted), "us");
    m.put("journal.terminal_us_p50", median(&terminal), "us");
    Ok(m)
}

pub fn run(cfg: &Config, tr: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inp = inputs(cfg);
    let mut n = 0;
    let mut checks = Outcome::default();
    let live = common::timed_setups(cfg, &mut out, || {
        n += 1;
        setup(cfg, n, &inp.pool, &mut checks)
    })?;
    out.attempted += checks.attempted;
    out.failed += checks.failed;

    let prom_before = client::metrics(&live.addr)?;
    let obs = open_loop(cfg, &live, &inp, tr);
    let prom = client::metrics(&live.addr)?;
    let mut connect = Vec::new();
    if cfg.trace {
        for _ in 0..50 {
            let t = Instant::now();
            let c = TcpStream::connect(&live.addr).map_err(|e| format!("connect: {e}"))?;
            connect.push(us(t.elapsed()));
            drop(c);
        }
    }
    let miss_transitions = verify(cfg, &live, &inp, &obs, &mut out);
    let counts = |k: usize| {
        let hits = inp
            .reqs
            .iter()
            .filter(|r| r.step == k && matches!(r.kind, Kind::Hit(_)))
            .count();
        (hits, inp.reqs.iter().filter(|r| r.step == k).count() - hits)
    };
    let (hits, misses) = counts(NOMINAL_STEP);
    eprintln!(
        "perfbench: serve nominal step: {hits} hits, {misses} misses at {} req/s (hit share {:.3})",
        if cfg.tiny { TINY_RPS } else { NOMINAL_RPS },
        inp.hit_share
    );

    let steps = steps(&inp, &obs);
    for (s, (mult, _)) in steps.iter().zip(LADDER) {
        eprintln!(
            "perfbench: serve step {mult}x: hit p99 {:.2} ms, miss p90 {:.2} ms, {} failed, backlog {}: {}",
            quantile(&s.hit_ms, 0.99),
            quantile(&s.miss_ms, 0.9),
            s.failed,
            if s.growing { "growing" } else { "flat" },
            if s.meets_limit() { "meets the limit" } else { "misses the limit" },
        );
    }
    let nominal = &steps[NOMINAL_STEP];
    // Transitions the misses simulated per second the workers spent
    // running them.
    let run_s = (prom_value(&prom, "hvx_serve_run_us_sum")
        - prom_value(&prom_before, "hvx_serve_run_us_sum"))
        / 1e6;
    let e = &mut out.e2e;
    e.put(
        "sim_tps",
        miss_transitions as f64 / run_s.max(1e-9),
        "transitions/s",
    );
    e.put("hit_p50_ms", median(&nominal.hit_ms), "ms");
    e.put("hit_p99_ms", quantile(&nominal.hit_ms, 0.99), "ms");
    e.put("miss_p50_ms", median(&nominal.miss_ms), "ms");
    e.put("miss_p90_ms", quantile(&nominal.miss_ms, 0.9), "ms");
    // A serve "pass" is one miss: the full submit-to-done pipeline.
    e.put("pass_p50_ms", median(&nominal.miss_ms), "ms");
    e.put("pass_p90_ms", quantile(&nominal.miss_ms, 0.9), "ms");
    let rate = |s: &Step| s.good as f64 / s.len.as_secs_f64();
    e.put("goodput_rps", rate(nominal), "req/s");
    let sustained = steps
        .iter()
        .rev()
        .find(|s| s.meets_limit())
        .map_or(0.0, rate);
    e.put("sustained_rps", sustained, "req/s");

    if cfg.trace {
        let l = &mut out.layers;
        let wall = obs.end - obs.start;
        l.put(
            "gen.worker_util",
            obs.sender_busy.as_secs_f64() / (wall.as_secs_f64() * obs.senders as f64),
            "ratio",
        );
        let late: Vec<f64> = inp
            .reqs
            .iter()
            .zip(&obs.res)
            .filter_map(|(q, r)| {
                r.sent
                    .map(|s| ms(s.saturating_duration_since(obs.start + q.due)))
            })
            .collect();
        l.put("gen.late_p99_ms", quantile(&late, 0.99), "ms");
        let hit_ms = |traced: bool| -> Vec<f64> {
            inp.reqs
                .iter()
                .zip(&obs.res)
                .filter(|(q, _)| q.traced == traced && matches!(q.kind, Kind::Hit(_)))
                .filter_map(|(q, r)| {
                    r.answered
                        .map(|a| ms(a.saturating_duration_since(obs.start + q.due)))
                })
                .collect()
        };
        l.put(
            "trace.overhead_frac",
            median(&hit_ms(true)) / median(&hit_ms(false)) - 1.0,
            "ratio",
        );
        l.fill_from(&direct_layers(
            &live.dir,
            &inp.pool,
            if cfg.tiny { 20 } else { 200 },
        )?);
        let rtt: Vec<f64> = inp
            .reqs
            .iter()
            .zip(&obs.res)
            .filter(|(q, _)| matches!(q.kind, Kind::Hit(_)))
            .filter_map(|(_, r)| Some(us(r.answered?.saturating_duration_since(r.sent?))))
            .collect();
        let residual = median(&rtt)
            - l.get("service.prepare_us_p50").unwrap_or(0.0)
            - l.get("service.lookup_us_p50").unwrap_or(0.0);
        l.put("server.accept_residual_us_p50", residual, "us");
        for (family, name) in [
            ("hvx_serve_queue_wait_us", "queue_wait_us"),
            ("hvx_serve_run_us", "run_us"),
            ("hvx_serve_journal_write_us", "journal_write_us"),
        ] {
            l.put(
                format!("server.{name}_p50"),
                prom_quantile(&prom, family, 0.5),
                "us",
            );
            l.put(
                format!("server.{name}_p95"),
                prom_quantile(&prom, family, 0.95),
                "us",
            );
        }
        let shed = prom_value(&prom, "hvx_serve_shed_total");
        let accepted = prom_value(&prom, "hvx_serve_accepted_total");
        l.put(
            "server.shed_frac",
            shed / (shed + accepted).max(1.0),
            "ratio",
        );
        let depth: Vec<f64> = obs.stats.iter().map(|s| s.0).collect();
        let occupancy: Vec<f64> = obs.stats.iter().map(|s| s.1).collect();
        l.put(
            "server.queue_depth_max",
            depth.iter().copied().fold(0.0, f64::max),
            "count",
        );
        l.put("server.worker_occupancy", median(&occupancy), "ratio");
        l.put("client.connect_us_p50", median(&connect), "us");
        let done_misses = obs.res.iter().filter(|r| r.done.is_some()).count();
        l.put(
            "client.polls_per_miss",
            obs.polls as f64 / done_misses.max(1) as f64,
            "ratio",
        );
    }
    drop(live);
    Ok(out)
}
