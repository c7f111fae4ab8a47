//! The sweep server: accept loop, worker pool, admission control,
//! backpressure, retry, circuit breaking, and journal recovery.
//!
//! ## Threading model
//!
//! One nonblocking accept loop (the thread that called [`Server::run`])
//! hands each connection to a short-lived handler thread; handlers
//! only touch the shared state under a mutex and never execute jobs,
//! so the accept path stays live no matter what the workers are doing.
//! A fixed pool of worker threads drains the admitted queue; every
//! job attempt runs through the executor's own `catch_unwind`
//! isolation, so a panicking scenario costs one attempt, not a worker.
//!
//! ## Admission pipeline (one lock hold, in order)
//!
//! 1. drain check — a draining server refuses new work with 503;
//! 2. circuit breaker — quarantined fingerprints get 409 + retry-after;
//! 3. per-client in-flight cap — 429 `client-cap`;
//! 4. warm-cache dedupe — a cache hit is journaled and answered
//!    `done` immediately, never touching the queue;
//! 5. queue-weight bound — over budget is shed with 429 carrying the
//!    queue depth and a retry-after hint;
//! 6. journal `accepted` (fsynced), then enqueue. A journal write
//!    failure refuses the job — acceptance is never un-journaled.

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use hvx_core::{Error, Fingerprint};
use hvx_obs::log::{self as olog, LogValue};
use hvx_obs::{HistogramSketch, PromText};
use serde_json::Value;

use crate::breaker::{Breaker, BreakerConfig, BreakerVerdict};
use crate::http::{read_request, request as http_request, write_response_typed, Request};
use crate::job::{JobExecutor, JobFailure, JobOutput, JobState, PreparedJob};
use crate::journal::{recover, Journal};

/// Content type of every JSON route.
const CT_JSON: &str = "application/json";
/// Content type of the Prometheus exposition.
const CT_PROM: &str = "text/plain; version=0.0.4";

/// Tuning for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Admission bound: total weight of queued (not yet running) jobs.
    pub max_queue_weight: u64,
    /// Per-client cap on non-terminal jobs.
    pub client_inflight_cap: usize,
    /// Finished results retained before oldest-idle eviction.
    pub max_results: usize,
    /// Retries for transient failures (0 = single attempt).
    pub max_retries: u32,
    /// Base backoff between retries; doubles per attempt, capped at 1s.
    pub retry_backoff: Duration,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Journal path; `None` disables crash safety (tests only).
    pub journal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_queue_weight: 120,
            client_inflight_cap: 8,
            max_results: 256,
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            breaker: BreakerConfig::default(),
            journal: None,
        }
    }
}

/// One tracked job.
#[derive(Debug)]
struct Job {
    client: String,
    prepared: PreparedJob,
    state: JobState,
    retries: u32,
    cached: bool,
    output: Option<JobOutput>,
    failure: Option<(String, String)>, // (kind, detail)
    quarantined: bool,
    last_touch: Instant,
    accepted_at: Instant,
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, Job>,
    next_id: u64,
    queued_weight: u64,
    running: usize,
    breaker: Breaker,
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    shed: AtomicU64,
    warm_hits: AtomicU64,
    evicted: AtomicU64,
    recovered: AtomicU64,
    journal_errors: AtomicU64,
    breaker_opened: AtomicU64,
    retries: AtomicU64,
}

/// Per-request latency decomposition, recorded at job completion and
/// exported as `/metrics` histograms. Guarded by its own mutex (the
/// sketches are `&mut self`); only taken after the state lock is
/// released, so the two locks never nest.
#[derive(Debug, Default)]
struct Telemetry {
    queue_wait_us: HistogramSketch,
    run_us: HistogramSketch,
    journal_write_us: HistogramSketch,
}

fn as_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Journals a terminal transition, surfacing (never swallowing) write
/// failures: the error is logged and counted so `/stats` exposes a
/// journal that has started losing records. Losing a terminal record
/// is survivable — recovery re-runs the job, and the warm cache makes
/// that cheap — but it must not be silent: a journal device that has
/// begun failing is exactly what an operator needs to see.
fn journal_terminal(counters: &Counters, journal: &Journal, id: u64, event: &str) -> Duration {
    let t0 = Instant::now();
    if let Err(e) = journal.terminal(id, event) {
        counters.journal_errors.fetch_add(1, Ordering::Relaxed);
        olog::error(
            "serve",
            "journal_write_failed",
            &[
                ("job", LogValue::from(id)),
                ("terminal", LogValue::from(event)),
                ("detail", LogValue::from(e.to_string())),
            ],
        );
    }
    t0.elapsed()
}

struct Shared {
    cfg: ServerConfig,
    exec: Arc<dyn JobExecutor>,
    state: Mutex<Inner>,
    cvar: Condvar,
    journal: Option<Journal>,
    draining: AtomicBool,
    shutdown: AtomicBool,
    counters: Counters,
    telemetry: Mutex<Telemetry>,
    started: Instant,
    /// Connection-handler threads currently between accept and
    /// response flush; shutdown waits (bounded) for this to reach
    /// zero so the drain response itself is never torn off the wire.
    conn_inflight: AtomicU64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

/// The bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    addr: String,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the journal, and replays any
    /// incomplete work from a previous process.
    ///
    /// Recovered jobs keep their original ids and are **not**
    /// re-journaled as accepted — replaying the same journal twice
    /// re-admits nothing new. A recovered job whose result is already
    /// in the cache completes immediately without a worker.
    ///
    /// # Errors
    ///
    /// [`Error::Serve`] for bind or journal failures.
    pub fn bind(cfg: ServerConfig, exec: Arc<dyn JobExecutor>) -> Result<Server, Error> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| Error::Serve {
            detail: format!("bind {}: {e}", cfg.addr),
        })?;
        listener.set_nonblocking(true).map_err(|e| Error::Serve {
            detail: format!("set nonblocking: {e}"),
        })?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Serve {
                detail: format!("local addr: {e}"),
            })?
            .to_string();

        let counters = Counters::default();
        let mut inner = Inner::default();
        let mut journal = None;
        if let Some(path) = &cfg.journal {
            let recovery = recover(path).map_err(|e| Error::Serve {
                detail: format!("recover journal {}: {e}", path.display()),
            })?;
            let j = Journal::open(path).map_err(|e| Error::Serve {
                detail: format!("open journal {}: {e}", path.display()),
            })?;
            inner.next_id = recovery.next_id;
            for rec in recovery.incomplete {
                let now = Instant::now();
                let mut job = Job {
                    client: rec.client,
                    prepared: rec.job,
                    state: JobState::Queued,
                    retries: 0,
                    cached: false,
                    output: None,
                    failure: None,
                    quarantined: false,
                    last_touch: now,
                    accepted_at: now,
                };
                if let Some(output) = exec.lookup(&job.prepared) {
                    job.state = JobState::Done;
                    job.cached = true;
                    job.output = Some(output);
                    journal_terminal(&counters, &j, rec.id, "done");
                } else {
                    inner.queued_weight += job.prepared.weight;
                    inner.queue.push_back(rec.id);
                }
                olog::info(
                    "serve",
                    "job_recovered",
                    &[
                        ("job", LogValue::from(rec.id)),
                        ("client", LogValue::from(job.client.as_str())),
                        ("warm", LogValue::from(job.cached)),
                    ],
                );
                inner.jobs.insert(rec.id, job);
            }
            journal = Some(j);
        }
        let recovered = inner.jobs.len() as u64;

        let shared = Arc::new(Shared {
            cfg,
            exec,
            state: Mutex::new(inner),
            cvar: Condvar::new(),
            journal,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters,
            telemetry: Mutex::new(Telemetry::default()),
            started: Instant::now(),
            conn_inflight: AtomicU64::new(0),
        });
        shared
            .counters
            .recovered
            .store(recovered, Ordering::Relaxed);
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves until drained: spawns the worker pool, then accepts
    /// connections until a `POST /drain` arrives *and* the queue and
    /// workers are idle. Running cells finish; new ones are refused.
    ///
    /// # Errors
    ///
    /// [`Error::Serve`] for accept-loop failures.
    pub fn run(self) -> Result<(), Error> {
        let mut workers = Vec::new();
        for i in 0..self.shared.cfg.workers.max(1) {
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("hvx-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| Error::Serve {
                        detail: format!("spawn worker: {e}"),
                    })?,
            );
        }

        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    shared.conn_inflight.fetch_add(1, Ordering::SeqCst);
                    let spawned = std::thread::Builder::new()
                        .name("hvx-serve-conn".into())
                        .spawn(move || {
                            handle_connection(&shared, stream);
                            shared.conn_inflight.fetch_sub(1, Ordering::SeqCst);
                        });
                    if spawned.is_err() {
                        self.shared.conn_inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    return Err(Error::Serve {
                        detail: format!("accept: {e}"),
                    });
                }
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                let idle = {
                    let inner = lock(&self.shared.state);
                    inner.queue.is_empty() && inner.running == 0
                };
                if idle {
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                    self.shared.cvar.notify_all();
                    // Let in-flight handlers flush their responses —
                    // the drain 200 itself is one of them — before the
                    // process exits and tears the connection. Bounded:
                    // a wedged handler costs at most one second.
                    let t0 = Instant::now();
                    while self.shared.conn_inflight.load(Ordering::SeqCst) > 0
                        && t0.elapsed() < Duration::from_secs(1)
                    {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    break;
                }
            }
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

fn lock<'a>(m: &'a Mutex<Inner>) -> std::sync::MutexGuard<'a, Inner> {
    // A panic while holding the lock (a bug, not a scenario failure —
    // scenarios unwind inside the executor) must not wedge the server.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, prepared, queue_wait) = {
            let mut inner = lock(&shared.state);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = inner.queue.pop_front() {
                    let job = inner.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    job.last_touch = Instant::now();
                    let queue_wait = job.accepted_at.elapsed();
                    let prepared = job.prepared.clone();
                    inner.queued_weight -= prepared.weight;
                    inner.running += 1;
                    break (id, prepared, queue_wait);
                }
                inner = shared
                    .cvar
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        olog::debug(
            "serve",
            "job_started",
            &[
                ("job", LogValue::from(id)),
                ("label", LogValue::from(prepared.label.as_str())),
                ("queue_wait_us", LogValue::from(as_micros(queue_wait))),
            ],
        );

        let run_started = Instant::now();
        let mut retries = 0u32;
        let outcome = loop {
            match shared.exec.run(&prepared) {
                Ok(output) => break Ok(output),
                Err(failure) => {
                    if failure.transient && retries < shared.cfg.max_retries {
                        let backoff = shared
                            .cfg
                            .retry_backoff
                            .saturating_mul(1 << retries.min(10))
                            .min(Duration::from_secs(1));
                        retries += 1;
                        olog::info(
                            "serve",
                            "job_retry",
                            &[
                                ("job", LogValue::from(id)),
                                ("attempt", LogValue::from(u64::from(retries))),
                                ("backoff_ms", LogValue::from(backoff.as_millis() as u64)),
                                ("kind", LogValue::from(failure.kind.to_string())),
                                ("detail", LogValue::from(failure.detail.as_str())),
                            ],
                        );
                        if backoff_or_abort(shared, backoff) {
                            continue;
                        }
                        // Drain/shutdown arrived mid-backoff: give up
                        // on the retry and record the pending failure
                        // so the drain idle check can pass.
                    }
                    break Err(failure);
                }
            }
        };
        let run_dur = run_started.elapsed();

        record_outcome(shared, id, retries, outcome, queue_wait, run_dur);
    }
}

/// Waits out a retry backoff, waking early if a drain or shutdown
/// begins. Returns `true` when the full backoff elapsed (retry), or
/// `false` when the server stopped accepting work mid-wait — a worker
/// asleep in an exponential backoff must not hold up `POST /drain`,
/// which only completes once `running == 0`.
fn backoff_or_abort(shared: &Shared, backoff: Duration) -> bool {
    let deadline = Instant::now() + backoff;
    let mut inner = lock(&shared.state);
    loop {
        if shared.draining.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return true;
        }
        // `/drain` notifies the cvar, so the wait ends promptly; an
        // unrelated wakeup (job enqueued) just re-waits the remainder.
        inner = shared
            .cvar
            .wait_timeout(inner, left)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
}

fn record_outcome(
    shared: &Shared,
    id: u64,
    retries: u32,
    outcome: Result<JobOutput, JobFailure>,
    queue_wait: Duration,
    run_dur: Duration,
) {
    let now = Instant::now();
    shared
        .counters
        .retries
        .fetch_add(u64::from(retries), Ordering::Relaxed);
    let mut inner = lock(&shared.state);
    inner.running -= 1;
    let fingerprint = inner.jobs[&id].prepared.fingerprint.clone();
    let (event, quarantined) = match outcome {
        Ok(_) => {
            inner.breaker.on_success(&fingerprint);
            ("done", false)
        }
        Err(_) => {
            let opened = inner
                .breaker
                .on_failure(&shared.cfg.breaker, &fingerprint, now);
            if opened {
                shared
                    .counters
                    .breaker_opened
                    .fetch_add(1, Ordering::Relaxed);
                olog::info(
                    "serve",
                    "breaker_opened",
                    &[("fingerprint", LogValue::from(fingerprint.as_str()))],
                );
            }
            ("failed", opened)
        }
    };
    let job = inner.jobs.get_mut(&id).expect("running job exists");
    job.retries = retries;
    job.last_touch = now;
    job.quarantined = quarantined;
    match outcome {
        Ok(output) => {
            job.state = JobState::Done;
            job.output = Some(output);
            olog::debug(
                "serve",
                "job_done",
                &[
                    ("job", LogValue::from(id)),
                    ("retries", LogValue::from(u64::from(retries))),
                    ("run_us", LogValue::from(as_micros(run_dur))),
                ],
            );
        }
        Err(failure) => {
            olog::info(
                "serve",
                "job_failed",
                &[
                    ("job", LogValue::from(id)),
                    ("kind", LogValue::from(failure.kind.to_string())),
                    ("detail", LogValue::from(failure.detail.as_str())),
                    ("transient", LogValue::from(failure.transient)),
                    ("retries", LogValue::from(u64::from(retries))),
                    ("quarantined", LogValue::from(quarantined)),
                ],
            );
            job.state = JobState::Failed;
            job.failure = Some((failure.kind.to_string(), failure.detail));
        }
    }
    let journal_write = shared
        .journal
        .as_ref()
        .map(|j| journal_terminal(&shared.counters, j, id, event));
    evict_locked(shared, &mut inner);
    drop(inner);
    // Latency decomposition: recorded outside the state lock (the
    // sketches have their own mutex; the two never nest).
    let mut tel = shared
        .telemetry
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    tel.queue_wait_us.record(as_micros(queue_wait));
    tel.run_us.record(as_micros(run_dur));
    if let Some(jw) = journal_write {
        tel.journal_write_us.record(as_micros(jw));
    }
    drop(tel);
    shared.cvar.notify_all();
}

/// Oldest-idle eviction: finished results beyond `max_results`, least
/// recently touched first. Queued/running jobs are never evicted.
fn evict_locked(shared: &Shared, inner: &mut Inner) {
    let terminal = inner.jobs.values().filter(|j| j.state.terminal()).count();
    if terminal <= shared.cfg.max_results {
        return;
    }
    let mut idle: Vec<(Instant, u64)> = inner
        .jobs
        .iter()
        .filter(|(_, j)| j.state.terminal())
        .map(|(id, j)| (j.last_touch, *id))
        .collect();
    idle.sort();
    let excess = terminal - shared.cfg.max_results;
    for (_, id) in idle.into_iter().take(excess) {
        inner.jobs.remove(&id);
        shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> String {
    let v = Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    serde_json::to_string(&v).expect("value serializes")
}

fn error_body(kind: &str, detail: &str, extra: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![
        ("error", Value::Str(kind.into())),
        ("detail", Value::Str(detail.into())),
    ];
    pairs.extend(extra);
    obj(pairs)
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = write_response_typed(
                &mut stream,
                e.status(),
                CT_JSON,
                &error_body(e.kind(), e.detail(), vec![]),
            );
            return;
        }
    };
    let (status, content_type, body) = route(shared, &req);
    let _ = write_response_typed(&mut stream, status, content_type, &body);
}

fn route(shared: &Shared, req: &Request) -> (u16, &'static str, String) {
    if req.method == "GET" && req.path == "/metrics" {
        return (200, CT_PROM, metrics_body(shared));
    }
    let (status, body) = route_json(shared, req);
    (status, CT_JSON, body)
}

fn route_json(shared: &Shared, req: &Request) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, obj(vec![("ok", Value::Bool(true))])),
        ("GET", "/stats") => (200, stats_body(shared)),
        ("POST", "/jobs") => submit(shared, req, false),
        ("POST", "/sweep") => submit(shared, req, true),
        ("POST", "/drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.cvar.notify_all();
            olog::info("serve", "drain_requested", &[]);
            (200, obj(vec![("draining", Value::Bool(true))]))
        }
        ("GET", path) if path.starts_with("/jobs/") => {
            match path["/jobs/".len()..].parse::<u64>() {
                Ok(id) => job_status(shared, id),
                Err(_) => (
                    400,
                    error_body("bad-request", "job id must be an integer", vec![]),
                ),
            }
        }
        ("GET", path) if path.starts_with("/trace/") => {
            trace_query(shared, req, &path["/trace/".len()..])
        }
        _ => (
            404,
            error_body(
                "not-found",
                &format!("no route {} {}", req.method, req.path),
                vec![],
            ),
        ),
    }
}

/// `GET /trace/<fingerprint>?top=K`: ranked critical chains from the
/// executor's stored trace for an already-computed result. A pure
/// cache read — no worker is involved and nothing re-runs. The segment
/// must be a canonical fingerprint before it gets anywhere near the
/// executor: it names a file in the cache directory.
fn trace_query(shared: &Shared, req: &Request, fingerprint: &str) -> (u16, String) {
    if Fingerprint::parse_hex(fingerprint).is_none() {
        return (
            400,
            error_body(
                "bad-request",
                "fingerprint must be 32 lowercase hex digits",
                vec![],
            ),
        );
    }
    let top = match req.query_value("top") {
        None => 5usize,
        Some(t) => match t.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return (
                    400,
                    error_body("bad-request", "top must be a positive integer", vec![]),
                )
            }
        },
    };
    let Some(stored) = shared.exec.trace(fingerprint) else {
        return (
            404,
            error_body(
                "not-found",
                &format!("no cached trace for fingerprint {fingerprint}"),
                vec![("fingerprint", Value::Str(fingerprint.into()))],
            ),
        );
    };
    let Ok(mut v) = serde_json::parse_value(&stored) else {
        return (
            500,
            error_body("trace", "stored trace is not valid JSON", vec![]),
        );
    };
    let total = v
        .get("chains")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    if let Value::Object(pairs) = &mut v {
        for (k, val) in pairs.iter_mut() {
            if k == "chains" {
                if let Value::Array(chains) = val {
                    chains.truncate(top);
                }
            }
        }
        pairs.push(("total_chains".to_string(), Value::U64(total as u64)));
        pairs.push(("top".to_string(), Value::U64(top as u64)));
    }
    olog::debug(
        "serve",
        "trace_served",
        &[
            ("fingerprint", LogValue::from(fingerprint)),
            ("top", LogValue::from(top)),
            ("total_chains", LogValue::from(total)),
        ],
    );
    (200, serde_json::to_string(&v).expect("value serializes"))
}

/// `GET /metrics`: the Prometheus exposition. Counters come from the
/// lock-free atomics; gauges take the state lock briefly; latency
/// histograms take the telemetry lock. Scraping never blocks workers
/// beyond those two short holds.
fn metrics_body(shared: &Shared) -> String {
    let c = &shared.counters;
    let mut t = PromText::new();
    t.counter(
        "hvx_serve_accepted_total",
        "Jobs admitted (queued or answered warm)",
        c.accepted.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_shed_total",
        "Submissions refused by the queue-weight bound",
        c.shed.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_warm_hits_total",
        "Admissions answered from the result cache",
        c.warm_hits.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_evicted_total",
        "Finished results evicted (oldest-idle)",
        c.evicted.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_recovered_total",
        "Jobs replayed from the journal at startup",
        c.recovered.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_journal_errors_total",
        "Journal write failures (terminal records lost)",
        c.journal_errors.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_breaker_opened_total",
        "Circuit-breaker open transitions",
        c.breaker_opened.load(Ordering::Relaxed),
    );
    t.counter(
        "hvx_serve_retries_total",
        "Transient-failure retry attempts",
        c.retries.load(Ordering::Relaxed),
    );

    {
        let inner = lock(&shared.state);
        t.gauge(
            "hvx_serve_queue_depth",
            "Jobs admitted and waiting for a worker",
            inner.queue.len() as f64,
        );
        t.gauge(
            "hvx_serve_queued_weight",
            "Total admission weight of queued jobs",
            inner.queued_weight as f64,
        );
        t.gauge(
            "hvx_serve_running",
            "Jobs currently executing",
            inner.running as f64,
        );
        t.gauge(
            "hvx_serve_workers",
            "Worker threads in the pool",
            shared.cfg.workers.max(1) as f64,
        );
        t.gauge(
            "hvx_serve_worker_occupancy",
            "Fraction of the worker pool currently busy",
            inner.running as f64 / shared.cfg.workers.max(1) as f64,
        );
        t.gauge(
            "hvx_serve_breaker_open",
            "Fingerprints currently quarantined",
            inner.breaker.quarantined() as f64,
        );
        let mut per_client: Vec<(String, f64)> = Vec::new();
        for job in inner.jobs.values() {
            if job.state.terminal() {
                continue;
            }
            let label = format!("client=\"{}\"", job.client.replace('"', "'"));
            match per_client.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1.0,
                None => per_client.push((label, 1.0)),
            }
        }
        per_client.sort_by(|a, b| a.0.cmp(&b.0));
        t.labeled_gauge(
            "hvx_serve_client_inflight",
            "Non-terminal jobs per client",
            &per_client,
        );
    }
    t.gauge(
        "hvx_serve_uptime_seconds",
        "Seconds since the server bound its listener",
        shared.started.elapsed().as_secs_f64(),
    );
    t.gauge(
        "hvx_serve_draining",
        "1 when the server is draining",
        u8::from(shared.draining.load(Ordering::SeqCst)) as f64,
    );

    let tel = shared
        .telemetry
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    t.histogram(
        "hvx_serve_queue_wait_us",
        "Microseconds from admission to a worker picking the job up",
        &tel.queue_wait_us,
    );
    t.histogram(
        "hvx_serve_run_us",
        "Microseconds executing a job (all attempts and backoffs)",
        &tel.run_us,
    );
    t.histogram(
        "hvx_serve_journal_write_us",
        "Microseconds writing the terminal journal record",
        &tel.journal_write_us,
    );
    t.finish()
}

fn stats_body(shared: &Shared) -> String {
    let inner = lock(&shared.state);
    let count = |s: JobState| inner.jobs.values().filter(|j| j.state == s).count() as u64;
    obj(vec![
        ("queued", Value::U64(count(JobState::Queued))),
        ("running", Value::U64(inner.running as u64)),
        ("done", Value::U64(count(JobState::Done))),
        ("failed", Value::U64(count(JobState::Failed))),
        ("queued_weight", Value::U64(inner.queued_weight)),
        (
            "breaker_open",
            Value::U64(inner.breaker.quarantined() as u64),
        ),
        (
            "accepted_total",
            Value::U64(shared.counters.accepted.load(Ordering::Relaxed)),
        ),
        (
            "shed_total",
            Value::U64(shared.counters.shed.load(Ordering::Relaxed)),
        ),
        (
            "warm_hits",
            Value::U64(shared.counters.warm_hits.load(Ordering::Relaxed)),
        ),
        (
            "evicted_total",
            Value::U64(shared.counters.evicted.load(Ordering::Relaxed)),
        ),
        (
            "recovered_total",
            Value::U64(shared.counters.recovered.load(Ordering::Relaxed)),
        ),
        (
            "journal_errors",
            Value::U64(shared.counters.journal_errors.load(Ordering::Relaxed)),
        ),
        (
            "uptime_seconds",
            Value::U64(shared.started.elapsed().as_secs()),
        ),
        ("workers", Value::U64(shared.cfg.workers.max(1) as u64)),
        (
            "worker_occupancy",
            Value::F64(inner.running as f64 / shared.cfg.workers.max(1) as f64),
        ),
        ("queue_depth", Value::U64(inner.queue.len() as u64)),
        (
            "draining",
            Value::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
    ])
}

/// Handles `POST /jobs` (one body) and `POST /sweep` (a template the
/// executor expands; admission is all-or-nothing across the batch).
fn submit(shared: &Shared, req: &Request, sweep: bool) -> (u16, String) {
    let client = req.query_value("client").unwrap_or("anonymous").to_string();
    if shared.draining.load(Ordering::SeqCst) {
        olog::info(
            "serve",
            "drain_refused",
            &[("client", LogValue::from(client.as_str()))],
        );
        return (
            503,
            error_body(
                "draining",
                "server is draining; not accepting new work",
                vec![],
            ),
        );
    }

    // Validate outside the lock: prepare/expand parse JSON and hash
    // fingerprints, which must not stall admission for other clients.
    let bodies = if sweep {
        match shared.exec.expand(&req.body) {
            Ok(b) if b.is_empty() => {
                return (
                    400,
                    error_body("bad-request", "sweep expanded to no jobs", vec![]),
                )
            }
            Ok(b) => b,
            Err(e) => return (400, error_body("bad-request", &e, vec![])),
        }
    } else {
        vec![req.body.clone()]
    };
    let mut prepared = Vec::with_capacity(bodies.len());
    for body in &bodies {
        match shared.exec.prepare(body) {
            Ok(p) => prepared.push(p),
            Err(e) => return (400, error_body("bad-request", &e, vec![])),
        }
    }

    let now = Instant::now();
    let mut inner = lock(&shared.state);

    // Circuit breaker: any quarantined fingerprint refuses the batch.
    for p in &prepared {
        match inner
            .breaker
            .admit(&shared.cfg.breaker, &p.fingerprint, now)
        {
            BreakerVerdict::Admit | BreakerVerdict::Probe => {}
            BreakerVerdict::Quarantined(left) => {
                olog::info(
                    "serve",
                    "admission_quarantined",
                    &[
                        ("client", LogValue::from(client.as_str())),
                        ("fingerprint", LogValue::from(p.fingerprint.as_str())),
                        ("retry_after_ms", LogValue::from(left.as_millis() as u64)),
                    ],
                );
                return (
                    409,
                    error_body(
                        "quarantined",
                        &format!("fingerprint {} is quarantined", p.fingerprint),
                        vec![
                            ("fingerprint", Value::Str(p.fingerprint.clone())),
                            ("retry_after_ms", Value::U64(left.as_millis() as u64)),
                        ],
                    ),
                );
            }
        }
    }

    // Per-client in-flight cap.
    let inflight = inner
        .jobs
        .values()
        .filter(|j| j.client == client && !j.state.terminal())
        .count();
    if inflight + prepared.len() > shared.cfg.client_inflight_cap {
        olog::info(
            "serve",
            "admission_client_cap",
            &[
                ("client", LogValue::from(client.as_str())),
                ("inflight", LogValue::from(inflight)),
                ("cap", LogValue::from(shared.cfg.client_inflight_cap)),
            ],
        );
        return (
            429,
            error_body(
                "client-cap",
                &format!(
                    "client '{client}' has {inflight} jobs in flight (cap {})",
                    shared.cfg.client_inflight_cap
                ),
                vec![("retry_after_ms", Value::U64(250))],
            ),
        );
    }

    // Warm-cache dedupe, then weight-bounded admission for the rest.
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for p in prepared {
        if p.cacheable {
            if let Some(output) = shared.exec.lookup(&p) {
                warm.push((p, output));
                continue;
            }
        }
        cold.push(p);
    }
    let cold_weight: u64 = cold.iter().map(|p| p.weight).sum();
    if !cold.is_empty() && inner.queued_weight + cold_weight > shared.cfg.max_queue_weight {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        let depth = inner.queue.len() as u64;
        let retry_ms = 100 + 10 * inner.queued_weight.min(1000);
        olog::info(
            "serve",
            "admission_shed",
            &[
                ("client", LogValue::from(client.as_str())),
                ("batch_weight", LogValue::from(cold_weight)),
                ("queued_weight", LogValue::from(inner.queued_weight)),
                ("queue_depth", LogValue::from(depth)),
            ],
        );
        return (
            429,
            error_body(
                "shed",
                &format!(
                    "queue weight {} + batch {} exceeds bound {}",
                    inner.queued_weight, cold_weight, shared.cfg.max_queue_weight
                ),
                vec![
                    ("queue_depth", Value::U64(depth)),
                    ("queued_weight", Value::U64(inner.queued_weight)),
                    ("retry_after_ms", Value::U64(retry_ms)),
                ],
            ),
        );
    }

    // Point of no return: journal, then admit.
    let mut accepted = Vec::new();
    for (p, output) in warm {
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(j) = &shared.journal {
            if let Err(e) = j.accepted(id, &client, &p) {
                inner.next_id -= 1;
                return (500, error_body("journal", &e.to_string(), vec![]));
            }
            journal_terminal(&shared.counters, j, id, "done");
        }
        olog::debug(
            "serve",
            "admission_warm_hit",
            &[
                ("job", LogValue::from(id)),
                ("client", LogValue::from(client.as_str())),
                ("fingerprint", LogValue::from(p.fingerprint.as_str())),
            ],
        );
        inner.jobs.insert(
            id,
            Job {
                client: client.clone(),
                prepared: p,
                state: JobState::Done,
                retries: 0,
                cached: true,
                output: Some(output),
                failure: None,
                quarantined: false,
                last_touch: now,
                accepted_at: now,
            },
        );
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        shared.counters.warm_hits.fetch_add(1, Ordering::Relaxed);
        accepted.push((id, JobState::Done, true));
    }
    for p in cold {
        let id = inner.next_id;
        inner.next_id += 1;
        if let Some(j) = &shared.journal {
            if let Err(e) = j.accepted(id, &client, &p) {
                inner.next_id -= 1;
                return (500, error_body("journal", &e.to_string(), vec![]));
            }
        }
        inner.queued_weight += p.weight;
        olog::debug(
            "serve",
            "admission_accepted",
            &[
                ("job", LogValue::from(id)),
                ("client", LogValue::from(client.as_str())),
                ("fingerprint", LogValue::from(p.fingerprint.as_str())),
                ("weight", LogValue::from(p.weight)),
            ],
        );
        inner.jobs.insert(
            id,
            Job {
                client: client.clone(),
                prepared: p,
                state: JobState::Queued,
                retries: 0,
                cached: false,
                output: None,
                failure: None,
                quarantined: false,
                last_touch: now,
                accepted_at: now,
            },
        );
        inner.queue.push_back(id);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        accepted.push((id, JobState::Queued, false));
    }
    evict_locked(shared, &mut inner);
    drop(inner);
    shared.cvar.notify_all();

    if sweep {
        let jobs: Vec<Value> = accepted.iter().map(|(id, ..)| Value::U64(*id)).collect();
        let all_done = accepted.iter().all(|(_, s, _)| s.terminal());
        (
            202,
            obj(vec![
                ("jobs", Value::Array(jobs)),
                ("all_cached", Value::Bool(all_done)),
            ]),
        )
    } else {
        let (id, state, cached) = accepted[0];
        let status = if state == JobState::Done { 200 } else { 202 };
        (
            status,
            obj(vec![
                ("job", Value::U64(id)),
                ("state", Value::Str(state.as_str().into())),
                ("cached", Value::Bool(cached)),
            ]),
        )
    }
}

fn job_status(shared: &Shared, id: u64) -> (u16, String) {
    let mut inner = lock(&shared.state);
    let Some(job) = inner.jobs.get_mut(&id) else {
        return (
            404,
            error_body("not-found", &format!("job {id} unknown or evicted"), vec![]),
        );
    };
    job.last_touch = Instant::now();
    let mut pairs = vec![
        ("job", Value::U64(id)),
        ("client", Value::Str(job.client.clone())),
        ("label", Value::Str(job.prepared.label.clone())),
        ("state", Value::Str(job.state.as_str().into())),
        ("fingerprint", Value::Str(job.prepared.fingerprint.clone())),
        ("retries", Value::U64(job.retries as u64)),
        ("cached", Value::Bool(job.cached)),
    ];
    if let Some(output) = &job.output {
        pairs.push(("report", Value::Str(output.report.clone())));
        pairs.push((
            "cell",
            serde_json::to_value(&output.cell).expect("cell serializes"),
        ));
    }
    if let Some((kind, detail)) = &job.failure {
        pairs.push((
            "failure",
            Value::Object(vec![
                ("kind".into(), Value::Str(kind.clone())),
                ("detail".into(), Value::Str(detail.clone())),
            ]),
        ));
        pairs.push(("quarantined", Value::Bool(job.quarantined)));
    }
    (200, obj(pairs))
}

/// Blocking client helpers used by the CLI and the smoke script.
pub mod client {
    use super::*;

    /// Submits one job body; returns the parsed response JSON.
    ///
    /// # Errors
    ///
    /// Transport failures or non-JSON responses, as a human-readable
    /// message. HTTP error statuses are returned as `Ok` — callers
    /// inspect `status`.
    pub fn submit(addr: &str, client: &str, body: &str) -> Result<(u16, Value), String> {
        let (status, body) =
            http_request(addr, "POST", &format!("/jobs?client={client}"), Some(body))?;
        parse(status, &body)
    }

    /// Submits a sweep template.
    ///
    /// # Errors
    ///
    /// See [`submit`].
    pub fn sweep(addr: &str, client: &str, body: &str) -> Result<(u16, Value), String> {
        let (status, body) =
            http_request(addr, "POST", &format!("/sweep?client={client}"), Some(body))?;
        parse(status, &body)
    }

    /// Fetches a job's status.
    ///
    /// # Errors
    ///
    /// See [`submit`].
    pub fn poll(addr: &str, id: u64) -> Result<(u16, Value), String> {
        let (status, body) = http_request(addr, "GET", &format!("/jobs/{id}"), None)?;
        parse(status, &body)
    }

    /// Polls until the job reaches a terminal state or `deadline`
    /// elapses.
    ///
    /// # Errors
    ///
    /// Transport failures, or a timeout message.
    pub fn wait(addr: &str, id: u64, deadline: Duration) -> Result<Value, String> {
        let start = Instant::now();
        loop {
            let (status, v) = poll(addr, id)?;
            if status != 200 {
                return Err(format!("job {id}: status {status}: {v:?}"));
            }
            match v.get("state").and_then(Value::as_str) {
                Some("done") | Some("failed") => return Ok(v),
                _ => {}
            }
            if start.elapsed() > deadline {
                return Err(format!("job {id}: still not terminal after {deadline:?}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Fetches `/stats`.
    ///
    /// # Errors
    ///
    /// See [`submit`].
    pub fn stats(addr: &str) -> Result<Value, String> {
        let (status, body) = http_request(addr, "GET", "/stats", None)?;
        if status != 200 {
            return Err(format!("stats: status {status}"));
        }
        Ok(parse(status, &body)?.1)
    }

    /// Fetches the raw Prometheus exposition from `/metrics`.
    ///
    /// # Errors
    ///
    /// Transport failures or a non-200 status, as a human-readable
    /// message.
    pub fn metrics(addr: &str) -> Result<String, String> {
        let (status, body) = http_request(addr, "GET", "/metrics", None)?;
        if status != 200 {
            return Err(format!("metrics: status {status}"));
        }
        Ok(body)
    }

    /// Fetches ranked critical chains for a cached fingerprint from
    /// `GET /trace/<fingerprint>?top=K`.
    ///
    /// # Errors
    ///
    /// See [`submit`].
    pub fn trace(addr: &str, fingerprint: &str, top: usize) -> Result<(u16, Value), String> {
        let (status, body) = http_request(
            addr,
            "GET",
            &format!("/trace/{fingerprint}?top={top}"),
            None,
        )?;
        parse(status, &body)
    }

    /// Requests a graceful drain.
    ///
    /// # Errors
    ///
    /// See [`submit`].
    pub fn drain(addr: &str) -> Result<(), String> {
        let (status, _) = http_request(addr, "POST", "/drain", None)?;
        if status != 200 {
            return Err(format!("drain: status {status}"));
        }
        Ok(())
    }

    fn parse(status: u16, body: &str) -> Result<(u16, Value), String> {
        serde_json::parse_value(body)
            .map(|v| (status, v))
            .map_err(|e| format!("bad response JSON ({e}): {body}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn journal_write_failures_are_counted_not_swallowed() {
        // /dev/full accepts the open but fails every write with
        // ENOSPC — the exact shape of a journal disk filling up.
        let journal = Journal::open(Path::new("/dev/full")).expect("open /dev/full");
        let counters = Counters::default();
        journal_terminal(&counters, &journal, 7, "done");
        journal_terminal(&counters, &journal, 8, "failed");
        assert_eq!(counters.journal_errors.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn backoff_elapses_in_full_when_nothing_is_draining() {
        let shared = test_shared();
        let start = Instant::now();
        assert!(backoff_or_abort(&shared, Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn backoff_aborts_immediately_when_already_draining() {
        let shared = test_shared();
        shared.draining.store(true, Ordering::SeqCst);
        let start = Instant::now();
        assert!(!backoff_or_abort(&shared, Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    fn test_shared() -> Shared {
        struct NoExec;
        impl JobExecutor for NoExec {
            fn prepare(&self, _: &str) -> Result<PreparedJob, String> {
                Err("test executor".into())
            }
            fn lookup(&self, _: &PreparedJob) -> Option<JobOutput> {
                None
            }
            fn run(&self, _: &PreparedJob) -> Result<JobOutput, JobFailure> {
                Err(JobFailure {
                    kind: hvx_core::ScenarioFailureKind::Panicked,
                    detail: "test executor".into(),
                    transient: false,
                })
            }
            fn expand(&self, _: &str) -> Result<Vec<String>, String> {
                Err("test executor".into())
            }
        }
        Shared {
            cfg: ServerConfig::default(),
            exec: Arc::new(NoExec),
            state: Mutex::new(Inner::default()),
            cvar: Condvar::new(),
            journal: None,
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            telemetry: Mutex::new(Telemetry::default()),
            started: Instant::now(),
            conn_inflight: AtomicU64::new(0),
        }
    }
}
