//! End-to-end tests of the sweep server over real loopback sockets,
//! with a mock executor so every failure mode is scriptable.
//!
//! The mock's body protocol: `ok:<name>` succeeds; `slow:<name>`
//! succeeds after a delay; `fail:<name>` always fails (non-transient);
//! `flaky:<n>:<name>` fails the first `n` run attempts, then
//! succeeds; `chaos:<name>` succeeds but is uncacheable; `bad`
//! refuses to prepare. `sweep=` bodies expand to comma-separated
//! sub-bodies. `retryable:<n>:<name>` fails the first `n` attempts
//! *transiently* (exercises in-worker retry, not the breaker).

use hvx_core::report::CellReport;
use hvx_core::ScenarioFailureKind;
use hvx_serve::{
    client, BreakerConfig, JobExecutor, JobFailure, JobOutput, Journal, PreparedJob, Server,
    ServerConfig,
};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

#[derive(Default)]
struct MockExec {
    run_calls: AtomicU64,
    attempts: Mutex<HashMap<String, u32>>,
    cache: Mutex<HashMap<String, JobOutput>>,
    traces: Mutex<HashMap<String, String>>,
    run_delay: Duration,
}

impl MockExec {
    fn output(body: &str, retries: u32) -> JobOutput {
        JobOutput {
            report: format!("report for {body}"),
            cell: CellReport {
                scenario: body.to_string(),
                fingerprint: Some(format!("fp-{body}")),
                retries,
                cached: false,
                failure: None,
            },
        }
    }
}

impl JobExecutor for MockExec {
    fn prepare(&self, body: &str) -> Result<PreparedJob, String> {
        if body == "bad" {
            return Err("unparsable body".into());
        }
        let weight = if body.starts_with("heavy:") { 10 } else { 2 };
        Ok(PreparedJob {
            label: body.to_string(),
            fingerprint: format!("fp-{body}"),
            cacheable: !body.starts_with("chaos:"),
            weight,
            body: body.to_string(),
        })
    }

    fn lookup(&self, job: &PreparedJob) -> Option<JobOutput> {
        if !job.cacheable {
            return None;
        }
        self.cache.lock().unwrap().get(&job.fingerprint).cloned()
    }

    fn run(&self, job: &PreparedJob) -> Result<JobOutput, JobFailure> {
        self.run_calls.fetch_add(1, Ordering::SeqCst);
        if self.run_delay > Duration::ZERO || job.body.starts_with("slow:") {
            std::thread::sleep(self.run_delay.max(Duration::from_millis(150)));
        }
        if job.body.starts_with("fail:") {
            return Err(JobFailure {
                kind: ScenarioFailureKind::Panicked,
                detail: format!("scripted failure for {}", job.body),
                transient: false,
            });
        }
        for (prefix, transient) in [("flaky:", false), ("retryable:", true)] {
            if let Some(rest) = job.body.strip_prefix(prefix) {
                let n: u32 = rest.split(':').next().unwrap().parse().unwrap();
                let mut attempts = self.attempts.lock().unwrap();
                let seen = attempts.entry(job.body.clone()).or_insert(0);
                *seen += 1;
                if *seen <= n {
                    return Err(JobFailure {
                        kind: ScenarioFailureKind::Panicked,
                        detail: format!("attempt {seen} of {} fails", job.body),
                        transient,
                    });
                }
            }
        }
        let out = Self::output(&job.body, 0);
        if job.cacheable {
            self.cache
                .lock()
                .unwrap()
                .insert(job.fingerprint.clone(), out.clone());
        }
        Ok(out)
    }

    fn expand(&self, body: &str) -> Result<Vec<String>, String> {
        match body.strip_prefix("sweep=") {
            Some(rest) => Ok(rest.split(',').map(str::to_string).collect()),
            None => Err("not a sweep template".into()),
        }
    }

    fn trace(&self, fingerprint: &str) -> Option<String> {
        self.traces.lock().unwrap().get(fingerprint).cloned()
    }
}

fn start(
    cfg: ServerConfig,
    exec: Arc<MockExec>,
) -> (String, std::thread::JoinHandle<()>, Arc<MockExec>) {
    let server = Server::bind(cfg, exec.clone() as Arc<dyn JobExecutor>).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, exec)
}

fn stop(addr: &str, handle: std::thread::JoinHandle<()>) {
    client::drain(addr).unwrap();
    handle.join().unwrap();
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap()
}

fn u64_of(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap()
}

#[test]
fn submit_poll_roundtrip_and_warm_dedupe_skips_the_worker_pool() {
    let (addr, handle, exec) = start(ServerConfig::default(), Arc::default());
    let (status, v) = client::submit(&addr, "alice", "ok:roundtrip").unwrap();
    assert_eq!(status, 202);
    assert_eq!(str_of(&v, "state"), "queued");
    let id = u64_of(&v, "job");
    let done = client::wait(&addr, id, Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(str_of(&done, "report"), "report for ok:roundtrip");
    assert_eq!(
        str_of(done.get("cell").unwrap(), "scenario"),
        "ok:roundtrip"
    );
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 1);

    // Warm resubmission: answered done at admission, zero new runs.
    let (status, v) = client::submit(&addr, "bob", "ok:roundtrip").unwrap();
    assert_eq!(status, 200);
    assert_eq!(str_of(&v, "state"), "done");
    assert_eq!(v.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 1);
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "warm_hits"), 1);
    stop(&addr, handle);
}

#[test]
fn flood_past_the_admission_bound_sheds_instead_of_hanging() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue_weight: 6, // three weight-2 jobs
        client_inflight_cap: 64,
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());

    // Concurrent clients race past the bound; every response must be a
    // prompt 202 or a structured 429, never a hang.
    let results: Vec<(u16, Value)> = {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    client::submit(&addr, &format!("c{i}"), &format!("slow:{i}")).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };
    let admitted = results.iter().filter(|(s, _)| *s == 202).count();
    let shed: Vec<&Value> = results
        .iter()
        .filter(|(s, _)| *s == 429)
        .map(|(_, v)| v)
        .collect();
    assert!(admitted >= 1, "at least one job admitted");
    assert!(!shed.is_empty(), "flood past the bound must shed");
    for v in &shed {
        assert_eq!(str_of(v, "error"), "shed");
        assert!(v.get("queue_depth").is_some());
        assert!(u64_of(v, "retry_after_ms") > 0);
    }
    // The accept loop is still live mid-flood.
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "shed_total"), shed.len() as u64);
    stop(&addr, handle);
}

#[test]
fn per_client_inflight_cap_is_enforced() {
    let cfg = ServerConfig {
        workers: 1,
        client_inflight_cap: 2,
        max_queue_weight: 1000,
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());
    assert_eq!(client::submit(&addr, "hog", "slow:1").unwrap().0, 202);
    assert_eq!(client::submit(&addr, "hog", "slow:2").unwrap().0, 202);
    let (status, v) = client::submit(&addr, "hog", "slow:3").unwrap();
    assert_eq!(status, 429);
    assert_eq!(str_of(&v, "error"), "client-cap");
    // A different client is unaffected.
    assert_eq!(client::submit(&addr, "other", "slow:4").unwrap().0, 202);
    stop(&addr, handle);
}

#[test]
fn transient_failures_retry_with_backoff_and_report_the_count() {
    let cfg = ServerConfig {
        max_retries: 3,
        retry_backoff: Duration::from_millis(5),
        ..ServerConfig::default()
    };
    let (addr, handle, exec) = start(cfg, Arc::default());
    let (_, v) = client::submit(&addr, "alice", "retryable:2:x").unwrap();
    let done = client::wait(&addr, u64_of(&v, "job"), Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(u64_of(&done, "retries"), 2);
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 3);
    stop(&addr, handle);
}

#[test]
fn breaker_opens_after_threshold_then_half_open_probe_closes_it() {
    let cfg = ServerConfig {
        max_retries: 0,
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(200),
        },
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());

    // flaky:2 fails its first two runs non-transiently: each failure
    // feeds the breaker, and the second opens it.
    for expect_quarantined in [false, true] {
        let (_, v) = client::submit(&addr, "alice", "flaky:2:fp").unwrap();
        let done = client::wait(&addr, u64_of(&v, "job"), Duration::from_secs(5)).unwrap();
        assert_eq!(str_of(&done, "state"), "failed");
        assert_eq!(str_of(done.get("failure").unwrap(), "kind"), "panicked");
        assert_eq!(
            done.get("quarantined"),
            Some(&Value::Bool(expect_quarantined))
        );
    }
    // Open: submissions for that fingerprint are refused with 409.
    let (status, v) = client::submit(&addr, "alice", "flaky:2:fp").unwrap();
    assert_eq!(status, 409);
    assert_eq!(str_of(&v, "error"), "quarantined");
    assert!(u64_of(&v, "retry_after_ms") > 0);
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "breaker_open"), 1);
    // Other fingerprints still run.
    assert_eq!(
        client::submit(&addr, "alice", "ok:bystander").unwrap().0,
        202
    );

    // After the cooldown the breaker half-opens; the probe (third run
    // of flaky:2) succeeds and closes it.
    std::thread::sleep(Duration::from_millis(250));
    let (status, v) = client::submit(&addr, "alice", "flaky:2:fp").unwrap();
    assert_eq!(status, 202);
    let done = client::wait(&addr, u64_of(&v, "job"), Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "breaker_open"), 0);
    stop(&addr, handle);
}

#[test]
fn sweep_admission_is_all_or_nothing() {
    let cfg = ServerConfig {
        workers: 1,
        max_queue_weight: 5, // three weight-2 jobs won't fit
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());
    let (status, v) = client::sweep(&addr, "alice", "sweep=ok:s1,ok:s2,ok:s3").unwrap();
    assert_eq!(status, 429);
    assert_eq!(str_of(&v, "error"), "shed");
    let stats = client::stats(&addr).unwrap();
    assert_eq!(
        u64_of(&stats, "accepted_total"),
        0,
        "nothing partially admitted"
    );

    // Two fit.
    let (status, v) = client::sweep(&addr, "alice", "sweep=ok:s1,ok:s2").unwrap();
    assert_eq!(status, 202);
    let jobs = v.get("jobs").unwrap().as_array().unwrap();
    assert_eq!(jobs.len(), 2);
    for j in jobs {
        let id = j.as_u64().unwrap();
        let done = client::wait(&addr, id, Duration::from_secs(5)).unwrap();
        assert_eq!(str_of(&done, "state"), "done");
    }
    stop(&addr, handle);
}

#[test]
fn journal_recovery_readmits_incomplete_work_exactly_once() {
    let dir = std::env::temp_dir().join(format!("hvx-serve-recover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    // A previous process accepted three jobs and finished only one —
    // then died (we write the journal it would have left behind).
    let exec = Arc::new(MockExec::default());
    let j = Journal::open(&path).unwrap();
    for (id, body) in [
        (0, "ok:done-before-crash"),
        (1, "ok:lost"),
        (2, "ok:cached"),
    ] {
        j.accepted(id, "alice", &exec.prepare(body).unwrap())
            .unwrap();
    }
    j.terminal(0, "done").unwrap();
    drop(j);
    // Job 2's result made it into the cache before the crash.
    exec.cache
        .lock()
        .unwrap()
        .insert("fp-ok:cached".into(), MockExec::output("ok:cached", 0));

    let cfg = ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, exec) = start(cfg, exec);
    // Job 1 re-ran; job 2 was served from cache without a worker.
    let done = client::wait(&addr, 1, Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    let cached = client::wait(&addr, 2, Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&cached, "state"), "done");
    assert_eq!(cached.get("cached"), Some(&Value::Bool(true)));
    // Job 0 completed before the crash: not re-admitted.
    assert_eq!(client::poll(&addr, 0).unwrap().0, 404);
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 1);
    // New ids continue past the journaled ones.
    let (_, v) = client::submit(&addr, "alice", "ok:fresh").unwrap();
    assert_eq!(u64_of(&v, "job"), 3);
    client::wait(&addr, 3, Duration::from_secs(5)).unwrap();
    stop(&addr, handle);

    // Second restart: every journaled job has a terminal record, so
    // nothing is re-admitted and nothing re-runs — exactly once.
    let runs_before = exec.run_calls.load(Ordering::SeqCst);
    let cfg = ServerConfig {
        journal: Some(path),
        ..ServerConfig::default()
    };
    let (addr, handle, exec) = start(cfg, exec);
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "recovered_total"), 0);
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), runs_before);
    stop(&addr, handle);
}

#[test]
fn finished_results_are_evicted_oldest_idle_first() {
    let cfg = ServerConfig {
        max_results: 2,
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());
    let mut ids = Vec::new();
    for i in 0..4 {
        let (_, v) = client::submit(&addr, "alice", &format!("ok:evict{i}")).unwrap();
        let id = u64_of(&v, "job");
        client::wait(&addr, id, Duration::from_secs(5)).unwrap();
        ids.push(id);
        // Polling (above) refreshes last_touch, so completion order is
        // also idle order here.
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client::poll(&addr, ids[0]).unwrap().0, 404);
    assert_eq!(client::poll(&addr, ids[1]).unwrap().0, 404);
    assert_eq!(client::poll(&addr, ids[3]).unwrap().0, 200);
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "evicted_total"), 2);
    stop(&addr, handle);
}

#[test]
fn drain_finishes_running_work_and_refuses_new_submissions() {
    let (addr, handle, _exec) = start(ServerConfig::default(), Arc::default());
    let (_, v) = client::submit(&addr, "alice", "slow:drain").unwrap();
    let id = u64_of(&v, "job");
    client::drain(&addr).unwrap();
    let (status, v) = client::submit(&addr, "alice", "ok:late").unwrap();
    assert_eq!(status, 503);
    assert_eq!(str_of(&v, "error"), "draining");
    // The in-flight job still completes; run() then exits on its own.
    handle.join().unwrap();
    // (Server is gone now — its final state confirmed the job ran to
    // completion because run() only exits when running == 0.)
    let _ = id;
}

#[test]
fn drain_completes_promptly_while_a_worker_is_mid_retry_backoff() {
    // A job that fails transiently forever keeps a worker cycling
    // through 1s-capped exponential backoffs for ~100 attempts. Drain
    // must not wait out those sleeps: the retry backoff is
    // interruptible, and a drain converts the pending transient
    // failure into a terminal one so `running` reaches 0 promptly.
    let cfg = ServerConfig {
        workers: 1,
        max_retries: 100,
        retry_backoff: Duration::from_secs(1),
        ..ServerConfig::default()
    };
    let (addr, handle, exec) = start(cfg, Arc::default());
    let (status, _) = client::submit(&addr, "alice", "retryable:1000:hang").unwrap();
    assert_eq!(status, 202);
    // Let the first attempt fail and the worker enter its backoff.
    while exec.run_calls.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let t0 = std::time::Instant::now();
    client::drain(&addr).unwrap();
    handle.join().unwrap();
    // Without the interruptible backoff this takes minutes (the
    // remaining retries × capped backoff); with it, milliseconds.
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drain stalled {:?} behind a retry backoff",
        t0.elapsed()
    );
    // The worker recorded the outcome rather than abandoning the job:
    // only the attempts that ran before the drain are counted.
    assert!(exec.run_calls.load(Ordering::SeqCst) < 100);
}

#[test]
fn torn_terminal_write_costs_one_cached_replay_not_duplicate_work() {
    // A terminal record is flushed but not fsynced, so a crash can
    // tear it off the journal tail. Recovery must treat the job as
    // incomplete, serve it from the warm cache without a worker, and
    // report zero journal errors for the healthy re-write.
    let dir = std::env::temp_dir().join(format!("hvx-serve-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let _ = std::fs::remove_file(&path);

    let exec = Arc::new(MockExec::default());
    let j = Journal::open(&path).unwrap();
    j.accepted(0, "alice", &exec.prepare("ok:torn").unwrap())
        .unwrap();
    drop(j);
    // The result reached the cache, but the `done` record was torn
    // mid-write by the crash.
    exec.cache
        .lock()
        .unwrap()
        .insert("fp-ok:torn".into(), MockExec::output("ok:torn", 0));
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"event\":\"do").unwrap();
    }

    let cfg = ServerConfig {
        journal: Some(path.clone()),
        ..ServerConfig::default()
    };
    let (addr, handle, exec) = start(cfg, exec);
    let done = client::wait(&addr, 0, Duration::from_secs(5)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(done.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 0, "no duplicate run");
    let stats = client::stats(&addr).unwrap();
    assert_eq!(u64_of(&stats, "recovered_total"), 1);
    assert_eq!(u64_of(&stats, "journal_errors"), 0);
    stop(&addr, handle);

    // The re-written terminal record sticks: a second recovery finds
    // nothing incomplete.
    let rec = hvx_serve::recover(&path).unwrap();
    assert!(rec.incomplete.is_empty());
}

#[test]
fn malformed_bodies_and_unknown_routes_get_structured_errors() {
    let (addr, handle, exec) = start(ServerConfig::default(), Arc::default());
    let (status, v) = client::submit(&addr, "alice", "bad").unwrap();
    assert_eq!(status, 400);
    assert_eq!(str_of(&v, "error"), "bad-request");
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 0);
    let (status, _) = client::poll(&addr, 999).unwrap();
    assert_eq!(status, 404);
    stop(&addr, handle);
}

#[test]
fn oversized_request_heads_get_431_and_the_server_stays_up() {
    use std::io::{Read, Write};
    let (addr, handle, exec) = start(ServerConfig::default(), Arc::default());
    // One header line past the count limit and no terminating blank
    // line: the server has read everything sent when it refuses, so the
    // response arrives intact.
    let mut head = String::from("GET /stats HTTP/1.1\r\n");
    for i in 0..=hvx_serve::http::MAX_HEADERS {
        head.push_str(&format!("x-h{i}: v\r\n"));
    }
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    stream.write_all(head.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{response}"
    );
    let body: Value = serde_json::from_str(response.split("\r\n\r\n").nth(1).unwrap()).unwrap();
    assert_eq!(str_of(&body, "error"), "head-too-large");
    assert!(client::stats(&addr).is_ok(), "the server keeps serving");
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 0);
    stop(&addr, handle);
}

/// Scrapes `/metrics` and returns the parsed samples keyed by
/// `name{labels}`.
fn scrape(addr: &str) -> HashMap<String, f64> {
    let text = client::metrics(addr).unwrap();
    let samples =
        hvx_obs::parse_exposition(&text).expect("exposition must round-trip through the parser");
    samples
        .into_iter()
        .map(|s| {
            let key = if s.labels.is_empty() {
                s.name
            } else {
                format!("{}{{{}}}", s.name, s.labels)
            };
            (key, s.value)
        })
        .collect()
}

#[test]
fn metrics_exposition_has_stable_families_and_parses() {
    let (addr, handle, _exec) = start(ServerConfig::default(), Arc::default());
    let (_, v) = client::submit(&addr, "alice", "ok:scrape").unwrap();
    let id = u64_of(&v, "job");
    client::wait(&addr, id, Duration::from_secs(5)).unwrap();

    let text = client::metrics(&addr).unwrap();
    // The exposition format gates: HELP/TYPE headers plus parseable
    // samples for every family the dashboards key on.
    for family in [
        "hvx_serve_accepted_total",
        "hvx_serve_shed_total",
        "hvx_serve_warm_hits_total",
        "hvx_serve_retries_total",
        "hvx_serve_breaker_opened_total",
        "hvx_serve_journal_errors_total",
        "hvx_serve_queue_depth",
        "hvx_serve_running",
        "hvx_serve_workers",
        "hvx_serve_worker_occupancy",
        "hvx_serve_uptime_seconds",
        "hvx_serve_draining",
        "hvx_serve_queue_wait_us",
        "hvx_serve_run_us",
        "hvx_serve_journal_write_us",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing TYPE header for {family} in:\n{text}"
        );
    }
    let m = scrape(&addr);
    assert_eq!(m["hvx_serve_accepted_total"], 1.0);
    assert_eq!(m["hvx_serve_queue_wait_us_count"], 1.0);
    assert_eq!(m["hvx_serve_run_us_count"], 1.0);
    assert!(m["hvx_serve_run_us_sum"] >= 0.0);
    assert_eq!(m["hvx_serve_draining"], 0.0);
    assert!(m["hvx_serve_workers"] >= 1.0);
    stop(&addr, handle);
}

#[test]
fn metrics_counters_stay_monotone_across_retry_and_drain() {
    let (addr, handle, _exec) = start(ServerConfig::default(), Arc::default());

    let (_, v) = client::submit(&addr, "alice", "ok:mono").unwrap();
    client::wait(&addr, u64_of(&v, "job"), Duration::from_secs(5)).unwrap();
    let before = scrape(&addr);

    // A transiently failing job retries in-worker and a warm
    // resubmission hits the cache: accepted, retries, and warm-hit
    // counters must all move forward, never backward.
    let (_, v) = client::submit(&addr, "alice", "retryable:2:mono").unwrap();
    client::wait(&addr, u64_of(&v, "job"), Duration::from_secs(5)).unwrap();
    let (status, _) = client::submit(&addr, "bob", "ok:mono").unwrap();
    assert_eq!(status, 200);
    let after = scrape(&addr);

    for key in [
        "hvx_serve_accepted_total",
        "hvx_serve_shed_total",
        "hvx_serve_warm_hits_total",
        "hvx_serve_retries_total",
        "hvx_serve_run_us_count",
        "hvx_serve_queue_wait_us_count",
    ] {
        assert!(
            after[key] >= before[key],
            "{key} went backward: {} -> {}",
            before[key],
            after[key]
        );
    }
    // Warm-dedupe admissions count as accepted too: 3 submits total.
    assert_eq!(after["hvx_serve_accepted_total"], 3.0);
    assert_eq!(after["hvx_serve_retries_total"], 2.0);
    assert_eq!(after["hvx_serve_warm_hits_total"], 1.0);
    stop(&addr, handle);
}

#[test]
fn stats_carry_uptime_and_worker_pool_gauges() {
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let (addr, handle, _exec) = start(cfg, Arc::default());
    let stats = client::stats(&addr).unwrap();
    assert!(stats
        .get("uptime_seconds")
        .and_then(Value::as_u64)
        .is_some());
    assert_eq!(u64_of(&stats, "workers"), 3);
    assert_eq!(u64_of(&stats, "queue_depth"), 0);
    let occ = stats
        .get("worker_occupancy")
        .and_then(Value::as_f64)
        .unwrap();
    assert!((0.0..=1.0).contains(&occ));
    stop(&addr, handle);
}

#[test]
fn trace_queries_answer_from_cache_without_a_worker_run() {
    const TRACED: &str = "0123456789abcdef0123456789abcdef";
    let exec = Arc::new(MockExec::default());
    exec.traces.lock().unwrap().insert(
        TRACED.into(),
        r#"{"fingerprint":"0123456789abcdef0123456789abcdef","chains":[
            {"id":3,"latency_cycles":900},
            {"id":1,"latency_cycles":500},
            {"id":2,"latency_cycles":100}]}"#
            .into(),
    );
    let (addr, handle, exec) = start(ServerConfig::default(), exec);

    // Hit: ranked chains come back truncated to `top`, annotated with
    // the full count — and the worker pool never ran anything.
    let (status, v) = client::trace(&addr, TRACED, 2).unwrap();
    assert_eq!(status, 200);
    let chains = v.get("chains").and_then(Value::as_array).unwrap();
    assert_eq!(chains.len(), 2);
    assert_eq!(u64_of(&chains[0], "id"), 3);
    assert_eq!(u64_of(&v, "total_chains"), 3);
    assert_eq!(u64_of(&v, "top"), 2);
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 0);

    // Miss: unknown fingerprints 404 without triggering a re-run.
    let (status, v) = client::trace(&addr, &"f".repeat(32), 5).unwrap();
    assert_eq!(status, 404);
    assert_eq!(str_of(&v, "error"), "not-found");
    assert_eq!(exec.run_calls.load(Ordering::SeqCst), 0);

    // Anything but a canonical fingerprint is refused before the
    // executor sees it: it would name a file outside the cache.
    for bad in ["fp-unknown", "../../x", "/tmp/x", &TRACED.to_uppercase()] {
        let (status, v) = client::trace(&addr, bad, 5).unwrap();
        assert_eq!(status, 400, "{bad}: {v:?}");
        assert_eq!(str_of(&v, "error"), "bad-request");
    }
    stop(&addr, handle);
}
