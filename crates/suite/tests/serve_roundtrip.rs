//! End-to-end sweep-server tests: a real `hvx-serve` server over
//! loopback, backed by the real [`SuiteExecutor`] (spec runner +
//! content-addressed cache). Pins the ISSUE-level guarantees:
//!
//! * a served spec result is **byte-identical** to a direct
//!   `spec_run::run_spec` of the same body;
//! * a warm resubmission is answered from the cache at admission time
//!   (the job is born `done`, no worker runs);
//! * a panicking chaos probe becomes a typed failure and quarantines
//!   its fingerprint while the server keeps answering.

use hvx_core::{HvKind, ScenarioSpec, SchedPolicy};
use hvx_serve::{client, BreakerConfig, Server, ServerConfig};
use hvx_suite::cache::ResultCache;
use hvx_suite::service::SuiteExecutor;
use hvx_suite::spec_run;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hvx-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Running {
    addr: String,
    handle: std::thread::JoinHandle<Result<(), hvx_core::Error>>,
}

fn start(cfg: ServerConfig, cache: Option<Arc<ResultCache>>) -> Running {
    let server = Server::bind(cfg, Arc::new(SuiteExecutor::new(cache))).unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

fn stop(r: Running) {
    client::drain(&r.addr).unwrap();
    r.handle.join().unwrap().unwrap();
}

fn spec_body(ratio: u32, txns: u32) -> String {
    let mut spec = ScenarioSpec::consolidation(HvKind::KvmArm, ratio, SchedPolicy::Credit);
    spec.transactions = Some(txns);
    serde_json::to_string(Serialize::serialize(&spec)).unwrap()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap()
}

#[test]
fn served_reports_are_byte_identical_to_direct_runs_and_dedupe_warm() {
    let dir = temp_dir("roundtrip");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            ..ServerConfig::default()
        },
        Some(Arc::clone(&cache)),
    );

    let body = spec_body(8, 12);
    let direct = spec_run::run_spec(&spec_run::parse(&body).unwrap()).unwrap();

    // Cold: admitted, runs on a worker, terminal state carries the
    // report byte-identical to the direct run.
    let (status, v) = client::submit(&r.addr, "it", &body).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    let done = client::wait(&r.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");
    assert_eq!(str_of(&done, "report"), direct, "server == direct bytes");
    assert_eq!(done.get("cached").unwrap(), &Value::Bool(false));

    // Warm: same spec (even as byte-different JSON — reserialized) is
    // answered `done` at admission; the job id advances but no worker
    // ran (stats: one more warm hit, accepted grows, running drains).
    let reserialized =
        serde_json::to_string(Serialize::serialize(&spec_run::parse(&body).unwrap())).unwrap();
    let (status, v) = client::submit(&r.addr, "it", &reserialized).unwrap();
    assert_eq!(status, 200, "warm submissions answer immediately: {v:?}");
    assert_eq!(str_of(&v, "state"), "done");
    assert_eq!(v.get("cached").unwrap(), &Value::Bool(true));
    let warm_id = v.get("job").and_then(Value::as_u64).unwrap();
    let (_, warm) = client::poll(&r.addr, warm_id).unwrap();
    assert_eq!(str_of(&warm, "report"), direct, "warm == direct bytes");

    let stats = client::stats(&r.addr).unwrap();
    assert_eq!(stats.get("warm_hits").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("accepted_total").and_then(Value::as_u64), Some(2));

    stop(r);
}

#[test]
fn sweep_admits_all_or_nothing_and_serves_every_cell() {
    let dir = temp_dir("sweep");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            client_inflight_cap: 16,
            ..ServerConfig::default()
        },
        Some(cache),
    );

    let template = format!(
        "{{\"sweep\": {{\"base\": {}, \"ratios\": [2, 4], \"schedulers\": [\"credit\", \"cfs\"]}}}}",
        spec_body(2, 6)
    );
    let (status, v) = client::sweep(&r.addr, "it", &template).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let jobs = v.get("jobs").and_then(Value::as_array).unwrap().to_vec();
    assert_eq!(jobs.len(), 4);
    for id in &jobs {
        let done = client::wait(&r.addr, id.as_u64().unwrap(), Duration::from_secs(60)).unwrap();
        assert_eq!(str_of(&done, "state"), "done", "{done:?}");
        // Every cell's report went through the real spec runner.
        assert!(str_of(&done, "report").contains("== scenario spec run =="));
    }

    stop(r);
}

#[test]
fn chaos_panic_is_typed_quarantined_and_leaves_the_server_alive() {
    let dir = temp_dir("chaos");
    let r = start(
        ServerConfig {
            journal: Some(dir.join("journal.jsonl")),
            max_retries: 0,
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_secs(3600),
            },
            ..ServerConfig::default()
        },
        None,
    );

    let (status, v) = client::submit(&r.addr, "it", "{\"chaos\": \"panic\"}").unwrap();
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    let done = client::wait(&r.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(str_of(&done, "state"), "failed");
    let failure = done.get("failure").unwrap();
    assert_eq!(str_of(failure, "kind"), "panicked");
    assert_eq!(done.get("quarantined").unwrap(), &Value::Bool(true));

    // The fingerprint is now quarantined: resubmission is refused with
    // 409 without occupying the queue.
    let (status, v) = client::submit(&r.addr, "it", "{\"chaos\": \"panic\"}").unwrap();
    assert_eq!(status, 409, "{v:?}");
    assert_eq!(str_of(&v, "error"), "quarantined");

    // And the server is fully alive: a real spec still round-trips.
    let (status, v) = client::submit(&r.addr, "it", &spec_body(2, 4)).unwrap();
    assert_eq!(status, 202, "{v:?}");
    let id = v.get("job").and_then(Value::as_u64).unwrap();
    let done = client::wait(&r.addr, id, Duration::from_secs(60)).unwrap();
    assert_eq!(str_of(&done, "state"), "done");

    stop(r);
}

/// A body nested far deeper than any spec is refused with a typed 400
/// by the JSON parser's depth cap instead of overflowing the
/// connection thread's stack, and the server keeps serving.
#[test]
fn deeply_nested_bodies_get_400_and_the_server_keeps_serving() {
    let r = start(ServerConfig::default(), None);
    let n = 50_000;
    let bodies = [
        format!("{}{}", "[".repeat(n), "]".repeat(n)),
        format!("{}0{}", r#"{"a":"#.repeat(n / 2), "}".repeat(n / 2)),
        "[".repeat(2 * n),
    ];
    for body in &bodies {
        assert!(body.len() >= 100_000, "each body is about 100 KB");
        let (status, v) = client::submit(&r.addr, "it", body).unwrap();
        assert_eq!(status, 400, "POST /jobs: {v:?}");
        assert_eq!(str_of(&v, "error"), "bad-request");
        let (status, v) = client::sweep(&r.addr, "it", body).unwrap();
        assert_eq!(status, 400, "POST /sweep: {v:?}");
    }
    let stats = client::stats(&r.addr).unwrap();
    assert_eq!(stats.get("accepted_total").and_then(Value::as_u64), Some(0));
    stop(r);
}

/// `GET /trace/<segment>` names a file in the cache directory, so a
/// segment that is not a canonical fingerprint must be refused before
/// it reaches the filesystem — even where a valid-looking trace entry
/// sits at the path it would resolve to.
#[test]
fn trace_route_refuses_paths_that_escape_the_cache() {
    let dir = temp_dir("trace-escape");
    let cache = Arc::new(ResultCache::open(&dir.join("cache")).unwrap());
    // The cache keeps entries in `cache/v<schema>/<key>.json`: `../../x`
    // climbs to `dir`, and an absolute segment replaces the directory.
    let absolute = dir.join("abs");
    let absolute = absolute.to_str().unwrap();
    let plants = [
        ("../../x", dir.join("x-trace.json")),
        (absolute, dir.join("abs-trace.json")),
    ];
    for (segment, path) in &plants {
        let entry = Value::Object(vec![
            (
                "schema".into(),
                Value::U64(u64::from(hvx_suite::cache::SCHEMA_VERSION)),
            ),
            ("fingerprint".into(), Value::Str(format!("{segment}-trace"))),
            ("kind".into(), Value::Str("trace-query".into())),
            (
                "payload".into(),
                serde_json::parse_value(r#"{"chains": []}"#).unwrap(),
            ),
        ]);
        std::fs::write(path, serde_json::to_string(&entry).unwrap()).unwrap();
        // The plant is well formed, but the cache refuses a key that
        // could leave its directory, even through the raw API.
        assert!(cache
            .lookup_raw(&format!("{segment}-trace"), "trace-query")
            .is_none());
    }
    let r = start(ServerConfig::default(), Some(Arc::clone(&cache)));
    for (segment, _) in &plants {
        let (status, v) = client::trace(&r.addr, segment, 5).unwrap();
        assert_eq!(status, 400, "GET /trace/{segment}: {v:?}");
        assert_eq!(str_of(&v, "error"), "bad-request");
    }
    stop(r);
    let _ = std::fs::remove_dir_all(&dir);
}
