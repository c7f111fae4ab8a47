#!/bin/sh
# Observability smoke test: the telemetry plane against a real
# hvx-serve process over loopback.
#   1. telemetry off is byte-identical: a debug-logged run's stdout
#      matches a silent run's stdout, and the baseline gate exits 0
#      with logging forced off;
#   2. GET /metrics exposes the stable Prometheus families (counters,
#      gauges, latency histograms) and moves the counters as work is
#      accepted;
#   3. GET /trace/<fingerprint> serves ranked critical chains from the
#      warm cache — including on a freshly restarted server whose
#      workers have never run anything.
# Run from the repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
tmp=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

start_server() {
    # Sets the globals $server_pid and $addr (must not run in a
    # subshell, or the parent loses the pid).
    "$repro" serve --addr 127.0.0.1:0 --cache "$tmp/cache" \
        --journal "$tmp/journal.jsonl" >"$tmp/server.out" 2>"$tmp/server.err" &
    server_pid=$!
    i=0
    until grep -q "listening on" "$tmp/server.out" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "obs_serve_smoke: server did not come up" >&2
            cat "$tmp/server.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    addr=$(sed -n 's/^hvx-serve: listening on //p' "$tmp/server.out" | head -1)
}

field() {
    # $1 = JSON text, $2 = key -> unquoted scalar value
    printf '%s\n' "$1" | sed -n "s/^  \"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" | head -1
}

metric() {
    # $1 = exposition text, $2 = sample name -> value (unlabeled)
    printf '%s\n' "$1" | sed -n "s/^$2 \(.*\)\$/\1/p" | head -1
}

echo "== telemetry off is byte-identical (logs only ever touch stderr) =="
HVX_LOG=off "$repro" run --spec specs/paper-kvm.json >"$tmp/silent.txt" 2>/dev/null
HVX_LOG=debug "$repro" run --spec specs/paper-kvm.json >"$tmp/logged.txt" 2>"$tmp/logged.err"
if ! cmp -s "$tmp/silent.txt" "$tmp/logged.txt"; then
    echo "obs_serve_smoke: debug logging changed report bytes on stdout" >&2
    exit 1
fi
# The runner only logs retries/watchdog trips, so a clean run may be
# silent — but anything emitted must be one JSON object per line.
if grep -v '^{' "$tmp/logged.err" | grep -q .; then
    echo "obs_serve_smoke: non-JSON noise on stderr under --log-level debug:" >&2
    grep -v '^{' "$tmp/logged.err" >&2
    exit 1
fi

echo "== baseline gate exits 0 with logging forced off =="
HVX_LOG=off "$repro" check --cache "$tmp/check-cache" table2 >/dev/null

echo "== /metrics: stable families before any work =="
start_server
m0=$("$repro" serve metrics --addr "$addr")
for family in \
    hvx_serve_accepted_total hvx_serve_shed_total hvx_serve_warm_hits_total \
    hvx_serve_retries_total hvx_serve_queue_depth hvx_serve_workers \
    hvx_serve_worker_occupancy hvx_serve_uptime_seconds hvx_serve_draining \
    hvx_serve_queue_wait_us hvx_serve_run_us hvx_serve_journal_write_us; do
    case "$m0" in
    *"# TYPE $family "*) ;;
    *)
        echo "obs_serve_smoke: /metrics missing family $family" >&2
        exit 1
        ;;
    esac
done
if [ "$(metric "$m0" hvx_serve_accepted_total)" != "0" ]; then
    echo "obs_serve_smoke: fresh server reports nonzero accepted_total" >&2
    exit 1
fi

echo "== paper cell round-trip moves the counters and histograms =="
sub=$("$repro" serve submit --addr "$addr" --spec specs/paper-kvm.json --wait 120)
if [ "$(field "$sub" state)" != "done" ]; then
    echo "obs_serve_smoke: paper submission did not finish: $sub" >&2
    exit 1
fi
fp=$(printf '%s\n' "$sub" | sed -n 's/.*"fingerprint": "\([^"]*\)".*/\1/p' | head -1)
if [ -z "$fp" ]; then
    echo "obs_serve_smoke: no fingerprint in the done envelope: $sub" >&2
    exit 1
fi
m1=$("$repro" serve metrics --addr "$addr")
if [ "$(metric "$m1" hvx_serve_accepted_total)" != "1" ]; then
    echo "obs_serve_smoke: accepted_total did not advance to 1" >&2
    exit 1
fi
if [ "$(metric "$m1" hvx_serve_run_us_count)" != "1" ]; then
    echo "obs_serve_smoke: run latency histogram recorded nothing" >&2
    exit 1
fi

echo "== /trace serves ranked chains for the finished fingerprint =="
tr1=$("$repro" serve trace --addr "$addr" "$fp" --top 3)
if [ "$(field "$tr1" status)" != "200" ]; then
    echo "obs_serve_smoke: trace query failed: $tr1" >&2
    exit 1
fi
case "$tr1" in
*'"chains"'*'"latency_cycles"'*) ;;
*)
    echo "obs_serve_smoke: trace payload has no ranked chains: $tr1" >&2
    exit 1
    ;;
esac

echo "== restart: /trace answers from the warm cache without a worker =="
"$repro" serve drain --addr "$addr" >/dev/null
wait "$server_pid"
server_pid=""
: >"$tmp/server.out"
start_server
tr2=$("$repro" serve trace --addr "$addr" "$fp" --top 3)
if [ "$(field "$tr2" status)" != "200" ]; then
    echo "obs_serve_smoke: restarted server lost the cached trace: $tr2" >&2
    exit 1
fi
m2=$("$repro" serve metrics --addr "$addr")
if [ "$(metric "$m2" hvx_serve_accepted_total)" != "0" ]; then
    echo "obs_serve_smoke: trace query went through admission instead of the cache" >&2
    exit 1
fi
miss=$("$repro" serve trace --addr "$addr" "00000000000000000000000000000000")
if [ "$(field "$miss" status)" != "404" ]; then
    echo "obs_serve_smoke: unknown fingerprint did not 404: $miss" >&2
    exit 1
fi
# A segment that is not a canonical fingerprint names no cache entry.
bad=$("$repro" serve trace --addr "$addr" "no-such-fingerprint")
if [ "$(field "$bad" status)" != "400" ]; then
    echo "obs_serve_smoke: malformed fingerprint did not 400: $bad" >&2
    exit 1
fi
"$repro" serve drain --addr "$addr" >/dev/null
wait "$server_pid"
server_pid=""

echo "obs_serve_smoke: all checks passed"
