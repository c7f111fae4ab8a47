#!/bin/sh
# Repo gate: formatting + the tier-1 verify from ROADMAP.md.
# Run from the repository root. Fails fast on the first broken step.
set -eu

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (workspace) =="
cargo test -q --workspace

echo "== perfbench self-test =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo clippy, tests and benches included (warnings denied) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== examples, each run in release mode =="
for ex in examples/*.rs; do
    name=$(basename "$ex" .rs)
    echo "-- example $name"
    cargo run --release --quiet --example "$name" > /dev/null
done

echo "== cargo doc --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== fault smoke =="
sh scripts/fault_smoke.sh

echo "== profile smoke =="
sh scripts/profile_smoke.sh

echo "== trace smoke =="
sh scripts/trace_smoke.sh

echo "== sched smoke =="
sh scripts/sched_smoke.sh

echo "== rack smoke =="
sh scripts/rack_smoke.sh

echo "== serve smoke =="
sh scripts/serve_smoke.sh

echo "== observability smoke =="
sh scripts/obs_serve_smoke.sh

echo "== baseline gate =="
sh scripts/baseline_check.sh

echo "== perf smoke =="
sh scripts/perf_smoke.sh

echo "ci: all checks passed"
