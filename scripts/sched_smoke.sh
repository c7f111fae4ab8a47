#!/bin/sh
# Scheduler/consolidation smoke test: the 1:1 and 8:1 sweep endpoints
# via `run --spec` under both vCPU schedulers, steal monotonicity
# between them, and spec round-trip identity. Run from the repository
# root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

steal_of() {
    # "steal:        189107013 cycles (...)" -> 189107013
    printf '%s\n' "$1" | sed -n 's/^steal: *\([0-9]*\) cycles.*/\1/p'
}

make_spec() {
    # $1 = vms, $2 = scheduler (Credit | Cfs); writes spec-$1-$2.json
    cat > "$tmp/spec-$1-$2.json" <<EOF
{
  "hypervisor": "KvmArm",
  "topology": {
    "hosts": 1,
    "pcpus": 2,
    "vms": $1,
    "vcpus_per_vm": 2
  },
  "scheduler": "$2",
  "workload": "TcpRr",
  "virq_policy": "Vcpu0",
  "transactions": null,
  "fault": null,
  "watchdog": {
    "cycle_budget": null,
    "livelock_threshold": null
  }
}
EOF
}

echo "== 1:1 endpoint: no steal =="
make_spec 1 Credit
one=$("$repro" run --spec "$tmp/spec-1-Credit.json")
echo "$one"
steal_one=$(steal_of "$one")
if [ "$steal_one" != "0" ]; then
    echo "sched_smoke: 1:1 cell reported steal $steal_one, expected 0" >&2
    exit 1
fi

echo "== 8:1 endpoint: steal strictly positive =="
make_spec 8 Credit
eight=$("$repro" run --spec "$tmp/spec-8-Credit.json")
echo "$eight"
steal_eight=$(steal_of "$eight")
if [ "$steal_eight" -le "$steal_one" ]; then
    echo "sched_smoke: steal not monotone: 1:1=$steal_one, 8:1=$steal_eight" >&2
    exit 1
fi
case "$eight" in
*"8 VMs x 2 vCPUs on 2 pCPUs, 8:1"*) ;;
*)
    echo "sched_smoke: 8:1 report missing its topology line" >&2
    exit 1
    ;;
esac

echo "== spec runs are reproducible and match the shipped example =="
again=$("$repro" run --spec "$tmp/spec-8-Credit.json")
if [ "$eight" != "$again" ]; then
    echo "sched_smoke: two runs of the same spec diverged" >&2
    exit 1
fi
shipped=$("$repro" run --spec specs/consolidation-8to1.json)
if [ "$eight" != "$shipped" ]; then
    echo "sched_smoke: shipped example diverged from the inline spec" >&2
    exit 1
fi

echo "== CFS 8:1 endpoint: steal positive and above the CFS 1:1 endpoint =="
make_spec 1 Cfs
cfs_one=$("$repro" run --spec "$tmp/spec-1-Cfs.json")
steal_cfs_one=$(steal_of "$cfs_one")
make_spec 8 Cfs
cfs_eight=$("$repro" run --spec "$tmp/spec-8-Cfs.json")
echo "$cfs_eight"
steal_cfs_eight=$(steal_of "$cfs_eight")
case "$cfs_eight" in
*"scheduler:    cfs"*) ;;
*)
    echo "sched_smoke: CFS spec did not run the cfs scheduler" >&2
    exit 1
    ;;
esac
if [ "$steal_cfs_eight" -le 0 ] || [ "$steal_cfs_eight" -le "$steal_cfs_one" ]; then
    echo "sched_smoke: CFS steal not positive and monotone: 1:1=$steal_cfs_one, 8:1=$steal_cfs_eight" >&2
    exit 1
fi
cfs_again=$("$repro" run --spec "$tmp/spec-8-Cfs.json")
if [ "$cfs_eight" != "$cfs_again" ]; then
    echo "sched_smoke: two runs of the CFS 8:1 spec diverged" >&2
    exit 1
fi

echo "== retired legacy interface points at run =="
status=0
err=$("$repro" oversub 2>&1 >/dev/null) || status=$?
if [ "$status" != "2" ]; then
    echo "sched_smoke: legacy invocation exited $status, expected 2" >&2
    exit 1
fi
case "$err" in
*"use 'hvx-repro run oversub ...'"*) ;;
*)
    echo "sched_smoke: retirement message missing the run pointer: $err" >&2
    exit 1
    ;;
esac

echo "sched_smoke: all checks passed"
