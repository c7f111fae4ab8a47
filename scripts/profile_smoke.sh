#!/bin/sh
# Profile smoke test: one instrumented profile per hypervisor kind.
# Each must print a non-empty, conservation-exact breakdown — an empty
# profile means the span instrumentation regressed. Run from the
# repository root.
set -eu

cargo build -q --release -p hvx-suite
repro="target/release/hvx-repro"

for scenario in netperf-kvm-arm netperf-xen-arm netperf-kvm-x86 netperf-xen-x86; do
    echo "== profile $scenario =="
    out=$("$repro" profile --scenario "$scenario" --jobs 1)
    echo "$out" | head -6

    case "$out" in
    *"== Profile: $scenario"*) ;;
    *)
        echo "profile_smoke: $scenario produced no report" >&2
        exit 1
        ;;
    esac
    case "$out" in
    *"conservation exact"*) ;;
    *)
        echo "profile_smoke: $scenario missing conservation line" >&2
        exit 1
        ;;
    esac
    # At least one attributed transition row between the header rule and
    # the total: an empty breakdown renders only header + total.
    rows=$(echo "$out" | grep -c '%$' || true)
    if [ "$rows" -eq 0 ]; then
        echo "profile_smoke: $scenario breakdown is empty" >&2
        exit 1
    fi
done

echo "profile_smoke: all hypervisor kinds profiled, breakdowns non-empty"
