//! Output goldens for the single-cell instruments: FNV-128 hashes of
//! `hvx-repro profile` and `hvx-repro trace` output, captured before
//! both commands moved onto `ScenarioSpec`. The `--jobs` and
//! serial/parallel tests only compare the code with itself; these pin
//! the bytes, so a refactor that changes every byte still fails here.

use hvx_engine::{FaultPlan, FingerprintHasher};
use hvx_suite::{profile, spec_run, trace};

fn hash(text: &str) -> String {
    let mut h = FingerprintHasher::new();
    h.write_str(text);
    h.finish().to_hex()
}

/// `hvx-repro profile` (the default set).
#[test]
fn default_profile_render_is_pinned() {
    let reports = profile::run_profiles(&profile::default_set(), 1).unwrap();
    assert_eq!(
        hash(&profile::render_profiles(&reports)),
        "f48d5f3f04736dbe7133fa49d6734edf"
    );
}

/// `hvx-repro profile --scenario S --fault-plan
/// 'wire_drop=0.1,grant_copy_fail=0.05,virq_drop=0.02' --fault-seed 7`.
#[test]
fn faulted_profile_renders_are_pinned() {
    let plan = FaultPlan::parse("wire_drop=0.1,grant_copy_fail=0.05,virq_drop=0.02", 7).unwrap();
    for (name, golden) in [
        ("netperf-kvm-arm", "650fa21f2079454b2f67c3b7d2000710"),
        ("netperf-xen-arm", "f0b571bd41fd1781e269a2796c3c91ff"),
    ] {
        let mut spec = spec_run::paper_spec(name).unwrap();
        spec.set_fault_plan(&plan);
        let reports = profile::run_profiles(&[spec], 1).unwrap();
        assert_eq!(hash(&profile::render_profiles(&reports)), golden, "{name}");
    }
}

/// The JSON `hvx-repro trace tcp_rr --hypervisor kvm-arm` writes,
/// unbounded and with `--ring 64`.
#[test]
fn trace_json_is_pinned() {
    let spec = spec_run::paper_spec("tcp_rr-kvm-arm").unwrap();
    for (ring, golden) in [
        (None, "8d2843052fa2144b733451ca71ef8cfc"),
        (Some(64), "7d2dcb1180d4a6203d800b5d046e5a30"),
    ] {
        let report = trace::run_trace(&spec, ring).unwrap();
        assert_eq!(hash(&report.json), golden, "ring {ring:?}");
    }
}
