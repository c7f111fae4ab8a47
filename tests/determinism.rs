//! Determinism and robustness: identical runs produce identical cycle
//! counts and traces, and arbitrary operation interleavings never
//! corrupt guest state.

use hvx::core::{Hypervisor, KvmArm, KvmX86, Native, VirqPolicy, XenArm, XenX86};
use hvx::engine::Cycles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type HvBuilder = fn() -> Box<dyn Hypervisor>;

fn builders() -> Vec<(&'static str, HvBuilder)> {
    vec![
        ("kvm-arm", || Box::new(KvmArm::new())),
        ("kvm-arm-vhe", || Box::new(KvmArm::new_vhe())),
        ("xen-arm", || Box::new(XenArm::new())),
        ("kvm-x86", || Box::new(KvmX86::new())),
        ("xen-x86", || Box::new(XenX86::new())),
        ("native", || Box::new(Native::new())),
    ]
}

/// Drives a pseudo-random but seeded sequence of operations and records
/// every result.
fn drive(hv: &mut dyn Hypervisor, seed: u64, ops: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut results = Vec::new();
    for _ in 0..ops {
        let vcpu = rng.gen_range(0..hv.num_vcpus());
        let r = match rng.gen_range(0..10) {
            0 => hv.hypercall(vcpu),
            1 => hv.gicd_trap(vcpu),
            2 => {
                let to = (vcpu + 1) % hv.num_vcpus();
                hv.virtual_ipi(vcpu, to)
            }
            3 => hv.virq_complete(vcpu),
            4 => hv.vm_switch(),
            5 => hv.io_latency_out(vcpu),
            6 => hv.io_latency_in(vcpu),
            7 => hv.transmit(vcpu, rng.gen_range(1..1400)),
            8 => hv.receive(rng.gen_range(1..1400), Cycles::ZERO).0,
            _ => hv.deliver_virq(vcpu),
        };
        results.push(r.as_u64());
    }
    results
}

#[test]
fn identical_runs_are_bit_identical() {
    for (name, build) in builders() {
        let a = drive(build().as_mut(), 42, 60);
        let b = drive(build().as_mut(), 42, 60);
        assert_eq!(a, b, "{name} diverged between identical runs");
    }
}

#[test]
fn different_seeds_still_terminate_and_stay_sane() {
    for (name, build) in builders() {
        for seed in [1u64, 7, 99, 12345] {
            let results = drive(build().as_mut(), seed, 40);
            assert_eq!(results.len(), 40, "{name}");
            // No operation is absurdly long (a runaway loop would show
            // up as an enormous cycle count).
            for r in &results {
                assert!(*r < 50_000_000, "{name}: operation took {r} cycles");
            }
        }
    }
}

#[test]
fn microbenchmarks_are_stable_after_arbitrary_history() {
    // After any operation soup, the canonical microbenchmarks still
    // produce their calibrated values — state never leaks into timing.
    for seed in [3u64, 77] {
        let mut kvm = KvmArm::new();
        drive(&mut kvm, seed, 50);
        kvm.machine_mut().barrier();
        assert_eq!(kvm.hypercall(0), Cycles::new(6_500), "seed {seed}");
        let mut xen = XenArm::new();
        drive(&mut xen, seed, 50);
        xen.machine_mut().barrier();
        assert_eq!(xen.hypercall(0), Cycles::new(376), "seed {seed}");
        let mut kx = KvmX86::new();
        drive(&mut kx, seed, 50);
        kx.machine_mut().barrier();
        assert_eq!(kx.hypercall(0), Cycles::new(1_300), "seed {seed}");
        let mut xx = XenX86::new();
        drive(&mut xx, seed, 50);
        xx.machine_mut().barrier();
        assert_eq!(xx.hypercall(0), Cycles::new(1_228), "seed {seed}");
    }
}

#[test]
fn virq_policy_changes_are_safe_mid_run() {
    for (name, build) in builders() {
        let mut hv = build();
        drive(hv.as_mut(), 5, 20);
        hv.set_virq_policy(VirqPolicy::RoundRobin);
        drive(hv.as_mut(), 6, 20);
        hv.set_virq_policy(VirqPolicy::Vcpu0);
        let (_, v) = hv.receive(64, Cycles::ZERO);
        assert_eq!(v, 0, "{name}: Vcpu0 policy re-applies");
    }
}

#[test]
fn traces_replay_identically() {
    let run = || {
        let mut kvm = KvmArm::new();
        kvm.machine_mut().enable_event_tracing(None);
        kvm.hypercall(0);
        kvm.virtual_ipi(0, 2);
        kvm.io_latency_in(1);
        kvm.machine().event_tracer().unwrap().labels().join(",")
    };
    assert_eq!(run(), run());
}

#[test]
fn clocks_are_monotonic_across_all_operations() {
    for (name, build) in builders() {
        let mut hv = build();
        let mut rng = StdRng::seed_from_u64(11);
        let mut last_global = Cycles::ZERO;
        for _ in 0..40 {
            let vcpu = rng.gen_range(0..hv.num_vcpus());
            match rng.gen_range(0..4) {
                0 => {
                    hv.hypercall(vcpu);
                }
                1 => {
                    hv.transmit(vcpu, 100);
                }
                2 => {
                    hv.receive(100, Cycles::ZERO);
                }
                _ => {
                    hv.deliver_virq(vcpu);
                }
            }
            let now = hv.machine().global_now();
            assert!(now >= last_global, "{name}: global clock went backwards");
            last_global = now;
        }
    }
}
