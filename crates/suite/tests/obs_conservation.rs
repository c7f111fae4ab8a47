//! The observability layer's hard guarantees, checked end to end:
//!
//! * **Conservation** — for every Figure 4 cell (nine workloads × the
//!   four measured configurations), the per-transition exclusive cycles
//!   plus the unattributed remainder equal the run's total busy cycles
//!   *exactly*. Instrumentation attributes cycles; it never creates or
//!   loses them.
//! * **Determinism** — profiling a scenario set with one worker thread
//!   or eight produces byte-identical reports, folded stacks included.
//! * **Stability** — the folded-stack export of a pinned microbenchmark
//!   (the Table II KVM ARM hypercall) is an exact snapshot: the span
//!   structure of the world switch is part of the public surface.

use hvx_core::{HvKind, ScenarioSpec, SimBuilder, Workload};
use hvx_suite::profile;

/// Every Figure 4 cell profiles conservation-exact with a non-empty
/// breakdown. This is the paper's Table 3 methodology — attribute every
/// cycle of a run to a transition — applied to the whole matrix.
#[test]
fn every_fig4_cell_is_conservation_exact() {
    for workload in Workload::ALL {
        for kind in HvKind::MEASURED {
            let spec = ScenarioSpec::paper(kind).with_workload(workload);
            let r =
                profile::run_profile(&spec).unwrap_or_else(|e| panic!("{workload}/{kind}: {e}"));
            assert_eq!(
                r.snapshot.accounted_cycles(),
                r.snapshot.total_cycles,
                "{} leaks cycles",
                r.scenario
            );
            assert!(r.snapshot.total_cycles > 0, "{} did no work", r.scenario);
            let attributed: u64 = r.snapshot.spans.iter().map(|s| s.exclusive_cycles).sum();
            assert!(
                attributed * 2 > r.snapshot.total_cycles,
                "{}: majority of cycles should be span-attributed, got {attributed} of {}",
                r.scenario,
                r.snapshot.total_cycles
            );
        }
    }
}

/// Profiling a cross-platform scenario set with `--jobs 1` and
/// `--jobs 8` is byte-identical: metrics registries and span tracers
/// merge deterministically into per-slot results read back in order.
#[test]
fn profile_reports_are_identical_across_job_counts() {
    let mut set = profile::default_set();
    set.push(ScenarioSpec::paper(HvKind::XenArm).with_workload(Workload::Mysql));
    set.push(ScenarioSpec::paper(HvKind::KvmArm).with_workload(Workload::Hackbench));
    let serial = profile::run_profiles(&set, 1).unwrap();
    let parallel = profile::run_profiles(&set, 8).unwrap();
    assert_eq!(
        profile::render_profiles(&serial),
        profile::render_profiles(&parallel)
    );
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.folded, p.folded, "{} folded diverged", s.scenario);
        assert_eq!(
            serde_json::to_string(&s.snapshot).unwrap(),
            serde_json::to_string(&p.snapshot).unwrap(),
            "{} snapshot diverged",
            s.scenario
        );
    }
}

/// The folded-stack export of one KVM ARM hypercall, pinned verbatim.
/// The lines sum to the pinned 6,500-cycle Table II hypercall cost and
/// show the §IV structure: VGIC save dominating inside the context
/// save, exactly as Table III reports. Sibling order is the exporter's
/// deterministic (subtree cycles desc, name asc) — save's 4,202-cycle
/// subtree leads, then restore, dispatch, virt_toggle, trap, eret.
#[test]
fn hypercall_folded_stack_snapshot() {
    let mut sim = SimBuilder::new(HvKind::KvmArm)
        .profiling(true)
        .build()
        .unwrap();
    let cost = sim.hypercall(0);
    assert_eq!(cost.as_u64(), 6_500);
    let folded = sim.machine().spans().unwrap().folded("hypercall");
    let expected = "\
hypercall;context_save 952
hypercall;context_save;vgic_lr_save 3250
hypercall;context_restore 1325
hypercall;context_restore;vgic_lr_restore 181
hypercall;host_dispatch 340
hypercall;virt_toggle 172
hypercall;trap_to_el2 152
hypercall;eret 128
";
    assert_eq!(folded, expected);
    let total: u64 = folded
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    // Folded lines are per-stack *exclusive* cycles: they sum to the
    // hypercall cost with no double counting of nested spans.
    assert_eq!(total, 6_500);
}
