//! Scenario profiling: Table-3-style cycle attribution from live
//! instrumentation.
//!
//! Where [`crate::table3`] regenerates the paper's hypercall breakdown
//! from the event tracer's slices of one hypercall, this module profiles
//! whole *workload runs*: it builds a paper-shape [`ScenarioSpec`] with
//! [`SimBuilder::profiling`] enabled, runs the workload's operation mix,
//! and reads the span tracer back — so the breakdown is produced by the
//! observability layer itself, not by summing cost constants. The
//! spec's fault plan, watchdog and vIRQ policy reach the machine through
//! the builder, so a faulted spec shows its recovery cycles as
//! attributed spans. Every report is conservation-checked: the
//! per-transition exclusive cycles plus the unattributed remainder must
//! equal the machine's total busy cycles, or [`Error::Conservation`] is
//! returned.
//!
//! ```
//! let spec = hvx_suite::spec_run::paper_spec("netperf-kvm-arm").unwrap();
//! let report = hvx_suite::profile::run_profile(&spec).unwrap();
//! assert_eq!(report.snapshot.accounted_cycles(), report.snapshot.total_cycles);
//! ```
//!
//! [`SimBuilder::profiling`]: hvx_core::SimBuilder::profiling

use crate::{runner, spec_run};
use hvx_core::{Error, HvKind, ScenarioSpec, Workload};
use hvx_engine::{ProfileSnapshot, TransitionId};
use serde::Serialize;

/// The default profile set: the paper's canonical netperf workload on
/// all four measured configurations, in Table II column order.
pub fn default_set() -> Vec<ScenarioSpec> {
    HvKind::MEASURED
        .into_iter()
        .map(|kind| ScenarioSpec::paper(kind).with_workload(Workload::Netperf))
        .collect()
}

/// The profile of one scenario run: the conservation-checked span
/// breakdown plus sampled metrics, ready to render or serialize.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// The scenario's `<workload>-<hypervisor>` name.
    pub scenario: String,
    /// The configuration profiled.
    pub kind: HvKind,
    /// The workload run.
    pub workload: Workload,
    /// The run's makespan in cycles (wall time of the simulated run).
    pub makespan_cycles: u64,
    /// The exported breakdown; `snapshot.total_cycles` is the summed
    /// busy time of every core.
    pub snapshot: ProfileSnapshot,
    /// Folded-stack flamegraph text (`flamegraph.pl`-compatible).
    pub folded: String,
}

/// Runs one paper-shape spec under profiling and returns its report.
///
/// # Errors
///
/// [`Error::InvalidSpec`] for a spec of any other shape;
/// [`Error::UnknownWorkload`] and other build/run errors from the
/// simulation; [`Error::Conservation`] if the span breakdown fails to
/// account for every busy cycle (an instrumentation bug, not a user
/// error — surfaced rather than silently mis-reported).
pub fn run_profile(spec: &ScenarioSpec) -> Result<ProfileReport, Error> {
    let (mut sim, makespan) = spec_run::run_paper_sim(spec, |b| b.profiling(true))?;
    sim.sample_metrics();

    let machine = sim.machine();
    let spans = machine
        .spans()
        .expect("profiling was enabled by the builder");
    let exclusive_sum: u64 = TransitionId::ALL
        .into_iter()
        .map(|id| spans.exclusive(id))
        .sum();
    let attributed = exclusive_sum + spans.unattributed();
    let total = machine.total_busy().as_u64();
    if attributed != spans.total() || spans.total() != total {
        return Err(Error::Conservation { attributed, total });
    }

    let metrics = machine
        .metrics()
        .expect("profiling was enabled by the builder");
    let name = spec_run::paper_name(spec);
    Ok(ProfileReport {
        folded: spans.folded(&name),
        scenario: name,
        kind: spec.hypervisor,
        workload: spec.workload.unwrap_or(Workload::Netperf),
        makespan_cycles: makespan.as_u64(),
        snapshot: ProfileSnapshot::capture(spans, metrics),
    })
}

/// Profiles every spec on up to `jobs` workers of the runner's pool,
/// returning reports **in spec order**. Each spec is independently
/// deterministic and lands in a slot indexed by its position, so the
/// result — and any rendering of it — is byte-identical regardless of
/// `jobs`.
///
/// # Errors
///
/// [`Error::InvalidJobs`] for `jobs == 0`; otherwise the first spec
/// error in spec order, if any.
pub fn run_profiles(specs: &[ScenarioSpec], jobs: usize) -> Result<Vec<ProfileReport>, Error> {
    if jobs == 0 {
        return Err(Error::InvalidJobs { jobs });
    }
    if jobs == 1 || specs.len() <= 1 {
        return specs.iter().map(run_profile).collect();
    }
    runner::fan_out(specs, jobs, |_| 1, run_profile)
        .into_iter()
        .map(|slot| slot.expect("every scheduled profile ran"))
        .collect()
}

impl ProfileReport {
    /// Renders the Table-3-style breakdown: one row per transition that
    /// saw cycles, heaviest exclusive share first, with the
    /// conservation line at the bottom.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Profile: {} ({}, {}) ==\n\n",
            self.scenario, self.kind, self.workload
        ));
        out.push_str(&format!(
            "{:<24}{:>10}{:>16}{:>16}{:>9}\n",
            "Transition", "Count", "Excl cycles", "Incl cycles", "Share"
        ));
        let width = 24 + 10 + 16 + 16 + 9;
        out.push_str(&"-".repeat(width));
        out.push('\n');
        let mut rows: Vec<_> = self
            .snapshot
            .spans
            .iter()
            .filter(|r| r.count > 0 || r.exclusive_cycles > 0)
            .collect();
        rows.sort_by(|a, b| {
            b.exclusive_cycles
                .cmp(&a.exclusive_cycles)
                .then_with(|| a.transition.cmp(b.transition))
        });
        for r in rows {
            out.push_str(&format!(
                "{:<24}{:>10}{:>16}{:>16}{:>8.2}%\n",
                r.transition, r.count, r.exclusive_cycles, r.inclusive_cycles, r.share_pct
            ));
        }
        if self.snapshot.unattributed_cycles > 0 {
            out.push_str(&format!(
                "{:<24}{:>10}{:>16}\n",
                "(unattributed)", "", self.snapshot.unattributed_cycles
            ));
        }
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!(
            "{:<24}{:>10}{:>16}  = total busy cycles (conservation exact)\n",
            "total", "", self.snapshot.total_cycles
        ));
        if !self.snapshot.counters.is_empty() {
            out.push('\n');
            for c in &self.snapshot.counters {
                out.push_str(&format!("{:<32}{:>16}\n", c.name, c.value));
            }
        }
        if !self.snapshot.histograms.is_empty() {
            out.push('\n');
            out.push_str(&hvx_obs::render_histogram_summary(
                &self.snapshot.histograms,
            ));
        }
        out
    }
}

/// Renders a batch of reports as `hvx-repro profile` prints them.
pub fn render_profiles(reports: &[ProfileReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_engine::{FaultPlan, FaultPoint};

    #[test]
    fn default_set_is_the_measured_columns() {
        let names: Vec<String> = default_set().iter().map(spec_run::paper_name).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(names[0], "netperf-kvm-arm");
        assert_eq!(names[3], "netperf-xen-x86");
    }

    #[test]
    fn profile_is_conservation_clean_and_non_empty() {
        for spec in default_set() {
            let r = run_profile(&spec).unwrap();
            assert_eq!(
                r.snapshot.accounted_cycles(),
                r.snapshot.total_cycles,
                "{} leaks cycles",
                r.scenario
            );
            assert!(r.snapshot.total_cycles > 0, "{} did no work", r.scenario);
            let attributed: u64 = r.snapshot.spans.iter().map(|s| s.exclusive_cycles).sum();
            assert!(attributed > 0, "{} attributed nothing", r.scenario);
            assert!(!r.folded.is_empty());
            let rendered = r.render();
            assert!(rendered.contains("conservation exact"));
        }
    }

    #[test]
    fn zero_jobs_is_an_error_not_a_panic() {
        assert!(matches!(
            run_profiles(&default_set(), 0),
            Err(Error::InvalidJobs { jobs: 0 })
        ));
    }

    #[test]
    fn non_paper_specs_are_rejected() {
        let spec = ScenarioSpec::consolidation(HvKind::KvmArm, 4, hvx_core::SchedPolicy::Credit);
        assert!(matches!(run_profile(&spec), Err(Error::InvalidSpec { .. })));
    }

    #[test]
    fn parallel_profiles_match_serial_byte_for_byte() {
        let set = default_set();
        let serial = run_profiles(&set, 1).unwrap();
        let parallel = run_profiles(&set, 4).unwrap();
        assert_eq!(render_profiles(&serial), render_profiles(&parallel));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.folded, p.folded, "{} folded diverged", s.scenario);
        }
    }

    #[test]
    fn fault_plan_shows_recovery_spans_and_conserves() {
        let plan = FaultPlan::new(11)
            .with_rate(FaultPoint::WireDrop, 0.2)
            .with_rate(FaultPoint::GrantCopyFail, 0.2);
        let mut set = default_set();
        for spec in &mut set {
            spec.set_fault_plan(&plan);
        }
        let reports = run_profiles(&set, 2).unwrap();
        for r in &reports {
            // The conservation check inside run_profile already passed;
            // double-check through the snapshot arithmetic.
            assert_eq!(r.snapshot.accounted_cycles(), r.snapshot.total_cycles);
        }
        let any_retransmit = reports.iter().any(|r| {
            r.snapshot
                .spans
                .iter()
                .any(|s| s.transition == "tcp_retransmit" && s.exclusive_cycles > 0)
        });
        assert!(any_retransmit, "wire loss must surface as retransmit spans");
        let xen = &reports[1];
        assert!(
            xen.snapshot
                .spans
                .iter()
                .any(|s| s.transition == "grant_retry" && s.exclusive_cycles > 0),
            "grant-copy failures must surface as retry spans on Xen"
        );
        // Fault counters folded into the metrics registry.
        assert!(reports.iter().any(|r| r
            .snapshot
            .counters
            .iter()
            .any(|c| c.name.starts_with("fault."))));
    }
}
