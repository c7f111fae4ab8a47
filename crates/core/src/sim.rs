//! The unified public entry point: [`SimBuilder`] → [`Sim`].
//!
//! Every consumer of the workspace — the artifact runner, the examples,
//! external callers of the `hvx` facade — previously assembled hypervisor
//! models through per-model constructors and ad-hoc machine fiddling.
//! [`SimBuilder`] is the single documented way in: pick a configuration,
//! set the knobs the paper's experimental design exposes (VCPU count,
//! event tracing, cycle-attribution profiling, virtual-interrupt policy,
//! cost model), and [`SimBuilder::build`] validates the combination and
//! returns a ready [`Sim`].

use crate::spec::{ScenarioSpec, TopologySpec};
use crate::{
    CostModel, Error, HvKind, Hypervisor, KvmArm, KvmX86, Native, Platform, VirqPolicy, XenArm,
    XenX86,
};
use core::fmt;
use hvx_engine::{FaultPlan, Watchdog};

/// The number of VCPUs of the paper's measured VM configuration (§III:
/// "we configured both hypervisors with 4-way SMP virtual machines").
pub const PAPER_VCPUS: usize = 4;

/// A named Figure 4 workload, selectable on a [`SimBuilder`].
///
/// These are identities, not mixes: the operation mixes (and the code
/// that runs them) live in `hvx-suite`, which maps each variant to its
/// calibrated catalog entry. [`Workload::Netperf`] is an alias for the
/// paper's canonical netperf TCP_RR latency workload (Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Workload {
    /// Linux kernel compilation (CPU-bound).
    Kernbench,
    /// Scheduler/IPC stress over Unix domain sockets.
    Hackbench,
    /// Java runtime benchmark suite (CPU-bound).
    SpecJvm2008,
    /// netperf TCP_RR — the paper's canonical latency workload.
    Netperf,
    /// netperf TCP_RR (explicit name).
    TcpRr,
    /// netperf TCP_STREAM — bulk receive.
    TcpStream,
    /// netperf TCP_MAERTS — bulk transmit.
    TcpMaerts,
    /// Apache serving concurrent ApacheBench requests.
    Apache,
    /// memcached driven by memtier.
    Memcached,
    /// MySQL running SysBench transactions.
    Mysql,
}

impl Workload {
    /// Every distinct workload, in Figure 4 order (the `Netperf` alias is
    /// omitted — it names the same workload as [`Workload::TcpRr`]).
    pub const ALL: [Workload; 9] = [
        Workload::Kernbench,
        Workload::Hackbench,
        Workload::SpecJvm2008,
        Workload::TcpRr,
        Workload::TcpStream,
        Workload::TcpMaerts,
        Workload::Apache,
        Workload::Memcached,
        Workload::Mysql,
    ];

    /// The workload's name in the Figure 4 catalog.
    pub fn catalog_name(self) -> &'static str {
        match self {
            Workload::Kernbench => "Kernbench",
            Workload::Hackbench => "Hackbench",
            Workload::SpecJvm2008 => "SPECjvm2008",
            Workload::Netperf | Workload::TcpRr => "TCP_RR",
            Workload::TcpStream => "TCP_STREAM",
            Workload::TcpMaerts => "TCP_MAERTS",
            Workload::Apache => "Apache",
            Workload::Memcached => "Memcached",
            Workload::Mysql => "MySQL",
        }
    }

    /// Every workload with its CLI slug, in declaration order (the
    /// `netperf` alias included).
    pub const SLUGS: [(Workload, &'static str); 10] = [
        (Workload::Kernbench, "kernbench"),
        (Workload::Hackbench, "hackbench"),
        (Workload::SpecJvm2008, "specjvm2008"),
        (Workload::Netperf, "netperf"),
        (Workload::TcpRr, "tcp_rr"),
        (Workload::TcpStream, "tcp_stream"),
        (Workload::TcpMaerts, "tcp_maerts"),
        (Workload::Apache, "apache"),
        (Workload::Memcached, "memcached"),
        (Workload::Mysql, "mysql"),
    ];

    /// The workload's CLI slug (`netperf`, `tcp_rr`, ...).
    pub fn slug(self) -> &'static str {
        Workload::SLUGS
            .into_iter()
            .find_map(|(w, slug)| (w == self).then_some(slug))
            .expect("every workload has a slug")
    }

    /// Parses a workload name: its slug, case-insensitive, or one of
    /// the aliases `specjvm` and `tcp-rr`/`tcp-stream`/`tcp-maerts`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`] when the name matches nothing.
    pub fn parse(name: &str) -> Result<Workload, Error> {
        let lower = name.to_ascii_lowercase().replace('-', "_");
        let slug = if lower == "specjvm" {
            "specjvm2008"
        } else {
            &lower
        };
        Workload::SLUGS
            .into_iter()
            .find_map(|(w, s)| (s == slug).then_some(w))
            .ok_or_else(|| Error::UnknownWorkload { name: name.into() })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.catalog_name())
    }
}

/// Fluent builder for a configured simulation.
///
/// # Examples
///
/// The canonical entry point of the workspace:
///
/// ```
/// use hvx_core::{HvKind, SimBuilder, Workload};
///
/// let mut sim = SimBuilder::new(HvKind::KvmArm)
///     .cpus(4)
///     .workload(Workload::Netperf)
///     .event_tracing(true)
///     .build()
///     .expect("paper configuration is valid");
/// // Table II, row 1: a KVM ARM hypercall costs 6,500 cycles.
/// assert_eq!(sim.hypercall(0).as_u64(), 6_500);
/// // Its register-class breakdown is in the tracer's slices.
/// let trace = sim.machine().event_tracer().unwrap();
/// assert_eq!(trace.total_by_label("save:vgic"), 3_250);
/// ```
///
/// Invalid combinations are rejected instead of panicking:
///
/// ```
/// use hvx_core::{Error, HvKind, SimBuilder};
///
/// let err = SimBuilder::new(HvKind::XenArm).cpus(2).build().unwrap_err();
/// assert!(matches!(err, Error::InvalidCpus { requested: 2, .. }));
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct SimBuilder {
    /// The single source of scenario identity: everything the fluent
    /// methods below set lands here, and [`SimBuilder::build`] reads
    /// only from it (plus the observability knobs, which are not part
    /// of a scenario's identity).
    spec: ScenarioSpec,
    profiling: bool,
    cost: Option<CostModel>,
    event_tracing: bool,
    event_ring: Option<usize>,
}

impl SimBuilder {
    /// Starts a builder for `kind` with the paper's defaults: 4 VCPUs,
    /// event tracing and profiling off, interrupts to VCPU0.
    pub fn new(kind: HvKind) -> SimBuilder {
        SimBuilder::from_spec(ScenarioSpec::paper(kind))
    }

    /// Starts a builder from an explicit [`ScenarioSpec`] (e.g. one
    /// deserialized from a `--spec` file). Observability knobs
    /// (profiling, event tracing) and cost overrides are not part of a
    /// spec and start at their defaults.
    pub fn from_spec(spec: ScenarioSpec) -> SimBuilder {
        SimBuilder {
            spec,
            profiling: false,
            cost: None,
            event_tracing: false,
            event_ring: None,
        }
    }

    /// The scenario spec this builder has accumulated so far —
    /// serialize it to get the `--spec` file equivalent to this
    /// builder chain.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// Requests `cpus` VCPUs. The models implement exactly the paper's
    /// pinned [`PAPER_VCPUS`]-way SMP configuration; any other value is
    /// rejected by [`SimBuilder::build`].
    pub fn cpus(mut self, cpus: usize) -> SimBuilder {
        let n = u32::try_from(cpus).unwrap_or(u32::MAX);
        self.spec.topology = TopologySpec {
            hosts: 1,
            pcpus: n,
            vms: 1,
            vcpus_per_vm: n,
        };
        self
    }

    /// Names the workload this simulation is being built for. Purely an
    /// annotation on the [`Sim`] — the suite's workload engine reads it
    /// back via [`Sim::workload`] to pick the operation mix.
    pub fn workload(mut self, workload: Workload) -> SimBuilder {
        self.spec.workload = Some(workload);
        self
    }

    /// Enables span-based cycle attribution and the metrics registry
    /// ([`hvx_engine::Machine::enable_profiling`]). Off by default: the
    /// paper's pinned cycle counts are identical either way, profiling
    /// only adds attribution.
    pub fn profiling(mut self, on: bool) -> SimBuilder {
        self.profiling = on;
        self
    }

    /// Sets the virtual-interrupt distribution policy (the §V ablation).
    pub fn virq_policy(mut self, policy: VirqPolicy) -> SimBuilder {
        self.spec.virq_policy = policy;
        self
    }

    /// Sets the watchdog limits the built machine enforces on every
    /// charge. [`Watchdog::UNLIMITED`] (the default) leaves the machine
    /// byte-identical to one built without this call.
    pub fn watchdog(mut self, watchdog: Watchdog) -> SimBuilder {
        self.spec.watchdog = watchdog;
        self
    }

    /// Overrides the calibrated cost model (ablations, what-if studies).
    /// Ignored by the x86 models, which carry their own platform
    /// calibration, and by [`HvKind::KvmArmVhe`]'s VHE flag.
    pub fn cost_model(mut self, cost: CostModel) -> SimBuilder {
        self.cost = Some(cost);
        self
    }

    /// Enables causal event tracing
    /// ([`hvx_engine::Machine::enable_event_tracing`]): timestamped
    /// slices on per-core tracks plus cross-machine flow chains,
    /// exportable as Chrome trace-event JSON. Off by default — when
    /// off, the built machine is byte-identical to one without this
    /// call.
    pub fn event_tracing(mut self, on: bool) -> SimBuilder {
        self.event_tracing = on;
        self
    }

    /// Bounds the event tracer to a ring of `slots` retained slices and
    /// flow points (oldest overwritten first). Implies
    /// [`SimBuilder::event_tracing`]`(true)`.
    pub fn event_ring(mut self, slots: usize) -> SimBuilder {
        self.event_tracing = true;
        self.event_ring = Some(slots);
        self
    }

    /// Installs a deterministic fault plan
    /// ([`hvx_engine::fault`]) on the built machine. An empty plan is
    /// equivalent to not calling this: the machine keeps no fault
    /// state and the simulation is byte-identical to the fault-free
    /// default.
    pub fn fault_plan(mut self, plan: FaultPlan) -> SimBuilder {
        self.spec.set_fault_plan(&plan);
        self
    }

    /// Validates the configuration and constructs the simulation.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidCpus`] if the VCPU count is not [`PAPER_VCPUS`]
    /// (consolidation topologies are run by `hvx-suite`'s consolidation
    /// module, not through `build`).
    pub fn build(self) -> Result<Sim, Error> {
        if self.spec.topology != TopologySpec::paper() {
            return Err(Error::InvalidCpus {
                requested: self.spec.topology.vcpus_per_vm as usize,
                supported: PAPER_VCPUS,
            });
        }
        let fault_plan = self.spec.fault_plan()?;
        // Drift drill: `HVX_COST_PERTURB` mutates the *effective*
        // charging constants without touching the pinned `CostModel`
        // consts that scenario fingerprints hash — the exact condition
        // the baseline gate must classify as drift. The x86 models
        // ignore cost overrides, so perturbation reaches the ARM and
        // native paths (all Figure 4 columns the gate profiles).
        let kind = self.spec.hypervisor;
        let cost = match std::env::var("HVX_COST_PERTURB") {
            Ok(spec) if !spec.trim().is_empty() => {
                let mut c = self.cost.unwrap_or_else(|| match kind.platform() {
                    Platform::X86 => CostModel::x86(),
                    _ => CostModel::arm(),
                });
                c.apply_perturbation(&spec)
                    .map_err(|detail| Error::Perturbation { detail })?;
                Some(c)
            }
            _ => self.cost,
        };
        let mut hv: Box<dyn Hypervisor> = match (kind, cost) {
            (HvKind::KvmArm, Some(c)) => Box::new(KvmArm::with_cost(c, false)),
            (HvKind::KvmArm, None) => Box::new(KvmArm::new()),
            (HvKind::KvmArmVhe, Some(c)) => Box::new(KvmArm::with_cost(c, true)),
            (HvKind::KvmArmVhe, None) => Box::new(KvmArm::new_vhe()),
            (HvKind::XenArm, Some(c)) => Box::new(XenArm::with_cost(c)),
            (HvKind::XenArm, None) => Box::new(XenArm::new()),
            (HvKind::KvmX86, _) => Box::new(KvmX86::new()),
            (HvKind::XenX86, _) => Box::new(XenX86::new()),
            (HvKind::Native, Some(c)) => Box::new(Native::with_cost(c)),
            (HvKind::Native, None) => Box::new(Native::new()),
        };
        let machine = hv.machine_mut();
        if self.profiling {
            machine.enable_profiling();
        }
        if self.event_tracing {
            machine.enable_event_tracing(self.event_ring);
        }
        if let Some(plan) = fault_plan {
            machine.set_fault_plan(plan);
        }
        if self.spec.watchdog != Watchdog::UNLIMITED {
            machine.set_watchdog(self.spec.watchdog);
        }
        hv.set_virq_policy(self.spec.virq_policy);
        Ok(Sim {
            hv,
            workload: self.spec.workload,
        })
    }
}

/// A configured, ready-to-run simulation.
///
/// Derefs to [`Hypervisor`], so every microbenchmark and workload
/// primitive is available directly (see the [`SimBuilder`] example).
pub struct Sim {
    hv: Box<dyn Hypervisor>,
    workload: Option<Workload>,
}

impl Sim {
    /// The workload this simulation was built for, if one was named.
    pub fn workload(&self) -> Option<Workload> {
        self.workload
    }

    /// Unwraps the underlying hypervisor model.
    pub fn into_inner(self) -> Box<dyn Hypervisor> {
        self.hv
    }

    /// Borrows the underlying hypervisor as a trait object (for APIs
    /// taking `&mut dyn Hypervisor`).
    pub fn as_dyn_mut(&mut self) -> &mut dyn Hypervisor {
        self.hv.as_mut()
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("kind", &self.hv.kind())
            .field("workload", &self.workload)
            .finish_non_exhaustive()
    }
}

impl core::ops::Deref for Sim {
    type Target = dyn Hypervisor;
    fn deref(&self) -> &Self::Target {
        self.hv.as_ref()
    }
}

impl core::ops::DerefMut for Sim {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.hv.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_builds_every_kind() {
        for kind in HvKind::ALL {
            let sim = SimBuilder::new(kind).build().expect("default is valid");
            assert_eq!(sim.kind(), kind);
            assert_eq!(sim.num_vcpus(), PAPER_VCPUS);
        }
    }

    #[test]
    fn invalid_cpu_count_is_rejected_not_panicked() {
        for n in [0, 1, 3, 5, 64] {
            let err = SimBuilder::new(HvKind::KvmArm).cpus(n).build().unwrap_err();
            assert!(
                matches!(err, Error::InvalidCpus { requested, supported: 4 } if requested == n)
            );
        }
        assert!(SimBuilder::new(HvKind::KvmArm).cpus(4).build().is_ok());
    }

    #[test]
    fn builder_knobs_reach_the_machine() {
        let sim = SimBuilder::new(HvKind::KvmArm)
            .event_tracing(true)
            .profiling(true)
            .build()
            .unwrap();
        assert!(sim.machine().event_tracing());
        assert!(sim.machine().profiling());

        let sim = SimBuilder::new(HvKind::XenArm).build().unwrap();
        assert!(!sim.machine().event_tracing());
        assert!(!sim.machine().profiling());
    }

    #[test]
    fn pinned_table2_costs_survive_the_builder() {
        let mut kvm = SimBuilder::new(HvKind::KvmArm).build().unwrap();
        let mut xen = SimBuilder::new(HvKind::XenArm).build().unwrap();
        assert_eq!(kvm.hypercall(0).as_u64(), 6_500);
        assert_eq!(xen.hypercall(0).as_u64(), 376);
        // Profiling must not change them (attribution, not cost).
        let mut kvm_p = SimBuilder::new(HvKind::KvmArm)
            .profiling(true)
            .build()
            .unwrap();
        assert_eq!(kvm_p.hypercall(0).as_u64(), 6_500);
    }

    #[test]
    fn fault_plan_knob_reaches_the_machine() {
        use hvx_engine::{FaultPlan, FaultPoint};
        let sim = SimBuilder::new(HvKind::KvmArm)
            .fault_plan(FaultPlan::new(7).with_rate(FaultPoint::WireDrop, 0.5))
            .build()
            .unwrap();
        assert!(sim.machine().faults_enabled());
        // Empty plan == no plan: the machine stays fault-free.
        let sim = SimBuilder::new(HvKind::KvmArm)
            .fault_plan(FaultPlan::new(7))
            .build()
            .unwrap();
        assert!(!sim.machine().faults_enabled());
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.catalog_name()).unwrap(), w);
        }
        for (w, slug) in Workload::SLUGS {
            assert_eq!(w.slug(), slug);
            assert_eq!(Workload::parse(slug).unwrap(), w);
        }
        assert_eq!(Workload::parse("tcp-rr").unwrap(), Workload::TcpRr);
        assert_eq!(Workload::parse("specjvm").unwrap(), Workload::SpecJvm2008);
        assert_eq!(
            Workload::Netperf.catalog_name(),
            Workload::TcpRr.catalog_name()
        );
        assert!(matches!(
            Workload::parse("doom"),
            Err(Error::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn sim_carries_its_workload_annotation() {
        let sim = SimBuilder::new(HvKind::Native)
            .workload(Workload::Mysql)
            .build()
            .unwrap();
        assert_eq!(sim.workload(), Some(Workload::Mysql));
        assert!(format!("{sim:?}").contains("Mysql"));
    }
}
