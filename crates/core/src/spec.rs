//! The typed scenario specification: one serializable value that names
//! everything a simulation run depends on.
//!
//! [`ScenarioSpec`] is the single source [`SimBuilder`] consumes — the
//! builder's fluent methods are thin wrappers that edit the spec it
//! carries. A spec round-trips losslessly through the serde data model
//! (and therefore JSON), so a scenario can be written to a file,
//! shipped, and re-run with `hvx-repro run --spec FILE`, byte-identical
//! to the equivalent builder-constructed run.
//!
//! Two topology shapes are currently meaningful (see
//! [`ScenarioSpec::shape`]):
//!
//! * **Paper** — the paper's pinned configuration: one VM, 4 vCPUs on 4
//!   dedicated pCPUs. Runs through [`SimBuilder`] and the Figure 4
//!   workload engine.
//! * **Consolidation** — 2 pCPUs shared by N two-vCPU VMs under a
//!   hypervisor vCPU scheduler (`hvx-suite`'s consolidation module);
//!   the vCPU:pCPU ratio is N:1.
//!
//! [`SimBuilder`]: crate::SimBuilder

use crate::sched::SchedPolicy;
use crate::{Error, HvKind, VirqPolicy, Workload, PAPER_VCPUS};
use hvx_engine::{FaultPlan, Watchdog};

/// Machine topology: how many guests there are and how they map onto
/// physical CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TopologySpec {
    /// Physical hosts (the models currently simulate exactly one
    /// server host; the netperf client is implicit).
    pub hosts: u32,
    /// Physical CPUs available to guests on the host.
    pub pcpus: u32,
    /// Virtual machines sharing those pCPUs.
    pub vms: u32,
    /// vCPUs per VM.
    pub vcpus_per_vm: u32,
}

impl TopologySpec {
    /// The paper's pinned shape: one 4-way SMP VM, one vCPU per pCPU.
    pub const fn paper() -> TopologySpec {
        TopologySpec {
            hosts: 1,
            pcpus: PAPER_VCPUS as u32,
            vms: 1,
            vcpus_per_vm: PAPER_VCPUS as u32,
        }
    }

    /// A consolidation shape: `vms` two-vCPU VMs sharing 2 pCPUs, i.e.
    /// a `vms`:1 vCPU:pCPU ratio.
    pub const fn consolidation(vms: u32) -> TopologySpec {
        TopologySpec {
            hosts: 1,
            pcpus: 2,
            vms,
            vcpus_per_vm: 2,
        }
    }

    /// A rack shape: `hosts` paper-style servers (8 pCPUs each), every
    /// host running `vms_per_host` single-vCPU VMs pinned to its guest
    /// cores, exchanging TCP_RR traffic over the rack interconnect.
    pub const fn rack(hosts: u32, vms_per_host: u32) -> TopologySpec {
        TopologySpec {
            hosts,
            pcpus: 8,
            vms: vms_per_host,
            vcpus_per_vm: 1,
        }
    }
}

/// A fault plan in its stable textual form (see
/// [`FaultPlan::parse`] / [`FaultPlan::to_spec`] — the round trip is
/// exact).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultSpec {
    /// `point=prob,point@occurrence,...` clauses.
    pub plan: String,
    /// The plan's deterministic seed.
    pub seed: u64,
}

/// The topology shape a validated spec resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecShape {
    /// The paper's pinned 1-VM / 4-vCPU configuration.
    Paper,
    /// N two-vCPU VMs on 2 shared pCPUs.
    Consolidation {
        /// The vCPU:pCPU ratio (= number of VMs).
        ratio: u32,
    },
    /// H multi-VM hosts exchanging TCP_RR traffic over the rack
    /// interconnect (the sharded multi-host engine).
    Rack {
        /// Physical hosts in the rack (2..=16).
        hosts: u32,
        /// Single-vCPU VMs pinned per host (1..=4).
        vms_per_host: u32,
    },
}

/// Everything a scenario run depends on, as one serializable value.
///
/// # Examples
///
/// ```
/// use hvx_core::{HvKind, ScenarioSpec, SimBuilder, Workload};
///
/// let spec = ScenarioSpec::paper(HvKind::KvmArm).with_workload(Workload::Netperf);
/// let sim = SimBuilder::from_spec(spec.clone()).build().unwrap();
/// assert_eq!(sim.workload(), Some(Workload::Netperf));
/// // The spec survives the serde data model unchanged.
/// let v = serde::Serialize::serialize(&spec);
/// let back: ScenarioSpec = serde::Deserialize::deserialize(&v).unwrap();
/// assert_eq!(back, spec);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Which hypervisor configuration runs the guests.
    pub hypervisor: HvKind,
    /// Guest/pCPU topology.
    pub topology: TopologySpec,
    /// The hypervisor vCPU scheduler (only consulted when vCPUs are
    /// oversubscribed; the paper shape runs 1:1 and never schedules).
    pub scheduler: SchedPolicy,
    /// The workload mix to run, if one is named.
    pub workload: Option<Workload>,
    /// How virtual device interrupts spread over vCPUs.
    pub virq_policy: VirqPolicy,
    /// Transaction count override for closed-loop workloads (the
    /// consolidation cells' TCP_RR length); `None` = scenario default.
    pub transactions: Option<u32>,
    /// Deterministic fault plan, if any.
    pub fault: Option<FaultSpec>,
    /// Watchdog limits enforced while the scenario runs, whatever its
    /// shape.
    pub watchdog: Watchdog,
}

impl ScenarioSpec {
    /// The paper's default spec for `kind`: pinned topology, credit
    /// scheduler (idle at 1:1), interrupts to vCPU0, no faults, no
    /// watchdog.
    pub fn paper(kind: HvKind) -> ScenarioSpec {
        ScenarioSpec {
            hypervisor: kind,
            topology: TopologySpec::paper(),
            scheduler: SchedPolicy::Credit,
            workload: None,
            virq_policy: VirqPolicy::Vcpu0,
            transactions: None,
            fault: None,
            watchdog: Watchdog::UNLIMITED,
        }
    }

    /// A consolidation-cell spec: `ratio` two-vCPU VMs per pCPU pair
    /// under `scheduler`.
    pub fn consolidation(kind: HvKind, ratio: u32, scheduler: SchedPolicy) -> ScenarioSpec {
        ScenarioSpec {
            topology: TopologySpec::consolidation(ratio),
            scheduler,
            ..ScenarioSpec::paper(kind)
        }
    }

    /// A rack spec: `hosts` paper-style servers each running
    /// `vms_per_host` single-vCPU VMs, every host under `kind`,
    /// serving TCP_RR traffic around the rack ring.
    pub fn rack(kind: HvKind, hosts: u32, vms_per_host: u32) -> ScenarioSpec {
        ScenarioSpec {
            topology: TopologySpec::rack(hosts, vms_per_host),
            ..ScenarioSpec::paper(kind)
        }
    }

    /// Sets the workload (builder-style).
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> ScenarioSpec {
        self.workload = Some(workload);
        self
    }

    /// Stores `plan` in its textual form (exact round trip; an empty
    /// plan clears the field).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.fault = if plan.is_empty() {
            None
        } else {
            Some(FaultSpec {
                plan: plan.to_spec(),
                seed: plan.seed(),
            })
        };
    }

    /// Parses the stored fault plan back into a [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] when the stored clause text does not
    /// parse (possible only for hand-written spec files).
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, Error> {
        self.fault
            .as_ref()
            .map(|f| {
                FaultPlan::parse(&f.plan, f.seed).map_err(|detail| Error::InvalidSpec {
                    detail: format!("fault plan: {detail}"),
                })
            })
            .transpose()
    }

    /// Validates the topology and classifies it.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSpec`] for topologies no model implements.
    pub fn shape(&self) -> Result<SpecShape, Error> {
        let t = self.topology;
        if t.hosts == 0 {
            return Err(Error::InvalidSpec {
                detail: "0 hosts requested; need at least 1".to_string(),
            });
        }
        if t.hosts > 1 {
            // Multi-host topologies run on the sharded rack engine:
            // paper-style 8-pCPU hosts, single-vCPU VMs pinned to the
            // guest cores.
            if (2..=16).contains(&t.hosts)
                && t.pcpus == 8
                && t.vcpus_per_vm == 1
                && (1..=4).contains(&t.vms)
            {
                return Ok(SpecShape::Rack {
                    hosts: t.hosts,
                    vms_per_host: t.vms,
                });
            }
            return Err(Error::InvalidSpec {
                detail: format!(
                    "unsupported multi-host topology {}h/{}p/{}vm/{}vcpu: expected a \
                     rack shape (2..=16 hosts, 8p, 1..=4 vm, 1vcpu per host)",
                    t.hosts, t.pcpus, t.vms, t.vcpus_per_vm
                ),
            });
        }
        if t == TopologySpec::paper() {
            return Ok(SpecShape::Paper);
        }
        if t.pcpus == 2 && t.vcpus_per_vm == 2 && (1..=64).contains(&t.vms) {
            return Ok(SpecShape::Consolidation { ratio: t.vms });
        }
        Err(Error::InvalidSpec {
            detail: format!(
                "unsupported topology {}p/{}vm/{}vcpu: expected the paper shape \
                 (4p/1vm/4vcpu) or a consolidation shape (2p/N vm/2vcpu, N <= 64)",
                t.pcpus, t.vms, t.vcpus_per_vm
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_engine::FaultPoint;

    #[test]
    fn shapes_classify_and_reject() {
        assert_eq!(
            ScenarioSpec::paper(HvKind::KvmArm).shape().unwrap(),
            SpecShape::Paper
        );
        assert_eq!(
            ScenarioSpec::consolidation(HvKind::XenArm, 8, SchedPolicy::Cfs)
                .shape()
                .unwrap(),
            SpecShape::Consolidation { ratio: 8 }
        );
        assert_eq!(
            ScenarioSpec::rack(HvKind::KvmArm, 8, 4).shape().unwrap(),
            SpecShape::Rack {
                hosts: 8,
                vms_per_host: 4
            }
        );
        let mut bad = ScenarioSpec::paper(HvKind::Native);
        bad.topology.vcpus_per_vm = 3;
        assert!(matches!(bad.shape(), Err(Error::InvalidSpec { .. })));
        // Multi-host only admits the rack shape: 2 hosts with the
        // paper's 4p/4vcpu layout is still rejected.
        bad.topology = TopologySpec::paper();
        bad.topology.hosts = 2;
        assert!(matches!(bad.shape(), Err(Error::InvalidSpec { .. })));
        // Rack bounds: 17 hosts and 0 hosts are out.
        let mut wide = ScenarioSpec::rack(HvKind::KvmArm, 17, 2);
        assert!(wide.shape().is_err());
        wide.topology.hosts = 16;
        assert!(wide.shape().is_ok());
        wide.topology.hosts = 0;
        assert!(wide.shape().is_err());
        let mut big = ScenarioSpec::consolidation(HvKind::KvmArm, 65, SchedPolicy::Credit);
        assert!(big.shape().is_err());
        big.topology.vms = 64;
        assert!(big.shape().is_ok());
    }

    #[test]
    fn fault_plan_round_trips_through_the_spec() {
        let plan = FaultPlan::new(42)
            .with_rate(FaultPoint::WireDrop, 0.05)
            .with_occurrence(FaultPoint::VirqDrop, 3);
        let mut spec = ScenarioSpec::paper(HvKind::KvmArm);
        spec.set_fault_plan(&plan);
        assert_eq!(spec.fault_plan().unwrap(), Some(plan));
        // Empty plans vanish instead of storing a no-op clause list.
        spec.set_fault_plan(&FaultPlan::new(7));
        assert_eq!(spec.fault, None);
        assert_eq!(spec.fault_plan().unwrap(), None);
    }

    #[test]
    fn spec_round_trips_through_the_serde_model() {
        let mut spec = ScenarioSpec::consolidation(HvKind::KvmX86, 16, SchedPolicy::Cfs);
        spec.workload = Some(Workload::TcpRr);
        spec.transactions = Some(96);
        spec.watchdog = Watchdog {
            cycle_budget: Some(1_000_000),
            livelock_threshold: None,
        };
        spec.set_fault_plan(&FaultPlan::new(5).with_rate(FaultPoint::NicStall, 0.01));
        let v = serde::Serialize::serialize(&spec);
        let back: ScenarioSpec = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn sched_policy_parses_its_own_names() {
        for p in SchedPolicy::ALL {
            assert_eq!(SchedPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(matches!(
            SchedPolicy::parse("o1"),
            Err(Error::UnknownScheduler { .. })
        ));
    }
}
