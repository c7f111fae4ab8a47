//! # hvx-core — hypervisor models over simulated hardware
//!
//! The primary-contribution crate of hvx, a mechanistic reproduction of
//! *"ARM Virtualization: Performance and Architectural Implications"*
//! (Dall et al., ISCA 2016). It assembles the substrates (`hvx-arch`,
//! `hvx-gic`, `hvx-mem`, `hvx-vio`) into the six configurations the
//! study compares:
//!
//! | Model | Design | Platform |
//! |---|---|---|
//! | [`KvmArm`] | Type 2, split-mode EL2/EL1 | ARMv8 |
//! | [`KvmArm::new_vhe`] | Type 2, host in EL2 | ARMv8.1 + VHE (§VI) |
//! | [`XenArm`] | Type 1, EL2-resident, Dom0 I/O | ARMv8 |
//! | [`KvmX86`] | Type 2, root mode | x86 VMX |
//! | [`XenX86`] | Type 1, root mode, Dom0 I/O | x86 VMX |
//! | [`Native`] | no hypervisor (baseline) | either |
//!
//! All implement the [`Hypervisor`] trait: the seven Table I
//! microbenchmarks plus the workload primitives the application models
//! compose. Costs come from the calibrated [`CostModel`]; mechanism
//! comes from really executing the modelled paths (trap, save each
//! register class, program list registers, copy through grant tables,
//! ...), so the trace of every composite number decomposes into steps a
//! test can assert.
//!
//! ## Architecture (Figures 2 and 3 of the paper, as ASCII)
//!
//! ```text
//!         Xen ARM (Type 1)                  KVM ARM (Type 2)
//!   EL0 | DomU user | Dom0 user  |    | VM user  | host user       |
//!   EL1 | DomU kern | Dom0 kern  |    | VM kern  | host kern + KVM |
//!   EL2 |        Xen + vGIC      |    |   KVM lowvisor (+ vGIC)    |
//!        I/O: DomU->Xen->Dom0          I/O: VM -> host kernel (vhost)
//! ```
//!
//! # Example
//!
//! ```
//! use hvx_core::{Hypervisor, KvmArm, XenArm};
//!
//! let mut kvm = KvmArm::new();
//! let mut xen = XenArm::new();
//! // Table II, first row: 6,500 vs 376 cycles.
//! assert!(kvm.hypercall(0) > xen.hypercall(0) * 17);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod context;
mod cost;
mod error;
mod hypervisor;
mod kind;
mod kvm_arm;
mod native;
pub mod report;
pub mod sched;
mod sim;
pub mod spec;
pub mod vcpu;
mod x86;
mod xen_arm;

pub use context::{ArmGuestContext, ArmHostContext};
pub use cost::{ClassCosts, CostModel};
pub use error::{Error, ScenarioFailureKind};
pub use hypervisor::{Hypervisor, HypervisorExt};
pub use kind::{HvKind, HvType, Platform, VirqPolicy};
pub use kvm_arm::{
    KvmArm, GICD_IPA, GUEST_IPI_SGI, GUEST_RAM_IPA, GUEST_RAM_PAGES, HOST_KICK_SGI, NIC_SPI,
    VIRTIO_IPA, VIRTIO_NET_VIRQ, VIRTIO_QUEUE_NOTIFY,
};
pub use native::Native;
pub use sched::{CfsScheduler, CreditVcpuSched, SchedPolicy, VcpuScheduler};
pub use sim::{Sim, SimBuilder, Workload, PAPER_VCPUS};
pub use spec::{FaultSpec, ScenarioSpec, SpecShape, TopologySpec};
pub use vcpu::{VCpu, VcpuState};
pub use x86::{KvmX86, X86Hv, XenX86, RESCHED_VECTOR, VIRTIO_VECTOR};
pub use xen_arm::{XenArm, DOMU, EVTCHN_VIRQ};
// Re-exported so layers that depend only on `hvx-core` (the sweep
// server) can validate fingerprints by the one canonical rule.
pub use hvx_engine::Fingerprint;
