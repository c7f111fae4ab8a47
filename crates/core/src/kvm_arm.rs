//! KVM ARM: split-mode virtualization (§II), with and without VHE (§VI).
//!
//! "KVM instead runs across both EL2 and EL1 using split-mode
//! virtualization, sharing EL1 between the host OS and VMs and running a
//! minimal set of hypervisor functionality in EL2." Every VM↔hypervisor
//! transition therefore pays the four overheads §IV enumerates, all of
//! which this model executes mechanically:
//!
//! 1. the **double trap** — EL1→EL2 (lowvisor) and EL2→EL1 (host),
//! 2. **context switching all EL1 system-register state** between guest
//!    and host (Table III's register classes, really copied here),
//! 3. **disabling/enabling the virtualization features** (HCR/VTTBR
//!    toggles) on every transition,
//! 4. **reading/writing VM control state** (the VGIC interface) from EL2,
//!    which dominates the cost ("reading back the VGIC state is
//!    expensive").
//!
//! [`KvmArm::new_vhe`] builds the ARMv8.1 variant: the host kernel runs in
//! EL2 (`E2H` set), so a trap lands *in* the hypervisor-cum-host with the
//! guest's EL1 state still live — no class save/restore, no toggles, no
//! double trap. The >10× transition-cost collapse of §VI falls out of the
//! removed steps, not a different constant. The paper's Figure 5:
//!
//! ```text
//!    Type 1: E2H clear              Type 2: E2H set
//!  EL0 |  VM   |  VM  |          | VM  | Apps ----,        |
//!  EL1 |  (EL1/EL0)   |          |(EL1)|          | syscalls & traps
//!  EL2 | Xen hypervisor|         | Host kernel + KVM <-'   |
//! ```

use crate::context::{ArmGuestContext, ArmHostContext};
use crate::{CostModel, HvKind, Hypervisor, VirqPolicy};
use hvx_arch::{ArchVersion, ArmCpu, ExceptionLevel, HcrEl2, Syndrome, TrapCause};
use hvx_engine::{
    CoreId, Cycles, FaultPoint, FlowId, FlowKind, Machine, Topology, TraceKind, TransitionId,
};
use hvx_gic::{dist_reg, Distributor, IntId, VgicCpuInterface};
use hvx_mem::{Ipa, Pa, PhysMemory, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx_vio::{Descriptor, Nic, VhostNet, Virtqueue};

/// Guest-physical base of the VM's RAM.
pub const GUEST_RAM_IPA: u64 = 0x8000_0000;
/// Guest-physical base of the emulated GIC distributor (unmapped in
/// Stage-2, so every access traps).
pub const GICD_IPA: u64 = 0x0800_0000;
/// Guest-physical base of the virtio-mmio transport.
pub const VIRTIO_IPA: u64 = 0x0A00_0000;
/// Offset of the virtio queue-notify ("kick") register.
pub const VIRTIO_QUEUE_NOTIFY: u64 = 0x50;
/// Pages of guest RAM in the model (enough for ring buffers; capacity is
/// not the subject of study).
pub const GUEST_RAM_PAGES: u64 = 512;

/// The virtio-net virtual interrupt (SPI) presented to the guest.
pub const VIRTIO_NET_VIRQ: IntId = IntId::spi(1);
/// The SGI used for guest IPIs.
pub const GUEST_IPI_SGI: IntId = IntId::sgi(5);
/// The physical SGI KVM uses to kick a VCPU out of guest mode.
pub const HOST_KICK_SGI: IntId = IntId::sgi(1);
/// Physical NIC interrupt.
pub const NIC_SPI: IntId = IntId::spi(43);

/// Per-VM state: Stage-2 tables, emulated distributor, saved VCPU
/// contexts, and the virtio device pair.
#[derive(Debug)]
struct VmState {
    s2: Stage2Tables,
    dist: Distributor,
    ctxs: Vec<ArmGuestContext>,
    tx_vq: Virtqueue,
    rx_vq: Virtqueue,
    vhost: VhostNet,
    /// Rotating guest TX buffer pages (IPA).
    tx_bufs: Vec<Ipa>,
    next_tx_buf: usize,
    /// Rotating guest RX buffer pages (IPA), reposted after use.
    rx_bufs: Vec<Ipa>,
}

impl VmState {
    fn new(num_vcpus: usize, ram_base_pa: u64) -> Self {
        let mut s2 = Stage2Tables::new();
        s2.map_range(
            Ipa::new(GUEST_RAM_IPA),
            Pa::new(ram_base_pa),
            GUEST_RAM_PAGES,
            S2Perms::RWX,
        )
        .expect("fresh stage-2 accepts the RAM range");
        let mut dist = Distributor::new(num_vcpus.max(1), 64);
        for v in 0..num_vcpus.max(1) {
            dist.enable(GUEST_IPI_SGI, v).expect("vcpu in range");
            dist.enable(VIRTIO_NET_VIRQ, v).expect("vcpu in range");
        }
        let mut ctxs = Vec::new();
        for v in 0..num_vcpus.max(1) {
            let mut ctx = ArmGuestContext::pattern(0x1000 + v as u64);
            ctx.vttbr = (v as u64) << 48 | ram_base_pa;
            // The guest's virtual CPU interface is live while it runs.
            ctx.vgic.hcr = hvx_gic::GICH_HCR_EN;
            ctxs.push(ctx);
        }
        let mut rx_vq = Virtqueue::new(256).expect("256 is a power of two");
        let tx_bufs: Vec<Ipa> = (0..8)
            .map(|i| Ipa::new(GUEST_RAM_IPA + i * PAGE_SIZE))
            .collect();
        let rx_bufs: Vec<Ipa> = (8..16)
            .map(|i| Ipa::new(GUEST_RAM_IPA + i * PAGE_SIZE))
            .collect();
        for b in &rx_bufs {
            rx_vq
                .add_chain(&[Descriptor {
                    addr: *b,
                    len: PAGE_SIZE as u32,
                    device_writes: true,
                }])
                .expect("fresh queue has room");
        }
        VmState {
            s2,
            dist,
            ctxs,
            tx_vq: Virtqueue::new(256).expect("256 is a power of two"),
            rx_vq,
            vhost: VhostNet::new(),
            tx_bufs,
            next_tx_buf: 0,
            rx_bufs,
        }
    }
}

/// The KVM ARM hypervisor model.
#[derive(Debug)]
pub struct KvmArm {
    machine: Machine,
    cost: CostModel,
    vhe: bool,
    cpus: Vec<ArmCpu>,
    vgics: Vec<VgicCpuInterface>,
    phys_gic: Distributor,
    mem: PhysMemory,
    vm: VmState,
    /// Second single-VCPU VM for the VM Switch microbenchmark, pinned to
    /// PCPU0 alongside the primary VM's VCPU0.
    alt_vm: VmState,
    alt_loaded: bool,
    host_ctxs: Vec<ArmHostContext>,
    /// Which VM VCPU is installed on each PCPU (`None` = host context).
    guest_loaded: Vec<Option<usize>>,
    nic: Nic,
    policy: VirqPolicy,
    rr_next: usize,
}

impl KvmArm {
    /// Builds the classic (ARMv8.0, non-VHE) configuration on the paper's
    /// 8-core topology with a 4-VCPU VM.
    pub fn new() -> Self {
        Self::build(CostModel::arm(), false)
    }

    /// Builds the ARMv8.1 VHE configuration of §VI: the host kernel runs
    /// entirely in EL2.
    pub fn new_vhe() -> Self {
        Self::build(CostModel::arm(), true)
    }

    /// Builds with an explicit cost model (ablations, mechanism tests).
    pub fn with_cost(cost: CostModel, vhe: bool) -> Self {
        Self::build(cost, vhe)
    }

    fn build(cost: CostModel, vhe: bool) -> Self {
        let topo = Topology::paper_default();
        let num_cores = topo.num_cores();
        let num_vcpus = topo.guest_cores().len();
        let version = if vhe {
            ArchVersion::V8_1
        } else {
            ArchVersion::V8_0
        };
        let mut cpus: Vec<ArmCpu> = (0..num_cores).map(|_| ArmCpu::new(version)).collect();
        let mut host_ctxs = Vec::new();
        for (i, cpu) in cpus.iter_mut().enumerate() {
            if vhe {
                cpu.enable_vhe().expect("v8.1 at EL2");
                cpu.el2.hcr_el2.insert(HcrEl2::TGE);
            } else {
                // Host OS runs in EL1.
                cpu.start_at(ExceptionLevel::El1);
            }
            host_ctxs.push(ArmHostContext::pattern(0x9000 + i as u64));
        }
        let mut phys_gic = Distributor::new(num_cores, 64);
        for c in 0..num_cores {
            phys_gic.enable(HOST_KICK_SGI, c).expect("core in range");
            phys_gic.enable(GUEST_IPI_SGI, c).expect("core in range");
        }
        phys_gic.enable(NIC_SPI, 0).expect("spi");
        phys_gic
            .set_target(NIC_SPI, topo.io_core().index())
            .expect("io core in range");

        let vm = VmState::new(num_vcpus, 0x0100_0000);
        let alt_vm = VmState::new(1, 0x0400_0000);
        let mut kvm = KvmArm {
            machine: Machine::new(topo),
            cost,
            vhe,
            cpus,
            vgics: (0..num_cores).map(|_| VgicCpuInterface::new()).collect(),
            phys_gic,
            mem: PhysMemory::new(64 << 20),
            vm,
            alt_vm,
            alt_loaded: false,
            host_ctxs,
            guest_loaded: vec![None; num_cores],
            nic: Nic::new(NIC_SPI),
            policy: VirqPolicy::Vcpu0,
            rr_next: 0,
        };
        // Install each VCPU on its pinned core, running in the VM.
        for vcpu in 0..kvm.num_vcpus() {
            let core = kvm.machine.topology().guest_core(vcpu);
            kvm.install_guest(core, vcpu);
        }
        kvm
    }

    fn install_guest(&mut self, core: CoreId, vcpu: usize) {
        let ctx = self.vm.ctxs[vcpu];
        let cpu = &mut self.cpus[core.index()];
        ctx.install(cpu, &mut self.vgics[core.index()]);
        if self.vhe {
            // The VHE host keeps E2H; guest trap routing needs IMO etc.
            cpu.el2.hcr_el2 = HcrEl2::guest_running();
            cpu.el2.hcr_el2.insert(HcrEl2::E2H);
        }
        cpu.start_at(ExceptionLevel::El1);
        self.guest_loaded[core.index()] = Some(vcpu);
    }

    /// Charges the hardware trap and takes the exception on `core`.
    fn trap_to_el2(&mut self, core: CoreId, cause: TrapCause) {
        self.machine.bump("kvm.traps", 1);
        self.machine.charge_as(
            core,
            "hw:trap-el2",
            TraceKind::Trap,
            self.cost.hw_trap,
            TransitionId::TrapToEl2,
        );
        let to = self.cpus[core.index()].take_exception(cause);
        debug_assert_eq!(to, ExceptionLevel::El2, "guest traps route to EL2");
    }

    /// World-switch out: lowvisor saves the guest context, installs the
    /// host context, disables the virtualization features, and ERETs to
    /// the host in EL1. `lazy_fp` models KVM's lazy FPSIMD switching on
    /// interrupt fast paths.
    ///
    /// On VHE there is nothing to do beyond a trap-frame push: the host
    /// lives in EL2 and the guest's EL1 state can stay in the registers.
    fn switch_out(&mut self, core: CoreId, vcpu: usize, lazy_fp: bool) {
        let c = self.cost;
        let m = &mut self.machine;
        if self.vhe {
            m.charge_as(
                core,
                "vhe:frame-save",
                TraceKind::ContextSave,
                c.xen_frame.save,
                TransitionId::ContextSave,
            );
            // Host == hypervisor: already running in EL2; nothing else.
            self.guest_loaded[core.index()] = None;
            return;
        }
        m.span_enter(TransitionId::ContextSave);
        m.charge(core, "save:gp", TraceKind::ContextSave, c.gp.save);
        if !lazy_fp {
            m.charge(core, "save:fp", TraceKind::ContextSave, c.fp.save);
        }
        m.charge(core, "save:el1-sys", TraceKind::ContextSave, c.el1_sys.save);
        // The VGIC window dominates Table III; span it separately so the
        // profile can answer "how much of context save is VGIC?".
        m.charge_as(
            core,
            "save:vgic",
            TraceKind::ContextSave,
            c.vgic.save,
            TransitionId::VgicLrSave,
        );
        m.charge(core, "save:timer", TraceKind::ContextSave, c.timer.save);
        m.charge(
            core,
            "save:el2-config",
            TraceKind::ContextSave,
            c.el2_config.save,
        );
        m.charge(core, "save:el2-vm", TraceKind::ContextSave, c.el2_vm.save);
        m.span_exit(TransitionId::ContextSave);

        // Capture the real context. The guest PC was banked into ELR_EL2
        // by the trap.
        let idx = core.index();
        let mut ctx = ArmGuestContext::capture(&self.cpus[idx], &self.vgics[idx]);
        ctx.gp.pc = self.cpus[idx].el2.elr_el2;
        let slot = self.current_vm_ctx_mut(idx, vcpu);
        *slot = ctx;

        // Disable Stage-2 and traps so the host owns the hardware (§IV
        // overhead #3), then install the host and return to EL1.
        self.machine.charge_as(
            core,
            "kvm:disable-virt",
            TraceKind::Emulation,
            c.kvm_toggle_traps,
            TransitionId::VirtToggle,
        );
        let cpu = &mut self.cpus[idx];
        self.host_ctxs[idx].install(cpu);
        cpu.el2.spsr_el2 = 0b0101; // EL1h: return into the host kernel
        cpu.el2.elr_el2 = 0xFFFF_0000_0000_0000 + idx as u64; // host resume point
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            c.hw_eret,
            TransitionId::Eret,
        );
        cpu.eret().expect("EL2 to EL1 host return is legal");
        self.guest_loaded[idx] = None;
    }

    fn current_vm_ctx_mut(&mut self, core_idx: usize, vcpu: usize) -> &mut ArmGuestContext {
        if self.alt_loaded && core_idx == 0 {
            &mut self.alt_vm.ctxs[0]
        } else {
            &mut self.vm.ctxs[vcpu]
        }
    }

    /// World-switch in: the host issues HVC to reach the lowvisor, which
    /// restores the guest context, re-enables the virtualization
    /// features, and ERETs into the VM.
    fn switch_in(&mut self, core: CoreId, vcpu: usize, lazy_fp: bool) {
        let c = self.cost;
        if self.vhe {
            self.machine.charge_as(
                core,
                "vhe:frame-restore",
                TraceKind::ContextRestore,
                c.xen_frame.restore,
                TransitionId::ContextRestore,
            );
            self.machine.charge_as(
                core,
                "hw:eret",
                TraceKind::Return,
                c.hw_eret,
                TransitionId::Eret,
            );
            let cpu = &mut self.cpus[core.index()];
            cpu.el2.spsr_el2 = 0b0101;
            cpu.el2.elr_el2 = self.vm.ctxs[vcpu].gp.pc;
            cpu.eret().expect("EL2 to EL1 guest return");
            self.guest_loaded[core.index()] = Some(vcpu);
            return;
        }
        self.machine.bump("kvm.traps", 1);
        self.machine.charge_as(
            core,
            "hw:trap-el2",
            TraceKind::Trap,
            c.hw_trap,
            TransitionId::TrapToEl2,
        );
        let idx = core.index();
        self.cpus[idx].take_exception(TrapCause::HYPERCALL); // host -> lowvisor
        let m = &mut self.machine;
        m.span_enter(TransitionId::ContextRestore);
        m.charge(core, "restore:gp", TraceKind::ContextRestore, c.gp.restore);
        if !lazy_fp {
            m.charge(core, "restore:fp", TraceKind::ContextRestore, c.fp.restore);
        }
        m.charge(
            core,
            "restore:el1-sys",
            TraceKind::ContextRestore,
            c.el1_sys.restore,
        );
        m.charge_as(
            core,
            "restore:vgic",
            TraceKind::ContextRestore,
            c.vgic.restore,
            TransitionId::VgicLrRestore,
        );
        m.charge(
            core,
            "restore:timer",
            TraceKind::ContextRestore,
            c.timer.restore,
        );
        m.charge(
            core,
            "restore:el2-config",
            TraceKind::ContextRestore,
            c.el2_config.restore,
        );
        m.charge(
            core,
            "restore:el2-vm",
            TraceKind::ContextRestore,
            c.el2_vm.restore,
        );
        m.span_exit(TransitionId::ContextRestore);
        m.charge_as(
            core,
            "kvm:enable-virt",
            TraceKind::Emulation,
            c.kvm_toggle_traps,
            TransitionId::VirtToggle,
        );

        let ctx = if self.alt_loaded && idx == 0 {
            self.alt_vm.ctxs[0]
        } else {
            self.vm.ctxs[vcpu]
        };
        ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
        let cpu = &mut self.cpus[idx];
        cpu.start_at(ExceptionLevel::El2);
        cpu.el2.spsr_el2 = 0b0101;
        cpu.el2.elr_el2 = ctx.gp.pc;
        self.machine.charge_as(
            core,
            "hw:eret",
            TraceKind::Return,
            c.hw_eret,
            TransitionId::Eret,
        );
        cpu.eret().expect("EL2 to EL1 guest return");
        self.guest_loaded[idx] = Some(vcpu);
    }

    /// The full guest-MMIO-trap prologue: Stage-2 abort, switch out,
    /// host-side MMIO decode. Returns after the host has identified the
    /// device.
    fn mmio_trap(&mut self, core: CoreId, vcpu: usize, ipa: u64, write: bool) {
        // The access really has no Stage-2 mapping:
        debug_assert!(self
            .vm
            .s2
            .translate(Ipa::new(ipa), hvx_mem::Access::Read)
            .is_err());
        self.trap_to_el2(core, TrapCause::Sync(Syndrome::DataAbort { ipa, write }));
        self.switch_out(core, vcpu, true);
        // Every exit passes through the vcpu_run dispatch loop before the
        // MMIO emulation proper.
        self.machine.charge_as(
            core,
            "kvm:host-dispatch",
            TraceKind::Host,
            self.cost.kvm_host_dispatch,
            TransitionId::HostDispatch,
        );
        self.machine.charge_as(
            core,
            "kvm:mmio-decode",
            TraceKind::Emulation,
            self.cost.kvm_mmio_decode,
            TransitionId::MmioDecode,
        );
    }

    /// Extension benchmark: a demand Stage-2 fault — the guest touches
    /// an unmapped page of its RAM, traps to EL2, and the host allocates
    /// and maps a fresh page before resuming (§V sets these "one-time
    /// page fault costs at start up" aside; this quantifies one).
    ///
    /// Returns the fault-handling cost; the page is really mapped, so a
    /// second touch of the same page takes no fault.
    pub fn stage2_fault(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        // Pick the next unmapped page past the initial RAM allocation.
        let ipa = Ipa::new(GUEST_RAM_IPA + self.vm.s2.mapped_pages() * PAGE_SIZE);
        debug_assert!(self.vm.s2.translate(ipa, hvx_mem::Access::Write).is_err());
        let t0 = self.machine.now(core);
        self.trap_to_el2(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: ipa.value(),
                write: true,
            }),
        );
        self.switch_out(core, vcpu, true);
        self.machine.charge_as(
            core,
            "kvm:host-dispatch",
            TraceKind::Host,
            self.cost.kvm_host_dispatch,
            TransitionId::HostDispatch,
        );
        self.machine.charge_as(
            core,
            "kvm:page-alloc",
            TraceKind::Host,
            self.cost.page_alloc,
            TransitionId::HostDispatch,
        );
        let pa = Pa::new(0x0100_0000 + self.vm.s2.mapped_pages() * PAGE_SIZE);
        self.vm
            .s2
            .map_page(ipa, pa, S2Perms::RWX)
            .expect("fresh page maps");
        self.switch_in(core, vcpu, true);
        debug_assert!(self.vm.s2.translate(ipa, hvx_mem::Access::Write).is_ok());
        self.machine.now(core) - t0
    }

    /// Restores the primary VM onto PCPU0 if a `vm_switch` left the
    /// alternate VM loaded (uncharged benchmark scaffolding between
    /// operations).
    fn ensure_primary(&mut self) {
        if self.alt_loaded {
            self.alt_loaded = false;
            let core = self.machine.topology().guest_core(0);
            let idx = core.index();
            self.alt_vm.ctxs[0] = ArmGuestContext::capture(&self.cpus[idx], &self.vgics[idx]);
            let ctx = self.vm.ctxs[0];
            ctx.install(&mut self.cpus[idx], &mut self.vgics[idx]);
            self.cpus[idx].start_at(ExceptionLevel::El1);
            self.guest_loaded[idx] = Some(0);
        }
    }

    /// Selects the VCPU that receives the next device interrupt.
    fn pick_irq_vcpu(&mut self) -> usize {
        match self.policy {
            VirqPolicy::Vcpu0 => 0,
            VirqPolicy::RoundRobin => {
                let v = self.rr_next % self.num_vcpus();
                self.rr_next += 1;
                v
            }
        }
    }

    /// Injects a virtual interrupt into a VCPU currently running in guest
    /// mode on its core: physical kick IPI, world switch out, LR
    /// programming, world switch in, guest acknowledge. Returns the
    /// completion instant on the target core. `from` is the core that
    /// initiates the kick; `signal_at` lets callers account an in-flight
    /// wire before the kick.
    /// `flow` (when tracing) links this injection into the causal chain
    /// that triggered it — e.g. the IRQ-delivery chain opened by
    /// [`KvmArm::receive`] when the physical NIC interrupt lands.
    fn inject_virq_running(
        &mut self,
        from: CoreId,
        target_vcpu: usize,
        virq: IntId,
        flow: Option<FlowId>,
    ) -> Cycles {
        let c = self.cost;
        let target_core = self.machine.topology().guest_core(target_vcpu);
        // Kick: physical SGI to the target PCPU.
        self.phys_gic
            .raise(HOST_KICK_SGI, target_core.index())
            .expect("core in range");
        let arrival = self.machine.signal(from, target_core, c.ipi_wire);
        self.machine.wait_until(target_core, arrival);
        // Physical IRQ while the VM runs: traps to EL2 (IMO).
        self.trap_to_el2(target_core, TrapCause::Irq);
        self.switch_out(target_core, target_vcpu, true);
        // Host acks the SGI and programs a list register.
        self.machine.charge_as(
            target_core,
            "gic:phys-ack",
            TraceKind::Host,
            c.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.phys_gic
            .acknowledge(target_core.index())
            .expect("core in range");
        self.phys_gic
            .complete(target_core.index(), HOST_KICK_SGI)
            .expect("sgi active");
        self.machine.bump("kvm.virq_injections", 1);
        self.machine.flow_step(flow, target_core, "virq:inject");
        self.machine.charge_as(
            target_core,
            "kvm:vgic-inject",
            TraceKind::Emulation,
            c.kvm_vgic_inject,
            TransitionId::VirqInject,
        );
        if self.vhe {
            // The VHE host runs in EL2 and programs the list register
            // directly — no memory image round trip (§VI).
            let _ = self.vgics[target_core.index()].inject(virq.raw(), 0x80);
        } else {
            // Program the LR through the saved context (the hypervisor
            // writes the memory image it will restore from).
            let mut vgic_tmp = VgicCpuInterface::new();
            vgic_tmp.restore(self.vm.ctxs[target_vcpu].vgic);
            let _ = vgic_tmp.inject(virq.raw(), 0x80);
            self.vm.ctxs[target_vcpu].vgic = vgic_tmp.save();
            self.vgics[target_core.index()].absorb_counters(&vgic_tmp);
        }
        self.switch_in(target_core, target_vcpu, true);
        // Guest sees and acknowledges the virtual interrupt — no trap.
        self.machine.charge_as(
            target_core,
            "gic:vif-ack",
            TraceKind::Guest,
            c.gic_vif_access,
            TransitionId::GicAccess,
        );
        let acked = self.vgics[target_core.index()].guest_ack();
        debug_assert_eq!(acked, Some(virq.raw()));
        debug_assert_eq!(
            self.vgics[target_core.index()].last_injected(),
            Some(virq.raw())
        );
        self.machine.flow_end(flow, target_core, "guest:ack");
        // Completion happens in the guest later; keep the LR active until
        // `virq_complete`-style EOI. For workload paths we complete
        // immediately at vIF cost.
        self.machine.charge_as(
            target_core,
            "gic:vif-eoi",
            TraceKind::Guest,
            c.gic_vif_access,
            TransitionId::GicAccess,
        );
        let _ = self.vgics[target_core.index()].guest_eoi(virq.raw());
        self.machine.now(target_core)
    }
}

impl Default for KvmArm {
    fn default() -> Self {
        KvmArm::new()
    }
}

impl Hypervisor for KvmArm {
    fn kind(&self) -> HvKind {
        if self.vhe {
            HvKind::KvmArmVhe
        } else {
            HvKind::KvmArm
        }
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn num_vcpus(&self) -> usize {
        self.machine.topology().guest_cores().len()
    }

    fn set_virq_policy(&mut self, policy: VirqPolicy) {
        self.policy = policy;
    }

    fn sample_metrics(&mut self) {
        let tx = self.vm.vhost.tx_packets();
        let rx = self.vm.vhost.rx_packets();
        let injected: u64 = self.vgics.iter().map(|v| v.injected_count()).sum();
        let completed: u64 = self.vgics.iter().map(|v| v.completed_count()).sum();
        self.machine.bump("vio.vhost_tx_packets", tx);
        self.machine.bump("vio.vhost_rx_packets", rx);
        self.machine.bump("gic.virq_injected", injected);
        self.machine.bump("gic.virq_completed", completed);
        // Fault-recovery counters register only when faults actually
        // fired, keeping the fault-free profile output unchanged.
        let stalls = self.nic.stall_count();
        if stalls > 0 {
            self.machine.bump("vio.nic_stalls", stalls);
            self.machine
                .bump("vio.nic_rekicks", self.nic.rekick_count());
        }
        // Device-side flow correlators register only under event tracing
        // so the committed baseline profiles stay byte-identical.
        if self.machine.event_tracing() {
            let kicks = self.vm.vhost.kick_count();
            let irqs = self.nic.irq_count();
            self.machine.bump("vio.vhost_kick_seq", kicks);
            self.machine.bump("vio.nic_irq_seq", irqs);
            let cores: Vec<CoreId> = self.machine.topology().all_cores().collect();
            for core in cores {
                let permille = (self.machine.utilization(core) * 1000.0).round() as u64;
                self.machine.observe("machine.util_permille", permille);
            }
        }
    }

    fn hypercall(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.trap_to_el2(core, TrapCause::HYPERCALL);
        self.switch_out(core, vcpu, false);
        self.machine.charge_as(
            core,
            "kvm:host-dispatch",
            TraceKind::Host,
            self.cost.kvm_host_dispatch,
            TransitionId::HostDispatch,
        );
        self.switch_in(core, vcpu, false);
        self.machine.now(core) - t0
    }

    fn gicd_trap(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.trap_to_el2(
            core,
            TrapCause::Sync(Syndrome::DataAbort {
                ipa: GICD_IPA + dist_reg::GICD_ISENABLER,
                write: false,
            }),
        );
        self.switch_out(core, vcpu, false);
        self.machine.charge_as(
            core,
            "kvm:host-dispatch",
            TraceKind::Host,
            self.cost.kvm_host_dispatch,
            TransitionId::HostDispatch,
        );
        self.machine.charge_as(
            core,
            "kvm:mmio-decode",
            TraceKind::Emulation,
            self.cost.kvm_mmio_decode,
            TransitionId::MmioDecode,
        );
        self.machine.charge_as(
            core,
            "kvm:gicd-emulate",
            TraceKind::Emulation,
            self.cost.kvm_gicd_emulate,
            TransitionId::GicdEmulate,
        );
        let _ = self
            .vm
            .dist
            .mmio_read(dist_reg::GICD_ISENABLER, vcpu)
            .expect("register modelled");
        self.switch_in(core, vcpu, false);
        self.machine.now(core) - t0
    }

    fn virtual_ipi(&mut self, from: usize, to: usize) -> Cycles {
        self.ensure_primary();
        assert_ne!(from, to, "virtual IPI requires two VCPUs");
        let from_core = self.machine.topology().guest_core(from);
        let t0 = self.machine.now(from_core);
        // Sender: GICD_SGIR write traps (MMIO), host emulates the
        // distributor and discovers the SGI fan-out.
        self.mmio_trap(from_core, from, GICD_IPA + dist_reg::GICD_SGIR, true);
        self.machine.charge_as(
            from_core,
            "kvm:gicd-emulate",
            TraceKind::Emulation,
            self.cost.kvm_gicd_emulate,
            TransitionId::GicdEmulate,
        );
        let effect = self
            .vm
            .dist
            .mmio_write(
                dist_reg::GICD_SGIR,
                ((GUEST_IPI_SGI.raw() as u64) << 24) | (1 << (16 + to)),
                from,
            )
            .expect("SGIR modelled");
        debug_assert_eq!(effect.sgi_targets.len(), 1);
        // Kick the target and inject; the receive side completes there.
        let done = self.inject_virq_running(from_core, to, GUEST_IPI_SGI, None);
        // Sender resumes (off the critical path).
        self.switch_in(from_core, from, true);
        done - t0
    }

    fn virq_complete(&mut self, vcpu: usize) -> Cycles {
        let core = self.machine.topology().guest_core(vcpu);
        // Stage an active interrupt directly in the live vIF.
        let vgic = &mut self.vgics[core.index()];
        vgic.inject(VIRTIO_NET_VIRQ.raw(), 0x80)
            .expect("LR available");
        vgic.guest_ack().expect("pending virq");
        let t0 = self.machine.now(core);
        self.machine.charge_as(
            core,
            "gic:vif-eoi",
            TraceKind::Guest,
            self.cost.gic_vif_access,
            TransitionId::GicAccess,
        );
        self.vgics[core.index()]
            .guest_eoi(VIRTIO_NET_VIRQ.raw())
            .expect("active virq");
        self.machine.now(core) - t0
    }

    fn vm_switch(&mut self) -> Cycles {
        let core = self.machine.topology().guest_core(0);
        let t0 = self.machine.now(core);
        // Both VMs pin their single benchmark VCPU to PCPU0; the
        // context selection happens inside switch_out/in via alt_loaded.
        let (out_vcpu, in_vcpu) = (0, 0);
        self.trap_to_el2(core, TrapCause::HYPERCALL); // yield
        self.switch_out(core, out_vcpu, false);
        self.machine.charge_as(
            core,
            "kvm:sched",
            TraceKind::Sched,
            self.cost.kvm_sched,
            TransitionId::Sched,
        );
        self.alt_loaded = !self.alt_loaded;
        self.switch_in(core, in_vcpu, false);
        self.machine.now(core) - t0
    }

    fn io_latency_out(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let backend = self.machine.topology().backend_core();
        let t0 = self.machine.now(core);
        self.mmio_trap(core, vcpu, VIRTIO_IPA + VIRTIO_QUEUE_NOTIFY, true);
        self.machine.bump("kvm.vhost_kicks", 1);
        self.machine.charge_as(
            core,
            "kvm:ioeventfd",
            TraceKind::Io,
            self.cost.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        let arrival = self.machine.signal(core, backend, self.cost.ipi_wire);
        // Sender resumes, off the critical path.
        self.switch_in(core, vcpu, true);
        self.machine.wait_until(backend, arrival);
        self.machine.charge_as(
            backend,
            "kvm:vhost-wake",
            TraceKind::Io,
            self.cost.kvm_vhost_wake,
            TransitionId::VhostBackend,
        );
        self.machine.now(backend) - t0
    }

    fn io_latency_in(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let backend = self.machine.topology().backend_core();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(backend);
        // vhost signals the irqfd and must wake/kick the VCPU thread —
        // the heavyweight host-side path §IV attributes the asymmetry to.
        self.machine.charge_as(
            backend,
            "kvm:irqfd-signal",
            TraceKind::Io,
            self.cost.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        self.machine.charge_as(
            backend,
            "kvm:io-in-host",
            TraceKind::Host,
            self.cost.kvm_io_in_host,
            TransitionId::HostDispatch,
        );
        let arrival = self.machine.signal(backend, core, self.cost.ipi_wire);
        self.machine.wait_until(core, arrival);
        self.trap_to_el2(core, TrapCause::Irq);
        self.switch_out(core, vcpu, true);
        self.machine.charge_as(
            core,
            "gic:phys-ack",
            TraceKind::Host,
            self.cost.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.machine.bump("kvm.virq_injections", 1);
        self.machine.charge_as(
            core,
            "kvm:vgic-inject",
            TraceKind::Emulation,
            self.cost.kvm_vgic_inject,
            TransitionId::VirqInject,
        );
        if self.vhe {
            let _ = self.vgics[core.index()].inject(VIRTIO_NET_VIRQ.raw(), 0x80);
        } else {
            let mut vgic_tmp = VgicCpuInterface::new();
            vgic_tmp.restore(self.vm.ctxs[vcpu].vgic);
            let _ = vgic_tmp.inject(VIRTIO_NET_VIRQ.raw(), 0x80);
            self.vm.ctxs[vcpu].vgic = vgic_tmp.save();
            self.vgics[core.index()].absorb_counters(&vgic_tmp);
        }
        self.switch_in(core, vcpu, true);
        self.machine.charge_as(
            core,
            "gic:vif-ack",
            TraceKind::Guest,
            self.cost.gic_vif_access,
            TransitionId::GicAccess,
        );
        let acked = self.vgics[core.index()].guest_ack();
        debug_assert_eq!(acked, Some(VIRTIO_NET_VIRQ.raw()));
        let t1 = self.machine.now(core);
        // Clean up the LR so repeated runs start fresh.
        let _ = self.vgics[core.index()].guest_eoi(VIRTIO_NET_VIRQ.raw());
        t1 - t0
    }

    fn guest_compute(&mut self, vcpu: usize, work: Cycles) {
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "guest:compute",
            TraceKind::Guest,
            work,
            TransitionId::GuestRun,
        );
    }

    fn transmit(&mut self, vcpu: usize, len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let core = self.machine.topology().guest_core(vcpu);
        let backend = self.machine.topology().backend_core();
        // Guest stack + driver: build the frame in a guest buffer.
        self.machine.charge_as(
            core,
            "guest:net-stack-tx",
            TraceKind::Guest,
            c.stack_tx_per_packet + c.stack_bytes(len) + c.kvm_guest_virtio / 2,
            TransitionId::GuestStack,
        );
        let buf = self.vm.tx_bufs[self.vm.next_tx_buf % self.vm.tx_bufs.len()];
        self.vm.next_tx_buf += 1;
        let pa = self
            .vm
            .s2
            .translate(buf, hvx_mem::Access::Write)
            .expect("TX buffer mapped")
            .pa;
        let payload = vec![0xABu8; len.min(PAGE_SIZE as usize)];
        self.mem.write(pa, &payload).expect("guest RAM in range");
        self.vm
            .tx_vq
            .add_chain(&[Descriptor {
                addr: buf,
                len: payload.len() as u32,
                device_writes: false,
            }])
            .expect("TX queue has room");
        // Kick.
        self.mmio_trap(core, vcpu, VIRTIO_IPA + VIRTIO_QUEUE_NOTIFY, true);
        self.machine.bump("kvm.vhost_kicks", 1);
        self.vm.vhost.note_kick();
        let flow = self
            .machine
            .flow_begin(FlowKind::VirtioKick, core, "virtio:kick");
        self.machine.charge_as(
            core,
            "kvm:ioeventfd",
            TraceKind::Io,
            c.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        let arrival = self.machine.signal(core, backend, c.ipi_wire);
        self.switch_in(core, vcpu, true);
        // vhost drains the ring with direct guest-memory access.
        self.machine.wait_until(backend, arrival);
        if self.machine.fault(FaultPoint::VhostDelay) {
            // Fault: the vhost worker is preempted before servicing the
            // kick. The virtio driver's TX watchdog fires and re-kicks
            // the queue — a second doorbell charged as recovery.
            let rec =
                self.machine
                    .flow_begin(FlowKind::FaultRecovery, backend, "fault:vhost-delay");
            self.machine.charge_as(
                backend,
                "kvm:vhost-delay",
                TraceKind::Sched,
                c.kvm_sched * 2,
                TransitionId::Sched,
            );
            self.machine.charge_as(
                core,
                "virtio:tx-rekick",
                TraceKind::Io,
                c.kvm_ioeventfd + c.kvm_mmio_decode,
                TransitionId::VirtioRekick,
            );
            self.machine.flow_end(rec, core, "virtio:tx-rekick");
        }
        self.machine.flow_step(flow, backend, "vhost:wake");
        self.machine.charge_as(
            backend,
            "kvm:vhost-wake",
            TraceKind::Io,
            c.kvm_vhost_wake,
            TransitionId::VhostBackend,
        );
        self.machine.charge_as(
            backend,
            "kvm:vhost-tx",
            TraceKind::Io,
            c.kvm_vhost_per_packet,
            TransitionId::VhostBackend,
        );
        let pkts = self
            .vm
            .vhost
            .process_tx(&mut self.vm.tx_vq, &self.vm.s2, &mut self.mem)
            .expect("mapped TX chain");
        debug_assert_eq!(pkts.len(), 1);
        self.machine.charge_as(
            backend,
            "host:net-stack-tx",
            TraceKind::Host,
            c.host_net_tx,
            TransitionId::HostStack,
        );
        if self.machine.fault(FaultPoint::NicStall) {
            self.nic.record_stall_and_rekick();
            // Fault: the NIC misses the tail-pointer update and stalls
            // before DMA. The driver times out and re-kicks the ring.
            self.machine.charge_as(
                backend,
                "nic:stall-rekick",
                TraceKind::Io,
                c.nic_dma * 4 + c.kvm_ioeventfd,
                TransitionId::VirtioRekick,
            );
        }
        self.machine.charge_as(
            backend,
            "nic:dma",
            TraceKind::Io,
            c.nic_dma,
            TransitionId::NicDma,
        );
        for p in pkts {
            self.nic.transmit(p);
        }
        self.machine.flow_end(flow, backend, "nic:dma");
        let _ = self.vm.tx_vq.take_used();
        self.machine.now(backend)
    }

    fn receive(&mut self, len: usize, arrival: Cycles) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.cost;
        let vcpu = self.pick_irq_vcpu();
        let io = self.machine.topology().io_core();
        // NIC interrupt lands on the host's IRQ core.
        self.nic
            .receive_from_wire(hvx_vio::Packet::new(0, vec![0xCDu8; len]));
        self.phys_gic.raise(NIC_SPI, io.index()).expect("spi");
        self.nic.note_irq();
        self.machine.wait_until(io, arrival);
        let flow = self
            .machine
            .flow_begin(FlowKind::IrqDelivery, io, "host:irq");
        self.machine.charge_as(
            io,
            "host:irq",
            TraceKind::Host,
            c.native_irq,
            TransitionId::HostIrq,
        );
        self.machine.charge_as(
            io,
            "gic:phys-ack",
            TraceKind::Host,
            c.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.phys_gic.acknowledge(io.index()).expect("core");
        self.phys_gic.complete(io.index(), NIC_SPI).expect("active");
        // Host stack up to the TAP device, then vhost writes straight
        // into the guest RX buffer (zero copy).
        self.machine.charge_as(
            io,
            "host:net-stack-rx",
            TraceKind::Host,
            c.host_net_rx,
            TransitionId::HostStack,
        );
        self.machine.flow_step(flow, io, "vhost:rx");
        self.machine.charge_as(
            io,
            "kvm:vhost-rx",
            TraceKind::Io,
            c.kvm_vhost_per_packet,
            TransitionId::VhostBackend,
        );
        let pkt = self.nic.take_rx().expect("packet queued");
        self.vm
            .vhost
            .deliver_rx(&mut self.vm.rx_vq, &self.vm.s2, &mut self.mem, &pkt)
            .expect("RX buffer posted");
        // Repost the consumed buffer (guest-side cost inside stack-rx).
        if let Ok(Some((_, _))) = self.vm.rx_vq.take_used() {
            let buf = self.vm.rx_bufs[0];
            self.vm.rx_bufs.rotate_left(1);
            let _ = self.vm.rx_vq.add_chain(&[Descriptor {
                addr: buf,
                len: PAGE_SIZE as u32,
                device_writes: true,
            }]);
        }
        if self.machine.fault(FaultPoint::VirqDrop) {
            // Fault: the virtio interrupt is lost before the guest sees
            // it. vhost's resample path notices the unhandled ring and
            // re-signals the irqfd — recovery charged before the real
            // injection below.
            self.machine.charge_as(
                io,
                "kvm:irqfd-resignal",
                TraceKind::Io,
                c.kvm_ioeventfd + c.kvm_vgic_inject,
                TransitionId::VirtioRekick,
            );
        }
        // Inject the virtio interrupt into the running VCPU.
        self.inject_virq_running(io, vcpu, VIRTIO_NET_VIRQ, flow);
        let core = self.machine.topology().guest_core(vcpu);
        if self.machine.fault(FaultPoint::VirqSpurious) {
            // Fault: a spurious virtio interrupt — the guest traps to
            // its handler, finds no work, acks and EOIs for nothing.
            self.machine.charge_as(
                core,
                "guest:spurious-virq",
                TraceKind::Guest,
                c.gic_vif_access * 2,
                TransitionId::GicAccess,
            );
        }
        self.machine.charge_as(
            core,
            "guest:net-stack-rx",
            TraceKind::Guest,
            c.stack_rx_per_packet + c.stack_bytes(len) + c.kvm_guest_virtio / 2,
            TransitionId::GuestStack,
        );
        (self.machine.now(core), vcpu)
    }

    fn deliver_virq(&mut self, vcpu: usize) -> Cycles {
        self.ensure_primary();
        let core = self.machine.topology().guest_core(vcpu);
        let t0 = self.machine.now(core);
        self.inject_virq_running(core, vcpu, IntId::VTIMER, None);
        self.machine.now(core) - t0
    }

    fn next_irq_vcpu(&mut self) -> usize {
        self.pick_irq_vcpu()
    }

    fn deliver_virq_blocked(&mut self, vcpu: usize) -> Cycles {
        // KVM's wake path (irqfd, scheduler) runs in the host on the
        // signalling core; the VCPU core pays only the inject round
        // trip — same as delivering to a running VCPU.
        self.deliver_virq(vcpu)
    }

    fn receive_burst(
        &mut self,
        chunks: usize,
        chunk_len: usize,
        arrival: Cycles,
    ) -> (Cycles, usize) {
        self.ensure_primary();
        let c = self.cost;
        let total = chunks * chunk_len;
        let vcpu = self.pick_irq_vcpu();
        let io = self.machine.topology().io_core();
        self.machine.wait_until(io, arrival);
        // One coalesced interrupt; GRO folds the chunks through the host
        // stack once; vhost writes every chunk straight into guest
        // buffers (zero copy — no per-chunk charge beyond the byte cost
        // already in the guest stack term).
        self.nic.note_irq();
        let flow = self
            .machine
            .flow_begin(FlowKind::IrqDelivery, io, "host:irq");
        self.machine.charge_as(
            io,
            "host:irq",
            TraceKind::Host,
            c.native_irq,
            TransitionId::HostIrq,
        );
        self.machine.charge_as(
            io,
            "gic:phys-ack",
            TraceKind::Host,
            c.gic_phys_access,
            TransitionId::GicAccess,
        );
        self.machine.charge_as(
            io,
            "host:net-stack-rx",
            TraceKind::Host,
            c.host_net_rx,
            TransitionId::HostStack,
        );
        self.machine.charge_as(
            io,
            "kvm:vhost-rx",
            TraceKind::Io,
            c.kvm_vhost_per_packet,
            TransitionId::VhostBackend,
        );
        self.machine.flow_step(flow, io, "vhost:rx");
        self.inject_virq_running(io, vcpu, VIRTIO_NET_VIRQ, flow);
        let core = self.machine.topology().guest_core(vcpu);
        self.machine.charge_as(
            core,
            "guest:net-stack-rx",
            TraceKind::Guest,
            c.stack_rx_per_packet + c.stack_bytes(total) + c.kvm_guest_virtio / 2,
            TransitionId::GuestStack,
        );
        (self.machine.now(core), vcpu)
    }

    fn transmit_burst(&mut self, vcpu: usize, chunks: usize, chunk_len: usize) -> Cycles {
        self.ensure_primary();
        let c = self.cost;
        let total = chunks * chunk_len;
        let core = self.machine.topology().guest_core(vcpu);
        let backend = self.machine.topology().backend_core();
        self.machine.charge_as(
            core,
            "guest:net-stack-tx",
            TraceKind::Guest,
            c.stack_tx_per_packet + c.stack_bytes(total) + c.kvm_guest_virtio / 2,
            TransitionId::GuestStack,
        );
        // One kick for the whole burst.
        self.mmio_trap(core, vcpu, VIRTIO_IPA + VIRTIO_QUEUE_NOTIFY, true);
        self.machine.bump("kvm.vhost_kicks", 1);
        self.vm.vhost.note_kick();
        let flow = self
            .machine
            .flow_begin(FlowKind::VirtioKick, core, "virtio:kick");
        self.machine.charge_as(
            core,
            "kvm:ioeventfd",
            TraceKind::Io,
            c.kvm_ioeventfd,
            TransitionId::VhostKick,
        );
        let arrival = self.machine.signal(core, backend, c.ipi_wire);
        self.switch_in(core, vcpu, true);
        self.machine.wait_until(backend, arrival);
        self.machine.flow_step(flow, backend, "vhost:wake");
        self.machine.charge_as(
            backend,
            "kvm:vhost-wake",
            TraceKind::Io,
            c.kvm_vhost_wake,
            TransitionId::VhostBackend,
        );
        self.machine.charge_as(
            backend,
            "kvm:vhost-tx",
            TraceKind::Io,
            c.kvm_vhost_per_packet,
            TransitionId::VhostBackend,
        );
        self.machine.charge_as(
            backend,
            "host:net-stack-tx",
            TraceKind::Host,
            c.host_net_tx,
            TransitionId::HostStack,
        );
        self.machine.charge_as(
            backend,
            "nic:dma",
            TraceKind::Io,
            c.nic_dma,
            TransitionId::NicDma,
        );
        self.machine.flow_end(flow, backend, "nic:dma");
        self.machine.now(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypervisorExt;

    #[test]
    fn hypercall_composes_to_table_ii() {
        let mut kvm = KvmArm::new();
        let cycles = kvm.hypercall(0);
        assert_eq!(cycles, Cycles::new(6500), "Table II: KVM ARM hypercall");
    }

    #[test]
    fn hypercall_trace_shows_split_mode_structure() {
        let mut kvm = KvmArm::new();
        kvm.machine_mut().enable_event_tracing(None);
        kvm.hypercall(0);
        let trace = kvm.machine().event_tracer().unwrap();
        // The double trap and the full save/restore must appear in order.
        assert!(trace.contains_label_subsequence(&[
            "hw:trap-el2",
            "save:gp",
            "save:vgic",
            "kvm:disable-virt",
            "hw:eret",
            "kvm:host-dispatch",
            "hw:trap-el2",
            "restore:vgic",
            "kvm:enable-virt",
            "hw:eret",
        ]));
        // Table III verbatim: the VGIC save dominates.
        assert_eq!(trace.total_by_label("save:vgic"), 3250);
        assert_eq!(trace.total_by_label("restore:vgic"), 181);
    }

    #[test]
    fn hypercall_preserves_guest_context_bit_exactly() {
        let mut kvm = KvmArm::new();
        let before = kvm.vm.ctxs[1];
        kvm.hypercall(1);
        // After the round trip the VCPU is back in guest mode with its
        // context re-installed; the saved copy equals the original
        // (modulo the PC, which the trap banked — same value here).
        let core = kvm.machine.topology().guest_core(1);
        assert_eq!(kvm.guest_loaded[core.index()], Some(1));
        let after = ArmGuestContext::capture(&kvm.cpus[core.index()], &kvm.vgics[core.index()]);
        assert_eq!(after.el1, before.el1);
        assert_eq!(after.fp, before.fp);
        assert_eq!(after.timer, before.timer);
        assert_eq!(after.vttbr, before.vttbr);
    }

    #[test]
    fn gicd_trap_costs_more_than_hypercall() {
        let mut kvm = KvmArm::new();
        let hc = kvm.hypercall(0);
        let ict = kvm.gicd_trap(0);
        assert_eq!(ict, Cycles::new(7370), "Table II: KVM ARM ICT");
        assert!(ict > hc);
    }

    #[test]
    fn virq_completion_is_71_cycles_no_trap() {
        let mut kvm = KvmArm::new();
        kvm.machine_mut().enable_event_tracing(None);
        let c = kvm.virq_complete(0);
        assert_eq!(c, Cycles::new(71), "Table II: Virtual IRQ Completion");
        let slices = kvm.machine().event_tracer().unwrap().slices();
        assert!(
            slices.iter().all(|s| s.kind != TraceKind::Trap),
            "no trap occurred"
        );
    }

    #[test]
    fn vm_switch_charges_double_el1_switch() {
        let mut kvm = KvmArm::new();
        let cost = kvm.vm_switch();
        // Table II target 10,387; exact composition checked here.
        let expected = Cycles::new(76) // trap
            + kvm.cost.full_save()
            + Cycles::new(86) // disable
            + Cycles::new(64) // eret to host
            + kvm.cost.kvm_sched
            + Cycles::new(76) // hvc
            + kvm.cost.full_restore()
            + Cycles::new(86)
            + Cycles::new(64);
        assert_eq!(cost, expected);
        // And back:
        let back = kvm.vm_switch();
        assert_eq!(back, expected);
        assert!(!kvm.alt_loaded);
    }

    #[test]
    fn virtual_ipi_crosses_cores() {
        let mut kvm = KvmArm::new();
        kvm.machine_mut().enable_event_tracing(None);
        let lat = kvm.virtual_ipi(0, 1);
        assert!(
            lat > Cycles::new(8000),
            "cross-core path is expensive: {lat}"
        );
        // The physical kick crosses the wire: the target's first step
        // starts one IPI wire latency after the sender's emulation ends.
        let slices = kvm.machine().event_tracer().unwrap().slices();
        let target = kvm.machine().topology().guest_core(1).index() as u8;
        let sent = slices
            .iter()
            .find(|s| s.label == "kvm:gicd-emulate")
            .unwrap();
        let first_rx = slices.iter().find(|s| s.track == target).unwrap();
        assert_eq!(
            first_rx.start,
            sent.start + sent.duration + kvm.cost.ipi_wire.as_u64()
        );
    }

    #[test]
    fn io_latencies_are_asymmetric_in_favour_of_out() {
        let mut kvm = KvmArm::new();
        let out = kvm.io_latency_out(0);
        kvm.machine_mut().barrier();
        let inl = kvm.io_latency_in(0);
        assert!(
            inl > out,
            "Table II: KVM ARM In (13,872) > Out (6,024); got {inl} vs {out}"
        );
    }

    #[test]
    fn vhe_hypercall_is_order_of_magnitude_cheaper() {
        let mut classic = KvmArm::new();
        let mut vhe = KvmArm::new_vhe();
        vhe.machine_mut().enable_event_tracing(None);
        let a = classic.hypercall(0);
        let b = vhe.hypercall(0);
        assert!(
            b.as_u64() * 9 < a.as_u64(),
            "§VI: VHE removes the split-mode cost: {a} vs {b}"
        );
        // And no EL1 state motion appears in the VHE trace.
        let trace = vhe.machine().event_tracer().unwrap();
        assert_eq!(trace.total_by_label("save:vgic"), 0);
        assert_eq!(trace.total_by_label("save:el1-sys"), 0);
    }

    #[test]
    fn transmit_moves_real_bytes_zero_copy() {
        let mut kvm = KvmArm::new();
        let before = kvm.vm.vhost.tx_packets();
        kvm.transmit(0, 1400);
        assert_eq!(kvm.vm.vhost.tx_packets(), before + 1);
        assert_eq!(kvm.nic.tx_count(), 1);
        assert_eq!(kvm.vm.vhost.tx_bytes(), 1400);
    }

    #[test]
    fn receive_targets_vcpu0_by_default_and_round_robins_on_request() {
        let mut kvm = KvmArm::new();
        let (_, v1) = kvm.receive(64, Cycles::ZERO);
        let (_, v2) = kvm.receive(64, Cycles::ZERO);
        assert_eq!((v1, v2), (0, 0), "default: all interrupts to VCPU0");
        kvm.set_virq_policy(VirqPolicy::RoundRobin);
        let vs: Vec<usize> = (0..4).map(|_| kvm.receive(64, Cycles::ZERO).1).collect();
        assert_eq!(vs, vec![0, 1, 2, 3], "round-robin spreads over all VCPUs");
    }

    #[test]
    fn stage2_fault_costs_a_world_switch_plus_allocation() {
        let mut kvm = KvmArm::new();
        let pages_before = kvm.vm.s2.mapped_pages();
        let cost = kvm.stage2_fault(0);
        assert_eq!(kvm.vm.s2.mapped_pages(), pages_before + 1);
        // The fault pays the lazy-FP world switch + dispatch + alloc.
        assert!(cost > Cycles::new(6_000), "{cost}");
        // A VHE host handles the same fault an order of magnitude
        // cheaper — the §VI claim extends to fault handling.
        let mut vhe = KvmArm::new_vhe();
        let vhe_cost = vhe.stage2_fault(0);
        assert!(
            vhe_cost.as_u64() * 3 < cost.as_u64(),
            "{cost} vs {vhe_cost}"
        );
    }

    #[test]
    fn sample_helper_collects_deterministic_iterations() {
        let mut kvm = KvmArm::new();
        let samples = kvm.sample(10, |h| h.hypercall(0));
        let s = samples.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.min, s.max, "deterministic microbenchmark");
        assert_eq!(s.mean_cycles(), Cycles::new(6500));
    }
}
