//! Trace audits: every cycle a microbenchmark reports must be accounted
//! for by event-tracer slices, and every label must come from the
//! documented vocabulary (catching typo'd or undocumented charge sites).

use hvx::core::{Hypervisor, KvmArm, KvmX86, XenArm, XenX86};
use hvx::engine::Cycles;
use std::collections::BTreeSet;

/// The full label vocabulary of the hypervisor models. Namespaces:
/// `hw:` hardware transitions, `save:`/`restore:` register classes,
/// `gic:` interrupt controller, `kvm:`/`xen:`/`vhe:`/`x86:` software
/// paths, `guest:`/`host:`/`native:` execution contexts, `nic:`/`disk:`
/// devices.
const VOCABULARY: &[&str] = &[
    "hw:trap-el2",
    "hw:eret",
    "hw:vmexit",
    "hw:vmentry",
    "save:gp",
    "save:fp",
    "save:el1-sys",
    "save:vgic",
    "save:timer",
    "save:el2-config",
    "save:el2-vm",
    "restore:gp",
    "restore:fp",
    "restore:el1-sys",
    "restore:vgic",
    "restore:timer",
    "restore:el2-config",
    "restore:el2-vm",
    "vhe:frame-save",
    "vhe:frame-restore",
    "xen:frame-save",
    "xen:frame-restore",
    "gic:phys-ack",
    "gic:vif-ack",
    "gic:vif-eoi",
    "gic:sgi-send",
    "gic:phys-access",
    "gic:phys-eoi",
    "kvm:disable-virt",
    "kvm:enable-virt",
    "kvm:host-dispatch",
    "kvm:mmio-decode",
    "kvm:gicd-emulate",
    "kvm:vgic-inject",
    "kvm:sched",
    "kvm:ioeventfd",
    "kvm:irqfd-signal",
    "kvm:vhost-wake",
    "kvm:io-in-host",
    "kvm:vhost-tx",
    "kvm:vhost-rx",
    "kvm:vhost-blk",
    "kvm:page-alloc",
    "kvm:x86-dispatch",
    "kvm:x86-inject",
    "kvm:x86-ioeventfd",
    "kvm:x86-irqfd",
    "kvm:x86-io-in-host",
    "kvm:x86-sched",
    "kvm:vhost-signal",
    "xen:dispatch",
    "xen:mmio-decode",
    "xen:gicd-emulate",
    "xen:vgic-inject",
    "xen:sched",
    "xen:evtchn-send",
    "xen:event-upcall",
    "xen:wake-blocked",
    "xen:netback-tx",
    "xen:netback-rx",
    "xen:grant-copy",
    "xen:blkback",
    "xen:page-alloc",
    "xen:x86-dispatch",
    "xen:x86-inject",
    "xen:x86-sched",
    "xen:x86-wake-blocked",
    "xen:x86-wake-domu",
    "x86:apic-emulate",
    "x86:apic-icr-emulate",
    "x86:apic-eoi-emulate",
    "x86:vapic-eoi",
    "x86:mmio-decode",
    "x86:page-alloc",
    "guest:compute",
    "guest:net-stack-tx",
    "guest:net-stack-rx",
    "host:irq",
    "host:net-stack-tx",
    "host:net-stack-rx",
    "host:request-rx",
    "host:request-tx",
    "native:compute",
    "native:net-stack-tx",
    "native:net-stack-rx",
    "nic:dma",
    "disk:service",
];

fn drive_everything(hv: &mut dyn Hypervisor) {
    hv.hypercall(0);
    hv.gicd_trap(1);
    hv.virtual_ipi(0, 2);
    hv.virq_complete(0);
    hv.vm_switch();
    hv.io_latency_out(0);
    hv.io_latency_in(1);
    hv.transmit(0, 700);
    hv.receive(700, Cycles::ZERO);
    hv.deliver_virq(2);
    hv.deliver_virq_blocked(3);
    hv.receive_burst(4, 1024, Cycles::ZERO);
    hv.transmit_burst(0, 4, 1024);
}

#[test]
fn every_charged_label_is_in_the_vocabulary() {
    let vocab: BTreeSet<&str> = VOCABULARY.iter().copied().collect();
    let mut hvs: Vec<Box<dyn Hypervisor>> = vec![
        Box::new(KvmArm::new()),
        Box::new(KvmArm::new_vhe()),
        Box::new(XenArm::new()),
        Box::new(KvmX86::new()),
        Box::new(XenX86::new()),
    ];
    for hv in &mut hvs {
        let kind = hv.kind();
        hv.machine_mut().enable_event_tracing(None);
        drive_everything(hv.as_mut());
        for label in hv.machine().event_tracer().unwrap().labels() {
            assert!(vocab.contains(label), "{kind}: undocumented label {label}");
        }
    }
}

#[test]
fn same_core_microbenchmarks_decompose_exactly() {
    // For operations confined to the measuring core, the sum of its
    // slices equals the reported cost — no unaccounted cycles.
    let cases: Vec<(&str, Box<dyn Hypervisor>)> = vec![
        ("kvm-arm", Box::new(KvmArm::new())),
        ("xen-arm", Box::new(XenArm::new())),
        ("kvm-x86", Box::new(KvmX86::new())),
        ("xen-x86", Box::new(XenX86::new())),
    ];
    for (name, mut hv) in cases {
        for op in 0..3 {
            hv.machine_mut().barrier();
            hv.machine_mut().enable_event_tracing(None);
            let cost = match op {
                0 => hv.hypercall(0),
                1 => hv.gicd_trap(0),
                _ => hv.virq_complete(0),
            };
            let track = hv.machine().topology().guest_core(0).index() as u8;
            let accounted = Cycles::new(
                hv.machine_mut()
                    .take_event_tracer()
                    .unwrap()
                    .slices()
                    .iter()
                    .filter(|s| s.track == track)
                    .map(|s| s.duration)
                    .sum(),
            );
            assert_eq!(
                accounted, cost,
                "{name} op {op}: {accounted} accounted vs {cost} reported"
            );
        }
    }
}

#[test]
fn cross_core_latencies_are_covered_by_trace_span() {
    // For cross-core operations, the reported latency never exceeds the
    // trace's global time span (nothing happens off the books).
    let mut kvm = KvmArm::new();
    kvm.machine_mut().enable_event_tracing(None);
    let lat = kvm.virtual_ipi(0, 1);
    let slices = kvm.machine().event_tracer().unwrap().slices();
    let start = slices.iter().map(|s| s.start).min().unwrap();
    let end = slices.iter().map(|s| s.start + s.duration).max().unwrap();
    let span = Cycles::new(end - start);
    assert!(span >= lat, "span {span} < latency {lat}");
}

#[test]
fn vocabulary_has_no_unused_entries_for_arm_paths() {
    // Conversely: the ARM hypervisors together exercise most of their
    // namespace (guards against dead vocabulary rotting in the list).
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut kvm = KvmArm::new();
    let mut xen = XenArm::new();
    kvm.machine_mut().enable_event_tracing(None);
    xen.machine_mut().enable_event_tracing(None);
    drive_everything(&mut kvm);
    drive_everything(&mut xen);
    kvm.stage2_fault(0);
    xen.stage2_fault(0);
    let kvm_trace = kvm.machine().event_tracer().unwrap();
    let xen_trace = xen.machine().event_tracer().unwrap();
    for l in kvm_trace.labels().into_iter().chain(xen_trace.labels()) {
        seen.insert(l.to_string());
    }
    // Both models carry work across cores: some causal chain hops
    // between tracks (a wire or an IPI in flight).
    for (name, trace) in [("kvm-arm", kvm_trace), ("xen-arm", xen_trace)] {
        assert!(
            trace.chains().iter().any(|c| c.track_span() > 1),
            "{name}: no cross-core chain"
        );
    }
    for must_see in [
        "save:vgic",
        "xen:grant-copy",
        "xen:wake-blocked",
        "kvm:page-alloc",
        "xen:page-alloc",
        "gic:vif-eoi",
    ] {
        assert!(seen.contains(must_see), "never charged: {must_see}");
    }
}
