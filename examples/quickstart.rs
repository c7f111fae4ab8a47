//! Quickstart: build the two ARM hypervisors, run a hypercall on each,
//! and show the split-mode transition trace that explains the 17x gap.
//!
//! Run with: `cargo run --example quickstart`

use hvx::engine::timeline;
use hvx::{HvKind, SimBuilder};

fn main() {
    let traced = |kind| SimBuilder::new(kind).event_tracing(true).build().unwrap();
    let mut kvm = traced(HvKind::KvmArm);
    let mut xen = traced(HvKind::XenArm);

    let k = kvm.hypercall(0);
    let x = xen.hypercall(0);
    println!("Hypercall round trip (Table II, first row):");
    println!("  KVM ARM (Type 2, split-mode): {k} cycles");
    println!("  Xen ARM (Type 1, EL2):        {x} cycles");
    println!("  ratio: {:.1}x\n", k.as_f64() / x.as_f64());

    println!("Why: the KVM ARM transition trace (every step the world switch ran):");
    for ev in kvm.machine().event_tracer().unwrap().slices() {
        if ev.duration == 0 {
            continue;
        }
        println!(
            "  {:>7} cycles  [{:^9}] {}",
            ev.duration,
            ev.kind.to_string(),
            ev.label
        );
    }
    println!("\nThe VGIC read-back (save:vgic) alone costs more than 8 whole Xen hypercalls.");

    println!("Xen's trace, for contrast:");
    for ev in xen.machine().event_tracer().unwrap().slices() {
        println!(
            "  {:>7} cycles  [{:^9}] {}",
            ev.duration,
            ev.kind.to_string(),
            ev.label
        );
    }

    // A cross-core path, rendered as a per-core timeline: the virtual
    // IPI of Table II, with the sender's world switch, the wire gap, and
    // the receiver's injection visible as lanes.
    let mut kvm2 = traced(HvKind::KvmArm);
    kvm2.virtual_ipi(0, 2);
    let slices = kvm2.machine().event_tracer().unwrap().slices();
    println!("\nVirtual IPI (VCPU0 -> VCPU2) on KVM ARM, per-core timeline:");
    print!(
        "{}",
        timeline::render(&slices, timeline::TimelineOptions::default())
    );
}
