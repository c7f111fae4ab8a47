//! Exhaustive differential test of the `GICD_SGIR` fan-out.
//!
//! [`Distributor::mmio_write`] reports an SGI write's targets in a fixed
//! [`SgiTargets`](hvx_gic::SgiTargets) set. The reference below is the
//! straightforward fan-out it must agree with: walk the CPUs in order,
//! apply the filter, and push each hit onto a `Vec`. Every CPU count a
//! GICv2 distributor supports (1–8), every filter encoding, every 8-bit
//! target mask and every sender — including senders past the last CPU —
//! must give the same target list and the same pending state.

use hvx_gic::{dist_reg, Distributor, IntId};

/// Reference fan-out: the `(cpu, sgi)` pairs a write targets and, per
/// CPU, whether the SGI is now pending there.
fn reference(
    num_cpus: usize,
    filter: u64,
    mask: u8,
    sender: usize,
    sgi: IntId,
) -> (Vec<(usize, IntId)>, Vec<bool>) {
    let mut targets = Vec::new();
    let mut pending = vec![false; num_cpus];
    for (cpu, pend) in pending.iter_mut().enumerate() {
        let hit = match filter {
            0 => mask & (1 << cpu) != 0,
            1 => cpu != sender,
            _ => cpu == sender,
        };
        if hit {
            targets.push((cpu, sgi));
            *pend = true;
        }
    }
    (targets, pending)
}

#[test]
fn sgir_fan_out_matches_reference_exhaustively() {
    let mut cases = 0u32;
    for num_cpus in 1..=8usize {
        for filter in 0..4u64 {
            for mask in 0..=u8::MAX {
                for sender in 0..8usize {
                    let sgi = IntId::sgi((u64::from(mask) % 16) as u32);
                    let mut g = Distributor::new(num_cpus, 0);
                    for cpu in 0..num_cpus {
                        g.enable(sgi, cpu).unwrap();
                    }
                    let value =
                        (u64::from(sgi.raw()) << 24) | (filter << 28) | (u64::from(mask) << 16);
                    let effect = g.mmio_write(dist_reg::GICD_SGIR, value, sender).unwrap();
                    let (want, pending) = reference(num_cpus, filter, mask, sender, sgi);
                    let case =
                        format!("cpus {num_cpus} filter {filter} mask {mask:#04x} from {sender}");
                    assert_eq!(effect.sgi_targets, want, "{case}");
                    assert_eq!(effect.sgi_targets.len(), want.len(), "{case}");
                    assert_eq!(effect.sgi_targets.is_empty(), want.is_empty(), "{case}");
                    assert!(effect.sgi_targets.iter().eq(want.iter()), "{case}");
                    for (cpu, &p) in pending.iter().enumerate() {
                        let seen = g.highest_pending(cpu).unwrap();
                        assert_eq!(seen, p.then_some(sgi), "{case}: cpu {cpu} pending");
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 8 * 4 * 256 * 8);
}

#[test]
fn non_sgir_writes_target_nothing() {
    let mut g = Distributor::new(8, 32);
    for offset in [
        dist_reg::GICD_CTLR,
        dist_reg::GICD_ISENABLER,
        dist_reg::GICD_ISPENDR,
    ] {
        let effect = g.mmio_write(offset, 1, 0).unwrap();
        assert!(effect.sgi_targets.is_empty());
        assert_eq!(effect.sgi_targets, Vec::new());
        assert_eq!(format!("{:?}", effect.sgi_targets), "[]");
    }
}
