//! Property-based tests on the core data structures and invariants,
//! exercised through the public API.

use hvx::arch::{resolve, ArchVersion, ArmCpu, ExceptionLevel, PhysReg, SysReg, TrapCause};
use hvx::core::sched::CreditScheduler;
use hvx::engine::{timeline, Cycles, EventQueue, Histogram, Samples};
use hvx::gic::{Distributor, IntId, VgicCpuInterface, NUM_LRS};
use hvx::mem::{Access, DomId, GrantTable, Ipa, Pa, PhysMemory, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx::vio::{Descriptor, Virtqueue};
use proptest::prelude::*;

proptest! {
    // ------------------------------------------------------------------
    // Engine
    // ------------------------------------------------------------------

    /// The event queue pops in nondecreasing time order regardless of
    /// insertion order, and FIFO among equal instants.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycles::new(*t), i);
        }
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((when, idx)) = q.pop() {
            if let Some((lw, li)) = last {
                prop_assert!(when >= lw);
                if when == lw {
                    prop_assert!(idx > li, "FIFO among equal instants");
                }
            }
            prop_assert_eq!(Cycles::new(times[idx]), when);
            last = Some((when, idx));
        }
    }

    /// The flat four-ary heap stays a stable priority queue at scale:
    /// 10,000 schedules over a narrow time range (forcing heavy instant
    /// collisions) pop in nondecreasing time order and FIFO among equals.
    #[test]
    fn flat_heap_is_fifo_for_ten_thousand_schedules(
        times in prop::collection::vec(0u64..64, 10_000..10_001),
    ) {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycles::new(*t), i);
        }
        prop_assert_eq!(q.len(), times.len());
        let mut popped = 0usize;
        let mut last: Option<(Cycles, usize)> = None;
        while let Some((when, idx)) = q.pop() {
            if let Some((lw, li)) = last {
                prop_assert!(when >= lw, "time order violated");
                if when == lw {
                    prop_assert!(idx > li, "FIFO among equal instants");
                }
            }
            prop_assert_eq!(Cycles::new(times[idx]), when);
            last = Some((when, idx));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Summary statistics are order-invariant and bounded by min/max.
    #[test]
    fn summary_is_permutation_invariant(mut vals in prop::collection::vec(0u64..1_000_000, 1..100)) {
        let s1: Samples = vals.iter().copied().map(Cycles::new).collect();
        vals.reverse();
        let s2: Samples = vals.iter().copied().map(Cycles::new).collect();
        let (a, b) = (s1.summary(), s2.summary());
        prop_assert_eq!(a.min, b.min);
        prop_assert_eq!(a.max, b.max);
        prop_assert!((a.mean - b.mean).abs() < 1e-6);
        prop_assert!(a.min.as_f64() <= a.mean && a.mean <= a.max.as_f64());
        prop_assert!(a.min <= a.median && a.median <= a.max);
    }

    // ------------------------------------------------------------------
    // Stage-2 translation
    // ------------------------------------------------------------------

    /// Any mapped page translates to the mapped frame with the offset
    /// preserved; unmapping restores the fault.
    #[test]
    fn stage2_map_translate_unmap(
        pages in prop::collection::btree_set(0u64..1u64 << 24, 1..40),
        offset in 0u64..PAGE_SIZE,
    ) {
        let mut s2 = Stage2Tables::new();
        let pages: Vec<u64> = pages.into_iter().collect();
        for (i, p) in pages.iter().enumerate() {
            let ipa = Ipa::new(p * PAGE_SIZE);
            let pa = Pa::new((0x10_0000 + i as u64) * PAGE_SIZE);
            s2.map_page(ipa, pa, S2Perms::RW).unwrap();
        }
        prop_assert_eq!(s2.mapped_pages(), pages.len() as u64);
        for (i, p) in pages.iter().enumerate() {
            let ipa = Ipa::new(p * PAGE_SIZE + offset);
            let t = s2.translate(ipa, Access::Read).unwrap();
            prop_assert_eq!(t.pa.value(), (0x10_0000 + i as u64) * PAGE_SIZE + offset);
            prop_assert!(s2.translate(ipa, Access::Exec).is_err(), "RW forbids exec");
        }
        for p in &pages {
            s2.unmap(Ipa::new(p * PAGE_SIZE)).unwrap();
        }
        prop_assert_eq!(s2.mapped_pages(), 0);
        for p in &pages {
            prop_assert!(s2.translate(Ipa::new(p * PAGE_SIZE), Access::Read).is_err());
        }
    }

    /// Physical memory read-back equals what was written, for arbitrary
    /// (address, bytes) writes within bounds.
    #[test]
    fn phys_memory_write_read_round_trip(
        writes in prop::collection::vec((0u64..1 << 20, prop::collection::vec(any::<u8>(), 1..300)), 1..20)
    ) {
        let mut mem = PhysMemory::new(2 << 20);
        // Apply in order; later writes may overlap earlier ones, so
        // replay expectations on a mirror buffer.
        let mut mirror = vec![0u8; 2 << 20];
        for (addr, data) in &writes {
            mem.write(Pa::new(*addr), data).unwrap();
            mirror[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        for (addr, data) in &writes {
            let mut buf = vec![0u8; data.len()];
            mem.read(Pa::new(*addr), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &mirror[*addr as usize..*addr as usize + data.len()]);
        }
    }

    // ------------------------------------------------------------------
    // GIC
    // ------------------------------------------------------------------

    /// The distributor never delivers a disabled or inactive interrupt,
    /// and every acknowledged interrupt was raised and enabled.
    #[test]
    fn distributor_only_delivers_enabled_pending(
        raised in prop::collection::btree_set(0u32..32, 0..20),
        enabled in prop::collection::btree_set(0u32..32, 0..20),
    ) {
        let mut gic = Distributor::new(4, 64);
        for spi in &enabled {
            gic.enable(IntId::spi(*spi), 0).unwrap();
        }
        for spi in &raised {
            gic.raise(IntId::spi(*spi), 0).unwrap();
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some(intid) = gic.acknowledge(0).unwrap() {
            let spi = intid.raw() - 32;
            prop_assert!(raised.contains(&spi) && enabled.contains(&spi));
            prop_assert!(seen.insert(spi), "no double delivery");
            gic.complete(0, intid).unwrap();
        }
        let expected: std::collections::BTreeSet<u32> =
            raised.intersection(&enabled).copied().collect();
        prop_assert_eq!(seen, expected, "everything eligible was delivered");
    }

    /// The virtual interface conserves interrupts: everything injected
    /// is eventually either listed, queued in overflow, or completed;
    /// ack/EOI pairs drain it to idle.
    #[test]
    fn vgic_conserves_interrupts(virqs in prop::collection::btree_set(32u32..200, 1..12)) {
        let mut vgic = VgicCpuInterface::new();
        let mut listed = 0usize;
        for v in &virqs {
            if vgic.inject(*v, 0x80).is_ok() {
                listed += 1; // otherwise overflowed to the software queue
            }
        }
        prop_assert_eq!(vgic.occupied(), listed.min(NUM_LRS));
        prop_assert_eq!(vgic.occupied() + vgic.overflow_len(), virqs.len());
        // Drain: ack+eoi everything, refilling from overflow.
        let mut completed = std::collections::BTreeSet::new();
        loop {
            while let Some(v) = vgic.guest_ack() {
                vgic.guest_eoi(v).unwrap();
                prop_assert!(completed.insert(v));
            }
            if vgic.refill_from_overflow() == 0 {
                break;
            }
        }
        prop_assert!(vgic.is_idle());
        prop_assert_eq!(completed, virqs);
    }

    // ------------------------------------------------------------------
    // Virtqueue
    // ------------------------------------------------------------------

    /// Descriptors are conserved: free + in-flight + completed always
    /// equals the queue size, across arbitrary add/consume interleavings.
    #[test]
    fn virtqueue_conserves_descriptors(ops in prop::collection::vec(any::<bool>(), 1..100)) {
        let mut vq = Virtqueue::new(16).unwrap();
        let mut in_flight = Vec::new();
        for add in ops {
            if add {
                let _ = vq.add_chain(&[Descriptor {
                    addr: Ipa::new(0x1000),
                    len: 64,
                    device_writes: false,
                }]);
            } else if let Some(chain) = vq.pop_avail() {
                in_flight.push(chain);
            } else if let Some(chain) = in_flight.pop() {
                vq.push_used(chain, 0).unwrap();
                let _ = vq.take_used().unwrap();
            }
            let held: usize = in_flight.iter().map(|c| c.buffers.len()).sum();
            prop_assert_eq!(
                vq.free_descriptors() + vq.avail_len() + vq.used_len() + held,
                16
            );
        }
    }

    // ------------------------------------------------------------------
    // Grant table
    // ------------------------------------------------------------------

    /// A grant can never be revoked while mapped, and map/unmap counts
    /// balance before revocation succeeds.
    #[test]
    fn grants_enforce_isolation(map_depth in 1u32..6) {
        let mut gt = GrantTable::new(8);
        let gref = gt.grant_access(DomId::DOM0, Pa::new(0x4000), false).unwrap();
        for _ in 0..map_depth {
            gt.map(gref, DomId::DOM0).unwrap();
        }
        for remaining in (0..map_depth).rev() {
            prop_assert!(gt.end_access(gref).is_err(), "still mapped");
            gt.unmap(gref, DomId::DOM0).unwrap();
            if remaining == 0 {
                prop_assert!(gt.end_access(gref).is_ok());
            }
        }
    }

    // ------------------------------------------------------------------
    // VHE redirection
    // ------------------------------------------------------------------

    /// Register values written through redirected encodings are read
    /// back through the physical register and never leak into the other
    /// bank.
    #[test]
    fn vhe_redirection_never_crosses_banks(value in any::<u64>()) {
        let mut cpu = ArmCpu::new(ArchVersion::V8_1);
        cpu.enable_vhe().unwrap();
        for reg in [SysReg::SctlrEl1, SysReg::Ttbr0El1, SysReg::Ttbr1El1, SysReg::VbarEl1] {
            let mut cpu = cpu.clone();
            // Written at EL2 -> lands in the EL2 register.
            cpu.write_sysreg(reg, value).unwrap();
            let phys = resolve(reg, ExceptionLevel::El2, true, true).unwrap();
            prop_assert!(matches!(
                phys,
                PhysReg::SctlrEl2 | PhysReg::Ttbr0El2 | PhysReg::Ttbr1El2 | PhysReg::VbarEl2
            ));
            prop_assert_eq!(cpu.read_sysreg(reg).unwrap(), value);
            // The guest's EL1 register is untouched (readable via _EL12).
            let el12 = match reg {
                SysReg::SctlrEl1 => SysReg::SctlrEl12,
                SysReg::Ttbr0El1 => SysReg::Ttbr0El12,
                SysReg::Ttbr1El1 => SysReg::Ttbr1El12,
                _ => SysReg::VbarEl12,
            };
            prop_assert_eq!(cpu.read_sysreg(el12).unwrap(), 0);
        }
    }

    /// Differential test: the radix-tree Stage-2 walker agrees with a
    /// flat reference model across random page maps, block maps, unmaps,
    /// and translations.
    #[test]
    fn stage2_walker_matches_reference_model(
        ops in prop::collection::vec((0u8..4, 0u64..256), 1..120)
    ) {
        use hvx::mem::BLOCK_SIZE;
        let mut s2 = Stage2Tables::new();
        // Reference: page-number -> frame base.
        let mut reference: std::collections::BTreeMap<u64, u64> =
            std::collections::BTreeMap::new();
        for (op, n) in ops {
            match op {
                0 => {
                    // Map a page at page-number n.
                    let ipa = Ipa::new(n * PAGE_SIZE);
                    let pa = Pa::new((0x9_0000 + n) * PAGE_SIZE);
                    let ours = s2.map_page(ipa, pa, S2Perms::RWX).is_ok();
                    let theirs = !reference.contains_key(&n);
                    prop_assert_eq!(ours, theirs, "map_page divergence at {}", n);
                    if ours {
                        reference.insert(n, pa.value());
                    }
                }
                1 => {
                    // Map a block at a block-aligned page number.
                    let block_page = (n / 512) * 512;
                    let ipa = Ipa::new(block_page * PAGE_SIZE);
                    let pa = Pa::new(((n / 512) + 1) * BLOCK_SIZE);
                    let theirs = (block_page..block_page + 512)
                        .all(|p| !reference.contains_key(&p));
                    let ours = s2.map_block(ipa, pa, S2Perms::RWX).is_ok();
                    prop_assert_eq!(ours, theirs, "map_block divergence at {}", block_page);
                    if ours {
                        for (i, p) in (block_page..block_page + 512).enumerate() {
                            reference.insert(p, pa.value() + i as u64 * PAGE_SIZE);
                        }
                    }
                }
                2 => {
                    // Unmap whatever covers page n. The radix tree unmaps
                    // whole leaves: a page unmaps one page, a block all
                    // 512 — mirror that in the reference.
                    let ipa = Ipa::new(n * PAGE_SIZE);
                    let covered = reference.contains_key(&n);
                    let was_block = s2
                        .translate(ipa, Access::Read)
                        .map(|t| t.block)
                        .unwrap_or(false);
                    let ours = s2.unmap(ipa).is_ok();
                    prop_assert_eq!(ours, covered, "unmap divergence at {}", n);
                    if ours {
                        if was_block {
                            let base = (n / 512) * 512;
                            for p in base..base + 512 {
                                reference.remove(&p);
                            }
                        } else {
                            reference.remove(&n);
                        }
                    }
                }
                _ => {
                    // Translate page n.
                    let ipa = Ipa::new(n * PAGE_SIZE + 0x123);
                    match (s2.translate(ipa, Access::Read), reference.get(&n)) {
                        (Ok(t), Some(base)) => {
                            prop_assert_eq!(t.pa.value(), base + 0x123);
                        }
                        (Err(_), None) => {}
                        (ours, theirs) => {
                            prop_assert!(false, "translate divergence at {}: {:?} vs {:?}", n, ours, theirs);
                        }
                    }
                }
            }
            prop_assert_eq!(s2.mapped_pages(), reference.len() as u64);
        }
    }

    /// Timeline rendering never panics and always emits one lane per
    /// active core, for arbitrary traces.
    #[test]
    fn timeline_renders_arbitrary_traces(
        events in prop::collection::vec((0u16..8, 0u64..10_000), 1..60),
        width in 8usize..120,
    ) {
        use hvx::engine::{Machine, Topology, TraceKind};
        let mut m = Machine::new(Topology::paper_default());
        m.enable_event_tracing(None);
        for (core, dur) in &events {
            m.charge(
                hvx::engine::CoreId::new(*core),
                "work",
                TraceKind::Guest,
                Cycles::new(*dur),
            );
        }
        let art = timeline::render(
            &m.take_event_tracer().unwrap().slices(),
            timeline::TimelineOptions { width, min_duration: Cycles::ZERO },
        );
        let cores: std::collections::BTreeSet<u16> =
            events.iter().map(|(c, _)| *c).collect();
        for c in cores {
            prop_assert!(art.contains(&format!("pcpu{c}")), "{art}");
        }
    }

    /// Histogram percentiles are monotone in the percentile and bound
    /// the mean's bucket.
    #[test]
    fn histogram_percentiles_are_monotone(vals in prop::collection::vec(1u64..1u64 << 40, 1..200)) {
        let mut h = Histogram::new();
        for v in &vals {
            h.record(Cycles::new(*v));
        }
        prop_assert_eq!(h.count(), vals.len() as u64);
        let mut last = Cycles::ZERO;
        for pct in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let p = h.approx_percentile(pct);
            prop_assert!(p >= last, "percentiles monotone");
            last = p;
        }
        // The max sample is within the top bucket bound.
        let max = vals.iter().max().unwrap();
        prop_assert!(h.approx_percentile(100.0).as_u64() >= *max / 2);
    }

    /// Equal-weight CPU-bound VCPUs get equal schedule shares under the
    /// credit scheduler (fairness property).
    #[test]
    fn credit_scheduler_is_fair_for_equal_weights(n in 2usize..6, rounds in 10u32..200) {
        let mut s = CreditScheduler::new();
        for id in 0..n {
            s.add_vcpu(id, 256);
        }
        s.account();
        let mut runs = vec![0u32; n];
        for i in 0..rounds {
            if i % 30 == 0 {
                s.account();
            }
            let id = s.pick().expect("someone is runnable");
            runs[id] += 1;
            s.charge(id, 5);
            s.yield_current();
        }
        let max = *runs.iter().max().unwrap();
        let min = *runs.iter().min().unwrap();
        prop_assert!(max - min <= 1, "fair to within one slice: {runs:?}");
    }

    /// Exception entry and return restore PC and PSTATE exactly, from
    /// any starting PC/PSTATE NZCV bits.
    #[test]
    fn trap_eret_round_trip(pc in any::<u64>(), nzcv in 0u64..16) {
        let mut cpu = ArmCpu::new(ArchVersion::V8_0);
        cpu.el2.hcr_el2 = hvx::arch::HcrEl2::guest_running();
        cpu.start_at(ExceptionLevel::El1);
        cpu.gp.pc = pc;
        cpu.gp.pstate |= nzcv << 28;
        let pstate_before = cpu.gp.pstate;
        cpu.take_exception(TrapCause::HYPERCALL);
        prop_assert_eq!(cpu.current_el(), ExceptionLevel::El2);
        cpu.eret().unwrap();
        prop_assert_eq!(cpu.current_el(), ExceptionLevel::El1);
        prop_assert_eq!(cpu.gp.pc, pc);
        prop_assert_eq!(cpu.gp.pstate, pstate_before);
    }
}
