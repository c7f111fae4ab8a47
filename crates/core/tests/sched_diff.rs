//! Differential tests of the vCPU schedulers against reference
//! implementations.
//!
//! The references below are the straightforward runqueues the id-indexed
//! schedulers must agree with: a credit scheduler that keeps its FIFO
//! order in a `VecDeque` and finds each vCPU by linear search, and a CFS
//! runqueue that scans linearly. Random operation sequences over 1–32
//! vCPUs with mixed weights — registered densely from 0, densely out of
//! order, or sparsely — must give identical return values and identical
//! per-vCPU state after every operation. `CreditVcpuSched`'s cycle
//! accounting is checked the same way against a conversion that divides
//! on every charge, with the credit boundaries pinned case by case.

use hvx_core::sched::{
    CfsScheduler, CreditPriority, CreditScheduler, CreditVcpuSched, VcpuScheduler,
    CREDITS_PER_PERIOD, CYCLES_PER_CREDIT, NICE0_WEIGHT, PREEMPT_GRANULARITY, WAKEUP_BONUS,
};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct RefCreditEntry {
    id: usize,
    weight: u32,
    credit: i64,
    priority: CreditPriority,
    runnable: bool,
}

/// Reference credit runqueue: FIFO order in a queue of ids, linear
/// lookup by id.
#[derive(Debug, Default)]
struct RefCredit {
    entries: Vec<RefCreditEntry>,
    queue: VecDeque<usize>,
    current: Option<usize>,
    switches: u64,
}

impl RefCredit {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.entries.push(RefCreditEntry {
            id,
            weight,
            credit: 0,
            priority: CreditPriority::Under,
            runnable: true,
        });
        self.queue.push_back(id);
    }

    fn entry(&self, id: usize) -> &RefCreditEntry {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .expect("registered")
    }

    fn entry_mut(&mut self, id: usize) -> &mut RefCreditEntry {
        self.entries
            .iter_mut()
            .find(|e| e.id == id)
            .expect("registered")
    }

    fn pick(&mut self) -> Option<usize> {
        let mut best: Option<(CreditPriority, usize, usize)> = None;
        for (pos, id) in self.queue.iter().enumerate() {
            let e = self.entry(*id);
            if !e.runnable {
                continue;
            }
            let key = (e.priority, pos);
            match best {
                Some((bp, bpos, _)) if (bp, bpos) <= key => {}
                _ => best = Some((e.priority, pos, *id)),
            }
        }
        let picked = best.map(|(_, _, id)| id);
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    fn charge(&mut self, id: usize, credits: i64) {
        let e = self.entry_mut(id);
        e.credit -= credits;
        e.priority = if e.credit > 0 {
            CreditPriority::Under
        } else {
            CreditPriority::Over
        };
    }

    fn block(&mut self, id: usize) {
        self.entry_mut(id).runnable = false;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    fn wake(&mut self, id: usize) -> bool {
        let current_prio = self.current.map(|c| self.entry(c).priority);
        let e = self.entry_mut(id);
        if e.runnable {
            return false;
        }
        e.runnable = true;
        if e.credit > 0 {
            e.priority = CreditPriority::Boost;
        }
        let woken_prio = e.priority;
        match current_prio {
            None => true,
            Some(cp) => woken_prio < cp,
        }
    }

    fn yield_current(&mut self) {
        if let Some(id) = self.current.take() {
            if let Some(pos) = self.queue.iter().position(|q| *q == id) {
                self.queue.remove(pos);
                self.queue.push_back(id);
            }
        }
    }

    fn account(&mut self) {
        let total_weight: u64 = self.entries.iter().map(|e| u64::from(e.weight)).sum();
        if total_weight == 0 {
            return;
        }
        for e in &mut self.entries {
            let share = CREDITS_PER_PERIOD * i64::from(e.weight) / total_weight as i64;
            e.credit = (e.credit + share).min(CREDITS_PER_PERIOD);
            if e.priority != CreditPriority::Boost {
                e.priority = if e.credit > 0 {
                    CreditPriority::Under
                } else {
                    CreditPriority::Over
                };
            }
        }
    }
}

/// Reference for `CreditVcpuSched`'s cycle accounting: every charge
/// divides its running total into whole credits and a remainder.
#[derive(Debug, Default)]
struct RefCreditCycles {
    sched: RefCredit,
    acc: Vec<u64>,
}

impl RefCreditCycles {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.sched.add_vcpu(id, weight);
        if self.acc.len() <= id {
            self.acc.resize(id + 1, 0);
        }
        self.sched.account();
    }

    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let total = self.acc[id] + cycles;
        self.acc[id] = total % CYCLES_PER_CREDIT;
        let credits = (total / CYCLES_PER_CREDIT) as i64;
        if credits > 0 {
            self.sched.charge(id, credits);
        }
    }
}

/// A two-vCPU credit runqueue and its reference with vCPU 0 woken into
/// BOOST, so a charge that crosses no credit boundary visibly keeps it.
fn boosted_credit_pair() -> (CreditVcpuSched, RefCreditCycles) {
    let mut fast = CreditVcpuSched::new();
    let mut reference = RefCreditCycles::default();
    for id in 0..2 {
        fast.add_vcpu(id, 256);
        reference.add_vcpu(id, 256);
    }
    fast.block(0);
    reference.sched.block(0);
    assert!(fast.wake(0));
    assert!(reference.sched.wake(0));
    assert_eq!(fast.inner().priority_of(0), CreditPriority::Boost);
    (fast, reference)
}

/// Charges vCPU 0 each of `cycles` in turn on both runqueues, checking
/// credit and priority after every charge; returns the fast one.
fn charge_both(cycles: &[u64]) -> CreditVcpuSched {
    let (mut fast, mut reference) = boosted_credit_pair();
    for (step, &c) in cycles.iter().enumerate() {
        fast.charge_cycles(0, c);
        reference.charge_cycles(0, c);
        for v in 0..2 {
            let want = reference.sched.entry(v);
            assert_eq!(
                fast.inner().credit_of(v),
                want.credit,
                "{cycles:?} step {step} vcpu {v}"
            );
            assert_eq!(
                fast.inner().priority_of(v),
                want.priority,
                "{cycles:?} step {step} vcpu {v}"
            );
        }
    }
    fast
}

#[test]
fn zero_cycle_charges_change_nothing() {
    let credit = CREDITS_PER_PERIOD; // vCPU 0 starts at the cap
    let s = charge_both(&[0, 0, 0]);
    assert_eq!(s.inner().credit_of(0), credit);
    assert_eq!(s.inner().priority_of(0), CreditPriority::Boost);
}

#[test]
fn exactly_one_credit_of_cycles_charges_one_credit() {
    assert_eq!(CYCLES_PER_CREDIT, 240_000);
    let credit = CREDITS_PER_PERIOD; // vCPU 0 starts at the cap
    let s = charge_both(&[CYCLES_PER_CREDIT - 1]);
    assert_eq!(
        s.inner().credit_of(0),
        credit,
        "one cycle short: no credit yet"
    );
    assert_eq!(s.inner().priority_of(0), CreditPriority::Boost);
    let s = charge_both(&[CYCLES_PER_CREDIT]);
    assert_eq!(s.inner().credit_of(0), credit - 1);
    assert_eq!(s.inner().priority_of(0), CreditPriority::Under);
    // The boundary left no remainder: one cycle short of the next.
    let s = charge_both(&[CYCLES_PER_CREDIT, CYCLES_PER_CREDIT - 1]);
    assert_eq!(s.inner().credit_of(0), credit - 1);
}

#[test]
fn multi_credit_charges_charge_every_whole_credit() {
    let credit = CREDITS_PER_PERIOD; // vCPU 0 starts at the cap
    let s = charge_both(&[4 * CYCLES_PER_CREDIT + 40_000]);
    assert_eq!(s.inner().credit_of(0), credit - 4);
    // The 40,000-cycle remainder carries: 200,000 more is one credit.
    let s = charge_both(&[4 * CYCLES_PER_CREDIT + 40_000, 200_000]);
    assert_eq!(s.inner().credit_of(0), credit - 5);
    // A charge past the whole account drops the vCPU to OVER.
    let s = charge_both(&[(credit as u64 + 3) * CYCLES_PER_CREDIT + 7]);
    assert_eq!(s.inner().credit_of(0), -3);
    assert_eq!(s.inner().priority_of(0), CreditPriority::Over);
}

#[test]
fn remainders_roll_over_across_charges() {
    let credit = CREDITS_PER_PERIOD; // vCPU 0 starts at the cap
    let s = charge_both(&[CYCLES_PER_CREDIT - 1, 1]);
    assert_eq!(s.inner().credit_of(0), credit - 1);
    let s = charge_both(&[200_000, 200_000, 80_000]);
    assert_eq!(
        s.inner().credit_of(0),
        credit - 2,
        "400,000 then 480,000 cycles"
    );
    let s = charge_both(&[CYCLES_PER_CREDIT - 1, CYCLES_PER_CREDIT + 1]);
    assert_eq!(s.inner().credit_of(0), credit - 2);
    // Many sub-credit charges cost exactly what one big one does.
    let small = charge_both(&[30_000; 17]);
    let big = charge_both(&[17 * 30_000]);
    assert_eq!(small.inner().credit_of(0), big.inner().credit_of(0));
    assert_eq!(small.inner().credit_of(0), credit - 2);
}

#[derive(Debug, Clone)]
struct RefCfsEntry {
    id: usize,
    weight: u32,
    vruntime: u64,
    runnable: bool,
}

/// Reference CFS runqueue: linear scans for lookup and pick.
#[derive(Debug, Default)]
struct RefCfs {
    entries: Vec<RefCfsEntry>,
    current: Option<usize>,
    switches: u64,
    min_vruntime: u64,
}

impl RefCfs {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.entries.push(RefCfsEntry {
            id,
            weight,
            vruntime: self.min_vruntime,
            runnable: true,
        });
    }

    fn entry(&self, id: usize) -> &RefCfsEntry {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .expect("registered")
    }

    fn entry_mut(&mut self, id: usize) -> &mut RefCfsEntry {
        self.entries
            .iter_mut()
            .find(|e| e.id == id)
            .expect("registered")
    }

    fn pick(&mut self) -> Option<usize> {
        let picked = self
            .entries
            .iter()
            .filter(|e| e.runnable)
            .min_by_key(|e| (e.vruntime, e.id))
            .map(|e| e.id);
        if let Some(id) = picked {
            let v = self.entry(id).vruntime;
            self.min_vruntime = self.min_vruntime.max(v);
        }
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let e = self.entry_mut(id);
        e.vruntime += cycles * NICE0_WEIGHT / u64::from(e.weight);
    }

    fn block(&mut self, id: usize) {
        self.entry_mut(id).runnable = false;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    fn wake(&mut self, id: usize) -> bool {
        let floor = self.min_vruntime.saturating_sub(WAKEUP_BONUS);
        let current_v = self.current.map(|c| self.entry(c).vruntime);
        let e = self.entry_mut(id);
        if e.runnable {
            return false;
        }
        e.runnable = true;
        e.vruntime = e.vruntime.max(floor);
        let woken_v = e.vruntime;
        match current_v {
            None => true,
            Some(cv) => woken_v + PREEMPT_GRANULARITY < cv,
        }
    }

    fn yield_current(&mut self) {
        self.current = None;
    }
}

/// The ids of a case, in registration order: `0..n` in order (mode 0),
/// `0..n` shuffled (mode 1), or `3i + 1` shuffled (mode 2, sparse).
fn layout(n: usize, mode: u8, keys: &[u64]) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..n)
        .map(|i| if mode == 2 { 3 * i + 1 } else { i })
        .collect();
    if mode != 0 {
        let mut keyed: Vec<(u64, usize)> = keys.iter().copied().zip(ids).collect();
        keyed.sort_unstable();
        ids = keyed.into_iter().map(|(_, id)| id).collect();
    }
    ids
}

/// A mixed weight drawn from a case key.
fn weight(key: u64) -> u32 {
    [1, 64, 128, 256, 256, 512, 1024, 4096][(key % 8) as usize]
}

proptest! {
    /// The credit scheduler agrees with the reference on `add_vcpu`,
    /// `pick`, `charge`, `block`, `wake`, `yield_current` and `account`.
    #[test]
    fn credit_matches_reference(
        n in 1usize..33,
        mode in 0u8..3,
        keys in prop::collection::vec(any::<u64>(), 32..33),
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
    ) {
        let ids = layout(n, mode, &keys);
        let mut fast = CreditScheduler::new();
        let mut reference = RefCredit::default();
        let mut registered = 0;
        let register = |fast: &mut CreditScheduler, reference: &mut RefCredit, k: usize| {
            fast.add_vcpu(ids[k], weight(keys[k]));
            reference.add_vcpu(ids[k], weight(keys[k]));
        };
        while registered < n.div_ceil(2) {
            register(&mut fast, &mut reference, registered);
            registered += 1;
        }
        for (step, &(op, x)) in ops.iter().enumerate() {
            let id = ids[(x % registered as u64) as usize];
            match op {
                0 if registered < n => {
                    register(&mut fast, &mut reference, registered);
                    registered += 1;
                }
                0 | 1 => prop_assert_eq!(fast.pick(), reference.pick(), "step {}", step),
                2 => {
                    let credits = ((x >> 8) % 400) as i64;
                    fast.charge(id, credits);
                    reference.charge(id, credits);
                }
                3 => {
                    fast.block(id);
                    reference.block(id);
                }
                4 => prop_assert_eq!(fast.wake(id), reference.wake(id), "step {}", step),
                5 => {
                    fast.yield_current();
                    reference.yield_current();
                }
                6 => {
                    fast.account();
                    reference.account();
                }
                _ => {
                    let picked = fast.pick();
                    prop_assert_eq!(picked, reference.pick(), "step {}", step);
                    fast.yield_current();
                    reference.yield_current();
                }
            }
            prop_assert_eq!(fast.current(), reference.current, "step {}", step);
            prop_assert_eq!(fast.switch_count(), reference.switches, "step {}", step);
            for &v in &ids[..registered] {
                prop_assert_eq!(fast.credit_of(v), reference.entry(v).credit, "step {} vcpu {}", step, v);
                prop_assert_eq!(fast.priority_of(v), reference.entry(v).priority, "step {} vcpu {}", step, v);
            }
        }
    }

    /// `CreditVcpuSched::charge_cycles` agrees with the dividing
    /// reference on charges clustered around the credit boundaries,
    /// interleaved with the accounting tick.
    #[test]
    fn credit_cycles_match_reference(
        ops in prop::collection::vec((0u8..8, 0usize..3, any::<u64>()), 1..300),
    ) {
        let mut fast = CreditVcpuSched::new();
        let mut reference = RefCreditCycles::default();
        for id in 0..3 {
            fast.add_vcpu(id, 256);
            reference.add_vcpu(id, 256);
        }
        for (step, &(op, id, x)) in ops.iter().enumerate() {
            let cycles = match op {
                0 => 0,
                1 => CYCLES_PER_CREDIT - 1,
                2 => CYCLES_PER_CREDIT,
                3 => CYCLES_PER_CREDIT + 1,
                4 => (x % 5) * CYCLES_PER_CREDIT + x % 3,
                5 => x % CYCLES_PER_CREDIT,
                6 => {
                    fast.tick();
                    reference.sched.account();
                    continue;
                }
                _ => x % (8 * CYCLES_PER_CREDIT),
            };
            fast.charge_cycles(id, cycles);
            reference.charge_cycles(id, cycles);
            for v in 0..3 {
                let want = reference.sched.entry(v);
                prop_assert_eq!(fast.inner().credit_of(v), want.credit, "step {} vcpu {}", step, v);
                prop_assert_eq!(fast.inner().priority_of(v), want.priority, "step {} vcpu {}", step, v);
            }
        }
    }

    /// The CFS scheduler agrees with the reference on `add_vcpu`,
    /// `pick`, `charge_cycles`, `block`, `wake`, `yield_current` and
    /// `tick`.
    #[test]
    fn cfs_matches_reference(
        n in 1usize..33,
        mode in 0u8..3,
        keys in prop::collection::vec(any::<u64>(), 32..33),
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..400),
    ) {
        let ids = layout(n, mode, &keys);
        let mut fast = CfsScheduler::new();
        let mut reference = RefCfs::default();
        let mut registered = 0;
        let register = |fast: &mut CfsScheduler, reference: &mut RefCfs, k: usize| {
            fast.add_vcpu(ids[k], weight(keys[k]));
            reference.add_vcpu(ids[k], weight(keys[k]));
        };
        while registered < n.div_ceil(2) {
            register(&mut fast, &mut reference, registered);
            registered += 1;
        }
        for (step, &(op, x)) in ops.iter().enumerate() {
            let id = ids[(x % registered as u64) as usize];
            match op {
                0 if registered < n => {
                    register(&mut fast, &mut reference, registered);
                    registered += 1;
                }
                0 | 1 => prop_assert_eq!(fast.pick(), reference.pick(), "step {}", step),
                2 => {
                    let cycles = (x >> 8) % 8_000_000;
                    fast.charge_cycles(id, cycles);
                    reference.charge_cycles(id, cycles);
                }
                3 => {
                    fast.block(id);
                    reference.block(id);
                }
                4 => prop_assert_eq!(fast.wake(id), reference.wake(id), "step {}", step),
                5 => {
                    fast.yield_current();
                    reference.yield_current();
                }
                6 => fast.tick(),
                _ => {
                    let picked = fast.pick();
                    prop_assert_eq!(picked, reference.pick(), "step {}", step);
                    fast.yield_current();
                    reference.yield_current();
                }
            }
            prop_assert_eq!(fast.current(), reference.current, "step {}", step);
            prop_assert_eq!(fast.switch_count(), reference.switches, "step {}", step);
            for &v in &ids[..registered] {
                prop_assert_eq!(fast.vruntime_of(v), reference.entry(v).vruntime, "step {} vcpu {}", step, v);
            }
        }
    }
}
