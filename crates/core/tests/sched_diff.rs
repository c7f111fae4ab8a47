//! Differential tests of the vCPU schedulers against reference
//! implementations.
//!
//! The references below are the straightforward runqueues the id-indexed
//! schedulers must agree with: a credit scheduler that keeps its FIFO
//! order in a `VecDeque` and finds each vCPU by linear search, and a CFS
//! runqueue that scans linearly. Random operation sequences over 1–32
//! vCPUs with mixed weights — registered densely from 0, densely out of
//! order, or sparsely — must give identical return values and identical
//! per-vCPU state after every operation.

use hvx_core::sched::{
    CfsScheduler, CreditPriority, CreditScheduler, VcpuScheduler, CREDITS_PER_PERIOD, NICE0_WEIGHT,
    PREEMPT_GRANULARITY, WAKEUP_BONUS,
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
