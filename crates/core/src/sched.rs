//! A credit scheduler — Xen's VCPU scheduler, modelled for the
//! oversubscription analysis.
//!
//! The paper measures VM Switch because it is "a central cost when
//! oversubscribing physical CPUs" (Table I), and its I/O results hinge
//! on Xen's scheduler behaviour: Dom0 blocking into the idle domain,
//! `vcpu_wake` + credit accounting on every event. This module
//! implements the credit algorithm the measured Xen 4.5 shipped —
//! weights, periodic credit refill, UNDER/OVER priorities, boost on
//! wake — so the oversubscription ablation can derive VM-switch *rates*
//! from real scheduling rather than an assumed constant.
//!
//! (The calibrated `xen_sched` cycle cost in [`crate::CostModel`] prices
//! one scheduling decision; this module decides *which* and *how many*
//! decisions happen.)

use crate::Error;
use core::fmt;
use hvx_engine::Cycles;

/// Which hypervisor vCPU scheduler multiplexes vCPUs onto a physical
/// CPU in the consolidation scenarios.
///
/// Both algorithms are deterministic: every decision is a pure function
/// of integer scheduler state, so a consolidation cell simulates
/// byte-identically regardless of host thread count or cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SchedPolicy {
    /// Xen's credit1: weighted credit refill, UNDER/OVER classes, boost
    /// on I/O wake ([`CreditScheduler`]).
    Credit,
    /// KVM's CFS-style fair scheduler: integer virtual runtime,
    /// lowest-vruntime-first, wake placement against min_vruntime
    /// ([`CfsScheduler`]).
    Cfs,
}

impl SchedPolicy {
    /// Both policies, in CLI/report order.
    pub const ALL: [SchedPolicy; 2] = [SchedPolicy::Credit, SchedPolicy::Cfs];

    /// Stable lowercase name (CLI, specs, fingerprints).
    pub const fn name(self) -> &'static str {
        match self {
            SchedPolicy::Credit => "credit",
            SchedPolicy::Cfs => "cfs",
        }
    }

    /// Parses a policy name.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownScheduler`] when the name matches neither policy.
    pub fn parse(s: &str) -> Result<SchedPolicy, Error> {
        SchedPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| Error::UnknownScheduler { name: s.into() })
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// A pluggable per-pCPU hypervisor vCPU scheduler.
///
/// The consolidation simulator drives one instance per physical CPU:
/// it registers the vCPUs pinned there, then interleaves [`pick`],
/// cycle charges, blocks (WFI), wakes, and periodic [`tick`]s exactly
/// as the modelled hypervisor's scheduler would see them. All state is
/// integer and all tie-breaks are by registration order, so the same
/// call sequence always yields the same decisions.
///
/// [`pick`]: VcpuScheduler::pick
/// [`tick`]: VcpuScheduler::tick
pub trait VcpuScheduler: fmt::Debug {
    /// Registers a schedulable vCPU under a scheduling weight.
    fn add_vcpu(&mut self, id: usize, weight: u32);
    /// The vCPU currently on the CPU, if any.
    fn current(&self) -> Option<usize>;
    /// Picks the next vCPU to run (`None` = idle). Counts a context
    /// switch when the decision changes the running vCPU.
    fn pick(&mut self) -> Option<usize>;
    /// Charges `cycles` of runtime against a vCPU's scheduling account.
    fn charge_cycles(&mut self, id: usize, cycles: u64);
    /// The vCPU blocks (WFI / waiting for an event).
    fn block(&mut self, id: usize);
    /// Wakes a blocked vCPU; returns `true` if it should preempt the
    /// currently running one.
    fn wake(&mut self, id: usize) -> bool;
    /// The current vCPU is descheduled (end of timeslice or voluntary
    /// yield): it goes back among the runnable.
    fn yield_current(&mut self);
    /// Periodic accounting tick (credit refill; a no-op for CFS, whose
    /// accounting is continuous).
    fn tick(&mut self);
    /// Context switches performed so far.
    fn switch_count(&self) -> u64;
}

/// Cycles of runtime that consume one credit: one accounting period's
/// worth of CPU spread over [`CREDITS_PER_PERIOD`] credits.
pub const CYCLES_PER_CREDIT: u64 = ACCT_PERIOD.as_u64() / CREDITS_PER_PERIOD as u64;

/// Position of vCPU `id` among a runqueue's entries (in registration
/// order). Every caller registers ids densely from 0, so entry `id` is
/// normally `id` itself and the lookup is O(1); any other registration
/// falls back to a linear search.
///
/// # Panics
///
/// Panics if `id` is not registered.
#[inline]
fn slot<E>(entries: &[E], id: usize, id_of: impl Fn(&E) -> usize) -> usize {
    match entries.get(id) {
        Some(e) if id_of(e) == id => id,
        _ => entries
            .iter()
            .position(|e| id_of(e) == id)
            .unwrap_or_else(|| panic!("vcpu {id} not registered")),
    }
}

/// [`CreditScheduler`] behind the [`VcpuScheduler`] interface:
/// accumulates cycle charges into whole credits (remainders carry, so
/// many small charges cost exactly what one big charge does).
#[derive(Debug, Clone, Default)]
pub struct CreditVcpuSched {
    inner: CreditScheduler,
    /// Sub-credit cycle remainders, indexed by vCPU id.
    acc: Vec<u64>,
}

impl CreditVcpuSched {
    /// Creates an empty runqueue and runs the first accounting pass on
    /// registration, as Xen does when a domain starts.
    pub fn new() -> Self {
        CreditVcpuSched::default()
    }

    /// The wrapped credit scheduler (tests, reports).
    pub fn inner(&self) -> &CreditScheduler {
        &self.inner
    }
}

impl VcpuScheduler for CreditVcpuSched {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        self.inner.add_vcpu(id, weight);
        if self.acc.len() <= id {
            self.acc.resize(id + 1, 0);
        }
        // Fresh vCPUs start with a period's share of credit, as after
        // Xen's first accounting pass; without it everyone is OVER and
        // boost-on-wake (which needs credit) never engages.
        self.inner.account();
    }
    #[inline]
    fn current(&self) -> Option<usize> {
        self.inner.current()
    }
    #[inline]
    fn pick(&mut self) -> Option<usize> {
        self.inner.pick()
    }
    #[inline]
    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let total = self.acc[id] + cycles;
        if total < CYCLES_PER_CREDIT {
            // No credit boundary crossed: the common case, no division.
            self.acc[id] = total;
            return;
        }
        self.acc[id] = total % CYCLES_PER_CREDIT;
        self.inner.charge(id, (total / CYCLES_PER_CREDIT) as i64);
    }
    #[inline]
    fn block(&mut self, id: usize) {
        self.inner.block(id);
    }
    #[inline]
    fn wake(&mut self, id: usize) -> bool {
        self.inner.wake(id)
    }
    #[inline]
    fn yield_current(&mut self) {
        self.inner.yield_current();
    }
    #[inline]
    fn tick(&mut self) {
        self.inner.account();
    }
    #[inline]
    fn switch_count(&self) -> u64 {
        self.inner.switch_count()
    }
}

/// The weight of a nice-0 task in CFS's fixed-point weight table; the
/// vruntime of a nice-0 vCPU advances one cycle per cycle run.
pub const NICE0_WEIGHT: u64 = 1024;

/// Wake-placement credit: a woken vCPU's vruntime is pulled up to no
/// less than `min_vruntime - WAKEUP_BONUS`, so sleepers get a bounded
/// latency advantage without starving the runnable (CFS's
/// `sched_latency/2` placement rule, in cycles).
pub const WAKEUP_BONUS: u64 = 3_000_000;

/// A woken vCPU preempts only if it undercuts the running vCPU's
/// vruntime by at least this much (CFS's wakeup granularity, in
/// cycles) — the anti-thrash hysteresis.
pub const PREEMPT_GRANULARITY: u64 = 500_000;

#[derive(Debug, Clone)]
struct CfsEntry {
    id: usize,
    weight: u32,
    vruntime: u64,
    runnable: bool,
}

/// A KVM-style completely-fair scheduler over one physical CPU.
///
/// Integer virtual runtime only: `vruntime += cycles × NICE0 / weight`,
/// the runnable vCPU with the smallest `(vruntime, id)` runs next, and
/// wake placement clamps sleepers to just below the queue's minimum
/// vruntime. No floats, no randomness — decisions replay exactly.
///
/// # Examples
///
/// ```
/// use hvx_core::sched::{CfsScheduler, VcpuScheduler};
///
/// let mut s = CfsScheduler::new();
/// s.add_vcpu(0, 1024);
/// s.add_vcpu(1, 1024);
/// assert_eq!(s.pick(), Some(0)); // equal vruntime: lowest id
/// s.charge_cycles(0, 1_000_000);
/// s.yield_current();
/// assert_eq!(s.pick(), Some(1)); // 0 has run; 1 is now behind
/// ```
#[derive(Debug, Clone, Default)]
pub struct CfsScheduler {
    entries: Vec<CfsEntry>,
    current: Option<usize>,
    switches: u64,
    /// Monotonic floor used for wake placement.
    min_vruntime: u64,
}

impl CfsScheduler {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        CfsScheduler::default()
    }

    #[inline]
    fn entry_mut(&mut self, id: usize) -> &mut CfsEntry {
        let i = slot(&self.entries, id, |e| e.id);
        &mut self.entries[i]
    }

    #[inline]
    fn entry(&self, id: usize) -> &CfsEntry {
        &self.entries[slot(&self.entries, id, |e| e.id)]
    }

    /// A vCPU's current virtual runtime (tests, reports).
    pub fn vruntime_of(&self, id: usize) -> u64 {
        self.entry(id).vruntime
    }
}

impl VcpuScheduler for CfsScheduler {
    fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        assert!(
            self.entries.iter().all(|e| e.id != id),
            "vcpu {id} already registered"
        );
        self.entries.push(CfsEntry {
            id,
            weight,
            vruntime: self.min_vruntime,
            runnable: true,
        });
    }

    #[inline]
    fn current(&self) -> Option<usize> {
        self.current
    }

    #[inline]
    fn pick(&mut self) -> Option<usize> {
        let best = self
            .entries
            .iter()
            .filter(|e| e.runnable)
            .min_by_key(|e| (e.vruntime, e.id));
        if let Some(e) = best {
            self.min_vruntime = self.min_vruntime.max(e.vruntime);
        }
        let picked = best.map(|e| e.id);
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    #[inline]
    fn charge_cycles(&mut self, id: usize, cycles: u64) {
        let e = self.entry_mut(id);
        e.vruntime += cycles * NICE0_WEIGHT / u64::from(e.weight);
    }

    #[inline]
    fn block(&mut self, id: usize) {
        self.entry_mut(id).runnable = false;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    #[inline]
    fn wake(&mut self, id: usize) -> bool {
        let floor = self.min_vruntime.saturating_sub(WAKEUP_BONUS);
        let current_v = self.current.map(|c| self.entry(c).vruntime);
        let e = self.entry_mut(id);
        if e.runnable {
            return false;
        }
        e.runnable = true;
        // Long sleepers re-enter near the front of the queue but never
        // with unbounded banked runtime.
        e.vruntime = e.vruntime.max(floor);
        let woken_v = e.vruntime;
        match current_v {
            None => true,
            Some(cv) => woken_v + PREEMPT_GRANULARITY < cv,
        }
    }

    #[inline]
    fn yield_current(&mut self) {
        self.current = None;
    }

    #[inline]
    fn tick(&mut self) {
        // CFS accounts continuously in charge_cycles; the periodic tick
        // has no batch refill to perform.
    }

    #[inline]
    fn switch_count(&self) -> u64 {
        self.switches
    }
}

/// Scheduling priority, as in Xen's credit1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CreditPriority {
    /// Woken with credit — runs ahead of everyone (BOOST).
    Boost,
    /// Has remaining credit.
    Under,
    /// Credit exhausted; runs only when no UNDER VCPU exists.
    Over,
}

/// One schedulable VCPU's credit account. Its run state lives in the
/// runqueue's parallel `keys`.
#[derive(Debug, Clone)]
struct Entry {
    id: usize,
    weight: u32,
    credit: i64,
    /// Credit refilled per accounting period: its weight's share of
    /// [`CREDITS_PER_PERIOD`].
    share: i64,
}

/// Pick-key bit set while a VCPU is blocked: it sorts after every
/// runnable one.
const BLOCKED: u64 = 1 << 63;
/// Pick-key bits 61–62 hold the [`CreditPriority`] class.
const PRIO_SHIFT: u32 = 61;
/// Pick-key bits 0–60 hold the FIFO sequence number.
const SEQ_MASK: u64 = (1 << PRIO_SHIFT) - 1;

/// `key` with its priority class replaced by `priority`.
#[inline]
fn with_priority(key: u64, priority: CreditPriority) -> u64 {
    (key & !(3 << PRIO_SHIFT)) | ((priority as u64) << PRIO_SHIFT)
}

/// The priority class recorded in `key`.
#[inline]
fn priority_of_key(key: u64) -> CreditPriority {
    match (key >> PRIO_SHIFT) & 3 {
        0 => CreditPriority::Boost,
        1 => CreditPriority::Under,
        _ => CreditPriority::Over,
    }
}

/// UNDER with credit left, OVER without.
#[inline]
fn class_of(credit: i64) -> CreditPriority {
    if credit > 0 {
        CreditPriority::Under
    } else {
        CreditPriority::Over
    }
}

/// The 30 ms credit-refill period (in cycles at the ARM platform's
/// 2.4 GHz), as in Xen's `CSCHED_ACCT_PERIOD`.
pub const ACCT_PERIOD: Cycles = Cycles::new(72_000_000);

/// The 30 ms worth of credit distributed per accounting period.
pub const CREDITS_PER_PERIOD: i64 = 300;

/// A single physical CPU's credit-scheduler runqueue.
///
/// # Examples
///
/// ```
/// use hvx_core::sched::CreditScheduler;
///
/// let mut s = CreditScheduler::new();
/// s.add_vcpu(0, 256);
/// s.add_vcpu(1, 256);
/// let first = s.pick().unwrap();
/// s.charge(first, 100);
/// // Round-robin among equal-priority VCPUs on yield:
/// s.yield_current();
/// assert_ne!(s.pick().unwrap(), first);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CreditScheduler {
    entries: Vec<Entry>,
    /// Each entry's run state as one integer in [`CreditScheduler::pick`]
    /// order, kept densely beside `entries` so a pick scans nothing
    /// else: the [`BLOCKED`] bit, the priority class, then the FIFO
    /// sequence number (the order of registration, renewed each time
    /// the VCPU yields — the back of the queue; unique per runqueue).
    keys: Vec<u64>,
    /// The next FIFO sequence number to hand out.
    next_seq: u64,
    current: Option<usize>,
    switches: u64,
    /// Every entry holds exactly [`CREDITS_PER_PERIOD`], so an
    /// accounting pass would change nothing: it refills to the cap, and
    /// a capped entry is already UNDER or BOOST.
    settled: bool,
}

impl CreditScheduler {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        CreditScheduler::default()
    }

    /// Registers a VCPU with a credit weight (Xen default 256).
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered or `weight` is zero.
    pub fn add_vcpu(&mut self, id: usize, weight: u32) {
        assert!(weight > 0, "weight must be positive");
        assert!(
            self.entries.iter().all(|e| e.id != id),
            "vcpu {id} already registered"
        );
        let seq = self.take_seq();
        self.entries.push(Entry {
            id,
            weight,
            credit: 0,
            share: 0,
        });
        self.keys.push(with_priority(seq, CreditPriority::Under));
        self.settled = false;
        let total_weight: i64 = self.entries.iter().map(|e| i64::from(e.weight)).sum();
        for e in &mut self.entries {
            e.share = CREDITS_PER_PERIOD * i64::from(e.weight) / total_weight;
        }
    }

    #[inline]
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        debug_assert!(
            self.next_seq <= SEQ_MASK,
            "FIFO sequence overflows the pick key"
        );
        self.next_seq
    }

    /// Position of `id` in `entries` and `keys`.
    #[inline]
    fn index(&self, id: usize) -> usize {
        slot(&self.entries, id, |e| e.id)
    }

    /// The VCPU currently on the CPU, if any.
    #[inline]
    pub fn current(&self) -> Option<usize> {
        self.current
    }

    /// Number of context switches performed so far.
    #[inline]
    pub fn switch_count(&self) -> u64 {
        self.switches
    }

    /// Picks the next VCPU to run: highest priority class first, FIFO
    /// within a class; `None` means the idle domain runs.
    #[inline]
    pub fn pick(&mut self) -> Option<usize> {
        // Keys are unique (every entry has its own sequence number), so
        // two interleaved minimum chains combine in either order.
        let (mut best, mut best_key) = (0, u64::MAX);
        let (mut odd, mut odd_key) = (0, u64::MAX);
        let mut pairs = self.keys.chunks_exact(2);
        for (j, pair) in pairs.by_ref().enumerate() {
            if pair[0] < best_key {
                best = 2 * j;
                best_key = pair[0];
            }
            if pair[1] < odd_key {
                odd = 2 * j + 1;
                odd_key = pair[1];
            }
        }
        if let [last] = pairs.remainder() {
            if *last < odd_key {
                odd = self.keys.len() - 1;
                odd_key = *last;
            }
        }
        if odd_key < best_key {
            best = odd;
            best_key = odd_key;
        }
        let picked = (best_key & BLOCKED == 0).then(|| self.entries[best].id);
        if picked != self.current {
            self.switches += 1;
        }
        self.current = picked;
        picked
    }

    /// Charges `credits` of runtime to a VCPU: it drops to OVER when its
    /// credit is exhausted and is UNDER otherwise, so any charge also
    /// ends a BOOST.
    ///
    /// Through [`CreditVcpuSched`], which passes on whole credits only,
    /// a boosted vCPU therefore keeps BOOST while it runs until its
    /// accumulated run time (carried across activations) crosses the
    /// next multiple of [`CYCLES_PER_CREDIT`] (240,000 cycles), not the
    /// moment it is dispatched. Neither the accounting tick nor a timer
    /// preemption clears BOOST, so a boosted vCPU can outrank UNDER
    /// ones for up to one credit's worth of run time.
    #[inline]
    pub fn charge(&mut self, id: usize, credits: i64) {
        let i = self.index(id);
        let e = &mut self.entries[i];
        e.credit -= credits;
        if e.credit != CREDITS_PER_PERIOD {
            self.settled = false;
        }
        self.keys[i] = with_priority(self.keys[i], class_of(e.credit));
    }

    /// The VCPU blocks (WFI / waiting for I/O): it leaves the runqueue
    /// until woken. If it was current, the CPU goes idle.
    #[inline]
    pub fn block(&mut self, id: usize) {
        let i = self.index(id);
        self.keys[i] |= BLOCKED;
        if self.current == Some(id) {
            self.current = None;
        }
    }

    /// Wakes a blocked VCPU. A wake with credit grants BOOST — the
    /// latency hack that lets I/O domains preempt batch work, central to
    /// Dom0's behaviour in the paper's I/O paths. Returns `true` if the
    /// woken VCPU should preempt the current one.
    #[inline]
    pub fn wake(&mut self, id: usize) -> bool {
        let current_prio = self
            .current
            .map(|c| priority_of_key(self.keys[self.index(c)]));
        let i = self.index(id);
        let mut key = self.keys[i];
        if key & BLOCKED == 0 {
            return false;
        }
        key &= !BLOCKED;
        if self.entries[i].credit > 0 {
            key = with_priority(key, CreditPriority::Boost);
        }
        self.keys[i] = key;
        match current_prio {
            None => true,
            Some(cp) => priority_of_key(key) < cp,
        }
    }

    /// The current VCPU voluntarily yields: it moves to the back of the
    /// queue.
    #[inline]
    pub fn yield_current(&mut self) {
        if let Some(id) = self.current.take() {
            let seq = self.take_seq();
            let i = self.index(id);
            self.keys[i] = (self.keys[i] & !SEQ_MASK) | seq;
        }
    }

    /// The periodic accounting tick: distributes [`CREDITS_PER_PERIOD`]
    /// in proportion to weight, capping hoarded credit (Xen caps at one
    /// period's worth) and restoring UNDER to everyone with positive
    /// credit. A no-op while every VCPU sits at the cap.
    #[inline]
    pub fn account(&mut self) {
        if self.settled {
            return;
        }
        let mut settled = true;
        for (e, key) in self.entries.iter_mut().zip(&mut self.keys) {
            e.credit = (e.credit + e.share).min(CREDITS_PER_PERIOD);
            settled &= e.credit == CREDITS_PER_PERIOD;
            if priority_of_key(*key) != CreditPriority::Boost {
                *key = with_priority(*key, class_of(e.credit));
            }
        }
        self.settled = settled;
    }

    /// Current credit of a VCPU (for tests and the ablation report).
    pub fn credit_of(&self, id: usize) -> i64 {
        self.entries[self.index(id)].credit
    }

    /// Current priority class of a VCPU.
    pub fn priority_of(&self, id: usize) -> CreditPriority {
        priority_of_key(self.keys[self.index(id)])
    }
}

/// Result of the oversubscription analysis: what fraction of each core's
/// time goes to VM switching when `vms_per_core` VMs time-share it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OversubscriptionPoint {
    /// VMs sharing each physical core.
    pub vms_per_core: u32,
    /// Timeslice length in cycles.
    pub timeslice: Cycles,
    /// VM switches per accounting period (simulated with the credit
    /// scheduler).
    pub switches_per_period: u64,
    /// Fraction of CPU time lost to VM switching for the given
    /// per-switch cost.
    pub switch_overhead: f64,
}

/// Simulates `vms_per_core` CPU-bound VCPUs time-sharing one core under
/// the credit scheduler for one accounting period, then prices the
/// switches at `switch_cost` (a Table II VM Switch value).
pub fn oversubscription_point(
    vms_per_core: u32,
    timeslice: Cycles,
    switch_cost: Cycles,
) -> OversubscriptionPoint {
    assert!(vms_per_core > 0);
    let mut sched = CreditScheduler::new();
    for id in 0..vms_per_core as usize {
        sched.add_vcpu(id, 256);
    }
    sched.account();
    let mut elapsed = Cycles::ZERO;
    while elapsed < ACCT_PERIOD {
        let Some(id) = sched.pick() else { break };
        // CPU-bound VCPU runs its full timeslice.
        let slice_credits =
            (CREDITS_PER_PERIOD as u64 * timeslice.as_u64() / ACCT_PERIOD.as_u64()) as i64;
        sched.charge(id, slice_credits.max(1));
        sched.yield_current();
        elapsed += timeslice;
    }
    // Subtract the initial placement, which is not a switch between VMs.
    let switches = sched.switch_count().saturating_sub(1);
    let total = ACCT_PERIOD.as_f64();
    OversubscriptionPoint {
        vms_per_core,
        timeslice,
        switches_per_period: switches,
        switch_overhead: switches as f64 * switch_cost.as_f64() / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_weights_round_robin() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.add_vcpu(2, 256);
        s.account();
        let mut order = Vec::new();
        for _ in 0..6 {
            let id = s.pick().unwrap();
            order.push(id);
            s.charge(id, 10);
            s.yield_current();
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn exhausted_credit_drops_to_over() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.account();
        let c0 = s.credit_of(0);
        s.charge(0, c0 + 1);
        assert_eq!(s.priority_of(0), CreditPriority::Over);
        // VCPU 1 (UNDER) now runs even though 0 is ahead in the queue.
        assert_eq!(s.pick(), Some(1));
        // Accounting restores UNDER.
        s.account();
        assert_eq!(s.priority_of(0), CreditPriority::Under);
    }

    #[test]
    fn io_wake_boosts_and_preempts() {
        // Dom0's behaviour: blocked waiting for I/O, woken by an event,
        // preempts the batch VCPU immediately — the paper's I/O latency
        // paths depend on this.
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256); // batch DomU
        s.add_vcpu(1, 256); // Dom0
        s.account();
        s.block(1);
        assert_eq!(s.pick(), Some(0));
        let preempt = s.wake(1);
        assert!(preempt, "boosted wake preempts");
        assert_eq!(s.priority_of(1), CreditPriority::Boost);
        assert_eq!(s.pick(), Some(1));
    }

    #[test]
    fn wake_without_credit_does_not_boost() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(1, 256);
        s.account();
        let c1 = s.credit_of(1);
        s.charge(1, c1 + 5);
        s.block(1);
        assert_eq!(s.pick(), Some(0), "batch VCPU occupies the core");
        let preempt = s.wake(1);
        assert!(!preempt, "OVER VCPU cannot preempt an UNDER one");
        assert_eq!(s.priority_of(1), CreditPriority::Over);
    }

    #[test]
    fn weights_bias_credit_distribution() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 512);
        s.add_vcpu(1, 256);
        s.account();
        assert_eq!(s.credit_of(0), 2 * s.credit_of(1));
    }

    #[test]
    fn credit_is_capped_at_one_period() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        for _ in 0..10 {
            s.account();
        }
        assert!(s.credit_of(0) <= CREDITS_PER_PERIOD);
    }

    #[test]
    fn all_blocked_means_idle_domain() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.block(0);
        assert_eq!(s.pick(), None, "idle domain runs");
        s.wake(0);
        assert_eq!(s.pick(), Some(0));
    }

    #[test]
    fn oversubscription_overhead_scales_with_switch_cost() {
        // Table II: Xen ARM switches at 8,799 cycles, KVM ARM at 10,387.
        // With a 30 ms period and 1 ms timeslices the overhead is small;
        // shrinking the timeslice grows it proportionally.
        let ts = Cycles::new(2_400_000); // 1 ms at 2.4 GHz
        let xen = oversubscription_point(2, ts, Cycles::new(8_799));
        let kvm = oversubscription_point(2, ts, Cycles::new(10_387));
        assert_eq!(xen.switches_per_period, kvm.switches_per_period);
        assert!(kvm.switch_overhead > xen.switch_overhead);
        assert!(xen.switch_overhead < 0.01, "{}", xen.switch_overhead);
        let fine = oversubscription_point(2, ts / 10, Cycles::new(8_799));
        assert!(
            fine.switch_overhead > 9.0 * xen.switch_overhead
                && fine.switch_overhead < 11.0 * xen.switch_overhead
        );
    }

    #[test]
    fn more_vms_do_not_change_per_slice_switch_rate() {
        let ts = Cycles::new(2_400_000);
        let two = oversubscription_point(2, ts, Cycles::new(8_799));
        let four = oversubscription_point(4, ts, Cycles::new(8_799));
        // Every slice boundary is a switch in both cases.
        assert_eq!(two.switches_per_period, four.switches_per_period);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_vcpu_rejected() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(0, 256);
        s.add_vcpu(0, 256);
    }
}
