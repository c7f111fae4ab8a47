//! The simulated multi-core machine: per-core cycle clocks plus the
//! opt-in observers of each charge.
//!
//! hvx models time the way the paper measures it: with per-physical-core
//! cycle counters ("measurements were obtained using cycle counters ... to
//! ensure consistency across multiple CPUs", §IV). Each core owns a
//! monotonically advancing clock. Sequential work on a core advances that
//! core's clock; cross-core interactions (physical IPIs, wire deliveries)
//! produce an *arrival instant* which the receiving core synchronizes to
//! with [`Machine::wait_until`] — if the receiver was busy past the arrival,
//! the signal simply finds it later, which is precisely how queueing delay
//! emerges in the application-level simulations.

use crate::compile::{LoopState, Program, RawOp, Recorder, GIVE_UP_ITERS};
use crate::fault::{
    self, CycleBudgetExceeded, FaultPlan, FaultPoint, FaultState, Livelocked, Watchdog,
};
use crate::{CoreId, Cycles, Topology, TraceKind};
use hvx_obs::{EventTracer, FlowId, FlowKind, MetricsRegistry, SpanTracer, TransitionId};
use std::cell::Cell;

thread_local! {
    /// Simulated transitions (cost charges) executed on this thread,
    /// interpreted and replayed alike. Thread-local so the counter
    /// needs no atomics on the charge hot path and parallel runner
    /// workers count independently.
    static TRANSITIONS: Cell<u64> = const { Cell::new(0) };
}

/// Total simulated transitions executed by the calling thread since it
/// started (wrapping). The runner samples this around each scenario to
/// report per-artifact transition counts and throughput.
pub fn thread_transitions() -> u64 {
    TRANSITIONS.with(Cell::get)
}

/// The machine's optional observability state: a span tracer fed by
/// every [`Machine::charge`] plus a metrics registry. Boxed so a
/// non-profiling machine pays one pointer of space and a single branch
/// per charge.
#[derive(Debug, Clone, Default)]
struct Profiler {
    spans: SpanTracer,
    metrics: MetricsRegistry,
}

/// A simulated multi-core machine.
///
/// # Examples
///
/// Two cores exchanging a signal:
///
/// ```
/// use hvx_engine::{Machine, Topology, TraceKind, CoreId, Cycles};
///
/// let mut m = Machine::new(Topology::split(2, 1));
/// let a = CoreId::new(0);
/// let b = CoreId::new(1);
/// m.charge(a, "guest:work", TraceKind::Guest, Cycles::new(1000));
/// // Core a sends an IPI costing 400 cycles of wire latency.
/// let arrival = m.signal(a, b, Cycles::new(400));
/// m.wait_until(b, arrival);
/// assert_eq!(m.now(b), Cycles::new(1400));
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    clocks: Vec<Cycles>,
    /// Cycles each core spent doing charged work (clock time minus time
    /// skipped by [`Machine::wait_until`] — i.e. minus idle waiting).
    busy: Vec<Cycles>,
    /// `Some` once profiling is enabled; `None` keeps the charge hot
    /// path identical to the pre-observability engine.
    profiler: Option<Box<Profiler>>,
    /// `Some` once a non-empty [`FaultPlan`] is installed; `None`
    /// keeps every fault consult a single branch.
    faults: Option<Box<FaultState>>,
    /// `Some` once causal event tracing is enabled; `None` keeps the
    /// charge hot path and every flow hook a single branch, so an
    /// untraced run is byte-identical to the pre-tracing engine.
    events: Option<Box<EventTracer>>,
    /// Cycle-budget ceiling enforced in [`Machine::charge`]
    /// (`u64::MAX` = unlimited, so the hot-path check is one compare).
    cycle_budget: u64,
    /// Livelock threshold (`u64::MAX` = unlimited).
    livelock_limit: u64,
    /// Running total of charged cycles (watchdog bookkeeping).
    total_charged: u64,
    /// Consecutive zero-cost charges (watchdog bookkeeping).
    zero_streak: u64,
    /// `Some` while a loop session (see [`Machine::loop_begin`]) is
    /// recording or replaying; `None` keeps every hot-path hook a
    /// single branch.
    loop_state: Option<Box<LoopState>>,
    /// Iterations skipped by compiled replay since construction.
    iters_replayed: u64,
}

impl Machine {
    /// Creates a machine with all core clocks at zero and no observer
    /// (no profiler, no event tracer). Picks up the thread's ambient fault configuration (see
    /// [`fault::install_ambient`]); with none installed — the default —
    /// the machine carries no fault state and no watchdog.
    pub fn new(topology: Topology) -> Self {
        let clocks = vec![Cycles::ZERO; topology.num_cores()];
        let busy = clocks.clone();
        let (plan, watchdog) = fault::ambient();
        let mut m = Machine {
            topology,
            clocks,
            busy,
            profiler: None,
            faults: None,
            events: None,
            cycle_budget: u64::MAX,
            livelock_limit: u64::MAX,
            total_charged: 0,
            zero_streak: 0,
            loop_state: None,
            iters_replayed: 0,
        };
        if let Some(plan) = plan {
            m.set_fault_plan(plan);
        }
        m.set_watchdog(watchdog);
        m
    }

    /// The machine's core topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Content fingerprint of the machine's input configuration:
    /// topology, installed fault plan (if any), and watchdog limits.
    ///
    /// Clocks, traces, and other *derived* state are deliberately
    /// excluded — two machines with the same fingerprint started from
    /// the same closure, whatever they have executed since.
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        let mut h = crate::fingerprint::FingerprintHasher::new();
        self.fingerprint_into(&mut h);
        h.finish()
    }

    /// Absorbs the machine's input configuration into `h` (see
    /// [`Machine::fingerprint`]).
    pub fn fingerprint_into(&self, h: &mut crate::fingerprint::FingerprintHasher) {
        h.write_str("machine");
        h.write_serialize(&self.topology);
        match &self.faults {
            Some(state) => state.plan().fingerprint_into(h),
            None => h.write_str("no_faults"),
        }
        h.write_u64(self.cycle_budget);
        h.write_u64(self.livelock_limit);
    }

    /// The current instant on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not part of the topology.
    #[inline]
    pub fn now(&self, core: CoreId) -> Cycles {
        self.clocks[core.index()]
    }

    /// The latest instant across all cores.
    pub fn global_now(&self) -> Cycles {
        self.clocks.iter().copied().fold(Cycles::ZERO, Cycles::max)
    }

    /// Spends `cost` cycles of labelled work on `core`, advancing its clock
    /// and, with event tracing enabled, recording a slice.
    ///
    /// Zero-cost charges still record a slice (they mark a causal step,
    /// e.g. a register write that is free but architecturally significant).
    ///
    /// Returns the instant the work completed.
    #[inline]
    pub fn charge(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
    ) -> Cycles {
        if self.unobserved() {
            return self.charge_fast(core, cost);
        }
        self.charge_inner(core, label, kind, cost, None)
    }

    /// Whether nothing observes individual charges: no profiler, event
    /// tracer or loop session is live. Read on every charge rather than
    /// cached, because [`Machine::enable_event_tracing`] can switch the
    /// tracer on at any point.
    #[inline]
    fn unobserved(&self) -> bool {
        self.profiler.is_none() && self.events.is_none() && self.loop_state.is_none()
    }

    /// A charge with no observer: exactly the clock, busy, transition
    /// counter and watchdog work of [`Machine::charge_inner`].
    #[inline]
    fn charge_fast(&mut self, core: CoreId, cost: Cycles) -> Cycles {
        let i = core.index();
        let end = self.clocks[i] + cost;
        self.clocks[i] = end;
        self.busy[i] += cost;
        TRANSITIONS.with(|t| t.set(t.get().wrapping_add(1)));
        self.watchdog_tick(cost);
        end
    }

    fn charge_inner(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
        transition: Option<TransitionId>,
    ) -> Cycles {
        let start = self.clocks[core.index()];
        if let Some(p) = &mut self.profiler {
            p.spans.charge(cost.as_u64());
        }
        if let Some(ev) = &mut self.events {
            ev.record_slice(
                core.index() as u8,
                start.as_u64(),
                cost.as_u64(),
                label,
                kind,
                transition,
            );
        }
        let end = start + cost;
        self.clocks[core.index()] = end;
        self.busy[core.index()] += cost;
        TRANSITIONS.with(|t| t.set(t.get().wrapping_add(1)));
        if self.loop_state.is_some() {
            self.loop_record(RawOp::Charge {
                core: core.index() as u8,
                kind,
                cost: cost.as_u64(),
            });
        }
        self.watchdog_tick(cost);
        end
    }

    /// Watchdog bookkeeping for one charge; trips raise typed panic
    /// payloads a harness can downcast after `catch_unwind`.
    #[inline]
    fn watchdog_tick(&mut self, cost: Cycles) {
        self.total_charged = self.total_charged.saturating_add(cost.as_u64());
        if self.total_charged > self.cycle_budget {
            std::panic::panic_any(CycleBudgetExceeded {
                budget: self.cycle_budget,
                reached: self.total_charged,
            });
        }
        if cost.is_zero() {
            self.zero_streak += 1;
            if self.zero_streak > self.livelock_limit {
                std::panic::panic_any(Livelocked {
                    streak: self.zero_streak,
                });
            }
        } else {
            self.zero_streak = 0;
        }
    }

    /// Spends `cost` cycles attributed to transition `id`: shorthand
    /// for a single-charge span (`span_enter(id)`, [`Machine::charge`],
    /// `span_exit(id)`).
    #[inline]
    pub fn charge_as(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
        id: TransitionId,
    ) -> Cycles {
        if self.unobserved() {
            return self.charge_fast(core, cost);
        }
        self.charge_as_observed(core, label, kind, cost, id)
    }

    fn charge_as_observed(
        &mut self,
        core: CoreId,
        label: &'static str,
        kind: TraceKind,
        cost: Cycles,
        id: TransitionId,
    ) -> Cycles {
        self.span_enter(id);
        let end = self.charge_inner(core, label, kind, cost, Some(id));
        self.span_exit(id);
        end
    }

    /// Advances `core`'s clock to `instant` if it is currently earlier;
    /// does nothing if the core is already past `instant`. Returns the
    /// core's (possibly unchanged) clock.
    ///
    /// This models a core blocking until a cross-core signal arrives — or
    /// discovering, when it next looks, that the signal already arrived.
    pub fn wait_until(&mut self, core: CoreId, instant: Cycles) -> Cycles {
        if self.loop_recording() {
            let clocks = self.clock_snapshot();
            self.loop_record(RawOp::Wait {
                core: core.index() as u8,
                target: instant.as_u64(),
                clocks,
            });
        }
        let clock = &mut self.clocks[core.index()];
        *clock = (*clock).max(instant);
        *clock
    }

    /// Sends a point-to-point signal (physical IPI, doorbell, wire packet)
    /// from `from` to `to`, taking `latency` cycles in flight. The send
    /// itself is free on the sending core (charge any send-side cost
    /// separately); the returned instant is when the signal becomes visible
    /// at `to`. The receiving core's clock is *not* advanced — pair with
    /// [`Machine::wait_until`] on the receive path.
    pub fn signal(&mut self, from: CoreId, to: CoreId, latency: Cycles) -> Cycles {
        let depart = self.now(from);
        let arrival = depart + latency;
        if self.loop_recording() {
            self.loop_record(RawOp::Signal {
                from: from.index() as u8,
                to: to.index() as u8,
                latency: latency.as_u64(),
                arrival: arrival.as_u64(),
            });
        }
        arrival
    }

    /// Synchronizes every core's clock to the global maximum. Used between
    /// benchmark iterations so each iteration starts from a common instant,
    /// mirroring the paper's barriers between measurements.
    pub fn barrier(&mut self) -> Cycles {
        // A barrier mid-loop means the loop body is not self-contained;
        // drop any compile session rather than skip over it.
        self.loop_state = None;
        let now = self.global_now();
        for c in &mut self.clocks {
            *c = now;
        }
        now
    }

    /// Cycles `core` spent on charged work (its clock minus idle time
    /// skipped by [`Machine::wait_until`]).
    #[inline]
    pub fn busy(&self, core: CoreId) -> Cycles {
        self.busy[core.index()]
    }

    /// The fraction of the interval `[0, global_now]` that `core` spent
    /// busy — the quantity behind §V's bottleneck analysis ("fully
    /// utilizes the underlying PCPU").
    pub fn utilization(&self, core: CoreId) -> f64 {
        let total = self.global_now().as_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.busy[core.index()].as_f64() / total
    }

    // --- fault injection & watchdog ------------------------------------

    /// Installs `plan` as this machine's fault plan, resetting all
    /// occurrence counters. An empty plan clears fault state entirely,
    /// restoring the zero-cost default.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.loop_state = None;
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Box::new(FaultState::new(plan)))
        };
    }

    /// Applies watchdog limits (enforced from the next charge on).
    pub fn set_watchdog(&mut self, watchdog: Watchdog) {
        self.loop_state = None;
        self.cycle_budget = watchdog.cycle_budget.unwrap_or(u64::MAX);
        self.livelock_limit = watchdog.livelock_threshold.unwrap_or(u64::MAX);
    }

    /// Whether a non-empty fault plan is installed.
    #[inline]
    pub fn faults_enabled(&self) -> bool {
        self.faults.is_some()
    }

    /// Consults the fault plan at `point`. Returns `false` (one
    /// branch, no other work) when no plan is installed; otherwise
    /// advances the point's occurrence counter, bumps the
    /// `fault.<point>` metric on injection, and returns the decision.
    #[inline]
    pub fn fault(&mut self, point: FaultPoint) -> bool {
        let Some(f) = &mut self.faults else {
            return false;
        };
        let hit = f.should_fault(point);
        if hit {
            if let Some(p) = &mut self.profiler {
                p.metrics.bump(point.metric(), 1);
            }
            if let Some(ev) = &mut self.events {
                // The next charged slice is the recovery path's head.
                ev.note_fault();
            }
        }
        hit
    }

    /// Faults injected at `point` so far (0 with no plan installed).
    pub fn faults_injected(&self, point: FaultPoint) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.injected(point))
    }

    /// Total faults injected across all points.
    pub fn total_faults_injected(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.total_injected())
    }

    /// Total cycles charged since construction (watchdog's measure —
    /// equals [`Machine::total_busy`]).
    #[inline]
    pub fn total_charged(&self) -> u64 {
        self.total_charged
    }

    // --- observability -------------------------------------------------

    /// Turns on span attribution and metrics collection. Call before
    /// any work is charged so the span totals cover the whole run
    /// (conservation: `spans().total() == Σ busy(core)`). Idempotent.
    pub fn enable_profiling(&mut self) {
        self.loop_state = None;
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// Whether profiling is enabled.
    #[inline]
    pub fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Opens a span: until the matching [`Machine::span_exit`], every
    /// charge on this machine is attributed to `id` (unless an inner
    /// span opens). No-op while profiling is disabled, so models can
    /// instrument unconditionally.
    #[inline]
    pub fn span_enter(&mut self, id: TransitionId) {
        let Some(p) = &mut self.profiler else { return };
        p.spans.enter(id);
        if self.loop_state.is_some() {
            self.loop_record(RawOp::SpanEnter(id));
        }
    }

    /// Closes the innermost span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics (with profiling enabled) if `id` is not the innermost
    /// open span — unbalanced instrumentation is a bug.
    #[inline]
    pub fn span_exit(&mut self, id: TransitionId) {
        let Some(p) = &mut self.profiler else { return };
        p.spans.exit(id);
        if self.loop_state.is_some() {
            self.loop_record(RawOp::SpanExit(id));
        }
    }

    /// Adds `n` to the named counter. No-op while profiling is
    /// disabled.
    #[inline]
    pub fn bump(&mut self, name: &'static str, n: u64) {
        let Some(p) = &mut self.profiler else { return };
        p.metrics.bump(name, n);
        if self.loop_state.is_some() {
            self.loop_record(RawOp::Bump { name, n });
        }
    }

    /// Records one histogram observation. No-op while profiling is
    /// disabled.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let Some(p) = &mut self.profiler else { return };
        p.metrics.observe(name, value);
        if self.loop_state.is_some() {
            self.loop_record(RawOp::Observe { name, value });
        }
    }

    /// The span tracer, if profiling is enabled.
    pub fn spans(&self) -> Option<&SpanTracer> {
        self.profiler.as_ref().map(|p| &p.spans)
    }

    /// The metrics registry, if profiling is enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.profiler.as_ref().map(|p| &p.metrics)
    }

    /// Mutable metrics registry access (suite-level sampling), if
    /// profiling is enabled.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.profiler.as_mut().map(|p| &mut p.metrics)
    }

    // --- steady-state loop compilation ----------------------------------

    /// Opens a loop compile session: until [`Machine::loop_end`], the
    /// machine records each iteration (delimited by
    /// [`Machine::loop_iter_begin`] / [`Machine::loop_replay`]) and —
    /// once a steady-state period is confirmed — replays the compiled
    /// block in bulk, skipping iterations wholesale.
    ///
    /// Returns `false` (and records nothing) when the machine is not
    /// eligible: profiling enabled (see
    /// [`Machine::loop_begin_profiled`]), a fault plan installed,
    /// event tracing on, or a finite watchdog — in every such case the
    /// per-transition machinery observes state a bulk replay cannot
    /// reproduce, so the loop stays interpreted. All other `loop_*`
    /// calls are cheap no-ops after a `false` here, so drivers need no
    /// separate code path.
    pub fn loop_begin(&mut self) -> bool {
        self.loop_begin_inner(false)
    }

    /// Like [`Machine::loop_begin`] but also eligible on a profiled
    /// machine with no open span: the compiled block then carries a
    /// batched span/metric delta applied via `merge_scaled` per
    /// replayed block. Only sound when nothing samples model-side
    /// lifetime counters into the registry mid-loop (the suite's
    /// profiling harness does, so it never opts in).
    pub fn loop_begin_profiled(&mut self) -> bool {
        self.loop_begin_inner(true)
    }

    fn loop_begin_inner(&mut self, allow_profiled: bool) -> bool {
        if self.loop_state.is_some() {
            // Nested sessions are unsupported; drop the outer one
            // rather than corrupt its iteration structure.
            self.loop_state = None;
            return false;
        }
        let profiled = self.profiler.is_some();
        let profile_ok = match &self.profiler {
            None => true,
            Some(p) => allow_profiled && p.spans.depth() == 0,
        };
        let eligible = self.faults.is_none()
            && self.events.is_none()
            && self.cycle_budget == u64::MAX
            && self.livelock_limit == u64::MAX
            && self.clocks.len() <= usize::from(u8::MAX) + 1
            && profile_ok;
        if eligible {
            self.loop_state = Some(Box::new(LoopState::Recording(Recorder::new(profiled))));
        }
        eligible
    }

    /// Marks the start of one loop iteration (clock snapshot while
    /// recording; no-op otherwise).
    pub fn loop_iter_begin(&mut self) {
        if !self.loop_recording() {
            return;
        }
        let clocks = self.clock_snapshot();
        if let Some(LoopState::Recording(rec)) = self.loop_state.as_deref_mut() {
            rec.begin_iter(clocks);
        }
    }

    /// Closes the current iteration and, once the loop has compiled,
    /// replays as many whole blocks as fit in `remaining` iterations.
    /// Returns the number of iterations skipped (0 while recording,
    /// after give-up, or when `remaining` is below one period). The
    /// driver must advance its induction variable by the return value
    /// and refresh loop-carried values from [`Machine::loop_reg`].
    pub fn loop_replay(&mut self, remaining: u64) -> u64 {
        let Some(mut state) = self.loop_state.take() else {
            return 0;
        };
        match &mut *state {
            LoopState::Recording(rec) => {
                rec.close_iter();
                let clocks: Vec<u64> = self.clocks.iter().map(|c| c.as_u64()).collect();
                if let Some(mut program) = rec.try_compile(&clocks) {
                    let skipped = self.replay(&mut program, remaining);
                    *state = LoopState::Ready(program);
                    self.loop_state = Some(state);
                    skipped
                } else if rec.recorded_iters() >= GIVE_UP_ITERS {
                    // No steady period: stop paying recording costs.
                    0
                } else {
                    self.loop_state = Some(state);
                    0
                }
            }
            LoopState::Ready(program) => {
                let skipped = self.replay(program, remaining);
                self.loop_state = Some(state);
                skipped
            }
        }
    }

    /// Publishes a loop-carried suite value (e.g. TCP_RR's next send
    /// instant) so compiled replay can reconstruct it across skipped
    /// iterations. No-op unless recording.
    pub fn loop_set_reg(&mut self, idx: usize, value: Cycles) {
        if !self.loop_recording() {
            return;
        }
        if idx > usize::from(u8::MAX) {
            self.loop_state = None;
            return;
        }
        let clocks = self.clock_snapshot();
        self.loop_record(RawOp::Reg {
            idx: idx as u8,
            value: value.as_u64(),
            clocks,
        });
    }

    /// The current value of loop register `idx` after a replay
    /// (`None` while interpreting — the driver's own value is then
    /// already current).
    pub fn loop_reg(&self, idx: usize) -> Option<Cycles> {
        match self.loop_state.as_deref() {
            Some(LoopState::Ready(p)) => p.regs.get(idx).copied().map(Cycles::new),
            _ => None,
        }
    }

    /// Ends the loop session, dropping any recording or compiled
    /// program.
    pub fn loop_end(&mut self) {
        self.loop_state = None;
    }

    /// Whether the active loop session has compiled to a program.
    pub fn loop_compiled(&self) -> bool {
        matches!(self.loop_state.as_deref(), Some(LoopState::Ready(_)))
    }

    /// Iterations skipped by compiled replay since construction.
    pub fn iters_replayed(&self) -> u64 {
        self.iters_replayed
    }

    #[inline]
    fn loop_recording(&self) -> bool {
        matches!(self.loop_state.as_deref(), Some(LoopState::Recording(_)))
    }

    fn clock_snapshot(&self) -> Box<[u64]> {
        self.clocks.iter().map(|c| c.as_u64()).collect()
    }

    /// Feeds one recorded op to the session; aborts the session when
    /// the op falls outside an open iteration (the loop body is then
    /// not the only thing charging the machine).
    fn loop_record(&mut self, op: RawOp) {
        if let Some(LoopState::Recording(rec)) = self.loop_state.as_deref_mut() {
            if !rec.record(op) {
                self.loop_state = None;
            }
        }
    }

    /// Applies `blocks × program` to the machine's aggregate state.
    fn replay(&mut self, program: &mut Program, remaining: u64) -> u64 {
        let blocks = remaining / program.period;
        if blocks == 0 {
            return 0;
        }
        let mut clocks: Vec<u64> = self.clocks.iter().map(|c| c.as_u64()).collect();
        program.run_blocks(&mut clocks, blocks);
        for (c, v) in self.clocks.iter_mut().zip(&clocks) {
            *c = Cycles::new(*v);
        }
        for (b, d) in self.busy.iter_mut().zip(&program.busy_delta) {
            *b += Cycles::new(d * blocks);
        }
        self.total_charged = self
            .total_charged
            .saturating_add(program.charged_delta.saturating_mul(blocks));
        let charges = program.charges_per_block * blocks;
        if program.charges_per_block > 0 {
            if program.all_zero {
                self.zero_streak += charges;
            } else {
                self.zero_streak = program.tail_zero_run;
            }
        }
        TRANSITIONS.with(|t| t.set(t.get().wrapping_add(charges)));
        if let Some(delta) = &program.profile_delta {
            if let Some(p) = &mut self.profiler {
                p.spans.merge_scaled(&delta.spans, blocks);
                p.metrics.merge_scaled(&delta.metrics, blocks);
            }
        }
        let skipped = blocks * program.period;
        self.iters_replayed += skipped;
        skipped
    }

    // --- causal event tracing -------------------------------------------

    /// Turns on causal event tracing: from now on every charge records
    /// a timestamped slice on its core's track, and the flow hooks
    /// below stitch cross-core chains. `ring` bounds the kept events
    /// (`None` = unbounded). Tracing reads clocks but never advances
    /// them, so an identical run with tracing off charges identical
    /// cycles.
    pub fn enable_event_tracing(&mut self, ring: Option<usize>) {
        self.loop_state = None;
        self.events = Some(Box::new(match ring {
            Some(n) => EventTracer::with_capacity(n),
            None => EventTracer::new(),
        }));
    }

    /// Whether causal event tracing is enabled.
    #[inline]
    pub fn event_tracing(&self) -> bool {
        self.events.is_some()
    }

    /// The event tracer, if tracing is enabled.
    pub fn event_tracer(&self) -> Option<&EventTracer> {
        self.events.as_deref()
    }

    /// Takes the event tracer out of the machine (export/derivation
    /// time), disabling further recording.
    pub fn take_event_tracer(&mut self) -> Option<EventTracer> {
        self.events.take().map(|b| *b)
    }

    /// Opens a causal chain anchored at `core`'s current instant.
    /// Returns `None` (one branch, no other work) while tracing is
    /// disabled, so models can instrument unconditionally and thread
    /// the `Option` through [`Machine::flow_step`]/[`Machine::flow_end`].
    #[inline]
    pub fn flow_begin(
        &mut self,
        kind: FlowKind,
        core: CoreId,
        label: &'static str,
    ) -> Option<FlowId> {
        let ts = self.now(core).as_u64();
        self.events
            .as_mut()
            .map(|ev| ev.flow_begin(kind, core.index() as u8, ts, label))
    }

    /// Records an intermediate hop of chain `id` at `core`'s current
    /// instant. No-op for `None` (tracing disabled at begin time).
    #[inline]
    pub fn flow_step(&mut self, id: Option<FlowId>, core: CoreId, label: &'static str) {
        let Some(id) = id else { return };
        let ts = self.now(core).as_u64();
        if let Some(ev) = &mut self.events {
            ev.flow_step(id, core.index() as u8, ts, label);
        }
    }

    /// Ends chain `id` at `core`'s current instant. No-op for `None`.
    #[inline]
    pub fn flow_end(&mut self, id: Option<FlowId>, core: CoreId, label: &'static str) {
        let Some(id) = id else { return };
        let ts = self.now(core).as_u64();
        if let Some(ev) = &mut self.events {
            ev.flow_end(id, core.index() as u8, ts, label);
        }
    }

    /// Sum of every core's charged work — the run total that the span
    /// breakdown must account for.
    pub fn total_busy(&self) -> Cycles {
        self.busy.iter().copied().sum()
    }

    /// Asserts span/charge conservation: with profiling enabled, the
    /// attributed exclusive cycles plus the unattributed remainder must
    /// equal both the tracer's running total and the machine's summed
    /// busy time. Returns the verified total.
    ///
    /// # Panics
    ///
    /// Panics if profiling is disabled or the identity does not hold.
    pub fn assert_conservation(&self) -> Cycles {
        let spans = self
            .spans()
            .expect("assert_conservation requires profiling to be enabled");
        let excl_sum: u64 = TransitionId::ALL
            .into_iter()
            .map(|id| spans.exclusive(id))
            .sum();
        assert_eq!(
            excl_sum + spans.unattributed(),
            spans.total(),
            "span exclusive totals do not sum to the tracer total"
        );
        assert_eq!(
            spans.total(),
            self.total_busy().as_u64(),
            "span totals diverge from the machine's busy cycles"
        );
        self.total_busy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_core_machine() -> Machine {
        Machine::new(Topology::split(2, 1))
    }

    #[test]
    fn charge_advances_only_target_core() {
        let mut m = two_core_machine();
        let end = m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(100));
        assert_eq!(end, Cycles::new(100));
        assert_eq!(m.now(CoreId::new(0)), Cycles::new(100));
        assert_eq!(m.now(CoreId::new(1)), Cycles::ZERO);
        assert_eq!(m.global_now(), Cycles::new(100));
    }

    #[test]
    fn zero_cost_charge_still_traces() {
        let mut m = two_core_machine();
        m.enable_event_tracing(None);
        m.charge(CoreId::new(0), "mark", TraceKind::Other, Cycles::ZERO);
        assert_eq!(m.event_tracer().unwrap().slices().len(), 1);
        assert_eq!(m.now(CoreId::new(0)), Cycles::ZERO);
    }

    #[test]
    fn wait_until_never_rewinds() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(500));
        // Waiting for an instant in the past leaves the clock alone.
        let t = m.wait_until(CoreId::new(0), Cycles::new(100));
        assert_eq!(t, Cycles::new(500));
        // Waiting for the future advances.
        let t = m.wait_until(CoreId::new(0), Cycles::new(900));
        assert_eq!(t, Cycles::new(900));
    }

    #[test]
    fn signal_latency_composes_with_receiver_clock() {
        let mut m = two_core_machine();
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge(a, "w", TraceKind::Guest, Cycles::new(1000));
        let arrival = m.signal(a, b, Cycles::new(250));
        assert_eq!(arrival, Cycles::new(1250));
        // Busy receiver: signal waits for the receiver, not vice versa.
        m.charge(b, "busy", TraceKind::Host, Cycles::new(2000));
        let t = m.wait_until(b, arrival);
        assert_eq!(t, Cycles::new(2000));
    }

    #[test]
    fn barrier_aligns_all_clocks() {
        let mut m = two_core_machine();
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(77));
        let t = m.barrier();
        assert_eq!(t, Cycles::new(77));
        assert_eq!(m.now(CoreId::new(1)), Cycles::new(77));
    }

    #[test]
    fn untraced_machine_records_nothing_but_keeps_time() {
        let mut m = Machine::new(Topology::split(2, 1));
        m.charge(CoreId::new(0), "a", TraceKind::Guest, Cycles::new(10));
        assert!(m.event_tracer().is_none());
        assert_eq!(m.now(CoreId::new(0)), Cycles::new(10));
    }

    #[test]
    fn busy_time_excludes_idle_waits() {
        let mut m = two_core_machine();
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge(a, "w", TraceKind::Guest, Cycles::new(1_000));
        let arrival = m.signal(a, b, Cycles::new(500));
        m.wait_until(b, arrival); // b idled for 1,500 cycles
        m.charge(b, "h", TraceKind::Host, Cycles::new(500));
        assert_eq!(m.busy(a), Cycles::new(1_000));
        assert_eq!(m.busy(b), Cycles::new(500));
        assert_eq!(m.now(b), Cycles::new(2_000));
        assert!((m.utilization(a) - 0.5).abs() < 1e-9);
        assert!((m.utilization(b) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn utilization_of_fresh_machine_is_zero() {
        let m = two_core_machine();
        assert_eq!(m.utilization(CoreId::new(0)), 0.0);
    }

    #[test]
    fn profiling_attributes_charges_to_innermost_span() {
        let mut m = two_core_machine();
        m.enable_profiling();
        let c0 = CoreId::new(0);
        m.charge(c0, "boot", TraceKind::Other, Cycles::new(10)); // unattributed
        m.span_enter(TransitionId::ContextSave);
        m.charge(c0, "save:gp", TraceKind::ContextSave, Cycles::new(152));
        m.charge_as(
            c0,
            "save:vgic",
            TraceKind::ContextSave,
            Cycles::new(500),
            TransitionId::VgicLrSave,
        );
        m.span_exit(TransitionId::ContextSave);
        m.bump("traps", 2);
        m.observe("lat", 662);
        let spans = m.spans().unwrap();
        assert_eq!(spans.exclusive(TransitionId::ContextSave), 152);
        assert_eq!(spans.exclusive(TransitionId::VgicLrSave), 500);
        assert_eq!(spans.inclusive(TransitionId::ContextSave), 652);
        assert_eq!(spans.unattributed(), 10);
        assert_eq!(m.metrics().unwrap().counter("traps"), 2);
        assert_eq!(m.assert_conservation(), Cycles::new(662));
    }

    #[test]
    fn profiling_disabled_makes_spans_free_noops() {
        let mut m = two_core_machine();
        m.span_enter(TransitionId::TrapToEl2);
        m.charge(CoreId::new(0), "t", TraceKind::Trap, Cycles::new(40));
        m.span_exit(TransitionId::TrapToEl2);
        m.bump("traps", 1);
        assert!(m.spans().is_none());
        assert!(m.metrics().is_none());
        assert!(!m.profiling());
    }

    #[test]
    fn conservation_spans_multiple_cores() {
        let mut m = two_core_machine();
        m.enable_profiling();
        m.charge_as(
            CoreId::new(0),
            "g",
            TraceKind::Guest,
            Cycles::new(100),
            TransitionId::GuestRun,
        );
        m.charge_as(
            CoreId::new(1),
            "h",
            TraceKind::Host,
            Cycles::new(300),
            TransitionId::HostDispatch,
        );
        assert_eq!(m.total_busy(), Cycles::new(400));
        assert_eq!(m.assert_conservation(), Cycles::new(400));
    }

    /// One charge/signal/wait sequence through both charge entry points,
    /// zero-cost charges included.
    fn charge_sequence(m: &mut Machine) {
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        for i in 0..40u64 {
            m.charge(a, "guest:work", TraceKind::Guest, Cycles::new(100 + i));
            m.charge_as(
                a,
                "gicd:sgir",
                TraceKind::Emulation,
                Cycles::new(i % 3 * 40),
                TransitionId::GicdEmulate,
            );
            let arrival = m.signal(a, b, Cycles::new(600));
            m.wait_until(b, arrival);
            m.charge_as(
                b,
                "virq:ack",
                TraceKind::Emulation,
                Cycles::new(70),
                TransitionId::VirqInject,
            );
        }
    }

    /// Machines that take the unobserved charge path (the first) and
    /// every observed one.
    fn charge_path_machines() -> Vec<(&'static str, Machine)> {
        let topo = || Topology::split(2, 1);
        let with = |f: fn(&mut Machine)| {
            let mut m = Machine::new(topo());
            f(&mut m);
            m
        };
        vec![
            ("no hooks", Machine::new(topo())),
            ("profiling", with(|m| m.enable_profiling())),
            ("event tracing", with(|m| m.enable_event_tracing(None))),
            (
                "loop session",
                with(|m| {
                    assert!(m.loop_begin());
                    m.loop_iter_begin();
                }),
            ),
            (
                "cycle budget",
                with(|m| {
                    m.set_watchdog(Watchdog {
                        cycle_budget: Some(u64::MAX - 1),
                        livelock_threshold: None,
                    })
                }),
            ),
        ]
    }

    #[test]
    fn unobserved_and_observed_charges_keep_identical_time() {
        let mut want = None;
        for (name, mut m) in charge_path_machines() {
            let before = thread_transitions();
            charge_sequence(&mut m);
            let got = (
                m.clocks.clone(),
                m.busy.clone(),
                m.total_charged,
                m.zero_streak,
                thread_transitions().wrapping_sub(before),
            );
            assert_eq!(got.4, 120, "{name}: one transition per charge");
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "{name} diverged from the unobserved path"),
            }
            if name == "loop session" {
                assert!(m.loop_recording(), "the session must still be recording");
            }
        }
    }

    #[test]
    fn trace_enabled_mid_run_records() {
        let mut m = Machine::new(Topology::split(2, 1));
        charge_sequence(&mut m);
        assert!(m.event_tracer().is_none());
        m.enable_event_tracing(None);
        m.charge(CoreId::new(0), "late", TraceKind::Guest, Cycles::new(10));
        m.charge_as(
            CoreId::new(1),
            "late:as",
            TraceKind::Sched,
            Cycles::new(20),
            TransitionId::Sched,
        );
        assert_eq!(m.event_tracer().unwrap().labels(), ["late", "late:as"]);
        m.charge(CoreId::new(0), "late", TraceKind::Guest, Cycles::new(5));
        assert_eq!(m.event_tracer().unwrap().total_by_label("late"), 15);
    }

    /// Table V's pattern: a tracer switched on for the last stretch of a
    /// run and then taken out must leave the run's time exactly as an
    /// untraced twin's.
    #[test]
    fn tracer_enabled_mid_run_and_taken_keeps_identical_time() {
        let run = |traced: bool| {
            let mut m = Machine::new(Topology::split(2, 1));
            let before = thread_transitions();
            charge_sequence(&mut m);
            if traced {
                m.enable_event_tracing(None);
            }
            charge_sequence(&mut m);
            if traced {
                let tracer = m.take_event_tracer().unwrap();
                assert_eq!(tracer.recorded(), 120, "one slice per charge");
            }
            charge_sequence(&mut m);
            (
                m.clocks.clone(),
                m.busy.clone(),
                m.total_charged(),
                thread_transitions().wrapping_sub(before),
            )
        };
        let plain = run(false);
        assert_eq!(plain.3, 360);
        assert_eq!(run(true), plain);
    }

    #[test]
    fn cycle_budget_trips_at_the_same_charge_on_every_path() {
        use crate::fault::CycleBudgetExceeded;
        let mut want = None;
        for (name, mut m) in charge_path_machines() {
            if name == "cycle budget" {
                continue;
            }
            m.set_watchdog(Watchdog {
                cycle_budget: Some(5_000),
                livelock_threshold: None,
            });
            let before = thread_transitions();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                charge_sequence(&mut m);
            }))
            .expect_err("budget must trip");
            let reached = payload
                .downcast_ref::<CycleBudgetExceeded>()
                .expect("typed payload")
                .reached;
            let got = (
                reached,
                thread_transitions().wrapping_sub(before),
                m.clocks.clone(),
            );
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "{name}: budget tripped elsewhere"),
            }
        }
    }

    #[test]
    fn fault_consult_without_plan_is_false_and_free() {
        let mut m = two_core_machine();
        assert!(!m.faults_enabled());
        for p in FaultPoint::ALL {
            assert!(!m.fault(p));
            assert_eq!(m.faults_injected(p), 0);
        }
    }

    #[test]
    fn fault_plan_decisions_bump_metrics_when_profiling() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.enable_profiling();
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::VirqDrop, 1.0));
        assert!(m.faults_enabled());
        assert!(m.fault(FaultPoint::VirqDrop));
        assert!(!m.fault(FaultPoint::NicStall));
        assert_eq!(m.faults_injected(FaultPoint::VirqDrop), 1);
        assert_eq!(m.total_faults_injected(), 1);
        assert_eq!(m.metrics().unwrap().counter("fault.virq_drop"), 1);
    }

    #[test]
    fn empty_fault_plan_clears_state() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::WireDrop, 1.0));
        assert!(m.faults_enabled());
        m.set_fault_plan(FaultPlan::new(1));
        assert!(!m.faults_enabled());
    }

    #[test]
    fn cycle_budget_watchdog_trips_with_typed_payload() {
        use crate::fault::CycleBudgetExceeded;
        use crate::Watchdog;
        let payload = std::panic::catch_unwind(|| {
            let mut m = two_core_machine();
            m.set_watchdog(Watchdog {
                cycle_budget: Some(1_000),
                livelock_threshold: None,
            });
            for _ in 0..100 {
                m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(100));
            }
        })
        .expect_err("budget must trip");
        let trip = payload
            .downcast_ref::<CycleBudgetExceeded>()
            .expect("typed payload");
        assert_eq!(trip.budget, 1_000);
        assert!(trip.reached > 1_000);
    }

    #[test]
    fn livelock_watchdog_trips_on_zero_progress() {
        use crate::fault::Livelocked;
        use crate::Watchdog;
        let payload = std::panic::catch_unwind(|| {
            let mut m = two_core_machine();
            m.set_watchdog(Watchdog {
                cycle_budget: None,
                livelock_threshold: Some(10),
            });
            loop {
                m.charge(CoreId::new(0), "spin", TraceKind::Other, Cycles::ZERO);
            }
        })
        .expect_err("livelock must trip");
        assert!(payload.downcast_ref::<Livelocked>().is_some());
    }

    #[test]
    fn nonzero_charges_reset_livelock_streak() {
        use crate::Watchdog;
        let mut m = two_core_machine();
        m.set_watchdog(Watchdog {
            cycle_budget: None,
            livelock_threshold: Some(5),
        });
        for _ in 0..10 {
            for _ in 0..5 {
                m.charge(CoreId::new(0), "z", TraceKind::Other, Cycles::ZERO);
            }
            m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(1));
        }
        assert_eq!(m.total_charged(), 10);
    }

    #[test]
    fn machine_new_picks_up_ambient_plan() {
        use crate::fault::install_ambient;
        use crate::{FaultPlan, Watchdog};
        let plan = FaultPlan::new(12).with_rate(FaultPoint::WireDrop, 1.0);
        let _g = install_ambient(Some(plan), Watchdog::UNLIMITED);
        let mut m = two_core_machine();
        assert!(m.faults_enabled());
        assert!(m.fault(FaultPoint::WireDrop));
        drop(_g);
        let m2 = two_core_machine();
        assert!(!m2.faults_enabled());
    }

    #[test]
    fn event_tracing_records_slices_and_flows_without_advancing_time() {
        let mut m = two_core_machine();
        m.enable_event_tracing(None);
        assert!(m.event_tracing());
        let (a, b) = (CoreId::new(0), CoreId::new(1));
        m.charge_as(
            a,
            "guest:kick",
            TraceKind::Emulation,
            Cycles::new(100),
            TransitionId::VhostKick,
        );
        let flow = m.flow_begin(FlowKind::VirtioKick, a, "virtio:kick");
        assert!(flow.is_some());
        let arrival = m.signal(a, b, Cycles::new(400));
        m.wait_until(b, arrival);
        m.flow_step(flow, b, "vhost:wake");
        m.charge(b, "vhost:tx", TraceKind::Host, Cycles::new(1_000));
        m.flow_end(flow, b, "nic:dma");

        // Tracing is read-only on time: clocks match an untraced twin.
        let mut twin = two_core_machine();
        twin.charge_as(
            a,
            "guest:kick",
            TraceKind::Emulation,
            Cycles::new(100),
            TransitionId::VhostKick,
        );
        let arr = twin.signal(a, b, Cycles::new(400));
        twin.wait_until(b, arr);
        twin.charge(b, "vhost:tx", TraceKind::Host, Cycles::new(1_000));
        assert_eq!(m.now(a), twin.now(a));
        assert_eq!(m.now(b), twin.now(b));

        let tracer = m.take_event_tracer().unwrap();
        assert!(!m.event_tracing(), "taking the tracer disables tracing");
        let slices = tracer.slices();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].transition, Some(TransitionId::VhostKick));
        assert_eq!(slices[1].track, 1);
        assert_eq!(slices[1].start, 500);
        let chains = tracer.chains();
        assert_eq!(chains.len(), 1);
        assert!(chains[0].complete);
        assert_eq!(chains[0].latency, 1_400, "kick at 100, dma at 1,500");
        assert_eq!(chains[0].track_span(), 2);
    }

    #[test]
    fn flow_hooks_are_noops_while_tracing_is_disabled() {
        let mut m = two_core_machine();
        let flow = m.flow_begin(FlowKind::IrqDelivery, CoreId::new(0), "irq");
        assert!(flow.is_none());
        m.flow_step(flow, CoreId::new(1), "hop");
        m.flow_end(flow, CoreId::new(1), "done");
        assert!(m.event_tracer().is_none());
        assert!(m.take_event_tracer().is_none());
    }

    #[test]
    fn fault_injection_marks_the_next_traced_slice() {
        use crate::FaultPlan;
        let mut m = two_core_machine();
        m.enable_event_tracing(None);
        m.set_fault_plan(FaultPlan::new(1).with_rate(FaultPoint::VirqDrop, 1.0));
        m.charge(CoreId::new(0), "ok", TraceKind::Guest, Cycles::new(10));
        assert!(m.fault(FaultPoint::VirqDrop));
        m.charge(CoreId::new(0), "recover", TraceKind::Host, Cycles::new(20));
        let slices = m.event_tracer().unwrap().slices();
        assert!(!slices[0].fault);
        assert!(slices[1].fault);
    }

    #[test]
    fn ring_mode_caps_kept_slices() {
        let mut m = two_core_machine();
        m.enable_event_tracing(Some(3));
        for _ in 0..10 {
            m.charge(CoreId::new(0), "w", TraceKind::Guest, Cycles::new(5));
        }
        let t = m.event_tracer().unwrap();
        assert_eq!(t.slices().len(), 3);
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped_slices(), 7);
    }

    #[test]
    fn trace_records_interval_and_order() {
        let mut m = two_core_machine();
        m.enable_event_tracing(None);
        m.charge(CoreId::new(0), "first", TraceKind::Trap, Cycles::new(160));
        m.charge(
            CoreId::new(0),
            "second",
            TraceKind::Return,
            Cycles::new(120),
        );
        let evs = m.take_event_tracer().unwrap().slices();
        assert_eq!(evs[0].label, "first");
        assert_eq!(evs[0].kind, TraceKind::Trap);
        assert_eq!(evs[0].start, 0);
        assert_eq!(evs[0].start + evs[0].duration, 160);
        assert_eq!(evs[1].start, 160);
        assert_eq!(evs[1].start + evs[1].duration, 280);
    }

    // --- steady-state loop compilation ---------------------------------

    /// Runs `iters` iterations of `body` under a loop session, the way
    /// suite drivers do.
    fn drive(m: &mut Machine, iters: u64, profiled: bool, mut body: impl FnMut(&mut Machine, u64)) {
        if profiled {
            m.loop_begin_profiled();
        } else {
            m.loop_begin();
        }
        let mut i = 0;
        while i < iters {
            let skipped = m.loop_replay(iters - i);
            if skipped > 0 {
                i += skipped;
                continue;
            }
            m.loop_iter_begin();
            body(m, i);
            i += 1;
        }
        m.loop_end();
    }

    fn assert_replay_matches(compiled: &Machine, interpreted: &Machine) {
        assert_eq!(compiled.clocks, interpreted.clocks, "clocks diverged");
        assert_eq!(compiled.busy, interpreted.busy, "busy diverged");
        assert_eq!(
            compiled.total_charged, interpreted.total_charged,
            "total_charged diverged"
        );
        assert_eq!(
            compiled.zero_streak, interpreted.zero_streak,
            "zero_streak diverged"
        );
    }

    /// A ping-pong body: compute on core 0, IPI to core 1, handle,
    /// reply. Exercises Charge, Signal, and slot-classified waits.
    fn ping_pong(m: &mut Machine, _i: u64) {
        let c0 = CoreId::new(0);
        let c1 = CoreId::new(1);
        m.charge(c0, "guest:work", TraceKind::Guest, Cycles::new(1000));
        let there = m.signal(c0, c1, Cycles::new(400));
        m.wait_until(c1, there);
        m.charge(c1, "hyp:handle", TraceKind::Emulation, Cycles::new(300));
        let back = m.signal(c1, c0, Cycles::new(400));
        m.wait_until(c0, back);
    }

    #[test]
    fn loop_replay_is_identical_to_interpretation() {
        let mut compiled = Machine::new(Topology::split(2, 1));
        let mut interpreted = Machine::new(Topology::split(2, 1));
        drive(&mut compiled, 500, false, ping_pong);
        for i in 0..500 {
            ping_pong(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 400, "loop should have compiled");
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_replay_handles_period_two() {
        let body = |m: &mut Machine, i: u64| {
            let cost = if i.is_multiple_of(2) { 700 } else { 900 };
            m.charge(CoreId::new(0), "alt", TraceKind::Guest, Cycles::new(cost));
            ping_pong(m, i);
        };
        let mut compiled = Machine::new(Topology::split(2, 1));
        let mut interpreted = Machine::new(Topology::split(2, 1));
        drive(&mut compiled, 501, false, body);
        for i in 0..501 {
            body(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 400);
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_replay_handles_linear_wait_targets() {
        // A paced receive loop: arrivals stride by a constant spacing
        // larger than the per-iteration work, so the wait is binding
        // and classifies as linear.
        let body = |m: &mut Machine, i: u64| {
            let arrival = Cycles::new(5_000 + i * 2_500);
            m.wait_until(CoreId::new(1), arrival);
            m.charge(CoreId::new(1), "rx", TraceKind::Io, Cycles::new(600));
        };
        let mut compiled = Machine::new(Topology::split(2, 1));
        let mut interpreted = Machine::new(Topology::split(2, 1));
        drive(&mut compiled, 400, false, body);
        for i in 0..400 {
            body(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 300);
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn loop_registers_reconstruct_loop_carried_values() {
        // A TCP_RR-style loop carrying the next send instant.
        let run = |use_loop: bool| -> (Machine, Cycles) {
            let mut m = Machine::new(Topology::split(2, 1));
            let mut t_send = Cycles::ZERO;
            if use_loop {
                m.loop_begin();
            }
            let iters = 600u64;
            let mut i = 0;
            while i < iters {
                if use_loop {
                    let skipped = m.loop_replay(iters - i);
                    if skipped > 0 {
                        i += skipped;
                        t_send = m.loop_reg(0).expect("reg after replay");
                        continue;
                    }
                    m.loop_iter_begin();
                }
                let arrival = t_send + Cycles::new(2_000);
                m.wait_until(CoreId::new(0), arrival);
                t_send = m.charge(CoreId::new(0), "rr", TraceKind::Guest, Cycles::new(1_234));
                if use_loop {
                    m.loop_set_reg(0, t_send);
                }
                i += 1;
            }
            m.loop_end();
            (m, t_send)
        };
        let (compiled, t_compiled) = run(true);
        let (interpreted, t_interpreted) = run(false);
        assert!(compiled.iters_replayed() > 500);
        assert_eq!(t_compiled, t_interpreted);
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn profiled_loop_replay_matches_interpreted_observability() {
        let body = |m: &mut Machine, _i: u64| {
            m.charge_as(
                CoreId::new(0),
                "vm:hypercall",
                TraceKind::Trap,
                Cycles::new(520),
                TransitionId::Eret,
            );
            m.bump("loop.iters", 1);
            m.observe("loop.cost", 520);
            m.charge(CoreId::new(0), "guest", TraceKind::Guest, Cycles::new(80));
        };
        let mk = || {
            let mut m = Machine::new(Topology::split(2, 1));
            m.enable_profiling();
            m
        };
        let mut compiled = mk();
        let mut interpreted = mk();
        drive(&mut compiled, 300, true, body);
        for i in 0..300 {
            body(&mut interpreted, i);
        }
        assert!(compiled.iters_replayed() > 200);
        assert_replay_matches(&compiled, &interpreted);
        let (cs, is) = (compiled.spans().unwrap(), interpreted.spans().unwrap());
        assert_eq!(cs.total(), is.total());
        assert_eq!(cs.unattributed(), is.unattributed());
        assert_eq!(
            cs.exclusive(TransitionId::Eret),
            is.exclusive(TransitionId::Eret)
        );
        assert_eq!(cs.count(TransitionId::Eret), is.count(TransitionId::Eret));
        assert_eq!(cs.folded("run"), is.folded("run"));
        let (cm, im) = (compiled.metrics().unwrap(), interpreted.metrics().unwrap());
        assert_eq!(cm.counter("loop.iters"), im.counter("loop.iters"));
        let (ch, ih) = (
            cm.histogram("loop.cost").unwrap(),
            im.histogram("loop.cost").unwrap(),
        );
        assert_eq!(ch.count(), ih.count());
        assert_eq!(ch.sum(), ih.sum());
    }

    #[test]
    fn plain_loop_begin_refuses_profiled_machines() {
        let mut m = Machine::new(Topology::split(2, 1));
        m.enable_profiling();
        assert!(!m.loop_begin());
        drive(&mut m, 100, false, ping_pong);
        assert_eq!(m.iters_replayed(), 0);
    }

    #[test]
    fn ineligible_machines_stay_interpreted() {
        // A machine with no observer is eligible.
        let mut m = Machine::new(Topology::split(2, 1));
        assert!(m.loop_begin());
        // Fault plan installed.
        let mut m = Machine::new(Topology::split(2, 1));
        m.set_fault_plan(FaultPlan::new(7).with_occurrence(FaultPoint::VirqDrop, 3));
        assert!(!m.loop_begin());
        // Finite watchdog.
        let mut m = Machine::new(Topology::split(2, 1));
        m.set_watchdog(Watchdog {
            cycle_budget: Some(u64::MAX - 1),
            livelock_threshold: None,
        });
        assert!(!m.loop_begin());
        // Event tracing on.
        let mut m = Machine::new(Topology::split(2, 1));
        m.enable_event_tracing(None);
        assert!(!m.loop_begin());
        // Even with a session refused, the loop still runs correctly.
        let mut refused = Machine::new(Topology::split(2, 1));
        refused.enable_event_tracing(None);
        drive(&mut refused, 50, false, ping_pong);
        assert_eq!(refused.iters_replayed(), 0);
        let mut interpreted = Machine::new(Topology::split(2, 1));
        interpreted.enable_event_tracing(None);
        for i in 0..50 {
            ping_pong(&mut interpreted, i);
        }
        assert_eq!(refused.clocks, interpreted.clocks);
    }

    #[test]
    fn config_changes_abort_an_open_session() {
        let mut m = Machine::new(Topology::split(2, 1));
        assert!(m.loop_begin());
        m.loop_iter_begin();
        ping_pong(&mut m, 0);
        m.set_watchdog(Watchdog {
            cycle_budget: Some(1 << 60),
            livelock_threshold: None,
        });
        assert!(m.loop_state.is_none());
        // Aborted sessions no-op from then on.
        assert_eq!(m.loop_replay(100), 0);
    }

    #[test]
    fn aperiodic_loops_give_up_and_stay_correct() {
        // Cost grows every iteration: no steady period exists.
        let body = |m: &mut Machine, i: u64| {
            m.charge(
                CoreId::new(0),
                "grow",
                TraceKind::Guest,
                Cycles::new(100 + i),
            );
        };
        let mut compiled = Machine::new(Topology::split(2, 1));
        let mut interpreted = Machine::new(Topology::split(2, 1));
        drive(&mut compiled, 200, false, body);
        for i in 0..200 {
            body(&mut interpreted, i);
        }
        assert_eq!(compiled.iters_replayed(), 0);
        assert!(!compiled.loop_compiled());
        assert_replay_matches(&compiled, &interpreted);
    }

    #[test]
    fn thread_transitions_counts_interpreted_and_replayed_alike() {
        let before = thread_transitions();
        let mut m = Machine::new(Topology::split(2, 1));
        drive(&mut m, 500, false, ping_pong);
        let counted = thread_transitions().wrapping_sub(before);
        // Two charges per iteration, whether interpreted or replayed.
        assert_eq!(counted, 1000);
        assert!(m.iters_replayed() > 400);
    }
}
