//! The consolidation sweep: SMP guests sharing physical CPUs under a
//! hypervisor vCPU scheduler.
//!
//! The paper's measurements pin one vCPU per pCPU; real deployments
//! oversubscribe. Each cell here simulates `ratio` two-vCPU VMs sharing
//! two pCPUs (a `ratio`:1 vCPU:pCPU ratio) running a closed-loop
//! TCP_RR-style transaction per VM:
//!
//! * vCPU **A** (pinned to pCPU0) wakes on each request arrival, takes
//!   a guest kernel lock, does the RR work, kicks its sibling with a
//!   **virtual IPI routed through the modelled GIC distributor as an
//!   SGI** (`GICD_SGIR` write → [`Distributor::mmio_write`] fan-out →
//!   [`VgicCpuInterface::inject`]), and completes the transaction.
//! * vCPU **B** (pinned to pCPU1) wakes on the SGI, acks it, runs a
//!   locked critical section (softirq under the same kernel lock), a
//!   tail, and EOIs. Coalesced SGIs ([`VgicError::AlreadyListed`]) are
//!   counted — at high ratios the guest is too slow to drain them.
//!
//! Each pCPU multiplexes its `ratio` pinned vCPUs through a pluggable
//! [`VcpuScheduler`] (Xen-credit or KVM/CFS, per [`SchedPolicy`]) with
//! preemptive timer slicing and wake preemption. Every scheduling
//! action is charged through real modelled paths on the machine — VM
//! switches at the hypervisor's measured world-switch cost, timer
//! interrupts as [`TransitionId::SchedTimer`], and guest spinning on a
//! preempted lock holder as [`TransitionId::LockHolderSpin`] — so span
//! conservation stays exact. **Steal time** (runnable-but-not-running)
//! is an observation derived from the same clocks, never a charge.
//!
//! ## Compile eligibility
//!
//! At ratio 1:1 the cell is periodic: every transaction replays the
//! same op stream, so the driver opens a loop-compiler session and the
//! machine replays steady-state transactions in O(1). Under contention
//! (ratio > 1) the driver runs fully interpreted — the transparent
//! fallback the differential tests in `tests/compile_diff.rs` pin down
//! byte-for-byte. The session model is one transaction of VM 0 per
//! iteration, and a contended cell does not repeat at that grain:
//!
//! * **CFS** cells repeat exactly from the second round on, with a
//!   period of one round (every VM completes one transaction; 13
//!   transitions per VM, so 208 at 16:1, on all four hypervisors). They
//!   are periodic, just not per transaction.
//! * **Credit** cells do not settle. [`CreditVcpuSched`] carries each
//!   vCPU's sub-credit remainder across activations, so BOOST expires
//!   at a different point of every round; no repeating state has been
//!   found within 4,000 rounds.
//!
//! ## Interpreted step cost
//!
//! The cell is generic over its [`VcpuScheduler`]: [`run_cell_machine`]
//! matches the [`SchedPolicy`] once and the whole step loop is
//! monomorphised, so every scheduler call is static and inlines. A step
//! sweeps no per-VM state: the schedulers look vCPUs up by id in O(1),
//! each pCPU keeps a count of its runnable vCPUs, and pending wakes
//! (request arrivals, SGI wire arrivals) sit in a per-pCPU min-heap,
//! O(log r) per event. A step touches the heap only when a wake is due,
//! and reuses the other pCPU's next-action instant unless a pushed wake
//! changed it. Charges take the machine's unobserved fast path, and an
//! SGI fan-out fills a fixed CPU set instead of allocating.
//!
//! What is still O(r) per pCPU: a scheduler `pick` scans r entries
//! once (for credit, a dense array of one-integer keys; for CFS, the
//! entries themselves), and a credit accounting tick refills all r
//! accounts, but only while some account sits below the cap.
//!
//! [`VcpuScheduler`]: hvx_core::VcpuScheduler
//! [`CreditVcpuSched`]: hvx_core::CreditVcpuSched
//! [`SchedPolicy`]: hvx_core::SchedPolicy
//! [`Distributor::mmio_write`]: hvx_gic::Distributor::mmio_write
//! [`VgicCpuInterface::inject`]: hvx_gic::VgicCpuInterface::inject
//! [`VgicError::AlreadyListed`]: hvx_gic::VgicError::AlreadyListed
//! [`TransitionId::SchedTimer`]: hvx_engine::TransitionId::SchedTimer
//! [`TransitionId::LockHolderSpin`]: hvx_engine::TransitionId::LockHolderSpin

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hvx_core::{
    CfsScheduler, CreditVcpuSched, Error, HvKind, Hypervisor, SchedPolicy, SimBuilder, VCpu,
    VcpuScheduler,
};
use hvx_engine::{CoreId, Cycles, FaultPlan, FaultPoint, Machine, TraceKind, TransitionId};
use hvx_gic::{dist_reg, Distributor, VgicCpuInterface, VgicError};

use serde::{Deserialize, Serialize};

/// vCPU:pCPU ratios the sweep visits (1:1 .. 16:1).
pub const RATIOS: [u32; 5] = [1, 2, 4, 8, 16];

/// Default transactions per VM for artifact cells: enough steady-state
/// iterations past the loop compiler's confirm window that 1:1 cells
/// actually replay.
pub const TRANSACTIONS_PER_VM: u32 = 48;

/// Scheduler timeslice, in cycles (~12 µs at 2.4 GHz): shorter than a
/// full RR transaction, so a busy vCPU takes at least one timer
/// interrupt per activation and queued vCPUs rotate mid-transaction.
const QUANTUM: u64 = 30_000;
/// Cost of one scheduler-timer interrupt (trap, accounting, ERET).
const TIMER_COST: u64 = 800;
/// Guest cycles to take the uncontended kernel lock.
const LOCK_ACQ: u64 = 300;
/// Lock-spin probe granularity while the holder is preempted.
const SPIN_SLICE: u64 = 1_000;
/// Sibling's critical section under the kernel lock.
const LOCKED_WORK: u64 = 6_000;
/// Sibling's post-unlock softirq tail.
const TAIL_WORK: u64 = 8_000;
/// Primary vCPU's per-transaction request processing.
const RR_WORK: u64 = 40_000;
/// Primary vCPU's transaction completion (response post-processing).
const TX_FINISH: u64 = 2_000;
/// Client think time between a completion and the next arrival.
const THINK: u64 = 12_000;
/// Physical IPI wire latency between the two pCPUs.
const IPI_WIRE: u64 = 600;
/// SGI number the guest uses for its cross-vCPU kick.
const SGI: u32 = 4;
/// Guest cycles for the primary vCPU to notice its kick never landed
/// (a softirq watchdog / completion-timeout check at the top of the
/// next transaction) before it re-sends the SGI. Dominates the
/// latency penalty a dropped cross-vCPU IPI inflicts on the *next*
/// transaction — the TCP_RR stall the fault sweep measures.
const KICK_TIMEOUT: u64 = 20_000;

/// One consolidation cell's results. All fields are integers so cached
/// JSON is byte-stable; derived rates are computed at render time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellResult {
    /// Hypervisor column, as printed in Figure 4.
    pub column: String,
    /// vCPU:pCPU ratio (= VMs sharing the pCPU pair).
    pub ratio: u32,
    /// Scheduler policy name (`credit` / `cfs`).
    pub sched: String,
    /// Transactions each VM was asked to run.
    pub txns_per_vm: u32,
    /// Transactions completed across all VMs.
    pub transactions: u64,
    /// Σ per-transaction latency (arrival → completion), cycles.
    pub sum_latency_cycles: u64,
    /// Σ cycles vCPUs spent runnable-but-not-running.
    pub steal_cycles: u64,
    /// Σ cycles guests burnt spinning on a preempted lock holder.
    pub lock_spin_cycles: u64,
    /// Hypervisor world switches charged.
    pub vm_switches: u64,
    /// Involuntary deschedules (timer or wake preemption).
    pub preemptions: u64,
    /// Scheduler-timer interrupts charged.
    pub timer_fires: u64,
    /// SGIs sent through the distributor.
    pub ipis_sent: u64,
    /// SGI injections coalesced onto an already-pending vIRQ.
    pub ipis_coalesced: u64,
    /// Cross-vCPU kicks the fault plan dropped on the delivery path.
    pub ipis_dropped: u64,
    /// Kicks the guest re-sent after its completion timeout noticed a
    /// drop (each charged `KICK_TIMEOUT` + a second SGIR emulation).
    pub ipis_resent: u64,
    /// Global makespan of the cell, cycles.
    pub makespan_cycles: u64,
    /// Iterations the loop compiler replayed (0 under contention).
    pub iters_replayed: u64,
}

impl CellResult {
    /// Mean transaction latency in microseconds (2.4 GHz clock).
    pub fn mean_latency_us(&self) -> f64 {
        if self.transactions == 0 {
            return 0.0;
        }
        self.sum_latency_cycles as f64 / self.transactions as f64 / 2_400.0
    }

    /// Steal share of the makespan across the two pCPUs, percent.
    pub fn steal_pct(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        100.0 * self.steal_cycles as f64 / (2.0 * self.makespan_cycles as f64)
    }
}

/// Full cell configuration (the artifact path uses [`run_cell`]).
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Hypervisor under test.
    pub kind: HvKind,
    /// vCPU:pCPU ratio (number of VMs on the pCPU pair).
    pub ratio: u32,
    /// vCPU scheduler policy.
    pub policy: SchedPolicy,
    /// Transactions per VM.
    pub txns_per_vm: u32,
    /// Attempt loop compilation (only engaged at ratio 1).
    pub compile: bool,
    /// Enable span profiling + the metrics registry (forces the
    /// interpreter; used by conservation and metrics tests).
    pub profiling: bool,
    /// Fault plan armed on the cell machine. [`FaultPoint::VirqDrop`]
    /// is consulted on the emulated `GICD_SGIR` delivery path, so
    /// dropped cross-vCPU kicks surface as TCP_RR stalls with the
    /// recovery (timeout + resend) charged through spans. A fault-armed
    /// machine always interprets: `loop_begin` declines it.
    pub fault: Option<FaultPlan>,
}

/// Per-hypervisor costs, probed once per cell from the real model so
/// they track the calibrated cost model (including `HVX_COST_PERTURB`).
struct Costs {
    switch: u64,
    ipi_send: u64,
    virq_recv: u64,
    eoi: u64,
}

fn probe_costs(kind: HvKind) -> Result<Costs, Error> {
    let mut sim = SimBuilder::new(kind).build()?;
    Ok(Costs {
        switch: sim.vm_switch().as_u64(),
        ipi_send: sim.virtual_ipi(0, 1).as_u64(),
        virq_recv: sim.deliver_virq(1).as_u64(),
        eoi: sim.virq_complete(1).as_u64(),
    })
}

/// What a vCPU is doing, guest-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Blocked in WFI.
    Idle,
    // Primary (A, pCPU0):
    /// Trying to take the VM's kernel lock.
    Lock,
    /// Request processing, `0` cycles remaining → send.
    Work(u64),
    /// SGI kick to the sibling.
    Send,
    /// Transaction completion bookkeeping, then WFI.
    Finish,
    // Sibling (B, pCPU1):
    /// Acking the SGI.
    Ack,
    /// Critical section under the kernel lock.
    Locked(u64),
    /// Post-unlock softirq tail.
    Tail(u64),
    /// EOI, then drain or WFI.
    Eoi,
}

/// One VM: its emulated interrupt hardware and transaction state.
struct VmState {
    dist: Distributor,
    vgic_b: VgicCpuInterface,
    /// The sibling holds the guest kernel lock.
    lock_held: bool,
    /// Arrival instant of the in-flight transaction (latency base).
    txn_started: u64,
    /// Transactions completed.
    done: u32,
    /// The last kick was dropped by the fault plan; the primary vCPU
    /// notices via its completion timeout at the top of the next
    /// transaction and re-sends.
    kick_lost: bool,
}

/// A vCPU with its guest phase.
struct Side {
    vcpu: VCpu,
    phase: Phase,
}

/// One physical CPU: its scheduler and dispatch state.
struct Pcpu<S> {
    core: CoreId,
    sched: S,
    running: Option<usize>,
    /// Last vCPU (by VM index) that held the pCPU; `None` after idle,
    /// so a dispatch out of idle charges a world switch.
    last_ran: Option<usize>,
    quantum_left: u64,
    /// Pinned vCPUs in [`VcpuState::Runnable`](hvx_core::VcpuState).
    runnable: usize,
}

/// Pending wake events of one pCPU as `(instant, vm)`, earliest first.
type WakeHeap = BinaryHeap<Reverse<(u64, usize)>>;

/// Mutable counters a cell accumulates (live + replayed).
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    transactions: u64,
    sum_latency: u64,
    steal_replayed: u64,
    lock_spin: u64,
    vm_switches: u64,
    preemptions: u64,
    timer_fires: u64,
    ipis_sent: u64,
    ipis_coalesced: u64,
    ipis_dropped: u64,
    ipis_resent: u64,
}

impl Counters {
    /// Extends the counters by `k` more copies of the last iteration's
    /// delta (current values minus the `snap` taken when that iteration
    /// began). In steady state every replayed iteration contributes the
    /// same delta, so this is exact.
    fn extend_scaled(&mut self, snap: &Counters, k: u64) {
        self.transactions += (self.transactions - snap.transactions) * k;
        self.sum_latency += (self.sum_latency - snap.sum_latency) * k;
        self.steal_replayed += (self.steal_replayed - snap.steal_replayed) * k;
        self.lock_spin += (self.lock_spin - snap.lock_spin) * k;
        self.vm_switches += (self.vm_switches - snap.vm_switches) * k;
        self.preemptions += (self.preemptions - snap.preemptions) * k;
        self.timer_fires += (self.timer_fires - snap.timer_fires) * k;
        self.ipis_sent += (self.ipis_sent - snap.ipis_sent) * k;
        self.ipis_coalesced += (self.ipis_coalesced - snap.ipis_coalesced) * k;
        // Fault counters are structurally zero here — a fault-armed
        // machine never compiles — but scaling them keeps the delta
        // arithmetic total.
        self.ipis_dropped += (self.ipis_dropped - snap.ipis_dropped) * k;
        self.ipis_resent += (self.ipis_resent - snap.ipis_resent) * k;
    }
}

/// One cell's state, generic over the vCPU scheduler so the step loop
/// is monomorphised per policy: every scheduler call is static and can
/// inline.
struct Cell<S> {
    vms: Vec<VmState>,
    a: Vec<Side>,
    b: Vec<Side>,
    p: [Pcpu<S>; 2],
    /// Undelivered wake events per pCPU: request arrivals on pCPU0 (at
    /// most one per VM, only while its vCPU A is idle), SGI wire
    /// arrivals on pCPU1 (each VM's in send order, strictly increasing).
    wakes: [WakeHeap; 2],
    /// Scratch for [`Cell::deliver_wakes`]: the due events as `(vm,
    /// instant)`.
    due: Vec<(usize, u64)>,
    /// Each pCPU's [`Cell::actionable`] instant as of its last
    /// computation; `None` once its inputs may have changed.
    act: [Option<u64>; 2],
    costs: Costs,
    txns_per_vm: u32,
    n: Counters,
}

impl<S: VcpuScheduler + Default> Cell<S> {
    fn new(kind_costs: Costs, ratio: u32, txns: u32, topo: [CoreId; 2]) -> Self {
        let r = ratio as usize;
        let mut vms = Vec::with_capacity(r);
        for _ in 0..r {
            let mut dist = Distributor::new(2, 32);
            // The guest enables its kick SGI on the sibling through the
            // normal set-enable register before first use.
            dist.mmio_write(dist_reg::GICD_ISENABLER, 1 << SGI, 1)
                .expect("SGI enable");
            vms.push(VmState {
                dist,
                vgic_b: VgicCpuInterface::new(),
                lock_held: false,
                txn_started: 0,
                done: 0,
                kick_lost: false,
            });
        }
        let mk_pcpu = |core: CoreId| {
            let mut sched = S::default();
            for v in 0..r {
                sched.add_vcpu(v, 256);
                // Guests boot into WFI; the first request wakes them.
                sched.block(v);
            }
            Pcpu {
                core,
                sched,
                running: None,
                last_ran: None,
                quantum_left: QUANTUM,
                runnable: 0,
            }
        };
        // Every VM's first request arrives at t=0.
        let arrivals = (0..r).map(|v| Reverse((0, v))).collect();
        Cell {
            vms,
            a: (0..r)
                .map(|_| Side {
                    vcpu: VCpu::new(0, 0),
                    phase: Phase::Idle,
                })
                .collect(),
            b: (0..r)
                .map(|_| Side {
                    vcpu: VCpu::new(1, 1),
                    phase: Phase::Idle,
                })
                .collect(),
            p: [mk_pcpu(topo[0]), mk_pcpu(topo[1])],
            wakes: [arrivals, WakeHeap::new()],
            due: Vec::new(),
            act: [None; 2],
            costs: kind_costs,
            txns_per_vm: txns,
            n: Counters::default(),
        }
    }

    /// Earliest undelivered wake event for pCPU `p` (`u64::MAX` none).
    fn next_wake(&self, p: usize) -> u64 {
        self.wakes[p].peek().map_or(u64::MAX, |&Reverse((t, _))| t)
    }

    /// Queues a wake event for VM `v` on pCPU `p`: its next request
    /// arrival (pCPU0) or a kick's SGI wire arrival (pCPU1).
    fn push_wake(&mut self, p: usize, at: u64, v: usize) {
        debug_assert!(
            p == 1 || self.a[v].phase == Phase::Idle,
            "VM {v}: arrival set while its vCPU A is busy"
        );
        debug_assert!(
            self.wakes[p]
                .iter()
                .all(|&Reverse((t, w))| w != v || (p == 1 && t < at)),
            "VM {v}: second pending arrival, or a kick arriving out of send order"
        );
        self.wakes[p].push(Reverse((at, v)));
        self.act[p] = None;
    }

    /// When pCPU `p` can next do something (`u64::MAX` = never).
    fn actionable(&self, m: &Machine, p: usize) -> u64 {
        let now = m.now(self.p[p].core).as_u64();
        debug_assert_eq!(
            self.p[p].runnable,
            if p == 0 { &self.a } else { &self.b }
                .iter()
                .filter(|s| s.vcpu.state() == hvx_core::VcpuState::Runnable)
                .count(),
            "pCPU{p}: runnable count out of step"
        );
        if self.p[p].running.is_some() || self.p[p].runnable > 0 {
            return now;
        }
        match self.next_wake(p) {
            u64::MAX => u64::MAX,
            w => w.max(now),
        }
    }

    /// Marks the running vCPU of `p` runnable again (wake preemption).
    fn preempt_running(&mut self, m: &Machine, p: usize) {
        if let Some(cur) = self.p[p].running.take() {
            let now = m.now(self.p[p].core).as_u64();
            let side = if p == 0 {
                &mut self.a[cur]
            } else {
                &mut self.b[cur]
            };
            side.vcpu.preempt(now);
            self.p[p].runnable += 1;
            self.n.preemptions += 1;
        }
    }

    /// Delivers the wake events due on `p` by `now`: request arrivals
    /// (pCPU0) or SGI wire arrivals → vGIC injection (pCPU1). Due events
    /// are handled in ascending VM order, each VM's kicks in send order.
    fn deliver_wakes(&mut self, m: &mut Machine, p: usize, now: u64) {
        let mut due = std::mem::take(&mut self.due);
        while let Some(&Reverse((at, v))) = self.wakes[p].peek() {
            if at > now {
                break;
            }
            self.wakes[p].pop();
            due.push((v, at));
        }
        due.sort_unstable();
        for &(v, at) in &due {
            if p == 0 {
                debug_assert_eq!(self.a[v].phase, Phase::Idle);
                self.vms[v].txn_started = at;
                self.a[v].vcpu.wake(at);
                self.p[0].runnable += 1;
                self.a[v].phase = Phase::Lock;
                if self.p[0].sched.wake(v) {
                    self.preempt_running(m, 0);
                }
            } else {
                match self.vms[v].vgic_b.inject(SGI, 0x80) {
                    Ok(_) => {}
                    Err(VgicError::AlreadyListed { .. }) => self.n.ipis_coalesced += 1,
                    Err(e) => panic!("SGI injection failed: {e}"),
                }
                if self.b[v].phase == Phase::Idle {
                    self.b[v].vcpu.wake(at);
                    self.p[1].runnable += 1;
                    self.b[v].phase = Phase::Ack;
                    if self.p[1].sched.wake(v) {
                        self.preempt_running(m, 1);
                    }
                }
            }
        }
        due.clear();
        self.due = due;
    }

    /// Timer interrupt on `p`: charge, account, involuntarily
    /// deschedule the running vCPU.
    fn fire_timer(&mut self, m: &mut Machine, p: usize) {
        let core = self.p[p].core;
        let end = m
            .charge_as(
                core,
                "sched:timer",
                TraceKind::Sched,
                Cycles::new(TIMER_COST),
                TransitionId::SchedTimer,
            )
            .as_u64();
        self.n.timer_fires += 1;
        self.p[p].sched.tick();
        if let Some(cur) = self.p[p].running.take() {
            let side = if p == 0 {
                &mut self.a[cur]
            } else {
                &mut self.b[cur]
            };
            side.vcpu.preempt(end);
            self.p[p].runnable += 1;
            self.n.preemptions += 1;
            self.p[p].sched.yield_current();
        }
        self.p[p].quantum_left = QUANTUM;
    }

    /// Dispatches the scheduler's pick on `p`, charging a world switch
    /// when the pCPU changes vCPU (or comes out of idle). Returns
    /// `false` if the pCPU went idle instead.
    fn dispatch(&mut self, m: &mut Machine, p: usize) -> bool {
        let core = self.p[p].core;
        match self.p[p].sched.pick() {
            None => {
                self.p[p].last_ran = None; // idle: next dispatch switches in
                let w = self.next_wake(p);
                let now = m.now(core).as_u64();
                if w != u64::MAX && w > now {
                    m.wait_until(core, Cycles::new(w));
                }
                false
            }
            Some(v) => {
                // Steal counts time queued behind other vCPUs, not the
                // world switch this dispatch itself costs — sample the
                // clock before charging it.
                let now = m.now(core).as_u64();
                if self.p[p].last_ran != Some(v) {
                    m.charge_as(
                        core,
                        "sched:vm-switch",
                        TraceKind::Sched,
                        Cycles::new(self.costs.switch),
                        TransitionId::Sched,
                    );
                    self.n.vm_switches += 1;
                }
                let side = if p == 0 {
                    &mut self.a[v]
                } else {
                    &mut self.b[v]
                };
                side.vcpu.schedule_in(now);
                self.p[p].runnable -= 1;
                self.p[p].running = Some(v);
                self.p[p].last_ran = Some(v);
                self.p[p].quantum_left = QUANTUM;
                true
            }
        }
    }

    /// Charges `cost` guest cycles for vCPU `v` on `p` and burns
    /// timeslice. Returns the completion instant.
    fn charge_guest(
        &mut self,
        m: &mut Machine,
        p: usize,
        v: usize,
        label: &'static str,
        cost: u64,
        id: TransitionId,
    ) -> u64 {
        let kind = if id == TransitionId::LockHolderSpin {
            TraceKind::Guest
        } else if id == TransitionId::GicdEmulate
            || id == TransitionId::VirqInject
            || id == TransitionId::GicAccess
        {
            TraceKind::Emulation
        } else {
            TraceKind::Guest
        };
        let end = m
            .charge_as(self.p[p].core, label, kind, Cycles::new(cost), id)
            .as_u64();
        self.p[p].sched.charge_cycles(v, cost);
        self.p[p].quantum_left = self.p[p].quantum_left.saturating_sub(cost);
        end
    }

    /// Executes one slice of the running vCPU on `p`.
    fn exec_slice(&mut self, m: &mut Machine, recording: bool, p: usize) {
        let v = self.p[p].running.expect("exec_slice needs a running vcpu");
        if self.p[p].quantum_left == 0 {
            self.fire_timer(m, p);
            return;
        }
        let quantum = self.p[p].quantum_left;
        let phase = if p == 0 {
            self.a[v].phase
        } else {
            self.b[v].phase
        };
        match phase {
            Phase::Idle => unreachable!("idle vcpu dispatched"),
            Phase::Lock => {
                if self.vms[v].kick_lost {
                    // The previous transaction's kick was dropped: the
                    // guest's completion timeout fires at the top of
                    // this transaction, and it re-sends the SGI through
                    // the same emulated GICD_SGIR path. Both halves of
                    // the recovery are charged, so the stall shows up
                    // in this transaction's latency *and* in spans.
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:kick-timeout",
                        KICK_TIMEOUT,
                        TransitionId::GuestRun,
                    );
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "gicd:sgir-resend",
                        self.costs.ipi_send,
                        TransitionId::GicdEmulate,
                    );
                    let sgir = (u64::from(SGI) << 24) | (0b10 << 16);
                    let effect = self.vms[v]
                        .dist
                        .mmio_write(dist_reg::GICD_SGIR, sgir, 0)
                        .expect("SGIR resend");
                    debug_assert_eq!(effect.sgi_targets.len(), 1);
                    let arrival = m.signal(self.p[0].core, self.p[1].core, Cycles::new(IPI_WIRE));
                    self.push_wake(1, arrival.as_u64(), v);
                    self.vms[v].kick_lost = false;
                    self.n.ipis_resent += 1;
                } else if self.vms[v].lock_held {
                    // The sibling holds the kernel lock; if it has been
                    // descheduled this is lock-holder preemption and the
                    // spin lasts until the scheduler runs it again.
                    let chunk = SPIN_SLICE.min(quantum);
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:lock-spin",
                        chunk,
                        TransitionId::LockHolderSpin,
                    );
                    self.n.lock_spin += chunk;
                } else {
                    self.charge_guest(
                        m,
                        p,
                        v,
                        "guest:lock-acquire",
                        LOCK_ACQ,
                        TransitionId::GuestRun,
                    );
                    self.a[v].phase = Phase::Work(RR_WORK);
                }
            }
            Phase::Work(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(m, p, v, "guest:rr-work", chunk, TransitionId::GuestRun);
                let left = left - chunk;
                self.a[v].phase = if left == 0 {
                    Phase::Send
                } else {
                    Phase::Work(left)
                };
            }
            Phase::Send => {
                self.charge_guest(
                    m,
                    p,
                    v,
                    "gicd:sgir",
                    self.costs.ipi_send,
                    TransitionId::GicdEmulate,
                );
                // GICD_SGIR, model encoding: SGI id at [27:24], filter
                // TargetList at [29:28], CPU mask at [23:16] → cpu 1.
                let sgir = (u64::from(SGI) << 24) | (0b10 << 16);
                let effect = self.vms[v]
                    .dist
                    .mmio_write(dist_reg::GICD_SGIR, sgir, 0)
                    .expect("SGIR write");
                debug_assert_eq!(effect.sgi_targets.len(), 1);
                self.n.ipis_sent += 1;
                if m.fault(FaultPoint::VirqDrop) {
                    // The distributor accepted the guest's write, but
                    // the virtual-IRQ delivery to the sibling is lost:
                    // no wire signal, no wake. The guest only finds out
                    // through its completion timeout next transaction.
                    self.n.ipis_dropped += 1;
                    self.vms[v].kick_lost = true;
                } else {
                    let arrival = m.signal(self.p[0].core, self.p[1].core, Cycles::new(IPI_WIRE));
                    self.push_wake(1, arrival.as_u64(), v);
                    if recording {
                        m.loop_set_reg(1, arrival);
                    }
                }
                self.a[v].phase = Phase::Finish;
            }
            Phase::Finish => {
                let end = self.charge_guest(
                    m,
                    p,
                    v,
                    "guest:tx-finish",
                    TX_FINISH,
                    TransitionId::GuestRun,
                );
                let vm = &mut self.vms[v];
                vm.done += 1;
                let latency = end - vm.txn_started;
                let more = vm.done < self.txns_per_vm;
                self.n.transactions += 1;
                self.n.sum_latency += latency;
                self.a[v].vcpu.block(end);
                self.a[v].phase = Phase::Idle;
                self.p[0].sched.block(v);
                self.p[0].running = None;
                if more {
                    let arrival = end + THINK;
                    self.push_wake(0, arrival, v);
                    if recording {
                        m.loop_set_reg(0, Cycles::new(arrival));
                    }
                }
            }
            Phase::Ack => {
                self.charge_guest(
                    m,
                    p,
                    v,
                    "virq:ack",
                    self.costs.virq_recv,
                    TransitionId::VirqInject,
                );
                let acked = self.vms[v].vgic_b.guest_ack();
                debug_assert_eq!(acked, Some(SGI));
                self.vms[v].lock_held = true;
                self.b[v].phase = Phase::Locked(LOCKED_WORK);
            }
            Phase::Locked(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(
                    m,
                    p,
                    v,
                    "guest:locked-section",
                    chunk,
                    TransitionId::GuestRun,
                );
                let left = left - chunk;
                if left == 0 {
                    self.vms[v].lock_held = false;
                    self.b[v].phase = Phase::Tail(TAIL_WORK);
                } else {
                    self.b[v].phase = Phase::Locked(left);
                }
            }
            Phase::Tail(left) => {
                let chunk = left.min(quantum);
                self.charge_guest(m, p, v, "guest:softirq-tail", chunk, TransitionId::GuestRun);
                let left = left - chunk;
                self.b[v].phase = if left == 0 {
                    Phase::Eoi
                } else {
                    Phase::Tail(left)
                };
            }
            Phase::Eoi => {
                let end =
                    self.charge_guest(m, p, v, "virq:eoi", self.costs.eoi, TransitionId::GicAccess);
                self.vms[v].vgic_b.guest_eoi(SGI).expect("EOI of acked SGI");
                if self.vms[v].vgic_b.pending_virq().is_some() {
                    // A coalesced kick is already pending: service it
                    // without returning to WFI.
                    self.b[v].phase = Phase::Ack;
                } else {
                    self.b[v].vcpu.block(end);
                    self.b[v].phase = Phase::Idle;
                    self.p[1].sched.block(v);
                    self.p[1].running = None;
                }
            }
        }
    }

    /// One event-loop step: advance the pCPU that can act earliest.
    /// Returns `false` when neither pCPU will ever act again.
    fn step(&mut self, m: &mut Machine, recording: bool) -> bool {
        let t0 = self.cached_actionable(m, 0);
        let t1 = self.cached_actionable(m, 1);
        if t0 == u64::MAX && t1 == u64::MAX {
            return false;
        }
        let p = if t0 <= t1 { 0 } else { 1 };
        // Only this pCPU's clock, dispatch state and wakes change below,
        // plus the other's wakes through `push_wake`, which drops its
        // cached instant.
        self.act[p] = None;
        let now = m.now(self.p[p].core).as_u64();
        if self.next_wake(p) <= now {
            self.deliver_wakes(m, p, now);
        }
        if self.p[p].running.is_none() && !self.dispatch(m, p) {
            return true; // went idle; the other pCPU (or a wake) is next
        }
        self.exec_slice(m, recording, p);
        true
    }

    /// [`Cell::actionable`], reusing the instant computed on an earlier
    /// step while nothing that feeds it has changed.
    fn cached_actionable(&mut self, m: &Machine, p: usize) -> u64 {
        match self.act[p] {
            Some(t) => {
                debug_assert_eq!(
                    t,
                    self.actionable(m, p),
                    "pCPU{p}: stale actionable instant"
                );
                t
            }
            None => {
                let t = self.actionable(m, p);
                self.act[p] = Some(t);
                t
            }
        }
    }

    /// Total vCPU steal, live bookkeeping plus replayed iterations.
    fn steal_total(&self) -> u64 {
        self.a
            .iter()
            .chain(&self.b)
            .map(|s| s.vcpu.steal_cycles())
            .sum::<u64>()
            + self.n.steal_replayed
    }
}

/// Runs one consolidation cell (artifact path: ambient compile toggle,
/// no profiling).
///
/// # Errors
///
/// Propagates [`Error`] from building the probe model (e.g. a bad
/// `HVX_COST_PERTURB` spec).
pub fn run_cell(
    kind: HvKind,
    ratio: u32,
    policy: SchedPolicy,
    txns_per_vm: u32,
    compile: bool,
) -> Result<CellResult, Error> {
    run_cell_with(CellConfig {
        kind,
        ratio,
        policy,
        txns_per_vm,
        compile,
        profiling: false,
        fault: None,
    })
}

/// Runs one consolidation cell with full knob control. With
/// `cfg.profiling` the machine records span attribution and per-vCPU
/// metrics, and the caller can assert conservation on the returned
/// machine via [`run_cell_machine`].
pub fn run_cell_with(cfg: CellConfig) -> Result<CellResult, Error> {
    run_cell_machine(cfg).map(|(r, _)| r)
}

/// [`run_cell_with`], also returning the machine the cell ran on (for
/// conservation and metrics assertions).
pub fn run_cell_machine(cfg: CellConfig) -> Result<(CellResult, Box<dyn Hypervisor>), Error> {
    assert!(cfg.ratio >= 1, "ratio must be at least 1:1");
    let costs = probe_costs(cfg.kind)?;
    let mut hv = SimBuilder::new(cfg.kind)
        .profiling(cfg.profiling)
        .build()?
        .into_inner();
    if let Some(plan) = cfg.fault.clone() {
        // Arming the plan clears loop-compiler state, so a fault-armed
        // cell structurally cannot compile: loop_begin() below sees
        // faults installed and declines (fault sweeps must really
        // execute every consult, never replay around it).
        hv.machine_mut().set_fault_plan(plan);
    }
    let topo = {
        let t = hv.machine().topology();
        [t.guest_core(0), t.guest_core(1)]
    };
    let m = hv.machine_mut();
    // The one policy dispatch: everything below runs monomorphised.
    let result = match cfg.policy {
        SchedPolicy::Credit => drive(
            Cell::<CreditVcpuSched>::new(costs, cfg.ratio, cfg.txns_per_vm, topo),
            m,
            &cfg,
        ),
        SchedPolicy::Cfs => drive(
            Cell::<CfsScheduler>::new(costs, cfg.ratio, cfg.txns_per_vm, topo),
            m,
            &cfg,
        ),
    };
    Ok((result, hv))
}

/// Runs `cell` to completion on `m` and reports it.
fn drive<S: VcpuScheduler + Default>(
    mut cell: Cell<S>,
    m: &mut Machine,
    cfg: &CellConfig,
) -> CellResult {
    // Compile eligibility: only the uncontended 1:1 cell is provably
    // periodic per-pCPU (one transaction = one machine-level iteration,
    // with the two loop-carried instants — next arrival and the
    // in-flight SGI — in loop registers). loop_begin() itself declines
    // profiled or fault-armed machines; everything else interprets.
    let session = cfg.compile && cfg.ratio == 1 && m.loop_begin();
    if session {
        let total = u64::from(cfg.txns_per_vm);
        // Counter snapshot at the start of the most recent live
        // iteration; `current - snapshot` is one steady iteration's
        // delta once the loop has settled.
        let mut snap = cell.n;
        let mut steal_snap = cell.steal_total();
        while cell.vms[0].done < cfg.txns_per_vm {
            let done = u64::from(cell.vms[0].done);
            let skipped = m.loop_replay(total - done);
            if skipped > 0 {
                // Fast-forward host state across the replayed blocks:
                // per-iteration counter deltas are loop-invariant in
                // steady state (one transaction each), and the two
                // loop-carried instants — the next request arrival and
                // the in-flight SGI — come back through the registers.
                let steal_delta = cell.steal_total() - steal_snap;
                cell.n.extend_scaled(&snap, skipped);
                cell.n.steal_replayed += steal_delta * skipped;
                cell.vms[0].done += skipped as u32;
                cell.wakes = Default::default();
                cell.act = [None; 2]; // the replay moved the clocks
                if cell.vms[0].done < cfg.txns_per_vm {
                    if let Some(arrival) = m.loop_reg(0) {
                        cell.push_wake(0, arrival.as_u64(), 0);
                    }
                }
                if let Some(ipi) = m.loop_reg(1) {
                    cell.push_wake(1, ipi.as_u64(), 0);
                }
                continue;
            }
            m.loop_iter_begin();
            snap = cell.n;
            steal_snap = cell.steal_total();
            let target = cell.vms[0].done + 1;
            while cell.vms[0].done < target && cell.step(m, true) {}
        }
        m.loop_end();
        // Drain the sibling's final transaction outside the session.
        while cell.step(m, false) {}
    } else {
        while cell.step(m, false) {}
    }

    let steal = cell.steal_total();
    if m.profiling() {
        m.bump("consolidation.steal_cycles", steal);
        m.bump("consolidation.lock_spin_cycles", cell.n.lock_spin);
        m.bump("consolidation.vm_switches", cell.n.vm_switches);
        m.bump("consolidation.ipis_coalesced", cell.n.ipis_coalesced);
        for side in cell.a.iter().chain(&cell.b) {
            m.observe("consolidation.vcpu_steal", side.vcpu.steal_cycles());
            m.observe("consolidation.vcpu_ran", side.vcpu.ran_cycles());
        }
    }
    CellResult {
        column: cfg.kind.to_string(),
        ratio: cfg.ratio,
        sched: cfg.policy.name().to_string(),
        txns_per_vm: cfg.txns_per_vm,
        transactions: cell.n.transactions,
        sum_latency_cycles: cell.n.sum_latency,
        steal_cycles: steal,
        lock_spin_cycles: cell.n.lock_spin,
        vm_switches: cell.n.vm_switches,
        preemptions: cell.n.preemptions,
        timer_fires: cell.n.timer_fires,
        ipis_sent: cell.n.ipis_sent,
        ipis_coalesced: cell.n.ipis_coalesced,
        ipis_dropped: cell.n.ipis_dropped,
        ipis_resent: cell.n.ipis_resent,
        makespan_cycles: m.global_now().as_u64(),
        iters_replayed: m.iters_replayed(),
    }
}

/// The full sweep for one scheduler policy: every measured hypervisor ×
/// every ratio in [`RATIOS`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scheduler policy name.
    pub sched: String,
    /// Cells in column-major order (hypervisor outer, ratio inner).
    pub cells: Vec<CellResult>,
}

/// Renders consolidation cells as the oversubscription sweep table.
/// `cells` must be grouped per hypervisor in [`RATIOS`] order (the
/// runner's plan order); missing cells were degraded by the hardened
/// runner and render as `n/a`.
pub fn render_sweep(sched: &str, cells: &[Option<CellResult>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("-- scheduler: {sched} --\n"));
    out.push_str(&format!(
        "{:<12}{:>6}{:>14}{:>12}{:>12}{:>10}{:>10}\n",
        "hypervisor", "ratio", "mean RR (us)", "steal %", "spin kcyc", "switches", "coalesced"
    ));
    for cell in cells {
        match cell {
            Some(c) => out.push_str(&format!(
                "{:<12}{:>4}:1{:>14.2}{:>12.2}{:>12}{:>10}{:>10}\n",
                c.column,
                c.ratio,
                c.mean_latency_us(),
                c.steal_pct(),
                c.lock_spin_cycles / 1_000,
                c.vm_switches,
                c.ipis_coalesced
            )),
            None => out.push_str(&format!("{:<12}{:>6}{:>14}\n", "?", "?", "n/a")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvx_core::SchedPolicy;

    const T: u32 = 12;

    #[test]
    fn cells_are_deterministic() {
        for policy in SchedPolicy::ALL {
            for ratio in [1, 4] {
                let a = run_cell(HvKind::KvmArm, ratio, policy, T, false).unwrap();
                let b = run_cell(HvKind::KvmArm, ratio, policy, T, false).unwrap();
                assert_eq!(a, b, "{policy:?} {ratio}:1");
                assert_eq!(a.transactions, u64::from(ratio) * u64::from(T));
            }
        }
    }

    #[test]
    fn steal_and_latency_grow_with_the_ratio() {
        for kind in HvKind::MEASURED {
            for policy in SchedPolicy::ALL {
                let mut prev: Option<CellResult> = None;
                for ratio in RATIOS {
                    let c = run_cell(kind, ratio, policy, T, false).unwrap();
                    if let Some(p) = &prev {
                        assert!(
                            c.steal_cycles > p.steal_cycles,
                            "{kind:?}/{policy:?}: steal not monotone at {ratio}:1 \
                             ({} <= {})",
                            c.steal_cycles,
                            p.steal_cycles
                        );
                        assert!(
                            c.mean_latency_us() > p.mean_latency_us(),
                            "{kind:?}/{policy:?}: latency not monotone at {ratio}:1"
                        );
                    }
                    prev = Some(c);
                }
            }
        }
    }

    #[test]
    fn uncontended_cells_have_no_steal() {
        let c = run_cell(HvKind::XenArm, 1, SchedPolicy::Credit, T, false).unwrap();
        // With a pCPU to itself a vCPU dispatches the instant it wakes:
        // zero steal, and no SGI ever finds a previous one pending.
        assert_eq!(c.steal_cycles, 0);
        assert_eq!(c.ipis_coalesced, 0);
        assert_eq!(c.transactions, u64::from(T));
        // One switch-in per transaction per pCPU.
        assert_eq!(c.vm_switches, 2 * u64::from(T));
        // The slice timer still runs (RR_WORK exceeds one quantum), but
        // re-dispatching the sole vCPU costs no world switch.
        assert!(c.timer_fires >= u64::from(T));
    }

    #[test]
    fn compiled_one_to_one_cell_replays_and_matches_interpretation() {
        for kind in [HvKind::KvmArm, HvKind::XenX86] {
            let compiled = run_cell(kind, 1, SchedPolicy::Credit, 64, true).unwrap();
            let interpreted = run_cell(kind, 1, SchedPolicy::Credit, 64, false).unwrap();
            assert!(
                compiled.iters_replayed > 0,
                "{kind:?}: 1:1 cell never engaged the compiler"
            );
            let strip = |mut c: CellResult| {
                c.iters_replayed = 0;
                c
            };
            assert_eq!(strip(compiled), strip(interpreted), "{kind:?}");
        }
    }

    #[test]
    fn contended_cells_fall_back_to_interpretation() {
        let c = run_cell(HvKind::KvmArm, 2, SchedPolicy::Cfs, T, true).unwrap();
        assert_eq!(c.iters_replayed, 0);
        let i = run_cell(HvKind::KvmArm, 2, SchedPolicy::Cfs, T, false).unwrap();
        assert_eq!(c, i);
    }

    #[test]
    fn profiled_cells_conserve_spans_and_surface_metrics() {
        let (r, hv) = run_cell_machine(CellConfig {
            kind: HvKind::KvmArm,
            ratio: 8,
            policy: SchedPolicy::Credit,
            txns_per_vm: T,
            compile: true, // profiling forces loop_begin to decline
            profiling: true,
            fault: None,
        })
        .unwrap();
        assert_eq!(r.iters_replayed, 0);
        let m = hv.machine();
        m.assert_conservation();
        let spans = m.spans().expect("profiled");
        assert!(spans.exclusive(TransitionId::SchedTimer) > 0);
        assert!(spans.exclusive(TransitionId::LockHolderSpin) > 0);
        assert!(spans.exclusive(TransitionId::Sched) > 0);
        // Unprofiled, identical timing (observation never shifts time).
        let plain = run_cell(HvKind::KvmArm, 8, SchedPolicy::Credit, T, false).unwrap();
        assert_eq!(plain.makespan_cycles, r.makespan_cycles);
    }

    #[test]
    fn schedulers_differ_under_contention() {
        let credit = run_cell(HvKind::KvmArm, 8, SchedPolicy::Credit, T, false).unwrap();
        let cfs = run_cell(HvKind::KvmArm, 8, SchedPolicy::Cfs, T, false).unwrap();
        // Different algorithms must produce genuinely different
        // interleavings, not just a relabelled copy.
        assert_ne!(credit.makespan_cycles, cfs.makespan_cycles);
    }

    fn faulted_cfg(ratio: u32, rate: f64, compile: bool) -> CellConfig {
        CellConfig {
            kind: HvKind::KvmArm,
            ratio,
            policy: SchedPolicy::Credit,
            txns_per_vm: T,
            compile,
            profiling: false,
            fault: Some(FaultPlan::new(11).with_rate(FaultPoint::VirqDrop, rate)),
        }
    }

    #[test]
    fn dropped_kicks_are_deterministic_and_surface_as_rr_stalls() {
        let clean = run_cell(HvKind::KvmArm, 4, SchedPolicy::Credit, T, false).unwrap();
        let a = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        let b = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        assert_eq!(a, b, "fault injection must be deterministic");
        assert!(a.ipis_dropped > 0, "a 30% drop rate must drop kicks");
        assert_eq!(clean.ipis_dropped, 0);
        // Every drop except a VM's final transaction is recovered by a
        // timeout + resend; resends can never exceed drops.
        assert!(a.ipis_resent <= a.ipis_dropped);
        assert!(a.ipis_resent > 0, "recovery path must engage");
        // The same transactions complete on the primary side, but the
        // stalled kicks inflate latency and stretch the makespan.
        assert_eq!(a.transactions, clean.transactions);
        assert!(
            a.sum_latency_cycles > clean.sum_latency_cycles,
            "dropped kicks must stall TCP_RR transactions \
             ({} <= {})",
            a.sum_latency_cycles,
            clean.sum_latency_cycles
        );
        assert!(a.makespan_cycles > clean.makespan_cycles);
    }

    #[test]
    fn fault_armed_cells_interpret_never_compile() {
        let c = run_cell_with(faulted_cfg(1, 0.2, true)).unwrap();
        assert_eq!(
            c.iters_replayed, 0,
            "a fault-armed 1:1 cell must decline the loop compiler"
        );
        // And it is the same result the interpreter produces directly.
        let i = run_cell_with(faulted_cfg(1, 0.2, false)).unwrap();
        assert_eq!(c, i);
    }

    #[test]
    fn fault_seed_changes_the_drop_pattern() {
        let a = run_cell_with(faulted_cfg(4, 0.3, false)).unwrap();
        let mut cfg = faulted_cfg(4, 0.3, false);
        cfg.fault = Some(FaultPlan::new(12).with_rate(FaultPoint::VirqDrop, 0.3));
        let b = run_cell_with(cfg).unwrap();
        assert_ne!(
            (a.ipis_dropped, a.makespan_cycles),
            (b.ipis_dropped, b.makespan_cycles),
            "different seeds must produce different fault schedules"
        );
    }

    /// Every field of the contended (interpreted) cells, pinned: all
    /// four columns under credit and KVM ARM and Xen x86 under CFS, at
    /// 4:1 and 16:1, then the fault-armed 4:1 cell whose resent kicks
    /// take the wake-event path too. Scheduler, dispatch or
    /// wake-delivery changes must leave all of it unchanged.
    #[test]
    fn contended_cells_match_pinned_results() {
        use SchedPolicy::{Cfs, Credit};
        const PINNED: [(HvKind, SchedPolicy, u32, &str); 12] = [
            (
                HvKind::KvmArm,
                Credit,
                4,
                r#"{"column":"KVM ARM","ratio":4,"sched":"credit","txns_per_vm":12,"transactions":48,"sum_latency_cycles":11399224,"steal_cycles":7805583,"lock_spin_cycles":4000,"vm_switches":142,"preemptions":54,"timer_fires":46,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":3667284,"iters_replayed":0}"#,
            ),
            (
                HvKind::KvmArm,
                Credit,
                16,
                r#"{"column":"KVM ARM","ratio":16,"sched":"credit","txns_per_vm":12,"transactions":192,"sum_latency_cycles":165801778,"steal_cycles":151391037,"lock_spin_cycles":10000,"vm_switches":574,"preemptions":222,"timer_fires":184,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":14564964,"iters_replayed":0}"#,
            ),
            (
                HvKind::KvmArm,
                Cfs,
                4,
                r#"{"column":"KVM ARM","ratio":4,"sched":"cfs","txns_per_vm":12,"transactions":48,"sum_latency_cycles":13793742,"steal_cycles":10161582,"lock_spin_cycles":0,"vm_switches":144,"preemptions":48,"timer_fires":48,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":3661658,"iters_replayed":0}"#,
            ),
            (
                HvKind::KvmArm,
                Cfs,
                16,
                r#"{"column":"KVM ARM","ratio":16,"sched":"cfs","txns_per_vm":12,"transactions":192,"sum_latency_cycles":226208280,"steal_cycles":211679640,"lock_spin_cycles":0,"vm_switches":576,"preemptions":192,"timer_fires":192,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":14558138,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenArm,
                Credit,
                4,
                r#"{"column":"Xen ARM","ratio":4,"sched":"credit","txns_per_vm":12,"transactions":48,"sum_latency_cycles":12067806,"steal_cycles":8896678,"lock_spin_cycles":0,"vm_switches":144,"preemptions":48,"timer_fires":48,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":3217243,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenArm,
                Credit,
                16,
                r#"{"column":"Xen ARM","ratio":16,"sched":"credit","txns_per_vm":12,"transactions":192,"sum_latency_cycles":198776664,"steal_cycles":186154168,"lock_spin_cycles":0,"vm_switches":576,"preemptions":192,"timer_fires":192,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":12792643,"iters_replayed":0}"#,
            ),
            (
                HvKind::KvmX86,
                Credit,
                4,
                r#"{"column":"KVM x86","ratio":4,"sched":"credit","txns_per_vm":12,"transactions":48,"sum_latency_cycles":10149680,"steal_cycles":7452422,"lock_spin_cycles":4000,"vm_switches":143,"preemptions":55,"timer_fires":44,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":2812104,"iters_replayed":0}"#,
            ),
            (
                HvKind::KvmX86,
                Credit,
                16,
                r#"{"column":"KVM x86","ratio":16,"sched":"credit","txns_per_vm":12,"transactions":192,"sum_latency_cycles":166365056,"steal_cycles":155596634,"lock_spin_cycles":16000,"vm_switches":575,"preemptions":223,"timer_fires":176,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":11159880,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenX86,
                Credit,
                4,
                r#"{"column":"Xen x86","ratio":4,"sched":"credit","txns_per_vm":12,"transactions":48,"sum_latency_cycles":12306970,"steal_cycles":9067366,"lock_spin_cycles":7000,"vm_switches":143,"preemptions":59,"timer_fires":44,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":3380664,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenX86,
                Credit,
                16,
                r#"{"column":"Xen x86","ratio":16,"sched":"credit","txns_per_vm":12,"transactions":192,"sum_latency_cycles":200524606,"steal_cycles":187572574,"lock_spin_cycles":25000,"vm_switches":575,"preemptions":239,"timer_fires":176,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":13430184,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenX86,
                Cfs,
                4,
                r#"{"column":"Xen x86","ratio":4,"sched":"cfs","txns_per_vm":12,"transactions":48,"sum_latency_cycles":12689784,"steal_cycles":9440808,"lock_spin_cycles":0,"vm_switches":144,"preemptions":48,"timer_fires":48,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":3379484,"iters_replayed":0}"#,
            ),
            (
                HvKind::XenX86,
                Cfs,
                16,
                r#"{"column":"Xen x86","ratio":16,"sched":"cfs","txns_per_vm":12,"transactions":192,"sum_latency_cycles":208691040,"steal_cycles":197264160,"lock_spin_cycles":0,"vm_switches":576,"preemptions":192,"timer_fires":192,"ipis_sent":192,"ipis_coalesced":0,"ipis_dropped":0,"ipis_resent":0,"makespan_cycles":13436948,"iters_replayed":0}"#,
            ),
        ];
        const FAULTED: &str = r#"{"column":"KVM ARM","ratio":4,"sched":"credit","txns_per_vm":12,"transactions":48,"sum_latency_cycles":14063753,"steal_cycles":9977660,"lock_spin_cycles":54000,"vm_switches":147,"preemptions":69,"timer_fires":57,"ipis_sent":48,"ipis_coalesced":0,"ipis_dropped":14,"ipis_resent":11,"makespan_cycles":4146936,"iters_replayed":0}"#;
        let parse =
            |s: &str| -> CellResult { serde_json::from_str(s).expect("pinned result parses") };
        for (kind, policy, ratio, pinned) in PINNED {
            let cfg = CellConfig {
                kind,
                ratio,
                policy,
                txns_per_vm: T,
                compile: false,
                profiling: false,
                fault: None,
            };
            assert_eq!(
                run_cell_with(cfg).unwrap(),
                parse(pinned),
                "{kind:?} {policy:?} {ratio}:1"
            );
        }
        assert_eq!(
            run_cell_with(faulted_cfg(4, 0.3, false)).unwrap(),
            parse(FAULTED)
        );
    }

    #[test]
    fn render_marks_failed_cells() {
        let c = run_cell(HvKind::KvmArm, 1, SchedPolicy::Credit, 4, false).unwrap();
        let s = render_sweep("credit", &[Some(c), None]);
        assert!(s.contains("KVM ARM"));
        assert!(s.contains("n/a"));
    }
}
