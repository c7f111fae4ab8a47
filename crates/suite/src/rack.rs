//! The rack sweep: H hosts × N VMs serving TCP_RR traffic over the
//! sharded conservative-PDES executor.
//!
//! The paper's multi-VM results (Figs. 9–10, §VI) measure contention
//! *within* one server; this artifact scales the same TCP_RR
//! transaction shape *across* servers. Each host in the rack runs its
//! own hypervisor ([`Composition`] picks Xen vs KVM per host index) on
//! its own [`Machine`], and every VM owns a request token that
//! circulates the ring of hosts: each hop is one RR transaction
//! (virtual-interrupt delivery, guest request processing, EOI, then an
//! IPI-kicked NIC send onto the wire to the next host).
//!
//! The inter-host wire latency [`RACK_WIRE`] is the **lookahead bound**
//! handed to [`ShardSim`]: hosts simulate independently inside each
//! conservative window and only synchronize at wire granularity, which
//! is what finally lets `--jobs` parallelize a single scenario rather
//! than just the scenario matrix. All result fields are integers and
//! every per-host quantity is machine-owned (never the thread-local
//! transition counter), so serial and parallel execution serialize to
//! byte-identical JSON — `tests/rack_diff.rs` pins that across the
//! composition × host-count × fault-plan grid.

use hvx_core::{Error, HvKind, SimBuilder};
use hvx_engine::shard::{HostCtx, HostModel, ShardSim};
use hvx_engine::{Cycles, FaultPlan, FaultPoint, Machine, Topology, TraceKind};

use serde::{Deserialize, Serialize};

/// Inter-host wire latency in cycles (~42 µs at 2.4 GHz): an
/// in-rack round-trip-scale figure, and the conservative lookahead
/// bound — no message may travel faster, so a host may run this far
/// past the global virtual-time floor without synchronizing.
pub const RACK_WIRE: u64 = 100_000;

/// Default laps each VM's token makes around the ring.
pub const ROUNDS: u32 = 6;

/// Host counts the artifact sweep visits.
pub const HOST_COUNTS: [u32; 3] = [2, 4, 8];

/// Default VMs per host for artifact cells.
pub const VMS_PER_HOST: u32 = 4;

/// Guest cycles to process one RR request (same shape as the
/// consolidation cell's per-transaction work).
const RR_WORK: u64 = 40_000;

/// Stagger between successive VM token launches on one host, so
/// arrivals don't all collide at instant zero.
const LAUNCH_STAGGER: u64 = 7_500;

/// How each rack host picks its hypervisor — the sweep's composition
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Composition {
    /// Every host runs KVM ARM.
    AllKvm,
    /// Every host runs Xen ARM.
    AllXen,
    /// Even hosts run KVM ARM, odd hosts Xen ARM.
    Mixed,
}

impl Composition {
    /// Every composition, in sweep order.
    pub const ALL: [Composition; 3] =
        [Composition::AllKvm, Composition::AllXen, Composition::Mixed];

    /// Stable short name (JSON keys, fingerprints, CLI).
    pub fn name(self) -> &'static str {
        match self {
            Composition::AllKvm => "kvm",
            Composition::AllXen => "xen",
            Composition::Mixed => "mixed",
        }
    }

    /// The hypervisor host `host` runs under this composition.
    pub fn kind_for(self, host: usize) -> HvKind {
        match self {
            Composition::AllKvm => HvKind::KvmArm,
            Composition::AllXen => HvKind::XenArm,
            Composition::Mixed => {
                if host.is_multiple_of(2) {
                    HvKind::KvmArm
                } else {
                    HvKind::XenArm
                }
            }
        }
    }

    /// Parses a [`Composition::name`] back.
    pub fn parse(s: &str) -> Option<Composition> {
        Composition::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// One rack cell's configuration.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Per-host hypervisor assignment.
    pub composition: Composition,
    /// Hosts in the ring.
    pub hosts: u32,
    /// Token-owning VMs per host.
    pub vms_per_host: u32,
    /// Laps each token makes around the ring.
    pub rounds: u32,
    /// Worker threads for the shard executor; `<= 1` runs the serial
    /// reference execution (the artifact path, so the thread-local
    /// transition accounting the runner relies on stays intact).
    pub jobs: usize,
    /// Explicit fault plan for every host machine. `None` inherits the
    /// thread's ambient plan at machine construction, which is how the
    /// runner's `--faults` sweep reaches rack cells.
    pub fault: Option<FaultPlan>,
}

impl CellConfig {
    /// The artifact-path configuration: serial shard execution,
    /// ambient faults.
    pub fn artifact(composition: Composition, hosts: u32) -> CellConfig {
        CellConfig {
            composition,
            hosts,
            vms_per_host: VMS_PER_HOST,
            rounds: ROUNDS,
            jobs: 1,
            fault: None,
        }
    }
}

/// One rack cell's results. All fields are integers so cached JSON is
/// byte-stable and serial/parallel runs compare exactly; derived rates
/// are computed at render time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellResult {
    /// Composition name (`kvm` / `xen` / `mixed`).
    pub composition: String,
    /// Hosts in the ring.
    pub hosts: u32,
    /// VMs per host.
    pub vms_per_host: u32,
    /// Laps each token was asked to run.
    pub rounds: u32,
    /// RR requests served across the rack.
    pub requests: u64,
    /// Σ per-request service cycles (dequeue → response on the wire).
    pub sum_service_cycles: u64,
    /// Wire messages delivered between hosts.
    pub wire_hops: u64,
    /// Tokens lost to [`FaultPoint::WireDrop`] (no retransmit: the
    /// drop kills the token and the loss is the measurement).
    pub wire_drops: u64,
    /// Conservative windows the executor ran.
    pub windows: u64,
    /// Events handled across all shards.
    pub events: u64,
    /// Host-windows stalled on the lookahead bound: a shard woke at the
    /// barrier holding only events at or beyond the horizon.
    pub lookahead_stalls: u64,
    /// Median events per window (power-of-two bucket upper bound).
    pub window_events_p50: u64,
    /// 95th-percentile events per window (bucket upper bound).
    pub window_events_p95: u64,
    /// 99th-percentile events per window (bucket upper bound).
    pub window_events_p99: u64,
    /// Largest single-window event count.
    pub window_events_max: u64,
    /// 95th-percentile per-window host event spread (`max - min`
    /// events across hosts; bucket upper bound).
    pub imbalance_p95: u64,
    /// Largest per-window host event spread.
    pub imbalance_max: u64,
    /// Final virtual clock per host, cycles (index = host).
    pub per_host_now: Vec<u64>,
    /// Rack-wide makespan: the maximum per-host clock, cycles.
    pub makespan_cycles: u64,
}

impl CellResult {
    /// Mean per-request service latency in microseconds (2.4 GHz).
    pub fn mean_service_us(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.sum_service_cycles as f64 / self.requests as f64 / 2_400.0
    }

    /// Requests per simulated second (2.4 GHz clock).
    pub fn requests_per_sec(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.requests as f64 * 2.4e9 / self.makespan_cycles as f64
    }
}

/// Per-hypervisor costs, probed once per cell from the real model so
/// they track the calibrated cost model (including `HVX_COST_PERTURB`).
#[derive(Clone, Copy)]
struct Costs {
    ipi_send: u64,
    virq_recv: u64,
    eoi: u64,
}

fn probe_costs(kind: HvKind) -> Result<Costs, Error> {
    let mut sim = SimBuilder::new(kind).build()?;
    Ok(Costs {
        ipi_send: sim.virtual_ipi(0, 1).as_u64(),
        virq_recv: sim.deliver_virq(1).as_u64(),
        eoi: sim.virq_complete(1).as_u64(),
    })
}

/// A request token in flight: which VM owns it and how many ring hops
/// remain.
#[derive(Debug, Clone, Copy)]
struct Token {
    vm: u32,
    hops: u32,
}

/// One rack host: its machine, hypervisor costs, and counters. All
/// state is owned — nothing thread-local — so the shard executor can
/// hand hosts to worker threads without changing any result byte.
struct RackHost {
    machine: Machine,
    costs: Costs,
    requests: u64,
    sum_service: u64,
    drops: u64,
}

impl HostModel for RackHost {
    type Event = Token;

    fn handle(&mut self, when: Cycles, token: Token, ctx: &mut HostCtx<'_, Token>) {
        let guests = self.machine.topology().guest_cores().len();
        let core = self
            .machine
            .topology()
            .guest_core(token.vm as usize % guests);
        // The serving core picks the request up when it arrives — or
        // when it finishes its previous request, whichever is later.
        let start = self.machine.wait_until(core, when);
        self.machine.charge(
            core,
            "rack:virq-recv",
            TraceKind::Host,
            Cycles::new(self.costs.virq_recv),
        );
        self.machine
            .charge(core, "rack:rr-work", TraceKind::Guest, Cycles::new(RR_WORK));
        self.machine.charge(
            core,
            "rack:eoi",
            TraceKind::Host,
            Cycles::new(self.costs.eoi),
        );
        self.requests += 1;
        if token.hops == 0 {
            self.sum_service += (self.machine.now(core) - start).as_u64();
            return;
        }
        if self.machine.fault(FaultPoint::WireDrop) {
            // The response vanishes on the wire; the token dies and
            // the loss is the measurement (no retransmit path).
            self.drops += 1;
            self.sum_service += (self.machine.now(core) - start).as_u64();
            return;
        }
        self.machine.charge(
            core,
            "rack:ipi-kick",
            TraceKind::Ipi,
            Cycles::new(self.costs.ipi_send),
        );
        let depart = self.machine.now(core);
        self.sum_service += (depart - start).as_u64();
        let to = (ctx.host() + 1) % ctx.hosts();
        ctx.send(
            to,
            depart,
            Cycles::new(RACK_WIRE),
            Token {
                vm: token.vm,
                hops: token.hops - 1,
            },
        );
    }
}

/// Runs one rack cell. `cfg.jobs <= 1` is the serial reference
/// execution; any larger value fans each conservative window across
/// worker threads — with byte-identical results, which
/// `tests/rack_diff.rs` pins.
pub fn run_cell_with(cfg: &CellConfig) -> Result<CellResult, Error> {
    assert!(cfg.hosts >= 1, "a rack needs at least one host");
    let kvm = probe_costs(HvKind::KvmArm)?;
    let xen = probe_costs(HvKind::XenArm)?;

    let mut sim = ShardSim::new(Cycles::new(RACK_WIRE));
    for h in 0..cfg.hosts as usize {
        let mut machine = Machine::new(Topology::paper_default());
        if let Some(plan) = &cfg.fault {
            machine.set_fault_plan(plan.clone());
        }
        let costs = match cfg.composition.kind_for(h) {
            HvKind::XenArm => xen,
            _ => kvm,
        };
        sim.add_host(RackHost {
            machine,
            costs,
            requests: 0,
            sum_service: 0,
            drops: 0,
        });
    }

    // Every VM launches one token that laps the ring `rounds` times;
    // `hops` counts forwards, so each token is served hops + 1 times
    // unless a wire drop kills it early.
    let hops = cfg.rounds * cfg.hosts;
    for h in 0..cfg.hosts as usize {
        for vm in 0..cfg.vms_per_host {
            sim.schedule(
                h,
                Cycles::new(u64::from(vm) * LAUNCH_STAGGER),
                Token { vm, hops },
            );
        }
    }

    let stats = if cfg.jobs <= 1 {
        sim.run()
    } else {
        sim.run_parallel(cfg.jobs)
    };

    let models = sim.into_models();
    let per_host_now: Vec<u64> = models
        .iter()
        .map(|m| m.machine.global_now().as_u64())
        .collect();
    Ok(CellResult {
        composition: cfg.composition.name().to_string(),
        hosts: cfg.hosts,
        vms_per_host: cfg.vms_per_host,
        rounds: cfg.rounds,
        requests: models.iter().map(|m| m.requests).sum(),
        sum_service_cycles: models.iter().map(|m| m.sum_service).sum(),
        wire_hops: stats.wires,
        wire_drops: models.iter().map(|m| m.drops).sum(),
        windows: stats.windows,
        events: stats.events,
        lookahead_stalls: stats.lookahead_stalls,
        window_events_p50: stats.window_events.approx_quantile(0.5).unwrap_or(0),
        window_events_p95: stats.window_events.approx_quantile(0.95).unwrap_or(0),
        window_events_p99: stats.window_events.approx_quantile(0.99).unwrap_or(0),
        window_events_max: stats.window_events.max().unwrap_or(0),
        imbalance_p95: stats.host_imbalance.approx_quantile(0.95).unwrap_or(0),
        imbalance_max: stats.host_imbalance.max().unwrap_or(0),
        makespan_cycles: per_host_now.iter().copied().max().unwrap_or(0),
        per_host_now,
    })
}

/// Runs the artifact cell for `(composition, hosts)`: serial shard
/// execution with ambient faults.
pub fn run_cell(composition: Composition, hosts: u32) -> Result<CellResult, Error> {
    run_cell_with(&CellConfig::artifact(composition, hosts))
}

/// Renders the rack sweep as an aligned text table, one row per
/// (hosts, composition) cell.
pub fn render_sweep(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "hosts  comp    vms  requests  drops    mean-svc-us   req/sec     windows     stalls\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{:>5}  {:<6}  {:>3}  {:>8}  {:>5}  {:>12.2}  {:>9.0}  {:>9}  {:>9}\n",
            c.hosts,
            c.composition,
            c.vms_per_host,
            c.requests,
            c.wire_drops,
            c.mean_service_us(),
            c.requests_per_sec(),
            c.windows,
            c.lookahead_stalls,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_serves_every_request_without_faults() {
        let cfg = CellConfig {
            composition: Composition::AllKvm,
            hosts: 3,
            vms_per_host: 2,
            rounds: 2,
            jobs: 1,
            fault: None,
        };
        let r = run_cell_with(&cfg).unwrap();
        // 3 hosts × 2 VMs, each token served hops + 1 = 7 times.
        assert_eq!(r.requests, 6 * 7);
        assert_eq!(r.wire_drops, 0);
        assert_eq!(r.events, r.requests);
        assert_eq!(r.per_host_now.len(), 3);
        assert!(r.makespan_cycles > 0);
        // Window telemetry is populated and internally consistent.
        assert!(r.window_events_max >= 1);
        assert!(r.window_events_p50 <= r.window_events_p95);
        assert!(r.window_events_p95 <= r.window_events_p99);
        assert!(r.lookahead_stalls <= r.windows * u64::from(r.hosts));
    }

    #[test]
    fn xen_and_kvm_compositions_differ() {
        let kvm = run_cell(Composition::AllKvm, 2).unwrap();
        let xen = run_cell(Composition::AllXen, 2).unwrap();
        assert_eq!(kvm.requests, xen.requests);
        assert_ne!(
            kvm.sum_service_cycles, xen.sum_service_cycles,
            "probed per-hypervisor costs must show up in service time"
        );
    }

    #[test]
    fn wire_drops_kill_tokens() {
        let cfg = CellConfig {
            composition: Composition::Mixed,
            hosts: 4,
            vms_per_host: 4,
            rounds: 4,
            jobs: 1,
            fault: Some(FaultPlan::new(7).with_rate(FaultPoint::WireDrop, 0.2)),
        };
        let faulty = run_cell_with(&cfg).unwrap();
        let clean = run_cell_with(&CellConfig { fault: None, ..cfg }).unwrap();
        assert!(faulty.wire_drops > 0, "20% drop rate must fire");
        assert!(faulty.requests < clean.requests);
    }

    #[test]
    fn composition_names_round_trip() {
        for c in Composition::ALL {
            assert_eq!(Composition::parse(c.name()), Some(c));
        }
        assert_eq!(Composition::parse("nope"), None);
    }
}
