//! Causal event tracing: per-track timelines with cross-machine flows.
//!
//! Where spans ([`crate::SpanTracer`]) answer *where did cycles go in
//! aggregate*, the event tracer answers *what happened, when, and what
//! caused it*: every charge becomes a timestamped **slice** on a
//! per-core track, and causally-linked slices on different cores are
//! stitched together by **flow points** (the paper's guest kick →
//! vhost/Dom0 handling → vIRQ delivery chains). The result exports to
//! Chrome trace-event JSON, which loads directly in Perfetto or
//! `chrome://tracing`.
//!
//! The tracer is substrate-free: tracks are plain `u8` ids and
//! timestamps are raw cycle counts. The engine maps cores to tracks and
//! clock instants to timestamps; this module never advances time, so
//! enabling it cannot perturb a simulation.
//!
//! # Ring-buffer mode
//!
//! With a capacity installed ([`EventTracer::with_capacity`]) the slice
//! and flow stores become fixed-size rings: the newest events overwrite
//! the oldest and [`EventTracer::dropped_slices`] counts the casualties.
//! Full traces of large scenarios stay memory-capped; chains whose
//! beginnings were overwritten simply surface as incomplete.

use crate::{MetricsRegistry, TransitionId};
use serde::Value;

/// Identity of one causal flow: every point of a chain carries the same
/// id, which becomes the Chrome trace-event `id` binding the arrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

impl FlowId {
    /// The raw flow identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What kind of causal chain a flow traces. Each kind derives into its
/// own end-to-end latency histogram (see
/// [`EventTracer::derive_metrics`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Guest virtio doorbell → vhost worker → wire departure (KVM's
    /// transmit kick path).
    VirtioKick,
    /// Guest event-channel signal → Dom0 wakeup → wire departure (Xen's
    /// transmit path).
    EvtchnSignal,
    /// Physical device IRQ on the host/Dom0 → backend processing →
    /// vIRQ injection → guest acknowledge (the paper's interrupt
    /// delivery asymmetry, Fig. 4 / Table V).
    IrqDelivery,
    /// One grant copy (including its bounded retries under fault
    /// injection).
    GrantCopy,
    /// An injected fault's charged recovery path (rekick, redeliver,
    /// retry, retransmit).
    FaultRecovery,
}

impl FlowKind {
    /// Every flow kind.
    pub const ALL: [FlowKind; 5] = [
        FlowKind::VirtioKick,
        FlowKind::EvtchnSignal,
        FlowKind::IrqDelivery,
        FlowKind::GrantCopy,
        FlowKind::FaultRecovery,
    ];

    /// Stable snake_case name, used as the Chrome flow-event name.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::VirtioKick => "virtio_kick",
            FlowKind::EvtchnSignal => "evtchn_signal",
            FlowKind::IrqDelivery => "irq_delivery",
            FlowKind::GrantCopy => "grant_copy",
            FlowKind::FaultRecovery => "fault_recovery",
        }
    }

    /// The latency histogram this kind's complete chains derive into.
    /// Virtio kicks and event-channel signals share the I/O-kick
    /// histogram so KVM and Xen are directly comparable.
    pub fn latency_metric(self) -> &'static str {
        match self {
            FlowKind::VirtioKick | FlowKind::EvtchnSignal => "trace.latency.io_kick",
            FlowKind::IrqDelivery => "trace.latency.irq_delivery",
            FlowKind::GrantCopy => "trace.latency.grant_copy",
            FlowKind::FaultRecovery => "trace.latency.fault_recovery",
        }
    }
}

/// Position of a flow point within its chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowPhase {
    /// Chain start (Chrome `ph:"s"`).
    Begin,
    /// Intermediate hop (Chrome `ph:"t"`).
    Step,
    /// Chain end (Chrome `ph:"f"`, binding enclosing).
    End,
}

impl FlowPhase {
    /// The Chrome trace-event phase letter.
    pub fn chrome_ph(self) -> &'static str {
        match self {
            FlowPhase::Begin => "s",
            FlowPhase::Step => "t",
            FlowPhase::End => "f",
        }
    }
}

/// Broad classification of a charged step, used for coarse aggregation
/// (e.g. "how much of this hypercall was context switching?") and for
/// the glyphs of the engine's ASCII timeline.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum TraceKind {
    /// Hardware trap entry (EL1→EL2, VM exit, interrupt entry).
    Trap,
    /// Return from the hypervisor to a lower level (ERET, VM entry).
    Return,
    /// Saving register state to memory.
    ContextSave,
    /// Restoring register state from memory.
    ContextRestore,
    /// Software emulation work in the hypervisor (GIC distributor access,
    /// instruction decode, hypercall handling).
    Emulation,
    /// Physical inter-processor interrupt work.
    Ipi,
    /// I/O backend work (vhost handler, netback, device driver).
    Io,
    /// Data copy (grant copy, bounce buffer).
    Copy,
    /// Work executing inside a guest (or native application) context.
    Guest,
    /// Work executing in host OS / Dom0 context other than I/O backends.
    Host,
    /// Scheduler activity (VM switch, idle-domain wake).
    Sched,
    /// Time on the physical wire between machines.
    Wire,
    /// Anything else.
    Other,
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TraceKind::Trap => "trap",
            TraceKind::Return => "return",
            TraceKind::ContextSave => "save",
            TraceKind::ContextRestore => "restore",
            TraceKind::Emulation => "emulation",
            TraceKind::Ipi => "ipi",
            TraceKind::Io => "io",
            TraceKind::Copy => "copy",
            TraceKind::Guest => "guest",
            TraceKind::Host => "host",
            TraceKind::Sched => "sched",
            TraceKind::Wire => "wire",
            TraceKind::Other => "other",
        };
        f.pad(s)
    }
}

/// One timestamped interval of charged work on a track — a Chrome
/// complete event (`ph:"X"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceEvent {
    /// Track the work ran on (the engine uses the physical core index).
    pub track: u8,
    /// Start instant in cycles.
    pub start: u64,
    /// Duration in cycles (zero-cost charges still record: they mark
    /// causal steps).
    pub duration: u64,
    /// The charge label (e.g. `kvm:vgic-inject`). Labels are namespaced
    /// with `:`.
    pub label: &'static str,
    /// The charge's step classification. Not exported to Chrome JSON.
    pub kind: TraceKind,
    /// The transition the charge was attributed to, if charged through
    /// a span (`charge_as`).
    pub transition: Option<TransitionId>,
    /// Whether a fault-plan injection fired immediately before this
    /// slice (the slice is the start of a charged recovery path).
    pub fault: bool,
    /// Global record sequence number (monotone; survives ring wrap).
    pub seq: u64,
}

/// One point of a causal flow chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPoint {
    /// The chain this point belongs to.
    pub id: FlowId,
    /// The chain's kind.
    pub kind: FlowKind,
    /// Begin/step/end.
    pub phase: FlowPhase,
    /// Track the point was recorded on.
    pub track: u8,
    /// Instant in cycles.
    pub ts: u64,
    /// A short hop label (e.g. `vhost:wake`).
    pub label: &'static str,
}

/// One reassembled causal chain (see [`EventTracer::chains`]).
#[derive(Debug, Clone)]
pub struct FlowChain {
    /// The chain id.
    pub id: FlowId,
    /// The chain kind.
    pub kind: FlowKind,
    /// The chain's points, in recording order.
    pub points: Vec<FlowPoint>,
    /// `true` when the chain has both its begin and end point (ring
    /// mode can drop either).
    pub complete: bool,
    /// End-to-end latency in cycles (0 unless complete).
    pub latency: u64,
}

impl FlowChain {
    /// Distinct tracks this chain touched.
    pub fn track_span(&self) -> usize {
        let mut tracks: Vec<u8> = self.points.iter().map(|p| p.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        tracks.len()
    }
}

/// Fixed-capacity ring over a `Vec`: pushes overwrite the oldest entry
/// once `cap` is reached.
#[derive(Debug, Clone)]
struct Ring<T> {
    items: Vec<T>,
    /// `None` = unbounded.
    cap: Option<usize>,
    /// Next overwrite position once full.
    head: usize,
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    fn new(cap: Option<usize>) -> Self {
        let reserve = cap.unwrap_or(0).min(4096);
        Ring {
            items: Vec::with_capacity(reserve),
            cap,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        match self.cap {
            Some(cap) if self.items.len() >= cap => {
                if cap == 0 {
                    self.dropped += 1;
                    return;
                }
                self.items[self.head] = item;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.items.push(item),
        }
    }

    /// Entries in recording order (oldest surviving first).
    fn in_order(&self) -> Vec<T> {
        if self.dropped == 0 || self.head == 0 {
            self.items.clone()
        } else {
            let mut out = Vec::with_capacity(self.items.len());
            out.extend_from_slice(&self.items[self.head..]);
            out.extend_from_slice(&self.items[..self.head]);
            out
        }
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// The structured event tracer: slices plus flow points, exportable to
/// Chrome trace-event JSON.
///
/// # Examples
///
/// ```
/// use hvx_obs::{EventTracer, FlowKind, TraceKind, TransitionId};
///
/// let mut t = EventTracer::new();
/// t.record_slice(0, 0, 100, "guest:kick", TraceKind::Guest, Some(TransitionId::VhostKick));
/// let flow = t.flow_begin(FlowKind::VirtioKick, 0, 100, "virtio:kick");
/// t.flow_step(flow, 4, 700, "vhost:wake");
/// t.record_slice(4, 700, 2_000, "kvm:vhost-tx", TraceKind::Io, Some(TransitionId::VhostBackend));
/// t.flow_end(flow, 4, 2_700, "nic:dma");
/// let chains = t.chains();
/// assert_eq!(chains.len(), 1);
/// assert!(chains[0].complete);
/// assert_eq!(chains[0].latency, 2_600);
/// ```
#[derive(Debug, Clone)]
pub struct EventTracer {
    slices: Ring<SliceEvent>,
    flows: Ring<FlowPoint>,
    /// Total slices ever recorded (ring wrap does not rewind this).
    seq: u64,
    next_flow: u64,
    /// Set by [`EventTracer::note_fault`]; consumed by the next slice.
    pending_fault: bool,
}

impl Default for EventTracer {
    fn default() -> Self {
        EventTracer::new()
    }
}

impl EventTracer {
    /// An unbounded tracer: every event is kept.
    pub fn new() -> Self {
        EventTracer::build(None)
    }

    /// A ring-buffered tracer keeping at most `capacity` slices and
    /// `capacity` flow points.
    pub fn with_capacity(capacity: usize) -> Self {
        EventTracer::build(Some(capacity))
    }

    fn build(cap: Option<usize>) -> Self {
        EventTracer {
            slices: Ring::new(cap),
            flows: Ring::new(cap),
            seq: 0,
            next_flow: 0,
            pending_fault: false,
        }
    }

    /// The installed ring capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.slices.cap
    }

    /// Records one slice of charged work. Consumes a pending fault mark
    /// (see [`EventTracer::note_fault`]) into the slice's `fault` flag.
    pub fn record_slice(
        &mut self,
        track: u8,
        start: u64,
        duration: u64,
        label: &'static str,
        kind: TraceKind,
        transition: Option<TransitionId>,
    ) {
        let fault = std::mem::take(&mut self.pending_fault);
        let seq = self.seq;
        self.seq += 1;
        self.slices.push(SliceEvent {
            track,
            start,
            duration,
            label,
            kind,
            transition,
            fault,
            seq,
        });
    }

    /// Marks that a fault was just injected: the next recorded slice is
    /// flagged as the head of its charged recovery path.
    pub fn note_fault(&mut self) {
        self.pending_fault = true;
    }

    /// Opens a new causal chain at `(track, ts)` and returns its id.
    pub fn flow_begin(
        &mut self,
        kind: FlowKind,
        track: u8,
        ts: u64,
        label: &'static str,
    ) -> FlowId {
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flows.push(FlowPoint {
            id,
            kind,
            phase: FlowPhase::Begin,
            track,
            ts,
            label,
        });
        id
    }

    /// Records an intermediate hop of chain `id`.
    pub fn flow_step(&mut self, id: FlowId, track: u8, ts: u64, label: &'static str) {
        self.push_point(id, FlowPhase::Step, track, ts, label);
    }

    /// Closes chain `id` at `(track, ts)`.
    pub fn flow_end(&mut self, id: FlowId, track: u8, ts: u64, label: &'static str) {
        self.push_point(id, FlowPhase::End, track, ts, label);
    }

    fn push_point(
        &mut self,
        id: FlowId,
        phase: FlowPhase,
        track: u8,
        ts: u64,
        label: &'static str,
    ) {
        let kind = self
            .flows
            .items
            .iter()
            .rev()
            .find(|p| p.id == id)
            .map(|p| p.kind);
        // A chain whose earlier points were all overwritten by the ring
        // cannot name its kind; drop the orphan point rather than guess.
        let Some(kind) = kind else { return };
        self.flows.push(FlowPoint {
            id,
            kind,
            phase,
            track,
            ts,
            label,
        });
    }

    /// Surviving slices, oldest first.
    pub fn slices(&self) -> Vec<SliceEvent> {
        self.slices.in_order()
    }

    /// The labels of the surviving slices, oldest first — convenient for
    /// asserting the exact step sequence of a code path.
    pub fn labels(&self) -> Vec<&'static str> {
        self.slices.in_order().iter().map(|s| s.label).collect()
    }

    /// Sum of the durations of the surviving slices labelled `label` —
    /// the per-step totals behind the paper's breakdown tables.
    pub fn total_by_label(&self, label: &str) -> u64 {
        self.slices
            .items
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.duration)
            .sum()
    }

    /// Whether `needle` occurs as a (not necessarily contiguous)
    /// subsequence of [`EventTracer::labels`]: asserts that a path passed
    /// through required steps in order without pinning every
    /// intermediate step.
    pub fn contains_label_subsequence(&self, needle: &[&str]) -> bool {
        let labels = self.labels();
        let mut rest = labels.iter();
        needle.iter().all(|want| rest.any(|l| l == want))
    }

    /// Surviving flow points, oldest first.
    pub fn flow_points(&self) -> Vec<FlowPoint> {
        self.flows.in_order()
    }

    /// Total slices ever recorded (including any the ring overwrote).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Slices lost to ring overwrites.
    pub fn dropped_slices(&self) -> u64 {
        self.slices.dropped
    }

    /// Flow points lost to ring overwrites.
    pub fn dropped_flow_points(&self) -> u64 {
        self.flows.dropped
    }

    /// Reassembles the surviving flow points into chains, in order of
    /// each chain's first surviving point. A chain is complete when both
    /// its begin and end survived; only complete chains carry a latency.
    pub fn chains(&self) -> Vec<FlowChain> {
        let points = self.flows.in_order();
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| (points[i].id, i));
        let mut chains: Vec<FlowChain> = Vec::new();
        for i in order {
            let p = points[i];
            match chains.last_mut() {
                Some(c) if c.id == p.id => c.points.push(p),
                _ => chains.push(FlowChain {
                    id: p.id,
                    kind: p.kind,
                    points: vec![p],
                    complete: false,
                    latency: 0,
                }),
            }
        }
        for c in &mut chains {
            let begin = c.points.iter().find(|p| p.phase == FlowPhase::Begin);
            let end = c.points.iter().rfind(|p| p.phase == FlowPhase::End);
            if let (Some(b), Some(e)) = (begin, end) {
                c.complete = true;
                c.latency = e.ts.saturating_sub(b.ts);
            }
        }
        // Present chains in the order they began.
        chains.sort_by_key(|c| {
            c.points
                .first()
                .map_or((u64::MAX, u64::MAX), |p| (p.ts, c.id.0))
        });
        chains
    }

    /// The derivation pass: walks the reassembled chains and folds
    /// end-to-end latencies, chain lengths, and completeness counters
    /// into `metrics`:
    ///
    /// * `trace.latency.io_kick` — virtio-kick / event-channel chains;
    /// * `trace.latency.irq_delivery` — interrupt-delivery chains (the
    ///   Fig. 4 asymmetry quantity);
    /// * `trace.latency.grant_copy`, `trace.latency.fault_recovery`;
    /// * `trace.chain_len` — points per complete chain;
    /// * `trace.events`, `trace.events_dropped`, `trace.flows_complete`,
    ///   `trace.flows_incomplete` counters.
    pub fn derive_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.bump("trace.events", self.seq);
        metrics.bump("trace.events_dropped", self.slices.dropped);
        for c in self.chains() {
            if c.complete {
                metrics.bump("trace.flows_complete", 1);
                metrics.observe(c.kind.latency_metric(), c.latency);
                metrics.observe("trace.chain_len", c.points.len() as u64);
            } else {
                metrics.bump("trace.flows_incomplete", 1);
            }
        }
    }

    /// Exports the trace as a Chrome trace-event JSON value
    /// (`{"traceEvents": [...], ...}`), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Timestamps are raw simulated cycles presented as microseconds
    /// (the viewers require *some* time unit; relative magnitudes are
    /// what matter for a simulation). Tracks map to thread ids under a
    /// single process; `track_names[track]` supplies the thread names,
    /// with `track<N>` as the fallback.
    pub fn chrome_trace(&self, process_name: &str, track_names: &[String]) -> Value {
        let mut events: Vec<Value> = Vec::new();
        events.push(obj(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::U64(0)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![("name", Value::Str(process_name.to_string()))]),
            ),
        ]));
        let slices = self.slices.in_order();
        let points = self.flows.in_order();
        let mut tracks: Vec<u8> = slices
            .iter()
            .map(|s| s.track)
            .chain(points.iter().map(|p| p.track))
            .collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in &tracks {
            let name = track_names
                .get(*t as usize)
                .cloned()
                .unwrap_or_else(|| format!("track{t}"));
            events.push(obj(vec![
                ("name", Value::Str("thread_name".into())),
                ("ph", Value::Str("M".into())),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(*t))),
                ("args", obj(vec![("name", Value::Str(name))])),
            ]));
        }
        for s in &slices {
            let mut args = vec![
                ("cycles", Value::U64(s.duration)),
                ("seq", Value::U64(s.seq)),
            ];
            if let Some(id) = s.transition {
                args.push(("transition", Value::Str(id.name().to_string())));
            }
            if s.fault {
                args.push(("fault", Value::Bool(true)));
            }
            events.push(obj(vec![
                ("name", Value::Str(s.label.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::U64(s.start)),
                ("dur", Value::U64(s.duration)),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(s.track))),
                ("args", obj(args)),
            ]));
        }
        for p in &points {
            let mut fields = vec![
                ("name", Value::Str(p.kind.name().to_string())),
                ("cat", Value::Str("flow".into())),
                ("ph", Value::Str(p.phase.chrome_ph().to_string())),
                ("id", Value::U64(p.id.raw())),
                ("ts", Value::U64(p.ts)),
                ("pid", Value::U64(0)),
                ("tid", Value::U64(u64::from(p.track))),
                ("args", obj(vec![("hop", Value::Str(p.label.to_string()))])),
            ];
            if p.phase == FlowPhase::End {
                // Bind the arrow head to the enclosing slice.
                fields.push(("bp", Value::Str("e".into())));
            }
            events.push(obj(fields));
        }
        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::Str("ns".into())),
            (
                "otherData",
                obj(vec![
                    ("events_recorded", Value::U64(self.seq)),
                    ("events_dropped", Value::U64(self.slices.dropped)),
                    ("flow_points", Value::U64(self.flows.len() as u64)),
                ]),
            ),
        ])
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_record_in_order_with_fault_marks() {
        let mut t = EventTracer::new();
        t.record_slice(0, 0, 10, "a", TraceKind::Other, None);
        t.note_fault();
        t.record_slice(
            1,
            10,
            20,
            "b",
            TraceKind::Other,
            Some(TransitionId::GrantRetry),
        );
        t.record_slice(1, 30, 5, "c", TraceKind::Other, None);
        let s = t.slices();
        assert_eq!(s.len(), 3);
        assert!(!s[0].fault);
        assert!(s[1].fault, "fault mark attaches to the next slice");
        assert!(!s[2].fault, "fault mark is consumed");
        assert_eq!(s[1].transition, Some(TransitionId::GrantRetry));
        assert_eq!(s.iter().map(|s| s.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(t.recorded(), 3);
        assert_eq!(t.dropped_slices(), 0);
    }

    #[test]
    fn label_queries_sum_and_order_slices() {
        let mut t = EventTracer::new();
        for (label, dur) in [("save:gp", 152), ("save:vgic", 3250), ("save:gp", 152)] {
            t.record_slice(0, 0, dur, label, TraceKind::ContextSave, None);
        }
        assert_eq!(t.total_by_label("save:gp"), 304);
        assert_eq!(t.total_by_label("save:vgic"), 3250);
        assert_eq!(t.total_by_label("missing"), 0);
        assert_eq!(t.labels(), ["save:gp", "save:vgic", "save:gp"]);
        assert_eq!(t.slices()[1].kind, TraceKind::ContextSave);
    }

    #[test]
    fn label_subsequence_matching() {
        let mut t = EventTracer::new();
        for l in ["trap:el2", "save:gp", "save:vgic", "restore:gp", "eret"] {
            t.record_slice(0, 0, 1, l, TraceKind::Other, None);
        }
        assert!(t.contains_label_subsequence(&["trap:el2", "save:vgic", "eret"]));
        assert!(t.contains_label_subsequence(&[]));
        assert!(!t.contains_label_subsequence(&["eret", "trap:el2"]));
        assert!(!t.contains_label_subsequence(&["nope"]));
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut t = EventTracer::with_capacity(2);
        for i in 0..5u64 {
            t.record_slice(0, i * 10, 1, "s", TraceKind::Other, None);
        }
        let s = t.slices();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].start, 30, "oldest surviving first");
        assert_eq!(s[1].start, 40);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped_slices(), 3);
    }

    #[test]
    fn chains_reassemble_interleaved_flows() {
        let mut t = EventTracer::new();
        let a = t.flow_begin(FlowKind::VirtioKick, 0, 100, "kick");
        let b = t.flow_begin(FlowKind::IrqDelivery, 4, 150, "irq");
        t.flow_step(a, 4, 300, "wake");
        t.flow_end(b, 1, 900, "ack");
        t.flow_end(a, 5, 600, "dma");
        let chains = t.chains();
        assert_eq!(chains.len(), 2);
        // Presented in begin order.
        assert_eq!(chains[0].kind, FlowKind::VirtioKick);
        assert_eq!(chains[0].points.len(), 3);
        assert!(chains[0].complete);
        assert_eq!(chains[0].latency, 500);
        assert_eq!(chains[1].kind, FlowKind::IrqDelivery);
        assert_eq!(chains[1].latency, 750);
        assert_eq!(chains[1].track_span(), 2);
    }

    #[test]
    fn ring_truncated_chain_is_incomplete_not_wrong() {
        let mut t = EventTracer::with_capacity(2);
        let a = t.flow_begin(FlowKind::EvtchnSignal, 0, 10, "send");
        t.flow_step(a, 5, 50, "wake");
        t.flow_end(a, 5, 90, "wire"); // overwrites the begin
        let chains = t.chains();
        assert_eq!(chains.len(), 1);
        assert!(!chains[0].complete);
        assert_eq!(chains[0].latency, 0);
    }

    #[test]
    fn orphan_flow_point_after_full_overwrite_is_dropped() {
        let mut t = EventTracer::with_capacity(1);
        let a = t.flow_begin(FlowKind::GrantCopy, 0, 10, "copy");
        let b = t.flow_begin(FlowKind::GrantCopy, 0, 20, "copy");
        t.flow_end(a, 0, 30, "done"); // a's begin was overwritten by b's
        let chains = t.chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].id, b);
    }

    #[test]
    fn derive_metrics_builds_latency_histograms() {
        let mut t = EventTracer::new();
        let a = t.flow_begin(FlowKind::IrqDelivery, 4, 0, "irq");
        t.flow_end(a, 1, 7_000, "ack");
        let b = t.flow_begin(FlowKind::VirtioKick, 0, 100, "kick");
        t.flow_end(b, 5, 2_100, "dma");
        let _c = t.flow_begin(FlowKind::GrantCopy, 5, 50, "copy"); // never ends
        t.record_slice(0, 0, 10, "s", TraceKind::Other, None);
        let mut m = MetricsRegistry::new();
        t.derive_metrics(&mut m);
        assert_eq!(m.counter("trace.events"), 1);
        assert_eq!(m.counter("trace.flows_complete"), 2);
        assert_eq!(m.counter("trace.flows_incomplete"), 1);
        let irq = m.histogram("trace.latency.irq_delivery").unwrap();
        assert_eq!(irq.count(), 1);
        assert_eq!(irq.sum(), 7_000);
        let kick = m.histogram("trace.latency.io_kick").unwrap();
        assert_eq!(kick.sum(), 2_000);
        assert_eq!(m.histogram("trace.chain_len").unwrap().count(), 2);
    }

    #[test]
    fn chrome_trace_shape_is_valid() {
        let mut t = EventTracer::new();
        t.record_slice(
            0,
            0,
            100,
            "guest:kick",
            TraceKind::Guest,
            Some(TransitionId::VhostKick),
        );
        let f = t.flow_begin(FlowKind::VirtioKick, 0, 100, "kick");
        t.flow_end(f, 4, 900, "dma");
        let v = t.chrome_trace("hvx kvm-arm", &["pcpu0".to_string()]);
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // process_name + 2 thread_names + 1 slice + 2 flow points.
        assert_eq!(events.len(), 6);
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        assert_eq!(events[1]["args"]["name"].as_str(), Some("pcpu0"));
        assert_eq!(events[2]["args"]["name"].as_str(), Some("track4"));
        let slice = &events[3];
        assert_eq!(slice["ph"].as_str(), Some("X"));
        assert_eq!(slice["dur"].as_u64(), Some(100));
        assert_eq!(slice["args"]["transition"].as_str(), Some("vhost_kick"));
        assert!(
            slice.get("kind").is_none() && slice["args"].get("kind").is_none(),
            "the step kind stays out of the Chrome JSON"
        );
        let begin = &events[4];
        assert_eq!(begin["ph"].as_str(), Some("s"));
        assert_eq!(begin["id"].as_u64(), Some(0));
        let end = &events[5];
        assert_eq!(end["ph"].as_str(), Some("f"));
        assert_eq!(end["bp"].as_str(), Some("e"));
        assert_eq!(v["otherData"]["events_recorded"].as_u64(), Some(1));
    }

    #[test]
    fn flow_kind_names_and_metrics_are_stable() {
        let mut names: Vec<_> = FlowKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlowKind::ALL.len());
        assert_eq!(
            FlowKind::VirtioKick.latency_metric(),
            FlowKind::EvtchnSignal.latency_metric(),
            "KVM and Xen kick chains must land in the same histogram"
        );
    }
}
