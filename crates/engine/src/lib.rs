//! # hvx-engine — deterministic discrete-event core for the hvx simulator
//!
//! This crate is the time substrate for hvx, a mechanistic reproduction of
//! *"ARM Virtualization: Performance and Architectural Implications"*
//! (Dall, Li, Lim, Nieh, Koloventzos — ISCA 2016). Everything the study
//! measures is, at bottom, cycle-stamped activity on the cores of a
//! multi-core server; this crate provides exactly that and nothing more:
//!
//! * [`Cycles`] / [`Frequency`] — cycle-denominated time, convertible to
//!   microseconds for the paper's latency tables;
//! * [`CoreId`] / [`Topology`] — the 8-core, pinned-VCPU machine layout of
//!   the paper's experimental design (§III);
//! * [`Machine`] — per-core clocks, cost charging, cross-core signals;
//! * [`EventQueue`] — a deterministic calendar for workload simulations;
//! * [`shard`] — conservative-PDES sharding: per-host calendars with a
//!   wire-latency lookahead bound, byte-identical serial and parallel
//!   execution;
//! * [`FaultPlan`] / [`Watchdog`] — seeded deterministic fault
//!   injection plus in-simulation cycle-budget and livelock watchdogs
//!   (the [`fault`] module);
//! * [`Samples`] / [`Summary`] — iteration statistics;
//! * re-exported [`TransitionId`] spans and [`MetricsRegistry`] metrics
//!   (from `hvx-obs`) — opt-in cycle attribution behind
//!   [`Machine::enable_profiling`];
//! * the re-exported [`EventTracer`] — opt-in, behind
//!   [`Machine::enable_event_tracing`]: one [`SliceEvent`] per charge,
//!   the per-step decomposition that regenerates the paper's breakdown
//!   tables and lets tests assert exact transition sequences.
//!
//! Higher layers (architectural state, interrupt controller, memory, I/O,
//! the hypervisor models themselves) all express their costs through
//! [`Machine::charge`], which is what makes every composite number in the
//! reproduced tables decomposable and auditable.
//!
//! # Example
//!
//! ```
//! use hvx_engine::{Machine, Topology, TraceKind, Cycles};
//!
//! let mut m = Machine::new(Topology::paper_default());
//! m.enable_event_tracing(None);
//! let vcpu0 = m.topology().guest_core(0);
//! m.charge(vcpu0, "trap:el1-to-el2", TraceKind::Trap, Cycles::new(160));
//! m.charge(vcpu0, "save:gp", TraceKind::ContextSave, Cycles::new(152));
//! assert_eq!(m.now(vcpu0), Cycles::new(312));
//! let trace = m.take_event_tracer().unwrap();
//! assert_eq!(trace.labels(), ["trap:el1-to-el2", "save:gp"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod cycles;
mod event;
pub mod fault;
pub mod fingerprint;
mod machine;
pub mod shard;
mod stats;
pub mod timeline;
mod topology;

pub use cycles::{Cycles, Frequency};
pub use event::EventQueue;
pub use fault::{FaultPlan, FaultPoint, Watchdog};
pub use fingerprint::{Fingerprint, FingerprintHasher};
// Observability primitives, re-exported so instrumented layers (core,
// gic, vio, suite) need only an `hvx-engine` dependency.
pub use hvx_obs::{
    render_span_deltas, span_deltas, CounterSnapshot, EventTracer, FlowChain, FlowId, FlowKind,
    FlowPhase, FlowPoint, HistogramSketch, HistogramSnapshot, MetricsRegistry, ProfileSnapshot,
    SliceEvent, SpanDelta, SpanRow, SpanSnapshotRow, SpanTracer, TraceKind, TransitionId,
};
pub use machine::{thread_transitions, Machine};
pub use stats::{Histogram, Samples, Streaming, Summary};
pub use topology::{CoreId, Topology};
