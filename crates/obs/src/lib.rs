//! # hvx-obs — observability primitives for the hvx simulator
//!
//! The paper's core contribution is *attributing* cycles to individual
//! architectural transitions (Table III's hypercall breakdown, Figure
//! 4's per-workload overheads). This crate provides the machinery to do
//! the same from instrumentation instead of from summed cost constants:
//!
//! * [`TransitionId`] / [`SpanTracer`] — nested spans keyed by static
//!   transition identities; cycles are charged to the innermost open
//!   span, so exclusive totals are exact and, with the unattributed
//!   remainder, sum to the run total (conservation);
//! * [`MetricsRegistry`] / [`HistogramSketch`] — named counters and
//!   power-of-two histograms, lock-free in steady state, with a
//!   deterministic cross-thread merge;
//! * [`EventTracer`] — causal event tracing: timestamped slices on
//!   per-core tracks plus [`FlowKind`] chains stitching causally-linked
//!   work across machines, with Chrome trace-event export and a
//!   derivation pass folding end-to-end latencies into the registry;
//! * [`ProfileSnapshot`] and [`SpanTracer::folded`] — exporters: JSON
//!   (via the in-tree serde shim) and folded-stack flamegraph text;
//! * [`log`] — a leveled JSON-lines logger (off by default, `HVX_LOG`
//!   controlled) for the serving and runner paths;
//! * [`PromText`] — a Prometheus text-exposition renderer over
//!   registry counters, gauges, and histogram sketches.
//!
//! The crate is deliberately substrate-free: it counts raw `u64`
//! cycles and knows nothing about machines, cores, or hypervisors, so
//! every layer of the workspace (engine, models, suite) can depend on
//! it without cycles in the crate graph.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
pub mod log;
mod metrics;
mod prom;
mod span;
mod tracing;

pub use export::{
    render_histogram_summary, render_span_deltas, span_deltas, transition_names, CounterSnapshot,
    HistogramSnapshot, ProfileSnapshot, SpanDelta, SpanSnapshotRow,
};
pub use log::{LogLevel, LogValue};
pub use metrics::{HistogramSketch, MetricsRegistry};
pub use prom::{parse_exposition, sanitize_metric_name, PromSample, PromText};
pub use span::{SpanRow, SpanTracer, TransitionId};
pub use tracing::{
    EventTracer, FlowChain, FlowId, FlowKind, FlowPhase, FlowPoint, SliceEvent, TraceKind,
};
