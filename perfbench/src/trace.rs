//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name (the layer call), a start and an end on one
//! monotonic clock, the span that caused it, and a key: the cell id or
//! request id it belongs to. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer records nothing and never
//! reads the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `SpanId::ROOT` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    key: u64,
    start: Option<Instant>,
}

impl Open {
    pub fn id(&self) -> SpanId {
        SpanId(self.id)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&self, name: &'static str, key: u64, parent: SpanId) -> Open {
        if !self.on {
            return Open {
                id: 0,
                parent: 0,
                name,
                key,
                start: None,
            };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: parent.0,
            name,
            key,
            start: Some(Instant::now()),
        }
    }

    pub fn end(&self, open: Open) {
        self.end_at(open, Instant::now());
    }

    fn end_at(&self, open: Open, end: Instant) {
        let Some(start) = open.start else { return };
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            key: open.key,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans
            .lock()
            .expect("a span recorder never panics while holding the lock")
            .push(span);
    }

    /// Reserves a span id now, for a span recorded later with
    /// [`Tracer::record`] (its children can name it as parent first).
    pub fn reserve(&self) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        SpanId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Records a finished span with explicit bounds: an open-loop
    /// request's span starts when the request was due, not when the
    /// code that records it ran.
    pub fn record(
        &self,
        id: SpanId,
        name: &'static str,
        key: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let id = if id == SpanId::ROOT {
            self.reserve()
        } else {
            id
        };
        let open = Open {
            id: id.0,
            parent: parent.0,
            name,
            key,
            start: Some(start),
        };
        self.end_at(open, end);
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        key: u64,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let open = self.begin(name, key, parent);
        let out = f(open.id());
        self.end(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().map(|s| s.len()).unwrap_or(0)
    }

    /// Per span name: (count, total ms, self ms). Self time is a span's
    /// duration minus the part of it that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span lock");
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line, then the self-time
    /// table beside it (`<stem>.jsonl`, `<stem>.selftime.txt`).
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(dir.join(format!("{stem}.jsonl")))?);
        for s in self.spans.lock().expect("span lock").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        std::fs::write(
            dir.join(format!("{stem}.selftime.txt")),
            render_self_times(&self.self_times()),
        )
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

pub fn render_self_times(t: &BTreeMap<&'static str, (u64, f64, f64)>) -> String {
    let mut rows: Vec<_> = t.iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    let mut s = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in rows {
        s.push_str(&format!("{name:<28} {n:>8} {total:>12.3} {own:>12.3}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 8), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("outer", 0, SpanId::ROOT, |p| {
            t.span("inner", 1, p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let st = t.self_times();
        let (n, total, own) = st["outer"];
        assert_eq!(n, 1);
        assert!(own < total && st["inner"].1 >= 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", 0, SpanId::ROOT, |_| ());
        assert_eq!(t.len(), 0);
    }
}
