//! In-memory spans recorded by the benchmark around each call into a
//! layer. Nothing inside the program under test is instrumented: a span
//! opens and closes in benchmark code, at a layer's public boundary.
//!
//! A span is `(id, parent, name, start_ns, end_ns, workload, op)`; the
//! workload is the tracer's, `op` ties the spans of one operation
//! together. Self time is the span's duration minus the part of it its
//! children cover (children of one parent may overlap — two clients run
//! side by side — so the cover is a union of intervals, not a sum).
//! Spans stay in memory until [`Tracer::write_json`] at exit.

use std::collections::BTreeMap;
use std::time::Instant;

use flexwan_util::json::{Num, Value};

/// Handle of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded span. Times are ns since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// `<layer>.<call>`; the layer prefix is a module name.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
    /// The operation this span belongs to.
    pub op: u64,
    /// `true` when the interval was not clocked by the benchmark but
    /// taken from a duration the layer itself reports (for example
    /// `SolverStats::time_total` inside a solve); such a span is laid
    /// at the end of its parent.
    pub derived: bool,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count and times of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
}

/// The span recorder of one run. Disabled, every call is a no-op that
/// returns a dummy handle, so workloads run the same code traced and
/// untraced.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: String,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `workload`; records only when `enabled`.
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            workload: workload.to_string(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (the traced run times its first
    /// cycle once untraced to measure the tracing overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// `at` as ns since the epoch (client threads clock their own calls
    /// with `Instant`s; this converts them).
    pub fn ns_since(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Now, ns since the epoch.
    pub fn now(&self) -> u64 {
        self.ns_since(Instant::now())
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now();
        self.record(name, parent, op, now, now)
    }

    /// Closes `id` now.
    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now();
            self.spans[id.0 as usize].end_ns = now;
        }
    }

    /// Records a span with explicit times (a client thread clocked it).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(name, parent, op, start_ns, end_ns, false)
    }

    /// Records a derived child of `parent` lasting `duration_ns`, laid
    /// at the end of the parent (call after closing the parent).
    pub fn record_derived(&mut self, name: &'static str, parent: SpanId, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent.0 as usize];
        let (op, end) = (p.op, p.end_ns);
        let start = end.saturating_sub(duration_ns).max(p.start_ns);
        self.push(name, Some(parent), op, start, end, true);
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: parent.map(|p| p.0),
            name,
            start_ns,
            end_ns,
            op,
            derived,
        });
        SpanId(id)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if b > a {
                    children[p as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// The trace as JSON: the span list plus the per-name totals.
    pub fn to_json(&self) -> Value {
        let u = |v: u64| Value::Number(Num::U(v));
        let selfs = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                Value::obj([
                    ("id", u(u64::from(s.id))),
                    ("parent", s.parent.map_or(Value::Null, |p| u(u64::from(p)))),
                    ("name", Value::String(s.name.to_string())),
                    ("start_ns", u(s.start_ns)),
                    ("end_ns", u(s.end_ns)),
                    ("self_ns", u(self_ns)),
                    ("workload", Value::String(self.workload.clone())),
                    ("op", u(s.op)),
                    ("derived", Value::Bool(s.derived)),
                ])
            })
            .collect();
        let totals = self
            .totals_by_name()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::obj([
                        ("count", u(t.count)),
                        ("total_ns", u(t.total_ns)),
                        ("self_ns", u(t.self_ns)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Value::obj([
            ("workload", Value::String(self.workload.clone())),
            ("totals_by_name", Value::obj(totals)),
            ("spans", Value::Array(spans)),
        ])
    }

    /// Writes the trace to `path` (compact JSON, one line).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        self.to_json().write_compact(&mut text);
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new("w", true);
        let op = t.record("op", None, 7, 0, 1000);
        // Two overlapping children (clients side by side) cover 100..600.
        t.record("a.x", Some(op), 7, 100, 400);
        let b = t.record("b.y", Some(op), 7, 300, 600);
        // A grandchild only reduces its own parent's self time.
        t.record("c.z", Some(b), 7, 350, 450);
        // A child leaking past the parent is clipped to it.
        t.record("a.x", Some(op), 7, 900, 1200);
        let selfs = t.self_times();
        assert_eq!(selfs[0], 1000 - 500 - 100);
        assert_eq!(selfs[1], 300);
        assert_eq!(selfs[2], 300 - 100);
        assert_eq!(selfs[3], 100);
        let by = t.totals_by_name();
        assert_eq!(by["a.x"].count, 2);
        assert_eq!(by["a.x"].total_ns, 300 + 300);
        assert_eq!(by["op"].self_ns, 400);
    }

    #[test]
    fn derived_span_sits_at_the_end_of_its_parent() {
        let mut t = Tracer::new("w", true);
        let p = t.record("core.mip.solve", None, 1, 1000, 5000);
        t.record_derived("solver.total", p, 3000);
        t.record_derived("solver.total", p, 9000); // longer than the parent: clipped
        let s = &t.spans()[1];
        assert_eq!((s.start_ns, s.end_ns, s.derived), (2000, 5000, true));
        assert_eq!(t.spans()[2].start_ns, 1000);
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        let id = t.open("x", None, 0);
        t.close(id);
        t.record_derived("y", id, 5);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let id = t.open("x", None, 0);
        t.close(id);
        assert_eq!(t.spans().len(), 1);
        let text = {
            let mut s = String::new();
            t.to_json().write_compact(&mut s);
            s
        };
        assert!(text.contains("\"name\":\"x\""), "{text}");
    }
}
