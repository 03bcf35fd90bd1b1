//! In-memory span tracer for the traced run.
//!
//! A span is a named interval with an optional parent and the id of
//! the operation it belongs to. Spans are recorded around the
//! benchmark's calls into each layer, kept in memory, and written out
//! once the run ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use ovlp_serve::json::{Obj, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of a recorded span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: SpanId,
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name aggregate: how many spans, their total duration, and
/// their self time (duration not covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list is only pushed to and never left half-updated")
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    pub fn exit(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now();
            self.lock()[i].end = end;
        }
    }

    /// Run `f` inside a span; `f` receives the span id to parent its
    /// own spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.enter(name, parent, op);
        let out = f(id);
        self.exit(id);
        out
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.lock();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - covered(kids, s.start, s.end);
        }
        out
    }

    /// Every span as one JSON document (`ovlp.perfbench-spans.v1`).
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let list = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut o = Obj::new();
                o.set("id", Value::Num(i as f64));
                o.set("name", Value::str(s.name));
                o.set("start_s", Value::Num(s.start));
                o.set("end_s", Value::Num(s.end));
                o.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                );
                o.set("op", Value::Num(s.op as f64));
                Value::Obj(o)
            })
            .collect();
        let mut doc = Obj::new();
        doc.set("schema", Value::str("ovlp.perfbench-spans.v1"));
        doc.set("spans", Value::Arr(list));
        Value::Obj(doc).to_string()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut sum, mut reach) = (0.0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            sum += e - s;
            reach = e;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(1.0, 3.0), (2.0, 4.0), (6.0, 12.0)];
        assert_eq!(covered(&mut kids, 0.0, 10.0), 3.0 + 4.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn nested_spans_keep_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", None, 1, |outer| {
            t.span("inner", outer, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_s > 0.0);
        assert!(outer.self_s < outer.total_s);
        assert!((outer.self_s + inner.total_s - outer.total_s).abs() < 1e-9);
    }
}
