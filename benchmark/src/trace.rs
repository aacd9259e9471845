//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the engine (this file's callers wrap
//! public functions), kept in memory, and written out when the round
//! ends. A layer's self time is its span minus its child spans.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The operation this span belongs to: spans of one op share it.
    pub op: u32,
}

/// Totals of one span name over a trace.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl LayerTime {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ms / self.calls as f64
        }
    }
}

/// Span recorder. A disabled tracer runs the closures and records nothing,
/// so one code path serves traced and untraced rounds.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn set_op(&mut self, op: usize) {
        self.op = op as u32;
    }

    /// Runs `f` inside a span named `name`, child of the enclosing span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Per-name totals; self time excludes the part child spans cover.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_ms += dur as f64 / 1e6;
            e.self_ms += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// The trace file: one record per span, in start order.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::text(s.name)),
                    ("op", Value::Num(f64::from(s.op))),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                    ),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        obj([
            ("workload", Value::text(workload)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.span("op", |tr| {
            tr.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tr.span("child", |_| ());
        });
        let layers = tr.layers();
        assert_eq!(layers["child"].calls, 2);
        let op = layers["op"];
        assert!(op.total_ms >= 5.0);
        assert!((op.total_ms - op.self_ms - layers["child"].total_ms).abs() < 1e-6);
        assert_eq!(tr.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("op", |_| 7), 7);
        assert!(tr.layers().is_empty());
    }
}
