//! In-memory spans around the calls into each layer, written out when the
//! run ends.
//!
//! The runner measures from outside: a span is opened before a call into a
//! public function and closed after it. Operator spans are *derived* — laid
//! end to end inside their `engine.execute` parent from the nanoseconds the
//! engine's own `OpStat`s report — and are marked so in the file.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open or closed span; [`NO_SPAN`] when tracing is off.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

/// Spans written to the trace file; the rest are counted, not written.
const MAX_SPANS_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Query or batch identifier shared by the spans of one operation.
    pub op: u64,
    /// Thread the span was recorded on.
    pub lane: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Reconstructed from a duration the program reported, not clocked here.
    pub derived: bool,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    lane: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`; when off every call is a no-op that
    /// reads no clock.
    pub fn new(on: bool, origin: Instant, lane: &'static str) -> Self {
        Tracer {
            on,
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock origin.
    pub fn fork(&self, lane: &'static str) -> Tracer {
        Tracer::new(self.on, self.origin, lane)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: (parent != NO_SPAN).then_some(parent),
            op,
            lane: self.lane,
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span and returns its duration in nanoseconds (0 when off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if id == NO_SPAN {
            return 0;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Lays derived child spans end to end from the start of `parent`.
    pub fn derive_children(&mut self, parent: SpanId, children: &[(&'static str, u64)]) {
        if parent == NO_SPAN {
            return;
        }
        let (mut at, op) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.op)
        };
        for &(name, nanos) in children {
            self.spans.push(Span {
                name,
                parent: Some(parent),
                op,
                lane: self.lane,
                start_ns: at,
                end_ns: at + nanos,
                derived: true,
            });
            at += nanos;
        }
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"spans\": [",
            self.spans.len()
        );
        for (id, (s, self_ns)) in self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .take(MAX_SPANS_WRITTEN)
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"lane\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"derived\": {}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.op,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                *self_ns as f64 / 1e3,
                s.derived
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children count once, and a
/// child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            op: 0,
            lane: "main",
            start_ns,
            end_ns,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_to_parent() {
        // Children 10..50 and 30..70 overlap on 30..50; a third runs past
        // the parent's end and a fourth lies wholly outside it.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 90, 130),
            span(Some(0), 200, 300),
        ];
        // Covered: 10..70 (60) + 90..100 (10).
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_off_records_nothing_and_reads_no_ids() {
        let mut t = Tracer::new(false, Instant::now(), "main");
        let id = t.begin("x", NO_SPAN, 1);
        assert_eq!(id, NO_SPAN);
        assert_eq!(t.end(id), 0);
        t.derive_children(id, &[("y", 5)]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn derived_children_tile_the_parent_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin, "main");
        let root = main.begin("root", NO_SPAN, 7);
        main.end(root);
        let mut writer = main.fork("writer");
        let exec = writer.begin("exec", NO_SPAN, 9);
        writer.end(exec);
        writer.derive_children(exec, &[("a", 5), ("b", 7)]);
        let start = writer.spans()[0].start_ns;
        assert_eq!(writer.spans()[1].end_ns, start + 5);
        assert_eq!(writer.spans()[2].start_ns, start + 5);
        assert!(writer.spans()[2].derived);
        main.absorb(writer);
        assert_eq!(main.spans().len(), 4);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].lane, "writer");
        let json = main.to_json("hunt", 1);
        assert!(json.contains("\"spans_recorded\": 4"));
        assert!(json.contains("\"derived\": true"));
    }
}
