//! Spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. Spans are kept in memory as flat
//! `(layer, start, end)` records; nesting is recovered afterwards from
//! time containment, so a span derived after the fact (a wave reported by
//! its engine callback) nests like one recorded around a call. A layer's
//! self time is its spans' durations minus the parts their child spans
//! cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer the span belongs to (`journal.append`, `serve.report`, …).
    pub layer: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
}

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span from two instants.
    pub fn record(&mut self, layer: &'static str, start: Instant, end: Instant) {
        let span = Span {
            layer,
            start: self.offset(start),
            end: self.offset(end),
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span of `layer` and returns its value.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(layer, start, Instant::now());
        value
    }

    /// Runs `f` inside a span of `layer`, discards its value, and returns
    /// the span's duration in ns.
    pub fn measure<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> f64 {
        let start = Instant::now();
        std::hint::black_box(f());
        let end = Instant::now();
        self.record(layer, start, end);
        (end - start).as_nanos() as f64
    }

    /// Moves another tracer's spans into this one (same origin assumed).
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Total ns spent in spans of `layer` (children included).
    pub fn total_ns(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end - s.start) as f64)
            .sum()
    }

    /// Self time per layer, in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }
}

/// Self time per layer: each span's duration minus the overlap of its
/// direct children, where a span's parent is the innermost earlier span
/// still open when it starts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start
            .cmp(&spans[b].start)
            .then(spans[b].end.cmp(&spans[a].end))
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let span = spans[i];
        while open.last().is_some_and(|&p| spans[p].end <= span.start) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            let covered = span.end.min(spans[parent].end) - span.start;
            own[parent] = own[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    let mut by_layer = BTreeMap::new();
    for (span, ns) in spans.iter().zip(own) {
        *by_layer.entry(span.layer).or_insert(0) += ns;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64) -> Span {
        Span { layer, start, end }
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let spans = [
            span("root", 0, 100),
            span("a", 10, 40),
            span("b", 15, 25),
            span("a", 50, 60),
        ];
        let own = self_times(&spans);
        assert_eq!(own["root"], 60);
        assert_eq!(own["a"], 30);
        assert_eq!(own["b"], 10);
        assert_eq!(own.values().sum::<u64>(), 100);
    }

    #[test]
    fn a_span_recorded_after_its_children_still_parents_them() {
        // A wave span derived at the end of the wave, after the callback
        // spans inside it were recorded.
        let spans = [span("cb", 30, 35), span("cb", 40, 42), span("wave", 20, 50)];
        let own = self_times(&spans);
        assert_eq!(own["wave"], 23);
        assert_eq!(own["cb"], 7);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clamped() {
        let own = self_times(&[span("p", 0, 10), span("c", 5, 20)]);
        assert_eq!(own["p"], 5);
        assert_eq!(own["c"], 15);
    }
}
