//! In-memory spans recorded by the benchmark around each call it makes into
//! a crate of the engine.
//!
//! A span has a layer (the crate called), a name, start and end offsets from
//! the tracer's epoch, the span that caused it and the operation it belongs
//! to. A disabled tracer records nothing and only runs the closure, so the
//! untraced runs pay for one branch per call.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Crate whose public API the span surrounds (`core`, `lineage`, ...).
    pub layer: &'static str,
    /// The call surrounded.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time of the span in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off (open spans still close normally).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new benchmark operation: later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` inside a span `layer`/`name`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times in ms of every span named `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time_ns(&self.spans, i) as f64 / 1e6)
            .collect()
    }
}

/// A span's duration minus the part of its interval its direct children
/// cover. Overlapping children count once; children reaching outside the
/// parent are clipped to it.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer: "t",
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        // Grandchildren count against their own parent only.
        assert_eq!(self_time_ns(&spans, 2), 40 - 5);
        assert_eq!(self_time_ns(&spans, 3), 5);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 150, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100).
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn recorded_spans_nest_and_account_for_the_parent() {
        let mut t = Tracer::new(true);
        t.next_op();
        t.span("bench", "outer", |t| {
            t.span("lineage", "a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("storage", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1));
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            self_time_ns(spans, 0) + children,
            spans[0].end_ns - spans[0].start_ns
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core", "x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
