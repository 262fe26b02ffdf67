//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] keeps every span in memory; `run.py` receives them only
//! when the pass ends, so writing them out never sits inside a timed
//! operation. A disabled tracer records nothing and costs one branch.

use std::time::Instant;

/// One closed span. `parent` indexes an earlier span of the same
/// operation (`None` for the operation's root span).
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub idx: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span recorder for one thread. Spans of one operation share its id
/// and are numbered from 0 in the order they open.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans of the current operation: indices into `spans`.
    stack: Vec<usize>,
    /// Index in `spans` where the current operation's spans begin.
    op_base: usize,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op_base: 0,
            op: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// Whether this tracer records spans (the traced pass).
    pub fn on(&self) -> bool {
        self.on
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Open span `name` at instant `t`, as a child of the innermost
    /// open span.
    pub fn open_at(&mut self, name: &'static str, t: Instant) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().map(|&i| i - self.op_base);
        let idx = self.spans.len();
        let start_us = self.us(t);
        self.spans.push(Span {
            op: self.op,
            idx: idx - self.op_base,
            parent,
            name,
            start_us,
            end_us: start_us,
        });
        self.stack.push(idx);
    }

    /// Close the innermost open span at instant `t`.
    pub fn close_at(&mut self, t: Instant) {
        if !self.on {
            return;
        }
        let end = self.us(t);
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_us = end;
        }
    }

    /// Start operation `op` with a root span `name` opened at `t`.
    pub fn begin_op(&mut self, op: u64, name: &'static str, t: Instant) {
        if !self.on {
            return;
        }
        self.stack.clear();
        self.op = op;
        self.op_base = self.spans.len();
        self.open_at(name, t);
    }

    /// Run `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        self.open_at(name, Instant::now());
        let r = f();
        self.close_at(Instant::now());
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_within_the_op() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        for op in 0..2 {
            tr.begin_op(op, "op", Instant::now());
            tr.span("a", || {});
            tr.close_at(Instant::now());
        }
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[2].op, spans[2].idx, spans[2].parent), (1, 0, None));
        assert_eq!(
            (spans[3].op, spans[3].idx, spans[3].parent),
            (1, 1, Some(0))
        );
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.begin_op(0, "op", Instant::now());
        assert_eq!(tr.span("a", || 7), 7);
        tr.close_at(Instant::now());
        assert!(tr.into_spans().is_empty());
    }
}
