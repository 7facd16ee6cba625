//! In-memory span recorder for the traced pass.
//!
//! Spans are opened only from the benchmark's own code, around each call
//! into a layer of the program, and kept in memory until the pass ends.
//! A disabled [`Tracer`] runs the wrapped call and records nothing, so
//! the timed pass and the traced pass execute the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span; ids start at 1.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The op the span belongs to (one root span per op).
    pub run: u32,
    /// Span id, unique within the pass.
    pub id: u32,
    /// Enclosing span id, or 0 for an op's root span.
    pub parent: u32,
    /// Layer name (`module.function`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a pass-through when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A tracer that records every span.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; see [`Tracer::begin`].
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Opens a span named `name`, child of the innermost open span. A
    /// span with no open parent starts a new run (op). Returns the token
    /// [`Tracer::end`] closes it with (`None` when disabled).
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        if parent == 0 {
            self.run += 1;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            run: self.run,
            id: u32::try_from(idx + 1).unwrap_or(u32::MAX),
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes the span `begin` opened (a no-op for `None`).
    pub fn end(&mut self, open: Option<usize>) {
        if let Some(idx) = open {
            self.open.pop();
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Exclusive (self) time per span name: each span's duration minus
    /// the part its direct children cover, summed by name, with the
    /// number of spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.self_ns += s.dur_ns().saturating_sub(children);
            e.total_ns += s.dur_ns();
        }
        out
    }

    /// Durations of the root (op) spans, in milliseconds.
    pub fn root_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The span file: one CSV row per span.
    pub fn spans_csv(&self) -> String {
        let mut out = String::from("run,id,parent,name,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.run, s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Aggregated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Exclusive time (children subtracted).
    pub self_ns: u64,
    /// Inclusive time.
    pub total_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("op", || 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_runs_count_roots() {
        let mut tr = Tracer::on();
        for _ in 0..2 {
            tr.span("op", || {
                std::hint::black_box(1);
            });
        }
        let mut tr2 = Tracer::on();
        // Hand-built timings make the arithmetic exact.
        tr2.spans = vec![
            Span {
                run: 1,
                id: 1,
                parent: 0,
                name: "op",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                run: 1,
                id: 2,
                parent: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                run: 1,
                id: 3,
                parent: 1,
                name: "b",
                start_ns: 40,
                end_ns: 90,
            },
            Span {
                run: 1,
                id: 4,
                parent: 3,
                name: "a",
                start_ns: 50,
                end_ns: 60,
            },
        ];
        let t = tr2.self_times();
        assert_eq!(t["op"].self_ns, 20);
        assert_eq!(t["a"].self_ns, 40);
        assert_eq!(t["a"].calls, 2);
        assert_eq!(t["b"].self_ns, 40);
        assert_eq!(tr.spans().iter().map(|s| s.run).collect::<Vec<_>>(), [1, 2]);
        assert!(tr2
            .spans_csv()
            .starts_with("run,id,parent,name,start_ns,end_ns\n1,1,0,op,0,100\n"));
    }
}
