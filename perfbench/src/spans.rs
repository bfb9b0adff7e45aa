//! Bench-side spans: kept in memory during a traced run, written out at
//! the end, and reduced to per-layer self times.
//!
//! A span is `(name, start, end, parent)`; spans that belong to one
//! request (one submit across channel wait, core submit and reply) share
//! a request id. A span's self time is its duration minus the part of its
//! interval covered by its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary this span times, e.g. `"scheduler.on_event"`.
    pub name: &'static str,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request this span belongs to, if any.
    pub req: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// The open span that calls made from inside a layer nest under (the
    /// current `Simulation::step` or backend `step`).
    pub current: Option<usize>,
}

/// A tracer shared between the benchmark loop and the wrappers it hands
/// to the program.
pub type SharedTracer = Arc<Mutex<Tracer>>;

/// Locks a shared tracer, tolerating poisoning (a panicking wrapper must
/// not hide the spans recorded so far).
pub fn lock(tracer: &SharedTracer) -> MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Tracer {
    /// A tracer whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    /// A fresh shared tracer.
    #[must_use]
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer::new()))
    }

    /// Nanoseconds from the origin to `at`.
    #[must_use]
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, start_ns, end_ns, parent, req)
    }

    /// Records a finished span given in nanoseconds since the origin;
    /// returns its index.
    pub fn record_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Opens a span that ends later through [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        self.record(name, start, start, parent, None)
    }

    /// Sets the end of an opened span.
    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as one JSON object per line:
    /// `{"id","name","start_ns","end_ns","parent","req"}`.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its children's intervals, each clipped to the parent's interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (lo, hi) in kids {
                match run {
                    Some((a, b)) if lo <= b => run = Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        run = Some((lo, hi));
                    }
                    None => run = Some((lo, hi)),
                }
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in seconds.
#[must_use]
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn nested_self_times() {
        // step [0,100) ⊃ on_event [10,60) ⊃ derive [20,50); step ⊃ diff [70,80).
        let spans = vec![
            span("step", 0, 100, None),
            span("on_event", 10, 60, Some(0)),
            span("derive", 20, 50, Some(1)),
            span("diff", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_name = self_seconds_by_name(&spans);
        let total: f64 = by_name.values().sum();
        // Self times of a tree add up to the root's duration.
        assert!((total - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Two children overlap on [30,40); one overhangs the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 20, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [20,50) + [90,100) = 40.
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn sibling_roots_sum_separately() {
        let spans = vec![
            span("step", 0, 10, None),
            span("step", 20, 35, None),
            span("on_event", 22, 30, Some(1)),
        ];
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["step"] - 17e-9).abs() < 1e-15);
        assert!((by_name["on_event"] - 8e-9).abs() < 1e-15);
    }
}
