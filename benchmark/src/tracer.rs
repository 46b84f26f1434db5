//! In-memory spans recorded from the benchmark's own code around the
//! calls into each layer. Spans stay in a `Vec` for the whole traced run
//! and are written as JSONL when it ends; nothing is written while timing.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover (children may overlap each other and may
//! stick out of the parent; only covered parent time is subtracted, once).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span id; 0 means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by all spans of one submitted query / one STATUS request.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds of `at` since the tracer was created.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Reserves a parent span whose end is not known yet; close it with
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, start: Instant, request: u64) -> SpanId {
        self.add(name, start, start, 0, request)
    }

    pub fn end(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, index-aligned with insertion order.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// `(count, total self ns)` per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        out
    }

    /// One JSON object per span, ids 1-based in file order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"self_ns\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request,
                self_ns
            )?;
        }
        w.flush()
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            // Sweep the union of child intervals, clipped to the parent.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100; child 10..60 with its own grandchild 20..30;
        // a second child 70..90.
        let spans = [
            span(0, 100, 0),
            span(10, 60, 1),
            span(20, 30, 2),
            span(70, 90, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // Children 10..50 and 30..70 overlap (union 10..70 = 60); a third
        // starts inside and ends after the parent (90..130 → 90..100).
        let spans = [
            span(0, 100, 0),
            span(10, 50, 1),
            span(30, 70, 1),
            span(90, 130, 1),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
        // A child covering everything leaves zero, never underflows.
        let spans = [span(10, 20, 0), span(0, 40, 1)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn begin_end_and_grouping_by_name() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.begin("query", t0, 9);
        t.add(
            "child",
            t0,
            t0 + std::time::Duration::from_nanos(40),
            root,
            9,
        );
        t.end(root, t0 + std::time::Duration::from_nanos(100));
        let by = t.self_by_name();
        assert_eq!(by["query"], (1, 60));
        assert_eq!(by["child"], (1, 40));
        assert_eq!(t.len(), 2);
    }
}
