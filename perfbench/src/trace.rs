//! In-memory spans for the traced replay.
//!
//! A span is a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it and the request it belongs to. Spans
//! are kept in a `Vec` and written out once, when the benchmark ends.
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in nanoseconds
    /// (measured whether or not recording is on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_nanos() as u64);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Total self time per span name, in nanoseconds: each span's duration
/// minus the union of its direct children's intervals (clipped to the
/// parent, so overlapping or overhanging children are not double-counted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("handler", 0, 100, None),
            span("store", 10, 40, Some(0)),
            span("journal", 20, 30, Some(1)),
            span("step", 50, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["handler"], 100 - 30 - 40);
        assert_eq!(t["store"], 30 - 10);
        assert_eq!(t["journal"], 10);
        assert_eq!(t["step"], 40);
        // Self times partition the root's duration.
        assert_eq!(t.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 120, Some(0)),
        ];
        // Children cover [10, 100] of the root: 90 ns.
        assert_eq!(self_times(&spans)["root"], 10);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![span("step", 0, 5, None), span("step", 10, 17, None)];
        assert_eq!(self_times(&spans)["step"], 12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        let ((), _) = on.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
        });
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[1].request, 7);
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let (v, _) = off.span("outer", 1, |t| t.span("inner", 1, |_| 3).0);
        assert_eq!(v, 3);
        assert!(off.spans().is_empty());
    }
}
