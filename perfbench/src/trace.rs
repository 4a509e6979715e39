//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end, a parent and the id of the
//! search or session it belongs to; spans stay in memory and are written
//! out once, when the run ends. A layer's self time is its span's duration
//! minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the span covered (candidates of an evaluation call).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder; every thread that records owns one.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the search or session id later spans belong to.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        self.open_at(name, start)
    }

    /// Opens a span that started at `start_ns` (an earlier timestamp).
    pub fn open_at(&mut self, name: &'static str, start_ns: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes `index` and any span still open inside it (a child left
    /// open by an aborted call ends with its parent).
    pub fn close(&mut self, index: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == index {
                break;
            }
        }
    }

    /// Records the work-item count of an open or closed span.
    pub fn set_count(&mut self, index: usize, count: u64) {
        self.spans[index].count = count;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub calls: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

/// Aggregates spans by name: call count, summed duration and self time.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let stats = out.entry(span.name).or_default();
        stats.calls += 1;
        stats.count += span.count;
        stats.total_ns += span.duration_ns();
        stats.self_ns += span.duration_ns().saturating_sub(children);
        stats.durations_ns.push(span.duration_ns());
    }
    out
}

/// Writes the spans as JSON lines (one object per span).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.trace, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_close_ends_open_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root");
        let child = t.open("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        let dangling = t.open("dangling");
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[dangling].end_ns, spans[root].end_ns);
        assert_eq!(spans[child].parent, Some(root));
        let stats = by_name(spans);
        let root_stats = &stats["root"];
        assert_eq!(
            root_stats.self_ns,
            spans[root].duration_ns() - spans[child].duration_ns() - spans[dangling].duration_ns()
        );
    }
}
