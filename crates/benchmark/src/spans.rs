//! The traced pass's in-memory span log.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer — the program under test carries no benchmark probes. A span is
//! `{op, name, parent, start_ns, end_ns, alloc_bytes}`; `op` identifies
//! one replay, so every span of a replay shares it. The log is written
//! out as JSON lines once the pass ends, never while it is timing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation (one replay) the span belongs to.
    pub op: u32,
    /// Stage name, `module.stage`.
    pub name: &'static str,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
    /// Bytes allocated inside the span, children included (0 unless the
    /// counting allocator's gate was open).
    pub alloc_bytes: u64,
}

/// A stage's own share of one operation: span durations and allocations
/// minus the parts its child spans account for.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfCost {
    /// Self time in seconds.
    pub seconds: f64,
    /// Self-allocated bytes.
    pub bytes: u64,
}

/// An append-only span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation; spans opened from now on carry its id.
    pub fn begin_op(&mut self) -> u32 {
        assert!(
            self.open.is_empty(),
            "an operation starts with no open span"
        );
        self.op += 1;
        self.op
    }

    /// The current operation.
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            // Holds the allocation counter at open until the span closes.
            alloc_bytes: alloc::allocated(),
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.alloc_bytes = alloc::allocated().saturating_sub(span.alloc_bytes);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn op_range(&self, op: u32) -> std::ops::Range<usize> {
        self.spans.partition_point(|s| s.op < op)..self.spans.partition_point(|s| s.op <= op)
    }

    /// Self cost per span name within operation `op`, summed over the
    /// spans sharing a name.
    pub fn self_costs(&self, op: u32) -> BTreeMap<&'static str, SelfCost> {
        let range = self.op_range(op);
        let first = range.start;
        let spans = &self.spans[range];
        let mut children = vec![(0u64, 0u64); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p - first].0 += s.end_ns - s.start_ns;
                children[p - first].1 += s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, SelfCost> = BTreeMap::new();
        for (s, (child_ns, child_bytes)) in spans.iter().zip(children) {
            let cost = out.entry(s.name).or_default();
            cost.seconds += (s.end_ns - s.start_ns).saturating_sub(child_ns) as f64 * 1e-9;
            cost.bytes += s.alloc_bytes.saturating_sub(child_bytes);
        }
        out
    }

    /// Durations in seconds of every span named `name` in operation `op`,
    /// in the order they opened.
    pub fn durations(&self, op: u32, name: &str) -> Vec<f64> {
        self.spans[self.op_range(op)]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes the log as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"alloc_bytes\":{}}}",
                s.op, s.name, parent, s.start_ns, s.end_ns, s.alloc_bytes
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_stay_apart() {
        let mut log = SpanLog::new();
        let op = log.begin_op();
        let root = log.open("root");
        log.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        log.close(root);
        let other = log.begin_op();
        log.time("child", || ());

        let own = log.self_costs(op);
        assert!(own["child"].seconds >= 0.005);
        assert!(own["root"].seconds < own["child"].seconds);
        assert!(log.self_costs(other)["child"].seconds < 0.005);
        assert_eq!(log.durations(op, "child").len(), 1);
        assert_eq!(log.spans()[1].parent, Some(root));
        assert_eq!(log.spans()[2].parent, None);
    }
}
