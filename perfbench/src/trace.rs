//! In-memory spans recorded around calls into the program: name, start,
//! end, parent span, and the request the span belongs to. A span's self
//! time is its duration minus the durations of its direct children; a child
//! may be a replay that ran after its parent, so children are found by
//! parent id, not by interval overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store; span times are offsets from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            request,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, parent, request, start, end))
    }

    /// Duration of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time of every span named `name`, in milliseconds (may be
    /// negative when replayed children ran slower than the live parent).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut children_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let own = (s.end_ns - s.start_ns) as f64;
                let kids = children_ns.get(&i).copied().unwrap_or(0) as f64;
                (own - kids) / 1e6
            })
            .collect()
    }

    /// Distinct span names, in first-recorded order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.name) {
                out.push(s.name);
            }
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `id parent request name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("root", None, 7, at(0), at(10));
        let child = t.record("child", Some(root), 7, at(1), at(5));
        // A grandchild counts against the child, not the root.
        t.record("grandchild", Some(child), 7, at(2), at(3));
        // A replayed child after the root's interval still counts.
        t.record("replay", Some(root), 7, at(20), at(22));
        assert_eq!(t.self_ms("root"), vec![4.0]);
        assert_eq!(t.self_ms("child"), vec![3.0]);
        assert_eq!(t.durations_ms("replay"), vec![2.0]);
        assert_eq!(t.names(), vec!["root", "child", "grandchild", "replay"]);
    }

    #[test]
    fn spans_round_trip_to_tsv() {
        let mut t = Tracer::new();
        let (v, id) = t.time("work", None, 3, || 41 + 1);
        assert_eq!((v, id), (42, 0));
        let dir = crate::inputs::out_dir().join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.tsv");
        t.write_tsv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("0\t-\t3\twork\t"));
    }
}
