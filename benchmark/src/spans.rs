//! In-memory spans the traced run records around the benchmark's own
//! calls into each crate, written out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! trace id of the request it belongs to. Its *self time* is its
//! duration minus the part of its interval that its children cover;
//! children that overlap each other (two client threads under one
//! stream span) are counted once.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub trace_id: u64,
}

/// Records spans when on; every method is a no-op when off, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// `mc_obs::epoch_us()` at `origin`, to line spans up with the
    /// daemon's own trace events.
    origin_epoch_us: u64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            origin_epoch_us: mc_obs::epoch_us(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: SpanId, trace_id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, trace_id);
        let out = f();
        self.close(id);
        out
    }

    /// Self times of spans named `name`, in seconds.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let selves = self_times_ns(&spans);
        spans
            .iter()
            .zip(selves)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect()
    }

    /// Writes every span, then the program's own trace events, as one
    /// JSON object per line.
    pub fn write(&self, path: &Path, events: &[mc_obs::TraceEvent]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span list poisoned");
        let selves = self_times_ns(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(selves).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{},\"parent\":{parent},\"trace_id\":{}}}",
                s.name,
                self.origin_epoch_us as f64 + s.start_ns as f64 / 1e3,
                self.origin_epoch_us as f64 + s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3,
                s.trace_id
            )?;
        }
        for e in events {
            writeln!(
                out,
                "{{\"program_event\":\"{}\",\"start_us\":{},\"dur_us\":{},\"trace_id\":{}}}",
                e.span.replace('"', "'"),
                e.start_us,
                e.dur_us,
                e.trace_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
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
            trace_id: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times_ns(&[span(5, 12, None)]), vec![7]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40,
        // so they cover 50, not 60. A third child 70..80 adds 10.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(70, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30, 10]);
    }

    #[test]
    fn nested_and_contained_children() {
        // Child 20..50 contains 25..30; only direct children count, so
        // the grandchild is charged to the child, not the root.
        let spans = [
            span(0, 100, None),
            span(20, 50, Some(0)),
            span(25, 30, Some(1)),
            span(40, 45, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 25, 5, 5]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent covers only the shared part.
        let spans = [span(10, 20, None), span(15, 30, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", None, 1, || 7), 7);
        assert!(t.self_times_s("x").is_empty());
        let t = Tracer::new(true);
        let root = t.open("root", None, 1);
        t.time("x", root, 1, || ());
        t.close(root);
        assert_eq!(t.self_times_s("x").len(), 1);
        assert_eq!(t.self_times_s("root").len(), 1);
    }
}
