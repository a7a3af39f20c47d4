//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public functions in
//! a span (name, start, end, parent, request id). Spans nest on the single
//! generator thread, so the parent is the innermost open span. Spans stay in
//! memory until the run ends; [`Tracer::write`] then dumps them as CSV and
//! [`Tracer::layers`] folds them into per-name totals and self times (a
//! span's duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

const NONE: u32 = u32::MAX;

/// Live windows alternate untraced and traced slices of this length, so the
/// traced run carries its own untraced baseline for `trace.overhead_frac`.
const SLICE: Duration = Duration::from_millis(50);

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    req: u64,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub count: usize,
    pub total_ns: f64,
    pub self_ns: f64,
    /// Self time of each span, in recording order.
    pub self_samples_ns: Vec<f64>,
}

pub struct Tracer {
    enabled: bool,
    recording: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle of an open span; `None` when nothing is being recorded.
pub type SpanId = Option<u32>;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Records everywhere (set-up and replays) in a traced run.
    pub fn record_all(&mut self) {
        self.recording = self.enabled;
    }

    /// Inside a live window: records only in odd slices since `window_start`.
    /// Returns whether the slice containing `at` is traced.
    pub fn follow_slices(&mut self, window_start: Instant, at: Instant) -> bool {
        self.recording = self.enabled && slice_traced(window_start, at);
        self.recording
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.recording {
            return None;
        }
        let id = self.spans.len() as u32;
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied().unwrap_or(NONE),
            req,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id as usize].end = self.t0.elapsed().as_nanos() as u64;
        // Spans close innermost first; tolerate a missed close by popping
        // down to this one.
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Totals and self times per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = (s.end - s.start) as f64;
            let own = dur - *child as f64;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += own;
            a.self_samples_ns.push(own);
        }
        out
    }

    /// Writes every span as CSV: `id,name,start_ns,end_ns,parent,request`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{i},{},{},{},{parent},{}", s.name, s.start, s.end, s.req)?;
        }
        w.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

/// Whether the slice of a live window containing `at` is a traced one.
pub fn slice_traced(window_start: Instant, at: Instant) -> bool {
    let since = at.saturating_duration_since(window_start);
    (since.as_nanos() / SLICE.as_nanos()) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.time("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
        t.end(outer);
        let l = t.layers();
        let (o, i) = (&l["outer"], &l["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!(i.self_ns >= 2e6);
        assert!(o.self_ns < o.total_ns && (o.total_ns - o.self_ns - i.total_ns).abs() < 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.time("x", 0, || ());
        assert_eq!(t.span_count(), 0);
    }
}
