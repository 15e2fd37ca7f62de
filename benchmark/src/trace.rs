//! Spans around the public calls into each layer.
//!
//! A span records its name, start, end, the span that caused it, and the
//! request it belongs to; all spans of one request share the request id.
//! Spans stay in memory while the run measures and are written out, one
//! JSON object per line, when it ends. Per-layer times are computed from
//! them by name.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span sink. Span id 0 means "no parent".
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), next_id: AtomicU32::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the span's id so that calls it
    /// makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        request: u64,
        parent: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span sink poisoned by a panicking recorder").push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span named `name`.
    fn named(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("span sink poisoned by a panicking recorder");
        spans.iter().filter(|s| s.name == name).copied().collect()
    }

    /// Durations in µs of the spans named `name`, grouped by request.
    pub fn by_request(&self, name: &str) -> BTreeMap<u64, Vec<f64>> {
        let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.named(name) {
            out.entry(s.request).or_default().push(s.dur_us());
        }
        out
    }

    /// Median duration in µs of the spans named `name` (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        let mut d: Vec<f64> = self.named(name).iter().map(Span::dur_us).collect();
        if d.is_empty() {
            0.0
        } else {
            crate::common::median(&mut d)
        }
    }

    /// Writes the spans of this run beside the executable and prints
    /// where.
    pub fn save(&self, workload: &str, seed: u64) {
        let path = crate::common::scratch_dir().join(format!("trace-{workload}-{seed}.jsonl"));
        self.write(&path).expect("write the span file");
        println!("trace: {}", path.display());
    }

    /// Writes every span as one JSON line to `path`.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span sink poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::span`] when tracing is on, a plain call when it is off.
pub fn traced<R>(
    t: Option<&Tracer>,
    name: &'static str,
    request: u64,
    parent: u32,
    f: impl FnOnce(u32) -> R,
) -> R {
    match t {
        Some(t) => t.span(name, request, parent, f),
        None => f(0),
    }
}
