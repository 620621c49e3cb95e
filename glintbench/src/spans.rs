//! The traced run's span recorder. Each span is a timed call into one
//! public function of the program: layer name, request id, parent layer,
//! start and end (ns since the run epoch). Spans stay in memory until the
//! run ends, then go to a JSON-lines file with a self-time summary per
//! layer. A disabled recorder records nothing.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{summarize, Summary};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Per-layer samples in ns (spans) or raw units (plain samples).
    samples: BTreeMap<&'static str, Vec<f64>>,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`.
    pub fn span(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns_since_epoch(start), self.ns_since_epoch(end));
        let mut inner = self.inner();
        inner.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns,
        });
        inner
            .samples
            .entry(name)
            .or_default()
            .push(end_ns.saturating_sub(start_ns) as f64);
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.span(name, req, parent, start, Instant::now());
        out
    }

    /// Record a sample that is not a call duration (a lag, a size, a count).
    pub fn sample(&self, name: &'static str, value: f64) {
        if self.on {
            self.inner().samples.entry(name).or_default().push(value);
        }
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.inner().samples.get(name).cloned().unwrap_or_default()
    }

    /// Summary of a span layer, converted from ns to the unit its name
    /// ends in (`_us` or `_ms`).
    pub fn timing(&self, name: &str) -> Summary {
        let scale = if name.ends_with("_ms") { 1e-6 } else { 1e-3 };
        let v: Vec<f64> = self.samples(name).iter().map(|ns| ns * scale).collect();
        summarize(&v)
    }

    /// Duration (ns) of every span of one layer, keyed by request id.
    pub fn durations_by_req(&self, name: &str) -> BTreeMap<u64, u64> {
        self.inner()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.req, s.end_ns.saturating_sub(s.start_ns)))
            .collect()
    }

    pub fn span_count(&self) -> usize {
        self.inner().spans.len()
    }

    /// Self time per layer: each span's duration minus the durations of
    /// the spans nested in it (same request, parent named after it, start
    /// inside it). Returns layer → (spans, total ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let inner = self.inner();
        let spans = &inner.spans;
        let mut by_key: BTreeMap<(&'static str, u64), Vec<usize>> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_key.entry((s.name, s.req)).or_default().push(i);
        }
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            let Some(parent) = s.parent else { continue };
            let Some(candidates) = by_key.get(&(parent, s.req)) else {
                continue;
            };
            if let Some(&p) = candidates
                .iter()
                .find(|&&p| spans[p].start_ns <= s.start_ns && s.start_ns <= spans[p].end_ns)
            {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write every span as one JSON line, then one summary line per layer.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.inner().spans {
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        for (name, (count, total, own)) in selfs {
            writeln!(
                out,
                "{{\"layer\":\"{name}\",\"spans\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
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
    fn self_time_subtracts_nested_children() {
        let rec = Recorder::new(true);
        let t0 = rec.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        rec.span("request", 1, None, at(0), at(100));
        rec.span("score", 1, Some("request"), at(10), at(70));
        rec.span("request", 2, None, at(200), at(250));
        // a child of another request is not subtracted from request 2
        rec.span("score", 3, Some("request"), at(210), at(220));
        let selfs = rec.self_times();
        assert_eq!(selfs["request"], (2, 150_000, 90_000));
        assert_eq!(selfs["score"], (2, 70_000, 70_000));
        assert_eq!(rec.timing("request").n, 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("x", 0, None, || 7), 7);
        rec.sample("y", 1.0);
        assert_eq!(rec.span_count(), 0);
        assert!(rec.samples("y").is_empty());
    }
}
