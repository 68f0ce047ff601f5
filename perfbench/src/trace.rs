//! Span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer from the benchmark's
//! own code: name, start, end, parent span and operation id. They stay
//! in memory and are written out once, when the run ends. A layer's self
//! time is its span's duration minus the time its child spans cover.
//!
//! With tracing off every `span` call just runs its closure, so the
//! untraced run pays nothing for the instrumentation.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span log plus the stack of open spans.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off, e.g. for an untraced pass inside a
    /// traced run.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Runs `f` as one operation: a root span named `name` under a fresh
    /// operation id.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Self time per span: duration minus the union of its children's
    /// intervals (children of one span never overlap here, so the union
    /// is their sum).
    fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, c)| s.duration() - c)
            .collect()
    }

    /// Total self time per (root span name, span name): the root tells
    /// whether a span ran inside a timed operation, a probe or set-up.
    pub fn self_time_by_name(&self) -> BTreeMap<(&'static str, &'static str), f64> {
        let mut root: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        let mut out = BTreeMap::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            *out.entry((self.spans[root[i]].name, s.name)).or_insert(0.0) += t;
        }
        out
    }

    /// The share of each root span named `name` that no layer span
    /// covers (the root's own self time over its duration).
    pub fn unattributed_shares(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.parent.is_none() && s.name == name)
            .map(|(s, own)| own / s.duration().max(f64::MIN_POSITIVE))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{:?},\"end\":{:?}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}
