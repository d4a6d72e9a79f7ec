//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a layer, host start and end times, the span that
//! encloses it and the id of the unit (campaign run, untar repetition,
//! paper-table cell) it belongs to. Spans stay in memory; the traced
//! pass writes them out as JSON lines when it ends and reports each
//! layer's self time (span time minus the time its child spans cover).
//! With tracing off, [`Tracer::span`] only times the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the host
    /// milliseconds it took.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        unit: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed().as_secs_f64() * 1e3);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(index);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Host milliseconds each layer spent in its own spans, excluding
    /// the time covered by child spans.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.unit
            );
        }
        out
    }
}
