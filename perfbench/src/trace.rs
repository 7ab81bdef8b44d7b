//! In-memory spans around the calls the harness makes into each layer.
//!
//! The traced run wraps every such call (`setup.parse`, `setup.instance`,
//! `rep.backend_run`, each micro-driver batch) in a [`Span`]; spans stay in
//! memory and are written as JSON lines ([`Tracer::span_json`]) when the run ends. The end-to-end
//! run uses a disabled [`Tracer`], which runs the closure and records
//! nothing. Spans *inside* the engines are a later change: everything here
//! is timed from outside the program under test.

use fncc_core::json::{num_u64, obj, Json};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<phase>.<what>`, e.g. `rep.backend_run` or `micro.net.pool_cycle_ns`.
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Span recorder. All spans of one invocation share its workload name.
pub struct Tracer {
    enabled: bool,
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for the traced run of `workload`.
    pub fn enabled(workload: &str) -> Self {
        Tracer {
            enabled: true,
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing (the end-to-end run).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled("")
        }
    }

    /// Run `f` inside a span called `name`; returns `f`'s result and the
    /// seconds it took (measured whether or not the tracer records).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let ix = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(ix) = ix {
            self.open.pop();
            self.spans[ix].start_ns = (start - self.epoch).as_nanos() as u64;
            self.spans[ix].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its direct children cover.
    pub fn self_ns(&self, ix: usize) -> u64 {
        let s = &self.spans[ix];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(ix))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// One span as a JSON object (`parent` is `null` for a root).
    pub fn span_json(&self, ix: usize) -> Json {
        let s = &self.spans[ix];
        obj([
            ("name", Json::Str(s.name.clone())),
            ("start_ns", num_u64(s.start_ns)),
            ("end_ns", num_u64(s.end_ns)),
            ("self_ns", num_u64(self.self_ns(ix))),
            ("parent", s.parent.map_or(Json::Null, |p| num_u64(p as u64))),
            ("workload", Json::Str(self.workload.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::enabled("w");
        let ((), outer_s) = t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(outer_s >= 0.002);
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(t.self_ns(0), spans[0].end_ns - spans[0].start_ns - inner);
        let line = t.span_json(1).to_string_compact();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(back.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(back.get("workload").and_then(Json::as_str), Some("w"));
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::disabled();
        let (v, s) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(t.spans().is_empty());
    }
}
