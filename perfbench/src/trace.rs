//! In-memory span recorder for the traced run.
//!
//! Spans are taken from outside the program, around each call the
//! benchmark makes into a layer. They stay in memory and are written as
//! Chrome trace-event JSON when the run ends. When the tracer is off,
//! [`Tracer::timed`] still returns the call's host time (every workload
//! needs it) but records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    /// Operation id: the replicate, submission, simulated hour or
    /// checkpoint the span belongs to.
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Host time of one span name, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    /// Time not covered by child spans.
    pub self_s: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Run `f` inside a span and return its result with its host seconds.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.enter(layer, name, op);
        let started = Instant::now();
        let r = f();
        let secs = started.elapsed().as_secs_f64();
        self.exit();
        (r, secs)
    }

    /// Record a span whose interval is already known, as a child of the
    /// innermost open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Totals per `layer.name`, with self time net of child spans.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(format!("{}.{}", s.layer, s.name)).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        out
    }

    /// Write the spans as Chrome trace-event JSON (load in Perfetto or
    /// `about://tracing`). One track per layer.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.layer,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.enter("bench", "outer", 0);
        let (_, inner) = tr.timed("lattice", "inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit();
        let totals = tr.totals();
        let outer = totals["bench.outer"];
        assert!(outer.total_s >= inner);
        assert!((outer.self_s - (outer.total_s - totals["lattice.inner"].total_s)).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let mut tr = Tracer::off();
        let (v, secs) = tr.timed("gridsim", "run_until", 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.totals().is_empty());
    }
}
