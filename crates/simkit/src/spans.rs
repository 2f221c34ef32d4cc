//! Causal trace spans with Chrome-trace-format export.
//!
//! A span is a named interval of simulation time on a *track* (one track
//! per job, in the grid's usage), optionally linked to a parent span —
//! which is what turns a pile of events into a lineage: a retry attempt's
//! parent is the attempt it replaces, a stage-in's parent is the attempt it
//! feeds, a reissue chain hangs off the original attempt. The log is
//! bounded (oldest spans evicted, exactly counted) and, like the rest of
//! the telemetry layer, deterministic: spans are stamped with caller-passed
//! [`SimTime`], no wall clock, no randomness.
//!
//! [`SpanLog::chrome_trace_json`] renders the log in the Chrome trace-event
//! format (a JSON object with a `traceEvents` array of `ph: "X"` complete
//! events), so a campaign can be dropped into `chrome://tracing`, Perfetto,
//! or any flamegraph viewer: tracks become rows, spans become bars, and the
//! `parent` argument carries the causal link.

use crate::telemetry::FieldValue;
use crate::time::SimTime;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

/// Identifier of a span within one [`SpanLog`] (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// One span: a named interval on a track, optionally linked to a parent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Dense id (emission order).
    pub id: u64,
    /// Human-readable name (the bar label in a trace viewer).
    pub name: String,
    /// Category (e.g. `"job"`, `"attempt"`, `"stage_in"`, `"quorum"`).
    pub cat: String,
    /// Track the span renders on (the grid uses the job id).
    pub track: u64,
    /// Causal parent span, if any.
    pub parent: Option<u64>,
    /// Start time.
    pub start: SimTime,
    /// End time; `None` while the span is open.
    pub end: Option<SimTime>,
    /// Typed annotations, in emission order.
    pub args: Vec<(String, FieldValue)>,
}

/// A bounded, deterministic span log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanLog {
    spans: VecDeque<Span>,
    capacity: usize,
    next_id: u64,
    dropped: u64,
}

impl SpanLog {
    /// A log retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            spans: VecDeque::new(),
            capacity,
            next_id: 0,
            dropped: 0,
        }
    }

    /// Open a span at `now`. Returns its id (stable under replay).
    pub fn start(
        &mut self,
        now: SimTime,
        name: &str,
        cat: &str,
        track: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.push(Span {
            id: 0, // assigned by push
            name: name.to_string(),
            cat: cat.to_string(),
            track,
            parent: parent.map(|p| p.0),
            start: now,
            end: None,
            args: Vec::new(),
        })
    }

    /// Record a span whose start *and* end are already known (retrospective
    /// intervals like "the run that just completed").
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        start: SimTime,
        end: SimTime,
        name: &str,
        cat: &str,
        track: u64,
        parent: Option<SpanId>,
        args: &[(&str, FieldValue)],
    ) -> SpanId {
        self.push(Span {
            id: 0,
            name: name.to_string(),
            cat: cat.to_string(),
            track,
            parent: parent.map(|p| p.0),
            start,
            end: Some(end.max(start)),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        })
    }

    /// Close span `id` at `now`. A span already closed, evicted, or never
    /// issued is left untouched (ending twice is a caller bug, but a benign
    /// one). Returns whether the span was found open.
    pub fn end(&mut self, id: SpanId, now: SimTime) -> bool {
        match self.find_mut(id) {
            Some(span) if span.end.is_none() => {
                span.end = Some(now.max(span.start));
                true
            }
            _ => false,
        }
    }

    /// Append a typed annotation to span `id`, if it is still retained.
    pub fn annotate(&mut self, id: SpanId, key: &str, value: FieldValue) {
        if let Some(span) = self.find_mut(id) {
            span.args.push((key.to_string(), value));
        }
    }

    /// Retained spans, oldest first.
    pub fn spans(&self) -> &VecDeque<Span> {
        &self.spans
    }

    /// Span `id`, if still retained.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        // Ids are assigned in ascending order, so the retained window is
        // sorted by id.
        let idx = self.spans.binary_search_by_key(&id.0, |s| s.id).ok()?;
        Some(&self.spans[idx])
    }

    /// Total spans ever recorded.
    pub fn recorded(&self) -> u64 {
        self.next_id
    }

    /// Spans evicted from (or never stored in) the bounded log.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn find_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        let idx = self.spans.binary_search_by_key(&id.0, |s| s.id).ok()?;
        Some(&mut self.spans[idx])
    }

    fn push(&mut self, mut span: Span) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        span.id = id;
        if self.capacity == 0 {
            self.dropped += 1;
            return SpanId(id);
        }
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
        SpanId(id)
    }

    /// Observer summary (for status snapshots).
    pub fn summary(&self) -> SpanLogSummary {
        SpanLogSummary {
            recorded: self.next_id,
            retained: self.spans.len(),
            open: self.spans.iter().filter(|s| s.end.is_none()).count(),
            dropped: self.dropped,
        }
    }

    /// Render the retained spans as Chrome trace-event JSON (`ph: "X"`
    /// complete events, microsecond timestamps). Open spans are clamped to
    /// `now` and annotated `"open": true`. The output is deterministic:
    /// spans appear in id order with their args in emission order.
    pub fn chrome_trace_json(&self, now: SimTime) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let end = s.end.unwrap_or_else(|| now.max(s.start));
                let mut args: Vec<(String, Value)> = vec![("span".to_string(), Value::U64(s.id))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Value::U64(p)));
                }
                if s.end.is_none() {
                    args.push(("open".to_string(), Value::Bool(true)));
                }
                for (k, v) in &s.args {
                    args.push((k.clone(), field_to_value(v)));
                }
                Value::Map(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str(s.cat.clone())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::U64(s.start.as_micros())),
                    (
                        "dur".to_string(),
                        Value::U64(end.as_micros() - s.start.as_micros()),
                    ),
                    ("pid".to_string(), Value::U64(0)),
                    ("tid".to_string(), Value::U64(s.track)),
                    ("args".to_string(), Value::Map(args)),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string_pretty(&doc).expect("trace serializes")
    }
}

/// Counts describing a [`SpanLog`] at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanLogSummary {
    /// Spans ever recorded.
    pub recorded: u64,
    /// Spans currently retained.
    pub retained: usize,
    /// Retained spans still open.
    pub open: usize,
    /// Spans evicted from the bounded log.
    pub dropped: u64,
}

fn field_to_value(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(x) => Value::U64(*x),
        FieldValue::I64(x) => Value::I64(*x),
        FieldValue::F64(x) => Value::F64(*x),
        FieldValue::Bool(x) => Value::Bool(*x),
        FieldValue::Str(x) => Value::Str(x.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineage_links_parents_by_id() {
        let mut log = SpanLog::new(64);
        let root = log.start(SimTime::ZERO, "job 7", "job", 7, None);
        let a1 = log.start(
            SimTime::from_secs(60),
            "attempt on a",
            "attempt",
            7,
            Some(root),
        );
        log.end(a1, SimTime::from_secs(120));
        let a2 = log.start(
            SimTime::from_secs(180),
            "attempt on b",
            "attempt",
            7,
            Some(a1),
        );
        log.end(a2, SimTime::from_secs(400));
        log.end(root, SimTime::from_secs(400));
        let retry = log.get(a2).unwrap();
        assert_eq!(retry.parent, Some(a1.0));
        assert_eq!(log.get(a1).unwrap().parent, Some(root.0));
        assert_eq!(log.summary().open, 0);
        assert_eq!(log.recorded(), 3);
    }

    #[test]
    fn eviction_is_counted_and_end_of_evicted_span_is_benign() {
        let mut log = SpanLog::new(2);
        let s0 = log.start(SimTime::ZERO, "a", "x", 0, None);
        let _s1 = log.start(SimTime::ZERO, "b", "x", 0, None);
        let _s2 = log.start(SimTime::ZERO, "c", "x", 0, None);
        assert_eq!(log.dropped(), 1);
        assert!(log.get(s0).is_none());
        assert!(!log.end(s0, SimTime::from_secs(1)));
        let names: Vec<&str> = log.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["b", "c"],
            "the ring keeps the newest spans in order"
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let mut log = SpanLog::new(16);
        let root = log.start(SimTime::ZERO, "job 3", "job", 3, None);
        let att = log.start(SimTime::from_secs(30), "attempt", "attempt", 3, Some(root));
        log.annotate(att, "resource", "cluster-a".into());
        log.record(
            SimTime::from_secs(30),
            SimTime::from_secs(45),
            "stage-in",
            "stage_in",
            3,
            Some(att),
            &[("bytes", 1024u64.into())],
        );
        log.end(att, SimTime::from_secs(500));
        let json = log.chrome_trace_json(SimTime::from_secs(600));
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc
            .as_map()
            .and_then(|m| serde::field::<Value>(m, "traceEvents").ok())
            .unwrap();
        let events = match events {
            Value::Seq(e) => e,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        assert_eq!(events.len(), 3);
        // The root span is open: clamped to `now` and flagged.
        assert!(json.contains("\"open\": true"));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"parent\": 1"));
        assert!(json.contains("\"resource\": \"cluster-a\""));
    }

    #[test]
    fn end_clamps_backwards_time() {
        let mut log = SpanLog::new(4);
        let s = log.start(SimTime::from_secs(100), "x", "x", 0, None);
        log.end(s, SimTime::from_secs(50));
        assert_eq!(log.get(s).unwrap().end, Some(SimTime::from_secs(100)));
    }

    #[test]
    fn serde_roundtrip_byte_stable() {
        let mut log = SpanLog::new(4);
        let root = log.start(SimTime::ZERO, "job", "job", 1, None);
        log.annotate(root, "k", FieldValue::F64(1.5));
        let json = serde_json::to_string(&log).unwrap();
        let back: SpanLog = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.recorded(), 1);
    }
}
