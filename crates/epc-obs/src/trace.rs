//! Structured span tracing with a hard deterministic/wall-clock split.
//!
//! Every [`TraceEvent`] carries a **logical sequence number** plus data
//! fields (record counts, outcome tags, …) — the *logical stream* — and a
//! `wall_ms` timestamp sampled through the injectable
//! [`epc_runtime::Clock`]. The logical stream is a pure function of the
//! input data, because events are only ever emitted from orchestrator
//! code (never from inside `par_map` workers) and the clock is sampled
//! exactly once per event. Under a [`epc_runtime::ManualClock`] the
//! *full* stream — timestamps included — is bitwise identical for any
//! thread budget; under a wall clock only `wall_ms` varies, which is why
//! [`Tracer::logical_jsonl`] projects it away for golden-trace tests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use epc_runtime::Clock;

use crate::metrics::{escape_json, MetricsRegistry};

/// What a trace line records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (stage or sub-phase entry).
    SpanBegin,
    /// A span closed; carries the outcome tag and summary fields.
    SpanEnd,
    /// A single instantaneous observation (e.g. one K-means round).
    Point,
}

impl EventKind {
    /// Stable wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Point => "point",
        }
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned count.
    U64(u64),
    /// Real-valued measurement; encoded via `{:?}` so the decimal text
    /// round-trips the exact bit pattern.
    F64(f64),
    /// Tag or label.
    Str(String),
}

impl FieldValue {
    fn encode(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    let _ = write!(out, "\"{v:?}\"");
                }
            }
            FieldValue::Str(v) => {
                let _ = write!(out, "\"{}\"", escape_json(v));
            }
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One line of the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Logical sequence number, dense from zero in emission order.
    pub seq: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Span or point name (e.g. `stage:analytics`, `kmeans:round`).
    pub name: String,
    /// Clock sample at emission — the only non-logical field.
    pub wall_ms: u64,
    /// Data fields, in total (sorted) key order.
    pub fields: BTreeMap<String, FieldValue>,
}

impl TraceEvent {
    fn encode(&self, out: &mut String, with_wall: bool) {
        let _ = write!(
            out,
            "{{\"seq\": {}, \"kind\": \"{}\", \"name\": \"{}\"",
            self.seq,
            self.kind.as_str(),
            escape_json(&self.name)
        );
        if with_wall {
            let _ = write!(out, ", \"wall_ms\": {}", self.wall_ms);
        }
        for (key, value) in &self.fields {
            let _ = write!(out, ", \"{}\": ", escape_json(key));
            value.encode(out);
        }
        out.push('}');
    }

    /// Full JSON encoding, `wall_ms` included.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.encode(&mut out, true);
        out
    }
}

/// Append-only in-memory event log; written out as `trace.jsonl`.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl Tracer {
    /// Empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// See [`MetricsRegistry`] for the poison-recovery rationale.
    fn lock(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn record(
        &self,
        kind: EventKind,
        name: &str,
        wall_ms: u64,
        fields: &[(&str, FieldValue)],
    ) -> u64 {
        let mut events = self.lock();
        let seq = events.len() as u64;
        events.push(TraceEvent {
            seq,
            kind,
            name: name.to_owned(),
            wall_ms,
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        });
        seq
    }

    /// Copy of the recorded events, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Full JSONL encoding (one event per line, `wall_ms` included).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.lock().iter() {
            event.encode(&mut out, true);
            out.push('\n');
        }
        out
    }

    /// Logical JSONL projection (no `wall_ms`): bitwise identical across
    /// thread budgets, and fully identical to a `ManualClock` golden.
    pub fn logical_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.lock().iter() {
            event.encode(&mut out, false);
            out.push('\n');
        }
        out
    }
}

/// The observability bundle handed through the pipeline: a metrics
/// registry, a tracer, and the *single* clock both read time through.
///
/// Determinism contract: methods on `Obs` must only be called from
/// orchestrator code — one logical thread of control — never from inside
/// data-parallel workers. Kernels return stats; the orchestrator records
/// them. That keeps the event order and the per-event clock-sample count
/// independent of the thread budget.
pub struct Obs<'a> {
    metrics: MetricsRegistry,
    tracer: Tracer,
    clock: &'a dyn Clock,
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.metrics)
            .field("tracer", &self.tracer)
            .finish_non_exhaustive()
    }
}

impl<'a> Obs<'a> {
    /// Fresh bundle reading time only through `clock`.
    pub fn new(clock: &'a dyn Clock) -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(),
            clock,
        }
    }

    /// The injected time source, for sharing with e.g. stage deadlines.
    pub fn clock(&self) -> &'a dyn Clock {
        self.clock
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The trace event log.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Emits a point event (one clock sample).
    pub fn point(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.tracer
            .record(EventKind::Point, name, self.clock.now_ms(), fields);
    }

    /// Opens a span: emits the begin event (one clock sample) and returns
    /// a guard whose [`SpanGuard::finish`] emits the matching end event.
    pub fn span(&self, name: &str) -> SpanGuard<'_, 'a> {
        let begin_ms = self.clock.now_ms();
        self.tracer
            .record(EventKind::SpanBegin, name, begin_ms, &[]);
        SpanGuard {
            obs: self,
            name: name.to_owned(),
            begin_ms,
            closed: false,
        }
    }
}

/// Open span handle. Prefer closing explicitly via [`SpanGuard::finish`]
/// with an outcome tag; dropping the guard (e.g. on an early `?` return)
/// still emits the end event, tagged `outcome="dropped"`.
pub struct SpanGuard<'o, 'c> {
    obs: &'o Obs<'c>,
    name: String,
    begin_ms: u64,
    closed: bool,
}

impl std::fmt::Debug for SpanGuard<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.name)
            .field("begin_ms", &self.begin_ms)
            .field("closed", &self.closed)
            .finish_non_exhaustive()
    }
}

impl SpanGuard<'_, '_> {
    fn emit_end(&mut self, outcome: &str, fields: &[(&str, FieldValue)]) {
        self.closed = true;
        let now_ms = self.obs.clock().now_ms();
        let mut all: Vec<(&str, FieldValue)> = Vec::with_capacity(fields.len() + 2);
        all.push(("outcome", outcome.into()));
        all.push(("span_ms", now_ms.saturating_sub(self.begin_ms).into()));
        all.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
        self.obs
            .tracer
            .record(EventKind::SpanEnd, &self.name, now_ms, &all);
    }

    /// Closes the span with an outcome tag and summary fields
    /// (one clock sample).
    pub fn finish(mut self, outcome: &str, fields: &[(&str, FieldValue)]) {
        self.emit_end(outcome, fields);
    }
}

impl Drop for SpanGuard<'_, '_> {
    fn drop(&mut self) {
        if !self.closed {
            self.emit_end("dropped", &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_runtime::ManualClock;

    #[test]
    fn spans_emit_paired_events_with_dense_seq() {
        let clock = ManualClock::advancing(5);
        let obs = Obs::new(&clock);
        let span = obs.span("stage:preprocess");
        obs.point(
            "kmeans:round",
            &[("round", 0u64.into()), ("inertia", 1.5.into())],
        );
        span.finish("ok", &[("records_out", 42u64.into())]);

        let events = obs.tracer().events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].kind, EventKind::SpanBegin);
        assert_eq!(events[2].kind, EventKind::SpanEnd);
        assert_eq!(
            events[2].fields.get("outcome"),
            Some(&FieldValue::Str("ok".to_owned()))
        );
        // advancing(5): begin=0, point=5, end=10 → span_ms = 10.
        assert_eq!(events[2].fields.get("span_ms"), Some(&FieldValue::U64(10)));
    }

    #[test]
    fn dropped_span_is_tagged() {
        let clock = ManualClock::frozen();
        let obs = Obs::new(&clock);
        {
            let _span = obs.span("stage:analytics");
        }
        let events = obs.tracer().events();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].fields.get("outcome"),
            Some(&FieldValue::Str("dropped".to_owned()))
        );
    }

    #[test]
    fn logical_projection_excludes_wall_ms() {
        let clock = ManualClock::advancing(1000);
        let obs = Obs::new(&clock);
        obs.point("p", &[("n", 1u64.into())]);
        let full = obs.tracer().to_jsonl();
        let logical = obs.tracer().logical_jsonl();
        assert!(full.contains("\"wall_ms\""), "{full}");
        assert!(!logical.contains("\"wall_ms\""), "{logical}");
        assert!(logical.contains("\"seq\": 0"), "{logical}");
        assert!(logical.contains("\"n\": 1"), "{logical}");
    }

    #[test]
    fn f64_fields_round_trip_text() {
        let clock = ManualClock::frozen();
        let obs = Obs::new(&clock);
        obs.point("p", &[("x", 0.1f64.into()), ("bad", f64::NAN.into())]);
        let line = obs.tracer().to_jsonl();
        assert!(line.contains("\"x\": 0.1"), "{line}");
        assert!(line.contains("\"bad\": \"NaN\""), "{line}");
    }
}
