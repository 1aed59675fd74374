//! Span recording for the traced run, on the telemetry crate's
//! [`TraceRecorder`].
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Timestamps are wall-clock nanoseconds since the run started. A root span
//! carries the request it serves (a burst, an update, a storm, a planning
//! round) in its `req` attribute. Spans stay in memory and are written out
//! once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;
use switchboard::telemetry::trace::{SpanId, TraceRecord, TraceRecorder};

/// Bound on recorded spans; later ones are counted as dropped, so the
/// recorder's ring never evicts a span whose parent or children remain.
const MAX_SPANS: usize = 2 << 20;

/// The request a root span serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    Burst(u64),
    Update { chain: u64, epoch: u64 },
    Storm(u64),
    Round(u64),
}

impl std::fmt::Display for Req {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Req::Burst(n) => write!(f, "burst-{n}"),
            Req::Update { chain, epoch } => write!(f, "chain{chain}-epoch{epoch}"),
            Req::Storm(n) => write!(f, "storm-{n}"),
            Req::Round(n) => write!(f, "round-{n}"),
        }
    }
}

/// A span handle; inert when the operation is not traced.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Span(Option<SpanId>);

/// Turns tracing on and off between operations and keeps the open spans'
/// nesting, so each span's parent is the innermost open one.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    recorder: TraceRecorder,
    stack: Vec<SpanId>,
    recorded: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder for a run with tracing `enabled` (`--trace 1`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            active: false,
            origin: Instant::now(),
            recorder: TraceRecorder::with_capacity(if enabled { MAX_SPANS } else { 1 }),
            stack: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Traces the operations that follow (`on`) or runs them untraced.
    /// The traced run alternates, so traced and untraced operations
    /// interleave and their difference is the tracing overhead.
    pub fn set_active(&mut self, on: bool) {
        self.active = self.enabled && on;
    }

    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> Span {
        if !self.active {
            return Span(None);
        }
        if self.recorded >= MAX_SPANS {
            self.dropped += 1;
            return Span(None);
        }
        self.recorded += 1;
        let id = self
            .recorder
            .begin(name, self.stack.last().copied(), self.now_ns());
        self.stack.push(id);
        Span(Some(id))
    }

    /// Opens a root span for `req`.
    pub fn begin_root(&mut self, name: &str, req: Req) -> Span {
        let span = self.begin(name);
        self.set_req(span, req);
        span
    }

    /// Labels a root span with its request, for a root opened with
    /// [`Tracer::begin`] because its request id is assigned by the call
    /// the span wraps (an update's epoch).
    pub fn set_req(&mut self, span: Span, req: Req) {
        if let Some(id) = span.0 {
            self.recorder.attr(id, "req", &req.to_string());
        }
    }

    pub fn end(&mut self, span: Span) {
        if let Some(id) = span.0 {
            self.recorder.end(id, self.now_ns());
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let r = f();
        self.end(span);
        r
    }

    /// The recorded spans, for the totals of a finished run.
    pub fn spans(&self) -> Spans {
        Spans(self.recorder.snapshot())
    }

    /// The spans as one JSON object after the run's provenance.
    pub fn to_json(&self, provenance: &str) -> String {
        format!(
            "{{\"provenance\":{provenance},\"dropped_spans\":{},\"spans\":{}}}\n",
            self.dropped,
            self.recorder.to_json()
        )
    }
}

/// Per-name totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

/// A snapshot of the recorded spans, oldest (lowest id) first.
pub struct Spans(Vec<TraceRecord>);

impl Spans {
    fn parent_of(&self, r: &TraceRecord) -> Option<&TraceRecord> {
        let p = r.parent?;
        self.0
            .binary_search_by_key(&p, |s| s.id)
            .ok()
            .map(|i| &self.0[i])
    }

    fn dur(r: &TraceRecord) -> u64 {
        r.end_ns - r.start_ns
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| Self::dur(s) as f64)
            .collect()
    }

    /// Calls, total time and self time (duration minus the time its child
    /// spans cover) per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                if let Ok(i) = self.0.binary_search_by_key(&p, |r| r.id) {
                    child_ns[i] += Self::dur(s);
                }
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, &children) in self.0.iter().zip(&child_ns) {
            let dur = Self::dur(s);
            let t = out.entry(s.name.clone()).or_default();
            t.calls += 1;
            t.total_ns += dur as f64;
            t.self_ns += dur.saturating_sub(children) as f64;
        }
        out
    }

    /// The share of the traced operations' wall time that spans around
    /// calls into the program cover: root spans are the benchmark's own
    /// operations, so this is the time of their children over theirs.
    pub fn covered_frac(&self) -> f64 {
        let mut root_total = 0u64;
        let mut covered = 0u64;
        for s in &self.0 {
            match self.parent_of(s) {
                None => root_total += Self::dur(s),
                Some(p) if p.parent.is_none() => covered += Self::dur(s),
                Some(_) => {}
            }
        }
        crate::util::ratio(covered as f64, root_total as f64)
    }
}
