//! Span-based tracing on virtual time.
//!
//! A [`Tracer`] records *spans* (named intervals with a parent, a track,
//! and typed attributes) and *instants* (point events such as injected
//! faults or retry decisions) against the simulation clock. Because the
//! simulator is deterministic and the clock is integer microseconds, the
//! exported Chrome trace-event JSON is byte-identical across runs with
//! the same seed — which turns the trace from a debugging aid into a
//! regression oracle (see `tests/goldens.rs`).
//!
//! The tracer is zero-cost when disabled: [`Tracer::begin`] returns
//! [`SpanId::NONE`] without allocating, every other entry point is a
//! no-op on `NONE`, and callers guard any expensive label formatting
//! behind [`Tracer::is_enabled`].
//!
//! # Span taxonomy
//!
//! | category  | producer            | meaning                                  |
//! |-----------|---------------------|------------------------------------------|
//! | `job`     | `serverful::env`    | one submitted map job                    |
//! | `task`    | `serverful::env`    | one task *attempt* (retries are new spans) |
//! | `stage`   | `metaspace`         | one pipeline stage                       |
//! | `faas`    | `cloudsim::world`   | sandbox cold start / billed execution    |
//! | `vm`      | `cloudsim::world`   | VM boot / billed lifetime                |
//! | `storage` | `cloudsim::world`   | object-store or KV request               |
//! | `fault`   | `cloudsim::world`   | instant: an injected failure             |
//! | `retry`   | `serverful::env`    | instant: a recovery decision             |
//!
//! # Example
//!
//! ```
//! use simkernel::SimTime;
//! use telemetry::trace::{SpanId, Tracer};
//!
//! let mut tracer = Tracer::enabled();
//! let job = tracer.begin(SimTime::ZERO, "job:sort", "job", "jobs", SpanId::NONE);
//! let task = tracer.begin(SimTime::from_secs_f64(1.0), "task 0", "task", "tasks", job);
//! tracer.attr_u64(task, "bytes", 1024);
//! tracer.end(task, SimTime::from_secs_f64(3.0));
//! tracer.end(job, SimTime::from_secs_f64(3.5));
//! let json = tracer.chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

use std::fmt::Write as _;

use simkernel::SimTime;

use crate::faults::FaultLedger;
use crate::stats;

/// Identifies a recorded span. The zero value ([`SpanId::NONE`]) is a
/// sentinel meaning "no span" — it is what a disabled tracer hands out,
/// and every operation on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanId(u32);

impl SpanId {
    /// The "no span" sentinel.
    pub const NONE: SpanId = SpanId(0);

    /// True for the sentinel.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    fn index(self) -> Option<usize> {
        (self.0 > 0).then(|| self.0 as usize - 1)
    }
}

/// A typed attribute value attached to a span or instant.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (bytes, counts, ids).
    U64(u64),
    /// Floating point (GB-seconds, dollars).
    F64(f64),
    /// Short string (fleet tag, storage key).
    Str(String),
}

#[derive(Debug, Clone)]
struct Span {
    name: String,
    cat: &'static str,
    track: u32,
    parent: SpanId,
    start: SimTime,
    end: Option<SimTime>,
    attrs: Vec<(&'static str, AttrValue)>,
}

#[derive(Debug, Clone)]
struct InstantEv {
    name: String,
    cat: &'static str,
    track: u32,
    at: SimTime,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// Collects spans and instants against the virtual clock.
///
/// Created disabled by default; enable with [`Tracer::set_enabled`] (or
/// construct with [`Tracer::enabled`]). All recording methods are no-ops
/// while disabled.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    tracks: Vec<String>,
    spans: Vec<Span>,
    instants: Vec<InstantEv>,
}

impl Tracer {
    /// A disabled tracer (records nothing).
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::default()
        }
    }

    /// Turns recording on or off. Spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// True when recording. Callers use this to skip building labels
    /// that [`Tracer::begin`] would discard anyway.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of recorded instants.
    pub fn instant_count(&self) -> usize {
        self.instants.len()
    }

    fn track_id(&mut self, name: &str) -> u32 {
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return i as u32;
        }
        self.tracks.push(name.to_string());
        (self.tracks.len() - 1) as u32
    }

    /// Opens a span at `at`. Returns [`SpanId::NONE`] when disabled.
    ///
    /// `track` names the horizontal lane the span renders on (a fleet,
    /// "jobs", "storage", …); `parent` links the span into the tree and
    /// may be `NONE` for roots.
    pub fn begin(
        &mut self,
        at: SimTime,
        name: &str,
        cat: &'static str,
        track: &str,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let track = self.track_id(track);
        self.spans.push(Span {
            name: name.to_string(),
            cat,
            track,
            parent,
            start: at,
            end: None,
            attrs: Vec::new(),
        });
        SpanId(self.spans.len() as u32)
    }

    /// Closes a span at `at`. No-op on `NONE` or an already-closed span.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if let Some(i) = id.index() {
            let span = &mut self.spans[i];
            if span.end.is_none() {
                span.end = Some(at.max(span.start));
            }
        }
    }

    /// Attaches an integer attribute. No-op on `NONE`.
    pub fn attr_u64(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(i) = id.index() {
            self.spans[i].attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a float attribute. No-op on `NONE`.
    pub fn attr_f64(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id.index() {
            self.spans[i].attrs.push((key, AttrValue::F64(value)));
        }
    }

    /// Attaches a string attribute. No-op on `NONE`.
    pub fn attr_str(&mut self, id: SpanId, key: &'static str, value: &str) {
        if let Some(i) = id.index() {
            self.spans[i]
                .attrs
                .push((key, AttrValue::Str(value.to_string())));
        }
    }

    /// Records a point event (fault, retry decision, …). No-op when
    /// disabled.
    pub fn instant(&mut self, at: SimTime, name: &str, cat: &'static str, track: &str) {
        if !self.enabled {
            return;
        }
        let track = self.track_id(track);
        self.instants.push(InstantEv {
            name: name.to_string(),
            cat,
            track,
            at,
            attrs: Vec::new(),
        });
    }

    /// Exports the trace as Chrome trace-event / Perfetto JSON.
    ///
    /// The output is canonical: tracks are numbered in first-use order
    /// (which is deterministic because the simulation is), spans are
    /// emitted in creation order, instants in recording order, and all
    /// timestamps are integer microseconds — so two runs with the same
    /// seed produce byte-identical JSON.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for (tid, track) in self.tracks.iter().enumerate() {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(track)
            );
            let _ = write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            );
        }
        for (i, span) in self.spans.iter().enumerate() {
            sep(&mut out, &mut first);
            let end = span.end.unwrap_or(span.start);
            let dur = end.as_micros() - span.start.as_micros();
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{}",
                escape(&span.name),
                span.cat,
                span.start.as_micros(),
                span.track,
                i + 1,
            );
            if !span.parent.is_none() {
                let _ = write!(out, ",\"parent\":{}", span.parent.0);
            }
            if span.end.is_none() {
                out.push_str(",\"unfinished\":1");
            }
            write_attrs(&mut out, &span.attrs);
            out.push_str("}}");
        }
        for inst in &self.instants {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\
                 \"tid\":{},\"s\":\"t\",\"args\":{{",
                escape(&inst.name),
                inst.cat,
                inst.at.as_micros(),
                inst.track,
            );
            let mut attrs = String::new();
            write_attrs(&mut attrs, &inst.attrs);
            // write_attrs emits a leading comma for a non-empty list; an
            // instant's args object starts empty, so strip it.
            out.push_str(attrs.strip_prefix(',').unwrap_or(&attrs));
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per-stage metrics aggregated from the recorded `task` spans.
    ///
    /// A task span's stage is its `stage` string attribute. Stages are
    /// listed in first-appearance order. Latencies are attempt wall
    /// times; concurrency is the peak number of simultaneously open
    /// task spans within the stage (the Figure 2 quantity).
    pub fn stage_metrics(&self) -> Vec<StageMetrics> {
        let mut stages: Vec<StageMetrics> = Vec::new();
        let mut windows: Vec<Vec<(u64, u64)>> = Vec::new();
        for span in &self.spans {
            if span.cat != "task" {
                continue;
            }
            let stage = span
                .attrs
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (&"stage", AttrValue::Str(s)) => Some(s.as_str()),
                    _ => None,
                })
                .unwrap_or("?");
            let idx = match stages.iter().position(|m| m.stage == stage) {
                Some(i) => i,
                None => {
                    stages.push(StageMetrics {
                        stage: stage.to_string(),
                        tasks: 0,
                        p50_secs: 0.0,
                        p99_secs: 0.0,
                        peak_concurrency: 0,
                        latencies: Vec::new(),
                    });
                    windows.push(Vec::new());
                    stages.len() - 1
                }
            };
            let end = span.end.unwrap_or(span.start);
            stages[idx].tasks += 1;
            stages[idx]
                .latencies
                .push((end - span.start).as_secs_f64());
            windows[idx].push((span.start.as_micros(), end.as_micros()));
        }
        for (m, w) in stages.iter_mut().zip(windows) {
            m.p50_secs = stats::percentile(&m.latencies, 50.0).unwrap_or(0.0);
            m.p99_secs = stats::percentile(&m.latencies, 99.0).unwrap_or(0.0);
            m.peak_concurrency = peak_concurrency(&w);
        }
        stages
    }

    /// A compact text summary: span census, makespan, the per-stage
    /// table from [`Tracer::stage_metrics`], and — when `faults` has
    /// entries — the wasted-work accounting of the fault ledger.
    pub fn summary(&self, faults: &FaultLedger) -> String {
        let mut out = String::new();
        let mut cats: Vec<(&'static str, usize)> = Vec::new();
        for span in &self.spans {
            match cats.iter_mut().find(|(c, _)| *c == span.cat) {
                Some((_, n)) => *n += 1,
                None => cats.push((span.cat, 1)),
            }
        }
        let census: Vec<String> = cats.iter().map(|(c, n)| format!("{c} {n}")).collect();
        let _ = writeln!(
            out,
            "trace: {} spans ({}), {} instants",
            self.spans.len(),
            census.join(", "),
            self.instants.len()
        );
        let makespan = self
            .spans
            .iter()
            .map(|s| s.end.unwrap_or(s.start))
            .max()
            .unwrap_or(SimTime::ZERO);
        let _ = writeln!(out, "makespan: {:.1}s", makespan.as_secs_f64());
        let metrics = self.stage_metrics();
        if !metrics.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<28} {:>6} {:>9} {:>9} {:>9}",
                "stage", "tasks", "p50(s)", "p99(s)", "peak-conc"
            );
            for m in &metrics {
                let _ = writeln!(
                    out,
                    "{:<28} {:>6} {:>9.2} {:>9.2} {:>9}",
                    m.stage, m.tasks, m.p50_secs, m.p99_secs, m.peak_concurrency
                );
            }
        }
        if !faults.is_empty() {
            out.push('\n');
            out.push_str(&faults.report());
        }
        out
    }
}

/// Aggregated metrics for one stage's task attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// Stage name (the `stage` attribute of its task spans).
    pub stage: String,
    /// Number of task attempts.
    pub tasks: usize,
    /// Median attempt latency in seconds.
    pub p50_secs: f64,
    /// 99th-percentile attempt latency in seconds.
    pub p99_secs: f64,
    /// Peak number of simultaneously running attempts.
    pub peak_concurrency: usize,
    /// Raw attempt latencies, in span order.
    pub latencies: Vec<f64>,
}

/// Peak overlap of half-open `(start, end)` microsecond windows.
fn peak_concurrency(windows: &[(u64, u64)]) -> usize {
    // Boundary sweep: +1 at each start, -1 at each end; ends sort before
    // starts at the same instant so a back-to-back handoff is not
    // counted as overlap.
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(windows.len() * 2);
    for &(s, e) in windows {
        edges.push((s, 1));
        edges.push((e.max(s), -1));
    }
    edges.sort_by_key(|&(t, delta)| (t, delta));
    let mut live = 0i32;
    let mut peak = 0i32;
    for (_, delta) in edges {
        live += delta;
        peak = peak.max(live);
    }
    peak.max(0) as usize
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn write_attrs(out: &mut String, attrs: &[(&'static str, AttrValue)]) {
    for (key, value) in attrs {
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, ",\"{key}\":{v}");
            }
            AttrValue::F64(v) => {
                // `{}` on f64 prints the shortest round-trip decimal,
                // which is deterministic; guard against non-finite
                // values, which JSON cannot carry.
                if v.is_finite() {
                    let _ = write!(out, ",\"{key}\":{v}");
                } else {
                    let _ = write!(out, ",\"{key}\":\"{v}\"");
                }
            }
            AttrValue::Str(v) => {
                let _ = write!(out, ",\"{key}\":\"{}\"", escape(v));
            }
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::SimDuration;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new();
        assert!(!tracer.is_enabled());
        let id = tracer.begin(t(0.0), "x", "task", "tasks", SpanId::NONE);
        assert!(id.is_none());
        tracer.attr_u64(id, "bytes", 7);
        tracer.end(id, t(1.0));
        tracer.instant(t(0.5), "fault", "fault", "faults");
        assert_eq!(tracer.span_count(), 0);
        assert_eq!(tracer.instant_count(), 0);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut tracer = Tracer::enabled();
        let job = tracer.begin(t(0.0), "job:sort", "job", "jobs", SpanId::NONE);
        let task = tracer.begin(t(1.0), "task 0", "task", "lambda", job);
        tracer.attr_u64(task, "bytes", 4096);
        tracer.attr_str(task, "stage", "sort");
        tracer.end(task, t(3.0));
        tracer.end(job, t(3.5));
        let json = tracer.chrome_json();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"job:sort\""));
        assert!(json.contains("\"ts\":1000000,\"dur\":2000000"));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"bytes\":4096"));
    }

    #[test]
    fn identical_recordings_export_identically() {
        let build = || {
            let mut tracer = Tracer::enabled();
            let a = tracer.begin(t(0.0), "a", "task", "tasks", SpanId::NONE);
            tracer.attr_f64(a, "gb_secs", 0.125);
            tracer.instant(t(0.25), "storage transient error", "fault", "faults");
            tracer.end(a, t(0.5));
            tracer.chrome_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn unfinished_spans_are_flagged_with_zero_duration() {
        let mut tracer = Tracer::enabled();
        tracer.begin(t(2.0), "hung", "vm", "vms", SpanId::NONE);
        let json = tracer.chrome_json();
        assert!(json.contains("\"dur\":0"));
        assert!(json.contains("\"unfinished\":1"));
    }

    #[test]
    fn end_clamps_to_start_and_is_idempotent() {
        let mut tracer = Tracer::enabled();
        let id = tracer.begin(t(5.0), "s", "task", "tasks", SpanId::NONE);
        tracer.end(id, t(4.0)); // earlier than start: clamps
        tracer.end(id, t(9.0)); // second end ignored
        let json = tracer.chrome_json();
        assert!(json.contains("\"ts\":5000000,\"dur\":0"), "{json}");
    }

    #[test]
    fn stage_metrics_group_and_rank() {
        let mut tracer = Tracer::enabled();
        for (i, dur) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            let id = tracer.begin(t(0.0), &format!("task {i}"), "task", "tasks", SpanId::NONE);
            tracer.attr_str(id, "stage", "sort");
            tracer.end(id, SimTime::ZERO + SimDuration::from_secs_f64(dur));
        }
        // A second stage running serially.
        for i in 0..2 {
            let id = tracer.begin(
                t(10.0 + i as f64),
                &format!("seg {i}"),
                "task",
                "tasks",
                SpanId::NONE,
            );
            tracer.attr_str(id, "stage", "segment");
            tracer.end(id, t(10.5 + i as f64));
        }
        let metrics = tracer.stage_metrics();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].stage, "sort");
        assert_eq!(metrics[0].tasks, 4);
        assert!((metrics[0].p50_secs - 2.5).abs() < 1e-9);
        assert_eq!(metrics[0].peak_concurrency, 4);
        assert_eq!(metrics[1].stage, "segment");
        assert_eq!(metrics[1].peak_concurrency, 1);
    }

    #[test]
    fn peak_concurrency_handles_handoffs() {
        // Back-to-back windows (end == next start) do not overlap.
        assert_eq!(peak_concurrency(&[(0, 10), (10, 20)]), 1);
        assert_eq!(peak_concurrency(&[(0, 10), (5, 20), (6, 7)]), 3);
        assert_eq!(peak_concurrency(&[]), 0);
    }

    #[test]
    fn summary_mentions_stages_and_faults() {
        let mut tracer = Tracer::enabled();
        let id = tracer.begin(t(0.0), "task 0", "task", "tasks", SpanId::NONE);
        tracer.attr_str(id, "stage", "sort");
        tracer.end(id, t(2.0));
        let mut faults = FaultLedger::new();
        faults.record_fault(crate::faults::FaultKind::StorageTransient);
        faults.wasted_gb_secs = 1.25;
        let text = tracer.summary(&faults);
        assert!(text.contains("1 spans"), "{text}");
        assert!(text.contains("sort"), "{text}");
        assert!(text.contains("wasted GB-seconds"), "{text}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_parses_as_chrome_trace_shape() {
        // A light structural check without a JSON parser: balanced
        // braces/brackets and the required top-level key.
        let mut tracer = Tracer::enabled();
        let id = tracer.begin(t(0.0), "t", "task", "tasks", SpanId::NONE);
        tracer.end(id, t(1.0));
        tracer.instant(t(0.5), "f", "fault", "faults");
        let json = tracer.chrome_json();
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
