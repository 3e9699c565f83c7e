//! Process-wide telemetry: counters, gauges, histograms, scoped timers,
//! hierarchical spans and a JSON-lines event sink.
//!
//! The paper's headline claim is a speedup table; reproducing it honestly
//! requires knowing where wall clock and solver iterations actually go.
//! This module is the one place every hot path reports to:
//!
//! * [`counter_add`] — monotonic `u64` counters (CG iterations, solver
//!   fallbacks, dropped NaN samples);
//! * [`gauge_set`] — last-value `f64` gauges (current learning rate);
//! * [`observe`] / [`observe_duration`] / [`timed`] — log-bucketed
//!   histograms with count/sum/min/max and approximate percentiles
//!   (per-step solve times, per-batch losses, batch occupancy);
//! * [`event`] — structured records appended immediately to the JSON-lines
//!   sink (per-epoch training stats, per-design runtime splits);
//! * [`span`] / [`span!`](crate::span) — hierarchical scoped wall-clock
//!   spans with parent/child links (per-thread span stack) and thread
//!   tagging, written to the sink on drop. Spans are the input to the
//!   Chrome-trace/Perfetto exporter and `pdn report` (see
//!   `pdn-eval::tracereport`).
//!
//! # Overhead contract
//!
//! Telemetry is **disabled by default**. Every recording entry point begins
//! with a single `Relaxed` atomic load ([`enabled`]) and returns before
//! touching any lock, allocating, or reading the clock, so instrumented hot
//! loops cost one predictable branch when telemetry is off. When enabled,
//! recording takes a short mutex-protected critical section; hot paths are
//! instrumented at solve/step granularity (not per CG iteration) to keep
//! the enabled-mode cost in the noise as well.
//!
//! # Enabling
//!
//! * Binaries: `pdn --telemetry out.jsonl ...` (flag wins over the
//!   environment);
//! * Environment: `PDN_TELEMETRY=<path>` writes JSON-lines to `<path>`;
//!   `PDN_TELEMETRY=1` enables in-memory aggregation only (summary table,
//!   no sink). `0`, empty, or unset keep telemetry off. Call
//!   [`init_from_env`] first thing in `main`.
//!
//! # JSON-lines schema
//!
//! Every line is one JSON object with at least:
//!
//! ```json
//! {"ts_us": 1234, "kind": "event", "name": "train.epoch", ...}
//! ```
//!
//! * `ts_us` — microseconds since telemetry was enabled (monotonic clock);
//! * `kind` — `event` or `span` (live records), or `counter` / `gauge` /
//!   `histogram` (aggregate dumps from [`write_summary_records`]);
//! * `name` — dotted metric path, e.g. `sparse.cg.iterations`;
//! * further keys are event-specific; span records carry
//!   `span`/`parent`/`thread`/`start_us`/`dur_us`/`ok` plus any attached
//!   fields; aggregate records carry `value` (counters, gauges) or
//!   `count`/`sum`/`min`/`max`/`p50`/`p95`/`p99` (histograms). Non-finite
//!   floats serialize as `null`.
//!
//! # Example
//!
//! ```
//! use pdn_core::telemetry;
//!
//! // Disabled by default: recording is a no-op.
//! telemetry::counter_add("demo.widgets", 3);
//! assert_eq!(telemetry::counter_value("demo.widgets"), 0);
//!
//! telemetry::enable();
//! telemetry::counter_add("demo.widgets", 3);
//! {
//!     let _t = telemetry::timed("demo.scope_seconds");
//! }
//! assert_eq!(telemetry::counter_value("demo.widgets"), 3);
//! assert!(telemetry::summary().contains("demo.widgets"));
//! telemetry::reset(); // back to disabled, metrics cleared
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of logarithmic histogram buckets. Bucket `i` covers values in
/// `[2^(i-40), 2^(i-39))`, spanning ~1e-12 .. ~1.7e7 — comfortably covering
/// nanosecond-scale timers through hour-scale stage totals.
const BUCKETS: usize = 64;
const BUCKET_BIAS: i32 = 40;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when telemetry is collecting. A single `Relaxed` atomic load — this
/// is the entire disabled-mode cost of every recording call.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One field value of a telemetry [`event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field (non-finite values serialize as `null`).
    F64(f64),
    /// Boolean field.
    Bool(bool),
    /// String field (JSON-escaped on write).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(f64::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Streaming histogram: count/sum/min/max plus log₂ buckets for
/// approximate percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Approximate median (geometric interpolation within the log bucket).
    pub p50: f64,
    /// Approximate 95th percentile (geometric interpolation).
    pub p95: f64,
    /// Approximate 99th percentile (geometric interpolation).
    pub p99: f64,
}

impl HistogramSummary {
    /// Mean observation (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Histogram {
    fn new() -> Histogram {
        Histogram { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, buckets: [0; BUCKETS] }
    }

    fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Approximate quantile from the log buckets: locate the bucket holding
    /// the q-th observation, then interpolate geometrically within its
    /// `[2^k, 2^(k+1))` range by the observation's rank inside the bucket
    /// (log-uniform assumption), clamped to observed bounds. For a
    /// single-observation bucket this degenerates to the geometric midpoint.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = 2f64.powi(i as i32 - BUCKET_BIAS);
                // Rank of the target observation inside this bucket, mapped
                // to (0, 1) with a half-sample midpoint correction.
                let frac = ((target - seen) as f64 - 0.5) / c as f64;
                let est = lo * 2f64.powf(frac);
                return est.clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    (v.log2().floor() as i32 + BUCKET_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
}

struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    sink: Option<BufWriter<File>>,
    sink_lines: u64,
    epoch: Instant,
    summary_written: bool,
}

impl State {
    fn new() -> State {
        State {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            sink: None,
            sink_lines: 0,
            epoch: Instant::now(),
            summary_written: false,
        }
    }

    fn ts_us(&self) -> u128 {
        self.epoch.elapsed().as_micros()
    }

    fn write_line(&mut self, line: &str) {
        if let Some(sink) = &mut self.sink {
            if writeln!(sink, "{line}").is_ok() {
                self.sink_lines += 1;
            }
        }
    }
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::new()))
}

fn lock() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding the telemetry lock must not poison observability
    // for the rest of the process.
    state().lock().unwrap_or_else(|e| e.into_inner())
}

/// Enables in-memory aggregation (counters/gauges/histograms + summary)
/// without a JSON-lines sink. Events are dropped unless a sink is attached.
pub fn enable() {
    let mut s = lock();
    s.epoch = Instant::now();
    s.summary_written = false;
    drop(s);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enables telemetry with a JSON-lines sink at `path` (truncating any
/// existing file).
///
/// # Errors
///
/// Propagates file-creation errors; telemetry is left disabled on failure.
pub fn enable_with_sink(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut s = lock();
    s.sink = Some(BufWriter::new(file));
    s.sink_lines = 0;
    s.epoch = Instant::now();
    s.summary_written = false;
    drop(s);
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Configures telemetry from the `PDN_TELEMETRY` environment variable and
/// returns whether it ended up enabled. `0`, empty, or unset leave it off;
/// `1` enables aggregation without a sink; anything else is treated as a
/// sink path (a warning is printed and telemetry stays off if the file
/// cannot be created).
pub fn init_from_env() -> bool {
    match std::env::var("PDN_TELEMETRY") {
        Err(_) => false,
        Ok(raw) => {
            let raw = raw.trim();
            match raw {
                "" | "0" => false,
                "1" => {
                    enable();
                    true
                }
                path => match enable_with_sink(Path::new(path)) {
                    Ok(()) => true,
                    Err(e) => {
                        eprintln!("warning: PDN_TELEMETRY={path}: cannot open sink: {e}; telemetry disabled");
                        false
                    }
                },
            }
        }
    }
}

/// Stops collection. Aggregated metrics and the sink are retained (call
/// [`reset`] to drop them).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Disables telemetry and clears all metrics and the sink. Primarily for
/// tests and long-lived hosts that recycle the process between runs.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut s = lock();
    *s = State::new();
}

/// Clears aggregated metrics (counters, gauges, histograms) without
/// touching the enabled flag or the sink.
pub fn reset_metrics() {
    let mut s = lock();
    s.counters.clear();
    s.gauges.clear();
    s.histograms.clear();
}

/// Adds `delta` to the named monotonic counter. No-op when disabled.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    match s.counters.get_mut(name) {
        Some(c) => *c += delta,
        None => {
            s.counters.insert(name.to_string(), delta);
        }
    }
}

/// Current value of a counter (0 if never written or telemetry disabled
/// since the last reset).
pub fn counter_value(name: &str) -> u64 {
    lock().counters.get(name).copied().unwrap_or(0)
}

/// Sets the named gauge to `value`. No-op when disabled.
pub fn gauge_set(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    match s.gauges.get_mut(name) {
        Some(g) => *g = value,
        None => {
            s.gauges.insert(name.to_string(), value);
        }
    }
}

/// Current value of a gauge, if set.
pub fn gauge_value(name: &str) -> Option<f64> {
    lock().gauges.get(name).copied()
}

/// Records one observation into the named histogram. No-op when disabled.
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    match s.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            s.histograms.insert(name.to_string(), h);
        }
    }
}

/// Records a duration (seconds) into the named histogram. No-op when
/// disabled.
pub fn observe_duration(name: &str, d: Duration) {
    if !enabled() {
        return;
    }
    observe(name, d.as_secs_f64());
}

/// Summary of the named histogram, if any observations were recorded.
pub fn histogram_summary(name: &str) -> Option<HistogramSummary> {
    lock().histograms.get(name).map(Histogram::summarize)
}

/// A scoped wall-clock timer: records the elapsed time into the named
/// histogram (seconds) when dropped. When telemetry is disabled at
/// construction, the guard holds no clock reading and drop is free.
#[derive(Debug)]
#[must_use = "the timer records on drop; binding to `_` drops it immediately"]
pub struct ScopedTimer {
    name: &'static str,
    start: Option<Instant>,
}

impl ScopedTimer {
    /// Elapsed time so far, if the timer is live.
    pub fn elapsed(&self) -> Option<Duration> {
        self.start.map(|s| s.elapsed())
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe_duration(self.name, start.elapsed());
        }
    }
}

/// Starts a scoped timer feeding the named histogram.
pub fn timed(name: &'static str) -> ScopedTimer {
    ScopedTimer { name, start: enabled().then(Instant::now) }
}

// ---------------------------------------------------------------------------
// Hierarchical spans
// ---------------------------------------------------------------------------

/// Process-wide span-id allocator. Ids are never reused within a process,
/// so parent links stay unambiguous even across telemetry resets.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// Small, stable per-thread tags (1, 2, 3, … in first-touch order) —
/// `std::thread::ThreadId` has no stable integer form.
static NEXT_THREAD_TAG: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_TAG: u64 = NEXT_THREAD_TAG.fetch_add(1, Ordering::Relaxed);
    /// Stack of open span ids on this thread; the top is the parent of the
    /// next span opened here.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The stable integer tag of the calling thread (assigned on first use).
pub fn current_thread_tag() -> u64 {
    THREAD_TAG.with(|t| *t)
}

/// Id of the innermost open span on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

struct SpanLive {
    name: String,
    id: u64,
    parent: Option<u64>,
    thread: u64,
    start: Instant,
    ok: bool,
    fields: Vec<(String, Value)>,
}

/// A hierarchical scoped span.
///
/// Opening a span (when telemetry is enabled) pushes its id onto a
/// thread-local stack, making it the parent of any span opened on the same
/// thread before it closes. Dropping the guard pops the stack and appends
/// one `kind:"span"` record to the JSON-lines sink carrying
/// `span`/`parent`/`thread`/`start_us`/`dur_us`/`ok` plus any attached
/// fields. A span dropped during a panic unwind records `ok:false`, so the
/// sink still explains *where* a run died.
///
/// When telemetry is disabled at construction the guard is inert: no
/// allocation, no clock read, no thread-local touch — the entire cost is
/// the one relaxed atomic load of [`enabled`].
#[must_use = "a span records on drop; binding to `_` closes it immediately"]
#[derive(Debug)]
pub struct Span {
    live: Option<Box<SpanLive>>,
}

impl std::fmt::Debug for SpanLive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLive")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("thread", &self.thread)
            .finish_non_exhaustive()
    }
}

impl Span {
    /// The span's id, if it is live (telemetry was enabled when it opened).
    pub fn id(&self) -> Option<u64> {
        self.live.as_ref().map(|l| l.id)
    }

    /// Elapsed time since the span opened, if live.
    pub fn elapsed(&self) -> Option<Duration> {
        self.live.as_ref().map(|l| l.start.elapsed())
    }

    /// Overrides the span's `ok` flag (defaults to `true`; a panic unwind
    /// forces `false` regardless).
    pub fn set_ok(&mut self, ok: bool) {
        if let Some(l) = &mut self.live {
            l.ok = ok;
        }
    }

    /// Attaches a field to be written with the span record. No-op on an
    /// inert span; reserved keys (`ts_us`, `kind`, `name`, `span`,
    /// `parent`, `thread`, `start_us`, `dur_us`, `ok`) are skipped at
    /// write time.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(l) = &mut self.live {
            l.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur = live.start.elapsed();
        // Pop this span from the thread's stack. RAII scoping makes the top
        // of the stack ours; remove by id anyway so a leaked/reordered guard
        // cannot corrupt ancestry for unrelated spans.
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == live.id) {
                stack.remove(pos);
            }
        });
        if !enabled() {
            return;
        }
        let ok = live.ok && !std::thread::panicking();
        let mut s = lock();
        if s.sink.is_none() {
            return;
        }
        let end_us = s.ts_us();
        let dur_us = dur.as_micros();
        let start_us = end_us.saturating_sub(dur_us);
        let mut line = String::with_capacity(160);
        let _ = write!(line, "{{\"ts_us\":{end_us},\"kind\":\"span\",\"name\":");
        let _ = write_json_str(&mut line, &live.name);
        let _ = write!(line, ",\"span\":{}", live.id);
        match live.parent {
            Some(p) => {
                let _ = write!(line, ",\"parent\":{p}");
            }
            None => line.push_str(",\"parent\":null"),
        }
        let _ = write!(
            line,
            ",\"thread\":{},\"start_us\":{start_us},\"dur_us\":{dur_us},\"ok\":{ok}",
            live.thread
        );
        for (key, value) in &live.fields {
            if matches!(
                key.as_str(),
                "ts_us" | "kind" | "name" | "span" | "parent" | "thread" | "start_us"
                    | "dur_us" | "ok"
            ) {
                continue;
            }
            line.push(',');
            let _ = write_json_str(&mut line, key);
            line.push(':');
            push_json_value(&mut line, value);
        }
        line.push('}');
        s.write_line(&line);
    }
}

/// Opens a hierarchical span named `name`. See [`Span`] for semantics; the
/// [`span!`](crate::span) macro adds field-attaching sugar.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span_id();
    let thread = current_thread_tag();
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    Span {
        live: Some(Box::new(SpanLive {
            name: name.to_string(),
            id,
            parent,
            thread,
            start: Instant::now(),
            ok: true,
            fields: Vec::new(),
        })),
    }
}

/// A guard that finalizes the JSON-lines sink when dropped: dumps the
/// aggregate summary records (once) and flushes. Install one at the top of
/// `main` so the sink survives error returns and panics — without it, a
/// command that dies before its success path leaves the `BufWriter`'s tail
/// unflushed and the file truncated mid-record.
#[must_use = "the guard flushes on drop; binding to `_` drops it immediately"]
#[derive(Debug, Default)]
pub struct FlushGuard {
    _priv: (),
}

impl FlushGuard {
    /// Creates the guard. Cheap and safe to construct before telemetry is
    /// enabled; finalization is a no-op when nothing was recorded.
    pub fn new() -> FlushGuard {
        FlushGuard { _priv: () }
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        write_summary_records();
        flush();
    }
}

/// Appends one structured record to the JSON-lines sink (no-op when
/// disabled or when no sink is attached). `fields` are rendered after the
/// standard `ts_us`/`kind`/`name` keys; a field named like a standard key
/// is skipped rather than duplicated.
pub fn event(name: &str, fields: &[(&str, Value)]) {
    if !enabled() {
        return;
    }
    let mut s = lock();
    if s.sink.is_none() {
        return;
    }
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ts_us\":{},\"kind\":\"event\",\"name\":", s.ts_us());
    let _ = write_json_str(&mut line, name);
    for (key, value) in fields {
        if matches!(*key, "ts_us" | "kind" | "name") {
            continue;
        }
        line.push(',');
        let _ = write_json_str(&mut line, key);
        line.push(':');
        push_json_value(&mut line, value);
    }
    line.push('}');
    s.write_line(&line);
}

/// Dumps every counter, gauge and histogram as one JSON-lines record each
/// (kind `counter` / `gauge` / `histogram`) and flushes the sink. Call once
/// at the end of a run so the sink is a self-contained artifact; repeated
/// calls between enables are no-ops, so an exit-path [`FlushGuard`] and an
/// explicit success-path call cannot duplicate the records.
pub fn write_summary_records() {
    if !enabled() {
        return;
    }
    let mut s = lock();
    if s.sink.is_none() || s.summary_written {
        return;
    }
    s.summary_written = true;
    let lines = aggregate_records(&s);
    for line in &lines {
        s.write_line(line);
    }
    if let Some(sink) = &mut s.sink {
        let _ = sink.flush();
    }
}

/// Renders every counter, gauge and histogram as one JSON-lines record each
/// (the same `kind:counter/gauge/histogram` schema the summary dump uses).
fn aggregate_records(s: &State) -> Vec<String> {
    let ts = s.ts_us();
    let mut lines: Vec<String> = Vec::new();
    for (name, value) in &s.counters {
        let mut line = String::with_capacity(64);
        let _ = write!(line, "{{\"ts_us\":{ts},\"kind\":\"counter\",\"name\":");
        let _ = write_json_str(&mut line, name);
        let _ = write!(line, ",\"value\":{value}}}");
        lines.push(line);
    }
    for (name, value) in &s.gauges {
        let mut line = String::with_capacity(64);
        let _ = write!(line, "{{\"ts_us\":{ts},\"kind\":\"gauge\",\"name\":");
        let _ = write_json_str(&mut line, name);
        line.push_str(",\"value\":");
        push_json_value(&mut line, &Value::F64(*value));
        line.push('}');
        lines.push(line);
    }
    for (name, hist) in &s.histograms {
        let h = hist.summarize();
        let mut line = String::with_capacity(128);
        let _ = write!(line, "{{\"ts_us\":{ts},\"kind\":\"histogram\",\"name\":");
        let _ = write_json_str(&mut line, name);
        let _ = write!(line, ",\"count\":{}", h.count);
        for (key, v) in [
            ("sum", h.sum),
            ("min", h.min),
            ("max", h.max),
            ("p50", h.p50),
            ("p95", h.p95),
            ("p99", h.p99),
        ] {
            let _ = write!(line, ",\"{key}\":");
            push_json_value(&mut line, &Value::F64(v));
        }
        line.push('}');
        lines.push(line);
    }
    lines
}

/// Snapshot of every aggregated metric as newline-terminated JSON-lines
/// records, without touching the sink or the once-per-run summary latch.
/// This is the payload a live endpoint (`pdn serve`'s `GET /metrics`) can
/// return repeatedly while the process keeps recording; the schema matches
/// the sink's `kind:counter/gauge/histogram` records, so the same tooling
/// parses both. Returns an empty string when telemetry is disabled or
/// nothing has been recorded.
pub fn snapshot_records() -> String {
    if !enabled() {
        return String::new();
    }
    let s = lock();
    let lines = aggregate_records(&s);
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in &lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Maps a dotted metric path to a legal Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit gets a `_` prefix. `serve.predict.batch_width` →
/// `serve_predict_batch_width`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Upper bound (`le` label value) of internal log₂ bucket `i`: the bucket
/// covers `[2^(i-40), 2^(i-39))`, so observations in it are `< 2^(i-39)`
/// and the exported cumulative bucket uses that exclusive-upper bound.
/// Bucket 0 additionally absorbs zero, negative and non-finite
/// observations, so its bound is the smallest exported `le`.
fn bucket_upper_bound(i: usize) -> f64 {
    2f64.powi(i as i32 + 1 - BUCKET_BIAS)
}

/// Renders a float for Prometheus sample values and `le` labels. The text
/// format accepts Go-style scientific notation; Rust's shortest
/// round-trip `{e}` formatting is compatible and lossless.
fn prometheus_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:e}")
    }
}

/// Snapshot of every aggregated metric in the Prometheus text exposition
/// format (version 0.0.4): one `# TYPE` line per family, counters suffixed
/// `_total` (added unless already present), gauges as-is, and log₂
/// histograms expanded into cumulative `_bucket{le="..."}` samples plus
/// `_sum`/`_count` — the `+Inf` bucket always equals `_count`, and bucket
/// counts are monotone non-decreasing in `le`. Empty buckets outside the
/// observed range are elided (the cumulative encoding keeps the family
/// valid). Returns an empty string when telemetry is disabled; the
/// disabled cost is the usual one relaxed atomic load.
pub fn prometheus_text() -> String {
    if !enabled() {
        return String::new();
    }
    let s = lock();
    let mut out = String::with_capacity(
        64 * (s.counters.len() + s.gauges.len()) + 512 * s.histograms.len(),
    );
    for (name, value) in &s.counters {
        let mut pname = prometheus_name(name);
        if !pname.ends_with("_total") {
            pname.push_str("_total");
        }
        let _ = writeln!(out, "# TYPE {pname} counter");
        let _ = writeln!(out, "{pname} {value}");
    }
    for (name, value) in &s.gauges {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {}", prometheus_f64(*value));
    }
    for (name, hist) in &s.histograms {
        let pname = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {pname} histogram");
        // Emit the cumulative buckets covering the observed range: from
        // the first to the last non-empty internal bucket. Everything
        // below the range has cumulative count 0 anyway, everything above
        // is carried by +Inf.
        let first = hist.buckets.iter().position(|&c| c > 0);
        let last = hist.buckets.iter().rposition(|&c| c > 0);
        let mut cumulative = 0u64;
        if let (Some(first), Some(last)) = (first, last) {
            for i in first..=last {
                cumulative += hist.buckets[i];
                let _ = writeln!(
                    out,
                    "{pname}_bucket{{le=\"{}\"}} {cumulative}",
                    prometheus_f64(bucket_upper_bound(i))
                );
            }
        }
        let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{pname}_sum {}", prometheus_f64(hist.sum));
        let _ = writeln!(out, "{pname}_count {}", hist.count);
    }
    out
}

/// Flushes the JSON-lines sink, if any.
pub fn flush() {
    let mut s = lock();
    if let Some(sink) = &mut s.sink {
        let _ = sink.flush();
    }
}

/// Number of lines written to the sink so far (tests and sanity checks).
pub fn sink_line_count() -> u64 {
    lock().sink_lines
}

/// Human-readable summary table of every aggregated metric.
pub fn summary() -> String {
    let s = lock();
    let mut out = String::new();
    let _ = writeln!(out, "telemetry summary ({:.3}s since enable)", s.epoch.elapsed().as_secs_f64());
    if s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty() {
        let _ = writeln!(out, "  (no metrics recorded)");
        return out;
    }
    if !s.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (name, value) in &s.counters {
            let _ = writeln!(out, "    {name:<44} {value}");
        }
    }
    if !s.gauges.is_empty() {
        let _ = writeln!(out, "  gauges:");
        for (name, value) in &s.gauges {
            let _ = writeln!(out, "    {name:<44} {value:.6}");
        }
    }
    if !s.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  histograms: {:<32} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "", "count", "mean", "min", "p50", "p95", "p99", "total"
        );
        for (name, hist) in &s.histograms {
            let h = hist.summarize();
            let _ = writeln!(
                out,
                "    {name:<42} {:>8} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e}",
                h.count,
                h.mean(),
                h.min,
                h.p50,
                h.p95,
                h.p99,
                h.sum
            );
        }
    }
    out
}

/// Opens a hierarchical telemetry span with optional fields, returning the
/// guard. Exported at the crate root (`pdn_core::span!`).
///
/// ```
/// use pdn_core::telemetry;
/// telemetry::enable();
/// {
///     let _outer = pdn_core::span!("train.epoch", "epoch" => 3u64);
///     let _inner = pdn_core::span!("train.batch");
/// } // records close in reverse order, linked parent → child
/// telemetry::reset();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::span($name)
    };
    ($name:expr, $($key:literal => $value:expr),+ $(,)?) => {{
        let mut __span = $crate::telemetry::span($name);
        $( __span.field($key, $value); )+
        __span
    }};
}

/// Writes `s` as a JSON string literal, quotes included, with the escapes
/// JSON requires. Every JSON writer in the workspace uses it: the
/// telemetry sink, `pdn-eval`'s `Json` display and Chrome trace export,
/// and the serve daemon's responses, error bodies and access log.
///
/// # Errors
///
/// Only those of `out`; writing to a `String` cannot fail.
pub fn write_json_str(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

fn push_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(x) => {
            let _ = write_json_str(out, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; unit tests serialize on this lock so
    /// enable/reset cycles cannot interleave.
    fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_mode_is_a_no_op() {
        let _g = test_guard();
        reset();
        assert!(!enabled());
        counter_add("t.counter", 5);
        gauge_set("t.gauge", 1.5);
        observe("t.histo", 2.0);
        let timer = timed("t.timer");
        assert!(timer.elapsed().is_none(), "disabled timer must not read the clock");
        drop(timer);
        event("t.event", &[("k", 1u64.into())]);
        assert_eq!(counter_value("t.counter"), 0);
        assert_eq!(gauge_value("t.gauge"), None);
        assert!(histogram_summary("t.histo").is_none());
        assert!(histogram_summary("t.timer").is_none());
    }

    #[test]
    fn snapshot_records_is_live_and_repeatable() {
        let _g = test_guard();
        reset();
        enable();
        counter_add("t.snap.counter", 7);
        gauge_set("t.snap.gauge", 2.5);
        observe("t.snap.histo", 1.0);
        let snap = snapshot_records();
        assert!(snap.contains("\"kind\":\"counter\",\"name\":\"t.snap.counter\",\"value\":7"), "{snap}");
        assert!(snap.contains("\"kind\":\"gauge\",\"name\":\"t.snap.gauge\""), "{snap}");
        assert!(snap.contains("\"kind\":\"histogram\",\"name\":\"t.snap.histo\""), "{snap}");
        assert!(snap.ends_with('\n'));
        // Unlike the sink summary there is no once-per-run latch: repeated
        // snapshots keep reflecting live state.
        counter_add("t.snap.counter", 1);
        assert!(snapshot_records().contains("\"value\":8"));
        reset();
        assert!(snapshot_records().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let _g = test_guard();
        reset();
        enable();
        counter_add("t.counter", 2);
        counter_add("t.counter", 3);
        gauge_set("t.gauge", 1.0);
        gauge_set("t.gauge", -2.5);
        for v in [1.0, 2.0, 4.0, 8.0] {
            observe("t.histo", v);
        }
        assert_eq!(counter_value("t.counter"), 5);
        assert_eq!(gauge_value("t.gauge"), Some(-2.5));
        let h = histogram_summary("t.histo").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 15.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 8.0);
        assert!(h.p50 >= 1.0 && h.p50 <= 8.0, "p50 {}", h.p50);
        assert!(h.p99 >= h.p50 && h.p99 <= 8.0, "p99 {}", h.p99);
        let text = summary();
        assert!(text.contains("t.counter"));
        assert!(text.contains("t.gauge"));
        assert!(text.contains("t.histo"));
        reset();
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let _g = test_guard();
        reset();
        enable();
        {
            let _t = timed("t.scope_seconds");
            std::thread::sleep(Duration::from_millis(2));
        }
        let h = histogram_summary("t.scope_seconds").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.001, "timer recorded {}", h.sum);
        reset();
    }

    #[test]
    fn json_escaping_is_sound() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\te\u{1}").unwrap();
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let mut v = String::new();
        push_json_value(&mut v, &Value::F64(f64::NAN));
        assert_eq!(v, "null");
        v.clear();
        push_json_value(&mut v, &Value::F64(0.25));
        assert_eq!(v, "0.25");
    }

    #[test]
    fn buckets_cover_extremes() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), 0);
        assert!(bucket_of(1e-300) < BUCKETS);
        assert_eq!(bucket_of(1e300), BUCKETS - 1);
        // Monotone over the covered range.
        assert!(bucket_of(1e-9) < bucket_of(1e-3));
        assert!(bucket_of(1e-3) < bucket_of(1.0));
        assert!(bucket_of(1.0) < bucket_of(1e3));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 1..=100: every percentile is known exactly; the log₂-bucket
        // estimate must land within the bucket-resolution error band.
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        let s = h.summarize();
        assert!((s.p50 - 50.5).abs() / 50.5 < 0.25, "p50 {}", s.p50);
        assert!((s.p95 - 95.0).abs() / 95.0 < 0.25, "p95 {}", s.p95);
        assert!((s.p99 - 99.0).abs() / 99.0 < 0.25, "p99 {}", s.p99);
        // Percentiles are ordered and inside the observed range.
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn quantiles_of_constant_distribution_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..50 {
            h.record(7.0);
        }
        let s = h.summarize();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p95, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn quantiles_of_geometric_distribution_track_true_values() {
        // One observation per power of two: the true q-quantile is itself a
        // power of two; the estimate must stay within one bucket (×2).
        let mut h = Histogram::new();
        for k in 0..10 {
            h.record(2f64.powi(k));
        }
        let s = h.summarize();
        let true_p50 = 2f64.powi(4); // 5th of 10 observations
        assert!(s.p50 / true_p50 < 2.0 && true_p50 / s.p50 < 2.0, "p50 {}", s.p50);
        assert!(s.p99 <= s.max && s.p99 >= 2f64.powi(8), "p99 {}", s.p99);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = Histogram::new();
        let s = h.summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0.0);
        assert_eq!((s.min, s.max), (0.0, 0.0), "empty histogram reports 0 bounds");
        assert_eq!((s.p50, s.p95, s.p99), (0.0, 0.0, 0.0));
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_of_single_sample_are_that_sample() {
        // One observation: every percentile must clamp to the observed
        // value exactly, not to a bucket boundary.
        for v in [1e-9, 0.37, 1.0, 700.0] {
            let mut h = Histogram::new();
            h.record(v);
            let s = h.summarize();
            assert_eq!(s.count, 1);
            assert_eq!((s.p50, s.p95, s.p99), (v, v, v), "single sample {v}");
        }
    }

    #[test]
    fn quantiles_all_in_one_bucket_stay_within_observed_bounds() {
        // 0.30, 0.31, ..., 0.49 all land in the [0.25, 0.5) bucket; the
        // interpolated estimates must stay inside the *observed* min/max,
        // not just the bucket, and stay ordered.
        let mut h = Histogram::new();
        for i in 0..20 {
            h.record(0.30 + i as f64 * 0.01);
        }
        let s = h.summarize();
        assert_eq!(bucket_of(s.min), bucket_of(s.max), "test premise: one bucket");
        assert!(s.min == 0.30 && (s.max - 0.49).abs() < 1e-12);
        assert!(s.p50 >= s.min && s.p50 <= s.max, "p50 {}", s.p50);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn quantiles_saturate_cleanly_in_the_max_bucket() {
        // Values beyond the top bucket's range all clamp into bucket 63;
        // percentile interpolation there must not produce infinities or
        // escape the observed range.
        let mut h = Histogram::new();
        for v in [1e280, 1e290, 1e300] {
            h.record(v);
        }
        assert_eq!(bucket_of(1e280), BUCKETS - 1);
        let s = h.summarize();
        assert!(s.p50.is_finite() && s.p99.is_finite());
        assert!(s.p50 >= 1e280 && s.p99 <= 1e300);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        // A mixed histogram whose tail saturates: p99 must land in the
        // saturated bucket's observed range, p50 far below it.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1.0);
        }
        h.record(1e300);
        let s = h.summarize();
        assert!(s.p50 < 2.0, "p50 {} must stay in the [1,2) bucket", s.p50);
        assert!(s.p99 <= 1e300 && s.p99 >= 1.0);
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(prometheus_name("serve.predict.batch_width"), "serve_predict_batch_width");
        assert_eq!(prometheus_name("a-b c"), "a_b_c");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn prometheus_text_families_are_typed_and_histograms_cumulative() {
        let _g = test_guard();
        reset();
        assert!(prometheus_text().is_empty(), "disabled exporter must emit nothing");
        enable();
        counter_add("t.prom.requests", 5);
        counter_add("t.prom.rejected_total", 2);
        gauge_set("t.prom.depth", 3.5);
        gauge_set("t.prom.bad", f64::NAN);
        for v in [0.5, 1.0, 2.0, 2.5, 1e300] {
            observe("t.prom.latency_seconds", v);
        }
        let text = prometheus_text();
        reset();

        // Counters get the _total suffix exactly once.
        assert!(text.contains("# TYPE t_prom_requests_total counter\nt_prom_requests_total 5\n"), "{text}");
        assert!(text.contains("# TYPE t_prom_rejected_total counter\nt_prom_rejected_total 2\n"), "{text}");
        assert!(!text.contains("rejected_total_total"), "{text}");
        assert!(text.contains("# TYPE t_prom_depth gauge\nt_prom_depth 3.5e0\n"), "{text}");
        assert!(text.contains("t_prom_bad NaN"), "{text}");

        // Histogram: every family typed, buckets cumulative and monotone,
        // +Inf bucket == _count, _count matches observations.
        assert!(text.contains("# TYPE t_prom_latency_seconds histogram"), "{text}");
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| l.strip_prefix("t_prom_latency_seconds_bucket{le=\""))
            .map(|rest| {
                let (le, count) = rest.split_once("\"} ").unwrap();
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap() };
                (le, count.parse().unwrap())
            })
            .collect();
        assert!(buckets.len() >= 3, "{text}");
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "le not increasing: {buckets:?}");
            assert!(pair[0].1 <= pair[1].1, "cumulative counts not monotone: {buckets:?}");
        }
        let last = buckets.last().unwrap();
        assert_eq!(last.0, f64::INFINITY);
        assert_eq!(last.1, 5, "+Inf bucket must count everything");
        assert!(text.contains("t_prom_latency_seconds_count 5"), "{text}");
        // 0.5 sits in the [0.5, 1) bucket, whose exclusive upper bound is
        // 1: the first cumulative bucket is le="1e0" with count 1.
        assert_eq!(buckets.first(), Some(&(1.0, 1)), "{text}");
        // The saturated observation is only in +Inf-adjacent top bucket.
        let sum_line = text.lines().find(|l| l.starts_with("t_prom_latency_seconds_sum")).unwrap();
        let sum: f64 = sum_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((sum - (0.5 + 1.0 + 2.0 + 2.5 + 1e300)).abs() < 1e285, "{sum_line}");
    }

    #[test]
    fn prometheus_bucket_bounds_match_internal_buckets() {
        // The le of bucket i is exactly the lower bound of bucket i+1, so
        // the cumulative mapping is exact, not approximate.
        for i in 0..BUCKETS - 1 {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_of(hi * 0.999), i, "value below le lands in bucket {i}");
            assert_eq!(bucket_of(hi), i + 1, "value at le spills into the next bucket");
        }
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = test_guard();
        reset();
        let mut sp = span("t.disabled");
        assert!(sp.id().is_none());
        assert!(sp.elapsed().is_none());
        sp.field("k", 1u64);
        sp.set_ok(false);
        drop(sp);
        assert_eq!(current_span_id(), None);
    }

    #[test]
    fn spans_nest_and_link_parents_in_the_sink() {
        let _g = test_guard();
        reset();
        let path =
            std::env::temp_dir().join(format!("pdn_span_unit_{}.jsonl", std::process::id()));
        enable_with_sink(&path).unwrap();
        let outer_id;
        let inner_id;
        {
            let outer = span("t.outer");
            outer_id = outer.id().unwrap();
            assert_eq!(current_span_id(), Some(outer_id));
            {
                let mut inner = crate::span!("t.inner", "step" => 3u64);
                inner_id = inner.id().unwrap();
                assert_eq!(current_span_id(), Some(inner_id));
                inner.set_ok(false);
            }
            assert_eq!(current_span_id(), Some(outer_id));
        }
        assert_eq!(current_span_id(), None);
        flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        reset();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "two span records in:\n{text}");
        // Records are written at close: inner first.
        let inner_line = lines[0];
        let outer_line = lines[1];
        assert!(inner_line.contains("\"kind\":\"span\"") && inner_line.contains("\"name\":\"t.inner\""));
        assert!(inner_line.contains(&format!("\"span\":{inner_id}")));
        assert!(inner_line.contains(&format!("\"parent\":{outer_id}")));
        assert!(inner_line.contains("\"ok\":false"));
        assert!(inner_line.contains("\"step\":3"));
        assert!(outer_line.contains("\"name\":\"t.outer\""));
        assert!(outer_line.contains("\"parent\":null"));
        assert!(outer_line.contains("\"ok\":true"));
        for line in lines {
            assert!(line.contains("\"thread\":"));
            assert!(line.contains("\"start_us\":"));
            assert!(line.contains("\"dur_us\":"));
        }
    }

    #[test]
    fn span_stack_survives_disable_mid_span() {
        let _g = test_guard();
        reset();
        enable();
        let sp = span("t.mid_disable");
        assert!(sp.id().is_some());
        disable();
        drop(sp); // must still pop the stack without writing
        assert_eq!(current_span_id(), None);
        reset();
    }

    #[test]
    fn threaded_counting_is_lossless() {
        let _g = test_guard();
        reset();
        enable();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        counter_add("t.mt", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter_value("t.mt"), 4000);
        reset();
    }

    #[test]
    fn jsonl_sink_round_trip() {
        let _g = test_guard();
        reset();
        let path = std::env::temp_dir()
            .join(format!("pdn_telemetry_unit_{}.jsonl", std::process::id()));
        enable_with_sink(&path).unwrap();
        event(
            "t.kinds",
            &[
                ("u", 7usize.into()),
                ("i", Value::I64(-3)),
                ("f", 0.5f64.into()),
                ("b", true.into()),
                ("s", "hello \"world\"".into()),
                ("nan", f64::NAN.into()),
                ("name", "shadowed".into()), // reserved key must be skipped
            ],
        );
        counter_add("t.rt.counter", 9);
        gauge_set("t.rt.gauge", 2.0);
        observe("t.rt.histo", 3.0);
        write_summary_records();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        reset();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "event + counter + gauge + histogram in:\n{text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert!(line.contains("\"ts_us\":"), "missing ts_us: {line}");
            assert!(line.contains("\"kind\":"), "missing kind: {line}");
            assert!(line.contains("\"name\":"), "missing name: {line}");
        }
        let ev = lines[0];
        assert!(ev.contains("\"kind\":\"event\""));
        assert!(ev.contains("\"u\":7"));
        assert!(ev.contains("\"i\":-3"));
        assert!(ev.contains("\"f\":0.5"));
        assert!(ev.contains("\"b\":true"));
        assert!(ev.contains("\"s\":\"hello \\\"world\\\"\""));
        assert!(ev.contains("\"nan\":null"));
        assert!(!ev.contains("shadowed"), "reserved key leaked: {ev}");
        assert!(text.contains("\"kind\":\"counter\",\"name\":\"t.rt.counter\",\"value\":9"));
        assert!(text.contains("\"kind\":\"gauge\",\"name\":\"t.rt.gauge\",\"value\":2"));
        assert!(text.contains("\"kind\":\"histogram\",\"name\":\"t.rt.histo\",\"count\":1"));
    }
}
