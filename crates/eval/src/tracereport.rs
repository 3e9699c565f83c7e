//! Run analysis for telemetry JSON-lines files: span trees, Chrome-trace /
//! Perfetto export, and the markdown report behind `pdn report`.
//!
//! The paper's evaluation is largely *runtime* evidence (per-stage
//! breakdowns, the simulate-vs-predict speedup table); this module turns
//! any telemetry sink produced with `--telemetry`/`PDN_TELEMETRY` into
//! those artifacts automatically:
//!
//! * [`TelemetryLog`] — parsed view of one sink file (spans and aggregate
//!   summaries);
//! * [`TelemetryLog::chrome_trace`] — a `trace.json` in the Chrome trace
//!   event format, loadable at `ui.perfetto.dev` (B/E duration events per
//!   thread);
//! * [`span_tree`] — the aggregated per-stage wall-clock tree;
//! * [`report`] — the markdown run report: stage tree, histogram
//!   percentiles (CG iterations/residuals), training-loss sparkline, the
//!   simulate-vs-predict speedup table (joined from the `eval.*` spans),
//!   and an A-vs-B regression diff.

use crate::jsonl::{self, Json};
use pdn_core::telemetry::{write_json_str, HistogramSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One `kind:"span"` record from the sink.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Dotted span name, e.g. `cli.stage.simulate`.
    pub name: String,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Stable thread tag (1, 2, … in first-touch order).
    pub thread: u64,
    /// Span start, µs since telemetry was enabled.
    pub start_us: u64,
    /// Span duration in µs.
    pub dur_us: u64,
    /// Whether the spanned region completed without error/panic.
    pub ok: bool,
    /// Extra fields attached via `Span::field`.
    pub fields: BTreeMap<String, Json>,
}

/// A parsed telemetry sink file.
#[derive(Debug, Clone, Default)]
pub struct TelemetryLog {
    /// Span records, in file (i.e. close-time) order.
    pub spans: Vec<SpanRec>,
    /// Final counter values.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries (a field absent from the record reads NaN).
    pub histograms: BTreeMap<String, HistogramSummary>,
}

fn get_f64(obj: &BTreeMap<String, Json>, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

/// Returns `text` with its last non-empty line removed (trailing blank
/// lines are removed along with it). Empty input stays empty.
fn strip_last_nonempty_line(text: &str) -> &str {
    let trimmed = text.trim_end();
    match trimmed.rfind('\n') {
        Some(pos) => &trimmed[..=pos],
        None => "",
    }
}

impl TelemetryLog {
    /// Parses a telemetry JSON-lines document.
    ///
    /// Unknown `kind`s are ignored (forward compatibility); records missing
    /// required keys are reported as errors with their line content.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line or record.
    pub fn parse_str(text: &str) -> Result<TelemetryLog, String> {
        let mut log = TelemetryLog::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = jsonl::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let obj = value
                .as_obj()
                .ok_or_else(|| format!("line {}: not a JSON object", i + 1))?;
            let kind = obj.get("kind").and_then(Json::as_str).unwrap_or("");
            let name = obj.get("name").and_then(Json::as_str).unwrap_or("").to_string();
            let bad = |what: &str| format!("line {}: {kind} record missing {what}", i + 1);
            match kind {
                "span" => {
                    let parent = match obj.get("parent") {
                        Some(Json::Null) | None => None,
                        Some(v) => v.as_u64(),
                    };
                    let mut fields = obj.clone();
                    for k in
                        ["ts_us", "kind", "name", "span", "parent", "thread", "start_us", "dur_us", "ok"]
                    {
                        fields.remove(k);
                    }
                    log.spans.push(SpanRec {
                        name,
                        id: obj.get("span").and_then(Json::as_u64).ok_or_else(|| bad("span"))?,
                        parent,
                        thread: obj.get("thread").and_then(Json::as_u64).unwrap_or(0),
                        start_us: obj
                            .get("start_us")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| bad("start_us"))?,
                        dur_us: obj
                            .get("dur_us")
                            .and_then(Json::as_u64)
                            .ok_or_else(|| bad("dur_us"))?,
                        ok: obj.get("ok").and_then(Json::as_bool).unwrap_or(true),
                        fields,
                    });
                }
                "counter" => {
                    let v = obj.get("value").and_then(Json::as_u64).ok_or_else(|| bad("value"))?;
                    log.counters.insert(name, v);
                }
                "gauge" => {
                    let v = get_f64(obj, "value").unwrap_or(f64::NAN);
                    log.gauges.insert(name, v);
                }
                "histogram" => {
                    log.histograms.insert(
                        name,
                        HistogramSummary {
                            count: obj
                                .get("count")
                                .and_then(Json::as_u64)
                                .ok_or_else(|| bad("count"))?,
                            sum: get_f64(obj, "sum").unwrap_or(f64::NAN),
                            min: get_f64(obj, "min").unwrap_or(f64::NAN),
                            max: get_f64(obj, "max").unwrap_or(f64::NAN),
                            p50: get_f64(obj, "p50").unwrap_or(f64::NAN),
                            p95: get_f64(obj, "p95").unwrap_or(f64::NAN),
                            p99: get_f64(obj, "p99").unwrap_or(f64::NAN),
                        },
                    );
                }
                _ => {}
            }
        }
        Ok(log)
    }

    /// Reads and parses a telemetry sink file.
    ///
    /// A sink is appended live, so a process killed mid-write commonly
    /// leaves one torn final line; that single trailing line is dropped
    /// rather than failing the whole report. Corruption anywhere *earlier*
    /// in the file is still an error.
    ///
    /// # Errors
    ///
    /// I/O and parse errors, both as strings naming the file.
    pub fn load(path: &Path) -> Result<TelemetryLog, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        match Self::parse_str(&text) {
            Ok(log) => Ok(log),
            Err(e) => {
                let stripped = strip_last_nonempty_line(&text);
                if !stripped.is_empty() && stripped.len() < text.len() {
                    if let Ok(log) = Self::parse_str(stripped) {
                        eprintln!(
                            "warning: {}: dropped torn final line ({e})",
                            path.display()
                        );
                        return Ok(log);
                    }
                }
                Err(format!("{}: {e}", path.display()))
            }
        }
    }

    /// The command of a CLI run, from its root `cli.<command>` span:
    /// `(command, seconds, ok)`.
    pub fn command(&self) -> Option<(&str, f64, bool)> {
        let root =
            self.spans.iter().rev().find(|s| s.parent.is_none() && s.name.starts_with("cli."))?;
        Some((&root.name["cli.".len()..], root.dur_us as f64 / 1e6, root.ok))
    }

    /// Serializes the log's spans as a Chrome-trace JSON string
    /// (the `trace.json` format understood by `ui.perfetto.dev` and
    /// `chrome://tracing`).
    ///
    /// Spans become `B`/`E` duration-event pairs keyed by their recording
    /// thread; emission walks each thread's span forest depth-first, so
    /// every `B` has a matching `E` and pairs nest properly even when
    /// microsecond timestamps tie.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, line: &str, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(line);
        };

        // Process / thread naming metadata.
        push(
            &mut out,
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"pdn\"}}",
            &mut first,
        );
        let mut threads: Vec<u64> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for &t in &threads {
            let label = if t == 1 { "main".to_string() } else { format!("worker-{t}") };
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
                ),
                &mut first,
            );
        }

        // Per-thread span forests, emitted depth-first so B/E pairs nest.
        let index_of: BTreeMap<u64, usize> =
            self.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent.filter(|p| index_of.contains_key(p)) {
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        let by_start = |list: &mut Vec<usize>| {
            list.sort_by_key(|&i| (self.spans[i].thread, self.spans[i].start_us, self.spans[i].id));
        };
        by_start(&mut roots);
        for list in children.values_mut() {
            by_start(list);
        }
        // Iterative DFS: (index, entering) — emit B on entry, E after the
        // subtree.
        let mut stack: Vec<(usize, bool)> = roots.iter().rev().map(|&i| (i, true)).collect();
        while let Some((i, entering)) = stack.pop() {
            let s = &self.spans[i];
            if entering {
                let mut args = String::new();
                let _ = write!(args, "{{\"ok\":{}", s.ok);
                for (k, v) in &s.fields {
                    args.push(',');
                    let _ = write_json_str(&mut args, k);
                    let _ = write!(args, ":{v}");
                }
                args.push('}');
                let mut line = String::with_capacity(128);
                let _ = write!(line, "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"pdn\",\"name\":", s.thread, s.start_us);
                let _ = write_json_str(&mut line, &s.name);
                let _ = write!(line, ",\"args\":{args}}}");
                push(&mut out, &line, &mut first);
                stack.push((i, false));
                if let Some(kids) = children.get(&s.id) {
                    stack.extend(kids.iter().rev().map(|&k| (k, true)));
                }
            } else {
                let mut line = String::with_capacity(96);
                let _ = write!(
                    line,
                    "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"pdn\",\"name\":",
                    s.thread,
                    s.start_us + s.dur_us
                );
                let _ = write_json_str(&mut line, &s.name);
                line.push('}');
                push(&mut out, &line, &mut first);
            }
        }

        out.push_str("\n]}\n");
        out
    }
}

/// One node of the aggregated span tree: all spans sharing the same name
/// under the same parent path, merged.
#[derive(Debug, Clone)]
pub struct StageNode {
    /// Span name.
    pub name: String,
    /// How many spans were merged into this node.
    pub count: u64,
    /// Total wall-clock across the merged spans, µs.
    pub total_us: u64,
    /// Whether every merged span completed ok.
    pub all_ok: bool,
    /// Child stages, ordered by descending total.
    pub children: Vec<StageNode>,
}

/// Builds the aggregated span tree of a log: spans are grouped by name at
/// each nesting level (so 40 `train.epoch` spans under the same parent
/// collapse into one node with `count: 40`), roots are spans without a
/// recorded parent. Siblings are ordered by descending total time.
pub fn span_tree(log: &TelemetryLog) -> Vec<StageNode> {
    let index_of: BTreeMap<u64, usize> =
        log.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in log.spans.iter().enumerate() {
        match s.parent.filter(|p| index_of.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(i),
            None => roots.push(i),
        }
    }
    group(log, &roots, &children)
}

fn group(
    log: &TelemetryLog,
    members: &[usize],
    children: &BTreeMap<u64, Vec<usize>>,
) -> Vec<StageNode> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &i in members {
        by_name.entry(&log.spans[i].name).or_default().push(i);
    }
    let mut nodes: Vec<StageNode> = by_name
        .into_iter()
        .map(|(name, idxs)| {
            let kid_members: Vec<usize> = idxs
                .iter()
                .filter_map(|i| children.get(&log.spans[*i].id))
                .flatten()
                .copied()
                .collect();
            StageNode {
                name: name.to_string(),
                count: idxs.len() as u64,
                total_us: idxs.iter().map(|&i| log.spans[i].dur_us).sum(),
                all_ok: idxs.iter().all(|&i| log.spans[i].ok),
                children: group(log, &kid_members, children),
            }
        })
        .collect();
    nodes.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    nodes
}

/// Flattens an aggregated span tree into `(path, total_us)` rows, where
/// `path` joins names with ` / `. Used by the A-vs-B diff.
pub fn flatten_tree(nodes: &[StageNode]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    fn walk(nodes: &[StageNode], prefix: &str, out: &mut BTreeMap<String, u64>) {
        for n in nodes {
            let path = if prefix.is_empty() {
                n.name.clone()
            } else {
                format!("{prefix} / {}", n.name)
            };
            *out.entry(path.clone()).or_insert(0) += n.total_us;
            walk(&n.children, &path, out);
        }
    }
    walk(nodes, "", &mut out);
    out
}

/// Options for [`report`].
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// A stage is flagged as a regression when `run / baseline` exceeds
    /// this ratio (default 2.0, matching the CI bench gate).
    pub slow_ratio: f64,
    /// Stages faster than this (seconds, in the run) are never flagged —
    /// sub-millisecond stages are all jitter.
    pub min_seconds: f64,
}

impl Default for ReportOptions {
    fn default() -> ReportOptions {
        ReportOptions { slow_ratio: 2.0, min_seconds: 1e-3 }
    }
}

/// One stage that got slower than the baseline beyond the threshold.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Stage path (` / `-joined span names).
    pub path: String,
    /// Baseline total, seconds.
    pub baseline_s: f64,
    /// This run's total, seconds.
    pub run_s: f64,
    /// `run_s / baseline_s`.
    pub ratio: f64,
}

/// A rendered run report.
#[derive(Debug, Clone)]
pub struct ReportOutput {
    /// The markdown document.
    pub markdown: String,
    /// Regressions found (empty without a baseline or when none exceeded
    /// the threshold).
    pub regressions: Vec<Regression>,
}

fn fmt_secs(us: u64) -> String {
    format!("{:.4}", us as f64 / 1e6)
}

fn fmt_g(v: f64) -> String {
    if v.is_nan() {
        "–".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders a unicode sparkline of `values` (at most `width` columns,
/// downsampled by striding).
fn sparkline(values: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let stride = values.len().div_ceil(width).max(1);
    let sampled: Vec<f64> = values.iter().step_by(stride).copied().collect();
    let finite: Vec<f64> = sampled.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    sampled
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            if hi <= lo {
                return GLYPHS[3];
            }
            let t = (v - lo) / (hi - lo);
            GLYPHS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn render_tree(out: &mut String, nodes: &[StageNode], depth: usize, parent_total: Option<u64>) {
    for n in nodes {
        let indent = "· ".repeat(depth);
        let share = match parent_total {
            Some(p) if p > 0 => format!("{:.1}", 100.0 * n.total_us as f64 / p as f64),
            _ => "100.0".to_string(),
        };
        let mean_us = n.total_us / n.count.max(1);
        let flag = if n.all_ok { "" } else { " ⚠ failed" };
        let _ = writeln!(
            out,
            "| {indent}{}{flag} | {} | {} | {} | {share} |",
            n.name,
            n.count,
            fmt_secs(n.total_us),
            fmt_secs(mean_us),
        );
        render_tree(out, &n.children, depth + 1, Some(n.total_us));
    }
}

/// Renders the markdown run report for `run`, optionally diffed against
/// `baseline`.
pub fn report(
    run: &TelemetryLog,
    baseline: Option<&TelemetryLog>,
    opts: &ReportOptions,
) -> ReportOutput {
    let mut md = String::with_capacity(8192);
    let _ = writeln!(md, "# pdn run report\n");

    // --- overview -------------------------------------------------------
    let _ = writeln!(
        md,
        "- records: {} spans, {} counters, {} histograms",
        run.spans.len(),
        run.counters.len(),
        run.histograms.len()
    );
    if let Some((command, seconds, ok)) = run.command() {
        let _ = writeln!(
            md,
            "- command: `{command}` — {seconds:.4} s, {}",
            if ok { "ok" } else { "**failed**" }
        );
    }
    let _ = writeln!(md);

    // --- stage tree -----------------------------------------------------
    let tree = span_tree(run);
    if !tree.is_empty() {
        let _ = writeln!(md, "## Stage tree\n");
        let _ = writeln!(md, "| span | count | total (s) | mean (s) | % of parent |");
        let _ = writeln!(md, "|---|---:|---:|---:|---:|");
        render_tree(&mut md, &tree, 0, None);
        let _ = writeln!(md);
    }

    // --- histograms (solver distributions) ------------------------------
    if !run.histograms.is_empty() {
        let _ = writeln!(md, "## Distributions\n");
        let _ = writeln!(
            md,
            "Percentiles are approximate (interpolated within log₂ buckets).\n"
        );
        let _ = writeln!(md, "| metric | count | mean | min | p50 | p95 | p99 | max |");
        let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|---:|");
        for (name, h) in &run.histograms {
            let _ = writeln!(
                md,
                "| {name} | {} | {} | {} | {} | {} | {} | {} |",
                h.count,
                fmt_g(h.mean()),
                fmt_g(h.min),
                fmt_g(h.p50),
                fmt_g(h.p95),
                fmt_g(h.p99),
                fmt_g(h.max),
            );
        }
        let _ = writeln!(md);
    }

    // --- training -------------------------------------------------------
    let epochs: Vec<&SpanRec> = run.spans.iter().filter(|s| s.name == "train.epoch").collect();
    if !epochs.is_empty() {
        let train: Vec<f64> =
            epochs.iter().map(|e| get_f64(&e.fields, "train_loss").unwrap_or(f64::NAN)).collect();
        let val: Vec<f64> =
            epochs.iter().map(|e| get_f64(&e.fields, "val_loss").unwrap_or(f64::NAN)).collect();
        let best = |xs: &[f64]| xs.iter().copied().filter(|v| v.is_finite()).fold(f64::INFINITY, f64::min);
        let _ = writeln!(md, "## Training\n");
        let _ = writeln!(md, "| series | first | best | final | curve |");
        let _ = writeln!(md, "|---|---:|---:|---:|---|");
        let _ = writeln!(
            md,
            "| train loss | {} | {} | {} | `{}` |",
            fmt_g(train.first().copied().unwrap_or(f64::NAN)),
            fmt_g(best(&train)),
            fmt_g(train.last().copied().unwrap_or(f64::NAN)),
            sparkline(&train, 60),
        );
        let _ = writeln!(
            md,
            "| val loss | {} | {} | {} | `{}` |",
            fmt_g(val.first().copied().unwrap_or(f64::NAN)),
            fmt_g(best(&val)),
            fmt_g(val.last().copied().unwrap_or(f64::NAN)),
            sparkline(&val, 60),
        );
        let _ = writeln!(md, "\n{} epochs recorded.\n", epochs.len());
    }

    // --- speedup (the paper's runtime table analogue) --------------------
    // One row per evaluation, joined by `design` in close order: each
    // `eval.predict_test` span with the latest `eval.prepare` (whose
    // `sim_seconds_per_vector` field is the simulator's time, kept by a
    // cache hit) and `eval.train` span of its design.
    let mut sim_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut train_s: BTreeMap<&str, f64> = BTreeMap::new();
    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for span in &run.spans {
        let Some(design) = span.fields.get("design").and_then(Json::as_str) else { continue };
        let seconds = span.dur_us as f64 / 1e6;
        match span.name.as_str() {
            "eval.prepare" => {
                let sim = get_f64(&span.fields, "sim_seconds_per_vector").unwrap_or(f64::NAN);
                sim_s.insert(design, sim);
            }
            "eval.train" => {
                train_s.insert(design, seconds);
            }
            "eval.predict_test" => {
                let vectors = get_f64(&span.fields, "test_vectors").unwrap_or(f64::NAN);
                let sim = sim_s.get(design).copied().unwrap_or(f64::NAN);
                let train = train_s.get(design).copied().unwrap_or(f64::NAN);
                rows.push((design, train, sim, seconds / vectors));
            }
            _ => {}
        }
    }
    if !rows.is_empty() {
        let _ = writeln!(md, "## Simulate vs predict\n");
        let _ = writeln!(
            md,
            "| design | train (s) | simulate (s/vector) | predict (s/vector) | speedup |"
        );
        let _ = writeln!(md, "|---|---:|---:|---:|---:|");
        for (design, train, sim, predict) in rows {
            let _ = writeln!(
                md,
                "| {design} | {} | {} | {} | {}× |",
                fmt_g(train),
                fmt_g(sim),
                fmt_g(predict),
                fmt_g(sim / predict.max(1e-9)),
            );
        }
        let _ = writeln!(md);
    }

    // --- serving (present only for `pdn serve`-origin sinks) -------------
    if run.counters.keys().any(|k| k.starts_with("serve.")) {
        let _ = writeln!(md, "## Serving\n");
        let requests = run.counters.get("serve.requests").copied().unwrap_or(0);
        let errors = run.counters.get("serve.errors").copied().unwrap_or(0);
        let rejected = run.counters.get("serve.rejected_total").copied().unwrap_or(0);
        let _ = writeln!(
            md,
            "{requests} requests, {errors} errors, {rejected} shed by admission control.\n"
        );

        // Batcher efficiency: how wide batches formed and what each
        // request paid for the coalescing. The width histogram counts the
        // batches and sums the requests.
        let batchers: Vec<&str> = ["serve.predict", "serve.simulate"]
            .into_iter()
            .filter(|b| run.histograms.contains_key(&format!("{b}.batch_width")))
            .collect();
        if !batchers.is_empty() {
            let _ = writeln!(
                md,
                "| batcher | batches | requests | width mean | width max | queue p50 (s) | queue p99 (s) | compute p50 (s) | compute p99 (s) |"
            );
            let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|---:|---:|");
            for b in batchers {
                let width = &run.histograms[&format!("{b}.batch_width")];
                let queue = run.histograms.get(&format!("{b}.queue_wait_seconds"));
                let compute = run.histograms.get(&format!("{b}.batch"));
                let _ = writeln!(
                    md,
                    "| {b} | {} | {:.0} | {} | {} | {} | {} | {} | {} |",
                    width.count,
                    width.sum,
                    fmt_g(width.mean()),
                    fmt_g(width.max),
                    fmt_g(queue.map_or(f64::NAN, |h| h.p50)),
                    fmt_g(queue.map_or(f64::NAN, |h| h.p99)),
                    fmt_g(compute.map_or(f64::NAN, |h| h.p50)),
                    fmt_g(compute.map_or(f64::NAN, |h| h.p99)),
                );
            }
            let _ = writeln!(md);
        }

        // Per-route latency, from the histograms of the connection
        // workers' `serve.route.<route>` spans.
        let routes: Vec<(&str, &HistogramSummary)> = run
            .histograms
            .iter()
            .filter_map(|(name, h)| name.strip_prefix("serve.route.").map(|route| (route, h)))
            .collect();
        if !routes.is_empty() {
            let _ = writeln!(md, "| route | requests | errors | p50 (s) | p95 (s) | p99 (s) | max (s) |");
            let _ = writeln!(md, "|---|---:|---:|---:|---:|---:|---:|");
            for (route, h) in routes {
                let _ = writeln!(
                    md,
                    "| {route} | {} | {} | {} | {} | {} | {} |",
                    h.count,
                    run.counters.get(&format!("serve.route.{route}.errors")).copied().unwrap_or(0),
                    fmt_g(h.p50),
                    fmt_g(h.p95),
                    fmt_g(h.p99),
                    fmt_g(h.max),
                );
            }
            let _ = writeln!(md);
        }
    }

    // --- A-vs-B diff ----------------------------------------------------
    let mut regressions = Vec::new();
    if let Some(base) = baseline {
        let run_paths = flatten_tree(&tree);
        let base_paths = flatten_tree(&span_tree(base));
        let _ = writeln!(md, "## Regression vs baseline\n");
        if let (Some((_, base_s, _)), Some((_, run_s, _))) =
            (base.command(), run.command())
        {
            let _ = writeln!(
                md,
                "Command wall clock: {base_s:.4} s → {run_s:.4} s ({:+.1}%).\n",
                100.0 * (run_s - base_s) / base_s.max(1e-12)
            );
        }
        let _ = writeln!(md, "| stage | baseline (s) | run (s) | ratio | |");
        let _ = writeln!(md, "|---|---:|---:|---:|---|");
        let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
        for (path, &run_us) in &run_paths {
            let Some(&base_us) = base_paths.get(path) else { continue };
            let (b, r) = (base_us as f64 / 1e6, run_us as f64 / 1e6);
            let ratio = if base_us == 0 { f64::INFINITY } else { r / b };
            rows.push((path.clone(), b, r, ratio));
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        for (path, b, r, ratio) in &rows {
            let flagged = *ratio > opts.slow_ratio && *r >= opts.min_seconds;
            if flagged {
                regressions.push(Regression {
                    path: path.clone(),
                    baseline_s: *b,
                    run_s: *r,
                    ratio: *ratio,
                });
            }
            let _ = writeln!(
                md,
                "| {path} | {b:.4} | {r:.4} | {} | {} |",
                if ratio.is_finite() { format!("{ratio:.2}×") } else { "new".to_string() },
                if flagged { "⚠ slower" } else { "" },
            );
        }
        let _ = writeln!(md);
        let only_run: Vec<&String> =
            run_paths.keys().filter(|k| !base_paths.contains_key(*k)).collect();
        let only_base: Vec<&String> =
            base_paths.keys().filter(|k| !run_paths.contains_key(*k)).collect();
        if !only_run.is_empty() {
            let _ = writeln!(md, "Stages only in this run: {}.", join_codes(&only_run));
        }
        if !only_base.is_empty() {
            let _ = writeln!(md, "Stages only in the baseline: {}.", join_codes(&only_base));
        }
        let _ = match regressions.len() {
            0 => writeln!(
                md,
                "\n**No stage regressed beyond {:.1}× (min {:.0} ms).**",
                opts.slow_ratio,
                opts.min_seconds * 1e3
            ),
            n => writeln!(
                md,
                "\n**{n} stage(s) regressed beyond {:.1}× (min {:.0} ms).**",
                opts.slow_ratio,
                opts.min_seconds * 1e3
            ),
        };
        let _ = writeln!(md);
    }

    let _ = writeln!(
        md,
        "---\n\nExport this run for Perfetto with `pdn report <run.jsonl> --trace trace.json`,\nthen open the file at <https://ui.perfetto.dev>."
    );

    ReportOutput { markdown: md, regressions }
}

fn join_codes(items: &[&String]) -> String {
    items.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written sink: root `cli.simulate` span on thread 1 with two
    /// children (the repeated `train.epoch` carrying the losses), a
    /// worker-thread span, a counter and a histogram.
    fn sample_log() -> TelemetryLog {
        let text = r#"{"ts_us":400,"kind":"span","name":"cli.stage.build_grid","span":2,"parent":1,"thread":1,"start_us":100,"dur_us":300,"ok":true}
{"ts_us":700,"kind":"span","name":"train.epoch","span":3,"parent":1,"thread":1,"start_us":450,"dur_us":250,"ok":true,"epoch":0,"train_loss":0.5,"val_loss":0.6}
{"ts_us":1000,"kind":"span","name":"train.epoch","span":4,"parent":1,"thread":1,"start_us":720,"dur_us":280,"ok":true,"epoch":1,"train_loss":0.25,"val_loss":0.4}
{"ts_us":900,"kind":"span","name":"sim.wnv.run","span":5,"parent":null,"thread":2,"start_us":500,"dur_us":400,"ok":true}
{"ts_us":1100,"kind":"span","name":"cli.simulate","span":1,"parent":null,"thread":1,"start_us":50,"dur_us":1050,"ok":true}
{"ts_us":1120,"kind":"counter","name":"sparse.cg.solves","value":42}
{"ts_us":1120,"kind":"histogram","name":"sparse.cg.iterations_per_solve","count":42,"sum":420,"min":5,"max":20,"p50":9.5,"p95":18,"p99":19.5}
"#;
        TelemetryLog::parse_str(text).unwrap()
    }

    #[test]
    fn parses_all_record_kinds() {
        let log = sample_log();
        assert_eq!(log.spans.len(), 5);
        assert_eq!(log.counters["sparse.cg.solves"], 42);
        assert_eq!(log.histograms["sparse.cg.iterations_per_solve"].count, 42);
        // The command comes from the root `cli.*` span, not the worker's
        // parentless `sim.wnv.run`.
        assert_eq!(log.command(), Some(("simulate", 0.00105, true)));
    }

    #[test]
    fn span_tree_aggregates_repeated_names() {
        let log = sample_log();
        let tree = span_tree(&log);
        // Two roots: cli.simulate (thread 1) and the orphan worker span.
        assert_eq!(tree.len(), 2);
        let cli = tree.iter().find(|n| n.name == "cli.simulate").unwrap();
        assert_eq!(cli.count, 1);
        assert_eq!(cli.children.len(), 2);
        let epochs = cli.children.iter().find(|n| n.name == "train.epoch").unwrap();
        assert_eq!(epochs.count, 2);
        assert_eq!(epochs.total_us, 530);
        let flat = flatten_tree(&tree);
        assert_eq!(flat["cli.simulate / train.epoch"], 530);
        assert_eq!(flat["sim.wnv.run"], 400);
    }

    #[test]
    fn chrome_trace_pairs_every_begin_with_an_end() {
        let log = sample_log();
        let trace = log.chrome_trace();
        let parsed = jsonl::parse(&trace).expect("trace is valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(Json::Arr(a)) => a,
            other => panic!("no traceEvents: {other:?}"),
        };
        // Per-tid stack discipline: B pushes, E must match the top name.
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut b_count = 0;
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap();
            let tid = ev.get("tid").and_then(Json::as_u64).unwrap();
            match ph {
                "B" => {
                    b_count += 1;
                    let ts = ev.get("ts").and_then(Json::as_u64).unwrap();
                    let _ = ts;
                    stacks
                        .entry(tid)
                        .or_default()
                        .push(ev.get("name").and_then(Json::as_str).unwrap().to_string());
                }
                "E" => {
                    let name = ev.get("name").and_then(Json::as_str).unwrap();
                    let top = stacks.get_mut(&tid).and_then(Vec::pop).expect("E without B");
                    assert_eq!(top, name, "mismatched B/E pair on tid {tid}");
                }
                "M" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(b_count, log.spans.len());
        assert!(stacks.values().all(Vec::is_empty), "unclosed B events: {stacks:?}");
    }

    #[test]
    fn report_contains_every_section() {
        let log = sample_log();
        let out = report(&log, None, &ReportOptions::default());
        for needle in [
            "# pdn run report",
            "- command: `simulate` — 0.0010 s, ok",
            "## Stage tree",
            "cli.stage.build_grid",
            "## Distributions",
            "sparse.cg.iterations_per_solve",
            "## Training",
            "| train loss | 0.5000 | 0.2500 | 0.2500 |",
            "| val loss | 0.6000 | 0.4000 | 0.4000 |",
            "2 epochs recorded.",
            "ui.perfetto.dev",
        ] {
            assert!(out.markdown.contains(needle), "missing {needle:?} in:\n{}", out.markdown);
        }
        assert!(out.regressions.is_empty());
    }

    #[test]
    fn speedup_table_joins_the_eval_spans_of_each_evaluation() {
        // D1 evaluated twice on one preparation (as Fig 6 and the
        // ablations do), D2 once; each `eval.predict_test` closes after
        // its own `eval.train`.
        let text = r#"{"ts_us":1,"kind":"span","name":"eval.prepare","span":1,"parent":null,"thread":1,"start_us":0,"dur_us":9,"ok":true,"design":"D1","vectors":10,"sim_seconds_per_vector":1.0}
{"ts_us":2,"kind":"span","name":"eval.train","span":2,"parent":null,"thread":1,"start_us":0,"dur_us":2000000,"ok":true,"design":"D1"}
{"ts_us":3,"kind":"span","name":"eval.predict_test","span":3,"parent":null,"thread":1,"start_us":0,"dur_us":40000,"ok":true,"design":"D1","test_vectors":4}
{"ts_us":4,"kind":"span","name":"eval.prepare","span":4,"parent":null,"thread":1,"start_us":0,"dur_us":9,"ok":true,"design":"D2","vectors":10,"sim_seconds_per_vector":0.3}
{"ts_us":5,"kind":"span","name":"eval.train","span":5,"parent":null,"thread":1,"start_us":0,"dur_us":1000000,"ok":true,"design":"D2"}
{"ts_us":6,"kind":"span","name":"eval.predict_test","span":6,"parent":null,"thread":1,"start_us":0,"dur_us":30000,"ok":true,"design":"D2","test_vectors":3}
{"ts_us":7,"kind":"span","name":"eval.train","span":7,"parent":null,"thread":1,"start_us":0,"dur_us":3000000,"ok":true,"design":"D1"}
{"ts_us":8,"kind":"span","name":"eval.predict_test","span":8,"parent":null,"thread":1,"start_us":0,"dur_us":80000,"ok":true,"design":"D1","test_vectors":4}
"#;
        let out = report(&TelemetryLog::parse_str(text).unwrap(), None, &ReportOptions::default());
        let rows = "| D1 | 2.0000 | 1.0000 | 0.0100 | 100.0000× |\n\
                    | D2 | 1.0000 | 0.3000 | 0.0100 | 30.0000× |\n\
                    | D1 | 3.0000 | 1.0000 | 0.0200 | 50.0000× |\n";
        assert!(out.markdown.contains(rows), "{}", out.markdown);
        // A sink without eval spans has no speedup table.
        let plain = report(&sample_log(), None, &ReportOptions::default());
        assert!(!plain.markdown.contains("## Simulate vs predict"), "{}", plain.markdown);
    }

    #[test]
    fn report_serving_section_from_serve_sink() {
        // A serve-origin sink: request/error/shed counters, one batcher's
        // width/queue histograms and its batch-span histogram, and two
        // route-span histograms with an error counter for one of them.
        // The batches and requests come from the width histogram.
        let text = r#"{"ts_us":10,"kind":"counter","name":"serve.requests","value":12}
{"ts_us":10,"kind":"counter","name":"serve.errors","value":2}
{"ts_us":10,"kind":"counter","name":"serve.rejected_total","value":3}
{"ts_us":10,"kind":"histogram","name":"serve.predict.batch_width","count":4,"sum":9,"min":1,"max":4,"p50":2,"p95":4,"p99":4}
{"ts_us":10,"kind":"histogram","name":"serve.predict.queue_wait_seconds","count":9,"sum":0.09,"min":0.001,"max":0.02,"p50":0.01,"p95":0.019,"p99":0.02}
{"ts_us":10,"kind":"histogram","name":"serve.predict.batch","count":4,"sum":0.4,"min":0.05,"max":0.2,"p50":0.1,"p95":0.19,"p99":0.2}
{"ts_us":10,"kind":"histogram","name":"serve.route.predict","count":9,"sum":0.9,"min":0.05,"max":0.3,"p50":0.1,"p95":0.25,"p99":0.3}
{"ts_us":10,"kind":"histogram","name":"serve.route.healthz","count":3,"sum":0.003,"min":0.0005,"max":0.002,"p50":0.001,"p95":0.002,"p99":0.002}
{"ts_us":10,"kind":"counter","name":"serve.route.predict.errors","value":2}
"#;
        let run = TelemetryLog::parse_str(text).unwrap();
        let out = report(&run, None, &ReportOptions::default());
        for needle in [
            "## Serving",
            "12 requests, 2 errors, 3 shed by admission control.",
            "| batcher | batches | requests | width mean | width max |",
            "| serve.predict | 4 | 9 | 2.2500 | 4.0000 | 0.0100 | 0.0200 | 0.1000 | 0.2000 |",
            "| route | requests | errors |",
            "| predict | 9 | 2 | 0.1000 | 0.2500 | 0.3000 | 0.3000 |",
            "| healthz | 3 | 0 |",
        ] {
            assert!(out.markdown.contains(needle), "missing {needle:?} in:\n{}", out.markdown);
        }

        // A non-serve sink must not grow a Serving section.
        let offline = report(&sample_log(), None, &ReportOptions::default());
        assert!(!offline.markdown.contains("## Serving"), "{}", offline.markdown);
    }

    #[test]
    fn diff_flags_slow_stages_and_spares_fast_ones() {
        let base = sample_log();
        // Same shape, but train.epoch 3× slower (and large enough to matter).
        let run_text = r#"{"ts_us":400,"kind":"span","name":"cli.stage.build_grid","span":2,"parent":1,"thread":1,"start_us":100,"dur_us":300,"ok":true}
{"ts_us":2000,"kind":"span","name":"train.epoch","span":3,"parent":1,"thread":1,"start_us":450,"dur_us":1590000,"ok":true}
{"ts_us":2500,"kind":"span","name":"cli.simulate","span":1,"parent":null,"thread":1,"start_us":50,"dur_us":1800000,"ok":true}
"#;
        let run = TelemetryLog::parse_str(run_text).unwrap();
        let out = report(&run, Some(&base), &ReportOptions::default());
        assert!(out.markdown.contains("## Regression vs baseline"));
        let wall_clock = "Command wall clock: 0.0010 s → 1.8000 s";
        assert!(out.markdown.contains(wall_clock), "{}", out.markdown);
        let paths: Vec<&str> = out.regressions.iter().map(|r| r.path.as_str()).collect();
        assert!(
            paths.contains(&"cli.simulate / train.epoch"),
            "regressions: {paths:?}\n{}",
            out.markdown
        );
        // build_grid kept the same time: not flagged.
        assert!(!paths.iter().any(|p| p.contains("build_grid")));
        for r in &out.regressions {
            assert!(r.ratio > 2.0);
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        let err = TelemetryLog::parse_str("{\"kind\":\"span\",\"name\":\"x\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = TelemetryLog::parse_str("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn load_tolerates_torn_final_line_only() {
        let dir = std::env::temp_dir()
            .join(format!("pdn_tracereport_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.jsonl");

        // A good file with the final line torn mid-record, as a killed
        // process leaves behind.
        let good = "{\"ts_us\":1,\"kind\":\"counter\",\"name\":\"a\",\"value\":1}\n\
                    {\"ts_us\":2,\"kind\":\"counter\",\"name\":\"b\",\"value\":2}\n";
        let torn = format!("{good}{{\"ts_us\":3,\"kind\":\"cou");
        std::fs::write(&path, &torn).unwrap();
        let log = TelemetryLog::load(&path).unwrap();
        assert_eq!(log.counters["a"], 1);
        assert_eq!(log.counters["b"], 2);
        assert_eq!(log.counters.len(), 2);

        // Corruption *before* the final line is still an error.
        let mid = format!("garbage\n{good}");
        std::fs::write(&path, &mid).unwrap();
        assert!(TelemetryLog::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strip_last_line_shapes() {
        assert_eq!(strip_last_nonempty_line(""), "");
        assert_eq!(strip_last_nonempty_line("one"), "");
        assert_eq!(strip_last_nonempty_line("one\n"), "");
        assert_eq!(strip_last_nonempty_line("one\ntwo"), "one\n");
        assert_eq!(strip_last_nonempty_line("one\ntwo\n\n"), "one\n");
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[], 10), "");
        let flat = sparkline(&[1.0, 1.0, 1.0], 10);
        assert_eq!(flat.chars().count(), 3);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0], 10);
        let chars: Vec<char> = ramp.chars().collect();
        assert_eq!(chars.first(), Some(&'▁'));
        assert_eq!(chars.last(), Some(&'█'));
        // Downsampling caps the width.
        assert!(sparkline(&vec![0.5; 500], 60).chars().count() <= 60);
    }
}
