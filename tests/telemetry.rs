//! Integration coverage for the telemetry subsystem: disabled-mode
//! no-op behaviour, the JSON-lines sink schema, and agreement between the
//! solver's own statistics and the counters the hot paths record.
//!
//! Telemetry is process-global, so every test serializes on [`TEST_LOCK`];
//! this binary runs in its own process, keeping the global state isolated
//! from the rest of the suite.

use pdn_wnv::core::telemetry;
use pdn_wnv::grid::design::{DesignPreset, DesignScale};
use pdn_wnv::sim::transient::TransientSimulator;
use pdn_wnv::sim::wnv::{WnvRunner, DEFAULT_BATCH};
use pdn_wnv::vectors::generator::{GeneratorConfig, VectorGenerator};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn disabled_telemetry_is_a_complete_no_op() {
    let _guard = lock();
    telemetry::reset();
    assert!(!telemetry::enabled());

    // None of these may record anything (or panic) while disabled.
    telemetry::counter_add("it.counter", 3);
    telemetry::gauge_set("it.gauge", 1.5);
    telemetry::observe("it.histogram", 0.25);
    telemetry::event("it.event", &[("k", 1u64.into())]);
    {
        let _t = telemetry::timed("it.timer");
    }

    telemetry::enable();
    assert_eq!(telemetry::counter_value("it.counter"), 0);
    assert_eq!(telemetry::gauge_value("it.gauge"), None);
    assert!(telemetry::histogram_summary("it.histogram").is_none());
    assert!(telemetry::histogram_summary("it.timer").is_none());
    telemetry::reset();
}

#[test]
fn disabled_hot_path_overhead_is_negligible() {
    let _guard = lock();
    telemetry::reset();

    // The entire disabled cost is one relaxed atomic load; a million guarded
    // counter bumps must complete in far under a second even on a loaded CI
    // box. This is a smoke bound, not a microbenchmark.
    let start = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        telemetry::counter_add("it.overhead", i);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "1e6 disabled counter_add calls took {:?}",
        start.elapsed()
    );

    // Disabled spans are equally inert: no allocation, no clock read, no
    // thread-local traffic — the same one-atomic-load bound applies with
    // the span instrumentation compiled in.
    let start = std::time::Instant::now();
    for _ in 0..1_000_000u64 {
        let _span = telemetry::span("it.overhead.span");
    }
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "1e6 disabled span guards took {:?}",
        start.elapsed()
    );
}

#[test]
fn prometheus_exposition_matches_the_live_registry() {
    let _guard = lock();
    telemetry::reset();

    // Disabled exporter: empty output, no side effects.
    assert!(telemetry::prometheus_text().is_empty());

    telemetry::enable();
    telemetry::counter_add("it.prom.requests", 11);
    telemetry::gauge_set("it.prom.qps", 2.5);
    for v in [0.001, 0.004, 0.004, 2.0] {
        telemetry::observe("it.prom.latency_seconds", v);
    }
    let text = telemetry::prometheus_text();
    telemetry::reset();

    // The exposition agrees with the public registry accessors: the
    // counter sample carries the same value counter_value would report,
    // and the histogram _count matches the number of observations.
    assert!(text.contains("# TYPE it_prom_requests_total counter"), "{text}");
    assert!(text.contains("it_prom_requests_total 11"), "{text}");
    assert!(text.contains("# TYPE it_prom_qps gauge"), "{text}");
    assert!(text.contains("it_prom_qps 2.5e0"), "{text}");
    assert!(text.contains("# TYPE it_prom_latency_seconds histogram"), "{text}");
    assert!(text.contains("it_prom_latency_seconds_bucket{le=\"+Inf\"} 4"), "{text}");
    assert!(text.contains("it_prom_latency_seconds_count 4"), "{text}");

    // Structural invariant every scraper relies on: within a family,
    // bucket counts are cumulative (monotone non-decreasing in le).
    let counts: Vec<u64> = text
        .lines()
        .filter_map(|l| l.strip_prefix("it_prom_latency_seconds_bucket{le=\""))
        .map(|rest| rest.split_once("\"} ").unwrap().1.parse().unwrap())
        .collect();
    assert!(counts.len() >= 2, "{text}");
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "non-cumulative: {counts:?}");
}

#[test]
fn jsonl_sink_emits_one_well_formed_record_per_line() {
    let _guard = lock();
    telemetry::reset();
    let path = std::env::temp_dir().join(format!("pdn-telemetry-it-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    telemetry::enable_with_sink(&path).expect("sink file");

    telemetry::event("it.run", &[("design", "D1".into()), ("vectors", 4u64.into())]);
    telemetry::counter_add("it.solves", 7);
    telemetry::gauge_set("it.lr", 2.5e-3);
    telemetry::observe("it.residual", 1e-9);
    telemetry::observe("it.residual", f64::NAN); // non-finite → null, not bare NaN
    telemetry::write_summary_records();
    telemetry::flush();

    let text = std::fs::read_to_string(&path).expect("read sink");
    telemetry::reset();
    let _ = std::fs::remove_file(&path);

    let lines: Vec<&str> = text.lines().collect();
    // 1 event + summary records for 1 counter, 1 gauge, 1 histogram.
    assert_eq!(lines.len(), 4, "sink contents:\n{text}");
    for line in &lines {
        // Schema invariants every consumer relies on: one JSON object per
        // line, leading ts_us, a kind tag, and a name.
        assert!(line.starts_with("{\"ts_us\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"kind\":\""), "bad line: {line}");
        assert!(line.contains("\"name\":\""), "bad line: {line}");
        assert!(!line.contains("NaN"), "bare NaN leaked into JSON: {line}");
    }
    assert!(lines[0].contains("\"kind\":\"event\"") && lines[0].contains("\"design\":\"D1\""));
    assert!(text.contains("\"kind\":\"counter\"") && text.contains("\"value\":7"));
    assert!(text.contains("\"kind\":\"gauge\""));
    assert!(text.contains("\"kind\":\"histogram\"") && text.contains("\"count\":2"));
}

#[test]
fn jsonl_sink_lines_never_tear_under_concurrent_writers() {
    let _guard = lock();
    telemetry::reset();
    let path = std::env::temp_dir().join(format!("pdn-telemetry-mt-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    telemetry::enable_with_sink(&path).expect("sink file");

    // Hammer the sink from many threads at once with every record shape a
    // server produces: events with string payloads (the worst case for
    // interleaving — long, variable-length lines) and field-carrying spans.
    // The serve daemon writes from request workers and batcher threads
    // concurrently, so a torn line here would corrupt real traces.
    const THREADS: usize = 8;
    const PER_THREAD: usize = 250;
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                let payload = format!("thread-{t}-{}", "x".repeat(40 + t * 17));
                for i in 0..PER_THREAD {
                    telemetry::event(
                        "mt.event",
                        &[("thread", (t as u64).into()), ("i", (i as u64).into()),
                          ("payload", payload.as_str().into())],
                    );
                    let mut span = telemetry::span("mt.span");
                    span.field("thread", t as u64);
                    span.field("i", i as u64);
                    telemetry::counter_add("mt.counter", 1);
                    telemetry::observe("mt.histogram", i as f64);
                }
            });
        }
    });
    telemetry::write_summary_records();
    telemetry::flush();

    let text = std::fs::read_to_string(&path).expect("read sink");
    telemetry::reset();
    let _ = std::fs::remove_file(&path);

    // Every single line must be a complete, standalone JSON object — the
    // parser rejects torn or interleaved fragments outright.
    let mut events = 0usize;
    let mut spans = 0usize;
    for line in text.lines() {
        let parsed = pdn_wnv::eval::jsonl::parse(line)
            .unwrap_or_else(|e| panic!("torn or malformed sink line {line:?}: {e}"));
        assert!(parsed.get("ts_us").is_some(), "missing ts_us: {line}");
        match parsed.get("kind").and_then(|k| k.as_str()) {
            Some("event") if parsed.get("name").unwrap().as_str() == Some("mt.event") => {
                assert!(
                    parsed.get("payload").unwrap().as_str().unwrap().starts_with("thread-"),
                    "event payload torn: {line}"
                );
                events += 1;
            }
            Some("span") if parsed.get("name").unwrap().as_str() == Some("mt.span") => {
                spans += 1;
            }
            _ => {}
        }
    }
    assert_eq!(events, THREADS * PER_THREAD, "every event line intact and present");
    assert_eq!(spans, THREADS * PER_THREAD, "every span line intact and present");
    assert!(
        text.contains("\"name\":\"mt.counter\"") && text.contains("\"value\":2000"),
        "aggregated counter summary missing:\n{}",
        &text[..text.len().min(2000)]
    );
}

#[test]
fn solver_counters_match_transient_stats() {
    let _guard = lock();
    telemetry::reset();
    telemetry::enable();

    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(11).expect("grid");
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let vector = gen.generate(0);
    let sim = TransientSimulator::new(&grid).expect("sim");
    let stats = sim.run_with(&vector, |_, _| {}).expect("run");

    // The instrumentation must agree exactly with the stats the solver
    // itself returns — drift here means a hot path stopped recording.
    assert_eq!(telemetry::counter_value("sim.transient.runs"), 1);
    assert_eq!(telemetry::counter_value("sim.transient.steps"), stats.steps as u64);
    assert_eq!(
        telemetry::counter_value("sim.transient.cg_iterations"),
        stats.cg_iterations as u64
    );
    // Per-step timing saw every step, and the preconditioner factored at
    // least once (DC solve + transient share the sparse layer).
    let steps = telemetry::histogram_summary("sim.transient.step_seconds").expect("timings");
    assert_eq!(steps.count, stats.steps as u64);
    assert!(telemetry::counter_value("sparse.ichol.factorizations") >= 1);
    assert!(telemetry::counter_value("sparse.cg.solves") >= stats.steps as u64);
    telemetry::reset();
}

#[test]
fn lockstep_cg_columns_are_counted_as_solves() {
    let _guard = lock();
    telemetry::reset();
    telemetry::enable();

    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(11).expect("grid");
    let steps = 20;
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps, ..Default::default() });
    let vectors = gen.generate_group(DEFAULT_BATCH, 3);
    let runner = WnvRunner::new(&grid).expect("runner");
    runner.run_group(&vectors).expect("group");

    // One lockstep batch: each vector's DC solve plus one CG column per
    // step, every column counted as a solve under the same names.
    let solves = (DEFAULT_BATCH * (steps + 1)) as u64;
    assert_eq!(telemetry::counter_value("sparse.cg.solves"), solves);
    let per_solve =
        telemetry::histogram_summary("sparse.cg.iterations_per_solve").expect("iterations");
    assert_eq!(per_solve.count, solves);
    assert_eq!(per_solve.sum, telemetry::counter_value("sparse.cg.iterations") as f64);
    telemetry::reset();
}
