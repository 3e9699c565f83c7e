//! Integration coverage for hierarchical trace spans and the run-analysis
//! pipeline: cross-thread span nesting in the JSONL sink, the Chrome-trace
//! exporter round trip, and the `pdn report` / `--trace` CLI end to end
//! (the last two drive the real binary in a subprocess), plus the CLI's
//! up-front rejection of bad flags, bad values and mismatched vectors.
//!
//! Telemetry is process-global, so the in-process tests serialize on
//! [`TEST_LOCK`]; this binary runs in its own process, keeping the global
//! state isolated from the rest of the suite.

use pdn_wnv::core::telemetry;
use pdn_wnv::eval::jsonl::{self, Json};
use pdn_wnv::eval::tracereport::TelemetryLog;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_path(stem: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdn-tracing-{}-{stem}", std::process::id()))
}

/// Records a root span on the calling thread plus nested spans on worker
/// threads, and returns the parsed sink.
fn record_cross_thread_spans(stem: &str) -> TelemetryLog {
    telemetry::reset();
    let path = temp_path(stem);
    let _ = std::fs::remove_file(&path);
    telemetry::enable_with_sink(&path).expect("sink file");
    {
        let _root = telemetry::span("it.root");
        let handles: Vec<_> = (0..4u64)
            .map(|w| {
                std::thread::spawn(move || {
                    let mut outer = telemetry::span("it.worker");
                    outer.field("worker", w);
                    for i in 0..8u64 {
                        let mut inner = telemetry::span("it.inner");
                        inner.field("i", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
    }
    telemetry::flush();
    let text = std::fs::read_to_string(&path).expect("read sink");
    telemetry::reset();
    let _ = std::fs::remove_file(&path);
    TelemetryLog::parse_str(&text).expect("every sink line parses")
}

#[test]
fn spans_nest_consistently_across_worker_threads() {
    let _guard = lock();
    let log = record_cross_thread_spans("nest.jsonl");

    let roots: Vec<_> = log.spans.iter().filter(|s| s.name == "it.root").collect();
    let workers: Vec<_> = log.spans.iter().filter(|s| s.name == "it.worker").collect();
    let inners: Vec<_> = log.spans.iter().filter(|s| s.name == "it.inner").collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(workers.len(), 4);
    assert_eq!(inners.len(), 32);

    // The span stack is per-thread: worker spans are roots on their own
    // threads (no cross-thread parent), on four distinct thread tags, none
    // of them the main thread's.
    let mut worker_threads: Vec<u64> = workers.iter().map(|s| s.thread).collect();
    worker_threads.sort_unstable();
    worker_threads.dedup();
    assert_eq!(worker_threads.len(), 4, "worker thread tags collide");
    for w in &workers {
        assert_eq!(w.parent, None, "worker span leaked a cross-thread parent");
        assert_ne!(w.thread, roots[0].thread);
    }

    // Every inner span is parented to the worker span of its own thread,
    // and nests inside it in time.
    let by_id: BTreeMap<u64, &_> = workers.iter().map(|w| (w.id, *w)).collect();
    for inner in &inners {
        let parent = inner.parent.and_then(|p| by_id.get(&p)).unwrap_or_else(|| {
            panic!("inner span {} not parented to a worker span", inner.id)
        });
        assert_eq!(inner.thread, parent.thread, "parent link crossed threads");
        // start_us is reconstructed as end − duration, so each edge can be
        // off by a microsecond of truncation; allow that much slack.
        assert!(inner.start_us + 2 >= parent.start_us);
        assert!(inner.start_us + inner.dur_us <= parent.start_us + parent.dur_us + 2);
        assert!(inner.fields.get("i").and_then(Json::as_u64).is_some());
    }
}

#[test]
fn chrome_trace_round_trip_balances_begin_end_per_thread() {
    let _guard = lock();
    let log = record_cross_thread_spans("trace.jsonl");
    let trace = log.chrome_trace();

    let parsed = jsonl::parse(&trace).expect("trace.json is a single valid JSON document");
    let events = match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("missing traceEvents array: {other:?}"),
    };
    // Walk the event stream keeping a B/E stack per tid: every E must
    // close the most recent B of the same name, and nothing stays open.
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut begins = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_u64).expect("tid");
        match ph {
            "B" => {
                begins += 1;
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                stacks.entry(tid).or_default().push(name.to_string());
            }
            "E" => {
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                let top = stacks.get_mut(&tid).and_then(Vec::pop);
                assert_eq!(top.as_deref(), Some(name), "unbalanced E on tid {tid}");
            }
            "M" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(begins, log.spans.len(), "one B/E pair per span");
    assert!(stacks.values().all(Vec::is_empty), "unclosed B events: {stacks:?}");
}

#[test]
fn cli_simulate_then_report_round_trip() {
    let exe = env!("CARGO_BIN_EXE_pdn");
    let run_jsonl = temp_path("cli-run.jsonl");
    let report_md = temp_path("cli-report.md");
    let trace_json = temp_path("cli-trace.json");
    for p in [&run_jsonl, &report_md, &trace_json] {
        let _ = std::fs::remove_file(p);
    }

    let started = std::time::Instant::now();
    let status = Command::new(exe)
        .args(["simulate", "--design", "D1", "--steps", "6", "--seed", "3"])
        .arg("--telemetry")
        .arg(&run_jsonl)
        .output()
        .expect("run pdn simulate");
    let wall = started.elapsed().as_secs_f64();
    assert!(status.status.success(), "simulate failed: {status:?}");

    // The root `cli.simulate` span carries the command and covers most of
    // the process wall clock measured here: all of it but process start-up
    // and exit (allow generous scheduling slack).
    let log = TelemetryLog::load(&run_jsonl).expect("parse run sink");
    let (command, seconds, ok) = log.command().expect("root cli.simulate span");
    assert_eq!(command, "simulate");
    assert!(ok);
    assert!(
        seconds > 0.0 && seconds <= wall && wall - seconds <= 0.5 + 0.5 * wall,
        "root span {seconds:.4}s vs process wall clock {wall:.4}s"
    );
    assert!(
        log.spans.iter().any(|s| s.name == "cli.stage.simulate"),
        "stage spans missing from the sink"
    );
    assert!(log.histograms.contains_key("sparse.cg.iterations_per_solve"));
    // Every span name's histogram counts its span records.
    for span in &log.spans {
        let records = log.spans.iter().filter(|s| s.name == span.name).count() as u64;
        assert_eq!(log.histograms.get(&span.name).map(|h| h.count), Some(records), "{}", span.name);
    }

    // `pdn report` against itself as baseline: report + trace written,
    // no regression flagged even under --strict.
    let status = Command::new(exe)
        .arg("report")
        .arg(&run_jsonl)
        .arg(&run_jsonl)
        .arg("--out")
        .arg(&report_md)
        .arg("--trace")
        .arg(&trace_json)
        .args(["--strict", "true"])
        .output()
        .expect("run pdn report");
    assert!(status.status.success(), "report failed: {status:?}");

    let md = std::fs::read_to_string(&report_md).expect("report.md");
    for needle in ["# pdn run report", "## Stage tree", "cli.simulate", "## Distributions"] {
        assert!(md.contains(needle), "report missing {needle:?}:\n{md}");
    }

    let trace = std::fs::read_to_string(&trace_json).expect("trace.json");
    let parsed = jsonl::parse(&trace).expect("valid Chrome-trace JSON");
    let events = match parsed.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("missing traceEvents array: {other:?}"),
    };
    let b = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("B")).count();
    let e = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("E")).count();
    assert_eq!(b, e, "unbalanced B/E events");
    assert_eq!(b, log.spans.len());

    for p in [&run_jsonl, &report_md, &trace_json] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn cli_rejects_unknown_flags_by_name() {
    // A misspelt flag, and one that no longer exists, must fail up front
    // instead of running with the flag's default.
    let exe = env!("CARGO_BIN_EXE_pdn");
    let model = temp_path("no-such-model.pdn");
    let model = model.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], &str); 2] = [
        (&["simulate", "--design", "D1", "--sovler", "direct"], "--sovler"),
        (&["predict", "--model", model, "--design", "D1", "--precision", "int8"], "--precision"),
    ];
    for (args, flag) in cases {
        let out = Command::new(exe).args(args).output().expect("run pdn");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{args:?}: {stderr}");
    }
}

#[test]
fn cli_rejects_a_vector_at_another_time_step() {
    // D1 tiny steps at 10 ps. A vector CSV whose `dt_ps=` header says
    // 2.5 ps must fail both simulate and predict up front, naming both time
    // steps and the header, instead of being run at 10 ps.
    use pdn_wnv::features::normalize::Normalizer;
    use pdn_wnv::grid::design::{DesignPreset, DesignScale};
    use pdn_wnv::model::model::{ModelConfig, Predictor, WnvModel};
    use pdn_wnv::nn::tensor::Tensor;
    let exe = env!("CARGO_BIN_EXE_pdn");
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).expect("grid");
    let (bumps, tiles) = (grid.bumps().len(), grid.tile_grid());
    let vector = temp_path("dt-2p5.csv");
    let row = vec!["1e-3"; grid.loads().len()].join(",");
    std::fs::write(&vector, format!("# pdn-wnv test-vector, dt_ps=2.5\n{row}\n{row}\n"))
        .expect("write vector");
    let model = temp_path("dt-model.pdn");
    Predictor::from_parts(
        WnvModel::new(bumps, ModelConfig { c1: 1, c2: 1, c3: 1 }, 1),
        Tensor::zeros(&[bumps, tiles.rows(), tiles.cols()]),
        Normalizer::with_scale(1.0),
        Normalizer::with_scale(1.0),
        None,
    )
    .save_to(&model)
    .expect("write bundle");
    let (vector_arg, model_arg) = (vector.to_str().expect("utf-8"), model.to_str().expect("utf-8"));
    let design: &[&str] = &["--design", "D1", "--scale", "tiny", "--vector", vector_arg];
    for command in [vec!["simulate"], vec!["predict", "--model", model_arg]] {
        let args = [&command[..], design].concat();
        let out = Command::new(exe).args(&args).output().expect("run pdn");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for want in ["time step is 2.5 ps", "steps at 10 ps", "dt_ps="] {
            assert!(stderr.contains(want), "{args:?}: {stderr}");
        }
    }
    for p in [vector, model] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn cli_refuses_counts_and_cache_bounds_it_cannot_honour() {
    // Each bad value must fail up front with an error line that names its
    // flag, without a panic, and leave the planted cache entries in place:
    // a NaN or negative gc bound would evict every entry, an infinite age
    // overflows `Duration`, and a count that leaves nothing to simulate or
    // test would fail deep in the pipeline.
    use pdn_wnv::core::map::TileMap;
    use pdn_wnv::core::units::Volts;
    use pdn_wnv::sim::cache::{CacheKey, WnvCache};
    use pdn_wnv::sim::transient::TransientStats;
    use pdn_wnv::sim::wnv::NoiseReport;
    let exe = env!("CARGO_BIN_EXE_pdn");
    let dir = temp_path("gc-bounds");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = WnvCache::open(&dir).expect("cache dir");
    let report = NoiseReport {
        worst_noise: TileMap::from_vec(1, 2, vec![0.01, 0.02]).expect("map"),
        max_noise: Volts(0.02),
        elapsed: std::time::Duration::from_millis(1),
        stats: TransientStats { steps: 1, cg_iterations: 0, worst_residual: 0.0 },
    };
    for k in [1, 2] {
        cache.store(CacheKey(k), &report).expect("plant an entry");
    }
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let gc = |flag, value| vec!["cache", "gc", "--cache-dir", dir_arg, flag, value];
    let eval = |flag, value| {
        let mut args = vec!["eval", "--design", "D1", "--steps", "20", "--epochs", "1"];
        args.extend(["--cache-dir", "none", flag, value]);
        args
    };
    let cases = [
        (gc("--max-age-days", "inf"), "--max-age-days"),
        (gc("--max-age-days", "1e300"), "--max-age-days"),
        (gc("--max-age-days", "nan"), "--max-age-days"),
        (gc("--max-mb", "nan"), "--max-mb"),
        (gc("--max-mb", "-3"), "--max-mb"),
        (vec!["simulate", "--design", "D1", "--steps", "0"], "--steps"),
        (eval("--steps", "0"), "--steps"),
        (eval("--vectors", "1"), "--vectors"),
    ];
    for (args, flag) in cases {
        let out = Command::new(exe).args(&args).output().expect("run pdn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let error = stderr.lines().find(|l| l.starts_with("error:")).unwrap_or_default();
        assert!(error.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert_eq!(cache.stats().expect("cache stats").entries, 2, "{args:?} evicted entries");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_report_strict_fails_on_a_regressed_stage() {
    let exe = env!("CARGO_BIN_EXE_pdn");
    let base_path = temp_path("diff-base.jsonl");
    let run_path = temp_path("diff-run.jsonl");

    // Identical shape, but the simulate stage is 3x slower in the run.
    let base = r#"{"ts_us":900000,"kind":"span","name":"cli.stage.simulate","span":2,"parent":1,"thread":1,"start_us":100,"dur_us":899900,"ok":true}
{"ts_us":1000000,"kind":"span","name":"cli.simulate","span":1,"parent":null,"thread":1,"start_us":0,"dur_us":1000000,"ok":true}
"#;
    let run = r#"{"ts_us":2700000,"kind":"span","name":"cli.stage.simulate","span":2,"parent":1,"thread":1,"start_us":100,"dur_us":2699900,"ok":true}
{"ts_us":2800000,"kind":"span","name":"cli.simulate","span":1,"parent":null,"thread":1,"start_us":0,"dur_us":2800000,"ok":true}
"#;
    std::fs::write(&base_path, base).expect("write baseline");
    std::fs::write(&run_path, run).expect("write run");

    // Without --strict the regression is reported but the exit is clean…
    let out = Command::new(exe)
        .arg("report")
        .arg(&run_path)
        .arg(&base_path)
        .output()
        .expect("run pdn report");
    assert!(out.status.success(), "non-strict report failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("⚠ slower"), "diff table did not flag the stage:\n{stdout}");

    // …with --strict it becomes a non-zero exit naming the stage.
    let out = Command::new(exe)
        .arg("report")
        .arg(&run_path)
        .arg(&base_path)
        .args(["--strict", "true"])
        .output()
        .expect("run pdn report --strict");
    assert!(!out.status.success(), "strict report should fail on a 3x stage");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cli.stage.simulate"), "stderr: {stderr}");

    for p in [&base_path, &run_path] {
        let _ = std::fs::remove_file(p);
    }
}
