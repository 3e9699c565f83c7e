//! End-to-end tests for the `pdn serve` daemon: real TCP sockets, raw
//! HTTP/1.1, concurrent clients. The central claim is the bitwise one —
//! answers served through the batching daemon are identical to offline
//! [`Predictor::predict`] calls, even when requests coalesce into
//! multi-map batches — plus liveness (/healthz, /metrics), the simulate
//! path, error statuses, and the fail-fast bundle check.

use pdn_wnv::compress::temporal::TemporalCompressor;
use pdn_wnv::eval::jsonl;
use pdn_wnv::eval::serve::batcher::BatchConfig;
use pdn_wnv::eval::serve::{self, ServeConfig};
use pdn_wnv::features::normalize::Normalizer;
use pdn_wnv::grid::build::PowerGrid;
use pdn_wnv::grid::design::{DesignPreset, DesignScale};
use pdn_wnv::model::model::{ModelConfig, Predictor, WnvModel};
use pdn_wnv::nn::tensor::Tensor;
use pdn_wnv::sim::wnv::WnvRunner;
use pdn_wnv::vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_wnv::vectors::vector::TestVector;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tiny_grid() -> PowerGrid {
    DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap()
}

/// A deterministic bundle for `grid`: same `seed` → bitwise-identical
/// predictors, which lets one instance serve and a twin act as the offline
/// reference.
fn fixture_predictor(grid: &PowerGrid, seed: u64) -> Predictor {
    fixture_predictor_with(grid, seed, None)
}

/// [`fixture_predictor`] with a temporal compressor.
fn fixture_predictor_with(
    grid: &PowerGrid,
    seed: u64,
    compressor: Option<TemporalCompressor>,
) -> Predictor {
    let tiles = grid.tile_grid();
    let (rows, cols) = (tiles.rows(), tiles.cols());
    let bumps = grid.bumps().len();
    let distance = Tensor::from_fn3(bumps, rows, cols, |b, r, c| {
        ((b * 13 + r * 5 + c) % 17) as f32 * 0.06
    });
    Predictor::from_parts(
        WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, seed),
        distance,
        Normalizer::with_scale(2.0),
        Normalizer::with_scale(3.0),
        compressor,
    )
}

fn vectors_for(grid: &PowerGrid, count: usize, seed: u64) -> Vec<TestVector> {
    let gen = VectorGenerator::new(grid, GeneratorConfig { steps: 16, ..Default::default() });
    gen.generate_group(count, seed)
}

/// Sends one request (with optional extra request headers) and returns
/// `(status, response_headers, body)`; header names come back lowercased.
/// The server always closes the connection after answering, so the client
/// reads to EOF.
fn http_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n", body.len())
        .unwrap();
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n").unwrap();
    }
    stream.write_all(b"\r\n").unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {raw:?}"));
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// [`http_full`] without extra headers, dropping the response headers.
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let (status, _, body) = http_full(addr, method, path, &[], body);
    (status, body)
}

fn csv_bytes(vector: &TestVector) -> Vec<u8> {
    let mut out = Vec::new();
    pdn_wnv::vectors::io::write_csv(vector, &mut out).unwrap();
    out
}

fn map_field(parsed: &jsonl::Json) -> Vec<f64> {
    parsed
        .get("map")
        .and_then(|m| m.as_array())
        .expect("map array")
        .iter()
        .map(|v| v.as_f64().expect("map entry is a number"))
        .collect()
}

#[test]
fn concurrent_predicts_are_bitwise_identical_to_offline_and_coalesce() {
    let grid = tiny_grid();
    let mut offline = fixture_predictor(&grid, 9);
    let served = fixture_predictor(&grid, 9);
    let runner = WnvRunner::new(&grid).unwrap();
    let vectors = vectors_for(&grid, 6, 33);
    let expected: Vec<Vec<f64>> =
        vectors.iter().map(|v| offline.predict(&grid, v).as_slice().to_vec()).collect();

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: vectors.len(),
        // A wide-open window so simultaneous clients must share a batch.
        predict_batch: BatchConfig { max_batch: 8, max_wait: Duration::from_millis(300) },
        ..ServeConfig::default()
    };
    let server = serve::serve(&cfg, "D1-tiny", grid.clone(), served, runner, None).unwrap();
    let addr = server.local_addr();

    // Up to a few rounds: batch formation is timing-dependent, and the
    // barrier makes coalescing overwhelmingly likely per round, not certain.
    for round in 0..5 {
        let barrier = Arc::new(Barrier::new(vectors.len()));
        let answers: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = vectors
                .iter()
                .map(|vector| {
                    let barrier = Arc::clone(&barrier);
                    let body = csv_bytes(vector);
                    scope.spawn(move || {
                        barrier.wait();
                        let (status, body) = http(addr, "POST", "/predict", &body);
                        assert_eq!(status, 200, "predict failed: {body}");
                        let parsed = jsonl::parse(&body).unwrap();
                        let width = parsed.get("batch_width").unwrap().as_u64().unwrap();
                        (map_field(&parsed), width)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for ((got, _), want) in answers.iter().zip(&expected) {
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "served value differs from offline predict");
            }
        }
        if server.stats().predict.max_width() > 1 {
            assert!(
                answers.iter().any(|(_, w)| *w > 1),
                "a multi-request batch must be visible in some response"
            );
            server.shutdown();
            return;
        }
        eprintln!("round {round}: no batch wider than 1 yet, retrying");
    }
    panic!("six barrier-synchronised clients never shared a batch in 5 rounds");
}

#[test]
fn simulate_endpoint_matches_offline_runner_bitwise() {
    let grid = tiny_grid();
    let predictor = fixture_predictor(&grid, 4);
    let runner = WnvRunner::new(&grid).unwrap();
    let vector = vectors_for(&grid, 1, 55).remove(0);
    let want = WnvRunner::new(&grid).unwrap().run(&vector).unwrap();

    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = serve::serve(&cfg, "D1-tiny", grid, predictor, runner, None).unwrap();
    let (status, body) = http(server.local_addr(), "POST", "/simulate", &csv_bytes(&vector));
    assert_eq!(status, 200, "{body}");
    let parsed = jsonl::parse(&body).unwrap();
    assert_eq!(parsed.get("kind").unwrap().as_str(), Some("simulate"));
    assert_eq!(parsed.get("sim_steps").unwrap().as_u64(), Some(want.stats.steps as u64));
    let got = map_field(&parsed);
    assert_eq!(got.len(), want.worst_noise.as_slice().len());
    for (g, w) in got.iter().zip(want.worst_noise.as_slice()) {
        assert_eq!(g.to_bits(), w.to_bits(), "served simulation differs from offline run");
    }
    server.shutdown();
}

#[test]
fn health_metrics_and_error_statuses() {
    let grid = tiny_grid();
    let loads = grid.loads().len();
    let predictor = fixture_predictor(&grid, 2);
    let runner = WnvRunner::new(&grid).unwrap();
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = serve::serve(&cfg, "D1-tiny", grid, predictor, runner, None).unwrap();
    let addr = server.local_addr();

    let (status, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200);
    let health = jsonl::parse(&body).unwrap();
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(health.get("design").unwrap().as_str(), Some("D1-tiny"));
    assert_eq!(health.get("loads").unwrap().as_u64(), Some(loads as u64));

    // One real prediction so the batcher histograms exist when /metrics
    // is scraped below.
    let vector = vectors_for(&tiny_grid(), 1, 77).remove(0);
    let (status, body) = http(addr, "POST", "/predict", &csv_bytes(&vector));
    assert_eq!(status, 200, "{body}");

    // Default /metrics is Prometheus text: typed families, counters with
    // the _total suffix, cumulative histogram buckets ending at +Inf.
    let (status, headers, body) = http_full(addr, "GET", "/metrics", &[], b"");
    assert_eq!(status, 200);
    assert!(
        header(&headers, "content-type").unwrap().starts_with("text/plain; version=0.0.4"),
        "{headers:?}"
    );
    assert!(body.contains("# TYPE serve_requests_total counter"), "{body}");
    assert!(body.contains("# TYPE serve_started_total counter"), "{body}");
    assert!(body.contains("# TYPE serve_in_flight gauge"), "{body}");
    assert!(body.contains("# TYPE serve_predict_batch_width histogram"), "{body}");
    assert!(body.contains("serve_predict_batch_width_bucket{le=\"+Inf\"}"), "{body}");
    assert!(body.contains("serve_window_predict_p99_seconds"), "{body}");
    assert!(!body.contains("\"kind\""), "Prometheus text must not be JSONL: {body}");

    // The raw registry snapshot stays reachable via content negotiation.
    for (path, extra) in [
        ("/metrics?format=jsonl", &[][..]),
        ("/metrics", &[("Accept", "application/x-ndjson")][..]),
    ] {
        let (status, headers, body) = http_full(addr, "GET", path, extra, b"");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "content-type"), Some("application/x-ndjson"));
        let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
        assert!(!lines.is_empty(), "metrics snapshot must not be empty");
        for line in lines {
            jsonl::parse(line)
                .unwrap_or_else(|e| panic!("unparseable metrics line {line:?}: {e}"));
        }
        assert!(body.contains("serve.started"), "{body}");
    }

    // /statusz summarizes the rolling windows as one JSON object.
    let (status, body) = http(addr, "GET", "/statusz", b"");
    assert_eq!(status, 200);
    let statusz = jsonl::parse(&body).unwrap_or_else(|e| panic!("bad statusz {body:?}: {e}"));
    assert_eq!(statusz.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(statusz.get("window_s").unwrap().as_u64(), Some(60));
    let routes = statusz.get("routes").expect("routes object");
    let predict = routes.get("predict").expect("predict route window");
    assert!(predict.get("count").unwrap().as_u64().unwrap() >= 1, "{body}");
    assert!(predict.get("p99_s").unwrap().as_f64().unwrap() > 0.0, "{body}");

    let (status, body) = http(addr, "POST", "/predict", b"not,a,vector");
    assert_eq!(status, 400, "{body}");
    assert!(jsonl::parse(&body).unwrap().get("error").is_some());
    let (status, _) = http(addr, "GET", "/predict", b"");
    assert_eq!(status, 405);
    let (status, _) = http(addr, "GET", "/nope", b"");
    assert_eq!(status, 404);
    // A vector with the wrong number of load columns is a client error,
    // answered before anything reaches the predictor.
    let wrong = b"0.0,0.1\n0.0,0.2\n";
    let (status, body) = http(addr, "POST", "/predict", wrong);
    assert_eq!(status, 400, "{body}");

    assert!(server.stats().errors.load(std::sync::atomic::Ordering::Relaxed) >= 4);
    server.shutdown();
}

#[test]
fn a_non_finite_sample_is_a_client_error_and_predict_stays_up() {
    // A bundle with a temporal compressor, as `pdn train` writes: a NaN
    // sample that reached its sort would take the predict batcher down.
    let grid = tiny_grid();
    let predictor =
        fixture_predictor_with(&grid, 4, Some(TemporalCompressor::new(0.3, 0.05).unwrap()));
    let runner = WnvRunner::new(&grid).unwrap();
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = serve::serve(&cfg, "D1-tiny", grid, predictor, runner, None).unwrap();
    let addr = server.local_addr();

    let vector = vectors_for(&tiny_grid(), 1, 5).remove(0);
    let csv = String::from_utf8(csv_bytes(&vector)).unwrap();
    let last = csv.trim_end().rsplit_once(',').unwrap().0;
    let poisoned = format!("{last},NaN\n");
    let (status, body) = http(addr, "POST", "/predict", poisoned.as_bytes());
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("finite"), "{body}");
    let (status, body) = http(addr, "POST", "/predict", &csv_bytes(&vector));
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn request_ids_round_trip_through_header_json_and_access_log() {
    let grid = tiny_grid();
    let predictor = fixture_predictor(&grid, 6);
    let runner = WnvRunner::new(&grid).unwrap();
    let vectors = vectors_for(&grid, 6, 21);
    let log_path = std::env::temp_dir()
        .join(format!("pdn-serve-access-{}-{:p}.jsonl", std::process::id(), &grid));
    let _ = std::fs::remove_file(&log_path);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: vectors.len() + 1,
        // A wide-open window so the concurrent clients share batches and
        // the logged batch widths are interesting.
        predict_batch: BatchConfig { max_batch: 8, max_wait: Duration::from_millis(300) },
        access_log: Some(log_path.clone()),
        ..ServeConfig::default()
    };
    let server = serve::serve(&cfg, "D1-tiny", grid, predictor, runner, None).unwrap();
    let addr = server.local_addr();

    // Concurrent clients, each with its own ID.
    let barrier = Arc::new(Barrier::new(vectors.len()));
    let answers: Vec<(String, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..vectors.len())
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let body = csv_bytes(&vectors[i]);
                scope.spawn(move || {
                    barrier.wait();
                    let id = format!("client-{i}");
                    let (status, headers, body) = http_full(
                        addr,
                        "POST",
                        "/predict",
                        &[("x-pdn-request-id", id.as_str())],
                        &body,
                    );
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(
                        header(&headers, "x-pdn-request-id"),
                        Some(id.as_str()),
                        "client-supplied ID must be echoed"
                    );
                    let parsed = jsonl::parse(&body).unwrap();
                    assert_eq!(parsed.get("request_id").unwrap().as_str(), Some(id.as_str()));
                    (id, parsed.get("batch_width").unwrap().as_u64().unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // A request without an ID gets a server-minted one.
    let (status, headers, _) = http_full(addr, "GET", "/healthz", &[], b"");
    assert_eq!(status, 200);
    let minted = header(&headers, "x-pdn-request-id").expect("server-minted ID");
    assert!(!minted.is_empty() && minted.contains('-'), "{minted:?}");
    // An unusable client ID (embedded space) is replaced, not echoed.
    let (_, headers, _) = http_full(addr, "GET", "/healthz", &[("x-pdn-request-id", "a b")], b"");
    assert_ne!(header(&headers, "x-pdn-request-id"), Some("a b"));

    server.shutdown();

    // Every request appears in the access log exactly once, under its ID,
    // with the batch width its response reported.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    let mut logged = std::collections::HashMap::new();
    for line in log.lines().filter(|l| !l.is_empty()) {
        let rec = jsonl::parse(line).unwrap_or_else(|e| panic!("bad access line {line:?}: {e}"));
        let id = rec.get("id").unwrap().as_str().unwrap().to_string();
        assert!(logged.insert(id, rec).is_none(), "duplicate access-log id");
    }
    for (id, width) in &answers {
        let rec = logged.get(id).unwrap_or_else(|| panic!("no access-log line for {id}"));
        assert_eq!(rec.get("route").unwrap().as_str(), Some("predict"));
        assert_eq!(rec.get("status").unwrap().as_u64(), Some(200));
        assert_eq!(
            rec.get("batch_width").unwrap().as_u64(),
            Some(*width),
            "logged batch width must match the response JSON for {id}"
        );
        assert!(rec.get("total_us").unwrap().as_u64().unwrap() > 0);
    }
    assert!(logged.contains_key(minted), "minted ID must reach the log too");
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn max_queue_sheds_load_with_429_and_retry_after() {
    let grid = tiny_grid();
    let predictor = fixture_predictor(&grid, 8);
    let runner = WnvRunner::new(&grid).unwrap();
    let vectors = vectors_for(&grid, 6, 91);

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: vectors.len() + 1,
        // A long batch-forming window: the one admitted job holds its
        // pending slot for ~300 ms, so barrier-synchronised stragglers
        // deterministically find the queue full.
        predict_batch: BatchConfig { max_batch: 8, max_wait: Duration::from_millis(300) },
        max_queue: 1,
        ..ServeConfig::default()
    };
    let server = serve::serve(&cfg, "D1-tiny", grid, predictor, runner, None).unwrap();
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(vectors.len()));
    let statuses: Vec<(u16, Option<String>, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = vectors
            .iter()
            .map(|vector| {
                let barrier = Arc::clone(&barrier);
                let body = csv_bytes(vector);
                scope.spawn(move || {
                    barrier.wait();
                    let (status, headers, body) =
                        http_full(addr, "POST", "/predict", &[], &body);
                    (status, header(&headers, "retry-after").map(str::to_string), body)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|(s, _, _)| *s == 200).count();
    let shed = statuses.iter().filter(|(s, _, _)| *s == 429).count();
    assert_eq!(ok + shed, vectors.len(), "only 200s and 429s expected: {statuses:?}");
    assert!(ok >= 1, "at least one request must be admitted");
    assert!(shed >= 1, "a 1-deep queue must shed some of 6 simultaneous requests");
    for (status, retry_after, body) in &statuses {
        if *status == 429 {
            assert_eq!(retry_after.as_deref(), Some("1"), "429 must carry Retry-After");
            let parsed = jsonl::parse(body).unwrap();
            assert!(parsed.get("error").unwrap().as_str().unwrap().contains("queue full"));
        }
    }

    // The shed requests are visible to operators: counter + statusz.
    let (status, body) = http(addr, "GET", "/statusz", b"");
    assert_eq!(status, 200);
    let statusz = jsonl::parse(&body).unwrap();
    assert_eq!(statusz.get("max_queue").unwrap().as_u64(), Some(1));
    assert_eq!(statusz.get("rejected_total").unwrap().as_u64(), Some(shed as u64));
    server.shutdown();
}

#[test]
fn serve_refuses_a_mismatched_bundle_up_front() {
    let grid = tiny_grid();
    let tiles = grid.tile_grid();
    let bumps = grid.bumps().len();
    // Distance features for a different tile grid: one extra row.
    let wrong = Predictor::from_parts(
        WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 3),
        Tensor::filled(&[bumps, tiles.rows() + 1, tiles.cols()], 0.5),
        Normalizer::with_scale(2.0),
        Normalizer::with_scale(3.0),
        None,
    );
    let runner = WnvRunner::new(&grid).unwrap();
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let err = serve::serve(&cfg, "D1-tiny", grid, wrong, runner, None)
        .err()
        .expect("mismatched bundle must fail fast at startup");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let msg = err.to_string();
    assert!(msg.contains("tile grid"), "{msg}");
}
