//! `pdn serve`: a threaded HTTP/1.1 daemon answering WNV queries.
//!
//! The paper's pitch is prediction fast enough to sit inside a design loop;
//! this module turns the offline pieces into a long-running service:
//!
//! * **Dynamic batching** ([`batcher`]): concurrent `POST /predict`
//!   requests coalesce into multi-map batches fed through one shared
//!   [`Predictor`] via the zero-allocation `predict_batch` path, and
//!   `POST /simulate` requests group into multi-RHS transient batches so
//!   the const-K batched-solve win applies to mixed traffic. A max-wait
//!   deadline (~2 ms) bounds tail latency.
//! * **Single inference owner**: exactly one thread owns the `Predictor`
//!   (and one the simulator), so the scratch-reuse fast paths need no
//!   locking and served answers are bitwise identical to offline calls.
//! * **Cached ground truth**: simulate requests go through the
//!   [`CacheStore`](pdn_sim::cache::CacheStore) seam with single-flight
//!   deduplication — two concurrent misses on one key simulate once.
//! * **Observability**: every request is minted an ID at accept time
//!   (honoring a sane client-supplied `x-pdn-request-id`), runs under a
//!   telemetry span carrying it, rides it through the batcher's batch
//!   span, and echoes it in an `x-pdn-request-id` response header and an
//!   optional JSONL access log (`--access-log`). `GET /metrics` serves
//!   the registry in Prometheus text format by default (the raw JSONL
//!   snapshot stays behind `?format=jsonl`), `GET /statusz` summarizes
//!   rolling-window SLOs ([`window`]: per-route QPS, error rate,
//!   p50/p95/p99 over a ~60 s horizon), and `GET /healthz` stays a
//!   liveness probe. `--max-queue` sheds load with 429 + `Retry-After`
//!   when a batcher's pending depth hits the cap.
//!
//! The listener is plain `std::net::TcpListener` + a worker pool sized by
//! the existing `PDN_THREADS` plumbing; no new dependencies.

pub mod batcher;
pub mod http;
pub mod proto;
pub mod window;

use batcher::{BatchConfig, Batched, BatcherStats, Job};
use pdn_core::telemetry::{self, write_json_str};
use pdn_core::units::Seconds;
use pdn_grid::build::PowerGrid;
use pdn_model::model::Predictor;
use pdn_sim::cache::{run_group_cached, WnvCache};
use pdn_sim::wnv::{WnvRunner, DEFAULT_BATCH};
use pdn_vectors::vector::TestVector;
use proto::{error_json, MapResponse, VectorRequest};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use window::RollingWindow;

/// Server configuration. `Default` suits tests and local runs; the CLI
/// fills it from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8320`. Port `0` picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Connection-handling worker threads. `0` sizes from the process's
    /// thread width (`PDN_THREADS`), with a floor of 2 so batching is
    /// possible at all.
    pub workers: usize,
    /// Batch formation for `/predict`.
    pub predict_batch: BatchConfig,
    /// Batch formation for `/simulate`.
    pub simulate_batch: BatchConfig,
    /// Admission control: largest pending depth (jobs submitted but not
    /// yet answered) a batcher accepts before `/predict` / `/simulate`
    /// shed load with HTTP 429 + `Retry-After`. `0` disables the cap.
    pub max_queue: usize,
    /// When set, one JSONL access-log line is appended per request
    /// (request ID, route, status, batch width, timings).
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8320".to_string(),
            workers: 0,
            predict_batch: BatchConfig::default(),
            simulate_batch: BatchConfig {
                max_batch: DEFAULT_BATCH,
                max_wait: Duration::from_millis(2),
            },
            max_queue: 0,
            access_log: None,
        }
    }
}

/// Live request counters the server exposes (and tests assert on).
#[derive(Debug)]
pub struct ServerStats {
    /// Requests accepted (any route).
    pub requests: AtomicU64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: AtomicU64,
    /// Predict batcher counters (batch widths live here).
    pub predict: Arc<BatcherStats>,
    /// Simulate batcher counters.
    pub simulate: Arc<BatcherStats>,
}

/// Route labels the rolling windows and per-route metrics aggregate by.
/// Unknown paths land in `"other"` so scanner noise cannot mint
/// unbounded metric names.
const ROUTES: [&str; 6] = ["predict", "simulate", "healthz", "metrics", "statusz", "other"];

fn route_label(path: &str) -> &'static str {
    match path {
        "/predict" => "predict",
        "/simulate" => "simulate",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/statusz" => "statusz",
        _ => "other",
    }
}

/// One rolling SLO window per route label, index-aligned with [`ROUTES`].
struct RouteWindows([RollingWindow; 6]);

impl RouteWindows {
    fn new() -> RouteWindows {
        RouteWindows(std::array::from_fn(|_| RollingWindow::new()))
    }

    fn get(&self, label: &str) -> &RollingWindow {
        let i = ROUTES.iter().position(|r| *r == label).unwrap_or(ROUTES.len() - 1);
        &self.0[i]
    }

    fn iter(&self) -> impl Iterator<Item = (&'static str, &RollingWindow)> {
        ROUTES.iter().copied().zip(self.0.iter())
    }
}

/// Read-only state shared by every connection worker.
struct Ctx {
    design: String,
    rows: usize,
    cols: usize,
    loads: usize,
    time_step: Seconds,
    hotspot_threshold: f64,
    started: Instant,
    stats: ServerStats,
    predict_tx: Sender<Job<TestVector, MapResponse>>,
    simulate_tx: Sender<Job<TestVector, Result<MapResponse, String>>>,
    /// Admission cap shared by both batchers; `0` disables shedding.
    max_queue: usize,
    /// Requests currently inside `handle_connection`.
    in_flight: AtomicU64,
    /// Per-route rolling SLO windows (~60 s horizon).
    windows: RouteWindows,
    /// Request-ID mint: `{nonce:08x}-{seq}` so IDs stay unique across
    /// restarts without coordination.
    rid_nonce: u64,
    rid_seq: AtomicU64,
    /// One JSONL line per request when configured.
    access_log: Option<Mutex<BufWriter<File>>>,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// detaches the threads; call `shutdown` for a clean join.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    ctx: Option<Arc<Ctx>>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    batcher_handles: Vec<JoinHandle<()>>,
}

/// Starts the daemon: validates the bundle against the grid (fail fast,
/// not mid-request), binds the listener, and spawns the accept loop, the
/// connection workers and the two batcher threads.
///
/// # Errors
///
/// `InvalidInput` when the bundle does not match the grid; propagates bind
/// errors.
pub fn serve(
    cfg: &ServeConfig,
    design: &str,
    grid: PowerGrid,
    predictor: Predictor,
    runner: WnvRunner,
    cache: Option<WnvCache>,
) -> io::Result<Server> {
    predictor
        .validate_for(&grid)
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, format!("refusing to serve: {why}")))?;

    // /metrics must reflect live aggregates even when no sink/env was
    // configured; aggregation costs one relaxed atomic load per metric.
    if !telemetry::enabled() {
        telemetry::enable();
    }
    telemetry::counter_add("serve.started", 1);

    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let grid = Arc::new(grid);
    let tiles = grid.tile_grid();
    let hotspot_threshold = grid.spec().hotspot_threshold().0;

    let predict_stats = Arc::new(BatcherStats::default());
    let simulate_stats = Arc::new(BatcherStats::default());

    let mut predictor = predictor;
    let predict_grid = Arc::clone(&grid);
    let (predict_tx, predict_handle) = batcher::spawn(
        "serve.predict",
        cfg.predict_batch,
        Arc::clone(&predict_stats),
        move |batch: Vec<TestVector>| {
            let mut out = Vec::new();
            predictor.predict_batch(&predict_grid, &batch, &mut out);
            out.iter()
                .map(|map| MapResponse::from_map("predict", map, hotspot_threshold))
                .collect()
        },
    );

    let sim_grid = Arc::clone(&grid);
    let (simulate_tx, simulate_handle) = batcher::spawn(
        "serve.simulate",
        cfg.simulate_batch,
        Arc::clone(&simulate_stats),
        move |batch: Vec<TestVector>| match run_group_cached(
            cache.as_ref(),
            &runner,
            &sim_grid,
            &batch,
        ) {
            Ok(reports) => reports
                .into_iter()
                .map(|r| {
                    let mut resp =
                        MapResponse::from_map("simulate", &r.worst_noise, hotspot_threshold);
                    resp.sim_elapsed_us = Some(r.elapsed.as_micros() as u64);
                    resp.sim_steps = Some(r.stats.steps);
                    Ok(resp)
                })
                .collect(),
            Err(e) => {
                let msg = format!("simulation failed: {e}");
                batch.iter().map(|_| Err(msg.clone())).collect()
            }
        },
    );

    let access_log = match &cfg.access_log {
        Some(path) => {
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            Some(Mutex::new(BufWriter::new(file)))
        }
        None => None,
    };
    let rid_nonce = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
        ^ (u64::from(std::process::id()) << 32);

    let ctx = Arc::new(Ctx {
        design: design.to_string(),
        rows: tiles.rows(),
        cols: tiles.cols(),
        loads: grid.loads().len(),
        time_step: grid.spec().time_step(),
        hotspot_threshold,
        started: Instant::now(),
        stats: ServerStats {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            predict: predict_stats,
            simulate: simulate_stats,
        },
        predict_tx,
        simulate_tx,
        max_queue: cfg.max_queue,
        in_flight: AtomicU64::new(0),
        windows: RouteWindows::new(),
        rid_nonce,
        rid_seq: AtomicU64::new(0),
        access_log,
    });

    let stop = Arc::new(AtomicBool::new(false));
    let workers = if cfg.workers == 0 {
        pdn_core::threads::width().max(2)
    } else {
        cfg.workers
    };

    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let conn_rx = Arc::clone(&conn_rx);
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&conn_rx, &ctx))
                .expect("spawn serve worker")
        })
        .collect();

    let accept_stop = Arc::clone(&stop);
    let accept_handle = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &conn_tx, &accept_stop))
        .expect("spawn serve accept loop");

    Ok(Server {
        addr,
        stop,
        ctx: Some(ctx),
        accept_handle: Some(accept_handle),
        worker_handles,
        batcher_handles: vec![predict_handle, simulate_handle],
    })
}

impl Server {
    /// The bound address (resolves port `0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live request counters.
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.as_ref().expect("server running").stats
    }

    /// Signals shutdown without blocking (safe from a signal-watching
    /// loop); [`Server::shutdown`] still must run for the clean join.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops accepting, drains in-flight connections, and joins every
    /// thread. In-flight requests are answered before their workers exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // The accept loop dropped the connection sender on exit, so the
        // workers drain the queue and stop.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Dropping the context drops the batchers' job senders; their
        // threads run dry and exit.
        self.ctx = None;
        for h in self.batcher_handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, conn_tx: &Sender<TcpStream>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if conn_tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                eprintln!("pdn serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn worker_loop(conn_rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx) {
    loop {
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, ctx),
            Err(_) => return, // accept loop gone and queue drained
        }
    }
}

/// One routed answer plus the batch annotations the access log records.
struct Routed {
    status: u16,
    content_type: &'static str,
    body: String,
    batch_width: usize,
    queue_us: u64,
    compute_us: u64,
    /// Set on 429 so the writer adds `Retry-After`.
    shed: bool,
}

impl Routed {
    fn plain(status: u16, content_type: &'static str, body: String) -> Routed {
        Routed { status, content_type, body, batch_width: 0, queue_us: 0, compute_us: 0, shed: false }
    }
}

/// A sane client-supplied request ID the server will adopt instead of
/// minting one: short and strictly `[A-Za-z0-9._-]`, so it is safe to
/// echo into headers, JSON and log lines without escaping surprises.
fn acceptable_client_id(id: &str) -> bool {
    (1..=64).contains(&id.len())
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let request = match http::read_request(&mut reader) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(e) => {
            let mut writer = BufWriter::new(stream);
            let body = error_json(&format!("bad request: {e}"));
            let _ = http::write_response(&mut writer, 400, "application/json", body.as_bytes());
            return;
        }
    };

    let accepted = Instant::now();
    ctx.in_flight.fetch_add(1, Ordering::Relaxed);
    ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
    telemetry::counter_add("serve.requests", 1);

    let request_id = match request.header("x-pdn-request-id") {
        Some(id) if acceptable_client_id(id) => id.to_string(),
        _ => format!(
            "{:08x}-{}",
            ctx.rid_nonce & 0xffff_ffff,
            ctx.rid_seq.fetch_add(1, Ordering::Relaxed) + 1
        ),
    };
    let label = route_label(&request.path);

    let mut span = telemetry::span("serve.request");
    span.field("method", request.method.as_str());
    span.field("path", request.path.as_str());
    span.field("request_id", request_id.as_str());

    let routed = route(&request, &request_id, ctx);
    span.field("status", routed.status as u64);
    if routed.status >= 400 {
        ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("serve.errors", 1);
        telemetry::counter_add(&format!("serve.route.{label}.errors"), 1);
    }
    telemetry::counter_add(&format!("serve.route.{label}.requests"), 1);

    let mut writer = BufWriter::new(stream);
    let mut extra: Vec<(&str, &str)> = vec![("x-pdn-request-id", request_id.as_str())];
    if routed.shed {
        extra.push(("Retry-After", "1"));
    }
    let _ = http::write_response_with(
        &mut writer,
        routed.status,
        routed.content_type,
        &extra,
        routed.body.as_bytes(),
    );

    // Account the full request (including the response write) so tail
    // percentiles reflect what the client saw.
    let total = accepted.elapsed();
    let total_s = total.as_secs_f64();
    telemetry::observe(&format!("serve.route.{label}.latency_seconds"), total_s);
    ctx.windows
        .get(label)
        .record(ctx.started.elapsed().as_secs(), total_s, routed.status >= 400);
    ctx.in_flight.fetch_sub(1, Ordering::Relaxed);

    if let Some(log) = &ctx.access_log {
        write_access_log(log, &request, &request_id, label, &routed, total.as_micros() as u64);
    }
}

/// Appends one JSONL access-log line and flushes it, so an operator
/// tailing the file (or a test racing the response) sees it promptly.
fn write_access_log(
    log: &Mutex<BufWriter<File>>,
    request: &http::Request,
    request_id: &str,
    label: &str,
    routed: &Routed,
    total_us: u64,
) {
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(192);
    line.push_str("{\"ts_us\":");
    let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{ts_us}"));
    line.push_str(",\"id\":");
    let _ = write_json_str(&mut line, request_id);
    line.push_str(",\"method\":");
    let _ = write_json_str(&mut line, &request.method);
    line.push_str(",\"path\":");
    let _ = write_json_str(&mut line, &request.path);
    line.push_str(",\"route\":");
    let _ = write_json_str(&mut line, label);
    let _ = std::fmt::Write::write_fmt(
        &mut line,
        format_args!(
            ",\"status\":{},\"batch_width\":{},\"queue_us\":{},\"compute_us\":{},\"total_us\":{}}}",
            routed.status, routed.batch_width, routed.queue_us, routed.compute_us, total_us
        ),
    );
    let mut writer = log.lock().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(writer, "{line}");
    let _ = writer.flush();
}

/// `true` when the client asked for the legacy JSONL registry snapshot
/// on `/metrics` (query `format=jsonl` or an ndjson `Accept`).
fn wants_jsonl(request: &http::Request) -> bool {
    request.query.split('&').any(|kv| kv == "format=jsonl")
        || request.header("accept").is_some_and(|a| a.contains("application/x-ndjson"))
}

fn route(request: &http::Request, request_id: &str, ctx: &Ctx) -> Routed {
    let vector = || VectorRequest::parse(&request.body, ctx.loads, ctx.time_step);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Routed::plain(200, "application/json", health_json(ctx)),
        ("GET", "/metrics") => {
            if wants_jsonl(request) {
                Routed::plain(200, "application/x-ndjson", telemetry::snapshot_records())
            } else {
                publish_window_gauges(ctx);
                Routed::plain(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    telemetry::prometheus_text(),
                )
            }
        }
        ("GET", "/statusz") => {
            publish_window_gauges(ctx);
            Routed::plain(200, "application/json", statusz_json(ctx))
        }
        ("POST", "/predict") => match vector() {
            Ok(req) => dispatch(&ctx.predict_tx, &ctx.stats.predict, ctx, request_id, req.vector, Ok),
            Err(why) => Routed::plain(400, "application/json", error_json(&why)),
        },
        ("POST", "/simulate") => match vector() {
            Ok(req) => {
                dispatch(&ctx.simulate_tx, &ctx.stats.simulate, ctx, request_id, req.vector, |resp| resp)
            }
            Err(why) => Routed::plain(400, "application/json", error_json(&why)),
        },
        (_, "/healthz" | "/metrics" | "/statusz" | "/predict" | "/simulate") => {
            Routed::plain(405, "application/json", error_json("method not allowed"))
        }
        _ => Routed::plain(404, "application/json", error_json("no such endpoint")),
    }
}

/// Enqueues one job and waits for its batched answer. `unwrap_result`
/// folds the processor's per-job payload into `Result<MapResponse, String>`
/// (the predict path is infallible, the simulate path is not).
///
/// Admission control happens here: the pending depth (jobs submitted but
/// not yet answered) is claimed before enqueueing, and a claim that finds
/// the batcher already at `max_queue` is released immediately and
/// answered 429 — the batch-forming window therefore bounds how much work
/// can pile up behind a slow batch.
fn dispatch<T: Send + 'static>(
    tx: &Sender<Job<TestVector, T>>,
    stats: &BatcherStats,
    ctx: &Ctx,
    request_id: &str,
    vector: TestVector,
    unwrap_result: impl Fn(T) -> Result<MapResponse, String>,
) -> Routed {
    let depth_before = stats.claim_pending();
    if ctx.max_queue > 0 && depth_before >= ctx.max_queue as u64 {
        stats.release_pending();
        telemetry::counter_add("serve.rejected_total", 1);
        let mut routed = Routed::plain(
            429,
            "application/json",
            error_json(&format!("queue full ({} pending); retry shortly", depth_before)),
        );
        routed.shed = true;
        return routed;
    }

    let (reply_tx, reply_rx) = mpsc::channel::<Batched<T>>();
    let job = Job {
        request: vector,
        request_id: request_id.to_string(),
        enqueued: Instant::now(),
        reply: reply_tx,
    };
    if tx.send(job).is_err() {
        stats.release_pending();
        return Routed::plain(503, "application/json", error_json("batcher unavailable"));
    }
    let answer = reply_rx.recv();
    stats.release_pending();
    match answer {
        Ok(batched) => match unwrap_result(batched.result) {
            Ok(mut resp) => {
                resp.request_id = request_id.to_string();
                resp.batch_width = batched.batch_width;
                resp.queue_us = batched.queue_us;
                resp.compute_us = batched.compute_us;
                let mut routed = Routed::plain(200, "application/json", resp.to_json());
                routed.batch_width = batched.batch_width;
                routed.queue_us = batched.queue_us;
                routed.compute_us = batched.compute_us;
                routed
            }
            Err(why) => Routed::plain(500, "application/json", error_json(&why)),
        },
        // The batcher thread died mid-request (it never drops a reply
        // sender before answering otherwise).
        Err(_) => Routed::plain(500, "application/json", error_json("worker failed mid-request")),
    }
}

/// Publishes the live SLO aggregates as registry gauges so the Prometheus
/// endpoint exports them; called at scrape time (`/metrics`, `/statusz`)
/// so idle servers pay nothing between scrapes.
fn publish_window_gauges(ctx: &Ctx) {
    let tick = ctx.started.elapsed().as_secs();
    telemetry::gauge_set("serve.in_flight", ctx.in_flight.load(Ordering::Relaxed) as f64);
    telemetry::gauge_set("serve.queue_depth.predict", ctx.stats.predict.pending() as f64);
    telemetry::gauge_set("serve.queue_depth.simulate", ctx.stats.simulate.pending() as f64);
    for (label, w) in ctx.windows.iter() {
        let s = w.snapshot(tick);
        telemetry::gauge_set(&format!("serve.window.{label}.qps"), s.qps);
        telemetry::gauge_set(&format!("serve.window.{label}.error_rate"), s.error_rate);
        telemetry::gauge_set(&format!("serve.window.{label}.p50_seconds"), s.p50);
        telemetry::gauge_set(&format!("serve.window.{label}.p95_seconds"), s.p95);
        telemetry::gauge_set(&format!("serve.window.{label}.p99_seconds"), s.p99);
        telemetry::gauge_set(&format!("serve.window.{label}.requests"), s.count as f64);
    }
}

/// `GET /statusz`: one JSON object summarizing the rolling windows,
/// queue depths and admission counters — the human/dashboard view of
/// what `/metrics` exports.
fn statusz_json(ctx: &Ctx) -> String {
    use std::fmt::Write as _;
    let tick = ctx.started.elapsed().as_secs();
    let mut out = String::with_capacity(640);
    let _ = write!(
        out,
        "{{\"status\":\"ok\",\"design\":\"{}\",\"uptime_s\":{},\"window_s\":{},\
         \"in_flight\":{},\"queue_depth\":{{\"predict\":{},\"simulate\":{}}},\
         \"max_queue\":{},\"rejected_total\":{},\"routes\":{{",
        ctx.design,
        tick,
        window::SLOTS,
        ctx.in_flight.load(Ordering::Relaxed),
        ctx.stats.predict.pending(),
        ctx.stats.simulate.pending(),
        ctx.max_queue,
        telemetry::counter_value("serve.rejected_total"),
    );
    for (i, (label, w)) in ctx.windows.iter().enumerate() {
        let s = w.snapshot(tick);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{label}\":{{\"count\":{},\"errors\":{},\"qps\":{:.3},\"error_rate\":{:.4},\
             \"p50_s\":{:.6},\"p95_s\":{:.6},\"p99_s\":{:.6}}}",
            s.count, s.errors, s.qps, s.error_rate, s.p50, s.p95, s.p99
        );
    }
    out.push_str("}}");
    out
}

fn health_json(ctx: &Ctx) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(160);
    let _ = write!(
        out,
        "{{\"status\":\"ok\",\"design\":\"{}\",\"rows\":{},\"cols\":{},\"loads\":{},\
         \"hotspot_threshold\":{},\"uptime_us\":{},\"requests\":{},\"errors\":{}}}",
        ctx.design,
        ctx.rows,
        ctx.cols,
        ctx.loads,
        ctx.hotspot_threshold,
        ctx.started.elapsed().as_micros(),
        ctx.stats.requests.load(Ordering::Relaxed),
        ctx.stats.errors.load(Ordering::Relaxed),
    );
    out
}
