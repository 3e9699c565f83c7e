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
//! * **Cached ground truth**: the simulate batcher runs each batch through
//!   [`run_group_cached`], so a vector simulated before is served from the
//!   on-disk cache.
//! * **Observability**: every request is minted an ID at accept time
//!   (honoring a sane client-supplied `x-pdn-request-id`), runs under a
//!   telemetry span carrying it, rides it through the batcher's batch
//!   span, and echoes it in an `x-pdn-request-id` response header and an
//!   optional JSONL access log (`--access-log`). Every count and latency
//!   lives once, in the telemetry registry: `GET /metrics` serves it in
//!   Prometheus text format by default (the raw JSONL snapshot stays
//!   behind `?format=jsonl`), `GET /statusz` summarizes each route's span
//!   histogram and error counter since start (QPS, error rate,
//!   p50/p95/p99), and `GET /healthz` stays a liveness probe.
//!   `--max-queue` sheds load with 429 + `Retry-After` when a batcher's
//!   pending depth hits the cap.
//!
//! The listener is plain `std::net::TcpListener` + a worker pool sized by
//! the existing `PDN_THREADS` plumbing; no new dependencies.

pub mod batcher;
pub mod http;
pub mod proto;

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

/// Route labels the per-route metrics aggregate by. Unknown paths land in
/// `"other"` so scanner noise cannot mint unbounded metric names.
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

/// Read-only state shared by every connection worker.
struct Ctx {
    design: String,
    rows: usize,
    cols: usize,
    loads: usize,
    time_step: Seconds,
    hotspot_threshold: f64,
    started: Instant,
    predict_tx: Sender<Job<TestVector, MapResponse>>,
    simulate_tx: Sender<Job<TestVector, Result<MapResponse, String>>>,
    /// Each batcher's pending depth, which admission control reads.
    predict_pending: BatcherStats,
    simulate_pending: BatcherStats,
    /// Admission cap shared by both batchers; `0` disables shedding.
    max_queue: usize,
    /// Requests currently inside `handle_connection`.
    in_flight: AtomicU64,
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

    let mut predictor = predictor;
    let predict_grid = Arc::clone(&grid);
    let (predict_tx, predict_handle) = batcher::spawn(
        "serve.predict",
        cfg.predict_batch,
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
        predict_tx,
        simulate_tx,
        predict_pending: BatcherStats::default(),
        simulate_pending: BatcherStats::default(),
        max_queue: cfg.max_queue,
        in_flight: AtomicU64::new(0),
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

/// Longest a client may take to send one whole request, counted from the
/// moment a worker takes the connection. A timeout per read alone would
/// let a client that sends a byte just inside it hold the worker through
/// every head line and the whole body.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

/// A socket reader that holds every read to one deadline: before each read
/// the socket's timeout is set to the time left.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl io::Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let expired =
            || io::Error::new(io::ErrorKind::TimedOut, "request not complete within the deadline");
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(expired());
        }
        self.stream.set_read_timeout(Some(left))?;
        match self.stream.read(buf) {
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Err(expired())
            }
            read => read,
        }
    }
}

/// Reads one request from `stream`, all of it before `deadline`.
fn read_request_by(stream: &TcpStream, deadline: Instant) -> io::Result<Option<http::Request>> {
    let stream = stream.try_clone()?;
    http::read_request(&mut BufReader::new(DeadlineReader { stream, deadline }))
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let request = match read_request_by(&stream, Instant::now() + REQUEST_DEADLINE) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(e) => {
            telemetry::counter_add("serve.requests", 1);
            telemetry::counter_add("serve.errors", 1);
            let mut writer = BufWriter::new(stream);
            let body = error_json(&format!("bad request: {e}"));
            let _ = http::write_response(&mut writer, 400, "application/json", body.as_bytes());
            return;
        }
    };

    // The route span is the request's latency: its histogram
    // `serve.route.<route>` covers routing and the response write, what
    // the client saw.
    let accepted = Instant::now();
    let label = route_label(&request.path);
    let mut span = telemetry::span(&format!("serve.route.{label}"));
    ctx.in_flight.fetch_add(1, Ordering::Relaxed);
    telemetry::counter_add("serve.requests", 1);

    let request_id = match request.header("x-pdn-request-id") {
        Some(id) if acceptable_client_id(id) => id.to_string(),
        _ => format!(
            "{:08x}-{}",
            ctx.rid_nonce & 0xffff_ffff,
            ctx.rid_seq.fetch_add(1, Ordering::Relaxed) + 1
        ),
    };
    span.field("method", request.method.as_str());
    span.field("path", request.path.as_str());
    span.field("request_id", request_id.as_str());

    let routed = route(&request, &request_id, ctx);
    span.field("status", routed.status as u64);
    if routed.status >= 400 {
        telemetry::counter_add("serve.errors", 1);
        telemetry::counter_add(&format!("serve.route.{label}.errors"), 1);
    }

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
    drop(span);
    ctx.in_flight.fetch_sub(1, Ordering::Relaxed);

    if let Some(log) = &ctx.access_log {
        let total_us = accepted.elapsed().as_micros() as u64;
        write_access_log(log, &request, &request_id, label, &routed, total_us);
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
                publish_gauges(ctx);
                Routed::plain(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    telemetry::prometheus_text(),
                )
            }
        }
        ("GET", "/statusz") => {
            publish_gauges(ctx);
            Routed::plain(200, "application/json", statusz_json(ctx))
        }
        ("POST", "/predict") => match vector() {
            Ok(req) => {
                dispatch(&ctx.predict_tx, &ctx.predict_pending, ctx, request_id, req.vector, Ok)
            }
            Err(why) => Routed::plain(400, "application/json", error_json(&why)),
        },
        ("POST", "/simulate") => match vector() {
            Ok(req) => dispatch(
                &ctx.simulate_tx,
                &ctx.simulate_pending,
                ctx,
                request_id,
                req.vector,
                |resp| resp,
            ),
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
    let depth_before = stats.acquire_pending();
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

/// Publishes the in-flight and queue-depth gauges, which only the server
/// knows; called at scrape time (`/metrics`, `/statusz`) so idle servers
/// pay nothing between scrapes.
fn publish_gauges(ctx: &Ctx) {
    telemetry::gauge_set("serve.in_flight", ctx.in_flight.load(Ordering::Relaxed) as f64);
    telemetry::gauge_set("serve.queue_depth.predict", ctx.predict_pending.pending() as f64);
    telemetry::gauge_set("serve.queue_depth.simulate", ctx.simulate_pending.pending() as f64);
}

/// `GET /statusz`: one JSON object summarizing, per route, the
/// `serve.route.<route>` span histogram and `.errors` counter since start,
/// plus queue depths and admission counters — the human/dashboard view of
/// what `/metrics` exports.
fn statusz_json(ctx: &Ctx) -> String {
    use std::fmt::Write as _;
    let uptime = ctx.started.elapsed();
    let mut out = String::with_capacity(640);
    let _ = write!(
        out,
        "{{\"status\":\"ok\",\"design\":\"{}\",\"uptime_s\":{},\
         \"in_flight\":{},\"queue_depth\":{{\"predict\":{},\"simulate\":{}}},\
         \"max_queue\":{},\"rejected_total\":{},\"routes\":{{",
        ctx.design,
        uptime.as_secs(),
        ctx.in_flight.load(Ordering::Relaxed),
        ctx.predict_pending.pending(),
        ctx.simulate_pending.pending(),
        ctx.max_queue,
        telemetry::counter_value("serve.rejected_total"),
    );
    for (i, label) in ROUTES.iter().enumerate() {
        let h = telemetry::histogram_summary(&format!("serve.route.{label}"))
            .unwrap_or_else(|| telemetry::Histogram::new().summary());
        let errors = telemetry::counter_value(&format!("serve.route.{label}.errors"));
        let error_rate = if h.count == 0 { 0.0 } else { errors as f64 / h.count as f64 };
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{label}\":{{\"count\":{},\"errors\":{errors},\"qps\":{:.3},\
             \"error_rate\":{error_rate:.4},\"p50_s\":{:.6},\"p95_s\":{:.6},\"p99_s\":{:.6}}}",
            h.count,
            h.count as f64 / uptime.as_secs_f64(),
            h.p50,
            h.p95,
            h.p99
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
        telemetry::counter_value("serve.requests"),
        telemetry::counter_value("serve.errors"),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trickling_client_is_cut_off_at_the_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let client = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // One byte every 20 ms, far inside any per-read timeout,
                // of a request line that never ends.
                let mut stream = TcpStream::connect(addr).unwrap();
                for &b in b"GET /".iter().chain(std::iter::repeat(&b'a')) {
                    if done.load(Ordering::SeqCst) || stream.write_all(&[b]).is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let err = read_request_by(&stream, start + Duration::from_millis(300)).unwrap_err();
        let waited = start.elapsed();
        done.store(true, Ordering::SeqCst);
        drop(stream);
        client.join().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            waited >= Duration::from_millis(300) && waited < Duration::from_secs(5),
            "cut off after {waited:?}"
        );
    }
}
