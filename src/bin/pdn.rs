//! `pdn` — command-line front end for the worst-case noise toolkit.
//!
//! ```text
//! pdn info     --design D1 [--scale tiny|ci|paper]
//! pdn simulate --design D1 [--scale ...] [--steps N] [--seed S] [--out DIR]
//! pdn train    --design D1 [--scale ...] [--vectors N] [--epochs E] --out MODEL
//! pdn predict  --model MODEL --design D1 [--scale ...] [--seed S] [--out DIR]
//! ```
//!
//! `train` produces a self-contained predictor bundle; `predict` restores
//! it and answers a sign-off query orders of magnitude faster than
//! `simulate` — the paper's deployment story as a terminal tool. `report`
//! turns a telemetry sink back into a human-readable run analysis and a
//! Perfetto trace.

use pdn_wnv::core::telemetry;
use pdn_wnv::core::units::Volts;
use pdn_wnv::eval::harness::{EvalOptions, EvaluatedDesign, ExperimentConfig};
use pdn_wnv::eval::render::{ascii_map, write_csv};
use pdn_wnv::eval::tracereport::{self, ReportOptions, TelemetryLog};
use pdn_wnv::grid::design::{DesignPreset, DesignScale};
use pdn_wnv::model::checkpoint::CheckpointConfig;
use pdn_wnv::model::model::Predictor;
use pdn_wnv::model::trainer::TrainConfig;
use pdn_wnv::sim::transient::stamp_transient_system;
use pdn_wnv::sim::wnv::WnvRunner;
use pdn_wnv::sim::{SolverKind, WnvCache};
use pdn_wnv::vectors::generator::{GeneratorConfig, VectorGenerator};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `print!` that returns an error instead of panicking when stdout cannot
/// be written, so a command ends through `?`.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout(), $($arg)*).map_err(stdout_error)
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*).map_err(stdout_error)
    };
}

/// Exit status when stdout's reader goes away (`pdn ... | head`): 128 +
/// SIGPIPE, the status a shell reports for a program that SIGPIPE ended.
const CLOSED_STDOUT_STATUS: u8 = 141;

/// Stdout's reader went away; `main` ends the command quietly.
#[derive(Debug)]
struct ClosedStdout;

impl std::fmt::Display for ClosedStdout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("stdout closed")
    }
}

impl std::error::Error for ClosedStdout {}

fn stdout_error(e: std::io::Error) -> Box<dyn std::error::Error> {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        Box::new(ClosedStdout)
    } else {
        format!("writing to stdout: {e}").into()
    }
}

fn main() -> ExitCode {
    telemetry::init_from_env();
    // Read PDN_THREADS up front, so a bad value is reported (and counted)
    // whatever the command.
    pdn_wnv::core::threads::width();
    // Flushes the sink (with summary records) even when `run` errors out
    // or panics, so a partial run still yields an analysable JSONL file.
    let _flush = telemetry::FlushGuard::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.is::<ClosedStdout>() => ExitCode::from(CLOSED_STDOUT_STATUS),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pdn info            --design D1..D4 [--scale tiny|ci|paper] [--seed K]
  pdn simulate        --design D1..D4 [--scale S] [--steps N] [--seed K]
                      [--vector FILE.csv] [--out DIR] [--solver cg|direct]
  pdn factor          --design D1..D4 [--scale S] [--seed K] [--rhs N]
                      [--ordering auto|natural|rcm|amd]
  pdn train           --design D1..D4 [--scale S] [--vectors N] [--steps N]
                      [--epochs E] [--seed K] --out MODEL
                      [--cache-dir DIR|none] [--solver cg|direct]
                      [--checkpoint FILE.ckpt] [--checkpoint-every N]
                      [--checkpoint-keep K] [--resume true]
  pdn eval            --design D1..D4 [--scale S] [--vectors N] [--steps N]
                      [--epochs E] [--seed K]
                      [--cache-dir DIR|none] [--solver cg|direct]
                      [--checkpoint FILE.ckpt] [--checkpoint-every N]
                      [--checkpoint-keep K] [--resume true]
  pdn predict         --model MODEL --design D1..D4 [--scale S] [--steps N]
                      [--seed K] [--vector FILE.csv] [--out DIR]
  pdn serve           --model MODEL --design D1..D4 [--scale S]
                      [--addr HOST:PORT] [--workers N] [--max-batch B]
                      [--max-wait-ms MS] [--max-queue N]
                      [--access-log FILE.jsonl]
                      [--cache-dir DIR|none] [--solver cg|direct]
  pdn cache stats     [--cache-dir DIR]
  pdn cache gc        [--cache-dir DIR] [--max-mb MB] [--max-age-days D]
  pdn export-netlist  --design D1..D4 [--scale S] [--seed K] --out FILE.sp
  pdn export-vector   --design D1..D4 [--scale S] [--steps N] [--seed K] --out FILE.csv
  pdn report          RUN.jsonl [BASELINE.jsonl] [--out REPORT.md] [--trace TRACE.json]
                      [--slow-ratio R] [--strict true]

`pdn simulate --solver direct` switches the transient engine from the
default warm-started PCG to the supernodal direct Cholesky (factor once,
two panel-blocked triangular solves per time stamp). `pdn factor` runs
just the factor-once/solve-many hot path — symbolic analysis, numeric
factorization, and an N-RHS solve sweep (default 1000) — and prints each
phase's wall clock and a digest of the swept solutions; use `--scale full`
for a paper-D1-class feasibility run. PDN_THREADS fans the sweep's RHS
blocks across threads; the digest is the same at any width.

every command rejects a flag not listed for it above, and stops quietly
with exit status 141 when its stdout closes early (`pdn ... | head`);
every command except report also accepts:
  --telemetry FILE.jsonl   record per-stage timing, trace spans, solver and
                           training metrics to FILE.jsonl and print a summary
                           table (PDN_TELEMETRY=<path|1> does the same from
                           the environment)

`pdn train`/`pdn eval` cache simulated ground truth under --cache-dir
(default: PDN_CACHE_DIR, else ~/.cache/pdn-wnv; `none` disables) so a
repeated run skips the transient solves, and can checkpoint training with
--checkpoint; --resume true continues an interrupted run bit-identically.
--checkpoint-keep K additionally writes epoch-stamped checkpoint
generations and prunes all but the newest K.

`pdn cache stats` sizes the ground-truth cache up; `pdn cache gc` evicts
entries older than --max-age-days, then oldest-first until the cache fits
in --max-mb.

`pdn serve` runs the predictor as an HTTP daemon: POST a vector CSV to
/predict (CNN inference) or /simulate (cached ground truth); concurrent
requests are coalesced into one inference batch / multi-RHS transient
group (--max-batch wide, formed within --max-wait-ms). GET /healthz for
liveness, GET /metrics for Prometheus text (append ?format=jsonl for the
raw registry snapshot), GET /statusz for rolling-window QPS / error-rate
/ latency percentiles. Every response carries an x-pdn-request-id header;
--access-log FILE appends one JSON line per request with that id, the
batch width and timings. --max-queue N sheds requests with HTTP 429 +
Retry-After once a batcher has N unanswered jobs. --addr defaults to
127.0.0.1:8320; port 0 picks an ephemeral port (printed on stdout).
SIGTERM/SIGINT shut the daemon down cleanly.

`pdn report` renders a telemetry sink as markdown (stage tree, solver
percentiles, training curve, speedup table); with a BASELINE it also diffs
the two runs and flags stages slower than R x (default 2.0). --trace writes
a Chrome-trace JSON loadable at https://ui.perfetto.dev. --strict true
exits non-zero when a regression is flagged.";

/// A flag-driven command: runs on its parsed `--flag value` options.
type Command = fn(&HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>>;

/// Every flag-driven command with the flags it accepts, as listed in
/// [`USAGE`] (`--telemetry` is accepted by all of them).
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("info", &["design", "scale", "seed"], info),
    ("simulate", &["design", "scale", "steps", "seed", "vector", "out", "solver"], simulate),
    ("factor", &["design", "scale", "seed", "rhs", "ordering"], factor),
    (
        "train",
        &[
            "design", "scale", "vectors", "steps", "epochs", "seed", "out", "cache-dir", "solver",
            "checkpoint", "checkpoint-every", "checkpoint-keep", "resume",
        ],
        train,
    ),
    (
        "eval",
        &[
            "design", "scale", "vectors", "steps", "epochs", "seed", "cache-dir", "solver",
            "checkpoint", "checkpoint-every", "checkpoint-keep", "resume",
        ],
        eval_cmd,
    ),
    ("predict", &["model", "design", "scale", "steps", "seed", "vector", "out"], predict),
    (
        "serve",
        &[
            "model", "design", "scale", "addr", "workers", "max-batch", "max-wait-ms", "max-queue",
            "access-log", "cache-dir", "solver",
        ],
        serve_cmd,
    ),
    ("export-netlist", &["design", "scale", "seed", "out"], export_netlist),
    ("export-vector", &["design", "scale", "steps", "seed", "out"], export_vector),
];

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    if command == "report" {
        // `report` takes positional file arguments and never records
        // telemetry about itself.
        return report_cmd(rest);
    }
    if command == "cache" {
        // `cache` takes a positional subcommand and only touches files.
        return cache_cmd(rest);
    }
    let Some(&(_, flags, command_fn)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(format!("unknown command `{command}`").into());
    };
    let opts = parse_flags(rest, flags)?;
    if let Some(path) = opts.get("telemetry") {
        telemetry::enable_with_sink(Path::new(path))
            .map_err(|e| format!("--telemetry {path}: {e}"))?;
    }
    // The root span covers the whole command, so every stage span in the
    // sink hangs off it and its duration matches the `cli.command` event.
    let mut root = telemetry::span(&format!("cli.{command}"));
    let t_command = Instant::now();
    let result = command_fn(&opts);
    root.set_ok(result.is_ok());
    drop(root);
    if telemetry::enabled() {
        telemetry::event(
            "cli.command",
            &[
                ("command", command.as_str().into()),
                ("seconds", t_command.elapsed().as_secs_f64().into()),
                ("ok", result.is_ok().into()),
            ],
        );
        telemetry::write_summary_records();
        telemetry::flush();
        // The command's own error, if any, outranks a failed summary.
        return result.and(outln!("\n{}", telemetry::summary()));
    }
    result
}

/// Runs one named pipeline stage inside a `cli.stage.<name>` span, also
/// recording its wall clock as a `cli.stage` event and a `cli.stage.<name>`
/// histogram sample. The stages of a command partition its whole runtime,
/// so the per-stage records in the sink sum to the command's wall clock.
/// If `f` panics, the span still reaches the sink, tagged `ok:false`.
fn stage<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _span = telemetry::span(&format!("cli.stage.{name}"));
    let start = Instant::now();
    let out = f();
    record_stage(name, start);
    out
}

/// Like [`stage`] for fallible stages: the span is tagged `ok:false` when
/// `f` returns `Err` (or unwinds).
fn try_stage<T, E>(name: &str, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
    let mut span = telemetry::span(&format!("cli.stage.{name}"));
    let start = Instant::now();
    let out = f();
    span.set_ok(out.is_ok());
    record_stage(name, start);
    out
}

fn record_stage(name: &str, start: Instant) {
    if telemetry::enabled() {
        let seconds = start.elapsed().as_secs_f64();
        telemetry::observe(&format!("cli.stage.{name}"), seconds);
        telemetry::event(
            "cli.stage",
            &[("stage", name.into()), ("seconds", seconds.into())],
        );
    }
}

/// `pdn report RUN.jsonl [BASELINE.jsonl] [--out F] [--trace F]
/// [--slow-ratio R] [--strict true]`.
fn report_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut files: Vec<&String> = Vec::new();
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !["out", "trace", "slow-ratio", "strict"].contains(&name) {
                return Err(format!("unknown flag --{name}").into());
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value").into());
            };
            flags.insert(name.to_string(), value.clone());
        } else {
            files.push(arg);
        }
    }
    let [run_path, baseline_path @ ..] = files.as_slice() else {
        return Err("report needs a RUN.jsonl file".into());
    };
    if baseline_path.len() > 1 {
        return Err("report takes at most two files (RUN and BASELINE)".into());
    }
    let run = TelemetryLog::load(Path::new(run_path.as_str()))?;
    let baseline = baseline_path
        .first()
        .map(|p| TelemetryLog::load(Path::new(p.as_str())))
        .transpose()?;
    let opts = ReportOptions {
        slow_ratio: parse(&flags, "slow-ratio", 2.0f64)?,
        ..ReportOptions::default()
    };
    let out = tracereport::report(&run, baseline.as_ref(), &opts);
    match flags.get("out") {
        Some(path) => {
            pdn_core::fsio::atomic_write(Path::new(path), out.markdown.as_bytes())
                .map_err(|e| format!("--out {path}: {e}"))?;
            outln!("report written to {path}")?;
        }
        None => out!("{}", out.markdown)?,
    }
    if let Some(path) = flags.get("trace") {
        pdn_core::fsio::atomic_write(Path::new(path), run.chrome_trace().as_bytes())
            .map_err(|e| format!("--trace {path}: {e}"))?;
        outln!("Perfetto trace written to {path} (open at https://ui.perfetto.dev)")?;
    }
    if !out.regressions.is_empty() {
        for r in &out.regressions {
            eprintln!(
                "regression: {} went {:.4}s -> {:.4}s ({:.2}x)",
                r.path, r.baseline_s, r.run_s, r.ratio
            );
        }
        if parse(&flags, "strict", false)? {
            return Err(format!(
                "{} stage(s) regressed beyond {:.1}x the baseline",
                out.regressions.len(),
                opts.slow_ratio
            )
            .into());
        }
    }
    Ok(())
}

/// Parses `--name value` pairs. A flag outside `known` (and other than
/// `--telemetry`) is an error, so a misspelt flag cannot silently leave
/// its default in place.
fn parse_flags(
    args: &[String],
    known: &[&str],
) -> Result<HashMap<String, String>, Box<dyn std::error::Error>> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`").into());
        };
        if name != "telemetry" && !known.contains(&name) {
            return Err(format!("unknown flag --{name}").into());
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} needs a value").into());
        };
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn design(opts: &HashMap<String, String>) -> Result<DesignPreset, Box<dyn std::error::Error>> {
    match opts.get("design").map(String::as_str) {
        Some("D1") | Some("d1") => Ok(DesignPreset::D1),
        Some("D2") | Some("d2") => Ok(DesignPreset::D2),
        Some("D3") | Some("d3") => Ok(DesignPreset::D3),
        Some("D4") | Some("d4") => Ok(DesignPreset::D4),
        Some(other) => Err(format!("unknown design `{other}` (use D1..D4)").into()),
        None => Err("--design is required".into()),
    }
}

fn scale(opts: &HashMap<String, String>) -> Result<DesignScale, Box<dyn std::error::Error>> {
    match opts.get("scale").map(String::as_str) {
        None | Some("tiny") => Ok(DesignScale::Tiny),
        Some("ci") => Ok(DesignScale::Ci),
        Some("full") => Ok(DesignScale::Full),
        Some("paper") => Ok(DesignScale::Paper),
        Some(other) => Err(format!("unknown scale `{other}` (tiny|ci|full|paper)").into()),
    }
}

/// `--solver cg|direct` (default cg): which transient linear solver to use.
fn solver(opts: &HashMap<String, String>) -> Result<SolverKind, Box<dyn std::error::Error>> {
    match opts.get("solver").map(String::as_str) {
        None | Some("cg") => Ok(SolverKind::IterativeCg),
        Some("direct") => Ok(SolverKind::DirectCholesky),
        Some(other) => Err(format!("unknown solver `{other}` (cg|direct)").into()),
    }
}

fn parse<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("bad --{key}: {e}").into()),
    }
}

/// Like [`parse`] without a default: `Ok(None)` when the flag is absent.
fn parse_opt<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|e| format!("bad --{key}: {e}").into()),
    }
}

/// `pdn cache stats|gc [--cache-dir DIR] [--max-mb MB] [--max-age-days D]`.
fn cache_cmd(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let Some((verb, rest)) = args.split_first() else {
        return Err("cache needs a subcommand (stats|gc)".into());
    };
    let known: &[&str] =
        if verb == "gc" { &["cache-dir", "max-mb", "max-age-days"] } else { &["cache-dir"] };
    let opts = parse_flags(rest, known)?;
    let Some(cache) = cache_from_opts(&opts)? else {
        return Err("caching is disabled (--cache-dir/PDN_CACHE_DIR is none)".into());
    };
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    match verb.as_str() {
        "stats" => {
            let s = cache.stats()?;
            outln!("cache dir : {}", cache.dir().display())?;
            outln!("entries   : {}", s.entries)?;
            outln!("size      : {:.2} MiB", mib(s.total_bytes))?;
            if let (Some(oldest), Some(newest)) = (s.oldest_age, s.newest_age) {
                outln!("oldest    : {}", human_age(oldest))?;
                outln!("newest    : {}", human_age(newest))?;
            }
            Ok(())
        }
        "gc" => {
            let max_mb: Option<f64> = parse_opt(&opts, "max-mb")?;
            let max_days: Option<f64> = parse_opt(&opts, "max-age-days")?;
            if max_mb.is_none() && max_days.is_none() {
                return Err("cache gc needs --max-mb and/or --max-age-days".into());
            }
            let max_bytes = max_mb.map(|mb| (mb.max(0.0) * 1024.0 * 1024.0) as u64);
            let max_age = max_days.map(|d| Duration::from_secs_f64(d.max(0.0) * 86_400.0));
            let r = cache.gc(max_bytes, max_age)?;
            outln!(
                "evicted {} entries ({:.2} MiB); {} entries ({:.2} MiB) remain in {}",
                r.removed,
                mib(r.freed_bytes),
                r.kept,
                mib(r.kept_bytes),
                cache.dir().display()
            )?;
            Ok(())
        }
        other => Err(format!("unknown cache subcommand `{other}` (stats|gc)").into()),
    }
}

/// Renders an entry age compactly: seconds, then minutes, hours, days.
fn human_age(age: Duration) -> String {
    let s = age.as_secs_f64();
    if s < 120.0 {
        format!("{s:.0}s ago")
    } else if s < 2.0 * 3600.0 {
        format!("{:.0}m ago", s / 60.0)
    } else if s < 2.0 * 86_400.0 {
        format!("{:.1}h ago", s / 3600.0)
    } else {
        format!("{:.1}d ago", s / 86_400.0)
    }
}

fn info(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let spec = preset.spec(scale(opts)?);
    let grid = spec.build(parse(opts, "seed", 1u64)?)?;
    let tiles = spec.tile_grid();
    outln!("design   : {}", spec.name())?;
    outln!("die      : {:.0} x {:.0} um", spec.die_size().0, spec.die_size().1)?;
    outln!("layers   : {}", spec.layers().len())?;
    outln!("nodes    : {}", grid.node_count())?;
    outln!("loads    : {}", grid.loads().len())?;
    outln!("bumps    : {}", grid.bumps().len())?;
    outln!("tiles    : {} x {}", tiles.rows(), tiles.cols())?;
    outln!("vdd      : {}", spec.vdd())?;
    outln!("dt       : {:.0} ps", spec.time_step().0 * 1e12)?;
    outln!("hotspot  : >{:.0} mV", spec.hotspot_threshold().to_millivolts())?;
    Ok(())
}

fn load_or_generate_vector(
    opts: &HashMap<String, String>,
    grid: &pdn_wnv::grid::build::PowerGrid,
) -> Result<pdn_wnv::vectors::vector::TestVector, Box<dyn std::error::Error>> {
    if let Some(path) = opts.get("vector") {
        let v = pdn_wnv::vectors::io::read_csv_file(path)?;
        if v.load_count() != grid.loads().len() {
            return Err(format!(
                "vector file has {} loads but the design has {}",
                v.load_count(),
                grid.loads().len()
            )
            .into());
        }
        pdn_wnv::sim::transient::check_time_step(grid.spec().time_step(), &v).map_err(|e| {
            format!("vector file {path}: {e} (set by its `dt_ps=` header; 1 ps without one)")
        })?;
        return Ok(v);
    }
    let steps = parse(opts, "steps", 120usize)?;
    let seed = parse(opts, "seed", 7u64)?;
    let gen = VectorGenerator::new(grid, GeneratorConfig { steps, ..Default::default() });
    Ok(gen.generate(seed))
}

fn simulate(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let grid = try_stage("build_grid", || -> Result<_, Box<dyn std::error::Error>> {
        Ok(preset.spec(scale(opts)?).build(1)?)
    })?;
    let vector = try_stage("load_vector", || load_or_generate_vector(opts, &grid))?;
    let steps = vector.step_count();
    let seed = parse(opts, "seed", 7u64)?;
    let kind = solver(opts)?;
    let runner = try_stage("factorize", || WnvRunner::with_solver(&grid, kind))?;
    let t0 = Instant::now();
    let report = try_stage("simulate", || runner.run(&vector))?;
    outln!(
        "simulated {} steps on {} nodes in {:.2}s ({} CG iterations)",
        steps,
        grid.node_count(),
        t0.elapsed().as_secs_f64(),
        report.stats.cg_iterations
    )?;
    outln!(
        "worst-case noise: mean {:.1} mV, max {:.1} mV, hotspot ratio {:.1}%",
        report.mean_noise().to_millivolts(),
        report.max_noise.to_millivolts(),
        report.hotspot_ratio(grid.spec().hotspot_threshold()) * 100.0
    )?;
    outln!("\n{}", ascii_map(&report.worst_noise, 0.0, report.worst_noise.max()))?;
    try_stage("report", || -> Result<(), Box<dyn std::error::Error>> {
        if let Some(dir) = opts.get("out") {
            let path =
                PathBuf::from(dir).join(format!("{}_seed{}_noise.csv", grid.spec().name(), seed));
            write_csv(&report.worst_noise, &path)?;
            outln!("noise map written to {}", path.display())?;
        }
        Ok(())
    })
}

/// `pdn factor`: the factor-once/solve-many hot path in isolation —
/// stamps the transient system, runs the symbolic analysis, the supernodal
/// numeric factorization, and an `--rhs N` solve sweep, reporting phase
/// wall clocks and factor fill (also recorded as telemetry spans/gauges).
fn factor(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    use pdn_wnv::sparse::supernodal::{FillOrdering, SupernodalCholesky, SymbolicCholesky};
    let preset = design(opts)?;
    let nrhs = parse(opts, "rhs", 1000usize)?;
    let seed = parse(opts, "seed", 1u64)?;
    let ordering: Option<FillOrdering> = match opts.get("ordering").map(String::as_str) {
        None | Some("auto") => None,
        Some("natural") => Some(FillOrdering::Natural),
        Some("rcm") => Some(FillOrdering::Rcm),
        Some("amd") => Some(FillOrdering::Amd),
        Some(other) => {
            return Err(format!("unknown ordering `{other}` (auto|natural|rcm|amd)").into())
        }
    };
    let grid = try_stage("build_grid", || -> Result<_, Box<dyn std::error::Error>> {
        Ok(preset.spec(scale(opts)?).build(seed)?)
    })?;
    let n = grid.node_count();
    outln!("design  : {} ({} nodes)", grid.spec().name(), n)?;
    let (matrix, _, _) = try_stage("stamp", || stamp_transient_system(&grid))?;
    outln!("matrix  : {} nnz", matrix.nnz())?;

    let t0 = Instant::now();
    let sym = try_stage("analyze", || match ordering {
        None => SymbolicCholesky::analyze(&matrix),
        Some(ord) => SymbolicCholesky::analyze_with(&matrix, ord),
    })?;
    let t_analyze = t0.elapsed();
    telemetry::gauge_set("factor.nnz_l", sym.factor_nnz() as f64);
    telemetry::gauge_set("factor.panel_nnz", sym.panel_nnz() as f64);
    if let Some(sel) = sym.selection() {
        outln!(
            "compare : predicted nnz(L) rcm {} vs amd {} -> {}",
            sel.rcm_nnz,
            sel.amd_nnz,
            sel.ordering.name(),
        )?;
    }
    outln!(
        "analyze : {:.2}s — ordering {}, {} supernodes, nnz(L) {} ({:.2} GiB panels)",
        t_analyze.as_secs_f64(),
        sym.ordering().name(),
        sym.n_supernodes(),
        sym.factor_nnz(),
        sym.panel_nnz() as f64 * 8.0 / (1024.0 * 1024.0 * 1024.0),
    )?;

    let t1 = Instant::now();
    let chol =
        try_stage("numeric", || SupernodalCholesky::factor_with(std::sync::Arc::new(sym), &matrix))?;
    let t_numeric = t1.elapsed();
    outln!("numeric : {:.2}s", t_numeric.as_secs_f64())?;

    // Deterministic pseudo-load RHS sweep: unit-scale currents at varying
    // phases, so the triangular solves see realistic dense traffic.
    let mut rhs = vec![0.0f64; n * nrhs];
    for (v, chunk) in rhs.chunks_mut(n).enumerate() {
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = (((i * 31 + v * 17 + 7) % 101) as f64 - 50.0) * 1e-4;
        }
    }
    let t2 = Instant::now();
    stage("sweep", || chol.solve_sweep(&mut rhs, nrhs));
    let t_sweep = t2.elapsed();
    let per_solve = t_sweep.as_secs_f64() / nrhs.max(1) as f64;
    outln!(
        "sweep   : {:.2}s for {} RHS ({:.1} ms/solve, {} threads)",
        t_sweep.as_secs_f64(),
        nrhs,
        per_solve * 1e3,
        pdn_wnv::core::threads::width(),
    )?;
    // The solutions' bits, so runs at different PDN_THREADS can be compared.
    let mut digest = pdn_wnv::core::fsio::Digest::new();
    for &x in &rhs {
        digest.update_f64(x);
    }
    outln!("digest  : {} (swept solutions)", digest.hex())?;
    outln!(
        "total   : {:.2}s (analyze + numeric + sweep)",
        (t_analyze + t_numeric + t_sweep).as_secs_f64()
    )?;
    // Guard against NaNs escaping a misassembled system.
    let finite = rhs.iter().all(|x| x.is_finite());
    if !finite {
        return Err("solve sweep produced non-finite values".into());
    }
    Ok(())
}

/// Resolves the ground-truth cache: `--cache-dir` wins, then
/// `PDN_CACHE_DIR`, then `~/.cache/pdn-wnv`; `none`/`off`/`0`/empty
/// disables caching.
fn cache_from_opts(
    opts: &HashMap<String, String>,
) -> Result<Option<WnvCache>, Box<dyn std::error::Error>> {
    let dir = match opts.get("cache-dir").map(|v| v.trim()) {
        Some("" | "0" | "none" | "off") => None,
        Some(path) => Some(PathBuf::from(path)),
        None => WnvCache::default_dir(),
    };
    match dir {
        Some(d) => Ok(Some(
            WnvCache::open(&d).map_err(|e| format!("cache dir {}: {e}", d.display()))?,
        )),
        None => Ok(None),
    }
}

/// Builds the training-checkpoint config from `--checkpoint FILE`,
/// `--checkpoint-every N` (default 5) and `--resume true`.
fn checkpoints_from_opts(
    opts: &HashMap<String, String>,
) -> Result<Option<CheckpointConfig>, Box<dyn std::error::Error>> {
    let Some(path) = opts.get("checkpoint") else {
        let dependents = ["resume", "checkpoint-every", "checkpoint-keep"];
        if dependents.iter().any(|k| opts.contains_key(*k)) {
            return Err(
                "--resume/--checkpoint-every/--checkpoint-keep need --checkpoint FILE".into()
            );
        }
        return Ok(None);
    };
    Ok(Some(CheckpointConfig {
        path: PathBuf::from(path),
        every: parse(opts, "checkpoint-every", 5usize)?.max(1),
        resume: parse(opts, "resume", false)?,
        keep: parse_opt(opts, "checkpoint-keep")?,
    }))
}

fn experiment_config(
    opts: &HashMap<String, String>,
) -> Result<ExperimentConfig, Box<dyn std::error::Error>> {
    let base = ExperimentConfig::quick();
    Ok(ExperimentConfig {
        scale: scale(opts)?,
        vectors: parse(opts, "vectors", base.vectors)?,
        steps: parse(opts, "steps", base.steps)?,
        train: TrainConfig {
            epochs: parse(opts, "epochs", base.train.epochs)?,
            ..base.train
        },
        seed: parse(opts, "seed", base.seed)?,
        ..base
    })
}

fn run_pipeline(
    preset: DesignPreset,
    config: &ExperimentConfig,
    opts: &HashMap<String, String>,
) -> Result<EvaluatedDesign, Box<dyn std::error::Error>> {
    let cache = cache_from_opts(opts)?;
    let checkpoints = checkpoints_from_opts(opts)?;
    if let Some(c) = &cache {
        outln!("ground-truth cache: {}", c.dir().display())?;
    }
    if let Some(ck) = &checkpoints {
        outln!(
            "training checkpoints: {} (every {} epochs{}{})",
            ck.path.display(),
            ck.every,
            if ck.resume { ", resume enabled" } else { "" },
            match ck.keep {
                Some(k) => format!(", keep last {k}"),
                None => String::new(),
            }
        )?;
    }
    let options = EvalOptions {
        cache: cache.as_ref(),
        checkpoints: checkpoints.as_ref(),
        zero_distance: false,
        solver: solver(opts)?,
    };
    try_stage("simulate_and_train", || EvaluatedDesign::evaluate_with(preset, config, &options))
}

fn train(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let out = opts.get("out").ok_or("--out MODEL is required")?;
    let config = experiment_config(opts)?;
    outln!(
        "simulating {} vectors of {} steps and training for {} epochs ...",
        config.vectors, config.steps, config.train.epochs
    )?;
    let t0 = Instant::now();
    let mut eval = run_pipeline(preset, &config, opts)?;
    let stats = pdn_wnv::eval::metrics::pooled_error_stats(&eval.test_pairs);
    outln!("done in {:.1}s; held-out accuracy: {stats}", t0.elapsed().as_secs_f64())?;
    try_stage("save_model", || eval.predictor.save_to(out))?;
    outln!("predictor bundle written to {out}")?;
    Ok(())
}

/// `pdn eval`: the full pipeline (simulate or cache-load ground truth,
/// train, predict the test set) with the accuracy/runtime summary, without
/// writing a model bundle.
fn eval_cmd(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let config = experiment_config(opts)?;
    outln!(
        "evaluating {} at {:?} scale: {} vectors x {} steps, {} epochs ...",
        preset.name(),
        config.scale,
        config.vectors,
        config.steps,
        config.train.epochs
    )?;
    let t0 = Instant::now();
    let eval = run_pipeline(preset, &config, opts)?;
    let stats = pdn_wnv::eval::metrics::pooled_error_stats(&eval.test_pairs);
    outln!("done in {:.1}s", t0.elapsed().as_secs_f64())?;
    outln!("held-out accuracy : {stats}")?;
    outln!(
        "runtime           : sim {:.4}s/vector, predict {:.4}s/vector, speedup {:.0}x",
        eval.prepared.sim_time_per_vector.as_secs_f64(),
        eval.predict_time_per_vector.as_secs_f64(),
        eval.speedup()
    )?;
    Ok(())
}

fn predict(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let model_path = opts.get("model").ok_or("--model MODEL is required")?;
    let grid = try_stage("build_grid", || -> Result<_, Box<dyn std::error::Error>> {
        Ok(preset.spec(scale(opts)?).build(1)?)
    })?;
    let seed = parse(opts, "seed", 7u64)?;
    let mut predictor = try_stage("load_model", || Predictor::load_from(model_path))?;
    let vector = try_stage("load_vector", || load_or_generate_vector(opts, &grid))?;
    let t0 = Instant::now();
    let map = stage("predict", || predictor.predict(&grid, &vector));
    outln!(
        "predicted in {:.4}s: worst droop {}",
        t0.elapsed().as_secs_f64(),
        Volts(map.max())
    )?;
    outln!("\n{}", ascii_map(&map, 0.0, map.max().max(1e-9)))?;
    if let Some(dir) = opts.get("out") {
        let path =
            PathBuf::from(dir).join(format!("{}_seed{}_predicted.csv", grid.spec().name(), seed));
        write_csv(&map, &path)?;
        outln!("predicted map written to {}", path.display())?;
    }
    Ok(())
}

/// Set by the signal handler; the serve command's main loop polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Routes SIGTERM and SIGINT to [`SHUTDOWN`] via libc's `signal(2)`,
/// declared directly so the daemon needs no FFI crate. Storing an
/// `AtomicBool` is async-signal-safe.
fn install_shutdown_signals() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal);
        signal(SIGINT, on_shutdown_signal);
    }
}

fn serve_cmd(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    use pdn_wnv::eval::serve::{self, batcher::BatchConfig, ServeConfig};

    let preset = design(opts)?;
    let model_path = opts.get("model").ok_or("--model MODEL is required")?;
    let grid = try_stage("build_grid", || -> Result<_, Box<dyn std::error::Error>> {
        Ok(preset.spec(scale(opts)?).build(1)?)
    })?;
    let predictor = try_stage("load_model", || Predictor::load_from(model_path))?;
    let kind = solver(opts)?;
    let runner = try_stage("factorize", || WnvRunner::with_solver(&grid, kind))?;
    let cache = cache_from_opts(opts)?;

    let max_wait = Duration::from_millis(parse(opts, "max-wait-ms", 2u64)?);
    let cfg = ServeConfig {
        addr: opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:8320".to_string()),
        workers: parse(opts, "workers", 0usize)?,
        predict_batch: BatchConfig { max_batch: parse(opts, "max-batch", 16usize)?, max_wait },
        simulate_batch: BatchConfig {
            max_batch: pdn_wnv::sim::wnv::DEFAULT_BATCH,
            max_wait,
        },
        max_queue: parse(opts, "max-queue", 0usize)?,
        access_log: opts.get("access-log").map(std::path::PathBuf::from),
    };

    let design_name = grid.spec().name().to_string();
    let server = try_stage("bind", || {
        serve::serve(&cfg, &design_name, grid, predictor, runner, cache)
    })?;
    outln!("pdn serve: {design_name} listening on http://{}", server.local_addr())?;

    install_shutdown_signals();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    // Drain the server even when stdout is gone.
    let announced = outln!("pdn serve: signal received, shutting down");
    server.shutdown();
    announced?;
    outln!("pdn serve: shutdown complete")?;
    Ok(())
}

fn export_netlist(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let out = opts.get("out").ok_or("--out FILE.sp is required")?;
    let grid = preset.spec(scale(opts)?).build(parse(opts, "seed", 1u64)?)?;
    pdn_wnv::grid::netlist::write_spice_file(&grid, out)?;
    outln!(
        "wrote SPICE deck for {} ({} nodes, {} elements) to {out}",
        grid.spec().name(),
        grid.node_count(),
        grid.resistors().len() + grid.bumps().len() * 2 + grid.loads().len()
    )?;
    Ok(())
}

fn export_vector(opts: &HashMap<String, String>) -> Result<(), Box<dyn std::error::Error>> {
    let preset = design(opts)?;
    let out = opts.get("out").ok_or("--out FILE.csv is required")?;
    let grid = preset.spec(scale(opts)?).build(1)?;
    let steps = parse(opts, "steps", 120usize)?;
    let seed = parse(opts, "seed", 7u64)?;
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps, ..Default::default() });
    let vector = gen.generate(seed);
    pdn_wnv::vectors::io::write_csv_file(&vector, out)?;
    outln!("wrote {} x {} test vector to {out}", vector.step_count(), vector.load_count())?;
    Ok(())
}
