//! Runs the full experiment suite, regenerating every table and figure of
//! the paper's evaluation section, and records the results in
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p pdn-eval --release --bin experiments            # CI scale (~19 min, one Xeon thread)
//! cargo run -p pdn-eval --release --bin experiments -- --quick # Tiny scale (~5 s)
//! cargo run -p pdn-eval --release --bin experiments -- --out DIR
//! ```
//!
//! Text output goes to stdout; text tables and CSV artifacts go to `--out`
//! (default `target/experiments/`). The output directory is published
//! atomically: artifacts are staged in a hidden sibling directory and
//! renamed into place only once the whole suite succeeds, so an
//! interrupted run never leaves a half-regenerated mixture of old and new
//! tables.
//!
//! Once the directory is published, the results are rendered between the
//! marker pairs of the workspace's EXPERIMENTS.md
//! (`pdn_eval::experiments::record`). A CI-scale run rewrites that
//! document; a `--quick` run writes the filled copy to `<out>/EXPERIMENTS.md`
//! and leaves the committed one alone. A missing or repeated marker, or a
//! non-finite number, fails the run and leaves the document untouched.
//!
//! Each design's ground truth is simulated once, with the direct solver
//! (one factor per design, a new right-hand side per step, as paper §2
//! describes sign-off), and every table and figure reuses it.

use pdn_eval::experiments::record::{self, Section};
use pdn_eval::experiments::{ablations, fig4, fig5, fig6, table1, table2, table3};
use pdn_eval::harness::{EvalOptions, EvaluatedDesign, ExperimentConfig, PreparedDesign};
use pdn_grid::design::DesignPreset;
use pdn_powernet::model::PowerNetTrainConfig;
use pdn_powernet::PowerNetConfig;
use pdn_sim::transient::SolverKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: experiments [--quick] [--out DIR]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_dir) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            report_error(&format!("{e}\n\n{USAGE}"));
            return ExitCode::FAILURE;
        }
    };
    pdn_core::telemetry::init_from_env();
    // Report a bad PDN_THREADS up front.
    let threads = pdn_core::threads::width();
    // Flush the telemetry sink (with summary records) even if a driver
    // panics partway through the suite.
    let _flush = pdn_core::telemetry::FlushGuard::new();
    let config = if quick { ExperimentConfig::quick() } else { ExperimentConfig::ci() };
    let options = EvalOptions { solver: SolverKind::DirectCholesky, ..EvalOptions::default() };
    let started = Instant::now();

    println!("== pdn-wnv experiment suite ({:?} scale) ==\n", config.scale);

    let mut sections = Vec::new();
    let published = pdn_core::fsio::publish_dir(&out_dir, |stage| {
        sections = run_suite(stage, &config, &options, quick)?;
        Ok(())
    });
    if let Err(e) = published {
        report_error(&format!("publishing experiment artifacts to {}: {e}", out_dir.display()));
        return ExitCode::FAILURE;
    }
    let minutes = started.elapsed().as_secs_f64() / 60.0;
    println!("\nAll artifacts written to {} (total {minutes:.1} min)", out_dir.display());

    let sweep = sweep_config(&config, quick);
    let stamp = format!(
        "* scale `{:?}`: {} vectors × {} steps per design\n\
         * training epochs: {} (Fig 6 sweep and ablations: {})\n\
         * ground-truth solver: {:?}\n\
         * `PDN_THREADS={threads}`\n\
         * suite wall clock: {minutes:.1} min",
        config.scale, config.vectors, config.steps, config.train.epochs, sweep.train.epochs,
        options.solver,
    );
    sections.insert(0, Section { name: "RUN_MEASURED", body: stamp });
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    let doc = workspace.expect("crates/eval sits two levels below the root").join("EXPERIMENTS.md");
    let target = if quick { out_dir.join("EXPERIMENTS.md") } else { doc.clone() };
    let recorded = std::fs::read_to_string(&doc)
        .map_err(|e| format!("reading {}: {e}", doc.display()))
        .and_then(|text| {
            record::fill(&text, &sections).map_err(|e| format!("{}: {e}", doc.display()))
        })
        .and_then(|filled| {
            pdn_core::fsio::atomic_write(&target, filled.as_bytes())
                .map_err(|e| format!("writing {}: {e}", target.display()))
        });

    if pdn_core::telemetry::enabled() {
        pdn_core::telemetry::write_summary_records();
        pdn_core::telemetry::flush();
        println!("\n{}", pdn_core::telemetry::summary());
    }
    match recorded {
        Ok(()) => {
            println!("Results recorded in {}", target.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            report_error(&e);
            ExitCode::FAILURE
        }
    }
}

/// Writes an `error:` line to stderr; not `eprintln!`, which panics when
/// stderr is closed.
fn report_error(message: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr(), "error: {message}");
}

/// Parses the whole command line: `--quick` and `--out DIR`, nothing else.
fn parse_args(args: &[String]) -> Result<(bool, PathBuf), String> {
    let mut quick = false;
    let mut out = PathBuf::from("target/experiments");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().ok_or("flag --out needs a value")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => return Err(format!("expected a --flag, got `{other}`")),
        }
    }
    Ok((quick, out))
}

/// The configuration of the Fig 6 sweep and the ablations: at CI scale a
/// smaller training budget, so that retraining per rate and per variant
/// stays affordable. Only `train` differs from `config`, and preparation
/// never reads it, so both reuse the suite's simulated ground truth.
fn sweep_config(config: &ExperimentConfig, quick: bool) -> ExperimentConfig {
    if quick {
        *config
    } else {
        ExperimentConfig {
            train: pdn_model::trainer::TrainConfig { epochs: 60, ..config.train },
            ..*config
        }
    }
}

/// Regenerates every table and figure into `out_dir` (a staging directory;
/// the caller publishes it atomically) and returns them rendered for
/// EXPERIMENTS.md.
fn run_suite(
    out_dir: &Path,
    config: &ExperimentConfig,
    options: &EvalOptions<'_>,
    quick: bool,
) -> std::io::Result<Vec<Section>> {
    // --- prepare + evaluate all four designs (shared by every artifact) ---
    let mut evaluated: Vec<EvaluatedDesign> = Vec::new();
    for preset in DesignPreset::ALL {
        let t0 = Instant::now();
        print!("[{}] simulate + train ... ", preset.name());
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let eval = EvaluatedDesign::evaluate_with(preset, config, options).expect("pipeline");
        println!(
            "done in {:.1}s (train loss {:.4} -> {:.4}, val {:.4})",
            t0.elapsed().as_secs_f64(),
            eval.history.epochs.first().map_or(f32::NAN, |e| e.train_loss),
            eval.history.final_train_loss().unwrap_or(f32::NAN),
            eval.history.final_val_loss().unwrap_or(f32::NAN),
        );
        evaluated.push(eval);
    }
    println!();

    // --- Table 1 ---
    let prepared: Vec<&PreparedDesign> = evaluated.iter().map(|e| &e.prepared).collect();
    let t1 = table1::run(&prepared);
    println!("Table 1: design characteristics\n{t1}");
    pdn_core::fsio::atomic_write(out_dir.join("table1.txt"), t1.to_string().as_bytes())?;

    // --- Table 2 ---
    let refs: Vec<&EvaluatedDesign> = evaluated.iter().collect();
    let t2 = table2::run(&refs);
    println!("Table 2: proposed framework vs simulator\n{t2}");
    pdn_core::fsio::atomic_write(out_dir.join("table2.txt"), t2.to_string().as_bytes())?;

    // --- Table 3: PowerNet on D4 ---
    let d4 = &evaluated[3];
    let (pn_cfg, pn_train) = if quick {
        (
            PowerNetConfig { time_windows: 5, window: 7, channels: 4, seed: 1 },
            PowerNetTrainConfig {
                epochs: 3,
                tiles_per_epoch: 300,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 2,
            },
        )
    } else {
        (
            PowerNetConfig { time_windows: 10, window: 15, channels: 8, seed: 1 },
            PowerNetTrainConfig {
                epochs: 8,
                tiles_per_epoch: 1500,
                batch_size: 32,
                learning_rate: 1e-3,
                seed: 2,
            },
        )
    };
    let t0 = Instant::now();
    let t3 = table3::run(d4, &pn_cfg, &pn_train);
    println!(
        "Table 3: comparison with PowerNet on {} ({:.1}s)\n{t3}",
        d4.prepared.preset.name(),
        t0.elapsed().as_secs_f64()
    );
    pdn_core::fsio::atomic_write(out_dir.join("table3.txt"), t3.to_string().as_bytes())?;

    // --- Fig. 4: D1-D3 maps ---
    let f4 = fig4::run(&refs[..3]);
    println!("Fig. 4: ground truth vs prediction (D1-D3)\n{f4}");
    f4.write_artifacts(out_dir)?;

    // --- Fig. 5: D4 detail ---
    let f5 = fig5::run(d4);
    println!("Fig. 5: D4 error analysis\n{f5}");
    f5.write_artifacts(out_dir)?;

    // --- Fig. 6: compression sweep on D1 and D2 (the designs the paper's
    //     text discusses), retrained per rate on the simulated designs ---
    let rates: &[f64] = if quick { &[0.2, 0.6, 1.0] } else { &[0.1, 0.3, 0.6, 1.0] };
    let sweep = sweep_config(config, quick);
    let mut f6_text = Vec::new();
    for eval in &evaluated[..2] {
        let f6 = fig6::run(eval.prepared.clone(), rates, &sweep);
        println!("Fig. 6 ({}): compression sweep\n{f6}", f6.design);
        f6.write_artifacts(out_dir)?;
        pdn_core::fsio::atomic_write(
            out_dir.join(format!("fig6_{}.txt", f6.design)),
            f6.to_string().as_bytes(),
        )?;
        f6_text.push(f6.to_string());
    }

    // --- extension: ablation study on D1 ---
    let abl = ablations::run(evaluated[0].prepared.clone(), &sweep);
    println!("{abl}");
    pdn_core::fsio::atomic_write(out_dir.join("ablations_D1.txt"), abl.to_string().as_bytes())?;

    let block = |text: &str| {
        let lines: Vec<&str> = text.trim_end().lines().map(str::trim_end).collect();
        format!("```text\n{}\n```", lines.join("\n"))
    };
    let correlations: Vec<String> = f4
        .panels
        .iter()
        .map(|p| format!("* {}: Pearson correlation {:.3}", p.design, p.correlation()))
        .collect();
    Ok(vec![
        Section { name: "TABLE1_MEASURED", body: block(&t1.to_string()) },
        Section { name: "TABLE2_MEASURED", body: block(&t2.to_string()) },
        Section { name: "TABLE3_MEASURED", body: block(&t3.to_string()) },
        Section { name: "FIG4_MEASURED", body: correlations.join("\n") },
        Section {
            name: "FIG5_MEASURED",
            body: format!(
                "* {}: {:.1} % of tiles below 5 % relative error",
                f5.design,
                f5.fraction_below_5_percent() * 100.0
            ),
        },
        Section { name: "FIG6_MEASURED", body: block(&f6_text.join("\n")) },
        Section { name: "ABLATIONS_MEASURED", body: block(&abl.to_string()) },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, PathBuf), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_quick_and_out_only() {
        assert_eq!(parse(&[]), Ok((false, PathBuf::from("target/experiments"))));
        assert_eq!(parse(&["--out", "d", "--quick"]), Ok((true, PathBuf::from("d"))));
        assert_eq!(parse(&["--quik"]), Err("unknown flag --quik".to_string()));
        assert_eq!(parse(&["--telemetry", "x"]), Err("unknown flag --telemetry".to_string()));
        assert_eq!(parse(&["--quick", "--out"]), Err("flag --out needs a value".to_string()));
        assert!(parse(&["quick"]).unwrap_err().contains("`quick`"));
    }
}
