//! Runs the full experiment suite, regenerating every table and figure of
//! the paper's evaluation section.
//!
//! ```text
//! cargo run -p pdn-eval --release --bin experiments            # CI scale (~1 h)
//! cargo run -p pdn-eval --release --bin experiments -- --quick # Tiny scale (~1 min)
//! cargo run -p pdn-eval --release --bin experiments -- --out DIR
//! ```
//!
//! Text output goes to stdout; CSV artifacts go to `--out` (default
//! `target/experiments/`). The output directory is published atomically:
//! artifacts are staged in a hidden sibling directory and renamed into
//! place only once the whole suite succeeds, so an interrupted run never
//! leaves a half-regenerated mixture of old and new tables.

use pdn_eval::experiments::{ablations, fig4, fig5, fig6, table1, table2, table3};
use pdn_eval::harness::{EvaluatedDesign, ExperimentConfig, PreparedDesign};
use pdn_grid::design::DesignPreset;
use pdn_powernet::model::PowerNetTrainConfig;
use pdn_powernet::PowerNetConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    pdn_core::telemetry::init_from_env();
    // Report a bad PDN_THREADS up front.
    pdn_core::threads::width();
    // Flush the telemetry sink (with summary records) even if a driver
    // panics partway through the suite.
    let _flush = pdn_core::telemetry::FlushGuard::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir = match args.iter().position(|a| a == "--out") {
        Some(i) => PathBuf::from(
            args.get(i + 1).map(String::as_str).expect("--out requires a directory"),
        ),
        None => PathBuf::from("target/experiments"),
    };
    let config = if quick { ExperimentConfig::quick() } else { ExperimentConfig::ci() };
    let started = Instant::now();

    println!("== pdn-wnv experiment suite ({:?} scale) ==\n", config.scale);

    pdn_core::fsio::publish_dir(&out_dir, |stage| run_suite(stage, &config, quick))
        .expect("publish experiment artifacts");

    println!(
        "\nAll artifacts written to {} (total {:.1} min)",
        out_dir.display(),
        started.elapsed().as_secs_f64() / 60.0
    );
    if pdn_core::telemetry::enabled() {
        pdn_core::telemetry::write_summary_records();
        pdn_core::telemetry::flush();
        println!("\n{}", pdn_core::telemetry::summary());
    }
}

/// Regenerates every table and figure into `out_dir` (a staging directory;
/// the caller publishes it atomically).
fn run_suite(out_dir: &Path, config: &ExperimentConfig, quick: bool) -> std::io::Result<()> {
    let config = *config;

    // --- prepare + evaluate all four designs (shared by every artifact) ---
    let mut evaluated: Vec<EvaluatedDesign> = Vec::new();
    for preset in DesignPreset::ALL {
        let t0 = Instant::now();
        print!("[{}] simulate + train ... ", preset.name());
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        let eval = EvaluatedDesign::evaluate(preset, &config).expect("pipeline");
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
    //     text discusses) ---
    let rates: &[f64] = if quick { &[0.2, 0.6, 1.0] } else { &[0.1, 0.3, 0.6, 1.0] };
    // The sweep retrains per rate; use a reduced training budget so the
    // curve stays affordable, and reuse the already-simulated designs.
    let sweep_config = if quick {
        config
    } else {
        ExperimentConfig {
            train: pdn_model::trainer::TrainConfig { epochs: 60, ..config.train },
            ..config
        }
    };
    for preset in [DesignPreset::D1, DesignPreset::D2] {
        let prep = PreparedDesign::prepare(preset, &sweep_config).expect("prepare");
        let f6 = fig6::run(prep, rates, &sweep_config);
        println!("Fig. 6 ({}): compression sweep\n{f6}", preset.name());
        f6.write_artifacts(out_dir)?;
        pdn_core::fsio::atomic_write(
            out_dir.join(format!("fig6_{}.txt", preset.name())),
            f6.to_string().as_bytes(),
        )?;
    }

    // --- extension: ablation study on D1 ---
    let prep = PreparedDesign::prepare(DesignPreset::D1, &sweep_config).expect("prepare");
    let abl = ablations::run(prep, &sweep_config);
    println!("{abl}");
    pdn_core::fsio::atomic_write(out_dir.join("ablations_D1.txt"), abl.to_string().as_bytes())?;
    Ok(())
}
