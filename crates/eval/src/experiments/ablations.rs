//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Not a paper artifact, but the natural follow-up questions a reviewer
//! asks of §3.3/§3.4: how much does the distance feature buy? what does
//! temporal compression cost? how far does a learning-free static shortcut
//! get? Each variant trains on the same simulated data as the full model.

use crate::harness::{EvalOptions, EvaluatedDesign, ExperimentConfig, PreparedDesign};
use crate::metrics::{pooled_error_stats, ErrorStats};
use crate::report::TextTable;
use pdn_core::map::TileMap;
use pdn_sim::static_ir::StaticAnalysis;

/// One ablation row.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Pooled test-set error statistics.
    pub errors: ErrorStats,
}

/// The ablation table for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Design name.
    pub design: String,
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

/// Trains and scores one learned variant on the shared simulation.
fn evaluate(
    prepared: PreparedDesign,
    config: &ExperimentConfig,
    zero_distance: bool,
) -> EvaluatedDesign {
    let options = EvalOptions { zero_distance, ..EvalOptions::default() };
    EvaluatedDesign::evaluate_prepared(prepared, config, &options)
        .expect("ablations need a split with training and test vectors")
}

/// Runs the ablation suite on one design. Simulation is shared; each
/// learned variant trains from scratch with `config.train`.
///
/// Variants:
/// * `full` — the paper's model as configured;
/// * `no-distance` — the distance-to-bump feature replaced by zeros
///   (the network must infer bump locality from currents alone);
/// * `no-compression` — Algorithm 1 disabled (`r = 1`);
/// * `static-at-peak` — no learning: static IR drop at each vector's
///   per-load peak currents.
pub fn run(prepared: PreparedDesign, config: &ExperimentConfig) -> Ablations {
    let design = prepared.preset.name().to_string();
    let mut rows = Vec::new();

    // --- full model ---
    let full = evaluate(prepared, config, false);
    rows.push(AblationRow {
        variant: "full".to_string(),
        errors: pooled_error_stats(&full.test_pairs),
    });
    let prepared = full.prepared;

    // --- no distance feature ---
    {
        let eval = evaluate(prepared, config, true);
        rows.push(AblationRow {
            variant: "no-distance".to_string(),
            errors: pooled_error_stats(&eval.test_pairs),
        });
        let prepared = eval.prepared;

        // --- no temporal compression ---
        let uncompressed = ExperimentConfig { compression_rate: 1.0, ..*config };
        let eval = evaluate(prepared, &uncompressed, false);
        rows.push(AblationRow {
            variant: "no-compression".to_string(),
            errors: pooled_error_stats(&eval.test_pairs),
        });
        let prepared = eval.prepared;

        // --- learning-free static shortcut ---
        let dc = StaticAnalysis::new(&prepared.grid).expect("grid already simulated");
        let pairs: Vec<(TileMap, TileMap)> = eval
            .test_indices
            .iter()
            .map(|&idx| {
                let v = &prepared.vectors[idx];
                let peak: Vec<f64> = (0..v.load_count())
                    .map(|l| (0..v.step_count()).map(|k| v.current(k, l)).fold(0.0, f64::max))
                    .collect();
                (
                    dc.droop_map(&peak).expect("dc solve"),
                    prepared.reports[idx].worst_noise.clone(),
                )
            })
            .collect();
        rows.push(AblationRow {
            variant: "static-at-peak".to_string(),
            errors: pooled_error_stats(&pairs),
        });
    }

    Ablations { design, rows }
}

impl std::fmt::Display for Ablations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablations on {}:", self.design)?;
        let mut t = TextTable::new(vec!["Variant", "Mean AE/RE", "99% AE/RE", "Max AE/RE"]);
        for r in &self.rows {
            let e = &r.errors;
            t.row(vec![
                r.variant.clone(),
                format!("{:.2}mV/{:.2}%", e.mean_ae * 1e3, e.mean_re * 100.0),
                format!("{:.2}mV/{:.2}%", e.p99_ae * 1e3, e.p99_re * 100.0),
                format!("{:.2}mV/{:.2}%", e.max_ae * 1e3, e.max_re * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::DesignPreset;

    #[test]
    fn all_variants_run() {
        let cfg = ExperimentConfig::quick();
        let prep = PreparedDesign::prepare(DesignPreset::D1, &cfg).expect("prepare");
        let table = run(prep, &cfg);
        assert_eq!(table.rows.len(), 4);
        let names: Vec<&str> = table.rows.iter().map(|r| r.variant.as_str()).collect();
        assert_eq!(names, vec!["full", "no-distance", "no-compression", "static-at-peak"]);
        for r in &table.rows {
            assert!(r.errors.mean_ae.is_finite());
        }
        assert!(table.to_string().contains("no-distance"));
    }
}
