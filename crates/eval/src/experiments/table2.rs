//! Table 2: accuracy and runtime of the proposed framework vs the
//! simulator, per design.
//!
//! Columns: tile grid `m × n`, mean/99 %/max AE and RE over all test-set
//! tiles, proposed and simulator runtimes per vector, the simulator's
//! one-off set-up, the per-vector speedup and the speedup with that set-up
//! spread over the design's vector group, and hotspot missing rate at the
//! 10 % V<sub>nom</sub> threshold.

use crate::harness::EvaluatedDesign;
use crate::metrics::{pooled_error_stats, pooled_missing_rate, ErrorStats};
use crate::report::TextTable;
use std::time::Duration;

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Design name.
    pub design: String,
    /// Tile grid (m, n).
    pub tiles: (usize, usize),
    /// Pooled error statistics over all test tiles.
    pub errors: ErrorStats,
    /// Proposed framework runtime per vector.
    pub proposed: Duration,
    /// Simulator runtime per vector.
    pub commercial: Duration,
    /// Simulator set-up for the design (stamp, analyze, factor).
    pub setup: Duration,
    /// Per-vector speedup: `commercial / proposed`.
    pub speedup: f64,
    /// Speedup with the set-up spread over the vector group:
    /// `(commercial + setup / vectors) / proposed`.
    pub amortized_speedup: f64,
    /// Hotspot missing rate.
    pub missing_rate: f64,
}

/// The regenerated Table 2.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table2 {
    /// One row per design.
    pub rows: Vec<Table2Row>,
}

/// Builds one row from an evaluated design.
pub fn row(eval: &EvaluatedDesign) -> Table2Row {
    let tiles = eval.prepared.grid.tile_grid();
    let thr = eval.prepared.grid.spec().hotspot_threshold();
    let setup = eval.prepared.setup_time;
    let amortized = eval.prepared.sim_time_per_vector.as_secs_f64()
        + setup.as_secs_f64() / eval.prepared.vectors.len().max(1) as f64;
    Table2Row {
        design: eval.prepared.preset.name().to_string(),
        tiles: (tiles.rows(), tiles.cols()),
        errors: pooled_error_stats(&eval.test_pairs),
        proposed: eval.predict_time_per_vector,
        commercial: eval.prepared.sim_time_per_vector,
        setup,
        speedup: eval.speedup(),
        amortized_speedup: amortized / eval.predict_time_per_vector.as_secs_f64().max(1e-9),
        missing_rate: pooled_missing_rate(&eval.test_pairs, thr),
    }
}

/// Builds the table from evaluated designs.
pub fn run(evaluated: &[&EvaluatedDesign]) -> Table2 {
    Table2 { rows: evaluated.iter().map(|e| row(e)).collect() }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = TextTable::new(vec![
            "Design",
            "m x n",
            "Mean AE/RE",
            "99% AE/RE",
            "Max AE/RE",
            "Proposed (s)",
            "Commercial (s)",
            "Set-up (s)",
            "Speedup",
            "Amortized",
            "Missing rate",
        ]);
        for r in &self.rows {
            let e = &r.errors;
            t.row(vec![
                r.design.clone(),
                format!("{}x{}", r.tiles.0, r.tiles.1),
                format!("{:.2}mV/{:.2}%", e.mean_ae * 1e3, e.mean_re * 100.0),
                format!("{:.2}mV/{:.2}%", e.p99_ae * 1e3, e.p99_re * 100.0),
                format!("{:.2}mV/{:.2}%", e.max_ae * 1e3, e.max_re * 100.0),
                format!("{:.3}", r.proposed.as_secs_f64()),
                format!("{:.2}", r.commercial.as_secs_f64()),
                format!("{:.3}", r.setup.as_secs_f64()),
                format!("{:.0}x", r.speedup),
                format!("{:.0}x", r.amortized_speedup),
                format!("{:.2}%", r.missing_rate * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentConfig;
    use pdn_grid::design::DesignPreset;

    #[test]
    fn quick_table2_row_is_sane() {
        let cfg = ExperimentConfig::quick();
        let eval = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).unwrap();
        let r = row(&eval);
        assert_eq!(r.design, "D1");
        assert_eq!(r.tiles, (8, 8));
        // Even a quickly trained model should land within 50% mean RE on
        // this easy design, and inference must beat simulation.
        assert!(r.errors.mean_re < 0.5, "mean RE {}", r.errors.mean_re);
        assert!(r.speedup > 1.0);
        assert!(r.setup > Duration::ZERO, "set-up {:?}", r.setup);
        assert!(
            r.amortized_speedup >= r.speedup,
            "amortized {} < per-vector {}",
            r.amortized_speedup,
            r.speedup
        );
        assert!((0.0..=1.0).contains(&r.missing_rate));
        let rendered = run(&[&eval]).to_string();
        assert!(rendered.contains("Speedup"));
        assert!(rendered.contains("D1"));
    }
}
