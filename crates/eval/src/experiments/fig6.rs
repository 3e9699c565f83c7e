//! Fig. 6: impact of the temporal compression rate.
//!
//! (a) mean relative error vs compression rate `r` — retraining the model
//! at each rate on the same simulated data; the paper observes a knee near
//! `r ≈ 0.3`;
//! (b) prediction runtime vs `r` — near-linear, since the fusion subnet's
//! cost is proportional to the number of kept stamps.

use crate::harness::{EvalOptions, EvaluatedDesign, ExperimentConfig, PreparedDesign};
use crate::metrics::pooled_error_stats;
use crate::render::write_series_csv;
use std::path::Path;
use std::time::Duration;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Compression rate `r`.
    pub rate: f64,
    /// Mean relative error on the test set.
    pub mean_re: f64,
    /// Prediction runtime per vector.
    pub runtime: Duration,
}

/// The regenerated Fig. 6 for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Design name.
    pub design: String,
    /// Sweep points in ascending rate order.
    pub points: Vec<Fig6Point>,
}

/// Sweeps the compression rate for a design, retraining at each rate.
/// The preparation (simulation) is shared across rates.
pub fn run(prepared: PreparedDesign, rates: &[f64], config: &ExperimentConfig) -> Fig6 {
    assert!(!rates.is_empty(), "need at least one rate");
    let design = prepared.preset.name().to_string();
    let mut points = Vec::with_capacity(rates.len());
    // Re-evaluate with each rate; PreparedDesign is moved in and reused via
    // the returned EvaluatedDesign each round.
    let mut prep = prepared;
    for &rate in rates {
        let cfg = ExperimentConfig { compression_rate: rate, ..*config };
        let eval = EvaluatedDesign::evaluate_prepared(prep, &cfg, &EvalOptions::default())
            .expect("the sweep needs a split with training and test vectors");
        let stats = pooled_error_stats(&eval.test_pairs);
        points.push(Fig6Point {
            rate,
            mean_re: stats.mean_re,
            runtime: eval.predict_time_per_vector,
        });
        prep = eval.prepared;
    }
    Fig6 { design, points }
}

impl Fig6 {
    /// Writes the RE and runtime curves as CSV under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_artifacts(&self, dir: &Path) -> std::io::Result<()> {
        let re: Vec<(f64, f64)> = self.points.iter().map(|p| (p.rate, p.mean_re)).collect();
        write_series_csv(
            ("rate", "mean_re"),
            &re,
            &dir.join(format!("fig6a_{}_re_vs_rate.csv", self.design)),
        )?;
        let rt: Vec<(f64, f64)> =
            self.points.iter().map(|p| (p.rate, p.runtime.as_secs_f64())).collect();
        write_series_csv(
            ("rate", "runtime_s"),
            &rt,
            &dir.join(format!("fig6b_{}_runtime_vs_rate.csv", self.design)),
        )
    }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}: compression-rate sweep", self.design)?;
        writeln!(f, "  rate   mean RE   runtime")?;
        for p in &self.points {
            writeln!(
                f,
                "  {:.2}   {:>6.2}%   {:.3}s",
                p.rate,
                p.mean_re * 100.0,
                p.runtime.as_secs_f64()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::DesignPreset;

    #[test]
    fn sweep_runs_and_runtime_grows_with_rate() {
        let cfg = ExperimentConfig::quick();
        let prep = PreparedDesign::prepare(DesignPreset::D1, &cfg).unwrap();
        let fig = run(prep, &[0.2, 1.0], &cfg);
        assert_eq!(fig.points.len(), 2);
        // Keeping 5x more stamps must cost more inference time.
        assert!(
            fig.points[1].runtime > fig.points[0].runtime,
            "runtime {:?} vs {:?}",
            fig.points[0].runtime,
            fig.points[1].runtime
        );
        for p in &fig.points {
            assert!(p.mean_re.is_finite() && p.mean_re >= 0.0);
        }
        let dir = std::env::temp_dir().join("pdn_fig6_test");
        fig.write_artifacts(&dir).unwrap();
        assert!(dir.join("fig6a_D1_re_vs_rate.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
