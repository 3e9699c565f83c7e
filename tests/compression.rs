//! Integration of Algorithm 1 with the rest of the pipeline.

use pdn_wnv::compress::spatial::tile_current_maps;
use pdn_wnv::compress::temporal::TemporalCompressor;
use pdn_wnv::eval::harness::{EvalOptions, EvaluatedDesign, ExperimentConfig, PreparedDesign};
use pdn_wnv::eval::metrics;
use pdn_wnv::grid::design::DesignPreset;

#[test]
fn compression_keeps_the_worst_stamp_of_real_traces() {
    let cfg = ExperimentConfig::quick();
    let prep = PreparedDesign::prepare(DesignPreset::D1, &cfg).expect("prepare");
    for (i, vector) in prep.vectors.iter().enumerate() {
        let totals = vector.totals();
        let peak = (0..totals.len())
            .max_by(|&a, &b| totals[a].partial_cmp(&totals[b]).expect("finite"))
            .expect("non-empty");
        for rate in [0.1, 0.3] {
            let out = TemporalCompressor::new(rate, 0.05).expect("valid").compress(&totals);
            assert!(out.kept.contains(&peak), "vector {i}, rate {rate}: peak stamp dropped");
        }
    }
}

#[test]
fn map_and_vector_compression_agree() {
    // Compressing the raw vector and compressing its tile maps must select
    // the same time stamps (S[k] equals the map sum by construction).
    let cfg = ExperimentConfig::quick();
    let prep = PreparedDesign::prepare(DesignPreset::D2, &cfg).expect("prepare");
    let vector = &prep.vectors[0];
    let maps = tile_current_maps(&prep.grid, vector);
    let comp = TemporalCompressor::new(0.3, 0.05).expect("valid");
    let (_, from_vector) = comp.compress_vector(vector);
    let (_, from_maps) = comp.compress_maps(&maps);
    assert_eq!(from_vector.kept, from_maps.kept);
}

#[test]
fn stronger_compression_is_not_more_accurate_than_none() {
    // Train at r = 0.15 and r = 1.0 on the same prepared data; the
    // uncompressed model sees strictly more information, so it should not
    // be substantially worse (and typically is better) — the Fig. 6 trend.
    let base = ExperimentConfig::quick();
    let prep_a = PreparedDesign::prepare(DesignPreset::D1, &base).expect("prepare");
    let low = EvaluatedDesign::evaluate_prepared(
        prep_a,
        &ExperimentConfig { compression_rate: 0.15, ..base },
        &EvalOptions::default(),
    )
    .expect("pipeline");
    let prep_b = PreparedDesign::prepare(DesignPreset::D1, &base).expect("prepare");
    let full = EvaluatedDesign::evaluate_prepared(
        prep_b,
        &ExperimentConfig { compression_rate: 1.0, ..base },
        &EvalOptions::default(),
    )
    .expect("pipeline");
    let low_re = metrics::pooled_error_stats(&low.test_pairs).mean_re;
    let full_re = metrics::pooled_error_stats(&full.test_pairs).mean_re;
    assert!(
        full_re < low_re * 1.5 + 0.05,
        "uncompressed ({full_re:.3}) much worse than r=0.15 ({low_re:.3})"
    );
}

#[test]
fn compressed_dataset_has_expected_length_everywhere() {
    let cfg = ExperimentConfig::quick();
    let eval = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).expect("pipeline");
    let expected = ((cfg.compression_rate * cfg.steps as f64).round() as usize).max(1);
    for s in &eval.dataset.samples {
        assert_eq!(s.currents.len(), expected);
    }
}
