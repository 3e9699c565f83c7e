//! Reproducibility: the entire experiment pipeline is a pure function of
//! its seed.

use pdn_wnv::eval::harness::{EvaluatedDesign, ExperimentConfig, PreparedDesign};
use pdn_wnv::grid::design::{DesignPreset, DesignScale};
use pdn_wnv::model::trainer::TrainConfig;
use pdn_wnv::sim::wnv::NoiseReport;
use pdn_wnv::vectors::generator::{GeneratorConfig, VectorGenerator};

#[test]
fn grids_vectors_and_reports_reproduce() {
    // The third input differs only in `train`, as the experiment suite's
    // Fig 6 and ablation configuration does: preparation must not read it,
    // which is what lets the suite reuse one simulation per design.
    let quick = ExperimentConfig::quick();
    let cfg = ExperimentConfig { train: TrainConfig { epochs: 150, ..quick.train }, ..quick };
    let sweep = ExperimentConfig { train: TrainConfig { epochs: 60, ..cfg.train }, ..cfg };
    let a = PreparedDesign::prepare(DesignPreset::D1, &cfg).expect("prepare");
    for other in [cfg, sweep] {
        let b = PreparedDesign::prepare(DesignPreset::D1, &other).expect("prepare");
        assert_eq!(a.grid.loads(), b.grid.loads());
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.reports.len(), b.reports.len());
        for (ra, rb) in a.reports.iter().zip(&b.reports) {
            let bits = |r: &NoiseReport| -> Vec<u64> {
                r.worst_noise.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(ra), bits(rb));
            assert_eq!(ra.max_noise.0.to_bits(), rb.max_noise.0.to_bits());
        }
    }
}

#[test]
fn training_and_predictions_reproduce() {
    let cfg = ExperimentConfig::quick();
    let a = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).expect("pipeline");
    let b = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).expect("pipeline");
    assert_eq!(a.history, b.history, "training trajectories diverged");
    assert_eq!(a.split, b.split);
    for ((pa, ta), (pb, tb)) in a.test_pairs.iter().zip(&b.test_pairs) {
        assert_eq!(ta, tb);
        assert_eq!(pa, pb, "predictions diverged");
    }
}

#[test]
fn different_seeds_give_different_worlds() {
    let base = ExperimentConfig::quick();
    let other = ExperimentConfig { seed: base.seed + 1, ..base };
    let a = PreparedDesign::prepare(DesignPreset::D2, &base).expect("prepare");
    let b = PreparedDesign::prepare(DesignPreset::D2, &other).expect("prepare");
    assert_ne!(a.vectors, b.vectors);
    assert_ne!(a.grid.loads(), b.grid.loads());
}

#[test]
fn vector_groups_are_seed_extensible() {
    // Growing a group keeps the existing members identical — important for
    // incrementally extending a training corpus.
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).expect("valid");
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let small = gen.generate_group(3, 9);
    let large = gen.generate_group(6, 9);
    assert_eq!(&large[..3], &small[..]);
}
