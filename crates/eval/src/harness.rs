//! The shared experiment pipeline.
//!
//! Every experiment needs the same expensive prefix — build the design,
//! generate a vector group, simulate the ground truth, train the model —
//! so it lives here once and each table/figure driver consumes the results.

use pdn_compress::temporal::TemporalCompressor;
use pdn_core::map::TileMap;
use pdn_features::dataset::{Dataset, SplitIndices};
use pdn_grid::build::PowerGrid;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_model::checkpoint::CheckpointConfig;
use pdn_model::model::{ModelConfig, Predictor, WnvModel};
use pdn_model::trainer::{TrainConfig, TrainHistory, Trainer};
use pdn_sim::cache::run_group_cached;
use pdn_sim::transient::SolverKind;
use pdn_sim::wnv::{NoiseReport, WnvRunner};
use pdn_sim::WnvCache;
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_vectors::vector::TestVector;
use std::time::{Duration, Instant};

/// Optional crash-safety/caching features threaded through an evaluation:
/// a ground-truth cache (skips re-simulating identical designs) and
/// resumable training checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalOptions<'a> {
    /// Serve/store simulated ground truth from this cache.
    pub cache: Option<&'a WnvCache>,
    /// Checkpoint (and possibly resume) training through this config.
    pub checkpoints: Option<&'a CheckpointConfig>,
    /// Zero the distance feature (the `no-distance` ablation).
    pub zero_distance: bool,
    /// Which transient linear solver simulates the ground truth. Part of
    /// the cache key, so CG and direct runs never share entries.
    pub solver: SolverKind,
}

/// A vector group too small to evaluate: its split leaves no training
/// vector or no test vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewVectors {
    /// Vectors in the group.
    pub vectors: usize,
    /// Training vectors the split chose.
    pub train: usize,
    /// Test vectors the split left.
    pub test: usize,
}

impl std::fmt::Display for TooFewVectors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} vectors split into {} training and {} test vectors; \
             evaluation needs at least one of each",
            self.vectors, self.train, self.test
        )
    }
}

impl std::error::Error for TooFewVectors {}

/// Configuration of a full experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Design scale (Tiny for tests, Ci for the reported numbers, Paper for
    /// full-size runs).
    pub scale: DesignScale,
    /// Vectors per design (the paper uses 500; CI default is 48).
    pub vectors: usize,
    /// Time stamps per vector.
    pub steps: usize,
    /// Temporal compression rate `r` (the paper's knee is ≈ 0.3).
    pub compression_rate: f64,
    /// Sweep step `Δr` of Algorithm 1.
    pub rate_step: f64,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Model kernel counts.
    pub model: ModelConfig,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The configuration used for the reported (CI-scale) numbers.
    pub fn ci() -> ExperimentConfig {
        ExperimentConfig {
            scale: DesignScale::Ci,
            vectors: 48,
            steps: 240,
            compression_rate: 0.3,
            rate_step: 0.05,
            train: TrainConfig {
                epochs: 150,
                batch_size: 4,
                learning_rate: 2.5e-3,
                seed: 0,
                lr_decay: 0.985,
            },
            model: ModelConfig::default(),
            seed: 2022,
        }
    }

    /// A seconds-scale configuration for unit/integration tests.
    pub fn quick() -> ExperimentConfig {
        ExperimentConfig {
            scale: DesignScale::Tiny,
            vectors: 10,
            steps: 60,
            compression_rate: 0.4,
            rate_step: 0.05,
            train: TrainConfig { epochs: 40, batch_size: 2, learning_rate: 4e-3, seed: 0, lr_decay: 0.99 },
            model: ModelConfig { c1: 4, c2: 4, c3: 8 },
            seed: 7,
        }
    }

    /// The temporal compressor configured by this run.
    pub fn compressor(&self) -> TemporalCompressor {
        TemporalCompressor::new(self.compression_rate, self.rate_step)
            .expect("experiment rates validated at construction")
    }
}

/// A design with its vector group and simulated ground truth — everything
/// up to (but not including) learning.
#[derive(Debug, Clone)]
pub struct PreparedDesign {
    /// Which of D1–D4 this is.
    pub preset: DesignPreset,
    /// The elaborated grid.
    pub grid: PowerGrid,
    /// The generated test vectors.
    pub vectors: Vec<TestVector>,
    /// Ground-truth reports, one per vector.
    pub reports: Vec<NoiseReport>,
    /// Mean simulator wall-clock per vector (the "Commercial (s)" column).
    pub sim_time_per_vector: Duration,
    /// The simulator's one-off set-up for the design: stamping, and for
    /// the direct solver the symbolic analysis and numeric factor (the
    /// "Set-up (s)" column).
    pub setup_time: Duration,
}

impl PreparedDesign {
    /// Builds the design, generates `config.vectors` random vectors and
    /// simulates all of them.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn prepare(
        preset: DesignPreset,
        config: &ExperimentConfig,
    ) -> Result<PreparedDesign, pdn_sim::error::SimError> {
        Self::prepare_with(preset, config, &EvalOptions::default())
    }

    /// Like [`PreparedDesign::prepare`] with `options.solver` simulating
    /// the ground truth, served from `options.cache` when an identical
    /// (design, vector, solver) run was simulated before. Cache hits skip
    /// the transient solves entirely; the cached reports keep their
    /// original per-vector simulator times, so speedup tables remain
    /// meaningful. The solver settings are part of the cache key, so
    /// switching solvers re-simulates rather than serving the other
    /// solver's entries.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn prepare_with(
        preset: DesignPreset,
        config: &ExperimentConfig,
        options: &EvalOptions<'_>,
    ) -> Result<PreparedDesign, pdn_sim::error::SimError> {
        let mut span = pdn_core::telemetry::span("eval.prepare");
        span.field("design", preset.name());
        span.field("vectors", config.vectors);
        let spec = preset.spec(config.scale);
        let grid = spec.build(config.seed).expect("preset specs are valid");
        let gen = VectorGenerator::new(
            &grid,
            GeneratorConfig { steps: config.steps, ..Default::default() },
        );
        let vectors = gen.generate_group(config.vectors, config.seed);
        let t_setup = Instant::now();
        let runner = WnvRunner::with_solver(&grid, options.solver)?;
        let setup_time = t_setup.elapsed();
        let reports = run_group_cached(options.cache, &runner, &grid, &vectors)?;
        // The mean of the reports' own times, which a cache hit keeps, so
        // no span duration holds it.
        let total: Duration = reports.iter().map(|r| r.elapsed).sum();
        let sim_time_per_vector = total / reports.len().max(1) as u32;
        span.field("sim_seconds_per_vector", sim_time_per_vector.as_secs_f64());
        Ok(PreparedDesign { preset, grid, vectors, reports, sim_time_per_vector, setup_time })
    }

    /// The union (max over vectors) worst-noise map — Table 1's per-design
    /// noise summary.
    pub fn union_worst_noise(&self) -> TileMap {
        let mut worst = self.reports[0].worst_noise.clone();
        for r in &self.reports[1..] {
            worst.max_assign(&r.worst_noise);
        }
        worst
    }
}

/// A fully evaluated design: trained model + test-set predictions.
#[derive(Debug)]
pub struct EvaluatedDesign {
    /// The simulation stage this evaluation was built on.
    pub prepared: PreparedDesign,
    /// The assembled dataset.
    pub dataset: Dataset,
    /// The expansion split used.
    pub split: SplitIndices,
    /// Training-loss history.
    pub history: TrainHistory,
    /// The trained predictor (reusable for further queries).
    pub predictor: Predictor,
    /// `(prediction, ground truth)` per test sample, in volts.
    pub test_pairs: Vec<(TileMap, TileMap)>,
    /// Indices (into the vector group) of the test samples.
    pub test_indices: Vec<usize>,
    /// Mean end-to-end prediction wall-clock per vector (the
    /// "Proposed (s)" column): tiling + compression + CNN.
    pub predict_time_per_vector: Duration,
}

impl EvaluatedDesign {
    /// Runs the full pipeline for one design.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures from the preparation stage, and
    /// [`TooFewVectors`] when the split leaves no training or test vector.
    pub fn evaluate(
        preset: DesignPreset,
        config: &ExperimentConfig,
    ) -> Result<EvaluatedDesign, Box<dyn std::error::Error>> {
        Self::evaluate_with(preset, config, &EvalOptions::default())
    }

    /// Runs the full pipeline with crash-safety options: cached ground
    /// truth and/or resumable training checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures, [`TooFewVectors`] and checkpoint I/O
    /// errors.
    pub fn evaluate_with(
        preset: DesignPreset,
        config: &ExperimentConfig,
        options: &EvalOptions<'_>,
    ) -> Result<EvaluatedDesign, Box<dyn std::error::Error>> {
        let prepared = PreparedDesign::prepare_with(preset, config, options)?;
        Self::evaluate_prepared(prepared, config, options)
    }

    /// Runs dataset assembly, training and test-set prediction on an
    /// already-simulated design. Of `options`, the checkpoints and
    /// `zero_distance` apply; the cache and solver were used when the
    /// design was prepared.
    ///
    /// # Errors
    ///
    /// [`TooFewVectors`] before training when the split leaves no training
    /// vector or no test vector; training-checkpoint I/O errors (corrupt
    /// resume file, failed checkpoint write).
    pub fn evaluate_prepared(
        prepared: PreparedDesign,
        config: &ExperimentConfig,
        options: &EvalOptions<'_>,
    ) -> Result<EvaluatedDesign, Box<dyn std::error::Error>> {
        let vectors = prepared.vectors.len();
        if vectors == 0 {
            return Err(TooFewVectors { vectors, train: 0, test: 0 }.into());
        }
        let compressor = config.compressor();
        let mut dataset =
            Dataset::build(&prepared.grid, &prepared.vectors, &prepared.reports, Some(&compressor));
        if options.zero_distance {
            dataset.distance.zero();
        }
        let split = dataset.split(0.6, config.seed);
        if split.train.is_empty() || split.test.is_empty() {
            let (train, test) = (split.train.len(), split.test.len());
            return Err(TooFewVectors { vectors, train, test }.into());
        }
        let mut model =
            WnvModel::new(prepared.grid.bumps().len(), config.model, config.seed);
        let trainer = Trainer::new(config.train);
        let history = {
            let mut span = pdn_core::telemetry::span("eval.train");
            span.field("design", prepared.preset.name());
            trainer.train_with_checkpoints(&mut model, &dataset, &split, options.checkpoints)?
        };
        let mut predictor = Predictor::new(model, &dataset, Some(compressor));

        let mut test_pairs = Vec::with_capacity(split.test.len());
        let start = Instant::now();
        {
            let mut span = pdn_core::telemetry::span("eval.predict_test");
            span.field("design", prepared.preset.name());
            span.field("test_vectors", split.test.len());
            for &idx in &split.test {
                let pred = predictor.predict(&prepared.grid, &prepared.vectors[idx]);
                test_pairs.push((pred, prepared.reports[idx].worst_noise.clone()));
            }
        }
        let predict_time_per_vector = start.elapsed() / split.test.len().max(1) as u32;
        Ok(EvaluatedDesign {
            prepared,
            dataset,
            split: split.clone(),
            history,
            predictor,
            test_pairs,
            test_indices: split.test,
            predict_time_per_vector,
        })
    }

    /// Simulator-time / predictor-time — the "Speedup" column of Table 2.
    pub fn speedup(&self) -> f64 {
        self.prepared.sim_time_per_vector.as_secs_f64()
            / self.predict_time_per_vector.as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_end_to_end() {
        let cfg = ExperimentConfig::quick();
        let eval = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).unwrap();
        assert_eq!(eval.prepared.vectors.len(), 10);
        assert_eq!(eval.split.total(), 10);
        assert!(!eval.test_pairs.is_empty());
        // Predictions are physical: non-negative, below vdd.
        for (pred, truth) in &eval.test_pairs {
            assert!(pred.min() >= 0.0);
            assert!(pred.max() < 1.0);
            assert_eq!(pred.shape(), truth.shape());
        }
        // Training actually descended.
        let last = eval.history.final_train_loss().expect("non-empty history");
        assert!(last < eval.history.epochs[0].train_loss);
        // Prediction is faster than simulation even at tiny scale.
        assert!(eval.speedup() > 1.0, "speedup {}", eval.speedup());
    }

    #[test]
    fn a_split_without_a_training_or_test_vector_is_an_error() {
        for vectors in [0, 1] {
            let cfg = ExperimentConfig { vectors, steps: 20, ..ExperimentConfig::quick() };
            let err = EvaluatedDesign::evaluate(DesignPreset::D1, &cfg).unwrap_err();
            let Some(too_few) = err.downcast_ref::<TooFewVectors>() else {
                panic!("{vectors} vectors: {err}");
            };
            assert_eq!(too_few.vectors, vectors);
            assert!(too_few.train == 0 || too_few.test == 0, "{too_few}");
        }
    }

    #[test]
    fn union_worst_noise_dominates_members() {
        let cfg = ExperimentConfig::quick();
        let prep = PreparedDesign::prepare(DesignPreset::D2, &cfg).unwrap();
        let union = prep.union_worst_noise();
        for r in &prep.reports {
            for (u, v) in union.as_slice().iter().zip(r.worst_noise.as_slice()) {
                assert!(u + 1e-15 >= *v);
            }
        }
    }
}
