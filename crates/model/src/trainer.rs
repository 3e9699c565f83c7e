//! The training loop (paper §3.4.4): Adam, L1 loss, expansion split.

use crate::checkpoint::{self, CheckpointConfig, TrainState};
use crate::model::WnvModel;
use pdn_core::rng;
use pdn_core::telemetry;
use pdn_features::dataset::{Dataset, SplitIndices};
use pdn_nn::loss;
use pdn_nn::optim::Adam;
use rand::seq::SliceRandom as _;
use std::io;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Samples per optimizer step (gradients are accumulated then applied).
    pub batch_size: usize,
    /// Adam learning rate. The paper uses 1e-4 with large vector sets; the
    /// CI-scale harness uses a larger rate to converge within its smaller
    /// budget.
    pub learning_rate: f32,
    /// Shuffling/initialization seed.
    pub seed: u64,
    /// Per-epoch multiplicative learning-rate decay (1.0 = constant).
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    /// The paper's configuration: Adam at 1e-4, batches of 4, 200 epochs.
    fn default() -> TrainConfig {
        TrainConfig { epochs: 200, batch_size: 4, learning_rate: 1e-4, seed: 0, lr_decay: 1.0 }
    }
}

impl TrainConfig {
    /// A budget-friendly configuration for CI-scale experiments.
    pub fn fast() -> TrainConfig {
        TrainConfig { epochs: 60, batch_size: 4, learning_rate: 1.5e-3, seed: 0, lr_decay: 0.99 }
    }
}

/// Per-epoch loss record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean training L1 loss per sample.
    pub train_loss: f32,
    /// Mean validation L1 loss per sample (NaN-free; 0 when no val set).
    pub val_loss: f32,
}

/// The loss trajectory of one training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// Final training loss, or `None` for an empty (zero-epoch) run.
    ///
    /// Previously this returned `0.0` for an empty history — indistinguishable
    /// from a genuinely perfect fit, which let misconfigured runs (e.g.
    /// `epochs: 0`) sail through "did the loss descend?" checks.
    pub fn final_train_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.train_loss)
    }

    /// Final validation loss, or `None` for an empty (zero-epoch) run.
    pub fn final_val_loss(&self) -> Option<f32> {
        self.epochs.last().map(|e| e.val_loss)
    }
}

/// Drives training of a [`WnvModel`] on a [`Dataset`].
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainConfig) -> Trainer {
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains the model in place and returns the loss history.
    ///
    /// # Panics
    ///
    /// Panics if the split's training set is empty or references samples
    /// outside the dataset.
    pub fn train(
        &self,
        model: &mut WnvModel,
        dataset: &Dataset,
        split: &SplitIndices,
    ) -> TrainHistory {
        self.train_with_checkpoints(model, dataset, split, None)
            .expect("checkpointing disabled, no I/O can fail")
    }

    /// Trains the model in place, optionally checkpointing every
    /// `checkpoint.every` epochs and resuming a prior run.
    ///
    /// A resumed run is bit-identical to an uninterrupted one: the
    /// checkpoint carries the model weights, Adam moments and step counter,
    /// the shuffle RNG's mid-stream state, and the cumulatively shuffled
    /// sample order, so the loss trajectory and final weights match exactly.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when resuming from a torn/corrupt checkpoint,
    /// or one written with different hyper-parameters or a different
    /// training split; propagates checkpoint-write I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the split's training set is empty or references samples
    /// outside the dataset.
    pub fn train_with_checkpoints(
        &self,
        model: &mut WnvModel,
        dataset: &Dataset,
        split: &SplitIndices,
        checkpoints: Option<&CheckpointConfig>,
    ) -> io::Result<TrainHistory> {
        assert!(!split.train.is_empty(), "empty training set");
        for &i in split.train.iter().chain(&split.val) {
            assert!(i < dataset.len(), "split index {i} out of range");
        }
        let mut adam = Adam::new(self.config.learning_rate);
        let mut order = split.train.clone();
        let mut shuffle_rng = rng::derived(self.config.seed, "trainer-shuffle");
        let mut history = TrainHistory::default();
        let mut start_epoch = 0usize;

        if let Some(ck) = checkpoints {
            if ck.resume && ck.path.exists() {
                let state = checkpoint::load(&ck.path)?;
                self.validate_resume(&state, split)?;
                state.apply_params(model)?;
                adam.set_steps(state.adam_steps);
                order = state.order.clone();
                shuffle_rng = rng::restore_state(&state.rng_state);
                history = state.history.clone();
                start_epoch = state.epochs_done;
                telemetry::counter_add("train.resumes", 1);
                if start_epoch >= self.config.epochs {
                    return Ok(history);
                }
            }
        }

        for epoch in start_epoch..self.config.epochs {
            let mut ep_span = telemetry::span("train.epoch");
            ep_span.field("epoch", epoch);
            adam.learning_rate =
                self.config.learning_rate * self.config.lr_decay.powi(epoch as i32);
            order.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0f64;
            for batch in order.chunks(self.config.batch_size) {
                model.zero_grad();
                let mut batch_loss = 0.0f64;
                for &idx in batch {
                    let sample = &dataset.samples[idx];
                    let pred = model.forward(&dataset.distance, &sample.currents);
                    let (l, g) = loss::l1(&pred, &sample.target);
                    batch_loss += l as f64;
                    model.backward(&g);
                }
                epoch_loss += batch_loss;
                // Average the accumulated gradients over the batch.
                let inv = 1.0 / batch.len() as f32;
                model.visit_params(&mut |p| p.grad.scale(inv));
                if telemetry::enabled() {
                    let mut grad_sq = 0.0f64;
                    model.visit_params(&mut |p| {
                        grad_sq += p
                            .grad
                            .as_slice()
                            .iter()
                            .map(|&g| f64::from(g) * f64::from(g))
                            .sum::<f64>();
                    });
                    telemetry::counter_add("train.batches", 1);
                    telemetry::observe("train.grad_norm", grad_sq.sqrt());
                    telemetry::observe("train.batch_loss", batch_loss / batch.len() as f64);
                }
                adam.begin_step();
                model.visit_params(&mut |p| adam.update_param(p));
            }
            let train_loss = (epoch_loss / split.train.len() as f64) as f32;
            let val_loss = self.evaluate(model, dataset, &split.val);
            history.epochs.push(EpochStats { train_loss, val_loss });
            ep_span.field("lr", adam.learning_rate);
            ep_span.field("train_loss", train_loss);
            ep_span.field("val_loss", val_loss);
            telemetry::counter_add("train.epochs", 1);
            telemetry::gauge_set("train.lr", f64::from(adam.learning_rate));
            if let Some(ck) = checkpoints {
                let done = epoch + 1;
                if done % ck.every == 0 || done == self.config.epochs {
                    let state = TrainState {
                        epochs_done: done,
                        order: order.clone(),
                        adam_steps: adam.steps(),
                        rng_state: rng::save_state(&shuffle_rng),
                        history: history.clone(),
                        params: TrainState::capture_params(model),
                        config_digest: checkpoint::config_digest(&self.config),
                    };
                    checkpoint::save(&ck.path, &state)?;
                    if let Some(keep) = ck.keep {
                        checkpoint::save(&checkpoint::stamped_path(&ck.path, done), &state)?;
                        checkpoint::prune_generations(&ck.path, keep)?;
                    }
                    telemetry::counter_add("train.checkpoints", 1);
                }
            }
        }
        Ok(history)
    }

    /// Rejects a checkpoint that was written by an incompatible run.
    fn validate_resume(&self, state: &TrainState, split: &SplitIndices) -> io::Result<()> {
        if state.config_digest != checkpoint::config_digest(&self.config) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint was written with different training hyper-parameters",
            ));
        }
        let mut saved = state.order.clone();
        let mut ours = split.train.clone();
        saved.sort_unstable();
        ours.sort_unstable();
        if saved != ours {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint was written for a different training split",
            ));
        }
        Ok(())
    }

    /// Mean per-sample L1 loss over a set of sample indices (0 if empty).
    pub fn evaluate(&self, model: &mut WnvModel, dataset: &Dataset, indices: &[usize]) -> f32 {
        if indices.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for &idx in indices {
            let sample = &dataset.samples[idx];
            let pred = model.forward(&dataset.distance, &sample.currents);
            let (l, _) = loss::l1(&pred, &sample.target);
            total += l as f64;
        }
        (total / indices.len() as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use pdn_compress::temporal::TemporalCompressor;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_sim::wnv::WnvRunner;
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};

    fn tiny_dataset(n: usize) -> (Dataset, usize) {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen =
            VectorGenerator::new(&grid, GeneratorConfig { steps: 40, ..Default::default() });
        let vectors = gen.generate_group(n, 21);
        let runner = WnvRunner::new(&grid).unwrap();
        let reports = runner.run_group(&vectors).unwrap();
        let comp = TemporalCompressor::new(0.3, 0.05).unwrap();
        (Dataset::build(&grid, &vectors, &reports, Some(&comp)), grid.bumps().len())
    }

    #[test]
    fn training_reduces_loss_on_real_pipeline_data() {
        let (ds, bumps) = tiny_dataset(6);
        let split = SplitIndices { train: vec![0, 1, 2, 3], val: vec![4], test: vec![5] };
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 4 }, 9);
        let trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 2,
            learning_rate: 2e-3,
            seed: 1,
            lr_decay: 1.0,
        });
        let history = trainer.train(&mut model, &ds, &split);
        assert_eq!(history.epochs.len(), 15);
        let first = history.epochs[0].train_loss;
        let last = history.final_train_loss().expect("non-empty history");
        assert!(last < first, "train loss {first} -> {last}");
        assert!(history.final_val_loss().expect("non-empty history").is_finite());
    }

    #[test]
    fn empty_history_has_no_final_loss() {
        let history = TrainHistory::default();
        assert_eq!(history.final_train_loss(), None);
        assert_eq!(history.final_val_loss(), None);
    }

    #[test]
    fn evaluate_empty_is_zero() {
        let (ds, bumps) = tiny_dataset(2);
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 0);
        let t = Trainer::new(TrainConfig::fast());
        assert_eq!(t.evaluate(&mut model, &ds, &[]), 0.0);
    }

    #[test]
    fn deterministic_training() {
        let (ds, bumps) = tiny_dataset(4);
        let split = SplitIndices { train: vec![0, 1, 2], val: vec![3], test: vec![] };
        let cfg = TrainConfig { epochs: 3, batch_size: 2, learning_rate: 1e-3, seed: 7, lr_decay: 1.0 };
        let run = |seed_model: u64| {
            let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, seed_model);
            Trainer::new(cfg).train(&mut model, &ds, &split)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("pdn_trainer_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn weights_of(model: &mut WnvModel) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        model.visit_params(&mut |p| out.push(p.value.as_slice().to_vec()));
        out
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let (ds, bumps) = tiny_dataset(5);
        let split = SplitIndices { train: vec![0, 1, 2], val: vec![3], test: vec![4] };
        let cfg = ModelConfig { c1: 2, c2: 2, c3: 2 };
        let full_cfg =
            TrainConfig { epochs: 6, batch_size: 2, learning_rate: 1e-3, seed: 5, lr_decay: 0.98 };

        // Reference: an uninterrupted run.
        let mut ref_model = WnvModel::new(bumps, cfg, 13);
        let ref_history = Trainer::new(full_cfg).train(&mut ref_model, &ds, &split);

        // Interrupted run: 3 epochs, checkpoint, then a *fresh* model resumes
        // to the full 6 epochs from the checkpoint file alone.
        let dir = ckpt_dir("resume");
        let ck = crate::checkpoint::CheckpointConfig::resumable(dir.join("train.ckpt"), 1);
        let mut model_a = WnvModel::new(bumps, cfg, 13);
        let half_cfg = TrainConfig { epochs: 3, ..full_cfg };
        Trainer::new(half_cfg)
            .train_with_checkpoints(&mut model_a, &ds, &split, Some(&ck))
            .unwrap();
        let mut model_b = WnvModel::new(bumps, cfg, 13);
        let resumed = Trainer::new(full_cfg)
            .train_with_checkpoints(&mut model_b, &ds, &split, Some(&ck))
            .unwrap();

        assert_eq!(resumed, ref_history, "loss trajectory must match exactly");
        assert_eq!(
            weights_of(&mut model_b),
            weights_of(&mut ref_model),
            "final weights must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_keep_rotates_generations() {
        let (ds, bumps) = tiny_dataset(3);
        let split = SplitIndices { train: vec![0, 1], val: vec![2], test: vec![] };
        let cfg = TrainConfig { epochs: 5, batch_size: 2, learning_rate: 1e-3, seed: 2, lr_decay: 1.0 };
        let dir = ckpt_dir("keep");
        let ck = crate::checkpoint::CheckpointConfig::resumable(dir.join("train.ckpt"), 1)
            .with_keep(2);
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        Trainer::new(cfg)
            .train_with_checkpoints(&mut model, &ds, &split, Some(&ck))
            .unwrap();
        // Only the last two generations survive, plus the main checkpoint.
        let epochs: Vec<usize> = crate::checkpoint::generations(&ck.path)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(epochs, vec![4, 5]);
        let latest =
            crate::checkpoint::load(&crate::checkpoint::stamped_path(&ck.path, 5)).unwrap();
        let main = crate::checkpoint::load(&ck.path).unwrap();
        assert_eq!(latest.epochs_done, 5);
        assert_eq!(main.history, latest.history);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_past_end_returns_saved_history_untouched() {
        let (ds, bumps) = tiny_dataset(3);
        let split = SplitIndices { train: vec![0, 1], val: vec![2], test: vec![] };
        let cfg = TrainConfig { epochs: 2, batch_size: 2, learning_rate: 1e-3, seed: 2, lr_decay: 1.0 };
        let dir = ckpt_dir("done");
        let ck = crate::checkpoint::CheckpointConfig::resumable(dir.join("train.ckpt"), 1);
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        let first = Trainer::new(cfg)
            .train_with_checkpoints(&mut model, &ds, &split, Some(&ck))
            .unwrap();
        let mut model2 = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        let again = Trainer::new(cfg)
            .train_with_checkpoints(&mut model2, &ds, &split, Some(&ck))
            .unwrap();
        assert_eq!(again, first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_is_invalid_data_not_a_panic() {
        let (ds, bumps) = tiny_dataset(3);
        let split = SplitIndices { train: vec![0, 1], val: vec![2], test: vec![] };
        let cfg = TrainConfig { epochs: 2, batch_size: 2, learning_rate: 1e-3, seed: 2, lr_decay: 1.0 };
        let dir = ckpt_dir("torn");
        let ck = crate::checkpoint::CheckpointConfig::resumable(dir.join("train.ckpt"), 1);
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        Trainer::new(cfg)
            .train_with_checkpoints(&mut model, &ds, &split, Some(&ck))
            .unwrap();
        // Simulate a crash mid-write having somehow torn the file.
        let bytes = std::fs::read(&ck.path).unwrap();
        std::fs::write(&ck.path, &bytes[..bytes.len() / 2]).unwrap();
        let mut model2 = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        let err = Trainer::new(cfg)
            .train_with_checkpoints(&mut model2, &ds, &split, Some(&ck))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_different_hyperparameters_rejected() {
        let (ds, bumps) = tiny_dataset(3);
        let split = SplitIndices { train: vec![0, 1], val: vec![2], test: vec![] };
        let cfg = TrainConfig { epochs: 2, batch_size: 2, learning_rate: 1e-3, seed: 2, lr_decay: 1.0 };
        let dir = ckpt_dir("cfg");
        let ck = crate::checkpoint::CheckpointConfig::resumable(dir.join("train.ckpt"), 1);
        let mut model = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        Trainer::new(cfg)
            .train_with_checkpoints(&mut model, &ds, &split, Some(&ck))
            .unwrap();
        let other = TrainConfig { learning_rate: 2e-3, epochs: 4, ..cfg };
        let mut model2 = WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
        let err = Trainer::new(other)
            .train_with_checkpoints(&mut model2, &ds, &split, Some(&ck))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_train_rejected() {
        let (ds, bumps) = tiny_dataset(2);
        let mut model = WnvModel::new(bumps, ModelConfig::default(), 0);
        let split = SplitIndices { train: vec![], val: vec![0], test: vec![1] };
        let _ = Trainer::new(TrainConfig::fast()).train(&mut model, &ds, &split);
    }
}
