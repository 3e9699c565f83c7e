//! The full PowerNet baseline: dataset preparation, tile-by-tile training
//! and whole-map inference.

use crate::decompose::time_decompose;
use crate::net::PowerNetCore;
use pdn_core::map::TileMap;
use pdn_core::rng;
use pdn_features::convert::{map_to_tensor, tensor_to_map};
use pdn_features::normalize::Normalizer;
use pdn_grid::build::PowerGrid;
use pdn_nn::layer::Layer;
use pdn_nn::optim::Adam;
use pdn_nn::tensor::Tensor;
use pdn_sim::wnv::NoiseReport;
use pdn_vectors::vector::TestVector;
use rand::Rng as _;

/// PowerNet hyper-parameters. The paper's Table 3 experiment uses 40
/// time-decomposed maps and a window of 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerNetConfig {
    /// Number of time-decomposed maps `N`.
    pub time_windows: usize,
    /// Spatial input window side `w`.
    pub window: usize,
    /// First-stage kernel count.
    pub channels: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for PowerNetConfig {
    /// The paper's setting: 40 time windows, window 15, 16 kernels.
    fn default() -> PowerNetConfig {
        PowerNetConfig { time_windows: 40, window: 15, channels: 16, seed: 0 }
    }
}

/// Training knobs for the baseline. PowerNet treats every tile as an
/// independent sample, so an epoch visits a random subset of tiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerNetTrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Random `(sample, tile)` pairs visited per epoch.
    pub tiles_per_epoch: usize,
    /// Pairs per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for PowerNetTrainConfig {
    fn default() -> PowerNetTrainConfig {
        PowerNetTrainConfig {
            epochs: 8,
            tiles_per_epoch: 1500,
            batch_size: 32,
            learning_rate: 1e-3,
            seed: 0,
        }
    }
}

/// Preprocessed data for PowerNet: per sample, the `N` time-decomposed
/// (normalized) current maps, the trace-average map, and the target noise
/// map.
#[derive(Debug, Clone)]
pub struct PowerNetDataset {
    /// Per sample: `N` decomposed maps `[1, m, n]`.
    pub decomposed: Vec<Vec<Tensor>>,
    /// Per sample: trace-average map `[1, m, n]`.
    pub averages: Vec<Tensor>,
    /// Per sample: normalized target `[1, m, n]`.
    pub targets: Vec<Tensor>,
    /// Per sample: raw ground truth in volts.
    pub raw_targets: Vec<TileMap>,
    /// Current normalizer (shared with inference).
    pub current_norm: Normalizer,
    /// Target normalizer.
    pub target_norm: Normalizer,
}

impl PowerNetDataset {
    /// Builds the dataset from simulated pairs, mirroring the preprocessing
    /// of [`pdn_features::dataset::Dataset`] so the comparison is fair
    /// ("PowerNet is trained with the same data as the proposed framework").
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch.
    pub fn build(
        grid: &PowerGrid,
        vectors: &[TestVector],
        reports: &[NoiseReport],
        config: &PowerNetConfig,
    ) -> PowerNetDataset {
        assert_eq!(vectors.len(), reports.len(), "vectors/reports length mismatch");
        assert!(!vectors.is_empty(), "dataset needs at least one sample");
        let decomposed_raw: Vec<Vec<TileMap>> = vectors
            .iter()
            .map(|v| {
                let maps = pdn_compress::spatial::tile_current_maps(grid, v);
                time_decompose(&maps, config.time_windows)
            })
            .collect();
        let current_max: Vec<f64> = decomposed_raw
            .iter()
            .flat_map(|seq| seq.iter().map(|m| m.max()))
            .collect();
        let current_norm = Normalizer::fit_to_unit_max(&current_max);
        let target_max: Vec<f64> = reports.iter().map(|r| r.worst_noise.max()).collect();
        let target_norm = Normalizer::fit_to_unit_max(&target_max);

        let normalize = |m: &TileMap| -> Tensor {
            let mut t = map_to_tensor(m);
            for v in t.as_mut_slice() {
                *v = current_norm.apply_f32(*v);
            }
            t
        };
        let decomposed: Vec<Vec<Tensor>> =
            decomposed_raw.iter().map(|seq| seq.iter().map(normalize).collect()).collect();
        let averages: Vec<Tensor> = decomposed
            .iter()
            .map(|seq| {
                let mut acc = Tensor::zeros(seq[0].shape());
                for m in seq {
                    acc.add_assign(m);
                }
                acc.scale(1.0 / seq.len() as f32);
                acc
            })
            .collect();
        let targets: Vec<Tensor> = reports
            .iter()
            .map(|r| {
                let mut t = map_to_tensor(&r.worst_noise);
                for v in t.as_mut_slice() {
                    *v = target_norm.apply_f32(*v);
                }
                t
            })
            .collect();
        PowerNetDataset {
            decomposed,
            averages,
            targets,
            raw_targets: reports.iter().map(|r| r.worst_noise.clone()).collect(),
            current_norm,
            target_norm,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset is empty. Never true for built datasets.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Tile-map shape `(m, n)`.
    pub fn tile_shape(&self) -> (usize, usize) {
        (self.targets[0].shape()[1], self.targets[0].shape()[2])
    }
}

/// The PowerNet baseline model.
#[derive(Debug, Clone)]
pub struct PowerNet {
    core: PowerNetCore,
    config: PowerNetConfig,
}

impl PowerNet {
    /// Creates an untrained PowerNet.
    pub fn new(config: PowerNetConfig) -> PowerNet {
        PowerNet { core: PowerNetCore::new(config.window, config.channels, config.seed), config }
    }

    /// The configuration.
    pub fn config(&self) -> &PowerNetConfig {
        &self.config
    }

    /// Extracts the `[2, w, w]` window centered on tile `(r, c)` from one
    /// decomposed map + the average map (zero beyond map borders).
    #[cfg(test)]
    fn window_at(&self, map: &Tensor, avg: &Tensor, r: usize, c: usize) -> Tensor {
        extract_window(self.config.window, map, avg, r, c)
    }

    /// Predicts one tile: the maximum CNN output across the time windows.
    /// Returns `(value, argmax_window)`.
    fn predict_tile(
        core: &mut PowerNetCore,
        window: usize,
        decomposed: &[Tensor],
        avg: &Tensor,
        r: usize,
        c: usize,
    ) -> (f32, usize) {
        let mut best = f32::NEG_INFINITY;
        let mut best_j = 0;
        for (j, map) in decomposed.iter().enumerate() {
            let win = extract_window(window, map, avg, r, c);
            let y = core.forward(&win).as_slice()[0];
            if y > best {
                best = y;
                best_j = j;
            }
        }
        (best, best_j)
    }
}

/// Extracts a `[2, w, w]` window (map + average channels) centered on tile
/// `(r, c)`, zero-filled beyond the map borders.
fn extract_window(w: usize, map: &Tensor, avg: &Tensor, r: usize, c: usize) -> Tensor {
    {
        let half = w as isize / 2;
        let (m, n) = (map.shape()[1] as isize, map.shape()[2] as isize);
        let mut out = Tensor::zeros(&[2, w, w]);
        for dh in 0..w {
            for dw in 0..w {
                let sr = r as isize + dh as isize - half;
                let sc = c as isize + dw as isize - half;
                if sr >= 0 && sr < m && sc >= 0 && sc < n {
                    out.set3(0, dh, dw, map.at3(0, sr as usize, sc as usize));
                    out.set3(1, dh, dw, avg.at3(0, sr as usize, sc as usize));
                }
            }
        }
        out
    }
}

impl PowerNet {
    /// Predicts the whole (normalized) noise map, tile by tile — the
    /// scanning inference whose runtime Table 3 compares against the
    /// proposed model.
    pub fn predict_map(&self, decomposed: &[Tensor], avg: &Tensor) -> Tensor {
        assert!(!decomposed.is_empty(), "need at least one time window");
        let (m, n) = (avg.shape()[1], avg.shape()[2]);
        let window = self.config.window;
        let mut core = self.core.clone();
        let mut out = Vec::with_capacity(m * n);
        for r in 0..m {
            for c in 0..n {
                out.push(Self::predict_tile(&mut core, window, decomposed, avg, r, c).0);
            }
        }
        Tensor::from_vec(&[1, m, n], out)
    }

    /// Predicts the noise map in volts for a dataset sample.
    pub fn predict_sample(&self, dataset: &PowerNetDataset, idx: usize) -> TileMap {
        let mut t = self.predict_map(&dataset.decomposed[idx], &dataset.averages[idx]);
        for v in t.as_mut_slice() {
            *v = dataset.target_norm.invert_f32(v.max(0.0));
        }
        tensor_to_map(&t)
    }

    /// Trains on random `(sample, tile)` pairs from `train_indices`,
    /// backpropagating through the maximum structure (gradient flows to the
    /// arg-max time window). Returns per-epoch mean L1 losses.
    ///
    /// # Panics
    ///
    /// Panics if `train_indices` is empty or out of range.
    pub fn train(
        &mut self,
        dataset: &PowerNetDataset,
        train_indices: &[usize],
        config: &PowerNetTrainConfig,
    ) -> Vec<f32> {
        assert!(!train_indices.is_empty(), "empty training set");
        for &i in train_indices {
            assert!(i < dataset.len(), "train index out of range");
        }
        let (m, n) = dataset.tile_shape();
        let mut rng = rng::derived(config.seed, "powernet-train");
        let mut adam = Adam::new(config.learning_rate);
        let mut losses = Vec::with_capacity(config.epochs);
        for _epoch in 0..config.epochs {
            let mut epoch_loss = 0.0f64;
            let mut seen = 0usize;
            let mut remaining = config.tiles_per_epoch;
            while remaining > 0 {
                let batch = remaining.min(config.batch_size);
                remaining -= batch;
                self.core.zero_grad();
                for _ in 0..batch {
                    let s = train_indices[rng.gen_range(0..train_indices.len())];
                    let r = rng.gen_range(0..m);
                    let c = rng.gen_range(0..n);
                    let decomposed = &dataset.decomposed[s];
                    let avg = &dataset.averages[s];
                    let window = self.config.window;
                    let (pred, best_j) =
                        Self::predict_tile(&mut self.core, window, decomposed, avg, r, c);
                    let target = dataset.targets[s].at3(0, r, c);
                    let diff = pred - target;
                    epoch_loss += diff.abs() as f64;
                    seen += 1;
                    let g = Tensor::from_vec(&[1], vec![diff.signum()]);
                    // Re-forward the winning window so the cache matches,
                    // then backprop through it (max routes the gradient).
                    let win = extract_window(window, &decomposed[best_j], avg, r, c);
                    let _ = self.core.forward(&win);
                    let _ = self.core.backward(&g);
                }
                let inv = 1.0 / batch as f32;
                self.core.visit_params(&mut |p| p.grad.scale(inv));
                adam.begin_step();
                self.core.visit_params(&mut |p| adam.update_param(p));
            }
            losses.push((epoch_loss / seen.max(1) as f64) as f32);
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_sim::wnv::WnvRunner;
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};

    fn tiny_setup(n: usize) -> (PowerGrid, PowerNetDataset, PowerNetConfig) {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen =
            VectorGenerator::new(&grid, GeneratorConfig { steps: 40, ..Default::default() });
        let vectors = gen.generate_group(n, 31);
        let runner = WnvRunner::new(&grid).unwrap();
        let reports = runner.run_group(&vectors).unwrap();
        let config = PowerNetConfig { time_windows: 5, window: 7, channels: 4, seed: 2 };
        let ds = PowerNetDataset::build(&grid, &vectors, &reports, &config);
        (grid, ds, config)
    }

    #[test]
    fn dataset_shapes() {
        let (_, ds, _) = tiny_setup(3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.tile_shape(), (8, 8));
        assert_eq!(ds.decomposed[0].len(), 5);
        for t in &ds.targets {
            assert!(t.max() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn window_extraction_handles_borders() {
        let (_, ds, config) = tiny_setup(1);
        let net = PowerNet::new(config);
        // Corner tile: most of the window lies outside → zeros.
        let win = net.window_at(&ds.decomposed[0][0], &ds.averages[0], 0, 0);
        assert_eq!(win.shape(), &[2, 7, 7]);
        // The out-of-map corner must be zero.
        assert_eq!(win.at3(0, 0, 0), 0.0);
        // Center tile maps correctly: window center equals the map value.
        let win = net.window_at(&ds.decomposed[0][0], &ds.averages[0], 4, 4);
        assert_eq!(win.at3(0, 3, 3), ds.decomposed[0][0].at3(0, 4, 4));
    }

    #[test]
    fn predict_map_shape_and_determinism() {
        let (_, ds, config) = tiny_setup(1);
        let net = PowerNet::new(config);
        let a = net.predict_map(&ds.decomposed[0], &ds.averages[0]);
        let b = net.predict_map(&ds.decomposed[0], &ds.averages[0]);
        assert_eq!(a.shape(), &[1, 8, 8]);
        assert_eq!(a, b);
    }

    #[test]
    fn training_reduces_loss() {
        let (_, ds, config) = tiny_setup(4);
        let mut net = PowerNet::new(config);
        let losses = net.train(
            &ds,
            &[0, 1, 2],
            &PowerNetTrainConfig {
                epochs: 6,
                tiles_per_epoch: 200,
                batch_size: 16,
                learning_rate: 2e-3,
                seed: 3,
            },
        );
        assert_eq!(losses.len(), 6);
        assert!(
            losses.last().unwrap() < &losses[0],
            "loss {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn predict_sample_returns_volts() {
        let (_, ds, config) = tiny_setup(2);
        let net = PowerNet::new(config);
        let map = net.predict_sample(&ds, 0);
        assert_eq!(map.shape(), (8, 8));
        assert!(map.min() >= 0.0);
    }
}
