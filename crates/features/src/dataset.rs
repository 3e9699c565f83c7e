//! Dataset assembly and the training-set expansion split (paper §3.4.4).

use crate::convert::map_to_tensor;
use crate::distance::distance_tensor;
use crate::normalize::Normalizer;
use pdn_compress::temporal::TemporalCompressor;
use pdn_core::map::TileMap;
use pdn_core::rng;
use pdn_grid::build::PowerGrid;
use pdn_nn::tensor::Tensor;
use pdn_sim::wnv::NoiseReport;
use pdn_vectors::vector::TestVector;
use rand::seq::SliceRandom as _;

/// One training/evaluation sample: a compressed current-map sequence and
/// its ground-truth worst-case noise map.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Compressed, normalized current maps `[1, m, n]`, one per kept stamp.
    pub currents: Vec<Tensor>,
    /// Normalized target noise map `[1, m, n]`.
    pub target: Tensor,
    /// The raw ground-truth worst-case noise map, in volts.
    pub raw_worst_noise: TileMap,
    /// Per-tile `μ + 3σ` summary of the (normalized) current maps, used as
    /// the sample descriptor by the expansion split.
    pub summary: Vec<f32>,
}

/// A complete dataset for one design.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The design's distance feature `[B, m, n]` (shared by all samples).
    pub distance: Tensor,
    /// The samples.
    pub samples: Vec<Sample>,
    /// Normalizer applied to current maps.
    pub current_norm: Normalizer,
    /// Normalizer applied to noise targets.
    pub target_norm: Normalizer,
}

impl Dataset {
    /// Builds a dataset from simulated `(vector, report)` pairs.
    ///
    /// If a `compressor` is given, each vector's current maps pass through
    /// Algorithm 1 first (the paper's default flow); otherwise all stamps
    /// are kept.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` and `reports` have different lengths or are
    /// empty.
    pub fn build(
        grid: &PowerGrid,
        vectors: &[TestVector],
        reports: &[NoiseReport],
        compressor: Option<&TemporalCompressor>,
    ) -> Dataset {
        assert_eq!(vectors.len(), reports.len(), "vectors/reports length mismatch");
        assert!(!vectors.is_empty(), "dataset needs at least one sample");

        // Compress each vector's tile maps.
        let map_seqs: Vec<Vec<TileMap>> = vectors
            .iter()
            .map(|v| {
                let maps = pdn_compress::spatial::tile_current_maps(grid, v);
                match compressor {
                    Some(c) => c.compress_maps(&maps).0,
                    None => maps,
                }
            })
            .collect();

        // Fit normalizers on the whole corpus (max current, max noise).
        let current_max: Vec<f64> = map_seqs
            .iter()
            .flat_map(|seq| seq.iter().map(|m| m.max()))
            .collect();
        let current_norm = Normalizer::fit_to_unit_max(&current_max);
        let target_max: Vec<f64> = reports.iter().map(|r| r.worst_noise.max()).collect();
        let target_norm = Normalizer::fit_to_unit_max(&target_max);

        let samples = map_seqs
            .into_iter()
            .zip(reports)
            .map(|(seq, report)| {
                let currents: Vec<Tensor> = seq
                    .iter()
                    .map(|m| {
                        let mut t = map_to_tensor(m);
                        for v in t.as_mut_slice() {
                            *v = current_norm.apply_f32(*v);
                        }
                        t
                    })
                    .collect();
                let summary = mu3sigma_summary(&currents);
                let mut target = map_to_tensor(&report.worst_noise);
                for v in target.as_mut_slice() {
                    *v = target_norm.apply_f32(*v);
                }
                Sample {
                    currents,
                    target,
                    raw_worst_noise: report.worst_noise.clone(),
                    summary,
                }
            })
            .collect();

        Dataset { distance: distance_tensor(grid), samples, current_norm, target_norm }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset has no samples. Never true for built datasets.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Tile-map shape `(m, n)`.
    pub fn tile_shape(&self) -> (usize, usize) {
        (self.distance.shape()[1], self.distance.shape()[2])
    }

    /// The paper's training-set expansion split: a candidate joins the
    /// training set only if its distance to every member exceeds a
    /// threshold, tuned so the training share is ≈ `train_fraction`
    /// (the paper uses 60 %); the remainder is split 3 : 7 into validation
    /// and test at random.
    pub fn split(&self, train_fraction: f64, seed: u64) -> SplitIndices {
        let n = self.samples.len();
        let target = ((train_fraction * n as f64).round() as usize).clamp(1, n);

        // Pairwise distances between sample summaries.
        let dist = |a: usize, b: usize| -> f64 {
            self.samples[a]
                .summary
                .iter()
                .zip(&self.samples[b].summary)
                .map(|(x, y)| {
                    let d = (*x - *y) as f64;
                    d * d
                })
                .sum::<f64>()
                .sqrt()
        };
        let greedy = |threshold: f64| -> Vec<usize> {
            let mut train: Vec<usize> = Vec::new();
            for i in 0..n {
                if train.iter().all(|&j| dist(i, j) > threshold) {
                    train.push(i);
                }
            }
            train
        };

        // Train count decreases monotonically in the threshold: bisect.
        let mut lo = 0.0_f64;
        let top = (0..n.min(64))
            .flat_map(|a| (0..n.min(64)).map(move |b| (a, b)))
            .map(|(a, b)| dist(a, b))
            .fold(0.0, f64::max)
            .max(1e-12);
        let mut hi = top;
        let mut best = greedy(0.0);
        for _ in 0..40 {
            let mid = 0.5 * (lo + hi);
            let train = greedy(mid);
            if train.len().abs_diff(target) < best.len().abs_diff(target) {
                best = train.clone();
            }
            if train.len() > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The bisection never tries the largest distance itself, the one
        // threshold at which two distinct samples cannot both join.
        let at_top = greedy(top);
        if at_top.len().abs_diff(target) < best.len().abs_diff(target) {
            best = at_top;
        }
        let train = best;

        let in_train: std::collections::HashSet<usize> = train.iter().copied().collect();
        let mut rest: Vec<usize> = (0..n).filter(|i| !in_train.contains(i)).collect();
        let mut rng = rng::derived(seed, "dataset-split");
        rest.shuffle(&mut rng);
        let n_val = (rest.len() as f64 * 0.3).round() as usize;
        let val = rest[..n_val].to_vec();
        let test = rest[n_val..].to_vec();
        SplitIndices { train, val, test }
    }
}

/// Per-tile `μ + 3σ` over a sequence of `[1, m, n]` tensors.
fn mu3sigma_summary(maps: &[Tensor]) -> Vec<f32> {
    assert!(!maps.is_empty(), "summary of empty sequence");
    let len = maps[0].len();
    let n = maps.len() as f32;
    let mut mean = vec![0.0f32; len];
    let mut mean_sq = vec![0.0f32; len];
    for m in maps {
        for ((mu, sq), v) in mean.iter_mut().zip(&mut mean_sq).zip(m.as_slice()) {
            *mu += v;
            *sq += v * v;
        }
    }
    mean.iter()
        .zip(&mean_sq)
        .map(|(mu, sq)| {
            let m = mu / n;
            let var = (sq / n - m * m).max(0.0);
            m + 3.0 * var.sqrt()
        })
        .collect()
}

/// The three index sets produced by [`Dataset::split`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitIndices {
    /// Training-set sample indices.
    pub train: Vec<usize>,
    /// Validation-set sample indices.
    pub val: Vec<usize>,
    /// Test-set sample indices.
    pub test: Vec<usize>,
}

impl SplitIndices {
    /// Total number of samples across the three sets.
    pub fn total(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_sim::wnv::WnvRunner;
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};

    fn build_dataset(n: usize) -> Dataset {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen =
            VectorGenerator::new(&grid, GeneratorConfig { steps: 60, ..Default::default() });
        let vectors = gen.generate_group(n, 11);
        let runner = WnvRunner::new(&grid).unwrap();
        let reports = runner.run_group(&vectors).unwrap();
        let comp = TemporalCompressor::new(0.4, 0.05).unwrap();
        Dataset::build(&grid, &vectors, &reports, Some(&comp))
    }

    #[test]
    fn build_shapes_and_normalization() {
        let ds = build_dataset(6);
        assert_eq!(ds.len(), 6);
        assert_eq!(ds.tile_shape(), (8, 8));
        for s in &ds.samples {
            assert_eq!(s.currents.len(), 24, "40% of 60 stamps");
            assert_eq!(s.target.shape(), &[1, 8, 8]);
            assert!(s.target.max() <= 1.0 + 1e-6);
            for c in &s.currents {
                assert!(c.max() <= 1.0 + 1e-6);
                assert!(c.min() >= 0.0);
            }
        }
        // At least one sample's target or current touches 1.0 (max fit).
        let target_peak = ds.samples.iter().map(|s| s.target.max()).fold(0.0, f32::max);
        assert!((target_peak - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normalizers_invert_back_to_volts() {
        let ds = build_dataset(3);
        let s = &ds.samples[0];
        let raw_max = s.raw_worst_noise.max();
        let normalized_max = s.target.max() as f64;
        assert!((ds.target_norm.invert(normalized_max) - raw_max).abs() < 1e-6);
    }

    #[test]
    fn split_hits_requested_fractions() {
        let ds = build_dataset(12);
        let split = ds.split(0.6, 1);
        assert_eq!(split.total(), 12);
        // Train count within 2 of the 60% target of 7.
        assert!(split.train.len().abs_diff(7) <= 2, "train {}", split.train.len());
        // No overlap.
        let mut all: Vec<usize> =
            split.train.iter().chain(&split.val).chain(&split.test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn two_distinct_samples_split_one_to_train_and_one_to_test() {
        let ds = build_dataset(2);
        assert_ne!(ds.samples[0].summary, ds.samples[1].summary, "premise: distinct samples");
        let split = ds.split(0.6, 1);
        assert_eq!((split.train.len(), split.val.len(), split.test.len()), (1, 0, 1), "{split:?}");
    }

    #[test]
    fn split_is_deterministic() {
        let ds = build_dataset(8);
        assert_eq!(ds.split(0.6, 5), ds.split(0.6, 5));
    }

    #[test]
    fn uncompressed_dataset_keeps_all_stamps() {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen =
            VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
        let vectors = gen.generate_group(2, 3);
        let runner = WnvRunner::new(&grid).unwrap();
        let reports = runner.run_group(&vectors).unwrap();
        let ds = Dataset::build(&grid, &vectors, &reports, None);
        assert_eq!(ds.samples[0].currents.len(), 30);
    }
}
