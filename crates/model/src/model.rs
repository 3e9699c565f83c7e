//! The assembled three-subnet model and the end-user predictor.

use crate::fusion::FusionNet;
use crate::pad::{crop_to, pad_to_multiple4_into, round_up4, uncrop_grad};
use crate::stats::TemporalStats;
use crate::unet::UNet;
use pdn_compress::temporal::{CompressScratch, TemporalCompressor};
use pdn_core::map::TileMap;
use pdn_features::dataset::Dataset;
use pdn_features::normalize::Normalizer;
use pdn_grid::build::PowerGrid;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::tensor::Tensor;
use pdn_vectors::vector::TestVector;

/// Kernel counts of the three subnets. The paper's setting is
/// `C1 = C2 = 8`, `C3 = 16` (§4.1) — the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Kernels in the distance-reduction U-Net.
    pub c1: usize,
    /// Kernels in the current-fusion encoder–decoder.
    pub c2: usize,
    /// Kernels in the noise-prediction U-Net.
    pub c3: usize,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig { c1: 8, c2: 8, c3: 16 }
    }
}

/// The map sizes of the last [`WnvModel::forward`], which `backward` needs.
#[derive(Debug, Clone, Copy)]
struct Pass {
    rows: usize,
    cols: usize,
    maps: usize,
}

/// The worst-case dynamic PDN noise prediction model (paper Fig. 3).
///
/// Inputs: the design's distance tensor `[B, m, n]` and a (compressed)
/// sequence of current maps `[1, m, n]`. Output: the predicted worst-case
/// noise map `[1, m, n]` — the whole die in one pass.
///
/// The model owns its padded inputs, `D̃`, the fused maps, their statistics
/// and the feature concatenation, and every layer owns its output, so a
/// pass with the previous pass's shapes allocates nothing but the cropped
/// map [`WnvModel::forward`] returns.
pub struct WnvModel {
    distance_net: UNet,
    fusion_net: FusionNet,
    prediction_net: UNet,
    config: ModelConfig,
    padded_distance: Tensor,
    /// The distance subnet's output `D̃`.
    d_tilde: Tensor,
    /// Padded current maps; the first [`Pass::maps`] are the current pass's.
    padded_currents: Vec<Tensor>,
    fused: Vec<Tensor>,
    stats: TemporalStats,
    cat: Tensor,
    /// Set by `forward`, taken by `backward`.
    pass: Option<Pass>,
}

impl std::fmt::Debug for WnvModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WnvModel").field("config", &self.config).finish_non_exhaustive()
    }
}

impl WnvModel {
    /// Creates a model for a design with `bumps` power bumps.
    pub fn new(bumps: usize, config: ModelConfig, seed: u64) -> WnvModel {
        WnvModel {
            distance_net: UNet::new(bumps, config.c1, 1, seed.wrapping_add(100)),
            fusion_net: FusionNet::new(config.c2, seed.wrapping_add(200)),
            prediction_net: UNet::new(4, config.c3, 1, seed.wrapping_add(300)),
            config,
            padded_distance: Tensor::default(),
            d_tilde: Tensor::default(),
            padded_currents: Vec::new(),
            fused: Vec::new(),
            stats: TemporalStats::default(),
            cat: Tensor::default(),
            pass: None,
        }
    }

    /// The kernel configuration.
    pub fn config(&self) -> ModelConfig {
        self.config
    }

    /// Total trainable parameter count across the three subnets.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }

    /// Full forward pass: distance tensor + current-map sequence →
    /// predicted (normalized) noise map `[1, m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if `currents` is empty or spatial shapes disagree.
    pub fn forward(&mut self, distance: &Tensor, currents: &[Tensor]) -> Tensor {
        assert!(!currents.is_empty(), "model needs at least one current map");
        let (m, n) = (distance.shape()[1], distance.shape()[2]);
        for c in currents {
            assert_eq!(&c.shape()[1..], &[m, n], "current map shape mismatch");
        }
        self.reduce_distance(distance);
        for (i, c) in currents.iter().enumerate() {
            pad_to_multiple4_into(c, self.padded_current(i));
        }
        let cropped = crop_to(self.predict_padded(currents.len()), m, n);
        self.pass = Some(Pass { rows: m, cols: n, maps: currents.len() });
        cropped
    }

    /// Runs the distance subnet on the padded distance tensor into `D̃`.
    fn reduce_distance(&mut self, distance: &Tensor) {
        pad_to_multiple4_into(distance, &mut self.padded_distance);
        self.d_tilde.clone_from(self.distance_net.forward(&self.padded_distance));
    }

    /// The reused buffer for padded current map `i`.
    fn padded_current(&mut self, i: usize) -> &mut Tensor {
        while self.padded_currents.len() <= i {
            self.padded_currents.push(Tensor::default());
        }
        &mut self.padded_currents[i]
    }

    /// Fuses the first `t` padded current maps (the fusion subnet runs once
    /// per time sample with shared weights), reduces them to the temporal
    /// statistics and predicts the padded noise map from them and `D̃`.
    /// Shared by [`WnvModel::forward`] and [`Predictor::predict_into`].
    fn predict_padded(&mut self, t: usize) -> &Tensor {
        self.pass = None;
        while self.fused.len() < t {
            self.fused.push(Tensor::default());
        }
        for (map, fused) in self.padded_currents[..t].iter().zip(&mut self.fused) {
            fused.clone_from(self.fusion_net.forward(map));
        }
        let stats = &mut self.stats;
        stats.compute(&self.fused[..t]);
        let features = [&self.d_tilde, &stats.max, &stats.mean_extreme, &stats.msd];
        Tensor::concat_channels_into(&features, &mut self.cat);
        self.prediction_net.forward(&self.cat)
    }

    /// Backward pass from the loss gradient w.r.t. the predicted map.
    /// Accumulates parameter gradients in all three subnets. Input
    /// gradients are discarded (the features are data, not parameters).
    ///
    /// # Panics
    ///
    /// Panics if called before [`WnvModel::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) {
        let pass = self.pass.take().expect("backward before forward");
        assert_eq!(grad_out.shape(), &[1, pass.rows, pass.cols], "grad shape mismatch");
        let (mp, np) = (round_up4(pass.rows), round_up4(pass.cols));
        let g = uncrop_grad(grad_out, mp, np);
        let gcat = self.prediction_net.backward(&g);
        let parts = gcat.split_channels(&[1, 1, 1, 1]);
        let (g_d, g_max, g_mean, g_msd) = (&parts[0], &parts[1], &parts[2], &parts[3]);

        // Distance subnet still holds this sample's forward state.
        let _ = self.distance_net.backward(g_d);

        // Fusion subnet: its state only covers the last map, so re-run the
        // forward per map before its backward (recompute-instead-of-store),
        // accumulating every map's gradient in place, in map order.
        let per_map = self.stats.backward(&self.fused[..pass.maps], g_max, g_mean, g_msd);
        for (map, gmap) in self.padded_currents.iter().zip(&per_map) {
            let _ = self.fusion_net.forward(map);
            let _ = self.fusion_net.backward(gmap);
        }
    }

    /// Visits all trainable parameters of the three subnets.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.distance_net.visit_params(f);
        self.fusion_net.visit_params(f);
        self.prediction_net.visit_params(f);
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Reusable working memory for the predictor's pre-CNN stages. With the
/// model's own buffers, everything a [`Predictor::predict_into`] call
/// touches is reused, so repeated predictions allocate nothing in steady
/// state.
#[derive(Default)]
struct InferScratch {
    /// Whether the model's `D̃` is valid for the current weights.
    d_tilde_valid: bool,
    maps: Vec<TileMap>,
    totals: Vec<f64>,
    compress: CompressScratch,
    all: Vec<usize>,
}

/// A trained model bundled with everything needed to answer a sign-off
/// query end to end: the design's distance tensor, the normalizers fitted
/// at training time, and the temporal compressor.
///
/// This is the object whose [`Predictor::predict`] runtime is compared to
/// the simulator in Table 2.
pub struct Predictor {
    /// Crate-visible so the bundle writer can borrow the weights without
    /// going through [`Predictor::model_mut`], which drops the cache.
    pub(crate) model: WnvModel,
    distance: Tensor,
    current_norm: Normalizer,
    target_norm: Normalizer,
    compressor: Option<TemporalCompressor>,
    scratch: InferScratch,
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Predictor").field("compressor", &self.compressor).finish_non_exhaustive()
    }
}

impl Predictor {
    /// Bundles a trained model with its dataset's preprocessing state.
    pub fn new(model: WnvModel, dataset: &Dataset, compressor: Option<TemporalCompressor>) -> Predictor {
        Predictor {
            model,
            distance: dataset.distance.clone(),
            current_norm: dataset.current_norm,
            target_norm: dataset.target_norm,
            compressor,
            scratch: InferScratch::default(),
        }
    }

    /// Predicts the worst-case noise map (in volts) for a raw test vector:
    /// spatial aggregation → temporal compression → normalization → CNN →
    /// denormalization. One pass for the whole die.
    ///
    /// # Panics
    ///
    /// Panics if the vector's load count differs from the grid's.
    pub fn predict(&mut self, grid: &PowerGrid, vector: &TestVector) -> TileMap {
        let mut out = TileMap::empty();
        self.predict_into(grid, vector, &mut out);
        out
    }

    /// [`Predictor::predict`] into a reused output map. All intermediates
    /// live in the predictor's internal scratch, so steady-state calls
    /// perform no heap allocation, and the result is bitwise identical to
    /// the training-path forward.
    ///
    /// # Panics
    ///
    /// Panics if the vector's load count differs from the grid's.
    pub fn predict_into(&mut self, grid: &PowerGrid, vector: &TestVector, out: &mut TileMap) {
        let Predictor { model, distance, current_norm, target_norm, compressor, scratch: s, .. } =
            self;
        let (m, n) = (distance.shape()[1], distance.shape()[2]);
        let (hp, wp) = (round_up4(m), round_up4(n));

        // Distance features depend only on the design and the weights:
        // compute them once and reuse across every query.
        if !s.d_tilde_valid {
            model.reduce_distance(distance);
            s.d_tilde_valid = true;
        }

        // Spatial aggregation into reused tile maps.
        let t_all = vector.step_count();
        while s.maps.len() < t_all {
            s.maps.push(TileMap::empty());
        }
        s.totals.clear();
        for k in 0..t_all {
            pdn_compress::spatial::load_tile_map_into(grid, vector.step(k), &mut s.maps[k]);
            s.totals.push(s.maps[k].sum());
        }

        // Temporal compression selects the kept time stamps.
        let kept: &[usize] = match compressor {
            Some(c) => {
                c.compress_with(&s.totals, &mut s.compress);
                s.compress.kept()
            }
            None => {
                s.all.clear();
                s.all.extend(0..t_all);
                &s.all
            }
        };

        // Normalize each kept map into the model's padded input buffers,
        // then run the CNN tail the training forward runs.
        for (i, &k) in kept.iter().enumerate() {
            let map = &s.maps[k];
            assert_eq!(map.shape(), (m, n), "current map shape mismatch");
            let cur = model.padded_current(i);
            cur.resize_in_place(&[1, hp, wp]);
            let cs = cur.as_mut_slice();
            let ms = map.as_slice();
            for r in 0..m {
                for c in 0..n {
                    cs[r * wp + c] = current_norm.apply_f32(ms[r * n + c] as f32);
                }
            }
        }
        let pred = model.predict_padded(kept.len());

        // Crop and de-normalize straight into the caller's map.
        if out.shape() != (m, n) {
            *out = TileMap::zeros(m, n);
        }
        let os = out.as_mut_slice();
        let ps = pred.as_slice();
        for r in 0..m {
            for c in 0..n {
                os[r * n + c] = target_norm.invert_f32(ps[r * wp + c].max(0.0)) as f64;
            }
        }
    }

    /// Predicts a whole batch of vectors, reusing `out`'s maps and the
    /// internal scratch: after a warm-up call of the same batch shape, no
    /// heap allocation happens at all.
    pub fn predict_batch(&mut self, grid: &PowerGrid, vectors: &[TestVector], out: &mut Vec<TileMap>) {
        out.truncate(vectors.len());
        while out.len() < vectors.len() {
            out.push(TileMap::empty());
        }
        for (vector, map) in vectors.iter().zip(out.iter_mut()) {
            self.predict_into(grid, vector, map);
        }
    }

    /// Borrow the inner model (e.g. for parameter counting, or to swap in
    /// other weights). The cached distance features are dropped, since the
    /// caller may change the weights they were computed with.
    pub fn model_mut(&mut self) -> &mut WnvModel {
        self.scratch.d_tilde_valid = false;
        &mut self.model
    }

    /// Reassembles a predictor from its stored parts (see [`crate::io`]).
    pub fn from_parts(
        model: WnvModel,
        distance: Tensor,
        current_norm: Normalizer,
        target_norm: Normalizer,
        compressor: Option<TemporalCompressor>,
    ) -> Predictor {
        Predictor {
            model,
            distance,
            current_norm,
            target_norm,
            compressor,
            scratch: InferScratch::default(),
        }
    }

    /// The inner model's kernel configuration.
    pub fn model_config(&self) -> ModelConfig {
        self.model.config()
    }

    /// The design's distance tensor the predictor was built with.
    pub fn distance_tensor(&self) -> &Tensor {
        &self.distance
    }

    /// Scale factor of the current normalizer.
    pub fn current_norm_scale(&self) -> f64 {
        self.current_norm.scale()
    }

    /// Scale factor of the target normalizer.
    pub fn target_norm_scale(&self) -> f64 {
        self.target_norm.scale()
    }

    /// `(rate, rate_step)` of the temporal compressor, if any.
    pub fn compressor_settings(&self) -> Option<(f64, f64)> {
        self.compressor.as_ref().map(|c| (c.rate(), c.rate_step()))
    }

    /// Fail-fast compatibility check between this bundle and `grid`.
    ///
    /// A long-lived host (`pdn serve`) loads the bundle once and then
    /// answers arbitrary requests; a bundle trained for a different design
    /// or scale would otherwise only surface as a shape-assert panic in the
    /// middle of some victim's request. This validates everything the
    /// request path trusts — distance-tensor rank and tile/bump dimensions
    /// against the grid — and returns a human-readable explanation instead
    /// of panicking later. (Normalizer scales are already guaranteed finite
    /// and positive by construction and by the bundle loader.)
    ///
    /// # Errors
    ///
    /// Describes the first mismatch found.
    pub fn validate_for(&self, grid: &PowerGrid) -> Result<(), String> {
        let shape = self.distance.shape();
        if shape.len() != 3 {
            return Err(format!(
                "bundle distance tensor has {} dimensions, expected 3 (bumps x rows x cols)",
                shape.len()
            ));
        }
        let tiles = grid.tile_grid();
        if (shape[1], shape[2]) != (tiles.rows(), tiles.cols()) {
            return Err(format!(
                "bundle was trained for a {}x{} tile grid but this design's grid is {}x{}; \
                 the bundle belongs to a different design or scale",
                shape[1],
                shape[2],
                tiles.rows(),
                tiles.cols()
            ));
        }
        if shape[0] != grid.bumps().len() {
            return Err(format!(
                "bundle distance features cover {} bumps but this design has {}; \
                 the bundle belongs to a different design build",
                shape[0],
                grid.bumps().len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_features::convert::{map_to_tensor, tensor_to_map};
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_nn::loss;
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};

    fn infer_fixture() -> (PowerGrid, Vec<TestVector>, Tensor, ModelConfig) {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 20, ..Default::default() });
        let vectors = gen.generate_group(3, 77);
        let (rows, cols) = (grid.tile_grid().rows(), grid.tile_grid().cols());
        let bumps = grid.bumps().len();
        let distance = Tensor::from_fn3(bumps, rows, cols, |b, r, c| {
            ((b * 13 + r * 5 + c) % 17) as f32 * 0.06
        });
        (grid, vectors, distance, ModelConfig { c1: 2, c2: 2, c3: 2 })
    }

    #[test]
    fn predict_matches_legacy_training_path_bitwise() {
        let (grid, vectors, distance, config) = infer_fixture();
        let bumps = grid.bumps().len();
        let comp = TemporalCompressor::new(0.5, 0.1).unwrap();
        let mut p = Predictor::from_parts(
            WnvModel::new(bumps, config, 9),
            distance.clone(),
            Normalizer::with_scale(2.0),
            Normalizer::with_scale(3.0),
            Some(comp),
        );
        for vector in &vectors {
            let got = p.predict(&grid, vector);

            // Replicate the pre-infer-path pipeline on a fresh identical
            // model: spatial maps -> compression -> normalize -> training
            // forward -> denormalize.
            let mut model = WnvModel::new(bumps, config, 9);
            let maps = pdn_compress::spatial::tile_current_maps(&grid, vector);
            let maps = comp.compress_maps(&maps).0;
            let currents: Vec<Tensor> = maps
                .iter()
                .map(|m| {
                    let mut t = map_to_tensor(m);
                    for v in t.as_mut_slice() {
                        *v = Normalizer::with_scale(2.0).apply_f32(*v);
                    }
                    t
                })
                .collect();
            let mut out = model.forward(&distance, &currents);
            for v in out.as_mut_slice() {
                *v = Normalizer::with_scale(3.0).invert_f32(v.max(0.0));
            }
            assert_eq!(got, tensor_to_map(&out));
        }
    }

    #[test]
    fn predict_batch_bitwise_matches_predict() {
        let (grid, vectors, distance, config) = infer_fixture();
        let mut p = Predictor::from_parts(
            WnvModel::new(grid.bumps().len(), config, 4),
            distance,
            Normalizer::with_scale(1.5),
            Normalizer::with_scale(2.5),
            Some(TemporalCompressor::new(0.6, 0.1).unwrap()),
        );
        let mut batch = vec![TileMap::filled(1, 1, 9.0)]; // stale entry reused
        p.predict_batch(&grid, &vectors, &mut batch);
        p.predict_batch(&grid, &vectors, &mut batch); // warmed scratch
        assert_eq!(batch.len(), vectors.len());
        for (vector, map) in vectors.iter().zip(&batch) {
            assert_eq!(&p.predict(&grid, vector), map);
        }
    }

    #[test]
    fn swapping_the_model_drops_cached_distance_features() {
        let (grid, vectors, distance, config) = infer_fixture();
        let bumps = grid.bumps().len();
        let predictor = |seed| {
            Predictor::from_parts(
                WnvModel::new(bumps, config, seed),
                distance.clone(),
                Normalizer::with_scale(2.0),
                Normalizer::with_scale(3.0),
                None,
            )
        };
        let mut p = predictor(3);
        let _ = p.predict(&grid, &vectors[0]);
        *p.model_mut() = WnvModel::new(bumps, config, 4);
        let want = predictor(4).predict(&grid, &vectors[0]);
        // Seed 4's map is not clamped to all zeros, so stale features show.
        assert!(want.max() > 0.0);
        assert_eq!(p.predict(&grid, &vectors[0]), want);
    }

    #[test]
    fn validate_for_detects_shape_mismatches() {
        let (grid, _vectors, distance, config) = infer_fixture();
        let bumps = grid.bumps().len();
        let (rows, cols) = (grid.tile_grid().rows(), grid.tile_grid().cols());
        let good = Predictor::from_parts(
            WnvModel::new(bumps, config, 9),
            distance,
            Normalizer::with_scale(2.0),
            Normalizer::with_scale(3.0),
            None,
        );
        good.validate_for(&grid).unwrap();

        let wrong_tiles = Predictor::from_parts(
            WnvModel::new(bumps, config, 9),
            Tensor::filled(&[bumps, rows + 1, cols], 0.5),
            Normalizer::with_scale(2.0),
            Normalizer::with_scale(3.0),
            None,
        );
        let err = wrong_tiles.validate_for(&grid).unwrap_err();
        assert!(err.contains("tile grid"), "{err}");

        let wrong_bumps = Predictor::from_parts(
            WnvModel::new(bumps + 1, config, 9),
            Tensor::filled(&[bumps + 1, rows, cols], 0.5),
            Normalizer::with_scale(2.0),
            Normalizer::with_scale(3.0),
            None,
        );
        let err = wrong_bumps.validate_for(&grid).unwrap_err();
        assert!(err.contains("bumps"), "{err}");
    }

    #[test]
    fn forward_shapes_any_tile_grid() {
        for (m, n) in [(8, 8), (10, 14), (5, 7)] {
            let mut model = WnvModel::new(4, ModelConfig { c1: 2, c2: 2, c3: 2 }, 1);
            let d = Tensor::filled(&[4, m, n], 0.5);
            let cur = vec![Tensor::filled(&[1, m, n], 0.1); 3];
            let y = model.forward(&d, &cur);
            assert_eq!(y.shape(), &[1, m, n], "tile grid {m}x{n}");
        }
    }

    #[test]
    fn variable_length_sequences_accepted() {
        let mut model = WnvModel::new(2, ModelConfig { c1: 2, c2: 2, c3: 2 }, 2);
        let d = Tensor::filled(&[2, 8, 8], 0.3);
        for len in [1usize, 4, 9] {
            let cur = vec![Tensor::filled(&[1, 8, 8], 0.2); len];
            let y = model.forward(&d, &cur);
            assert_eq!(y.shape(), &[1, 8, 8]);
        }
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let mut model = WnvModel::new(3, ModelConfig { c1: 2, c2: 2, c3: 2 }, 3);
        let d = Tensor::from_fn3(3, 8, 8, |c, h, w| ((c + h + w) % 4) as f32 * 0.2);
        let cur: Vec<Tensor> = (0..3)
            .map(|t| Tensor::from_fn3(1, 8, 8, |_, h, w| ((t + h * w) % 5) as f32 * 0.1))
            .collect();
        let y = model.forward(&d, &cur);
        let target = Tensor::filled(&[1, 8, 8], 0.5);
        let (_, g) = loss::l1(&y, &target);
        model.zero_grad();
        let _ = model.forward(&d, &cur);
        model.backward(&g);
        // Every subnet should have some non-zero gradient.
        let mut zero_params = 0;
        let mut total_params = 0;
        model.visit_params(&mut |p| {
            total_params += 1;
            if p.grad.as_slice().iter().all(|v| *v == 0.0) {
                zero_params += 1;
            }
        });
        assert!(total_params > 20);
        assert!(
            zero_params < total_params / 3,
            "{zero_params}/{total_params} params with zero grad"
        );
    }

    #[test]
    fn training_step_reduces_loss() {
        use pdn_nn::optim::Adam;
        let mut model = WnvModel::new(2, ModelConfig { c1: 2, c2: 2, c3: 4 }, 4);
        let d = Tensor::from_fn3(2, 8, 8, |c, h, w| ((c * h + w) % 3) as f32 * 0.3);
        let cur: Vec<Tensor> =
            (0..2).map(|t| Tensor::filled(&[1, 8, 8], 0.1 * (t + 1) as f32)).collect();
        let target = Tensor::from_fn3(1, 8, 8, |_, h, w| ((h * w) % 7) as f32 / 7.0);
        let mut adam = Adam::new(2e-3);
        let mut losses = Vec::new();
        for _ in 0..60 {
            let y = model.forward(&d, &cur);
            let (l, g) = loss::l1(&y, &target);
            losses.push(l);
            model.zero_grad();
            let _ = model.forward(&d, &cur);
            model.backward(&g);
            adam.begin_step();
            model.visit_params(&mut |p| adam.update_param(p));
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.8),
            "loss {} -> {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut model = WnvModel::new(2, ModelConfig::default(), 5);
        model.backward(&Tensor::zeros(&[1, 8, 8]));
    }
}
