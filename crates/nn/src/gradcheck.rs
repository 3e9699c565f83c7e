//! Finite-difference gradient verification.
//!
//! Every layer's backward pass is validated against central differences of
//! its forward pass: with a random upstream gradient `G`, the scalar
//! `L(x) = Σ forward(x) ∘ G` has `∂L/∂x = backward(G)`, and the same holds
//! for each parameter. This is how the test suite proves the hand-written
//! backprop correct.

use crate::layer::Layer;
use crate::tensor::Tensor;
use pdn_core::rng;
use rand::Rng as _;

/// Outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric input
    /// gradients.
    pub max_input_error: f32,
    /// Largest absolute difference across all parameter gradients.
    pub max_param_error: f32,
    /// Relative errors of every input-gradient entry.
    pub input_rel_errors: Vec<f32>,
    /// Relative errors of every parameter-gradient entry.
    pub param_rel_errors: Vec<f32>,
}

impl GradCheckReport {
    /// Fraction of parameter-gradient entries whose relative error exceeds
    /// `tol`. Deep ReLU compositions are piecewise linear, so a ±eps probe
    /// occasionally crosses an activation kink and produces a wild finite
    /// difference; robust checks assert this fraction is small instead of
    /// requiring a tight max error.
    pub fn param_fraction_above(&self, tol: f32) -> f32 {
        if self.param_rel_errors.is_empty() {
            return 0.0;
        }
        self.param_rel_errors.iter().filter(|e| **e > tol).count() as f32
            / self.param_rel_errors.len() as f32
    }

    /// Fraction of input-gradient entries whose relative error exceeds
    /// `tol`.
    pub fn input_fraction_above(&self, tol: f32) -> f32 {
        if self.input_rel_errors.is_empty() {
            return 0.0;
        }
        self.input_rel_errors.iter().filter(|e| **e > tol).count() as f32
            / self.input_rel_errors.len() as f32
    }
}

fn rel_err(numeric: f32, analytic: f32) -> f32 {
    (numeric - analytic).abs() / (0.1 + numeric.abs().max(analytic.abs()))
}

/// Verifies a layer's backward pass on a random input of the given shape.
///
/// `eps` is the central-difference step (1e-2 works well in `f32`);
/// returns the worst observed errors so callers can assert a tolerance.
///
/// # Panics
///
/// Panics if the layer's forward/backward disagree on shapes.
pub fn check_layer<L: Layer>(layer: &mut L, input_shape: &[usize], eps: f32, seed: u64) -> GradCheckReport {
    let mut rng = rng::derived(seed, "gradcheck");
    let n: usize = input_shape.iter().product();
    let x = Tensor::from_vec(
        input_shape,
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let y = layer.forward(&x);
    let g_up = Tensor::from_vec(
        y.shape(),
        (0..y.len()).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );

    layer.zero_grad();
    let _ = layer.forward(&x); // fresh cache
    let analytic_in = layer.backward(&g_up);

    // Snapshot analytic parameter grads.
    let mut analytic_params: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| analytic_params.push(p.grad.clone()));

    let loss = |layer: &mut L, x: &Tensor| -> f64 {
        let y = layer.forward(x);
        y.as_slice().iter().zip(g_up.as_slice()).map(|(a, b)| (*a as f64) * (*b as f64)).sum()
    };

    // The loss at the unperturbed point, for one-sided differences at
    // subgradient kinks (see below).
    let l0 = loss(layer, &x);

    // ReLU networks are piecewise linear; when a parameter or input sits
    // exactly on an activation boundary (common: a ReLU-zero region feeding
    // a zero-initialized bias), the central difference averages the two
    // one-sided slopes while backward returns one valid subgradient. Such an
    // entry is accepted if EITHER one-sided difference matches the analytic
    // value — the defining property of a subgradient.
    let entry_error = |ana: f32, lp: f64, lm: f64| -> f32 {
        let central = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let e_central = rel_err(central, ana);
        if e_central <= 0.02 {
            return e_central;
        }
        let fwd = ((lp - l0) / eps as f64) as f32;
        let bwd = ((l0 - lm) / eps as f64) as f32;
        e_central.min(rel_err(fwd, ana)).min(rel_err(bwd, ana))
    };

    // Numeric input gradient.
    let mut max_input_error = 0.0f32;
    let mut input_rel_errors = Vec::with_capacity(n);
    for i in 0..n {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let lp = loss(layer, &xp);
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let lm = loss(layer, &xm);
        let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
        let analytic = analytic_in.as_slice()[i];
        max_input_error = max_input_error.max((numeric - analytic).abs());
        input_rel_errors.push(entry_error(analytic, lp, lm));
    }

    // Numeric parameter gradients: perturb each parameter scalar.
    let mut max_param_error = 0.0f32;
    let mut param_rel_errors = Vec::new();
    for (pi, analytic_param) in analytic_params.iter().enumerate() {
        let len = analytic_param.len();
        for j in 0..len {
            let bump = |delta: f32, layer: &mut L| {
                let mut idx = 0;
                layer.visit_params(&mut |p| {
                    if idx == pi {
                        p.value.as_mut_slice()[j] += delta;
                    }
                    idx += 1;
                });
            };
            bump(eps, layer);
            let lp = loss(layer, &x);
            bump(-2.0 * eps, layer);
            let lm = loss(layer, &x);
            bump(eps, layer); // restore
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let analytic = analytic_param.as_slice()[j];
            max_param_error = max_param_error.max((numeric - analytic).abs());
            param_rel_errors.push(entry_error(analytic, lp, lm));
        }
    }

    GradCheckReport { max_input_error, max_param_error, input_rel_errors, param_rel_errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::conv::{Conv2d, Padding};
    use crate::deconv::ConvTranspose2d;
    use crate::dense::Dense;

    const TOL: f32 = 3e-2;

    fn conv(in_ch: usize, out_ch: usize, k: usize, s: usize, pad: Padding, seed: u64) -> Conv2d {
        Conv2d::new(in_ch, out_ch, k, s, pad, Activation::Identity, seed)
    }

    /// Checks a ReLU layer: its forward must clamp some outputs to zero (so
    /// the backward mask is exercised) and nearly every gradient entry must
    /// match; a ±eps probe that crosses the kink may not.
    fn check_relu_layer<L: Layer>(layer: &mut L, input_shape: &[usize], seed: u64) {
        let r = check_layer(layer, input_shape, 1e-2, seed);
        let mut rng = rng::derived(seed, "gradcheck");
        let n: usize = input_shape.iter().product();
        let x = Tensor::from_vec(input_shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let y = layer.forward(&x);
        assert!(y.as_slice().contains(&0.0), "no output clamped");
        assert!(y.as_slice().iter().any(|v| *v > 0.0), "every output clamped");
        assert!(r.input_fraction_above(0.05) < 0.02, "{r:?}");
        assert!(r.param_fraction_above(0.05) < 0.02, "{r:?}");
    }

    #[test]
    fn conv_zero_padding_stride1() {
        let mut conv = conv(2, 3, 3, 1, Padding::Zero, 2);
        let r = check_layer(&mut conv, &[2, 5, 5], 1e-2, 2);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn conv_replication_padding_stride1() {
        let mut conv = conv(2, 2, 3, 1, Padding::Replication, 3);
        let r = check_layer(&mut conv, &[2, 5, 5], 1e-2, 3);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn conv_stride2_downsample() {
        let mut conv = conv(1, 2, 3, 2, Padding::Replication, 4);
        let r = check_layer(&mut conv, &[1, 6, 6], 1e-2, 4);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn conv_stride2_odd_input() {
        let mut conv = conv(1, 2, 3, 2, Padding::Zero, 9);
        let r = check_layer(&mut conv, &[1, 7, 5], 1e-2, 9);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn deconv_stride2_upsample() {
        let mut d = ConvTranspose2d::new(2, 2, 4, 2, 1, Activation::Identity, 5);
        let r = check_layer(&mut d, &[2, 4, 4], 1e-2, 5);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn conv_1x1_output_layer() {
        let mut conv = conv(4, 1, 1, 1, Padding::Zero, 6);
        let r = check_layer(&mut conv, &[4, 4, 4], 1e-2, 6);
        assert!(r.max_input_error < TOL, "{r:?}");
        assert!(r.max_param_error < TOL, "{r:?}");
    }

    #[test]
    fn conv_relu_epilogue() {
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Replication, Activation::Relu, 7);
        check_relu_layer(&mut conv, &[2, 5, 5], 7);
        let mut down = Conv2d::new(2, 2, 3, 2, Padding::Zero, Activation::Relu, 8);
        check_relu_layer(&mut down, &[2, 7, 6], 8);
    }

    #[test]
    fn deconv_relu_epilogue() {
        let mut d = ConvTranspose2d::new(2, 2, 4, 2, 1, Activation::Relu, 10);
        check_relu_layer(&mut d, &[2, 4, 4], 10);
    }

    #[test]
    fn dense_relu_epilogue() {
        let mut fc = Dense::new(12, 6, Activation::Relu, 11);
        check_relu_layer(&mut fc, &[3, 2, 2], 11);
    }
}
