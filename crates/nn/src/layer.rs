//! The layer contract and trainable parameters.

use crate::tensor::Tensor;

/// A trainable parameter: value, accumulated gradient, and Adam moment
/// state (kept here so the optimizer stays stateless per parameter).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by `backward` calls since the last step.
    pub grad: Tensor,
    /// Adam first-moment estimate.
    pub m: Tensor,
    /// Adam second-moment estimate.
    pub v: Tensor,
}

impl Param {
    /// Wraps an initial value with zeroed gradient/moment buffers.
    pub fn new(value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape());
        let m = Tensor::zeros(value.shape());
        let v = Tensor::zeros(value.shape());
        Param { value, grad, m, v }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero();
    }
}

/// Forward/backward contract implemented by every layer.
///
/// `forward` writes into an output buffer the layer owns and keeps whatever
/// the subsequent `backward` needs in buffers it reuses, so a pass with the
/// shapes of the previous one allocates nothing. Training and prediction
/// run this one forward. `backward` consumes the gradient w.r.t. the layer
/// output, **accumulates** parameter gradients, and returns the gradient
/// w.r.t. the layer input. Calling `backward` before `forward` is a
/// programming error and panics.
pub trait Layer {
    /// Computes the layer output into the layer's own buffer and returns
    /// it; the next `forward` overwrites it.
    fn forward(&mut self, input: &Tensor) -> &Tensor;

    /// Propagates gradients; returns `∂loss/∂input`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every trainable parameter (used by the optimizer).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_buffers_match_shape() {
        let p = Param::new(Tensor::filled(&[2, 3], 1.0));
        assert_eq!(p.grad.shape(), &[2, 3]);
        assert_eq!(p.m.shape(), &[2, 3]);
        assert_eq!(p.v.shape(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Param::new(Tensor::zeros(&[4]));
        p.grad = Tensor::filled(&[4], 2.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
