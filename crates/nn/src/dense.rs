//! Fully connected layer (used by the PowerNet baseline's head).

use crate::activation::Activation;
use crate::init;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A dense (fully connected) layer: flattens its input and computes
/// `y = act(W x + b)` with `W ∈ R^{out×in}`.
///
/// # Example
///
/// ```
/// use pdn_nn::activation::Activation;
/// use pdn_nn::dense::Dense;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut fc = Dense::new(8, 3, Activation::Identity, 1);
/// let y = fc.forward(&Tensor::zeros(&[2, 2, 2]));
/// assert_eq!(y.shape(), &[3]);
/// ```
pub struct Dense {
    in_features: usize,
    out_features: usize,
    act: Activation,
    weight: Param,
    bias: Param,
    /// The last forward's output, reused by the next one; `backward` reads
    /// the activation's derivative off it.
    out: Tensor,
    /// A copy of the last forward's input, for the weight gradient.
    input: Option<Tensor>,
    gout: Vec<f32>,
}

impl Clone for Dense {
    /// Clones configuration and parameters; the output and forward state
    /// are dropped.
    fn clone(&self) -> Dense {
        Dense {
            in_features: self.in_features,
            out_features: self.out_features,
            act: self.act,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            out: Tensor::default(),
            input: None,
            gout: Vec::new(),
        }
    }
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dense")
            .field("in_features", &self.in_features)
            .field("out_features", &self.out_features)
            .field("act", &self.act)
            .finish_non_exhaustive()
    }
}

impl Dense {
    /// Creates a dense layer with Kaiming-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if either feature count is zero.
    pub fn new(in_features: usize, out_features: usize, act: Activation, seed: u64) -> Dense {
        assert!(in_features > 0 && out_features > 0, "dense dims must be non-zero");
        // Reuse the conv initializer with a 1x1 "kernel": N(0, sqrt(2/in)).
        let w = init::kaiming_conv(out_features, in_features, 1, seed)
            .reshape(&[out_features, in_features]);
        Dense {
            in_features,
            out_features,
            act,
            weight: Param::new(w),
            bias: Param::new(Tensor::zeros(&[out_features])),
            out: Tensor::default(),
            input: None,
            gout: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert_eq!(input.len(), self.in_features, "dense input feature mismatch");
        self.out.resize_in_place(&[self.out_features]);
        let (w, bias, x) =
            (self.weight.value.as_slice(), self.bias.value.as_slice(), input.as_slice());
        for (o, ov) in self.out.as_mut_slice().iter_mut().enumerate() {
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            *ov = self.act.apply(bias[o] + row.iter().zip(x).map(|(a, b)| a * b).sum::<f32>());
        }
        self.input.get_or_insert_with(Tensor::default).clone_from(input);
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward");
        assert_eq!(grad_out.len(), self.out_features, "dense grad mismatch");
        let x = input.as_slice();
        let go = self.act.backward(self.out.as_slice(), grad_out.as_slice(), &mut self.gout);
        // Bias and weight gradients.
        for (gb, g) in self.bias.grad.as_mut_slice().iter_mut().zip(go) {
            *gb += g;
        }
        let gw = self.weight.grad.as_mut_slice();
        for (o, g) in go.iter().enumerate() {
            if *g == 0.0 {
                continue;
            }
            let row = &mut gw[o * self.in_features..(o + 1) * self.in_features];
            for (rw, xv) in row.iter_mut().zip(x) {
                *rw += g * xv;
            }
        }
        // Input gradient: Wᵀ g, reshaped to the cached input's shape.
        let w = self.weight.value.as_slice();
        let mut gin = Tensor::zeros(input.shape());
        let gi = gin.as_mut_slice();
        for (o, g) in go.iter().enumerate() {
            if *g == 0.0 {
                continue;
            }
            let row = &w[o * self.in_features..(o + 1) * self.in_features];
            for (giv, rw) in gi.iter_mut().zip(row) {
                *giv += g * rw;
            }
        }
        gin
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn known_answer() {
        for (act, want) in [(Activation::Identity, [3.5, -4.5]), (Activation::Relu, [3.5, 0.0])] {
            let mut fc = Dense::new(2, 2, act, 0);
            fc.weight.value = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, -3.0, -1.0]);
            fc.bias.value = Tensor::from_vec(&[2], vec![0.5, -0.5]);
            let y = fc.forward(&Tensor::from_vec(&[2], vec![1.0, 1.0]));
            assert_eq!(y.as_slice(), &want, "{act:?}");
        }
    }

    #[test]
    fn flattens_multidim_input() {
        let mut fc = Dense::new(12, 4, Activation::Identity, 1);
        let y = fc.forward(&Tensor::zeros(&[3, 2, 2]));
        assert_eq!(y.shape(), &[4]);
    }

    #[test]
    fn gradients_verified() {
        let mut fc = Dense::new(6, 3, Activation::Identity, 2);
        let r = check_layer(&mut fc, &[6], 1e-2, 2);
        assert!(r.max_input_error < 3e-2, "{:?}", r.max_input_error);
        assert!(r.max_param_error < 3e-2, "{:?}", r.max_param_error);
    }

    #[test]
    fn input_grad_preserves_shape() {
        let mut fc = Dense::new(8, 2, Activation::Identity, 3);
        let _ = fc.forward(&Tensor::zeros(&[2, 2, 2]));
        let g = fc.backward(&Tensor::filled(&[2], 1.0));
        assert_eq!(g.shape(), &[2, 2, 2]);
    }
}
