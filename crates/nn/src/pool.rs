//! Max pooling (used by the PowerNet baseline).

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// 2×2 max pooling with stride 2. Odd trailing rows/columns are dropped
/// (floor semantics), matching the common CNN convention.
///
/// # Example
///
/// ```
/// use pdn_nn::pool::MaxPool2;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut pool = MaxPool2::new();
/// let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 4.0, 3.0, 2.0]);
/// assert_eq!(pool.forward(&x).as_slice(), &[4.0]);
/// ```
#[derive(Debug, Default, Clone)]
pub struct MaxPool2 {
    /// The last forward's output, reused by the next one.
    out: Tensor,
    /// Flat input index of each output's maximum; `None` until the first
    /// forward.
    argmax: Option<Vec<usize>>,
    in_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a pooling layer.
    pub fn new() -> MaxPool2 {
        MaxPool2::default()
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert_eq!(input.shape().len(), 3, "pool expects (C, H, W)");
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert!(h >= 2 && w >= 2, "pool input too small");
        let (ho, wo) = (h / 2, w / 2);
        self.out.resize_in_place(&[c, ho, wo]);
        let argmax = self.argmax.get_or_insert_with(Vec::new);
        argmax.resize(c * ho * wo, 0);
        for ci in 0..c {
            let plane = input.channel(ci);
            for oh in 0..ho {
                for ow in 0..wo {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dh in 0..2 {
                        for dw in 0..2 {
                            let idx = (2 * oh + dh) * w + 2 * ow + dw;
                            if plane[idx] > best {
                                best = plane[idx];
                                best_idx = ci * h * w + idx;
                            }
                        }
                    }
                    self.out.set3(ci, oh, ow, best);
                    argmax[(ci * ho + oh) * wo + ow] = best_idx;
                }
            }
        }
        self.in_shape.clear();
        self.in_shape.extend_from_slice(input.shape());
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward before forward");
        assert_eq!(grad_out.len(), argmax.len(), "pool grad mismatch");
        let mut gin = Tensor::zeros(&self.in_shape);
        let gi = gin.as_mut_slice();
        for (g, &src) in grad_out.as_slice().iter().zip(argmax) {
            gi[src] += g;
        }
        gin
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;

    #[test]
    fn pools_maxima() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_fn3(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn odd_sizes_floor() {
        let mut pool = MaxPool2::new();
        let y = pool.forward(&Tensor::zeros(&[2, 5, 7]));
        assert_eq!(y.shape(), &[2, 2, 3]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 4.0, 3.0, 2.0]);
        let _ = pool.forward(&x);
        let g = pool.backward(&Tensor::from_vec(&[1, 1, 1], vec![2.0]));
        assert_eq!(g.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn gradients_verified() {
        let mut pool = MaxPool2::new();
        let r = check_layer(&mut pool, &[2, 4, 4], 1e-3, 4);
        assert!(r.max_input_error < 1e-2, "{:?}", r.max_input_error);
    }
}
