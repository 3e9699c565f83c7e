//! The per-window CNN at PowerNet's core.

use pdn_nn::activation::Activation;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::dense::Dense;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::pool::MaxPool2;
use pdn_nn::tensor::Tensor;

/// PowerNet's window CNN: two conv+pool stages followed by two dense
/// layers, mapping a `[2, w, w]` feature window to one scalar (the tile's
/// predicted noise for one time window).
///
/// # Example
///
/// ```
/// use pdn_powernet::net::PowerNetCore;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut core = PowerNetCore::new(15, 8, 0);
/// let y = core.forward(&Tensor::zeros(&[2, 15, 15]));
/// assert_eq!(y.shape(), &[1]);
/// ```
#[derive(Clone)]
pub struct PowerNetCore {
    window: usize,
    conv1: Conv2d,
    pool1: MaxPool2,
    conv2: Conv2d,
    pool2: MaxPool2,
    fc1: Dense,
    fc2: Dense,
}

impl std::fmt::Debug for PowerNetCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerNetCore").field("window", &self.window).finish_non_exhaustive()
    }
}

impl PowerNetCore {
    /// Creates the CNN for a `window × window` input with `channels`
    /// first-stage kernels (the second stage uses `2·channels`).
    ///
    /// # Panics
    ///
    /// Panics if `window < 4` (two pooling stages need at least 4 pixels).
    pub fn new(window: usize, channels: usize, seed: u64) -> PowerNetCore {
        assert!(window >= 4, "window must be at least 4");
        let after1 = window / 2;
        let after2 = after1 / 2;
        let (c, relu) = (channels, Activation::Relu);
        PowerNetCore {
            window,
            conv1: Conv2d::new(2, c, 3, 1, Padding::Zero, relu, seed.wrapping_add(31)),
            pool1: MaxPool2::new(),
            conv2: Conv2d::new(c, 2 * c, 3, 1, Padding::Zero, relu, seed.wrapping_add(32)),
            pool2: MaxPool2::new(),
            fc1: Dense::new(2 * c * after2 * after2, 32, relu, seed.wrapping_add(33)),
            fc2: Dense::new(32, 1, Activation::Identity, seed.wrapping_add(34)),
        }
    }

    /// The input window size.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for PowerNetCore {
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert_eq!(
            input.shape(),
            &[2, self.window, self.window],
            "PowerNet core expects [2, w, w] windows"
        );
        let x = self.pool1.forward(self.conv1.forward(input));
        let x = self.pool2.forward(self.conv2.forward(x));
        let x = self.fc1.forward(x);
        self.fc2.forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.fc2.backward(grad_out);
        let g = self.fc1.backward(&g);
        let g = self.pool2.backward(&g);
        let g = self.conv2.backward(&g);
        let g = self.pool1.backward(&g);
        self.conv1.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.conv2.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_nn::gradcheck::check_layer;

    #[test]
    fn scalar_output() {
        let mut core = PowerNetCore::new(9, 4, 1);
        let y = core.forward(&Tensor::filled(&[2, 9, 9], 0.3));
        assert_eq!(y.shape(), &[1]);
    }

    #[test]
    fn gradients_verified() {
        let mut core = PowerNetCore::new(8, 2, 2);
        let r = check_layer(&mut core, &[2, 8, 8], 1.5e-3, 2);
        assert!(r.input_fraction_above(0.05) < 0.02, "{:?}", r.max_input_error);
        assert!(r.param_fraction_above(0.05) < 0.02, "{:?}", r.max_param_error);
    }

    #[test]
    fn clone_shares_weights_not_cache() {
        let mut a = PowerNetCore::new(8, 2, 3);
        let x = Tensor::filled(&[2, 8, 8], 0.5);
        let ya = a.forward(&x).clone();
        let mut b = a.clone();
        assert_eq!(b.forward(&x), &ya);
    }

    #[test]
    fn trains_on_toy_regression() {
        use pdn_nn::loss;
        use pdn_nn::optim::Adam;
        let mut core = PowerNetCore::new(8, 4, 5);
        let xs: Vec<Tensor> = (0..4)
            .map(|i| Tensor::filled(&[2, 8, 8], 0.2 * (i + 1) as f32))
            .collect();
        let ys: Vec<Tensor> =
            (0..4).map(|i| Tensor::from_vec(&[1], vec![0.1 * (i + 1) as f32])).collect();
        let mut adam = Adam::new(1e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let mut total = 0.0;
            core.zero_grad();
            for (x, y) in xs.iter().zip(&ys) {
                let pred = core.forward(x);
                let (l, g) = loss::l1(pred, y);
                total += l;
                let _ = core.backward(&g);
            }
            first.get_or_insert(total);
            last = total;
            adam.begin_step();
            core.visit_params(&mut |p| adam.update_param(p));
        }
        assert!(last < first.unwrap() * 0.3, "loss {:?} -> {last}", first);
    }
}
