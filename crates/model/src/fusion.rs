//! The current-map fusion subnet (paper §3.4.2).
//!
//! "Each sampled current map is separately sent to the network, which can
//! handle the vector with various lengths. An encoder–decoder structure is
//! applied … a small network with four layers is enough."

use pdn_nn::activation::Activation;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::deconv::ConvTranspose2d;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::tensor::Tensor;

/// Four-layer encoder–decoder applied independently to every compressed
/// current map: two stride-2 encoding convolutions, two stride-2
/// deconvolutions back to full resolution, single-channel output.
///
/// # Example
///
/// ```
/// use pdn_model::fusion::FusionNet;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut net = FusionNet::new(8, 5);
/// let y = net.forward(&Tensor::zeros(&[1, 16, 16]));
/// assert_eq!(y.shape(), &[1, 16, 16]);
/// ```
#[derive(Clone)]
pub struct FusionNet {
    enc1: Conv2d,
    enc2: Conv2d,
    dec1: ConvTranspose2d,
    dec2: ConvTranspose2d,
    channels: usize,
}

impl std::fmt::Debug for FusionNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionNet").field("channels", &self.channels).finish_non_exhaustive()
    }
}

impl FusionNet {
    /// Creates the subnet with `channels` kernels per hidden layer
    /// (the paper's `C2`).
    pub fn new(channels: usize, seed: u64) -> FusionNet {
        let c = channels;
        let (relu, rep) = (Activation::Relu, Padding::Replication);
        FusionNet {
            enc1: Conv2d::new(1, c, 3, 2, rep, relu, seed.wrapping_add(21)),
            enc2: Conv2d::new(c, c, 3, 2, rep, relu, seed.wrapping_add(22)),
            dec1: ConvTranspose2d::new(c, c, 4, 2, 1, relu, seed.wrapping_add(23)),
            dec2: ConvTranspose2d::new(c, 1, 4, 2, 1, Activation::Identity, seed.wrapping_add(24)),
            channels: c,
        }
    }

    /// Hidden channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for FusionNet {
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert_eq!(input.shape()[0], 1, "fusion subnet takes one-channel current maps");
        assert!(
            input.shape()[1].is_multiple_of(4) && input.shape()[2].is_multiple_of(4),
            "fusion input sides must be divisible by 4 (got {:?}); pad first",
            input.shape()
        );
        let e1 = self.enc1.forward(input);
        let e2 = self.enc2.forward(e1);
        let d1 = self.dec1.forward(e2);
        self.dec2.forward(d1)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.dec2.backward(grad_out);
        let g = self.dec1.backward(&g);
        let g = self.enc2.backward(&g);
        self.enc1.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.enc1.visit_params(f);
        self.enc2.visit_params(f);
        self.dec1.visit_params(f);
        self.dec2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_nn::gradcheck::check_layer;

    #[test]
    fn preserves_spatial_size() {
        let mut net = FusionNet::new(4, 0);
        assert_eq!(net.forward(&Tensor::zeros(&[1, 8, 12])).shape(), &[1, 8, 12]);
    }

    #[test]
    fn handles_any_length_sequences() {
        // The subnet is applied per map; different sequence lengths just
        // mean different numbers of calls with identical weights.
        let mut net = FusionNet::new(4, 1);
        for len in [1usize, 3, 7] {
            for _ in 0..len {
                let y = net.forward(&Tensor::filled(&[1, 8, 8], 0.1));
                assert_eq!(y.shape(), &[1, 8, 8]);
            }
        }
    }

    #[test]
    fn gradients_verified() {
        // Robust quantile check — see UNet::gradients_verified_end_to_end
        // for why composed ReLU nets need it.
        let mut net = FusionNet::new(2, 1);
        let r = check_layer(&mut net, &[1, 8, 8], 1e-2, 2);
        assert!(r.max_input_error < 0.05, "input errors: {:?}", r.max_input_error);
        assert!(r.param_fraction_above(0.05) < 0.02, "param errors: {:?}", r.max_param_error);
    }

    #[test]
    fn four_trainable_layers() {
        let mut net = FusionNet::new(8, 0);
        let mut count = 0;
        net.visit_params(&mut |_| count += 1);
        assert_eq!(count, 8, "4 layers x (weight + bias)");
    }
}
