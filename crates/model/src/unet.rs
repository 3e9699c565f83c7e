//! The U-Net-like structure used by the distance-reduction and
//! noise-prediction subnets (paper §3.4.1, §3.4.3).
//!
//! Two stride-2 downsampling convolutions (each followed by a stride-1
//! convolution), mirrored by two stride-2 deconvolutions (each followed by a
//! stride-1 convolution), with skip connections between equal-size feature
//! maps. Convolutions use replication padding, deconvolutions zero padding,
//! ReLU everywhere except the single-kernel output layer.

use pdn_nn::activation::Activation;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::deconv::ConvTranspose2d;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::tensor::Tensor;

/// A compact two-level U-Net.
///
/// Input spatial sides must be divisible by 4 (use
/// [`crate::pad::pad_to_multiple4_into`]).
///
/// # Example
///
/// ```
/// use pdn_model::unet::UNet;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut net = UNet::new(9, 8, 1, 7);
/// let y = net.forward(&Tensor::zeros(&[9, 16, 16]));
/// assert_eq!(y.shape(), &[1, 16, 16]);
/// ```
#[derive(Clone)]
pub struct UNet {
    in_conv: Conv2d,
    down1: Conv2d,
    down1b: Conv2d,
    down2: Conv2d,
    down2b: Conv2d,
    up1: ConvTranspose2d,
    up1b: Conv2d,
    up2: ConvTranspose2d,
    up2b: Conv2d,
    out_conv: Conv2d,
    /// The skip concatenations `[up1 ‖ down1b]` and `[up2 ‖ in_conv]`,
    /// reused across passes.
    cat1: Tensor,
    cat2: Tensor,
    channels: usize,
}

impl std::fmt::Debug for UNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UNet").field("channels", &self.channels).finish_non_exhaustive()
    }
}

impl UNet {
    /// Creates a U-Net with `channels` kernels per hidden layer
    /// (the paper's `C1`/`C3`), mapping `in_ch` input channels to `out_ch`
    /// output channels.
    pub fn new(in_ch: usize, channels: usize, out_ch: usize, seed: u64) -> UNet {
        let c = channels;
        let (relu, rep) = (Activation::Relu, Padding::Replication);
        UNet {
            in_conv: Conv2d::new(in_ch, c, 3, 1, rep, relu, seed.wrapping_add(1)),
            down1: Conv2d::new(c, c, 3, 2, rep, relu, seed.wrapping_add(2)),
            down1b: Conv2d::new(c, c, 3, 1, rep, relu, seed.wrapping_add(3)),
            down2: Conv2d::new(c, c, 3, 2, rep, relu, seed.wrapping_add(4)),
            down2b: Conv2d::new(c, c, 3, 1, rep, relu, seed.wrapping_add(5)),
            up1: ConvTranspose2d::new(c, c, 4, 2, 1, relu, seed.wrapping_add(6)),
            up1b: Conv2d::new(2 * c, c, 3, 1, rep, relu, seed.wrapping_add(7)),
            up2: ConvTranspose2d::new(c, c, 4, 2, 1, relu, seed.wrapping_add(8)),
            up2b: Conv2d::new(2 * c, c, 3, 1, rep, relu, seed.wrapping_add(9)),
            out_conv: Conv2d::new(
                c,
                out_ch,
                1,
                1,
                Padding::Zero,
                Activation::Identity,
                seed.wrapping_add(10),
            ),
            cat1: Tensor::default(),
            cat2: Tensor::default(),
            channels: c,
        }
    }

    /// Hidden channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

impl Layer for UNet {
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert!(
            input.shape()[1].is_multiple_of(4) && input.shape()[2].is_multiple_of(4),
            "UNet input sides must be divisible by 4 (got {:?}); pad first",
            input.shape()
        );
        let f0 = self.in_conv.forward(input);
        let d1a = self.down1.forward(f0);
        let f1 = self.down1b.forward(d1a);
        let d2a = self.down2.forward(f1);
        let f2 = self.down2b.forward(d2a);
        let u1a = self.up1.forward(f2);
        Tensor::concat_channels_into(&[u1a, f1], &mut self.cat1);
        let u1 = self.up1b.forward(&self.cat1);
        let u2a = self.up2.forward(u1);
        Tensor::concat_channels_into(&[u2a, f0], &mut self.cat2);
        let u2 = self.up2b.forward(&self.cat2);
        self.out_conv.forward(u2)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let c = self.channels;
        let g_u2 = self.out_conv.backward(grad_out);
        let gcat2 = self.up2b.backward(&g_u2);
        let parts = gcat2.split_channels(&[c, c]);
        let (g_u2a, g_f0_skip) = (&parts[0], &parts[1]);
        let g_u1 = self.up2.backward(g_u2a);
        let gcat1 = self.up1b.backward(&g_u1);
        let parts = gcat1.split_channels(&[c, c]);
        let (g_u1a, g_f1_skip) = (&parts[0], &parts[1]);
        let g_f2 = self.up1.backward(g_u1a);
        let g = self.down2b.backward(&g_f2);
        let mut g_f1 = self.down2.backward(&g);
        g_f1.add_assign(g_f1_skip);
        let g = self.down1b.backward(&g_f1);
        let mut g_f0 = self.down1.backward(&g);
        g_f0.add_assign(g_f0_skip);
        self.in_conv.backward(&g_f0)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.in_conv.visit_params(f);
        self.down1.visit_params(f);
        self.down1b.visit_params(f);
        self.down2.visit_params(f);
        self.down2b.visit_params(f);
        self.up1.visit_params(f);
        self.up1b.visit_params(f);
        self.up2.visit_params(f);
        self.up2b.visit_params(f);
        self.out_conv.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_nn::gradcheck::check_layer;

    #[test]
    fn shapes_preserved() {
        let mut net = UNet::new(3, 4, 2, 1);
        let y = net.forward(&Tensor::zeros(&[3, 12, 20]));
        assert_eq!(y.shape(), &[2, 12, 20]);
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_unaligned_input() {
        let mut net = UNet::new(1, 4, 1, 5);
        let _ = net.forward(&Tensor::zeros(&[1, 10, 12]));
    }

    #[test]
    fn gradients_verified_end_to_end() {
        // Full finite-difference check through the whole U-Net, including
        // skip connections and both padding modes.
        // A deep ReLU composition is piecewise linear, so a ±eps probe can
        // cross activation kinks; require that almost all entries agree
        // instead of a tight max error.
        let mut net = UNet::new(2, 2, 1, 1);
        let r = check_layer(&mut net, &[2, 8, 8], 1e-2, 3);
        assert!(r.max_input_error < 0.05, "input errors: {:?}", r.max_input_error);
        assert!(r.param_fraction_above(0.05) < 0.02, "param errors: {:?}", r.max_param_error);
    }

    #[test]
    fn param_count_scales_with_channels() {
        let mut small = UNet::new(1, 4, 1, 5);
        let mut large = UNet::new(1, 8, 1, 0);
        assert!(large.param_count() > 3 * small.param_count());
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        // Teach a tiny U-Net to reproduce a fixed pattern from a constant
        // input: loss should drop by a large factor.
        use pdn_nn::loss;
        use pdn_nn::optim::Adam;
        let mut net = UNet::new(1, 4, 1, 5);
        let x = Tensor::filled(&[1, 8, 8], 0.5);
        let target = Tensor::from_fn3(1, 8, 8, |_, h, w| ((h + w) % 2) as f32 * 0.4);
        let mut adam = Adam::new(3e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let y = net.forward(&x);
            let (l, g) = loss::mse(y, &target);
            first.get_or_insert(l);
            last = l;
            net.zero_grad();
            let _ = net.forward(&x);
            let _ = net.backward(&g);
            adam.begin_step();
            net.visit_params(&mut |p| adam.update_param(p));
        }
        let first = first.unwrap();
        assert!(last < first * 0.2, "loss {first} -> {last}");
    }
}
