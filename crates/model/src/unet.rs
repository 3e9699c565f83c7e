//! The U-Net-like structure used by the distance-reduction and
//! noise-prediction subnets (paper §3.4.1, §3.4.3).
//!
//! Two stride-2 downsampling convolutions (each followed by a stride-1
//! convolution), mirrored by two stride-2 deconvolutions (each followed by a
//! stride-1 convolution), with skip connections between equal-size feature
//! maps. Convolutions use replication padding, deconvolutions zero padding,
//! ReLU everywhere except the single-kernel output layer.

use pdn_nn::activation::Relu;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::deconv::ConvTranspose2d;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::tensor::Tensor;

/// Reusable intermediate buffers for [`UNet::forward_infer`]. The skip
/// activations (`f0`, `f1`) must survive until their concatenation, the
/// rest ping-pong through two scratch tensors.
#[derive(Debug, Default, Clone)]
pub struct UNetBufs {
    f0: Tensor,
    f1: Tensor,
    a: Tensor,
    b: Tensor,
    cat: Tensor,
}

/// A compact two-level U-Net.
///
/// Input spatial sides must be divisible by 4 (use
/// [`crate::pad::pad_to_multiple4`]).
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
    relu0: Relu,
    down1: Conv2d,
    relu_d1a: Relu,
    down1b: Conv2d,
    relu_d1b: Relu,
    down2: Conv2d,
    relu_d2a: Relu,
    down2b: Conv2d,
    relu_d2b: Relu,
    up1: ConvTranspose2d,
    relu_u1a: Relu,
    up1b: Conv2d,
    relu_u1b: Relu,
    up2: ConvTranspose2d,
    relu_u2a: Relu,
    up2b: Conv2d,
    relu_u2b: Relu,
    out_conv: Conv2d,
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
        UNet {
            in_conv: Conv2d::new(in_ch, c, 3, 1, Padding::Replication, seed.wrapping_add(1)),
            relu0: Relu::new(),
            down1: Conv2d::new(c, c, 3, 2, Padding::Replication, seed.wrapping_add(2)),
            relu_d1a: Relu::new(),
            down1b: Conv2d::new(c, c, 3, 1, Padding::Replication, seed.wrapping_add(3)),
            relu_d1b: Relu::new(),
            down2: Conv2d::new(c, c, 3, 2, Padding::Replication, seed.wrapping_add(4)),
            relu_d2a: Relu::new(),
            down2b: Conv2d::new(c, c, 3, 1, Padding::Replication, seed.wrapping_add(5)),
            relu_d2b: Relu::new(),
            up1: ConvTranspose2d::new(c, c, 4, 2, 1, seed.wrapping_add(6)),
            relu_u1a: Relu::new(),
            up1b: Conv2d::new(2 * c, c, 3, 1, Padding::Replication, seed.wrapping_add(7)),
            relu_u1b: Relu::new(),
            up2: ConvTranspose2d::new(c, c, 4, 2, 1, seed.wrapping_add(8)),
            relu_u2a: Relu::new(),
            up2b: Conv2d::new(2 * c, c, 3, 1, Padding::Replication, seed.wrapping_add(9)),
            relu_u2b: Relu::new(),
            out_conv: Conv2d::new(c, out_ch, 1, 1, Padding::Zero, seed.wrapping_add(10)),
            channels: c,
        }
    }

    /// Hidden channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Inference-only forward into a reused output tensor. Uses the fused
    /// conv+ReLU kernels and allocates nothing in steady state; the result
    /// is bitwise identical to [`Layer::forward`].
    pub fn forward_infer(&mut self, input: &Tensor, bufs: &mut UNetBufs, out: &mut Tensor) {
        assert!(
            input.shape()[1].is_multiple_of(4) && input.shape()[2].is_multiple_of(4),
            "UNet input sides must be divisible by 4 (got {:?}); pad first",
            input.shape()
        );
        self.in_conv.forward_infer(input, &mut bufs.f0, true);
        self.down1.forward_infer(&bufs.f0, &mut bufs.a, true);
        self.down1b.forward_infer(&bufs.a, &mut bufs.f1, true);
        self.down2.forward_infer(&bufs.f1, &mut bufs.a, true);
        self.down2b.forward_infer(&bufs.a, &mut bufs.b, true);
        self.up1.forward_infer(&bufs.b, &mut bufs.a, true);
        Tensor::concat_channels_into(&[&bufs.a, &bufs.f1], &mut bufs.cat);
        self.up1b.forward_infer(&bufs.cat, &mut bufs.a, true);
        self.up2.forward_infer(&bufs.a, &mut bufs.b, true);
        Tensor::concat_channels_into(&[&bufs.b, &bufs.f0], &mut bufs.cat);
        self.up2b.forward_infer(&bufs.cat, &mut bufs.a, true);
        self.out_conv.forward_infer(&bufs.a, out, false);
    }
}

impl Layer for UNet {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert!(
            input.shape()[1].is_multiple_of(4) && input.shape()[2].is_multiple_of(4),
            "UNet input sides must be divisible by 4 (got {:?}); pad first",
            input.shape()
        );
        let f0 = self.relu0.forward(&self.in_conv.forward(input));
        let d1a = self.relu_d1a.forward(&self.down1.forward(&f0));
        let f1 = self.relu_d1b.forward(&self.down1b.forward(&d1a));
        let d2a = self.relu_d2a.forward(&self.down2.forward(&f1));
        let f2 = self.relu_d2b.forward(&self.down2b.forward(&d2a));
        let u1a = self.relu_u1a.forward(&self.up1.forward(&f2));
        let u1cat = Tensor::concat_channels(&[&u1a, &f1]);
        let u1 = self.relu_u1b.forward(&self.up1b.forward(&u1cat));
        let u2a = self.relu_u2a.forward(&self.up2.forward(&u1));
        let u2cat = Tensor::concat_channels(&[&u2a, &f0]);
        let u2 = self.relu_u2b.forward(&self.up2b.forward(&u2cat));
        self.out_conv.forward(&u2)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let c = self.channels;
        let g = self.out_conv.backward(grad_out);
        let g = self.relu_u2b.backward(&g);
        let gcat2 = self.up2b.backward(&g);
        let parts = gcat2.split_channels(&[c, c]);
        let (g_u2a, g_f0_skip) = (&parts[0], &parts[1]);
        let g = self.relu_u2a.backward(g_u2a);
        let g_u1 = self.up2.backward(&g);
        let g = self.relu_u1b.backward(&g_u1);
        let gcat1 = self.up1b.backward(&g);
        let parts = gcat1.split_channels(&[c, c]);
        let (g_u1a, g_f1_skip) = (&parts[0], &parts[1]);
        let g = self.relu_u1a.backward(g_u1a);
        let g_f2 = self.up1.backward(&g);
        let g = self.relu_d2b.backward(&g_f2);
        let g = self.down2b.backward(&g);
        let g = self.relu_d2a.backward(&g);
        let mut g_f1 = self.down2.backward(&g);
        g_f1.add_assign(g_f1_skip);
        let g = self.relu_d1b.backward(&g_f1);
        let g = self.down1b.backward(&g);
        let g = self.relu_d1a.backward(&g);
        let mut g_f0 = self.down1.backward(&g);
        g_f0.add_assign(g_f0_skip);
        let g = self.relu0.backward(&g_f0);
        self.in_conv.backward(&g)
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
    fn forward_infer_matches_forward_bitwise() {
        let mut net = UNet::new(3, 4, 2, 9);
        let x = Tensor::from_fn3(3, 12, 8, |c, h, w| ((c * 7 + h * 3 + w) % 11) as f32 * 0.1 - 0.4);
        let want = net.forward(&x);
        let mut bufs = UNetBufs::default();
        let mut out = Tensor::default();
        // Run twice so the second pass exercises fully warmed buffers.
        net.forward_infer(&x, &mut bufs, &mut out);
        net.forward_infer(&x, &mut bufs, &mut out);
        assert_eq!(out, want);
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
            let (l, g) = loss::mse(&y, &target);
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
