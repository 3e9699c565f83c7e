//! 2-D convolution with zero or replication padding.

use crate::init;
use crate::layer::{Layer, Param};
use crate::linalg::{gemm_at_with, gemm_bt_with, gemm_with, GemmScratch};
use crate::tensor::Tensor;

/// How the input border is padded before convolving.
///
/// The paper uses replication padding for convolutional layers and zero
/// padding for deconvolutional layers (§3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// Pad with zeros.
    Zero,
    /// Pad by replicating the nearest edge value.
    Replication,
}

struct Cache {
    cols: Vec<f32>,
    in_shape: [usize; 3],
    padded: [usize; 2],
    out_hw: [usize; 2],
}

/// Per-layer workspace: im2col/backward buffers and GEMM packing panels
/// are allocated on the first pass and recycled afterwards.
#[derive(Default)]
struct Scratch {
    gemm: GemmScratch,
    gw: Vec<f32>,
    gcols: Vec<f32>,
    gpad: Vec<f32>,
    /// Padded-input and im2col buffers for the allocation-free
    /// [`Conv2d::forward_infer`] path (the training path keeps its own
    /// buffers in the cache).
    pad: Vec<f32>,
    cols: Vec<f32>,
}

/// im2col: rows are `(c, kh, kw)`, columns are output pixels. Every element
/// of the (recycled) `cols` buffer is overwritten.
#[allow(clippy::too_many_arguments)]
fn im2col(
    in_ch: usize,
    k: usize,
    s: usize,
    (hp, wp): (usize, usize),
    (ho, wo): (usize, usize),
    padded: &[f32],
    cols: &mut Vec<f32>,
) {
    let cols_n = ho * wo;
    cols.resize(in_ch * k * k * cols_n, 0.0);
    for ci in 0..in_ch {
        for kh in 0..k {
            for kw in 0..k {
                let row = (ci * k + kh) * k + kw;
                let dst = &mut cols[row * cols_n..(row + 1) * cols_n];
                for oh in 0..ho {
                    let ih = oh * s + kh;
                    let src_base = (ci * hp + ih) * wp + kw;
                    if s == 1 {
                        dst[oh * wo..(oh + 1) * wo]
                            .copy_from_slice(&padded[src_base..src_base + wo]);
                    } else {
                        for ow in 0..wo {
                            dst[oh * wo + ow] = padded[src_base + ow * s];
                        }
                    }
                }
            }
        }
    }
}

/// A 2-D convolution layer: weight `[out, in, k, k]`, bias `[out]`,
/// "same"-style padding of `k/2` on each side.
///
/// Output size per dimension is `(H + 2·(k/2) − k)/stride + 1`; for odd `k`
/// that is `H` at stride 1 and `⌈H/2⌉` at stride 2.
///
/// # Example
///
/// ```
/// use pdn_nn::conv::{Conv2d, Padding};
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut down = Conv2d::new(3, 8, 3, 2, Padding::Replication, 1);
/// let y = down.forward(&Tensor::zeros(&[3, 16, 16]));
/// assert_eq!(y.shape(), &[8, 8, 8]);
/// ```
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    ksize: usize,
    stride: usize,
    padding: Padding,
    weight: Param,
    bias: Param,
    cache: Option<Cache>,
    scratch: Scratch,
}

impl Clone for Conv2d {
    /// Clones the configuration and parameters; the forward cache and
    /// workspace are not carried over (the clone behaves as if `forward`
    /// was never called).
    fn clone(&self) -> Conv2d {
        Conv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            ksize: self.ksize,
            stride: self.stride,
            padding: self.padding,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cache: None,
            scratch: Scratch::default(),
        }
    }
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Conv2d")
            .field("in_ch", &self.in_ch)
            .field("out_ch", &self.out_ch)
            .field("ksize", &self.ksize)
            .field("stride", &self.stride)
            .field("padding", &self.padding)
            .finish_non_exhaustive()
    }
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any dimension argument is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        padding: Padding,
        seed: u64,
    ) -> Conv2d {
        assert!(in_ch > 0 && out_ch > 0 && ksize > 0 && stride > 0, "conv dims must be non-zero");
        Conv2d {
            in_ch,
            out_ch,
            ksize,
            stride,
            padding,
            weight: Param::new(init::kaiming_conv(out_ch, in_ch, ksize, seed)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cache: None,
            scratch: Scratch::default(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Number of output channels (kernels).
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Direct mutable access to the weight parameter (tests, serialization).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Direct mutable access to the bias parameter.
    pub fn bias_mut(&mut self) -> &mut Param {
        &mut self.bias
    }

    fn pad(&self) -> usize {
        self.ksize / 2
    }

    fn pad_input(&self, x: &Tensor) -> (Vec<f32>, usize, usize) {
        let mut out = Vec::new();
        let (hp, wp) = self.pad_input_into(x, &mut out);
        (out, hp, wp)
    }

    /// Pads into a recycled buffer; every element is written, so stale
    /// contents from a previous call are harmless.
    fn pad_input_into(&self, x: &Tensor, out: &mut Vec<f32>) -> (usize, usize) {
        let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let p = self.pad();
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        out.resize(c * hp * wp, 0.0);
        for ci in 0..c {
            let src = x.channel(ci);
            for hh in 0..hp {
                for ww in 0..wp {
                    let v = match self.padding {
                        Padding::Zero => {
                            if hh < p || ww < p || hh >= h + p || ww >= w + p {
                                0.0
                            } else {
                                src[(hh - p) * w + (ww - p)]
                            }
                        }
                        Padding::Replication => {
                            let sh = hh.saturating_sub(p).min(h - 1);
                            let sw = ww.saturating_sub(p).min(w - 1);
                            src[sh * w + sw]
                        }
                    };
                    out[(ci * hp + hh) * wp + ww] = v;
                }
            }
        }
        (hp, wp)
    }

    /// Allocation-free inference forward with optionally fused ReLU.
    ///
    /// Writes into `out` (resized in place); pads, im2cols and packs into
    /// per-layer scratch buffers, so repeated calls with stable shapes never
    /// allocate. With `relu = false` the result is bitwise identical to
    /// [`Layer::forward`]; with `relu = true` it equals `forward` followed
    /// by [`crate::activation::Relu`], with the activation folded into the
    /// bias pass (one less sweep over the output).
    ///
    /// Does not populate the backward cache — calling `backward` after this
    /// (without an interleaved `forward`) panics.
    pub fn forward_infer(&mut self, input: &Tensor, out: &mut Tensor, relu: bool) {
        assert_eq!(input.shape().len(), 3, "conv expects (C, H, W) input");
        assert_eq!(input.shape()[0], self.in_ch, "conv input channel mismatch");
        let mut pad_buf = std::mem::take(&mut self.scratch.pad);
        let mut cols = std::mem::take(&mut self.scratch.cols);
        let (hp, wp) = self.pad_input_into(input, &mut pad_buf);
        let k = self.ksize;
        let s = self.stride;
        assert!(hp >= k && wp >= k, "input too small for kernel");
        let ho = (hp - k) / s + 1;
        let wo = (wp - k) / s + 1;
        let rows = self.in_ch * k * k;
        let cols_n = ho * wo;
        im2col(self.in_ch, k, s, (hp, wp), (ho, wo), &pad_buf, &mut cols);
        out.resize_in_place(&[self.out_ch, ho, wo]);
        let weight = self.weight.value.as_slice();
        let o = out.as_mut_slice();
        gemm_with(self.out_ch, rows, cols_n, weight, &cols, o, &mut self.scratch.gemm);
        bias_relu(out.as_mut_slice(), self.bias.value.as_slice(), cols_n, relu);
        self.scratch.pad = pad_buf;
        self.scratch.cols = cols;
    }
}

/// Adds the per-channel bias and (optionally) applies ReLU in the same
/// sweep. The ReLU predicate matches [`crate::activation::Relu`] exactly
/// (`v > 0.0` keeps, else 0), so fusion is bitwise-neutral.
fn bias_relu(out: &mut [f32], bias: &[f32], cols_n: usize, relu: bool) {
    // Two specialized loops rather than a per-element flag check: both
    // bodies are branch-free selects the compiler vectorizes.
    for (o, b) in bias.iter().enumerate() {
        let chunk = &mut out[o * cols_n..(o + 1) * cols_n];
        if relu {
            for v in &mut *chunk {
                let t = *v + b;
                *v = if t > 0.0 { t } else { 0.0 };
            }
        } else {
            for v in chunk {
                *v += b;
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "conv expects (C, H, W) input");
        assert_eq!(input.shape()[0], self.in_ch, "conv input channel mismatch");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (padded, hp, wp) = self.pad_input(input);
        let k = self.ksize;
        let s = self.stride;
        assert!(hp >= k && wp >= k, "input too small for kernel");
        let ho = (hp - k) / s + 1;
        let wo = (wp - k) / s + 1;

        // The im2col buffer is recycled from the previous forward pass;
        // every element is overwritten.
        let rows = self.in_ch * k * k;
        let cols_n = ho * wo;
        let mut cols = self.cache.take().map(|c| c.cols).unwrap_or_default();
        im2col(self.in_ch, k, s, (hp, wp), (ho, wo), &padded, &mut cols);

        let mut out = vec![0.0f32; self.out_ch * cols_n];
        let weight = self.weight.value.as_slice();
        gemm_with(self.out_ch, rows, cols_n, weight, &cols, &mut out, &mut self.scratch.gemm);
        bias_relu(&mut out, self.bias.value.as_slice(), cols_n, false);
        self.cache = Some(Cache {
            cols,
            in_shape: [self.in_ch, h, w],
            padded: [hp, wp],
            out_hw: [ho, wo],
        });
        Tensor::from_vec(&[self.out_ch, ho, wo], out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let [ho, wo] = cache.out_hw;
        assert_eq!(grad_out.shape(), &[self.out_ch, ho, wo], "grad_out shape mismatch");
        let k = self.ksize;
        let s = self.stride;
        let p = self.pad();
        let rows = self.in_ch * k * k;
        let cols_n = ho * wo;
        let go = grad_out.as_slice();

        // Bias gradient.
        for (o, gb) in self.bias.grad.as_mut_slice().iter_mut().enumerate() {
            *gb += go[o * cols_n..(o + 1) * cols_n].iter().sum::<f32>();
        }
        let Scratch { gemm, gw, gcols, gpad, .. } = &mut self.scratch;
        // Weight gradient: grad_out [O, HoWo] · colsᵀ [HoWo, rows].
        gw.resize(self.out_ch * rows, 0.0);
        gemm_bt_with(self.out_ch, cols_n, rows, go, &cache.cols, gw, gemm);
        for (acc, g) in self.weight.grad.as_mut_slice().iter_mut().zip(&*gw) {
            *acc += g;
        }
        // Column gradient: weightᵀ [rows, O] · grad_out [O, HoWo].
        gcols.resize(rows * cols_n, 0.0);
        gemm_at_with(rows, self.out_ch, cols_n, self.weight.value.as_slice(), go, gcols, gemm);

        // col2im into the padded gradient, then fold padding back.
        let [_, h, w] = cache.in_shape;
        let [hp, wp] = cache.padded;
        gpad.resize(self.in_ch * hp * wp, 0.0);
        gpad.fill(0.0);
        for ci in 0..self.in_ch {
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ci * k + kh) * k + kw;
                    let src = &gcols[row * cols_n..(row + 1) * cols_n];
                    for oh in 0..ho {
                        let ih = oh * s + kh;
                        let dst_base = (ci * hp + ih) * wp + kw;
                        for ow in 0..wo {
                            gpad[dst_base + ow * s] += src[oh * wo + ow];
                        }
                    }
                }
            }
        }
        let mut gin = Tensor::zeros(&[self.in_ch, h, w]);
        {
            let g = gin.as_mut_slice();
            for ci in 0..self.in_ch {
                for hh in 0..hp {
                    for ww in 0..wp {
                        let v = gpad[(ci * hp + hh) * wp + ww];
                        if v == 0.0 {
                            continue;
                        }
                        match self.padding {
                            Padding::Zero => {
                                if hh >= p && ww >= p && hh < h + p && ww < w + p {
                                    g[(ci * h + (hh - p)) * w + (ww - p)] += v;
                                }
                            }
                            Padding::Replication => {
                                // The replicated border cells read from the
                                // clamped source cell, so their gradients
                                // accumulate there.
                                let sh = hh.saturating_sub(p).min(h - 1);
                                let sw = ww.saturating_sub(p).min(w - 1);
                                g[(ci * h + sh) * w + sw] += v;
                            }
                        }
                    }
                }
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

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1: output == input (any padding).
        let mut conv = Conv2d::new(1, 1, 1, 1, Padding::Zero, 0);
        conv.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let x = Tensor::from_fn3(1, 3, 3, |_, h, w| (h * 3 + w) as f32);
        let y = conv.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn known_answer_3x3_sum_kernel() {
        // All-ones 3x3 kernel, zero padding: center pixel = sum of the 3x3
        // neighborhood.
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Zero, 0);
        conv.weight.value = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let x = Tensor::from_fn3(1, 3, 3, |_, _, _| 1.0);
        let y = conv.forward(&x);
        // Corners see 4 ones, edges 6, center 9.
        assert_eq!(y.at3(0, 0, 0), 4.0);
        assert_eq!(y.at3(0, 0, 1), 6.0);
        assert_eq!(y.at3(0, 1, 1), 9.0);
    }

    #[test]
    fn replication_padding_extends_edges() {
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Replication, 0);
        conv.weight.value = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let x = Tensor::filled(&[1, 3, 3], 1.0);
        let y = conv.forward(&x);
        // With replication, every 3x3 window sums 9 ones.
        for h in 0..3 {
            for w in 0..3 {
                assert_eq!(y.at3(0, h, w), 9.0);
            }
        }
    }

    #[test]
    fn stride_two_halves_odd_and_even() {
        let mut conv = Conv2d::new(2, 3, 3, 2, Padding::Zero, 1);
        assert_eq!(conv.forward(&Tensor::zeros(&[2, 8, 8])).shape(), &[3, 4, 4]);
        let mut conv = Conv2d::new(2, 3, 3, 2, Padding::Zero, 1);
        assert_eq!(conv.forward(&Tensor::zeros(&[2, 9, 7])).shape(), &[3, 5, 4]);
    }

    #[test]
    fn bias_adds_per_channel() {
        let mut conv = Conv2d::new(1, 2, 1, 1, Padding::Zero, 0);
        conv.weight.value = Tensor::from_vec(&[2, 1, 1, 1], vec![0.0, 0.0]);
        conv.bias.value = Tensor::from_vec(&[2], vec![1.5, -0.5]);
        let y = conv.forward(&Tensor::zeros(&[1, 2, 2]));
        assert_eq!(y.channel(0), &[1.5; 4]);
        assert_eq!(y.channel(1), &[-0.5; 4]);
    }

    #[test]
    fn param_count() {
        let mut conv = Conv2d::new(4, 8, 3, 1, Padding::Zero, 0);
        assert_eq!(conv.param_count(), 8 * 4 * 9 + 8);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Zero, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 3, 3]));
    }

    #[test]
    fn forward_infer_matches_forward_bitwise() {
        let mut conv = Conv2d::new(3, 5, 3, 1, Padding::Replication, 9);
        let x =
            Tensor::from_fn3(3, 11, 13, |c, h, w| ((c * 31 + h * 7 + w) % 17) as f32 * 0.1 - 0.6);
        let want = conv.forward(&x);
        let mut got = Tensor::default();
        conv.forward_infer(&x, &mut got, false);
        assert_eq!(got, want);
        // Fused ReLU equals forward followed by a separate Relu layer.
        let mut relu = crate::activation::Relu::new();
        let want_relu = relu.forward(&want);
        conv.forward_infer(&x, &mut got, true);
        assert_eq!(got, want_relu);
        // Stride 2 as well (the UNet down path).
        let mut down = Conv2d::new(2, 3, 3, 2, Padding::Replication, 4);
        let x2 = Tensor::from_fn3(2, 9, 8, |c, h, w| ((c + h * 3 + w * 5) % 11) as f32 * 0.2 - 1.0);
        let want2 = down.forward(&x2);
        let mut got2 = Tensor::default();
        down.forward_infer(&x2, &mut got2, false);
        assert_eq!(got2, want2);
    }

    // Full gradient correctness is covered by the gradcheck module's tests.
}
