//! 2-D convolution with zero or replication padding.

use crate::activation::Activation;
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

/// Sizes of the last forward pass, which `backward` needs.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    in_hw: [usize; 2],
    padded: [usize; 2],
    out_hw: [usize; 2],
}

/// Per-layer workspace: the padded input, its im2col matrix (which
/// `backward` reads), the backward buffers and the GEMM packing panels are
/// allocated on the first pass and recycled afterwards.
#[derive(Default)]
struct Scratch {
    gemm: GemmScratch,
    pad: Vec<f32>,
    cols: Vec<f32>,
    gout: Vec<f32>,
    gw: Vec<f32>,
    gcols: Vec<f32>,
    gpad: Vec<f32>,
}

/// Pads into a recycled buffer; every element is written, so stale
/// contents from a previous call are harmless.
fn pad_into(padding: Padding, p: usize, x: &Tensor, out: &mut Vec<f32>) -> (usize, usize) {
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    out.resize(c * hp * wp, 0.0);
    for ci in 0..c {
        let src = x.channel(ci);
        for hh in 0..hp {
            for ww in 0..wp {
                let v = match padding {
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
/// "same"-style padding of `k/2` on each side, and an [`Activation`]
/// applied in the bias epilogue.
///
/// Output size per dimension is `(H + 2·(k/2) − k)/stride + 1`; for odd `k`
/// that is `H` at stride 1 and `⌈H/2⌉` at stride 2.
///
/// # Example
///
/// ```
/// use pdn_nn::activation::Activation;
/// use pdn_nn::conv::{Conv2d, Padding};
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut down = Conv2d::new(3, 8, 3, 2, Padding::Replication, Activation::Relu, 1);
/// let y = down.forward(&Tensor::zeros(&[3, 16, 16]));
/// assert_eq!(y.shape(), &[8, 8, 8]);
/// ```
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    ksize: usize,
    stride: usize,
    padding: Padding,
    act: Activation,
    weight: Param,
    bias: Param,
    /// The last forward's output, reused by the next one; `backward` reads
    /// the activation's derivative off it.
    out: Tensor,
    geometry: Option<Geometry>,
    scratch: Scratch,
}

impl Clone for Conv2d {
    /// Clones the configuration and parameters; the output, forward state
    /// and workspace are not carried over (the clone behaves as if
    /// `forward` was never called).
    fn clone(&self) -> Conv2d {
        Conv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            ksize: self.ksize,
            stride: self.stride,
            padding: self.padding,
            act: self.act,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            out: Tensor::default(),
            geometry: None,
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
            .field("act", &self.act)
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
        act: Activation,
        seed: u64,
    ) -> Conv2d {
        assert!(in_ch > 0 && out_ch > 0 && ksize > 0 && stride > 0, "conv dims must be non-zero");
        Conv2d {
            in_ch,
            out_ch,
            ksize,
            stride,
            padding,
            act,
            weight: Param::new(init::kaiming_conv(out_ch, in_ch, ksize, seed)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            out: Tensor::default(),
            geometry: None,
            scratch: Scratch::default(),
        }
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
}

impl Layer for Conv2d {
    /// Pads, im2cols and packs into per-layer buffers, multiplies, and adds
    /// the bias and activation in one epilogue sweep; repeated calls with
    /// stable shapes never allocate.
    fn forward(&mut self, input: &Tensor) -> &Tensor {
        assert_eq!(input.shape().len(), 3, "conv expects (C, H, W) input");
        assert_eq!(input.shape()[0], self.in_ch, "conv input channel mismatch");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let Scratch { gemm, pad, cols, .. } = &mut self.scratch;
        let (hp, wp) = pad_into(self.padding, self.ksize / 2, input, pad);
        let k = self.ksize;
        let s = self.stride;
        assert!(hp >= k && wp >= k, "input too small for kernel");
        let ho = (hp - k) / s + 1;
        let wo = (wp - k) / s + 1;
        let rows = self.in_ch * k * k;
        let cols_n = ho * wo;
        im2col(self.in_ch, k, s, (hp, wp), (ho, wo), pad, cols);
        self.out.resize_in_place(&[self.out_ch, ho, wo]);
        let o = self.out.as_mut_slice();
        gemm_with(self.out_ch, rows, cols_n, self.weight.value.as_slice(), cols, o, gemm);
        for (chunk, &b) in o.chunks_exact_mut(cols_n).zip(self.bias.value.as_slice()) {
            self.act.bias_epilogue(chunk, b);
        }
        self.geometry = Some(Geometry { in_hw: [h, w], padded: [hp, wp], out_hw: [ho, wo] });
        &self.out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Geometry { in_hw: [h, w], padded: [hp, wp], out_hw: [ho, wo] } =
            self.geometry.expect("backward before forward");
        assert_eq!(grad_out.shape(), &[self.out_ch, ho, wo], "grad_out shape mismatch");
        let k = self.ksize;
        let s = self.stride;
        let p = self.pad();
        let rows = self.in_ch * k * k;
        let cols_n = ho * wo;
        let Scratch { gemm, cols, gout, gw, gcols, gpad, .. } = &mut self.scratch;
        let go = self.act.backward(self.out.as_slice(), grad_out.as_slice(), gout);

        // Bias gradient.
        for (o, gb) in self.bias.grad.as_mut_slice().iter_mut().enumerate() {
            *gb += go[o * cols_n..(o + 1) * cols_n].iter().sum::<f32>();
        }
        // Weight gradient: grad_out [O, HoWo] · colsᵀ [HoWo, rows].
        gw.resize(self.out_ch * rows, 0.0);
        gemm_bt_with(self.out_ch, cols_n, rows, go, cols, gw, gemm);
        for (acc, g) in self.weight.grad.as_mut_slice().iter_mut().zip(&*gw) {
            *acc += g;
        }
        // Column gradient: weightᵀ [rows, O] · grad_out [O, HoWo].
        gcols.resize(rows * cols_n, 0.0);
        gemm_at_with(rows, self.out_ch, cols_n, self.weight.value.as_slice(), go, gcols, gemm);

        // col2im into the padded gradient, then fold padding back.
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

    fn conv(in_ch: usize, out_ch: usize, k: usize, s: usize, pad: Padding, seed: u64) -> Conv2d {
        Conv2d::new(in_ch, out_ch, k, s, pad, Activation::Identity, seed)
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1: output == input (any padding).
        let mut conv = conv(1, 1, 1, 1, Padding::Zero, 0);
        conv.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let x = Tensor::from_fn3(1, 3, 3, |_, h, w| (h * 3 + w) as f32);
        assert_eq!(conv.forward(&x), &x);
    }

    #[test]
    fn known_answer_3x3_sum_kernel() {
        // All-ones 3x3 kernel, zero padding: center pixel = sum of the 3x3
        // neighborhood.
        let mut conv = conv(1, 1, 3, 1, Padding::Zero, 0);
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
        let mut conv = conv(1, 1, 3, 1, Padding::Replication, 0);
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
        let mut conv = conv(2, 3, 3, 2, Padding::Zero, 1);
        assert_eq!(conv.forward(&Tensor::zeros(&[2, 8, 8])).shape(), &[3, 4, 4]);
        // The reused output buffer follows a change of input shape.
        assert_eq!(conv.forward(&Tensor::zeros(&[2, 9, 7])).shape(), &[3, 5, 4]);
    }

    #[test]
    fn bias_adds_per_channel() {
        let mut conv = conv(1, 2, 1, 1, Padding::Zero, 0);
        conv.weight.value = Tensor::from_vec(&[2, 1, 1, 1], vec![0.0, 0.0]);
        conv.bias.value = Tensor::from_vec(&[2], vec![1.5, -0.5]);
        let y = conv.forward(&Tensor::zeros(&[1, 2, 2]));
        assert_eq!(y.channel(0), &[1.5; 4]);
        assert_eq!(y.channel(1), &[-0.5; 4]);
    }

    #[test]
    fn relu_epilogue_clamps_and_masks() {
        // A 1x1 identity kernel exposes the epilogue: −0.0, NaN and the
        // negatives come out as +0.0, and backward zeroes their gradient.
        let mut relu = Conv2d::new(1, 1, 1, 1, Padding::Zero, Activation::Relu, 0);
        relu.weight.value = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        let x = Tensor::from_vec(&[1, 1, 5], vec![-2.0, -0.0, 0.5, 3.0, f32::NAN]);
        let y = relu.forward(&x).as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = [0.0f32, 0.0, 0.5, 3.0, 0.0].map(f32::to_bits);
        assert_eq!(y, want);
        let g = relu.backward(&Tensor::filled(&[1, 1, 5], 1.0));
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0, 0.0]);
        assert_eq!(relu.bias.grad.as_slice(), &[2.0]);
    }

    #[test]
    fn param_count() {
        let mut conv = conv(4, 8, 3, 1, Padding::Zero, 0);
        assert_eq!(conv.param_count(), 8 * 4 * 9 + 8);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut conv = conv(1, 1, 3, 1, Padding::Zero, 0);
        let _ = conv.backward(&Tensor::zeros(&[1, 3, 3]));
    }

    // Full gradient correctness is covered by the gradcheck module's tests.
}
