//! Transposed 2-D convolution (deconvolution) for upsampling.

use crate::layer::{Layer, Param};
use crate::linalg::{gemm_at_with, gemm_bt_with, gemm_with, GemmScratch};
use crate::tensor::Tensor;

/// Per-layer workspace: the column matrix and gradient buffers are
/// allocated on the first pass and recycled afterwards.
#[derive(Default)]
struct Scratch {
    gemm: GemmScratch,
    cols: Vec<f32>,
    gcols: Vec<f32>,
    gw: Vec<f32>,
}

/// A transposed convolution with zero padding, as used by the paper's
/// upsampling path. Weight layout is `[in, out, k, k]` (PyTorch convention).
///
/// Output size per dimension is `(H − 1)·stride − 2·pad + k`; the U-Nets use
/// `k = 4, stride = 2, pad = 1`, which exactly doubles the input.
///
/// # Example
///
/// ```
/// use pdn_nn::deconv::ConvTranspose2d;
/// use pdn_nn::layer::Layer;
/// use pdn_nn::tensor::Tensor;
///
/// let mut up = ConvTranspose2d::new(8, 4, 4, 2, 1, 3);
/// let y = up.forward(&Tensor::zeros(&[8, 8, 8]));
/// assert_eq!(y.shape(), &[4, 16, 16]);
/// ```
pub struct ConvTranspose2d {
    in_ch: usize,
    out_ch: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    scratch: Scratch,
}

impl Clone for ConvTranspose2d {
    /// Clones configuration and parameters; the forward cache and
    /// workspace are dropped.
    fn clone(&self) -> ConvTranspose2d {
        ConvTranspose2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            ksize: self.ksize,
            stride: self.stride,
            pad: self.pad,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cached_input: None,
            scratch: Scratch::default(),
        }
    }
}

impl std::fmt::Debug for ConvTranspose2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvTranspose2d")
            .field("in_ch", &self.in_ch)
            .field("out_ch", &self.out_ch)
            .field("ksize", &self.ksize)
            .field("stride", &self.stride)
            .field("pad", &self.pad)
            .finish_non_exhaustive()
    }
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with Kaiming-initialized weights and
    /// zero bias.
    ///
    /// # Panics
    ///
    /// Panics if channel, kernel or stride arguments are zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        ksize: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> ConvTranspose2d {
        assert!(
            in_ch > 0 && out_ch > 0 && ksize > 0 && stride > 0,
            "deconv dims must be non-zero"
        );
        // Kaiming with fan_in = in_ch·k² gives sensible magnitudes here too;
        // reuse the conv initializer with the roles of the dims adapted.
        let w = crate::init::kaiming_conv(in_ch, out_ch, ksize, seed);
        ConvTranspose2d {
            in_ch,
            out_ch,
            ksize,
            stride,
            pad,
            weight: Param::new(w),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cached_input: None,
            scratch: Scratch::default(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Direct mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Output spatial size for a given input size.
    pub fn output_size(&self, h: usize) -> usize {
        (h - 1) * self.stride + self.ksize - 2 * self.pad
    }

    /// Input coordinates whose kernel tap `kq` lands inside the output:
    /// `q · stride + kq − pad ∈ [0, dim_out)`. Hoisting the bounds out of
    /// the scatter/gather loops keeps their bodies branch-free.
    fn valid_range(&self, dim_in: usize, dim_out: usize, kq: usize) -> (usize, usize) {
        let s = self.stride;
        let lo = if kq >= self.pad { 0 } else { (self.pad - kq).div_ceil(s) };
        let hi = if dim_out + self.pad <= kq {
            0
        } else {
            ((dim_out - 1 + self.pad - kq) / s + 1).min(dim_in)
        };
        (lo, hi.max(lo))
    }

    /// Computes the column matrix `cols[(co, kh, kw), pixel]` into the
    /// recycled scratch buffer.
    fn cols_gemm(&mut self, rows: usize, pixels: usize, input: &[f32]) {
        let cols = &mut self.scratch.cols;
        cols.resize(rows * pixels, 0.0);
        let w = self.weight.value.as_slice();
        gemm_at_with(rows, self.in_ch, pixels, w, input, cols, &mut self.scratch.gemm);
    }

    /// Scatters the column matrix into the strided output (col2im). The
    /// output must be zeroed; accumulation order matches the training
    /// forward exactly.
    fn col2im_scatter(&self, h: usize, w: usize, ho: usize, wo: usize, o: &mut [f32]) {
        let k = self.ksize;
        let pixels = h * w;
        let cols = &self.scratch.cols;
        for co in 0..self.out_ch {
            for kh in 0..k {
                let (h_lo, h_hi) = self.valid_range(h, ho, kh);
                for kw in 0..k {
                    let (w_lo, w_hi) = self.valid_range(w, wo, kw);
                    let src = &cols[((co * k + kh) * k + kw) * pixels..][..pixels];
                    for hh in h_lo..h_hi {
                        let oh = hh * self.stride + kh - self.pad;
                        let row_base = (co * ho + oh) * wo;
                        for ww in w_lo..w_hi {
                            o[row_base + ww * self.stride + kw - self.pad] += src[hh * w + ww];
                        }
                    }
                }
            }
        }
    }

    /// Allocation-free inference forward with optionally fused ReLU.
    ///
    /// Writes into `out` (resized in place). With `relu = false` the
    /// result is bitwise identical to [`Layer::forward`]; with `relu =
    /// true` the activation is folded into the bias pass that already
    /// follows the col2im scatter. Does not populate the backward cache.
    pub fn forward_infer(&mut self, input: &Tensor, out: &mut Tensor, relu: bool) {
        assert_eq!(input.shape().len(), 3, "deconv expects (C, H, W) input");
        assert_eq!(input.shape()[0], self.in_ch, "deconv input channel mismatch");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (ho, wo) = (self.output_size(h), self.output_size(w));
        let rows = self.out_ch * self.ksize * self.ksize;
        self.cols_gemm(rows, h * w, input.as_slice());
        out.resize_in_place(&[self.out_ch, ho, wo]);
        let o = out.as_mut_slice();
        self.col2im_scatter(h, w, ho, wo, o);
        for co in 0..self.out_ch {
            let b = self.bias.value.as_slice()[co];
            let chunk = &mut o[co * ho * wo..(co + 1) * ho * wo];
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
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "deconv expects (C, H, W) input");
        assert_eq!(input.shape()[0], self.in_ch, "deconv input channel mismatch");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (ho, wo) = (self.output_size(h), self.output_size(w));
        let k = self.ksize;
        // cols[(co, kh, kw), (hh, ww)] = Σ_ci w[ci, co, kh, kw] · x[ci, hh, ww]:
        // the weight tensor is stored [in, out·k²] row-major, so this is one
        // Aᵀ·B product over the input channels.
        let rows = self.out_ch * k * k;
        self.cols_gemm(rows, h * w, input.as_slice());

        // col2im: scatter each (co, kh, kw) row into the strided output.
        let mut out = Tensor::zeros(&[self.out_ch, ho, wo]);
        {
            let o = out.as_mut_slice();
            self.col2im_scatter(h, w, ho, wo, o);
            for co in 0..self.out_ch {
                let b = self.bias.value.as_slice()[co];
                for v in &mut o[co * ho * wo..(co + 1) * ho * wo] {
                    *v += b;
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (ho, wo) = (self.output_size(h), self.output_size(w));
        assert_eq!(grad_out.shape(), &[self.out_ch, ho, wo], "grad_out shape mismatch");
        let k = self.ksize;
        let go = grad_out.as_slice();

        for (co, gb) in self.bias.grad.as_mut_slice().iter_mut().enumerate() {
            *gb += go[co * ho * wo..(co + 1) * ho * wo].iter().sum::<f32>();
        }

        // Adjoint of the forward col2im: gather the strided output gradient
        // back into column form.
        let rows = self.out_ch * k * k;
        let pixels = h * w;
        let h_ranges: Vec<(usize, usize)> = (0..k).map(|kq| self.valid_range(h, ho, kq)).collect();
        let w_ranges: Vec<(usize, usize)> = (0..k).map(|kq| self.valid_range(w, wo, kq)).collect();
        let Scratch { gemm, gcols, gw, .. } = &mut self.scratch;
        gcols.resize(rows * pixels, 0.0);
        gcols.fill(0.0);
        for co in 0..self.out_ch {
            for kh in 0..k {
                let (h_lo, h_hi) = h_ranges[kh];
                for kw in 0..k {
                    let (w_lo, w_hi) = w_ranges[kw];
                    let dst = &mut gcols[((co * k + kh) * k + kw) * pixels..][..pixels];
                    for hh in h_lo..h_hi {
                        let oh = hh * self.stride + kh - self.pad;
                        let row_base = (co * ho + oh) * wo;
                        for ww in w_lo..w_hi {
                            dst[hh * w + ww] = go[row_base + ww * self.stride + kw - self.pad];
                        }
                    }
                }
            }
        }

        // gin[ci, pixel] = Σ_row w[ci, row] · gcols[row, pixel].
        let mut gin = Tensor::zeros(&[self.in_ch, h, w]);
        gemm_with(
            self.in_ch,
            rows,
            pixels,
            self.weight.value.as_slice(),
            gcols,
            gin.as_mut_slice(),
            gemm,
        );
        // gw[ci, row] += Σ_pixel x[ci, pixel] · gcols[row, pixel].
        gw.resize(self.in_ch * rows, 0.0);
        gemm_bt_with(self.in_ch, pixels, rows, input.as_slice(), gcols, gw, gemm);
        for (acc, g) in self.weight.grad.as_mut_slice().iter_mut().zip(&*gw) {
            *acc += g;
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
    fn doubles_spatial_size() {
        let mut d = ConvTranspose2d::new(2, 3, 4, 2, 1, 0);
        assert_eq!(d.forward(&Tensor::zeros(&[2, 5, 7])).shape(), &[3, 10, 14]);
    }

    #[test]
    fn single_pixel_spreads_kernel() {
        // One input pixel at (0,0) with unit weight kernel: the output is
        // the kernel itself, shifted by -pad.
        let mut d = ConvTranspose2d::new(1, 1, 4, 2, 1, 0);
        d.weight.value = Tensor::from_vec(
            &[1, 1, 4, 4],
            (0..16).map(|i| i as f32).collect(),
        );
        let mut x = Tensor::zeros(&[1, 2, 2]);
        x.set3(0, 0, 0, 1.0);
        let y = d.forward(&x);
        assert_eq!(y.shape(), &[1, 4, 4]);
        // Output (oh, ow) receives w[kh, kw] where kh = oh + pad, kw = ow + pad.
        assert_eq!(y.at3(0, 0, 0), 5.0); // w[1,1]
        assert_eq!(y.at3(0, 0, 1), 6.0); // w[1,2]
        assert_eq!(y.at3(0, 1, 0), 9.0); // w[2,1]
        assert_eq!(y.at3(0, 2, 2), 15.0); // w[3,3]
    }

    #[test]
    fn adjoint_of_conv() {
        // A transposed convolution is the adjoint of a convolution with the
        // same kernel: ⟨conv(x), y⟩ == ⟨x, deconv(y)⟩ when geometries match.
        use crate::conv::{Conv2d, Padding};
        let k = 4;
        let mut conv = Conv2d::new(1, 1, k, 2, Padding::Zero, 5);
        // Note: Conv2d pads k/2 = 2, deconv uses pad 1; adjoint-match needs
        // identical geometry, so compare via explicit sums instead on a case
        // where both are defined: use deconv backward (which must equal the
        // forward conv-style gather) checked by gradcheck elsewhere. Here we
        // simply verify linearity.
        let mut d = ConvTranspose2d::new(1, 1, k, 2, 1, 5);
        let x1 = Tensor::from_fn3(1, 3, 3, |_, h, w| (h + w) as f32);
        let x2 = Tensor::from_fn3(1, 3, 3, |_, h, w| (h * w) as f32);
        let y1 = d.forward(&x1);
        let y2 = d.forward(&x2);
        let mut x12 = x1.clone();
        x12.add_assign(&x2);
        let y12 = d.forward(&x12);
        let mut sum = y1.clone();
        sum.add_assign(&y2);
        for (a, b) in y12.as_slice().iter().zip(sum.as_slice()) {
            assert!((a - b).abs() < 1e-4, "deconv not linear: {a} vs {b}");
        }
        let _ = conv.forward(&Tensor::zeros(&[1, 8, 8])); // silence unused
    }

    #[test]
    fn bias_applied() {
        let mut d = ConvTranspose2d::new(1, 2, 4, 2, 1, 0);
        d.weight.value.zero();
        d.bias.value = Tensor::from_vec(&[2], vec![0.5, -1.0]);
        let y = d.forward(&Tensor::zeros(&[1, 2, 2]));
        assert!(y.channel(0).iter().all(|v| *v == 0.5));
        assert!(y.channel(1).iter().all(|v| *v == -1.0));
    }

    #[test]
    fn forward_infer_matches_forward_bitwise() {
        let mut d = ConvTranspose2d::new(3, 2, 4, 2, 1, 7);
        let x = Tensor::from_fn3(3, 5, 6, |c, h, w| ((c * 17 + h * 5 + w) % 13) as f32 * 0.1 - 0.5);
        let want = d.forward(&x);
        let mut got = Tensor::default();
        d.forward_infer(&x, &mut got, false);
        assert_eq!(got, want);
        // Fused ReLU equals forward followed by a separate Relu layer.
        let mut relu = crate::activation::Relu::new();
        let want_relu = relu.forward(&want);
        d.forward_infer(&x, &mut got, true);
        assert_eq!(got, want_relu);
    }
}
