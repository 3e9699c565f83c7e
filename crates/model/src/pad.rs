//! Spatial padding to U-Net-friendly sizes.
//!
//! The U-Nets downsample twice, so maps must have sides divisible by 4 for
//! the skip connections and deconvolutions to line up exactly. The paper's
//! tile grids (50×50, 130×130, 70×50, 180×180) are not all multiples of 4,
//! so the model zero-pads inputs up and crops outputs back — a standard
//! trick that changes nothing semantically.

use pdn_nn::tensor::Tensor;

/// Rounds `n` up to the next multiple of 4.
pub fn round_up4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Zero-pads a `(C, H, W)` tensor at the bottom/right so both spatial sides
/// are multiples of 4, into a reused output tensor: `out` is resized (and
/// zeroed) in place, so steady-state calls allocate nothing.
///
/// # Example
///
/// ```
/// use pdn_model::pad::{crop_to, pad_to_multiple4_into};
/// use pdn_nn::tensor::Tensor;
///
/// let x = Tensor::filled(&[2, 5, 10], 1.0);
/// let mut p = Tensor::default();
/// pad_to_multiple4_into(&x, &mut p);
/// assert_eq!(p.shape(), &[2, 8, 12]);
/// let back = crop_to(&p, 5, 10);
/// assert_eq!(back, x);
/// ```
pub fn pad_to_multiple4_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.shape().len(), 3, "pad expects (C, H, W)");
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (hp, wp) = (round_up4(h), round_up4(w));
    out.resize_in_place(&[c, hp, wp]);
    for ci in 0..c {
        for hh in 0..h {
            for ww in 0..w {
                out.set3(ci, hh, ww, x.at3(ci, hh, ww));
            }
        }
    }
}

/// Crops a `(C, H, W)` tensor to the top-left `h × w` region — the inverse
/// of [`pad_to_multiple4_into`], also used as its gradient.
///
/// # Panics
///
/// Panics if the requested region exceeds the tensor.
pub fn crop_to(x: &Tensor, h: usize, w: usize) -> Tensor {
    assert_eq!(x.shape().len(), 3, "crop expects (C, H, W)");
    let (c, hp, wp) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert!(h <= hp && w <= wp, "crop region exceeds tensor");
    if h == hp && w == wp {
        return x.clone();
    }
    let mut out = Tensor::zeros(&[c, h, w]);
    for ci in 0..c {
        for hh in 0..h {
            for ww in 0..w {
                out.set3(ci, hh, ww, x.at3(ci, hh, ww));
            }
        }
    }
    out
}

/// The adjoint of [`crop_to`]: embeds a gradient back into the padded shape
/// (zeros outside the cropped region).
pub fn uncrop_grad(g: &Tensor, hp: usize, wp: usize) -> Tensor {
    assert_eq!(g.shape().len(), 3, "uncrop expects (C, H, W)");
    let (c, h, w) = (g.shape()[0], g.shape()[1], g.shape()[2]);
    assert!(h <= hp && w <= wp, "uncrop target smaller than gradient");
    if h == hp && w == wp {
        return g.clone();
    }
    let mut out = Tensor::zeros(&[c, hp, wp]);
    for ci in 0..c {
        for hh in 0..h {
            for ww in 0..w {
                out.set3(ci, hh, ww, g.at3(ci, hh, ww));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up() {
        assert_eq!(round_up4(4), 4);
        assert_eq!(round_up4(5), 8);
        assert_eq!(round_up4(50), 52);
        assert_eq!(round_up4(1), 4);
    }

    fn pad(x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        pad_to_multiple4_into(x, &mut out);
        out
    }

    #[test]
    fn aligned_input_untouched() {
        let x = Tensor::filled(&[1, 8, 8], 2.0);
        assert_eq!(pad(&x), x);
    }

    #[test]
    fn pad_zero_fills_reused_buffers() {
        for (h, w) in [(5, 6), (8, 8), (7, 12)] {
            let x = Tensor::from_fn3(2, h, w, |c, hh, ww| (c * 100 + hh * 10 + ww) as f32);
            let mut out = Tensor::filled(&[1, 9, 9], 7.0); // stale contents must vanish
            pad_to_multiple4_into(&x, &mut out);
            let (hp, wp) = (round_up4(h), round_up4(w));
            let want = Tensor::from_fn3(2, hp, wp, |c, hh, ww| {
                if hh < h && ww < w { x.at3(c, hh, ww) } else { 0.0 }
            });
            assert_eq!(out, want, "{h}x{w}");
        }
    }

    #[test]
    fn pad_crop_adjoint() {
        // <pad(x), y> == <x, crop(y)> — pad and crop are adjoint maps.
        let x = Tensor::from_fn3(1, 5, 6, |_, h, w| (h * 6 + w) as f32);
        let p = pad(&x);
        let y = Tensor::from_fn3(1, 8, 8, |_, h, w| ((h + w) % 3) as f32);
        let lhs: f32 = p.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let cy = crop_to(&y, 5, 6);
        let rhs: f32 = x.as_slice().iter().zip(cy.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn uncrop_restores_shape() {
        let g = Tensor::filled(&[2, 3, 3], 1.0);
        let u = uncrop_grad(&g, 4, 8);
        assert_eq!(u.shape(), &[2, 4, 8]);
        assert_eq!(u.sum(), 18.0);
    }
}
