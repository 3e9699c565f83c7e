//! The activation a layer applies in its bias epilogue.
//!
//! ReLU is not a layer of its own. [`crate::conv::Conv2d`],
//! [`crate::deconv::ConvTranspose2d`] and [`crate::dense::Dense`] take an
//! [`Activation`] at construction and apply it in the sweep that adds the
//! bias, so every output value is written once, and `backward` reads the
//! activation's derivative off the layer's own output.

/// What a layer applies to `x + bias` before writing its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation: the output layers.
    Identity,
    /// Rectified linear unit, the activation of every non-output layer in
    /// the paper's three subnets: keeps `t > 0.0` and writes `0.0`
    /// otherwise, so NaN and −0.0 both become +0.0.
    Relu,
}

impl Activation {
    /// The activation of one pre-activation value.
    #[inline]
    pub(crate) fn apply(self, t: f32) -> f32 {
        match self {
            Activation::Identity => t,
            Activation::Relu => {
                if t > 0.0 {
                    t
                } else {
                    0.0
                }
            }
        }
    }

    /// Adds `bias` to every value of one output channel and applies the
    /// activation in the same sweep.
    pub(crate) fn bias_epilogue(self, chunk: &mut [f32], bias: f32) {
        // One loop per variant rather than a per-element match: both bodies
        // are branch-free selects the compiler vectorizes.
        match self {
            Activation::Identity => {
                for v in chunk {
                    *v += bias;
                }
            }
            Activation::Relu => {
                for v in chunk {
                    *v = Activation::Relu.apply(*v + bias);
                }
            }
        }
    }

    /// The gradient w.r.t. the pre-activation, given the layer's output
    /// `out` and the gradient `grad` w.r.t. it. ReLU passes `grad` where
    /// `out > 0.0` and zeroes it elsewhere, into the reused `buf`. After the
    /// epilogue, `out > 0.0` holds exactly when the pre-activation was
    /// `> 0.0`, NaN and −0.0 included, so this is ReLU's derivative.
    pub(crate) fn backward<'a>(
        self,
        out: &[f32],
        grad: &'a [f32],
        buf: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        assert_eq!(out.len(), grad.len(), "grad_out shape mismatch");
        match self {
            Activation::Identity => grad,
            Activation::Relu => {
                buf.clear();
                buf.extend(
                    out.iter()
                        .zip(grad)
                        .map(|(&o, &g)| if o > 0.0 { g } else { 0.0 }),
                );
                buf
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relu(values: &[f32], bias: f32) -> Vec<f32> {
        let mut out = values.to_vec();
        Activation::Relu.bias_epilogue(&mut out, bias);
        out
    }

    #[test]
    fn relu_epilogue_clamps_negatives() {
        let out = relu(&[-2.0, -0.0, 0.5, 3.0, f32::NAN], 0.0);
        assert_eq!(out[..4], [0.0, 0.0, 0.5, 3.0]);
        // −0.0 and NaN come out as +0.0: `t > 0.0` is false for both.
        assert_eq!(out[1].to_bits(), 0.0f32.to_bits());
        assert_eq!(out[4].to_bits(), 0.0f32.to_bits());
        assert_eq!(relu(&[1.0, -1.0], -1.5), [0.0, 0.0]);
        assert_eq!(relu(&[1.0, -1.0], 1.5), [2.5, 0.5]);
    }

    #[test]
    fn identity_epilogue_only_adds_bias() {
        let mut out = vec![-2.0, 0.5];
        Activation::Identity.bias_epilogue(&mut out, 1.0);
        assert_eq!(out, [-1.0, 1.5]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let out = relu(&[-2.0, 1.0, -1.0, 3.0], 0.0);
        let mut buf = Vec::new();
        let g = Activation::Relu.backward(&out, &[1.0; 4], &mut buf);
        assert_eq!(g, &[0.0, 1.0, 0.0, 1.0]);
        let g = Activation::Identity.backward(&out, &[1.0; 4], &mut buf);
        assert_eq!(g, &[1.0; 4]);
    }

    #[test]
    fn output_mask_equals_pre_activation_mask() {
        // The backward reads `out > 0` after the epilogue; that must be the
        // `pre-activation > 0` mask of a separate ReLU for every input.
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            1.0,
            -1.0,
        ];
        for &bias in &specials {
            let out = relu(&specials, bias);
            for (&x, &o) in specials.iter().zip(&out) {
                let pre = x + bias;
                assert_eq!(o > 0.0, pre > 0.0, "x {x:e}, bias {bias:e}");
                let want = if pre > 0.0 { pre } else { 0.0 };
                assert_eq!(o.to_bits(), want.to_bits(), "x {x:e}, bias {bias:e}");
            }
        }
    }
}
