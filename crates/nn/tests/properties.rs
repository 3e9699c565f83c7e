//! Property tests for the tensor/CNN stack.

use pdn_nn::activation::Activation;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::layer::Layer;
use pdn_nn::tensor::Tensor;
use proptest::prelude::*;

const IDENTITY: Activation = Activation::Identity;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concat_split_inverse(
        c1 in 1usize..4,
        c2 in 1usize..4,
        h in 1usize..6,
        w in 1usize..6,
        seed in 0u64..50,
    ) {
        let fill = |c: usize, off: u64| {
            Tensor::from_fn3(c, h, w, |ci, hi, wi| {
                ((ci as u64 * 31 + hi as u64 * 7 + wi as u64 + seed + off) % 13) as f32 * 0.1
            })
        };
        let a = fill(c1, 0);
        let b = fill(c2, 1000);
        let cat = Tensor::concat_channels(&[&a, &b]);
        let parts = cat.split_channels(&[c1, c2]);
        prop_assert_eq!(&parts[0], &a);
        prop_assert_eq!(&parts[1], &b);
    }

    #[test]
    fn conv_is_linear_in_its_input(
        h in 4usize..10,
        w in 4usize..10,
        seed in 0u64..30,
    ) {
        let mut conv = Conv2d::new(2, 3, 3, 1, Padding::Zero, IDENTITY, seed);
        conv.bias_mut().value.zero(); // linearity holds without bias
        let x1 = Tensor::from_fn3(2, h, w, |c, hh, ww| ((c + hh * ww + seed as usize) % 7) as f32 * 0.2);
        let x2 = Tensor::from_fn3(2, h, w, |c, hh, ww| ((c * 3 + hh + ww) % 5) as f32 * 0.3);
        let mut sum = conv.forward(&x1).clone();
        sum.add_assign(conv.forward(&x2));
        let mut x12 = x1.clone();
        x12.add_assign(&x2);
        let y12 = conv.forward(&x12);
        for (a, b) in y12.as_slice().iter().zip(sum.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn conv_output_shape_law(
        cin in 1usize..3,
        cout in 1usize..4,
        h in 4usize..12,
        w in 4usize..12,
        stride in 1usize..3,
    ) {
        let mut conv = Conv2d::new(cin, cout, 3, stride, Padding::Replication, IDENTITY, 0);
        let y = conv.forward(&Tensor::zeros(&[cin, h, w]));
        // Pad 1 each side, kernel 3: out = floor((d + 2 - 3)/s) + 1.
        let expect = |d: usize| (d - 1) / stride + 1;
        prop_assert_eq!(y.shape(), &[cout, expect(h), expect(w)]);
    }

    #[test]
    fn replication_padding_preserves_constant_fields(
        h in 3usize..9,
        w in 3usize..9,
        level in -2.0f32..2.0,
    ) {
        // An all-ones 3x3 kernel over a constant field with replication
        // padding must yield exactly 9x the constant everywhere — no edge
        // effects, unlike zero padding.
        let mut conv = Conv2d::new(1, 1, 3, 1, Padding::Replication, IDENTITY, 0);
        conv.weight_mut().value = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let y = conv.forward(&Tensor::filled(&[1, h, w], level));
        for v in y.as_slice() {
            prop_assert!((v - 9.0 * level).abs() < 1e-4);
        }
    }

    #[test]
    fn serialize_round_trips_any_conv(
        cin in 1usize..3,
        cout in 1usize..3,
        seed in 0u64..100,
    ) {
        use pdn_nn::serialize::{read_params, write_params};
        let mut a = Conv2d::new(cin, cout, 3, 1, Padding::Zero, IDENTITY, seed);
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();
        let mut b = Conv2d::new(cin, cout, 3, 1, Padding::Zero, IDENTITY, seed + 999);
        read_params(&mut b, &mut buf.as_slice()).unwrap();
        let x = Tensor::filled(&[cin, 5, 5], 0.37);
        prop_assert_eq!(a.forward(&x), b.forward(&x));
    }
}
