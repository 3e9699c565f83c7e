//! Parameter serialization through [`pdn_core::codec`]: the magic
//! `PDNNWT01`, the parameter count, then per parameter its shape and
//! little-endian `f32` data. Both functions take a network's deterministic
//! parameter visitor (`|f| net.visit_params(f)`), so any structurally
//! identical network can be restored.

use crate::layer::Param;
use crate::tensor::Tensor;
use pdn_core::codec::{invalid, Reader, Writer};
use std::io;

const MAGIC: &[u8; 8] = b"PDNNWT01";

/// Appends the weight file of the parameters `visit` hands out to `w`.
///
/// # Example
///
/// ```
/// use pdn_core::codec::Writer;
/// use pdn_nn::activation::Activation;
/// use pdn_nn::conv::{Conv2d, Padding};
/// use pdn_nn::layer::Layer;
/// use pdn_nn::serialize::{read_params, write_params};
///
/// let mut a = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 7);
/// let mut w = Writer::default();
/// write_params(|f| a.visit_params(f), &mut w);
/// let mut b = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 99); // different init
/// read_params(|f| b.visit_params(f), &w.into_bytes()).unwrap();
/// ```
pub fn write_params(mut visit: impl FnMut(&mut dyn FnMut(&mut Param)), w: &mut Writer) {
    let mut count = 0u32;
    visit(&mut |_| count += 1);
    w.bytes(MAGIC);
    w.u32(count);
    visit(&mut |p| {
        w.shape(p.value.shape());
        w.f32s(p.value.as_slice());
    });
}

/// Restores the parameters `visit` hands out from a weight file that must
/// span all of `bytes`, zeroing their gradients and optimizer moments.
/// The network fixes the count and every shape, each checked before its
/// data is read; nothing is restored unless the whole file matches.
///
/// # Errors
///
/// `InvalidData` for a wrong magic, count or shape, a truncated file, or
/// bytes after the last parameter.
pub fn read_params(
    mut visit: impl FnMut(&mut dyn FnMut(&mut Param)),
    bytes: &[u8],
) -> io::Result<()> {
    let mut r = Reader::new(bytes, MAGIC, "weight file")?;
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    visit(&mut |p| shapes.push(p.value.shape().to_vec()));
    let (count, want) = (r.u32()? as usize, shapes.len());
    if count != want {
        return Err(invalid(format!("weight file has {count} parameters, want {want}")));
    }
    let mut loaded = Vec::with_capacity(count);
    for (i, want) in shapes.iter().enumerate() {
        let shape = r.shape()?;
        if &shape != want {
            return Err(invalid(format!("parameter {i} has shape {shape:?}, want {want:?}")));
        }
        let data = r.f32s(shape.iter().product(), "parameter tensor")?;
        loaded.push(Tensor::from_vec(&shape, data));
    }
    r.finish()?;
    let mut loaded = loaded.into_iter();
    visit(&mut |p| {
        p.value = loaded.next().expect("count validated");
        p.grad.zero();
        p.m.zero();
        p.v.zero();
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::conv::{Conv2d, Padding};
    use crate::layer::Layer;

    fn save(layer: &mut impl Layer) -> Vec<u8> {
        let mut w = Writer::default();
        write_params(|f| layer.visit_params(f), &mut w);
        w.into_bytes()
    }

    fn load(layer: &mut impl Layer, bytes: &[u8]) -> io::Result<()> {
        read_params(|f| layer.visit_params(f), bytes)
    }

    #[test]
    fn round_trip_restores_outputs() {
        let mut a = Conv2d::new(2, 3, 3, 1, Padding::Replication, Activation::Identity, 5);
        let x = Tensor::from_fn3(2, 6, 6, |c, h, w| ((c + h * w) % 5) as f32 * 0.2);
        let ya = a.forward(&x).clone();
        let buf = save(&mut a);

        let mut b = Conv2d::new(2, 3, 3, 1, Padding::Replication, Activation::Identity, 1234);
        assert_ne!(b.forward(&x), &ya, "different init should differ");
        load(&mut b, &buf).unwrap();
        assert_eq!(b.forward(&x), &ya, "restored layer must reproduce outputs");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 0);
        let buf = save(&mut a);
        let mut wrong = Conv2d::new(1, 4, 3, 1, Padding::Zero, Activation::Identity, 0);
        let err = load(&mut wrong, &buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_headers_rejected_before_allocating() {
        // Trusted, each header would ask the allocator for 206 GB of
        // tensors (count = u32::MAX), 34 GB of dimensions (rank =
        // u32::MAX) or 4.4 TB of weights (a 2^20 x 2^20 x 1 x 1 kernel).
        let header = |words: &[u32]| {
            let mut buf = MAGIC.to_vec();
            for w in words {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            buf
        };
        let mut conv = Conv2d::new(1, 1, 1, 1, Padding::Zero, Activation::Identity, 0);
        for (what, buf) in [
            ("count", header(&[u32::MAX])),
            ("rank", header(&[2, u32::MAX])),
            ("shape", header(&[2, 4, 1 << 20, 1 << 20, 1, 1])),
        ] {
            let err = load(&mut conv, &buf).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut a = Conv2d::new(1, 1, 1, 1, Padding::Zero, Activation::Identity, 0);
        let buf = b"NOTMAGIC\0\0\0\0".to_vec();
        let err = load(&mut a, &buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_bytes_rejected_and_nothing_restored() {
        let mut a = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 0);
        let mut buf = save(&mut a);
        buf.push(0);
        let mut b = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 1);
        let before = save(&mut b);
        let err = load(&mut b, &buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        assert_eq!(save(&mut b), before);
    }

    #[test]
    fn moments_reset_on_load() {
        let mut a = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 0);
        let buf = save(&mut a);
        let mut b = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 0);
        b.visit_params(&mut |p| {
            p.m = Tensor::filled(p.m.shape(), 1.0);
            p.grad = Tensor::filled(p.grad.shape(), 2.0);
        });
        load(&mut b, &buf).unwrap();
        b.visit_params(&mut |p| {
            assert_eq!(p.m.sum(), 0.0);
            assert_eq!(p.grad.sum(), 0.0);
        });
    }
}
