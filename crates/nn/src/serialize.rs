//! Parameter serialization.
//!
//! A trained network's parameters are written in a minimal self-describing
//! binary format (magic, parameter count, then per parameter the shape and
//! little-endian `f32` data). Parameters are visited in the layer's
//! deterministic `visit_params` order, so any structurally identical layer
//! can be restored.

use crate::layer::Layer;
use crate::tensor::Tensor;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"PDNNWT01";

/// Writes all parameters of a layer (or composed network).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use pdn_nn::activation::Activation;
/// use pdn_nn::conv::{Conv2d, Padding};
/// use pdn_nn::serialize::{read_params, write_params};
///
/// # fn main() -> std::io::Result<()> {
/// let mut a = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 7);
/// let mut buf = Vec::new();
/// write_params(&mut a, &mut buf)?;
/// let mut b = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 99); // different init
/// read_params(&mut b, &mut buf.as_slice())?;
/// # Ok(())
/// # }
/// ```
pub fn write_params<L: Layer + ?Sized, W: Write>(layer: &mut L, mut writer: W) -> io::Result<()> {
    let mut params: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| params.push(p.value.clone()));
    writer.write_all(MAGIC)?;
    writer.write_all(&(params.len() as u32).to_le_bytes())?;
    for t in &params {
        writer.write_all(&(t.shape().len() as u32).to_le_bytes())?;
        for &d in t.shape() {
            writer.write_all(&(d as u32).to_le_bytes())?;
        }
        for v in t.as_slice() {
            writer.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Restores all parameters of a structurally matching layer. Gradients and
/// optimizer moments are reset to zero.
///
/// The receiving layer fixes the parameter count and every shape, and each
/// header field is checked against it before anything is allocated, so a
/// corrupt file costs at most the layer's own size in memory.
///
/// # Errors
///
/// Returns `InvalidData` if the magic, parameter count, any rank or any
/// shape does not match the receiving layer; propagates reader I/O errors.
pub fn read_params<L: Layer + ?Sized, R: Read>(layer: &mut L, mut reader: R) -> io::Result<()> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad weight-file magic".into()));
    }
    let read_u32 = |reader: &mut R| -> io::Result<usize> {
        let mut b = [0u8; 4];
        reader.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b) as usize)
    };

    let mut shapes: Vec<Vec<usize>> = Vec::new();
    layer.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
    let count = read_u32(&mut reader)?;
    if count != shapes.len() {
        return Err(bad(format!("weight file has {count} parameters, layer has {}", shapes.len())));
    }
    let mut loaded: Vec<Tensor> = Vec::with_capacity(count);
    for (i, want) in shapes.iter().enumerate() {
        let rank = read_u32(&mut reader)?;
        if rank != want.len() {
            return Err(bad(format!("parameter {i} has rank {rank}, layer has {}", want.len())));
        }
        let shape = (0..rank).map(|_| read_u32(&mut reader)).collect::<io::Result<Vec<_>>>()?;
        if &shape != want {
            return Err(bad(format!("parameter {i} shape {shape:?} in file, {want:?} in layer")));
        }
        let mut data = vec![0.0f32; shape.iter().product()];
        let mut b4 = [0u8; 4];
        for v in &mut data {
            reader.read_exact(&mut b4)?;
            *v = f32::from_le_bytes(b4);
        }
        loaded.push(Tensor::from_vec(&shape, data));
    }

    let mut iter = loaded.into_iter();
    layer.visit_params(&mut |p| {
        let t = iter.next().expect("count validated");
        p.value = t;
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
    use crate::tensor::Tensor;

    #[test]
    fn round_trip_restores_outputs() {
        let mut a = Conv2d::new(2, 3, 3, 1, Padding::Replication, Activation::Identity, 5);
        let x = Tensor::from_fn3(2, 6, 6, |c, h, w| ((c + h * w) % 5) as f32 * 0.2);
        let ya = a.forward(&x).clone();
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();

        let mut b = Conv2d::new(2, 3, 3, 1, Padding::Replication, Activation::Identity, 1234);
        assert_ne!(b.forward(&x), &ya, "different init should differ");
        read_params(&mut b, &mut buf.as_slice()).unwrap();
        assert_eq!(b.forward(&x), &ya, "restored layer must reproduce outputs");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = Conv2d::new(1, 2, 3, 1, Padding::Zero, Activation::Identity, 0);
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();
        let mut wrong = Conv2d::new(1, 4, 3, 1, Padding::Zero, Activation::Identity, 0);
        let err = read_params(&mut wrong, &mut buf.as_slice()).unwrap_err();
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
            let err = read_params(&mut conv, &mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut a = Conv2d::new(1, 1, 1, 1, Padding::Zero, Activation::Identity, 0);
        let buf = b"NOTMAGIC\0\0\0\0".to_vec();
        let err = read_params(&mut a, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn moments_reset_on_load() {
        let mut a = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 0);
        let mut buf = Vec::new();
        write_params(&mut a, &mut buf).unwrap();
        let mut b = Conv2d::new(1, 1, 3, 1, Padding::Zero, Activation::Identity, 0);
        b.visit_params(&mut |p| {
            p.m = Tensor::filled(p.m.shape(), 1.0);
            p.grad = Tensor::filled(p.grad.shape(), 2.0);
        });
        read_params(&mut b, &mut buf.as_slice()).unwrap();
        b.visit_params(&mut |p| {
            assert_eq!(p.m.sum(), 0.0);
            assert_eq!(p.grad.sum(), 0.0);
        });
    }
}
