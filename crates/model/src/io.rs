//! Saving and loading trained predictors.
//!
//! The on-disk bundle contains everything inference needs: the model
//! configuration, the bump count (fixing the distance subnet's input
//! width), the fitted normalizer scales, the compressor settings, the
//! design's distance tensor, and all network weights. Restoring yields a
//! [`Predictor`] that answers sign-off queries bit-identically to the one
//! that was saved.

use crate::model::{ModelConfig, Predictor, WnvModel};
use pdn_compress::temporal::TemporalCompressor;
use pdn_features::normalize::Normalizer;
use pdn_nn::layer::{Layer, Param};
use pdn_nn::serialize::{read_params, write_params};
use pdn_nn::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PDNWNV01";

/// Largest kernel count a bundle may declare per subnet. The paper uses
/// 8–16; the cap keeps a corrupt header from sizing a model that cannot
/// be allocated before its weights are even read.
const MAX_KERNELS: usize = 256;

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

impl Predictor {
    /// Writes the complete inference bundle.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<W: Write>(&mut self, mut writer: W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        let config = self.model_config();
        write_u32(&mut writer, config.c1 as u32)?;
        write_u32(&mut writer, config.c2 as u32)?;
        write_u32(&mut writer, config.c3 as u32)?;
        let distance = self.distance_tensor();
        write_u32(&mut writer, distance.shape()[0] as u32)?;
        write_u32(&mut writer, distance.shape()[1] as u32)?;
        write_u32(&mut writer, distance.shape()[2] as u32)?;
        for v in distance.as_slice() {
            writer.write_all(&v.to_le_bytes())?;
        }
        write_f64(&mut writer, self.current_norm_scale())?;
        write_f64(&mut writer, self.target_norm_scale())?;
        match self.compressor_settings() {
            Some((rate, step)) => {
                write_u32(&mut writer, 1)?;
                write_f64(&mut writer, rate)?;
                write_f64(&mut writer, step)?;
            }
            None => write_u32(&mut writer, 0)?,
        }
        // The field, not `model_mut`: saving leaves the weights (and so
        // the cached distance features) as they are.
        self.model.write_weights(&mut writer)
    }

    /// Saves to a file path atomically: the bundle is staged to a
    /// temporary file and renamed into place, so a crash mid-save leaves
    /// any previous bundle at `path` untouched.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        pdn_core::fsio::atomic_write_with(path.as_ref(), |w| self.save(w))
    }

    /// Restores a predictor bundle.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt or truncated bundles; propagates
    /// other I/O errors.
    pub fn load<R: Read>(reader: R) -> io::Result<Predictor> {
        Predictor::load_impl(reader).map_err(|e| {
            // A torn file surfaces as a short read; report it as corrupt
            // data, not as an I/O condition the caller might retry.
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::InvalidData, "truncated predictor bundle")
            } else {
                e
            }
        })
    }

    fn load_impl<R: Read>(mut reader: R) -> io::Result<Predictor> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad predictor-bundle magic"));
        }
        let c1 = read_u32(&mut reader)? as usize;
        let c2 = read_u32(&mut reader)? as usize;
        let c3 = read_u32(&mut reader)? as usize;
        if [c1, c2, c3].iter().any(|&c| c == 0 || c > MAX_KERNELS) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("implausible kernel counts {c1}/{c2}/{c3} (1..={MAX_KERNELS} each)"),
            ));
        }
        let bumps = read_u32(&mut reader)? as usize;
        let m = read_u32(&mut reader)? as usize;
        let n = read_u32(&mut reader)? as usize;
        if bumps == 0 || m == 0 || n == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "degenerate distance tensor"));
        }
        let count = bumps
            .checked_mul(m)
            .and_then(|x| x.checked_mul(n))
            .filter(|&c| c <= (1 << 30))
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "implausible distance-tensor size")
            })?;
        // Read what the input holds, up to the declared size, so a
        // corrupt header costs no more memory than the input itself.
        let mut bytes = Vec::new();
        reader.by_ref().take(count as u64 * 4).read_to_end(&mut bytes)?;
        if bytes.len() != count * 4 {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
        }
        let data = bytes.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
        let distance = Tensor::from_vec(&[bumps, m, n], data.collect());
        let current_scale = read_f64(&mut reader)?;
        let target_scale = read_f64(&mut reader)?;
        // `Normalizer::with_scale` asserts on bad scales; a corrupt bundle
        // must surface as a load error, not a panic inside the assert.
        for (what, scale) in [("current", current_scale), ("target", target_scale)] {
            if !scale.is_finite() || scale <= 0.0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad {what} normalizer scale {scale}: must be finite and positive"),
                ));
            }
        }
        let has_compressor = read_u32(&mut reader)? != 0;
        let compressor = if has_compressor {
            let rate = read_f64(&mut reader)?;
            let step = read_f64(&mut reader)?;
            Some(TemporalCompressor::new(rate, step).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad compressor settings: {e}"))
            })?)
        } else {
            None
        };
        let mut model = WnvModel::new(bumps, ModelConfig { c1, c2, c3 }, 0);
        model.read_weights(&mut reader)?;
        Ok(Predictor::from_parts(
            model,
            distance,
            Normalizer::with_scale(current_scale),
            Normalizer::with_scale(target_scale),
            compressor,
        ))
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn load_from(path: impl AsRef<Path>) -> io::Result<Predictor> {
        let f = std::fs::File::open(path)?;
        Predictor::load(io::BufReader::new(f))
    }
}

/// Serialization-only [`Layer`] view of a [`WnvModel`]: hands the three
/// subnets' parameters to `pdn_nn::serialize` in `visit_params` order.
struct Params<'a>(&'a mut WnvModel);

impl Layer for Params<'_> {
    fn forward(&mut self, _input: &Tensor) -> &Tensor {
        unreachable!("serialization-only adapter")
    }
    fn backward(&mut self, _grad: &Tensor) -> Tensor {
        unreachable!("serialization-only adapter")
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params(f);
    }
}

impl WnvModel {
    /// Writes the three subnets' weights.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_weights<W: Write>(&mut self, writer: &mut W) -> io::Result<()> {
        write_params(&mut Params(self), writer)
    }

    /// Restores the three subnets' weights from [`WnvModel::write_weights`]
    /// output.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for structurally mismatched weight files.
    pub fn read_weights<R: Read>(&mut self, reader: &mut R) -> io::Result<()> {
        read_params(&mut Params(self), reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_compress::temporal::TemporalCompressor;
    use pdn_features::dataset::Dataset;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_sim::wnv::WnvRunner;
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
    use proptest::prelude::*;

    fn trained_predictor() -> (pdn_grid::build::PowerGrid, Predictor, pdn_vectors::vector::TestVector)
    {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let gen =
            VectorGenerator::new(&grid, GeneratorConfig { steps: 40, ..Default::default() });
        let vectors = gen.generate_group(4, 51);
        let runner = WnvRunner::new(&grid).unwrap();
        let reports = runner.run_group(&vectors).unwrap();
        let comp = TemporalCompressor::new(0.4, 0.05).unwrap();
        let ds = Dataset::build(&grid, &vectors, &reports, Some(&comp));
        let model =
            WnvModel::new(grid.bumps().len(), ModelConfig { c1: 2, c2: 2, c3: 2 }, 3);
        let predictor = Predictor::new(model, &ds, Some(comp));
        let query = gen.generate(999);
        (grid, predictor, query)
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let (grid, mut predictor, query) = trained_predictor();
        let before = predictor.predict(&grid, &query);
        let mut buf = Vec::new();
        predictor.save(&mut buf).unwrap();
        let mut restored = Predictor::load(&mut buf.as_slice()).unwrap();
        let after = restored.predict(&grid, &query);
        assert_eq!(before, after);
    }

    #[test]
    fn file_round_trip() {
        let (grid, mut predictor, query) = trained_predictor();
        let dir = std::env::temp_dir().join("pdn_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("predictor.pdnwnv");
        predictor.save_to(&path).unwrap();
        let mut restored = Predictor::load_from(&path).unwrap();
        assert_eq!(predictor.predict(&grid, &query), restored.predict(&grid, &query));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_v2_bundles_are_rejected_as_bad_magic() {
        let (_, mut predictor, _) = trained_predictor();
        let mut buf = Vec::new();
        predictor.save(&mut buf).unwrap();
        assert_eq!(&buf[..8], MAGIC);
        buf[..8].copy_from_slice(b"PDNWNV02");
        let err = Predictor::load(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn corrupt_normalizer_scale_is_invalid_data_not_panic() {
        let (_, mut predictor, _) = trained_predictor();
        let mut buf = Vec::new();
        predictor.save(&mut buf).unwrap();
        // Layout: 8-byte magic, six u32 header fields, the f32 distance
        // tensor, then the two f64 normalizer scales.
        let dist_len: usize = predictor.distance_tensor().shape().iter().product();
        let scale_off = 8 + 6 * 4 + dist_len * 4;
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.5] {
            let mut corrupt = buf.clone();
            corrupt[scale_off..scale_off + 8].copy_from_slice(&bad.to_le_bytes());
            let err = Predictor::load(&mut corrupt.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "scale {bad}");
            assert!(err.to_string().contains("normalizer scale"), "scale {bad}: {err}");
        }
    }

    #[test]
    fn corrupt_bundle_rejected() {
        let err = Predictor::load(&mut b"garbage!".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_bundle_rejected_at_every_offset() {
        let (_, mut predictor, _) = trained_predictor();
        let mut buf = Vec::new();
        predictor.save(&mut buf).unwrap();
        // Cut inside the magic, the header, the distance tensor, the
        // normalizer scales, and the weight blob: every torn prefix must be
        // a clean InvalidData, never a panic or a misleading EOF.
        for cut in [0, 4, 10, 21, buf.len() / 4, buf.len() / 2, buf.len() - 5, buf.len() - 1] {
            let torn = &buf[..cut];
            let err = Predictor::load(&mut &torn[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    /// A saved bundle, split into its structural bytes — the header, the
    /// weight blob's magic and count, every tensor's rank and dimension
    /// words — and the rest (distance data, scales, compressor, weights).
    struct Layout {
        bytes: Vec<u8>,
        structural: Vec<usize>,
        rest: Vec<usize>,
    }

    fn layout() -> &'static Layout {
        static LAYOUT: std::sync::OnceLock<Layout> = std::sync::OnceLock::new();
        LAYOUT.get_or_init(|| {
            let (_, mut predictor, _) = trained_predictor();
            let mut bytes = Vec::new();
            predictor.save(&mut bytes).unwrap();
            let word = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            // Magic + six u32 header words, the f32 distance tensor, two f64
            // scales, the compressor flag and its two f64 settings.
            let weights = 8 + 6 * 4 + predictor.distance_tensor().len() * 4 + 2 * 8 + 4 + 2 * 8;
            let mut structural: Vec<usize> = (0..8 + 6 * 4).collect();
            structural.extend(weights..weights + 12);
            let mut off = weights + 12;
            for _ in 0..word(weights + 8) {
                let rank = word(off) as usize;
                structural.extend(off..off + 4 * (1 + rank));
                let len: usize = (0..rank).map(|d| word(off + 4 * (1 + d)) as usize).product();
                off += 4 * (1 + rank + len);
            }
            assert_eq!(off, bytes.len(), "layout walk must cover the whole bundle");
            let rest = (0..bytes.len()).filter(|i| !structural.contains(i)).collect();
            Layout { bytes, structural, rest }
        })
    }

    /// Loads the bundle with one bit flipped: it must load or fail with
    /// `InvalidData`, never panic or abort.
    fn assert_flip_loads_or_fails_cleanly(offset: usize, bit: u8) {
        let mut flipped = layout().bytes.clone();
        flipped[offset] ^= 1 << bit;
        if let Err(e) = Predictor::load(&mut flipped.as_slice()) {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {offset} bit {bit}: {e}");
        }
    }

    #[test]
    fn bit_flips_in_structural_words_load_or_fail_cleanly() {
        for &offset in &layout().structural {
            for bit in 0..8 {
                assert_flip_loads_or_fails_cleanly(offset, bit);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn random_bit_flips_load_or_fail_cleanly(i in 0..layout().rest.len(), bit in 0u8..8) {
            assert_flip_loads_or_fails_cleanly(layout().rest[i], bit);
        }
    }

    #[test]
    fn interrupted_save_preserves_previous_bundle() {
        let (grid, mut predictor, query) = trained_predictor();
        let dir = std::env::temp_dir().join("pdn_model_io_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("predictor.pdnwnv");
        predictor.save_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // A crash mid-save only ever touches the staging file; simulate the
        // worst case by asserting the destination still holds the old bytes
        // after a failed atomic write.
        let failed: io::Result<()> = pdn_core::fsio::atomic_write_with(&path, |w| {
            use std::io::Write as _;
            w.write_all(b"partial")?;
            Err(io::Error::other("simulated crash"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), good);
        let mut restored = Predictor::load_from(&path).unwrap();
        assert_eq!(predictor.predict(&grid, &query), restored.predict(&grid, &query));
        std::fs::remove_dir_all(&dir).ok();
    }
}
