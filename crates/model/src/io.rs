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
use pdn_core::codec::{invalid, Reader, Writer};
use pdn_features::normalize::Normalizer;
use pdn_nn::serialize::{read_params, write_params};
use pdn_nn::tensor::Tensor;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PDNWNV01";

/// Largest kernel count a bundle may declare per subnet. The paper uses
/// 8–16; the cap keeps a corrupt header from sizing an implausible model.
const MAX_KERNELS: usize = 256;

impl Predictor {
    /// Writes the complete inference bundle.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<W: Write>(&mut self, mut writer: W) -> io::Result<()> {
        let mut w = Writer::new(MAGIC);
        let config = self.model_config();
        [config.c1, config.c2, config.c3].into_iter().for_each(|c| w.u32(c as u32));
        // The distance tensor's three dimensions, without a rank word.
        let distance = self.distance_tensor();
        distance.shape().iter().for_each(|&d| w.u32(d as u32));
        w.f32s(distance.as_slice());
        w.f64(self.current_norm_scale());
        w.f64(self.target_norm_scale());
        match self.compressor_settings() {
            Some((rate, step)) => {
                w.u32(1);
                w.f64(rate);
                w.f64(step);
            }
            None => w.u32(0),
        }
        // The field, not `model_mut`: saving leaves the weights (and so
        // the cached distance features) as they are.
        write_params(|f| self.model.visit_params(f), &mut w);
        writer.write_all(&w.into_bytes())
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

    /// Restores a predictor bundle. It is read into memory whole (a few MB
    /// at the paper's kernel counts); its length bounds the decode's memory.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for corrupt, truncated or overlong bundles;
    /// propagates other I/O errors.
    pub fn load<R: Read>(mut reader: R) -> io::Result<Predictor> {
        let mut bytes = Vec::new();
        // The magic first: a stream that is not a bundle is not read to its end.
        reader.by_ref().take(8).read_to_end(&mut bytes)?;
        if bytes == MAGIC {
            reader.read_to_end(&mut bytes)?;
        }
        let mut r = Reader::new(&bytes, MAGIC, "predictor bundle")?;
        let [c1, c2, c3] = [r.u32()?, r.u32()?, r.u32()?].map(|c| c as usize);
        if [c1, c2, c3].iter().any(|&c| c == 0 || c > MAX_KERNELS) {
            let msg = format!("implausible kernel counts {c1}/{c2}/{c3} (1..={MAX_KERNELS} each)");
            return Err(invalid(msg));
        }
        let [bumps, m, n] = [r.u32()?, r.u32()?, r.u32()?].map(|d| d as usize);
        if bumps == 0 || m == 0 || n == 0 {
            return Err(invalid("degenerate distance tensor"));
        }
        let count = bumps.saturating_mul(m).saturating_mul(n);
        let distance = Tensor::from_vec(&[bumps, m, n], r.f32s(count, "distance tensor")?);
        let current_scale = r.f64()?;
        let target_scale = r.f64()?;
        // `Normalizer::with_scale` asserts on bad scales; a corrupt bundle
        // must surface as a load error, not a panic inside the assert.
        for (what, scale) in [("current", current_scale), ("target", target_scale)] {
            if !scale.is_finite() || scale <= 0.0 {
                return Err(invalid(format!(
                    "bad {what} normalizer scale {scale}: must be finite and positive"
                )));
            }
        }
        let compressor = match r.u32()? {
            0 => None,
            _ => Some(
                TemporalCompressor::new(r.f64()?, r.f64()?)
                    .map_err(|e| invalid(format!("bad compressor settings: {e}")))?,
            ),
        };
        // The header sizes the model: before building it, the bytes left
        // must hold at least its weights.
        let config = ModelConfig { c1, c2, c3 };
        r.check_run(config.param_count(bumps), 4, "model weights")?;
        let mut model = WnvModel::new(bumps, config, 0);
        read_params(|f| model.visit_params(f), r.into_rest())?;
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
        Predictor::load(std::fs::File::open(path)?)
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
        // A long stream that is no bundle is rejected after its magic,
        // not read to its end first.
        let mut zeros = io::repeat(0).take(64 << 20);
        let err = Predictor::load(&mut zeros).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(zeros.limit(), (64 << 20) - 8, "read past the magic");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, mut predictor, _) = trained_predictor();
        let mut buf = Vec::new();
        predictor.save(&mut buf).unwrap();
        buf.push(0);
        let err = Predictor::load(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing bytes after the weight file"), "{err}");
    }

    #[test]
    fn a_header_without_its_weights_fails_before_the_model_is_built() {
        // 256/256/256 kernels on one bump and a 1 x 1 tile grid: 56 bytes
        // that would size a 15.3 M-parameter model, and no weights.
        let mut bytes = MAGIC.to_vec();
        for word in [256u32, 256, 256, 1, 1, 1] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&[1.0f64.to_le_bytes(), 1.0f64.to_le_bytes()].concat());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(bytes.len(), 56);
        let err = Predictor::load(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let want = "model weights longer than the predictor bundle";
        assert!(err.to_string().contains(want), "{err}");
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
