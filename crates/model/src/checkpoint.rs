//! Resumable-training checkpoints.
//!
//! A checkpoint freezes *everything* the training loop's future depends on
//! — model weights, Adam moments and step counter, the shuffle RNG's exact
//! mid-stream state, the current (cumulatively shuffled) sample order, and
//! the loss history — so a run killed at epoch `k` and resumed with
//! `--resume` produces bit-identical weights and losses to one that never
//! stopped.
//!
//! Checkpoints are written atomically through [`pdn_core::fsio`], so a
//! crash *during* a checkpoint leaves the previous checkpoint intact, and
//! sealed with a trailing content digest, so a torn or bit-flipped file is
//! rejected with `InvalidData` instead of silently resuming from garbage.

use crate::model::WnvModel;
use crate::trainer::{EpochStats, TrainConfig, TrainHistory};
use pdn_core::fsio::{self, Digest};
use pdn_core::rng;
use pdn_nn::tensor::Tensor;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"PDNCKPT1";

/// Where and how often the trainer checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Checkpoint file path (one file, atomically replaced each time).
    pub path: PathBuf,
    /// Checkpoint after every `every` completed epochs (≥ 1).
    pub every: usize,
    /// Resume from `path` when it exists (a missing file starts fresh).
    pub resume: bool,
    /// When `Some(k)`, every save also writes an epoch-stamped generation
    /// file next to `path` (`train.ckpt` → `train-e00012.ckpt`) and then
    /// prunes all but the newest `k` generations. `path` itself always
    /// holds the latest state, so resume is unaffected.
    pub keep: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every` epochs with resume enabled —
    /// the configuration `pdn train --checkpoint` uses.
    pub fn resumable(path: impl Into<PathBuf>, every: usize) -> CheckpointConfig {
        CheckpointConfig { path: path.into(), every: every.max(1), resume: true, keep: None }
    }

    /// Enables generation rotation: keep the newest `keep` epoch-stamped
    /// checkpoint files (`--checkpoint-keep`).
    pub fn with_keep(self, keep: usize) -> CheckpointConfig {
        CheckpointConfig { keep: Some(keep), ..self }
    }
}

/// A frozen training state (see the module docs for what must be captured
/// and why).
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Number of fully completed epochs.
    pub epochs_done: usize,
    /// The training-sample visit order as of the last completed epoch
    /// (shuffling is cumulative, so the order itself is state).
    pub order: Vec<usize>,
    /// Adam's step counter (moments live with the parameters).
    pub adam_steps: u64,
    /// The shuffle RNG's serialized mid-stream state.
    pub rng_state: [u8; rng::STATE_BYTES],
    /// Loss history of the completed epochs.
    pub history: TrainHistory,
    /// Per parameter (in `visit_params` order): value, Adam m, Adam v.
    pub params: Vec<[Tensor; 3]>,
    /// Fingerprint of the hyper-parameters that shape the trajectory.
    pub config_digest: u64,
}

/// Digest of every [`TrainConfig`] field that alters the training
/// trajectory. `epochs` is deliberately excluded: extending a finished
/// run's epoch budget and resuming is a supported workflow.
pub fn config_digest(config: &TrainConfig) -> u64 {
    let mut d = Digest::new();
    d.update_str("pdn-train-config-v1");
    d.update_u64(config.batch_size as u64);
    d.update_f64(f64::from(config.learning_rate));
    d.update_u64(config.seed);
    d.update_f64(f64::from(config.lr_decay));
    d.finish()
}

impl TrainState {
    /// Captures the model's parameters (values + Adam moments) in
    /// `visit_params` order.
    pub fn capture_params(model: &mut WnvModel) -> Vec<[Tensor; 3]> {
        let mut params = Vec::new();
        model.visit_params(&mut |p| {
            params.push([p.value.clone(), p.m.clone(), p.v.clone()]);
        });
        params
    }

    /// Restores captured parameters into a structurally matching model
    /// (gradients are zeroed).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the parameter count or any shape differs.
    pub fn apply_params(&self, model: &mut WnvModel) -> io::Result<()> {
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        model.visit_params(&mut |p| shapes.push(p.value.shape().to_vec()));
        if shapes.len() != self.params.len() {
            return Err(invalid(format!(
                "checkpoint has {} parameters, model has {}",
                self.params.len(),
                shapes.len()
            )));
        }
        for (i, (shape, [value, ..])) in shapes.iter().zip(&self.params).enumerate() {
            if shape != value.shape() {
                return Err(invalid(format!(
                    "parameter {i} shape mismatch: checkpoint {:?}, model {:?}",
                    value.shape(),
                    shape
                )));
            }
        }
        let mut it = self.params.iter();
        model.visit_params(&mut |p| {
            let [value, m, v] = it.next().expect("count validated");
            p.value = value.clone();
            p.m = m.clone();
            p.v = v.clone();
            p.grad.zero();
        });
        Ok(())
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Atomically writes `state` to `path`, sealed with a content digest.
///
/// # Errors
///
/// Propagates I/O errors; on any failure `path` still holds its previous
/// contents.
pub fn save(path: &Path, state: &TrainState) -> io::Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(state.epochs_done as u64).to_le_bytes());
    out.extend_from_slice(&state.config_digest.to_le_bytes());
    out.extend_from_slice(&state.adam_steps.to_le_bytes());
    out.extend_from_slice(&state.rng_state);
    out.extend_from_slice(&(state.order.len() as u32).to_le_bytes());
    for &i in &state.order {
        out.extend_from_slice(&(i as u64).to_le_bytes());
    }
    out.extend_from_slice(&(state.history.epochs.len() as u32).to_le_bytes());
    for e in &state.history.epochs {
        out.extend_from_slice(&e.train_loss.to_le_bytes());
        out.extend_from_slice(&e.val_loss.to_le_bytes());
    }
    out.extend_from_slice(&(state.params.len() as u32).to_le_bytes());
    for [value, m, v] in &state.params {
        out.extend_from_slice(&(value.shape().len() as u32).to_le_bytes());
        for &d in value.shape() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for t in [value, m, v] {
            for x in t.as_slice() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    let seal = fsio::digest_bytes(&out[MAGIC.len()..]);
    out.extend_from_slice(&seal.to_le_bytes());
    fsio::atomic_write(path, &out)
}

/// Loads and verifies a checkpoint written by [`save`].
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, failed integrity seal, or any
/// structural inconsistency — a torn file can never be resumed from.
pub fn load(path: &Path) -> io::Result<TrainState> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + 8 {
        return Err(invalid("checkpoint shorter than header"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid("bad checkpoint magic"));
    }
    let (body, seal_bytes) = bytes.split_at(bytes.len() - 8);
    let seal = u64::from_le_bytes(seal_bytes.try_into().expect("8 bytes"));
    if fsio::digest_bytes(&body[MAGIC.len()..]) != seal {
        return Err(invalid("checkpoint integrity digest mismatch (torn or corrupt file)"));
    }
    let mut r = &body[MAGIC.len()..];
    let epochs_done = read_u64(&mut r)? as usize;
    let config_digest = read_u64(&mut r)?;
    let adam_steps = read_u64(&mut r)?;
    let mut rng_state = [0u8; rng::STATE_BYTES];
    r.read_exact(&mut rng_state).map_err(|_| invalid("truncated checkpoint"))?;
    let order_len = read_u32(&mut r)? as usize;
    fits(r, order_len, 8, "sample order")?;
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        order.push(read_u64(&mut r)? as usize);
    }
    let epoch_count = read_u32(&mut r)? as usize;
    fits(r, epoch_count, 8, "loss history")?;
    let mut history = TrainHistory::default();
    for _ in 0..epoch_count {
        let train_loss = read_f32(&mut r)?;
        let val_loss = read_f32(&mut r)?;
        history.epochs.push(EpochStats { train_loss, val_loss });
    }
    let param_count = read_u32(&mut r)? as usize;
    // Every parameter starts with its rank word.
    fits(r, param_count, 4, "parameter list")?;
    let mut params = Vec::with_capacity(param_count);
    for _ in 0..param_count {
        let rank = read_u32(&mut r)? as usize;
        if rank > 8 {
            return Err(invalid("implausible tensor rank"));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(read_u32(&mut r)? as usize);
        }
        let n: usize = shape.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(
            || invalid("tensor shape overflows"),
        )?;
        // Value, first and second moment.
        fits(r, n, 3 * 4, "parameter tensor")?;
        let mut tensors = Vec::with_capacity(3);
        for _ in 0..3 {
            let mut data = Vec::with_capacity(n);
            for _ in 0..n {
                data.push(read_f32(&mut r)?);
            }
            tensors.push(Tensor::from_vec(&shape, data));
        }
        let [value, m, v]: [Tensor; 3] =
            tensors.try_into().expect("exactly three tensors pushed");
        params.push([value, m, v]);
    }
    if !r.is_empty() {
        return Err(invalid("trailing bytes after parameters"));
    }
    if epochs_done != history.epochs.len() {
        return Err(invalid("epoch counter disagrees with history length"));
    }
    Ok(TrainState { epochs_done, order, adam_steps, rng_state, history, params, config_digest })
}

/// The sibling path holding the generation checkpointed after
/// `epochs_done` completed epochs (`train.ckpt` → `train-e00012.ckpt`).
pub fn stamped_path(path: &Path, epochs_done: usize) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("checkpoint");
    let name = match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}-e{epochs_done:05}.{ext}"),
        None => format!("{stem}-e{epochs_done:05}"),
    };
    path.with_file_name(name)
}

/// Existing generation files for `path`, sorted by epoch (ascending).
/// Files whose name does not parse as a generation of `path` are ignored.
///
/// # Errors
///
/// Propagates directory-scan errors.
pub fn generations(path: &Path) -> io::Result<Vec<(usize, PathBuf)>> {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("checkpoint");
    let ext = path.extension().and_then(|e| e.to_str());
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let prefix = format!("{stem}-e");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.extension().and_then(|e| e.to_str()) != ext {
            continue;
        }
        let Some(s) = p.file_stem().and_then(|s| s.to_str()) else { continue };
        let Some(digits) = s.strip_prefix(&prefix) else { continue };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let Ok(epoch) = digits.parse::<usize>() else { continue };
        found.push((epoch, p));
    }
    found.sort();
    Ok(found)
}

/// Deletes all but the newest `keep` generation files of `path`, returning
/// how many were removed (`keep = 0` removes every generation).
///
/// # Errors
///
/// Propagates directory-scan and file-removal errors.
pub fn prune_generations(path: &Path, keep: usize) -> io::Result<usize> {
    let gens = generations(path)?;
    let cut = gens.len().saturating_sub(keep);
    for (_, p) in &gens[..cut] {
        std::fs::remove_file(p)?;
    }
    Ok(cut)
}

/// Fails unless `count` items of `size` bytes fit in the unread input `r`.
/// The seal is not cryptographic, so a crafted header can pass it: every
/// declared size is checked against the bytes present before allocating.
fn fits(r: &[u8], count: usize, size: usize, what: &str) -> io::Result<()> {
    match count.checked_mul(size) {
        Some(bytes) if bytes <= r.len() => Ok(()),
        _ => Err(invalid(format!("{what} longer than the checkpoint"))),
    }
}

fn read_u32(r: &mut &[u8]) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|_| invalid("truncated checkpoint"))?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut &[u8]) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|_| invalid("truncated checkpoint"))?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32(r: &mut &[u8]) -> io::Result<f32> {
    read_u32(r).map(f32::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

    fn state_fixture() -> TrainState {
        let mut model = WnvModel::new(3, ModelConfig { c1: 2, c2: 2, c3: 2 }, 5);
        let rng = rng::seeded(11);
        TrainState {
            epochs_done: 2,
            order: vec![2, 0, 1],
            adam_steps: 6,
            rng_state: rng::save_state(&rng),
            history: TrainHistory {
                epochs: vec![
                    EpochStats { train_loss: 0.5, val_loss: 0.6 },
                    EpochStats { train_loss: 0.4, val_loss: 0.5 },
                ],
            },
            params: TrainState::capture_params(&mut model),
            config_digest: config_digest(&TrainConfig::fast()),
        }
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pdn_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("train.ckpt")
    }

    #[test]
    fn save_load_round_trip() {
        let state = state_fixture();
        let path = tmp_path("roundtrip");
        save(&path, &state).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.epochs_done, state.epochs_done);
        assert_eq!(back.order, state.order);
        assert_eq!(back.adam_steps, state.adam_steps);
        assert_eq!(back.rng_state, state.rng_state);
        assert_eq!(back.history, state.history);
        assert_eq!(back.config_digest, state.config_digest);
        assert_eq!(back.params.len(), state.params.len());
        for (a, b) in back.params.iter().zip(&state.params) {
            for (ta, tb) in a.iter().zip(b) {
                assert_eq!(ta, tb);
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncated_checkpoint_rejected_at_every_offset() {
        let state = state_fixture();
        let path = tmp_path("torn");
        save(&path, &state).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 4, 8, 16, 60, full.len() / 3, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn bit_flip_rejected() {
        let state = state_fixture();
        let path = tmp_path("flip");
        save(&path, &state).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A correctly sealed checkpoint body: header fields, then `tail`.
    fn sealed(order_len: u32, tail: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&[0u8; 3 * 8 + rng::STATE_BYTES]);
        out.extend_from_slice(&order_len.to_le_bytes());
        out.extend_from_slice(tail);
        let seal = fsio::digest_bytes(&out[MAGIC.len()..]);
        out.extend_from_slice(&seal.to_le_bytes());
        out
    }

    #[test]
    fn overstated_sizes_rejected_before_allocating() {
        let path = tmp_path("overstated");
        // 2^32 - 1 order entries (32 GiB of usize) behind 16 bytes.
        std::fs::write(&path, sealed(u32::MAX, &[0u8; 16])).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("sample order longer"), "{err}");
        // No epochs, then one rank-1 parameter of 2^30 elements (three
        // 4 GiB tensors) behind 12 bytes.
        let tail: Vec<u8> =
            [0u32, 1, 1, 1 << 30].iter().flat_map(|w| w.to_le_bytes()).chain([0u8; 12]).collect();
        std::fs::write(&path, sealed(0, &tail)).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("parameter tensor longer"), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn stamped_paths_and_pruning() {
        assert_eq!(
            stamped_path(Path::new("/run/train.ckpt"), 12),
            PathBuf::from("/run/train-e00012.ckpt")
        );
        assert_eq!(stamped_path(Path::new("bare"), 3), PathBuf::from("bare-e00003"));

        let state = state_fixture();
        let path = tmp_path("rotate");
        for epoch in [1, 2, 3, 4] {
            save(&stamped_path(&path, epoch), &state).unwrap();
        }
        // Decoys that must never be pruned: the main checkpoint, a foreign
        // stem, and a non-numeric suffix.
        save(&path, &state).unwrap();
        let decoy = path.with_file_name("other-e00001.ckpt");
        save(&decoy, &state).unwrap();
        let junk = path.with_file_name("train-efinal.ckpt");
        std::fs::write(&junk, b"junk").unwrap();

        let gens: Vec<usize> = generations(&path).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(gens, vec![1, 2, 3, 4]);
        assert_eq!(prune_generations(&path, 2).unwrap(), 2);
        let left: Vec<usize> = generations(&path).unwrap().into_iter().map(|(e, _)| e).collect();
        assert_eq!(left, vec![3, 4]);
        // Survivors are real checkpoints and the decoys are untouched.
        load(&stamped_path(&path, 4)).unwrap();
        load(&path).unwrap();
        assert!(decoy.exists() && junk.exists());
        assert_eq!(prune_generations(&path, 0).unwrap(), 2);
        assert!(generations(&path).unwrap().is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn apply_params_rejects_structural_mismatch() {
        let state = state_fixture();
        // Wrong channel counts → different shapes.
        let mut other = WnvModel::new(3, ModelConfig { c1: 4, c2: 2, c3: 2 }, 5);
        assert_eq!(
            state.apply_params(&mut other).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn config_digest_ignores_epochs_only() {
        let base = TrainConfig::fast();
        let more_epochs = TrainConfig { epochs: base.epochs * 2, ..base };
        assert_eq!(config_digest(&base), config_digest(&more_epochs));
        let different_lr = TrainConfig { learning_rate: base.learning_rate * 2.0, ..base };
        assert_ne!(config_digest(&base), config_digest(&different_lr));
        let different_seed = TrainConfig { seed: base.seed + 1, ..base };
        assert_ne!(config_digest(&base), config_digest(&different_seed));
    }
}
