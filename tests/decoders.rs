//! Every decoder of outside bytes, fed hostile input.
//!
//! The four binary artifacts — cache entries (read through
//! `WnvCache::lookup`), checkpoints (`checkpoint::load`), predictor bundles
//! (`Predictor::load`) and weight files (`serialize::read_params`) — each
//! start from an artifact the real encoder wrote, which is then cut at
//! every length, flipped at every bit of its header words, flipped at a
//! sample of bits elsewhere, and replaced by arbitrary bytes behind a valid
//! magic. The two sealed formats get every variant twice: as it is, and
//! with its seal re-forged, so the structural checks run and not only the
//! seal check. Each decode must return `Ok` or `InvalidData`, never panic,
//! and raise the peak of live heap bytes by at most 16 × the input length
//! + 1 MiB.
//!
//! The two text parsers (`vectors::io::read_csv` and
//! `eval::jsonl::parse_lines`) must not panic on any input.
//!
//! A global allocator tracks live and peak heap bytes. This is its own test
//! binary so that allocator stays away from every other test, and the tests
//! here take one lock so none is charged for another's allocations.

use pdn_wnv::compress::temporal::TemporalCompressor;
use pdn_wnv::core::codec::Writer;
use pdn_wnv::core::fsio::digest_bytes;
use pdn_wnv::core::map::TileMap;
use pdn_wnv::core::rng;
use pdn_wnv::core::units::{Seconds, Volts};
use pdn_wnv::eval::jsonl;
use pdn_wnv::features::normalize::Normalizer;
use pdn_wnv::model::checkpoint::{self, TrainState};
use pdn_wnv::model::model::{ModelConfig, Predictor, WnvModel};
use pdn_wnv::model::trainer::{EpochStats, TrainConfig, TrainHistory};
use pdn_wnv::nn::serialize::{read_params, write_params};
use pdn_wnv::nn::tensor::Tensor;
use pdn_wnv::sim::cache::{CacheKey, WnvCache};
use pdn_wnv::sim::transient::TransientStats;
use pdn_wnv::sim::wnv::NoiseReport;
use pdn_wnv::vectors::io::{read_csv, write_csv};
use pdn_wnv::vectors::vector::TestVector;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments to `System` unchanged and only
// counts the sizes of the blocks it returned or took back.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, as `GlobalAlloc::alloc_zeroed` requires.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // guarantees `new_size` is valid for it.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => drop(LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed)),
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs one decode of `input` and holds it to the contract: `Ok` or
/// `InvalidData`, and a heap peak at most 16 × the input length + 1 MiB
/// above what was live before. Returns what an `Ok` decode returned.
fn check<T>(label: &str, input: &[u8], decode: impl FnOnce() -> io::Result<T>) -> Option<T> {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = decode();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    let len = input.len();
    let bound = 16 * len + (1 << 20);
    assert!(peak <= bound, "{label}: {len} input bytes raised the heap by {peak} (bound {bound})");
    result.map_err(|e| assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{label}: {e}")).ok()
}

/// Appends a seal over everything after the 8-byte magic, as the sealed
/// formats' writer does.
fn reseal(mut record: Vec<u8>) -> Vec<u8> {
    if record.len() >= 8 {
        let seal = digest_bytes(&record[8..]);
        record.extend_from_slice(&seal.to_le_bytes());
    }
    record
}

/// Feeds `decode` every truncation of `artifact` and every single-bit flip
/// of its first `header` bytes. A sealed artifact gets each variant twice:
/// as it is, and with the seal re-forged over the mutated fields.
fn cuts_and_header_flips(
    artifact: &[u8],
    header: usize,
    sealed: bool,
    mut decode: impl FnMut(&str, &[u8]),
) {
    let fields = &artifact[..artifact.len() - if sealed { 8 } else { 0 }];
    for cut in 0..artifact.len() {
        decode(&format!("cut at {cut}"), &artifact[..cut]);
        if sealed && cut <= fields.len() {
            decode(&format!("cut at {cut}, resealed"), &reseal(fields[..cut].to_vec()));
        }
    }
    for byte in 0..header {
        for bit in 0..8 {
            let mut flipped = artifact.to_vec();
            flipped[byte] ^= 1 << bit;
            decode(&format!("byte {byte} bit {bit}"), &flipped);
            if sealed {
                let mut flipped = fields.to_vec();
                flipped[byte] ^= 1 << bit;
                decode(&format!("byte {byte} bit {bit}, resealed"), &reseal(flipped));
            }
        }
    }
}

/// `artifact` with one bit flipped (and, for a sealed one, the flipped
/// fields resealed as a second variant).
fn flipped(artifact: &[u8], byte: usize, bit: u8, sealed: bool) -> Vec<Vec<u8>> {
    let mut out = artifact.to_vec();
    out[byte] ^= 1 << bit;
    let mut variants = vec![out];
    if sealed {
        let mut fields = artifact[..artifact.len() - 8].to_vec();
        if byte < fields.len() {
            fields[byte] ^= 1 << bit;
            variants.push(reseal(fields));
        }
    }
    variants
}

/// `magic` followed by `tail` (draws in `0..256` taken as bytes), and for
/// a sealed format the same record resealed.
fn behind_magic(magic: &[u8], tail: &[u16], sealed: bool) -> Vec<Vec<u8>> {
    let record: Vec<u8> = magic.iter().copied().chain(tail.iter().map(|&b| b as u8)).collect();
    let mut variants = vec![record.clone()];
    if sealed {
        variants.push(reseal(record));
    }
    variants
}

/// A directory of this process's own, `tag` keeping the fixtures' apart
/// from the decodes'.
fn own_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pdn_decoders_{tag}_{}", std::process::id()))
}

/// Writes `bytes` to `name` in a fresh directory, runs `f` on its
/// path, and removes the directory again. Callers hold [`serial`].
fn with_file<T>(name: &str, bytes: &[u8], f: impl FnOnce(&Path) -> T) -> T {
    let dir = own_dir("decode");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), bytes).unwrap();
    let out = f(&dir.join(name));
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

// ---------------------------------------------------------------------------
// Cache entries

/// An 8 x 8 report, and the entry `WnvCache::store` wrote for it.
struct CacheFixture {
    key: CacheKey,
    report: NoiseReport,
    entry: Vec<u8>,
}

fn cache_fixture() -> &'static CacheFixture {
    static FIXTURE: OnceLock<CacheFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let key = CacheKey(0x5eed_cafe_f00d_0001);
        let worst: Vec<f64> = (0..64).map(|i| 0.05 + (i % 9) as f64 * 1e-3).collect();
        let report = NoiseReport {
            worst_noise: TileMap::from_vec(8, 8, worst).unwrap(),
            max_noise: Volts(0.058),
            elapsed: Duration::from_micros(1234),
            stats: TransientStats { steps: 30, cg_iterations: 412, worst_residual: 3e-9 },
        };
        let dir = own_dir("cache");
        WnvCache::open(&dir).unwrap().store(key, &report).unwrap();
        let entry = std::fs::read(dir.join(format!("{}.wnv", key.hex()))).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        CacheFixture { key, report, entry }
    })
}

/// Plants `bytes` as the fixture key's entry in a cache directory and
/// looks the key up.
fn lookup(label: &str, bytes: &[u8]) -> Option<NoiseReport> {
    let key = cache_fixture().key;
    with_file(&format!("{}.wnv", key.hex()), bytes, |path| {
        let cache = WnvCache::open(path.parent().unwrap()).unwrap();
        check(label, bytes, || Ok(cache.lookup(key))).flatten()
    })
}

#[test]
fn cache_entries_survive_every_cut_and_header_flip() {
    let _serial = serial();
    let f = cache_fixture();
    let back = lookup("the stored entry", &f.entry).expect("the stored entry reads back");
    assert_eq!(back.worst_noise, f.report.worst_noise);
    // Magic, key echo, rows and cols.
    cuts_and_header_flips(&f.entry, 8 + 8 + 4 + 4, true, |label, bytes| drop(lookup(label, bytes)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_entries_survive_bit_flips_elsewhere(
        byte in 24..cache_fixture().entry.len(),
        bit in 0u8..8,
    ) {
        let _serial = serial();
        for (i, bytes) in flipped(&cache_fixture().entry, byte, bit, true).iter().enumerate() {
            lookup(&format!("byte {byte} bit {bit} variant {i}"), bytes);
        }
    }

    #[test]
    fn cache_entries_survive_arbitrary_bytes(tail in prop::collection::vec(0u16..256, 0..700)) {
        let _serial = serial();
        for bytes in behind_magic(b"PDNWNVC2", &tail, true) {
            lookup("arbitrary bytes", &bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoints

/// A checkpoint `checkpoint::save` wrote for a small model.
fn checkpoint_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut model = WnvModel::new(1, ModelConfig { c1: 1, c2: 1, c3: 1 }, 5);
        let state = TrainState {
            epochs_done: 2,
            order: vec![2, 0, 1],
            adam_steps: 6,
            rng_state: rng::save_state(&rng::seeded(11)),
            history: TrainHistory {
                epochs: vec![
                    EpochStats { train_loss: 0.5, val_loss: 0.6 },
                    EpochStats { train_loss: 0.4, val_loss: 0.5 },
                ],
            },
            params: TrainState::capture_params(&mut model),
            config_digest: checkpoint::config_digest(&TrainConfig::fast()),
        };
        let dir = own_dir("checkpoint");
        checkpoint::save(&dir.join("train.ckpt"), &state).unwrap();
        let bytes = std::fs::read(dir.join("train.ckpt")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    })
}

fn load_checkpoint(label: &str, bytes: &[u8]) {
    with_file("train.ckpt", bytes, |path| check(label, bytes, || checkpoint::load(path)));
}

/// Magic, epoch counter, config digest, Adam steps, RNG state, order count.
const CHECKPOINT_HEADER: usize = 8 + 3 * 8 + rng::STATE_BYTES + 4;

#[test]
fn checkpoints_survive_every_cut_and_header_flip() {
    let _serial = serial();
    let state = with_file("train.ckpt", checkpoint_bytes(), checkpoint::load);
    assert_eq!(state.unwrap().epochs_done, 2);
    cuts_and_header_flips(checkpoint_bytes(), CHECKPOINT_HEADER, true, load_checkpoint);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn checkpoints_survive_bit_flips_elsewhere(
        byte in CHECKPOINT_HEADER..checkpoint_bytes().len(),
        bit in 0u8..8,
    ) {
        let _serial = serial();
        for (i, bytes) in flipped(checkpoint_bytes(), byte, bit, true).iter().enumerate() {
            load_checkpoint(&format!("byte {byte} bit {bit} variant {i}"), bytes);
        }
    }

    #[test]
    fn checkpoints_survive_arbitrary_bytes(tail in prop::collection::vec(0u16..256, 0..700)) {
        let _serial = serial();
        for bytes in behind_magic(b"PDNCKPT1", &tail, true) {
            load_checkpoint("arbitrary bytes", &bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Predictor bundles

fn bundle() -> &'static [u8] {
    static BUNDLE: OnceLock<Vec<u8>> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let distance = Tensor::from_fn3(2, 3, 3, |b, r, c| (b + r * 3 + c) as f32 * 0.1);
        let mut predictor = Predictor::from_parts(
            WnvModel::new(2, ModelConfig { c1: 1, c2: 1, c3: 1 }, 7),
            distance,
            Normalizer::with_scale(2.0),
            Normalizer::with_scale(3.0),
            Some(TemporalCompressor::new(0.5, 0.1).unwrap()),
        );
        let mut bytes = Vec::new();
        predictor.save(&mut bytes).unwrap();
        bytes
    })
}

fn load_bundle(label: &str, bytes: &[u8]) {
    check(label, bytes, || Predictor::load(bytes));
}

/// A bundle header declaring 256/256/256 kernels on `bumps` bumps and a
/// 1 x 1 tile grid, with no compressor and no weights.
fn weightless_bundle(bumps: u32) -> Vec<u8> {
    let mut bytes = b"PDNWNV01".to_vec();
    for word in [256, 256, 256, bumps, 1, 1] {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    for _ in 0..bumps {
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
    }
    bytes.extend_from_slice(&[1.0f64.to_le_bytes(), 1.0f64.to_le_bytes()].concat());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes
}

#[test]
fn bundles_survive_every_cut_and_header_flip() {
    let _serial = serial();
    Predictor::load(bundle()).expect("the saved bundle loads");
    // Magic, kernel counts and distance-tensor dimensions.
    cuts_and_header_flips(bundle(), 8 + 6 * 4, false, load_bundle);
    for (bumps, len) in [(1, 56), (32_768, 131_124)] {
        let crafted = weightless_bundle(bumps);
        assert_eq!(crafted.len(), len);
        load_bundle(&format!("weightless header on {bumps} bumps"), &crafted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bundles_survive_bit_flips_elsewhere(byte in 32..bundle().len(), bit in 0u8..8) {
        let _serial = serial();
        load_bundle(&format!("byte {byte} bit {bit}"), &flipped(bundle(), byte, bit, false)[0]);
    }

    #[test]
    fn bundles_survive_arbitrary_bytes(tail in prop::collection::vec(0u16..256, 0..700)) {
        let _serial = serial();
        load_bundle("arbitrary bytes", &behind_magic(b"PDNWNV01", &tail, false)[0]);
    }
}

// ---------------------------------------------------------------------------
// Weight files

fn weight_file() -> &'static [u8] {
    static WEIGHTS: OnceLock<Vec<u8>> = OnceLock::new();
    WEIGHTS.get_or_init(|| {
        let mut model = WnvModel::new(2, ModelConfig { c1: 1, c2: 1, c3: 1 }, 9);
        let mut w = Writer::default();
        write_params(|f| model.visit_params(f), &mut w);
        w.into_bytes()
    })
}

fn read_weights(label: &str, bytes: &[u8]) {
    let mut model = WnvModel::new(2, ModelConfig { c1: 1, c2: 1, c3: 1 }, 0);
    check(label, bytes, || read_params(|f| model.visit_params(f), bytes));
}

#[test]
fn weight_files_survive_every_cut_and_header_flip() {
    let _serial = serial();
    let mut model = WnvModel::new(2, ModelConfig { c1: 1, c2: 1, c3: 1 }, 0);
    read_params(|f| model.visit_params(f), weight_file()).expect("the written weights read back");
    // Magic, parameter count, and the first parameter's rank and shape.
    cuts_and_header_flips(weight_file(), 8 + 4 + 4 + 4 * 4, false, read_weights);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn weight_files_survive_bit_flips_elsewhere(byte in 32..weight_file().len(), bit in 0u8..8) {
        let _serial = serial();
        let bytes = &flipped(weight_file(), byte, bit, false)[0];
        read_weights(&format!("byte {byte} bit {bit}"), bytes);
    }

    #[test]
    fn weight_files_survive_arbitrary_bytes(tail in prop::collection::vec(0u16..256, 0..700)) {
        let _serial = serial();
        read_weights("arbitrary bytes", &behind_magic(b"PDNNWT01", &tail, false)[0]);
    }
}

// ---------------------------------------------------------------------------
// Text parsers

/// Draws below 256 pick from `alphabet`; the rest are any byte.
fn text(alphabet: &[u8], draws: &[u16]) -> Vec<u8> {
    let pick = |d: u16| match d {
        0..256 => alphabet[d as usize % alphabet.len()],
        _ => (d - 256) as u8,
    };
    draws.iter().map(|&d| pick(d)).collect()
}

#[test]
fn read_csv_never_panics_on_cut_or_odd_vectors() {
    let rows = vec![vec![1e-3, 2e-3], vec![0.0, 5e-4]];
    let v = TestVector::from_rows(rows, Seconds::from_picos(10.0));
    let mut csv = Vec::new();
    write_csv(&v, &mut csv).unwrap();
    for cut in 0..=csv.len() {
        let _ = read_csv(&csv[..cut]);
    }
    for odd in [
        "# pdn-wnv test-vector, dt_ps=0\n1,2\n",
        "# pdn-wnv test-vector, dt_ps=-5\n1,2\n",
        "# pdn-wnv test-vector, dt_ps=nan\n1,2\n",
        "# pdn-wnv test-vector, dt_ps=1e400\n1,2\n",
        "# pdn-wnv test-vector, dt_ps=1e-320\n1,2\n",
        "1,2\n3\n",
        "1,,2\n",
        ",\n",
        "1e400,1\n",
        "\n\n\n",
        "#\n",
    ] {
        let _ = read_csv(odd.as_bytes());
    }
}

#[test]
fn parse_lines_never_panics_on_cut_or_deep_json() {
    let doc = concat!(
        r#"{"kind":"span","name":"cli.eval","t_us":12,"dur_us":3.5e3,"fields":{"ok":true}}"#,
        "\n",
        r#"{"kind":"histogram","name":"a\"b\\u00e9","count":2,"p50":-1.25E-2,"v":[null,false]}"#,
        "\n",
    );
    for cut in (0..=doc.len()).filter(|&c| doc.is_char_boundary(c)) {
        let _ = jsonl::parse_lines(&doc[..cut]);
    }
    for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000), "\"\\u".repeat(1000)] {
        assert!(jsonl::parse_lines(&deep).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_csv_never_panics_on_arbitrary_bytes(draws in prop::collection::vec(0u16..512, 0..400)) {
        let _ = read_csv(text(b"0123456789.,-+eE# \n\r\tdt_ps=nai", &draws).as_slice());
    }

    #[test]
    fn parse_lines_never_panics_on_arbitrary_strings(
        draws in prop::collection::vec(0u16..512, 0..400),
    ) {
        let bytes = text(b"{}[]\":,.-+eE0123456789 \n\t\\/utrfalsn", &draws);
        let _ = jsonl::parse_lines(&String::from_utf8_lossy(&bytes));
    }
}
