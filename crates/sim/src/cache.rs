//! Content-addressed ground-truth cache.
//!
//! Simulating the WNV ground truth dominates every experiment's wall clock
//! — the very cost the paper's CNN exists to avoid — yet repeated runs with
//! identical inputs used to pay it again each time. This module caches
//! [`NoiseReport`]s on disk, **one entry per test vector**, keyed by a
//! content digest of everything that determines the simulator's output for
//! that vector:
//!
//! * the elaborated grid — the spec (which encodes design, scale and every
//!   electrical constant) *and* the built structure (resistors, per-node
//!   capacitance, bumps, loads), so the build seed's placement jitter is
//!   captured by content rather than by trusting a seed label;
//! * the test vector itself, byte for byte (`dt` + all current samples);
//! * the solver settings
//!   ([`TransientSimulator::digest_solver_settings`](crate::transient::TransientSimulator::digest_solver_settings));
//! * a format-version tag, so changing this file's layout invalidates old
//!   entries instead of misreading them.
//!
//! Per-vector keying means changing, adding or removing one vector in a
//! group re-simulates only the affected vectors — earlier versions keyed
//! whole groups and re-simulated everything. The grid + solver part of the
//! digest is computed once per group and cloned per vector, so key
//! computation stays linear in the input size.
//!
//! Entries are written atomically ([`pdn_core::fsio`]) and sealed with a
//! trailing payload digest; a torn or bit-flipped entry fails the integrity
//! check on load, is deleted, and the group is re-simulated — a corrupt
//! cache can cost time but can never poison training data.
//!
//! Every caller runs the cache from one thread (the harness, the CLI and
//! `pdn serve`'s simulate batcher), but nothing depends on that: two
//! threads that miss one key both simulate it, get the same noise map and
//! both store it. [`fsio::atomic_write`] stages each writer in its own
//! temp file and renames it into place, so a reader sees no entry or a
//! whole one, and the last rename leaves one sealed entry.
//!
//! Telemetry: `sim.wnv.cache.hits` / `.misses` / `.invalidations` /
//! `.stores` / `.evictions` count cache outcomes per process.

use crate::error::SimResult;
use crate::transient::{check_time_step, TransientStats};
use crate::wnv::{NoiseReport, WnvRunner};
use pdn_core::codec::{invalid, Reader, Writer};
use pdn_core::fsio::{self, Digest};
use pdn_core::map::TileMap;
use pdn_core::telemetry;
use pdn_core::units::{Seconds, Volts};
use pdn_grid::build::PowerGrid;
use pdn_vectors::vector::TestVector;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAGIC: &[u8; 8] = b"PDNWNVC2";
/// Bump this when the entry layout, the key recipe or the meaning of a
/// stored field changes: old entries then simply never match, rather than
/// being misparsed or mixed in.
const FORMAT_TAG: &str = "pdn-wnv-cache-v3";

/// The content-addressed key of one vector's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// The key as the fixed-width hex string used for entry file names.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digests everything a group's vectors share — the elaborated grid and
/// the runner's solver settings. The returned [`Digest`] is the common key
/// prefix: extend a copy with one vector ([`vector_cache_key_from`]) to
/// get that vector's [`CacheKey`].
pub fn group_digest(grid: &PowerGrid, runner: &WnvRunner) -> Digest {
    let mut d = Digest::new();
    d.update_str(FORMAT_TAG);
    // The spec's Debug form covers every electrical and geometric constant
    // (design, scale, vdd, dt, layer stack, tile grid, thresholds).
    d.update_str(&format!("{:?}", grid.spec()));
    // Built structure: captures the build seed's load placement and decap
    // jitter by content.
    d.update_u64(grid.node_count() as u64);
    for r in grid.resistors() {
        d.update_u64(r.a.index() as u64);
        d.update_u64(r.b.index() as u64);
        d.update_f64(r.resistance.0);
    }
    for c in grid.capacitance() {
        d.update_f64(c.0);
    }
    for b in grid.bumps() {
        d.update_u64(b.node.index() as u64);
        d.update_f64(b.resistance.0);
        d.update_f64(b.inductance.0);
        d.update_f64(b.position.x);
        d.update_f64(b.position.y);
    }
    for l in grid.loads() {
        d.update_u64(l.node.index() as u64);
        d.update_f64(l.position.x);
        d.update_f64(l.position.y);
        d.update_u64(l.cluster as u64);
    }
    runner.simulator().digest_solver_settings(&mut d);
    d
}

/// Extends a [`group_digest`] copy with one vector's bytes, yielding that
/// vector's entry key.
pub fn vector_cache_key_from(base: &Digest, v: &TestVector) -> CacheKey {
    let mut d = *base;
    d.update_f64(v.time_step().0);
    d.update_u64(v.step_count() as u64);
    d.update_u64(v.load_count() as u64);
    for k in 0..v.step_count() {
        for &i in v.step(k) {
            d.update_f64(i);
        }
    }
    CacheKey(d.finish())
}

/// Computes the cache key for simulating one `vector` on `grid` with the
/// given runner's solver settings.
pub fn cache_key(grid: &PowerGrid, vector: &TestVector, runner: &WnvRunner) -> CacheKey {
    vector_cache_key_from(&group_digest(grid, runner), vector)
}

/// [`WnvCache::configured_dir`] on explicit inputs: the flag wins over the
/// environment, and one set of keywords turns caching off through either.
fn resolve_dir(flag: Option<&str>, env: Option<&str>, home: Option<PathBuf>) -> Option<PathBuf> {
    match flag.or(env).map(str::trim) {
        Some("" | "0" | "none" | "off") => None,
        Some(path) => Some(PathBuf::from(path)),
        None => home.map(|home| home.join(".cache/pdn-wnv")),
    }
}

/// An on-disk cache of simulated [`NoiseReport`] groups.
#[derive(Debug, Clone)]
pub struct WnvCache {
    dir: PathBuf,
}

impl WnvCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<WnvCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(WnvCache { dir })
    }

    /// The cache directory a run is configured with: `flag` (the CLI's
    /// `--cache-dir`) if given, else `PDN_CACHE_DIR` if set, else
    /// `~/.cache/pdn-wnv`. `None` when caching is off: the setting is
    /// empty, `0`, `none` or `off`, or no home directory is known.
    pub fn configured_dir(flag: Option<&str>) -> Option<PathBuf> {
        let env = std::env::var("PDN_CACHE_DIR").ok();
        resolve_dir(flag, env.as_deref(), std::env::var_os("HOME").map(PathBuf::from))
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.wnv", key.hex()))
    }

    /// Looks one vector's entry up, verifying its integrity digest. A
    /// missing entry returns `None`; a corrupt one is deleted, counted as
    /// an invalidation, and also returns `None` so the caller re-simulates.
    pub fn lookup(&self, key: CacheKey) -> Option<NoiseReport> {
        let path = self.entry_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!("warning: wnv cache: cannot read {}: {e}", path.display());
                return None;
            }
        };
        match decode_entry(&bytes, key) {
            Ok(report) => Some(report),
            Err(e) => {
                eprintln!(
                    "warning: wnv cache: dropping corrupt entry {}: {e}",
                    path.display()
                );
                telemetry::counter_add("sim.wnv.cache.invalidations", 1);
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Atomically stores one vector's report under `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the cache is left without the entry (never
    /// with a partial one).
    pub fn store(&self, key: CacheKey, report: &NoiseReport) -> io::Result<()> {
        let payload = encode_entry(key, report);
        fsio::atomic_write(self.entry_path(key), &payload)
    }
}

/// Runs a vector group through `cache` when one is given, else simulates
/// it directly. Each vector whose key hits is served from disk; only the
/// misses are simulated, together in one [`WnvRunner::run_group`] (bitwise
/// identical to solo runs), and stored. Changing one vector of a cached
/// group therefore costs one simulation, not the whole group. A store
/// failure degrades to a warning: the simulated reports are still
/// returned.
///
/// # Errors
///
/// [`crate::SimError::TimeStepMismatch`] for a vector sampled at another
/// time step than the runner's, before any lookup; propagates simulator
/// failures on the miss path.
pub fn run_group_cached(
    cache: Option<&WnvCache>,
    runner: &WnvRunner,
    grid: &PowerGrid,
    vectors: &[TestVector],
) -> SimResult<Vec<NoiseReport>> {
    let Some(cache) = cache else {
        return runner.run_group(vectors);
    };
    // Before any lookup: an entry stored for a mismatched vector (by a
    // build that did not check) must not answer it.
    let dt = Seconds(runner.simulator().time_step());
    for v in vectors {
        check_time_step(dt, v)?;
    }
    let base = group_digest(grid, runner);
    let keys: Vec<CacheKey> = vectors.iter().map(|v| vector_cache_key_from(&base, v)).collect();
    let mut results: Vec<Option<NoiseReport>> = keys.iter().map(|&k| cache.lookup(k)).collect();
    let missing: Vec<usize> = (0..vectors.len()).filter(|&i| results[i].is_none()).collect();
    telemetry::counter_add("sim.wnv.cache.hits", (vectors.len() - missing.len()) as u64);
    telemetry::counter_add("sim.wnv.cache.misses", missing.len() as u64);
    if !missing.is_empty() {
        let group: Vec<TestVector> = missing.iter().map(|&i| vectors[i].clone()).collect();
        for (&i, report) in missing.iter().zip(runner.run_group(&group)?) {
            match cache.store(keys[i], &report) {
                Ok(()) => telemetry::counter_add("sim.wnv.cache.stores", 1),
                Err(e) => {
                    eprintln!("warning: wnv cache: cannot store entry {}: {e}", keys[i].hex())
                }
            }
            results[i] = Some(report);
        }
    }
    Ok(results.into_iter().map(|r| r.expect("every miss was simulated")).collect())
}

/// A size/age summary of a cache directory (`pdn cache stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of `.wnv` entries.
    pub entries: usize,
    /// Their combined size in bytes.
    pub total_bytes: u64,
    /// Age of the oldest entry (`None` for an empty cache).
    pub oldest_age: Option<Duration>,
    /// Age of the newest entry (`None` for an empty cache).
    pub newest_age: Option<Duration>,
}

/// What one [`WnvCache::gc`] sweep removed and what survived it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries deleted.
    pub removed: usize,
    /// Bytes those entries occupied.
    pub freed_bytes: u64,
    /// Entries still present after the sweep.
    pub kept: usize,
    /// Bytes they occupy.
    pub kept_bytes: u64,
}

/// One entry's bookkeeping data, oldest-first sort key included.
#[derive(Debug, Clone)]
struct EntryMeta {
    path: PathBuf,
    bytes: u64,
    modified: std::time::SystemTime,
}

impl WnvCache {
    /// Enumerates the cache's `.wnv` entries, oldest first (modification
    /// time, ties broken by file name so eviction order is stable).
    fn scan(&self) -> io::Result<Vec<EntryMeta>> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wnv") {
                continue;
            }
            let meta = match entry.metadata() {
                Ok(m) if m.is_file() => m,
                _ => continue,
            };
            let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push(EntryMeta { path, bytes: meta.len(), modified });
        }
        entries.sort_by(|a, b| a.modified.cmp(&b.modified).then_with(|| a.path.cmp(&b.path)));
        Ok(entries)
    }

    /// Sizes up the cache: entry count, total bytes, and the ages of the
    /// oldest and newest entries. Non-entry files in the directory are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan errors.
    pub fn stats(&self) -> io::Result<CacheStats> {
        let entries = self.scan()?;
        let now = std::time::SystemTime::now();
        let age = |e: &EntryMeta| now.duration_since(e.modified).unwrap_or(Duration::ZERO);
        Ok(CacheStats {
            entries: entries.len(),
            total_bytes: entries.iter().map(|e| e.bytes).sum(),
            oldest_age: entries.first().map(age),
            newest_age: entries.last().map(age),
        })
    }

    /// Evicts entries until both bounds hold: entries older than `max_age`
    /// always go, then the oldest survivors go until the combined size fits
    /// in `max_bytes`. A `None` bound leaves that dimension unconstrained,
    /// so `gc(None, None)` removes nothing. Each eviction counts on
    /// `sim.wnv.cache.evictions`.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan errors; an entry that cannot be deleted is
    /// reported as a warning, counted as kept, and the sweep continues.
    pub fn gc(&self, max_bytes: Option<u64>, max_age: Option<Duration>) -> io::Result<GcReport> {
        let entries = self.scan()?;
        let now = std::time::SystemTime::now();
        let mut evict = vec![false; entries.len()];
        if let Some(limit) = max_age {
            for (e, flag) in entries.iter().zip(&mut evict) {
                *flag = now.duration_since(e.modified).is_ok_and(|age| age > limit);
            }
        }
        if let Some(limit) = max_bytes {
            let mut kept_bytes: u64 =
                entries.iter().zip(&evict).filter(|&(_, &gone)| !gone).map(|(e, _)| e.bytes).sum();
            // `scan` returns oldest first, so this walk evicts by age.
            for (e, flag) in entries.iter().zip(&mut evict) {
                if kept_bytes <= limit {
                    break;
                }
                if !*flag {
                    *flag = true;
                    kept_bytes -= e.bytes;
                }
            }
        }
        let mut report = GcReport::default();
        for (e, flag) in entries.iter().zip(&evict) {
            if *flag {
                match std::fs::remove_file(&e.path) {
                    Ok(()) => {
                        report.removed += 1;
                        report.freed_bytes += e.bytes;
                        telemetry::counter_add("sim.wnv.cache.evictions", 1);
                        continue;
                    }
                    Err(err) => {
                        eprintln!("warning: wnv cache: cannot evict {}: {err}", e.path.display());
                    }
                }
            }
            report.kept += 1;
            report.kept_bytes += e.bytes;
        }
        Ok(report)
    }
}

fn encode_entry(key: CacheKey, r: &NoiseReport) -> Vec<u8> {
    let mut w = Writer::new(MAGIC);
    w.u64(key.0);
    let (rows, cols) = r.worst_noise.shape();
    w.u32(rows as u32);
    w.u32(cols as u32);
    r.worst_noise.as_slice().iter().for_each(|&v| w.f64(v));
    w.f64(r.max_noise.0);
    w.u64(r.elapsed.as_nanos() as u64);
    w.u64(r.stats.steps as u64);
    w.u64(r.stats.cg_iterations as u64);
    w.f64(r.stats.worst_residual);
    w.seal()
}

fn decode_entry(bytes: &[u8], expected: CacheKey) -> io::Result<NoiseReport> {
    let mut r = Reader::sealed(bytes, MAGIC, "entry")?;
    if r.u64()? != expected.0 {
        return Err(invalid("entry key does not match its address"));
    }
    let (rows, cols) = (r.u32()? as usize, r.u32()? as usize);
    let data = r.f64s(rows.saturating_mul(cols), "tile map")?;
    let worst_noise = TileMap::from_vec(rows, cols, data)
        .map_err(|e| invalid(format!("bad tile map: {e}")))?;
    let report = NoiseReport {
        worst_noise,
        max_noise: Volts(r.f64()?),
        elapsed: Duration::from_nanos(r.u64()?),
        stats: TransientStats {
            steps: r.u64()? as usize,
            cg_iterations: r.u64()? as usize,
            worst_residual: r.f64()?,
        },
    };
    r.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};

    fn fixture() -> (PowerGrid, WnvRunner, Vec<TestVector>) {
        let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
        let runner = WnvRunner::new(&grid).unwrap();
        let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
        let vectors = gen.generate_group(3, 17);
        (grid, runner, vectors)
    }

    fn tmp_cache(tag: &str) -> WnvCache {
        let dir = std::env::temp_dir().join(format!("pdn_wnv_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WnvCache::open(dir).unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("roundtrip");
        let first = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        let second = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.worst_noise, b.worst_noise);
            assert_eq!(a.max_noise, b.max_noise);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.elapsed, b.elapsed);
        }
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn second_run_hits_and_skips_simulation() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("hits");
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let _ = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.misses"), 3);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.stores"), 3);
        let simulated_after_first =
            pdn_core::telemetry::counter_value("sim.wnv.vectors");
        let _ = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.hits"), 3);
        // No additional vectors were simulated on the hit path.
        assert_eq!(
            pdn_core::telemetry::counter_value("sim.wnv.vectors"),
            simulated_after_first
        );
        pdn_core::telemetry::reset();
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn changing_one_vector_resimulates_only_it() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("partial");
        let solo: Vec<NoiseReport> =
            vectors.iter().map(|v| runner.run(v).unwrap()).collect();
        let _ = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        // Swap the middle vector for a fresh one; the other two must hit.
        let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
        let mut changed = vectors.clone();
        changed[1] = gen.generate_group(1, 99).pop().unwrap();
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let reports = run_group_cached(Some(&cache), &runner, &grid, &changed).unwrap();
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.hits"), 2);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.misses"), 1);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.stores"), 1);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.vectors"), 1);
        pdn_core::telemetry::reset();
        // Reports come back in input order, the cached ones bit-identical
        // to solo simulation.
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].worst_noise, solo[0].worst_noise);
        assert_eq!(reports[2].worst_noise, solo[2].worst_noise);
        let solo_changed = runner.run(&changed[1]).unwrap();
        assert_eq!(reports[1].worst_noise, solo_changed.worst_noise);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn a_group_that_repeats_a_vector_gets_the_same_report_for_each_copy() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("repeat");
        let solo = runner.run(&vectors[0]).unwrap();
        let group = [vectors[0].clone(), vectors[1].clone(), vectors[0].clone()];
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        // The first run simulates both copies in one lockstep batch and
        // stores each; the second serves both from the one entry.
        for (hits, stores) in [(0, 3), (3, 3)] {
            let reports = run_group_cached(Some(&cache), &runner, &grid, &group).unwrap();
            assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.hits"), hits);
            assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.stores"), stores);
            for r in [&reports[0], &reports[2]] {
                assert_eq!(r.worst_noise, solo.worst_noise);
                assert_eq!(r.max_noise, solo.max_noise);
            }
        }
        pdn_core::telemetry::reset();
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn key_changes_with_inputs() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let base = cache_key(&grid, &vectors[0], &runner);
        // Different vector bytes.
        let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
        let other = gen.generate_group(3, 18);
        assert_ne!(base, cache_key(&grid, &other[0], &runner));
        // A sibling vector from the same group.
        assert_ne!(base, cache_key(&grid, &vectors[1], &runner));
        // Different grid build seed (same spec).
        let grid2 = DesignPreset::D1.spec(DesignScale::Tiny).build(2).unwrap();
        let runner2 = WnvRunner::new(&grid2).unwrap();
        assert_ne!(base, cache_key(&grid2, &vectors[0], &runner2));
    }

    #[test]
    fn corrupt_entry_falls_back_to_simulation() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("corrupt");
        let first = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        let key = cache_key(&grid, &vectors[0], &runner);
        let path = cache.dir().join(format!("{}.wnv", key.hex()));
        // Flip one payload byte: the integrity seal must reject the entry.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let again = run_group_cached(Some(&cache), &runner, &grid, &vectors).unwrap();
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.invalidations"), 1);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.misses"), 1);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.hits"), 2);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.worst_noise, b.worst_noise);
        }
        pdn_core::telemetry::reset();
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn truncated_entries_rejected_at_every_offset() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let cache = tmp_cache("truncate");
        let report = runner.run(&vectors[0]).unwrap();
        let key = cache_key(&grid, &vectors[0], &runner);
        cache.store(key, &report).unwrap();
        let full = std::fs::read(cache.dir().join(format!("{}.wnv", key.hex()))).unwrap();
        for cut in [0, 1, 7, 8, 19, full.len() / 2, full.len() - 1] {
            let err = decode_entry(&full[..cut], key).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        assert_eq!(decode_entry(&full, key).unwrap().worst_noise, report.worst_noise);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    fn backdate(path: &Path, secs_ago: u64) {
        let t = std::time::SystemTime::now() - Duration::from_secs(secs_ago);
        std::fs::File::options().write(true).open(path).unwrap().set_modified(t).unwrap();
    }

    #[test]
    fn stats_counts_only_entries() {
        let _serial = crate::telemetry_test_lock();
        let (_, runner, vectors) = fixture();
        let cache = tmp_cache("stats");
        let report = runner.run(&vectors[0]).unwrap();
        for k in 1..=3u64 {
            cache.store(CacheKey(k), &report).unwrap();
        }
        std::fs::write(cache.dir().join("notes.txt"), b"not an entry").unwrap();
        let entry_bytes =
            std::fs::metadata(cache.dir().join(format!("{}.wnv", CacheKey(1).hex())))
                .unwrap()
                .len();
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.total_bytes, 3 * entry_bytes);
        assert!(stats.oldest_age.unwrap() >= stats.newest_age.unwrap());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn gc_evicts_by_age_then_size_oldest_first() {
        let _serial = crate::telemetry_test_lock();
        let (_, runner, vectors) = fixture();
        let cache = tmp_cache("gc");
        let report = runner.run(&vectors[0]).unwrap();
        let path_of = |k: u64| cache.dir().join(format!("{}.wnv", CacheKey(k).hex()));
        for k in 1..=3u64 {
            cache.store(CacheKey(k), &report).unwrap();
        }
        let entry_bytes = std::fs::metadata(path_of(1)).unwrap().len();
        backdate(&path_of(1), 1000);
        backdate(&path_of(2), 500);

        // Unbounded sweep is a no-op.
        let noop = cache.gc(None, None).unwrap();
        assert_eq!(noop, GcReport { removed: 0, freed_bytes: 0, kept: 3, kept_bytes: 3 * entry_bytes });

        // Age bound: only the 1000 s-old entry exceeds 750 s.
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let aged = cache.gc(None, Some(Duration::from_secs(750))).unwrap();
        assert_eq!(aged.removed, 1);
        assert_eq!(aged.freed_bytes, entry_bytes);
        assert_eq!(aged.kept, 2);
        assert!(!path_of(1).exists());
        assert!(path_of(2).exists() && path_of(3).exists());
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.evictions"), 1);
        pdn_core::telemetry::reset();

        // Size bound: room for one entry, so the older survivor goes.
        let sized = cache.gc(Some(entry_bytes), None).unwrap();
        assert_eq!(sized.removed, 1);
        assert_eq!(sized.kept, 1);
        assert_eq!(sized.kept_bytes, entry_bytes);
        assert!(!path_of(2).exists());
        assert!(path_of(3).exists());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn entry_under_wrong_address_rejected() {
        let _serial = crate::telemetry_test_lock();
        let (grid, runner, vectors) = fixture();
        let report = runner.run(&vectors[0]).unwrap();
        let key = cache_key(&grid, &vectors[0], &runner);
        let bytes = encode_entry(key, &report);
        let err = decode_entry(&bytes, CacheKey(key.0 ^ 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn overstated_map_size_rejected_before_allocating() {
        // A correctly sealed entry whose header claims a 2^20 x 2^20 map
        // (8 TiB of f64) but carries one tile's worth of payload.
        let key = CacheKey(42);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&key.0.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 20).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8 + 40]);
        let seal = fsio::digest_bytes(&bytes[MAGIC.len()..]);
        bytes.extend_from_slice(&seal.to_le_bytes());
        let err = decode_entry(&bytes, key).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("longer than the entry"), "{err}");
    }

    #[test]
    fn entry_bytes_are_pinned() {
        let tiles = vec![0.0, 1e-3, -2.5, f64::MIN_POSITIVE, 0.125, 3.0];
        let report = NoiseReport {
            worst_noise: TileMap::from_vec(2, 3, tiles).unwrap(),
            max_noise: Volts(3.0),
            elapsed: Duration::from_nanos(1_234_567_890),
            stats: TransientStats { steps: 40, cg_iterations: 1234, worst_residual: 1e-9 },
        };
        let key = CacheKey(0x0123_4567_89ab_cdef);
        let bytes = encode_entry(key, &report);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        // Recorded from the encoder before it moved onto `pdn_core::codec`.
        let pinned = concat!(
            "50444e574e564332", // magic PDNWNVC2
            "efcdab8967452301", // key echo
            "02000000",         // rows
            "03000000",         // cols
            "0000000000000000fca9f1d24d62503f00000000000004c0", // tiles, row 0
            "0000000000001000000000000000c03f0000000000000840", // tiles, row 1
            "0000000000000840", // max noise
            "d202964900000000", // elapsed, ns
            "2800000000000000", // steps
            "d204000000000000", // CG iterations
            "95d626e80b2e113e", // worst residual
            "2b14db702717457c", // seal
        );
        assert_eq!(hex, pinned);
        let back = decode_entry(&bytes, key).unwrap();
        assert_eq!(back.worst_noise, report.worst_noise);
        assert_eq!(back.max_noise, report.max_noise);
        assert_eq!((back.elapsed, back.stats), (report.elapsed, report.stats));
    }

    #[test]
    fn every_off_keyword_disables_the_cache_through_flag_and_environment() {
        let home = || Some(PathBuf::from("/home/u"));
        for off in ["", "0", "none", "off", " none "] {
            assert_eq!(resolve_dir(Some(off), None, home()), None, "--cache-dir {off:?}");
            assert_eq!(resolve_dir(None, Some(off), home()), None, "PDN_CACHE_DIR={off:?}");
            // The flag wins in both directions.
            assert_eq!(resolve_dir(Some(off), Some("/env"), home()), None, "--cache-dir {off:?}");
            assert_eq!(
                resolve_dir(Some("/flag"), Some(off), home()),
                Some(PathBuf::from("/flag")),
                "--cache-dir over PDN_CACHE_DIR={off:?}"
            );
        }
        assert_eq!(resolve_dir(None, Some(" /env "), home()), Some(PathBuf::from("/env")));
        assert_eq!(resolve_dir(None, None, home()), Some(PathBuf::from("/home/u/.cache/pdn-wnv")));
        assert_eq!(resolve_dir(None, None, None), None, "no home directory");
    }
}
