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
//! * the solver settings ([`TransientSimulator::digest_solver_settings`]);
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
//! Storage is abstracted behind the [`CacheStore`] trait — today's only
//! implementation is the filesystem-backed [`WnvCache`], but the group-run
//! logic ([`run_group_store`]) is written against the trait so a shared
//! fleet backend (HTTP, object store) can slot in without touching callers.
//!
//! Concurrent misses on the same key are **single-flighted**: a process-wide
//! in-flight registry lets exactly one thread simulate and publish a given
//! entry while other threads wait for it and then read the stored result,
//! instead of every thread paying the full simulation and racing to publish.
//!
//! Telemetry: `sim.wnv.cache.hits` / `.misses` / `.invalidations` /
//! `.stores` / `.evictions` count cache outcomes per process;
//! `sim.wnv.cache.single_flight_waits` counts requests served by waiting on
//! another thread's in-flight simulation.

use crate::error::SimResult;
use crate::transient::{check_time_step, TransientStats};
use crate::wnv::{NoiseReport, WnvRunner};
use pdn_core::fsio::{self, Digest};
use pdn_core::map::TileMap;
use pdn_core::telemetry;
use pdn_core::units::{Seconds, Volts};
use pdn_grid::build::PowerGrid;
use pdn_vectors::vector::TestVector;
use std::collections::HashMap;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// Storage backend for ground-truth cache entries.
///
/// [`WnvCache`] is the filesystem implementation; the seam exists so a
/// fleet of serve workers can later share one simulation pool through a
/// remote backend. Implementations must be safe to call from multiple
/// threads: [`run_group_store`] layers single-flight deduplication on top,
/// but `lookup`/`store` themselves may still run concurrently for
/// *different* keys.
pub trait CacheStore: Send + Sync {
    /// Looks one vector's entry up, returning `None` on a miss (including
    /// a corrupt entry the implementation chose to drop).
    fn lookup(&self, key: CacheKey) -> Option<NoiseReport>;

    /// Durably stores one vector's report under `key`. Must be atomic:
    /// a concurrent `lookup` sees either nothing or the complete entry.
    ///
    /// # Errors
    ///
    /// Propagates backend I/O errors; the caller degrades to a warning and
    /// still returns the simulated report.
    fn store(&self, key: CacheKey, report: &NoiseReport) -> io::Result<()>;
}

impl CacheStore for WnvCache {
    fn lookup(&self, key: CacheKey) -> Option<NoiseReport> {
        WnvCache::lookup(self, key)
    }

    fn store(&self, key: CacheKey, report: &NoiseReport) -> io::Result<()> {
        WnvCache::store(self, key, report)
    }
}

/// One in-flight simulation: waiters block on the condvar until the owner
/// finishes (successfully or not) and then re-check the store.
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { done: Mutex::new(false), cv: Condvar::new() }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Process-wide registry of in-flight cache fills, keyed by [`CacheKey`].
///
/// The registry is global rather than per-[`WnvCache`] because `WnvCache`
/// is `Clone` — concurrent callers typically hold *different* clones of the
/// same directory, and per-instance state would not deduplicate across
/// them. Keys are content digests of grid + solver + vector, so distinct
/// cache directories colliding on a key would be computing the identical
/// report anyway.
fn flights() -> &'static Mutex<HashMap<u64, Arc<Flight>>> {
    static FLIGHTS: OnceLock<Mutex<HashMap<u64, Arc<Flight>>>> = OnceLock::new();
    FLIGHTS.get_or_init(|| Mutex::new(HashMap::new()))
}

/// RAII ownership of one in-flight key: dropping (on any path, including
/// unwind or simulator error) deregisters the flight and wakes all waiters,
/// who then re-check the store and simulate themselves if the owner failed.
struct FlightOwner {
    key: u64,
    flight: Arc<Flight>,
}

impl Drop for FlightOwner {
    fn drop(&mut self) {
        let mut m = flights().lock().unwrap_or_else(|e| e.into_inner());
        m.remove(&self.key);
        drop(m);
        let mut done = self.flight.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        self.flight.cv.notify_all();
    }
}

enum Claim {
    Owner(FlightOwner),
    Waiter(Arc<Flight>),
}

/// Claims the right to fill `key`: the first claimant becomes the owner,
/// later claimants get a handle to wait on.
fn claim(key: CacheKey) -> Claim {
    let mut m = flights().lock().unwrap_or_else(|e| e.into_inner());
    match m.entry(key.0) {
        std::collections::hash_map::Entry::Occupied(e) => Claim::Waiter(Arc::clone(e.get())),
        std::collections::hash_map::Entry::Vacant(e) => {
            let flight = Arc::new(Flight::new());
            e.insert(Arc::clone(&flight));
            Claim::Owner(FlightOwner { key: key.0, flight })
        }
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

    /// The default cache directory: `PDN_CACHE_DIR` if set (the values
    /// `0`, `none` and `off` disable caching), else `~/.cache/pdn-wnv`,
    /// else `None` when no home directory is known.
    pub fn default_dir() -> Option<PathBuf> {
        match std::env::var("PDN_CACHE_DIR") {
            Ok(raw) => {
                let raw = raw.trim();
                match raw {
                    "" | "0" | "none" | "off" => None,
                    path => Some(PathBuf::from(path)),
                }
            }
            Err(_) => {
                std::env::var_os("HOME").map(|home| PathBuf::from(home).join(".cache/pdn-wnv"))
            }
        }
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

    /// Cached [`WnvRunner::run_group`] with per-vector granularity: each
    /// vector whose key hits is served from disk; only the misses are
    /// simulated (batched together in one group run, which is bitwise
    /// identical to solo runs) and stored. Changing one vector of a cached
    /// group therefore costs one simulation, not the whole group. A store
    /// failure degrades to a warning — the simulated reports are still
    /// returned. Concurrent misses on the same key across threads are
    /// single-flighted (see [`run_group_store`]).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures on the miss path.
    pub fn run_group(
        &self,
        runner: &WnvRunner,
        grid: &PowerGrid,
        vectors: &[TestVector],
    ) -> SimResult<Vec<NoiseReport>> {
        run_group_store(self, runner, grid, vectors)
    }
}

/// Simulates `missing` as one group and publishes each report to `store`,
/// counting successful stores. Store failures degrade to a warning.
fn simulate_and_publish(
    store: &(impl CacheStore + ?Sized),
    runner: &WnvRunner,
    vectors: &[TestVector],
    idx: &[usize],
    keys: &[CacheKey],
    results: &mut [Option<NoiseReport>],
) -> SimResult<()> {
    let missing: Vec<TestVector> = idx.iter().map(|&i| vectors[i].clone()).collect();
    let simulated = runner.run_group(&missing)?;
    for (&i, report) in idx.iter().zip(simulated) {
        match store.store(keys[i], &report) {
            Ok(()) => telemetry::counter_add("sim.wnv.cache.stores", 1),
            Err(e) => {
                eprintln!("warning: wnv cache: cannot store entry {}: {e}", keys[i].hex())
            }
        }
        results[i] = Some(report);
    }
    Ok(())
}

/// Cached group run against any [`CacheStore`], with single-flight
/// deduplication of concurrent misses.
///
/// For every miss the thread claims the key in the process-wide in-flight
/// registry. Claims it wins are re-checked against the store (another
/// thread may have published between the first lookup and the claim) and
/// then simulated together as one group — keeping the multi-RHS batched
/// solve — and published before the claim is released. Claims another
/// thread already holds are waited on and then served from the store,
/// counted as `sim.wnv.cache.single_flight_waits`; if the owning thread
/// failed (simulator error, store error), the waiter falls back to
/// simulating the leftovers itself, so single-flight can never turn one
/// thread's failure into another's missing result.
///
/// # Errors
///
/// [`crate::SimError::TimeStepMismatch`] for a vector sampled at another
/// time step than the runner's, before any lookup; propagates simulator
/// failures on the miss path.
pub fn run_group_store(
    store: &(impl CacheStore + ?Sized),
    runner: &WnvRunner,
    grid: &PowerGrid,
    vectors: &[TestVector],
) -> SimResult<Vec<NoiseReport>> {
    // Before any lookup: an entry stored for a mismatched vector (by a
    // build that did not check) must not answer it.
    let dt = Seconds(runner.simulator().time_step());
    for v in vectors {
        check_time_step(dt, v)?;
    }
    let base = group_digest(grid, runner);
    let keys: Vec<CacheKey> = vectors.iter().map(|v| vector_cache_key_from(&base, v)).collect();
    let mut results: Vec<Option<NoiseReport>> = keys.iter().map(|&k| store.lookup(k)).collect();
    let hits = results.iter().filter(|r| r.is_some()).count();
    let misses = vectors.len() - hits;
    telemetry::counter_add("sim.wnv.cache.hits", hits as u64);
    telemetry::counter_add("sim.wnv.cache.misses", misses as u64);
    if misses == 0 {
        return Ok(results.into_iter().map(|r| r.expect("all slots filled")).collect());
    }

    // Deduplicate repeated keys inside this group (identical vectors): one
    // representative index goes through the claim/simulate path, the rest
    // copy its result at the end. Without this, claiming the same key twice
    // from one thread would deadlock on our own flight.
    let mut first_of: HashMap<u64, usize> = HashMap::new();
    let mut dups: Vec<(usize, usize)> = Vec::new();
    let mut unique_missing: Vec<usize> = Vec::new();
    for i in 0..vectors.len() {
        if results[i].is_some() {
            continue;
        }
        match first_of.entry(keys[i].0) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
                unique_missing.push(i);
            }
            std::collections::hash_map::Entry::Occupied(e) => dups.push((i, *e.get())),
        }
    }

    let mut owned_idx: Vec<usize> = Vec::new();
    let mut owned_guards: Vec<FlightOwner> = Vec::new();
    let mut waits: Vec<(usize, Arc<Flight>)> = Vec::new();
    for &i in &unique_missing {
        match claim(keys[i]) {
            Claim::Owner(guard) => {
                // Double-check: another thread may have published this key
                // between our lookup above and winning the claim.
                if let Some(report) = store.lookup(keys[i]) {
                    results[i] = Some(report);
                    drop(guard);
                } else {
                    owned_idx.push(i);
                    owned_guards.push(guard);
                }
            }
            Claim::Waiter(flight) => waits.push((i, flight)),
        }
    }

    if !owned_idx.is_empty() {
        // On error the guards drop with the early return, waking waiters so
        // they re-check and simulate for themselves.
        simulate_and_publish(store, runner, vectors, &owned_idx, &keys, &mut results)?;
    }
    // Release our claims only after the entries are published, so woken
    // waiters find them in the store.
    drop(owned_guards);

    let mut leftovers: Vec<usize> = Vec::new();
    for (i, flight) in waits {
        flight.wait();
        match store.lookup(keys[i]) {
            Some(report) => {
                telemetry::counter_add("sim.wnv.cache.single_flight_waits", 1);
                results[i] = Some(report);
            }
            None => leftovers.push(i),
        }
    }
    if !leftovers.is_empty() {
        simulate_and_publish(store, runner, vectors, &leftovers, &keys, &mut results)?;
    }

    for (i, first) in dups {
        results[i] = results[first].clone();
    }
    Ok(results.into_iter().map(|r| r.expect("all slots filled")).collect())
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
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&key.0.to_le_bytes());
    let (rows, cols) = r.worst_noise.shape();
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(cols as u32).to_le_bytes());
    for v in r.worst_noise.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&r.max_noise.0.to_le_bytes());
    out.extend_from_slice(&(r.elapsed.as_nanos() as u64).to_le_bytes());
    out.extend_from_slice(&(r.stats.steps as u64).to_le_bytes());
    out.extend_from_slice(&(r.stats.cg_iterations as u64).to_le_bytes());
    out.extend_from_slice(&r.stats.worst_residual.to_le_bytes());
    // Seal everything after the magic with a content digest; a torn write
    // or flipped bit fails verification on load.
    let seal = fsio::digest_bytes(&out[MAGIC.len()..]);
    out.extend_from_slice(&seal.to_le_bytes());
    out
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn decode_entry(bytes: &[u8], expected: CacheKey) -> io::Result<NoiseReport> {
    if bytes.len() < MAGIC.len() + 8 + 8 + 8 {
        return Err(invalid("entry shorter than header"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(invalid("bad cache-entry magic"));
    }
    let (body, seal_bytes) = bytes.split_at(bytes.len() - 8);
    let seal = u64::from_le_bytes(seal_bytes.try_into().expect("8 bytes"));
    if fsio::digest_bytes(&body[MAGIC.len()..]) != seal {
        return Err(invalid("integrity digest mismatch (torn or corrupt entry)"));
    }
    let mut r = &body[MAGIC.len()..];
    let key = read_u64(&mut r)?;
    if key != expected.0 {
        return Err(invalid("entry key does not match its address"));
    }
    let rows = read_u32(&mut r)?;
    let cols = read_u32(&mut r)?;
    // The seal is not cryptographic, so a crafted header can pass it: bound
    // the allocation by the bytes actually present.
    let n = (rows as usize)
        .checked_mul(cols as usize)
        .filter(|&n| n <= r.len() / 8)
        .ok_or_else(|| invalid("tile map longer than the entry"))?;
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(read_f64(&mut r)?);
    }
    let worst_noise = TileMap::from_vec(rows as usize, cols as usize, data)
        .map_err(|e| invalid(format!("bad tile map: {e}")))?;
    let max_noise = Volts(read_f64(&mut r)?);
    let elapsed = Duration::from_nanos(read_u64(&mut r)?);
    let stats = TransientStats {
        steps: read_u64(&mut r)? as usize,
        cg_iterations: read_u64(&mut r)? as usize,
        worst_residual: read_f64(&mut r)?,
    };
    if !r.is_empty() {
        return Err(invalid("trailing bytes after report"));
    }
    Ok(NoiseReport { worst_noise, max_noise, elapsed, stats })
}

fn read_u32(r: &mut &[u8]) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|_| invalid("truncated entry"))?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut &[u8]) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|_| invalid("truncated entry"))?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut &[u8]) -> io::Result<f64> {
    read_u64(r).map(f64::from_bits)
}

/// Convenience: runs the group through `cache` when one is provided,
/// otherwise simulates directly.
///
/// # Errors
///
/// Propagates simulator failures.
pub fn run_group_cached(
    cache: Option<&WnvCache>,
    runner: &WnvRunner,
    grid: &PowerGrid,
    vectors: &[TestVector],
) -> SimResult<Vec<NoiseReport>> {
    match cache {
        Some(c) => c.run_group(runner, grid, vectors),
        None => runner.run_group(vectors),
    }
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
        let first = cache.run_group(&runner, &grid, &vectors).unwrap();
        let second = cache.run_group(&runner, &grid, &vectors).unwrap();
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
        let _ = cache.run_group(&runner, &grid, &vectors).unwrap();
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.misses"), 3);
        assert_eq!(pdn_core::telemetry::counter_value("sim.wnv.cache.stores"), 3);
        let simulated_after_first =
            pdn_core::telemetry::counter_value("sim.wnv.vectors");
        let _ = cache.run_group(&runner, &grid, &vectors).unwrap();
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
        let _ = cache.run_group(&runner, &grid, &vectors).unwrap();
        // Swap the middle vector for a fresh one; the other two must hit.
        let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
        let mut changed = vectors.clone();
        changed[1] = gen.generate_group(1, 99).pop().unwrap();
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let reports = cache.run_group(&runner, &grid, &changed).unwrap();
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
        let first = cache.run_group(&runner, &grid, &vectors).unwrap();
        let key = cache_key(&grid, &vectors[0], &runner);
        let path = cache.dir().join(format!("{}.wnv", key.hex()));
        // Flip one payload byte: the integrity seal must reject the entry.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        pdn_core::telemetry::reset();
        pdn_core::telemetry::enable();
        let again = cache.run_group(&runner, &grid, &vectors).unwrap();
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
}
