//! Concurrency tests for the ground-truth cache: single-flight
//! deduplication of racing misses and the `CacheStore` trait seam.
//!
//! These live in their own test binary because they assert exact values of
//! process-global telemetry counters, which must not race with unrelated
//! tests sharing the process.

use pdn_core::telemetry;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_core::units::Seconds;
use pdn_sim::cache::{cache_key, run_group_store, CacheKey, CacheStore, WnvCache};
use pdn_sim::wnv::{NoiseReport, WnvRunner};
use pdn_sim::SimError;
use pdn_vectors::vector::TestVector;
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use std::collections::HashMap;
use std::io;
use std::sync::{Barrier, Mutex, MutexGuard};

/// Serializes this binary's tests: both simulate, and the first asserts
/// exact values of the process-global counters those simulations record.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn racing_misses_on_one_key_simulate_and_store_once() {
    let _serial = serial();
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let vectors = gen.generate_group(1, 17);

    let dir = std::env::temp_dir()
        .join(format!("pdn_wnv_singleflight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = WnvCache::open(&dir).unwrap();

    telemetry::reset();
    telemetry::enable();

    // The reference report, simulated outside the cache (and outside the
    // telemetry window used for the counter assertions below).
    let reference = WnvRunner::new(&grid).unwrap().run(&vectors[0]).unwrap();
    let sim_count_before = telemetry::counter_value("sim.wnv.vectors");

    let barrier = Barrier::new(2);
    let reports: Vec<NoiseReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let grid = &grid;
                let vectors = &vectors;
                let barrier = &barrier;
                s.spawn(move || {
                    let runner = WnvRunner::new(grid).unwrap();
                    barrier.wait();
                    let mut group = cache.run_group(&runner, grid, vectors).unwrap();
                    group.pop().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactly one thread may simulate and publish; the other is served by
    // single-flight (or, if it arrived late, by a plain cache hit). Either
    // way the simulation and the store happen once.
    assert_eq!(
        telemetry::counter_value("sim.wnv.cache.stores"),
        1,
        "two racing misses on one key must store exactly once"
    );
    assert_eq!(
        telemetry::counter_value("sim.wnv.vectors") - sim_count_before,
        1,
        "two racing misses on one key must simulate exactly once"
    );

    for r in &reports {
        assert_eq!(r.max_noise, reference.max_noise);
        assert_eq!(r.worst_noise, reference.worst_noise);
    }

    telemetry::reset();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trivial in-memory backend: proves the group-run logic is written
/// against the `CacheStore` seam, not against the filesystem cache.
#[derive(Default)]
struct MemStore {
    map: Mutex<HashMap<u64, NoiseReport>>,
}

impl CacheStore for MemStore {
    fn lookup(&self, key: CacheKey) -> Option<NoiseReport> {
        self.map.lock().unwrap().get(&key.0).cloned()
    }

    fn store(&self, key: CacheKey, report: &NoiseReport) -> io::Result<()> {
        self.map.lock().unwrap().insert(key.0, report.clone());
        Ok(())
    }
}

#[test]
fn run_group_store_works_against_a_non_filesystem_backend() {
    let _serial = serial();
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
    let runner = WnvRunner::new(&grid).unwrap();
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let vectors = gen.generate_group(2, 23);

    let store = MemStore::default();
    let first = run_group_store(&store, &runner, &grid, &vectors).unwrap();
    assert_eq!(store.map.lock().unwrap().len(), 2);

    // Second run must be served entirely from the backend, bit-identically.
    let second = run_group_store(&store, &runner, &grid, &vectors).unwrap();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.worst_noise, b.worst_noise);
        assert_eq!(a.max_noise, b.max_noise);
    }

    // The trait is object-safe: a fleet backend can be handed around as
    // `&dyn CacheStore`.
    let dyn_store: &dyn CacheStore = &store;
    let third = run_group_store(dyn_store, &runner, &grid, &vectors).unwrap();
    assert_eq!(third.len(), 2);
}

#[test]
fn a_stored_entry_cannot_answer_a_vector_at_another_time_step() {
    let _serial = serial();
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
    let runner = WnvRunner::new(&grid).unwrap();
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let good = gen.generate(29);
    let report = runner.run(&good).unwrap();

    // The same currents at 2.5 ps on the 10 ps grid, with an entry stored
    // under its key, as a build that simulated it at 10 ps would have left.
    let rows: Vec<Vec<f64>> = (0..good.step_count()).map(|k| good.step(k).to_vec()).collect();
    let bad = TestVector::from_rows(rows, Seconds::from_picos(2.5));
    let store = MemStore::default();
    store.store(cache_key(&grid, &bad, &runner), &report).unwrap();

    let err = run_group_store(&store, &runner, &grid, &[good.clone(), bad]).unwrap_err();
    assert!(matches!(err, SimError::TimeStepMismatch { .. }), "{err}");
    assert_eq!(run_group_store(&store, &runner, &grid, &[good]).unwrap().len(), 1);
}
