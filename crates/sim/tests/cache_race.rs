//! Concurrency tests for the ground-truth cache: two threads that miss one
//! key at once both simulate and store it, and a reader racing them only
//! ever sees no entry or a whole one.
//!
//! These live in their own test binary because they assert exact values of
//! process-global telemetry counters, which must not race with unrelated
//! tests sharing the process.

use pdn_core::telemetry;
use pdn_core::units::Seconds;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_sim::cache::{cache_key, run_group_cached, WnvCache};
use pdn_sim::wnv::{NoiseReport, WnvRunner};
use pdn_sim::SimError;
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_vectors::vector::TestVector;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Serializes this binary's tests: both simulate, and the first asserts
/// exact values of the process-global counters those simulations record.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_cache(tag: &str) -> (PathBuf, WnvCache) {
    let dir = std::env::temp_dir().join(format!("pdn_wnv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = WnvCache::open(&dir).unwrap();
    (dir, cache)
}

#[test]
fn racing_misses_on_one_key_both_return_the_solo_report() {
    let _serial = serial();
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 30, ..Default::default() });
    let vectors = gen.generate_group(1, 17);
    let (dir, cache) = temp_cache("race");

    // The reference report, simulated outside the cache.
    let solo_runner = WnvRunner::new(&grid).unwrap();
    let reference = solo_runner.run(&vectors[0]).unwrap();
    let key = cache_key(&grid, &vectors[0], &solo_runner);
    let is_reference = |r: &NoiseReport| {
        r.worst_noise == reference.worst_noise && r.max_noise == reference.max_noise
    };

    telemetry::reset();
    telemetry::enable();

    // Two writers miss the key at once; a reader looks it up until both
    // are done. A torn entry would fail its seal, and the lookup would
    // count an invalidation.
    let barrier = Barrier::new(3);
    let finished = AtomicUsize::new(0);
    let (reports, seen) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let cache = cache.clone();
                let (grid, vectors, barrier, finished) = (&grid, &vectors, &barrier, &finished);
                s.spawn(move || {
                    let runner = WnvRunner::new(grid).unwrap();
                    barrier.wait();
                    let mut group = run_group_cached(Some(&cache), &runner, grid, vectors).unwrap();
                    finished.fetch_add(1, Ordering::SeqCst);
                    group.pop().unwrap()
                })
            })
            .collect();
        let reader = s.spawn(|| {
            barrier.wait();
            let mut seen = 0usize;
            loop {
                let done = finished.load(Ordering::SeqCst) == 2;
                if let Some(r) = cache.lookup(key) {
                    assert!(is_reference(&r), "a reader saw another report under the key");
                    seen += 1;
                }
                if done {
                    break;
                }
            }
            seen
        });
        let reports: Vec<NoiseReport> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        (reports, reader.join().unwrap())
    });

    for r in &reports {
        assert!(is_reference(r), "a racing miss returned another report than a solo run");
    }
    assert!(seen >= 1, "the reader never saw the entry after both writers finished");
    assert_eq!(telemetry::counter_value("sim.wnv.cache.invalidations"), 0);
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "staging files left behind: {leftovers:?}");
    assert!(is_reference(&cache.lookup(key).expect("one sealed entry")));

    telemetry::reset();
    let _ = std::fs::remove_dir_all(&dir);
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
    let (dir, cache) = temp_cache("planted");
    cache.store(cache_key(&grid, &bad, &runner), &report).unwrap();

    let err = run_group_cached(Some(&cache), &runner, &grid, &[good.clone(), bad]).unwrap_err();
    assert!(matches!(err, SimError::TimeStepMismatch { .. }), "{err}");
    assert_eq!(run_group_cached(Some(&cache), &runner, &grid, &[good]).unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
