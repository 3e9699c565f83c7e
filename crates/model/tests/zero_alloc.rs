//! Proves that `Predictor::predict_batch` performs zero heap allocations in
//! steady state, that the training forward `WnvModel::forward` allocates
//! only the map it returns, and that an Adam step over the model allocates
//! nothing: a counting global allocator wraps `System`, warm-up passes size
//! every buffer, and the measured pass must leave the counter untouched (or
//! at the returned map's two buffers).
//!
//! Kept as its own integration-test binary so the global allocator cannot
//! interfere with any other test; the tests here take one lock so that
//! neither counts the other's allocations.

use pdn_features::normalize::Normalizer;
use pdn_grid::design::{DesignPreset, DesignScale};
use pdn_model::model::{ModelConfig, Predictor, WnvModel};
use pdn_nn::optim::Adam;
use pdn_nn::tensor::Tensor;
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests of this binary, which share the global counter.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn predict_batch_steady_state_is_allocation_free() {
    let _serial = serial();
    let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 20, ..Default::default() });
    let vectors = gen.generate_group(4, 11);
    let (rows, cols) = (grid.tile_grid().rows(), grid.tile_grid().cols());
    let bumps = grid.bumps().len();
    let distance = Tensor::from_fn3(bumps, rows, cols, |b, r, c| {
        ((b * 13 + r * 5 + c) % 17) as f32 * 0.06
    });
    let mut predictor = Predictor::from_parts(
        WnvModel::new(bumps, ModelConfig { c1: 2, c2: 2, c3: 2 }, 7),
        distance,
        Normalizer::with_scale(2.0),
        Normalizer::with_scale(3.0),
        Some(pdn_compress::temporal::TemporalCompressor::new(0.5, 0.1).unwrap()),
    );
    let mut out = Vec::new();

    // Two warm-up passes size the output maps and every internal scratch
    // buffer (one would do; two guards against buffers that only stabilize
    // after the first reuse).
    predictor.predict_batch(&grid, &vectors, &mut out);
    predictor.predict_batch(&grid, &vectors, &mut out);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    predictor.predict_batch(&grid, &vectors, &mut out);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "predict_batch allocated {} times in steady state",
        after - before
    );
    assert_eq!(out.len(), vectors.len());
    assert!(out.iter().all(|m| m.shape() == (rows, cols)));
}

#[test]
fn training_forward_allocates_only_the_returned_map() {
    let _serial = serial();
    // D1 at CI scale: 9 bumps, 24 x 24 tiles, the default kernel counts
    // and 12 kept current maps.
    let (bumps, rows, cols) = (9, 24, 24);
    let distance = Tensor::from_fn3(bumps, rows, cols, |b, r, c| {
        ((b * 13 + r * 5 + c) % 17) as f32 * 0.06
    });
    let currents: Vec<Tensor> = (0..12)
        .map(|t| Tensor::from_fn3(1, rows, cols, |_, r, c| ((t * 7 + r * 3 + c) % 11) as f32 * 0.1))
        .collect();
    let mut model = WnvModel::new(bumps, ModelConfig::default(), 3);

    // A training step (forward, then backward) sizes every buffer; the
    // second forward must reuse them all.
    let out = model.forward(&distance, &currents);
    model.backward(&out);
    let want = model.forward(&distance, &currents);
    model.backward(&want);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let got = model.forward(&distance, &currents);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    // The returned map owns two buffers: its shape and its data.
    assert_eq!(
        after - before,
        2,
        "WnvModel::forward allocated {} times in steady state",
        after - before
    );
    assert_eq!(got, want);
}

#[test]
fn a_warm_optimizer_step_is_allocation_free() {
    let _serial = serial();
    // The paper's kernel counts on D1's 9 bumps: 48 parameter tensors.
    let mut model = WnvModel::new(9, ModelConfig::default(), 3);
    let mut adam = Adam::new(1e-3);
    let mut step = |model: &mut WnvModel| {
        adam.begin_step();
        model.visit_params(&mut |p| adam.update_param(p));
    };
    step(&mut model);

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    step(&mut model);
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "an Adam step allocated {} times", after - before);
}
