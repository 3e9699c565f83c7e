//! Transient and static PDN simulation — the ground-truth engine.
//!
//! This crate plays the role of the paper's "commercial PDN sign-off tool":
//! it produces the worst-case dynamic noise maps used to train the CNN, the
//! hotspot classifications, and the runtime baseline for the speedup
//! comparisons (Tables 1–2).
//!
//! The mathematics follow the paper's §2 exactly: dynamic analysis is a
//! sequence of static solves with a constant system matrix and changing
//! right-hand sides. Discretizing the RC/RL network with backward Euler at
//! time step Δt gives
//!
//! ```text
//! (G + C/Δt + Σ_b g_b) · v(k+1) = C/Δt · v(k) − I_load(k+1) + Σ_b g_b·(V_dd + (L_b/Δt)·i_b(k))
//! ```
//!
//! where `g_b = 1 / (R_b + L_b/Δt)` is the companion conductance of bump
//! `b`'s series-RL package branch and `i_b` its branch-current state. The
//! constant matrix is prepared once per design — its IC(0) preconditioner
//! for the default warm-started CG, or its supernodal Cholesky factor for
//! the direct solver — and every step is one solve against it.
//!
//! * [`transient::TransientSimulator`] — the time-marching engine;
//! * [`static_ir::StaticAnalysis`] — DC IR-drop solve (resistive only);
//! * [`wnv`] — worst-case noise validation: per-tile max-over-time droop
//!   maps (Eq. (2)), hotspot extraction and runtime accounting.
//!
//! # Example
//!
//! ```
//! use pdn_grid::design::{DesignPreset, DesignScale};
//! use pdn_sim::wnv::WnvRunner;
//! use pdn_vectors::scenario::Scenario;
//!
//! let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
//! let runner = WnvRunner::new(&grid).unwrap();
//! let vector = Scenario::IdleThenBurst.render(&grid, 60);
//! let report = runner.run(&vector).unwrap();
//! assert!(report.worst_noise.max() > 0.0); // some droop somewhere
//! ```

pub mod cache;
pub mod error;
pub mod probe;
pub mod static_ir;
pub mod transient;
pub mod wnv;

pub use cache::{CacheKey, CacheStats, GcReport, WnvCache};

/// Serializes the unit tests that simulate or use the ground-truth cache.
/// They record into the process-global telemetry registry, and some assert
/// exact counter values, so their windows must not overlap.
#[cfg(test)]
pub(crate) fn telemetry_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
pub use error::{SimError, SimResult};
pub use probe::{ProbeSet, ProbeTrace};
pub use static_ir::StaticAnalysis;
pub use transient::{SolverKind, TransientSimulator, TransientStats};
pub use wnv::{NoiseReport, WnvRunner};
