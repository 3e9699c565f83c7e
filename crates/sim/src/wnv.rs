//! Worst-case noise validation (WNV): the paper's Eq. (1)/(2).
//!
//! Runs the full transient for a test vector and reduces node voltages to
//! the per-tile worst-case (max over bottom-layer nodes and over time) droop
//! map — the ground truth the CNN is trained to predict, and the runtime
//! baseline for the speedup columns of Table 2.

use crate::error::SimResult;
use crate::transient::{SolverKind, TransientSimulator, TransientStats};
use pdn_core::geom::TileIndex;
use pdn_core::map::TileMap;
use pdn_core::units::Volts;
use pdn_grid::build::{NodeId, PowerGrid};
use pdn_vectors::vector::TestVector;
use std::time::{Duration, Instant};

/// Number of vectors marched per lockstep batch in
/// [`WnvRunner::run_group`]: the sparse kernels' widest batch, small
/// enough that the interleaved state of a batch still fits in cache
/// alongside the shared factorization.
pub const DEFAULT_BATCH: usize = pdn_sparse::MAX_LOCKSTEP;

/// Result of one WNV run.
#[derive(Debug, Clone)]
pub struct NoiseReport {
    /// Per-tile worst-case droop, in volts:
    /// `max_{t} max_{i ∈ T_j} (vdd − v_i(t))` over bottom-layer nodes.
    pub worst_noise: TileMap,
    /// The single worst droop across the die (Eq. (1) left-hand side).
    pub max_noise: Volts,
    /// Wall-clock time of the simulation. A report from a lockstep batch
    /// carries the batch's wall time divided by its width, so summing
    /// reports gives the simulator's total time.
    pub elapsed: Duration,
    /// Solver statistics.
    pub stats: TransientStats,
}

impl NoiseReport {
    /// Tiles whose worst-case noise exceeds `threshold` — the paper's
    /// hotspots (threshold = 10 % of V<sub>nom</sub>).
    pub fn hotspots(&self, threshold: Volts) -> Vec<TileIndex> {
        self.worst_noise.iter().filter(|(_, v)| *v > threshold.0).map(|(t, _)| t).collect()
    }

    /// Hotspot ratio: hotspot tiles / all tiles (Table 1's last column).
    /// An empty tile map has no hotspots, so its ratio is 0 (not NaN).
    pub fn hotspot_ratio(&self, threshold: Volts) -> f64 {
        if self.worst_noise.is_empty() {
            return 0.0;
        }
        self.hotspots(threshold).len() as f64 / self.worst_noise.len() as f64
    }

    /// Mean worst-case noise across tiles, in volts (Table 1's "Mean WN").
    pub fn mean_noise(&self) -> Volts {
        Volts(self.worst_noise.mean())
    }
}

/// A prepared WNV engine for one grid.
///
/// # Example
///
/// ```
/// use pdn_grid::design::{DesignPreset, DesignScale};
/// use pdn_sim::wnv::WnvRunner;
/// use pdn_vectors::scenario::Scenario;
///
/// let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
/// let runner = WnvRunner::new(&grid).unwrap();
/// let report = runner.run(&Scenario::IdleThenBurst.render(&grid, 40)).unwrap();
/// assert_eq!(report.worst_noise.shape(), (8, 8));
/// ```
#[derive(Debug)]
pub struct WnvRunner {
    sim: TransientSimulator,
    bottom: std::ops::Range<usize>,
    node_tile_flat: Vec<usize>,
    tile_shape: (usize, usize),
    vdd: f64,
}

impl WnvRunner {
    /// Prepares the engine (stamping + factorization).
    ///
    /// # Errors
    ///
    /// Propagates assembly errors from [`TransientSimulator::new`].
    pub fn new(grid: &PowerGrid) -> SimResult<WnvRunner> {
        WnvRunner::with_solver(grid, SolverKind::default())
    }

    /// Like [`WnvRunner::new`] with an explicit transient solver choice.
    ///
    /// # Errors
    ///
    /// Same as [`WnvRunner::new`].
    pub fn with_solver(grid: &PowerGrid, kind: SolverKind) -> SimResult<WnvRunner> {
        let tiles = grid.tile_grid();
        let node_tile_flat = (0..grid.node_count())
            .map(|i| tiles.flat_index(grid.node_tile(NodeId::new(i))))
            .collect();
        Ok(WnvRunner {
            sim: TransientSimulator::with_solver(grid, kind)?,
            bottom: grid.bottom_nodes(),
            node_tile_flat,
            tile_shape: (tiles.rows(), tiles.cols()),
            vdd: grid.spec().vdd().0,
        })
    }

    /// Access to the underlying transient simulator.
    pub fn simulator(&self) -> &TransientSimulator {
        &self.sim
    }

    /// Runs WNV for one vector: the batch of one of [`Self::run_batch`].
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (vector mismatch, non-convergence).
    pub fn run(&self, vector: &TestVector) -> SimResult<NoiseReport> {
        let mut reports = self.run_batch(&[vector])?;
        Ok(reports.pop().expect("one report per vector"))
    }

    /// Runs WNV for up to [`DEFAULT_BATCH`] vectors marched in lockstep
    /// against the single shared factorization — one matrix traversal
    /// serves every vector per CG iteration / triangular solve. The
    /// reported noise maps are bitwise identical to per-vector
    /// [`Self::run`] calls. Each report's `elapsed` is the batch's wall
    /// time over the batch width; `stats` are the batch's.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::run_batch_with`]; more than
    /// [`DEFAULT_BATCH`] vectors is an error, so use [`Self::run_group`]
    /// for any number of vectors.
    pub fn run_batch(&self, vectors: &[&TestVector]) -> SimResult<Vec<NoiseReport>> {
        let mut span = pdn_core::telemetry::span("sim.wnv.run");
        span.field("vectors", vectors.len());
        let start = Instant::now();
        let mut maps: Vec<TileMap> = (0..vectors.len())
            .map(|_| TileMap::zeros(self.tile_shape.0, self.tile_shape.1))
            .collect();
        let vdd = self.vdd;
        let bottom = self.bottom.clone();
        let tiles = &self.node_tile_flat;
        let stats = self.sim.run_batch_with(vectors, |_, t, v| {
            let data = maps[t].as_mut_slice();
            for n in bottom.clone() {
                let droop = vdd - v[n];
                let ti = tiles[n];
                if droop > data[ti] {
                    data[ti] = droop;
                }
            }
        })?;
        let elapsed = start.elapsed();
        if pdn_core::telemetry::enabled() {
            pdn_core::telemetry::counter_add("sim.wnv.vectors", vectors.len() as u64);
            // How full each lockstep batch is relative to the default batch
            // width — low occupancy means the group size leaves slots idle.
            pdn_core::telemetry::observe(
                "sim.wnv.batch_occupancy",
                vectors.len() as f64 / DEFAULT_BATCH as f64,
            );
        }
        let elapsed = elapsed / vectors.len().max(1) as u32;
        Ok(maps
            .into_iter()
            .map(|worst| {
                let max_noise = Volts(worst.max());
                NoiseReport { worst_noise: worst, max_noise, elapsed, stats }
            })
            .collect())
    }

    /// Runs WNV for a group of vectors, returning one report per vector.
    ///
    /// Vectors are taken in chunks of [`DEFAULT_BATCH`]; each chunk whose
    /// vectors share a step count is marched in lockstep via
    /// [`Self::run_batch`], others fall back to per-vector runs. Reports are
    /// returned in input order and are bitwise identical to individual
    /// [`Self::run`] calls regardless of batching.
    ///
    /// # Errors
    ///
    /// Fails on the first vector that fails.
    pub fn run_group(&self, vectors: &[TestVector]) -> SimResult<Vec<NoiseReport>> {
        let mut span = pdn_core::telemetry::span("sim.wnv.group");
        span.field("vectors", vectors.len());
        let mut reports = Vec::with_capacity(vectors.len());
        for chunk in vectors.chunks(DEFAULT_BATCH) {
            if chunk.iter().all(|v| v.step_count() == chunk[0].step_count()) {
                let refs: Vec<&TestVector> = chunk.iter().collect();
                reports.extend(self.run_batch(&refs)?);
            } else {
                for v in chunk {
                    reports.push(self.run(v)?);
                }
            }
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
    use pdn_vectors::scenario::Scenario;

    fn grid() -> PowerGrid {
        DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap()
    }

    #[test]
    fn tiling_identity_eq2() {
        // Eq. (2): the max over the tile map equals the global max over
        // nodes and time. Track both independently.
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let v = Scenario::IdleThenBurst.render(&g, 60);
        let report = runner.run(&v).unwrap();

        let mut global = 0.0_f64;
        runner
            .sim
            .run_with(&v, |_, volts| {
                for n in g.bottom_nodes() {
                    global = global.max(1.0 - volts[n]);
                }
            })
            .unwrap();
        assert!((report.max_noise.0 - global).abs() < 1e-12);
        assert!((report.worst_noise.max() - global).abs() < 1e-12);
    }

    #[test]
    fn worst_noise_nonnegative() {
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let gen = VectorGenerator::new(&g, GeneratorConfig { steps: 80, ..Default::default() });
        let report = runner.run(&gen.generate(3)).unwrap();
        assert!(report.worst_noise.min() >= 0.0);
    }

    #[test]
    fn hotspot_extraction_consistent() {
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let report = runner.run(&Scenario::IdleThenBurst.render(&g, 80)).unwrap();
        let thr = Volts(report.worst_noise.mean());
        let hs = report.hotspots(thr);
        assert_eq!(hs.len(), report.worst_noise.count_above(thr.0));
        let ratio = report.hotspot_ratio(thr);
        assert!((0.0..=1.0).contains(&ratio));
        for t in hs {
            assert!(report.worst_noise[t] > thr.0);
        }
    }

    #[test]
    fn hotspot_ratio_of_empty_map_is_zero() {
        // Regression: this used to divide by zero and return NaN, which
        // then propagated through Table 1 summaries.
        let report = NoiseReport {
            worst_noise: TileMap::empty(),
            max_noise: Volts(0.0),
            elapsed: std::time::Duration::ZERO,
            stats: TransientStats::default(),
        };
        let ratio = report.hotspot_ratio(Volts(0.1));
        assert_eq!(ratio, 0.0);
        assert!(!ratio.is_nan());
    }

    #[test]
    fn more_current_more_noise() {
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let burst = runner.run(&Scenario::IdleThenBurst.render(&g, 80)).unwrap();
        let steady = runner.run(&Scenario::UniformSteady.render(&g, 80)).unwrap();
        assert!(burst.max_noise.0 > steady.max_noise.0);
    }

    #[test]
    fn group_run_matches_individual_runs() {
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let gen = VectorGenerator::new(&g, GeneratorConfig { steps: 40, ..Default::default() });
        let vectors = gen.generate_group(2, 5);
        let group = runner.run_group(&vectors).unwrap();
        let solo0 = runner.run(&vectors[0]).unwrap();
        assert_eq!(group[0].worst_noise, solo0.worst_noise);
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn batched_group_matches_individuals_across_chunk_boundary() {
        // 5 vectors = one full DEFAULT_BATCH chunk plus a remainder chunk,
        // so both the lockstep path and the chunking seams are exercised.
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let gen = VectorGenerator::new(&g, GeneratorConfig { steps: 30, ..Default::default() });
        let vectors = gen.generate_group(5, 11);
        assert!(vectors.len() > DEFAULT_BATCH);
        let group = runner.run_group(&vectors).unwrap();
        for (report, v) in group.iter().zip(&vectors) {
            let solo = runner.run(v).unwrap();
            assert_eq!(report.worst_noise, solo.worst_noise);
            assert_eq!(report.max_noise, solo.max_noise);
        }
        // Determinism: a second group run reproduces the maps exactly.
        let again = runner.run_group(&vectors).unwrap();
        for (a, b) in group.iter().zip(&again) {
            assert_eq!(a.worst_noise, b.worst_noise);
        }
    }

    #[test]
    fn batch_reports_split_the_wall_time() {
        // Four vectors march as one lockstep batch: each report carries a
        // quarter of the batch's wall time, so their sum fits in the call.
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let gen = VectorGenerator::new(&g, GeneratorConfig { steps: 30, ..Default::default() });
        let vectors = gen.generate_group(DEFAULT_BATCH, 3);
        let start = Instant::now();
        let group = runner.run_group(&vectors).unwrap();
        let wall = start.elapsed();
        let total: Duration = group.iter().map(|r| r.elapsed).sum();
        assert!(total <= wall, "per-vector times sum to {total:?}, call took {wall:?}");
        assert!(group.iter().all(|r| r.elapsed == group[0].elapsed && !r.elapsed.is_zero()));
    }

    #[test]
    fn mixed_step_counts_fall_back_to_per_vector_runs() {
        let g = grid();
        let _serial = crate::telemetry_test_lock();
        let runner = WnvRunner::new(&g).unwrap();
        let short = Scenario::IdleThenBurst.render(&g, 20);
        let long = Scenario::IdleThenBurst.render(&g, 35);
        let group = runner.run_group(&[short.clone(), long.clone()]).unwrap();
        assert_eq!(group[0].worst_noise, runner.run(&short).unwrap().worst_noise);
        assert_eq!(group[1].worst_noise, runner.run(&long).unwrap().worst_noise);
    }
}
