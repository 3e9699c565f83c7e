//! Backward-Euler transient engine.

use crate::error::{SimError, SimResult};
use crate::static_ir::StaticAnalysis;
use pdn_core::telemetry;
use pdn_core::units::{Seconds, Volts};
use pdn_grid::build::PowerGrid;
use pdn_grid::stamp;
use pdn_sparse::cg::{self, CgOptions};
use pdn_sparse::csr::CsrMatrix;
use pdn_sparse::ichol::IncompleteCholesky;
use pdn_sparse::supernodal::SupernodalCholesky;
use pdn_sparse::{vecops, SolveError, MAX_LOCKSTEP};
use pdn_vectors::vector::TestVector;

/// Which linear solver the transient engine uses for its per-step systems.
///
/// Both produce identical results to solver tolerance; the trade-off is the
/// classic one from the paper's §2 discussion: iterative solvers scale to
/// huge grids, direct factorization amortizes over many right-hand sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Warm-started conjugate gradient with an IC(0) preconditioner
    /// (the default; scales to the largest grids).
    #[default]
    IterativeCg,
    /// Supernodal sparse direct Cholesky: one factorization per design,
    /// two panel-blocked triangular solves per time stamp. The
    /// fill-reducing ordering (AMD vs RCM) is selected at analysis time
    /// by predicted factor fill, at every problem size.
    DirectCholesky,
}

#[derive(Debug)]
enum SolverState {
    Cg { pre: IncompleteCholesky, opts: CgOptions },
    Direct { chol: SupernodalCholesky },
}

/// Checks that `vector` was sampled at the grid's time step `dt`, to a
/// relative 1e-9: a vector CSV's `dt_ps=` header round-trips far inside
/// that. The engine steps at `dt` whatever the vector says, so a vector
/// at any other step would be simulated on the wrong time axis.
///
/// # Errors
///
/// [`SimError::TimeStepMismatch`] naming both time steps.
pub fn check_time_step(dt: Seconds, vector: &TestVector) -> SimResult<()> {
    let (expected, actual) = (dt.0, vector.time_step().0);
    if (actual - expected).abs() <= 1e-9 * expected.abs() {
        Ok(())
    } else {
        Err(SimError::TimeStepMismatch { expected, actual })
    }
}

/// Aggregate statistics of one transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransientStats {
    /// Time steps marched.
    pub steps: usize,
    /// Total CG iterations across all steps.
    pub cg_iterations: usize,
    /// Largest relative residual accepted at any step.
    pub worst_residual: f64,
}

/// The time-marching simulator for one grid.
///
/// Assembles `A = G + C/Δt + Σ g_b` once (the constant matrix of paper §2)
/// and prepares its [`SolverKind`] once: the IC(0) preconditioner for
/// warm-started CG (the default), or the supernodal Cholesky factor for
/// the direct path. Each time stamp then costs one solve against `A`.
///
/// # Example
///
/// ```
/// use pdn_grid::design::{DesignPreset, DesignScale};
/// use pdn_sim::transient::TransientSimulator;
/// use pdn_vectors::scenario::Scenario;
///
/// let grid = DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap();
/// let sim = TransientSimulator::new(&grid).unwrap();
/// let v = Scenario::UniformSteady.render(&grid, 20);
/// let (voltages, stats) = sim.run_full(&v).unwrap();
/// assert_eq!(voltages.len(), 20);
/// assert_eq!(stats.steps, 20);
/// ```
#[derive(Debug)]
pub struct TransientSimulator {
    matrix: CsrMatrix,
    solver: SolverState,
    cap_over_dt: Vec<f64>,
    /// Per bump: `(node, g_companion, l_over_dt)`.
    bumps: Vec<(usize, f64, f64)>,
    load_nodes: Vec<usize>,
    vdd: f64,
    dt: f64,
    node_count: usize,
    dc: StaticAnalysis,
}

/// Stamps the constant backward-Euler companion system `A = G + C/Δt +
/// Σ g_b` for a grid, returning the matrix, the `C/Δt` diagonal and the
/// per-bump `(node, g_companion, L/Δt)` triples. This is the matrix the
/// transient engine factors once and solves per time stamp; it is public so
/// that offline tools (`pdn factor`) can drive the factorization directly.
///
/// # Errors
///
/// Returns [`SimError::NoBumps`] for floating grids.
#[allow(clippy::type_complexity)]
pub fn stamp_transient_system(
    grid: &PowerGrid,
) -> SimResult<(CsrMatrix, Vec<f64>, Vec<(usize, f64, f64)>)> {
    if grid.bumps().is_empty() {
        return Err(SimError::NoBumps);
    }
    let dt = grid.spec().time_step().0;
    let mut coo = stamp::conductance_coo(grid);
    let cap = stamp::capacitance_vector(grid);
    let cap_over_dt: Vec<f64> = cap.iter().map(|c| c / dt).collect();
    for (i, &c) in cap_over_dt.iter().enumerate() {
        coo.push(i, i, c);
    }
    let mut bumps = Vec::with_capacity(grid.bumps().len());
    for b in grid.bumps() {
        let l_over_dt = b.inductance.0 / dt;
        let g = 1.0 / (b.resistance.0 + l_over_dt);
        coo.push(b.node.index(), b.node.index(), g);
        bumps.push((b.node.index(), g, l_over_dt));
    }
    Ok((coo.to_csr(), cap_over_dt, bumps))
}

impl TransientSimulator {
    /// Stamps and factors the transient system for a grid, using the grid
    /// spec's time step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoBumps`] for floating grids and propagates
    /// factorization failures.
    pub fn new(grid: &PowerGrid) -> SimResult<TransientSimulator> {
        TransientSimulator::with_solver(grid, SolverKind::default())
    }

    /// Like [`TransientSimulator::new`] but with an explicit solver choice.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSimulator::new`].
    pub fn with_solver(grid: &PowerGrid, kind: SolverKind) -> SimResult<TransientSimulator> {
        let dt = grid.spec().time_step().0;
        let n = grid.node_count();
        let (matrix, cap_over_dt, bumps) = stamp_transient_system(grid)?;
        let solver = match kind {
            SolverKind::IterativeCg => SolverState::Cg {
                pre: IncompleteCholesky::factor(&matrix)?,
                opts: CgOptions { tolerance: 1e-9, max_iterations: 20_000 },
            },
            SolverKind::DirectCholesky => {
                SolverState::Direct { chol: SupernodalCholesky::factor(&matrix)? }
            }
        };
        Ok(TransientSimulator {
            matrix,
            solver,
            cap_over_dt,
            bumps,
            load_nodes: grid.loads().iter().map(|l| l.node.index()).collect(),
            vdd: grid.spec().vdd().0,
            dt,
            node_count: n,
            dc: StaticAnalysis::new(grid)?,
        })
    }

    /// Solves `A V = RHS` for `k` interleaved right-hand sides against the
    /// single shared factorization. Returns the worst `(iterations,
    /// residual)` across the batch (zeros for the direct path).
    fn solve_step_multi(&self, rhs: &[f64], v: &mut [f64], k: usize) -> SimResult<(usize, f64)> {
        match &self.solver {
            SolverState::Cg { pre, opts } => {
                Ok(cg::solve_warm_multi(&self.matrix, rhs, v, k, pre, opts)?)
            }
            SolverState::Direct { chol } => {
                v.copy_from_slice(rhs);
                chol.solve_multi_in_place(v, k);
                Ok((0, 0.0))
            }
        }
    }

    /// The solver strategy this engine was built with.
    pub fn solver_kind(&self) -> SolverKind {
        match self.solver {
            SolverState::Cg { .. } => SolverKind::IterativeCg,
            SolverState::Direct { .. } => SolverKind::DirectCholesky,
        }
    }

    /// Folds every solver setting that affects numeric output — solver
    /// kind plus, for CG, tolerance and iteration budget, and for the
    /// direct path, the fill ordering the analysis selected — into `d`.
    /// Part of the ground-truth cache key, so changing a solver constant
    /// (or the ordering heuristic picking differently) invalidates cached
    /// noise maps.
    pub fn digest_solver_settings(&self, d: &mut pdn_core::fsio::Digest) {
        match &self.solver {
            SolverState::Cg { opts, .. } => {
                d.update_str("cg");
                d.update_f64(opts.tolerance);
                d.update_u64(opts.max_iterations as u64);
            }
            SolverState::Direct { chol } => {
                d.update_str("cholesky.supernodal");
                d.update_str(chol.symbolic().ordering().name());
            }
        }
    }

    /// Nominal supply voltage.
    pub fn vdd(&self) -> Volts {
        Volts(self.vdd)
    }

    /// Time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.dt
    }

    /// Runs the full transient and hands every step's node voltages to
    /// `observer(step, voltages)`: the batch of one of
    /// [`Self::run_batch_with`]. The initial condition is the DC solution
    /// of the vector's first time stamp, so traces start in steady state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::VectorMismatch`] if the vector's load count does
    /// not match the grid, and propagates solver failures.
    pub fn run_with<F: FnMut(usize, &[f64])>(
        &self,
        vector: &TestVector,
        mut observer: F,
    ) -> SimResult<TransientStats> {
        self.run_batch_with(&[vector], |step, _, v| observer(step, v))
    }

    /// Runs the transient and collects every step's node-voltage vector.
    /// Convenient for tests; for large grids prefer [`Self::run_with`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_with`].
    pub fn run_full(&self, vector: &TestVector) -> SimResult<(Vec<Vec<f64>>, TransientStats)> {
        let mut out = Vec::with_capacity(vector.step_count());
        let stats = self.run_with(vector, |_, v| out.push(v.to_vec()))?;
        Ok((out, stats))
    }

    /// Marches up to [`MAX_LOCKSTEP`] independent test vectors in lockstep
    /// against the single shared factorization, handing each step's
    /// voltages per vector to `observer(step, vector_index, voltages)`.
    /// Each vector starts from the DC solution of its first time stamp.
    ///
    /// Every batched kernel underneath performs per-vector floating-point
    /// operations in an order that does not depend on the batch width, so
    /// the observed voltages are bitwise identical to separate
    /// [`Self::run_with`] calls — the batch only amortizes matrix traffic.
    /// The returned stats aggregate the batch: `cg_iterations` sums the
    /// worst per-step iteration count, `worst_residual` is the maximum over
    /// all vectors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Solve`] with [`SolveError::DimensionMismatch`]
    /// for more than [`MAX_LOCKSTEP`] vectors (chunk them, as
    /// [`crate::wnv::WnvRunner::run_group`] does),
    /// [`SimError::VectorMismatch`] on a wrong load count,
    /// [`SimError::TimeStepMismatch`] on a vector sampled at another time
    /// step, [`SimError::BatchStepMismatch`] when step counts differ within the
    /// batch, and propagates solver failures.
    pub fn run_batch_with<F: FnMut(usize, usize, &[f64])>(
        &self,
        vectors: &[&TestVector],
        mut observer: F,
    ) -> SimResult<TransientStats> {
        let k = vectors.len();
        if k == 0 {
            return Ok(TransientStats::default());
        }
        if k > MAX_LOCKSTEP {
            return Err(SimError::Solve(SolveError::DimensionMismatch {
                detail: format!("transient batch of {k} vectors (widths 1..={MAX_LOCKSTEP})"),
            }));
        }
        let steps = vectors[0].step_count();
        for vector in vectors {
            if vector.load_count() != self.load_nodes.len() {
                return Err(SimError::VectorMismatch {
                    expected: self.load_nodes.len(),
                    actual: vector.load_count(),
                });
            }
            check_time_step(Seconds(self.dt), vector)?;
            if vector.step_count() != steps {
                return Err(SimError::BatchStepMismatch {
                    expected: steps,
                    actual: vector.step_count(),
                });
            }
        }
        let mut span = telemetry::span("sim.transient.run");
        span.field("vectors", k);
        span.field("steps", steps);
        let n = self.node_count;
        // Interleaved state: entry i of vector t lives at v[i * k + t].
        let mut v = vec![0.0; n * k];
        for (t, vector) in vectors.iter().enumerate() {
            let col = self.dc.solve(vector.step(0))?;
            for (i, &x) in col.iter().enumerate() {
                v[i * k + t] = x;
            }
        }
        // Initial bump branch currents from the DC solution.
        // In DC the branch carries (vdd − v_node) / R; recover R = 1/g − L/Δt.
        let mut ib = vec![0.0; self.bumps.len() * k];
        for (ibb, &(node, g, l_over_dt)) in ib.chunks_mut(k).zip(&self.bumps) {
            for (t, i) in ibb.iter_mut().enumerate() {
                *i = (self.vdd - v[node * k + t]) / (1.0 / g - l_over_dt);
            }
        }

        let mut stats = TransientStats::default();
        let mut rhs = vec![0.0; n * k];
        let mut col = vec![0.0; n];
        for step in 0..steps {
            // rhs = C/Δt v_prev − I_load(step) + Σ_b g_b (vdd + (L/Δt) i_b)
            for ((rb, vb), &c) in
                rhs.chunks_mut(k).zip(v.chunks(k)).zip(&self.cap_over_dt)
            {
                for (r, vp) in rb.iter_mut().zip(vb) {
                    *r = c * vp;
                }
            }
            for (t, vector) in vectors.iter().enumerate() {
                for (&node, &i) in self.load_nodes.iter().zip(vector.step(step)) {
                    rhs[node * k + t] -= i;
                }
            }
            for (ibb, &(node, g, l_over_dt)) in ib.chunks(k).zip(&self.bumps) {
                for (t, &i) in ibb.iter().enumerate() {
                    rhs[node * k + t] += g * (self.vdd + l_over_dt * i);
                }
            }
            let t_step = telemetry::enabled().then(std::time::Instant::now);
            let (iters, resid) = self.solve_step_multi(&rhs, &mut v, k)?;
            if let Some(t) = t_step {
                telemetry::observe_duration("sim.transient.step_seconds", t.elapsed());
            }
            stats.steps += 1;
            stats.cg_iterations += iters;
            stats.worst_residual = stats.worst_residual.max(resid);
            // Update bump branch currents.
            for (ibb, &(node, g, l_over_dt)) in ib.chunks_mut(k).zip(&self.bumps) {
                for (t, i) in ibb.iter_mut().enumerate() {
                    *i = g * (self.vdd - v[node * k + t] + l_over_dt * *i);
                }
            }
            for t in 0..k {
                vecops::deinterleave_into(&v, k, t, &mut col);
                observer(step, t, &col);
            }
        }
        if telemetry::enabled() {
            telemetry::counter_add("sim.transient.runs", 1);
            telemetry::counter_add("sim.transient.steps", stats.steps as u64);
            telemetry::counter_add("sim.transient.cg_iterations", stats.cg_iterations as u64);
            telemetry::observe("sim.transient.worst_residual", stats.worst_residual);
            telemetry::observe("sim.transient.batch_width", k as f64);
        }
        Ok(stats)
    }

    /// Batched counterpart of [`Self::run_full`]: returns one
    /// per-step voltage history per vector, all marched in lockstep.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_batch_with`].
    pub fn run_full_batch(
        &self,
        vectors: &[&TestVector],
    ) -> SimResult<(Vec<Vec<Vec<f64>>>, TransientStats)> {
        let steps = vectors.first().map_or(0, |v| v.step_count());
        let mut out: Vec<Vec<Vec<f64>>> =
            (0..vectors.len()).map(|_| Vec::with_capacity(steps)).collect();
        let stats = self.run_batch_with(vectors, |_, t, v| out[t].push(v.to_vec()))?;
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_grid::design::{DesignPreset, DesignScale};
    use pdn_vectors::scenario::Scenario;

    fn grid() -> PowerGrid {
        DesignPreset::D1.spec(DesignScale::Tiny).build(1).unwrap()
    }

    #[test]
    fn quiescent_vector_stays_at_vdd() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let v = TestVector::from_flat(
            10,
            g.loads().len(),
            vec![0.0; 10 * g.loads().len()],
            g.spec().time_step(),
        );
        let (volts, stats) = sim.run_full(&v).unwrap();
        assert_eq!(stats.steps, 10);
        for step in &volts {
            for x in step {
                assert!((x - 1.0).abs() < 1e-6, "voltage {x}");
            }
        }
    }

    #[test]
    fn constant_current_settles_to_dc_solution() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let n_loads = g.loads().len();
        let amps = 2e-3;
        let steps = 600;
        let v = TestVector::from_flat(
            steps,
            n_loads,
            vec![amps; steps * n_loads],
            g.spec().time_step(),
        );
        let (volts, _) = sim.run_full(&v).unwrap();
        let dc = StaticAnalysis::new(&g).unwrap().solve(&vec![amps; n_loads]).unwrap();
        let last = volts.last().unwrap();
        for (t, d) in last.iter().zip(&dc) {
            assert!((t - d).abs() < 1e-4, "transient {t} vs dc {d}");
        }
    }

    #[test]
    fn burst_produces_dynamic_overshoot_beyond_static() {
        // The reason dynamic analysis matters (paper §1): di/dt through the
        // package inductance makes the transient droop exceed the static
        // droop for the same peak current.
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let v = Scenario::IdleThenBurst.render(&g, 200);
        let mut max_droop = 0.0_f64;
        sim.run_with(&v, |_, volts| {
            for x in volts {
                max_droop = max_droop.max(1.0 - x);
            }
        })
        .unwrap();

        // Static droop at the burst's *sustained* (mean) current: the step
        // response of an underdamped RLC system overshoots its asymptote, so
        // the dynamic worst case must exceed this static level. (It stays
        // below the static-at-instantaneous-peak level because the on-die
        // decap filters per-clock-cycle ripple — also true of real PDNs.)
        let half = v.step_count() / 2;
        let mean_burst: Vec<f64> = (0..v.load_count())
            .map(|l| (half..v.step_count()).map(|k| v.current(k, l)).sum::<f64>() / half as f64)
            .collect();
        let dc = StaticAnalysis::new(&g).unwrap().solve(&mean_burst).unwrap();
        let static_droop = dc.iter().map(|x| 1.0 - x).fold(0.0, f64::max);

        assert!(max_droop > 0.0);
        assert!(
            max_droop > static_droop * 1.1,
            "dynamic {max_droop} should overshoot sustained-burst static {static_droop}"
        );
    }

    #[test]
    fn direct_and_iterative_solvers_agree() {
        let g = grid();
        let cg = TransientSimulator::new(&g).unwrap();
        let direct = TransientSimulator::with_solver(&g, SolverKind::DirectCholesky).unwrap();
        let v = Scenario::IdleThenBurst.render(&g, 40);
        let (va, sa) = cg.run_full(&v).unwrap();
        let (vb, sb) = direct.run_full(&v).unwrap();
        assert!(sa.cg_iterations > 0);
        assert_eq!(sb.cg_iterations, 0, "direct path reports no CG iterations");
        for (step_a, step_b) in va.iter().zip(&vb) {
            for (a, b) in step_a.iter().zip(step_b) {
                assert!((a - b).abs() < 1e-7, "solvers disagree: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_run_is_bitwise_identical_to_sequential() {
        use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
        let g = grid();
        let gen = VectorGenerator::new(&g, GeneratorConfig { steps: 30, ..Default::default() });
        let vectors: Vec<TestVector> = (0..3).map(|s| gen.generate(s)).collect();
        let refs: Vec<&TestVector> = vectors.iter().collect();
        for kind in [SolverKind::IterativeCg, SolverKind::DirectCholesky] {
            let sim = TransientSimulator::with_solver(&g, kind).unwrap();
            let (batched, _) = sim.run_full_batch(&refs).unwrap();
            for (t, vector) in vectors.iter().enumerate() {
                let (solo, _) = sim.run_full(vector).unwrap();
                assert_eq!(batched[t], solo, "{kind:?}: vector {t} drifted from sequential");
            }
        }
    }

    #[test]
    fn solver_digest_records_kind_and_ordering() {
        let g = grid();
        let cg = TransientSimulator::new(&g).unwrap();
        let direct = TransientSimulator::with_solver(&g, SolverKind::DirectCholesky).unwrap();
        let mut dc = pdn_core::fsio::Digest::new();
        cg.digest_solver_settings(&mut dc);
        let mut dd = pdn_core::fsio::Digest::new();
        direct.digest_solver_settings(&mut dd);
        assert_ne!(dc.finish(), dd.finish(), "solver kinds must key differently");
        // The direct digest must track the ordering the analysis picked:
        // reproduce it by hand and check sensitivity to the ordering name.
        let mut base = pdn_core::fsio::Digest::new();
        base.update_str("cholesky.supernodal");
        let mut with_ordering = base;
        with_ordering.update_str("other-ordering");
        assert_ne!(dd.finish(), base.finish());
        assert_ne!(dd.finish(), with_ordering.finish());
    }

    #[test]
    fn batch_step_mismatch_rejected() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let n_loads = g.loads().len();
        let a = TestVector::from_flat(4, n_loads, vec![0.0; 4 * n_loads], g.spec().time_step());
        let b = TestVector::from_flat(6, n_loads, vec![0.0; 6 * n_loads], g.spec().time_step());
        assert!(matches!(
            sim.run_full_batch(&[&a, &b]),
            Err(SimError::BatchStepMismatch { expected: 4, actual: 6 })
        ));
    }

    #[test]
    fn batch_wider_than_the_lockstep_limit_is_an_error() {
        let g = grid();
        let v = Scenario::UniformSteady.render(&g, 4);
        let refs = vec![&v; MAX_LOCKSTEP + 1];
        for kind in [SolverKind::IterativeCg, SolverKind::DirectCholesky] {
            let sim = TransientSimulator::with_solver(&g, kind).unwrap();
            assert!(matches!(
                sim.run_batch_with(&refs, |_, _, _| panic!("no steps expected")),
                Err(SimError::Solve(SolveError::DimensionMismatch { .. }))
            ));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let stats = sim.run_batch_with(&[], |_, _, _| panic!("no steps expected")).unwrap();
        assert_eq!(stats, TransientStats::default());
    }

    #[test]
    fn vector_mismatch_rejected() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let v = TestVector::from_flat(2, 3, vec![0.0; 6], Seconds::from_picos(5.0));
        assert!(matches!(sim.run_full(&v), Err(SimError::VectorMismatch { .. })));
    }

    #[test]
    fn time_step_mismatch_rejected() {
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let n = g.loads().len();
        let at = |dt| TestVector::from_flat(2, n, vec![1e-3; 2 * n], dt);
        // The grid steps at 10 ps; a vector at 2.5 ps, at 1 ps (a CSV with
        // no header) or at NaN must not be simulated at 10 ps.
        for ps in [2.5, 1.0, f64::NAN] {
            let err = sim.run_full(&at(Seconds::from_picos(ps))).unwrap_err();
            assert!(matches!(err, SimError::TimeStepMismatch { .. }), "{ps} ps: {err}");
        }
        let err = sim.run_full(&at(Seconds::from_picos(2.5))).unwrap_err();
        assert_eq!(err.to_string(), "test vector time step is 2.5 ps but the grid steps at 10 ps");
        // A decimal header's round trip stays inside the relative 1e-9.
        let dt = g.spec().time_step().0;
        let written: f64 = format!("{}", dt * 1e12).parse().unwrap();
        assert!(sim.run_full(&at(Seconds::from_picos(written))).is_ok());
        assert!(sim.run_full(&at(Seconds(dt * (1.0 + 1e-6)))).is_err());
    }

    #[test]
    fn matches_dense_reference_on_tiny_grid() {
        // Cross-check one transient step chain against a dense direct solve
        // of the identical companion system.
        use pdn_sparse::dense::DenseMatrix;
        let g = grid();
        let sim = TransientSimulator::new(&g).unwrap();
        let n_loads = g.loads().len();
        let steps = 5;
        // Deterministic ramp currents.
        let data: Vec<f64> = (0..steps * n_loads).map(|i| (i % 7) as f64 * 1e-4).collect();
        let v = TestVector::from_flat(steps, n_loads, data, g.spec().time_step());
        let (sparse_volts, _) = sim.run_full(&v).unwrap();

        // Dense re-implementation.
        let n = g.node_count();
        let dt = g.spec().time_step().0;
        let mut a = DenseMatrix::zeros(n, n);
        for r in g.resistors() {
            let gg = 1.0 / r.resistance.0;
            let (i, j) = (r.a.index(), r.b.index());
            a.add(i, i, gg);
            a.add(j, j, gg);
            a.add(i, j, -gg);
            a.add(j, i, -gg);
        }
        let caps = pdn_grid::stamp::capacitance_vector(&g);
        for (i, &c) in caps.iter().enumerate() {
            a.add(i, i, c / dt);
        }
        let mut bump_info = Vec::new();
        for b in g.bumps() {
            let l_over_dt = b.inductance.0 / dt;
            let gb = 1.0 / (b.resistance.0 + l_over_dt);
            a.add(b.node.index(), b.node.index(), gb);
            bump_info.push((b.node.index(), gb, l_over_dt, b.resistance.0));
        }
        let chol = a.cholesky().unwrap();

        // DC init identical to the engine's.
        let dc = StaticAnalysis::new(&g).unwrap();
        let mut volt = dc.solve(v.step(0)).unwrap();
        let mut ib: Vec<f64> = bump_info.iter().map(|&(node, _, _, r)| (1.0 - volt[node]) / r).collect();
        let load_nodes: Vec<usize> = g.loads().iter().map(|l| l.node.index()).collect();
        for (k, sparse_step) in sparse_volts.iter().enumerate().take(steps) {
            let mut rhs = vec![0.0; n];
            for ((r, &c), &vi) in rhs.iter_mut().zip(&caps).zip(&volt) {
                *r = c / dt * vi;
            }
            for (&node, &cur) in load_nodes.iter().zip(v.step(k)) {
                rhs[node] -= cur;
            }
            for (bi, &(node, gb, l_over_dt, _)) in bump_info.iter().enumerate() {
                rhs[node] += gb * (1.0 + l_over_dt * ib[bi]);
            }
            volt = chol.solve(&rhs);
            for (bi, &(node, gb, l_over_dt, _)) in bump_info.iter().enumerate() {
                ib[bi] = gb * (1.0 - volt[node] + l_over_dt * ib[bi]);
            }
            for (s, d) in sparse_step.iter().zip(&volt) {
                assert!((s - d).abs() < 1e-6, "step {k}: sparse {s} vs dense {d}");
            }
        }
    }
}
