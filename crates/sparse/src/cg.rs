//! Preconditioned conjugate gradient.
//!
//! The transient engine solves `(G + C/Δt) v = b_k` for hundreds of right
//! hand sides with a constant matrix; CG with an IC(0) preconditioner and a
//! warm start from the previous time step keeps each solve to a handful of
//! iterations.

use crate::csr::CsrMatrix;
use crate::error::{SolveError, SparseResult};
use crate::MAX_LOCKSTEP;
use pdn_core::telemetry;

/// Records the outcome of one converged CG column — a solve, alone or in a
/// lockstep batch — in the telemetry registry (no-op when telemetry is
/// disabled).
fn record_solve(iterations: usize, residual: f64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("sparse.cg.solves", 1);
    telemetry::counter_add("sparse.cg.iterations", iterations as u64);
    // Histogram twin of the iteration counter: `pdn report` reads its log₂
    // buckets for the p50/p95/p99 iteration distribution.
    telemetry::observe("sparse.cg.iterations_per_solve", iterations as f64);
    telemetry::observe("sparse.cg.final_residual", residual);
}

/// Records a failed CG solve (budget exhaustion or indefinite direction).
fn record_failure(err: &SolveError) {
    if !telemetry::enabled() {
        return;
    }
    match err {
        SolveError::NotConverged { .. } => telemetry::counter_add("sparse.cg.not_converged", 1),
        SolveError::NotPositiveDefinite { .. } => {
            telemetry::counter_add("sparse.cg.indefinite", 1)
        }
        _ => {}
    }
}

/// A symmetric preconditioner: computes `z = M⁻¹ r`.
pub trait Preconditioner {
    /// Applies the preconditioner to `k` interleaved vectors
    /// (`r[i * k + t]` is entry `i` of vector `t`), paying the
    /// preconditioner's memory traffic once per block. Each column must be
    /// bitwise identical to the same vector applied alone (`k = 1`).
    fn apply_multi(&self, r: &[f64], z: &mut [f64], k: usize);
}

/// No preconditioning (`M = I`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply_multi(&self, r: &[f64], z: &mut [f64], _k: usize) {
        z.copy_from_slice(r);
    }
}

/// Options controlling the CG iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Relative residual target `‖b − A x‖ / ‖b‖`.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
}

impl Default for CgOptions {
    /// `tolerance = 1e-10`, `max_iterations = 10_000` — tight enough that the
    /// "commercial tool" ground truth is effectively exact.
    fn default() -> CgOptions {
        CgOptions { tolerance: 1e-10, max_iterations: 10_000 }
    }
}

/// Result of a converged CG solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `A x = b` from a zero initial guess.
///
/// # Errors
///
/// Returns [`SolveError::NotConverged`] if the iteration budget is exhausted
/// and [`SolveError::DimensionMismatch`] for incompatible shapes.
pub fn solve<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    pre: &P,
    opts: &CgOptions,
) -> SparseResult<CgSolution> {
    let mut x = vec![0.0; b.len()];
    solve_warm(a, b, &mut x, pre, opts).map(|(iterations, residual)| CgSolution {
        x,
        iterations,
        residual,
    })
}

/// Solves `A x = b` starting from the caller's initial guess, overwriting
/// `x` with the solution: the batch of one of [`solve_warm_multi`].
/// Returns `(iterations, relative_residual)`.
///
/// The warm start is what makes the transient loop fast: consecutive time
/// steps have nearly identical voltage profiles.
///
/// # Errors
///
/// Returns [`SolveError::NotConverged`] if the iteration budget is exhausted
/// and [`SolveError::DimensionMismatch`] for incompatible shapes.
pub fn solve_warm<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    pre: &P,
    opts: &CgOptions,
) -> SparseResult<(usize, f64)> {
    solve_warm_multi(a, b, x, 1, pre, opts)
}

/// Solves `A X = B` for `k` right-hand sides in lockstep, starting from the
/// caller's initial guesses. `b` and `x` hold the vectors interleaved:
/// entry `i` of vector `t` lives at `b[i * k + t]`.
///
/// All `k` CG recurrences advance together, sharing each matrix and
/// preconditioner stream (paper §2: dynamic analysis is many solves against
/// one system matrix). Every vector keeps its own `α`, `β`, and residual and
/// is frozen the moment it converges, so each column's float operations do
/// not depend on `k` — the batched result is bitwise identical to `k`
/// separate [`solve_warm`] calls. Each converged column is recorded as one
/// solve in the `sparse.cg.*` telemetry.
///
/// Returns `(max_iterations_used, max_relative_residual)` over the batch.
///
/// # Errors
///
/// Returns [`SolveError::DimensionMismatch`] for incompatible shapes or a
/// width outside `1..=`[`MAX_LOCKSTEP`], [`SolveError::NotConverged`] if
/// any vector exhausts the budget and [`SolveError::NotPositiveDefinite`]
/// if any vector finds an indefinite direction; in the last two cases the
/// whole batch is abandoned.
pub fn solve_warm_multi<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    k: usize,
    pre: &P,
    opts: &CgOptions,
) -> SparseResult<(usize, f64)> {
    let n = a.n_rows();
    if a.n_rows() != a.n_cols()
        || !(1..=MAX_LOCKSTEP).contains(&k)
        || b.len() != n * k
        || x.len() != n * k
    {
        return Err(SolveError::DimensionMismatch {
            detail: format!(
                "cg: A is {}x{}, b has {}, x has {}, k = {k} (widths 1..={MAX_LOCKSTEP})",
                a.n_rows(),
                a.n_cols(),
                b.len(),
                x.len()
            ),
        });
    }
    match k {
        1 => multi_body::<1, P>(a, b, x, pre, opts),
        2 => multi_body::<2, P>(a, b, x, pre, opts),
        3 => multi_body::<3, P>(a, b, x, pre, opts),
        4 => multi_body::<4, P>(a, b, x, pre, opts),
        _ => unreachable!("width {k} checked above"),
    }
}

/// Column dot products `out[t] = Σ_i u[i·K+t] · v[i·K+t]` for the active
/// columns. Per column the accumulation runs in ascending block order on
/// both paths, so results do not depend on which path is taken.
fn col_dots<const K: usize>(u: &[f64], v: &[f64], active: &[usize], out: &mut [f64; K]) {
    for &t in active {
        out[t] = 0.0;
    }
    if active.len() == K {
        for (ub, vb) in u.chunks_exact(K).zip(v.chunks_exact(K)) {
            for t in 0..K {
                out[t] += ub[t] * vb[t];
            }
        }
    } else {
        for (ub, vb) in u.chunks_exact(K).zip(v.chunks_exact(K)) {
            for &t in active {
                out[t] += ub[t] * vb[t];
            }
        }
    }
}

/// The joint preconditioned-CG iteration with the batch width fixed at
/// compile time. Columns converge and freeze independently; while every
/// column is still active the vector updates take contiguous fixed-width
/// fast paths (always, at `K = 1`).
fn multi_body<const K: usize, P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    pre: &P,
    opts: &CgOptions,
) -> SparseResult<(usize, f64)> {
    let n = a.n_rows();

    // Per-vector ‖b‖.
    let mut norm_b = [0.0f64; K];
    for blk in b.chunks_exact(K) {
        for t in 0..K {
            norm_b[t] += blk[t] * blk[t];
        }
    }
    for nb in &mut norm_b {
        *nb = nb.sqrt();
    }

    // `active` holds the indices of still-iterating vectors; converged ones
    // are frozen (their x/r/p columns are never touched again) so their
    // operation history matches a solo solve that already returned.
    let mut active: Vec<usize> = Vec::with_capacity(K);
    let mut iterations = [0usize; K];
    let mut residual = [0.0f64; K];
    for t in 0..K {
        if norm_b[t] == 0.0 {
            for i in 0..n {
                x[i * K + t] = 0.0;
            }
        } else {
            active.push(t);
        }
    }

    // r = b - A x
    let mut r = vec![0.0; n * K];
    a.mul_multi_into(x, K, &mut r);
    for (rb, bb) in r.chunks_exact_mut(K).zip(b.chunks_exact(K)) {
        for t in 0..K {
            rb[t] = bb[t] - rb[t];
        }
    }
    // One fused pass computes every column norm; per column the squares
    // accumulate in the same order as a lazy per-column pass would.
    let mut rn2 = [0.0f64; K];
    for blk in r.chunks_exact(K) {
        for t in 0..K {
            rn2[t] += blk[t] * blk[t];
        }
    }
    active.retain(|&t| {
        residual[t] = rn2[t].sqrt() / norm_b[t];
        residual[t] > opts.tolerance
    });
    if active.is_empty() {
        return Ok(converged(&iterations, &residual));
    }

    let mut z = vec![0.0; n * K];
    pre.apply_multi(&r, &mut z, K);
    let mut p = z.clone();
    let mut rz = [0.0f64; K];
    col_dots(&r, &z, &active, &mut rz);
    let mut ap = vec![0.0; n * K];
    let mut pap = [0.0f64; K];
    let mut alpha = [0.0f64; K];
    let mut beta = [0.0f64; K];
    let mut rz_new = [0.0f64; K];

    for it in 1..=opts.max_iterations {
        a.mul_multi_into(&p, K, &mut ap);
        col_dots(&p, &ap, &active, &mut pap);
        for &t in &active {
            if pap[t] <= 0.0 {
                let e = SolveError::NotPositiveDefinite { row: it, pivot: pap[t] };
                record_failure(&e);
                return Err(e);
            }
            alpha[t] = rz[t] / pap[t];
        }
        if active.len() == K {
            let rows = x.chunks_exact_mut(K).zip(r.chunks_exact_mut(K));
            for ((xb, rb), (pb, ab)) in rows.zip(p.chunks_exact(K).zip(ap.chunks_exact(K))) {
                for t in 0..K {
                    xb[t] += alpha[t] * pb[t];
                    rb[t] -= alpha[t] * ab[t];
                }
            }
        } else {
            for blk in 0..n {
                let base = blk * K;
                for &t in &active {
                    x[base + t] += alpha[t] * p[base + t];
                    r[base + t] -= alpha[t] * ap[base + t];
                }
            }
        }
        let mut rn2 = [0.0f64; K];
        for blk in r.chunks_exact(K) {
            for t in 0..K {
                rn2[t] += blk[t] * blk[t];
            }
        }
        active.retain(|&t| {
            residual[t] = rn2[t].sqrt() / norm_b[t];
            if residual[t] <= opts.tolerance {
                iterations[t] = it;
                false
            } else {
                true
            }
        });
        if active.is_empty() {
            return Ok(converged(&iterations, &residual));
        }
        pre.apply_multi(&r, &mut z, K);
        col_dots(&r, &z, &active, &mut rz_new);
        for &t in &active {
            beta[t] = rz_new[t] / rz[t];
            rz[t] = rz_new[t];
        }
        if active.len() == K {
            for (pb, zb) in p.chunks_exact_mut(K).zip(z.chunks_exact(K)) {
                for t in 0..K {
                    pb[t] = zb[t] + beta[t] * pb[t];
                }
            }
        } else {
            for blk in 0..n {
                let base = blk * K;
                for &t in &active {
                    p[base + t] = z[base + t] + beta[t] * p[base + t];
                }
            }
        }
    }
    let e = SolveError::NotConverged {
        iterations: opts.max_iterations,
        residual: active.iter().map(|&t| residual[t]).fold(0.0, f64::max),
    };
    record_failure(&e);
    Err(e)
}

/// Records every column of a converged batch as one solve and returns the
/// batch's `(max_iterations, max_residual)`.
fn converged(iterations: &[usize], residual: &[f64]) -> (usize, f64) {
    for (&it, &res) in iterations.iter().zip(residual) {
        record_solve(it, res);
    }
    let max_it = iterations.iter().copied().max().unwrap_or(0);
    (max_it, residual.iter().copied().fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::ichol::IncompleteCholesky;
    use proptest::prelude::*;

    fn grid_laplacian(n: usize, shift: f64) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * n + c;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                coo.push(idx(r, c), idx(r, c), shift);
                if r + 1 < n {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r + 1, c)), 1.0);
                }
                if c + 1 < n {
                    coo.stamp_conductance(Some(idx(r, c)), Some(idx(r, c + 1)), 1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn converges_on_grid_with_all_preconditioners() {
        let a = grid_laplacian(8, 0.1);
        let x_true: Vec<f64> = (0..64).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let b = a.mul_vec(&x_true);
        let opts = CgOptions::default();

        for (name, sol) in [
            ("identity", solve(&a, &b, &IdentityPreconditioner, &opts).unwrap()),
            ("ic0", solve(&a, &b, &IncompleteCholesky::factor(&a).unwrap(), &opts).unwrap()),
        ] {
            for (xi, ti) in sol.x.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-6, "{name}: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn ic0_converges_faster_than_identity() {
        let a = grid_laplacian(12, 0.05);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let opts = CgOptions { tolerance: 1e-10, max_iterations: 5000 };
        let plain = solve(&a, &b, &IdentityPreconditioner, &opts).unwrap();
        let ic = solve(&a, &b, &IncompleteCholesky::factor(&a).unwrap(), &opts).unwrap();
        assert!(
            ic.iterations < plain.iterations,
            "IC(0) ({}) should beat identity ({})",
            ic.iterations,
            plain.iterations
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let a = grid_laplacian(10, 0.1);
        let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64).sin()).collect();
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let opts = CgOptions::default();
        let cold = solve(&a, &b, &pre, &opts).unwrap();
        // Perturb b slightly; warm-start from the previous solution.
        let b2: Vec<f64> = b.iter().map(|v| v * 1.001).collect();
        let mut x = cold.x.clone();
        let (iters, _) = solve_warm(&a, &b2, &mut x, &pre, &opts).unwrap();
        assert!(iters <= cold.iterations, "warm {iters} vs cold {}", cold.iterations);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = grid_laplacian(3, 1.0);
        let sol = solve(&a, &[0.0; 9], &IdentityPreconditioner, &CgOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 9]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let a = grid_laplacian(8, 0.01);
        // Not an eigenvector, so CG cannot terminate exactly in 2 steps.
        let b: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        let opts = CgOptions { tolerance: 0.0, max_iterations: 2 };
        assert!(matches!(
            solve(&a, &b, &IdentityPreconditioner, &opts),
            Err(SolveError::NotConverged { iterations: 2, .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = grid_laplacian(2, 1.0);
        assert!(matches!(
            solve(&a, &[1.0, 2.0], &IdentityPreconditioner, &CgOptions::default()),
            Err(SolveError::DimensionMismatch { .. })
        ));
        // Widths outside 1..=MAX_LOCKSTEP are rejected, not split.
        for k in [0, MAX_LOCKSTEP + 1] {
            let b = vec![1.0; 4 * k];
            let mut x = vec![0.0; 4 * k];
            assert!(matches!(
                solve_warm_multi(&a, &b, &mut x, k, &IdentityPreconditioner, &CgOptions::default()),
                Err(SolveError::DimensionMismatch { .. })
            ));
        }
    }

    /// Batch of right-hand sides with distinct convergence speeds (including
    /// one all-zero vector) for the lockstep-equivalence tests.
    fn batch_rhs(n: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|t| {
                (0..n)
                    .map(|i| {
                        if t == 1 {
                            0.0 // exercises the zero-norm freeze path
                        } else {
                            ((i * (2 * t + 3)) % 7) as f64 - 2.0 + (t as f64) * 0.25
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn lockstep_multi_rhs_is_bitwise_identical_to_sequential() {
        use crate::vecops::{deinterleave_into, interleave};
        let a = grid_laplacian(7, 0.2);
        let n = a.n_rows();
        let opts = CgOptions::default();
        let ic0 = IncompleteCholesky::factor(&a).unwrap();
        for k in 1..=MAX_LOCKSTEP {
            let rhs = batch_rhs(n, k);
            for pre_name in ["ic0", "identity"] {
                let run = |b: &[f64], x: &mut [f64]| -> (usize, f64) {
                    match pre_name {
                        "ic0" => solve_warm(&a, b, x, &ic0, &opts),
                        _ => solve_warm(&a, b, x, &IdentityPreconditioner, &opts),
                    }
                    .unwrap()
                };
                let run_multi = |b: &[f64], x: &mut [f64]| -> (usize, f64) {
                    match pre_name {
                        "ic0" => solve_warm_multi(&a, b, x, k, &ic0, &opts),
                        _ => solve_warm_multi(&a, b, x, k, &IdentityPreconditioner, &opts),
                    }
                    .unwrap()
                };

                // Sequential reference solves, one vector at a time.
                let mut seq_iters = 0usize;
                let seq: Vec<Vec<f64>> = rhs
                    .iter()
                    .map(|b| {
                        let mut x = vec![0.0; n];
                        let (it, _) = run(b, &mut x);
                        seq_iters = seq_iters.max(it);
                        x
                    })
                    .collect();

                // One lockstep batch from the same (zero) initial guesses.
                let refs: Vec<&[f64]> = rhs.iter().map(|v| v.as_slice()).collect();
                let mut b_multi = vec![0.0; n * k];
                interleave(&refs, &mut b_multi);
                let mut x_multi = vec![0.0; n * k];
                let (it_multi, _) = run_multi(&b_multi, &mut x_multi);
                assert_eq!(it_multi, seq_iters, "k={k} {pre_name}: iteration counts differ");

                let mut col = vec![0.0; n];
                for (t, expected) in seq.iter().enumerate() {
                    deinterleave_into(&x_multi, k, t, &mut col);
                    assert_eq!(&col, expected, "k={k} {pre_name}: vector {t} differs (bitwise)");
                }
            }
        }
    }

    #[test]
    fn multi_rhs_budget_exhaustion_reported() {
        let a = grid_laplacian(8, 0.01);
        let n = a.n_rows();
        let k = 2;
        let mut b = vec![0.0; n * k];
        for i in 0..n {
            b[i * k] = (i as f64 * 0.37).sin() + 2.0;
            b[i * k + 1] = (i as f64 * 0.11).cos();
        }
        let mut x = vec![0.0; n * k];
        let opts = CgOptions { tolerance: 0.0, max_iterations: 2 };
        assert!(matches!(
            solve_warm_multi(&a, &b, &mut x, k, &IdentityPreconditioner, &opts),
            Err(SolveError::NotConverged { iterations: 2, .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn random_spd_systems_converge(n in 2usize..20, seed in 0u64..200) {
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Random sparse SPD: diagonally dominant symmetric.
            let mut coo = CooMatrix::new(n, n);
            let mut row_sums = vec![0.0; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.3) {
                        let g = rng.gen_range(0.1..2.0);
                        coo.push(i, j, -g);
                        coo.push(j, i, -g);
                        row_sums[i] += g;
                        row_sums[j] += g;
                    }
                }
            }
            for (i, &rs) in row_sums.iter().enumerate() {
                coo.push(i, i, rs + rng.gen_range(0.1..1.0));
            }
            let a = coo.to_csr();
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b = a.mul_vec(&x_true);
            let pre = IncompleteCholesky::factor(&a).unwrap();
            let sol = solve(&a, &b, &pre, &CgOptions::default()).unwrap();
            for (xi, ti) in sol.x.iter().zip(&x_true) {
                prop_assert!((xi - ti).abs() < 1e-6);
            }
        }
    }
}
