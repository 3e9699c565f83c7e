//! Zero-fill incomplete Cholesky — IC(0) — preconditioner.
//!
//! For the M-matrices produced by PDN stamping, IC(0) never breaks down and
//! reduces conjugate-gradient iteration counts by an order of magnitude
//! compared to unpreconditioned CG, which is what makes repeated transient
//! solves (one per time stamp, paper §2) affordable.

use crate::cg::Preconditioner;
use crate::csr::CsrMatrix;
use crate::error::{SolveError, SparseResult};

/// The IC(0) factor `L` (lower triangular, same sparsity as the lower
/// triangle of `A`), applied as the preconditioner `M⁻¹ = (L Lᵀ)⁻¹`.
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
/// use pdn_sparse::ichol::IncompleteCholesky;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(1, 1, 9.0);
/// let a = coo.to_csr();
/// // For a diagonal matrix, IC(0) is exact: M⁻¹ r = A⁻¹ r.
/// let pre = IncompleteCholesky::factor(&a).unwrap();
/// let mut z = vec![0.0; 2];
/// pre.solve_into(&[4.0, 9.0], &mut z);
/// assert_eq!(z, vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct IncompleteCholesky {
    n: usize,
    // L in CSR (row-major, columns ascending, diagonal last in each row).
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    // Lᵀ in CSR (i.e. L in CSC), for the backward solve.
    t_indptr: Vec<usize>,
    t_indices: Vec<usize>,
    t_values: Vec<f64>,
}

impl IncompleteCholesky {
    /// Computes the IC(0) factorization of a symmetric positive-definite
    /// matrix. Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] on pivot breakdown and
    /// [`SolveError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &CsrMatrix) -> SparseResult<IncompleteCholesky> {
        if a.n_rows() != a.n_cols() {
            return Err(SolveError::DimensionMismatch {
                detail: format!("ichol of {}x{} matrix", a.n_rows(), a.n_cols()),
            });
        }
        let n = a.n_rows();
        // Build the lower-triangle sparsity row by row; values computed with
        // the standard row-oriented IC(0) update:
        //   L[i][j] = (A[i][j] - Σ_k<j L[i][k] L[j][k]) / L[j][j]
        //   L[i][i] = sqrt(A[i][i] - Σ_k<i L[i][k]²)
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        indptr.push(0);

        // For the dot products we need fast access to "row j of L" for j < i;
        // rows are finalized in order, so we can scan them via indptr.
        for i in 0..n {
            let (a_cols, a_vals) = a.row(i);
            let row_start = indices.len();
            for (&j, &aij) in a_cols.iter().zip(a_vals) {
                if j > i {
                    break;
                }
                // Σ_k L[i][k] L[j][k] for k < j: merge-scan the two rows.
                let mut s = 0.0;
                {
                    let (mut p, mut q) = (row_start, indptr[j]);
                    let p_end = indices.len();
                    let q_end = if j == i { indices.len() } else { indptr[j + 1] };
                    while p < p_end && q < q_end {
                        let (cp, cq) = (indices[p], indices[q]);
                        if cp >= j || cq >= j {
                            break;
                        }
                        match cp.cmp(&cq) {
                            std::cmp::Ordering::Less => p += 1,
                            std::cmp::Ordering::Greater => q += 1,
                            std::cmp::Ordering::Equal => {
                                s += values[p] * values[q];
                                p += 1;
                                q += 1;
                            }
                        }
                    }
                }
                if j == i {
                    let pivot = aij - s;
                    if pivot <= 0.0 {
                        pdn_core::telemetry::counter_add("sparse.ichol.breakdowns", 1);
                        return Err(SolveError::NotPositiveDefinite { row: i, pivot });
                    }
                    indices.push(i);
                    values.push(pivot.sqrt());
                } else {
                    // Diagonal of row j is its last stored entry.
                    let ljj = values[indptr[j + 1] - 1];
                    indices.push(j);
                    values.push((aij - s) / ljj);
                }
            }
            indptr.push(indices.len());
        }

        // Transpose L for the backward substitution.
        let nnz = values.len();
        let mut t_indptr = vec![0usize; n + 1];
        for &c in &indices {
            t_indptr[c + 1] += 1;
        }
        for i in 0..n {
            t_indptr[i + 1] += t_indptr[i];
        }
        let mut t_indices = vec![0usize; nnz];
        let mut t_values = vec![0.0; nnz];
        let mut next = t_indptr.clone();
        for r in 0..n {
            for k in indptr[r]..indptr[r + 1] {
                let c = indices[k];
                t_indices[next[c]] = r;
                t_values[next[c]] = values[k];
                next[c] += 1;
            }
        }

        pdn_core::telemetry::counter_add("sparse.ichol.factorizations", 1);
        Ok(IncompleteCholesky { n, indptr, indices, values, t_indptr, t_indices, t_values })
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `L Lᵀ z = r` (forward then backward substitution): the
    /// width-1 case of [`solve_multi_into`](Self::solve_multi_into).
    ///
    /// # Panics
    ///
    /// Panics if lengths do not match the factor size.
    pub fn solve_into(&self, r: &[f64], z: &mut [f64]) {
        self.solve_multi_into(r, z, 1);
    }

    /// Solves `L Lᵀ Z = R` for `k` interleaved right-hand sides
    /// (`r[i * k + t]` is entry `i` of vector `t`), streaming the factor
    /// once per row for all vectors. Per vector, the operations do not
    /// depend on `k`, so each column is bitwise identical to a separate
    /// single-vector solve.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=`[`MAX_LOCKSTEP`](crate::MAX_LOCKSTEP)
    /// or lengths are not `dim() * k`.
    pub fn solve_multi_into(&self, r: &[f64], z: &mut [f64], k: usize) {
        assert_eq!(r.len(), self.n * k, "solve_multi: r length mismatch");
        assert_eq!(z.len(), self.n * k, "solve_multi: z length mismatch");
        match k {
            1 => self.solve_multi_fixed::<1>(r, z),
            2 => self.solve_multi_fixed::<2>(r, z),
            3 => self.solve_multi_fixed::<3>(r, z),
            4 => self.solve_multi_fixed::<4>(r, z),
            _ => panic!("solve_multi: width {k} outside 1..={}", crate::MAX_LOCKSTEP),
        }
    }

    /// [`solve_multi_into`](Self::solve_multi_into) with the batch width
    /// fixed at compile time, so the `[f64; K]` running block stays in
    /// registers across each row's update loop.
    fn solve_multi_fixed<const K: usize>(&self, r: &[f64], z: &mut [f64]) {
        // Forward: L Y = R, row-oriented; the diagonal is each row's last
        // entry.
        for (i, w) in self.indptr.windows(2).enumerate() {
            let (lo, diag) = (w[0], w[1] - 1);
            let mut s: [f64; K] = r[i * K..(i + 1) * K].try_into().expect("K-wide block");
            for (&v, &c) in self.values[lo..diag].iter().zip(&self.indices[lo..diag]) {
                let base = c * K;
                for (sv, &zv) in s.iter_mut().zip(&z[base..base + K]) {
                    *sv -= v * zv;
                }
            }
            let d = self.values[diag];
            for (zv, &sv) in z[i * K..(i + 1) * K].iter_mut().zip(&s) {
                *zv = sv / d;
            }
        }
        // Backward: Lᵀ X = Y; in Lᵀ's row i the diagonal is the first entry.
        for (i, w) in self.t_indptr.windows(2).enumerate().rev() {
            let (diag, hi) = (w[0], w[1]);
            let mut s: [f64; K] = z[i * K..(i + 1) * K].try_into().expect("K-wide block");
            for (&v, &c) in self.t_values[diag + 1..hi].iter().zip(&self.t_indices[diag + 1..hi]) {
                let base = c * K;
                for (sv, &zv) in s.iter_mut().zip(&z[base..base + K]) {
                    *sv -= v * zv;
                }
            }
            let d = self.t_values[diag];
            for (zv, &sv) in z[i * K..(i + 1) * K].iter_mut().zip(&s) {
                *zv = sv / d;
            }
        }
    }
}

impl Preconditioner for IncompleteCholesky {
    fn apply_multi(&self, r: &[f64], z: &mut [f64], k: usize) {
        self.solve_multi_into(r, z, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn laplacian_path(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn exact_on_tridiagonal() {
        // IC(0) on a tridiagonal matrix has no dropped fill, so it is the
        // exact Cholesky factorization: applying it solves the system.
        let a = laplacian_path(6);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let x_true: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let b = a.mul_vec(&x_true);
        let mut z = vec![0.0; 6];
        pre.solve_into(&b, &mut z);
        for (zi, ti) in z.iter().zip(&x_true) {
            assert!((zi - ti).abs() < 1e-12, "{zi} vs {ti}");
        }
    }

    #[test]
    fn matches_dense_cholesky_when_no_fill() {
        let a = laplacian_path(5);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let dense = crate::dense::DenseMatrix::from_rows(
            &a.to_dense().iter().map(|r| r.as_slice()).collect::<Vec<_>>(),
        );
        let chol = dense.cholesky().unwrap();
        let b = vec![1.0, 0.0, -1.0, 2.0, 0.5];
        let mut z = vec![0.0; 5];
        pre.solve_into(&b, &mut z);
        let x = chol.solve(&b);
        for (zi, xi) in z.iter().zip(&x) {
            assert!((zi - xi).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            IncompleteCholesky::factor(&a),
            Err(SolveError::NotPositiveDefinite { row: 1, .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        let coo = CooMatrix::new(2, 3);
        assert!(matches!(
            IncompleteCholesky::factor(&coo.to_csr()),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    /// 2-D 5-point Laplacian on an `n × n` grid: IC(0) drops fill on it.
    fn grid_2d(n: usize) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * n + c;
        let mut coo = CooMatrix::new(n * n, n * n);
        for r in 0..n {
            for c in 0..n {
                coo.push(idx(r, c), idx(r, c), 4.2);
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
    fn multi_solve_is_bitwise_identical_to_single_at_every_width() {
        use crate::vecops::{deinterleave_into, interleave};
        let a = grid_2d(6);
        let n = a.n_rows();
        let pre = IncompleteCholesky::factor(&a).unwrap();
        for k in 1..=crate::MAX_LOCKSTEP {
            let rhs: Vec<Vec<f64>> = (0..k)
                .map(|t| (0..n).map(|i| ((i * (t + 2)) % 9) as f64 - 4.0 + t as f64).collect())
                .collect();
            let singles: Vec<Vec<f64>> = rhs
                .iter()
                .map(|b| {
                    let mut z = vec![0.0; n];
                    pre.solve_into(b, &mut z);
                    z
                })
                .collect();
            let refs: Vec<&[f64]> = rhs.iter().map(|v| v.as_slice()).collect();
            let mut r = vec![0.0; n * k];
            interleave(&refs, &mut r);
            let mut z = vec![0.0; n * k];
            pre.solve_multi_into(&r, &mut z, k);
            let mut col = vec![0.0; n];
            for (t, expected) in singles.iter().enumerate() {
                deinterleave_into(&z, k, t, &mut col);
                assert_eq!(&col, expected, "k={k}: vector {t} differs (bitwise)");
            }
        }
    }

    #[test]
    fn incomplete_on_2d_grid_is_close() {
        // 2-D 5-point Laplacian has fill; IC(0) is inexact but should still
        // be a decent approximation: ‖A (LLᵀ)⁻¹ b − b‖ ≪ ‖b‖.
        let n = 4;
        let a = grid_2d(n);
        let pre = IncompleteCholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..n * n).map(|i| (i % 3) as f64 - 1.0).collect();
        let mut z = vec![0.0; n * n];
        pre.solve_into(&b, &mut z);
        let az = a.mul_vec(&z);
        let err: f64 = az.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / nb < 0.5, "IC(0) too inaccurate: {}", err / nb);
    }
}
