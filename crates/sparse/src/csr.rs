//! Compressed-sparse-row matrices with row-streamed mat-vec.

/// An immutable CSR matrix.
///
/// Invariants: `indptr` is monotonically non-decreasing with
/// `indptr.len() == n_rows + 1`; within each row, column indices are strictly
/// increasing and in range. [`crate::coo::CooMatrix::to_csr`] guarantees
/// these.
///
/// # Example
///
/// ```
/// use pdn_sparse::coo::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0);
/// coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the invariants listed on the type are violated.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        assert_eq!(indptr.len(), n_rows + 1, "indptr length must be n_rows + 1");
        assert_eq!(indices.len(), values.len(), "indices/values length mismatch");
        assert_eq!(*indptr.last().unwrap_or(&0), indices.len(), "indptr end must equal nnz");
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        for r in 0..n_rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "column indices must be strictly increasing in a row");
            }
            if let Some(&last) = row.last() {
                assert!(last < n_cols, "column index out of range");
            }
        }
        CsrMatrix { n_rows, n_cols, indptr, indices, values }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> CsrMatrix {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(columns, values)` slices of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        assert!(row < self.n_rows, "row out of range");
        let lo = self.indptr[row];
        let hi = self.indptr[row + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(row, col)`, 0.0 for structural zeros.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-provided buffer (avoids allocation in the
    /// transient time loop): the width-1 case of
    /// [`mul_multi_into`](Self::mul_multi_into).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        self.mul_multi_into(x, 1, y);
    }

    /// `Y = A X` for `k` interleaved vectors (`x[i * k + t]` is entry `i` of
    /// vector `t`). The matrix is streamed once for all `k` vectors — the
    /// multi-RHS amortization the batched transient solver is built on —
    /// instead of once per vector.
    ///
    /// Per vector, the accumulation order does not depend on `k`, so each
    /// column of the result is bitwise identical to a separate `mul_vec`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=`[`MAX_LOCKSTEP`](crate::MAX_LOCKSTEP),
    /// `x.len() != n_cols * k`, or `y.len() != n_rows * k`.
    pub fn mul_multi_into(&self, x: &[f64], k: usize, y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols * k, "mul_multi: x length mismatch");
        assert_eq!(y.len(), self.n_rows * k, "mul_multi: y length mismatch");
        match k {
            1 => self.mul_multi_fixed::<1>(x, y),
            2 => self.mul_multi_fixed::<2>(x, y),
            3 => self.mul_multi_fixed::<3>(x, y),
            4 => self.mul_multi_fixed::<4>(x, y),
            _ => panic!("mul_multi: width {k} outside 1..={}", crate::MAX_LOCKSTEP),
        }
    }

    /// [`mul_multi_into`](Self::mul_multi_into) with the batch width fixed
    /// at compile time, so the `[f64; K]` accumulator lives in registers.
    fn mul_multi_fixed<const K: usize>(&self, x: &[f64], y: &mut [f64]) {
        // Exact chunks tell the compiler every block is `K` long, and
        // zipping the row's value and index slices leaves one bounds check
        // per entry, which keeps K = 1 as fast as a scalar loop.
        for (yr, w) in y.chunks_exact_mut(K).zip(self.indptr.windows(2)) {
            let mut acc = [0.0f64; K];
            for (&v, &c) in self.values[w[0]..w[1]].iter().zip(&self.indices[w[0]..w[1]]) {
                let base = c * K;
                for (a, &xv) in acc.iter_mut().zip(&x[base..base + K]) {
                    *a += v * xv;
                }
            }
            yr.copy_from_slice(&acc);
        }
    }

    /// Whether the matrix is numerically symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.n_rows != self.n_cols {
            return false;
        }
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Whether the matrix is (weakly row-) diagonally dominant — a cheap
    /// necessary sanity check for stamped conductance matrices.
    pub fn is_diagonally_dominant(&self, tol: f64) -> bool {
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag + tol < off {
                return false;
            }
        }
        true
    }

    /// Dense row-major copy — only for tests and small matrices.
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.n_cols]; self.n_rows];
        for (r, dense_row) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                dense_row[c] = v;
            }
        }
        out
    }

    /// Returns the matrix with rows and columns permuted by `perm`, where
    /// `perm[new] = old` (i.e. row `new` of the result is row `perm[new]` of
    /// `self`). Used to apply a fill-reducing ordering.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm` is not a permutation of
    /// `0..n`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(self.n_rows, self.n_cols, "permute_symmetric requires a square matrix");
        assert_eq!(perm.len(), self.n_rows, "permutation length mismatch");
        let n = self.n_rows;
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < n && inv[old] == usize::MAX, "perm is not a permutation");
            inv[old] = new;
        }
        let mut coo = crate::coo::CooMatrix::with_capacity(n, n, self.nnz());
        for r in 0..n {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(inv[r], inv[c], v);
            }
        }
        coo.to_csr()
    }

    /// Row pointers (for advanced consumers such as the IC(0) factorization).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use proptest::prelude::*;

    fn laplacian_path(n: usize) -> CsrMatrix {
        // 1-D resistor chain grounded at both ends: tridiagonal SPD.
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
    fn identity_matvec() {
        let a = CsrMatrix::identity(3);
        assert_eq!(a.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = laplacian_path(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dense = a.to_dense();
        let expect: Vec<f64> =
            dense.iter().map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum()).collect();
        assert_eq!(a.mul_vec(&x), expect);
    }

    #[test]
    fn multi_matvec_is_bitwise_identical_to_sequential() {
        use crate::vecops::{deinterleave_into, interleave};
        let a = laplacian_path(9);
        let n = a.n_rows();
        for k in 1..=crate::MAX_LOCKSTEP {
            let xs: Vec<Vec<f64>> = (0..k)
                .map(|t| (0..n).map(|i| (i as f64 + 1.0) * 0.3 - t as f64).collect())
                .collect();
            let singles: Vec<Vec<f64>> = xs.iter().map(|x| a.mul_vec(x)).collect();
            let refs: Vec<&[f64]> = xs.iter().map(|v| v.as_slice()).collect();
            let mut x_multi = vec![0.0; n * k];
            interleave(&refs, &mut x_multi);
            let mut y_multi = vec![0.0; n * k];
            a.mul_multi_into(&x_multi, k, &mut y_multi);
            let mut col = vec![0.0; n];
            for (t, expected) in singles.iter().enumerate() {
                deinterleave_into(&y_multi, k, t, &mut col);
                assert_eq!(&col, expected, "k={k}: column {t} differs");
            }
        }
    }

    #[test]
    fn symmetry_and_dominance() {
        let a = laplacian_path(4);
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diagonally_dominant(1e-12));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn permute_symmetric_reverses() {
        let a = laplacian_path(3);
        let perm = vec![2, 1, 0];
        let b = a.permute_symmetric(&perm);
        // Reversal of a symmetric tridiagonal matrix is itself.
        assert_eq!(a.to_dense(), b.to_dense());
        // A non-symmetric permutation check: move row/col 0 to the end.
        let perm = vec![1, 2, 0];
        let c = a.permute_symmetric(&perm);
        assert!(c.is_symmetric(0.0));
        assert_eq!(c.get(2, 2), a.get(0, 0));
    }

    #[test]
    #[should_panic(expected = "indptr length")]
    fn from_raw_validates() {
        let _ = CsrMatrix::from_raw(2, 2, vec![0, 0], vec![], vec![]);
    }

    proptest! {
        #[test]
        fn matvec_agrees_with_dense_random(n in 1usize..12, seed in 0u64..1000) {
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut coo = CooMatrix::new(n, n);
            for r in 0..n {
                for c in 0..n {
                    if rng.gen_bool(0.4) {
                        coo.push(r, c, rng.gen_range(-2.0..2.0));
                    }
                }
            }
            let a = coo.to_csr();
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let dense = a.to_dense();
            let expect: Vec<f64> = dense
                .iter()
                .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
                .collect();
            let got = a.mul_vec(&x);
            for (g, e) in got.iter().zip(&expect) {
                prop_assert!((g - e).abs() < 1e-10);
            }
        }
    }
}
