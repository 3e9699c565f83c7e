//! Dense f64 panel kernels for the supernodal Cholesky factorization.
//!
//! A supernode's columns are stored as one column-major dense panel, which
//! turns the sparse factorization's inner loops into small dense BLAS-3
//! operations: GEMM for descendant updates, SYRK + TRSM + a small dense
//! Cholesky for factoring the panel itself. These are the f64 counterparts
//! of the register-tiled blocked-GEMM approach in `pdn-nn::linalg` — the
//! micro-kernels keep fixed trip counts over a small column tile so LLVM
//! auto-vectorizes the row-direction loops, and every row block stays
//! resident in L1/L2 while the (narrow, ≤ panel-width) k-dimension streams.
//!
//! All matrices here are **column-major** with an explicit leading
//! dimension, matching the panel storage of
//! [`crate::supernodal::SupernodalCholesky`].

/// Micro-kernel row height: an `MR x 4` C tile accumulates in registers
/// across the whole k-loop (8 rows of f64 = two AVX vectors per column), so
/// each C element is loaded and stored exactly once per GEMM call.
const MR: usize = 8;

/// Accumulation mode of [`gemm_nt`]: add to, subtract from, or overwrite C.
const ADD: u8 = 0;
const SUB: u8 = 1;
const SET: u8 = 2;

/// `C += A * Bᵀ` for column-major `A (m x k, lda)`, `B (n x k, ldb)`,
/// `C (m x n, ldc)`.
///
/// # Panics
///
/// Panics (in debug builds) if a leading dimension is smaller than the
/// corresponding row count.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_nt_acc(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    gemm_nt::<ADD>(c, ldc, a, lda, b, ldb, m, n, k);
}

/// `C -= A * Bᵀ`, otherwise identical to [`gemm_nt_acc`].
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_nt_sub(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    gemm_nt::<SUB>(c, ldc, a, lda, b, ldb, m, n, k);
}

/// `C = A * Bᵀ` — overwrites C without reading it, so the caller skips the
/// zero-fill a fresh product would otherwise need.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemm_nt_out(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    gemm_nt::<SET>(c, ldc, a, lda, b, ldb, m, n, k);
}

#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn gemm_nt<const MODE: u8>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert!(lda >= m && ldc >= m && ldb >= n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Column tiles of 4, then the 2/1 tails; full-height MR row blocks run
    // the register micro-kernel, the sub-MR row tail falls to scalar code.
    let mut j = 0;
    while j + 4 <= n {
        let mut i = 0;
        while i + MR <= m {
            gemm_micro::<MODE, 4>(c, ldc, a, lda, b, ldb, i, j, k);
            i += MR;
        }
        gemm_edge::<MODE>(c, ldc, a, lda, b, ldb, i, m, j, j + 4, k);
        j += 4;
    }
    while j + 2 <= n {
        let mut i = 0;
        while i + MR <= m {
            gemm_micro::<MODE, 2>(c, ldc, a, lda, b, ldb, i, j, k);
            i += MR;
        }
        gemm_edge::<MODE>(c, ldc, a, lda, b, ldb, i, m, j, j + 2, k);
        j += 2;
    }
    if j < n {
        let mut i = 0;
        while i + MR <= m {
            gemm_micro::<MODE, 1>(c, ldc, a, lda, b, ldb, i, j, k);
            i += MR;
        }
        gemm_edge::<MODE>(c, ldc, a, lda, b, ldb, i, m, j, j + 1, k);
    }
}

/// `MR x NC` register tile of [`gemm_nt`]: accumulates the whole k-loop in
/// local arrays (fixed trip counts, so LLVM keeps them in vector registers)
/// and touches each C element exactly once at the end.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn gemm_micro<const MODE: u8, const NC: usize>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    i: usize,
    j: usize,
    k: usize,
) {
    let mut acc = [[0.0f64; MR]; NC];
    for p in 0..k {
        let ar: &[f64; MR] = a[p * lda + i..p * lda + i + MR].try_into().unwrap();
        for (cc, accc) in acc.iter_mut().enumerate() {
            let bv = b[p * ldb + j + cc];
            for (ac, &av) in accc.iter_mut().zip(ar) {
                *ac += av * bv;
            }
        }
    }
    for (cc, accc) in acc.iter().enumerate() {
        let cs = &mut c[(j + cc) * ldc + i..(j + cc) * ldc + i + MR];
        for (cv, &av) in cs.iter_mut().zip(accc) {
            match MODE {
                SUB => *cv -= av,
                SET => *cv = av,
                _ => *cv += av,
            }
        }
    }
}

/// Scalar remainder of [`gemm_nt`] for rows `i0..i1`, columns `j0..j1`;
/// per-element k-ordered sums, matching the micro-kernel's accumulation.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
fn gemm_edge<const MODE: u8>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    i0: usize,
    i1: usize,
    j0: usize,
    j1: usize,
    k: usize,
) {
    for jj in j0..j1 {
        for ii in i0..i1 {
            let mut s = 0.0;
            for p in 0..k {
                s += a[p * lda + ii] * b[p * ldb + jj];
            }
            let cv = &mut c[jj * ldc + ii];
            match MODE {
                SUB => *cv -= s,
                SET => *cv = s,
                _ => *cv += s,
            }
        }
    }
}

/// `X := X * L⁻ᵀ` for column-major `X (m x w, ldx)` and a lower-triangular
/// `L (w x w)` stored in the columns of `l` with leading dimension `ldl`
/// (only the lower triangle of `L` is read). This is the right-side
/// triangular solve that turns the below-diagonal block of a panel into
/// final factor columns.
pub fn trsm_rlt(x: &mut [f64], ldx: usize, l: &[f64], ldl: usize, m: usize, w: usize) {
    debug_assert!(ldx >= m && ldl >= w);
    for j in 0..w {
        let d = l[j * ldl + j];
        let inv = 1.0 / d;
        // xj = (xj - Σ_{t<j} L[j][t] * xt) / L[j][j], column-oriented so the
        // subtraction ran when column t was finalized below.
        let xj = &mut x[j * ldx..j * ldx + m];
        for v in xj.iter_mut() {
            *v *= inv;
        }
        // Eagerly push column j into the trailing columns (right-looking):
        // for t > j, xt -= L[t][j] * xj.
        if j + 1 >= w {
            break;
        }
        let (head, tail) = x.split_at_mut((j + 1) * ldx);
        let xj = &head[j * ldx..j * ldx + m];
        for t in j + 1..w {
            let ltj = l[j * ldl + t];
            if ltj == 0.0 {
                continue;
            }
            let xt = &mut tail[(t - j - 1) * ldx..(t - j - 1) * ldx + m];
            for (xv, &jv) in xt.iter_mut().zip(xj) {
                *xv -= ltj * jv;
            }
        }
    }
}

/// In-place dense Cholesky `A = L Lᵀ` of the lower triangle of a column-
/// major `n x n` block with leading dimension `lda`. Reads and writes only
/// the lower triangle.
///
/// # Errors
///
/// Returns `Err((column, pivot))` on the first non-positive pivot.
pub fn chol_ll(a: &mut [f64], lda: usize, n: usize) -> Result<(), (usize, f64)> {
    debug_assert!(lda >= n);
    for j in 0..n {
        let d = a[j * lda + j];
        if d <= 0.0 || !d.is_finite() {
            return Err((j, d));
        }
        let d = d.sqrt();
        a[j * lda + j] = d;
        let inv = 1.0 / d;
        for i in j + 1..n {
            a[j * lda + i] *= inv;
        }
        // Right-looking rank-1 update of the trailing submatrix.
        if j + 1 >= n {
            break;
        }
        let (head, tail) = a.split_at_mut((j + 1) * lda);
        let colj = &head[j * lda..j * lda + n];
        for t in j + 1..n {
            let ltj = colj[t];
            if ltj == 0.0 {
                continue;
            }
            let colt = &mut tail[(t - j - 1) * lda..(t - j - 1) * lda + n];
            for i in t..n {
                colt[i] -= colj[i] * ltj;
            }
        }
    }
    Ok(())
}

/// Factors one supernode panel in place: a blocked dense Cholesky of the
/// `w x w` diagonal block followed by the TRSM that finalizes the
/// `((h - w) x w` below-diagonal block, both driven by the kernels above.
/// `panel` is column-major `h x w` with leading dimension `h`; only the
/// lower trapezoid is meaningful.
///
/// # Errors
///
/// Returns `Err((column, pivot))` with the panel-local column index on
/// breakdown.
pub fn factor_panel(panel: &mut [f64], h: usize, w: usize) -> Result<(), (usize, f64)> {
    debug_assert!(h >= w);
    const JB: usize = 16;
    let mut j0 = 0;
    while j0 < w {
        let jb = JB.min(w - j0);
        // Update block columns j0..j0+jb with the already-factored columns
        // 0..j0: SYRK on the diagonal block, GEMM on the rows below it.
        if j0 > 0 {
            let (done, rest) = panel.split_at_mut(j0 * h);
            let blk = &mut rest[..jb * h];
            {
                // Diagonal block rows j0..j0+jb.
                let a_top = &done[j0..]; // row offset j0 within each column
                syrk_ln_view(blk, h, j0, a_top, h, jb, j0);
            }
            if h > j0 + jb {
                let m = h - j0 - jb;
                let (c_off, a_off) = (j0 + jb, j0 + jb);
                gemm_nt_sub(
                    &mut blk[c_off..],
                    h,
                    &done[a_off..],
                    h,
                    &done[j0..],
                    h,
                    m,
                    jb,
                    j0,
                );
            }
        }
        // Factor the diagonal block and solve the rows below it.
        {
            let blk = &mut panel[j0 * h..(j0 + jb) * h];
            if let Err((c, p)) = chol_ll(&mut blk[j0..], h, jb) {
                return Err((j0 + c, p));
            }
            if h > j0 + jb {
                let m = h - j0 - jb;
                // X (m x jb) starts at row j0+jb; L is the block just
                // factored at rows j0..j0+jb. Both live in `blk`, so solve
                // via the split borrow inside trsm by copying the tiny L.
                let mut ldiag = [0.0f64; JB * JB];
                for jj in 0..jb {
                    for ii in jj..jb {
                        ldiag[jj * JB + ii] = blk[jj * h + j0 + ii];
                    }
                }
                trsm_rlt(&mut blk[j0 + jb..], h, &ldiag, JB, m, jb);
            }
        }
        j0 += jb;
    }
    Ok(())
}

/// `C[lower] -= A_top * A_topᵀ` where `A_top` is an `n x k` row-slice view
/// (rows start at the slice's first element, columns `lda` apart) — the
/// SYRK step of [`factor_panel`] where the updating rows sit mid-panel.
fn syrk_ln_view(
    c: &mut [f64],
    ldc: usize,
    c_row: usize,
    a: &[f64],
    lda: usize,
    n: usize,
    k: usize,
) {
    for j in 0..n {
        for p in 0..k {
            let ajp = a[p * lda + j];
            if ajp == 0.0 {
                continue;
            }
            for i in j..n {
                c[j * ldc + c_row + i] -= a[p * lda + i] * ajp;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng as _;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn random_colmajor(rng: &mut impl rand::Rng, rows: usize, cols: usize, ld: usize) -> Vec<f64> {
        let mut m = vec![0.0; ld * cols];
        for j in 0..cols {
            for i in 0..rows {
                m[j * ld + i] = rng.gen_range(-1.0..1.0);
            }
        }
        m
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_nt_ref(c: &mut [f64], ldc: usize, a: &[f64], lda: usize, b: &[f64], ldb: usize, m: usize, n: usize, k: usize, sign: f64) {
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p * lda + i] * b[p * ldb + j];
                }
                c[j * ldc + i] += sign * acc;
            }
        }
    }

    #[test]
    fn gemm_matches_reference_over_shapes() {
        let mut r = rng(7);
        for &(m, n, k) in
            &[(1, 1, 1), (3, 2, 5), (8, 7, 3), (130, 5, 9), (257, 8, 16), (64, 1, 4), (5, 9, 32)]
        {
            let lda = m + 3;
            let ldb = n + 1;
            let ldc = m + 2;
            let a = random_colmajor(&mut r, m, k, lda);
            let b = random_colmajor(&mut r, n, k, ldb);
            let mut c = random_colmajor(&mut r, m, n, ldc);
            let mut c_ref = c.clone();
            gemm_nt_acc(&mut c, ldc, &a, lda, &b, ldb, m, n, k);
            gemm_nt_ref(&mut c_ref, ldc, &a, lda, &b, ldb, m, n, k, 1.0);
            for (x, y) in c.iter().zip(&c_ref) {
                assert!((x - y).abs() < 1e-12, "acc {m}x{n}x{k}: {x} vs {y}");
            }
            let mut c2 = c.clone();
            let mut c2_ref = c.clone();
            gemm_nt_sub(&mut c2, ldc, &a, lda, &b, ldb, m, n, k);
            gemm_nt_ref(&mut c2_ref, ldc, &a, lda, &b, ldb, m, n, k, -1.0);
            for (x, y) in c2.iter().zip(&c2_ref) {
                assert!((x - y).abs() < 1e-12, "sub {m}x{n}x{k}: {x} vs {y}");
            }
            // Overwrite mode: garbage in C must not leak into the product.
            let mut c3 = random_colmajor(&mut r, m, n, ldc);
            let mut c3_ref = vec![0.0; ldc * n];
            gemm_nt_out(&mut c3, ldc, &a, lda, &b, ldb, m, n, k);
            gemm_nt_ref(&mut c3_ref, ldc, &a, lda, &b, ldb, m, n, k, 1.0);
            for j in 0..n {
                for i in 0..m {
                    let (x, y) = (c3[j * ldc + i], c3_ref[j * ldc + i]);
                    assert!((x - y).abs() < 1e-12, "out {m}x{n}x{k}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn syrk_matches_gemm_on_lower_triangle() {
        let mut r = rng(11);
        for &(n, k) in &[(1, 1), (4, 3), (9, 8), (17, 16), (23, 5)] {
            let lda = n + 2;
            let ldc = n + 1;
            let a = random_colmajor(&mut r, n, k, lda);
            let mut c = random_colmajor(&mut r, n, n, ldc);
            let orig = c.clone();
            let mut c_ref = c.clone();
            syrk_ln_view(&mut c, ldc, 0, &a, lda, n, k);
            gemm_nt_ref(&mut c_ref, ldc, &a, lda, &a, lda, n, n, k, -1.0);
            for j in 0..n {
                for i in j..n {
                    let (x, y) = (c[j * ldc + i], c_ref[j * ldc + i]);
                    assert!((x - y).abs() < 1e-12, "syrk {n}x{k} at ({i},{j})");
                }
                // Strictly-upper entries must be untouched, bitwise.
                for i in 0..j {
                    assert_eq!(c[j * ldc + i], orig[j * ldc + i], "syrk wrote upper ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn chol_and_trsm_round_trip() {
        let mut r = rng(3);
        for &n in &[1usize, 2, 5, 12, 16, 31] {
            let lda = n + 2;
            // SPD via A = M Mᵀ + n * I.
            let m = random_colmajor(&mut r, n, n, n);
            let mut a = vec![0.0; lda * n];
            for j in 0..n {
                for i in 0..n {
                    let mut acc = if i == j { n as f64 } else { 0.0 };
                    for p in 0..n {
                        acc += m[p * n + i] * m[p * n + j];
                    }
                    a[j * lda + i] = acc;
                }
            }
            let orig = a.clone();
            chol_ll(&mut a, lda, n).unwrap();
            // L Lᵀ == original (lower triangle check suffices by symmetry).
            for j in 0..n {
                for i in j..n {
                    let mut acc = 0.0;
                    for p in 0..=j.min(i) {
                        acc += a[p * lda + i] * a[p * lda + j];
                    }
                    let want = orig[j * lda + i];
                    assert!((acc - want).abs() < 1e-9 * (1.0 + want.abs()), "({i},{j})");
                }
            }
            // TRSM: X := B * L⁻ᵀ, then X * Lᵀ must reproduce B.
            let mrows = 7;
            let ldx = mrows + 1;
            let b = random_colmajor(&mut r, mrows, n, ldx);
            let mut x = b.clone();
            trsm_rlt(&mut x, ldx, &a, lda, mrows, n);
            for j in 0..n {
                for i in 0..mrows {
                    // (X Lᵀ)[i][j] = Σ_t X[i][t] L[j][t], t ≤ j.
                    let mut acc = 0.0;
                    for t in 0..=j {
                        acc += x[t * ldx + i] * a[t * lda + j];
                    }
                    let want = b[j * ldx + i];
                    assert!((acc - want).abs() < 1e-9 * (1.0 + want.abs()));
                }
            }
        }
    }

    #[test]
    fn chol_reports_indefinite_pivot() {
        // diag(1, -4) is indefinite: breakdown at column 1.
        let mut a = vec![1.0, 0.0, 0.0, -4.0];
        let err = chol_ll(&mut a, 2, 2).unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1 < 0.0);
    }

    #[test]
    fn factor_panel_matches_unblocked_cholesky() {
        let mut r = rng(19);
        for &(h, w) in &[(1usize, 1usize), (5, 3), (20, 16), (45, 17), (80, 32), (33, 33)] {
            // Build an SPD h x h matrix and keep only its first w columns'
            // lower trapezoid as the panel input.
            let m = random_colmajor(&mut r, h, h, h);
            let mut full = vec![0.0; h * h];
            for j in 0..h {
                for i in 0..h {
                    let mut acc = if i == j { h as f64 } else { 0.0 };
                    for p in 0..h {
                        acc += m[p * h + i] * m[p * h + j];
                    }
                    full[j * h + i] = acc;
                }
            }
            let mut panel: Vec<f64> = full[..w * h].to_vec();
            factor_panel(&mut panel, h, w).unwrap();
            // Reference: unblocked Cholesky of the full matrix; its first w
            // columns must match the panel factor.
            chol_ll(&mut full, h, h).unwrap();
            for j in 0..w {
                for i in j..h {
                    let (x, y) = (panel[j * h + i], full[j * h + i]);
                    assert!(
                        (x - y).abs() < 1e-8 * (1.0 + y.abs()),
                        "panel {h}x{w} ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }
}
