//! Small dense `f32` kernels backing the convolution layers.
//!
//! The three `gemm*` entry points share one register-tiled, cache-blocked
//! driver: `A` strips and `B` panels are packed into contiguous
//! micro-panels, and an `MR×NR` micro-kernel keeps the accumulator tile in
//! registers across the inner `k` loop. The micro-kernel preloads its
//! accumulator from `C`, so products are added in globally ascending `k`
//! order — results are bitwise identical to the naive triple loop (see
//! [`reference`]), only faster. On x86-64 the micro-kernel dispatches at
//! runtime to an AVX-512 or AVX variant built from separate multiply and
//! add (never FMA), preserving that bitwise guarantee.

/// Micro-kernel tile height (rows of `C` held in registers).
const MR: usize = 4;
/// Micro-kernel tile width (columns of `C` held in registers; one AVX-512
/// vector or two AVX vectors of `f32`).
const NR: usize = 16;
/// `k`-blocking depth: one packed `A` strip of `KC` values per row block
/// stays resident in L1 while the micro-kernel streams the `B` panel.
const KC: usize = 256;
/// Below this flop count the packing overhead outweighs the blocked
/// driver; the convenience wrappers fall back to the naive loops.
const SMALL_CUTOFF: usize = 1 << 12;

/// Reusable packing workspace for the blocked GEMM driver.
///
/// Holding one per call site (e.g. per convolution layer) means the packed
/// `A`/`B` panels are allocated once and recycled across invocations.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    pack_a: Vec<f32>,
    pack_b: Vec<f32>,
}

impl GemmScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> GemmScratch {
        GemmScratch::default()
    }
}

/// Straightforward triple-loop kernels, kept as the oracle for equivalence
/// tests and as the before-side of the GEMM benchmarks. Branch-free: a zero
/// in `A` costs a multiply, not a data-dependent branch.
pub mod reference {
    /// `C[m×n] = A[m×k] · B[k×n]`, row-major.
    pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for (row, c_row) in c.chunks_mut(n).enumerate().take(m) {
            c_row.fill(0.0);
            let a_row = &a[row * k..(row + 1) * k];
            for (kk, &av) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// `C[m×n] = Aᵀ · B` where `A` is stored as `k×m` row-major.
    pub fn gemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for (row, c_row) in c.chunks_mut(n).enumerate().take(m) {
            c_row.fill(0.0);
            for kk in 0..k {
                let av = a[kk * m + row];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (cv, bv) in c_row.iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// `C[m×n] = A · Bᵀ` where `B` is stored as `n×k` row-major.
    pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for (row, c_row) in c.chunks_mut(n).enumerate().take(m) {
            let a_row = &a[row * k..(row + 1) * k];
            for (col, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[col * k..(col + 1) * k];
                *cv = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
    }
}

/// Widest SIMD path the running CPU supports, detected once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Scalar,
    Avx,
    Avx512,
}

fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<Isa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::arch::is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else if std::arch::is_x86_feature_detected!("avx") {
                Isa::Avx
            } else {
                Isa::Scalar
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    Isa::Scalar
}

/// Portable micro-kernel: `acc += pa-strip · pb-panel` over the whole
/// k-block. Fixed-size array views give LLVM known trip counts.
fn micro_scalar(pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (av, bv) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        let av: &[f32; MR] = av.try_into().unwrap();
        let bv: &[f32; NR] = bv.try_into().unwrap();
        for (row, &ai) in acc.iter_mut().zip(av) {
            for (r, &bj) in row.iter_mut().zip(bv) {
                *r += ai * bj;
            }
        }
    }
}

/// [`micro_scalar`] reading `B` in place (row stride `ldb`) instead of
/// from a packed panel.
fn micro_scalar_direct(pa: &[f32], b: &[f32], ldb: usize, acc: &mut [[f32; NR]; MR]) {
    for (kk, av) in pa.chunks_exact(MR).enumerate() {
        let av: &[f32; MR] = av.try_into().unwrap();
        let bv: &[f32; NR] = b[kk * ldb..][..NR].try_into().unwrap();
        for (row, &ai) in acc.iter_mut().zip(av) {
            for (r, &bj) in row.iter_mut().zip(bv) {
                *r += ai * bj;
            }
        }
    }
}

/// Hand-vectorized micro-kernels. Both use separate multiply and add (no
/// FMA contraction), so every product is rounded exactly as in the scalar
/// reference — the SIMD paths stay bitwise identical to [`reference`].
#[cfg(target_arch = "x86_64")]
mod kernels {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// AVX: 4 rows × two 8-lane `f32` accumulators.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support at runtime.
    #[target_feature(enable = "avx")]
    pub unsafe fn micro_avx(pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
        let kc = pa.len() / MR;
        debug_assert_eq!(pb.len(), kc * NR);
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for ii in 0..MR {
            lo[ii] = _mm256_loadu_ps(acc[ii].as_ptr());
            hi[ii] = _mm256_loadu_ps(acc[ii].as_ptr().add(8));
        }
        for kk in 0..kc {
            let b_lo = _mm256_loadu_ps(pb.as_ptr().add(kk * NR));
            let b_hi = _mm256_loadu_ps(pb.as_ptr().add(kk * NR + 8));
            let ap = pa.as_ptr().add(kk * MR);
            for ii in 0..MR {
                let ai = _mm256_set1_ps(*ap.add(ii));
                lo[ii] = _mm256_add_ps(lo[ii], _mm256_mul_ps(ai, b_lo));
                hi[ii] = _mm256_add_ps(hi[ii], _mm256_mul_ps(ai, b_hi));
            }
        }
        for ii in 0..MR {
            _mm256_storeu_ps(acc[ii].as_mut_ptr(), lo[ii]);
            _mm256_storeu_ps(acc[ii].as_mut_ptr().add(8), hi[ii]);
        }
    }

    /// AVX-512: 4 rows × one 16-lane `f32` accumulator.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support at runtime.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_avx512(pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
        let kc = pa.len() / MR;
        debug_assert_eq!(pb.len(), kc * NR);
        let mut r = [_mm512_setzero_ps(); MR];
        for ii in 0..MR {
            r[ii] = _mm512_loadu_ps(acc[ii].as_ptr());
        }
        for kk in 0..kc {
            let b = _mm512_loadu_ps(pb.as_ptr().add(kk * NR));
            let ap = pa.as_ptr().add(kk * MR);
            for (ii, ri) in r.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ap.add(ii));
                *ri = _mm512_add_ps(*ri, _mm512_mul_ps(ai, b));
            }
        }
        for ii in 0..MR {
            _mm512_storeu_ps(acc[ii].as_mut_ptr(), r[ii]);
        }
    }

    /// [`micro_avx`] reading `B` in place (row stride `ldb`).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX support at runtime; `b` must cover
    /// `(kc - 1) * ldb + NR` elements.
    #[target_feature(enable = "avx")]
    pub unsafe fn micro_avx_direct(pa: &[f32], b: &[f32], ldb: usize, acc: &mut [[f32; NR]; MR]) {
        let kc = pa.len() / MR;
        debug_assert!(b.len() >= (kc - 1) * ldb + NR);
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for ii in 0..MR {
            lo[ii] = _mm256_loadu_ps(acc[ii].as_ptr());
            hi[ii] = _mm256_loadu_ps(acc[ii].as_ptr().add(8));
        }
        for kk in 0..kc {
            let b_lo = _mm256_loadu_ps(b.as_ptr().add(kk * ldb));
            let b_hi = _mm256_loadu_ps(b.as_ptr().add(kk * ldb + 8));
            let ap = pa.as_ptr().add(kk * MR);
            for ii in 0..MR {
                let ai = _mm256_set1_ps(*ap.add(ii));
                lo[ii] = _mm256_add_ps(lo[ii], _mm256_mul_ps(ai, b_lo));
                hi[ii] = _mm256_add_ps(hi[ii], _mm256_mul_ps(ai, b_hi));
            }
        }
        for ii in 0..MR {
            _mm256_storeu_ps(acc[ii].as_mut_ptr(), lo[ii]);
            _mm256_storeu_ps(acc[ii].as_mut_ptr().add(8), hi[ii]);
        }
    }

    /// [`micro_avx512`] reading `B` in place (row stride `ldb`).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support at runtime; `b` must
    /// cover `(kc - 1) * ldb + NR` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_avx512_direct(
        pa: &[f32],
        b: &[f32],
        ldb: usize,
        acc: &mut [[f32; NR]; MR],
    ) {
        let kc = pa.len() / MR;
        debug_assert!(b.len() >= (kc - 1) * ldb + NR);
        let mut r = [_mm512_setzero_ps(); MR];
        for ii in 0..MR {
            r[ii] = _mm512_loadu_ps(acc[ii].as_ptr());
        }
        for kk in 0..kc {
            let bv = _mm512_loadu_ps(b.as_ptr().add(kk * ldb));
            let ap = pa.as_ptr().add(kk * MR);
            for (ii, ri) in r.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*ap.add(ii));
                *ri = _mm512_add_ps(*ri, _mm512_mul_ps(ai, bv));
            }
        }
        for ii in 0..MR {
            _mm512_storeu_ps(acc[ii].as_mut_ptr(), r[ii]);
        }
    }
}

/// The blocked driver shared by all three storage layouts. `a_at(i, kk)`
/// and `b_at(kk, j)` read logical elements; packing absorbs the layout
/// differences so one micro-kernel serves `gemm`, `gemm_at` and `gemm_bt`.
///
/// When `B` is already stored `k×n` row-major the caller passes it as
/// `direct_b`; wide, short products (few row strips) then skip packing `B`
/// entirely and stream it in place — for those shapes the pack traffic
/// costs more than it saves, since each packed panel is reused only a
/// couple of times.
#[allow(clippy::too_many_arguments)] // internal driver; the three public wrappers stay narrow
fn blocked<A, B>(
    m: usize,
    k: usize,
    n: usize,
    a_at: A,
    b_at: B,
    direct_b: Option<&[f32]>,
    c: &mut [f32],
    scratch: &mut GemmScratch,
) where
    A: Fn(usize, usize) -> f32,
    B: Fn(usize, usize) -> f32,
{
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let mp = m.div_ceil(MR) * MR;
    let np = n.div_ceil(NR) * NR;
    let kc_max = k.min(KC);
    scratch.pack_a.resize(mp * kc_max, 0.0);
    let row_strips = mp / MR;
    let col_panels = np / NR;
    let level = isa();

    if let (Some(bs), true) = (direct_b, row_strips <= 4) {
        // Wide path: panel-outer, strip-inner, `B` read in place. Only a
        // ragged right-edge panel (n % NR != 0) is packed. Each `C` tile
        // still accumulates its k-products in ascending order, so results
        // match the packed path bitwise.
        scratch.pack_b.resize(NR * kc_max, 0.0);
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            let pa = &mut scratch.pack_a[..mp * kc];
            for ip in 0..row_strips {
                for kk in 0..kc {
                    let dst = &mut pa[(ip * kc + kk) * MR..][..MR];
                    for (ii, d) in dst.iter_mut().enumerate() {
                        let i = ip * MR + ii;
                        *d = if i < m { a_at(i, kb + kk) } else { 0.0 };
                    }
                }
            }
            for jp in 0..col_panels {
                let j0 = jp * NR;
                let jlen = NR.min(n - j0);
                if jlen < NR {
                    let pb = &mut scratch.pack_b[..NR * kc];
                    for kk in 0..kc {
                        let dst = &mut pb[kk * NR..][..NR];
                        for (jj, d) in dst.iter_mut().enumerate() {
                            let j = j0 + jj;
                            *d = if j < n { b_at(kb + kk, j) } else { 0.0 };
                        }
                    }
                }
                for ip in 0..row_strips {
                    let i0 = ip * MR;
                    let rows = MR.min(m - i0);
                    let pa_s = &scratch.pack_a[ip * kc * MR..][..kc * MR];
                    let mut acc = [[0.0f32; NR]; MR];
                    for (ii, row) in acc.iter_mut().enumerate().take(rows) {
                        let base = (i0 + ii) * n + j0;
                        row[..jlen].copy_from_slice(&c[base..base + jlen]);
                    }
                    if jlen == NR {
                        let bsub = &bs[kb * n + j0..];
                        match level {
                            // SAFETY: the feature was detected in isa().
                            #[cfg(target_arch = "x86_64")]
                            Isa::Avx512 => unsafe {
                                kernels::micro_avx512_direct(pa_s, bsub, n, &mut acc)
                            },
                            #[cfg(target_arch = "x86_64")]
                            Isa::Avx => unsafe {
                                kernels::micro_avx_direct(pa_s, bsub, n, &mut acc)
                            },
                            _ => micro_scalar_direct(pa_s, bsub, n, &mut acc),
                        }
                    } else {
                        let pb = &scratch.pack_b[..NR * kc];
                        match level {
                            // SAFETY: the feature was detected in isa().
                            #[cfg(target_arch = "x86_64")]
                            Isa::Avx512 => unsafe { kernels::micro_avx512(pa_s, pb, &mut acc) },
                            #[cfg(target_arch = "x86_64")]
                            Isa::Avx => unsafe { kernels::micro_avx(pa_s, pb, &mut acc) },
                            _ => micro_scalar(pa_s, pb, &mut acc),
                        }
                    }
                    for (ii, row) in acc.iter().enumerate().take(rows) {
                        let base = (i0 + ii) * n + j0;
                        c[base..base + jlen].copy_from_slice(&row[..jlen]);
                    }
                }
            }
            kb += kc;
        }
        return;
    }

    scratch.pack_b.resize(np * kc_max, 0.0);
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        // Pack B into [panel][kk][NR] micro-panels, zero-padded on the right.
        let pb = &mut scratch.pack_b[..np * kc];
        for jp in 0..col_panels {
            for kk in 0..kc {
                let dst = &mut pb[(jp * kc + kk) * NR..][..NR];
                for (jj, d) in dst.iter_mut().enumerate() {
                    let j = jp * NR + jj;
                    *d = if j < n { b_at(kb + kk, j) } else { 0.0 };
                }
            }
        }
        // Pack A into [strip][kk][MR] micro-panels, zero-padded at the bottom.
        let pa = &mut scratch.pack_a[..mp * kc];
        for ip in 0..row_strips {
            for kk in 0..kc {
                let dst = &mut pa[(ip * kc + kk) * MR..][..MR];
                for (ii, d) in dst.iter_mut().enumerate() {
                    let i = ip * MR + ii;
                    *d = if i < m { a_at(i, kb + kk) } else { 0.0 };
                }
            }
        }
        let pa = &scratch.pack_a[..mp * kc];
        let pb = &scratch.pack_b[..np * kc];
        for (ip, c_strip) in c.chunks_mut(MR * n).enumerate() {
            let rows = c_strip.len() / n;
            let pa_s = &pa[ip * kc * MR..][..kc * MR];
            for jp in 0..col_panels {
                let pb_p = &pb[jp * kc * NR..][..kc * NR];
                let j0 = jp * NR;
                let jlen = NR.min(n - j0);
                // Preload the tile so this k-block continues the running
                // per-element sums in ascending-k order (bitwise identical
                // to the naive loop). Padded lanes stay 0 and are never
                // written back.
                let mut acc = [[0.0f32; NR]; MR];
                for (ii, row) in acc.iter_mut().enumerate().take(rows) {
                    row[..jlen].copy_from_slice(&c_strip[ii * n + j0..ii * n + j0 + jlen]);
                }
                match level {
                    // SAFETY: the matching CPU feature was detected in isa().
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx512 => unsafe { kernels::micro_avx512(pa_s, pb_p, &mut acc) },
                    #[cfg(target_arch = "x86_64")]
                    Isa::Avx => unsafe { kernels::micro_avx(pa_s, pb_p, &mut acc) },
                    _ => micro_scalar(pa_s, pb_p, &mut acc),
                }
                for (ii, row) in acc.iter().enumerate().take(rows) {
                    c_strip[ii * n + j0..ii * n + j0 + jlen].copy_from_slice(&row[..jlen]);
                }
            }
        }
        kb += kc;
    }
}

/// `C[m×n] = A[m×k] · B[k×n]`, row-major, using the blocked driver with a
/// caller-provided packing workspace.
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    blocked(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j], Some(b), c, scratch);
}

/// `C[m×n] = Aᵀ[m×k] · B[k×n]` where `A` is stored as `k×m` row-major,
/// using the blocked driver with a caller-provided workspace.
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm_at_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), k * m, "gemm_at: A length");
    assert_eq!(b.len(), k * n, "gemm_at: B length");
    assert_eq!(c.len(), m * n, "gemm_at: C length");
    blocked(m, k, n, |i, kk| a[kk * m + i], |kk, j| b[kk * n + j], Some(b), c, scratch);
}

/// `C[m×n] = A[m×k] · Bᵀ[k×n]` where `B` is stored as `n×k` row-major,
/// using the blocked driver with a caller-provided workspace.
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm_bt_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert_eq!(a.len(), m * k, "gemm_bt: A length");
    assert_eq!(b.len(), n * k, "gemm_bt: B length");
    assert_eq!(c.len(), m * n, "gemm_bt: C length");
    blocked(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[j * k + kk], None, c, scratch);
}

/// `C[m×n] = A[m×k] · B[k×n]`, row-major.
///
/// Small products take the naive loop (packing would dominate); larger ones
/// run the blocked driver with a transient workspace. Callers in hot loops
/// should hold a [`GemmScratch`] and use [`gemm_with`].
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(c.len(), m * n, "gemm: C length");
    if m * k * n < SMALL_CUTOFF {
        reference::gemm(m, k, n, a, b, c);
    } else {
        gemm_with(m, k, n, a, b, c, &mut GemmScratch::new());
    }
}

/// `C[m×n] = Aᵀ[m×k] · B[k×n]` where `A` is stored as `k×m` row-major.
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm_at(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_at: A length");
    assert_eq!(b.len(), k * n, "gemm_at: B length");
    assert_eq!(c.len(), m * n, "gemm_at: C length");
    if m * k * n < SMALL_CUTOFF {
        reference::gemm_at(m, k, n, a, b, c);
    } else {
        gemm_at_with(m, k, n, a, b, c, &mut GemmScratch::new());
    }
}

/// `C[m×n] = A[m×k] · Bᵀ[k×n]` where `B` is stored as `n×k` row-major.
///
/// # Panics
///
/// Panics if buffer lengths do not match the dimensions.
pub fn gemm_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_bt: A length");
    assert_eq!(b.len(), n * k, "gemm_bt: B length");
    assert_eq!(c.len(), m * n, "gemm_bt: C length");
    if m * k * n < SMALL_CUTOFF {
        reference::gemm_bt(m, k, n, a, b, c);
    } else {
        gemm_bt_with(m, k, n, a, b, c, &mut GemmScratch::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn transpose(rows: usize, cols: usize, x: &[f32]) -> Vec<f32> {
        let mut t = vec![0.0; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    fn ramp(len: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len).map(|i| (i % 13) as f32 * scale + shift).collect()
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.5 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.25 - 1.0).collect();
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_at_matches() {
        let (m, k, n) = (3, 4, 2);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect(); // logical m×k
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) - 3.0).collect();
        let a_stored = transpose(m, k, &a); // stored as k×m
        let mut c = vec![0.0; m * n];
        gemm_at(m, k, n, &a_stored, &b, &mut c);
        assert_eq!(c, naive(m, k, n, &a, &b));
    }

    #[test]
    fn gemm_bt_matches() {
        let (m, k, n) = (2, 3, 4);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.1).collect();
        let b: Vec<f32> = (0..k * n).map(|i| i as f32 - 5.0).collect(); // logical k×n
        let b_stored = transpose(k, n, &b); // stored as n×k
        let mut c = vec![0.0; m * n];
        gemm_bt(m, k, n, &a, &b_stored, &mut c);
        let expect = naive(m, k, n, &a, &b);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn blocked_crosses_k_block_boundary_bitwise() {
        // k > KC forces multiple k-blocks; the preloaded accumulator must
        // keep the running sums bitwise identical to the reference.
        let (m, k, n) = (13, 2 * KC + 37, 23);
        let a = ramp(m * k, 0.25, -1.5);
        let b = ramp(k * n, 0.125, 0.75);
        let mut want = vec![0.0; m * n];
        reference::gemm(m, k, n, &a, &b, &mut want);
        let mut scratch = GemmScratch::new();
        let mut got = vec![1.0; m * n]; // stale contents must be ignored
        gemm_with(m, k, n, &a, &b, &mut got, &mut scratch);
        assert_eq!(got, want);
        // Workspace reuse across layouts and calls.
        let mut want_bt = vec![0.0; m * n];
        reference::gemm_bt(m, k, n, &a, &transpose(k, n, &b), &mut want_bt);
        let mut got_bt = vec![0.0; m * n];
        gemm_bt_with(m, k, n, &a, &transpose(k, n, &b), &mut got_bt, &mut scratch);
        assert_eq!(got_bt, want_bt);
    }

    #[test]
    fn many_row_strips_are_bitwise_stable() {
        // Eight row strips over ten column panels: the packed path, not
        // the wide one.
        let (m, k, n) = (32, 64, 160);
        let a = ramp(m * k, 0.5, -3.0);
        let b = ramp(k * n, 0.25, 0.5);
        let mut want = vec![0.0; m * n];
        reference::gemm(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut got);
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn blocked_gemm_equals_reference(m in 1usize..17, k in 1usize..17, n in 1usize..17) {
            let a = ramp(m * k, 0.5, -2.0);
            let b = ramp(k * n, 0.25, -1.0);
            let mut want = vec![0.0; m * n];
            reference::gemm(m, k, n, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            gemm_with(m, k, n, &a, &b, &mut got, &mut GemmScratch::new());
            prop_assert_eq!(got, want);
        }

        #[test]
        fn blocked_gemm_at_equals_reference(m in 1usize..17, k in 1usize..17, n in 1usize..17) {
            let a = ramp(k * m, 0.5, -2.0); // stored k×m
            let b = ramp(k * n, 0.25, -1.0);
            let mut want = vec![0.0; m * n];
            reference::gemm_at(m, k, n, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            gemm_at_with(m, k, n, &a, &b, &mut got, &mut GemmScratch::new());
            prop_assert_eq!(got, want);
        }

        #[test]
        fn blocked_gemm_bt_equals_reference(m in 1usize..17, k in 1usize..17, n in 1usize..17) {
            let a = ramp(m * k, 0.5, -2.0);
            let b = ramp(n * k, 0.25, -1.0); // stored n×k
            let mut want = vec![0.0; m * n];
            reference::gemm_bt(m, k, n, &a, &b, &mut want);
            let mut got = vec![0.0; m * n];
            gemm_bt_with(m, k, n, &a, &b, &mut got, &mut GemmScratch::new());
            prop_assert_eq!(got, want);
        }
    }
}
