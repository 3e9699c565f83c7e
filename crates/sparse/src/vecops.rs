//! The interleaved multi-RHS layout shared by the lockstep solvers.

/// Packs `k` equal-length vectors into the interleaved multi-RHS layout used
/// by the batched solvers: entry `i` of vector `t` lands at `dst[i * k + t]`.
///
/// # Panics
///
/// Panics if `srcs` is empty, the sources differ in length, or `dst` is not
/// exactly `len * k` long.
pub fn interleave(srcs: &[&[f64]], dst: &mut [f64]) {
    let k = srcs.len();
    assert!(k > 0, "interleave: no sources");
    let n = srcs[0].len();
    assert!(srcs.iter().all(|s| s.len() == n), "interleave: ragged sources");
    assert_eq!(dst.len(), n * k, "interleave: dst length mismatch");
    for (t, src) in srcs.iter().enumerate() {
        for (i, &v) in src.iter().enumerate() {
            dst[i * k + t] = v;
        }
    }
}

/// Extracts vector `t` from the interleaved multi-RHS layout.
///
/// # Panics
///
/// Panics if `k == 0`, `t >= k`, `src.len()` is not a multiple of `k`, or
/// `dst` has the wrong length.
pub fn deinterleave_into(src: &[f64], k: usize, t: usize, dst: &mut [f64]) {
    assert!(k > 0 && t < k, "deinterleave: bad vector index {t} of {k}");
    assert_eq!(src.len() % k, 0, "deinterleave: src not a multiple of k");
    assert_eq!(dst.len(), src.len() / k, "deinterleave: dst length mismatch");
    for (i, d) in dst.iter_mut().enumerate() {
        *d = src[i * k + t];
    }
}
