//! Algorithm 1: temporal compression of the current vector.
//!
//! The algorithm keeps `r·N` of the `N` time stamps: the `r₀·N` with the
//! smallest total current and the `(r−r₀)·N` with the largest, choosing the
//! split `r₀` (swept in steps of `Δr`) whose kept set's `μ + 3σ` statistic is
//! closest to the original sequence's. Intuition: worst-case noise is driven
//! by heavy-switching stamps, but dropping *all* quiet stamps would bias the
//! statistics the fusion subnet extracts, so a matched share of quiet stamps
//! is retained.

use crate::error::{CompressError, CompressResult};
use pdn_core::map::TileMap;
use pdn_core::stats;
use pdn_vectors::vector::TestVector;

/// Result of compressing one sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressionOutcome {
    /// Original time-stamp indices kept, in ascending time order.
    pub kept: Vec<usize>,
    /// The selected split `r₀` (`r_s` in Algorithm 1).
    pub selected_r0: f64,
    /// `|(μ_s + 3σ_s) − (μ_c + 3σ_c)|` for the selected split.
    pub statistic_error: f64,
    /// `μ + 3σ` of the full sequence.
    pub original_mu3sigma: f64,
    /// `μ + 3σ` of the kept subsequence.
    pub compressed_mu3sigma: f64,
}

/// Reusable working memory for [`TemporalCompressor::compress_with`]: the
/// sort order, prefix-moment tables, and the outcome. Steady-state calls
/// on same-length sequences allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct CompressScratch {
    order: Vec<usize>,
    pref: Vec<f64>,
    pref_sq: Vec<f64>,
    outcome: CompressionOutcome,
}

impl CompressScratch {
    /// The kept time-stamp indices from the last `compress_with` call,
    /// ascending.
    pub fn kept(&self) -> &[usize] {
        &self.outcome.kept
    }
}

/// Configured instance of Algorithm 1.
///
/// # Example
///
/// ```
/// use pdn_compress::temporal::TemporalCompressor;
///
/// let c = TemporalCompressor::new(0.5, 0.1).unwrap();
/// let out = c.compress(&[1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0, 5.0]);
/// assert_eq!(out.kept.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalCompressor {
    rate: f64,
    rate_step: f64,
}

impl TemporalCompressor {
    /// Creates a compressor keeping the fraction `rate ∈ (0, 1]` of stamps,
    /// sweeping the split point in steps of `rate_step`.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidRate`] or
    /// [`CompressError::InvalidRateStep`] for out-of-domain arguments.
    pub fn new(rate: f64, rate_step: f64) -> CompressResult<TemporalCompressor> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(CompressError::InvalidRate { rate });
        }
        if rate_step <= 0.0 || !rate_step.is_finite() {
            return Err(CompressError::InvalidRateStep { step: rate_step });
        }
        Ok(TemporalCompressor { rate, rate_step })
    }

    /// The configured keep fraction `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured sweep step `Δr`.
    pub fn rate_step(&self) -> f64 {
        self.rate_step
    }

    /// Runs Algorithm 1 on the per-stamp totals `S[k]`.
    ///
    /// Uses prefix-sum moments so the whole sweep costs `O(N log N)` rather
    /// than the literal algorithm's `O(N · sweeps)`; the test module holds
    /// the literal port, and the two are tested equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `totals` is empty.
    pub fn compress(&self, totals: &[f64]) -> CompressionOutcome {
        let mut scratch = CompressScratch::default();
        self.compress_with(totals, &mut scratch);
        scratch.outcome
    }

    /// [`TemporalCompressor::compress`] without allocating: reuses
    /// `scratch` for every intermediate and leaves the outcome there (the
    /// selected indices in [`CompressScratch::kept`]). The stamps are
    /// ordered by `(value, index)`, the stable-by-value order of
    /// `stats::argsort` that the literal port uses.
    ///
    /// # Panics
    ///
    /// Panics if `totals` is empty.
    pub fn compress_with(&self, totals: &[f64], scratch: &mut CompressScratch) {
        assert!(!totals.is_empty(), "cannot compress an empty sequence");
        let n = totals.len();
        let keep = ((self.rate * n as f64).round() as usize).clamp(1, n);

        scratch.order.clear();
        scratch.order.extend(0..n);
        scratch.order.sort_unstable_by(|&a, &b| {
            totals[a]
                .partial_cmp(&totals[b])
                .expect("argsort does not support NaN")
                .then(a.cmp(&b))
        });

        // Prefix sums over the sorted totals for O(1) window moments.
        scratch.pref.clear();
        scratch.pref_sq.clear();
        scratch.pref.push(0.0);
        scratch.pref_sq.push(0.0);
        for (i, &oi) in scratch.order.iter().enumerate() {
            let s = totals[oi];
            scratch.pref.push(scratch.pref[i] + s);
            scratch.pref_sq.push(scratch.pref_sq[i] + s * s);
        }
        let (pref, pref_sq) = (&scratch.pref, &scratch.pref_sq);
        let window_mu3sigma = |k_low: usize, k_high: usize| {
            let cnt = (k_low + k_high) as f64;
            let sum = pref[k_low] + (pref[n] - pref[n - k_high]);
            let sum_sq = pref_sq[k_low] + (pref_sq[n] - pref_sq[n - k_high]);
            let mean = sum / cnt;
            let var = (sum_sq / cnt - mean * mean).max(0.0);
            mean + 3.0 * var.sqrt()
        };

        let target = stats::mu_plus_3_sigma(totals);
        let mut best = (f64::INFINITY, 0usize, 0.0_f64, 0.0_f64); // (err, k_low, r0, stat)
        let mut r0 = 0.0;
        while r0 <= self.rate + 1e-12 {
            let k_low = ((r0 * n as f64).round() as usize).min(keep);
            let k_high = keep - k_low;
            if k_low + k_high > 0 {
                let stat = window_mu3sigma(k_low, k_high);
                let err = (target - stat).abs();
                if err < best.0 {
                    best = (err, k_low, r0, stat);
                }
            }
            r0 += self.rate_step;
        }

        let (err, k_low, r0_sel, stat) = best;
        let k_high = keep - k_low;
        let out = &mut scratch.outcome;
        out.kept.clear();
        out.kept.extend_from_slice(&scratch.order[..k_low]);
        out.kept.extend_from_slice(&scratch.order[n - k_high..]);
        out.kept.sort_unstable();
        out.selected_r0 = r0_sel;
        out.statistic_error = err;
        out.original_mu3sigma = target;
        out.compressed_mu3sigma = stat;
    }

    /// Compresses a test vector: runs the algorithm on its totals and keeps
    /// the selected stamps.
    pub fn compress_vector(&self, vector: &TestVector) -> (TestVector, CompressionOutcome) {
        let outcome = self.compress(&vector.totals());
        (vector.select_steps(&outcome.kept), outcome)
    }

    /// Compresses a sequence of tile current maps `{I[k]}` — the exact
    /// input/output form of Algorithm 1 in the paper. `S[k]` is each map's
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics if `maps` is empty.
    pub fn compress_maps(&self, maps: &[TileMap]) -> (Vec<TileMap>, CompressionOutcome) {
        assert!(!maps.is_empty(), "cannot compress an empty sequence");
        let totals: Vec<f64> = maps.iter().map(|m| m.sum()).collect();
        let outcome = self.compress(&totals);
        let kept_maps = outcome.kept.iter().map(|&k| maps[k].clone()).collect();
        (kept_maps, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_core::rng;
    use proptest::prelude::*;
    use rand::Rng as _;

    fn bursty_trace(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rng::seeded(seed);
        (0..n)
            .map(|_| {
                if rng.gen_bool(0.15) {
                    rng.gen_range(5.0..10.0)
                } else {
                    rng.gen_range(0.0..1.0)
                }
            })
            .collect()
    }

    /// Literal line-by-line port of Algorithm 1 (recomputes the window
    /// moments from scratch at every sweep step): the oracle that
    /// [`TemporalCompressor::compress`] is tested against.
    fn compress_reference(c: &TemporalCompressor, totals: &[f64]) -> CompressionOutcome {
        assert!(!totals.is_empty(), "cannot compress an empty sequence");
        let n = totals.len();
        let keep = ((c.rate * n as f64).round() as usize).clamp(1, n);
        let order = stats::argsort(totals);
        let sorted: Vec<f64> = order.iter().map(|&i| totals[i]).collect();
        let target = stats::mu_plus_3_sigma(totals);

        let mut d_min = f64::INFINITY;
        let mut best_k_low = 0usize;
        let mut best_r0 = 0.0;
        let mut best_stat = 0.0;
        let mut r0 = 0.0;
        while r0 <= c.rate + 1e-12 {
            let k_low = ((r0 * n as f64).round() as usize).min(keep);
            let k_high = keep - k_low;
            if k_low + k_high > 0 {
                let mut window: Vec<f64> = sorted[..k_low].to_vec();
                window.extend_from_slice(&sorted[n - k_high..]);
                let stat = stats::mu_plus_3_sigma(&window);
                let err = (target - stat).abs();
                if err < d_min {
                    d_min = err;
                    best_k_low = k_low;
                    best_r0 = r0;
                    best_stat = stat;
                }
            }
            r0 += c.rate_step;
        }
        let k_high = keep - best_k_low;
        let mut kept: Vec<usize> = order[..best_k_low].to_vec();
        kept.extend_from_slice(&order[n - k_high..]);
        kept.sort_unstable();
        CompressionOutcome {
            kept,
            selected_r0: best_r0,
            statistic_error: d_min,
            original_mu3sigma: target,
            compressed_mu3sigma: best_stat,
        }
    }

    #[test]
    fn keeps_requested_fraction() {
        let c = TemporalCompressor::new(0.3, 0.05).unwrap();
        let out = c.compress(&bursty_trace(200, 1));
        assert_eq!(out.kept.len(), 60);
        // Indices ascending and unique.
        for w in out.kept.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rate_one_keeps_everything() {
        let c = TemporalCompressor::new(1.0, 0.1).unwrap();
        let out = c.compress(&bursty_trace(50, 2));
        assert_eq!(out.kept, (0..50).collect::<Vec<_>>());
        assert!(out.statistic_error < 1e-12);
    }

    #[test]
    fn tiny_rates_keep_at_least_one() {
        let c = TemporalCompressor::new(0.001, 0.1).unwrap();
        let out = c.compress(&bursty_trace(10, 3));
        assert_eq!(out.kept.len(), 1);
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(matches!(
            TemporalCompressor::new(0.0, 0.1),
            Err(CompressError::InvalidRate { .. })
        ));
        assert!(matches!(
            TemporalCompressor::new(1.5, 0.1),
            Err(CompressError::InvalidRate { .. })
        ));
        assert!(matches!(
            TemporalCompressor::new(0.5, 0.0),
            Err(CompressError::InvalidRateStep { .. })
        ));
    }

    #[test]
    fn statistic_beats_naive_top_k() {
        // The split search should match μ+3σ at least as well as keeping
        // only the largest totals (r0 = 0 is one of the candidates).
        let totals = bursty_trace(300, 4);
        let c = TemporalCompressor::new(0.25, 0.05).unwrap();
        let out = c.compress(&totals);
        let order = pdn_core::stats::argsort(&totals);
        let keep = 75;
        let top: Vec<f64> = order[300 - keep..].iter().map(|&i| totals[i]).collect();
        let naive_err =
            (pdn_core::stats::mu_plus_3_sigma(&totals) - pdn_core::stats::mu_plus_3_sigma(&top))
                .abs();
        assert!(out.statistic_error <= naive_err + 1e-12);
    }

    #[test]
    fn peak_stamp_always_kept() {
        // The worst-case stamp (largest total) must survive compression —
        // k_high >= 1 whenever r0 < r is considered... verify empirically.
        let totals = bursty_trace(200, 5);
        let peak_idx =
            (0..totals.len()).max_by(|&a, &b| totals[a].partial_cmp(&totals[b]).unwrap()).unwrap();
        for rate in [0.1, 0.3, 0.5] {
            let out = TemporalCompressor::new(rate, 0.05).unwrap().compress(&totals);
            assert!(
                out.kept.contains(&peak_idx),
                "rate {rate}: peak stamp dropped (kept k_low={})",
                out.selected_r0
            );
        }
    }

    #[test]
    fn optimized_matches_reference() {
        let c = TemporalCompressor::new(0.3, 0.05).unwrap();
        for seed in 0..20 {
            let totals = bursty_trace(157, seed);
            let fast = c.compress(&totals);
            let slow = compress_reference(&c, &totals);
            assert_eq!(fast.kept, slow.kept, "seed {seed}");
            assert!((fast.statistic_error - slow.statistic_error).abs() < 1e-9);
        }
    }

    #[test]
    fn compress_with_matches_compress() {
        let mut scratch = CompressScratch::default();
        for (rate, seed) in [(0.3, 1u64), (0.5, 7), (0.15, 11), (1.0, 3)] {
            let c = TemporalCompressor::new(rate, 0.05).unwrap();
            for n in [1usize, 17, 157, 300] {
                let totals = bursty_trace(n, seed);
                c.compress_with(&totals, &mut scratch);
                assert_eq!(scratch.kept(), &c.compress(&totals).kept[..], "rate {rate} n {n}");
            }
        }
    }

    #[test]
    fn compress_vector_round_trip() {
        use pdn_core::units::Seconds;
        let totals = bursty_trace(40, 6);
        let rows: Vec<Vec<f64>> = totals.iter().map(|t| vec![*t]).collect();
        let v = TestVector::from_rows(rows, Seconds::from_picos(1.0));
        let c = TemporalCompressor::new(0.5, 0.1).unwrap();
        let (cv, out) = c.compress_vector(&v);
        assert_eq!(cv.step_count(), out.kept.len());
        for (pos, &orig) in out.kept.iter().enumerate() {
            assert_eq!(cv.current(pos, 0), v.current(orig, 0));
        }
    }

    #[test]
    fn compress_maps_keeps_selected() {
        let maps: Vec<TileMap> =
            (0..20).map(|k| TileMap::filled(2, 2, if k % 5 == 0 { 4.0 } else { 0.5 })).collect();
        let c = TemporalCompressor::new(0.4, 0.1).unwrap();
        let (kept, out) = c.compress_maps(&maps);
        assert_eq!(kept.len(), 8);
        for (m, &k) in kept.iter().zip(&out.kept) {
            assert_eq!(m, &maps[k]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn invariants_hold_for_random_traces(
            n in 1usize..300,
            rate in 0.05f64..1.0,
            seed in 0u64..100,
        ) {
            let totals = bursty_trace(n, seed);
            let c = TemporalCompressor::new(rate, 0.05).unwrap();
            let out = c.compress(&totals);
            let expect = ((rate * n as f64).round() as usize).clamp(1, n);
            prop_assert_eq!(out.kept.len(), expect);
            // All indices valid and unique.
            let mut seen = std::collections::HashSet::new();
            for &k in &out.kept {
                prop_assert!(k < n);
                prop_assert!(seen.insert(k));
            }
            // Reference agreement.
            let slow = compress_reference(&c, &totals);
            prop_assert_eq!(out.kept, slow.kept);
        }
    }
}
