//! Per-tile temporal statistics over the fused current maps (paper §3.4.2).
//!
//! For each tile, three features summarize the fused sequence:
//! `Ĩ_max` (the peak), `Ĩ_mean = (max + min)/2`, and `Ĩ_msd = μ + 3σ`.
//! This module computes them *and their exact gradients* back to every
//! per-time-sample map, which is what lets the fusion subnet train through
//! the reduction.

use pdn_nn::tensor::Tensor;

/// The temporal reduction: the three `[1, m, n]` feature maps plus the
/// quantities `backward` needs. Training and prediction reuse one instance
/// across passes, so a reduction with the previous one's shapes allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct TemporalStats {
    /// `Ĩ_max`.
    pub max: Tensor,
    /// `Ĩ_mean = (max + min) / 2`.
    pub mean_extreme: Tensor,
    /// `Ĩ_msd = μ + 3σ`.
    pub msd: Tensor,
    argmax: Vec<usize>,
    argmin: Vec<usize>,
    mu: Vec<f32>,
    sigma: Vec<f32>,
    t_count: usize,
}

/// Clears `v` and refills it with `len` copies of `value`, keeping its
/// allocation.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl TemporalStats {
    /// Computes the statistics over a non-empty sequence of `[1, m, n]`
    /// maps into the reused buffers.
    ///
    /// # Panics
    ///
    /// Panics if `maps` is empty or shapes differ.
    pub fn compute(&mut self, maps: &[Tensor]) {
        assert!(!maps.is_empty(), "temporal stats of empty sequence");
        let shape = maps[0].shape();
        let len = maps[0].len();
        for m in maps {
            assert_eq!(m.shape(), shape, "temporal stats shape mismatch");
        }
        let tf = maps.len() as f32;
        self.max.resize_in_place(shape);
        self.mean_extreme.resize_in_place(shape);
        self.msd.resize_in_place(shape);
        // Until the last sweep, `mean_extreme` holds the running minimum,
        // `mu` the sum and `sigma` the sum of squares.
        let max = self.max.as_mut_slice();
        let min = self.mean_extreme.as_mut_slice();
        max.fill(f32::NEG_INFINITY);
        min.fill(f32::INFINITY);
        refill(&mut self.argmax, len, 0);
        refill(&mut self.argmin, len, 0);
        refill(&mut self.mu, len, 0.0);
        refill(&mut self.sigma, len, 0.0);
        // Per map, the extremes and the sums run as two loops: the sums'
        // loop then vectorizes, and every tile still accumulates in map
        // order.
        for (ti, m) in maps.iter().enumerate() {
            let m = m.as_slice();
            let extremes = max.iter_mut().zip(min.iter_mut());
            let args = self.argmax.iter_mut().zip(self.argmin.iter_mut());
            for ((&v, (mx, mn)), (amx, amn)) in m.iter().zip(extremes).zip(args) {
                if v > *mx {
                    *mx = v;
                    *amx = ti;
                }
                if v < *mn {
                    *mn = v;
                    *amn = ti;
                }
            }
            for ((&v, sum), sum_sq) in m.iter().zip(&mut self.mu).zip(&mut self.sigma) {
                *sum += v;
                *sum_sq += v * v;
            }
        }
        let msd = self.msd.as_mut_slice();
        for i in 0..len {
            let mu = self.mu[i] / tf;
            let sigma = (self.sigma[i] / tf - mu * mu).max(0.0).sqrt();
            self.mu[i] = mu;
            self.sigma[i] = sigma;
            min[i] = 0.5 * (max[i] + min[i]);
            msd[i] = mu + 3.0 * sigma;
        }
        self.t_count = maps.len();
    }

    /// Number of time samples reduced over.
    pub fn len(&self) -> usize {
        self.t_count
    }

    /// Whether no reduction has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.t_count == 0
    }

    /// Propagates gradients of the three feature maps back to each
    /// per-time-sample map. `maps` must be the same sequence given to
    /// the last [`TemporalStats::compute`].
    ///
    /// * max: gradient flows to the arg-max sample per tile;
    /// * mean: half to arg-max, half to arg-min;
    /// * μ+3σ: `∂/∂x_t = 1/T + 3·(x_t − μ)/(T·σ)` (zero σ ⇒ mean term only).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the last `compute`.
    pub fn backward(
        &self,
        maps: &[Tensor],
        g_max: &Tensor,
        g_mean: &Tensor,
        g_msd: &Tensor,
    ) -> Vec<Tensor> {
        assert_eq!(maps.len(), self.t_count, "map count changed since compute");
        let len = self.mu.len();
        assert_eq!(g_max.len(), len, "g_max shape");
        assert_eq!(g_mean.len(), len, "g_mean shape");
        assert_eq!(g_msd.len(), len, "g_msd shape");
        let tf = self.t_count as f32;
        let mut grads: Vec<Tensor> = maps.iter().map(|m| Tensor::zeros(m.shape())).collect();
        for i in 0..len {
            let gmx = g_max.as_slice()[i];
            let gme = g_mean.as_slice()[i];
            let gms = g_msd.as_slice()[i];
            // max / mean-of-extremes routing.
            grads[self.argmax[i]].as_mut_slice()[i] += gmx + 0.5 * gme;
            grads[self.argmin[i]].as_mut_slice()[i] += 0.5 * gme;
            // μ + 3σ has a dense gradient.
            if gms != 0.0 {
                let mu = self.mu[i];
                let sigma = self.sigma[i];
                for (t, m) in maps.iter().enumerate() {
                    let x = m.as_slice()[i];
                    let dsigma = if sigma > 1e-12 { (x - mu) / (tf * sigma) } else { 0.0 };
                    grads[t].as_mut_slice()[i] += gms * (1.0 / tf + 3.0 * dsigma);
                }
            }
        }
        grads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(maps: &[Tensor]) -> TemporalStats {
        let mut s = TemporalStats::default();
        s.compute(maps);
        s
    }

    fn seq() -> Vec<Tensor> {
        vec![
            Tensor::from_vec(&[1, 1, 2], vec![1.0, 5.0]),
            Tensor::from_vec(&[1, 1, 2], vec![3.0, 1.0]),
            Tensor::from_vec(&[1, 1, 2], vec![2.0, 3.0]),
        ]
    }

    #[test]
    fn forward_known_values() {
        let s = stats(&seq());
        assert_eq!(s.max.as_slice(), &[3.0, 5.0]);
        assert_eq!(s.mean_extreme.as_slice(), &[2.0, 3.0]);
        // Tile 0: μ = 2, σ = sqrt((1+9+4)/3 − 4) = sqrt(2/3).
        let sigma0 = (2.0f32 / 3.0).sqrt();
        assert!((s.msd.as_slice()[0] - (2.0 + 3.0 * sigma0)).abs() < 1e-6);
    }

    #[test]
    fn backward_max_routes_to_argmax() {
        let maps = seq();
        let s = stats(&maps);
        let g1 = Tensor::from_vec(&[1, 1, 2], vec![1.0, 1.0]);
        let g0 = Tensor::zeros(&[1, 1, 2]);
        let grads = s.backward(&maps, &g1, &g0, &g0);
        // Tile 0 max is at t=1, tile 1 max at t=0.
        assert_eq!(grads[1].as_slice()[0], 1.0);
        assert_eq!(grads[0].as_slice()[1], 1.0);
        assert_eq!(grads[0].as_slice()[0], 0.0);
    }

    #[test]
    fn backward_matches_finite_differences() {
        // Check all three stats' gradients numerically.
        let maps = seq();
        let s = stats(&maps);
        let g_max = Tensor::from_vec(&[1, 1, 2], vec![0.7, -0.3]);
        let g_mean = Tensor::from_vec(&[1, 1, 2], vec![0.2, 0.5]);
        let g_msd = Tensor::from_vec(&[1, 1, 2], vec![-0.4, 0.9]);
        let analytic = s.backward(&maps, &g_max, &g_mean, &g_msd);

        let loss = |maps: &[Tensor]| -> f64 {
            let s = stats(maps);
            let dot = |a: &Tensor, b: &Tensor| -> f64 {
                a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| (*x as f64) * (*y as f64)).sum()
            };
            dot(&s.max, &g_max) + dot(&s.mean_extreme, &g_mean) + dot(&s.msd, &g_msd)
        };
        let eps = 1e-3f32;
        for t in 0..maps.len() {
            for i in 0..2 {
                let mut mp = maps.clone();
                mp[t].as_mut_slice()[i] += eps;
                let lp = loss(&mp);
                let mut mm = maps.clone();
                mm[t].as_mut_slice()[i] -= eps;
                let lm = loss(&mm);
                let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let a = analytic[t].as_slice()[i];
                assert!(
                    (numeric - a).abs() < 2e-2,
                    "t={t} i={i}: numeric {numeric} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn reused_buffers_match_a_fresh_reduction() {
        let maps = |n: usize, h: usize| -> Vec<Tensor> {
            (0..n)
                .map(|t| Tensor::from_fn3(1, h, 4, |_, r, w| ((t * 7 + r * 3 + w) % 11) as f32))
                .collect()
        };
        let (long, short) = (maps(5, 3), maps(2, 2));
        let mut reused = stats(&long);
        reused.compute(&short);
        let want = stats(&short);
        assert_eq!(reused.max, want.max);
        assert_eq!(reused.mean_extreme, want.mean_extreme);
        assert_eq!(reused.msd, want.msd);
        assert_eq!(reused.len(), 2);
        let g = Tensor::filled(&[1, 2, 4], 0.5);
        assert_eq!(reused.backward(&short, &g, &g, &g), want.backward(&short, &g, &g, &g));
    }

    #[test]
    fn constant_sequence_zero_sigma_handled() {
        let maps = vec![Tensor::filled(&[1, 2, 2], 1.5); 4];
        let s = stats(&maps);
        assert_eq!(s.msd.as_slice(), &[1.5; 4]);
        let g = Tensor::filled(&[1, 2, 2], 1.0);
        let grads = s.backward(&maps, &Tensor::zeros(&[1, 2, 2]), &Tensor::zeros(&[1, 2, 2]), &g);
        // μ gradient spreads 1/T to every sample; σ term vanishes.
        for gr in &grads {
            for v in gr.as_slice() {
                assert!((v - 0.25).abs() < 1e-6);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_rejected() {
        let _ = stats(&[]);
    }
}
