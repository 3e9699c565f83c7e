//! The optimizer: Adam, with its per-parameter moments kept in [`Param`].

use crate::layer::Param;

/// Adam (Kingma & Ba), with the paper's training configuration as the
/// default: learning rate 1e-4, β₁ = 0.9, β₂ = 0.999.
///
/// The per-parameter moment state lives inside [`Param`], so one `Adam`
/// value can drive any number of layers.
///
/// # Example
///
/// ```
/// use pdn_nn::layer::Param;
/// use pdn_nn::optim::Adam;
/// use pdn_nn::tensor::Tensor;
///
/// let mut p = Param::new(Tensor::from_vec(&[1], vec![1.0]));
/// let mut adam = Adam::new(0.1);
/// for _ in 0..100 {
///     // Gradient of f(x) = x² is 2x: drive x toward 0.
///     p.grad = Tensor::from_vec(&[1], vec![2.0 * p.value.as_slice()[0]]);
///     adam.step_param(&mut p);
///     p.zero_grad();
/// }
/// assert!(p.value.as_slice()[0].abs() < 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub epsilon: f32,
    t: u64,
}

impl Adam {
    /// Creates Adam with the given learning rate and standard betas.
    pub fn new(learning_rate: f32) -> Adam {
        Adam { learning_rate, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, t: 0 }
    }

    /// The paper's optimizer: Adam with learning rate 1e-4.
    pub fn paper() -> Adam {
        Adam::new(1e-4)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Advances the step counter. Call once per optimization step, before
    /// updating parameters with [`Adam::update_param`].
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Restores the step counter from a saved training state. Together
    /// with restored per-parameter moments this resumes the bias
    /// correction exactly where a checkpointed run left off.
    pub fn set_steps(&mut self, t: u64) {
        self.t = t;
    }

    /// Updates one parameter using its accumulated gradient; assumes
    /// [`Adam::begin_step`] was called for this step.
    ///
    /// # Panics
    ///
    /// Panics if called before any `begin_step`.
    pub fn update_param(&self, p: &mut Param) {
        assert!(self.t > 0, "update_param before begin_step");
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let Param { value, grad, m, v } = p;
        for (((v, m), s), gi) in value
            .as_mut_slice()
            .iter_mut()
            .zip(m.as_mut_slice())
            .zip(v.as_mut_slice())
            .zip(grad.as_slice())
        {
            *m = b1 * *m + (1.0 - b1) * gi;
            *s = b2 * *s + (1.0 - b2) * gi * gi;
            let m_hat = *m / bc1;
            let v_hat = *s / bc2;
            *v -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    /// Convenience: `begin_step` + `update_param` for a single parameter.
    pub fn step_param(&mut self, p: &mut Param) {
        self.begin_step();
        self.update_param(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    fn quadratic_min(adam: &mut Adam, start: f32, iters: usize) -> f32 {
        let mut p = Param::new(Tensor::from_vec(&[1], vec![start]));
        for _ in 0..iters {
            let x = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(&[1], vec![2.0 * (x - 3.0)]);
            adam.step_param(&mut p);
            p.zero_grad();
        }
        p.value.as_slice()[0]
    }

    #[test]
    fn adam_converges_to_quadratic_minimum() {
        let mut adam = Adam::new(0.2);
        let x = quadratic_min(&mut adam, -10.0, 300);
        assert!((x - 3.0).abs() < 0.1, "converged to {x}");
        assert_eq!(adam.steps(), 300);
    }

    #[test]
    fn paper_settings() {
        let a = Adam::paper();
        assert_eq!(a.learning_rate, 1e-4);
        assert_eq!(a.beta1, 0.9);
        assert_eq!(a.beta2, 0.999);
    }

    #[test]
    #[should_panic(expected = "before begin_step")]
    fn update_requires_begin() {
        let adam = Adam::new(0.1);
        let mut p = Param::new(Tensor::zeros(&[1]));
        adam.update_param(&mut p);
    }
}
