//! The optimizer: Adam with L2 regularization.
//!
//! Paper Sec. VI-B parameter settings: "the penalty method is set to L2
//! normalization with a coefficient equal to 0.01 for all models; the
//! batch size is set as 1024, and Adam optimizer is used to train the
//! models."

#![expect(
    clippy::indexing_slicing,
    reason = "Adam's moment vectors are resized to `weights.len()` at the top of \
              `step`, bounding every index in the loop"
)]
// flcheck: allow-file(pf-assert) — the dimension check is the documented
// `step` contract; silently zipping short would corrupt training.

/// Adam (Kingma & Ba), the paper's default optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate α.
    pub learning_rate: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Numerical-stability ε.
    pub epsilon: f64,
    /// L2 coefficient λ.
    pub l2: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Adam with standard hyper-parameters and the paper's L2 = 0.01.
    pub fn new(learning_rate: f64) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            l2: 0.01,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update to `weights` from `grads` (the L2 term
    /// `l2·w` added to each gradient). A dimension change restarts the
    /// moments.
    pub fn step(&mut self, weights: &mut [f64], grads: &[f64]) {
        assert_eq!(
            weights.len(),
            grads.len(),
            "weight/gradient dimension mismatch"
        );
        if self.m.len() != weights.len() {
            self.m = vec![0.0; weights.len()];
            self.v = vec![0.0; weights.len()];
            self.t = 0;
        }
        self.t += 1;
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let b1t = 1.0 - self.beta1.powi(t);
        let b2t = 1.0 - self.beta2.powi(t);
        for i in 0..weights.len() {
            let g = grads[i] + self.l2 * weights[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            weights[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(w) = (w - 3)^2, gradient 2(w - 3).
    fn quad_grad(w: f64) -> f64 {
        2.0 * (w - 3.0)
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(0.05);
        opt.l2 = 0.0;
        let mut w = vec![0.0];
        for _ in 0..2000 {
            let g = vec![quad_grad(w[0])];
            opt.step(&mut w, &g);
        }
        assert!((w[0] - 3.0).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    fn l2_pulls_towards_zero() {
        // With strong L2 the fixed point moves below the unregularized
        // optimum of 3.0.
        let mut opt = Adam::new(0.05);
        opt.l2 = 1.0;
        let mut w = vec![0.0];
        for _ in 0..500 {
            let g = vec![quad_grad(w[0])];
            opt.step(&mut w, &g);
        }
        assert!(w[0] < 2.5 && w[0] > 0.0, "w = {}", w[0]);
    }

    #[test]
    fn adam_handles_dimension_change_after_reset() {
        let mut opt = Adam::new(0.1);
        let mut w2 = vec![1.0, 2.0];
        opt.step(&mut w2, &[0.1, 0.1]);
        let mut w3 = vec![1.0, 2.0, 3.0];
        // Internal buffers re-size automatically.
        opt.step(&mut w3, &[0.1, 0.1, 0.1]);
        assert_eq!(w3.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_shapes_panic() {
        Adam::new(0.1).step(&mut [0.0], &[1.0, 2.0]);
    }
}
