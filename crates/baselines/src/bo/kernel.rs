//! Squared-exponential (RBF) covariance kernel.

/// An isotropic squared-exponential kernel
/// `k(a, b) = σ² · exp(-‖a − b‖² / (2ℓ²))` with additive observation noise
/// on the diagonal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Signal variance σ².
    pub variance: f64,
    /// Length scale ℓ (inputs are normalised to `[0, 1]`, so values around
    /// 0.2–0.5 are reasonable).
    pub length_scale: f64,
    /// Observation noise added to the diagonal of the Gram matrix.
    pub noise: f64,
}

impl RbfKernel {
    /// Creates a kernel.
    pub fn new(variance: f64, length_scale: f64, noise: f64) -> Self {
        RbfKernel {
            variance,
            length_scale,
            noise,
        }
    }

    /// Covariance between two (equal-length) points.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let sq_dist: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        self.at_sq_dist(sq_dist)
    }

    /// Covariance between two points whose squared distance is `sq_dist`.
    pub fn at_sq_dist(&self, sq_dist: f64) -> f64 {
        self.variance * (-sq_dist / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    /// `k(x, x)` for any finite `x`, bit for bit: the squared distance of a
    /// finite point to itself sums to exactly `+0.0`.
    pub fn self_covariance(&self) -> f64 {
        self.at_sq_dist(0.0)
    }
}

impl Default for RbfKernel {
    fn default() -> Self {
        RbfKernel::new(1.0, 0.3, 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_maximal_at_zero_distance() {
        let k = RbfKernel::default();
        let a = vec![0.3, 0.7];
        assert!((k.eval(&a, &a) - k.variance).abs() < 1e-12);
        let b = vec![0.9, 0.1];
        assert!(k.eval(&a, &b) < k.variance);
        assert!(k.eval(&a, &b) > 0.0);
    }

    #[test]
    fn kernel_is_symmetric_and_decays_with_distance() {
        let k = RbfKernel::new(2.0, 0.5, 0.0);
        let a = vec![0.0, 0.0];
        let near = vec![0.1, 0.0];
        let far = vec![0.9, 0.9];
        assert_eq!(k.eval(&a, &near), k.eval(&near, &a));
        assert!(k.eval(&a, &near) > k.eval(&a, &far));
    }

    #[test]
    fn self_covariance_is_eval_at_any_finite_point() {
        for k in [RbfKernel::default(), RbfKernel::new(2.5, 0.07, 0.0)] {
            for p in [vec![0.0], vec![0.25, 1.0], vec![1e-300, 0.3, 0.999_999]] {
                assert_eq!(k.self_covariance().to_bits(), k.eval(&p, &p).to_bits());
            }
        }
    }
}
