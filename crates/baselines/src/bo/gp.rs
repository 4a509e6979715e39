//! A small Gaussian-process regressor (Cholesky-based, no external linear
//! algebra dependencies), grown one sample at a time and evaluated a block
//! of candidates at a time.
//!
//! The RBF hyperparameters are fixed, so the Gram matrix of the samples
//! depends only on the sampled points, and row `i` of its Cholesky factor
//! reads only Gram row `i` and the factor's earlier rows. `push` therefore
//! appends one O(n·d + n²) row to a packed factor, and `set_targets` (BO
//! rescales its targets before every acquisition) recomputes only the
//! target mean and `alpha`, in O(n²).
//!
//! `predict` scores candidates `LANES` at a time, transposed to
//! `[dim][LANES]`, in one pass over the samples. Each lane performs its
//! candidate's f64 operations in the order a one-point prediction does:
//! sums fold from `-0.0` as `f64::sum` does, `exp` stays scalar, and the
//! forward substitution runs as independent per-lane chains (Rust never
//! contracts `a - b * c` into a fused multiply-add). Every result is
//! therefore bit-identical to refitting from scratch and predicting one
//! point at a time, which the reference-equality proptest below pins.

use super::kernel::RbfKernel;

/// Candidates scored together by one pass of [`GaussianProcess::predict`].
const LANES: usize = 16;

/// One value per candidate lane.
type Lanes = [f64; LANES];

/// Gaussian-process regression over normalised inputs in `[0, 1]^d`.
#[derive(Debug, Clone)]
pub struct GaussianProcess {
    kernel: RbfKernel,
    dim: usize,
    /// The samples, row-major (`dim` values each).
    x: Vec<f64>,
    /// Cholesky factor `L` of the Gram matrix, lower triangle packed by
    /// rows (see [`row`]).
    chol: Vec<f64>,
    /// Mean of the training targets (the GP models the residual around it).
    y_mean: f64,
    /// `K⁻¹ (y - mean)` computed via two triangular solves.
    alpha: Vec<f64>,
}

/// Row `i` of a lower triangle packed by rows: `i + 1` values.
fn row(packed: &[f64], i: usize) -> &[f64] {
    &packed[i * (i + 1) / 2..][..=i]
}

impl GaussianProcess {
    /// A GP over `dim`-dimensional inputs that holds no samples yet.
    pub fn new(kernel: RbfKernel, dim: usize) -> Self {
        assert!(dim > 0, "a GP needs at least one input dimension");
        GaussianProcess {
            kernel,
            dim,
            x: Vec::new(),
            chol: Vec::new(),
            y_mean: 0.0,
            alpha: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len() / self.dim
    }

    /// Dimensionality of the inputs.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Sample `i`, in push order.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.x[i * self.dim..][..self.dim]
    }

    /// Adds a sample and appends its row to the Cholesky factor. A small
    /// jitter is added if the new diagonal element degenerates, which keeps
    /// the factor usable for nearly-singular Gram matrices of close-by
    /// samples. Call [`GaussianProcess::set_targets`] before predicting.
    ///
    /// # Panics
    ///
    /// Panics if `point` does not have the GP's dimensionality.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "inconsistent dimensionality");
        let n = self.len();
        let start = self.chol.len();
        self.chol.resize(start + n + 1, 0.0);
        let (factor, new_row) = self.chol.split_at_mut(start);
        for j in 0..n {
            let lj = row(factor, j);
            let mut sum = self.kernel.eval(&self.x[j * self.dim..][..self.dim], point);
            for (lik, ljk) in new_row[..j].iter().zip(&lj[..j]) {
                sum -= lik * ljk;
            }
            new_row[j] = sum / lj[j];
        }
        let mut sum = self.kernel.eval(point, point) + self.kernel.noise;
        for lik in &new_row[..n] {
            sum -= lik * lik;
        }
        new_row[n] = sum.max(1e-10).sqrt();
        self.x.extend_from_slice(point);
    }

    /// Fits the GP to the targets `y`, one per sample in push order.
    ///
    /// # Panics
    ///
    /// Panics if `y` does not hold one target per sample, or is empty.
    pub fn set_targets(&mut self, y: &[f64]) {
        assert_eq!(y.len(), self.len(), "one target per sample");
        assert!(!y.is_empty(), "cannot fit a GP to zero observations");
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        // Solves L z = y - mean, then Lᵀ alpha = z in place.
        self.alpha.clear();
        for (i, yi) in y.iter().enumerate() {
            let li = row(&self.chol, i);
            let mut sum = yi - self.y_mean;
            for (lij, zj) in li.iter().zip(&self.alpha) {
                sum -= lij * zj;
            }
            self.alpha.push(sum / li[i]);
        }
        for i in (0..y.len()).rev() {
            let mut sum = self.alpha[i];
            for j in (i + 1)..y.len() {
                sum -= row(&self.chol, j)[i] * self.alpha[j];
            }
            self.alpha[i] = sum / row(&self.chol, i)[i];
        }
    }

    /// Posterior mean and variance at each of `points` (row-major, `dim`
    /// finite values per point), in order.
    ///
    /// # Panics
    ///
    /// Panics if no targets were set since the last push.
    pub fn predict(&self, points: &[f64]) -> Vec<(f64, f64)> {
        let n = self.len();
        assert_eq!(self.alpha.len(), n, "set_targets after the last push");
        let prior = self.kernel.self_covariance();
        let mut posterior = Vec::with_capacity(points.len() / self.dim);
        // Candidate coordinates by dimension, then lane. Lanes past the end
        // of a short last block keep finite stale values and are dropped.
        let mut cand: Vec<Lanes> = vec![[0.0; LANES]; self.dim];
        // v = L⁻¹ k*, one row per sample.
        let mut v: Vec<Lanes> = vec![[0.0; LANES]; n];
        for block in points.chunks(LANES * self.dim) {
            for (lane, point) in block.chunks_exact(self.dim).enumerate() {
                for (c, &p) in cand.iter_mut().zip(point) {
                    c[lane] = p;
                }
            }
            let mut k_alpha: Lanes = [-0.0; LANES];
            let mut v_sq: Lanes = [-0.0; LANES];
            for i in 0..n {
                let mut sq_dist: Lanes = [-0.0; LANES];
                for (&xi, c) in self.point(i).iter().zip(&cand) {
                    for (s, &cl) in sq_dist.iter_mut().zip(c) {
                        *s += (xi - cl) * (xi - cl);
                    }
                }
                let mut vi = sq_dist.map(|s| self.kernel.at_sq_dist(s));
                for (acc, &k) in k_alpha.iter_mut().zip(&vi) {
                    *acc += k * self.alpha[i];
                }
                let li = row(&self.chol, i);
                for (&lij, vj) in li.iter().zip(&v[..i]) {
                    for (s, &vjl) in vi.iter_mut().zip(vj) {
                        *s -= lij * vjl;
                    }
                }
                for (s, acc) in vi.iter_mut().zip(&mut v_sq) {
                    *s /= li[i];
                    *acc += *s * *s;
                }
                v[i] = vi;
            }
            posterior.extend(
                (0..block.len() / self.dim)
                    .map(|l| (self.y_mean + k_alpha[l], (prior - v_sq[l]).max(1e-12))),
            );
        }
        posterior
    }
}

/// The row-by-row GP that [`GaussianProcess`] replaces, kept to pin it: a
/// full Gram matrix, an O(n³) factorisation on every fit, and one
/// prediction per point.
#[cfg(test)]
mod reference {
    use super::RbfKernel;

    impl RbfKernel {
        /// The full Gram matrix of a point set, with noise on the diagonal.
        pub fn gram(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
            let n = points.len();
            let mut k = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in i..n {
                    let v = self.eval(&points[i], &points[j]);
                    k[i][j] = v;
                    k[j][i] = v;
                }
                k[i][i] += self.noise;
            }
            k
        }
    }

    /// Gaussian-process regression refitted from scratch.
    pub struct Gp {
        kernel: RbfKernel,
        x: Vec<Vec<f64>>,
        y_mean: f64,
        chol: Vec<Vec<f64>>,
        alpha: Vec<f64>,
    }

    impl Gp {
        /// Fits a GP to the observations `(x, y)`.
        pub fn fit(kernel: RbfKernel, x: Vec<Vec<f64>>, y: &[f64]) -> Self {
            let y_mean = y.iter().sum::<f64>() / y.len() as f64;
            let centred: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
            let chol = cholesky(&kernel.gram(&x));
            let alpha = backward_substitute(&chol, &forward_substitute(&chol, &centred));
            Gp {
                kernel,
                x,
                y_mean,
                chol,
                alpha,
            }
        }

        /// Posterior mean and variance at `point`.
        pub fn predict(&self, point: &[f64]) -> (f64, f64) {
            let k_star: Vec<f64> = self
                .x
                .iter()
                .map(|xi| self.kernel.eval(xi, point))
                .collect();
            let mean = self.y_mean
                + k_star
                    .iter()
                    .zip(&self.alpha)
                    .map(|(k, a)| k * a)
                    .sum::<f64>();
            // v = L⁻¹ k*; var = k(x*,x*) - vᵀv
            let v = forward_substitute(&self.chol, &k_star);
            let var = self.kernel.eval(point, point) - v.iter().map(|x| x * x).sum::<f64>();
            (mean, var.max(1e-12))
        }
    }

    /// Cholesky decomposition of a symmetric positive-definite matrix
    /// (lower-triangular `L` with `LLᵀ = A`), with the same jitter as
    /// [`super::GaussianProcess::push`].
    pub fn cholesky(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = a.len();
        let mut l = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[i][j];
                for (lik, ljk) in l[i][..j].iter().zip(&l[j][..j]) {
                    sum -= lik * ljk;
                }
                if i == j {
                    l[i][j] = sum.max(1e-10).sqrt();
                } else {
                    l[i][j] = sum / l[j][j];
                }
            }
        }
        l
    }

    /// Solves `L y = b` for lower-triangular `L`.
    fn forward_substitute(l: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= l[i][j] * y[j];
            }
            y[i] = sum / l[i][i];
        }
        y
    }

    /// Solves `Lᵀ x = y` for lower-triangular `L`.
    fn backward_substitute(l: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
        let n = y.len();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= l[j][i] * x[j];
            }
            x[i] = sum / l[i][i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fit(kernel: RbfKernel, x: &[Vec<f64>], y: &[f64]) -> GaussianProcess {
        let mut gp = GaussianProcess::new(kernel, x[0].len());
        for p in x {
            gp.push(p);
        }
        gp.set_targets(y);
        gp
    }

    fn predict_one(gp: &GaussianProcess, point: &[f64]) -> (f64, f64) {
        let posterior = gp.predict(point);
        assert_eq!(posterior.len(), 1);
        posterior[0]
    }

    #[test]
    fn factor_of_well_separated_points_is_the_identity() {
        // exp(-1 / (2 · 0.01²)) underflows to 0, so the Gram matrix is I.
        let gp = fit(
            RbfKernel::new(1.0, 0.01, 0.0),
            &[vec![0.0], vec![1.0]],
            &[0.0, 0.0],
        );
        assert_eq!(gp.chol, [1.0, 0.0, 1.0]);
    }

    #[test]
    fn factor_reproduces_the_gram_matrix_with_noise_on_its_diagonal() {
        let kernel = RbfKernel::new(1.0, 0.3, 0.01);
        let pts = vec![vec![0.0], vec![0.5], vec![1.0]];
        let gp = fit(kernel, &pts, &[0.0; 3]);
        for i in 0..3 {
            for j in 0..3 {
                let llt: f64 = (0..=i.min(j))
                    .map(|k| row(&gp.chol, i)[k] * row(&gp.chol, j)[k])
                    .sum();
                let want = kernel.eval(&pts[i], &pts[j]) + if i == j { 0.01 } else { 0.0 };
                assert!(
                    (llt - want).abs() < 1e-12,
                    "(LLᵀ)[{i}][{j}] = {llt}, want {want}"
                );
            }
        }
    }

    #[test]
    fn targets_solve_the_gram_system() {
        let kernel = RbfKernel::new(4.0, 0.4, 0.5);
        let pts = vec![vec![0.1, 0.2], vec![0.4, 0.9], vec![0.8, 0.3]];
        let y = [8.0, 8.0, 5.0];
        let gp = fit(kernel, &pts, &y);
        assert_eq!(gp.y_mean, 7.0);
        for (i, yi) in y.iter().enumerate() {
            let k_alpha: f64 = (0..3)
                .map(|j| {
                    let noise = if i == j { kernel.noise } else { 0.0 };
                    (kernel.eval(&pts[i], &pts[j]) + noise) * gp.alpha[j]
                })
                .sum();
            assert!((k_alpha - (yi - gp.y_mean)).abs() < 1e-9);
        }
    }

    #[test]
    fn gp_interpolates_training_points() {
        let kernel = RbfKernel::new(1.0, 0.3, 1e-8);
        let x = vec![vec![0.0], vec![0.5], vec![1.0]];
        let y = [1.0, 3.0, 2.0];
        let gp = fit(kernel, &x, &y);
        assert_eq!(gp.len(), 3);
        assert_eq!(gp.dim(), 1);
        for (xi, yi) in x.iter().zip(y.iter()) {
            let (mean, var) = predict_one(&gp, xi);
            assert!((mean - yi).abs() < 1e-3, "mean {mean} != target {yi}");
            assert!(var < 1e-3, "variance at a training point should be tiny");
        }
    }

    #[test]
    fn gp_uncertainty_grows_away_from_data() {
        let kernel = RbfKernel::new(1.0, 0.2, 1e-8);
        let gp = fit(kernel, &[vec![0.0], vec![0.1]], &[0.0, 0.1]);
        let (_, var_near) = predict_one(&gp, &[0.05]);
        let (_, var_far) = predict_one(&gp, &[0.9]);
        assert!(var_far > var_near);
    }

    #[test]
    fn gp_prediction_reverts_to_mean_far_from_data() {
        let kernel = RbfKernel::new(1.0, 0.1, 1e-8);
        let gp = fit(kernel, &[vec![0.0], vec![0.05]], &[10.0, 12.0]);
        let (mean_far, _) = predict_one(&gp, &[1.0]);
        assert!((mean_far - 11.0).abs() < 0.5, "far prediction ~ prior mean");
    }

    #[test]
    #[should_panic(expected = "one target per sample")]
    fn fit_rejects_mismatched_lengths() {
        let _ = fit(RbfKernel::default(), &[vec![0.0]], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent dimensionality")]
    fn push_rejects_a_point_of_another_dimensionality() {
        GaussianProcess::new(RbfKernel::default(), 2).push(&[0.5]);
    }

    #[test]
    #[should_panic(expected = "set_targets after the last push")]
    fn predict_requires_targets_for_every_sample() {
        let mut gp = fit(RbfKernel::default(), &[vec![0.0]], &[1.0]);
        gp.push(&[0.5]);
        let _ = gp.predict(&[0.25]);
    }

    /// Pool sizes around the lane width, plus BO's default.
    const POOL_SIZES: [usize; 5] = [1, 15, 17, 64, 256];

    /// `count` points in `[0, 1]^dim`. One in four repeats an earlier point
    /// (of `earlier`, or of this draw) and one in four perturbs one, as BO's
    /// incumbent perturbations do, so near-singular Gram matrices and the
    /// factor's jitter get exercised.
    fn draw_points(rng: &mut StdRng, count: usize, dim: usize, earlier: &[f64]) -> Vec<f64> {
        let mut all = earlier.to_vec();
        for _ in 0..count {
            let known = all.len() / dim;
            let kind = rng.gen_range(0..4u32);
            if kind < 2 && known > 0 {
                let j = rng.gen_range(0..known);
                let spread = if kind == 0 { 0.0 } else { 0.1 };
                for k in 0..dim {
                    let offset = spread * (2.0 * rng.gen::<f64>() - 1.0);
                    all.push((all[j * dim + k] + offset).clamp(0.0, 1.0));
                }
            } else {
                all.extend((0..dim).map(|_| rng.gen::<f64>()));
            }
        }
        all.split_off(earlier.len())
    }

    /// Asserts that `gp`, fitted to the samples `x` and targets `y`, gives
    /// every candidate the reference's posterior bit for bit.
    fn assert_matches_reference(gp: &GaussianProcess, x: &[Vec<f64>], y: &[f64], cands: &[f64]) {
        let reference = reference::Gp::fit(gp.kernel, x.to_vec(), y);
        let posterior = gp.predict(cands);
        assert_eq!(posterior.len(), cands.len() / gp.dim());
        for (c, (point, (mean, var))) in cands.chunks(gp.dim()).zip(posterior).enumerate() {
            let (ref_mean, ref_var) = reference.predict(point);
            assert_eq!(mean.to_bits(), ref_mean.to_bits(), "mean of candidate {c}");
            assert_eq!(
                var.to_bits(),
                ref_var.to_bits(),
                "variance of candidate {c}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The grown factor and the blocked posterior are bit-identical to
        /// a full refactor and one-point predictions, across retargeting
        /// (BO refits after every sample with rescaled targets).
        #[test]
        fn blocked_gp_matches_the_row_by_row_reference_bit_for_bit(
            dim in 1usize..=18,
            n in 1usize..=80,
            pool in 0usize..POOL_SIZES.len(),
            length_scale in 0.05f64..1.0,
            noiseless in 0u32..2,
            seed in 0u64..u64::MAX,
        ) {
            // BO's noise, or none, which makes repeated points hit the jitter.
            let noise = if noiseless == 1 { 0.0 } else { 1e-6 };
            let kernel = RbfKernel::new(1.0, length_scale, noise);
            let mut rng = StdRng::seed_from_u64(seed);
            let flat = draw_points(&mut rng, n, dim, &[]);
            let x: Vec<Vec<f64>> = flat.chunks(dim).map(<[f64]>::to_vec).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let cands = draw_points(&mut rng, POOL_SIZES[pool], dim, &flat);

            let mut gp = GaussianProcess::new(kernel, dim);
            let half = n / 2;
            for p in &x[..half] {
                gp.push(p);
            }
            if half > 0 {
                let y_half: Vec<f64> = y[..half].iter().map(|v| v * 3.0).collect();
                gp.set_targets(&y_half);
                assert_matches_reference(&gp, &x[..half], &y_half, &cands);
            }
            for p in &x[half..] {
                gp.push(p);
            }
            gp.set_targets(&y);
            assert_matches_reference(&gp, &x, &y, &cands);

            let full = reference::cholesky(&kernel.gram(&x));
            for (i, full_row) in full.iter().enumerate() {
                for (j, l) in row(&gp.chol, i).iter().enumerate() {
                    prop_assert_eq!(l.to_bits(), full_row[j].to_bits(), "L[{}][{}]", i, j);
                }
            }
        }
    }
}
