//! Ridge regression, feature standardization, and k-fold cross-validation.
//!
//! The paper's proxy is a plain least-squares line over two counters; a
//! production deployment additionally wants (a) regularization, because
//! counter features are collinear under saturation, (b) standardized
//! features, so the ridge penalty is scale-free, and (c) a cross-validated
//! estimate of generalization instead of the optimistic training R².

use crate::linalg::{solve, SquareMatrix};

/// Per-feature affine standardization (z-scores).
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    /// Feature means.
    pub means: Vec<f64>,
    /// Feature standard deviations (zero-variance features keep 1.0).
    pub stds: Vec<f64>,
}

impl Standardizer {
    /// Fits means and standard deviations over a dataset.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset or ragged rows.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>]) -> Self {
        assert!(!xs.is_empty(), "cannot standardize an empty dataset");
        let d = xs[0].len();
        assert!(xs.iter().all(|x| x.len() == d), "ragged feature rows");
        let n = xs.len() as f64;
        let mut means = vec![0.0; d];
        for x in xs {
            for (m, v) in means.iter_mut().zip(x) {
                *m += v / n;
            }
        }
        let mut stds = vec![0.0; d];
        for x in xs {
            for ((s, v), m) in stds.iter_mut().zip(x).zip(&means) {
                *s += (v - m) * (v - m) / n;
            }
        }
        for s in &mut stds {
            *s = s.sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Self { means, stds }
    }

    /// Standardizes one feature vector.
    #[must_use]
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), s)| (v - m) / s)
            .collect()
    }
}

/// A ridge-regularized linear model over standardized features.
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeModel {
    /// Weights in standardized feature space.
    pub weights: Vec<f64>,
    /// Intercept in standardized space.
    pub intercept: f64,
    /// The standardization applied before regression.
    pub standardizer: Standardizer,
    /// Regularization strength used at fit time.
    pub lambda: f64,
}

impl RidgeModel {
    /// Fits `y = w . z(x) + b` with an L2 penalty `lambda` on `w` (the
    /// intercept is not penalized).
    ///
    /// # Panics
    ///
    /// Panics on empty/ragged inputs, a length mismatch, or a negative
    /// `lambda`.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], lambda: f64) -> Self {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(lambda >= 0.0, "lambda must be non-negative");
        let standardizer = Standardizer::fit(xs);
        let zs: Vec<Vec<f64>> = xs.iter().map(|x| standardizer.transform(x)).collect();
        let d = zs[0].len();
        let n = d + 1;
        let mut xtx = SquareMatrix::zeros(n);
        let mut xty = vec![0.0; n];
        for (z, &y) in zs.iter().zip(ys) {
            let aug = |i: usize| if i < d { z[i] } else { 1.0 };
            for (r, t) in xty.iter_mut().enumerate() {
                *t += aug(r) * y;
                for c in 0..n {
                    xtx.set(r, c, xtx.get(r, c) + aug(r) * aug(c));
                }
            }
        }
        for i in 0..d {
            xtx.set(i, i, xtx.get(i, i) + lambda);
        }
        xtx.set(d, d, xtx.get(d, d) + 1e-12);
        let sol = solve(&xtx, &xty);
        Self {
            weights: sol[..d].to_vec(),
            intercept: sol[d],
            standardizer,
            lambda,
        }
    }

    /// Predicts for a raw (unstandardized) feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension disagrees with the fitted model.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        let z = self.standardizer.transform(x);
        assert_eq!(z.len(), self.weights.len(), "feature dimension mismatch");
        self.weights.iter().zip(&z).map(|(w, v)| w * v).sum::<f64>() + self.intercept
    }
}

/// Out-of-sample R² from k-fold cross-validation of a ridge fit.
///
/// Folds are contiguous slices (the dataset generator already shuffles
/// episodes), every point is predicted exactly once by a model that never
/// saw it, and the pooled residuals give one R².
///
/// # Panics
///
/// Panics unless `2 <= k <= xs.len()` and inputs agree in length.
#[must_use]
pub fn cross_validate(xs: &[Vec<f64>], ys: &[f64], lambda: f64, k: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
    assert!(k >= 2 && k <= xs.len(), "need 2 <= k <= n folds");
    let n = xs.len();
    let mean_y: f64 = ys.iter().sum::<f64>() / n as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for fold in 0..k {
        let lo = fold * n / k;
        let hi = (fold + 1) * n / k;
        let train_x: Vec<Vec<f64>> = xs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < lo || *i >= hi)
            .map(|(_, x)| x.clone())
            .collect();
        let train_y: Vec<f64> = ys
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < lo || *i >= hi)
            .map(|(_, y)| *y)
            .collect();
        let model = RidgeModel::fit(&train_x, &train_y, lambda);
        for i in lo..hi {
            let pred = model.predict(&xs[i]);
            ss_res += (ys[i] - pred) * (ys[i] - pred);
            ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
        }
    }
    if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    }
}

/// Picks the best `lambda` from a candidate ladder by k-fold R².
///
/// # Panics
///
/// Panics if `ladder` is empty (and propagates [`cross_validate`]'s
/// requirements).
#[must_use]
pub fn select_lambda(xs: &[Vec<f64>], ys: &[f64], ladder: &[f64], k: usize) -> (f64, f64) {
    assert!(!ladder.is_empty(), "lambda ladder must not be empty");
    ladder
        .iter()
        .map(|&l| (l, cross_validate(xs, ys, l, k)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty ladder")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted(n: usize, noise: f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    f64::from(u32::try_from(i).unwrap()),
                    f64::from(u32::try_from(i % 13).unwrap()) * 100.0,
                ]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let jitter = ((i as u64 * 2_654_435_761 % 101) as f64 / 101.0 - 0.5) * noise;
                2.0 * x[0] - 0.03 * x[1] + 1.0 + jitter
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn ridge_recovers_planted_fit() {
        let (xs, ys) = planted(128, 0.0);
        let m = RidgeModel::fit(&xs, &ys, 1e-6);
        for (x, y) in xs.iter().zip(&ys) {
            assert!((m.predict(x) - y).abs() < 1e-3);
        }
    }

    #[test]
    fn standardizer_produces_zero_mean_unit_variance() {
        let (xs, _) = planted(256, 0.0);
        let st = Standardizer::fit(&xs);
        let zs: Vec<Vec<f64>> = xs.iter().map(|x| st.transform(x)).collect();
        for d in 0..2 {
            let mean: f64 = zs.iter().map(|z| z[d]).sum::<f64>() / zs.len() as f64;
            let var: f64 = zs.iter().map(|z| (z[d] - mean).powi(2)).sum::<f64>() / zs.len() as f64;
            assert!(mean.abs() < 1e-9, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-9, "dim {d} var {var}");
        }
    }

    #[test]
    fn zero_variance_feature_is_benign() {
        let xs: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i), 7.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let m = RidgeModel::fit(&xs, &ys, 1e-3);
        assert!((m.predict(&[10.0, 7.0]) - 10.0).abs() < 0.1);
    }

    #[test]
    fn heavier_ridge_shrinks_weights() {
        let (xs, ys) = planted(128, 5.0);
        let light = RidgeModel::fit(&xs, &ys, 1e-6);
        let heavy = RidgeModel::fit(&xs, &ys, 1e4);
        let norm = |m: &RidgeModel| m.weights.iter().map(|w| w * w).sum::<f64>();
        assert!(norm(&heavy) < norm(&light));
    }

    #[test]
    fn cross_validation_is_pessimistic_about_noise() {
        let (xs, ys) = planted(130, 40.0);
        let cv = cross_validate(&xs, &ys, 1e-3, 5);
        assert!(cv < 1.0);
        assert!(cv > 0.8, "planted signal should still dominate: {cv}");
    }

    #[test]
    fn lambda_selection_prefers_regularization_under_noise() {
        let (xs, ys) = planted(120, 60.0);
        let (best, r2) = select_lambda(&xs, &ys, &[1e-6, 1e-2, 1.0, 100.0], 5);
        assert!(r2 > 0.5);
        assert!(best >= 1e-6);
    }

    #[test]
    #[should_panic(expected = "need 2 <= k")]
    fn one_fold_panics() {
        let (xs, ys) = planted(16, 0.0);
        let _ = cross_validate(&xs, &ys, 0.1, 1);
    }
}
