//! Ordinary least squares regression.

use crate::linalg::{solve, SquareMatrix};

/// A fitted linear model `y = w . x + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination on the training data.
    pub r2: f64,
}

impl LinearModel {
    /// Fits by ordinary least squares (normal equations with a tiny ridge
    /// term for numerical robustness).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, rows have inconsistent lengths, or `ys`
    /// disagrees in length.
    #[must_use]
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        let d = xs[0].len();
        assert!(
            xs.iter().all(|x| x.len() == d),
            "inconsistent feature dimensions"
        );

        // Augment with the intercept column.
        let n = d + 1;
        let mut xtx = SquareMatrix::zeros(n);
        let mut xty = vec![0.0; n];
        for (x, &y) in xs.iter().zip(ys) {
            let aug = |i: usize| if i < d { x[i] } else { 1.0 };
            for (r, t) in xty.iter_mut().enumerate() {
                *t += aug(r) * y;
                for c in 0..n {
                    xtx.set(r, c, xtx.get(r, c) + aug(r) * aug(c));
                }
            }
        }
        // Ridge epsilon keeps degenerate features solvable.
        for i in 0..n {
            xtx.set(i, i, xtx.get(i, i) + 1e-9);
        }
        let sol = solve(&xtx, &xty);
        let (weights, intercept) = (sol[..d].to_vec(), sol[d]);

        let mean_y: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
        let mut ss_res = 0.0;
        let mut ss_tot = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            let pred: f64 = weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + intercept;
            ss_res += (y - pred) * (y - pred);
            ss_tot += (y - mean_y) * (y - mean_y);
        }
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };

        Self {
            weights,
            intercept,
            r2,
        }
    }

    /// Predicts `y` for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimension disagrees with the fitted model.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_planted_coefficients() {
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i), f64::from(i % 7)])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] - 2.0 * x[1] + 5.0).collect();
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.weights[0] - 3.0).abs() < 1e-6);
        assert!((m.weights[1] + 2.0).abs() < 1e-6);
        assert!((m.intercept - 5.0).abs() < 1e-4);
        assert!(m.r2 > 0.999_999);
    }

    #[test]
    fn r2_reflects_noise() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![f64::from(i)]).collect();
        // Deterministic pseudo-noise.
        let ys: Vec<f64> = (0..200u64)
            .map(|i| i as f64 + 30.0 * ((i * 2_654_435_761 % 97) as f64 / 97.0 - 0.5))
            .collect();
        let m = LinearModel::fit(&xs, &ys);
        assert!(m.r2 > 0.9 && m.r2 < 1.0, "r2 = {}", m.r2);
    }

    #[test]
    fn constant_target_has_unit_r2() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let ys = vec![4.0; 10];
        let m = LinearModel::fit(&xs, &ys);
        assert!((m.predict(&[3.0]) - 4.0).abs() < 1e-6);
        assert!((m.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = LinearModel::fit(&[vec![1.0]], &[1.0, 2.0]);
    }
}
