//! Principal component analysis over counter features.

use crate::linalg::{symmetric_eigen, SquareMatrix};

/// A fitted PCA: components sorted by explained variance.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Eigenvalues of the covariance matrix, descending.
    pub eigenvalues: Vec<f64>,
    /// Principal directions; `components[k]` matches `eigenvalues[k]`.
    pub components: Vec<Vec<f64>>,
    /// Per-feature column means of the training matrix.
    pub means: Vec<f64>,
}

impl Pca {
    /// Fits PCA on a sample-major matrix (`rows` = observations).
    ///
    /// Columns are mean-centered but *not* variance-normalized: the paper's
    /// counter study (Fig. 11a) asks which raw counters carry the variance,
    /// so their natural scales are part of the answer.
    ///
    /// # Panics
    ///
    /// Panics on an empty matrix or ragged rows.
    #[must_use]
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit PCA on an empty matrix");
        let d = rows[0].len();
        assert!(
            d > 0 && rows.iter().all(|r| r.len() == d),
            "ragged feature matrix"
        );
        let n = rows.len() as f64;

        let mut means = vec![0.0; d];
        for r in rows {
            for (m, v) in means.iter_mut().zip(r) {
                *m += v / n;
            }
        }

        let mut cov = SquareMatrix::zeros(d);
        for r in rows {
            for i in 0..d {
                for j in 0..d {
                    let v =
                        cov.get(i, j) + (r[i] - means[i]) * (r[j] - means[j]) / (n - 1.0).max(1.0);
                    cov.set(i, j, v);
                }
            }
        }

        let (eigenvalues, components) = symmetric_eigen(&cov);
        // Numerical noise can leave tiny negative eigenvalues.
        let eigenvalues = eigenvalues.into_iter().map(|l| l.max(0.0)).collect();
        Self {
            eigenvalues,
            components,
            means,
        }
    }

    /// Fraction of total variance captured by each component.
    #[must_use]
    pub fn explained_ratio(&self) -> Vec<f64> {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.eigenvalues.len()];
        }
        self.eigenvalues.iter().map(|l| l / total).collect()
    }

    /// Per-feature importance: the share of total variance each *original
    /// feature* carries, aggregated over components
    /// (`sum_k ratio_k * loading_k[i]^2`). This is the quantity behind the
    /// paper's Fig. 11a bars.
    #[must_use]
    pub fn feature_importance(&self) -> Vec<f64> {
        let ratios = self.explained_ratio();
        let d = self.means.len();
        (0..d)
            .map(|i| {
                ratios
                    .iter()
                    .zip(&self.components)
                    .map(|(r, c)| r * c[i] * c[i])
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_direction_is_found() {
        // Points along (2, 1) with tiny orthogonal noise.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = f64::from(i) / 10.0;
                let noise = 0.01 * f64::from(i % 3) - 0.01;
                vec![2.0 * t - noise, t + 2.0 * noise]
            })
            .collect();
        let pca = Pca::fit(&rows);
        let ratio = pca.explained_ratio();
        assert!(ratio[0] > 0.99, "first component ratio {}", ratio[0]);
        let c = &pca.components[0];
        let slope = c[1] / c[0];
        assert!((slope - 0.5).abs() < 0.05, "direction slope {slope}");
    }

    #[test]
    fn importance_sums_to_one() {
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![f64::from(i), f64::from(i * i % 13), f64::from(i % 5)])
            .collect();
        let pca = Pca::fit(&rows);
        let imp = pca.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn high_variance_feature_dominates_importance() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![1000.0 * f64::from(i), f64::from(i % 7)])
            .collect();
        let pca = Pca::fit(&rows);
        let imp = pca.feature_importance();
        assert!(imp[0] > 0.99);
    }

    #[test]
    fn constant_features_carry_no_importance() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i), 7.0]).collect();
        let pca = Pca::fit(&rows);
        let imp = pca.feature_importance();
        assert!(imp[1] < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_matrix_panics() {
        let _ = Pca::fit(&[]);
    }
}
