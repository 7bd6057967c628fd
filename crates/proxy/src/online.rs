//! Online proxy recalibration.
//!
//! A statically trained proxy drifts when the tenant mix shifts away from
//! the training distribution (new models, different allocation patterns).
//! [`OnlineProxy`] wraps the static model with an exponentially weighted
//! residual correction: whenever the scheduler later *observes* the true
//! pressure of a window (e.g. from the slowdown a finished unit actually
//! experienced), the residual updates a bias and gain correction applied
//! on top of the static prediction.

use crate::proxy::{CounterWindow, InterferenceProxy};

/// An interference proxy with EWMA residual correction.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineProxy {
    base: InterferenceProxy,
    /// EWMA smoothing factor in `(0, 1]`; higher adapts faster.
    pub alpha: f64,
    /// Running bias correction (EWMA of residuals).
    bias: f64,
    /// Running gain correction (EWMA of observed/predicted ratio).
    gain: f64,
    /// Observations absorbed so far.
    observations: u64,
}

impl OnlineProxy {
    /// Wraps a fitted static proxy.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is within `(0, 1]`.
    #[must_use]
    pub fn new(base: InterferenceProxy, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            base,
            alpha,
            bias: 0.0,
            gain: 1.0,
            observations: 0,
        }
    }

    /// Predicts the pressure level with the current correction applied,
    /// clamped to `[0, 1]`.
    #[must_use]
    pub fn predict(&self, w: &CounterWindow) -> f64 {
        (self.base.predict(w) * self.gain + self.bias).clamp(0.0, 1.0)
    }

    /// Absorbs one ground-truth observation: the window and the pressure
    /// level that was later measured for it.
    ///
    /// The correction is a two-parameter LMS step on the squared residual
    /// of `gain * raw + bias`; with the raw prediction bounded in `[0, 1]`
    /// the update is stable for any `alpha` in `(0, 1]`.
    pub fn observe(&mut self, w: &CounterWindow, measured_level: f64) {
        let raw = self.base.predict(w);
        let residual = measured_level.clamp(0.0, 1.0) - (raw * self.gain + self.bias);
        self.bias += self.alpha * residual;
        self.gain = (self.gain + self.alpha * residual * raw).clamp(0.1, 10.0);
        self.observations += 1;
    }

    /// Observations absorbed so far.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// The current (bias, gain) correction.
    #[must_use]
    pub fn correction(&self) -> (f64, f64) {
        (self.bias, self.gain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(n: usize) -> (Vec<CounterWindow>, Vec<f64>) {
        let mut windows = Vec::with_capacity(n);
        let mut levels = Vec::with_capacity(n);
        for i in 0..n {
            let level = i as f64 / (n - 1) as f64;
            windows.push(CounterWindow {
                miss_rate: 0.1 + 0.7 * level,
                access_rate: 1.0e9 + 3.0e10 * level,
                ipc: 2.0 - level,
                flop_rate: 8.0e11,
            });
            levels.push(level);
        }
        (windows, levels)
    }

    #[test]
    fn uncorrected_online_matches_base() {
        let (w, l) = synthetic(64);
        let base = InterferenceProxy::fit(&w, &l);
        let online = OnlineProxy::new(base.clone(), 0.2);
        for wi in &w {
            assert!((online.predict(wi) - base.predict(wi)).abs() < 1e-12);
        }
    }

    #[test]
    fn drifted_truth_is_learned() {
        // The deployed environment reports pressure 20 points higher than
        // training; the online correction must absorb most of the offset.
        let (w, l) = synthetic(64);
        let base = InterferenceProxy::fit(&w, &l);
        let mut online = OnlineProxy::new(base, 0.2);
        let drifted = |x: f64| (x + 0.2).min(1.0);
        for _ in 0..5 {
            for (wi, &li) in w.iter().zip(&l) {
                online.observe(wi, drifted(li));
            }
        }
        let mut err = 0.0;
        for (wi, &li) in w.iter().zip(&l) {
            err += (online.predict(wi) - drifted(li)).abs();
        }
        err /= w.len() as f64;
        assert!(err < 0.08, "mean error after adaptation: {err}");
        assert!(online.observations() == 5 * 64);
    }

    #[test]
    fn gain_adapts_to_scaling_drift() {
        let (w, l) = synthetic(64);
        let base = InterferenceProxy::fit(&w, &l);
        let mut online = OnlineProxy::new(base, 0.3);
        for _ in 0..8 {
            for (wi, &li) in w.iter().zip(&l) {
                online.observe(wi, (0.5 * li).min(1.0));
            }
        }
        let (_, gain) = online.correction();
        assert!(gain < 0.8, "gain should shrink toward 0.5, got {gain}");
    }

    #[test]
    fn predictions_stay_in_unit_interval() {
        let (w, l) = synthetic(32);
        let base = InterferenceProxy::fit(&w, &l);
        let mut online = OnlineProxy::new(base, 1.0);
        for (wi, _) in w.iter().zip(&l) {
            online.observe(wi, 1.0);
        }
        for wi in &w {
            let p = online.predict(wi);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn zero_alpha_panics() {
        let (w, l) = synthetic(8);
        let _ = OnlineProxy::new(InterferenceProxy::fit(&w, &l), 0.0);
    }
}
