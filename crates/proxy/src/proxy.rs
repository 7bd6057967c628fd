//! The end product: a linear interference-pressure predictor over the two
//! L3 counters (miss rate and access rate), as selected by PCA in §4.3.

use veltair_sim::PerfCounters;

use crate::linreg::LinearModel;

/// Rate-normalized counter features observed over a monitoring window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterWindow {
    /// L3 miss rate (misses / accesses) over the window, in `[0, 1]`.
    pub miss_rate: f64,
    /// L3 access *rate* in bytes-equivalent per second.
    pub access_rate: f64,
    /// Aggregate instructions per cycle over the window.
    pub ipc: f64,
    /// Floating-point operation rate per second.
    pub flop_rate: f64,
}

impl CounterWindow {
    /// Derives window features from accumulated counters and the window
    /// length in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_s` is not positive.
    #[must_use]
    pub fn from_counters(counters: &PerfCounters, window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must have positive length");
        Self {
            miss_rate: counters.l3_miss_rate(),
            access_rate: counters.l3_accesses * 64.0 / window_s,
            ipc: counters.ipc(),
            flop_rate: counters.flops / window_s,
        }
    }

    /// The full 4-feature vector (PCA candidate set of Fig. 11a), in the
    /// fixed order `[miss_rate, access_rate, ipc, flop_rate]`.
    #[must_use]
    pub fn feature_vector(&self) -> [f64; 4] {
        [self.miss_rate, self.access_rate, self.ipc, self.flop_rate]
    }
}

/// Scale applied to the access-rate feature before regression so both
/// features are O(1) (bytes/s are ~1e10).
const ACCESS_RATE_SCALE: f64 = 1.0e-10;

/// A fitted linear interference proxy (miss rate + access rate -> pressure
/// level in `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceProxy {
    model: LinearModel,
    /// Training R² (Fig. 11b's fit quality).
    pub r2: f64,
}

impl InterferenceProxy {
    /// The proxy's feature vector: the two L3 counters as *rates* —
    /// misses/s (bytes-equivalent, i.e. the DRAM insertion stream) and
    /// accesses/s (the reuse stream). Hardware PMUs deliver event counts,
    /// so both are directly measurable per window.
    fn features(w: &CounterWindow) -> [f64; 2] {
        [
            w.miss_rate * w.access_rate * ACCESS_RATE_SCALE,
            w.access_rate * ACCESS_RATE_SCALE,
        ]
    }

    /// Fits the proxy on observed windows and their measured pressure
    /// levels (average co-runner slowdown, the paper's definition).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or lengths mismatch.
    #[must_use]
    pub fn fit(windows: &[CounterWindow], levels: &[f64]) -> Self {
        assert!(!windows.is_empty(), "cannot fit proxy without data");
        assert_eq!(
            windows.len(),
            levels.len(),
            "windows/levels length mismatch"
        );
        let xs: Vec<Vec<f64>> = windows.iter().map(|w| Self::features(w).to_vec()).collect();
        let model = LinearModel::fit(&xs, levels);
        let r2 = model.r2;
        Self { model, r2 }
    }

    /// Predicts the interference pressure level for a window, clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn predict(&self, w: &CounterWindow) -> f64 {
        self.model.predict(&Self::features(w)).clamp(0.0, 1.0)
    }

    /// A degenerate proxy that always reports zero pressure — the
    /// interference-oblivious baseline configuration.
    #[must_use]
    pub fn oblivious() -> Self {
        Self {
            model: LinearModel {
                weights: vec![0.0, 0.0],
                intercept: 0.0,
                r2: 1.0,
            },
            r2: 1.0,
        }
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
            // Pressure raises the miss rate and the refetch stream.
            let jitter = ((i * 37) % 11) as f64 / 110.0 - 0.05;
            windows.push(CounterWindow {
                miss_rate: (0.1 + 0.7 * level + 0.03 * jitter).clamp(0.0, 1.0),
                access_rate: 1.0e9 + 3.0e10 * level * (1.0 + 0.05 * jitter),
                ipc: 2.0 - 1.2 * level,
                flop_rate: 8.0e11,
            });
            levels.push(level);
        }
        (windows, levels)
    }

    #[test]
    fn fit_and_predict_round_trip() {
        let (w, l) = synthetic(64);
        let proxy = InterferenceProxy::fit(&w, &l);
        assert!(proxy.r2 > 0.95, "r2 = {}", proxy.r2);
        for (wi, li) in w.iter().zip(&l) {
            assert!((proxy.predict(wi) - li).abs() < 0.1);
        }
    }

    #[test]
    fn predictions_are_clamped() {
        let (w, l) = synthetic(16);
        let proxy = InterferenceProxy::fit(&w, &l);
        let extreme = CounterWindow {
            miss_rate: 5.0,
            access_rate: 1.0e13,
            ipc: 0.0,
            flop_rate: 0.0,
        };
        let p = proxy.predict(&extreme);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn oblivious_proxy_reports_zero() {
        let proxy = InterferenceProxy::oblivious();
        let (w, _) = synthetic(4);
        assert_eq!(proxy.predict(&w[3]), 0.0);
    }

    #[test]
    fn window_features_from_counters() {
        let c = PerfCounters {
            l3_accesses: 1.0e6,
            l3_misses: 2.5e5,
            instructions: 4.0e6,
            cycles: 2.0e6,
            flops: 1.0e9,
        };
        let w = CounterWindow::from_counters(&c, 0.01);
        assert!((w.miss_rate - 0.25).abs() < 1e-12);
        assert!((w.access_rate - 1.0e6 * 64.0 / 0.01).abs() < 1.0);
        assert!((w.ipc - 2.0).abs() < 1e-12);
        assert!((w.flop_rate - 1.0e11).abs() < 1.0);
    }
}
