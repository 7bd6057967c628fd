//! Co-location episode generation for proxy training and the Fig. 11
//! counter study.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_compiler::CompiledModel;
use veltair_proxy::{CounterWindow, InterferenceProxy};
use veltair_sim::{execute, Interference, MachineConfig, PerfCounters, PressureDemand};

/// Generates `(counter window, measured pressure level)` pairs from random
/// co-location episodes.
///
/// Each episode samples 1-6 concurrent layer executions across the
/// registered models (random layer, version, and a core allocation near its
/// requirement), computes the pressure every unit exerts, and records
/// exactly what the runtime monitor would see: the rate-aggregated counters
/// of all running units, labelled with the pressure a newly arriving tenant
/// would experience (the oracle the proxy has to approximate).
///
/// # Panics
///
/// Panics if `models` is empty or has no layers.
#[must_use]
pub fn co_location_dataset(
    models: &[CompiledModel],
    machine: &MachineConfig,
    episodes: usize,
    seed: u64,
) -> (Vec<CounterWindow>, Vec<f64>) {
    assert!(
        !models.is_empty(),
        "dataset needs at least one compiled model"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut windows = Vec::with_capacity(episodes);
    let mut levels = Vec::with_capacity(episodes);

    for _ in 0..episodes {
        let k = rng.gen_range(1..=6usize);
        // Sample k running units.
        let mut picks = Vec::with_capacity(k);
        for _ in 0..k {
            let m = &models[rng.gen_range(0..models.len())];
            let l = &m.layers[rng.gen_range(0..m.layers.len())];
            let v = rng.gen_range(0..l.versions.len());
            let req = l.core_requirement(v, 0.0).max(1);
            let cores = rng
                .gen_range(1..=req.saturating_mul(2).min(machine.cores))
                .max(1);
            picks.push((l.versions[v].profile, cores));
        }
        // First pass: solo demands.
        let solo: Vec<PressureDemand> = picks
            .iter()
            .map(|(p, c)| execute(p, *c, Interference::NONE, machine).demand)
            .collect();
        // Second pass: each unit under the others' pressure; aggregate the
        // monitor's view.
        let mut counters = PerfCounters::default();
        let mut demands = Vec::with_capacity(k);
        for (i, (p, c)) in picks.iter().enumerate() {
            let others = solo
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, d)| d);
            let interference = Interference::from_corunners(others, machine);
            let exec = execute(p, *c, interference, machine);
            counters.accumulate_rates(&exec.counters, exec.latency_s);
            demands.push(exec.demand);
        }
        let level = Interference::from_corunners(demands.iter(), machine).scalar();
        windows.push(CounterWindow::from_counters(&counters, 1.0));
        levels.push(level);
    }
    (windows, levels)
}

/// Trains the linear interference proxy on generated co-location episodes.
#[must_use]
pub fn train_proxy(
    models: &[CompiledModel],
    machine: &MachineConfig,
    episodes: usize,
    seed: u64,
) -> InterferenceProxy {
    let (windows, levels) = co_location_dataset(models, machine, episodes, seed);
    InterferenceProxy::fit(&windows, &levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};

    fn models() -> (Vec<CompiledModel>, MachineConfig) {
        let machine = MachineConfig::threadripper_3990x();
        let m = vec![
            compile_model(
                &veltair_models::mobilenet_v2(),
                &machine,
                &CompilerOptions::fast(),
            ),
            compile_model(
                &veltair_models::tiny_yolo_v2(),
                &machine,
                &CompilerOptions::fast(),
            ),
        ];
        (m, machine)
    }

    #[test]
    fn dataset_has_varied_levels() {
        let (m, machine) = models();
        let (windows, levels) = co_location_dataset(&m, &machine, 256, 3);
        assert_eq!(windows.len(), 256);
        let lo = levels.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = levels.iter().copied().fold(0.0, f64::max);
        assert!(lo < 0.3, "min level {lo}");
        assert!(hi > 0.5, "max level {hi}");
        assert!(levels.iter().all(|l| (0.0..=1.0).contains(l)));
    }

    #[test]
    fn trained_proxy_tracks_pressure() {
        // Fig. 11b: the linear L3-counter proxy predicts the pressure well.
        let (m, machine) = models();
        let proxy = train_proxy(&m, &machine, 384, 5);
        assert!(proxy.r2 > 0.6, "training r2 = {}", proxy.r2);
        // Validate on held-out episodes.
        let (windows, levels) = co_location_dataset(&m, &machine, 128, 99);
        let mae: f64 = windows
            .iter()
            .zip(&levels)
            .map(|(w, l)| (proxy.predict(w) - l).abs())
            .sum::<f64>()
            / windows.len() as f64;
        assert!(mae < 0.15, "held-out MAE {mae}");
    }

    #[test]
    fn dataset_is_deterministic() {
        let (m, machine) = models();
        let a = co_location_dataset(&m, &machine, 32, 11);
        let b = co_location_dataset(&m, &machine, 32, 11);
        assert_eq!(a.0.len(), b.0.len());
        assert!(a.1.iter().zip(&b.1).all(|(x, y)| x == y));
    }
}
