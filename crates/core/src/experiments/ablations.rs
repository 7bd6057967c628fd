//! Ablation studies beyond the paper's figures. Each one swaps out a
//! design choice the figures take for granted and measures what it is
//! worth: the dynamic threshold (vs fixed values), the counter proxy (vs
//! an oracle and vs interference-oblivious), the extended prior-work
//! comparison (AI-MT and Parties ports of Table 1), and the §5.1
//! platform sensitivity (SMT / DVFS re-enabled).

use veltair_proxy::InterferenceProxy;
use veltair_sched::{simulate, Policy, SimConfig, WorkloadSpec};
use veltair_sim::MachineConfig;

use super::ExpContext;
use crate::dataset::train_proxy;

/// Ablation data.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// (fixed block size k, satisfaction, conflict rate) vs the dynamic
    /// threshold row (k = 0 denotes dynamic).
    pub threshold_sweep: Vec<(usize, f64, f64)>,
    /// (monitor label, satisfaction, avg latency ms) for oracle / trained
    /// proxy / oblivious monitors under VELTAIR-FULL.
    pub monitor_ablation: Vec<(String, f64, f64)>,
    /// (policy, satisfaction, avg latency ms) across the extended
    /// baseline set on a mixed workload.
    pub extended_baselines: Vec<(String, f64, f64)>,
    /// (platform label, satisfaction, avg latency ms) for the §5.1
    /// sensitivity study: baseline vs SMT-on vs DVFS-on machines under
    /// VELTAIR-FULL.
    pub platform_sensitivity: Vec<(String, f64, f64)>,
}

/// Arrival rate used by both ablations (stresses ResNet-50 without
/// saturating the machine).
const QPS: f64 = 250.0;

/// Runs the ablation suite.
#[must_use]
pub fn run(ctx: &ExpContext) -> Ablations {
    let budget = ctx.query_budget();
    let workload = WorkloadSpec::single("resnet50", QPS, budget);
    let compiled = vec![ctx.model("resnet50")];
    let queries = workload.generate(0xAB1A);

    // --- Fixed block sizes vs the dynamic threshold --------------------
    let mut threshold_sweep = Vec::new();
    for k in [1usize, 3, 6, 11, 22, 56] {
        let cfg = SimConfig::new(ctx.machine.clone(), Policy::FixedBlock(k));
        let r = simulate(&compiled, &queries, &cfg).expect("valid workload");
        threshold_sweep.push((k, r.overall_satisfaction(), r.conflict_rate()));
    }
    let dynamic = simulate(
        &compiled,
        &queries,
        &SimConfig::new(ctx.machine.clone(), Policy::VeltairAs),
    )
    .expect("valid workload");
    threshold_sweep.push((0, dynamic.overall_satisfaction(), dynamic.conflict_rate()));

    // --- Interference-monitor ablation under adaptive compilation -------
    let trained = train_proxy(&compiled, &ctx.machine, 384, 0xAB1B);
    let monitors: Vec<(String, Option<InterferenceProxy>)> = vec![
        ("oracle".into(), None),
        ("trained-proxy".into(), Some(trained)),
        ("oblivious".into(), Some(InterferenceProxy::oblivious())),
    ];
    let mut monitor_ablation = Vec::new();
    for (label, proxy) in monitors {
        let mut cfg = SimConfig::new(ctx.machine.clone(), Policy::VeltairFull);
        if let Some(p) = proxy {
            cfg = cfg.with_proxy(p);
        }
        let r = simulate(&compiled, &queries, &cfg).expect("valid workload");
        monitor_ablation.push((
            label,
            r.overall_satisfaction(),
            r.overall_avg_latency_s() * 1e3,
        ));
    }

    // --- Extended prior-work comparison (Table 1 ports) -----------------
    let mix_models = vec![
        ctx.model("resnet50"),
        ctx.model("mobilenet_v2"),
        ctx.model("tiny_yolo_v2"),
    ];
    let mix = WorkloadSpec::mix(
        &[
            ("resnet50", 1.0 / 15.0),
            ("mobilenet_v2", 1.0 / 10.0),
            ("tiny_yolo_v2", 1.0 / 10.0),
        ],
        budget,
    )
    .generate(0xAB1C);
    let mut extended_baselines = Vec::new();
    for policy in Policy::extended_set() {
        let cfg = SimConfig::new(ctx.machine.clone(), policy);
        let r = simulate(&mix_models, &mix, &cfg).expect("valid workload");
        extended_baselines.push((
            policy.name(),
            r.overall_satisfaction(),
            r.overall_avg_latency_s() * 1e3,
        ));
    }

    // --- Platform sensitivity (§5.1: SMT and DVFS disabled on the paper's
    // testbed; re-enable each and measure the damage) ---------------------
    let platforms: Vec<(String, MachineConfig)> = vec![
        ("baseline".into(), ctx.machine.clone()),
        ("smt-on".into(), ctx.machine.clone().with_smt()),
        ("dvfs-on".into(), ctx.machine.clone().with_dvfs(0.2)),
    ];
    let mut platform_sensitivity = Vec::new();
    for (label, machine) in platforms {
        // Recompile against the altered machine so the lookup tables match.
        let spec = veltair_models::by_name("resnet50").expect("zoo model");
        let compiled = vec![veltair_compiler::compile_model(&spec, &machine, &ctx.opts)];
        let cfg = SimConfig::new(machine, Policy::VeltairFull);
        let r = simulate(&compiled, &queries, &cfg).expect("valid workload");
        platform_sensitivity.push((
            label,
            r.overall_satisfaction(),
            r.overall_avg_latency_s() * 1e3,
        ));
    }

    Ablations {
        threshold_sweep,
        monitor_ablation,
        extended_baselines,
        platform_sensitivity,
    }
}

impl std::fmt::Display for Ablations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Ablation A: block size sweep at {QPS} QPS (k = 0 is the dynamic threshold)"
        )?;
        for (k, sat, conf) in &self.threshold_sweep {
            let label = if *k == 0 {
                "dynamic".to_string()
            } else {
                format!("fixed({k})")
            };
            writeln!(
                f,
                "  {label:<10} satisfaction {:>5.1}%  conflicts {:>5.1}%",
                sat * 100.0,
                conf * 100.0
            )?;
        }
        writeln!(f, "Ablation B: interference monitor under VELTAIR-FULL")?;
        for (label, sat, lat) in &self.monitor_ablation {
            writeln!(
                f,
                "  {label:<14} satisfaction {:>5.1}%  latency {:>7.2} ms",
                sat * 100.0,
                lat
            )?;
        }
        writeln!(
            f,
            "Ablation C: extended prior-work comparison (mixed workload)"
        )?;
        for (label, sat, lat) in &self.extended_baselines {
            writeln!(
                f,
                "  {label:<14} satisfaction {:>5.1}%  latency {:>7.2} ms",
                sat * 100.0,
                lat
            )?;
        }
        writeln!(
            f,
            "Ablation D: platform sensitivity (SMT / DVFS re-enabled, §5.1)"
        )?;
        for (label, sat, lat) in &self.platform_sensitivity {
            writeln!(
                f,
                "  {label:<14} satisfaction {:>5.1}%  latency {:>7.2} ms",
                sat * 100.0,
                lat
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trained_proxy_tracks_oracle_closely() {
        let ctx = ExpContext::new();
        let a = run(&ctx);
        let get = |label: &str| {
            a.monitor_ablation
                .iter()
                .find(|(l, ..)| l == label)
                .cloned()
                .unwrap()
        };
        let (_, oracle_sat, _) = get("oracle");
        let (_, proxy_sat, _) = get("trained-proxy");
        // The trained proxy should land near the oracle's satisfaction.
        assert!(
            (oracle_sat - proxy_sat).abs() < 0.15,
            "oracle {oracle_sat} vs proxy {proxy_sat}"
        );
    }

    #[test]
    fn full_tops_the_extended_baseline_comparison() {
        let ctx = ExpContext::new();
        let a = run(&ctx);
        let full = a
            .extended_baselines
            .iter()
            .find(|(l, ..)| l == "Veltair-FULL")
            .map(|(_, s, _)| *s)
            .unwrap();
        for (label, sat, _) in &a.extended_baselines {
            assert!(
                full >= sat - 0.05,
                "{label} ({sat:.2}) beat Veltair-FULL ({full:.2}) by more than noise"
            );
        }
        assert_eq!(a.extended_baselines.len(), 7);
    }

    #[test]
    fn platform_sensitivity_rows_are_complete() {
        let ctx = ExpContext::new();
        let a = run(&ctx);
        assert_eq!(a.platform_sensitivity.len(), 3);
        // Every platform still serves; satisfaction stays a probability.
        for (label, sat, lat) in &a.platform_sensitivity {
            assert!((0.0..=1.0).contains(sat), "{label} sat {sat}");
            assert!(*lat > 0.0, "{label} latency {lat}");
        }
    }

    #[test]
    fn dynamic_threshold_is_competitive_with_best_fixed() {
        let ctx = ExpContext::new();
        let a = run(&ctx);
        let dynamic = a.threshold_sweep.iter().find(|(k, ..)| *k == 0).unwrap().1;
        let best_fixed = a
            .threshold_sweep
            .iter()
            .filter(|(k, ..)| *k != 0)
            .map(|(_, s, _)| *s)
            .fold(0.0, f64::max);
        assert!(
            dynamic >= best_fixed - 0.1,
            "dynamic {dynamic} far below best fixed {best_fixed}"
        );
    }
}
