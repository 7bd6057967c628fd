//! The predictive-monitor calibration sweep: measures seed-averaged QoS
//! satisfaction on the four-model overload mix (the `policy_ordering`
//! recipe) for a range of projection saturation weights, alongside the
//! Planaria / AS / FULL anchors.
//!
//! This is the harness that chose `ProjectionConfig::default()` — rerun
//! it after changing the machine model, the compiler's version retention,
//! or the selector, and re-pin the measured table in
//! `tests/policy_ordering.rs` and `CHANGES.md`.
//!
//! ```sh
//! cargo run --release --example projection_sweep
//! ```

use veltair::prelude::*;

const NAMES: [&str; 4] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];
const SEEDS: [u64; 3] = [3, 17, 42];

fn engine(policy: Policy) -> ServingEngine {
    let machine = MachineConfig::threadripper_3990x();
    let mut e = ServingEngine::new(machine.clone(), policy);
    for n in NAMES {
        e.register(compile_model(
            &by_name(n).expect("zoo model"),
            &machine,
            &CompilerOptions::fast(),
        ));
    }
    e
}

fn overload_mix() -> WorkloadSpec {
    let specs: Vec<ModelSpec> = NAMES.iter().map(|n| by_name(n).unwrap()).collect();
    let streams: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect();
    WorkloadSpec::mix(&streams, 300).scaled_to(200.0)
}

fn seed_averaged(e: &ServingEngine, workload: &WorkloadSpec) -> f64 {
    SEEDS
        .iter()
        .map(|&s| e.run(workload, s).overall_satisfaction())
        .sum::<f64>()
        / SEEDS.len() as f64
}

fn main() {
    let workload = overload_mix();

    println!("anchors (seed-averaged over {SEEDS:?}):");
    for policy in [Policy::Planaria, Policy::VeltairAs, Policy::VeltairFull] {
        let sat = seed_averaged(&engine(policy), &workload);
        println!("  {:<12} {:.3}", policy.name(), sat);
    }

    let mut ac = engine(Policy::VeltairAc);
    println!("\nAC, hysteresis ladder x projection weight:");
    for weight in [0.0, 0.65, 0.68, 0.71, 0.74, 0.8, 0.88, 1.0] {
        ac.set_projection(ProjectionConfig::try_new(weight).expect("valid weight"));
        let sat = seed_averaged(&ac, &workload);
        println!("  weight {weight:<4} -> {sat:.3}");
    }
}
