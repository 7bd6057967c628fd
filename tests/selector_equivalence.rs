//! Version-selector pins: the calibrated `HysteresisLadder` is the
//! runtime's one selector and runs at its calibrated parameters by
//! default, and its parameters change adaptive runs while non-adaptive
//! policies never consult it.

use veltair::prelude::*;

fn compiled_mix() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    ["mobilenet_v2", "tiny_yolo_v2"]
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
        .collect()
}

#[test]
fn calibrated_hysteresis_ladder_is_the_default() {
    // The promotion pin: an engine or sim config that names no selector
    // parameters runs the calibrated `HysteresisLadder` (planning on the
    // projected pressure) — bit-identical to asking for it explicitly.
    let machine = MachineConfig::threadripper_3990x();
    assert_eq!(
        SimConfig::new(machine.clone(), Policy::VeltairAc).selector,
        HysteresisConfig::default()
    );
    let models = compiled_mix();
    let queries = WorkloadSpec::single("mobilenet_v2", 200.0, 60).generate(7);
    for policy in [Policy::VeltairAc, Policy::VeltairFull, Policy::Planaria] {
        let implicit =
            veltair::sched::simulate(&models, &queries, &SimConfig::new(machine.clone(), policy))
                .expect("valid workload");
        let explicit = veltair::sched::simulate(
            &models,
            &queries,
            &SimConfig::new(machine.clone(), policy).with_selector(HysteresisConfig::default()),
        )
        .expect("valid workload");
        assert_eq!(implicit, explicit, "{}", policy.name());
    }
}

#[test]
fn hysteresis_ladder_changes_adaptive_runs_but_not_static_ones() {
    let models = compiled_mix();
    let machine = MachineConfig::threadripper_3990x();
    // Heavy enough that monitored pressure moves around; the ladder's
    // parameters must actually move an adaptive-compilation run: raw
    // re-selection at every decision (no smoothing, no hysteresis) is
    // not the calibrated ladder...
    let queries = WorkloadSpec::mix(&[("mobilenet_v2", 2.0), ("tiny_yolo_v2", 1.0)], 100)
        .scaled_to(350.0)
        .generate(17);
    let raw = HysteresisConfig::try_new(1.0, 0.0).expect("valid parameters");
    let run = |policy: Policy, selector: HysteresisConfig| {
        veltair::sched::simulate(
            &models,
            &queries,
            &SimConfig::new(machine.clone(), policy).with_selector(selector),
        )
        .expect("valid workload")
    };
    assert_ne!(
        run(Policy::VeltairAc, HysteresisConfig::default()),
        run(Policy::VeltairAc, raw),
        "the ladder's parameters were a no-op on an overloaded adaptive run"
    );
    // ...while a non-adaptive policy must ignore the selector entirely.
    for policy in [Policy::VeltairAs, Policy::Planaria, Policy::Prema] {
        assert_eq!(
            run(policy, HysteresisConfig::default()),
            run(policy, raw),
            "{} consulted the selector",
            policy.name()
        );
    }
}
