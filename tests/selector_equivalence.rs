//! Version-selector pins: the calibrated `HysteresisLadder` is the
//! default selector, a solo-pinned `StaticLevel` turns adaptive
//! compilation into static code, and the ladder changes adaptive runs
//! while non-adaptive policies never consult a selector.

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
    // runs the calibrated `HysteresisLadder` (planning on the projected
    // pressure) — bit-identical to asking for it explicitly.
    assert_eq!(
        SelectorKind::default(),
        SelectorKind::Hysteresis(HysteresisConfig::default())
    );
    let models = compiled_mix();
    let queries = WorkloadSpec::single("mobilenet_v2", 200.0, 60).generate(7);
    let machine = MachineConfig::threadripper_3990x();
    for policy in [Policy::VeltairAc, Policy::VeltairFull, Policy::Planaria] {
        let implicit =
            veltair::sched::simulate(&models, &queries, &SimConfig::new(machine.clone(), policy))
                .expect("valid workload");
        let explicit = veltair::sched::simulate(
            &models,
            &queries,
            &SimConfig::new(machine.clone(), policy)
                .with_selector(SelectorKind::Hysteresis(HysteresisConfig::default())),
        )
        .expect("valid workload");
        assert_eq!(implicit, explicit, "{}", policy.name());
    }
}

#[test]
fn static_level_selector_pins_adaptive_compilation_to_static_code() {
    // VeltairAc with a solo-pinned StaticLevel selector must equal
    // Planaria-style static code on the same layer-wise discipline: the
    // selector is the *only* thing that distinguishes AC's compilation
    // from the static baseline.
    let models = compiled_mix();
    let queries = WorkloadSpec::single("mobilenet_v2", 300.0, 60).generate(3);
    let machine = MachineConfig::threadripper_3990x();
    let pinned = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAc)
            .with_selector(SelectorKind::StaticLevel { level: 0.0 }),
    )
    .expect("valid workload");
    // A driver whose selector always answers with the solo versions.
    #[derive(Debug)]
    struct Solo;
    impl VersionSelector for Solo {
        fn name(&self) -> &'static str {
            "solo"
        }
        fn select(
            &mut self,
            model: &CompiledModel,
            _ctx: &SelectionContext,
            _machine: &MachineConfig,
        ) -> Vec<usize> {
            veltair::compiler::selector::solo_versions(model)
        }
    }
    let cfg = SimConfig::new(machine, Policy::VeltairAc);
    let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
    driver.set_selector(Box::new(Solo));
    driver.run_to_completion();
    let (solo_report, _) = driver.finish();
    assert_eq!(pinned, solo_report);
}

#[test]
fn hysteresis_ladder_changes_adaptive_runs_but_not_static_ones() {
    let models = compiled_mix();
    let machine = MachineConfig::threadripper_3990x();
    // Heavy enough that monitored pressure moves around; the hysteresis
    // ladder must actually move an adaptive-compilation run off the
    // solo-pinned static code...
    let queries = WorkloadSpec::mix(&[("mobilenet_v2", 2.0), ("tiny_yolo_v2", 1.0)], 100)
        .scaled_to(350.0)
        .generate(17);
    let hysteresis = SelectorKind::Hysteresis(HysteresisConfig::default());
    let ac_static = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAc)
            .with_selector(SelectorKind::StaticLevel { level: 0.0 }),
    )
    .expect("valid workload");
    let ac_smoothed = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAc).with_selector(hysteresis),
    )
    .expect("valid workload");
    assert_ne!(
        ac_static, ac_smoothed,
        "hysteresis ladder was a no-op on an overloaded adaptive run"
    );
    // ...while a non-adaptive policy must ignore the selector entirely.
    let as_default = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAs),
    )
    .expect("valid workload");
    let as_smoothed = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine, Policy::VeltairAs).with_selector(hysteresis),
    )
    .expect("valid workload");
    assert_eq!(
        as_default, as_smoothed,
        "a non-adaptive policy consulted the selector"
    );
}
