//! The redesign's bit-identity pin: with the opt-in
//! `SelectorKind::PressureLadder` (the default until the calibrated
//! `HysteresisLadder` was promoted), the selector-based runtime
//! reproduces the pre-redesign `simulate()` output bit for bit across
//! all nine policies.
//!
//! The reference is a `VersionSelector` that replays the *pre-redesign
//! inline logic verbatim* — the free function `plan_block` used to call
//! inline, `veltair_compiler::selector::select_for_pressure` — injected
//! through `Driver::set_selector`. If the replay path changed a single float
//! operation (including anything the predictive projection touches: the
//! ladder reads the raw snapshot, never the projected one), these
//! reports diverge.

use veltair::prelude::*;

/// All nine policies of the evaluation (Table 1 + §3.2 granularities).
const POLICIES: [Policy; 9] = [
    Policy::ModelFcfs,
    Policy::Planaria,
    Policy::Prema,
    Policy::AiMt,
    Policy::Parties,
    Policy::FixedBlock(6),
    Policy::VeltairAs,
    Policy::VeltairAc,
    Policy::VeltairFull,
];

/// Replays the pre-redesign version choice: the exact free function
/// `plan_block` used to call inline, with the exact arguments it used to
/// pass. (For non-adaptive policies the runtime never consults
/// the selector — also exactly as before, when the static branch was
/// inlined.)
#[derive(Debug)]
struct LegacyInline;

impl VersionSelector for LegacyInline {
    fn name(&self) -> &'static str {
        "legacy-inline"
    }

    fn select(
        &mut self,
        model: &CompiledModel,
        ctx: &SelectionContext,
        machine: &MachineConfig,
    ) -> Vec<usize> {
        veltair::compiler::selector::select_for_pressure(
            model,
            ctx.pressure,
            ctx.expected_cores,
            machine,
        )
    }
}

fn compiled_mix() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    ["mobilenet_v2", "tiny_yolo_v2"]
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
        .collect()
}

#[test]
fn pressure_ladder_reproduces_pre_redesign_output_across_all_policies() {
    let models = compiled_mix();
    // Past the knee, so adaptive compilation actually switches versions
    // (light load would make the pin vacuous: every selector picks the
    // solo version at zero pressure).
    let queries = WorkloadSpec::mix(&[("mobilenet_v2", 2.0), ("tiny_yolo_v2", 1.0)], 80)
        .scaled_to(250.0)
        .generate(42);
    for policy in POLICIES {
        let cfg = SimConfig::new(MachineConfig::threadripper_3990x(), policy)
            .with_selector(SelectorKind::PressureLadder);
        let ladder_report = veltair::sched::simulate(&models, &queries, &cfg);

        let mut driver = Driver::new(&models, &queries, cfg.clone()).expect("valid workload");
        driver.set_selector(Box::new(LegacyInline));
        driver.run_to_completion();
        let (legacy_report, _) = driver.finish();

        assert_eq!(
            ladder_report,
            legacy_report,
            "{}: the opt-in PressureLadder diverged from the pre-redesign inline logic",
            policy.name()
        );
    }
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
            veltair::sched::simulate(&models, &queries, &SimConfig::new(machine.clone(), policy));
        let explicit = veltair::sched::simulate(
            &models,
            &queries,
            &SimConfig::new(machine.clone(), policy)
                .with_selector(SelectorKind::Hysteresis(HysteresisConfig::default())),
        );
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
    );
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
    let mut driver = Driver::with_dispatcher(
        &models,
        &queries,
        cfg,
        veltair::sched::runtime::for_policy(Policy::VeltairAc),
    )
    .expect("valid workload");
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
    // ladder must actually alter an adaptive-compilation run...
    let queries = WorkloadSpec::mix(&[("mobilenet_v2", 2.0), ("tiny_yolo_v2", 1.0)], 100)
        .scaled_to(350.0)
        .generate(17);
    let hysteresis = SelectorKind::Hysteresis(HysteresisConfig::default());
    let ac_replay = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAc)
            .with_selector(SelectorKind::PressureLadder),
    );
    let ac_smoothed = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAc).with_selector(hysteresis),
    );
    assert_ne!(
        ac_replay, ac_smoothed,
        "hysteresis ladder was a no-op on an overloaded adaptive run"
    );
    // ...while a non-adaptive policy must ignore the selector entirely.
    let as_default = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine.clone(), Policy::VeltairAs),
    );
    let as_smoothed = veltair::sched::simulate(
        &models,
        &queries,
        &SimConfig::new(machine, Policy::VeltairAs).with_selector(hysteresis),
    );
    assert_eq!(
        as_default, as_smoothed,
        "a non-adaptive policy consulted the selector"
    );
}
