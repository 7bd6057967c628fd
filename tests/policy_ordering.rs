//! Cross-policy behavioural orderings that the paper's evaluation depends
//! on (Fig. 12 / Fig. 13 directions, granularity study of §3.2).

use veltair::prelude::*;

fn engine(policy: Policy, names: &[&str]) -> ServingEngine {
    let machine = MachineConfig::threadripper_3990x();
    let mut e = ServingEngine::new(machine.clone(), policy);
    for n in names {
        e.register(compile_model(
            &by_name(n).expect("zoo model"),
            &machine,
            &CompilerOptions::fast(),
        ));
    }
    e
}

fn search_cfg() -> QpsSearchConfig {
    QpsSearchConfig {
        satisfaction_target: 0.95,
        queries: 150,
        seed: 17,
        iterations: 5,
    }
}

#[test]
fn veltair_full_sustains_at_least_planaria_qps() {
    let workload = WorkloadSpec::single("mobilenet_v2", 10.0, 150);
    let planaria = max_qps_at_qos(
        &engine(Policy::Planaria, &["mobilenet_v2"]),
        &workload,
        &search_cfg(),
    );
    let full = max_qps_at_qos(
        &engine(Policy::VeltairFull, &["mobilenet_v2"]),
        &workload,
        &search_cfg(),
    );
    assert!(
        full.qps >= planaria.qps * 0.9,
        "FULL {} far below Planaria {}",
        full.qps,
        planaria.qps
    );
}

#[test]
fn spatial_beats_temporal_sharing_on_a_mix() {
    // Fig. 12: PREMA (temporal) generally performs worst. Temporal
    // multiplexing serializes the machine, so on the paper's medium mix
    // (ResNet-50 + GoogLeNet, §5.1) it pays the whole-machine fork-join
    // barrier per layer and leaves cores idle that spatial co-location
    // puts to work.
    let names = ["resnet50", "googlenet"];
    let workload = WorkloadSpec::mix(&[("resnet50", 1.0), ("googlenet", 1.0)], 150);
    let prema = max_qps_at_qos(&engine(Policy::Prema, &names), &workload, &search_cfg());
    let full = max_qps_at_qos(
        &engine(Policy::VeltairFull, &names),
        &workload,
        &search_cfg(),
    );
    assert!(
        full.qps >= prema.qps,
        "FULL {} < PREMA {}",
        full.qps,
        prema.qps
    );
}

#[test]
fn full_latency_ordering_matches_fig13() {
    // Fig. 13's direction: with adaptive compilation the average query
    // latency under pressure is lower than adaptive scheduling alone
    // (paper: FULL 1.1x vs AS 1.6x of isolated), and at the capacity
    // point the average stays within the QoS envelope.
    let workload = WorkloadSpec::single("resnet50", 140.0, 150);
    let e_full = engine(Policy::VeltairFull, &["resnet50"]);
    let e_as = engine(Policy::VeltairAs, &["resnet50"]);
    // Per-seed differences are arrival noise; compare seed-averaged means.
    let mean = |e: &ServingEngine| {
        [17u64, 5, 99]
            .iter()
            .map(|&s| e.run(&workload, s).overall_avg_latency_s())
            .sum::<f64>()
            / 3.0
    };
    let full_lat = mean(&e_full);
    let as_lat = mean(&e_as);
    assert!(
        full_lat <= as_lat * 1.05,
        "FULL latency {:.1}ms above AS {:.1}ms under pressure",
        full_lat * 1e3,
        as_lat * 1e3
    );

    let e = engine(Policy::VeltairFull, &["mobilenet_v2"]);
    let probe = WorkloadSpec::single("mobilenet_v2", 10.0, 150);
    let result = max_qps_at_qos(&e, &probe, &search_cfg());
    let qos = e.models()[0].qos_s;
    assert!(
        result.avg_latency_s <= qos * 1.2,
        "mean latency {:.1}ms far beyond QoS {:.1}ms at the capacity point",
        result.avg_latency_s * 1e3,
        qos * 1e3
    );
}

#[test]
fn adaptive_granularity_outlasts_static_granularities() {
    // §3.2 / Fig. 3a: as load approaches capacity, the static
    // granularities (whole model, single layer, fixed blocks) lose QoS
    // satisfaction well before the adaptive layer-block scheduling does.
    let workload = WorkloadSpec::single("resnet50", 160.0, 150);
    let sat = |policy| {
        engine(policy, &["resnet50"])
            .run(&workload, 17)
            .overall_satisfaction()
    };
    let adaptive = sat(Policy::VeltairAs);
    for static_policy in [Policy::ModelFcfs, Policy::Planaria, Policy::FixedBlock(6)] {
        let s = sat(static_policy);
        assert!(
            adaptive >= s + 0.15,
            "{} sat {s:.2} too close to adaptive {adaptive:.2}",
            static_policy.name()
        );
    }
}

/// Seed-averaged overall satisfaction of `policy` on the paper's
/// inverse-QoS four-model mix at an overloaded aggregate rate, under the
/// engine's default selector (the calibrated `HysteresisLadder` planning
/// on the projected pressure).
fn overload_mix_satisfaction(policy: Policy) -> f64 {
    let names = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];
    let e = engine(policy, &names);
    let specs: Vec<ModelSpec> = names.iter().map(|n| by_name(n).unwrap()).collect();
    let streams: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect();
    // 200 QPS aggregate is past the single-machine capacity point for
    // this mix: every policy misses deadlines, which is exactly where
    // Fig. 12's policy separation shows.
    let workload = WorkloadSpec::mix(&streams, 300).scaled_to(200.0);
    [3u64, 17, 42]
        .iter()
        .map(|&s| e.run(&workload, s).overall_satisfaction())
        .sum::<f64>()
        / 3.0
}

/// The shared baselines are each ~12 compile+simulate units and are
/// consumed by several tests in this file; computing them once keeps the
/// (already slow, 1-CPU) tier-1 gate from paying for them per test.
static PLANARIA_SAT: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
static AS_SAT: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
static AC_DEFAULT_SAT: std::sync::OnceLock<f64> = std::sync::OnceLock::new();

fn planaria_overload_sat() -> f64 {
    *PLANARIA_SAT.get_or_init(|| overload_mix_satisfaction(Policy::Planaria))
}
fn adaptive_sched_overload_sat() -> f64 {
    *AS_SAT.get_or_init(|| overload_mix_satisfaction(Policy::VeltairAs))
}
/// AC under the engine default: `HysteresisLadder` planning on the
/// projected pressure (`ProjectionConfig::default`).
fn ac_default_overload_sat() -> f64 {
    *AC_DEFAULT_SAT.get_or_init(|| overload_mix_satisfaction(Policy::VeltairAc))
}

#[test]
fn overload_mix_pins_full_as_ac_planaria_ordering() {
    // Fig. 12's direction on the mixed workload at overload: adaptive
    // scheduling + compilation (FULL) leads, adaptive scheduling alone
    // (AS) follows, adaptive compilation alone (AC) is next, and
    // layer-wise Planaria trails. This is the regression pin for the
    // seed-averaged ordering under the default (calibrated, predictive)
    // selector. All four runs are deterministic for the fixed seeds, so
    // the thin AS-over-AC margin (0.821 vs 0.814 measured) is a stable
    // pin, not a flaky one.
    let full = overload_mix_satisfaction(Policy::VeltairFull);
    let adaptive_sched = adaptive_sched_overload_sat();
    let ac = ac_default_overload_sat();
    let planaria = planaria_overload_sat();
    assert!(
        full > adaptive_sched,
        "FULL {full:.3} did not beat AS {adaptive_sched:.3}"
    );
    assert!(
        adaptive_sched > ac,
        "AS {adaptive_sched:.3} did not beat AC {ac:.3}"
    );
    assert!(
        ac > planaria,
        "AC {ac:.3} did not beat Planaria {planaria:.3}"
    );
}

#[test]
fn veltair_ac_should_sit_well_clear_of_planaria() {
    // Formerly an #[ignore]d ROADMAP open item: under the old default
    // (raw re-ranking at every decision) Veltair-AC landed at 0.681
    // against a 0.723 target. The predictive monitor closed it: the default
    // selector now plans on the projected pressure and Veltair-AC sits
    // at 0.814 (seed-averaged, release, fast-compile) — at least halfway
    // from Planaria (0.626) up to AS (0.821). Enforced blocking in CI
    // (the calibration-watch job).
    let adaptive_sched = adaptive_sched_overload_sat();
    let ac = ac_default_overload_sat();
    let planaria = planaria_overload_sat();
    assert!(
        ac >= (planaria + adaptive_sched) / 2.0,
        "AC {ac:.3} still lands near Planaria {planaria:.3} (AS at {adaptive_sched:.3})"
    );
}

#[test]
fn hysteresis_ladder_closes_the_ac_calibration_gap() {
    // The AC calibration, after the predictive-monitor fix: EWMA
    // smoothing (alpha = 0.25), one-bin switch hysteresis, planning on
    // the projected pressure (saturation weight 0.71).
    //
    // Measured on this mix (seed-averaged, release, fast-compile), from
    // the sweep that chose the defaults (examples/projection_sweep.rs):
    //
    //   Planaria                      0.626
    //   AC, raw re-ranking (before)   0.681   (the documented monitor lag)
    //   target midpoint               0.723
    //   AC, default HysteresisLadder  0.814   <- this test's subject
    //   AS                            0.821
    //   FULL                          0.920
    //
    // The decisive ingredient used to be a 2.5x anticipatory gain
    // multiplying the lagging snapshot (mean level ~0.32 at overload
    // while versions ranked for 0.55-0.7 serve best). The projection
    // replaced it at the source: it lifts the snapshot toward the *mix
    // ceiling* — the pressure the monitor would read with the machine
    // packed to capacity from the tenants actually in the system — by a
    // fraction weight * sqrt(demand / cores). The sweep's usable window
    // is 0.66-0.76 (0.810-0.827); weights >= ~0.8 push AC past AS and
    // break this file's Fig. 12 ordering pin, and the ceiling (not the
    // weight) is what keeps light mixes from being compiled for
    // contention their tenants cannot produce.
    let adaptive_sched = adaptive_sched_overload_sat();
    let planaria = planaria_overload_sat();
    let ac_tuned = ac_default_overload_sat();
    assert!(
        ac_tuned >= (planaria + adaptive_sched) / 2.0,
        "tuned AC {ac_tuned:.3} below the calibration target \
         (Planaria {planaria:.3}, AS {adaptive_sched:.3})"
    );
    // The tuned point must still respect the paper's ordering: between
    // the static baseline and adaptive scheduling, not above AS.
    assert!(
        ac_tuned < adaptive_sched,
        "tuned AC {ac_tuned:.3} overtook AS {adaptive_sched:.3} — recheck the ordering pins"
    );
}

#[test]
fn per_layer_envelope_is_heterogeneous_under_pressure() {
    // §3.2 / Fig. 4b: under co-location pressure the per-layer core
    // requirements spread far apart — some layers become conflict-prone
    // (demanding well over the flat model allocation), which is what the
    // pivot rule of Algorithm 2 exists to absorb.
    let e = engine(Policy::VeltairAs, &["resnet50"]);
    let m = &e.models()[0];
    let level = 0.5;
    let flat = m.model_core_requirement(level);
    let per_layer: Vec<u32> = m
        .layers
        .iter()
        .map(|l| l.core_requirement(l.version_for(level, flat), level))
        .collect();
    let above = per_layer.iter().filter(|&&p| p > flat).count();
    let max = per_layer.iter().max().copied().unwrap_or(0);
    assert!(above > 0, "no conflict-prone layer under pressure");
    assert!(
        max >= flat.saturating_mul(2),
        "peak layer demand {max} not far above the flat allocation {flat}"
    );
}

#[test]
fn dynamic_blocks_reduce_conflicts_vs_layer_wise_under_load() {
    // §3.2 / Fig. 5a: layer-wise scheduling suffers the most conflicts;
    // dynamic blocks smooth them out.
    let workload = WorkloadSpec::single("resnet50", 400.0, 200);
    let layer = engine(Policy::Planaria, &["resnet50"]).run(&workload, 21);
    let blocks = engine(Policy::VeltairAs, &["resnet50"]).run(&workload, 21);
    assert!(
        blocks.conflict_rate() <= layer.conflict_rate() + 0.02,
        "dynamic blocks conflicted more: {} vs {}",
        blocks.conflict_rate(),
        layer.conflict_rate()
    );
}
