//! Seeded property pins for the predictive pressure monitor
//! (`veltair_sched::runtime::monitor`) and the `Driver::pressure` signal.
//!
//! The projection is a pure function of the planning instant, so these
//! invariants must hold at *every* step of a run, for every seed.

use std::sync::OnceLock;

use veltair::prelude::*;
use veltair::sched::Policy;

fn compiled(names: &[&str]) -> Vec<CompiledModel> {
    static CACHE: OnceLock<Vec<CompiledModel>> = OnceLock::new();
    let all = CACHE.get_or_init(|| {
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast();
        ["mobilenet_v2", "tiny_yolo_v2"]
            .iter()
            .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
            .collect()
    });
    all.iter()
        .filter(|m| names.contains(&m.name.as_str()))
        .cloned()
        .collect()
}

/// Walk an overloaded single-machine run step by step, checking the
/// projection's order properties at every planning-relevant instant:
/// the projected level never falls below the instantaneous one, and an
/// overloaded run must produce instants where it sits strictly above.
#[test]
fn projected_reading_dominates_instantaneous_under_backlog() {
    let models = compiled(&["mobilenet_v2", "tiny_yolo_v2"]);
    for seed in [3u64, 17, 42] {
        let queries = WorkloadSpec::mix(&[("mobilenet_v2", 2.0), ("tiny_yolo_v2", 1.0)], 120)
            .scaled_to(300.0)
            .generate(seed);
        let cfg = SimConfig::new(MachineConfig::threadripper_3990x(), Policy::VeltairAc);
        let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
        let mut strictly_above = 0usize;
        loop {
            let view = driver.state().projected();
            let (pair, level) = driver.state().monitored();
            assert_eq!(view.pair, pair, "seed {seed}: raw pair not passed through");
            assert_eq!(
                view.level, level,
                "seed {seed}: raw level not passed through"
            );
            assert!(
                view.projected_level >= view.level,
                "seed {seed}: projection fell below the instantaneous level \
                 ({} < {})",
                view.projected_level,
                view.level
            );
            assert!(view.projected_level <= 1.0);
            if view.projected_level > view.level {
                strictly_above += 1;
            }
            if driver.step().is_none() {
                break;
            }
        }
        assert!(
            strictly_above > 0,
            "seed {seed}: an overloaded run never lifted the projection \
             above the instantaneous reading"
        );
    }
}

/// On an idle machine — before the first arrival and after the last
/// completion — there is no backlog and no monitored occupancy, so the
/// projection *is* the instantaneous (zero) reading.
#[test]
fn projection_decays_to_instantaneous_on_an_idle_machine() {
    let models = compiled(&["mobilenet_v2"]);
    let queries = WorkloadSpec::single("mobilenet_v2", 50.0, 40).generate(7);
    let cfg = SimConfig::new(MachineConfig::threadripper_3990x(), Policy::VeltairAc);
    let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");

    let before = driver.state().projected();
    assert_eq!(before, PressureView::ZERO, "projection on an empty machine");

    driver.run_to_completion();
    let after = driver.state().projected();
    assert_eq!(
        after.projected_level, after.level,
        "drained machine still projects a lift"
    );
    assert_eq!(driver.pressure(), 0.0, "drained machine reports pressure");
}

/// The temporal-policy fallback of `Driver::pressure` is queue-depth
/// aware: q/(q+1) over outstanding queries — 0 when idle, 1/2 with a
/// single tenant, asymptotically 1 as the wait queue deepens — rather
/// than the old occupancy proxy, which reported *full machine* (1.0)
/// the moment any single query ran and nothing about the queue behind
/// it.
#[test]
fn temporal_pressure_tracks_queue_depth_not_occupancy() {
    let models = compiled(&["mobilenet_v2"]);
    let cfg = |m: &MachineConfig| SimConfig::new(m.clone(), Policy::Prema);
    let machine = MachineConfig::threadripper_3990x();

    // Drive a deep backlog and watch the signal follow q/(q+1) exactly —
    // including q = 0 before the first arrival (no pressure while idle).
    let queries = WorkloadSpec::single("mobilenet_v2", 3000.0, 60).generate(9);
    let mut driver = Driver::new(&models, &queries, cfg(&machine)).expect("valid workload");
    assert_eq!(
        driver.pressure(),
        0.0,
        "idle temporal machine reports pressure"
    );
    let mut saw_deep_queue = false;
    let mut saw_lone_tenant = false;
    loop {
        // q is the *in-system* count: queued entries plus in-flight
        // blocks. `outstanding()` would be wrong here — it counts the
        // whole pregenerated trace, including arrivals still in the
        // future.
        let state = driver.state();
        let q = (state.continuations.len()
            + state.arrivals.len()
            + state.running.iter().filter(|r| r.active).count()) as f64;
        let expect = q / (q + 1.0);
        assert!(
            (driver.pressure() - expect).abs() < 1e-12,
            "temporal pressure {} diverged from q/(q+1) at q = {q}",
            driver.pressure()
        );
        if q == 1.0 {
            saw_lone_tenant = true;
            assert!((driver.pressure() - 0.5).abs() < 1e-12);
            // The old occupancy fallback reported the whole machine
            // (1.0) here — a lone tenant was indistinguishable from a
            // forty-deep backlog. The depth-aware signal separates them.
        }
        if q >= 10.0 {
            saw_deep_queue = true;
            assert!(
                driver.pressure() > 0.9,
                "deep queue (q = {q}) under-reported: {}",
                driver.pressure()
            );
        }
        if driver.step().is_none() {
            break;
        }
    }
    assert!(
        saw_lone_tenant,
        "run never held exactly one in-system query"
    );
    assert!(saw_deep_queue, "overload never built a 10-deep queue");
    assert_eq!(
        driver.pressure(),
        0.0,
        "drained temporal machine reports pressure"
    );
}
