//! Batch-vs-stepped equivalence, streaming determinism and per-step
//! invariants for the resumable [`Driver`].
//!
//! `simulate()` is a driver run to exhaustion, so stepping a driver one
//! event at a time must produce a *bit-identical* `ServingReport` on the
//! same inputs — for every policy family — and open-loop
//! `inject`/`set_policy` sequences must be deterministic. The runtime's
//! bookkeeping invariants are checked after every step of both.

use veltair_compiler::{compile_model, CompiledModel, CompilerOptions};
use veltair_sched::runtime::Driver;
use veltair_sched::{
    simulate, Policy, QuerySpec, ServingReport, SimConfig, SimError, WorkloadSpec,
};
use veltair_sim::{MachineConfig, SimTime};

fn machine() -> MachineConfig {
    MachineConfig::threadripper_3990x()
}

fn compiled_pair() -> Vec<CompiledModel> {
    let machine = machine();
    let opts = CompilerOptions::fast();
    vec![
        compile_model(&veltair_models::mobilenet_v2(), &machine, &opts),
        compile_model(&veltair_models::tiny_yolo_v2(), &machine, &opts),
    ]
}

/// Checks the runtime's bookkeeping ([`Driver::check_invariants`]), and
/// that the clock never runs backwards from `last_now`, which it then
/// advances.
fn check_invariants(driver: &Driver<'_>, last_now: &mut SimTime) {
    if let Err(rule) = driver.check_invariants() {
        panic!("at {}: {rule}", driver.now().0);
    }
    let now = driver.now();
    assert!(now >= *last_now, "the clock ran backwards");
    *last_now = now;
}

/// [`Driver::run_until`], checking the invariants after every step.
fn run_until_checked(driver: &mut Driver<'_>, t: SimTime, last_now: &mut SimTime) {
    while driver
        .state()
        .events
        .peek_time()
        .is_some_and(|next| next <= t)
    {
        driver.step();
        check_invariants(driver, last_now);
    }
    driver.run_until(t).expect("finite target");
    check_invariants(driver, last_now);
}

/// [`Driver::run_to_completion`], checking the invariants after every
/// step. Returns the number of events processed.
fn run_to_completion_checked(driver: &mut Driver<'_>, last_now: &mut SimTime) -> u64 {
    let mut steps = 0;
    while driver.step().is_some() {
        steps += 1;
        check_invariants(driver, last_now);
    }
    steps
}

/// All nine evaluated policies: the extended comparison set plus the
/// model-FCFS and fixed-block baselines.
fn all_nine() -> Vec<Policy> {
    let mut policies = Policy::extended_set().to_vec();
    policies.push(Policy::ModelFcfs);
    policies.push(Policy::FixedBlock(6));
    policies
}

#[test]
fn stepped_driver_is_bit_identical_to_batch_simulate() {
    let models = compiled_pair();
    let queries =
        WorkloadSpec::mix(&[("mobilenet_v2", 120.0), ("tiny_yolo_v2", 40.0)], 80).generate(42);
    for policy in all_nine() {
        let cfg = SimConfig::new(machine(), policy);
        let batch = simulate(&models, &queries, &cfg).expect("valid workload");

        let mut driver = Driver::new(&models, &queries, cfg.clone()).expect("valid workload");
        let mut last_now = SimTime::ZERO;
        let steps = run_to_completion_checked(&mut driver, &mut last_now);
        let (stepped, _trace) = driver.finish();

        assert!(steps > 0, "{}: driver processed no events", policy.name());
        assert_eq!(
            batch,
            stepped,
            "{}: stepped driver diverged from batch simulate",
            policy.name()
        );
    }
}

#[test]
fn preloaded_and_injected_arrivals_are_equivalent() {
    let models = compiled_pair();
    let queries = WorkloadSpec::single("mobilenet_v2", 150.0, 50).generate(7);
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);

    let mut preloaded = Driver::new(&models, &queries, cfg.clone()).expect("valid");
    preloaded.run_to_completion();

    let mut streamed = Driver::open(&models, cfg).expect("valid profiles");
    for q in &queries {
        streamed.inject(q).expect("registered model");
    }
    streamed.run_to_completion();

    assert_eq!(preloaded.finish().0, streamed.finish().0);
}

#[test]
fn run_until_pauses_and_resumes_without_losing_queries() {
    let models = compiled_pair();
    let queries =
        WorkloadSpec::mix(&[("mobilenet_v2", 200.0), ("tiny_yolo_v2", 60.0)], 60).generate(3);
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);
    let batch = simulate(&models, &queries, &cfg).expect("valid workload");

    let mut driver = Driver::new(&models, &queries, cfg).expect("valid");
    // Pause at several wall-clock points; snapshots must be monotone in
    // completed queries and never exceed the final count.
    let mut last_completed = 0;
    for t in [0.05, 0.1, 0.2, 0.4] {
        driver.run_until(SimTime(t)).expect("finite target");
        assert!(driver.now() >= SimTime(t));
        let snap = driver.snapshot();
        let completed = snap.total_queries();
        assert!(completed >= last_completed, "completions went backwards");
        assert!(completed <= 60);
        let sat = snap.overall_satisfaction();
        assert!(
            (0.0..=1.0).contains(&sat),
            "satisfaction {sat} out of range"
        );
        assert!(
            snap.avg_cores <= 64.0 + 1e-9,
            "mid-run avg_cores {} exceeds the machine",
            snap.avg_cores
        );
        last_completed = completed;
    }
    driver.run_to_completion();
    let (report, _) = driver.finish();
    assert_eq!(report.total_queries(), batch.total_queries());
    // Pausing splits time advancement into extra sub-intervals, which can
    // perturb floating-point accumulation in the last ulp; the scheduling
    // outcome itself must not drift.
    assert_eq!(
        report.per_model.keys().collect::<Vec<_>>(),
        batch.per_model.keys().collect::<Vec<_>>()
    );
    for (name, stats) in &report.per_model {
        assert_eq!(stats.queries, batch.per_model[name].queries, "{name}");
    }
}

/// A scripted open-loop session: bursts injected while the clock runs and
/// the policy hot-swapped twice mid-stream, with the invariants checked
/// after every step and every swap.
fn scripted_session(models: &[CompiledModel]) -> ServingReport {
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);
    let mut driver = Driver::open(models, cfg).expect("valid profiles");
    let mut last_now = SimTime::ZERO;
    let burst =
        WorkloadSpec::mix(&[("mobilenet_v2", 300.0), ("tiny_yolo_v2", 100.0)], 30).generate(11);
    for q in &burst {
        driver.inject(q).expect("registered");
    }
    run_until_checked(&mut driver, SimTime(0.04), &mut last_now);
    driver.set_policy(Policy::Prema);
    check_invariants(&driver, &mut last_now);
    // A second burst, shifted into the session's present.
    for q in &burst {
        driver
            .inject(&QuerySpec {
                model: q.model.clone(),
                arrival: driver.now().after(q.arrival.0),
            })
            .expect("registered");
    }
    run_until_checked(&mut driver, SimTime(0.12), &mut last_now);
    driver.set_policy(Policy::VeltairAs);
    check_invariants(&driver, &mut last_now);
    // Late stragglers with arrivals already in the past: clamped to now.
    for _ in 0..5 {
        driver
            .inject(&QuerySpec {
                model: "tiny_yolo_v2".into(),
                arrival: SimTime::ZERO,
            })
            .expect("registered");
    }
    run_to_completion_checked(&mut driver, &mut last_now);
    driver.finish().0
}

#[test]
fn mid_run_inject_and_set_policy_are_deterministic() {
    let models = compiled_pair();
    let a = scripted_session(&models);
    let b = scripted_session(&models);
    assert_eq!(a, b, "scripted session is not reproducible");

    // Report invariants survive the churn.
    assert_eq!(a.total_queries(), 30 + 30 + 5);
    let sat = a.overall_satisfaction();
    assert!((0.0..=1.0).contains(&sat));
    for stats in a.per_model.values() {
        assert!(stats.satisfied <= stats.queries);
        assert_eq!(stats.latencies_s.len(), stats.queries);
        assert!(stats.latency_max_s >= stats.avg_latency_s());
        assert!(stats.p99_latency_s() >= stats.p95_latency_s());
        assert!(stats.latency_max_s >= stats.p99_latency_s());
    }
}

#[test]
fn set_policy_between_steps_changes_the_discipline() {
    let models = compiled_pair();
    let queries = WorkloadSpec::single("mobilenet_v2", 500.0, 40).generate(9);
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);

    let mut swapped = Driver::new(&models, &queries, cfg.clone()).expect("valid");
    swapped.run_until(SimTime(0.02)).expect("finite target");
    swapped.set_policy(Policy::Prema);
    assert_eq!(swapped.policy(), Policy::Prema);
    swapped.run_to_completion();
    let (swapped, _) = swapped.finish();

    let unswapped = simulate(&models, &queries, &cfg).expect("valid workload");
    assert_eq!(swapped.total_queries(), unswapped.total_queries());
    assert_ne!(
        swapped, unswapped,
        "a mid-run swap to PREMA should alter the outcome under overload"
    );
}

/// A fixed block as large as `usize` allows plans continuations too:
/// swapped in once queries are mid-model, each block runs to the end of
/// its model instead of overflowing past it.
#[test]
fn a_maximal_fixed_block_plans_continuations() {
    let machine = machine();
    let models = [compile_model(
        &veltair_models::resnet50(),
        &machine,
        &CompilerOptions::fast(),
    )];
    let queries = WorkloadSpec::single("resnet50", 400.0, 30).generate(5);
    let cfg = SimConfig::new(machine, Policy::Planaria);
    let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
    let mut last_now = SimTime::ZERO;
    for _ in 0..200 {
        driver.step();
        check_invariants(&driver, &mut last_now);
    }
    assert!(
        driver
            .state()
            .continuations
            .iter()
            .any(|p| driver.state().queries[p.query].next_unit > 0),
        "no query waits mid-model at the swap"
    );
    driver.set_policy(Policy::FixedBlock(usize::MAX));
    check_invariants(&driver, &mut last_now);
    run_to_completion_checked(&mut driver, &mut last_now);
    assert_eq!(driver.finish().0.total_queries(), queries.len());
}

#[test]
fn driver_construction_reports_typed_errors() {
    let models = compiled_pair();
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);

    let unknown = WorkloadSpec::single("resnet50", 10.0, 5).generate(1);
    match Driver::new(&models, &unknown, cfg.clone()) {
        Err(SimError::UnknownModel { model }) => assert_eq!(model, "resnet50"),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    assert!(matches!(
        Driver::new(&models, &[], cfg.clone()),
        Err(SimError::EmptyWorkload)
    ));
    assert!(matches!(
        simulate(&models, &[], &cfg),
        Err(SimError::EmptyWorkload)
    ));
    assert_eq!(
        simulate(&models, &unknown, &cfg),
        Err(SimError::UnknownModel {
            model: "resnet50".into()
        })
    );

    // Injection into a live driver is validated the same way.
    let mut driver = Driver::open(&models, cfg.clone()).expect("valid profiles");
    assert!(matches!(
        driver.inject(&QuerySpec {
            model: "bert_large".into(),
            arrival: SimTime::ZERO,
        }),
        Err(SimError::UnknownModel { .. })
    ));

    // A machine, projection weight or selector that cannot be simulated
    // is rejected up front: no panic deep in the event loop, no silent
    // empty run (zero cores would complete nothing yet report full
    // satisfaction), and no run on other parameters (an alpha of 5 would
    // be clamped to 1).
    let queries = WorkloadSpec::single("mobilenet_v2", 20.0, 20).generate(1);
    type Edit = fn(&mut SimConfig);
    let broken: [(&str, Edit); 12] = [
        ("NaN L3", |c| c.machine.l3_bytes = f64::NAN),
        ("zero DRAM bandwidth", |c| c.machine.dram_bw = 0.0),
        ("negative clock", |c| c.machine.freq_ghz = -1.0),
        ("NaN dispatch overhead", |c| {
            c.machine.dispatch_overhead_s = f64::NAN;
        }),
        ("zero cores", |c| c.machine.cores = 0),
        ("NaN weight", |c| c.projection.saturation_weight = f64::NAN),
        ("weight 2", |c| c.projection.saturation_weight = 2.0),
        ("weight -1", |c| c.projection.saturation_weight = -1.0),
        ("infinite weight", |c| {
            c.projection.saturation_weight = f64::INFINITY;
        }),
        ("alpha 5", |c| c.selector.alpha = 5.0),
        ("NaN hysteresis", |c| c.selector.hysteresis = f64::NAN),
        ("negative hysteresis", |c| c.selector.hysteresis = -0.1),
    ];
    for (case, edit) in broken {
        let mut bad = cfg.clone();
        edit(&mut bad);
        let invalid = |r: Result<(), SimError>| matches!(r, Err(SimError::InvalidConfig { .. }));
        assert!(
            invalid(simulate(&models, &queries, &bad).map(drop)),
            "{case}: simulate"
        );
        assert!(
            invalid(Driver::new(&models, &queries, bad.clone()).map(drop)),
            "{case}: Driver::new"
        );
        assert!(
            invalid(Driver::open(&models, bad).map(drop)),
            "{case}: Driver::open"
        );
    }
    let mut zero_cores = cfg.clone();
    zero_cores.machine.cores = 0;
    assert_eq!(
        simulate(&models, &queries, &zero_cores),
        Err(SimError::InvalidConfig {
            reason: "machine: a machine needs at least one core".into()
        })
    );
    let mut unsmoothable = cfg;
    unsmoothable.selector.alpha = 5.0;
    assert_eq!(
        simulate(&models, &queries, &unsmoothable),
        Err(SimError::InvalidConfig {
            reason: "selector: EWMA alpha must be finite and in (0, 1], got 5".into()
        })
    );
}

#[test]
fn run_until_rejects_non_finite_targets_before_any_event() {
    let models = compiled_pair();
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);
    let queries = WorkloadSpec::single("mobilenet_v2", 100.0, 20).generate(5);
    let late = QuerySpec {
        model: "tiny_yolo_v2".into(),
        arrival: SimTime(0.5),
    };
    let run = |bad: Option<f64>| {
        let mut driver = Driver::new(&models, &queries, cfg.clone()).expect("valid workload");
        driver.run_until(SimTime(0.05)).expect("finite target");
        if let Some(bad) = bad {
            let now = driver.now();
            match driver.run_until(SimTime(bad)) {
                Err(SimError::NonFiniteTarget { target_s }) => {
                    assert_eq!(target_s.to_bits(), bad.to_bits());
                }
                other => panic!("{bad}: expected NonFiniteTarget, got {other:?}"),
            }
            assert_eq!(driver.now(), now, "{bad}: the clock moved");
        }
        // An infinite target left the clock at +inf, and a NaN one
        // panicked comparing it: this inject and the steps after it
        // must still run.
        driver.inject(&late).expect("registered model");
        driver.run_to_completion();
        driver.finish().0
    };
    let reference = run(None);
    for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(
            run(Some(bad)),
            reference,
            "{bad}: a rejected target changed the run"
        );
    }
}

/// The pair with one version of tiny_yolo_v2's third layer corrupted:
/// NaN FLOPs. Nothing rates that version until a query reaches the layer
/// under a plan that picks it, so only an up-front check catches it.
fn pair_with_nan_flops() -> Vec<CompiledModel> {
    let mut models = compiled_pair();
    let layer = &mut models[1].layers[2];
    let version = layer.versions.len() - 1;
    layer.versions[version].profile.flops = f64::NAN;
    models
}

#[test]
fn invalid_kernel_profiles_are_typed_errors_at_construction() {
    let models = pair_with_nan_flops();
    let version = models[1].layers[2].versions.len() - 1;
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);
    // The corrupt model never even receives a query: profiles are
    // checked when the simulation is built, not when first rated.
    let queries = WorkloadSpec::single("mobilenet_v2", 20.0, 5).generate(3);
    let expected = SimError::InvalidProfile {
        model: "tiny_yolo_v2".into(),
        layer: 2,
        version,
        reason: "kernel profile fields must be finite and non-negative".into(),
    };

    assert_eq!(
        Driver::new(&models, &queries, cfg.clone()).err(),
        Some(expected.clone())
    );
    assert_eq!(
        Driver::open(&models, cfg.clone()).err(),
        Some(expected.clone())
    );
    assert_eq!(simulate(&models, &queries, &cfg), Err(expected.clone()));
    assert_eq!(
        expected.to_string(),
        format!(
            "model tiny_yolo_v2, layer 2, version {version}: invalid kernel profile: \
             kernel profile fields must be finite and non-negative"
        )
    );
}

#[test]
fn open_driver_reports_an_invalid_profile_at_construction() {
    let models = pair_with_nan_flops();
    assert!(matches!(
        Driver::open(&models, SimConfig::new(machine(), Policy::VeltairFull)),
        Err(SimError::InvalidProfile { ref model, layer: 2, .. }) if model == "tiny_yolo_v2"
    ));
}
