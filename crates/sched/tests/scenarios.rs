//! Scenario-level scheduler tests: PREMA preemption, allocation traces,
//! and granularity-specific dispatch behaviour.

use veltair_compiler::{compile_model, CompilerOptions};
use veltair_sched::runtime::Driver;
use veltair_sched::{simulate, Policy, QuerySpec, SimConfig, WorkloadSpec};
use veltair_sim::{MachineConfig, SimTime};

fn machine() -> MachineConfig {
    MachineConfig::threadripper_3990x()
}

fn compiled(names: &[&str]) -> Vec<veltair_compiler::CompiledModel> {
    let m = machine();
    names
        .iter()
        .map(|n| {
            compile_model(
                &veltair_models::by_name(n).expect("zoo"),
                &m,
                &CompilerOptions::fast(),
            )
        })
        .collect()
}

#[test]
fn prema_preempts_long_jobs_for_tight_deadlines() {
    // A heavy BERT query arrives first; a tight-QoS YOLO query lands just
    // after. Under PREMA's priority tokens the YOLO query must not wait
    // for the whole BERT inference (which takes ~100 ms).
    let models = compiled(&["bert_large", "tiny_yolo_v2"]);
    let queries = vec![
        QuerySpec {
            model: "bert_large".into(),
            arrival: SimTime(0.0),
        },
        QuerySpec {
            model: "tiny_yolo_v2".into(),
            arrival: SimTime(0.002),
        },
    ];
    let report = simulate(&models, &queries, &SimConfig::new(machine(), Policy::Prema))
        .expect("valid workload");
    let yolo_latency = report.avg_latency_s("tiny_yolo_v2");
    let bert_solo = models[0].flat_latency_s(64, 0.0, &machine());
    assert!(
        yolo_latency < bert_solo,
        "YOLO waited out the whole BERT run: {yolo_latency}s vs bert {bert_solo}s"
    );
    assert!(
        report.preemptions > 0,
        "PREMA must have preempted BERT for YOLO"
    );
}

#[test]
fn allocation_trace_is_recorded_and_bounded() {
    let models = compiled(&["mobilenet_v2"]);
    let queries = WorkloadSpec::single("mobilenet_v2", 100.0, 60).generate(3);
    let mut cfg = SimConfig::new(machine(), Policy::VeltairAs);
    cfg.record_alloc_trace = true;
    let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
    driver.run_to_completion();
    let (report, trace) = driver.finish();
    assert!(!trace.is_empty());
    assert!(trace.iter().all(|&(t, c)| t >= 0.0 && c <= 64));
    let peak_in_trace = trace.iter().map(|&(_, c)| c).max().unwrap();
    assert_eq!(peak_in_trace, report.peak_cores);
    // Time is non-decreasing along the trace.
    assert!(trace.windows(2).all(|w| w[1].0 >= w[0].0));
}

#[test]
fn model_fcfs_blocks_head_of_line() {
    // Two simultaneous heavy queries at model granularity: the machine
    // cannot host both full allocations, so FCFS serializes partially and
    // registers the conflict.
    let models = compiled(&["ssd_resnet34"]);
    let queries = vec![
        QuerySpec {
            model: "ssd_resnet34".into(),
            arrival: SimTime(0.0),
        },
        QuerySpec {
            model: "ssd_resnet34".into(),
            arrival: SimTime(1e-5),
        },
        QuerySpec {
            model: "ssd_resnet34".into(),
            arrival: SimTime(2e-5),
        },
    ];
    let report = simulate(
        &models,
        &queries,
        &SimConfig::new(machine(), Policy::ModelFcfs),
    )
    .expect("valid workload");
    assert_eq!(report.total_queries(), 3);
    // The machine fits two 26-core allocations but not three: the trailing
    // query must wait out roughly one full inference before starting.
    assert!(report.conflicts > 0, "third allocation must conflict");
    let stats = &report.per_model["ssd_resnet34"];
    let cores = models[0].model_core_requirement(0.0);
    let solo = models[0].flat_latency_s(cores, 0.0, &machine());
    assert!(
        stats.latency_max_s > 1.7 * solo,
        "tail latency {} vs solo {} — head-of-line wait missing",
        stats.latency_max_s,
        solo
    );
}

#[test]
fn fixed_block_sizes_change_dispatch_counts() {
    let models = compiled(&["resnet50"]);
    let queries = WorkloadSpec::single("resnet50", 50.0, 40).generate(2);
    let d = |k: usize| {
        simulate(
            &models,
            &queries,
            &SimConfig::new(machine(), Policy::FixedBlock(k)),
        )
        .expect("valid workload")
        .dispatches
    };
    let fine = d(1);
    let mid = d(6);
    let coarse = d(56);
    assert!(
        fine > mid && mid > coarse,
        "dispatches {fine} / {mid} / {coarse}"
    );
    // Block(1) is layer-wise: one dispatch per unit.
    assert_eq!(fine, 40 * models[0].layers.len() as u64);
}

#[test]
fn adaptive_compilation_uses_multiple_versions_at_runtime() {
    // Serve under heavy co-location and verify AC actually runs layers on
    // non-default versions (indirectly: its behaviour differs from AS).
    let models = compiled(&["resnet50"]);
    let queries = WorkloadSpec::single("resnet50", 350.0, 120).generate(11);
    let r_as = simulate(
        &models,
        &queries,
        &SimConfig::new(machine(), Policy::VeltairAs),
    )
    .expect("valid workload");
    let r_ac = simulate(
        &models,
        &queries,
        &SimConfig::new(machine(), Policy::VeltairAc),
    )
    .expect("valid workload");
    assert_ne!(
        r_as, r_ac,
        "AC must behave differently from AS under pressure"
    );
}

#[test]
fn inject_held_charges_hold_time_against_latency() {
    // A query held above the node (e.g. by fleet admission deferral) and
    // injected with its original arrival in the past must be charged the
    // hold: latency runs from the submitted arrival, not from injection.
    let models = compiled(&["mobilenet_v2"]);
    let cfg = SimConfig::new(machine(), Policy::VeltairFull);
    let spec = QuerySpec {
        model: "mobilenet_v2".into(),
        arrival: SimTime(0.0),
    };

    let mut held = Driver::open(&models, cfg.clone()).expect("valid profiles");
    held.run_until(SimTime(0.5)).expect("finite target");
    held.inject_held(&spec).expect("registered model");
    held.run_to_completion();
    let (held_report, _) = held.finish();

    let mut clamped = Driver::open(&models, cfg).expect("valid profiles");
    clamped.run_until(SimTime(0.5)).expect("finite target");
    clamped.inject(&spec).expect("registered model");
    clamped.run_to_completion();
    let (clamped_report, _) = clamped.finish();

    let held_lat = held_report.avg_latency_s("mobilenet_v2");
    let clamped_lat = clamped_report.avg_latency_s("mobilenet_v2");
    assert!(
        held_lat >= 0.5,
        "hold time missing from latency: {held_lat}"
    );
    assert!(
        (held_lat - (0.5 + clamped_lat)).abs() < 1e-9,
        "held latency {held_lat} should be the hold plus the service time {clamped_lat}"
    );
}
