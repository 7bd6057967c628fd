//! End-to-end integration: the full pipeline from model zoo through
//! compilation, proxy training, and multi-tenant serving.

use veltair::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::threadripper_3990x()
}

fn compile(names: &[&str]) -> Vec<CompiledModel> {
    let m = machine();
    names
        .iter()
        .map(|n| {
            compile_model(
                &by_name(n).expect("zoo model"),
                &m,
                &CompilerOptions::fast(),
            )
        })
        .collect()
}

#[test]
fn full_pipeline_serves_a_mixed_workload() {
    let compiled = compile(&["mobilenet_v2", "tiny_yolo_v2"]);
    let proxy = train_proxy(&compiled, &machine(), 256, 1);
    assert!(proxy.r2 > 0.5, "proxy r2 {}", proxy.r2);

    let mut engine = ServingEngine::new(machine(), Policy::VeltairFull);
    for m in compiled {
        engine.register(m);
    }
    engine.set_proxy(proxy);

    let workload = WorkloadSpec::mix(&[("mobilenet_v2", 60.0), ("tiny_yolo_v2", 40.0)], 200);
    let report = engine.run(&workload, 9);
    assert_eq!(report.total_queries(), 200);
    assert!(
        report.overall_satisfaction() > 0.9,
        "satisfaction {}",
        report.overall_satisfaction()
    );
    assert!(report.per_model.contains_key("mobilenet_v2"));
    assert!(report.per_model.contains_key("tiny_yolo_v2"));
    // No query can beat its isolated latency.
    for m in engine.models() {
        let iso = m.flat_latency_s(machine().cores, 0.0, &machine());
        assert!(
            report.avg_latency_s(&m.name) >= iso * 0.99,
            "{} faster than isolated",
            m.name
        );
    }
}

#[test]
fn every_zoo_model_compiles_and_serves() {
    let m = machine();
    for spec in all_models() {
        let name = spec.graph.name.clone();
        let compiled = compile_model(&spec, &m, &CompilerOptions::fast());
        assert!(!compiled.layers.is_empty(), "{name} has no units");
        assert!(compiled.model_core_requirement(0.0) <= m.cores);

        // Serve a short stream near its solo throughput.
        let solo = compiled.flat_latency_s(m.cores, 0.0, &m);
        let qps = (0.2 / solo).clamp(1.0, 200.0);
        let mut engine = ServingEngine::new(m.clone(), Policy::VeltairFull);
        engine.register(compiled);
        let report = engine.run(&WorkloadSpec::single(&name, qps, 30), 4);
        assert_eq!(report.total_queries(), 30, "{name} lost queries");
        assert!(
            report.qos_satisfaction(&name) > 0.5,
            "{name} satisfaction {} at {qps:.1} qps",
            report.qos_satisfaction(&name)
        );
    }
}

#[test]
fn adaptive_compilation_switches_versions_under_pressure() {
    let compiled = compile(&["resnet50"]);
    let model = &compiled[0];
    let multi: Vec<_> = model
        .layers
        .iter()
        .filter(|l| l.versions.len() > 1)
        .collect();
    assert!(
        !multi.is_empty(),
        "ResNet-50 must have multi-version layers"
    );
    let mut switched = 0;
    for l in &multi {
        if l.version_for_level(0.0) != l.version_for_level(0.95) {
            switched += 1;
        }
    }
    assert!(switched > 0, "no layer switches versions under pressure");
}

#[test]
fn session_lifecycle_through_the_facade() {
    // The full engine → session → snapshot lifecycle, as a downstream
    // user of the `veltair` facade sees it. A model's SLO is set on the
    // compiled model.
    let mut engine = ServingEngine::new(machine(), Policy::VeltairFull);
    for mut c in compile(&["mobilenet_v2", "tiny_yolo_v2"]) {
        if c.name == "tiny_yolo_v2" {
            c.qos_s = 0.5;
        }
        engine.register(c);
    }
    assert!((engine.models()[1].qos_s - 0.5).abs() < 1e-12);

    // The session is a fleet of one node.
    let mut session = engine.session().expect("has models");
    let ids = session
        .submit_stream(
            &WorkloadSpec::mix(&[("mobilenet_v2", 150.0), ("tiny_yolo_v2", 50.0)], 80),
            21,
        )
        .expect("valid stream");
    // Drive in slices, swapping policy mid-run; the relaxed yolo SLO
    // keeps its satisfaction high even under PREMA serialization.
    session.run_until(0.05).expect("finite target");
    session
        .set_policy(0, Policy::Prema)
        .expect("the session's node");
    let mid = session.snapshot();
    assert_eq!(mid.submitted, 80);
    assert_eq!(mid.nodes.len(), 1);
    assert!(mid.completed <= 80);
    let mut completions = session.poll();
    session.run_to_completion();
    completions.extend(session.poll());
    let mut polled: Vec<u64> = completions.iter().map(|c| c.query).collect();
    polled.sort_unstable();
    assert_eq!(polled, ids);
    let fleet = session.finish();
    assert_eq!(fleet.merged, fleet.per_node[0]);
    let report = fleet.merged;
    assert_eq!(report.total_queries(), 80);
    assert!(report.qos_satisfaction("tiny_yolo_v2") > 0.9);
    assert!(report.p99_latency_s("tiny_yolo_v2") >= report.p95_latency_s("tiny_yolo_v2"));
}

#[test]
fn report_cpu_accounting_is_bounded() {
    let compiled = compile(&["googlenet"]);
    let mut engine = ServingEngine::new(machine(), Policy::VeltairAs);
    engine.register(compiled.into_iter().next().unwrap());
    let report = engine.run(&WorkloadSpec::single("googlenet", 80.0, 120), 13);
    assert!(report.peak_cores <= machine().cores);
    assert!(report.avg_cores <= f64::from(machine().cores));
    assert!(report.core_seconds > 0.0);
    assert!(report.makespan_s > 0.0);
}

#[test]
fn qos_targets_that_are_not_positive_and_finite_are_invalid_configs() {
    // A model's SLO is its compiled `qos_s`, set on the model itself.
    // Every entry point that builds a driver rejects one that is NaN,
    // zero, negative or infinite as an invalid configuration naming the
    // model, instead of serving every query against it.
    let m = machine();
    let workload = WorkloadSpec::single("mobilenet_v2", 50.0, 20);
    let cfg = SimConfig::new(m.clone(), Policy::Prema);
    let names_the_model = |reason: &str| reason.contains("model mobilenet_v2: QoS target");
    let valid = compile(&["mobilenet_v2"]).remove(0);
    for qos_s in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let mut model = valid.clone();
        model.qos_s = qos_s;
        let models = [model];

        let sim_errors = [
            veltair::sched::simulate(&models, &workload.generate(1), &cfg).err(),
            Driver::open(&models, cfg.clone()).err(),
        ];
        for (entry, err) in ["simulate", "Driver::open"].iter().zip(sim_errors) {
            assert!(
                matches!(err, Some(SimError::InvalidConfig { ref reason }) if names_the_model(reason)),
                "{entry}, qos_s {qos_s}: {err:?}"
            );
        }

        let mut engine = ServingEngine::new(m.clone(), Policy::Prema);
        engine.register(models[0].clone());
        let cluster_errors = [
            engine.try_run(&workload, 1).err(),
            engine.session().err(),
            Fleet::new(
                &models,
                &[NodeSpec::new("big-0", m.clone(), Policy::Prema)],
                RouterKind::InterferenceAware.build(),
                AdmissionKind::AdmitAll.build(),
            )
            .err(),
        ];
        let entries = [
            "ServingEngine::try_run",
            "ServingEngine::session",
            "Fleet::new",
        ];
        for (entry, err) in entries.iter().zip(cluster_errors) {
            assert!(
                matches!(err, Some(ClusterError::InvalidConfig { ref reason }) if names_the_model(reason)),
                "{entry}, qos_s {qos_s}: {err:?}"
            );
        }
    }
}
