//! Conservation laws of the flight recorder, checked with randomized
//! controllers and churn/failure scripts in the style of
//! `admission_properties`:
//!
//! * every `Submitted` trace id terminates in **exactly one** of
//!   `Completed` or `Shed` — never both, never neither — across elastic
//!   churn (joins, drains, crashes) and injected failures (stalls);
//! * the registry's event counts reconcile with the final
//!   `FleetReport` counters query for query;
//! * the log-bucketed latency histograms agree with the exact
//!   pooled-sample percentiles within one bucket width
//!   ([`LatencyHistogram::relative_width`]), overall and per model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair::cluster::{AdmissionController, AdmissionDecision};
use veltair::prelude::*;
use veltair::telemetry::QueryTerminal;

fn compiled_models() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    ["mobilenet_v2", "tiny_yolo_v2"]
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
        .collect()
}

/// Seeded random admit/defer/shed decisions — arbitrary interleavings no
/// hand-written policy would produce, deterministic per seed.
#[derive(Debug)]
struct RandomAdmission {
    rng: StdRng,
}

impl AdmissionController for RandomAdmission {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide(
        &mut self,
        _load: &NodeLoad,
        _model: &CompiledModel,
        _attempts: u32,
    ) -> AdmissionDecision {
        match self.rng.gen_range(0u32..10) {
            0..=5 => AdmissionDecision::Admit,
            6..=8 => AdmissionDecision::Defer {
                delay_s: self.rng.gen_range(0.001f64..0.05),
            },
            _ => AdmissionDecision::Shed,
        }
    }

    fn needs_pressure(&self) -> bool {
        false
    }
}

fn fleet_nodes(rng: &mut StdRng) -> Vec<NodeSpec> {
    let machines = [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
    ];
    let policies = [Policy::VeltairFull, Policy::Prema, Policy::Planaria];
    (0..rng.gen_range(2usize..=4))
        .map(|i| {
            NodeSpec::new(
                &format!("node-{i}"),
                machines[rng.gen_range(0usize..machines.len())].clone(),
                policies[rng.gen_range(0usize..policies.len())],
            )
        })
        .collect()
}

/// Asserts the conservation law on a finished run's log: every submitted
/// trace id has exactly one terminal event, and ids never appear out of
/// thin air.
fn assert_chains_conserve(log: &TraceLog, submitted: u64) {
    let mut submitted_ids = Vec::new();
    for e in &log.events {
        if let veltair::telemetry::TraceEventKind::Submitted { query, .. } = e.kind {
            submitted_ids.push(query);
        }
    }
    assert_eq!(
        submitted_ids.len() as u64,
        submitted,
        "one Submitted event per front-door arrival"
    );
    for &q in &submitted_ids {
        let span = log.span(q);
        assert_eq!(
            span.first().map(|e| e.kind.name()),
            Some("Submitted"),
            "query {q}: the span chain must open with Submitted"
        );
        let completed = span
            .iter()
            .filter(|e| matches!(e.kind, veltair::telemetry::TraceEventKind::Completed { .. }))
            .count();
        let shed = span
            .iter()
            .filter(|e| matches!(e.kind, veltair::telemetry::TraceEventKind::Shed { .. }))
            .count();
        assert_eq!(
            completed + shed,
            1,
            "query {q}: expected exactly one terminal event, found \
             {completed} Completed and {shed} Shed"
        );
        assert_ne!(log.terminal(q), QueryTerminal::Open);
    }
    // No event may reference a query id that was never submitted.
    for e in &log.events {
        if let Some(q) = e.kind.query() {
            assert!(
                submitted_ids.contains(&q),
                "{} references unsubmitted query id {q}",
                e.kind.name()
            );
        }
    }
}

/// Randomized fleets and churn scripts under a randomized controller:
/// the fleet's bookkeeping holds at every checkpoint
/// (`Fleet::check_invariants`), the span-chain conservation law holds,
/// and the registry counts reconcile with the report.
#[test]
fn every_submission_terminates_exactly_once_under_churn() {
    let models = compiled_models();
    let mut rng = StdRng::seed_from_u64(0x7ace_c0de);
    for case in 0..8 {
        let nodes = fleet_nodes(&mut rng);
        let queries = rng.gen_range(20usize..60);
        let qps = rng.gen_range(60.0f64..400.0);
        let workload = WorkloadSpec::mix(&[("mobilenet_v2", qps), ("tiny_yolo_v2", qps)], queries);
        let workload_seed = rng.gen_range(0u64..10_000);
        let controller_seed = rng.gen_range(0u64..10_000);
        let t_join = rng.gen_range(0.01f64..0.08);
        let t_drain = t_join + rng.gen_range(0.01f64..0.08);
        let t_kill = t_drain + rng.gen_range(0.01f64..0.08);
        let victim = rng.gen_range(0usize..nodes.len());
        let mut fleet = Fleet::new(
            &models,
            &nodes,
            RouterKind::LeastOutstanding.build(),
            Box::new(RandomAdmission {
                rng: StdRng::seed_from_u64(controller_seed),
            }),
        )
        .expect("valid fleet")
        .with_telemetry(TraceConfig::unbounded());
        let check = |fleet: &Fleet<'_>, at: &str| {
            if let Err(rule) = fleet.check_invariants() {
                panic!("case {case}, after {at}: {rule}");
            }
        };
        fleet
            .submit_stream(&workload, workload_seed)
            .expect("registered");
        check(&fleet, "submission");
        fleet.run_until(t_join).expect("finite target");
        check(&fleet, "the run to the join");
        let joiner = fleet
            .add_node(&NodeSpec::new(
                "joiner",
                MachineConfig::desktop_8core(),
                Policy::VeltairFull,
            ))
            .expect("valid node");
        check(&fleet, "the join");
        fleet.run_until(t_drain).expect("finite target");
        check(&fleet, "the run to the drain");
        fleet.drain_node(victim).expect("two survivors remain");
        check(&fleet, "the drain");
        fleet.run_until(t_kill).expect("finite target");
        check(&fleet, "the run to the kill");
        fleet.kill_node(joiner).expect("a survivor remains");
        check(&fleet, "the kill");
        fleet.run_to_completion();
        check(&fleet, "the final drain");

        let log = fleet.trace_log().expect("telemetry enabled");
        let tm = fleet.telemetry_snapshot().expect("telemetry enabled");
        let report = fleet.finish();

        assert_chains_conserve(&log, report.submitted);
        assert_eq!(
            tm.counts.completed + tm.counts.shed,
            report.submitted,
            "case {case}: terminal events must conserve submissions"
        );
        assert_eq!(
            tm.counts.completed as usize,
            report.merged.total_queries(),
            "case {case}: Completed events vs report"
        );
        assert_eq!(tm.counts.shed, report.shed, "case {case}: Shed events");
        assert_eq!(
            tm.counts.submitted, report.submitted,
            "case {case}: Submitted events"
        );
        assert_eq!(
            tm.counts.requeued, report.rerouted,
            "case {case}: Requeued events vs the reroute counter"
        );
        assert_eq!(
            tm.latency.count(),
            tm.counts.completed,
            "case {case}: one histogram sample per completion"
        );
    }
}

/// The same law under an injected failure plan — stalls (with recovery)
/// and a crash — where `AdmitAll` makes the strongest form provable:
/// every submission ends in `Completed`, nothing is shed, and the
/// node-lifecycle events show up in the registry.
#[test]
fn failure_plans_preserve_span_chains() {
    let models = compiled_models();
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes = [
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("big-1", big, Policy::Prema),
        NodeSpec::new("edge-0", edge, Policy::VeltairFull),
    ];
    // The drain fires after the stall recovery at t=0.07: draining the
    // last routable node is refused by design, and with node 2 crashed
    // and node 1 stalled, node 0 briefly *is* the last one.
    let plan = FailurePlan::new()
        .try_stall(0.02, 1, 0.05)
        .and_then(|p| p.try_crash(0.04, 2))
        .and_then(|p| p.try_drain(0.08, 0))
        .expect("valid plan");
    let mut fleet = Fleet::new(
        &models,
        &nodes,
        RouterKind::InterferenceAware.build(),
        AdmissionKind::AdmitAll.build(),
    )
    .expect("valid fleet")
    .with_telemetry(TraceConfig::unbounded())
    .with_failure_plan(plan);
    fleet
        .submit_stream(
            &WorkloadSpec::mix(&[("mobilenet_v2", 250.0), ("tiny_yolo_v2", 150.0)], 50),
            17,
        )
        .expect("registered");
    fleet.run_to_completion();

    let log = fleet.trace_log().expect("telemetry enabled");
    let tm = fleet.telemetry_snapshot().expect("telemetry enabled");
    let report = fleet.finish();

    assert_chains_conserve(&log, report.submitted);
    assert_eq!(tm.counts.shed, 0, "AdmitAll never sheds");
    assert_eq!(tm.counts.completed, report.submitted);
    assert_eq!(tm.counts.node_stalled, 1);
    assert_eq!(tm.counts.node_recovered, 1);
    assert_eq!(tm.counts.node_killed, 1);
    assert_eq!(tm.counts.node_draining, 1);
    assert!(
        tm.counts.requeued >= report.rerouted.min(1),
        "the crash/drain should reroute at least the in-flight work it orphaned"
    );
}

/// The registry's log-bucketed histograms track the exact pooled-sample
/// percentiles within one bucket width — overall and per model, at every
/// commonly quoted percentile.
#[test]
fn histogram_percentiles_bracket_pooled_samples() {
    let models = compiled_models();
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes = [
        NodeSpec::new("big-0", big, Policy::VeltairFull),
        NodeSpec::new("edge-0", edge.clone(), Policy::VeltairFull),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ];
    let mut fleet = Fleet::new(
        &models,
        &nodes,
        RouterKind::LeastOutstanding.build(),
        AdmissionKind::AdmitAll.build(),
    )
    .expect("valid fleet")
    .with_telemetry(TraceConfig::unbounded());
    fleet
        .submit_stream(
            &WorkloadSpec::mix(&[("mobilenet_v2", 300.0), ("tiny_yolo_v2", 200.0)], 120),
            91,
        )
        .expect("registered");
    fleet.run_to_completion();
    let tm = fleet.telemetry_snapshot().expect("telemetry enabled");
    let report = fleet.finish();

    let width = LatencyHistogram::relative_width();
    let check = |label: &str, approx: f64, exact: f64| {
        assert!(
            approx >= exact - 1e-12 && approx <= exact * width + 1e-12,
            "{label}: histogram {approx:e} not within one bucket \
             (x{width:.4}) of exact {exact:e}"
        );
    };
    for p in [50.0, 90.0, 95.0, 99.0] {
        check(
            &format!("overall p{p}"),
            tm.latency.percentile_s(p),
            report.merged.overall_percentile_latency_s(p),
        );
    }
    for (model, stats) in &report.merged.per_model {
        let hist = &tm.per_model_latency[model];
        assert_eq!(hist.count() as usize, stats.queries);
        for p in [50.0, 95.0, 99.0] {
            check(
                &format!("{model} p{p}"),
                hist.percentile_s(p),
                stats.percentile_latency_s(p),
            );
        }
    }
}
