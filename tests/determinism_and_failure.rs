//! Determinism guarantees and failure-injection behaviour.

use std::sync::OnceLock;

use veltair::prelude::*;

fn compiled(name: &str) -> CompiledModel {
    let machine = MachineConfig::threadripper_3990x();
    compile_model(
        &by_name(name).expect("zoo model"),
        &machine,
        &CompilerOptions::fast(),
    )
}

#[test]
fn identical_seeds_give_identical_reports() {
    let machine = MachineConfig::threadripper_3990x();
    let m = compiled("mobilenet_v2");
    let workload = WorkloadSpec::single("mobilenet_v2", 90.0, 120);
    let run = || {
        let mut e = ServingEngine::new(machine.clone(), Policy::VeltairFull);
        e.register(m.clone());
        e.run(&workload, 1234)
    };
    assert_eq!(run(), run());
}

#[test]
fn compilation_is_deterministic() {
    let a = compiled("tiny_yolo_v2");
    let b = compiled("tiny_yolo_v2");
    assert_eq!(a, b);
}

#[test]
fn different_seeds_change_arrivals_not_totals() {
    let machine = MachineConfig::threadripper_3990x();
    let m = compiled("mobilenet_v2");
    let mut e = ServingEngine::new(machine, Policy::VeltairFull);
    e.register(m);
    let w = WorkloadSpec::single("mobilenet_v2", 90.0, 100);
    let a = e.run(&w, 1);
    let b = e.run(&w, 2);
    assert_eq!(a.total_queries(), b.total_queries());
    assert_ne!(a, b, "different seeds should perturb the schedule");
}

#[test]
fn overload_degrades_gracefully_not_fatally() {
    // 100x beyond capacity: every query still completes, satisfaction
    // collapses, the simulator neither deadlocks nor panics.
    let machine = MachineConfig::threadripper_3990x();
    let m = compiled("resnet50");
    let mut e = ServingEngine::new(machine, Policy::VeltairFull);
    e.register(m);
    let report = e.run(&WorkloadSpec::single("resnet50", 20_000.0, 150), 3);
    assert_eq!(report.total_queries(), 150);
    assert!(report.overall_satisfaction() < 0.5);
    assert!(report.makespan_s.is_finite());
}

#[test]
fn burst_arrivals_are_absorbed() {
    // All queries arrive in the same instant (worst-case burst).
    use veltair::sched::{simulate, QuerySpec, SimConfig};
    use veltair::sim::SimTime;
    let machine = MachineConfig::threadripper_3990x();
    let m = compiled("mobilenet_v2");
    let queries: Vec<QuerySpec> = (0..32)
        .map(|i| QuerySpec {
            model: "mobilenet_v2".into(),
            arrival: SimTime(f64::from(i) * 1e-9),
        })
        .collect();
    let report = simulate(
        &[m],
        &queries,
        &SimConfig::new(machine, Policy::VeltairFull),
    )
    .expect("valid workload");
    assert_eq!(report.total_queries(), 32);
    assert!(report.makespan_s > 0.0);
}

// --- Fleet-level failure injection --------------------------------------

use veltair::cluster::ClusterError;

/// A small homogeneous fleet for the fleet-level legs: `n` desktops
/// serving `mobilenet_v2` (compiled once per test process) behind
/// least-outstanding routing, admitting everything.
fn cluster(n: usize) -> Fleet<'static> {
    static MODELS: OnceLock<[CompiledModel; 1]> = OnceLock::new();
    let models = MODELS.get_or_init(|| [compiled("mobilenet_v2")]);
    let nodes: Vec<NodeSpec> = (0..n)
        .map(|i| {
            NodeSpec::new(
                &format!("n{i}"),
                MachineConfig::desktop_8core(),
                Policy::VeltairFull,
            )
        })
        .collect();
    Fleet::new(
        models,
        &nodes,
        RouterKind::LeastOutstanding.build(),
        AdmissionKind::AdmitAll.build(),
    )
    .expect("valid fleet")
}

fn fleet_workload(queries: usize) -> WorkloadSpec {
    WorkloadSpec::single("mobilenet_v2", 150.0, queries)
}

/// Seeded failure plans are reproducible: the same seed yields the same
/// run bit for bit, and a different seed perturbs it.
#[test]
fn seeded_failure_plans_reproduce_bit_for_bit() {
    let run = |plan_seed: u64| {
        let plan =
            FailurePlan::try_seeded(plan_seed, 3, 2.0, 0.6, 0.5, 0.15).expect("valid parameters");
        let mut fleet = cluster(3);
        fleet.set_failure_plan(plan);
        fleet
            .submit_stream(&fleet_workload(180), 77)
            .expect("registered");
        fleet.finish()
    };
    let a = run(9);
    assert_eq!(a, run(9), "same failure seed must reproduce exactly");
    assert_eq!(
        a.merged.total_queries() as u64 + a.shed,
        a.submitted,
        "queries leaked under seeded failures"
    );
    let b = run(10);
    assert_ne!(a, b, "a different failure seed should perturb the run");
}

/// A stalled node is unroutable for exactly the stall window, then
/// recovers to `Live` — nothing is killed, nothing is lost.
#[test]
fn stalled_nodes_recover_on_schedule() {
    let plan = FailurePlan::new()
        .try_stall(0.05, 1, 0.1)
        .expect("valid instant");
    let mut session = cluster(2);
    session.set_failure_plan(plan);
    session
        .submit_stream(&fleet_workload(90), 5)
        .expect("registered");
    session.run_until(0.08).expect("finite target"); // mid-stall
    assert_eq!(session.node_states()[1], NodeState::Stalled);
    assert_eq!(session.live_nodes(), 1);
    session.run_until(0.3).expect("finite target"); // past recovery at 0.15
    assert_eq!(session.node_states()[1], NodeState::Live);
    assert_eq!(session.live_nodes(), 2);
    let report = session.finish();
    assert_eq!(report.node_states, vec![NodeState::Live, NodeState::Live]);
    assert_eq!(report.coordinator.nodes_killed, 0);
    assert_eq!(report.coordinator.nodes_drained, 0);
    assert_eq!(report.merged.total_queries(), 90);
}

/// Manual lifecycle operations land in both the coordinator counters and
/// the per-slot terminal states, under the documented counting contract:
/// one increment per accepted operation, no-ops count nothing.
#[test]
fn lifecycle_counters_reconcile_with_terminal_states() {
    let mut session = cluster(3);
    session
        .submit_stream(&fleet_workload(120), 13)
        .expect("registered");
    session.run_until(0.02).expect("finite target");
    let joiner = session
        .add_node(&NodeSpec::new(
            "joiner",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ))
        .expect("valid node");
    assert_eq!(joiner, 3, "the joiner takes the next roster slot");
    session.run_until(0.05).expect("finite target");
    session.drain_node(0).expect("survivors remain");
    session.kill_node(1).expect("survivors remain");
    // Repeating either operation on a departed node is a counted no-op.
    session.drain_node(0).expect("no-op");
    session.kill_node(1).expect("no-op");
    let report = session.finish();
    assert_eq!(report.coordinator.nodes_added, 1);
    assert_eq!(report.coordinator.nodes_drained, 1);
    assert_eq!(report.coordinator.nodes_killed, 1);
    // After finish() every drained node has emptied and gone Dead.
    assert_eq!(
        report.node_states,
        vec![
            NodeState::Dead,
            NodeState::Dead,
            NodeState::Live,
            NodeState::Live
        ]
    );
    assert_eq!(report.live_nodes(), 2);
    assert_eq!(report.dead_nodes(), 2);
    assert_eq!(
        report.merged.total_queries() as u64 + report.shed,
        report.submitted,
        "the drain/kill re-routes lost queries"
    );
}

/// The typed error surface: unknown roster indices, operations that
/// would empty the fleet, and out-of-range scale parameters each map to
/// their own variant.
#[test]
fn lifecycle_and_policy_errors_are_typed() {
    let mut session = cluster(1);
    assert!(matches!(
        session.drain_node(99),
        Err(ClusterError::UnknownNode { node: 99 })
    ));
    assert!(matches!(
        session.drain_node(0),
        Err(ClusterError::FleetEmpty)
    ));
    assert!(matches!(
        session.kill_node(0),
        Err(ClusterError::FleetEmpty)
    ));

    let template = NodeSpec::new("t", MachineConfig::desktop_8core(), Policy::VeltairFull);
    let cfg = AutoscalerConfig::default();
    assert!(matches!(
        ScalePolicy::try_new(cfg, template.clone(), 4, 2, 0.25, 0.5),
        Err(ClusterError::InvalidScalePolicy {
            field: "max_nodes",
            ..
        })
    ));
    assert!(matches!(
        ScalePolicy::try_new(cfg, template, 0, 2, 0.25, 0.5),
        Err(ClusterError::InvalidScalePolicy {
            field: "min_nodes",
            ..
        })
    ));
    // An inverted hysteresis band is rejected at config construction.
    assert!(matches!(
        AutoscalerConfig::try_new(0.5, 2.0, 2, 1),
        Err(ClusterError::InvalidScalePolicy { .. })
    ));
}

#[test]
fn single_query_stream_works() {
    let machine = MachineConfig::threadripper_3990x();
    let m = compiled("googlenet");
    let mut e = ServingEngine::new(machine.clone(), Policy::VeltairFull);
    e.register(m);
    let report = e.run(&WorkloadSpec::single("googlenet", 5.0, 1), 8);
    assert_eq!(report.total_queries(), 1);
    // A lone query on an idle machine must meet QoS comfortably.
    assert_eq!(report.qos_satisfaction("googlenet"), 1.0);
}
