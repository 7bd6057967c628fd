//! Cluster serving: a heterogeneous five-node fleet under a bursty
//! multi-tenant mix, comparing the routing policies head to head — then a
//! 100k-node demo timing each router's decisions.
//!
//! The fleet mixes hardware generations *and* scheduling policies — two
//! Veltair-FULL flagships, one PREMA legacy box, and two small edge
//! nodes — exactly the situation where load-blind round-robin routing
//! falls apart: it sends one fifth of the traffic to each node
//! regardless of capacity, so the edge nodes drown while the flagships
//! idle. Load- and interference-aware routing read each node's live
//! signals (outstanding queries, monitored co-runner pressure) and place
//! queries where they will actually meet their SLO.
//!
//! A flight-recorder pass follows the head-to-head: the same fleet and
//! workload replayed with the deterministic trace collector attached,
//! live registry metrics (event counts, latency percentiles, the
//! per-(node-class, model) violation table) printed at periodic
//! snapshots, the worst SLO miss attributed span by span, and — when
//! `VELTAIR_TRACE_OUT` is set — the merged trace exported as Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`.
//!
//! ```text
//! cargo run --release --example cluster_serving
//! VELTAIR_TRACE_OUT=cluster.trace.json cargo run --release --example cluster_serving
//! ```

use veltair::prelude::*;

fn main() {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let opts = CompilerOptions::fast();

    let names = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];
    println!("compiling {} models...", names.len());
    let compiled: Vec<CompiledModel> = names
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &big, &opts))
        .collect();

    // Inverse-QoS multi-tenant rates, served as on/off bursts: ~300 ms
    // surges separated by ~700 ms of quiet, averaging the nominal rate.
    // Surges are where routing earns its keep — the fleet must absorb
    // 3-4x the average rate without missing deadlines.
    let specs: Vec<ModelSpec> = names.iter().map(|n| by_name(n).unwrap()).collect();
    let streams: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect();
    let workload = WorkloadSpec::try_bursty_mix(&streams, 600, 0.3, 0.7)
        .expect("valid bursty mix")
        .scaled_to(350.0);

    let node =
        |name: &str, machine: &MachineConfig, policy| NodeSpec::new(name, machine.clone(), policy);
    let nodes = [
        node("big-0", &big, Policy::VeltairFull),
        node("big-1", &big, Policy::VeltairFull),
        node("legacy-0", &big, Policy::Prema),
        node("edge-0", &edge, Policy::VeltairFull),
        node("edge-1", &edge, Policy::Planaria),
    ];
    println!(
        "fleet: {}\n",
        nodes
            .iter()
            .map(|n| format!(
                "{} ({}c, {})",
                n.name,
                n.config.machine.cores,
                n.config.policy.name()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );

    println!(
        "{:<20} {:>12} {:>14} {:>10} {:>10} {:>10}",
        "router", "SLO viol.", "goodput(qps)", "shed", "p99(ms)", "deferrals"
    );
    let mut interference_aware_report = None;
    for router in [
        RouterKind::RoundRobin,
        RouterKind::LeastOutstanding,
        RouterKind::PowerOfTwoChoices { seed: 1 },
        RouterKind::InterferenceAware,
    ] {
        let mut fleet = slo_aware_fleet(&compiled, &nodes, router);
        fleet
            .submit_stream(&workload, 42)
            .expect("registered models");
        let report = fleet.finish();
        println!(
            "{:<20} {:>11.1}% {:>14.1} {:>9.1}% {:>10.2} {:>10}",
            router.name(),
            report.slo_violation_rate() * 100.0,
            report.goodput_qps(),
            report.shed_fraction() * 100.0,
            report.merged.overall_percentile_latency_s(99.0) * 1e3,
            report.deferrals
        );
        if router == RouterKind::InterferenceAware {
            interference_aware_report = Some(report);
        }
    }

    // Show where the interference-aware router actually put the work.
    let report = interference_aware_report.expect("interference-aware is in the comparison set");
    println!("\ninterference-aware placement:");
    for (i, name) in report.node_names.iter().enumerate() {
        println!(
            "  {:<10} routed {:>4}  completed {:>4}  satisfied {:>5.1}%",
            name,
            report.routed_per_node[i],
            report.per_node[i].total_queries(),
            report.per_node[i].overall_satisfaction() * 100.0
        );
    }

    flight_recorder_demo(&compiled, &nodes, &workload);

    per_node_compilation_demo(&compiled, &nodes, &workload, report);

    coordinator_scale_demo(&compiled);
}

/// The head-to-head fleet: `nodes` serving the shared flagship-compiled
/// registry behind `router` and default SLO-aware admission.
fn slo_aware_fleet<'a>(
    compiled: &'a [CompiledModel],
    nodes: &[NodeSpec],
    router: RouterKind,
) -> Fleet<'a> {
    Fleet::new(
        compiled,
        nodes,
        router.build(),
        AdmissionKind::SloAware(SloAdmissionConfig::default()).build(),
    )
    .expect("valid fleet")
}

/// The flight-recorder pass: interference-aware routing over the same
/// fleet with the deterministic trace collector attached from the first
/// arrival, registry metrics printed at periodic snapshots, the worst
/// SLO miss attributed, and the merged trace exported as Chrome
/// trace-event JSON when `VELTAIR_TRACE_OUT` is set.
fn flight_recorder_demo(compiled: &[CompiledModel], nodes: &[NodeSpec], workload: &WorkloadSpec) {
    let mut session = slo_aware_fleet(compiled, nodes, RouterKind::InterferenceAware);
    session.enable_telemetry();
    session
        .submit_stream(workload, 42)
        .expect("registered models");

    println!("\nflight recorder (interference-aware, same fleet and workload):");
    for t_ms in [250.0, 500.0, 1000.0] {
        session.run_until(t_ms / 1e3).expect("finite target");
        let tm = session.snapshot().telemetry.expect("telemetry enabled");
        println!(
            "  t={t_ms:>5.0}ms  {:>5} events  routed {:>4}  deferred {:>3}  shed {:>3}  \
             completed {:>4}  violated {:>3}  p99 {:>6.2}ms",
            tm.events_recorded,
            tm.counts.routed,
            tm.counts.deferred,
            tm.counts.shed,
            tm.counts.completed,
            tm.counts.violated,
            tm.latency.percentile_s(99.0) * 1e3,
        );
    }
    // Drain the stragglers so the trace holds every terminal event.
    let mut t_s = 1.0;
    while !session.is_idle() && t_s < 60.0 {
        t_s += 0.5;
        session.run_until(t_s).expect("finite target");
    }

    let tm = session.snapshot().telemetry.expect("telemetry enabled");
    println!("  final violation-frequency table (node class x model):");
    for (class, model, cell) in tm.violation_rows() {
        println!(
            "    {class:<18} {model:<14} {:>4} done  {:>3} violated  {:>3} shed  ({:>5.1}% rate)",
            cell.completed,
            cell.violated,
            cell.shed,
            cell.violation_rate() * 100.0,
        );
    }

    let log = session.trace_log().expect("telemetry enabled");
    if let Some(worst) = log
        .query_ids()
        .into_iter()
        .filter_map(|q| log.explain(q))
        .filter(|a| a.violated)
        .max_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
    {
        println!("\n  worst SLO miss, attributed:");
        for line in format!("{worst}").lines() {
            println!("  {line}");
        }
    }
    if let Ok(path) = std::env::var("VELTAIR_TRACE_OUT") {
        std::fs::write(&path, log.to_chrome_json()).expect("write trace file");
        println!(
            "\n  wrote {} trace events to {path} (load in Perfetto / chrome://tracing)",
            log.events.len()
        );
    }
    let report = session.finish();
    assert!(
        report.telemetry.is_some(),
        "the final report should carry the registry snapshot"
    );
}

/// Per-node compilation head to head: the same heterogeneous fleet and
/// workload, once with every node serving flagship-compiled artifacts
/// (the shared-registry setup above) and once with each machine class
/// compiled for its own hardware through one caching `CompilerService`
/// and served through `Fleet::with_node_registries` — so the 8-core
/// edge boxes stop planning with a 64-core flagship's core-requirement
/// tables.
fn per_node_compilation_demo(
    compiled: &[CompiledModel],
    nodes: &[NodeSpec],
    workload: &WorkloadSpec,
    shared: FleetReport,
) {
    let names = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];
    let machines = [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
    ];
    let mut service = CompilerService::new(CompilerOptions::fast());
    let registries: Vec<Vec<CompiledModel>> = machines
        .iter()
        .map(|machine| {
            names
                .iter()
                .map(|n| service.compile(&by_name(n).expect("zoo model"), machine))
                .collect()
        })
        .collect();
    let node_models: Vec<&[CompiledModel]> = nodes
        .iter()
        .map(|n| {
            let class = machines
                .iter()
                .position(|m| *m == n.config.machine)
                .expect("every node is a flagship or an edge box");
            registries[class].as_slice()
        })
        .collect();
    println!(
        "\nper-node compilation: {} models x {} machine classes ({} registries; \
         edge nodes now run edge-compiled code)",
        names.len(),
        machines.len(),
        registries.len(),
    );
    // The edge artifact really differs from the flagship one.
    let edge_mobilenet = node_models[3]
        .iter()
        .find(|m| m.name == "mobilenet_v2")
        .expect("registered");
    let big_mobilenet = compiled
        .iter()
        .find(|m| m.name == "mobilenet_v2")
        .expect("compiled");
    assert_ne!(
        edge_mobilenet, big_mobilenet,
        "edge registry should differ from the flagship compilation"
    );

    let mut fleet = Fleet::with_node_registries(
        &registries[0],
        node_models,
        nodes,
        RouterKind::InterferenceAware.build(),
        AdmissionKind::SloAware(SloAdmissionConfig::default()).build(),
    )
    .expect("valid fleet");
    fleet
        .submit_stream(workload, 42)
        .expect("registered models");
    let per_node = fleet.finish();
    println!(
        "{:<24} {:>12} {:>14} {:>10}",
        "registry", "SLO viol.", "goodput(qps)", "p99(ms)"
    );
    for (label, r) in [
        ("shared (flagship)", &shared),
        ("per-node compiled", &per_node),
    ] {
        println!(
            "{:<24} {:>11.1}% {:>14.1} {:>10.2}",
            label,
            r.slo_violation_rate() * 100.0,
            r.goodput_qps(),
            r.merged.overall_percentile_latency_s(99.0) * 1e3
        );
    }
}

/// The coordinator scale demo: a 100k-node fleet under Poisson
/// arrivals. Every routing decision advances all nodes to its instant and
/// re-keys the ones whose state changed, so a decision costs Θ(nodes)
/// whatever the router reads; the table shows each router's wall time
/// next to the load-index keys it read per decision (every slot for the
/// minimum routers, the walked slots of two weighted draws for
/// power-of-two-choices). Each run must account for every query:
/// `completed + shed == submitted` (asserted).
///
/// Size knobs (env): `VELTAIR_INDEX_NODES` (default 100 000) and
/// `VELTAIR_INDEX_QUERIES` (default 1000).
fn coordinator_scale_demo(compiled: &[CompiledModel]) {
    let env_or = |key: &str, default: usize| -> usize {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    };
    let node_count = env_or("VELTAIR_INDEX_NODES", 100_000);
    let queries = env_or("VELTAIR_INDEX_QUERIES", 1_000);

    let edge = MachineConfig::desktop_8core();
    let specs: Vec<NodeSpec> = (0..node_count)
        .map(|i| NodeSpec::new(&format!("n{i}"), edge.clone(), Policy::VeltairFull))
        .collect();

    println!(
        "\ncoordinator scale demo: {node_count}-node fleet, Poisson arrivals, {queries} queries"
    );

    let run = |router: RouterKind| -> (FleetReport, f64) {
        let workload =
            WorkloadSpec::mix(&[("mobilenet_v2", 600.0), ("tiny_yolo_v2", 400.0)], queries);
        let mut fleet = Fleet::new(
            compiled,
            &specs,
            router.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("valid fleet");
        fleet.submit_stream(&workload, 42).expect("registered");
        let start = std::time::Instant::now();
        fleet.run_to_completion();
        (fleet.finish(), start.elapsed().as_secs_f64())
    };

    println!(
        "{:<20} {:>10} {:>16} {:>12} {:>14} {:>10}",
        "router", "queries", "examined/decis.", "idx updates", "rtrips/1k dec", "wall(s)"
    );
    for router in [
        RouterKind::LeastOutstanding,
        RouterKind::InterferenceAware,
        RouterKind::PowerOfTwoChoices { seed: 1 },
    ] {
        let (r, wall) = run(router);
        let c = r.coordinator;
        println!(
            "{:<20} {:>10} {:>16.1} {:>12} {:>14.1} {:>10.2}",
            router.name(),
            c.routing_decisions,
            c.examined_per_decision(),
            c.index_updates,
            c.round_trips_per_1k_decisions(),
            wall
        );
        assert_eq!(
            r.merged.total_queries() as u64 + r.shed,
            r.submitted,
            "{}: a query was neither completed nor shed",
            router.name()
        );
    }
    println!("every query accounted for: completed + shed == submitted");
}
