//! Cluster serving: a heterogeneous five-node fleet under a bursty
//! multi-tenant mix, comparing the routing policies head to head — then a
//! thousand-node scale demo timing the work-stealing parallel fleet
//! stepper against the sequential one (and checking, query for query,
//! that the two produce bit-identical reports).
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

    scale_demo(&compiled);

    index_scale_demo(&compiled);
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
    session.enable_telemetry(TraceConfig::unbounded());
    session
        .submit_stream(workload, 42)
        .expect("registered models");

    println!("\nflight recorder (interference-aware, same fleet and workload):");
    for t_ms in [250.0, 500.0, 1000.0] {
        session.run_until(t_ms / 1e3).expect("finite target");
        let tm = session.telemetry_snapshot().expect("telemetry enabled");
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

    let tm = session.telemetry_snapshot().expect("telemetry enabled");
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

/// The fleet-stepper scale demo: a thousand-node fleet replaying
/// synchronized waves of traffic, stepped sequentially and then by the
/// work-stealing parallel stepper, with wall-clock side by side and a
/// bit-identity check on the resulting reports.
///
/// Size knobs (env): `VELTAIR_SCALE_NODES` (default 1000),
/// `VELTAIR_SCALE_THREADS` (default 8), `VELTAIR_SCALE_WAVES`
/// (default 8).
fn scale_demo(compiled: &[CompiledModel]) {
    let env_or = |key: &str, default: usize| -> usize {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(default)
    };
    let node_count = env_or("VELTAIR_SCALE_NODES", 1000);
    let threads = env_or("VELTAIR_SCALE_THREADS", 8);
    let waves = env_or("VELTAIR_SCALE_WAVES", 8);

    // Mostly edge boxes with a flagship per rack of ten — the shape of a
    // real fleet, and enough per-node heterogeneity that work stealing
    // has actual imbalance to absorb.
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes: Vec<NodeSpec> = (0..node_count)
        .map(|i| {
            if i % 10 == 0 {
                NodeSpec::new(&format!("big-{i}"), big.clone(), Policy::VeltairFull)
            } else {
                NodeSpec::new(&format!("edge-{i}"), edge.clone(), Policy::VeltairFull)
            }
        })
        .collect();

    println!(
        "\nscale demo: {node_count}-node fleet, {waves} waves x {node_count} queries, \
         {threads} stepper threads ({} hw threads available)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Synchronized waves: every node gets one query per wave, all at the
    // same arrival instant — a load-test replay. Between waves the whole
    // fleet drains, which is exactly the regime the parallel stepper
    // targets: long advancement windows of independent per-node work.
    let wave_models = ["mobilenet_v2", "tiny_yolo_v2"];
    let run = |mode: StepMode| -> (FleetReport, f64) {
        let mut session = Fleet::new(
            compiled,
            &nodes,
            RouterKind::LeastOutstanding.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("valid fleet")
        .with_step_mode(mode);
        for wave in 0..waves {
            let arrival = SimTime(wave as f64 * 0.25);
            for q in 0..node_count {
                session
                    .submit(&QuerySpec {
                        model: wave_models[q % wave_models.len()].to_string(),
                        arrival,
                    })
                    .expect("registered model");
            }
        }
        let start = std::time::Instant::now();
        let report = session.finish();
        (report, start.elapsed().as_secs_f64())
    };

    let (seq_report, seq_s) = run(StepMode::Sequential);
    let (par_report, par_s) = run(StepMode::Parallel { threads });

    println!(
        "{:<24} {:>12} {:>10} {:>12}",
        "stepper", "wall(s)", "speedup", "fleet p99(ms)"
    );
    println!(
        "{:<24} {:>12.2} {:>10} {:>12.2}",
        "sequential",
        seq_s,
        "1.00x",
        seq_report.merged.overall_percentile_latency_s(99.0) * 1e3
    );
    println!(
        "{:<24} {:>12.2} {:>9.2}x {:>12.2}",
        format!("parallel ({threads} threads)"),
        par_s,
        seq_s / par_s,
        par_report.merged.overall_percentile_latency_s(99.0) * 1e3
    );
    assert_eq!(
        par_report, seq_report,
        "parallel and sequential fleet runs must be bit-identical"
    );
    println!(
        "reports bit-identical: yes ({} queries served across {node_count} nodes)",
        seq_report.merged.total_queries()
    );
}

/// The coordinator-complexity scale demo: a 100k-node fleet under
/// Poisson arrivals, routed through the O(log n) incrementally maintained
/// load index — measured in *op counts*, the honest currency on a small
/// host where wall clock cannot resolve the difference. A linear scan
/// would examine every node per routing decision; the min-routers must
/// come in at or under 2·log2(n) (asserted), with power-of-two-choices
/// allowed its two Fenwick descents (still O(log n), asserted at twice
/// the min-router bound).
///
/// Size knobs (env): `VELTAIR_INDEX_NODES` (default 100 000) and
/// `VELTAIR_INDEX_QUERIES` (default 1000).
fn index_scale_demo(compiled: &[CompiledModel]) {
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

    println!("\nindex scale demo: {node_count}-node fleet, Poisson arrivals, {queries} queries");

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

    let log2n = (node_count as f64).log2();
    println!(
        "{:<20} {:>10} {:>16} {:>12} {:>14} {:>10}",
        "router", "queries", "examined/decis.", "idx updates", "rtrips/1k dec", "wall(s)"
    );
    for (router, bound) in [
        (RouterKind::LeastOutstanding, 2.0 * log2n),
        (RouterKind::InterferenceAware, 2.0 * log2n),
        // Two Fenwick descents per decision: O(log n), but a larger
        // constant than the tree-root min routers.
        (RouterKind::PowerOfTwoChoices { seed: 1 }, 4.0 * log2n),
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
        let per = c.examined_per_decision();
        assert!(
            per <= bound,
            "{}: {per:.1} examined per decision exceeds the {bound:.1} budget",
            router.name()
        );
    }
    println!(
        "op-count budget holds: decisions examine <= 2*log2({node_count}) = {:.1} \
         loads (4*log2 for the two-draw sampler) vs {node_count} for a linear scan",
        2.0 * log2n
    );
}
