//! Online serving through the resumable session API (a fleet of one
//! node): bursty open-loop arrivals, a mid-run policy hot-swap, and
//! periodic incremental snapshots — the scenario the batch
//! `run(workload, seed)` path cannot express. The session's flight
//! recorder runs throughout: live registry
//! metrics print with each snapshot, and setting `VELTAIR_TRACE_OUT`
//! writes the merged lifecycle trace as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! ```text
//! cargo run --release --example online_serving
//! VELTAIR_TRACE_OUT=online.trace.json cargo run --release --example online_serving
//! ```

use veltair::prelude::*;

fn print_telemetry(tm: &TelemetrySnapshot) {
    println!(
        "    registry: {} events  dispatched {}  completed {}  violated {}  p95 {:>6.2}ms  p99 {:>6.2}ms",
        tm.events_recorded,
        tm.counts.dispatched,
        tm.counts.completed,
        tm.counts.violated,
        tm.latency.percentile_s(95.0) * 1e3,
        tm.latency.percentile_s(99.0) * 1e3,
    );
    for (class, model, cell) in tm.violation_rows() {
        println!(
            "      {class:<18} {model:<14} {:>4} done  {:>3} violated  ({:>5.1}% rate)",
            cell.completed,
            cell.violated,
            cell.violation_rate() * 100.0,
        );
    }
}

/// Prints the session's report so far, polls its completions, then
/// prints its registry.
fn print_snapshot(policy: Policy, session: &mut Fleet<'_>) {
    let snap = session.snapshot();
    let load = &session.loads()[0];
    println!(
        "t={:>6.0}ms  [{}]  submitted {:>3}  done {:>3}  in-flight {:>2}  queued {:>3}",
        session.now_s() * 1e3,
        policy.name(),
        snap.submitted,
        snap.merged.total_queries(),
        load.in_flight,
        load.queued,
    );
    for (model, stats) in &snap.merged.per_model {
        println!(
            "    {:<14} {:>4} done  {:>5.1}% QoS  avg {:>7.2}ms  p95 {:>7.2}ms  p99 {:>7.2}ms",
            model,
            stats.queries,
            stats.satisfaction() * 100.0,
            stats.avg_latency_s() * 1e3,
            stats.p95_latency_s() * 1e3,
            stats.p99_latency_s() * 1e3,
        );
    }
    println!("    poll: +{} completions", session.poll().len());
    if let Some(tm) = &snap.telemetry {
        print_telemetry(tm);
    }
}

fn main() -> Result<(), ClusterError> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    let names = ["mobilenet_v2", "tiny_yolo_v2", "resnet50"];
    println!("compiling {} models...", names.len());

    let mut engine = ServingEngine::new(machine.clone(), Policy::VeltairFull);
    for name in names {
        engine.register(compile_model(
            &by_name(name).expect("zoo model"),
            &machine,
            &opts,
        ));
    }

    let mut session = engine.session()?;
    session.enable_telemetry();
    let mut policy = engine.policy();
    println!("session open under {}\n", policy.name());

    // Phase 1: a steady trickle plus a sharp mobilenet burst at t=0.
    session.submit_stream(&WorkloadSpec::mix(&[("resnet50", 40.0)], 40), 7)?;
    for i in 0..60 {
        session.submit(&QuerySpec {
            model: "mobilenet_v2".into(),
            arrival: SimTime(f64::from(i) * 0.0005),
        })?;
    }
    for t_ms in [50.0, 100.0] {
        session.run_until(t_ms / 1e3)?;
        print_snapshot(policy, &mut session);
    }

    // Phase 2: hot-swap the scheduler mid-stream (policy A/B) and throw a
    // second, mixed burst at it while the first is still draining.
    policy = Policy::VeltairAs;
    session.set_policy(0, policy)?;
    println!("\n-- policy hot-swapped to {} --\n", policy.name());
    session.submit_stream(
        &WorkloadSpec::mix(&[("tiny_yolo_v2", 200.0), ("mobilenet_v2", 100.0)], 60),
        11,
    )?;
    for t_ms in [150.0, 250.0, 400.0] {
        session.run_until(t_ms / 1e3)?;
        print_snapshot(policy, &mut session);
    }

    // Drain: collect the straggler completions one by one.
    session.run_to_completion();
    let stragglers = session.poll();
    println!("\ndrained {} straggler completions", stragglers.len());
    if let Some(worst) = stragglers
        .iter()
        .max_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
    {
        println!(
            "slowest straggler: {} query #{} at {:.2}ms ({})",
            worst.model,
            worst.query,
            worst.latency_s * 1e3,
            if worst.qos_met {
                "within QoS"
            } else {
                "QoS miss"
            },
        );
    }

    // Flight-recorder wrap-up: attribute the worst SLO miss, then export the
    // merged trace as Chrome trace-event JSON when `VELTAIR_TRACE_OUT` is set.
    if let Some(log) = session.trace_log() {
        if let Some(worst) = log
            .query_ids()
            .into_iter()
            .filter_map(|q| log.explain(q))
            .filter(|a| a.violated)
            .max_by(|a, b| a.latency_s.total_cmp(&b.latency_s))
        {
            println!("\nworst SLO miss, attributed:\n{worst}");
        }
        if let Ok(path) = std::env::var("VELTAIR_TRACE_OUT") {
            std::fs::write(&path, log.to_chrome_json()).expect("write trace file");
            println!(
                "\nwrote {} trace events to {path} (load in Perfetto / chrome://tracing)",
                log.events.len()
            );
        }
    }

    let report = session.finish().merged;
    println!(
        "\nfinal: {} queries, {:.1}% QoS, makespan {:.0}ms, avg {:.1} cores",
        report.total_queries(),
        report.overall_satisfaction() * 100.0,
        report.makespan_s * 1e3,
        report.avg_cores,
    );
    Ok(())
}
