//! Criterion micro-benchmarks of the cluster layer's hot paths: the
//! per-event `Driver::step` loop every node spins on, the per-query
//! router decision, and a whole fleet run — the three costs that bound
//! how much virtual traffic a fleet simulation can push per wall-second.

use criterion::{criterion_group, criterion_main, Criterion};
use veltair_cluster::{AdmissionKind, Fleet, LoadIndex, NodeLoad, NodeSpec, RouterKind, StepMode};
use veltair_compiler::{
    compile_model, search, CompiledModel, CompilerOptions, HysteresisConfig, SelectionContext,
    SelectorKind,
};
use veltair_sched::runtime::Driver;
use veltair_sched::{Policy, QuerySpec, SimConfig, WorkloadSpec};
use veltair_sim::{Interference, MachineConfig, SimTime};
use veltair_telemetry::{NullSink, RecorderSink, TraceConfig, TraceSink};
use veltair_tensor::{FeatureMap, FusedUnit, GemmView, Layer};

fn compiled_mobilenet() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    vec![compile_model(
        &veltair_models::mobilenet_v2(),
        &machine,
        &CompilerOptions::fast(),
    )]
}

/// The per-node event loop: how fast one driver chews through a queued
/// 50-query burst, one `step()` at a time.
fn bench_driver_step(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let machine = MachineConfig::threadripper_3990x();
    let queries = WorkloadSpec::single("mobilenet_v2", 400.0, 50).generate(7);
    c.bench_function("driver_step_50_query_burst", |b| {
        b.iter(|| {
            let cfg = SimConfig::new(machine.clone(), Policy::VeltairFull);
            let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
            let mut events = 0u64;
            while driver.step().is_some() {
                events += 1;
            }
            events
        })
    });
}

/// The per-query routing decision off a 16-node load index keyed from a
/// fixed load table (pure computation; the keys do not move).
fn bench_router_decisions(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let loads: Vec<NodeLoad> = (0..16)
        .map(|i| NodeLoad {
            node: i,
            outstanding: (i * 7) % 13,
            queued: (i * 3) % 5,
            in_flight: i % 4,
            busy_cores: ((i * 11) % 64) as u32,
            total_cores: if i % 3 == 0 { 8 } else { 64 },
            occupancy: (i as f64) / 16.0,
            pressure: ((i * 5) % 16) as f64 / 16.0,
        })
        .collect();
    let query = QuerySpec {
        model: "mobilenet_v2".into(),
        arrival: SimTime(0.0),
    };
    for kind in [
        RouterKind::RoundRobin,
        RouterKind::LeastOutstanding,
        RouterKind::PowerOfTwoChoices { seed: 1 },
        RouterKind::InterferenceAware,
    ] {
        let mut router = kind.build();
        let mut index = LoadIndex::new(loads.iter().map(|l| u64::from(l.total_cores)).collect());
        for l in &loads {
            index.update(l.node, router.rank(l));
        }
        c.bench_function(&format!("route_16_nodes/{}", kind.name()), |b| {
            b.iter(|| router.route(std::hint::black_box(&index), &models[0], &query))
        });
    }
}

/// A whole fleet run: routing + lockstep advancement + per-node event
/// loops for a 60-query burst over four heterogeneous nodes.
fn bench_fleet_run(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes = vec![
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("big-1", big, Policy::VeltairFull),
        NodeSpec::new("edge-0", edge.clone(), Policy::Prema),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ];
    let workload = WorkloadSpec::single("mobilenet_v2", 300.0, 60);
    c.bench_function("fleet_serve_60_queries_4_nodes", |b| {
        b.iter(|| {
            let mut fleet = Fleet::new(
                &models,
                &nodes,
                RouterKind::InterferenceAware.build(),
                AdmissionKind::AdmitAll.build(),
            )
            .expect("valid fleet");
            fleet.submit_stream(&workload, 5).expect("registered");
            fleet.finish()
        })
    });
}

/// The fleet stepper head to head: one 256-node fleet serving four
/// synchronized traffic waves, advanced sequentially vs by the
/// work-stealing pool at several worker counts. Same simulation bit for
/// bit (pinned by `tests/parallel_equivalence.rs`); only wall-clock may
/// differ, and on a multicore host the parallel rows should sit well
/// under the sequential one.
fn bench_fleet_stepper_scaling(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes: Vec<NodeSpec> = (0..256)
        .map(|i| {
            let (machine, name) = if i % 8 == 0 {
                (big.clone(), format!("big-{i}"))
            } else {
                (edge.clone(), format!("edge-{i}"))
            };
            NodeSpec::new(&name, machine, Policy::VeltairFull)
        })
        .collect();
    let run = |mode: StepMode| {
        let mut fleet = Fleet::new(
            &models,
            &nodes,
            RouterKind::LeastOutstanding.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("valid fleet")
        .with_step_mode(mode);
        for wave in 0..4 {
            for _ in 0..256 {
                fleet
                    .submit(&QuerySpec {
                        model: "mobilenet_v2".into(),
                        arrival: SimTime(wave as f64 * 0.25),
                    })
                    .expect("registered");
            }
        }
        fleet.finish()
    };
    c.bench_function("fleet_stepper_256_nodes/sequential", |b| {
        b.iter(|| run(StepMode::Sequential))
    });
    for threads in [2, 8] {
        c.bench_function(&format!("fleet_stepper_256_nodes/parallel{threads}"), |b| {
            b.iter(|| run(StepMode::Parallel { threads }))
        });
    }
}

/// The coordinator decision path at two fleet sizes: the same workload
/// routed through the O(log n) incremental index on 64 and 512 nodes.
/// The printed `CoordinatorStats` line per size shows the op count
/// (examined keys per decision) that wall clock on a small host cannot
/// resolve; it should stay flat as the fleet grows.
fn bench_indexed_routing(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let edge = MachineConfig::desktop_8core();
    for node_count in [64usize, 512] {
        let nodes: Vec<NodeSpec> = (0..node_count)
            .map(|i| NodeSpec::new(&format!("n{i}"), edge.clone(), Policy::VeltairFull))
            .collect();
        let workload = WorkloadSpec::single("mobilenet_v2", 500.0, 64);
        let run = || {
            let mut fleet = Fleet::new(
                &models,
                &nodes,
                RouterKind::LeastOutstanding.build(),
                AdmissionKind::AdmitAll.build(),
            )
            .expect("valid fleet");
            fleet.submit_stream(&workload, 5).expect("registered");
            fleet.finish()
        };
        let stats = run().coordinator;
        println!(
            "fleet_routing_{node_count}_nodes/indexed: {:.1} examined/decision, \
             {} index updates",
            stats.examined_per_decision(),
            stats.index_updates
        );
        c.bench_function(&format!("fleet_routing_{node_count}_nodes/indexed"), |b| {
            b.iter(run)
        });
    }
}

/// Elastic churn against a running fleet: a mid-run join, a graceful
/// drain (queue re-routes, in-flight work finishes), and a crash-stop
/// (everything re-enters the front door), at 64 and 512 nodes. The
/// lifecycle operations themselves are O(log n) routability flips plus
/// victim re-routing, so the cost per churn event should stay near-flat
/// as the fleet grows.
fn bench_fleet_churn(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let edge = MachineConfig::desktop_8core();
    for node_count in [64usize, 512] {
        let nodes: Vec<NodeSpec> = (0..node_count)
            .map(|i| NodeSpec::new(&format!("n{i}"), edge.clone(), Policy::VeltairFull))
            .collect();
        let workload = WorkloadSpec::single("mobilenet_v2", 500.0, 96);
        c.bench_function(&format!("fleet_churn_{node_count}_nodes"), |b| {
            b.iter(|| {
                let mut fleet = Fleet::new(
                    &models,
                    &nodes,
                    RouterKind::LeastOutstanding.build(),
                    AdmissionKind::AdmitAll.build(),
                )
                .expect("valid fleet");
                fleet.submit_stream(&workload, 5).expect("registered");
                fleet.run_until(0.02).expect("finite target");
                let joiner = fleet
                    .add_node(&NodeSpec::new("joiner", edge.clone(), Policy::VeltairFull))
                    .expect("valid node");
                fleet.run_until(0.04).expect("finite target");
                fleet.drain_node(0).expect("survivors remain");
                fleet.run_until(0.06).expect("finite target");
                fleet.kill_node(joiner).expect("survivors remain");
                fleet.finish()
            })
        });
    }
}

/// The flight recorder's zero-overhead contract, measured. Three rows of
/// the same 50-query driver step loop: no sink attached, a [`NullSink`]
/// (telemetry compiled in, switched off — every emission site collapses
/// to one cached branch), and a full [`RecorderSink`]; plus one fleet
/// row with the collector attached end to end. A coarse `Instant`-based
/// guard asserts the NullSink path stays within noise of the no-sink
/// baseline (a generous 3x, so a truly broken contract — constructing
/// events while disabled — fails even on a noisy CI host).
fn bench_trace_overhead(c: &mut Criterion) {
    let models = compiled_mobilenet();
    let machine = MachineConfig::threadripper_3990x();
    let queries = WorkloadSpec::single("mobilenet_v2", 400.0, 50).generate(7);
    let run = |sink: Option<Box<dyn TraceSink>>| {
        let cfg = SimConfig::new(machine.clone(), Policy::VeltairFull);
        let mut driver = Driver::new(&models, &queries, cfg).expect("valid workload");
        if let Some(sink) = sink {
            driver.set_trace_sink(sink);
        }
        let mut events = 0u64;
        while driver.step().is_some() {
            events += 1;
        }
        events
    };
    c.bench_function("driver_step_trace/no_sink", |b| b.iter(|| run(None)));
    c.bench_function("driver_step_trace/null_sink", |b| {
        b.iter(|| run(Some(Box::new(NullSink))))
    });
    c.bench_function("driver_step_trace/recorder_sink", |b| {
        b.iter(|| run(Some(Box::new(RecorderSink::new()))))
    });

    let timed = |null: bool| {
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let sink: Option<Box<dyn TraceSink>> = null.then(|| Box::new(NullSink) as Box<_>);
            std::hint::black_box(run(sink));
        }
        start.elapsed().as_secs_f64()
    };
    timed(false); // warm caches before either measured pass
    let base_s = timed(false);
    let null_s = timed(true);
    println!(
        "trace_overhead guard: no_sink {base_s:.4}s, null_sink {null_s:.4}s \
         ({:.2}x)",
        null_s / base_s
    );
    assert!(
        null_s <= base_s * 3.0,
        "NullSink path ({null_s:.4}s) is not within noise of the no-sink \
         baseline ({base_s:.4}s): the disabled-telemetry branch is doing work"
    );

    // The honest end-to-end cost of recording everything: the
    // `bench_fleet_run` configuration with the collector attached.
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes = vec![
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("big-1", big, Policy::VeltairFull),
        NodeSpec::new("edge-0", edge.clone(), Policy::Prema),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ];
    let workload = WorkloadSpec::single("mobilenet_v2", 300.0, 60);
    c.bench_function("fleet_serve_60_queries_4_nodes/traced", |b| {
        b.iter(|| {
            let mut fleet = Fleet::new(
                &models,
                &nodes,
                RouterKind::InterferenceAware.build(),
                AdmissionKind::AdmitAll.build(),
            )
            .expect("valid fleet")
            .with_telemetry(TraceConfig::unbounded());
            fleet.submit_stream(&workload, 5).expect("registered");
            fleet.finish()
        })
    });
}

/// The per-planning-decision version-selection cost: every adaptive
/// block plan walks the selector, so its `select` call sits directly on
/// the dispatch hot path. Levels sweep a sawtooth so the hysteresis
/// ladder exercises both its hold (cache-hit) and re-rank paths.
fn bench_selector_hot_path(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let model = &compiled_mobilenet()[0];
    for kind in [
        SelectorKind::StaticLevel { level: 0.0 },
        SelectorKind::Hysteresis(HysteresisConfig::default()),
    ] {
        let mut selector = kind.build();
        let mut tick = 0u32;
        c.bench_function(&format!("selector_select/{}", kind.name()), |b| {
            b.iter(|| {
                let level = f64::from(tick % 10) / 10.0;
                tick += 1;
                let ctx = SelectionContext::instantaneous(
                    0,
                    Interference::level(level),
                    level,
                    f64::from(tick) * 1e-4,
                    model.model_core_requirement(level).max(1),
                );
                selector.select(std::hint::black_box(model), &ctx, &machine)
            })
        });
    }
}

/// The per-layer schedule search (lower and measure every generated
/// candidate) on a small and a large convolution. The printed line per
/// shape gives the candidate count — each one a lowering a real
/// compiler backend would pay for.
fn bench_schedule_search(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let shapes = [
        ("conv3x3_256c_14x14", FeatureMap::nchw(1, 256, 14, 14), 256),
        ("conv3x3_64c_56x56", FeatureMap::nchw(1, 64, 56, 56), 64),
    ];
    for (name, fmap, cout) in shapes {
        let layer = Layer::conv2d(name, fmap, cout, (3, 3), (1, 1), (1, 1));
        let gemm = GemmView::of(&layer).expect("conv has a GEMM view");
        let unit = FusedUnit::solo(layer);
        let opts = CompilerOptions::fast();
        let candidates = search(&unit, &gemm, &machine, &opts, 7).len();
        println!("schedule_search/{name}: {candidates} candidates");
        c.bench_function(&format!("schedule_search/{name}"), |b| {
            b.iter(|| search(std::hint::black_box(&unit), &gemm, &machine, &opts, 7))
        });
    }
}

criterion_group! {
    name = cluster_hot_path;
    config = Criterion::default().sample_size(10);
    targets = bench_driver_step, bench_router_decisions, bench_fleet_run,
        bench_fleet_stepper_scaling, bench_indexed_routing,
        bench_fleet_churn, bench_trace_overhead, bench_selector_hot_path,
        bench_schedule_search
}
criterion_main!(cluster_hot_path);
