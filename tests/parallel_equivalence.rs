//! The correctness artifact for the work-stealing fleet stepper: parallel
//! fleet runs must be **bit-identical** to sequential runs — the same
//! `FleetReport` (including pooled p95/p99 latencies), the same per-node
//! reports, the same mid-run snapshots — across every router, admission
//! on and off, bursty and steady arrivals, multiple seeds, and multiple
//! worker-thread counts.
//!
//! Equality below is `assert_eq!` on whole reports/snapshots, which
//! compares every `f64` exactly: a single reordered floating-point
//! operation anywhere in a node's event loop would fail these tests.
//!
//! Thread counts default to {1, 2, 8} and can be overridden with the
//! `VELTAIR_STEP_THREADS` env var (comma-separated, e.g.
//! `VELTAIR_STEP_THREADS=2`), which is how the CI matrix pins each leg to
//! one count so a scheduling-order regression cannot hide behind a lucky
//! interleaving in a single combined run.

use std::sync::OnceLock;

use veltair::prelude::*;

/// Worker-thread counts under test: `VELTAIR_STEP_THREADS` (comma
/// separated) or the {1, 2, 8} default.
fn thread_counts() -> Vec<usize> {
    match std::env::var("VELTAIR_STEP_THREADS") {
        Ok(raw) => raw
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("VELTAIR_STEP_THREADS: bad thread count {s:?}"))
            })
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

/// The shared compiled registry, built once per test process (model
/// compilation dominates test wall time otherwise).
fn compiled_mix() -> &'static [CompiledModel] {
    static MODELS: OnceLock<Vec<CompiledModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast();
        ["mobilenet_v2", "tiny_yolo_v2", "resnet50"]
            .iter()
            .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
            .collect()
    })
}

/// A heterogeneous four-node fleet: two flagship boxes (different
/// policies) and two edge boxes — enough asymmetry that routing actually
/// discriminates and node event loops do different amounts of work.
fn nodes() -> Vec<NodeSpec> {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    vec![
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("legacy-0", big, Policy::Prema),
        NodeSpec::new("edge-0", edge.clone(), Policy::VeltairFull),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ]
}

fn bursty_workload(queries: usize) -> WorkloadSpec {
    let streams: Vec<(&str, f64)> = ["mobilenet_v2", "tiny_yolo_v2", "resnet50"]
        .iter()
        .map(|n| (*n, 40.0))
        .collect();
    WorkloadSpec::try_bursty_mix(&streams, queries, 0.3, 0.7)
        .expect("valid bursty mix")
        .scaled_to(250.0)
}

fn steady_workload(queries: usize) -> WorkloadSpec {
    WorkloadSpec::mix(&[("mobilenet_v2", 120.0), ("tiny_yolo_v2", 80.0)], queries)
}

fn engine(router: RouterKind, admission: AdmissionKind) -> ClusterEngine {
    let mut builder = ClusterEngine::builder().router(router).admission(admission);
    for m in compiled_mix() {
        builder = builder.model(m.clone());
    }
    for n in nodes() {
        builder = builder.node(n);
    }
    builder.build().expect("valid cluster")
}

/// Serves `workload` on a fresh fleet of `engine` advancing in `mode`.
fn run(engine: &ClusterEngine, mode: StepMode, workload: &WorkloadSpec, seed: u64) -> FleetReport {
    let mut fleet = engine.session().expect("valid");
    fleet.set_step_mode(mode);
    fleet.submit_stream(workload, seed).expect("registered");
    fleet.finish()
}

const ROUTERS: [RouterKind; 4] = [
    RouterKind::RoundRobin,
    RouterKind::LeastOutstanding,
    RouterKind::PowerOfTwoChoices { seed: 5 },
    RouterKind::InterferenceAware,
];

const ADMISSIONS: [AdmissionKind; 2] = [
    AdmissionKind::AdmitAll,
    AdmissionKind::SloAware(SloAdmissionConfig {
        shed_threshold: 0.9,
        defer_threshold: 0.6,
        defer_s: 0.05,
        max_defers: 2,
    }),
];

/// The headline matrix: all routers × admission on/off × ≥3 seeds ×
/// every thread count under test, bursty arrivals. Reports must match
/// bit for bit.
#[test]
fn parallel_equals_sequential_across_the_matrix() {
    let workload = bursty_workload(60);
    let threads = thread_counts();
    for router in ROUTERS {
        for admission in ADMISSIONS {
            let e = engine(router, admission);
            for seed in [11, 42, 97] {
                let sequential = run(&e, StepMode::Sequential, &workload, seed);
                assert!(
                    sequential.merged.total_queries() > 0,
                    "{}: the baseline served nothing",
                    router.name()
                );
                for &t in &threads {
                    let parallel = run(&e, StepMode::Parallel { threads: t }, &workload, seed);
                    assert_eq!(
                        parallel,
                        sequential,
                        "router={} admission={admission:?} seed={seed} threads={t} diverged",
                        router.name()
                    );
                }
            }
        }
    }
}

/// Steady (non-bursty) arrivals through the same matrix corners, with an
/// explicit check on the pooled tail percentiles: p95/p99 are computed
/// over the pooled per-node samples, and the parallel run must reproduce
/// them exactly (not just approximately).
#[test]
fn pooled_percentiles_are_bit_identical_on_steady_arrivals() {
    let workload = steady_workload(60);
    for admission in ADMISSIONS {
        let e = engine(RouterKind::LeastOutstanding, admission);
        for seed in [7, 13, 29] {
            let sequential = run(&e, StepMode::Sequential, &workload, seed);
            for &t in &thread_counts() {
                let parallel = run(&e, StepMode::Parallel { threads: t }, &workload, seed);
                for model in sequential.merged.per_model.keys() {
                    for p in [50.0, 95.0, 99.0] {
                        let s = sequential.merged.per_model[model].percentile_latency_s(p);
                        let q = parallel.merged.per_model[model].percentile_latency_s(p);
                        assert!(
                            s == q,
                            "{model} p{p}: sequential {s:e} != parallel {q:e} (threads={t})"
                        );
                    }
                }
                assert_eq!(parallel, sequential);
            }
        }
    }
}

/// Mid-run observability must match too: stepping two sessions through
/// the same checkpoints, every `FleetSnapshot` — per-node loads, routed
/// and completed counts, the pooled mid-run report — is identical, and
/// switching the live session's step mode between checkpoints changes
/// nothing.
#[test]
fn mid_run_snapshots_match_checkpoint_for_checkpoint() {
    let workload = bursty_workload(50);
    let e = engine(RouterKind::InterferenceAware, ADMISSIONS[1]);
    for &t in &thread_counts() {
        let mut seq = e.session().expect("valid");
        let mut par = e.session().expect("valid");
        par.set_step_mode(StepMode::Parallel { threads: t });
        seq.submit_stream(&workload, 23).expect("registered");
        par.submit_stream(&workload, 23).expect("registered");
        for (i, checkpoint) in [0.02, 0.05, 0.1, 0.25, 0.6, 1.5].iter().enumerate() {
            seq.run_until(*checkpoint).expect("finite target");
            par.run_until(*checkpoint).expect("finite target");
            assert_eq!(
                par.snapshot(),
                seq.snapshot(),
                "snapshots diverged at t={checkpoint} (threads={t})"
            );
            // Flip the parallel session's mode back and forth mid-run:
            // the mode is wall-clock machinery, not simulation state.
            if i % 2 == 0 {
                par.set_step_mode(StepMode::Sequential);
            } else {
                par.set_step_mode(StepMode::Parallel { threads: t });
            }
        }
        assert_eq!(par.finish(), seq.finish());
    }
}

/// The raw `Fleet` API (no engine facade): `with_step_mode` on a fleet
/// fed by `submit`/`run_to_completion` produces the same final report,
/// per-node, as the sequential fleet.
#[test]
fn raw_fleet_runs_match_per_node() {
    let models = compiled_mix();
    let specs = nodes();
    let workload = bursty_workload(40);
    let run = |mode: StepMode| -> FleetReport {
        let mut fleet = Fleet::new(
            models,
            &specs,
            RouterKind::PowerOfTwoChoices { seed: 3 }.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("valid fleet")
        .with_step_mode(mode);
        fleet.submit_stream(&workload, 31).expect("registered");
        fleet.run_to_completion();
        fleet.finish()
    };
    let sequential = run(StepMode::Sequential);
    for &t in &thread_counts() {
        let parallel = run(StepMode::Parallel { threads: t });
        assert_eq!(parallel.per_node, sequential.per_node, "threads={t}");
        assert_eq!(parallel, sequential, "threads={t}");
    }
}
