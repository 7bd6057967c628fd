//! The correctness artifact for the work-stealing fleet stepper: parallel
//! fleet runs must be **bit-identical** to sequential runs — the same
//! `FleetReport` (including pooled p95/p99 latencies), the same per-node
//! reports, the same mid-run snapshots — across every router, admission
//! on and off, bursty and steady arrivals, elastic churn (a failure plan,
//! an autoscaler and manual joins, drains and kills in one run), multiple
//! seeds, and multiple worker-thread counts.
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

/// The four-node fleet over the shared registry, behind `router` and
/// `admission`.
fn fleet(router: RouterKind, admission: AdmissionKind) -> Fleet<'static> {
    Fleet::new(compiled_mix(), &nodes(), router.build(), admission.build()).expect("valid fleet")
}

/// Serves `workload` on a fresh [`fleet`] advancing in `mode`.
fn run(
    router: RouterKind,
    admission: AdmissionKind,
    mode: StepMode,
    workload: &WorkloadSpec,
    seed: u64,
) -> FleetReport {
    let mut fleet = fleet(router, admission).with_step_mode(mode);
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
            for seed in [11, 42, 97] {
                let sequential = run(router, admission, StepMode::Sequential, &workload, seed);
                assert!(
                    sequential.merged.total_queries() > 0,
                    "{}: the baseline served nothing",
                    router.name()
                );
                for &t in &threads {
                    let parallel = run(
                        router,
                        admission,
                        StepMode::Parallel { threads: t },
                        &workload,
                        seed,
                    );
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
        let router = RouterKind::LeastOutstanding;
        for seed in [7, 13, 29] {
            let sequential = run(router, admission, StepMode::Sequential, &workload, seed);
            for &t in &thread_counts() {
                let parallel = run(
                    router,
                    admission,
                    StepMode::Parallel { threads: t },
                    &workload,
                    seed,
                );
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
    for &t in &thread_counts() {
        let mut seq = fleet(RouterKind::InterferenceAware, ADMISSIONS[1]);
        let mut par = fleet(RouterKind::InterferenceAware, ADMISSIONS[1]);
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

/// `with_step_mode` on a fleet fed by `submit_stream` and
/// `run_to_completion` produces the same final report, per-node, as the
/// sequential fleet.
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

/// An elastic churn fleet: the four-node fleet plus a failure plan (a
/// stall and a crash) and a fast-ticking autoscaler, so the stepper sees
/// every lifecycle transition the runtime supports.
fn churn_fleet(router: RouterKind, mode: StepMode) -> Fleet<'static> {
    let plan = FailurePlan::new()
        .try_stall(0.06, 0, 0.05)
        .and_then(|p| p.try_crash(0.18, 3))
        .expect("valid plan");
    // The floor sits above the seed roster so the autoscaler provisions
    // but never scales in — scale-in drains would race the scripted
    // crash/kill instants and blur the exact lifecycle counts below.
    let policy = ScalePolicy::try_new(
        AutoscalerConfig::default(),
        NodeSpec::new(
            "elastic",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ),
        6,
        8,
        0.05,
        0.02,
    )
    .expect("valid policy");
    fleet(router, ADMISSIONS[1])
        .with_step_mode(mode)
        .with_failure_plan(plan)
        .with_scale_policy(policy)
        .expect("valid template")
}

/// Panics with `at` and the broken rule unless the fleet's bookkeeping
/// holds (see [`Fleet::check_invariants`]).
fn check(fleet: &Fleet<'_>, at: &str) {
    if let Err(rule) = fleet.check_invariants() {
        panic!("after {at}: {rule}");
    }
}

/// The shared churn script: every run submits the same stream, then
/// performs the same manual add/drain/kill at the same virtual instants,
/// on top of the fleet's failure plan and autoscaler, checking the
/// fleet's invariants at every checkpoint. Identical scripts must produce
/// identical reports regardless of step mode.
fn churn_run(mut fleet: Fleet<'static>, seed: u64) -> FleetReport {
    fleet
        .submit_stream(&bursty_workload(80), seed)
        .expect("registered");
    check(&fleet, "submission");
    fleet.run_until(0.05).expect("finite target");
    check(&fleet, "t=0.05");
    let joiner = fleet
        .add_node(&NodeSpec::new(
            "joiner-0",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ))
        .expect("valid node");
    check(&fleet, "the join");
    fleet.run_until(0.08).expect("finite target");
    check(&fleet, "t=0.08, node 0 stalled");
    fleet.run_until(0.12).expect("finite target");
    check(&fleet, "t=0.12");
    fleet.drain_node(1).expect("drainable");
    check(&fleet, "the drain");
    fleet.run_until(0.2).expect("finite target");
    check(&fleet, "t=0.2");
    fleet.kill_node(joiner).expect("known node");
    check(&fleet, "the kill");
    fleet.finish()
}

/// The elastic leg: a scripted churn run — a stall, a crash, a graceful
/// drain, a manual join + kill, and an autoscaler all mid-stream — is
/// bit-identical across every step-mode thread count, whole reports
/// (the coordinator counters included).
#[test]
fn elastic_churn_is_bit_identical_across_step_modes() {
    for router in [RouterKind::LeastOutstanding, RouterKind::InterferenceAware] {
        for seed in [13, 59] {
            let reference = churn_run(churn_fleet(router, StepMode::Sequential), seed);
            // The script must actually exercise the lifecycle: exactly
            // the manual drain (the floor blocks autoscaler scale-in),
            // exactly the crash plus the manual kill, and at least the
            // manual join on the add side.
            assert_eq!(reference.coordinator.nodes_drained, 1);
            assert_eq!(reference.coordinator.nodes_killed, 2);
            assert!(reference.coordinator.nodes_added >= 1);
            assert_eq!(
                reference.merged.total_queries() as u64 + reference.shed,
                reference.submitted,
                "router={}: queries leaked under churn",
                router.name()
            );
            for &t in &thread_counts() {
                let parallel =
                    churn_run(churn_fleet(router, StepMode::Parallel { threads: t }), seed);
                assert_eq!(
                    parallel,
                    reference,
                    "router={} seed={seed} threads={t}: parallel churn diverged",
                    router.name()
                );
            }
        }
    }
}
