//! The correctness artifact for the O(log n) routing index: fleet runs
//! that decide off the tournament tree and the Fenwick sampler must be
//! **bit-identical** to runs that decide by an O(n) scan over the same
//! keys — the same `FleetReport` (including pooled p95/p99 latencies),
//! across every router, admission on and off, bursty and steady
//! arrivals, multiple seeds, and both step modes.
//!
//! The scan lives here, as a test-only oracle. [`ScanOracle`] wraps a
//! built-in router and delegates `rank` to it, so the fleet keys the
//! index — and the interference-aware EWMA advances — exactly as for the
//! built-in. It decides without the index's fast paths: by a linear
//! argmin over `LoadIndex::key` for the min-routers, and by the classic
//! two-draw linear walk over the nodes' core counts for power-of-two.
//! The only permitted difference is the `nodes_examined` counter, so the
//! comparison zeroes the `coordinator` field before the whole-report
//! `assert_eq!` and pins the other counters separately (identical
//! decision, update and round-trip counts).
//!
//! Thread counts for the parallel legs come from `VELTAIR_STEP_THREADS`
//! (comma-separated) like `tests/parallel_equivalence.rs`, defaulting to
//! {1, 2, 8}, so the CI worker-count matrix covers this suite too.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// The shared compiled registry, built once per test process.
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

/// A heterogeneous four-node fleet (same shape as the parallel
/// equivalence suite): asymmetric enough that routing discriminates and
/// index keys actually churn.
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

/// The O(n) reference router. The wrapped built-in ranks nodes (so keys
/// and smoothing are the built-in's); the oracle decides by scanning
/// the keys, or, for power-of-two, by the classic sampler: one
/// `gen_range` over the summed core counts of the routable nodes, walked
/// linearly, then a second draw excluding the first, the lower key
/// winning ties to the first draw.
#[derive(Debug)]
struct ScanOracle {
    kind: RouterKind,
    inner: Box<dyn Router>,
    /// The power-of-two sampler's generator, seeded like the built-in's.
    rng: StdRng,
    /// Sampling weight per roster slot: the node's core count.
    cores: Vec<u64>,
}

impl ScanOracle {
    fn new(kind: RouterKind, roster: &[NodeSpec]) -> Self {
        let seed = match kind {
            RouterKind::PowerOfTwoChoices { seed } => seed,
            _ => 0,
        };
        Self {
            kind,
            inner: kind.build(),
            rng: StdRng::seed_from_u64(seed),
            cores: roster
                .iter()
                .map(|n| u64::from(n.config.machine.cores.max(1)))
                .collect(),
        }
    }

    /// Linear argmin over the keys the index holds (unroutable nodes read
    /// `+inf`), ties to the lowest index.
    fn scan_min(index: &LoadIndex) -> usize {
        let mut best = 0;
        for i in 1..index.len() {
            if index.key(i) < index.key(best) {
                best = i;
            }
        }
        best
    }

    /// One core-weighted draw by linear walk over the routable nodes,
    /// excluding `skip`.
    fn walk(&mut self, index: &LoadIndex, skip: Option<usize>) -> usize {
        let weight = |i: usize| {
            if index.routable(i) && Some(i) != skip {
                self.cores[i]
            } else {
                0
            }
        };
        let total: u64 = (0..index.len()).map(weight).sum();
        let mut ticket = self.rng.gen_range(0..total);
        for i in 0..index.len() {
            if ticket < weight(i) {
                return i;
            }
            ticket -= weight(i);
        }
        unreachable!("ticket was drawn below the total weight")
    }
}

impl Router for ScanOracle {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn needs_pressure(&self) -> bool {
        self.inner.needs_pressure()
    }

    fn index_support(&self) -> IndexSupport {
        self.inner.index_support()
    }

    fn rank(&mut self, load: &NodeLoad) -> f64 {
        self.inner.rank(load)
    }

    fn route(&mut self, index: &LoadIndex, model: &CompiledModel, query: &QuerySpec) -> usize {
        match self.kind {
            // Round-robin never reads keys: nothing to scan.
            RouterKind::RoundRobin => self.inner.route(index, model, query),
            RouterKind::LeastOutstanding | RouterKind::InterferenceAware => Self::scan_min(index),
            RouterKind::PowerOfTwoChoices { .. } => {
                assert_eq!(
                    self.cores.len(),
                    index.len(),
                    "the oracle covers the roster"
                );
                if index.live_len() == 1 {
                    return (0..index.len())
                        .find(|&i| index.routable(i))
                        .expect("one routable node");
                }
                let a = self.walk(index, None);
                let b = self.walk(index, Some(a));
                if index.key(b) < index.key(a) {
                    b
                } else {
                    a
                }
            }
        }
    }
}

/// The built-in router, or its scan oracle over the same roster.
fn router(kind: RouterKind, oracle: bool) -> Box<dyn Router> {
    if oracle {
        Box::new(ScanOracle::new(kind, &nodes()))
    } else {
        kind.build()
    }
}

fn fleet(
    kind: RouterKind,
    oracle: bool,
    admission: AdmissionKind,
    step: StepMode,
) -> Fleet<'static> {
    Fleet::new(
        compiled_mix(),
        &nodes(),
        router(kind, oracle),
        admission.build(),
    )
    .expect("valid fleet")
    .with_step_mode(step)
}

fn run(
    kind: RouterKind,
    oracle: bool,
    admission: AdmissionKind,
    step: StepMode,
    workload: &WorkloadSpec,
    seed: u64,
) -> FleetReport {
    let mut fleet = fleet(kind, oracle, admission, step);
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

/// Strips the op counters so the simulation outcome can be compared
/// whole-report; the counters are asserted on separately.
fn outcome(mut report: FleetReport) -> FleetReport {
    report.coordinator = CoordinatorStats::default();
    report
}

/// The headline matrix: indexed routing is bit-identical to the scan
/// oracle across all 4 routers × admission on/off × bursty + steady
/// arrivals × 3 seeds × both step modes, with the same decision, index
/// update and round-trip counts.
#[test]
fn indexed_routing_equals_the_scan_across_the_matrix() {
    let workloads = [bursty_workload(60), steady_workload(60)];
    for router in ROUTERS {
        for admission in ADMISSIONS {
            for workload in &workloads {
                for seed in [11, 42, 97] {
                    for step in [StepMode::Sequential, StepMode::Parallel { threads: 2 }] {
                        let scan = run(router, true, admission, step, workload, seed);
                        let indexed = run(router, false, admission, step, workload, seed);
                        assert!(
                            scan.merged.total_queries() > 0,
                            "{}: the scan oracle served nothing",
                            router.name()
                        );
                        assert_eq!(
                            outcome(indexed.clone()),
                            outcome(scan.clone()),
                            "router={} admission={admission:?} seed={seed} step={step:?} diverged",
                            router.name()
                        );
                        let (s, i) = (scan.coordinator, indexed.coordinator);
                        assert_eq!(s.routing_decisions, i.routing_decisions);
                        assert_eq!(s.index_updates, i.index_updates);
                        assert_eq!(s.pool_round_trips, i.pool_round_trips);
                    }
                }
            }
        }
    }
}

/// The parallel legs of the matrix at every thread count under test:
/// indexed + parallel must equal the scan oracle + sequential, the
/// strongest cross pairing (decision path and stepper both differ).
#[test]
fn indexed_parallel_equals_scan_sequential_at_every_thread_count() {
    let workload = bursty_workload(50);
    for router in ROUTERS {
        for seed in [11, 42, 97] {
            let reference = run(
                router,
                true,
                ADMISSIONS[1],
                StepMode::Sequential,
                &workload,
                seed,
            );
            for &t in &thread_counts() {
                let crossed = run(
                    router,
                    false,
                    ADMISSIONS[1],
                    StepMode::Parallel { threads: t },
                    &workload,
                    seed,
                );
                assert_eq!(
                    outcome(crossed),
                    outcome(reference.clone()),
                    "router={} seed={seed} threads={t} diverged",
                    router.name()
                );
            }
        }
    }
}

/// An elastic churn fleet: the four-node fleet plus a failure plan (a
/// stall and a crash) and a fast-ticking autoscaler, so the index sees
/// every lifecycle transition the runtime supports.
fn churn_fleet(router: RouterKind, oracle: bool, step: StepMode) -> Fleet<'static> {
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
    fleet(router, oracle, ADMISSIONS[1], step)
        .with_failure_plan(plan)
        .with_scale_policy(policy)
        .expect("valid template")
}

/// The shared churn script: every run submits the same stream, then
/// performs the same manual add/drain/kill at the same virtual instants,
/// on top of the fleet's failure plan and autoscaler. Identical scripts
/// must produce identical reports regardless of decision path or step
/// mode.
fn churn_run(mut fleet: Fleet<'static>, seed: u64) -> FleetReport {
    fleet
        .submit_stream(&bursty_workload(80), seed)
        .expect("registered");
    fleet.run_until(0.05).expect("finite target");
    let joiner = fleet
        .add_node(&NodeSpec::new(
            "joiner-0",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ))
        .expect("valid node");
    fleet.run_until(0.12).expect("finite target");
    fleet.drain_node(1).expect("drainable");
    fleet.run_until(0.2).expect("finite target");
    fleet.kill_node(joiner).expect("known node");
    fleet.finish()
}

/// The elastic leg of the matrix: a scripted churn run — a stall, a
/// crash, a graceful drain, a manual join + kill, and an autoscaler all
/// mid-stream — is bit-identical between the index and the scan oracle
/// and across every step-mode thread count. Indexed runs compare whole
/// reports (the coordinator counters included); oracle runs strip the
/// counters like the rest of this suite.
#[test]
fn elastic_churn_is_bit_identical_across_routing_and_step_modes() {
    for router in [RouterKind::LeastOutstanding, RouterKind::InterferenceAware] {
        for seed in [13, 59] {
            let reference = churn_run(churn_fleet(router, false, StepMode::Sequential), seed);
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
                let parallel = churn_run(
                    churn_fleet(router, false, StepMode::Parallel { threads: t }),
                    seed,
                );
                assert_eq!(
                    parallel,
                    reference,
                    "router={} seed={seed} threads={t}: parallel churn diverged",
                    router.name()
                );
            }
            let scan = churn_run(churn_fleet(router, true, StepMode::Sequential), seed);
            assert_eq!(
                outcome(scan),
                outcome(reference.clone()),
                "router={} seed={seed}: scan churn diverged",
                router.name()
            );
            let crossed = churn_run(
                churn_fleet(router, true, StepMode::Parallel { threads: 2 }),
                seed,
            );
            assert_eq!(
                outcome(crossed),
                outcome(reference),
                "router={} seed={seed}: scan+parallel churn diverged",
                router.name()
            );
        }
    }
}

/// A seeded randomized churn run: after every checkpoint the fleet's
/// incremental index must agree with a from-scratch scan of the live
/// keys. Checked indirectly and strongly — the oracle twin *is* a fresh
/// scan at every decision, so per-checkpoint snapshot equality (per
/// node: routed counts, loads, completions) after interleaved bursts of
/// submissions pins the index against drift event by event.
#[test]
fn churning_index_agrees_with_a_fresh_scan_at_every_checkpoint() {
    for seed in [3, 17, 71] {
        let twin = |oracle| {
            fleet(
                RouterKind::LeastOutstanding,
                oracle,
                ADMISSIONS[1],
                StepMode::Sequential,
            )
        };
        let (mut scan, mut idx) = (twin(true), twin(false));
        // Interleave stream submissions with stepping so the index sees
        // injects, completions, and deferral re-offers between compares.
        for (round, checkpoint) in [0.03, 0.08, 0.15, 0.3, 0.7].iter().enumerate() {
            let burst = bursty_workload(15 + round * 5);
            scan.submit_stream(&burst, seed + round as u64).expect("ok");
            idx.submit_stream(&burst, seed + round as u64).expect("ok");
            scan.run_until(*checkpoint).expect("finite target");
            idx.run_until(*checkpoint).expect("finite target");
            let (mut s, mut i) = (scan.snapshot(), idx.snapshot());
            s.coordinator = CoordinatorStats::default();
            i.coordinator = CoordinatorStats::default();
            assert_eq!(
                i, s,
                "seed={seed}: index drifted from the fresh scan at t={checkpoint}"
            );
        }
        assert_eq!(
            outcome(idx.finish()),
            outcome(scan.finish()),
            "seed={seed}: final reports diverged"
        );
    }
}
