//! Seeded randomized tests of the admission-control invariants the fleet
//! front door guarantees *regardless of what the controller does* — the
//! `AdmissionController` trait is public, so these run adversarial and
//! randomized controllers through it:
//!
//! * accounting never leaks: served + shed always equals submitted;
//! * a single query is never deferred more than the fleet's hard cap
//!   (`DEFER_HARD_CAP`), even against a controller that defers forever;
//! * deferral hold time is charged into measured latency monotonically —
//!   holding a query longer can only raise its recorded latency, by at
//!   least the added hold;
//! * a scripted elastic churn run (a failure plan, an autoscaler, a
//!   manual join, drain and kill) keeps the fleet's bookkeeping valid at
//!   every checkpoint, conserves every query and reproduces bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair::cluster::{AdmissionController, AdmissionDecision, DEFER_HARD_CAP};
use veltair::prelude::*;

/// The randomized fleets' registry.
const PAIR: [&str; 2] = ["mobilenet_v2", "tiny_yolo_v2"];

/// The elastic churn leg's registry and bursty mix: a third, heavier
/// model loads the fleet unevenly.
const CHURN_MIX: [&str; 3] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50"];

/// `names`, compiled for the flagship.
fn compiled_models(names: &[&str]) -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    names
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
        .collect()
}

/// A controller that draws every decision from a seeded generator —
/// deterministic per seed, but exercising admit/defer/shed in arbitrary
/// interleavings no hand-written policy would produce.
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

/// The adversarial controller the hard cap exists for: defers every
/// query, every time, by its delay, ignoring the `attempts` counter.
#[derive(Debug)]
struct AlwaysDefer(f64);

impl AdmissionController for AlwaysDefer {
    fn name(&self) -> &'static str {
        "always-defer"
    }

    fn decide(
        &mut self,
        _load: &NodeLoad,
        _model: &CompiledModel,
        _attempts: u32,
    ) -> AdmissionDecision {
        AdmissionDecision::Defer { delay_s: self.0 }
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
    (0..rng.gen_range(1usize..=4))
        .map(|i| {
            NodeSpec::new(
                &format!("node-{i}"),
                machines[rng.gen_range(0usize..machines.len())].clone(),
                policies[rng.gen_range(0usize..policies.len())],
            )
        })
        .collect()
}

/// Randomized fleets under a randomized controller: every offered query
/// is either served or shed (never both, never lost), deferral counts
/// respect the per-query hard cap, and per-model shed counts reconcile.
#[test]
fn served_plus_shed_always_equals_submitted() {
    let models = compiled_models(&PAIR);
    let mut rng = StdRng::seed_from_u64(0xad31_5510);
    for case in 0..16 {
        let nodes = fleet_nodes(&mut rng);
        let queries = rng.gen_range(10usize..60);
        let qps = rng.gen_range(30.0f64..400.0);
        let workload_seed = rng.gen_range(0u64..10_000);
        let controller_seed = rng.gen_range(0u64..10_000);
        let mut fleet = Fleet::new(
            &models,
            &nodes,
            RouterKind::LeastOutstanding.build(),
            Box::new(RandomAdmission {
                rng: StdRng::seed_from_u64(controller_seed),
            }),
        )
        .expect("valid fleet");
        fleet
            .submit_stream(
                &WorkloadSpec::mix(&[("mobilenet_v2", qps), ("tiny_yolo_v2", qps)], queries),
                workload_seed,
            )
            .expect("registered");
        let report = fleet.finish();
        assert_eq!(
            report.merged.total_queries() + report.shed as usize,
            queries,
            "case {case}: queries leaked (served {}, shed {}, submitted {queries})",
            report.merged.total_queries(),
            report.shed
        );
        assert_eq!(
            report.shed_per_model.values().sum::<u64>(),
            report.shed,
            "case {case}: per-model shed counts do not reconcile"
        );
        assert_eq!(
            report.routed_per_node.iter().sum::<u64>() as usize,
            report.merged.total_queries(),
            "case {case}: routed queries did not all complete"
        );
        assert!(
            report.deferrals <= u64::from(DEFER_HARD_CAP) * queries as u64,
            "case {case}: {} deferrals exceeds the hard cap budget",
            report.deferrals
        );
    }
}

/// Against a controller that defers unconditionally, the fleet must
/// terminate, shed everything, and spend *exactly* `DEFER_HARD_CAP`
/// deferrals per query — pinning both the cap's value and the fact that
/// it is enforced per query, not globally. A hold that never ends (an
/// infinite or NaN delay) is a refusal: the query is shed at once, and
/// no deferral is counted.
#[test]
fn always_defer_hits_the_hard_cap_exactly_then_sheds() {
    let models = compiled_models(&PAIR);
    let nodes = [NodeSpec::new(
        "solo",
        MachineConfig::threadripper_3990x(),
        Policy::VeltairFull,
    )];
    let queries = 7usize;
    for delay_s in [0.01, f64::INFINITY, f64::NAN] {
        let mut fleet = Fleet::new(
            &models,
            &nodes,
            RouterKind::RoundRobin.build(),
            Box::new(AlwaysDefer(delay_s)),
        )
        .expect("valid fleet");
        fleet
            .submit_stream(&WorkloadSpec::single("mobilenet_v2", 50.0, queries), 3)
            .expect("registered");
        fleet.run_to_completion();
        if let Err(rule) = fleet.check_invariants() {
            panic!("delay {delay_s}: {rule}");
        }
        let report = fleet.finish();
        assert_eq!(
            report.shed as usize, queries,
            "delay {delay_s}: every query must be shed"
        );
        assert_eq!(
            report.shed_per_model["mobilenet_v2"] as usize, queries,
            "delay {delay_s}: sheds are counted per model"
        );
        assert_eq!(
            report.merged.total_queries(),
            0,
            "delay {delay_s}: nothing should be served"
        );
        let per_query = if delay_s.is_finite() {
            u64::from(DEFER_HARD_CAP)
        } else {
            0
        };
        assert_eq!(
            report.deferrals,
            per_query * queries as u64,
            "delay {delay_s}: each query should burn exactly {per_query} deferrals"
        );
    }
}

/// Conservation under elastic churn: randomized fleets with a randomized
/// mid-run churn script (a join, a graceful drain, a crash) must still
/// reconcile every counter. Under `AdmitAll` the identities are exact:
/// every submission completes (`total_queries == submitted`), and the
/// routing ledger balances — each query is routed once per placement, so
/// `sum(routed_per_node) == submitted + rerouted`. Under the SLO-aware
/// controller the weaker identity `completed + shed == submitted` must
/// hold instead.
#[test]
fn churn_conserves_queries_and_balances_the_routing_ledger() {
    let models = compiled_models(&PAIR);
    let mut rng = StdRng::seed_from_u64(0xad31_5512);
    for case in 0..12 {
        // At least two seed nodes so the scripted departure can never
        // empty the fleet.
        let mut nodes = fleet_nodes(&mut rng);
        while nodes.len() < 2 {
            nodes.push(NodeSpec::new(
                &format!("pad-{}", nodes.len()),
                MachineConfig::desktop_8core(),
                Policy::VeltairFull,
            ));
        }
        let queries = rng.gen_range(20usize..70);
        let qps = rng.gen_range(60.0f64..400.0);
        let workload = WorkloadSpec::mix(&[("mobilenet_v2", qps), ("tiny_yolo_v2", qps)], queries);
        let workload_seed = rng.gen_range(0u64..10_000);
        let t_join = rng.gen_range(0.01f64..0.08);
        let t_drain = t_join + rng.gen_range(0.01f64..0.08);
        let t_kill = t_drain + rng.gen_range(0.01f64..0.08);
        let victim = rng.gen_range(0usize..nodes.len());
        for admit_all in [true, false] {
            let admission = if admit_all {
                AdmissionKind::AdmitAll
            } else {
                AdmissionKind::SloAware(SloAdmissionConfig::default())
            };
            let mut fleet = Fleet::new(
                &models,
                &nodes,
                RouterKind::LeastOutstanding.build(),
                admission.build(),
            )
            .expect("valid fleet");
            let check = |fleet: &Fleet<'_>, at: &str| {
                if let Err(rule) = fleet.check_invariants() {
                    panic!("case {case} admit_all={admit_all}, after {at}: {rule}");
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
            let report = fleet.finish();

            assert_eq!(
                report.merged.total_queries() as u64 + report.shed,
                report.submitted,
                "case {case} admit_all={admit_all}: queries leaked under churn"
            );
            assert_eq!(
                report.submitted, queries as u64,
                "case {case}: submission count"
            );
            if admit_all {
                assert_eq!(report.shed, 0, "case {case}: AdmitAll shed something");
                assert_eq!(
                    report.routed_per_node.iter().sum::<u64>(),
                    report.submitted + report.rerouted,
                    "case {case}: the routing ledger does not balance \
                     (routed {:?}, rerouted {})",
                    report.routed_per_node,
                    report.rerouted
                );
            }
            assert_eq!(
                report.shed_per_model.values().sum::<u64>(),
                report.shed,
                "case {case} admit_all={admit_all}: per-model shed counts do not reconcile"
            );
        }
    }
}

/// An elastic churn fleet: two flagship boxes (different policies) and
/// two edge boxes behind SLO-aware admission, plus a failure plan (a
/// stall and a crash) and a fast-ticking autoscaler, so one run sees
/// every lifecycle transition the runtime supports.
fn churn_fleet(models: &[CompiledModel], router: RouterKind) -> Fleet<'_> {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let nodes = [
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("legacy-0", big, Policy::Prema),
        NodeSpec::new("edge-0", edge.clone(), Policy::VeltairFull),
        NodeSpec::new("edge-1", edge.clone(), Policy::Planaria),
    ];
    let admission = AdmissionKind::SloAware(SloAdmissionConfig {
        shed_threshold: 0.9,
        defer_threshold: 0.6,
        defer_s: 0.05,
        max_defers: 2,
    });
    let plan = FailurePlan::new()
        .try_stall(0.06, 0, 0.05)
        .and_then(|p| p.try_crash(0.18, 3))
        .expect("valid plan");
    // The floor sits above the seed roster so the autoscaler provisions
    // but never scales in — scale-in drains would race the scripted
    // crash/kill instants and blur the exact lifecycle counts below.
    let policy = ScalePolicy::try_new(
        AutoscalerConfig::default(),
        NodeSpec::new("elastic", edge, Policy::VeltairFull),
        6,
        8,
        0.05,
        0.02,
    )
    .expect("valid policy");
    Fleet::new(models, &nodes, router.build(), admission.build())
        .expect("valid fleet")
        .with_failure_plan(plan)
        .with_scale_policy(policy)
        .expect("valid template")
}

/// The churn script: submit a bursty stream, then a manual join, drain
/// and kill at fixed virtual instants on top of the fleet's failure plan
/// and autoscaler, checking the fleet's invariants at every checkpoint.
fn churn_run(mut fleet: Fleet<'_>, seed: u64) -> FleetReport {
    let check = |fleet: &Fleet<'_>, at: &str| {
        if let Err(rule) = fleet.check_invariants() {
            panic!("seed {seed}, after {at}: {rule}");
        }
    };
    let streams: Vec<(&str, f64)> = CHURN_MIX.iter().map(|n| (*n, 40.0)).collect();
    let workload = WorkloadSpec::try_bursty_mix(&streams, 80, 0.3, 0.7)
        .expect("valid bursty mix")
        .scaled_to(250.0);
    fleet.submit_stream(&workload, seed).expect("registered");
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

/// A scripted churn run — a stall, a crash, a graceful drain, a manual
/// join and kill, and an autoscaler, all mid-stream — fires exactly the
/// scripted lifecycle transitions, conserves every query, and a second
/// run of the same script reproduces the whole report (the coordinator
/// counters included) bit for bit.
#[test]
fn elastic_churn_reproduces_bit_for_bit() {
    let models = compiled_models(&CHURN_MIX);
    for router in [RouterKind::LeastOutstanding, RouterKind::InterferenceAware] {
        for seed in [13, 59] {
            let reference = churn_run(churn_fleet(&models, router), seed);
            // Exactly the manual drain (the floor blocks autoscaler
            // scale-in), exactly the crash plus the manual kill, and at
            // least the manual join on the add side.
            assert_eq!(reference.coordinator.nodes_drained, 1);
            assert_eq!(reference.coordinator.nodes_killed, 2);
            assert!(reference.coordinator.nodes_added >= 1);
            assert_eq!(
                reference.merged.total_queries() as u64 + reference.shed,
                reference.submitted,
                "router={}: queries leaked under churn",
                router.name()
            );
            let again = churn_run(churn_fleet(&models, router), seed);
            assert_eq!(
                again,
                reference,
                "router={} seed={seed}: a rerun of the churn script diverged",
                router.name()
            );
        }
    }
}

/// `inject_held` is the primitive deferral stands on: a query held above
/// the driver keeps its original arrival as the latency baseline, so the
/// measured latency (a) includes at least the full hold and (b) grows
/// monotonically — and by at least the delta — as the hold grows.
#[test]
fn inject_held_hold_time_is_monotonically_charged_into_latency() {
    let models = compiled_models(&PAIR);
    let machine = MachineConfig::threadripper_3990x();
    let mut rng = StdRng::seed_from_u64(0xad31_5511);
    let mut holds: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0f64..0.5)).collect();
    holds.push(0.0);
    holds.sort_by(f64::total_cmp);

    let mut prev: Option<(f64, f64)> = None; // (hold, avg latency)
    for &hold in &holds {
        let mut driver = Driver::open(
            &models,
            SimConfig::new(machine.clone(), Policy::VeltairFull),
        )
        .expect("valid profiles");
        driver.run_until(SimTime(hold)).expect("finite target");
        driver
            .inject_held(&QuerySpec {
                model: "mobilenet_v2".into(),
                arrival: SimTime(0.0),
            })
            .expect("registered model");
        driver.run_to_completion();
        let (report, _) = driver.finish();
        let avg = report.avg_latency_s("mobilenet_v2");
        assert!(
            avg >= hold - 1e-12,
            "hold {hold}: latency {avg} lost part of the hold"
        );
        if let Some((prev_hold, prev_avg)) = prev {
            assert!(
                avg >= prev_avg - 1e-12,
                "latency fell from {prev_avg} to {avg} as hold grew {prev_hold} -> {hold}"
            );
            // The service time is identical in every iteration (same
            // model, same empty machine), so the latency delta must be
            // exactly the hold delta.
            assert!(
                (avg - prev_avg - (hold - prev_hold)).abs() < 1e-9,
                "hold delta {} was not charged 1:1 into latency (got {})",
                hold - prev_hold,
                avg - prev_avg
            );
        }
        prev = Some((hold, avg));
    }
}
