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
//!   least the added hold.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair::cluster::{AdmissionController, AdmissionDecision, DEFER_HARD_CAP};
use veltair::prelude::*;

fn compiled_models() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();
    ["mobilenet_v2", "tiny_yolo_v2"]
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
/// query, every time, ignoring the `attempts` counter.
#[derive(Debug)]
struct AlwaysDefer;

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
        AdmissionDecision::Defer { delay_s: 0.01 }
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
    let models = compiled_models();
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
/// it is enforced per query, not globally.
#[test]
fn always_defer_hits_the_hard_cap_exactly_then_sheds() {
    let models = compiled_models();
    let nodes = [NodeSpec::new(
        "solo",
        MachineConfig::threadripper_3990x(),
        Policy::VeltairFull,
    )];
    let queries = 7usize;
    let mut fleet = Fleet::new(
        &models,
        &nodes,
        RouterKind::RoundRobin.build(),
        Box::new(AlwaysDefer),
    )
    .expect("valid fleet");
    fleet
        .submit_stream(&WorkloadSpec::single("mobilenet_v2", 50.0, queries), 3)
        .expect("registered");
    fleet.run_to_completion();
    let report = fleet.finish();
    assert_eq!(report.shed as usize, queries, "every query must be shed");
    assert_eq!(report.merged.total_queries(), 0, "nothing should be served");
    assert_eq!(
        report.deferrals,
        u64::from(DEFER_HARD_CAP) * queries as u64,
        "each query should burn exactly the hard cap in deferrals"
    );
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
    let models = compiled_models();
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

/// `inject_held` is the primitive deferral stands on: a query held above
/// the driver keeps its original arrival as the latency baseline, so the
/// measured latency (a) includes at least the full hold and (b) grows
/// monotonically — and by at least the delta — as the hold grows.
#[test]
fn inject_held_hold_time_is_monotonically_charged_into_latency() {
    let models = compiled_models();
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
