//! The pinned scenario library as a regression artifact.
//!
//! Three guarantees per scenario (`veltair_core::scenarios`):
//!
//! 1. **SLO pins** — each scenario meets its own [`SloExpectation`]
//!    (satisfaction floor, completion floor, nothing unresolved).
//! 2. **Bit-determinism under churn** — the full [`FleetReport`]
//!    (including lifecycle counters and node states) is identical across
//!    repeated runs, even though the scenarios crash, drain, provision,
//!    and re-route mid-run.
//! 3. **The failover demonstration** — the autoscaled failover scenario
//!    beats its fixed-fleet twin (same topology, crash, workload, and
//!    seed) by a real satisfaction margin, while both resolve every
//!    query.

use veltair::core::scenarios::{all_scenarios, failover};

#[test]
fn every_pinned_scenario_meets_its_slo_expectations() {
    for scenario in all_scenarios() {
        let report = scenario.run();
        let violations = scenario.check(&report);
        assert!(
            violations.is_empty(),
            "{}: {}",
            scenario.name,
            violations.join("; ")
        );
        // The expectation floors above are the contract; pin the
        // resolution arithmetic explicitly too so a counter regression
        // names the scenario that tripped it.
        assert_eq!(
            report.merged.total_queries() as u64 + report.shed,
            report.submitted,
            "{}: queries leaked",
            scenario.name
        );
    }
}

#[test]
fn scenarios_are_bit_deterministic_across_runs() {
    for scenario in all_scenarios() {
        let reference = scenario.run();
        assert_eq!(
            scenario.run(),
            reference,
            "{}: two runs diverged",
            scenario.name
        );
    }
}

#[test]
fn elastic_scenarios_actually_flex_the_fleet() {
    // The elastic scenarios must end with more roster slots than they
    // started with (the autoscaler provisioned) and their lifecycle
    // counters must reconcile with the terminal node states.
    for scenario in all_scenarios() {
        let report = scenario.run();
        let initial = scenario.nodes.len();
        if scenario.scale.is_some() {
            assert!(
                report.node_states.len() > initial,
                "{}: the autoscaler never provisioned (roster {} from {initial})",
                scenario.name,
                report.node_states.len()
            );
            assert_eq!(
                report.coordinator.nodes_added as usize,
                report.node_states.len() - initial,
                "{}: nodes_added does not match the roster growth",
                scenario.name
            );
        }
        let dead = report.dead_nodes() + report.draining_nodes();
        assert!(
            report.coordinator.nodes_killed + report.coordinator.nodes_drained >= dead as u64,
            "{}: lifecycle counters lost departures",
            scenario.name
        );
    }
}

#[test]
fn failover_autoscaler_beats_the_fixed_fleet_baseline() {
    let scenario = failover();
    let autoscaled = scenario.run();
    let baseline = scenario.run_with(None);

    // Both postures resolve everything — the crash loses no queries.
    for (label, report) in [("autoscaled", &autoscaled), ("baseline", &baseline)] {
        assert_eq!(
            report.merged.total_queries() as u64 + report.shed,
            report.submitted,
            "{label}: queries leaked across the crash"
        );
        assert_eq!(report.dead_nodes(), 1, "{label}: the crash did not land");
    }

    // The recovery demonstration: replacements beat a lone survivor by a
    // real margin.
    let with = autoscaled.merged.overall_satisfaction();
    let without = baseline.merged.overall_satisfaction();
    assert!(
        with >= without + 0.05,
        "autoscaled failover ({with:.3}) did not beat the fixed fleet ({without:.3})"
    );
    assert!(
        autoscaled.node_states.len() > baseline.node_states.len(),
        "the autoscaler provisioned no replacements"
    );
}

#[test]
fn scenario_library_names_are_stable() {
    // The names are public API (tables, CI logs, docs); renaming one is
    // a breaking change that should be deliberate.
    let names: Vec<&str> = all_scenarios().iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        [
            "steady",
            "diurnal",
            "flash-crowd",
            "failover",
            "rolling-upgrade"
        ]
    );
}
