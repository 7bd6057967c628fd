//! Scenario coverage for the runtime's dispatch: every `Policy` variant is
//! driven through the one event loop (the same path `ServingEngine::run`
//! takes) and must be deterministic, complete all queries, and deliver
//! non-trivial QoS satisfaction at a moderate load.

use veltair_compiler::{compile_model, CompilerOptions};
use veltair_sched::{simulate, Policy, SimConfig, WorkloadSpec};
use veltair_sim::MachineConfig;

/// Every policy in the table, covering all three dispatch families.
const ALL_POLICIES: [Policy; 9] = [
    Policy::ModelFcfs,
    Policy::Planaria,
    Policy::Prema,
    Policy::AiMt,
    Policy::Parties,
    Policy::FixedBlock(6),
    Policy::VeltairAs,
    Policy::VeltairAc,
    Policy::VeltairFull,
];

fn compiled(names: &[&str]) -> Vec<veltair_compiler::CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    names
        .iter()
        .map(|n| {
            compile_model(
                &veltair_models::by_name(n).expect("zoo"),
                &machine,
                &CompilerOptions::fast(),
            )
        })
        .collect()
}

#[test]
fn every_policy_is_deterministic_and_satisfies_qos_through_the_runtime() {
    let machine = MachineConfig::threadripper_3990x();
    let models = compiled(&["mobilenet_v2", "resnet50"]);
    let workload = WorkloadSpec::mix(&[("mobilenet_v2", 20.0), ("resnet50", 10.0)], 60);
    let queries = workload.generate(42);
    for policy in ALL_POLICIES {
        let cfg = SimConfig::new(machine.clone(), policy);
        let run = || simulate(&models, &queries, &cfg).expect("valid workload");
        let a = run();
        let b = run();
        assert_eq!(
            a,
            b,
            "{} must be deterministic (same seed, same report)",
            policy.name()
        );
        assert_eq!(a.total_queries(), 60, "{} lost queries", policy.name());
        assert!(
            a.overall_satisfaction() > 0.8,
            "{} satisfaction {:.2} is trivial at light load",
            policy.name(),
            a.overall_satisfaction()
        );
        assert!(a.dispatches > 0 && a.makespan_s > 0.0);
    }
}

#[test]
fn preemptions_only_occur_under_temporal_dispatchers() {
    let machine = MachineConfig::threadripper_3990x();
    let models = compiled(&["resnet50", "mobilenet_v2"]);
    let queries = WorkloadSpec::mix(&[("resnet50", 60.0), ("mobilenet_v2", 120.0)], 80).generate(7);
    for policy in ALL_POLICIES {
        let cfg = SimConfig::new(machine.clone(), policy);
        let r = simulate(&models, &queries, &cfg).expect("valid workload");
        if !policy.is_temporal() {
            assert_eq!(r.preemptions, 0, "{} must never preempt", policy.name());
        }
        if policy.is_temporal() || policy.is_partitioned() {
            continue;
        }
        // Spatial families never exceed the machine.
        assert!(r.peak_cores <= machine.cores);
    }
}
