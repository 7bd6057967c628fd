//! Capacity planning: how many queries per second can a tenant mix
//! sustain at 95 % QoS, what does each scheduling policy cost you, and
//! how does each autoscaling posture fare against the pinned scenario
//! library?
//!
//! Two tables:
//!
//! 1. **Single-machine capacity** — compiles three tenant mixes (light,
//!    medium, and the paper's inverse-QoS mix), bisects the maximum QPS
//!    at the 95 % target for each policy.
//! 2. **Fleet what-if** — replays every pinned scenario
//!    (`veltair_core::scenarios`) under three autoscaling postures
//!    (none / default hysteresis / aggressive) and tabulates
//!    satisfaction, shed, peak fleet size, and re-routes. This is the
//!    elastic-fleet planning view: what a crash, a flash crowd, or a
//!    diurnal cycle costs under each posture.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use veltair::core::scenarios;
use veltair::prelude::*;

fn main() {
    single_machine_capacity();
    fleet_what_if();
}

fn single_machine_capacity() {
    let machine = MachineConfig::threadripper_3990x();
    let mixes: Vec<(&str, Vec<(&str, f64)>)> = vec![
        (
            "light",
            vec![("mobilenet_v2", 1.0), ("efficientnet_b0", 1.0)],
        ),
        ("medium", vec![("resnet50", 1.0), ("googlenet", 1.0)]),
        (
            "paper-mix",
            vec![
                ("mobilenet_v2", 1.0 / 10.0),
                ("tiny_yolo_v2", 1.0 / 10.0),
                ("resnet50", 1.0 / 15.0),
                ("bert_large", 1.0 / 130.0),
            ],
        ),
    ];
    let policies = [
        Policy::Planaria,
        Policy::Prema,
        Policy::VeltairAs,
        Policy::VeltairFull,
    ];
    let cfg = QpsSearchConfig {
        queries: 200,
        seed: 7,
        iterations: 6,
        satisfaction_target: 0.95,
    };

    println!(
        "{:<10} {:>14} {:>12} {:>14}",
        "mix", "policy", "max QPS", "latency (ms)"
    );
    for (label, streams) in &mixes {
        // Compile every model of the mix once.
        let names: Vec<&str> = streams.iter().map(|(n, _)| *n).collect();
        let mut engines: Vec<(Policy, ServingEngine)> = Vec::new();
        for policy in policies {
            let mut e = ServingEngine::new(machine.clone(), policy);
            for n in &names {
                e.register(compile_model(
                    &by_name(n).expect("zoo model"),
                    &machine,
                    &CompilerOptions::fast(),
                ));
            }
            engines.push((policy, e));
        }
        let workload = WorkloadSpec::mix(streams, cfg.queries);
        for (policy, engine) in &engines {
            let result = max_qps_at_qos(engine, &workload, &cfg);
            println!(
                "{label:<10} {:>14} {:>12.0} {:>14.2}",
                policy.name(),
                result.qps,
                result.avg_latency_s * 1e3
            );
        }
        println!();
    }
}

/// An aggressive posture for the what-if comparison: single-tick streaks,
/// two nodes per action, faster ticks, half the provisioning delay.
fn aggressive_policy() -> ScalePolicy {
    let cfg = AutoscalerConfig::try_new(1.0, 0.25, 1, 2).expect("valid config");
    ScalePolicy::try_new(
        cfg,
        NodeSpec::new("surge", MachineConfig::desktop_8core(), Policy::VeltairFull),
        1,
        8,
        0.15,
        0.25,
    )
    .expect("valid policy")
}

fn fleet_what_if() {
    println!("== fleet what-if: pinned scenarios x autoscaling postures ==\n");
    println!(
        "{:<16} {:<12} {:>7} {:>10} {:>6} {:>9} {:>7} {:>6}",
        "scenario", "posture", "SLO %", "completed", "shed", "rerouted", "roster", "live"
    );
    for scenario in scenarios::all_scenarios() {
        let postures: [(&str, Option<ScalePolicy>); 3] = [
            ("pinned", scenario.scale.clone()),
            ("none", None),
            ("aggressive", Some(aggressive_policy())),
        ];
        for (label, posture) in postures {
            let report = scenario.run_with(posture);
            println!(
                "{:<16} {:<12} {:>7.1} {:>10} {:>6} {:>9} {:>7} {:>6}",
                scenario.name,
                label,
                report.merged.overall_satisfaction() * 100.0,
                report.merged.total_queries(),
                report.shed,
                report.rerouted,
                report.node_states.len(),
                report.live_nodes(),
            );
        }
        // The pinned posture must meet the scenario's own expectations.
        let pinned = scenario.run();
        for violation in scenario.check(&pinned) {
            println!("  !! {}: {}", scenario.name, violation);
        }
        println!();
    }
}
