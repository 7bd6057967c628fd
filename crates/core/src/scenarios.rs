//! A pinned scenario library: named, seeded, end-to-end cluster serving
//! situations with explicit SLO expectations.
//!
//! Each [`Scenario`] bundles everything a run needs — a fleet topology,
//! a trace-shaped workload, a [`FailurePlan`] (empty when nothing fails),
//! an optional [`ScalePolicy`], and a pinned seed — plus the
//! [`SloExpectation`] the run is asserted against. [`Scenario::run_with`]
//! opens the topology with [`Fleet::new`] behind least-outstanding
//! routing and admit-all admission, and attaches the plan, the posture
//! and the step mode to it. The library serves three purposes:
//!
//! 1. **Regression pins.** Every scenario is bit-deterministic for its
//!    seed under both [`StepMode`]s, so CI can assert whole-report
//!    equality and SLO floors release after release.
//! 2. **Capacity planning.** `examples/capacity_planning.rs` tabulates
//!    what-if outcomes (policies × scenarios) from the same definitions.
//! 3. **Vocabulary.** "Flash crowd" or "failover" mean exactly one
//!    reproducible thing in review discussions.
//!
//! The five pinned scenarios:
//!
//! | name | shape | exercises |
//! |------|-------|-----------|
//! | `steady` | flat Poisson at moderate load | the happy path |
//! | `diurnal` | day/night trace cycle + autoscaler | scale-out *and* scale-in |
//! | `flash-crowd` | 8× surge from near-idle | provisioning-delay lag |
//! | `failover` | node crash mid-run + autoscaler | re-routing and recovery |
//! | `rolling-upgrade` | staggered drains + replacement joins | graceful surrender |

use std::sync::OnceLock;

use veltair_cluster::{
    AdmissionKind, AutoscalerConfig, FailurePlan, Fleet, FleetReport, NodeSpec, RouterKind,
    ScalePolicy, StepMode,
};
use veltair_compiler::{compile_model, CompiledModel, CompilerOptions};
use veltair_sched::{Policy, WorkloadSpec};
use veltair_sim::MachineConfig;

/// What a scenario promises about its own outcome. Deliberately loose
/// bounds: these are regression rails ("failover still completes
/// everything"), not performance marketing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloExpectation {
    /// Minimum overall QoS satisfaction over completed queries, `0..=1`.
    pub min_satisfaction: f64,
    /// Every submitted query must resolve (completed or shed) — always
    /// true for these scenarios; pinned so conservation regressions trip
    /// a named scenario, not just a property test.
    pub all_resolved: bool,
    /// Minimum number of queries that must complete (shed ceiling,
    /// phrased as a floor).
    pub min_completed: u64,
}

/// A named, seeded, reproducible cluster serving situation.
///
/// The fleet definition is kept as its compiled models, its nodes, a
/// failure plan and a pinned autoscaling posture so what-if tools can
/// replay the *same* topology, workload, failures, and seed under a
/// different posture ([`run_with`](Scenario::run_with)) — that
/// comparison is the whole point of a capacity-planning table.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The scenario's stable name (used in tables, CI, and docs).
    pub name: &'static str,
    /// One-line description for tables.
    pub blurb: &'static str,
    /// The registry every node serves.
    pub models: Vec<CompiledModel>,
    /// The seed roster.
    pub nodes: Vec<NodeSpec>,
    /// The scripted crash/stall/drain schedule (empty = nothing fails).
    pub failures: FailurePlan,
    /// The pinned autoscaling posture (`None` = fixed fleet).
    pub scale: Option<ScalePolicy>,
    /// The offered workload.
    pub workload: WorkloadSpec,
    /// The pinned seed.
    pub seed: u64,
    /// What the run must deliver under the pinned posture.
    pub expect: SloExpectation,
}

impl Scenario {
    /// Runs the scenario to completion under its pinned posture.
    #[must_use]
    pub fn run(&self, step_mode: StepMode) -> FleetReport {
        self.run_with(self.scale.clone(), step_mode)
    }

    /// Runs the scenario's topology, workload, failures, and seed under
    /// an explicit autoscaling posture (`None` = fixed fleet) — the
    /// what-if entry point. Note [`SloExpectation`]s are pinned to the
    /// scenario's own posture; overridden runs are for comparison, not
    /// for [`check`](Scenario::check).
    #[must_use]
    pub fn run_with(&self, scale: Option<ScalePolicy>, step_mode: StepMode) -> FleetReport {
        let mut fleet = Fleet::new(
            &self.models,
            &self.nodes,
            RouterKind::LeastOutstanding.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("library scenarios are valid");
        fleet.set_step_mode(step_mode);
        fleet.set_failure_plan(self.failures.clone());
        if let Some(policy) = scale {
            fleet
                .set_scale_policy(policy)
                .expect("scale policy templates are valid nodes");
        }
        fleet
            .submit_stream(&self.workload, self.seed)
            .expect("scenario workloads serve registered models");
        fleet.finish()
    }

    /// Checks a report against the scenario's [`SloExpectation`],
    /// returning the violations as human-readable strings (empty = pass).
    #[must_use]
    pub fn check(&self, report: &FleetReport) -> Vec<String> {
        let mut violations = Vec::new();
        let sat = report.merged.overall_satisfaction();
        if sat < self.expect.min_satisfaction {
            violations.push(format!(
                "satisfaction {:.3} below the {:.3} floor",
                sat, self.expect.min_satisfaction
            ));
        }
        let completed = report.merged.total_queries() as u64;
        if self.expect.all_resolved && completed + report.shed != report.submitted {
            violations.push(format!(
                "unresolved queries: {completed} completed + {} shed != {} submitted",
                report.shed, report.submitted
            ));
        }
        if completed < self.expect.min_completed {
            violations.push(format!(
                "only {completed} completed, floor is {}",
                self.expect.min_completed
            ));
        }
        violations
    }
}

/// The standard scenario machine: every node (and every autoscaled
/// clone) is an 8-core desktop, small enough that the pinned workloads
/// actually stress it.
fn node_machine() -> MachineConfig {
    MachineConfig::desktop_8core()
}

fn node(name: &str) -> NodeSpec {
    NodeSpec::new(name, node_machine(), Policy::VeltairFull)
}

/// The one model every scenario serves: `mobilenet_v2`, compiled for
/// the standard machine once per process (compilation is deterministic,
/// so every scenario gets a copy of the same registry).
fn models() -> Vec<CompiledModel> {
    static MODELS: OnceLock<Vec<CompiledModel>> = OnceLock::new();
    MODELS
        .get_or_init(|| {
            vec![compile_model(
                &veltair_models::mobilenet_v2(),
                &node_machine(),
                &CompilerOptions::fast(),
            )]
        })
        .clone()
}

/// A seed roster of `n` standard nodes, `node-0` up.
fn nodes(n: usize) -> Vec<NodeSpec> {
    (0..n).map(|i| node(&format!("node-{i}"))).collect()
}

/// The default scale policy the elastic scenarios share: hysteresis
/// scaler, 0.25 s ticks, 0.5 s provisioning delay, growing from the
/// given floor up to `max` clones of the standard node.
#[must_use]
pub fn default_scale_policy(min_nodes: usize, max_nodes: usize) -> ScalePolicy {
    ScalePolicy::try_new(
        AutoscalerConfig::default(),
        node("auto"),
        min_nodes,
        max_nodes,
        0.25,
        0.5,
    )
    .expect("the library's default scale policy is valid")
}

/// `steady`: two nodes, flat Poisson at comfortable load. The happy-path
/// pin — high satisfaction, nothing shed, nothing elastic.
#[must_use]
pub fn steady() -> Scenario {
    Scenario {
        name: "steady",
        blurb: "flat Poisson, two nodes, comfortable load",
        models: models(),
        nodes: nodes(2),
        failures: FailurePlan::new(),
        scale: None,
        workload: WorkloadSpec::single("mobilenet_v2", 120.0, 360),
        seed: 11,
        expect: SloExpectation {
            min_satisfaction: 0.95,
            all_resolved: true,
            min_completed: 360,
        },
    }
}

/// `diurnal`: a day/night rate cycle (3 "days" of 2 s each, daytime at
/// 3× the nightly rate) over one seed node with an autoscaler. The pin
/// exercises both directions: scale-out into the day, scale-in through
/// the night.
#[must_use]
pub fn diurnal() -> Scenario {
    Scenario {
        name: "diurnal",
        blurb: "day/night trace cycle, autoscaler follows both ways",
        models: models(),
        nodes: nodes(1),
        failures: FailurePlan::new(),
        scale: Some(default_scale_policy(1, 4)),
        workload: WorkloadSpec::try_trace("mobilenet_v2", 90.0, 540, &[(1.0, 3.0), (1.0, 0.3)])
            .expect("valid trace"),
        seed: 23,
        expect: SloExpectation {
            min_satisfaction: 0.70,
            all_resolved: true,
            min_completed: 540,
        },
    }
}

/// `flash-crowd`: near-idle, then an 8× surge for one second, then calm.
/// The provisioning delay guarantees the surge front lands on cold
/// capacity — the pin is that the fleet absorbs it without losing
/// queries, not that it meets every deadline.
#[must_use]
pub fn flash_crowd() -> Scenario {
    Scenario {
        name: "flash-crowd",
        blurb: "8x surge onto near-idle capacity, autoscaler catches up",
        models: models(),
        nodes: nodes(1),
        failures: FailurePlan::new(),
        scale: Some(default_scale_policy(1, 6)),
        workload: WorkloadSpec::try_trace(
            "mobilenet_v2",
            60.0,
            480,
            &[(1.5, 0.5), (1.0, 8.0), (2.0, 0.5)],
        )
        .expect("valid trace"),
        seed: 37,
        expect: SloExpectation {
            min_satisfaction: 0.75,
            all_resolved: true,
            min_completed: 480,
        },
    }
}

/// `failover`: a two-node fleet loses one node mid-run; the autoscaler
/// detects the pressure on the survivor and provisions replacements.
/// Everything completes, and — asserted by `tests/scenarios.rs` against
/// the `run_with(None, ..)` baseline — with a better SLO outcome than
/// leaving the survivor on its own.
#[must_use]
pub fn failover() -> Scenario {
    // Node 1 crashes 0.8 s in, mid-stream: its queue and in-flight work
    // re-route to node 0, which is now alone against a rate sized for
    // two nodes — without replacements the survivor drowns.
    Scenario {
        name: "failover",
        blurb: "node crash mid-run, autoscaler provisions replacements",
        models: models(),
        nodes: nodes(2),
        failures: FailurePlan::new().try_crash(0.8, 1).expect("valid instant"),
        scale: Some(default_scale_policy(1, 4)),
        workload: WorkloadSpec::single("mobilenet_v2", 210.0, 630),
        seed: 41,
        expect: SloExpectation {
            min_satisfaction: 0.90,
            all_resolved: true,
            min_completed: 630,
        },
    }
}

/// `rolling-upgrade`: a three-node fleet drains one node at a time on a
/// stagger while replacement capacity joins via the autoscaler template.
/// Drains are graceful — in-flight work finishes on the old nodes — so
/// the pin is zero lost queries and a still-healthy SLO.
#[must_use]
pub fn rolling_upgrade() -> Scenario {
    Scenario {
        name: "rolling-upgrade",
        blurb: "staggered graceful drains with autoscaled replacements",
        models: models(),
        nodes: nodes(3),
        failures: FailurePlan::new()
            .try_drain(0.6, 0)
            .and_then(|p| p.try_drain(1.4, 1))
            .and_then(|p| p.try_drain(2.2, 2))
            .expect("valid instants"),
        // Pre-warmed replacements: zero provisioning delay, floor 2.
        scale: Some(
            ScalePolicy::try_new(
                AutoscalerConfig::default(),
                node("upgraded"),
                2,
                5,
                0.2,
                0.0,
            )
            .expect("valid policy"),
        ),
        workload: WorkloadSpec::single("mobilenet_v2", 150.0, 450),
        seed: 53,
        expect: SloExpectation {
            min_satisfaction: 0.90,
            all_resolved: true,
            min_completed: 450,
        },
    }
}

/// All five pinned scenarios, in documentation order.
#[must_use]
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        steady(),
        diurnal(),
        flash_crowd(),
        failover(),
        rolling_upgrade(),
    ]
}
