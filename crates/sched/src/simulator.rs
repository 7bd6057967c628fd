//! The serving simulator's configuration and batch entry point
//! (Algorithm 3).
//!
//! The actual machinery lives in the [`runtime`](crate::runtime) module
//! family: one discrete-event loop that dispatches by policy family —
//! spatial layer-block sharing, temporal PREMA/AI-MT multiplexing, and
//! Parties partitioning — and reads the oracle or the counter-proxy
//! monitor that [`SimConfig::proxy`] selects. This module holds
//! [`SimConfig`] and [`simulate`], which runs a closed workload on a
//! [`Driver`] to completion.

use veltair_compiler::{CompiledModel, HysteresisConfig};
use veltair_proxy::InterferenceProxy;
use veltair_sim::MachineConfig;

use crate::policy::Policy;
use crate::report::ServingReport;
use crate::runtime::{Driver, ProjectionConfig, SimError};
use crate::workload::QuerySpec;

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine to serve on.
    pub machine: MachineConfig,
    /// The scheduling/compilation policy.
    pub policy: Policy,
    /// The interference monitor. `None` uses the oracle (true co-runner
    /// pressure); `Some` uses the trained counter proxy, as deployed.
    pub proxy: Option<InterferenceProxy>,
    /// Record `(time, busy cores)` samples, returned by
    /// [`Driver::finish`]. No figure reads them: Fig. 10 reports the
    /// report's `avg_cores` and `peak_cores`, which accumulate either
    /// way.
    pub record_alloc_trace: bool,
    /// The parameters of the runtime's version selector, the
    /// [`HysteresisLadder`](veltair_compiler::HysteresisLadder) that
    /// adaptive-compilation policies (`VeltairAc` / `VeltairFull`)
    /// consult, planning on the *projected* pressure. The default is its
    /// calibrated operating point ([`HysteresisConfig::default`]).
    /// Non-adaptive policies always run solo-optimal code and ignore
    /// this field.
    pub selector: HysteresisConfig,
    /// The predictive pressure projection applied at every planning
    /// decision (see [`ProjectionConfig`]): queued backlog beyond what
    /// free cores plus the imminent drain can absorb lifts the planning
    /// level toward saturation. Affects only selectors that consult the
    /// projected reading; a zero weight (`ProjectionConfig::try_new(0.0)`)
    /// restores the purely instantaneous monitor.
    pub projection: ProjectionConfig,
}

impl SimConfig {
    /// Default configuration for a policy on a machine (oracle monitor).
    #[must_use]
    pub fn new(machine: MachineConfig, policy: Policy) -> Self {
        Self {
            machine,
            policy,
            proxy: None,
            record_alloc_trace: false,
            selector: HysteresisConfig::default(),
            projection: ProjectionConfig::default(),
        }
    }

    /// Uses a trained interference proxy instead of the oracle monitor.
    #[must_use]
    pub fn with_proxy(mut self, proxy: InterferenceProxy) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// Overrides the version selector's parameters (default: the
    /// calibrated [`HysteresisConfig::default`]). Only
    /// adaptive-compilation policies consult the selector.
    #[must_use]
    pub fn with_selector(mut self, selector: HysteresisConfig) -> Self {
        self.selector = selector;
        self
    }

    /// Overrides the predictive pressure projection (default:
    /// [`ProjectionConfig::default`]; a zero weight
    /// (`ProjectionConfig::try_new(0.0)`) restores the purely
    /// instantaneous monitor).
    #[must_use]
    pub fn with_projection(mut self, projection: ProjectionConfig) -> Self {
        self.projection = projection;
        self
    }

    /// Checks that this configuration can be simulated, so no rating or
    /// projection meets a value it cannot handle. Every
    /// [`Driver`] checks its configuration with this when it is built.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the machine fails
    /// [`MachineConfig::validate`], the projection weight is outside
    /// what [`ProjectionConfig::try_new`] accepts, or the selector's
    /// parameters are outside what [`HysteresisConfig::try_new`]
    /// accepts.
    pub fn validate(&self) -> Result<(), SimError> {
        self.machine
            .validate()
            .map_err(|reason| SimError::InvalidConfig {
                reason: format!("machine: {reason}"),
            })?;
        ProjectionConfig::try_new(self.projection.saturation_weight).map_err(|e| {
            SimError::InvalidConfig {
                reason: e.to_string(),
            }
        })?;
        HysteresisConfig::try_new(self.selector.alpha, self.selector.hysteresis).map_err(|e| {
            SimError::InvalidConfig {
                reason: format!("selector: {e}"),
            }
        })?;
        Ok(())
    }
}

/// Runs the serving simulation to completion: [`Driver::new`], then
/// [`Driver::run_to_completion`], then the report of
/// [`Driver::finish`]. Stepping a driver by hand gives a bit-identical
/// report.
///
/// # Errors
///
/// Returns [`SimError::EmptyWorkload`] if `queries` is empty,
/// [`SimError::InvalidConfig`] if the machine, the projection weight or
/// the selector's parameters cannot be simulated or a model's QoS target
/// is not positive and finite,
/// [`SimError::InvalidProfile`] if a compiled kernel profile is invalid,
/// [`SimError::UnknownModel`] if a query references a model that was not
/// compiled, and [`SimError::NonFiniteArrival`] if a query's arrival time
/// is NaN or infinite.
pub fn simulate(
    models: &[CompiledModel],
    queries: &[QuerySpec],
    cfg: &SimConfig,
) -> Result<ServingReport, SimError> {
    let mut driver = Driver::new(models, queries, cfg.clone())?;
    driver.run_to_completion();
    Ok(driver.finish().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sim::SimTime;

    fn compiled_mobilenet() -> Vec<CompiledModel> {
        let machine = MachineConfig::threadripper_3990x();
        vec![compile_model(
            &veltair_models::mobilenet_v2(),
            &machine,
            &CompilerOptions::fast(),
        )]
    }

    fn run(policy: Policy, qps: f64, n: usize) -> ServingReport {
        let models = compiled_mobilenet();
        let queries = WorkloadSpec::single("mobilenet_v2", qps, n).generate(42);
        simulate(
            &models,
            &queries,
            &SimConfig::new(MachineConfig::threadripper_3990x(), policy),
        )
        .expect("valid workload")
    }

    #[test]
    fn all_queries_complete_under_light_load() {
        for policy in [
            Policy::ModelFcfs,
            Policy::Planaria,
            Policy::Prema,
            Policy::FixedBlock(6),
            Policy::VeltairAs,
            Policy::VeltairAc,
            Policy::VeltairFull,
        ] {
            let report = run(policy, 20.0, 50);
            assert_eq!(report.total_queries(), 50, "{} lost queries", policy.name());
            assert!(
                report.qos_satisfaction("mobilenet_v2") > 0.9,
                "{} satisfaction {}",
                policy.name(),
                report.qos_satisfaction("mobilenet_v2")
            );
        }
    }

    #[test]
    fn satisfaction_degrades_with_load() {
        let light = run(Policy::VeltairFull, 20.0, 80);
        let crushing = run(Policy::VeltairFull, 2000.0, 80);
        assert!(crushing.overall_satisfaction() <= light.overall_satisfaction());
        assert!(crushing.overall_avg_latency_s() > light.overall_avg_latency_s());
        // Overload degrades gracefully: everything still completes.
        assert_eq!(crushing.total_queries(), 80);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run(Policy::VeltairFull, 120.0, 60);
        let b = run(Policy::VeltairFull, 120.0, 60);
        assert_eq!(a, b);
    }

    #[test]
    fn conflicts_rise_with_load_for_layer_wise() {
        let low = run(Policy::Planaria, 30.0, 80);
        let high = run(Policy::Planaria, 600.0, 80);
        assert!(
            high.conflict_rate() >= low.conflict_rate(),
            "conflict rate fell: {} -> {}",
            low.conflict_rate(),
            high.conflict_rate()
        );
    }

    #[test]
    fn core_accounting_is_consistent() {
        let r = run(Policy::VeltairFull, 100.0, 60);
        assert!(r.peak_cores <= 64);
        assert!(r.core_seconds > 0.0);
        assert!(r.avg_cores <= 64.0);
        assert!(r.makespan_s > 0.0);
    }

    #[test]
    fn prema_serializes_tenants() {
        // PREMA runs one tenant at a time on all cores: its peak usage is
        // the whole machine and its conflicts are zero.
        let r = run(Policy::Prema, 200.0, 40);
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.peak_cores, 64);
    }

    #[test]
    fn aimt_multiplexes_at_layer_granularity() {
        // AI-MT time-multiplexes the whole machine one layer at a time:
        // peak usage is the full machine and dispatches count layers.
        let r = run(Policy::AiMt, 150.0, 30);
        assert_eq!(r.total_queries(), 30);
        assert_eq!(r.peak_cores, 64);
        assert_eq!(r.conflicts, 0, "temporal multiplexing never conflicts");
        let layers = compiled_mobilenet()[0].layers.len() as u64;
        assert_eq!(
            r.dispatches,
            30 * layers,
            "one dispatch per layer per query"
        );
    }

    #[test]
    fn aimt_interleaves_tenants_fairly() {
        // Two queries arriving together make progress in lockstep under
        // AI-MT's round-robin, so their latencies are close — unlike
        // PREMA, which runs the higher-priority one to completion.
        let models = compiled_mobilenet();
        let queries = vec![
            crate::workload::QuerySpec {
                model: "mobilenet_v2".into(),
                arrival: SimTime(0.0),
            },
            crate::workload::QuerySpec {
                model: "mobilenet_v2".into(),
                arrival: SimTime(1e-6),
            },
        ];
        let r = simulate(
            &models,
            &queries,
            &SimConfig::new(MachineConfig::threadripper_3990x(), Policy::AiMt),
        )
        .expect("valid workload");
        let stats = &r.per_model["mobilenet_v2"];
        let avg = stats.avg_latency_s();
        assert!(
            stats.latency_max_s < 1.2 * avg,
            "round-robin latencies should be close: max {} vs avg {}",
            stats.latency_max_s,
            avg
        );
    }

    #[test]
    fn parties_partitions_isolate_tenants() {
        // A heavy tenant flood must not starve a light tenant with its own
        // partition: the light tenant's satisfaction stays high even when
        // the heavy one is far beyond capacity.
        let machine = MachineConfig::threadripper_3990x();
        let models = vec![
            compile_model(
                &veltair_models::mobilenet_v2(),
                &machine,
                &CompilerOptions::fast(),
            ),
            compile_model(
                &veltair_models::resnet50(),
                &machine,
                &CompilerOptions::fast(),
            ),
        ];
        let mut queries =
            crate::workload::WorkloadSpec::single("resnet50", 2000.0, 120).generate(3);
        queries.extend(crate::workload::WorkloadSpec::single("mobilenet_v2", 40.0, 40).generate(4));
        queries.sort_by_key(|a| a.arrival);
        let r = simulate(&models, &queries, &SimConfig::new(machine, Policy::Parties))
            .expect("valid workload");
        assert_eq!(r.total_queries(), 160);
        assert!(
            r.qos_satisfaction("mobilenet_v2") > 0.9,
            "partitioned light tenant starved: {}",
            r.qos_satisfaction("mobilenet_v2")
        );
        assert!(
            r.qos_satisfaction("resnet50") < 0.5,
            "the flood should be underwater"
        );
    }

    #[test]
    fn parties_never_exceeds_machine_cores() {
        let r = run(Policy::Parties, 400.0, 60);
        assert!(r.peak_cores <= 64);
        assert_eq!(r.total_queries(), 60);
    }
}
