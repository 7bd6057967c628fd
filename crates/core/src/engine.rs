//! The single-machine serving facade.
//!
//! [`ServingEngine`] — compile-once, serve-many. It holds one
//! [`SimConfig`] (machine, policy, interference monitor, version
//! selector, pressure projection) and a registry of compiled models,
//! each carrying its own QoS target (`CompiledModel::qos_s`). It serves
//! batch runs ([`ServingEngine::run`] / [`ServingEngine::try_run`]) and
//! [`session`](ServingEngine::session), which opens the open-loop path
//! as a one-node [`Fleet`]: queries are [`submit`](Fleet::submit)ted
//! while the clock runs, completions are [`poll`](Fleet::poll)ed
//! incrementally, the policy is hot-swapped mid-stream
//! ([`set_policy`](Fleet::set_policy)), and [`snapshot`](Fleet::snapshot)
//! returns the `FleetReport` so far (per-model QoS/latency statistics
//! included) without stopping the run.

use veltair_cluster::{AdmissionKind, ClusterError, Fleet, NodeSpec, RouterKind};
use veltair_compiler::{CompiledModel, HysteresisConfig};
use veltair_proxy::InterferenceProxy;
use veltair_sched::{simulate, Policy, ProjectionConfig, ServingReport, SimConfig, WorkloadSpec};
use veltair_sim::MachineConfig;

/// The name of a session's one node: its trace track and report row.
const SESSION_NODE: &str = "node-0";

/// Compile-once, serve-many facade: one machine's serving configuration
/// and the compiled model registry it serves.
///
/// ```
/// use veltair_core::{Policy, ServingEngine};
/// use veltair_compiler::{compile_model, CompilerOptions};
/// use veltair_sim::MachineConfig;
///
/// let machine = MachineConfig::threadripper_3990x();
/// let mut engine = ServingEngine::new(machine.clone(), Policy::VeltairFull);
/// let mut model = compile_model(
///     &veltair_models::mobilenet_v2(),
///     &machine,
///     &CompilerOptions::fast(),
/// );
/// model.qos_s = 0.05; // the SLO the run accounts against
/// engine.register(model);
/// assert_eq!(engine.models().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServingEngine {
    /// The configuration every run and session serves on.
    config: SimConfig,
    models: Vec<CompiledModel>,
}

impl ServingEngine {
    /// Creates an engine for a machine and scheduling policy, with the
    /// oracle monitor and the default selector and projection of
    /// [`SimConfig::new`].
    #[must_use]
    pub fn new(machine: MachineConfig, policy: Policy) -> Self {
        Self {
            config: SimConfig::new(machine, policy),
            models: Vec::new(),
        }
    }

    /// Registers a compiled model, replacing any previous model of the
    /// same name. The model's `qos_s` is the SLO its queries are
    /// accounted against.
    pub fn register(&mut self, model: CompiledModel) {
        self.models.retain(|m| m.name != model.name);
        self.models.push(model);
    }

    /// Installs a trained interference proxy (otherwise the engine
    /// monitors with the oracle pressure).
    pub fn set_proxy(&mut self, proxy: InterferenceProxy) {
        self.config.proxy = Some(proxy);
    }

    /// Changes the serving policy (models stay registered). Affects
    /// subsequent runs and sessions; a live session hot-swaps
    /// independently via [`Fleet::set_policy`].
    pub fn set_policy(&mut self, policy: Policy) {
        self.config.policy = policy;
    }

    /// Changes the parameters of the runtime's version selector, the
    /// [`HysteresisLadder`](veltair_compiler::HysteresisLadder). Affects
    /// subsequent runs and sessions.
    pub fn set_selector(&mut self, selector: HysteresisConfig) {
        self.config.selector = selector;
    }

    /// Changes the predictive pressure projection. Affects subsequent
    /// runs and sessions.
    pub fn set_projection(&mut self, projection: ProjectionConfig) {
        self.config.projection = projection;
    }

    /// The engine's predictive pressure projection.
    #[must_use]
    pub fn projection(&self) -> ProjectionConfig {
        self.config.projection
    }

    /// The parameters of the engine's version selector.
    #[must_use]
    pub fn selector(&self) -> HysteresisConfig {
        self.config.selector
    }

    /// The registered models.
    #[must_use]
    pub fn models(&self) -> &[CompiledModel] {
        &self.models
    }

    /// The machine this engine serves on.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.config.machine
    }

    /// The engine's current policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.config.policy
    }

    /// The configuration every run serves on, proxy included.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Serves a workload's query stream and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the workload references unregistered models; use
    /// [`ServingEngine::try_run`] to handle invalid input gracefully.
    #[must_use]
    pub fn run(&self, workload: &WorkloadSpec, seed: u64) -> ServingReport {
        self.try_run(workload, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serves a workload's query stream through [`simulate`], surfacing
    /// invalid input as a typed [`ClusterError`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownModel`] if the workload references
    /// unregistered models, [`ClusterError::InvalidConfig`] if the
    /// machine, the projection weight or the selector's parameters cannot
    /// be simulated or a registered model's QoS target is not positive
    /// and finite,
    /// [`ClusterError::InvalidProfile`] if a registered model carries an
    /// invalid kernel profile,
    /// [`ClusterError::NonFiniteArrival`] if a stream rate makes an
    /// arrival time NaN or infinite, and [`ClusterError::EmptyWorkload`]
    /// if it generates no queries.
    pub fn try_run(
        &self,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Result<ServingReport, ClusterError> {
        let queries = workload.generate(seed);
        Ok(simulate(&self.models, &queries, &self.config)?)
    }

    /// Opens a resumable serving session: a [`Fleet`] of one node named
    /// `node-0`, serving this engine's registry on its configuration
    /// behind round-robin routing and admit-all admission. It accepts
    /// arrivals, policy changes ([`Fleet::set_policy`] on node 0), and
    /// snapshot reads while the clock runs. Fed a workload's arrivals
    /// and finished without a pause, its `FleetReport::merged` is
    /// [`run`](ServingEngine::run)'s report bit for bit. The session
    /// borrows the engine's models; the engine itself stays immutable.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoModels`] if no model is registered,
    /// [`ClusterError::InvalidConfig`] if the machine, the projection
    /// weight or the selector's parameters cannot be simulated or a
    /// registered model's QoS target is not positive and finite, and
    /// [`ClusterError::InvalidProfile`] if a registered model carries an
    /// invalid kernel profile.
    pub fn session(&self) -> Result<Fleet<'_>, ClusterError> {
        let node = NodeSpec {
            name: SESSION_NODE.to_string(),
            config: self.config.clone(),
        };
        Fleet::new(
            &self.models,
            std::slice::from_ref(&node),
            RouterKind::RoundRobin.build(),
            AdmissionKind::AdmitAll.build(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sched::QuerySpec;
    use veltair_sim::SimTime;

    fn engine() -> ServingEngine {
        let machine = MachineConfig::threadripper_3990x();
        let mut e = ServingEngine::new(machine.clone(), Policy::VeltairFull);
        e.register(compile_model(
            &veltair_models::tiny_yolo_v2(),
            &machine,
            &CompilerOptions::fast(),
        ));
        e
    }

    fn query(model: &str, at_s: f64) -> QuerySpec {
        QuerySpec {
            model: model.into(),
            arrival: SimTime(at_s),
        }
    }

    #[test]
    fn engine_round_trip() {
        let e = engine();
        let r = e.run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 40), 1);
        assert_eq!(r.total_queries(), 40);
        assert!(r.qos_satisfaction("tiny_yolo_v2") > 0.8);
    }

    #[test]
    fn register_replaces_same_name() {
        let mut e = engine();
        let n = e.models().len();
        let machine = e.machine().clone();
        e.register(compile_model(
            &veltair_models::tiny_yolo_v2(),
            &machine,
            &CompilerOptions::fast(),
        ));
        assert_eq!(e.models().len(), n);
    }

    #[test]
    fn policy_swap_changes_behaviour() {
        let mut e = engine();
        let full = e.run(&WorkloadSpec::single("tiny_yolo_v2", 400.0, 60), 2);
        e.set_policy(Policy::Prema);
        let prema = e.run(&WorkloadSpec::single("tiny_yolo_v2", 400.0, 60), 2);
        assert_ne!(full, prema);
    }

    #[test]
    fn try_run_surfaces_typed_errors() {
        let e = engine();
        assert_eq!(
            e.try_run(&WorkloadSpec::single("resnet50", 10.0, 5), 1),
            Err(ClusterError::UnknownModel {
                model: "resnet50".into()
            })
        );
        // A NaN rate yields NaN arrivals: a typed error, not a panic.
        let nan_rate = WorkloadSpec::single("tiny_yolo_v2", 10.0, 5).scaled_to(f64::NAN);
        assert!(matches!(
            e.try_run(&nan_rate, 1),
            Err(ClusterError::NonFiniteArrival { .. })
        ));
        let ok = e
            .try_run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 10), 1)
            .expect("valid");
        assert_eq!(ok.total_queries(), 10);

        // A machine, projection weight or selector that cannot be
        // simulated: a typed error, not a panic, a run that silently
        // completes nothing, or one that silently runs other parameters.
        let workload = WorkloadSpec::single("tiny_yolo_v2", 30.0, 20);
        let broken_machines: [fn(&mut MachineConfig); 5] = [
            |m| m.l3_bytes = f64::NAN,
            |m| m.dram_bw = 0.0,
            |m| m.freq_ghz = -1.0,
            |m| m.dispatch_overhead_s = f64::NAN,
            |m| m.cores = 0,
        ];
        let mut broken = Vec::new();
        for edit in broken_machines {
            let mut machine = e.machine().clone();
            edit(&mut machine);
            let mut bad = ServingEngine::new(machine, Policy::VeltairFull);
            bad.register(e.models()[0].clone());
            broken.push(bad);
        }
        for weight in [f64::NAN, 2.0, -1.0, f64::INFINITY] {
            let mut bad = engine();
            bad.set_projection(ProjectionConfig {
                saturation_weight: weight,
            });
            broken.push(bad);
        }
        for (alpha, hysteresis) in [(5.0, 0.1), (0.25, f64::NAN), (0.25, -0.1)] {
            let mut bad = engine();
            bad.set_selector(HysteresisConfig { alpha, hysteresis });
            broken.push(bad);
        }
        for bad in &broken {
            assert!(
                matches!(
                    bad.try_run(&workload, 1),
                    Err(ClusterError::InvalidConfig { .. })
                ),
                "{:?} / {:?} / {:?}",
                bad.machine(),
                bad.projection(),
                bad.selector()
            );
            assert!(matches!(
                bad.session().err(),
                Some(ClusterError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn invalid_kernel_profiles_surface_as_typed_errors() {
        let machine = MachineConfig::threadripper_3990x();
        let mut model = compile_model(
            &veltair_models::tiny_yolo_v2(),
            &machine,
            &CompilerOptions::fast(),
        );
        model.layers[1].versions[0].profile.compute_efficiency = 0.0;
        let mut e = ServingEngine::new(machine, Policy::VeltairFull);
        e.register(model);
        let expected = ClusterError::InvalidProfile {
            model: "tiny_yolo_v2".into(),
            layer: 1,
            version: 0,
            reason: "compute efficiency must be in (0,1], got 0".into(),
        };
        assert_eq!(
            e.try_run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 10), 1),
            Err(expected.clone())
        );
        assert_eq!(e.session().err(), Some(expected));
    }

    #[test]
    fn session_streams_polls_and_snapshots() {
        let e = engine();
        let mut s = e.session().expect("has models");
        assert!(s.poll().is_empty());
        let ids: Vec<u64> = (0..20)
            .map(|i| {
                s.submit(&query("tiny_yolo_v2", f64::from(i) * 0.01))
                    .expect("registered")
            })
            .collect();
        assert!(matches!(
            s.submit(&query("bert_large", 0.0)),
            Err(ClusterError::UnknownModel { .. })
        ));

        s.run_until(0.1).expect("finite target");
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 20);
        let completed = snap.merged.total_queries();
        assert!(completed <= 20);
        assert!((s.now_s() - 0.1).abs() < 1e-12);
        assert_eq!(snap.node_names, [SESSION_NODE]);
        let early = s.poll();
        assert_eq!(early.len(), completed);

        s.run_to_completion();
        let rest = s.poll();
        assert!(s.is_idle());
        // Every query is polled exactly once, under its submission id.
        let mut polled: Vec<u64> = early.iter().chain(&rest).map(|c| c.query).collect();
        polled.sort_unstable();
        assert_eq!(polled, ids);
        let report = s.finish();
        assert_eq!(report.merged.total_queries(), 20);
        // The poll stream and the report agree on QoS accounting.
        let satisfied = early.iter().chain(&rest).filter(|c| c.qos_met).count();
        assert_eq!(satisfied, report.merged.per_model["tiny_yolo_v2"].satisfied);
    }

    #[test]
    fn non_finite_arrivals_are_rejected_not_panicking() {
        let e = engine();
        let mut s = e.session().expect("has models");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    s.submit(&query("tiny_yolo_v2", bad)),
                    Err(ClusterError::NonFiniteArrival { arrival_s })
                        if arrival_s.to_bits() == bad.to_bits()
                ),
                "arrival {bad} was not rejected"
            );
        }
        assert_eq!(s.snapshot().submitted, 0);
        s.submit(&query("tiny_yolo_v2", 0.0))
            .expect("finite arrival");
        assert_eq!(s.finish().merged.total_queries(), 1);
    }

    #[test]
    fn session_batch_equivalence() {
        // A session fed a workload's exact arrival times reproduces the
        // batch run bit for bit.
        let e = engine();
        let w = WorkloadSpec::single("tiny_yolo_v2", 120.0, 30);
        let batch = e.run(&w, 5);
        let mut s = e.session().expect("has models");
        s.submit_stream(&w, 5).expect("valid stream");
        let report = s.finish();
        assert_eq!(report.per_node.len(), 1);
        assert_eq!(report.per_node[0], batch);
        assert_eq!(report.merged, batch);
    }

    #[test]
    fn session_policy_hot_swap_mid_run() {
        let e = engine();
        let run = |swap: bool| {
            let mut s = e.session().expect("has models");
            s.submit_stream(&WorkloadSpec::single("tiny_yolo_v2", 500.0, 40), 8)
                .expect("valid");
            s.run_until(0.05).expect("finite target");
            if swap {
                s.set_policy(0, Policy::Prema).expect("the session's node");
            }
            assert_eq!(
                s.set_policy(1, Policy::Prema),
                Err(ClusterError::UnknownNode { node: 1 })
            );
            s.submit_stream(&WorkloadSpec::single("tiny_yolo_v2", 500.0, 20), 9)
                .expect("valid");
            s.finish().merged
        };
        let swapped = run(true);
        assert_eq!(swapped.total_queries(), 60);
        assert!((0.0..=1.0).contains(&swapped.overall_satisfaction()));
        assert_ne!(swapped, run(false), "the swap had no effect");
    }

    #[test]
    fn empty_engine_cannot_open_sessions() {
        let e = ServingEngine::new(MachineConfig::threadripper_3990x(), Policy::VeltairFull);
        assert!(matches!(e.session(), Err(ClusterError::NoModels)));
    }
}
