//! The cluster serving facade: validated fleet construction over a
//! compile-once registry, the same engine → session → snapshot API as
//! the single machine's [`engine`](crate::engine), whose session is a
//! fleet of one.
//!
//! Two layers, from offline to online:
//!
//! * [`ClusterBuilder`] — validated construction: a shared compiled-model
//!   registry (each model carrying its own QoS target,
//!   `CompiledModel::qos_s`), N (possibly heterogeneous) [`NodeSpec`]s,
//!   a [`RouterKind`] and an [`AdmissionKind`].
//! * [`ClusterEngine`] — compile-once, serve-many: batch fleet runs
//!   ([`ClusterEngine::run`] / [`ClusterEngine::try_run`]) and
//!   [`session`](ClusterEngine::session), which opens a fresh [`Fleet`].
//!   `Clone`-able and immutable, like
//!   [`ServingEngine`](crate::ServingEngine).
//!
//! The open-loop path is the [`Fleet`] itself: queries are submitted
//! while the fleet clock runs, per-node load and pooled statistics are
//! read mid-run via [`Fleet::snapshot`], and [`Fleet::finish`] returns
//! the final [`FleetReport`]. Step mode, autoscaling, failure injection
//! and telemetry are set on the fleet ([`Fleet::set_step_mode`],
//! [`Fleet::set_scale_policy`], [`Fleet::set_failure_plan`],
//! [`Fleet::enable_telemetry`]) and nowhere else.

use veltair_cluster::{AdmissionKind, ClusterError, Fleet, FleetReport, NodeSpec, RouterKind};
use veltair_compiler::{machine_key, CompiledModel, CompilerOptions, CompilerService};
use veltair_models::ModelSpec;
use veltair_sched::WorkloadSpec;

/// Validated, fluent construction of a [`ClusterEngine`].
///
/// ```
/// use veltair_core::{ClusterEngine, NodeSpec, Policy, RouterKind};
/// use veltair_compiler::{compile_model, CompilerOptions};
/// use veltair_sim::MachineConfig;
///
/// let machine = MachineConfig::threadripper_3990x();
/// let engine = ClusterEngine::builder()
///     .model(compile_model(
///         &veltair_models::mobilenet_v2(),
///         &machine,
///         &CompilerOptions::fast(),
///     ))
///     .node(NodeSpec::new("big-0", machine.clone(), Policy::VeltairFull))
///     .node(NodeSpec::new("edge-0", MachineConfig::desktop_8core(), Policy::Prema))
///     .router(RouterKind::InterferenceAware)
///     .build()
///     .expect("valid cluster");
/// assert_eq!(engine.nodes().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    models: Vec<CompiledModel>,
    specs: Vec<ModelSpec>,
    compiler: CompilerOptions,
    nodes: Vec<NodeSpec>,
    router: RouterKind,
    admission: AdmissionKind,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self {
            models: Vec::new(),
            specs: Vec::new(),
            compiler: CompilerOptions::thorough(),
            nodes: Vec::new(),
            router: RouterKind::InterferenceAware,
            admission: AdmissionKind::AdmitAll,
        }
    }
}

impl ClusterBuilder {
    /// Registers a compiled model in the shared fleet registry, replacing
    /// any previous model of the same name. Every node serves this exact
    /// artifact regardless of its own machine — use
    /// [`compile`](ClusterBuilder::compile) for per-node compilation.
    #[must_use]
    pub fn model(mut self, model: CompiledModel) -> Self {
        self.models.retain(|m| m.name != model.name);
        self.specs.retain(|s| s.graph.name != model.name);
        self.models.push(model);
        self
    }

    /// Registers a model *spec* for per-node compilation: at
    /// [`build`](ClusterBuilder::build) time a
    /// [`CompilerService`] compiles it once per distinct node machine, so
    /// every fleet member serves code compiled for its own hardware
    /// (replacing any previously registered model or spec of the same
    /// name). Nodes sharing a machine configuration share one compilation
    /// — the service caches by (model, machine fingerprint).
    #[must_use]
    pub fn compile(mut self, spec: ModelSpec) -> Self {
        self.models.retain(|m| m.name != spec.graph.name);
        self.specs.retain(|s| s.graph.name != spec.graph.name);
        self.specs.push(spec);
        self
    }

    /// Sets the compiler options used for per-node compilation of the
    /// specs registered via [`compile`](ClusterBuilder::compile)
    /// (default: [`CompilerOptions::thorough`]).
    #[must_use]
    pub fn compiler_options(mut self, options: CompilerOptions) -> Self {
        self.compiler = options;
        self
    }

    /// Adds a fleet member. Nodes may differ in machine *and* policy.
    #[must_use]
    pub fn node(mut self, spec: NodeSpec) -> Self {
        self.nodes.push(spec);
        self
    }

    /// Sets the routing policy (default: interference-aware).
    #[must_use]
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Sets the admission policy (default: admit everything).
    #[must_use]
    pub fn admission(mut self, admission: AdmissionKind) -> Self {
        self.admission = admission;
        self
    }

    /// Finalizes the cluster engine, compiling every spec registered via
    /// [`compile`](ClusterBuilder::compile) once per distinct node
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoModels`] if no model or spec was
    /// registered, [`ClusterError::NoNodes`] if no node was added,
    /// and [`ClusterError::InvalidConfig`], naming the node, if a spec
    /// would be compiled for a node that fails [`NodeSpec::validate`].
    /// Compiled registries (their profiles and QoS targets) and the nodes
    /// serving pre-compiled registries are checked when a session opens.
    pub fn build(self) -> Result<ClusterEngine, ClusterError> {
        let Self {
            models,
            specs,
            compiler,
            nodes,
            router,
            admission,
        } = self;
        if models.is_empty() && specs.is_empty() {
            return Err(ClusterError::NoModels);
        }
        if nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }

        let (registries, node_registry) = if specs.is_empty() {
            // Shared-registry fleet: one registry, every node points at it.
            (vec![models], vec![0; nodes.len()])
        } else {
            // Per-node compilation: one registry per distinct machine
            // fingerprint (in first-seen node order), shared models cloned
            // in as-is and specs compiled for that machine through the
            // caching service.
            let mut service = CompilerService::new(compiler);
            let mut keys: Vec<String> = Vec::new();
            let mut registries: Vec<Vec<CompiledModel>> = Vec::new();
            let mut node_registry = Vec::with_capacity(nodes.len());
            for node in &nodes {
                let key = machine_key(&node.config.machine);
                let idx = match keys.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        node.validate()?;
                        let mut registry = models.clone();
                        for spec in &specs {
                            registry.push(service.compile(spec, &node.config.machine));
                        }
                        keys.push(key);
                        registries.push(registry);
                        registries.len() - 1
                    }
                };
                node_registry.push(idx);
            }
            (registries, node_registry)
        };

        Ok(ClusterEngine {
            registries,
            node_registry,
            nodes,
            router,
            admission,
        })
    }
}

/// Compile-once, serve-many fleet facade: the per-machine compiled
/// registries, the node specifications, and the routing/admission
/// configuration.
///
/// The engine is immutable and `Clone`; every [`session`] builds a fresh
/// [`Fleet`] with identical behaviour, which is what makes fleet runs
/// reproducible: same engine + same workload + same seed = bit-identical
/// [`FleetReport`].
///
/// [`session`]: ClusterEngine::session
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    /// One compiled registry per distinct node machine (a single shared
    /// registry when everything was registered pre-compiled).
    registries: Vec<Vec<CompiledModel>>,
    /// Registry index per fleet node.
    node_registry: Vec<usize>,
    nodes: Vec<NodeSpec>,
    router: RouterKind,
    admission: AdmissionKind,
}

impl ClusterEngine {
    /// Starts validated, fluent construction.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The fleet-level model catalog (the first node's registry):
    /// submissions are validated against these names and SLOs. With
    /// per-node compilation other nodes may serve different artifacts of
    /// the same models — see
    /// [`registry_for_node`](ClusterEngine::registry_for_node).
    #[must_use]
    pub fn models(&self) -> &[CompiledModel] {
        &self.registries[self.node_registry[0]]
    }

    /// The distinct per-machine compiled registries, in first-seen node
    /// order. A single-element slice means every node shares one
    /// registry.
    #[must_use]
    pub fn registries(&self) -> &[Vec<CompiledModel>] {
        &self.registries
    }

    /// The compiled registry a given fleet node serves from.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn registry_for_node(&self, node: usize) -> &[CompiledModel] {
        &self.registries[self.node_registry[node]]
    }

    /// Whether nodes serve per-machine compiled artifacts (true once
    /// [`ClusterBuilder::compile`] was used with heterogeneous machines).
    #[must_use]
    pub fn per_node_compilation(&self) -> bool {
        self.registries.len() > 1
    }

    /// The fleet members.
    #[must_use]
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The configured routing policy.
    #[must_use]
    pub fn router(&self) -> RouterKind {
        self.router
    }

    /// The configured admission policy.
    #[must_use]
    pub fn admission(&self) -> AdmissionKind {
        self.admission
    }

    /// Opens a resumable fleet over this engine's registries, nodes,
    /// router and admission controller, accepting arrivals and snapshot
    /// reads while the lockstep clock runs. The fleet starts sequential,
    /// fixed-size, failure-free and untraced; set those on it before
    /// submitting work. It borrows the engine's models; the engine itself
    /// stays immutable.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoModels`] / [`ClusterError::NoNodes`] if
    /// the engine was constructed without validation (both are unreachable
    /// through [`ClusterBuilder::build`]), [`ClusterError::InvalidConfig`]
    /// if a node's machine or projection weight cannot be simulated or a
    /// registered model's QoS target is not positive and finite, and
    /// [`ClusterError::InvalidProfile`] if a registered model carries an
    /// invalid kernel profile.
    pub fn session(&self) -> Result<Fleet<'_>, ClusterError> {
        let node_models: Vec<&[CompiledModel]> = self
            .node_registry
            .iter()
            .map(|&i| self.registries[i].as_slice())
            .collect();
        Fleet::with_node_registries(
            self.models(),
            node_models,
            &self.nodes,
            self.router.build(),
            self.admission.build(),
        )
    }

    /// Serves a workload's query stream across the fleet and returns the
    /// final report.
    ///
    /// # Panics
    ///
    /// Panics if the workload references unregistered models or a
    /// registered model carries an invalid kernel profile; use
    /// [`ClusterEngine::try_run`] to handle invalid input gracefully.
    #[must_use]
    pub fn run(&self, workload: &WorkloadSpec, seed: u64) -> FleetReport {
        self.try_run(workload, seed)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serves a workload's query stream across the fleet, surfacing
    /// invalid input as a typed [`ClusterError`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownModel`] if the workload references
    /// unregistered models, [`ClusterError::NonFiniteArrival`] if a stream
    /// rate makes an arrival time NaN or infinite,
    /// [`ClusterError::InvalidConfig`] if a node's machine or projection
    /// weight cannot be simulated or a registered model's QoS target is
    /// not positive and finite, and [`ClusterError::InvalidProfile`] if
    /// a registered model carries an invalid kernel profile.
    pub fn try_run(&self, workload: &WorkloadSpec, seed: u64) -> Result<FleetReport, ClusterError> {
        let mut fleet = self.session()?;
        fleet.submit_stream(workload, seed)?;
        Ok(fleet.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_cluster::{SloAdmissionConfig, StepMode};
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sched::{Policy, QuerySpec};
    use veltair_sim::{MachineConfig, SimTime};

    fn compiled(name: &str) -> CompiledModel {
        let machine = MachineConfig::threadripper_3990x();
        compile_model(
            &veltair_models::by_name(name).expect("zoo model"),
            &machine,
            &CompilerOptions::fast(),
        )
    }

    fn two_node_engine() -> ClusterEngine {
        ClusterEngine::builder()
            .model(compiled("mobilenet_v2"))
            .node(NodeSpec::new(
                "big-0",
                MachineConfig::threadripper_3990x(),
                Policy::VeltairFull,
            ))
            .node(NodeSpec::new(
                "edge-0",
                MachineConfig::desktop_8core(),
                Policy::Prema,
            ))
            .router(RouterKind::LeastOutstanding)
            .build()
            .expect("valid cluster")
    }

    #[test]
    fn builder_validates_models_nodes_and_slos() {
        assert_eq!(
            ClusterEngine::builder().build().unwrap_err(),
            ClusterError::NoModels
        );
        assert_eq!(
            ClusterEngine::builder()
                .model(compiled("mobilenet_v2"))
                .build()
                .unwrap_err(),
            ClusterError::NoNodes
        );
        // Every distinct node machine is validated before a spec is
        // compiled for it, so one that cannot be simulated is a typed
        // error naming the node, not a compiler panic or an artifact that
        // fails only when a session opens.
        let broken: [fn(&mut MachineConfig); 2] = [|m| m.cores = 0, |m| m.l3_bytes = f64::NAN];
        for edit in broken {
            let mut edge = NodeSpec::new("edge-0", MachineConfig::desktop_8core(), Policy::Prema);
            edit(&mut edge.config.machine);
            let built = ClusterEngine::builder()
                .compile(veltair_models::tiny_yolo_v2())
                .compiler_options(CompilerOptions::fast())
                .node(NodeSpec::new(
                    "big-0",
                    MachineConfig::threadripper_3990x(),
                    Policy::VeltairFull,
                ))
                .node(edge)
                .build();
            assert!(
                matches!(
                    built,
                    Err(ClusterError::InvalidConfig { ref reason }) if reason.starts_with("node edge-0: ")
                ),
                "{built:?}"
            );
        }
        // A model's SLO is its own QoS target, served as registered.
        let mut model = compiled("mobilenet_v2");
        model.qos_s = 0.2;
        let e = ClusterEngine::builder()
            .model(model)
            .node(NodeSpec::new(
                "n",
                MachineConfig::threadripper_3990x(),
                Policy::VeltairFull,
            ))
            .build()
            .expect("valid");
        assert!((e.models()[0].qos_s - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cluster_run_serves_every_query_without_admission_control() {
        let e = two_node_engine();
        let w = WorkloadSpec::single("mobilenet_v2", 80.0, 60);
        let report = e.run(&w, 3);
        assert_eq!(report.shed, 0);
        assert_eq!(report.merged.total_queries(), 60);
        assert_eq!(report.per_node.len(), 2);
        assert_eq!(report.routed_per_node.iter().sum::<u64>(), 60);
        // Both nodes did real work under least-outstanding routing.
        assert!(report.routed_per_node.iter().all(|&n| n > 0));
    }

    #[test]
    fn session_mirrors_engine_run() {
        let e = two_node_engine();
        let w = WorkloadSpec::single("mobilenet_v2", 80.0, 40);
        let batch = e.run(&w, 9);
        let mut s = e.session().expect("valid");
        s.submit_stream(&w, 9).expect("registered");
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn switching_step_mode_mid_session_leaves_the_run_unchanged() {
        let e = two_node_engine();
        let w = WorkloadSpec::single("mobilenet_v2", 80.0, 40);
        let sequential = e.run(&w, 9);

        // The checkpointed run makes extra clock-advance sweeps, so its
        // coordinator round-trip counter legitimately differs from the
        // batch run's; the simulation outcome must not.
        let mut s = e.session().expect("valid");
        s.submit_stream(&w, 9).expect("registered");
        s.run_until(0.05).expect("finite target");
        s.set_step_mode(StepMode::Parallel { threads: 2 });
        assert_eq!(s.step_mode(), StepMode::Parallel { threads: 2 });
        s.run_until(0.1).expect("finite target");
        s.set_step_mode(StepMode::Sequential);
        let mut stepped = s.finish();
        assert!(stepped.coordinator.pool_round_trips >= sequential.coordinator.pool_round_trips);
        stepped.coordinator = sequential.coordinator;
        assert_eq!(stepped, sequential);
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
        let e = ClusterEngine::builder()
            .model(model)
            .node(NodeSpec::new("big-0", machine, Policy::VeltairFull))
            .node(NodeSpec::new(
                "edge-0",
                MachineConfig::desktop_8core(),
                Policy::Prema,
            ))
            .build()
            .expect("profiles are checked when a fleet opens");
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

        // A node whose machine or projection weight cannot be simulated
        // is a typed error naming the node, checked when the fleet opens.
        let valid = compiled("tiny_yolo_v2");
        let broken_nodes: [fn(&mut NodeSpec); 4] = [
            |n| n.config.machine.cores = 0,
            |n| n.config.machine.l3_bytes = f64::NAN,
            |n| n.config.machine.dram_bw = 0.0,
            |n| n.config.projection.saturation_weight = f64::NAN,
        ];
        for edit in broken_nodes {
            let mut edge = NodeSpec::new("edge-0", MachineConfig::desktop_8core(), Policy::Prema);
            edit(&mut edge);
            let e = ClusterEngine::builder()
                .model(valid.clone())
                .node(NodeSpec::new(
                    "big-0",
                    MachineConfig::threadripper_3990x(),
                    Policy::VeltairFull,
                ))
                .node(edge)
                .build()
                .expect("node configs are checked when a fleet opens");
            let run = e.try_run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 10), 1);
            assert!(
                matches!(
                    run,
                    Err(ClusterError::InvalidConfig { ref reason }) if reason.starts_with("node edge-0: ")
                ),
                "{run:?}"
            );
            assert!(matches!(
                e.session().err(),
                Some(ClusterError::InvalidConfig { .. })
            ));
        }

        // The same rules hold for a node joining a running session: it is
        // checked up front, and nothing joins.
        let engine = ClusterEngine::builder()
            .model(valid)
            .node(NodeSpec::new(
                "big-0",
                MachineConfig::threadripper_3990x(),
                Policy::VeltairFull,
            ))
            .build()
            .expect("valid cluster");
        for edit in &broken_nodes[..2] {
            let mut bad = NodeSpec::new("bad", MachineConfig::desktop_8core(), Policy::VeltairFull);
            edit(&mut bad);
            let mut session = engine.session().expect("valid");
            let joined = session.add_node(&bad);
            assert!(
                matches!(
                    joined,
                    Err(ClusterError::InvalidConfig { ref reason }) if reason.starts_with("node bad: ")
                ),
                "{joined:?}"
            );
            assert_eq!(session.node_states().len(), 1, "nothing joined");
        }
    }

    #[test]
    fn session_snapshots_track_per_node_state() {
        let e = two_node_engine();
        let mut s = e.session().expect("valid");
        s.submit_stream(&WorkloadSpec::single("mobilenet_v2", 200.0, 50), 5)
            .expect("registered");
        s.run_until(0.1).expect("finite target");
        let snap = s.snapshot();
        assert!((snap.now_s - 0.1).abs() < 1e-12);
        assert_eq!(snap.nodes.len(), 2);
        assert_eq!(snap.nodes[0].name, "big-0");
        assert_eq!(snap.submitted, 50);
        assert!(snap.completed <= 50);
        let report = s.finish();
        assert_eq!(report.merged.total_queries(), 50);
    }

    #[test]
    fn unknown_models_are_rejected_atomically() {
        let e = two_node_engine();
        let mut s = e.session().expect("valid");
        let bert = QuerySpec {
            model: "bert_large".into(),
            arrival: SimTime(0.0),
        };
        assert!(matches!(
            s.submit(&bert),
            Err(ClusterError::UnknownModel { .. })
        ));
        let bad = WorkloadSpec::mix(&[("mobilenet_v2", 10.0), ("bert_large", 10.0)], 10);
        assert!(matches!(
            s.submit_stream(&bad, 1),
            Err(ClusterError::UnknownModel { .. })
        ));
        assert_eq!(s.snapshot().submitted, 0);
        let nan_rate = WorkloadSpec::single("mobilenet_v2", 10.0, 10).scaled_to(f64::NAN);
        assert!(matches!(
            s.submit_stream(&nan_rate, 1),
            Err(ClusterError::NonFiniteArrival { .. })
        ));
        assert!(matches!(
            e.try_run(&nan_rate, 1),
            Err(ClusterError::NonFiniteArrival { .. })
        ));
        assert_eq!(s.snapshot().submitted, 0);
    }

    #[test]
    fn slo_admission_sheds_under_crushing_load() {
        let e = ClusterEngine::builder()
            .model(compiled("mobilenet_v2"))
            .node(NodeSpec::new(
                "solo",
                MachineConfig::desktop_8core(),
                Policy::VeltairFull,
            ))
            .router(RouterKind::RoundRobin)
            .admission(AdmissionKind::SloAware(SloAdmissionConfig::default()))
            .build()
            .expect("valid");
        // A small edge node offered far more than it can serve: admission
        // control must shed rather than queue without bound.
        let report = e.run(&WorkloadSpec::single("mobilenet_v2", 2000.0, 300), 7);
        assert!(report.shed > 0, "no shedding under crushing load");
        assert_eq!(report.offered(), 300);
        // The queries that *were* admitted fared far better than the
        // admit-all counterfactual.
        let admit_all = ClusterEngine::builder()
            .model(compiled("mobilenet_v2"))
            .node(NodeSpec::new(
                "solo",
                MachineConfig::desktop_8core(),
                Policy::VeltairFull,
            ))
            .router(RouterKind::RoundRobin)
            .build()
            .expect("valid")
            .run(&WorkloadSpec::single("mobilenet_v2", 2000.0, 300), 7);
        assert!(
            report.merged.overall_satisfaction() >= admit_all.merged.overall_satisfaction(),
            "shedding did not protect admitted queries: {} vs {}",
            report.merged.overall_satisfaction(),
            admit_all.merged.overall_satisfaction()
        );
    }
}
