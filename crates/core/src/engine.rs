//! The serving engine facade and the resumable serving session.
//!
//! Three layers, from offline to online:
//!
//! * [`EngineBuilder`] — validated construction: machine, policy, model
//!   registry, optional interference proxy, and per-model SLO overrides.
//! * [`ServingEngine`] — compile-once, serve-many: batch runs
//!   ([`ServingEngine::run`] / [`ServingEngine::try_run`]) and session
//!   creation.
//! * [`ServingSession`] — the open-loop path: queries are
//!   [`submit`](ServingSession::submit)ted while the clock runs,
//!   completions are [`poll`](ServingSession::poll)ed incrementally, the
//!   policy is hot-swapped mid-stream
//!   ([`set_policy`](ServingSession::set_policy)), and
//!   [`snapshot`](ServingSession::snapshot) reads per-model QoS/latency
//!   statistics without stopping the run.

use veltair_compiler::{compile_model, CompiledModel, CompilerOptions, SelectorKind};
use veltair_models::ModelSpec;
use veltair_proxy::InterferenceProxy;
use veltair_sched::runtime::Driver;
use veltair_sched::{
    simulate, Policy, ProjectionConfig, QuerySpec, ServingReport, SimConfig, SimError, WorkloadSpec,
};
use veltair_sim::{MachineConfig, SimTime};
use veltair_telemetry::{Collector, TelemetrySnapshot, TraceConfig, TraceEventKind, TraceLog};

/// Why an engine could not be built or a serving call could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The builder was finalized (or a session opened) with no registered
    /// models.
    NoModels,
    /// A cluster builder was finalized with no fleet nodes.
    NoNodes,
    /// A query, workload stream, or SLO override referenced a model that
    /// is not registered.
    UnknownModel {
        /// The model name that failed to resolve.
        model: String,
    },
    /// A batch run was asked to serve an empty query stream.
    EmptyWorkload,
    /// A submitted query's arrival time was NaN or infinite.
    NonFiniteArrival {
        /// The rejected arrival time, seconds of session clock.
        at_s: f64,
    },
    /// An SLO override was not a positive, finite latency target.
    InvalidSlo {
        /// The model the override targeted.
        model: String,
        /// The rejected QoS target, seconds.
        qos_s: f64,
    },
    /// A session was asked to run for a non-positive or non-finite
    /// duration.
    InvalidDuration {
        /// The rejected duration, seconds.
        dt_s: f64,
    },
    /// A session was asked to run until a NaN or infinite instant.
    NonFiniteTarget {
        /// The rejected target instant, seconds of session clock.
        t_s: f64,
    },
    /// A fleet was handed per-node registries that do not match its node
    /// list (unreachable through [`ClusterBuilder::build`](crate::ClusterBuilder::build),
    /// which constructs matching registries).
    RegistryMismatch {
        /// Number of nodes configured.
        nodes: usize,
        /// Number of per-node registries supplied.
        registries: usize,
    },
    /// A fleet lifecycle operation named a node index outside the roster.
    UnknownNode {
        /// The rejected node index.
        node: usize,
    },
    /// A drain or kill would have left the fleet with zero routable
    /// nodes.
    FleetEmpty,
    /// An autoscaling policy parameter was out of range.
    InvalidScalePolicy {
        /// Which parameter was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The serving configuration cannot be simulated (see
    /// `SimError::InvalidConfig`): a machine fails
    /// `MachineConfig::validate`, or the projection weight is out of
    /// range.
    InvalidConfig {
        /// The violated rule.
        reason: String,
    },
    /// A registered model carries a kernel profile that fails
    /// validation (see `SimError::InvalidProfile`).
    InvalidProfile {
        /// The model the layer belongs to.
        model: String,
        /// Index of the layer (scheduling unit) within the model.
        layer: usize,
        /// Index of the code version within the layer.
        version: usize,
        /// The violated invariant.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoModels => {
                write!(f, "the engine has no registered models")
            }
            EngineError::NoNodes => {
                write!(f, "a cluster engine needs at least one node")
            }
            EngineError::UnknownModel { model } => {
                write!(f, "model {model} is not registered with the engine")
            }
            EngineError::EmptyWorkload => {
                write!(f, "cannot serve an empty query stream")
            }
            EngineError::NonFiniteArrival { at_s } => {
                write!(f, "arrival times must be finite, got {at_s}")
            }
            EngineError::InvalidSlo { model, qos_s } => {
                write!(
                    f,
                    "SLO overrides must be positive and finite: {model} got {qos_s} s"
                )
            }
            EngineError::InvalidDuration { dt_s } => {
                write!(f, "run durations must be positive and finite, got {dt_s}")
            }
            EngineError::NonFiniteTarget { t_s } => {
                write!(f, "run targets must be finite, got {t_s}")
            }
            EngineError::RegistryMismatch { nodes, registries } => {
                write!(
                    f,
                    "per-node registries must match the node list: {nodes} nodes, \
                     {registries} registries"
                )
            }
            EngineError::UnknownNode { node } => {
                write!(f, "node {node} is not in the fleet roster")
            }
            EngineError::FleetEmpty => {
                write!(
                    f,
                    "the operation would leave the fleet with zero routable nodes"
                )
            }
            EngineError::InvalidScalePolicy { field, value } => {
                write!(f, "scale policy parameter {field} is out of range: {value}")
            }
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid serving config: {reason}")
            }
            EngineError::InvalidProfile {
                model,
                layer,
                version,
                reason,
            } => {
                write!(
                    f,
                    "model {model}, layer {layer}, version {version}: invalid kernel profile: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::UnknownModel { model } => EngineError::UnknownModel { model },
            SimError::EmptyWorkload => EngineError::EmptyWorkload,
            SimError::NonFiniteArrival { arrival_s } => {
                EngineError::NonFiniteArrival { at_s: arrival_s }
            }
            SimError::NonFiniteTarget { target_s } => {
                EngineError::NonFiniteTarget { t_s: target_s }
            }
            SimError::InvalidConfig { reason } => EngineError::InvalidConfig { reason },
            SimError::InvalidProfile {
                model,
                layer,
                version,
                reason,
            } => EngineError::InvalidProfile {
                model,
                layer,
                version,
                reason,
            },
        }
    }
}

/// Validates and applies per-model SLO overrides to a registry, shared by
/// [`EngineBuilder::build`] and
/// [`ClusterBuilder::build`](crate::ClusterBuilder::build).
///
/// # Errors
///
/// Returns [`EngineError::InvalidSlo`] for a non-positive or non-finite
/// target and [`EngineError::UnknownModel`] when the named model is not
/// registered.
pub(crate) fn apply_slo_overrides(
    models: &mut [CompiledModel],
    overrides: Vec<(String, f64)>,
) -> Result<(), EngineError> {
    for (name, qos_s) in overrides {
        if !(qos_s.is_finite() && qos_s > 0.0) {
            return Err(EngineError::InvalidSlo { model: name, qos_s });
        }
        let model = models
            .iter_mut()
            .find(|m| m.name == name)
            .ok_or(EngineError::UnknownModel { model: name })?;
        model.qos_s = qos_s;
    }
    Ok(())
}

/// Validated, fluent construction of a [`ServingEngine`].
///
/// ```
/// use veltair_core::{Policy, ServingEngine};
/// use veltair_compiler::{compile_model, CompilerOptions};
/// use veltair_sim::MachineConfig;
///
/// let machine = MachineConfig::threadripper_3990x();
/// let engine = ServingEngine::builder()
///     .machine(machine.clone())
///     .policy(Policy::VeltairFull)
///     .model(compile_model(
///         &veltair_models::mobilenet_v2(),
///         &machine,
///         &CompilerOptions::fast(),
///     ))
///     .slo("mobilenet_v2", 0.05)
///     .build()
///     .expect("valid engine");
/// assert_eq!(engine.models().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    machine: MachineConfig,
    policy: Policy,
    models: Vec<CompiledModel>,
    specs: Vec<ModelSpec>,
    compiler: CompilerOptions,
    proxy: Option<InterferenceProxy>,
    selector: SelectorKind,
    projection: ProjectionConfig,
    slo_overrides: Vec<(String, f64)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            machine: MachineConfig::threadripper_3990x(),
            policy: Policy::VeltairFull,
            models: Vec::new(),
            specs: Vec::new(),
            compiler: CompilerOptions::thorough(),
            proxy: None,
            selector: SelectorKind::default(),
            projection: ProjectionConfig::default(),
            slo_overrides: Vec::new(),
        }
    }
}

impl EngineBuilder {
    /// Sets the machine to serve on (default: the paper's 64-core
    /// Threadripper testbed).
    #[must_use]
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Sets the scheduling/compilation policy (default: VELTAIR-FULL).
    #[must_use]
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Registers a compiled model, replacing any previous model of the
    /// same name.
    #[must_use]
    pub fn model(mut self, model: CompiledModel) -> Self {
        self.models.retain(|m| m.name != model.name);
        self.specs.retain(|s| s.graph.name != model.name);
        self.models.push(model);
        self
    }

    /// Registers a model *spec* to be compiled at
    /// [`build`](EngineBuilder::build) time against the builder's machine
    /// with its [`compiler_options`](EngineBuilder::compiler_options) —
    /// the engine-level mirror of `ClusterBuilder::compile`. Replaces any
    /// previous model or spec of the same name. Compilation is deferred so
    /// the machine and options may be set in any order.
    #[must_use]
    pub fn compile(mut self, spec: ModelSpec) -> Self {
        self.models.retain(|m| m.name != spec.graph.name);
        self.specs.retain(|s| s.graph.name != spec.graph.name);
        self.specs.push(spec);
        self
    }

    /// Sets the compiler options used for specs registered via
    /// [`compile`](EngineBuilder::compile) (default:
    /// [`CompilerOptions::thorough`]).
    #[must_use]
    pub fn compiler_options(mut self, options: CompilerOptions) -> Self {
        self.compiler = options;
        self
    }

    /// Installs a trained interference proxy (otherwise the engine
    /// monitors with the oracle pressure).
    #[must_use]
    pub fn proxy(mut self, proxy: InterferenceProxy) -> Self {
        self.proxy = Some(proxy);
        self
    }

    /// Sets the runtime version-selection policy consulted by
    /// adaptive-compilation policies (default: the calibrated hysteresis
    /// ladder).
    #[must_use]
    pub fn selector(mut self, selector: SelectorKind) -> Self {
        self.selector = selector;
        self
    }

    /// Overrides the predictive pressure projection applied at every
    /// planning decision (default: the calibrated
    /// [`ProjectionConfig::default`]; `ProjectionConfig::disabled()`
    /// restores the purely instantaneous monitor).
    #[must_use]
    pub fn projection(mut self, projection: ProjectionConfig) -> Self {
        self.projection = projection;
        self
    }

    /// Overrides a registered model's end-to-end SLO (QoS latency target,
    /// seconds). Applied at [`build`](EngineBuilder::build) time to the
    /// accounting target and the temporal policies' priority normalizer;
    /// the per-layer compilation budget keeps the compile-time target
    /// (re-compile to change it).
    #[must_use]
    pub fn slo(mut self, model: &str, qos_s: f64) -> Self {
        self.slo_overrides.push((model.to_string(), qos_s));
        self
    }

    /// Finalizes the engine, compiling every spec registered via
    /// [`compile`](EngineBuilder::compile) for the builder's machine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] if a spec would be compiled
    /// for a machine that fails [`MachineConfig::validate`],
    /// [`EngineError::NoModels`] if no model was registered,
    /// [`EngineError::UnknownModel`] if an SLO override names an
    /// unregistered model, and [`EngineError::InvalidSlo`] if an override
    /// is not a positive, finite latency. Pre-compiled models and the
    /// machine serving them are checked when a session opens.
    pub fn build(self) -> Result<ServingEngine, EngineError> {
        let Self {
            machine,
            policy,
            mut models,
            specs,
            compiler,
            proxy,
            selector,
            projection,
            slo_overrides,
        } = self;
        if !specs.is_empty() {
            machine
                .validate()
                .map_err(|reason| EngineError::InvalidConfig {
                    reason: format!("machine: {reason}"),
                })?;
        }
        for spec in &specs {
            models.push(compile_model(spec, &machine, &compiler));
        }
        if models.is_empty() {
            return Err(EngineError::NoModels);
        }
        apply_slo_overrides(&mut models, slo_overrides)?;
        Ok(ServingEngine {
            machine,
            policy,
            models,
            proxy,
            selector,
            projection,
        })
    }
}

/// Compile-once, serve-many facade: holds the machine, the policy, the
/// compiled model registry, and (optionally) a trained interference proxy.
#[derive(Debug, Clone)]
pub struct ServingEngine {
    machine: MachineConfig,
    policy: Policy,
    models: Vec<CompiledModel>,
    proxy: Option<InterferenceProxy>,
    selector: SelectorKind,
    projection: ProjectionConfig,
}

impl ServingEngine {
    /// Creates an engine for a machine and scheduling policy.
    #[must_use]
    pub fn new(machine: MachineConfig, policy: Policy) -> Self {
        Self {
            machine,
            policy,
            models: Vec::new(),
            proxy: None,
            selector: SelectorKind::default(),
            projection: ProjectionConfig::default(),
        }
    }

    /// Starts validated, fluent construction: machine, policy, models,
    /// proxy, and SLO overrides, checked at
    /// [`build`](EngineBuilder::build).
    #[must_use]
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Registers a compiled model, replacing any previous model of the
    /// same name.
    pub fn register(&mut self, model: CompiledModel) {
        self.models.retain(|m| m.name != model.name);
        self.models.push(model);
    }

    /// Installs a trained interference proxy (otherwise the engine
    /// monitors with the oracle pressure).
    pub fn set_proxy(&mut self, proxy: InterferenceProxy) {
        self.proxy = Some(proxy);
    }

    /// Changes the serving policy (models stay registered). Affects
    /// subsequent runs and sessions; live sessions hot-swap independently
    /// via [`ServingSession::set_policy`].
    pub fn set_policy(&mut self, policy: Policy) {
        self.policy = policy;
    }

    /// Changes the runtime version-selection policy. Affects subsequent
    /// runs and sessions.
    pub fn set_selector(&mut self, selector: SelectorKind) {
        self.selector = selector;
    }

    /// Changes the predictive pressure projection. Affects subsequent
    /// runs and sessions.
    pub fn set_projection(&mut self, projection: ProjectionConfig) {
        self.projection = projection;
    }

    /// The engine's predictive pressure projection.
    #[must_use]
    pub fn projection(&self) -> ProjectionConfig {
        self.projection
    }

    /// The engine's version-selection policy.
    #[must_use]
    pub fn selector(&self) -> SelectorKind {
        self.selector
    }

    /// The registered models.
    #[must_use]
    pub fn models(&self) -> &[CompiledModel] {
        &self.models
    }

    /// The machine this engine serves on.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The engine's current policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::new(self.machine.clone(), self.policy)
            .with_selector(self.selector)
            .with_projection(self.projection);
        if let Some(p) = &self.proxy {
            cfg = cfg.with_proxy(p.clone());
        }
        cfg
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
    /// invalid input as a typed [`EngineError`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] if the workload references
    /// unregistered models, [`EngineError::InvalidConfig`] if the machine
    /// or the projection weight cannot be simulated,
    /// [`EngineError::InvalidProfile`] if a registered model carries an
    /// invalid kernel profile,
    /// [`EngineError::NonFiniteArrival`] if a stream rate makes an
    /// arrival time NaN or infinite, and [`EngineError::EmptyWorkload`]
    /// if it generates no queries.
    pub fn try_run(
        &self,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Result<ServingReport, EngineError> {
        let queries = workload.generate(seed);
        Ok(simulate(&self.models, &queries, &self.sim_config())?)
    }

    /// Opens a resumable serving session: an open-loop simulation over
    /// this engine's registry that accepts arrivals, policy changes, and
    /// snapshot reads while the clock runs. The session borrows the
    /// engine's models; the engine itself stays immutable.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoModels`] if no model is registered,
    /// [`EngineError::InvalidConfig`] if the machine or the projection
    /// weight cannot be simulated, and [`EngineError::InvalidProfile`] if
    /// a registered model carries an invalid kernel profile.
    pub fn session(&self) -> Result<ServingSession<'_>, EngineError> {
        if self.models.is_empty() {
            return Err(EngineError::NoModels);
        }
        Ok(ServingSession {
            driver: Driver::open(&self.models, self.sim_config())?,
            poll_cursor: 0,
            telemetry: None,
            trace_scratch: Vec::new(),
        })
    }
}

/// One finished query, as reported by [`ServingSession::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The session-assigned query id (returned by
    /// [`ServingSession::submit`]).
    pub query: usize,
    /// The model the query targeted.
    pub model: String,
    /// Arrival time, seconds of session clock.
    pub arrival_s: f64,
    /// Completion time, seconds of session clock.
    pub finish_s: f64,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Whether the latency met the model's QoS target.
    pub qos_met: bool,
}

/// A point-in-time view of a live session, from
/// [`ServingSession::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSnapshot {
    /// Session clock, seconds.
    pub now_s: f64,
    /// Queries submitted so far (completed or not).
    pub submitted: usize,
    /// Queries completed so far.
    pub completed: usize,
    /// Scheduling units currently holding cores.
    pub in_flight: usize,
    /// Queries waiting in the admission queues.
    pub queued: usize,
    /// The accumulating serving report over the completed queries, with
    /// derived fields finalized.
    pub report: ServingReport,
}

/// A resumable serving run: streaming arrivals in, incremental results
/// out, with mid-run control. Created by [`ServingEngine::session`].
#[derive(Debug)]
pub struct ServingSession<'e> {
    driver: Driver<'e>,
    poll_cursor: usize,
    /// The flight recorder, when enabled: one node track (the machine)
    /// plus coordinator-side `Submitted` events. Driver-local query ids
    /// are the session's public query ids, so no remap table is needed.
    telemetry: Option<Collector>,
    trace_scratch: Vec<(f64, TraceEventKind)>,
}

impl ServingSession<'_> {
    /// Session clock, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.driver.now().0
    }

    /// The session's active policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.driver.policy()
    }

    /// Whether every submitted query has completed.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.driver.is_idle()
    }

    /// Submits one query arriving at `at_s` seconds of session clock
    /// (clamped to *now* if already past). Returns the query id used in
    /// [`Completion::query`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] if `model` is not registered
    /// and [`EngineError::NonFiniteArrival`] if `at_s` is NaN or
    /// infinite.
    pub fn submit(&mut self, model: &str, at_s: f64) -> Result<usize, EngineError> {
        let id = self.driver.inject(&QuerySpec {
            model: model.to_string(),
            arrival: SimTime(at_s),
        })?;
        if let Some(tm) = self.telemetry.as_mut() {
            let st = &self.driver.state().queries[id];
            tm.coordinator(
                st.arrival.0,
                TraceEventKind::Submitted {
                    query: id as u64,
                    model: st.model as u32,
                },
            );
        }
        Ok(id)
    }

    /// Submits a whole workload's generated stream, with every arrival
    /// offset by the session's current clock — so a burst "starts now"
    /// regardless of how long the session has been running. Returns the
    /// ids in arrival order.
    ///
    /// Atomic: the stream's model names and arrival times are validated
    /// up front, so an error means *nothing* was submitted — a caller may
    /// correct the workload and resubmit without double-injecting
    /// arrivals.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnknownModel`] if the workload references
    /// unregistered models and [`EngineError::NonFiniteArrival`] if a
    /// stream rate makes an arrival time NaN or infinite.
    pub fn submit_stream(
        &mut self,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Result<Vec<usize>, EngineError> {
        let registry = &self.driver.state().models;
        if let Some((name, _)) = workload
            .streams
            .iter()
            .find(|(name, _)| !registry.iter().any(|m| &m.name == name))
        {
            return Err(EngineError::UnknownModel {
                model: name.clone(),
            });
        }
        let base = self.now_s();
        let mut queries = workload.generate(seed);
        for q in &mut queries {
            q.arrival = SimTime(base + q.arrival.0);
        }
        if let Some(q) = queries.iter().find(|q| !q.arrival.0.is_finite()) {
            return Err(EngineError::NonFiniteArrival { at_s: q.arrival.0 });
        }
        queries
            .iter()
            .map(|q| self.submit(&q.model, q.arrival.0))
            .collect()
    }

    /// Processes the next pending event; `false` when the session is
    /// idle.
    pub fn step(&mut self) -> bool {
        self.driver.step().is_some()
    }

    /// Runs the session up to `t_s` seconds of session clock.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NonFiniteTarget`] if `t_s` is NaN or
    /// infinite (mirroring [`run_for`](ServingSession::run_for)); the
    /// session is left untouched.
    pub fn run_until(&mut self, t_s: f64) -> Result<(), EngineError> {
        if !t_s.is_finite() {
            return Err(EngineError::NonFiniteTarget { t_s });
        }
        self.driver
            .run_until(SimTime(t_s))
            .expect("run_until rejects non-finite targets above");
        Ok(())
    }

    /// Runs the session for another `dt_s` seconds of session clock.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidDuration`] if `dt_s` is NaN,
    /// infinite, or not strictly positive (mirroring
    /// [`Fleet::run_for`](crate::Fleet::run_for)).
    pub fn run_for(&mut self, dt_s: f64) -> Result<(), EngineError> {
        if !dt_s.is_finite() || dt_s <= 0.0 {
            return Err(EngineError::InvalidDuration { dt_s });
        }
        let target = self.driver.now().after(dt_s);
        self.driver
            .run_until(target)
            .expect("run_for rejects non-finite durations above");
        Ok(())
    }

    /// Hot-swaps the scheduling policy at the current dispatch boundary:
    /// queued work is immediately re-offered to the new discipline, while
    /// in-flight units keep their allocations until their next natural
    /// boundary.
    pub fn set_policy(&mut self, policy: Policy) {
        self.driver.set_policy(policy);
    }

    /// Returns the queries that completed since the last `poll` (or since
    /// the session opened), in completion order. Non-blocking: an empty
    /// vector means nothing new finished, not that the session is done.
    pub fn poll(&mut self) -> Vec<Completion> {
        let state = self.driver.state();
        let new: Vec<Completion> = self.driver.completions()[self.poll_cursor..]
            .iter()
            .map(|&q| {
                let st = &state.queries[q];
                let model = &state.models[st.model];
                let finish = st
                    .finish
                    .expect("completion log only holds finished queries");
                let latency = finish.since(st.arrival);
                Completion {
                    query: q,
                    model: model.name.clone(),
                    arrival_s: st.arrival.0,
                    finish_s: finish.0,
                    latency_s: latency,
                    qos_met: latency <= model.qos_s,
                }
            })
            .collect();
        self.poll_cursor += new.len();
        new
    }

    /// Runs the session to completion and returns every not-yet-polled
    /// completion.
    pub fn drain(&mut self) -> Vec<Completion> {
        self.driver.run_to_completion();
        self.poll()
    }

    /// Turns on the flight recorder: `Submitted` events fire at
    /// submission and the driver's `Dispatched` / `Completed` /
    /// `Violated` lifecycle events are captured into a deterministic
    /// trace with a live metrics registry. Never perturbs the run.
    /// Call before submitting work: earlier queries cannot be
    /// retroactively attributed.
    pub fn enable_telemetry(&mut self, config: TraceConfig) {
        let models = self
            .driver
            .state()
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect();
        let mut tm = Collector::new(config, models);
        let class = format!(
            "{}c/{}",
            self.driver.total_cores(),
            self.driver.policy().name()
        );
        tm.register_track("node-0", &class);
        self.driver.set_trace_sink(Box::new(tm.make_sink()));
        self.telemetry = Some(tm);
    }

    /// Whether the flight recorder is on.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Drains the driver's buffered events into the collector. Session
    /// query ids *are* the driver-local ids, so no remap is applied.
    fn pull_traces(&mut self) {
        let Some(tm) = self.telemetry.as_mut() else {
            return;
        };
        self.trace_scratch.clear();
        self.driver.drain_trace(&mut self.trace_scratch);
        let dropped = self.driver.trace_dropped();
        if !self.trace_scratch.is_empty() || dropped > 0 {
            tm.absorb_events(1, &mut self.trace_scratch, None, dropped);
        }
    }

    /// A point-in-time copy of the metrics registry — event counts,
    /// latency histograms, per-model violation cells — when telemetry is
    /// enabled. Pulls the driver's buffer first, so figures are current
    /// to the session clock.
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        self.pull_traces();
        self.telemetry.as_ref().map(Collector::snapshot)
    }

    /// The merged lifecycle trace so far, in deterministic
    /// `(virtual time, track)` order — exportable via
    /// [`TraceLog::to_chrome_json`] and queryable via
    /// [`TraceLog::explain`]. `None` when telemetry is off.
    pub fn trace_log(&mut self) -> Option<TraceLog> {
        self.pull_traces();
        self.telemetry.as_ref().map(Collector::log)
    }

    /// Incremental per-model QoS/latency statistics over the queries
    /// completed so far, plus live queue depths. Does not perturb the
    /// run; snapshots may be taken at any cadence.
    #[must_use]
    pub fn snapshot(&self) -> ReportSnapshot {
        ReportSnapshot {
            now_s: self.now_s(),
            submitted: self.driver.state().queries.len(),
            completed: self.driver.completions().len(),
            in_flight: self.driver.in_flight(),
            queued: self.driver.queued(),
            report: self.driver.snapshot(),
        }
    }

    /// Finishes the session: drains all outstanding work and returns the
    /// final report.
    #[must_use]
    pub fn finish(mut self) -> ServingReport {
        self.driver.run_to_completion();
        self.driver.finish().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};

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

    #[test]
    fn engine_round_trip() {
        let e = engine();
        let r = e.run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 40), 1);
        assert_eq!(r.total_queries(), 40);
        assert!(r.qos_satisfaction("tiny_yolo_v2") > 0.8);
    }

    #[test]
    fn builder_compiles_specs_with_its_options() {
        // The deferred-compile path equals compiling by hand with the same
        // options, regardless of the order machine/options/spec were set.
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast().with_max_versions(2);
        let e = ServingEngine::builder()
            .compile(veltair_models::tiny_yolo_v2())
            .compiler_options(opts.clone())
            .machine(machine.clone())
            .build()
            .expect("valid engine");
        let direct = compile_model(&veltair_models::tiny_yolo_v2(), &machine, &opts);
        assert_eq!(e.models().len(), 1);
        assert_eq!(e.models()[0], direct);
        assert!(e.models()[0].layers.iter().all(|l| l.versions.len() <= 2));

        // compile() replaces a same-name model() registration and vice versa.
        let replaced = ServingEngine::builder()
            .model(direct.clone())
            .compile(veltair_models::tiny_yolo_v2())
            .compiler_options(opts)
            .build()
            .expect("valid engine");
        assert_eq!(replaced.models().len(), 1);
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
            Err(EngineError::UnknownModel {
                model: "resnet50".into()
            })
        );
        // A NaN rate yields NaN arrivals: a typed error, not a panic.
        let nan_rate = WorkloadSpec::single("tiny_yolo_v2", 10.0, 5).scaled_to(f64::NAN);
        assert!(matches!(
            e.try_run(&nan_rate, 1),
            Err(EngineError::NonFiniteArrival { .. })
        ));
        let ok = e
            .try_run(&WorkloadSpec::single("tiny_yolo_v2", 30.0, 10), 1)
            .expect("valid");
        assert_eq!(ok.total_queries(), 10);

        // A machine or projection weight that cannot be simulated: a typed
        // error, not a panic or a run that silently completes nothing.
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
        for bad in &broken {
            assert!(
                matches!(
                    bad.try_run(&workload, 1),
                    Err(EngineError::InvalidConfig { .. })
                ),
                "{:?} / {:?}",
                bad.machine(),
                bad.projection()
            );
            assert!(matches!(
                bad.session().err(),
                Some(EngineError::InvalidConfig { .. })
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
        let expected = EngineError::InvalidProfile {
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
    fn builder_validates_models_and_slos() {
        assert_eq!(
            ServingEngine::builder().build().unwrap_err(),
            EngineError::NoModels
        );

        let machine = MachineConfig::threadripper_3990x();
        let compiled = compile_model(
            &veltair_models::tiny_yolo_v2(),
            &machine,
            &CompilerOptions::fast(),
        );
        assert_eq!(
            ServingEngine::builder()
                .model(compiled.clone())
                .slo("resnet50", 0.1)
                .build()
                .unwrap_err(),
            EngineError::UnknownModel {
                model: "resnet50".into()
            }
        );
        assert!(matches!(
            ServingEngine::builder()
                .model(compiled.clone())
                .slo("tiny_yolo_v2", -1.0)
                .build()
                .unwrap_err(),
            EngineError::InvalidSlo { .. }
        ));
        // A machine is validated before a spec is compiled for it, so one
        // that cannot be simulated is a typed error here, not a compiler
        // panic or an artifact that fails only when a session opens.
        let broken: [fn(&mut MachineConfig); 2] = [|m| m.cores = 0, |m| m.l3_bytes = f64::NAN];
        for edit in broken {
            let mut bad = machine.clone();
            edit(&mut bad);
            let built = ServingEngine::builder()
                .machine(bad)
                .compile(veltair_models::tiny_yolo_v2())
                .compiler_options(CompilerOptions::fast())
                .build();
            assert!(
                matches!(built, Err(EngineError::InvalidConfig { .. })),
                "{built:?}"
            );
        }

        let engine = ServingEngine::builder()
            .machine(machine)
            .policy(Policy::Prema)
            .model(compiled)
            .slo("tiny_yolo_v2", 0.25)
            .build()
            .expect("valid");
        assert_eq!(engine.policy(), Policy::Prema);
        assert!((engine.models()[0].qos_s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn session_streams_polls_and_snapshots() {
        let e = engine();
        let mut s = e.session().expect("has models");
        assert!(s.poll().is_empty());
        for i in 0..20 {
            s.submit("tiny_yolo_v2", f64::from(i) * 0.01)
                .expect("registered");
        }
        assert!(matches!(
            s.submit("bert_large", 0.0),
            Err(EngineError::UnknownModel { .. })
        ));

        s.run_until(0.1).expect("finite target");
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 20);
        assert!(snap.completed <= 20);
        assert!((snap.now_s - 0.1).abs() < 1e-12);
        let early = s.poll();
        assert_eq!(early.len(), snap.completed);

        let rest = s.drain();
        assert_eq!(early.len() + rest.len(), 20);
        assert!(s.is_idle());
        let report = s.finish();
        assert_eq!(report.total_queries(), 20);
        // The poll stream and the report agree on QoS accounting.
        let satisfied = early
            .iter()
            .chain(rest.iter())
            .filter(|c| c.qos_met)
            .count();
        assert_eq!(satisfied, report.per_model["tiny_yolo_v2"].satisfied);
    }

    #[test]
    fn session_run_for_rejects_invalid_durations() {
        let e = engine();
        let mut s = e.session().expect("has models");
        s.submit("tiny_yolo_v2", 0.0).expect("registered");
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(s.run_for(bad), Err(EngineError::InvalidDuration { .. })),
                "duration {bad} was accepted"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    s.run_until(bad),
                    Err(EngineError::NonFiniteTarget { t_s }) if t_s.to_bits() == bad.to_bits()
                ),
                "target {bad} was accepted"
            );
        }
        assert!(
            (s.now_s() - 0.0).abs() < 1e-12,
            "rejected run moved the clock"
        );
        s.run_for(0.2).expect("positive finite duration");
        assert!((s.now_s() - 0.2).abs() < 1e-12);
        // The session stays usable after the rejections.
        s.submit("tiny_yolo_v2", 0.3).expect("registered");
        assert_eq!(s.finish().total_queries(), 2);
    }

    #[test]
    fn non_finite_arrivals_are_rejected_not_panicking() {
        let e = engine();
        let mut s = e.session().expect("has models");
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    s.submit("tiny_yolo_v2", bad),
                    Err(EngineError::NonFiniteArrival { .. })
                ),
                "arrival {bad} was not rejected"
            );
        }
        assert_eq!(s.snapshot().submitted, 0);
        s.submit("tiny_yolo_v2", 0.0).expect("finite arrival");
        assert_eq!(s.finish().total_queries(), 1);
    }

    #[test]
    fn submit_stream_is_atomic_on_unknown_models() {
        let e = engine();
        let mut s = e.session().expect("has models");
        let bad = WorkloadSpec::mix(&[("tiny_yolo_v2", 50.0), ("resnet50", 50.0)], 20);
        assert_eq!(
            s.submit_stream(&bad, 1),
            Err(EngineError::UnknownModel {
                model: "resnet50".into()
            })
        );
        // Nothing leaked in: a corrected resubmission starts clean.
        assert_eq!(s.snapshot().submitted, 0);
        let nan_rate = WorkloadSpec::single("tiny_yolo_v2", 50.0, 20).scaled_to(f64::NAN);
        assert!(matches!(
            s.submit_stream(&nan_rate, 1),
            Err(EngineError::NonFiniteArrival { .. })
        ));
        assert_eq!(s.snapshot().submitted, 0);
        // A zero-rate stream puts an infinite arrival after finite ones:
        // the whole stream is rejected before any of them is submitted.
        let mut zero_rate = WorkloadSpec::mix(&[("tiny_yolo_v2", 50.0); 4], 4);
        zero_rate.streams[3].1 = 0.0;
        assert!(matches!(
            s.submit_stream(&zero_rate, 1),
            Err(EngineError::NonFiniteArrival { .. })
        ));
        assert_eq!(s.snapshot().submitted, 0);
        s.submit_stream(&WorkloadSpec::single("tiny_yolo_v2", 50.0, 20), 1)
            .expect("valid");
        assert_eq!(s.finish().total_queries(), 20);
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
        assert_eq!(s.finish(), batch);
    }

    #[test]
    fn session_policy_hot_swap_mid_run() {
        let e = engine();
        let mut s = e.session().expect("has models");
        s.submit_stream(&WorkloadSpec::single("tiny_yolo_v2", 500.0, 40), 8)
            .expect("valid");
        s.run_until(0.05).expect("finite target");
        s.set_policy(Policy::Prema);
        assert_eq!(s.policy(), Policy::Prema);
        s.submit_stream(&WorkloadSpec::single("tiny_yolo_v2", 500.0, 20), 9)
            .expect("valid");
        let report = s.finish();
        assert_eq!(report.total_queries(), 60);
        let sat = report.overall_satisfaction();
        assert!((0.0..=1.0).contains(&sat));
    }

    #[test]
    fn empty_engine_cannot_open_sessions() {
        let e = ServingEngine::new(MachineConfig::threadripper_3990x(), Policy::VeltairFull);
        assert!(matches!(e.session(), Err(EngineError::NoModels)));
    }
}
