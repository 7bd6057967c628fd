//! The fleet runtime: N per-node serving drivers behind one front door.
//!
//! A [`Fleet`] composes independent per-node
//! [`Driver`]s and advances them in lockstep
//! virtual time. Arrivals enter through the fleet, not the nodes: each
//! query is held until the fleet clock reaches its arrival, every node is
//! advanced to that instant, and the router then picks a node using the
//! *live* load views — so routing decisions see exactly the state a real
//! front-end load balancer would observe at that moment. An admission
//! controller sits behind the router and may shed or defer the query
//! instead of injecting it.
//!
//! Determinism: nodes are independent simulations, arrival processing is
//! totally ordered by `(arrival time, submission order)`, and every
//! built-in router/controller is deterministic for a fixed configuration
//! — so a fleet run is a pure function of (models, node specs, router
//! kind, admission kind, workload, seed). Every node advances on the
//! coordinator thread, in roster order, between routing instants.
//!
//! **Elasticity.** The roster is dynamic: nodes join
//! ([`Fleet::add_node`]), drain gracefully ([`Fleet::drain_node`]), or
//! crash-stop ([`Fleet::kill_node`]) at exact virtual instants; a
//! [`FailurePlan`] injects deterministic crash/stall/drain schedules;
//! and an attached [`ScalePolicy`] lets a [`HysteresisAutoscaler`] grow
//! and shrink capacity with a modeled provisioning delay. All control
//! actions fire on one deterministic timeline interleaved with routing
//! (failures, then stall recoveries, then provisioned joins, then the
//! autoscaler tick, at each control instant; queries due *at* a control
//! instant route after it), and departed nodes keep their roster slot —
//! masked out of the index, never compacted — so node indices stay
//! stable and elastic runs keep the full bit-determinism contract.
//!
//! **One decision path.** Every routing decision advances every node to
//! the decision instant, re-keys the nodes whose driver state changed
//! through [`Router::rank`], and lets the router decide off the
//! [`LoadIndex`] — a flat table it scans for a minimum or walks for a
//! weighted draw. A decision therefore costs Θ(nodes), dominated by the
//! node advancement; the [`CoordinatorStats`] op counts make the index
//! reads visible.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use veltair_compiler::CompiledModel;
use veltair_sched::runtime::Driver;
use veltair_sched::{Policy, QuerySpec, SimError, WorkloadSpec};
use veltair_sim::SimTime;
use veltair_telemetry::{Collector, TelemetrySnapshot, TraceConfig, TraceEventKind, TraceLog};

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::failure::{FailureEvent, FailureKind, FailurePlan};
use crate::index::LoadIndex;
use crate::node::{NodeLoad, NodeSpec, NodeState};
use crate::report::{merge_reports, CoordinatorStats, FleetReport};
use crate::router::Router;
use crate::scaling::{HysteresisAutoscaler, ScaleDecision, ScalePolicy};

/// Why a node's `Driver::run_until` cannot fail inside the fleet: every
/// instant the fleet advances to is finite.
const FINITE_INSTANTS: &str =
    "fleet instants are finite: run_until, run_for and submit reject non-finite times";

/// How a fleet advances its member nodes between routing instants. Every
/// node advances on the coordinator thread, so there is one mode.
///
/// Kept, with [`Fleet::with_step_mode`], only because perfbench's
/// `fleet-churn` workload names both; they go with the next change to
/// the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMode {
    /// Advance nodes one after another on the coordinator thread.
    Sequential,
}

/// Why an engine or a fleet could not be built, or a serving call could
/// not run: the one error type of the serving surface, single machine
/// and fleet alike.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A fleet or cluster engine was configured with no nodes.
    NoNodes,
    /// An engine or fleet was configured with an empty model registry.
    NoModels,
    /// A query or workload stream referenced an unregistered model.
    UnknownModel {
        /// The model name that failed to resolve.
        model: String,
    },
    /// A batch run was asked to serve an empty query stream.
    EmptyWorkload,
    /// A submitted query's arrival time was NaN or infinite.
    NonFiniteArrival {
        /// The rejected arrival time, seconds.
        arrival_s: f64,
    },
    /// [`Fleet::run_for`] was asked to advance by a non-positive or
    /// non-finite duration. Silently accepting these either rewinds the
    /// fleet clock (negative), spins forever (NaN comparisons), or jumps
    /// to infinity — all three are caller bugs worth surfacing.
    InvalidDuration {
        /// The rejected duration, seconds.
        dt_s: f64,
    },
    /// [`Fleet::run_until`] was asked to advance to a NaN or infinite
    /// instant. The fleet clock can never reach one: NaN breaks the
    /// virtual-time order and infinity would strand every later
    /// submission behind the clock.
    NonFiniteTarget {
        /// The rejected target instant, seconds.
        t_s: f64,
    },
    /// [`Fleet::with_node_registries`] was handed a registry list whose
    /// length does not match the node list.
    RegistryMismatch {
        /// Number of nodes configured.
        nodes: usize,
        /// Number of per-node registries supplied.
        registries: usize,
    },
    /// A node call ([`Fleet::drain_node`], [`Fleet::kill_node`],
    /// [`Fleet::set_policy`]) referenced a node index outside the roster.
    UnknownNode {
        /// The out-of-range node index.
        node: usize,
    },
    /// A drain or kill would leave the fleet with zero routable nodes. A
    /// front door with nowhere to route is a configuration error, not a
    /// simulation state, so direct lifecycle calls refuse it (scheduled
    /// [`FailurePlan`] events that would do the same are silently
    /// skipped instead — a plan is best-effort by design).
    FleetEmpty,
    /// An autoscaler or scale-policy parameter was outside its valid
    /// range (see `AutoscalerConfig::try_new` and
    /// [`ScalePolicy::try_new`]).
    InvalidScalePolicy {
        /// Which parameter was rejected.
        field: &'static str,
        /// The rejected value (integer fields are reported as `f64`).
        value: f64,
    },
    /// A configuration cannot be simulated (see
    /// `SimError::InvalidConfig`): a machine fails
    /// `MachineConfig::validate`, a projection weight is out of range, or
    /// a registered model's QoS target is not positive and finite (the
    /// reason then names the model). Checked when a node's driver opens
    /// (the reason then names the node) or when a batch run starts.
    InvalidConfig {
        /// The violated rule.
        reason: String,
    },
    /// A registry carries a compiled kernel profile that fails
    /// validation (see `SimError::InvalidProfile`). Checked when a fleet
    /// is built, so no node — seed or later join — can hit it mid-run.
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

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "a fleet needs at least one node"),
            ClusterError::NoModels => write!(f, "no compiled model is registered"),
            ClusterError::UnknownModel { model } => {
                write!(f, "model {model} is not registered")
            }
            ClusterError::EmptyWorkload => write!(f, "cannot serve an empty query stream"),
            ClusterError::NonFiniteArrival { arrival_s } => {
                write!(f, "arrival times must be finite, got {arrival_s}")
            }
            ClusterError::InvalidDuration { dt_s } => {
                write!(f, "run durations must be positive and finite, got {dt_s}")
            }
            ClusterError::NonFiniteTarget { t_s } => {
                write!(f, "run targets must be finite, got {t_s}")
            }
            ClusterError::RegistryMismatch { nodes, registries } => {
                write!(
                    f,
                    "per-node registries must match the node list: {nodes} nodes, \
                     {registries} registries"
                )
            }
            ClusterError::UnknownNode { node } => {
                write!(f, "node {node} is not in the fleet roster")
            }
            ClusterError::FleetEmpty => {
                write!(
                    f,
                    "the operation would leave the fleet with zero routable nodes"
                )
            }
            ClusterError::InvalidScalePolicy { field, value } => {
                write!(f, "scale policy parameter {field} is out of range: {value}")
            }
            ClusterError::InvalidConfig { reason } => {
                write!(f, "invalid serving config: {reason}")
            }
            ClusterError::InvalidProfile {
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

impl std::error::Error for ClusterError {}

impl From<SimError> for ClusterError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::UnknownModel { model } => ClusterError::UnknownModel { model },
            SimError::EmptyWorkload => ClusterError::EmptyWorkload,
            SimError::NonFiniteArrival { arrival_s } => {
                ClusterError::NonFiniteArrival { arrival_s }
            }
            SimError::NonFiniteTarget { target_s } => {
                ClusterError::NonFiniteTarget { t_s: target_s }
            }
            SimError::InvalidConfig { reason } => ClusterError::InvalidConfig { reason },
            SimError::InvalidProfile {
                model,
                layer,
                version,
                reason,
            } => ClusterError::InvalidProfile {
                model,
                layer,
                version,
                reason,
            },
        }
    }
}

/// Fleet-imposed ceiling on deferrals of a single query, applied on top
/// of whatever the admission controller decides. A controller that keeps
/// returning `Defer` regardless of the `attempts` counter (a buggy or
/// adversarial implementation of the public trait) would otherwise spin
/// [`Fleet::run_to_completion`] forever; at the cap the query is shed.
/// Public so admission-invariant property tests can pin the bound.
pub const DEFER_HARD_CAP: u32 = 32;

/// A query waiting at the fleet front door for its routing instant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PendingQuery {
    /// When the query is next offered to the router: the submitted
    /// arrival time, pushed later by each admission deferral.
    due: SimTime,
    /// The originally submitted arrival time. Latency accounting runs
    /// from here, so deferral hold time counts against the SLO.
    arrival: SimTime,
    /// Tie-break: fleet submission order, so equal-time arrivals are
    /// processed deterministically.
    seq: u64,
    /// Index into the fleet's model registry.
    model: usize,
    /// Deferral count so far.
    attempts: u32,
    /// The query's fleet-wide trace identity: the submission sequence
    /// number of its *original* front-door entry, preserved through
    /// deferrals and drain/kill re-routes (which re-ticket `seq` but
    /// keep the trace id, so one lifecycle chain stays one span).
    trace: u64,
}

impl Ord for PendingQuery {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

impl PartialOrd for PendingQuery {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A point-in-time view of one fleet node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// The node's display name.
    pub name: String,
    /// The node's live load view (what routers see).
    pub load: NodeLoad,
    /// Queries routed into this node so far.
    pub routed: u64,
    /// Queries this node has completed so far.
    pub completed: usize,
    /// The node's lifecycle state (see [`NodeState`]).
    pub state: NodeState,
}

/// One finished query, as reported by [`Fleet::poll`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The query's id: what [`Fleet::submit`] returned for it, kept
    /// through drain and kill re-routes.
    pub query: u64,
    /// The model the query targeted.
    pub model: String,
    /// Arrival time, seconds of fleet clock.
    pub arrival_s: f64,
    /// Completion time, seconds of fleet clock.
    pub finish_s: f64,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Whether the latency met the model's QoS target.
    pub qos_met: bool,
}

/// A point-in-time view of a live fleet, from [`Fleet::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Fleet clock, seconds.
    pub now_s: f64,
    /// Queries submitted to the fleet so far (client submissions only;
    /// re-routes of orphaned queries are counted in `rerouted`, not
    /// here).
    pub submitted: u64,
    /// Front-door re-entries of queries orphaned by a drain or kill.
    pub rerouted: u64,
    /// Queries completed across all nodes.
    pub completed: usize,
    /// Queries still waiting at the front door (arrival in the future or
    /// held by a deferral).
    pub front_door: usize,
    /// Queries refused by admission control so far.
    pub shed: u64,
    /// Deferral events so far.
    pub deferrals: u64,
    /// Per-node views, in fleet node order.
    pub nodes: Vec<NodeSnapshot>,
    /// The pooled fleet-wide report over queries completed so far.
    pub report: veltair_sched::ServingReport,
    /// Coordinator work counters so far (see [`CoordinatorStats`]).
    pub coordinator: CoordinatorStats,
    /// The metrics registry as of this snapshot, when telemetry is
    /// enabled ([`Fleet::enable_telemetry`]). Node-side figures
    /// (histograms, the violation table) are fresh as of the last
    /// coordinator pull point; coordinator counters are exact.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetSnapshot {
    /// Nodes currently in the given lifecycle state.
    fn count_state(&self, state: NodeState) -> usize {
        self.nodes.iter().filter(|n| n.state == state).count()
    }

    /// Routable, serving nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.count_state(NodeState::Live)
    }

    /// Temporarily unreachable nodes awaiting recovery.
    #[must_use]
    pub fn stalled_nodes(&self) -> usize {
        self.count_state(NodeState::Stalled)
    }

    /// Nodes finishing in-flight work on their way out.
    #[must_use]
    pub fn draining_nodes(&self) -> usize {
        self.count_state(NodeState::Draining)
    }

    /// Nodes that have left the fleet (drained dry or crash-killed).
    #[must_use]
    pub fn dead_nodes(&self) -> usize {
        self.count_state(NodeState::Dead)
    }
}

/// Builds the live load view of one node. Reading `pressure` costs a
/// monitor pass over the node's running units, so it is gated on
/// `want_pressure`.
fn load_of(driver: &Driver<'_>, node: usize, want_pressure: bool) -> NodeLoad {
    NodeLoad {
        node,
        outstanding: driver.outstanding(),
        queued: driver.queued(),
        in_flight: driver.in_flight(),
        busy_cores: driver.busy_cores(),
        total_cores: driver.total_cores(),
        occupancy: driver.occupancy(),
        pressure: if want_pressure {
            driver.pressure()
        } else {
            0.0
        },
    }
}

/// The telemetry class of a node: `"{cores}c/{policy}"`, the row label
/// of [`TelemetrySnapshot::violation_rows`].
fn node_class(driver: &Driver<'_>) -> String {
    format!("{}c/{}", driver.total_cores(), driver.policy().name())
}

/// Opens an idle driver for `spec` over `models`, surfacing an invalid
/// node configuration or QoS target as [`ClusterError::InvalidConfig`]
/// and an invalid compiled kernel profile as
/// [`ClusterError::InvalidProfile`].
fn open_node<'a>(models: &'a [CompiledModel], spec: &NodeSpec) -> Result<Driver<'a>, ClusterError> {
    Driver::open(models, spec.config.clone()).map_err(|e| spec.driver_error(e))
}

/// The autoscaling attachment: the policy, its built scaler, and the
/// tick/provisioning bookkeeping (see [`ScalePolicy`]).
struct ScaleState {
    policy: ScalePolicy,
    scaler: HysteresisAutoscaler,
    /// Next autoscaler consultation instant.
    next_tick: SimTime,
    /// Nodes provisioned so far (names the next clone `template-{n}`).
    spawned: u64,
}

/// N per-node serving drivers composed behind a router and an admission
/// controller, advancing in lockstep virtual time.
pub struct Fleet<'a> {
    models: &'a [CompiledModel],
    names: Vec<String>,
    drivers: Vec<Driver<'a>>,
    router: Box<dyn Router>,
    admission: Box<dyn AdmissionController>,
    pending: std::collections::BinaryHeap<PendingQuery>,
    now: SimTime,
    next_seq: u64,
    /// Client submissions (decoupled from `next_seq`, which also tickets
    /// re-routes of orphaned queries).
    submitted: u64,
    /// Front-door re-entries of queries orphaned by a drain or kill.
    rerouted: u64,
    routed: Vec<u64>,
    shed: u64,
    shed_per_model: BTreeMap<String, u64>,
    deferrals: u64,
    /// The rank index (see [`LoadIndex`]): the active router's keys, the
    /// routability mask and the sampling weights.
    index: LoadIndex,
    /// Last [`Driver::version`] folded into the index, per node.
    /// Initialized to a sentinel that matches no real version so the
    /// first refresh keys every node.
    node_version: Vec<u64>,
    /// Coordinator work counters for the run so far.
    stats: CoordinatorStats,
    /// Per-node lifecycle state, parallel to `drivers`. Departed nodes
    /// keep their slot (see [`NodeState`]).
    node_state: Vec<NodeState>,
    /// Count of `Draining` nodes, gating the idle-promotion sweep so
    /// churn-free runs pay nothing for it.
    draining_count: usize,
    /// The attached failure schedule, stably sorted by instant, walked by
    /// `failure_cursor`.
    failure_events: Vec<FailureEvent>,
    failure_cursor: usize,
    /// Scheduled stall recoveries, `(instant, node)`, earliest first.
    stalls: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Provisioned nodes awaiting their join instant, in join order
    /// (instants are monotone: every join is `decision + delay` with one
    /// policy-fixed delay).
    pending_joins: VecDeque<(SimTime, NodeSpec)>,
    /// The autoscaling attachment, if any.
    scale: Option<ScaleState>,
    /// The flight recorder, when enabled: merges coordinator lifecycle
    /// events with per-node sink pulls and keeps the metrics registry.
    /// `None` (the default) keeps the hot path telemetry-free — every
    /// emission site is behind one `Option` branch.
    telemetry: Option<Collector>,
    /// Collector track id per roster slot, parallel to `drivers`.
    node_track: Vec<u32>,
    /// Per-node `driver-local query index -> fleet query id` tables,
    /// parallel to `drivers`: grown at each admission, consulted when a
    /// node's completions are polled or its sink is absorbed (both carry
    /// local indices) and when a drain/kill orphan re-enters the front
    /// door.
    trace_maps: Vec<Vec<u64>>,
    /// Per-node count of completions already returned by
    /// [`Fleet::poll`], parallel to `drivers`.
    polled: Vec<usize>,
    /// Scratch buffer for node sink pulls, reused so the pull points
    /// allocate nothing in steady state.
    trace_scratch: Vec<(f64, TraceEventKind)>,
}

impl std::fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("now", &self.now)
            .field("nodes", &self.names)
            .field("router", &self.router.name())
            .field("admission", &self.admission.name())
            .field("front_door", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Fleet<'a> {
    /// Builds a fleet over a shared compiled-model registry: every node
    /// serves the same artifacts, typically compiled against the flagship
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoNodes`] if `specs` is empty and
    /// [`ClusterError::NoModels`] if `models` is.
    pub fn new(
        models: &'a [CompiledModel],
        specs: &[NodeSpec],
        router: Box<dyn Router>,
        admission: Box<dyn AdmissionController>,
    ) -> Result<Self, ClusterError> {
        let node_models = vec![models; specs.len()];
        Self::with_node_registries(models, node_models, specs, router, admission)
    }

    /// Builds a fleet whose nodes serve from *per-node* compiled
    /// registries — the heterogeneous-hardware path: each node runs code
    /// compiled for its own machine (compile each machine class once
    /// through one `veltair_compiler::CompilerService` and pass every
    /// node its class's slice), while `catalog` is the fleet-level model
    /// list the front door validates submissions against, shows to the
    /// router, and opens later joins on (model identity — name, SLO,
    /// class — is machine-independent, so any registry's copy serves;
    /// typically it is one of the node slices).
    ///
    /// Opening validates each node by opening its driver. The catalog is
    /// validated by a driver of its own only when no node serves that
    /// very slice (`std::ptr::eq`): a node that does has already run the
    /// same profile and QoS checks.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoNodes`] / [`ClusterError::NoModels`] for
    /// empty inputs, [`ClusterError::RegistryMismatch`] when
    /// `node_models` and `specs` differ in length, and
    /// [`ClusterError::UnknownModel`] when some node's registry is
    /// missing a catalog model (every node must be able to serve every
    /// model the front door accepts), [`ClusterError::InvalidConfig`]
    /// when a node's machine or projection weight cannot be simulated or
    /// a model's QoS target is not positive and finite, and
    /// [`ClusterError::InvalidProfile`] when a node registry or the
    /// catalog carries an invalid compiled kernel profile (later joins
    /// open their drivers on the catalog).
    pub fn with_node_registries(
        catalog: &'a [CompiledModel],
        node_models: Vec<&'a [CompiledModel]>,
        specs: &[NodeSpec],
        router: Box<dyn Router>,
        admission: Box<dyn AdmissionController>,
    ) -> Result<Self, ClusterError> {
        if specs.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        if catalog.is_empty() {
            return Err(ClusterError::NoModels);
        }
        if node_models.len() != specs.len() {
            return Err(ClusterError::RegistryMismatch {
                nodes: specs.len(),
                registries: node_models.len(),
            });
        }
        for registry in &node_models {
            if let Some(missing) = catalog
                .iter()
                .find(|m| !registry.iter().any(|r| r.name == m.name))
            {
                return Err(ClusterError::UnknownModel {
                    model: missing.name.clone(),
                });
            }
        }
        let drivers = node_models
            .iter()
            .zip(specs)
            .map(|(models, s)| open_node(models, s))
            .collect::<Result<Vec<Driver<'a>>, _>>()?;
        // Later joins (`add_node`, autoscaler scale-out) open their
        // drivers on the catalog, so it must be valid too; a node serving
        // the catalog itself has already run those checks.
        if !node_models.iter().any(|m| std::ptr::eq(*m, catalog)) {
            open_node(catalog, &specs[0])?;
        }
        let index = LoadIndex::new(
            drivers
                .iter()
                .map(|d| u64::from(d.total_cores()).max(1))
                .collect(),
        );
        Ok(Self {
            models: catalog,
            names: specs.iter().map(|s| s.name.clone()).collect(),
            routed: vec![0; drivers.len()],
            node_version: vec![u64::MAX; drivers.len()],
            node_state: vec![NodeState::Live; drivers.len()],
            trace_maps: vec![Vec::new(); drivers.len()],
            polled: vec![0; drivers.len()],
            drivers,
            router,
            admission,
            pending: std::collections::BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            submitted: 0,
            rerouted: 0,
            shed: 0,
            shed_per_model: BTreeMap::new(),
            deferrals: 0,
            index,
            stats: CoordinatorStats::default(),
            draining_count: 0,
            failure_events: Vec::new(),
            failure_cursor: 0,
            stalls: BinaryHeap::new(),
            pending_joins: VecDeque::new(),
            scale: None,
            telemetry: None,
            node_track: Vec::new(),
            trace_scratch: Vec::new(),
        })
    }

    /// Returns the fleet unchanged: nodes always advance on the
    /// coordinator thread (see [`StepMode`], kept only for perfbench).
    #[must_use]
    pub fn with_step_mode(self, _mode: StepMode) -> Self {
        self
    }

    /// Attaches a deterministic failure schedule (replacing any previous
    /// one): crash/stall/drain events fire at their scheduled instants as
    /// the fleet clock passes them. Events aimed at out-of-range node
    /// indices, already-dead nodes, or whose action would leave zero
    /// routable nodes are skipped — a plan is best-effort, so it composes
    /// with autoscaling changing the roster underneath it.
    pub fn set_failure_plan(&mut self, plan: FailurePlan) {
        self.failure_events = plan.into_sorted_events();
        self.failure_cursor = 0;
    }

    /// Attaches a failure schedule at construction time:
    /// `Fleet::new(..)?.with_failure_plan(plan)`.
    #[must_use]
    pub fn with_failure_plan(mut self, plan: FailurePlan) -> Self {
        self.set_failure_plan(plan);
        self
    }

    /// Attaches (or replaces) the autoscaling policy. The scaler's first
    /// consultation is one policy interval after attachment; each tick
    /// sees a live [`FleetSnapshot`] and its decision executes under the
    /// policy guard rails (see [`ScalePolicy`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the policy's template
    /// fails [`NodeSpec::validate`]: its clones join mid-run, where
    /// nothing could report the error. The previous policy, if any, stays
    /// attached.
    pub fn set_scale_policy(&mut self, policy: ScalePolicy) -> Result<(), ClusterError> {
        policy.template.validate()?;
        let scaler = HysteresisAutoscaler::new(policy.autoscaler);
        self.scale = Some(ScaleState {
            next_tick: self.now.after(policy.interval_s),
            scaler,
            policy,
            spawned: 0,
        });
        Ok(())
    }

    /// Attaches the autoscaling policy at construction time:
    /// `Fleet::new(..)?.with_scale_policy(policy)?`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fleet::set_scale_policy`].
    pub fn with_scale_policy(mut self, policy: ScalePolicy) -> Result<Self, ClusterError> {
        self.set_scale_policy(policy)?;
        Ok(self)
    }

    // --- Telemetry --------------------------------------------------------

    /// Turns on the flight recorder: query-lifecycle events
    /// (`Submitted → Routed → Admitted/Deferred/Shed → Dispatched →
    /// Completed/Violated`, plus `Requeued` detours) and node-lifecycle
    /// events flow into a [`Collector`] that merges coordinator and
    /// per-node streams deterministically.
    ///
    /// Determinism contract: enabling telemetry never perturbs the
    /// simulation — reports stay bit-identical to an untraced run — and
    /// the merged trace itself is a pure function of the run, because
    /// every coordinator event fires at a virtual-time instant and node
    /// sinks are pulled in roster order at fixed points (the end of every
    /// [`Fleet::run_until`] / [`Fleet::run_to_completion`]).
    ///
    /// Call before submitting work: events for queries admitted earlier
    /// cannot be retroactively attributed. Each existing roster node is
    /// registered as a track and announced with a `NodeJoined` event at
    /// the current instant.
    pub fn enable_telemetry(&mut self, config: TraceConfig) {
        let models = self.models.iter().map(|m| m.name.clone()).collect();
        let mut tm = Collector::new(config, models);
        self.node_track.clear();
        for (i, d) in self.drivers.iter_mut().enumerate() {
            self.node_track
                .push(tm.register_track(&self.names[i], &node_class(d)));
            d.set_trace_sink(tm.make_sink());
            tm.coordinator(self.now.0, TraceEventKind::NodeJoined { node: i as u32 });
        }
        self.telemetry = Some(tm);
    }

    /// Enables the flight recorder at construction time:
    /// `Fleet::new(..)?.with_telemetry(TraceConfig::unbounded())`.
    #[must_use]
    pub fn with_telemetry(mut self, config: TraceConfig) -> Self {
        self.enable_telemetry(config);
        self
    }

    /// A point-in-time copy of the metrics registry, when telemetry is
    /// enabled. Pulls every node's buffered events first, so histograms
    /// and the violation table are current to the fleet clock.
    pub fn telemetry_snapshot(&mut self) -> Option<TelemetrySnapshot> {
        self.pull_traces();
        self.telemetry.as_ref().map(Collector::snapshot)
    }

    /// Materializes the merged trace so far: every event, sorted by
    /// `(virtual time, track)` with the coordinator first within an
    /// instant. Pulls node sinks first. `None` when telemetry is off.
    pub fn trace_log(&mut self) -> Option<TraceLog> {
        self.pull_traces();
        self.telemetry.as_ref().map(Collector::log)
    }

    /// Drains every node's trace sink into the collector, in roster
    /// order, rewriting driver-local query indices into fleet query ids.
    /// Extra pulls are harmless to the final merged log: the sort key is
    /// `(time, track)` and a node's events drain FIFO, so pull timing
    /// can never reorder the materialized trace.
    fn pull_traces(&mut self) {
        let Some(tm) = self.telemetry.as_mut() else {
            return;
        };
        let mut buf = std::mem::take(&mut self.trace_scratch);
        for (i, d) in self.drivers.iter_mut().enumerate() {
            buf.clear();
            d.drain_trace(&mut buf);
            let dropped = d.trace_dropped();
            if buf.is_empty() && dropped == 0 {
                continue;
            }
            tm.absorb_events(self.node_track[i], &mut buf, &self.trace_maps[i], dropped);
        }
        self.trace_scratch = buf;
    }

    /// Records one coordinator lifecycle event when telemetry is on —
    /// the single `Option` branch every emission site pays.
    #[inline]
    fn emit(&mut self, at_s: f64, kind: TraceEventKind) {
        if let Some(tm) = self.telemetry.as_mut() {
            tm.coordinator(at_s, kind);
        }
    }

    // --- Observation ------------------------------------------------------

    /// Fleet clock, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now.0
    }

    /// Number of roster slots, living or not — departed nodes keep their
    /// slot so indices stay stable under churn.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.drivers.len()
    }

    /// Per-node lifecycle states, in fleet node order.
    #[must_use]
    pub fn node_states(&self) -> &[NodeState] {
        &self.node_state
    }

    /// Count of live (routable) nodes.
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.index.live_len()
    }

    /// The fleet-level model catalog submissions are validated against.
    /// With per-node registries ([`Fleet::with_node_registries`]) the
    /// nodes may serve different compilations of these models.
    #[must_use]
    pub fn models(&self) -> &'a [CompiledModel] {
        self.models
    }

    /// Whether every routed query has completed and the front door is
    /// empty.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.drivers.iter().all(Driver::is_idle)
    }

    /// Checks the coordinator's bookkeeping and returns the first broken
    /// rule, in O(roster):
    ///
    /// * every per-node table (drivers, names, routed counts, the version
    ///   cache, the trace maps, the poll cursors and the load index) has
    ///   one entry per roster slot;
    /// * a node is routable in the index exactly when it is
    ///   [`NodeState::Live`], and the index's live count equals the
    ///   `Live` nodes;
    /// * a [`NodeState::Dead`] node holds no outstanding work;
    /// * the draining counter equals the `Draining` nodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn check_invariants(&self) -> Result<(), String> {
        let slots = self.node_state.len();
        for (table, len) in [
            ("drivers", self.drivers.len()),
            ("names", self.names.len()),
            ("routed", self.routed.len()),
            ("node_version", self.node_version.len()),
            ("trace_maps", self.trace_maps.len()),
            ("polled", self.polled.len()),
            ("index", self.index.len()),
        ] {
            if len != slots {
                return Err(format!(
                    "{table} holds {len} entries for {slots} roster slots"
                ));
            }
        }
        for (i, &state) in self.node_state.iter().enumerate() {
            if self.index.routable(i) != (state == NodeState::Live) {
                return Err(format!(
                    "node {i} is {} but its index routability is {}",
                    state.name(),
                    self.index.routable(i)
                ));
            }
            let outstanding = self.drivers[i].outstanding();
            if state == NodeState::Dead && outstanding != 0 {
                return Err(format!(
                    "node {i} is dead but holds {outstanding} outstanding queries"
                ));
            }
        }
        let count = |want: NodeState| self.node_state.iter().filter(|&&s| s == want).count();
        let live = count(NodeState::Live);
        if self.index.live_len() != live {
            return Err(format!(
                "the index counts {} live nodes, the roster {live}",
                self.index.live_len()
            ));
        }
        let draining = count(NodeState::Draining);
        if self.draining_count != draining {
            return Err(format!(
                "the draining counter reads {}, the roster holds {draining} draining nodes",
                self.draining_count
            ));
        }
        Ok(())
    }

    /// Live load views for every node, in fleet order — what the router
    /// is shown at a routing decision (with the pressure field populated;
    /// routing skips it when nothing consumes it). Allocates a fresh
    /// `Vec` for the caller; routing reads one node's load at a time and
    /// never goes through here.
    #[must_use]
    pub fn loads(&self) -> Vec<NodeLoad> {
        self.drivers
            .iter()
            .enumerate()
            .map(|(i, d)| load_of(d, i, true))
            .collect()
    }

    /// A point-in-time fleet view: per-node loads and routed/completed
    /// counts plus the pooled mid-run report. Does not perturb the run.
    #[must_use]
    pub fn snapshot(&self) -> FleetSnapshot {
        let nodes: Vec<NodeSnapshot> = self
            .loads()
            .into_iter()
            .zip(&self.drivers)
            .map(|(load, d)| NodeSnapshot {
                name: self.names[load.node].clone(),
                routed: self.routed[load.node],
                completed: d.completions().len(),
                state: self.node_state[load.node],
                load,
            })
            .collect();
        let mut report = merge_reports(
            &self
                .drivers
                .iter()
                .map(Driver::snapshot)
                .collect::<Vec<_>>(),
        );
        // Mid-run, core-seconds have accrued up to now but the makespan
        // stops at the last completion: average over the elapsed time, as
        // each node's own snapshot does.
        let elapsed = self.now.0.max(report.makespan_s);
        if elapsed > 0.0 {
            report.avg_cores = report.core_seconds / elapsed;
        }
        FleetSnapshot {
            now_s: self.now.0,
            submitted: self.submitted,
            rerouted: self.rerouted,
            completed: self.drivers.iter().map(|d| d.completions().len()).sum(),
            front_door: self.pending.len(),
            shed: self.shed,
            deferrals: self.deferrals,
            nodes,
            report,
            coordinator: self.stats,
            telemetry: self.telemetry.as_ref().map(Collector::snapshot),
        }
    }

    /// Returns the queries that completed since the last `poll` (or since
    /// the fleet opened), across every node, in non-decreasing
    /// completion time (ties in roster order). Each carries the id its
    /// [`submit`](Fleet::submit) returned, also after a drain or kill
    /// re-routed it. Non-blocking: an empty vector means nothing new
    /// finished, not that the fleet is idle.
    pub fn poll(&mut self) -> Vec<Completion> {
        let mut done = Vec::new();
        for (node, d) in self.drivers.iter().enumerate() {
            let state = d.state();
            for &q in &d.completions()[self.polled[node]..] {
                let st = &state.queries[q];
                let model = &state.models[st.model];
                let finish = st
                    .finish
                    .expect("completion log only holds finished queries");
                let latency_s = finish.since(st.arrival);
                done.push(Completion {
                    query: self.trace_maps[node][q],
                    model: model.name.clone(),
                    arrival_s: st.arrival.0,
                    finish_s: finish.0,
                    latency_s,
                    qos_met: latency_s <= model.qos_s,
                });
            }
            self.polled[node] = d.completions().len();
        }
        done.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s));
        done
    }

    // --- Input ------------------------------------------------------------

    /// Submits one query to the fleet front door. The query is routed when
    /// the fleet clock reaches its arrival (clamped to *now* if already
    /// past). Returns the fleet-level submission sequence number.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownModel`] if the model is not in the
    /// registry and [`ClusterError::NonFiniteArrival`] for NaN/infinite
    /// arrival times.
    pub fn submit(&mut self, spec: &QuerySpec) -> Result<u64, ClusterError> {
        if !spec.arrival.0.is_finite() {
            return Err(ClusterError::NonFiniteArrival {
                arrival_s: spec.arrival.0,
            });
        }
        let model = self
            .models
            .iter()
            .position(|m| m.name == spec.model)
            .ok_or_else(|| ClusterError::UnknownModel {
                model: spec.model.clone(),
            })?;
        let arrival = if spec.arrival < self.now {
            self.now
        } else {
            spec.arrival
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.submitted += 1;
        self.emit(
            arrival.0,
            TraceEventKind::Submitted {
                query: seq,
                model: model as u32,
            },
        );
        self.pending.push(PendingQuery {
            due: arrival,
            arrival,
            seq,
            model,
            attempts: 0,
            trace: seq,
        });
        Ok(seq)
    }

    /// Submits a whole workload's generated stream, every arrival offset
    /// by the fleet's current clock. Atomic: stream model names and
    /// arrival times are validated up front, so an error means nothing
    /// was submitted.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownModel`] if the workload references
    /// a model outside the registry and [`ClusterError::NonFiniteArrival`]
    /// if a stream rate makes an arrival time NaN or infinite.
    pub fn submit_stream(
        &mut self,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> Result<Vec<u64>, ClusterError> {
        if let Some((name, _)) = workload
            .streams
            .iter()
            .find(|(name, _)| !self.models.iter().any(|m| &m.name == name))
        {
            return Err(ClusterError::UnknownModel {
                model: name.clone(),
            });
        }
        let base = self.now.0;
        let mut queries = workload.generate(seed);
        for q in &mut queries {
            q.arrival = SimTime(base + q.arrival.0);
        }
        if let Some(q) = queries.iter().find(|q| !q.arrival.0.is_finite()) {
            return Err(ClusterError::NonFiniteArrival {
                arrival_s: q.arrival.0,
            });
        }
        queries.iter().map(|q| self.submit(q)).collect()
    }

    /// Hot-swaps one node's scheduling policy at the current dispatch
    /// boundary (see `Driver::set_policy`): its queued work is offered to
    /// the new discipline at once, while in-flight units keep their
    /// allocations until their next natural boundary.
    ///
    /// With telemetry on, the node's events up to the swap are pulled
    /// first and keep the old `"{cores}c/{policy}"` class; its track is
    /// then relabeled, so work served from here on counts under the new
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an out-of-range index;
    /// the fleet is left untouched.
    pub fn set_policy(&mut self, node: usize, policy: Policy) -> Result<(), ClusterError> {
        if node >= self.drivers.len() {
            return Err(ClusterError::UnknownNode { node });
        }
        self.pull_traces();
        let driver = &mut self.drivers[node];
        driver.set_policy(policy);
        if let Some(tm) = self.telemetry.as_mut() {
            tm.set_class(self.node_track[node], &node_class(driver));
        }
        Ok(())
    }

    // --- Elasticity -------------------------------------------------------

    /// Adds a node to the roster at the current fleet instant, serving
    /// the fleet-level catalog. The new driver's clock is synced to the
    /// fleet clock and the node is immediately routable. Returns the new
    /// node's index.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if `spec` fails
    /// [`NodeSpec::validate`]; the roster is left unchanged. (The
    /// catalog's profiles were validated when the fleet was built.)
    pub fn add_node(&mut self, spec: &NodeSpec) -> Result<usize, ClusterError> {
        let node = self.drivers.len();
        let mut driver = open_node(self.models, spec)?;
        driver.run_until(self.now).expect(FINITE_INSTANTS);
        if let Some(tm) = self.telemetry.as_mut() {
            self.node_track
                .push(tm.register_track(&spec.name, &node_class(&driver)));
            driver.set_trace_sink(tm.make_sink());
            tm.coordinator(self.now.0, TraceEventKind::NodeJoined { node: node as u32 });
        }
        self.index.push(u64::from(driver.total_cores()).max(1));
        self.drivers.push(driver);
        self.names.push(spec.name.clone());
        self.routed.push(0);
        self.trace_maps.push(Vec::new());
        self.polled.push(0);
        self.node_version.push(u64::MAX);
        self.node_state.push(NodeState::Live);
        self.stats.nodes_added += 1;
        Ok(node)
    }

    /// Gracefully drains a node at the current fleet instant: it stops
    /// receiving new work, its queued-but-unstarted queries re-enter the
    /// front door (fresh routing, original arrival time — hold time
    /// counts against the SLO), and its in-flight work finishes before
    /// the node goes [`NodeState::Dead`]. Draining an already
    /// draining/dead node is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an out-of-range index
    /// and [`ClusterError::FleetEmpty`] if the drain would leave zero
    /// routable nodes.
    pub fn drain_node(&mut self, node: usize) -> Result<(), ClusterError> {
        if node >= self.drivers.len() {
            return Err(ClusterError::UnknownNode { node });
        }
        if matches!(self.node_state[node], NodeState::Draining | NodeState::Dead) {
            return Ok(());
        }
        if self.would_empty(node) {
            return Err(ClusterError::FleetEmpty);
        }
        self.drain_node_inner(node);
        Ok(())
    }

    /// Crash-stops a node at the current fleet instant: every incomplete
    /// query on it — waiting *and* in-flight, with partial progress lost
    /// — re-enters the front door (the client-retry model), and the node
    /// goes [`NodeState::Dead`]. Work it already completed stays in the
    /// report. Killing a dead node is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownNode`] for an out-of-range index
    /// and [`ClusterError::FleetEmpty`] if the kill would leave zero
    /// routable nodes.
    pub fn kill_node(&mut self, node: usize) -> Result<(), ClusterError> {
        if node >= self.drivers.len() {
            return Err(ClusterError::UnknownNode { node });
        }
        if self.node_state[node] == NodeState::Dead {
            return Ok(());
        }
        if self.would_empty(node) {
            return Err(ClusterError::FleetEmpty);
        }
        self.kill_node_inner(node);
        Ok(())
    }

    /// Whether removing `node` from the routable set would leave it
    /// empty. Only `Live` membership counts: stalled/draining nodes are
    /// already unroutable.
    fn would_empty(&self, node: usize) -> bool {
        self.index.live_len() - usize::from(self.node_state[node] == NodeState::Live) == 0
    }

    fn drain_node_inner(&mut self, node: usize) {
        self.node_state[node] = NodeState::Draining;
        self.draining_count += 1;
        self.index.set_routable(node, false);
        self.emit(
            self.now.0,
            TraceEventKind::NodeDraining { node: node as u32 },
        );
        let orphans = self.drivers[node].extract_waiting();
        self.reroute(node, orphans);
        self.stats.nodes_drained += 1;
        if self.drivers[node].is_idle() {
            self.node_state[node] = NodeState::Dead;
            self.draining_count -= 1;
            self.emit(
                self.now.0,
                TraceEventKind::NodeRetired { node: node as u32 },
            );
        }
    }

    fn kill_node_inner(&mut self, node: usize) {
        if self.node_state[node] == NodeState::Draining {
            self.draining_count -= 1;
        }
        self.node_state[node] = NodeState::Dead;
        self.index.set_routable(node, false);
        self.emit(self.now.0, TraceEventKind::NodeKilled { node: node as u32 });
        let orphans = self.drivers[node].halt();
        self.reroute(node, orphans);
        self.stats.nodes_killed += 1;
    }

    /// Makes a node unreachable until `at + duration`: no new work routes
    /// to it, in-flight work keeps executing (the network-partition
    /// model). Recovery is scheduled on the control timeline. Only called
    /// on `Live` nodes (plan application checks).
    fn stall_node_inner(&mut self, node: usize, duration_s: f64, at: SimTime) {
        self.node_state[node] = NodeState::Stalled;
        self.index.set_routable(node, false);
        self.emit(at.0, TraceEventKind::NodeStalled { node: node as u32 });
        self.stalls.push(Reverse((at.after(duration_s), node)));
    }

    /// Restores a stalled node to the routable set. A node that was
    /// drained or killed mid-stall stays where the stronger transition
    /// put it: the scheduled recovery becomes a no-op.
    fn recover_node(&mut self, node: usize) {
        if self.node_state[node] == NodeState::Stalled {
            self.node_state[node] = NodeState::Live;
            self.index.set_routable(node, true);
            self.emit(
                self.now.0,
                TraceEventKind::NodeRecovered { node: node as u32 },
            );
            // Force a re-key at the next decision: the node's masked key
            // went stale while routing could not observe it.
            self.node_version[node] = u64::MAX;
        }
    }

    /// Re-enters orphaned queries (from a drain or kill of `from_node`)
    /// at the front door: fresh submission tickets, due immediately,
    /// original arrival times (so the detour counts against their SLOs),
    /// deferral budget reset. Each orphan keeps its fleet query id —
    /// looked up through the node's local-index table — so it is polled
    /// under the id its submission returned, and its lifecycle chain
    /// records the detour as a `Requeued` event rather than splitting
    /// into two spans.
    fn reroute(&mut self, from_node: usize, orphans: Vec<(usize, QuerySpec)>) {
        for (local, spec) in orphans {
            let model = self
                .models
                .iter()
                .position(|m| m.name == spec.model)
                .expect("orphaned queries reference catalog models");
            let seq = self.next_seq;
            self.next_seq += 1;
            self.rerouted += 1;
            let trace = self.trace_maps[from_node][local];
            self.emit(
                self.now.0,
                TraceEventKind::Requeued {
                    query: trace,
                    from_node: from_node as u32,
                },
            );
            self.pending.push(PendingQuery {
                due: self.now,
                arrival: spec.arrival,
                seq,
                model,
                attempts: 0,
                trace,
            });
        }
    }

    /// Promotes drained-dry nodes to `Dead`. Gated on `draining_count`
    /// so churn-free runs pay one integer compare; called at the
    /// deterministic advance points of `run_until`, so the promotion
    /// instant is a pure function of the run.
    fn sweep_draining(&mut self) {
        if self.draining_count == 0 {
            return;
        }
        for (i, d) in self.drivers.iter().enumerate() {
            if self.node_state[i] == NodeState::Draining && d.is_idle() {
                self.node_state[i] = NodeState::Dead;
                self.draining_count -= 1;
                if let Some(tm) = self.telemetry.as_mut() {
                    tm.coordinator(self.now.0, TraceEventKind::NodeRetired { node: i as u32 });
                }
            }
        }
    }

    // --- The control timeline ---------------------------------------------

    /// The earliest pending control instant: the next failure event,
    /// stall recovery, provisioned join, or autoscaler tick.
    fn next_control_time(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            if next.is_none_or(|cur| t < cur) {
                next = Some(t);
            }
        };
        if let Some(ev) = self.failure_events.get(self.failure_cursor) {
            fold(SimTime(ev.at_s));
        }
        if let Some(Reverse((t, _))) = self.stalls.peek() {
            fold(*t);
        }
        if let Some((t, _)) = self.pending_joins.front() {
            fold(*t);
        }
        if let Some(scale) = &self.scale {
            fold(scale.next_tick);
        }
        next
    }

    /// Applies every control action due at `ct`, in the fixed order
    /// failure events → stall recoveries → provisioned joins →
    /// autoscaler tick. The order is part of the determinism contract:
    /// within one instant, injected faults are observed by the recovery
    /// and scaling machinery, and the autoscaler tick sees the
    /// post-churn fleet.
    fn process_control_at(&mut self, ct: SimTime) {
        while let Some(ev) = self.failure_events.get(self.failure_cursor) {
            if SimTime(ev.at_s) > ct {
                break;
            }
            let ev = ev.clone();
            self.failure_cursor += 1;
            self.apply_failure(&ev, ct);
        }
        while let Some(&Reverse((t, node))) = self.stalls.peek() {
            if t > ct {
                break;
            }
            self.stalls.pop();
            self.recover_node(node);
        }
        while let Some((t, _)) = self.pending_joins.front() {
            if *t > ct {
                break;
            }
            let (_, spec) = self.pending_joins.pop_front().expect("peeked entry exists");
            self.add_node(&spec)
                .expect("the template was validated when its policy was attached");
        }
        if self.scale.as_ref().is_some_and(|s| s.next_tick <= ct) {
            self.tick_autoscaler(ct);
        }
    }

    /// Applies one scheduled failure event, skipping it (by design, not
    /// error) when its target is out of range, already departed, or the
    /// last routable node — see [`Fleet::set_failure_plan`].
    fn apply_failure(&mut self, ev: &FailureEvent, ct: SimTime) {
        let node = ev.node;
        if node >= self.drivers.len() {
            return;
        }
        match ev.kind {
            FailureKind::Crash => {
                if self.node_state[node] != NodeState::Dead && !self.would_empty(node) {
                    self.kill_node_inner(node);
                }
            }
            FailureKind::Stall { duration_s } => {
                if self.node_state[node] == NodeState::Live && !self.would_empty(node) {
                    self.stall_node_inner(node, duration_s, ct);
                }
            }
            FailureKind::Drain => {
                if !matches!(self.node_state[node], NodeState::Draining | NodeState::Dead)
                    && !self.would_empty(node)
                {
                    self.drain_node_inner(node);
                }
            }
        }
    }

    /// One autoscaler consultation: decide over a live snapshot, execute
    /// under the policy guard rails, schedule the next tick.
    fn tick_autoscaler(&mut self, ct: SimTime) {
        let snapshot = self.snapshot();
        let Some(scale) = self.scale.as_mut() else {
            return;
        };
        scale.next_tick = ct.after(scale.policy.interval_s);
        match scale.scaler.decide(&snapshot) {
            ScaleDecision::Hold => {}
            ScaleDecision::ScaleOut { nodes } => {
                // Cap counts capacity that exists or is on its way:
                // live + stalled (they recover) + still-provisioning.
                let present = self
                    .node_state
                    .iter()
                    .filter(|s| matches!(s, NodeState::Live | NodeState::Stalled))
                    .count()
                    + self.pending_joins.len();
                let room = scale.policy.max_nodes.saturating_sub(present);
                let join_at = ct.after(scale.policy.provision_delay_s);
                let added = nodes.min(room);
                if added > 0 {
                    if let Some(tm) = self.telemetry.as_mut() {
                        tm.coordinator(
                            ct.0,
                            TraceEventKind::ScaleOut {
                                added: added as u32,
                            },
                        );
                    }
                }
                for _ in 0..added {
                    let mut spec = scale.policy.template.clone();
                    spec.name = format!("{}-{}", scale.policy.template.name, scale.spawned);
                    scale.spawned += 1;
                    self.pending_joins.push_back((join_at, spec));
                }
            }
            ScaleDecision::ScaleIn { nodes } => {
                let allowed = self
                    .index
                    .live_len()
                    .saturating_sub(scale.policy.min_nodes)
                    .min(nodes);
                // Newest capacity leaves first (highest roster index),
                // mirroring how it arrived.
                let targets: Vec<usize> = self
                    .node_state
                    .iter()
                    .enumerate()
                    .rev()
                    .filter(|(_, s)| **s == NodeState::Live)
                    .take(allowed)
                    .map(|(i, _)| i)
                    .collect();
                for node in targets {
                    self.emit(ct.0, TraceEventKind::ScaleIn { node: node as u32 });
                    self.drain_node_inner(node);
                }
            }
        }
    }

    // --- Time -------------------------------------------------------------

    /// Advances every node to `t`, in roster order, and moves the fleet
    /// clock. Every node has reached exactly `t` on return, so the next
    /// routing decision sees each node's state at the decision instant.
    ///
    /// At a same-instant decision (a batch of arrivals at one `t`) there
    /// is no time to advance, but events scheduled exactly at `t` — e.g.
    /// the arrival injected for the previous same-instant query — must
    /// still be processed so routing sees live load: a cheap event-queue
    /// peek per node. Only a pass that moves time counts toward
    /// [`CoordinatorStats::pool_round_trips`].
    fn advance_nodes_to(&mut self, t: SimTime) {
        for d in &mut self.drivers {
            d.run_until(t).expect(FINITE_INSTANTS);
        }
        if t > self.now {
            self.stats.pool_round_trips += 1;
        }
        self.now = t;
    }

    /// Folds every node whose [`Driver::version`] moved since the last
    /// refresh back into the rank index.
    ///
    /// The version compare itself is O(nodes) per routing instant — the
    /// same order as the event-queue peek `advance_nodes_to` already does
    /// — and is deliberately *not* tallied as examined nodes: the
    /// counters measure decision work (loads read, keys compared), and
    /// under steady load almost all compares are cheap no-ops.
    fn refresh_index(&mut self) {
        let want_pressure = self.router.needs_pressure();
        for (i, d) in self.drivers.iter().enumerate() {
            // Unroutable nodes are masked by the index (+inf keys), so
            // their stale keys are unobservable; skipping them keeps
            // drained/dead slots free — recovery forces a re-key by
            // resetting the version cache.
            if self.node_state[i] != NodeState::Live {
                continue;
            }
            let v = d.version();
            if self.node_version[i] != v {
                self.node_version[i] = v;
                let load = load_of(d, i, want_pressure);
                let key = self.router.rank(&load);
                self.index.update(i, key);
                self.stats.index_updates += 1;
            }
        }
    }

    /// Routes every front-door query due at or before `t` (strictly
    /// before when `strict` — used to stop at a control instant, whose
    /// action must be observed by queries due exactly then), advancing
    /// the fleet to each routing instant so routing sees live load.
    fn route_due_upto(&mut self, t: SimTime, strict: bool) {
        while let Some(p) = self.pending.peek() {
            if p.due > t || (strict && p.due == t) {
                break;
            }
            let p = self.pending.pop().expect("peeked entry exists");
            self.advance_nodes_to(p.due);
            let model = &self.models[p.model];
            // The spec carries the *submitted* arrival: after a deferral
            // it lies in the past, and `inject_held` keeps it as the
            // latency baseline so hold time counts against the SLO.
            let query = QuerySpec {
                model: model.name.clone(),
                arrival: p.arrival,
            };
            self.stats.routing_decisions += 1;
            self.refresh_index();
            // A pick outside the roster or on a masked slot falls back to
            // the index minimum, so work only ever enters a `Live` node.
            let pick = self.router.route(&self.index, model, &query);
            let node = if pick < self.drivers.len() && self.index.routable(pick) {
                pick
            } else {
                self.index.min()
            };
            self.stats.nodes_examined += self.index.take_examined();
            // Admission reads the chosen node's load: one examination.
            let load = load_of(&self.drivers[node], node, self.admission.needs_pressure());
            self.stats.nodes_examined += 1;
            // One `Routed` event per routing decision — the pinned
            // equality `counts.routed == stats.routing_decisions` — then
            // exactly one of `Admitted`/`Deferred`/`Shed` for the offer.
            self.emit(
                p.due.0,
                TraceEventKind::Routed {
                    query: p.trace,
                    node: node as u32,
                    attempts: p.attempts,
                },
            );
            let decision = if p.attempts >= DEFER_HARD_CAP {
                AdmissionDecision::Shed
            } else {
                self.admission.decide(&load, model, p.attempts)
            };
            match decision {
                AdmissionDecision::Admit => {
                    let local = self.drivers[node]
                        .inject_held(&query)
                        .expect("model validated at submission");
                    self.routed[node] += 1;
                    // Every query a driver holds was admitted here, so
                    // its local indices are exactly this table's slots.
                    debug_assert_eq!(local, self.trace_maps[node].len());
                    self.trace_maps[node].push(p.trace);
                    self.emit(
                        p.due.0,
                        TraceEventKind::Admitted {
                            query: p.trace,
                            node: node as u32,
                            attempts: p.attempts,
                        },
                    );
                }
                AdmissionDecision::Defer { delay_s } => {
                    self.deferrals += 1;
                    // Clamp so a zero-delay controller still makes
                    // progress through its `attempts` counter.
                    let due = p.due.after(delay_s.max(1e-9));
                    self.emit(
                        p.due.0,
                        TraceEventKind::Deferred {
                            query: p.trace,
                            attempts: p.attempts + 1,
                            until_s: due.0,
                        },
                    );
                    self.pending.push(PendingQuery {
                        due,
                        arrival: p.arrival,
                        seq: p.seq,
                        model: p.model,
                        attempts: p.attempts + 1,
                        trace: p.trace,
                    });
                }
                AdmissionDecision::Shed => {
                    self.shed += 1;
                    *self.shed_per_model.entry(model.name.clone()).or_default() += 1;
                    self.emit(
                        p.due.0,
                        TraceEventKind::Shed {
                            query: p.trace,
                            model: p.model as u32,
                            attempts: p.attempts,
                        },
                    );
                }
            }
        }
    }

    /// Runs the fleet up to `t_s` seconds: routes every due arrival at
    /// its own instant, fires every control action (failures, recoveries,
    /// provisioned joins, autoscaler ticks) at its own instant, then
    /// advances all nodes to exactly `t_s`. Queries due exactly at a
    /// control instant route *after* it — a crash at `t_s` is observed by
    /// arrivals at `t_s`, never the other way around.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NonFiniteTarget`] if `t_s` is NaN or
    /// infinite; the fleet is left untouched.
    pub fn run_until(&mut self, t_s: f64) -> Result<(), ClusterError> {
        if !t_s.is_finite() {
            return Err(ClusterError::NonFiniteTarget { t_s });
        }
        self.advance_until(SimTime(t_s));
        Ok(())
    }

    /// [`Fleet::run_until`] for a finite target.
    fn advance_until(&mut self, t: SimTime) {
        while let Some(ct) = self.next_control_time() {
            if ct > t {
                break;
            }
            self.route_due_upto(ct, true);
            if ct > self.now {
                self.advance_nodes_to(ct);
            }
            self.sweep_draining();
            self.process_control_at(ct);
        }
        self.route_due_upto(t, false);
        if t > self.now {
            self.advance_nodes_to(t);
        }
        self.sweep_draining();
        // The deterministic pull point: node sinks drain in roster order
        // at the end of every public advance.
        self.pull_traces();
    }

    /// Runs the fleet for another `dt_s` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDuration`] if `dt_s` is NaN,
    /// infinite, or not strictly positive — silently accepting those
    /// would rewind the fleet clock or advance it to infinity.
    pub fn run_for(&mut self, dt_s: f64) -> Result<(), ClusterError> {
        if !dt_s.is_finite() || dt_s <= 0.0 {
            return Err(ClusterError::InvalidDuration { dt_s });
        }
        self.advance_until(self.now.after(dt_s));
        Ok(())
    }

    /// Routes every remaining arrival, then runs every node's event loop
    /// to exhaustion (one node-advancement pass).
    ///
    /// Control actions fire only up to the last front-door instant:
    /// failures, joins, and autoscaler ticks scheduled past the final
    /// arrival have no work left to affect and never fire (stall
    /// recoveries inside the drained span still complete, so a
    /// fleet that merely finished its backlog is not left partitioned).
    pub fn run_to_completion(&mut self) {
        while let Some(p) = self.pending.peek() {
            let t = p.due;
            self.advance_until(t);
        }
        for d in &mut self.drivers {
            d.run_to_completion();
        }
        self.stats.pool_round_trips += 1;
        let end = self
            .drivers
            .iter()
            .map(|d| d.now())
            .max()
            .unwrap_or(self.now);
        self.now = self.now.max(end);
        while let Some(&Reverse((t, node))) = self.stalls.peek() {
            if t > self.now {
                break;
            }
            self.stalls.pop();
            self.recover_node(node);
        }
        self.sweep_draining();
        self.pull_traces();
    }

    /// Finishes the fleet: drains everything and returns the final
    /// [`FleetReport`] with per-node and pooled statistics.
    #[must_use]
    pub fn finish(mut self) -> FleetReport {
        self.run_to_completion();
        let telemetry = self.telemetry.as_ref().map(Collector::snapshot);
        let per_node: Vec<veltair_sched::ServingReport> =
            self.drivers.into_iter().map(|d| d.finish().0).collect();
        FleetReport {
            merged: merge_reports(&per_node),
            per_node,
            node_names: self.names,
            routed_per_node: self.routed,
            node_states: self.node_state,
            submitted: self.submitted,
            rerouted: self.rerouted,
            shed: self.shed,
            shed_per_model: self.shed_per_model,
            deferrals: self.deferrals,
            coordinator: self.stats,
            telemetry,
        }
    }
}
