//! The resumable simulation driver: the serving event loop as a stepper
//! that the caller owns.
//!
//! A [`Driver`] holds the complete simulation in a [`SimState`] and
//! exposes the event loop one event at a time, dispatching through one
//! `match` on the active [`Policy`]. Between steps the caller may
//! [`inject`](Driver::inject) open-loop arrivals, [hot-swap the
//! policy](Driver::set_policy) at a dispatch boundary, or take an
//! incremental [`snapshot`](Driver::snapshot) of the accumulating
//! report. [`simulate`](crate::simulate) is a driver run to
//! exhaustion, so stepping one by hand reproduces it bit for bit.

use veltair_compiler::CompiledModel;
use veltair_sim::SimTime;

use super::state::{Event, SimState};
use super::{partitioned, spatial, temporal};
use crate::policy::Policy;
use crate::report::ServingReport;
use crate::simulator::SimConfig;
use crate::workload::QuerySpec;

/// Why a simulation could not be constructed or resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A query referenced a model absent from the compiled registry.
    UnknownModel {
        /// The model name the query asked for.
        model: String,
    },
    /// [`Driver::new`] or [`simulate`](crate::simulate) was handed an
    /// empty query stream. (Streaming drivers may start empty — see
    /// [`Driver::open`].)
    EmptyWorkload,
    /// A query's arrival time was not finite. (`SimTime` arithmetic
    /// treats non-finite times as programming errors and panics, so the
    /// fallible paths reject them up front.)
    NonFiniteArrival {
        /// The rejected arrival time, seconds.
        arrival_s: f64,
    },
    /// [`Driver::run_until`] was handed a NaN or infinite target. The
    /// clock cannot stand at either: every later event would have to be
    /// scheduled at or after it.
    NonFiniteTarget {
        /// The rejected target, seconds.
        target_s: f64,
    },
    /// The configuration cannot be simulated: the machine fails
    /// [`MachineConfig::validate`](veltair_sim::MachineConfig::validate)
    /// (e.g. zero cores or a NaN cache size), the projection weight is
    /// outside what [`ProjectionConfig::try_new`](crate::ProjectionConfig::try_new)
    /// accepts, the selector's parameters are outside what
    /// [`HysteresisConfig::try_new`](crate::HysteresisConfig::try_new)
    /// accepts, or a model's QoS target (`CompiledModel::qos_s`) is not
    /// positive and finite (the reason then names the model). Checked
    /// once, when the simulation is built, instead of panicking or
    /// running silently on it.
    InvalidConfig {
        /// The violated rule.
        reason: String,
    },
    /// A compiled version's kernel profile failed
    /// [`KernelProfile::validate`](veltair_sim::KernelProfile::validate)
    /// (e.g. NaN FLOPs). Profiles are checked once, when the simulation
    /// is built, instead of panicking inside the event loop at their
    /// first rating.
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

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownModel { model } => {
                write!(f, "model {model} was not compiled")
            }
            SimError::EmptyWorkload => {
                write!(f, "cannot simulate an empty query stream")
            }
            SimError::NonFiniteArrival { arrival_s } => {
                write!(f, "arrival times must be finite, got {arrival_s}")
            }
            SimError::NonFiniteTarget { target_s } => {
                write!(f, "run_until targets must be finite, got {target_s}")
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation config: {reason}")
            }
            SimError::InvalidProfile {
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

impl std::error::Error for SimError {}

/// A resumable serving simulation: the event loop, paused between events.
///
/// Lifetimes: the driver borrows the compiled-model registry (models are
/// large and shared across runs) and owns everything else, including its
/// [`SimConfig`] — which is what makes [`set_policy`](Driver::set_policy)
/// possible mid-run.
#[derive(Debug)]
pub struct Driver<'a> {
    state: SimState<'a>,
    /// Change counter for the driver's externally visible load state (see
    /// [`Driver::version`]).
    version: u64,
}

impl<'a> Driver<'a> {
    /// Builds a driver over a closed initial workload, validated.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyWorkload`] if `queries` is empty,
    /// [`SimError::InvalidConfig`] if the machine, the projection weight
    /// or the selector's parameters cannot be simulated or a model's QoS
    /// target is not positive and finite, [`SimError::InvalidProfile`] if
    /// a compiled kernel profile is invalid, and
    /// [`SimError::UnknownModel`] if any query targets a model absent
    /// from `models`.
    pub fn new(
        models: &'a [CompiledModel],
        queries: &[QuerySpec],
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        if queries.is_empty() {
            return Err(SimError::EmptyWorkload);
        }
        Self::start(models, queries, cfg)
    }

    /// Builds an *open-loop* driver with no initial workload: every query
    /// arrives later through [`inject`](Driver::inject). This is the
    /// streaming-session entry point, so an empty event queue here is a
    /// valid idle state, not an error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the machine, the projection
    /// weight or the selector's parameters cannot be simulated or a
    /// model's QoS target is not positive and finite, and
    /// [`SimError::InvalidProfile`] if a compiled kernel profile is
    /// invalid (the two errors an empty workload can still hit).
    pub fn open(models: &'a [CompiledModel], cfg: SimConfig) -> Result<Self, SimError> {
        Self::start(models, &[], cfg)
    }

    fn start(
        models: &'a [CompiledModel],
        queries: &[QuerySpec],
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        let state = SimState::try_new(models, queries, cfg)?;
        Ok(Self { state, version: 0 })
    }

    // --- Streaming input --------------------------------------------------

    /// Injects one open-loop arrival. Arrival times in the past are
    /// clamped to [`now`](Driver::now) (the query arrives immediately).
    /// Returns the query's stable index.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownModel`] if the spec targets a model the
    /// driver was not built with and [`SimError::NonFiniteArrival`] if
    /// the arrival time is NaN or infinite.
    pub fn inject(&mut self, spec: &QuerySpec) -> Result<usize, SimError> {
        let idx = self.state.admit_query(spec)?;
        self.version = self.version.wrapping_add(1);
        Ok(idx)
    }

    /// Injects a query that was *held* above this driver (e.g. at a fleet
    /// front door by admission-control deferral): the query enters the
    /// node now, but its recorded arrival — the baseline for latency
    /// accounting and temporal-policy priority — keeps `spec.arrival`,
    /// which may lie in the past, so the hold time counts against the
    /// SLO. For arrival times at or after [`now`](Driver::now) this is
    /// identical to [`inject`](Driver::inject).
    ///
    /// # Errors
    ///
    /// Same conditions as [`inject`](Driver::inject).
    pub fn inject_held(&mut self, spec: &QuerySpec) -> Result<usize, SimError> {
        let idx = self.state.admit_query_held(spec)?;
        self.version = self.version.wrapping_add(1);
        Ok(idx)
    }

    /// Swaps the scheduling policy at the current dispatch boundary. The
    /// new policy is immediately offered the pending queues (a policy
    /// change is a material scheduling event: work that the old policy
    /// left waiting may be dispatchable under the new one). In-flight
    /// units keep their allocations until their next natural boundary —
    /// allocations are never revoked retroactively.
    pub fn set_policy(&mut self, policy: Policy) {
        self.state.cfg.policy = policy;
        self.state.expand_conflicted();
        self.dispatch();
        self.state.refresh_conditions();
        self.version = self.version.wrapping_add(1);
    }

    /// Withdraws every query that has not yet started executing on this
    /// node and returns `(driver-local index, spec)` pairs (original
    /// arrival times preserved) for re-routing elsewhere — the fleet
    /// *drain* path: in-flight and partially executed work stays here to
    /// finish. The local index lets a coordinator carry each query's
    /// fleet-wide identity (its trace id) through the reroute. Bumps the
    /// load [`version`](Driver::version) when anything was withdrawn.
    pub fn extract_waiting(&mut self) -> Vec<(usize, QuerySpec)> {
        let specs = self.state.extract_waiting();
        if !specs.is_empty() {
            self.version = self.version.wrapping_add(1);
        }
        specs
    }

    /// Crash-stops the node: every incomplete query (waiting or
    /// in-flight) is withdrawn and returned as
    /// `(driver-local index, spec)` pairs for re-submission elsewhere,
    /// partial progress is lost, all cores are freed, and the event queue
    /// empties — the fleet *kill* path. Completed queries stay in the
    /// report. Always bumps the load [`version`](Driver::version).
    pub fn halt(&mut self) -> Vec<(usize, QuerySpec)> {
        let specs = self.state.halt();
        self.version = self.version.wrapping_add(1);
        specs
    }

    // --- Tracing ----------------------------------------------------------

    /// Starts buffering this driver's lifecycle events (dropping any
    /// still buffered). `Dispatched`, `Completed`, and `Violated` events
    /// are kept with *driver-local* query indices until drained. Tracing
    /// never perturbs the simulation (see [`SimState::enable_trace`]).
    pub fn enable_trace(&mut self) {
        self.state.enable_trace();
    }

    /// Moves every buffered trace event onto the end of `out` (oldest
    /// first). A fleet coordinator calls this at deterministic pull
    /// points and rewrites the driver-local query indices into
    /// fleet-wide ids.
    pub fn drain_trace(&mut self, out: &mut Vec<(f64, veltair_telemetry::TraceEventKind)>) {
        self.state.drain_trace(out);
    }

    // --- Stepping ---------------------------------------------------------

    /// Processes the next pending event, returning its timestamp, or
    /// `None` when the driver [is idle](Driver::is_idle).
    ///
    /// This is the whole loop body of [`simulate`](crate::simulate). The
    /// events are arrivals and unit checks, one check armed per in-flight
    /// unit: re-rating a unit moves its check, so a superseded check is
    /// never an event. Arrivals and block transitions are material and
    /// trigger expansion, dispatch, and re-rating; a check that finds its
    /// unit unfinished only re-arms it. Once no event remains, one call
    /// passes the superseded checks still pending (see
    /// [`is_idle`](Driver::is_idle)) and returns the latest one's time.
    pub fn step(&mut self) -> Option<SimTime> {
        let Some((t, ev)) = self.state.events.pop() else {
            return self.state.events.pass_superseded();
        };
        let material = match ev {
            Event::Arrival(q) => {
                if self.state.queries[q].removed {
                    // Withdrawn before its arrival fired (defensive: the
                    // withdrawal paths drain or pre-date these events).
                    return Some(t);
                }
                self.state.advance_to(t);
                self.state.admit_arrival(q);
                true
            }
            Event::UnitCheck { slot } => {
                debug_assert!(
                    self.state.running[slot].active,
                    "slot {slot} had a check armed while idle"
                );
                self.state.advance_to(t);
                self.state.check_unit(slot)
            }
        };
        if material {
            self.state.expand_conflicted();
            self.dispatch();
            self.state.refresh_conditions();
            self.version = self.version.wrapping_add(1);
        }
        Some(t)
    }

    /// Admits pending work to cores under the active policy's family.
    /// Runs after every material event (an arrival, a unit transition or
    /// a policy swap), once freed cores have been re-granted to
    /// under-allocated units. This is the one place a policy is mapped to
    /// its family: adding a policy means a `Policy` variant and an arm
    /// here.
    fn dispatch(&mut self) {
        let state = &mut self.state;
        match state.cfg.policy {
            Policy::ModelFcfs
            | Policy::Planaria
            | Policy::FixedBlock(_)
            | Policy::VeltairAs
            | Policy::VeltairAc
            | Policy::VeltairFull => spatial::dispatch(state),
            Policy::Prema | Policy::AiMt => temporal::dispatch(state),
            Policy::Parties => partitioned::dispatch(state),
        }
    }

    /// Processes every event scheduled at or before `t`, then advances the
    /// clock to exactly `t` (accruing progress and core-seconds for the
    /// tail interval). After this call [`now`](Driver::now) equals `t`
    /// unless the simulation already ran past it, in which case the clock
    /// is left where the last processed event put it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonFiniteTarget`] if `t` is NaN or infinite,
    /// before processing any event.
    pub fn run_until(&mut self, t: SimTime) -> Result<(), SimError> {
        if !t.0.is_finite() {
            return Err(SimError::NonFiniteTarget { target_s: t.0 });
        }
        while self.state.events.peek_time().is_some_and(|next| next <= t) {
            self.step();
        }
        self.state.events.pass_until(t);
        if t > self.state.now {
            self.state.advance_to(t);
        }
        Ok(())
    }

    /// Runs the event loop to exhaustion (what
    /// [`simulate`](crate::simulate) does).
    pub fn run_to_completion(&mut self) {
        while self.step().is_some() {}
    }

    // --- Observation ------------------------------------------------------

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.state.cfg.policy
    }

    /// Whether the simulation is exhausted: no arrival is pending, no unit
    /// is in flight, and every superseded unit check has been passed.
    ///
    /// A check superseded by a re-rate is not delivered, but it counts as
    /// pending until [`step`](Driver::step) or
    /// [`run_until`](Driver::run_until) gets past its time, as when
    /// superseded checks stayed queued until popped. So this turns true
    /// at the same instant it always has, and a draining fleet node
    /// retires then.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.state.events.is_empty()
    }

    /// Number of units currently holding cores.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.state.active_slots().len()
    }

    /// Number of queries waiting in the admission queues.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.state.continuations.len() + self.state.arrivals.len()
    }

    // --- Load/occupancy/pressure (exported for fleet-level routing) -------

    /// Total cores of the machine this driver simulates.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.state.cfg.machine.cores
    }

    /// Cores not currently granted to any in-flight unit.
    #[must_use]
    pub fn free_cores(&self) -> u32 {
        self.state.free_cores
    }

    /// Cores currently granted to in-flight units.
    #[must_use]
    pub fn busy_cores(&self) -> u32 {
        self.state.cfg.machine.cores - self.state.free_cores
    }

    /// Fraction of the machine's cores currently granted, in `[0, 1]`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        f64::from(self.busy_cores()) / f64::from(self.total_cores().max(1))
    }

    /// Queries admitted but not yet completed (in flight or waiting),
    /// excluding queries withdrawn by a fleet drain/kill — the
    /// "outstanding requests" signal of least-loaded request routing.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.state.queries.len() - self.state.completed.len() - self.state.removed
    }

    /// The pressure a newly arriving tenant would face: the monitored
    /// co-runner estimate (oracle or counter proxy, under the
    /// soon-to-finish rule) *projected* over the queued backlog — see
    /// [`SimState::projected`](super::SimState::projected). This is the
    /// per-node signal interference-aware fleet routing consumes: it
    /// reflects *which* models run here and how deep the queue behind
    /// them is, not just how many cores they hold.
    ///
    /// For temporal policies (PREMA, AI-MT) the spatial co-runner
    /// estimate is structurally near zero — one tenant runs at a time —
    /// yet a new tenant faces whole-machine *exclusion* while anything
    /// runs. Reporting the monitor's estimate verbatim made
    /// time-multiplexed nodes look like the quietest members of a fleet
    /// exactly when they were serializing a backlog. The earlier
    /// occupancy substitute was binary (the whole machine is granted or
    /// idle), which hid queue depth the same way: a node one query deep
    /// and a node forty deep both reported 1.0. A temporal node
    /// therefore reports its *serialization pressure* `q / (q + 1)` over
    /// the in-system query count `q` (queued or in flight — see
    /// [`SimState::in_system`](super::SimState::in_system); not
    /// [`Driver::outstanding`], which also counts trace queries that
    /// have not arrived yet): 0 when idle, ½ with a lone
    /// tenant, asymptotically 1 as the serialized backlog deepens —
    /// monotone in the wait a new arrival actually faces.
    #[must_use]
    pub fn pressure(&self) -> f64 {
        if self.state.cfg.policy.is_temporal() {
            let q = self.state.in_system() as f64;
            q / (q + 1.0)
        } else {
            self.state.projected().projected_level
        }
    }

    /// Monotone change counter over this driver's externally visible load
    /// state: bumped whenever a *material* scheduling event is processed
    /// (an arrival, a block transition, a policy swap) or a query is
    /// injected. Pure time advancement — which accrues progress but moves
    /// no query between queues and (re)allocates no cores — does not bump
    /// it, so a caller tracking many drivers (the fleet's incremental
    /// load index) can compare versions to find the nodes whose
    /// queue-depth/occupancy signals may have changed, in O(1) per node,
    /// instead of rebuilding every load view per routing decision.
    ///
    /// The clock-dependent pressure estimate ([`Driver::pressure`]) can
    /// drift *without* a version bump (the soon-to-finish filter is a
    /// function of unit progress); consumers of this counter accept
    /// pressure staleness between material events by design.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Read access to the full simulation state (queries, running units,
    /// queues) for dispatch-level introspection.
    #[must_use]
    pub fn state(&self) -> &SimState<'a> {
        &self.state
    }

    /// A point-in-time copy of the accumulating report with derived fields
    /// finalized — per-model QoS satisfaction and latency statistics over
    /// the queries completed *so far*.
    #[must_use]
    pub fn snapshot(&self) -> ServingReport {
        self.state.snapshot_report()
    }

    /// Completion log: indices of finished queries in completion order.
    /// Grows monotonically, so pollers can keep a cursor into it.
    #[must_use]
    pub fn completions(&self) -> &[usize] {
        &self.state.completed
    }

    /// Checks the scheduling bookkeeping and returns the first broken
    /// rule, in O(queries + slots):
    ///
    /// * free plus granted cores cover the machine exactly;
    /// * no query is queued or running twice, and no finished or
    ///   withdrawn query holds work;
    /// * a check is armed exactly on each active slot;
    /// * the completion log lists every finished query once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn check_invariants(&self) -> Result<(), String> {
        let state = &self.state;
        let active = || state.running.iter().filter(|r| r.active);
        let granted: u64 = active().map(|r| u64::from(r.granted)).sum();
        let cores = state.cfg.machine.cores;
        if u64::from(state.free_cores) + granted != u64::from(cores) {
            return Err(format!(
                "{} free plus {granted} granted cores do not cover the {cores}-core machine",
                state.free_cores
            ));
        }
        let mut holds = vec![false; state.queries.len()];
        let waiting = state.continuations.iter().chain(&state.arrivals);
        for q in waiting.map(|p| p.query).chain(active().map(|r| r.query)) {
            if std::mem::replace(&mut holds[q], true) {
                return Err(format!("query {q} is queued or running twice"));
            }
            if state.queries[q].finish.is_some() {
                return Err(format!("finished query {q} still holds work"));
            }
            if state.queries[q].removed {
                return Err(format!("withdrawn query {q} still holds work"));
            }
        }
        for (slot, r) in state.running.iter().enumerate() {
            if state.events.is_armed(slot) != r.active {
                return Err(format!(
                    "slot {slot} is {} but its check is {}",
                    if r.active { "active" } else { "idle" },
                    if r.active { "not armed" } else { "armed" }
                ));
            }
        }
        let finished = state.queries.iter().filter(|q| q.finish.is_some()).count();
        if state.completed.len() != finished {
            return Err(format!(
                "the completion log lists {} queries, {finished} have finished",
                state.completed.len()
            ));
        }
        Ok(())
    }

    /// Consumes the driver, returning the final report and the
    /// `(time, busy cores)` allocation trace (empty unless
    /// `cfg.record_alloc_trace` was set).
    #[must_use]
    pub fn finish(self) -> (ServingReport, Vec<(f64, u32)>) {
        let mut state = self.state;
        let trace = std::mem::take(&mut state.alloc_trace);
        (state.finish_report(), trace)
    }
}
