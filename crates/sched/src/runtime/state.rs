//! Shared unit-state for the scheduler-core runtime: queries, in-flight
//! units, pending queues, and the progress-based bookkeeping every
//! policy family's dispatch operates on.
//!
//! The state machine (arrival intake, time advancement, unit lifecycle,
//! re-rating) is identical for every scheduling discipline.
//! Policy-specific decisions enter only through the driver's dispatch
//! (who runs next, with how many cores), through version planning
//! ([`SimState::plan_versions`]) and, at one block-internal boundary,
//! through the temporal policies' yield rule.

use std::cell::RefCell;
use std::collections::VecDeque;

use veltair_compiler::selector::solo_versions;
use veltair_compiler::{CompiledModel, HysteresisLadder};
use veltair_sim::{
    Execution, GrantModel, Interference, PerfCounters, PressureDemand, SimTime, SplitEventQueue,
    UnitProgress,
};
use veltair_telemetry::TraceEventKind;

use super::driver::SimError;
use super::monitor::{self, PressureView, ProjectionInputs};
use super::temporal;
use crate::layer_block::{unit_model, unit_terms};
use crate::report::{ModelStats, ServingReport};
use crate::simulator::SimConfig;
use crate::workload::QuerySpec;

/// Maximum Jacobi sweeps when converging the demand<->latency fixed point
/// after a co-location change. The cap binds often: on the four-model
/// overload mix it ends about 40 % of Planaria's refreshes, 30 % of
/// Veltair-AS's and 18-19 % of AC's and FULL's, and 44-48 % of Planaria's
/// capped refreshes are exact period-2 cycles (co-runners trading cache
/// share back and forth), which no number of further sweeps would
/// settle. Raising or removing the cap therefore changes results, not
/// just speed.
const MAX_REFRESH_SWEEPS: usize = 8;

/// Units with less than this fraction of their work remaining are ignored
/// by the monitor: the paper's soon-to-finish rule (§4.3).
const SOON_FINISH_FRAC: f64 = 0.1;

/// Relative latency change below which an in-flight unit is not re-rated.
/// A picosecond-level threshold would let demand<->latency feedback
/// oscillation flood the event queue with near-zero-step re-arms.
const REFRESH_TOL: f64 = 1e-3;

/// Events of the serving simulation.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Query `.0` arrives and joins its admission queue.
    Arrival(usize),
    /// The unit in `slot` may have completed. Each active slot has
    /// exactly one check armed; re-rating the unit moves it.
    UnitCheck { slot: usize },
}

/// Per-query lifecycle state.
#[derive(Debug)]
pub struct QueryState {
    /// Index into the compiled-model registry.
    pub model: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Next layer to execute (absolute index into the model's layers).
    pub next_unit: usize,
    /// Completion time, once finished.
    pub finish: Option<SimTime>,
    /// Whether the query was withdrawn from this node before completion
    /// ([`SimState::extract_waiting`]/[`SimState::halt`]): it no longer
    /// counts as outstanding and contributes nothing to the report.
    pub removed: bool,
}

/// One in-flight scheduling unit (a layer block on a core allocation).
///
/// The slot rates its current unit through a [`GrantModel`] of that unit's
/// version on `granted` cores, prepared once instead of on every rating.
/// It is re-prepared exactly where the unit, its version or the grant
/// changes: in [`SimState::start_block`], at the next unit of the block in
/// [`SimState::check_unit`], and in [`SimState::expand_conflicted`].
///
/// The slot also remembers the last two ratings its model gave, each with
/// the bits of the interference it was given under, and returns a rating
/// when its bits come again: the refresh's period-2 limit cycles then hit
/// it on every sweep. This is exact: a rating is a pure function of the
/// prepared model and the interference, and re-preparing forgets both.
#[derive(Debug)]
pub struct Running {
    /// Owning query (index into [`SimState::queries`]).
    pub query: usize,
    /// Exclusive end of the block's unit range.
    pub end: usize,
    /// Current unit (absolute index into the model's layers).
    pub unit: usize,
    /// Start of the block (for version indexing).
    pub start: usize,
    /// Chosen code version per unit of the block.
    pub versions: Vec<usize>,
    /// Cores the block's QoS share demands.
    pub requested: u32,
    /// Cores actually granted (≤ requested under conflicts).
    pub granted: u32,
    /// Overhead + work-fraction progress under the current rating.
    pub progress: UnitProgress,
    /// Current rating of the unit under the present co-location.
    pub exec: Execution,
    /// Whether the slot currently holds live work.
    pub active: bool,
    /// Thread-team growth events so far (the fork-join rebuild cost is
    /// paid once; later growths reuse the warm pool).
    pub expansions: u32,
    /// The current unit's version prepared on `granted` cores.
    model: GrantModel,
    /// The last two ratings `model` gave, most recent first, each with
    /// the bits of the interference it was given under; both `None`
    /// once `model` is re-prepared.
    last: [Option<([u64; 2], Execution)>; 2],
    /// The rating the running refresh sweep adopts once every unit is
    /// rated: set when it moves the latency by more than `REFRESH_TOL`.
    candidate: Option<Execution>,
    /// Whether the running refresh changed `exec`, so the check moves.
    changed: bool,
}

impl Running {
    /// Whether the monitor observes this active unit: it is not about to
    /// finish (the paper's soon-to-finish rule, §4.3).
    fn is_monitored(&self) -> bool {
        self.progress.remaining_frac >= SOON_FINISH_FRAC
    }
}

/// The ratings one monitor observation reads, in the order it sums
/// them: the monitored units (active and not about to finish) in
/// ascending slot order, then, for the mix ceiling of
/// [`SimState::projected`], the phantoms in packing order. Everything is
/// borrowed from the state, so an observation allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Corunners<'s> {
    running: &'s [Running],
    slots: std::slice::Iter<'s, usize>,
    phantoms: std::slice::Iter<'s, Execution>,
}

impl<'s> Iterator for Corunners<'s> {
    type Item = &'s Execution;

    #[inline]
    fn next(&mut self) -> Option<&'s Execution> {
        for &slot in self.slots.by_ref() {
            let r = &self.running[slot];
            if r.is_monitored() {
                return Some(&r.exec);
            }
        }
        self.phantoms.next()
    }
}

#[cfg(test)]
impl<'s> Corunners<'s> {
    /// Exactly `executions`, in order.
    fn of(executions: &'s [Execution]) -> Self {
        Corunners {
            running: &[],
            slots: [].iter(),
            phantoms: executions.iter(),
        }
    }
}

/// The phantoms of one [`SimState::projected`] call, in packing order.
#[derive(Debug, Default)]
struct Phantoms {
    /// Each phantom's `(model, unit)` and core request.
    keys: Vec<((usize, usize), u32)>,
    /// Each phantom's rating.
    execs: Vec<Execution>,
}

/// A query waiting for cores.
#[derive(Debug)]
pub struct Pending {
    /// Index into [`SimState::queries`].
    pub query: usize,
    /// Whether this wait has already been counted as a conflict.
    pub conflicted: bool,
}

/// The complete mutable state of one serving simulation.
pub struct SimState<'a> {
    /// Simulation configuration (machine, policy, monitor settings).
    /// Owned so a [`Driver`](super::Driver) can hot-swap the policy while
    /// the clock is running. Its `proxy` is the interference monitor: the
    /// trained counter proxy when set, the oracle otherwise.
    pub cfg: SimConfig,
    /// The compiled-model registry queries index into.
    pub models: &'a [CompiledModel],
    /// Per model, whether it was compiled for `cfg.machine`: its ratings
    /// then read the compiled core-terms tables instead of computing the
    /// terms live (see [`SimState::tabulated`]).
    tabulated: Vec<bool>,
    /// Per-query lifecycle state.
    pub queries: Vec<QueryState>,
    /// Slot-indexed in-flight units (slots are recycled via `free_slots`).
    pub running: Vec<Running>,
    /// Recycled `running` slots, reused last-in first-out.
    pub free_slots: Vec<usize>,
    /// The active slots of `running`, ascending: every per-unit pass
    /// walks this instead of skipping recycled slots, in the same
    /// ascending-slot order (so every sum over co-runners keeps its
    /// association order).
    active: Vec<usize>,
    /// The deterministic event queue driving the simulation: arrivals in
    /// its external heap, and one armed unit check per active slot.
    pub events: SplitEventQueue<Event>,
    /// Current simulation time.
    pub now: SimTime,
    last_advance: SimTime,
    /// Start of the current constant-allocation stretch; `core_seconds`
    /// accrues one multiply per stretch (see [`SimState::advance_to`]).
    busy_anchor: SimTime,
    /// Busy-core level over `[busy_anchor, now]` as of the last advance.
    anchor_busy: u32,
    /// Cores not currently granted to any unit.
    pub free_cores: u32,
    /// Mid-query blocks waiting for cores; they precede fresh arrivals in
    /// dispatch order.
    pub continuations: VecDeque<Pending>,
    /// Fresh arrivals.
    pub arrivals: VecDeque<Pending>,
    /// Accumulating output statistics.
    pub report: ServingReport,
    /// `(time, busy cores)` samples when `cfg.record_alloc_trace` is set.
    pub alloc_trace: Vec<(f64, u32)>,
    /// Completion log: query indices in the order they finished. Sessions
    /// poll this incrementally; the runtime only appends.
    pub completed: Vec<usize>,
    /// Count of queries withdrawn before completion (see
    /// [`SimState::extract_waiting`]/[`SimState::halt`]); subtracted from
    /// the outstanding-query signal.
    pub removed: usize,
    /// The runtime version selector, built from `cfg.selector`.
    /// Consulted (and advanced — the ladder is stateful) at every
    /// block-planning decision of an adaptive-compilation policy via
    /// [`SimState::plan_versions`].
    selector: HysteresisLadder,
    /// The solo-optimal versions of every model, computed once: what
    /// every non-adaptive plan runs.
    solo_plans: Vec<Vec<usize>>,
    /// The versions of the last [`SimState::plan_versions`] call, one per
    /// unit of the planned model. [`SimState::start_block`] copies the
    /// started block's slice into its slot.
    plan: Vec<usize>,
    /// Scratch for the phantoms of [`SimState::projected`], reused across
    /// calls so a projection allocates nothing once it has grown. Behind a
    /// `RefCell` because projecting only reads the state.
    phantoms: RefCell<Phantoms>,
    /// Lifecycle events buffered as `(virtual time, kind)` until the
    /// next [`SimState::drain_trace`], when tracing is on
    /// ([`SimState::enable_trace`]). `None` by default: the hot path
    /// pays one branch on it and nothing else.
    trace: Option<Vec<(f64, TraceEventKind)>>,
    /// The *projected* scalar interference level the last
    /// [`SimState::plan_versions`] call planned under, recorded into
    /// `Dispatched` trace events as `pressure_at_plan` (attribution
    /// should explain the level planning actually consulted, not the
    /// lagging snapshot). Every dispatcher family plans immediately
    /// before starting a block, so this is fresh at every
    /// [`SimState::start_block`].
    last_plan_level: f64,
}

impl std::fmt::Debug for SimState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimState")
            .field("now", &self.now)
            .field("free_cores", &self.free_cores)
            .field("queries", &self.queries.len())
            .field("running", &self.running.len())
            .field("selector", &self.selector)
            .finish_non_exhaustive()
    }
}

impl<'a> SimState<'a> {
    /// Builds the initial state and schedules every arrival, validating
    /// every compiled kernel profile and that each query targets a
    /// compiled model.
    ///
    /// The machine, the projection weight, the selector's parameters and
    /// every profile are checked here, once, so the event loop rates
    /// prevalidated profiles and never re-checks them. Which models rate
    /// through their compiled core-terms tables is decided here too (see
    /// [`SimState::tabulated`]).
    ///
    /// An empty `queries` slice is accepted: a streaming
    /// [`Driver`](super::Driver) starts with no closed workload and feeds
    /// arrivals through [`SimState::admit_query`] while the clock runs.
    /// [`Driver::new`](super::Driver::new) rejects empty streams before
    /// calling this.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cfg` fails
    /// [`SimConfig::validate`] or a model's QoS target is not positive
    /// and finite, [`SimError::InvalidProfile`] if a compiled
    /// version's profile fails
    /// [`KernelProfile::validate`](veltair_sim::KernelProfile::validate),
    /// and [`SimError::UnknownModel`] if a query references a model that
    /// is not in `models`.
    pub(crate) fn try_new(
        models: &'a [CompiledModel],
        queries: &[QuerySpec],
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        validate_profiles(models)?;
        let tabulated = models
            .iter()
            .map(|m| m.compiled_for() == &cfg.machine)
            .collect();
        let free_cores = cfg.machine.cores;
        let selector = HysteresisLadder::new(cfg.selector);
        let mut state = Self {
            cfg,
            models,
            tabulated,
            queries: Vec::with_capacity(queries.len()),
            running: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            events: SplitEventQueue::new(),
            now: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            busy_anchor: SimTime::ZERO,
            anchor_busy: 0,
            free_cores,
            continuations: VecDeque::new(),
            arrivals: VecDeque::new(),
            report: ServingReport::default(),
            alloc_trace: Vec::new(),
            completed: Vec::new(),
            removed: 0,
            selector,
            solo_plans: models.iter().map(solo_versions).collect(),
            plan: Vec::new(),
            phantoms: RefCell::default(),
            trace: None,
            last_plan_level: 0.0,
        };
        for q in queries {
            state.admit_query(q)?;
        }
        Ok(state)
    }

    /// Registers a new query and schedules its arrival event. This is the
    /// open-loop injection path: it may be called at any point of the
    /// simulation, including after events have been processed. Arrival
    /// times already in the past are clamped to the current clock (the
    /// query arrives "now").
    ///
    /// Returns the query's index, stable for the lifetime of the state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownModel`] if `spec.model` is not among the
    /// compiled models and [`SimError::NonFiniteArrival`] if the arrival
    /// time is NaN or infinite (SimTime arithmetic would panic on it
    /// later, deep inside the event loop).
    pub fn admit_query(&mut self, spec: &QuerySpec) -> Result<usize, SimError> {
        self.admit_query_inner(spec, false)
    }

    /// Like [`SimState::admit_query`], but for a query that was *held*
    /// above this node (e.g. at a fleet front door by admission-control
    /// deferral): the arrival event still fires no earlier than the
    /// current clock, but the query's recorded arrival — the baseline for
    /// latency accounting, temporal-policy priority, and FCFS ordering —
    /// keeps `spec.arrival`, which may lie in the past. The hold time
    /// therefore counts against the SLO, exactly as a real client would
    /// experience it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimState::admit_query`].
    pub fn admit_query_held(&mut self, spec: &QuerySpec) -> Result<usize, SimError> {
        self.admit_query_inner(spec, true)
    }

    fn admit_query_inner(&mut self, spec: &QuerySpec, held: bool) -> Result<usize, SimError> {
        if !spec.arrival.0.is_finite() {
            return Err(SimError::NonFiniteArrival {
                arrival_s: spec.arrival.0,
            });
        }
        let model = self
            .models
            .iter()
            .position(|m| m.name == spec.model)
            .ok_or_else(|| SimError::UnknownModel {
                model: spec.model.clone(),
            })?;
        let event_time = if spec.arrival < self.now {
            self.now
        } else {
            spec.arrival
        };
        let arrival = if held { spec.arrival } else { event_time };
        let id = self.queries.len();
        self.queries.push(QueryState {
            model,
            arrival,
            next_unit: 0,
            finish: None,
            removed: false,
        });
        self.events.push_external(event_time, Event::Arrival(id));
        Ok(id)
    }

    // --- Time advancement -------------------------------------------------

    /// Advances the clock to `t`, accruing core-seconds and unit progress
    /// at the current ratings.
    ///
    /// Core-seconds are settled once per *constant-allocation stretch*,
    /// not once per clock advance: allocation only changes while the
    /// clock is parked at `now`, so a busy count that differs from the
    /// stretch anchor means the previous stretch ended exactly there.
    /// Folding each stretch in with a single multiply keeps the float
    /// sum independent of how observers (checkpointed sessions, fleet
    /// routing instants) slice the clock between allocation changes.
    pub fn advance_to(&mut self, t: SimTime) {
        let busy = self.cfg.machine.cores - self.free_cores;
        if busy != self.anchor_busy {
            self.settle_busy_stretch();
        }
        let dt = t.since(self.last_advance);
        if dt > 0.0 {
            for &slot in &self.active {
                let r = &mut self.running[slot];
                r.progress.advance(dt, r.exec.latency_s);
            }
            self.last_advance = t;
        }
        self.now = t;
    }

    /// Folds the finished `[busy_anchor, now]` stretch into
    /// `core_seconds` and re-anchors at the current instant/allocation.
    fn settle_busy_stretch(&mut self) {
        let dt = self.now.since(self.busy_anchor);
        if dt > 0.0 && self.anchor_busy > 0 {
            self.report.core_seconds += f64::from(self.anchor_busy) * dt;
        }
        self.busy_anchor = self.now;
        self.anchor_busy = self.cfg.machine.cores - self.free_cores;
    }

    // --- Admission ----------------------------------------------------------

    /// Queues a newly arrived query for dispatch.
    pub fn admit_arrival(&mut self, query: usize) {
        self.arrivals.push_back(Pending {
            query,
            conflicted: false,
        });
    }

    /// Counts a conflict for a pending entry at most once.
    pub fn mark_conflicted(&mut self, pending: &mut Pending) {
        if !pending.conflicted {
            pending.conflicted = true;
            self.report.conflicts += 1;
        }
    }

    // --- Tracing ------------------------------------------------------------

    /// Starts buffering lifecycle events into an empty buffer.
    /// Instrumentation never perturbs the simulation: emission only reads
    /// state, and the solo ratings recorded for attribution come from
    /// pure functions.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Moves every buffered trace event onto the end of `out` (oldest
    /// first). Query ids in the drained events are *driver-local*
    /// indices; a fleet collector rewrites them into fleet-wide trace
    /// ids.
    pub fn drain_trace(&mut self, out: &mut Vec<(f64, TraceEventKind)>) {
        if let Some(buf) = self.trace.as_mut() {
            out.append(buf);
        }
    }

    fn trace_record(&mut self, kind: TraceEventKind) {
        let at_s = self.now.0;
        if let Some(buf) = self.trace.as_mut() {
            buf.push((at_s, kind));
        }
    }

    // --- Monitoring ---------------------------------------------------------

    /// Queries physically *in the system* right now: waiting in an
    /// admission queue or with a block in flight. Unlike the
    /// outstanding-query count this excludes trace queries whose arrival
    /// lies in the future, so it is the right queue-depth base for the
    /// temporal serialization-pressure signal. Blocks of one query run
    /// strictly in order, so a query holds at most one active slot or one
    /// queue entry at a time and the sum counts each query once.
    #[must_use]
    pub fn in_system(&self) -> usize {
        self.continuations.len() + self.arrivals.len() + self.active.len()
    }

    /// The slots of `running` that hold live work, ascending.
    pub(crate) fn active_slots(&self) -> &[usize] {
        &self.active
    }

    /// The units holding live work, in ascending slot order.
    pub(crate) fn active_units(&self) -> impl Iterator<Item = &Running> + '_ {
        self.active.iter().map(|&slot| &self.running[slot])
    }

    /// The co-runners the monitor observes: active units that are not
    /// about to finish (the paper's soon-to-finish rule, §4.3).
    fn monitored_units(&self) -> impl Iterator<Item = &Running> + '_ {
        self.active_units().filter(|r| r.is_monitored())
    }

    /// The monitored units' ratings followed by `phantoms`, as one
    /// monitor observation reads them.
    fn corunners<'s>(&'s self, phantoms: &'s [Execution]) -> Corunners<'s> {
        Corunners {
            running: &self.running,
            slots: self.active.iter(),
            phantoms: phantoms.iter(),
        }
    }

    /// Co-runner pressure from the perspective of a new or planning tenant:
    /// all active units except soon-to-finish ones (the paper's
    /// soon-to-finish rule, §4.3), as estimated by the configured monitor.
    #[must_use]
    pub fn monitored(&self) -> (Interference, f64) {
        self.observe(self.corunners(&[]))
    }

    /// Observes `corunners` through the configured monitor.
    fn observe(&self, corunners: Corunners<'_>) -> (Interference, f64) {
        monitor::observe(self.cfg.proxy.as_ref(), corunners, &self.cfg.machine)
    }

    /// The predictive pressure reading for a planning decision: the
    /// [`SimState::monitored`] snapshot plus its projection over the
    /// queued backlog (see [`monitor::project`]).
    ///
    /// The backlog is judged in *cores*: each queued continuation or
    /// arrival demands its model's flat core requirement at the
    /// instantaneous level (an O(1) table lookup per entry — the same
    /// per-queue-entry cost the dynamic-threshold scan already pays at
    /// every plan). The occupancy term counts the cores granted to
    /// exactly the co-runners the snapshot observes; the other half of
    /// the near future — in-flight units about to leave — is excluded
    /// from both the snapshot and the occupancy by
    /// [`SimState::monitored`]'s soon-to-finish rule, so an emptying
    /// machine projects no lift.
    ///
    /// The *mix ceiling* the lift targets is computed here by phantom
    /// observation: the machine is hypothetically packed to capacity
    /// with the tenant mix currently in the system — each queued unit
    /// (then, cycling, the in-system mix) joins at its preferred width
    /// with the execution its model's best version would rate at the
    /// instantaneous level — and the *installed monitor* observes the
    /// packed set: the monitored units first, then the phantoms in
    /// packing order. Heavy mixes pack to near-saturation; a queue of
    /// narrow light streams packs to the mild contention it can
    /// actually produce, so the selector never compiles for pressure
    /// the tenants cannot generate (see [`monitor::project`]).
    ///
    /// The phantoms live in scratch the state keeps, and each distinct
    /// `(model, unit)` among them is rated once, so a call allocates
    /// nothing once the scratch has grown.
    #[must_use]
    pub fn projected(&self) -> PressureView {
        let total_cores = self.cfg.machine.cores;
        let (pair, level) = self.monitored();
        let occupied_cores: u32 = self.monitored_units().map(|r| r.granted).sum();
        let backlog_cores: u64 = self
            .continuations
            .iter()
            .chain(self.arrivals.iter())
            .map(|p| {
                let model = &self.models[self.queries[p.query].model];
                u64::from(model.model_core_requirement(level).max(1))
            })
            .sum();
        if backlog_cores == 0 && occupied_cores == 0 || self.cfg.projection.saturation_weight <= 0.0
        {
            return PressureView::instantaneous(pair, level);
        }
        // The phantom blueprint: queued units first (the real joiners),
        // then the already-resident mix for cycling once the queue is
        // exhausted before the machine is full.
        let blueprint = self
            .continuations
            .iter()
            .chain(self.arrivals.iter())
            .map(|p| {
                let q = &self.queries[p.query];
                (q.model, q.next_unit)
            })
            .chain(
                self.monitored_units()
                    .map(|r| (self.queries[r.query].model, r.unit)),
            );
        let mut phantoms = self.phantoms.borrow_mut();
        let Phantoms { keys, execs } = &mut *phantoms;
        keys.clear();
        execs.clear();
        // The level and every model's core request are fixed within one
        // call, so a phantom's rating depends only on its (model, unit):
        // repeats copy the first rating.
        let mut packed = occupied_cores;
        let mut exhausted = true;
        for (model_index, unit) in blueprint {
            let model = &self.models[model_index];
            let cores = model
                .model_core_requirement(level)
                .clamp(1, total_cores.max(1));
            if packed + cores > total_cores {
                exhausted = false;
                break;
            }
            let key = (model_index, unit.min(model.layers.len() - 1));
            let exec = match keys.iter().position(|&(k, _)| k == key) {
                Some(first) => execs[first],
                None => {
                    let version = model.layers[key.1].version_for(level, cores);
                    self.rate(
                        model_index,
                        key.1,
                        version,
                        cores,
                        Interference::level(level),
                    )
                }
            };
            keys.push((key, cores));
            execs.push(exec);
            packed += cores;
        }
        // The blueprint ran out before the machine filled: cycle through
        // it, each phantom repeating the one a blueprint length earlier.
        if exhausted {
            let mut i = 0;
            while let Some(&(key, cores)) = keys.get(i) {
                if packed + cores > total_cores {
                    break;
                }
                keys.push((key, cores));
                execs.push(execs[i]);
                packed += cores;
                i += 1;
            }
        }
        let ceiling_level = if execs.is_empty() {
            level
        } else {
            self.observe(self.corunners(execs)).1
        };
        monitor::project(
            pair,
            level,
            ceiling_level,
            ProjectionInputs {
                backlog_cores,
                occupied_cores,
                total_cores,
            },
            &self.cfg.projection,
        )
    }

    /// Interference one unit experiences from all other active units.
    /// Streams the co-runner demands straight into the aggregation —
    /// this runs once per slot per Jacobi sweep, so it must not allocate.
    #[must_use]
    pub fn interference_for(&self, slot: usize) -> Interference {
        let demands = self
            .active
            .iter()
            .filter(|&&other| other != slot)
            .map(|&other| &self.running[other].exec.demand);
        Interference::from_corunners(demands, &self.cfg.machine)
    }

    /// Whether `model` was compiled for the machine this simulation
    /// serves on, decided once when the state is built. Its ratings then
    /// read the compiled core-terms tables; otherwise (one registry served
    /// on heterogeneous fleet nodes) they compute the terms live, with
    /// identical results.
    pub(crate) fn tabulated(&self, model: usize) -> bool {
        self.tabulated[model]
    }

    /// Rates `version` of layer `unit` of `model` on `cores` cores under
    /// `interference`. Every profile passed validation in
    /// [`SimState::try_new`], so this skips the per-rating check.
    fn rate(
        &self,
        model: usize,
        unit: usize,
        version: usize,
        cores: u32,
        interference: Interference,
    ) -> Execution {
        let layer = &self.models[model].layers[unit];
        unit_model(
            layer,
            version,
            self.tabulated[model],
            interference,
            &self.cfg.machine,
        )
        .execute(cores)
    }

    /// The rating model of `version` of layer `unit` of `model` on a
    /// grant of `cores` cores: [`SimState::rate`] prepared on the grant.
    fn grant_model(&self, model: usize, unit: usize, version: usize, cores: u32) -> GrantModel {
        let layer = &self.models[model].layers[unit];
        let terms = unit_terms(layer, version, self.tabulated[model]);
        GrantModel::with_terms(
            &layer.versions[version].profile,
            terms,
            cores,
            &self.cfg.machine,
        )
    }

    /// Re-prepares the model of `slot` for its current unit, version and
    /// grant, and forgets its remembered ratings.
    fn prepare_slot(&mut self, slot: usize) {
        let r = &self.running[slot];
        let model = self.grant_model(
            self.queries[r.query].model,
            r.unit,
            r.versions[r.unit - r.start],
            r.granted,
        );
        let r = &mut self.running[slot];
        r.model = model;
        r.last = [None; 2];
    }

    /// Rates the current unit of `slot` on its grant under
    /// `interference`, through the slot's prepared model.
    ///
    /// When `interference` has the bits of one of the slot's last two
    /// ratings, that rating is returned as it is and becomes the most
    /// recent. This is exact: a rating is a pure function of the
    /// prepared model and the interference, and the model is
    /// re-prepared, forgetting both ratings, wherever its unit, version
    /// or grant changes ([`SimState::start_block`], the next unit in
    /// [`SimState::check_unit`], [`SimState::expand_conflicted`]). Debug
    /// builds check every rating, fresh or remembered, against a
    /// from-scratch [`SimState::rate`] of the slot's model, unit, version
    /// and grant, so a missed re-prepare fails at once.
    fn rate_slot(&mut self, slot: usize, interference: Interference) -> Execution {
        let under = [
            interference.cache_frac.to_bits(),
            interference.bw_frac.to_bits(),
        ];
        let r = &mut self.running[slot];
        let exec = match r.last {
            [Some((bits, exec)), _] if bits == under => exec,
            [recent, Some((bits, exec))] if bits == under => {
                r.last = [Some((bits, exec)), recent];
                exec
            }
            [recent, _] => {
                let exec = r.model.execute(interference);
                r.last = [Some((under, exec)), recent];
                exec
            }
        };
        let r = &self.running[slot];
        debug_assert_eq!(
            rating_bits(&exec),
            rating_bits(&self.rate(
                self.queries[r.query].model,
                r.unit,
                r.versions[r.unit - r.start],
                r.granted,
                interference,
            )),
            "slot {slot}: the prepared rating of unit {} on {} cores differs from a fresh one",
            r.unit,
            r.granted
        );
        exec
    }

    // --- Version selection --------------------------------------------------

    /// Chooses the code version for every unit of a model at a planning
    /// decision: adaptive-compilation policies consult the runtime's
    /// [`HysteresisLadder`] at the projected pressure level (usually
    /// [`SimState::projected`]'s `projected_level`), every other policy
    /// runs the solo-optimal (static compilation) versions.
    ///
    /// This is the single seam through which compiled-code choice enters
    /// the runtime — every dispatcher family plans through it, so
    /// `cfg.selector` tunes the adaptive-compilation behaviour of the
    /// whole simulation.
    ///
    /// The plan stays on the state: [`SimState::planned_versions`] reads
    /// it, and [`SimState::start_block`] runs a block of it. Either plan
    /// is copied into the state's reused buffer: the ladder's committed
    /// plan, or the static plan computed once per model.
    pub fn plan_versions(&mut self, model_index: usize, projected_level: f64) {
        let models = self.models;
        self.last_plan_level = projected_level;
        let versions = if self.cfg.policy.adaptive_compilation() {
            self.selector
                .select(&models[model_index], model_index, projected_level)
        } else {
            &self.solo_plans[model_index]
        };
        self.plan.clear();
        self.plan.extend_from_slice(versions);
    }

    /// The versions the last [`SimState::plan_versions`] call chose, one
    /// per unit of the planned model.
    #[must_use]
    pub fn planned_versions(&self) -> &[usize] {
        &self.plan
    }

    // --- Unit lifecycle -----------------------------------------------------

    /// Starts a block of units for `query` on `granted` cores, arming its
    /// first completion check. The block runs units `[next_unit, end)` of
    /// the query's model at the versions of the last
    /// [`SimState::plan_versions`] call, which must have planned that
    /// model.
    pub fn start_block(&mut self, query: usize, end: usize, requested: u32, granted: u32) {
        assert!(granted >= 1, "blocks always start with at least one core");
        let start = self.queries[query].next_unit;
        let model_index = self.queries[query].model;
        let models = self.models;
        let model = &models[model_index];
        assert_eq!(
            self.plan.len(),
            model.layers.len(),
            "start_block runs the last plan, which must be for the query's model"
        );
        let grant = self.grant_model(model_index, start, self.plan[start], granted);
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.running.push(Running {
                query: 0,
                end: 0,
                unit: 0,
                start: 0,
                versions: Vec::new(),
                requested: 0,
                granted: 0,
                progress: UnitProgress::fresh(0.0),
                exec: Execution {
                    latency_s: 1.0_f64,
                    counters: PerfCounters::default(),
                    demand: PressureDemand::ZERO,
                },
                active: false,
                expansions: 0,
                model: grant,
                last: [None; 2],
                candidate: None,
                changed: false,
            });
            self.running.len() - 1
        });

        self.report.dispatches += 1;
        let r = &mut self.running[slot];
        r.query = query;
        r.end = end;
        r.unit = start;
        r.start = start;
        r.versions.clear();
        r.versions.extend_from_slice(&self.plan[start..end]);
        r.requested = requested;
        r.granted = granted;
        r.model = grant;
        r.last = [None; 2];
        let exec = self.rate_slot(slot, self.interference_for(slot));
        // Solo ratings for SLO attribution, recorded only while traced:
        // the same pure rating function under zero interference, for the
        // chosen version and for the best version of this layer — the
        // interference-excess and version-choice terms of
        // `TraceLog::explain` fall out of the difference.
        if self.trace.is_some() {
            let version = self.plan[start];
            let solo = |v: usize| self.rate(model_index, start, v, granted, Interference::NONE);
            let solo_s = solo(version).latency_s;
            let solo_best_s = (0..model.layers[start].versions.len())
                .map(|v| solo(v).latency_s)
                .fold(f64::INFINITY, f64::min);
            self.trace_record(TraceEventKind::Dispatched {
                query: query as u64,
                unit: start as u32,
                version: version as u32,
                pressure_at_plan: self.last_plan_level,
                expected_s: exec.latency_s,
                solo_s,
                solo_best_s,
            });
        }
        let r = &mut self.running[slot];
        r.progress = UnitProgress::fresh(self.cfg.machine.unit_dispatch_overhead_s(granted));
        r.exec = exec;
        r.active = true;
        r.expansions = 0;
        let eta = r.progress.eta_s(r.exec.latency_s);
        let at = self.active.partition_point(|&s| s < slot);
        self.active.insert(at, slot);
        self.events
            .arm(slot, self.now.after(eta), Event::UnitCheck { slot });
    }

    /// Tile-wise expansion: grant freed cores to under-allocated units,
    /// paying the thread-team growth overhead (Fig. 5b).
    pub fn expand_conflicted(&mut self) {
        if self.free_cores == 0 {
            return;
        }
        for i in 0..self.active.len() {
            if self.free_cores == 0 {
                break;
            }
            let slot = self.active[i];
            let r = &mut self.running[slot];
            if r.granted >= r.requested {
                continue;
            }
            let added = (r.requested - r.granted).min(self.free_cores);
            r.granted += added;
            self.free_cores -= added;
            // The fork-join team rebuild is paid on the first growth; later
            // growths reuse the warm pool and pay only per-thread spawns.
            r.progress.add_overhead(if r.expansions == 0 {
                self.cfg.machine.expansion_overhead_s(added)
            } else {
                self.cfg.machine.spawn_per_core_s * f64::from(added)
            });
            r.expansions += 1;
            self.prepare_slot(slot);
        }
    }

    /// Handles a unit's completion check. Returns `true` when the event was
    /// material (the unit advanced or finished, changing the co-location)
    /// and `false` for a pure re-arm.
    ///
    /// At block-internal unit boundaries a temporal policy may preempt
    /// the unit (PREMA's token priority); a yielding unit releases its
    /// cores and re-enters the continuation queue.
    pub fn check_unit(&mut self, slot: usize) -> bool {
        if !self.running[slot].progress.is_done() {
            // Conditions changed since scheduling; re-arm at the new ETA.
            let r = &self.running[slot];
            let t = self.now.after(r.progress.eta_s(r.exec.latency_s).max(1e-9));
            self.events.arm(slot, t, Event::UnitCheck { slot });
            return false;
        }

        let (query, next_unit) = {
            let r = &mut self.running[slot];
            r.unit += 1;
            (r.query, r.unit)
        };
        self.queries[query].next_unit = next_unit;

        let block_end = self.running[slot].end;
        let model_len = self.models[self.queries[query].model].layers.len();

        if next_unit < block_end && temporal::should_yield(self, slot) {
            // The policy preempts at this unit boundary: the running
            // query yields its cores and re-enters the pool as a
            // continuation (PREMA's token-priority preemption).
            self.release_slot(slot);
            self.report.preemptions += 1;
            self.continuations.push_back(Pending {
                query,
                conflicted: false,
            });
            return true;
        }

        if next_unit < block_end {
            // Next unit of the same block, same allocation.
            self.prepare_slot(slot);
            let exec = self.rate_slot(slot, self.interference_for(slot));
            let r = &mut self.running[slot];
            r.exec = exec;
            r.progress
                .restart(self.cfg.machine.unit_dispatch_overhead_s(r.granted));
            let t = self.now.after(r.progress.eta_s(r.exec.latency_s));
            self.events.arm(slot, t, Event::UnitCheck { slot });
            return true;
        }

        // Block finished: release cores.
        self.release_slot(slot);

        if next_unit >= model_len {
            self.complete_query(query);
        } else {
            self.continuations.push_back(Pending {
                query,
                conflicted: false,
            });
        }
        true
    }

    /// Deactivates a slot and returns its cores to the pool.
    fn release_slot(&mut self, slot: usize) {
        let r = &mut self.running[slot];
        r.active = false;
        self.free_cores += r.granted;
        r.granted = 0;
        self.free_slots.push(slot);
        let at = self.active.partition_point(|&s| s < slot);
        debug_assert_eq!(self.active.get(at), Some(&slot), "released an idle slot");
        self.active.remove(at);
    }

    /// Records a finished query in the report.
    fn complete_query(&mut self, query: usize) {
        let st = &mut self.queries[query];
        st.finish = Some(self.now);
        let latency = self.now.since(st.arrival);
        let model_index = st.model;
        let model = &self.models[model_index];
        let qos_s = model.qos_s;
        // The name is cloned only for a model's first completion.
        if !self.report.per_model.contains_key(&model.name) {
            self.report
                .per_model
                .insert(model.name.clone(), ModelStats::default());
        }
        let stats = self
            .report
            .per_model
            .get_mut(&model.name)
            .expect("inserted above");
        stats.queries += 1;
        if latency <= model.qos_s {
            stats.satisfied += 1;
        }
        stats.latency_sum_s += latency;
        stats.latency_max_s = stats.latency_max_s.max(latency);
        stats.latencies_s.push(latency);
        self.report.makespan_s = self.report.makespan_s.max(self.now.0);
        self.completed.push(query);
        if self.trace.is_some() {
            self.trace_record(TraceEventKind::Completed {
                query: query as u64,
                model: model_index as u32,
                latency_s: latency,
                qos_s,
            });
            if latency > qos_s {
                self.trace_record(TraceEventKind::Violated {
                    query: query as u64,
                    model: model_index as u32,
                    latency_s: latency,
                    qos_s,
                });
            }
        }
    }

    /// Re-rates all in-flight units under the new co-location and moves
    /// their completion checks.
    ///
    /// A unit's latency depends on its co-runners' demands and vice versa,
    /// so re-rating is a fixed point: we iterate Jacobi sweeps in place
    /// (bounded by `MAX_REFRESH_SWEEPS`) until the largest relative
    /// latency change drops below `REFRESH_TOL`, then re-arm the check of
    /// each changed unit once. Converging *here* — instead of one
    /// sweep per event — keeps the event queue from ping-ponging between
    /// coupled units, which livelocks the simulation under overload.
    ///
    /// Each sweep rates every unit from the pre-sweep demands, keeps each
    /// candidate on its slot, and adopts the candidates once all are
    /// rated. A sweep changes interference only, never a unit, version or
    /// grant, so every unit rates through the model its slot prepared
    /// when one of those last changed (see [`Running`]). A rating is a
    /// pure function of that model and the interference, so a unit whose
    /// interference has the bits of one of its last two ratings gets that
    /// rating back without evaluating the model: a lone unit (every PREMA
    /// refresh), any unit none of whose co-runners took a new rating
    /// since its last one, and every unit of a period-2 limit cycle.
    pub fn refresh_conditions(&mut self) {
        for _ in 0..MAX_REFRESH_SWEEPS {
            let mut max_rel = 0.0_f64;
            for i in 0..self.active.len() {
                let slot = self.active[i];
                let exec = self.rate_slot(slot, self.interference_for(slot));
                let r = &mut self.running[slot];
                let old = r.exec.latency_s;
                let rel = (exec.latency_s - old).abs() / old.max(1e-12);
                r.candidate = None;
                if rel > REFRESH_TOL {
                    r.candidate = Some(exec);
                    max_rel = max_rel.max(rel);
                }
            }
            if max_rel <= REFRESH_TOL {
                break;
            }
            for &slot in &self.active {
                let r = &mut self.running[slot];
                if let Some(exec) = r.candidate.take() {
                    r.exec = exec;
                    r.changed = true;
                }
            }
        }
        for &slot in &self.active {
            let r = &mut self.running[slot];
            if !std::mem::take(&mut r.changed) {
                continue;
            }
            let t = self.now.after(r.progress.eta_s(r.exec.latency_s).max(1e-9));
            self.events.arm(slot, t, Event::UnitCheck { slot });
        }
        let busy = self.cfg.machine.cores - self.free_cores;
        self.report.peak_cores = self.report.peak_cores.max(busy);
        if self.cfg.record_alloc_trace {
            self.alloc_trace.push((self.now.0, busy));
        }
    }

    /// Finalizes and returns the serving report.
    #[must_use]
    pub fn finish_report(mut self) -> ServingReport {
        self.settle_busy_stretch();
        if self.report.makespan_s > 0.0 {
            self.report.avg_cores = self.report.core_seconds / self.report.makespan_s;
        }
        self.report
    }

    /// A point-in-time copy of the accumulating report with the derived
    /// fields (`avg_cores`) finalized, for incremental mid-run statistics.
    /// The underlying accumulation is untouched, so snapshots may be taken
    /// at any cadence without perturbing the final report.
    ///
    /// Mid-run, `core_seconds` has accrued up to the current clock while
    /// `makespan_s` only reaches the last *completion*, so the average is
    /// taken over the elapsed time (the larger of the two); at exhaustion
    /// the clock sits on the final completion and this coincides with
    /// [`SimState::finish_report`].
    #[must_use]
    pub fn snapshot_report(&self) -> ServingReport {
        let mut r = self.report.clone();
        let live = self.now.since(self.busy_anchor);
        if live > 0.0 && self.anchor_busy > 0 {
            r.core_seconds += f64::from(self.anchor_busy) * live;
        }
        let elapsed = self.now.0.max(r.makespan_s);
        if elapsed > 0.0 {
            r.avg_cores = r.core_seconds / elapsed;
        }
        r
    }

    // --- Withdrawal (fleet drain/kill support) ------------------------------

    /// Withdraws every query that has not yet *started* executing — the
    /// never-dispatched entries of the fresh-arrival queue
    /// (`next_unit == 0`) — and returns their specs with original arrival
    /// times, so a fleet coordinator can re-route them to another node
    /// while this one drains. Mid-query work (in-flight units and
    /// continuations) is left to finish here: started queries carry
    /// node-local progress that cannot migrate.
    ///
    /// Withdrawn queries are marked [`QueryState::removed`]: they leave
    /// the outstanding count and never touch the report.
    ///
    /// Each returned entry carries the query's *driver-local* index
    /// alongside its spec, so a fleet coordinator can follow the
    /// query's identity (its trace id) through the reroute.
    pub fn extract_waiting(&mut self) -> Vec<(usize, QuerySpec)> {
        let mut specs = Vec::new();
        let mut kept = VecDeque::with_capacity(self.arrivals.len());
        while let Some(p) = self.arrivals.pop_front() {
            let st = &mut self.queries[p.query];
            if st.next_unit == 0 && st.finish.is_none() && !st.removed {
                st.removed = true;
                self.removed += 1;
                specs.push((
                    p.query,
                    QuerySpec {
                        model: self.models[st.model].name.clone(),
                        arrival: st.arrival,
                    },
                ));
            } else {
                kept.push_back(p);
            }
        }
        self.arrivals = kept;
        specs
    }

    /// Crash-stops the node: every incomplete query — waiting *or*
    /// in-flight — is withdrawn and returned (with original arrival
    /// times) for the coordinator to re-submit elsewhere, modeling
    /// client-side retry after a node loss. Partial execution progress is
    /// lost; completed queries stay in the report. Afterwards the event
    /// queue and all admission queues are empty, no unit holds cores, and
    /// the node is idle.
    ///
    /// As with [`SimState::extract_waiting`], each returned entry pairs
    /// the query's driver-local index with its spec so identity survives
    /// the reroute.
    pub fn halt(&mut self) -> Vec<(usize, QuerySpec)> {
        self.events.clear();
        self.continuations.clear();
        self.arrivals.clear();
        // Ascending release order: `free_slots` then hands slots out in
        // the same order it always has.
        while let Some(&slot) = self.active.first() {
            self.release_slot(slot);
        }
        let models = self.models;
        let mut specs = Vec::new();
        let mut newly_removed = 0;
        for (idx, st) in self.queries.iter_mut().enumerate() {
            if st.finish.is_none() && !st.removed {
                st.removed = true;
                newly_removed += 1;
                specs.push((
                    idx,
                    QuerySpec {
                        model: models[st.model].name.clone(),
                        arrival: st.arrival,
                    },
                ));
            }
        }
        self.removed += newly_removed;
        specs
    }
}

/// The allocating implementations that the borrowed co-runners and the
/// phantom scratch replaced, kept as the references the projection pin
/// in `tests` compares against after every step.
#[cfg(test)]
impl SimState<'_> {
    fn monitored_reference(&self) -> (Interference, f64) {
        let corunners: Vec<Execution> = self.monitored_units().map(|r| r.exec).collect();
        self.observe(Corunners::of(&corunners))
    }

    /// The projection, with how many phantoms it packed and the length
    /// of the blueprint they were drawn from (more phantoms than that
    /// means the blueprint cycled).
    fn projected_reference(&self) -> (PressureView, usize, usize) {
        let total_cores = self.cfg.machine.cores;
        let monitored: Vec<&Running> = self.monitored_units().collect();
        let mut packed_set: Vec<Execution> = monitored.iter().map(|r| r.exec).collect();
        let (pair, level) = self.observe(Corunners::of(&packed_set));
        let occupied_cores: u32 = monitored.iter().map(|r| r.granted).sum();
        let backlog_cores: u64 = self
            .continuations
            .iter()
            .chain(self.arrivals.iter())
            .map(|p| {
                let model = &self.models[self.queries[p.query].model];
                u64::from(model.model_core_requirement(level).max(1))
            })
            .sum();
        if backlog_cores == 0 && occupied_cores == 0 || self.cfg.projection.saturation_weight <= 0.0
        {
            return (PressureView::instantaneous(pair, level), 0, 0);
        }
        let queue_len = self.continuations.len() + self.arrivals.len();
        let blueprint_len = queue_len + monitored.len();
        let blueprint = |i: usize| {
            if i < queue_len {
                let p = if i < self.continuations.len() {
                    &self.continuations[i]
                } else {
                    &self.arrivals[i - self.continuations.len()]
                };
                let q = &self.queries[p.query];
                (q.model, q.next_unit)
            } else {
                let r = monitored[i - queue_len];
                (self.queries[r.query].model, r.unit)
            }
        };
        let mut phantoms: Vec<((usize, usize), Execution)> = Vec::new();
        let mut packed = occupied_cores;
        let mut next = 0usize;
        while blueprint_len > 0 && packed < total_cores {
            let (model_index, unit) = blueprint(next % blueprint_len);
            let model = &self.models[model_index];
            let req = model
                .model_core_requirement(level)
                .clamp(1, total_cores.max(1));
            if packed + req > total_cores {
                break;
            }
            let key = (model_index, unit.min(model.layers.len() - 1));
            let exec = match phantoms.iter().find(|(k, _)| *k == key) {
                Some(&(_, exec)) => exec,
                None => {
                    let version = model.layers[key.1].version_for(level, req);
                    self.rate(model_index, key.1, version, req, Interference::level(level))
                }
            };
            phantoms.push((key, exec));
            packed += req;
            next += 1;
        }
        let ceiling_level = if phantoms.is_empty() {
            level
        } else {
            packed_set.extend(phantoms.iter().map(|&(_, exec)| exec));
            self.observe(Corunners::of(&packed_set)).1
        };
        let view = monitor::project(
            pair,
            level,
            ceiling_level,
            ProjectionInputs {
                backlog_cores,
                occupied_cores,
                total_cores,
            },
            &self.cfg.projection,
        );
        (view, phantoms.len(), blueprint_len)
    }
}

/// Every float of a rating, as bits, so that equal means bit-equal.
fn rating_bits(e: &Execution) -> [u64; 8] {
    [
        e.latency_s,
        e.counters.l3_accesses,
        e.counters.l3_misses,
        e.counters.instructions,
        e.counters.cycles,
        e.counters.flops,
        e.demand.cache_bytes,
        e.demand.bw_bytes_per_s,
    ]
    .map(f64::to_bits)
}

/// Checks every model's QoS target and every compiled version's kernel
/// profile, so the event loop can account and rate without re-checking.
fn validate_profiles(models: &[CompiledModel]) -> Result<(), SimError> {
    for model in models {
        if !(model.qos_s.is_finite() && model.qos_s > 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "model {}: QoS target must be positive and finite, got {} s",
                    model.name, model.qos_s
                ),
            });
        }
        for (layer_index, layer) in model.layers.iter().enumerate() {
            for (version, v) in layer.versions.iter().enumerate() {
                v.profile
                    .validate()
                    .map_err(|reason| SimError::InvalidProfile {
                        model: model.name.clone(),
                        layer: layer_index,
                        version,
                        reason,
                    })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Driver;
    use crate::{Policy, WorkloadSpec};
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_proxy::{CounterWindow, InterferenceProxy};
    use veltair_sim::MachineConfig;

    /// The four-model overload mix of `tests/policy_ordering.rs`, compiled
    /// for `machine`, with its inverse-QoS arrival streams.
    fn overload_mix(machine: &MachineConfig) -> (Vec<CompiledModel>, WorkloadSpec) {
        let specs: Vec<_> = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"]
            .iter()
            .map(|name| veltair_models::by_name(name).expect("zoo model"))
            .collect();
        let streams: Vec<(&str, f64)> = specs
            .iter()
            .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
            .collect();
        let workload = WorkloadSpec::mix(&streams, 120);
        let models = specs
            .iter()
            .map(|s| compile_model(s, machine, &CompilerOptions::fast()))
            .collect();
        (models, workload)
    }

    /// A counter proxy fitted on windows of one unit per layer of each
    /// model, rated on 8 cores at known levels.
    fn counter_proxy(models: &[CompiledModel], machine: &MachineConfig) -> InterferenceProxy {
        let (mut windows, mut levels) = (Vec::new(), Vec::new());
        for step in 0..=10 {
            let level = f64::from(step) / 10.0;
            for layer in models.iter().flat_map(|m| &m.layers) {
                let exec = veltair_sim::execute(
                    &layer.versions[0].profile,
                    8,
                    Interference::level(level),
                    machine,
                );
                windows.push(CounterWindow::from_counters(&exec.counters, exec.latency_s));
                levels.push(level);
            }
        }
        InterferenceProxy::fit(&windows, &levels)
    }

    /// Every field of a view, bit for bit.
    fn bits(view: PressureView) -> [u64; 4] {
        [
            view.pair.cache_frac,
            view.pair.bw_frac,
            view.level,
            view.projected_level,
        ]
        .map(f64::to_bits)
    }

    /// What one pinned run exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Projections that packed phantoms.
        packed: usize,
        /// Projections whose phantoms cycled through the blueprint.
        cycled: usize,
        /// Whether any monitored level was above zero.
        pressured: bool,
    }

    /// Runs `cfg` on `queries` and, before the first step and after
    /// every one, checks `monitored()` and `projected()` bit for bit
    /// against the allocating references.
    fn pin_projection(models: &[CompiledModel], queries: &[QuerySpec], cfg: SimConfig) -> Coverage {
        let policy = cfg.policy.name();
        let mut driver = Driver::new(models, queries, cfg).expect("valid workload");
        let mut seen = Coverage::default();
        loop {
            let state = driver.state();
            let (pair, level) = state.monitored();
            let (ref_pair, ref_level) = state.monitored_reference();
            assert_eq!(
                bits(PressureView::instantaneous(pair, level)),
                bits(PressureView::instantaneous(ref_pair, ref_level)),
                "{policy}: monitored() at {:?}",
                state.now
            );
            let (reference, phantoms, blueprint_len) = state.projected_reference();
            assert_eq!(
                bits(state.projected()),
                bits(reference),
                "{policy}: projected() at {:?}",
                state.now
            );
            seen.packed += usize::from(phantoms > 0);
            seen.cycled += usize::from(phantoms > blueprint_len);
            seen.pressured |= level > 0.0;
            if driver.step().is_none() {
                return seen;
            }
        }
    }

    #[test]
    fn projection_matches_the_allocating_reference_after_every_step() {
        let machine = MachineConfig::threadripper_3990x();
        let (models, workload) = overload_mix(&machine);
        let proxy = counter_proxy(&models, &machine);
        // At 200 QPS, past the machine's capacity for the mix, the queue
        // often holds more than the machine packs; at 20 QPS the queue
        // plus the resident units are mostly fewer, so the blueprint
        // cycles. Both loads reach both cases.
        for qps in [200.0, 20.0] {
            let queries = workload.scaled_to(qps).generate(7);
            for policy in [
                Policy::VeltairAs,
                Policy::VeltairAc,
                Policy::VeltairFull,
                Policy::Planaria,
            ] {
                let oracle = SimConfig::new(machine.clone(), policy);
                let with_proxy = oracle.clone().with_proxy(proxy.clone());
                for cfg in [oracle, with_proxy] {
                    let monitor = if cfg.proxy.is_some() {
                        "counter proxy"
                    } else {
                        "oracle"
                    };
                    let seen = pin_projection(&models, &queries, cfg);
                    let case = format!("{} at {qps} QPS, {monitor}", policy.name());
                    assert!(seen.pressured, "{case}: no co-runner pressure");
                    assert!(
                        seen.packed > seen.cycled,
                        "{case}: the blueprint never filled the machine"
                    );
                    assert!(seen.cycled > 0, "{case}: the blueprint never cycled");
                }
            }
        }
    }

    #[test]
    fn ratings_read_the_tables_only_on_the_compile_machine() {
        let big = MachineConfig::threadripper_3990x();
        let models = [compile_model(
            &veltair_models::mobilenet_v2(),
            &big,
            &CompilerOptions::fast(),
        )];
        let tabulated_on = |machine: MachineConfig| {
            SimState::try_new(&models, &[], SimConfig::new(machine, Policy::VeltairFull))
                .expect("valid config and profiles")
                .tabulated(0)
        };
        assert!(tabulated_on(big.clone()));
        assert!(!tabulated_on(MachineConfig::desktop_8core()));
        assert!(!tabulated_on(big.with_smt()));
    }
}
