//! The scheduler-core runtime: a policy-agnostic progress-based
//! discrete-event loop with pluggable [`Dispatcher`] families.
//!
//! Every in-flight scheduling unit advances at a rate set by the machine
//! model under the *current* co-location; whenever the tenant set changes,
//! all in-flight units are re-rated. This mirrors wall-clock execution on
//! the paper's testbed, where a layer's remaining time stretches the
//! moment a cache-hungry neighbour arrives.
//!
//! The module family splits Algorithm 3 along its natural seams:
//!
//! * [`state`] — the shared unit-state machine: queries, in-flight units,
//!   pending queues, time advancement, unit lifecycle, fixed-point
//!   re-rating, and report accumulation. Policy-free.
//! * [`driver`] — the resumable [`Driver`]: the event loop inverted into
//!   a stepper with open-loop [`inject`](Driver::inject), mid-run
//!   [`set_policy`](Driver::set_policy), and incremental
//!   [`snapshot`](Driver::snapshot). The batch entry points ([`run`],
//!   [`simulate`](crate::simulate)) are thin wrappers over it.
//! * [`monitor`] — the [`Monitor`] abstraction unifying the oracle and
//!   counter-proxy interference paths.
//! * [`dispatcher`] — the [`Dispatcher`] trait and the policy→family map.
//! * [`spatial`] — layer-block spatial sharing (FCFS, Planaria, fixed and
//!   dynamic blocks, the VELTAIR policies) with Algorithm 2 planning.
//! * [`temporal`] — PREMA token-priority and AI-MT round-robin
//!   time-multiplexing.
//! * [`partitioned`] — Parties per-tenant core partitioning.
//!
//! Adding a policy means implementing [`Dispatcher`] and extending
//! [`dispatcher::for_policy`]; the event loop below never changes.

pub mod dispatcher;
pub mod driver;
pub mod monitor;
pub mod partitioned;
pub mod spatial;
pub mod state;
pub mod temporal;

pub use dispatcher::{for_policy, Dispatcher};
pub use driver::{Driver, SimError};
pub use monitor::{
    project, CounterProxyMonitor, Monitor, OracleMonitor, PressureView, ProjectionConfig,
    ProjectionError, ProjectionInputs,
};
pub use partitioned::PartitionedDispatcher;
pub use spatial::SpatialDispatcher;
pub use state::{Event, Pending, QueryState, Running, SimState};
pub use temporal::{TemporalDispatcher, TemporalOrder};

use crate::report::ServingReport;
use crate::simulator::SimConfig;
use crate::workload::QuerySpec;
use veltair_compiler::CompiledModel;

/// Runs the serving simulation to completion under the given dispatcher,
/// returning the report and the `(time, busy cores)` allocation trace
/// (empty unless `cfg.record_alloc_trace` is set).
///
/// This is a thin wrapper over [`Driver`]: it constructs one and steps it
/// to exhaustion, so the batch and streaming paths share one loop body.
/// Note the absence of any policy inspection: policies act only through
/// `dispatcher` and the planning code it calls.
///
/// # Panics
///
/// Panics if a query references a model that was not compiled, if a
/// compiled kernel profile is invalid, or if `queries` is empty; use
/// [`try_run`] to handle invalid input gracefully.
#[must_use]
pub fn run(
    models: &[CompiledModel],
    queries: &[QuerySpec],
    cfg: &SimConfig,
    dispatcher: Box<dyn Dispatcher>,
) -> (ServingReport, Vec<(f64, u32)>) {
    try_run(models, queries, cfg, dispatcher).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`run`]: the same driver-backed batch simulation,
/// surfacing invalid input as a typed [`SimError`].
///
/// # Errors
///
/// Returns [`SimError::UnknownModel`] if a query references a model that
/// was not compiled, [`SimError::InvalidProfile`] if a compiled kernel
/// profile is invalid, and [`SimError::EmptyWorkload`] if `queries` is
/// empty.
pub fn try_run(
    models: &[CompiledModel],
    queries: &[QuerySpec],
    cfg: &SimConfig,
    dispatcher: Box<dyn Dispatcher>,
) -> Result<(ServingReport, Vec<(f64, u32)>), SimError> {
    if queries.is_empty() {
        return Err(SimError::EmptyWorkload);
    }
    let mut driver = Driver::with_dispatcher(models, queries, cfg.clone(), dispatcher)?;
    driver.run_to_completion();
    Ok(driver.finish())
}
