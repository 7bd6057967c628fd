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
//!   [`snapshot`](Driver::snapshot). The batch entry point,
//!   [`simulate`](crate::simulate), steps one to completion.
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
//! [`dispatcher::for_policy`]; the event loop in [`driver`] never
//! changes.

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
pub use state::{Corunners, Event, Pending, QueryState, Running, SimState};
pub use temporal::{TemporalDispatcher, TemporalOrder};
