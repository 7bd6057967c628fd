//! The scheduler-core runtime: one progress-based discrete-event loop
//! that dispatches by policy family.
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
//!   re-rating, and report accumulation.
//! * [`driver`] — the resumable [`Driver`]: the event loop inverted into
//!   a stepper with open-loop [`inject`](Driver::inject), mid-run
//!   [`set_policy`](Driver::set_policy), and incremental
//!   [`snapshot`](Driver::snapshot). After every material event it
//!   dispatches through one exhaustive `match` on the active
//!   [`Policy`](crate::Policy). The batch entry point,
//!   [`simulate`](crate::simulate), steps one to completion.
//! * [`monitor`] — the interference monitor, which reads the oracle or
//!   the trained counter proxy (`SimConfig::proxy`), and the predictive
//!   [`project`]ion of its snapshot.
//! * `spatial` — layer-block spatial sharing (FCFS, Planaria, fixed and
//!   dynamic blocks, the VELTAIR policies) with Algorithm 2 planning.
//! * `temporal` — PREMA token-priority and AI-MT round-robin
//!   time-multiplexing, and the yield rule behind PREMA's preemption.
//! * `partitioned` — Parties per-tenant core partitioning.
//!
//! Adding a policy means one [`Policy`](crate::Policy) variant and one
//! arm of the driver's dispatch `match`.

pub mod driver;
pub mod monitor;
mod partitioned;
mod spatial;
pub mod state;
mod temporal;

pub use driver::{Driver, SimError};
pub use monitor::{project, PressureView, ProjectionConfig, ProjectionError, ProjectionInputs};
pub use state::{Event, Pending, QueryState, Running, SimState};
