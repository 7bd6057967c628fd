//! Deterministic flight recorder for the VELTAIR serving stack:
//! query-lifecycle tracing, the per-(node class, model) violation table,
//! and SLO-violation attribution across the per-node driver and the
//! fleet coordinator.
//!
//! The crate sits *below* the scheduler and the fleet in the dependency
//! graph — drivers buffer their [`TraceEventKind`]s with virtual
//! timestamps in a plain `Vec`, the fleet coordinator records straight
//! into its [`Collector`] — and knows nothing about either: events carry
//! integer model/node ids, and the [`Collector`] that merges them owns
//! the name tables.
//!
//! # Determinism contract
//!
//! Every event carries a *virtual-time* timestamp, and the merged stream
//! produced by [`Collector::log`] is ordered by
//! `(timestamp, track index)` with a stable tie-break on emission order.
//! Per-node buffers are drained at coordinator-chosen points in
//! node-index order, so the merged trace — and everything derived from
//! it: the [`TelemetrySnapshot`], the Chrome-JSON export, the
//! [`explain`](TraceLog::explain) attribution — is **bit-identical**
//! across runs of the same configuration and seed.
//! Instrumentation never perturbs simulation results: emission only
//! *reads* scheduler state, and the extra solo ratings recorded for
//! attribution are computed from pure functions.
//!
//! # Off is `None`: one branch
//!
//! Drivers hold an `Option<Vec<(f64, TraceEventKind)>>` and the fleet an
//! `Option<Collector>`, both `None` by default. With telemetry off every
//! emission site pays one branch on that `Option` and builds no event.
//! With it on, every event is kept until the coordinator absorbs it.

mod collector;
mod event;
mod registry;
mod trace;

pub use collector::Collector;
pub use event::{TraceEvent, TraceEventKind};
pub use registry::{TelemetrySnapshot, ViolationCell, FRONT_DOOR_CLASS};
pub use trace::{QueryTerminal, SloAttribution, TraceLog};
