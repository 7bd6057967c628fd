//! Cluster serving: a multi-machine fleet runtime with SLO-aware routing
//! and admission control.
//!
//! VELTAIR (ASPLOS 2022) packs multi-tenant DNN queries onto *one* CPU
//! server; production traffic is sharded across many. This crate adds
//! that layer: a [`Fleet`] composes N per-node serving drivers (each a
//! full single-machine simulation from `veltair-sched`, with its own
//! machine, scheduling policy, and interference monitor) behind a
//! front-end with pluggable [`Router`] policies and an
//! [`AdmissionController`] that sheds or defers queries when their
//! projected SLO violation probability crosses a threshold.
//!
//! The module family:
//!
//! * [`node`] — [`NodeSpec`] (a name and the member's
//!   `veltair_sched::SimConfig`: machine, policy, monitor, selector,
//!   projection) and [`NodeLoad`], the live load view routers consume;
//! * [`router`] — the [`Router`] trait with round-robin,
//!   least-outstanding, power-of-two-choices, and interference-aware
//!   routing (the fleet-level consumer of each node's monitor/proxy
//!   pressure signal), each deciding off the load index;
//! * [`admission`] — the [`AdmissionController`] trait, the no-op
//!   [`AdmitAll`], and the SLO-projection [`SloAdmission`];
//! * [`index`] — [`LoadIndex`], the flat table of rank keys, routability
//!   flags and sampling weights the coordinator keeps keyed on the active
//!   router's rank signal; a router scans it for a minimum or walks it
//!   for a weighted draw, next to the Θ(nodes) node advancement every
//!   decision already does;
//! * [`fleet`] — the [`Fleet`] runtime: lockstep virtual time across
//!   nodes (each advanced on the coordinator thread), arrival-instant
//!   routing, streaming submission, completion polling, per-node policy
//!   hot swaps, snapshots. It is also the
//!   single machine's serving session (`ServingEngine::session` in
//!   `veltair-core` opens a fleet of one), and [`ClusterError`] is the
//!   one error type of both;
//! * [`failure`] — [`FailurePlan`], deterministic seed-able schedules of
//!   node crashes, stalls, and drains, applied on the fleet's control
//!   timeline;
//! * [`scaling`] — the hysteresis-banded [`HysteresisAutoscaler`] and
//!   [`ScalePolicy`] (its tuning, node template, min/max rails, tick
//!   interval, modeled provisioning delay);
//! * [`report`] — [`FleetReport`] and [`merge_reports`], which pools
//!   latency samples so fleet p95/p99 are computed over the union of
//!   node samples (never averaged percentiles).
//!
//! Fleets may be heterogeneous in both hardware and policy — a fleet can
//! mix Veltair-FULL flagships with PREMA or Planaria legacy nodes — and
//! every run is bit-deterministic for a fixed configuration and seed.
//!
//! # Example
//!
//! ```
//! use veltair_cluster::{AdmissionKind, Fleet, NodeSpec, RouterKind};
//! use veltair_compiler::{compile_model, CompilerOptions};
//! use veltair_sched::{Policy, WorkloadSpec};
//! use veltair_sim::MachineConfig;
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let models = vec![compile_model(
//!     &veltair_models::mobilenet_v2(),
//!     &machine,
//!     &CompilerOptions::fast(),
//! )];
//! let nodes = vec![
//!     NodeSpec::new("node-0", machine.clone(), Policy::VeltairFull),
//!     NodeSpec::new("node-1", MachineConfig::desktop_8core(), Policy::Prema),
//! ];
//! let mut fleet = Fleet::new(
//!     &models,
//!     &nodes,
//!     RouterKind::LeastOutstanding.build(),
//!     AdmissionKind::AdmitAll.build(),
//! )?;
//! fleet.submit_stream(&WorkloadSpec::single("mobilenet_v2", 60.0, 40), 7)?;
//! fleet.run_until(0.25)?;
//! let live = fleet.snapshot();
//! assert_eq!(live.nodes.len(), 2);
//! let report = fleet.finish();
//! assert_eq!(report.merged.total_queries() + report.shed as usize, 40);
//! # Ok::<(), veltair_cluster::ClusterError>(())
//! ```

pub mod admission;
pub mod failure;
pub mod fleet;
pub mod index;
pub mod node;
pub mod report;
pub mod router;
pub mod scaling;

pub use admission::{
    AdmissionController, AdmissionDecision, AdmissionKind, AdmitAll, SloAdmission,
    SloAdmissionConfig,
};
pub use failure::{FailureEvent, FailureKind, FailurePlan};
pub use fleet::{
    ClusterError, Completion, Fleet, FleetSnapshot, NodeSnapshot, StepMode, DEFER_HARD_CAP,
};
pub use index::LoadIndex;
pub use node::{NodeLoad, NodeSpec, NodeState};
pub use report::{merge_reports, CoordinatorStats, FleetReport};
pub use router::{
    InterferenceAware, LeastOutstanding, PowerOfTwoChoices, RoundRobin, Router, RouterKind,
};
pub use scaling::{AutoscalerConfig, HysteresisAutoscaler, ScaleDecision, ScalePolicy};
// The flight-recorder vocabulary (`Fleet::enable_telemetry`), re-exported
// so fleet callers need not name the telemetry crate directly.
pub use veltair_telemetry::{
    Collector, EventCounts, LatencyHistogram, SloAttribution, TelemetrySnapshot, TraceConfig,
    TraceEvent, TraceEventKind, TraceLog, ViolationCell,
};
