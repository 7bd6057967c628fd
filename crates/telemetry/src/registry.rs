//! The metrics registry: event counters, latency histograms, and the
//! per-(node-class, model) violation-frequency table that calibrated
//! admission control trains on.

use std::collections::BTreeMap;

use crate::histogram::LatencyHistogram;

/// Pseudo node-class under which front-door sheds are tabulated in the
/// violation table: a shed query never reaches a node, so it has no real
/// class, but admission calibration still needs its frequency per model.
pub const FRONT_DOOR_CLASS: &str = "front-door";

/// Monotone counters over every event kind the recorder has absorbed.
///
/// These are pure event counts — no coordinator op counts — so they are
/// a function of the simulated run alone and safe to compare in
/// whole-snapshot equality asserts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `Submitted` events (== front-door submissions).
    pub submitted: u64,
    /// `Routed` events (== `CoordinatorStats::routing_decisions`).
    pub routed: u64,
    /// `Admitted` events (successful placements, reroutes included).
    pub admitted: u64,
    /// `Deferred` events (== `FleetReport::deferrals`).
    pub deferred: u64,
    /// `Shed` terminal events (== `FleetReport::shed`).
    pub shed: u64,
    /// `Requeued` events (== `FleetReport::rerouted`).
    pub requeued: u64,
    /// `Dispatched` events (core grants to layer blocks).
    pub dispatched: u64,
    /// `Completed` terminal events.
    pub completed: u64,
    /// `Violated` events (completions past their deadline).
    pub violated: u64,
    /// `NodeJoined` events (== `CoordinatorStats::nodes_added` plus the
    /// seed roster).
    pub node_joined: u64,
    /// `NodeStalled` events.
    pub node_stalled: u64,
    /// `NodeRecovered` events.
    pub node_recovered: u64,
    /// `NodeDraining` events (== `CoordinatorStats::nodes_drained`).
    pub node_draining: u64,
    /// `NodeKilled` events (== `CoordinatorStats::nodes_killed`).
    pub node_killed: u64,
    /// `NodeRetired` events (drains that completed).
    pub node_retired: u64,
    /// `ScaleOut` autoscaler events.
    pub scale_out: u64,
    /// `ScaleIn` autoscaler events.
    pub scale_in: u64,
}

/// One cell of the violation-frequency table: outcomes of every query of
/// one model on one node class (or shed at the [`FRONT_DOOR_CLASS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViolationCell {
    /// Queries of this model completed on this node class.
    pub completed: u64,
    /// Of those, completions past the model's QoS target.
    pub violated: u64,
    /// Queries of this model shed (only populated under
    /// [`FRONT_DOOR_CLASS`]).
    pub shed: u64,
}

impl ViolationCell {
    /// Measured violation frequency: `violated / completed` (0 when no
    /// completions) — the per-(class, model) signal calibrated admission
    /// reads.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.violated as f64 / self.completed as f64
        }
    }
}

/// A point-in-time copy of the metrics registry, surfaced on the
/// `FleetReport` of a fleet snapshot or finish when telemetry is enabled.
///
/// Deliberately contains *only* data about the simulated run (event
/// counts, histograms, the violation table) — never coordinator op
/// counts — so two runs of the same configuration and seed produce equal
/// snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counters over every absorbed event kind.
    pub counts: EventCounts,
    /// Log-bucketed end-to-end latency over all completions.
    pub latency: LatencyHistogram,
    /// The same histogram, per model name.
    pub per_model_latency: BTreeMap<String, LatencyHistogram>,
    /// The violation-frequency table: node class → model name → cell.
    /// Node classes are `"{cores}c/{policy}"` labels plus
    /// [`FRONT_DOOR_CLASS`] for sheds.
    pub violations: BTreeMap<String, BTreeMap<String, ViolationCell>>,
    /// Events absorbed into the merged stream so far.
    pub events_recorded: u64,
}

impl TelemetrySnapshot {
    /// Flattened `(class, model, cell)` rows of the violation table, in
    /// deterministic (class, model) order — the display/export view.
    #[must_use]
    pub fn violation_rows(&self) -> Vec<(&str, &str, &ViolationCell)> {
        self.violations
            .iter()
            .flat_map(|(class, models)| {
                models
                    .iter()
                    .map(move |(model, cell)| (class.as_str(), model.as_str(), cell))
            })
            .collect()
    }
}
