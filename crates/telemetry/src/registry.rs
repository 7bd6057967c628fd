//! The metrics registry: the per-(node-class, model) violation-frequency
//! table that calibrated admission control trains on.

use std::collections::BTreeMap;

/// Pseudo node-class under which front-door sheds are tabulated in the
/// violation table: a shed query never reaches a node, so it has no real
/// class, but admission calibration still needs its frequency per model.
pub const FRONT_DOOR_CLASS: &str = "front-door";

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
/// It holds the one datum neither that report nor the merged
/// [`TraceLog`](crate::TraceLog) can rebuild: each outcome under the
/// class its node had when it served the query, across policy swaps.
/// Two runs of the same configuration and seed produce equal snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// The violation-frequency table: node class → model name → cell.
    /// Node classes are `"{cores}c/{policy}"` labels plus
    /// [`FRONT_DOOR_CLASS`] for sheds.
    pub violations: BTreeMap<String, BTreeMap<String, ViolationCell>>,
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
