//! Fleet-level serving statistics: per-node reports plus a correctly
//! pooled merge.
//!
//! The merge is sample-pooling, not statistic-averaging: tail latency
//! percentiles are *not* linear, so a fleet p99 must be computed over the
//! union of every node's latency samples — averaging per-node p99s
//! understates the tail whenever nodes are unevenly loaded (and fleet
//! routing exists precisely because they are).

use std::collections::BTreeMap;

use veltair_sched::ServingReport;
use veltair_telemetry::TelemetrySnapshot;

use crate::node::NodeState;

/// Pools per-node [`ServingReport`]s into one fleet-wide report.
///
/// Counters (queries, satisfied, conflicts, dispatches, preemptions,
/// core-seconds, latency sums and samples) add; `makespan_s` is the last
/// completion anywhere in the fleet; `peak_cores` sums the per-node peaks
/// (an upper bound on coincident usage — node-local peaks need not line
/// up in time); `avg_cores` is re-derived from the pooled core-seconds
/// over the fleet makespan. Latency samples are concatenated in node
/// order, so percentile accessors on the merged report operate on the
/// pooled distribution.
#[must_use]
pub fn merge_reports(reports: &[ServingReport]) -> ServingReport {
    let mut merged = ServingReport::default();
    for r in reports {
        for (name, stats) in &r.per_model {
            let m = merged.per_model.entry(name.clone()).or_default();
            m.queries += stats.queries;
            m.satisfied += stats.satisfied;
            m.latency_sum_s += stats.latency_sum_s;
            m.latency_max_s = m.latency_max_s.max(stats.latency_max_s);
            m.latencies_s.extend_from_slice(&stats.latencies_s);
        }
        merged.conflicts += r.conflicts;
        merged.dispatches += r.dispatches;
        merged.preemptions += r.preemptions;
        merged.core_seconds += r.core_seconds;
        merged.makespan_s = merged.makespan_s.max(r.makespan_s);
        merged.peak_cores += r.peak_cores;
    }
    if merged.makespan_s > 0.0 {
        merged.avg_cores = merged.core_seconds / merged.makespan_s;
    }
    merged
}

/// Coordinator work counters: how much bookkeeping the fleet front door
/// did to make its routing decisions.
///
/// These are *op counts*, not wall-clock timings: they say what the
/// coordinator read and did, independent of host speed and noise. A
/// decision's wall time is dominated by advancing every node to its
/// instant, which no counter here measures.
///
/// Counting contract (every counter is a pure function of the run):
///
/// * `routing_decisions` — one per query offered to the router,
///   *including* re-offers of deferred queries.
/// * `nodes_examined` — the load-index keys and node loads read to make
///   those decisions. A minimum reads every roster slot (departed nodes
///   included); a weighted draw reads the slots it walks, up to and
///   including the one it picks; comparing a sampled pair reads 2 keys.
///   The admission controller's load read counts as 1. Version compares
///   and same-instant event peeks are coordinator work, not
///   examinations.
/// * `index_updates` — rank re-computations triggered by node state
///   changes, for every router (round-robin's constant rank included).
/// * `pool_round_trips` — node-advancement passes: one per pass that
///   moves every node to a later instant, plus one for the final drain.
///   Same-instant event peeks do not count.
/// * `nodes_added` / `nodes_drained` / `nodes_killed` — roster churn:
///   one per lifecycle transition applied (manual calls, failure-plan
///   events, and autoscaler actions all count; skipped plan events do
///   not). A node drained and later killed counts once in each. All
///   churn happens at deterministic control instants.
///
/// **Telemetry relations.** When the flight recorder is enabled
/// (`Fleet::enable_telemetry`), these counters and the event counts of
/// the merged `TraceLog` (`Fleet::trace_log`, events counted by
/// `TraceEventKind::name`) describe the same run from two sides, and the
/// following equalities hold exactly — they are pinned by the
/// `cluster_fleet` integration tests:
///
/// * `routing_decisions` equals the `Routed` events — every routing
///   decision (including deferral re-offers) emits exactly one `Routed`
///   event before its admission outcome.
/// * `nodes_added` plus the seed roster size equals the `NodeJoined`
///   events — every roster slot is announced exactly once (seed nodes at
///   enable time, later joins at their join instant).
/// * `nodes_drained` equals the `NodeDraining` events and
///   `nodes_killed` the `NodeKilled` events — one lifecycle event per
///   applied transition, none for skipped plan events.
/// * `FleetReport::deferrals`, `FleetReport::shed` and
///   `FleetReport::rerouted` equal the `Deferred`, `Shed` and
///   `Requeued` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoordinatorStats {
    /// Routing decisions made (one per offer, including deferral re-offers).
    pub routing_decisions: u64,
    /// Load entries / index keys inspected across all decisions.
    pub nodes_examined: u64,
    /// Rank re-computations applied to the load index.
    pub index_updates: u64,
    /// Node-advancement passes that moved time (the final drain
    /// included).
    pub pool_round_trips: u64,
    /// Nodes added to the roster (manual or autoscaled joins).
    pub nodes_added: u64,
    /// Graceful drains initiated (manual, planned, or scale-in).
    pub nodes_drained: u64,
    /// Crash-stops applied (manual or planned).
    pub nodes_killed: u64,
}

impl CoordinatorStats {
    /// Mean keys and loads examined per routing decision: the roster size
    /// plus one for the minimum routers, and two walks, the pair and the
    /// admission read for power-of-two.
    #[must_use]
    pub fn examined_per_decision(&self) -> f64 {
        if self.routing_decisions == 0 {
            0.0
        } else {
            self.nodes_examined as f64 / self.routing_decisions as f64
        }
    }

    /// Node-advancement passes per 1000 routing decisions — below 1000
    /// when several queries route at one instant.
    #[must_use]
    pub fn round_trips_per_1k_decisions(&self) -> f64 {
        if self.routing_decisions == 0 {
            0.0
        } else {
            1000.0 * self.pool_round_trips as f64 / self.routing_decisions as f64
        }
    }
}

/// The statistics of one fleet run: what [`Fleet::finish`] returns at
/// the end, and [`Fleet::snapshot`] over the queries completed so far.
///
/// [`Fleet::finish`]: crate::Fleet::finish
/// [`Fleet::snapshot`]: crate::Fleet::snapshot
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The pooled fleet-wide report (see [`merge_reports`]).
    pub merged: ServingReport,
    /// Each node's own report, in fleet node order.
    pub per_node: Vec<ServingReport>,
    /// Node display names, parallel to `per_node`.
    pub node_names: Vec<String>,
    /// Queries routed into each node, parallel to `per_node`.
    pub routed_per_node: Vec<u64>,
    /// Each node's lifecycle state, parallel to `per_node` — departed
    /// nodes keep their slot, so at the end this records how each roster
    /// entry ended the run.
    pub node_states: Vec<NodeState>,
    /// Client submissions to the front door (excludes re-routes).
    pub submitted: u64,
    /// Front-door re-entries of queries orphaned by a drain or kill.
    pub rerouted: u64,
    /// Queries refused by admission control, never served.
    pub shed: u64,
    /// Shed counts by model name.
    pub shed_per_model: BTreeMap<String, u64>,
    /// Deferral events (one query held twice counts twice).
    pub deferrals: u64,
    /// Coordinator work counters (see [`CoordinatorStats`]).
    pub coordinator: CoordinatorStats,
    /// The metrics registry — the per-(node-class, model)
    /// violation-frequency table — when the flight recorder was enabled
    /// for the run. Percentiles come exact from `merged`, event counts
    /// from [`Fleet::trace_log`](crate::Fleet::trace_log).
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetReport {
    /// Queries offered to the fleet: completed plus shed.
    #[must_use]
    pub fn offered(&self) -> usize {
        self.merged.total_queries() + self.shed as usize
    }

    /// Fraction of *offered* queries that missed their SLO — a shed query
    /// was never served, so it counts as a violation here. This is the
    /// end-user metric: shedding must buy enough tail latency for the
    /// admitted majority to pay for the refusals.
    #[must_use]
    pub fn slo_violation_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            return 0.0;
        }
        let satisfied: usize = self.merged.per_model.values().map(|m| m.satisfied).sum();
        1.0 - satisfied as f64 / offered as f64
    }

    /// QoS-satisfied queries per second of fleet makespan ("goodput"):
    /// queries that were both served and on time.
    #[must_use]
    pub fn goodput_qps(&self) -> f64 {
        if self.merged.makespan_s <= 0.0 {
            return 0.0;
        }
        let satisfied: usize = self.merged.per_model.values().map(|m| m.satisfied).sum();
        satisfied as f64 / self.merged.makespan_s
    }

    /// Fraction of offered queries refused by admission control.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed as f64 / offered as f64
        }
    }

    /// Roster slots in the given lifecycle state.
    fn count_state(&self, state: NodeState) -> usize {
        self.node_states.iter().filter(|s| **s == state).count()
    }

    /// Live nodes (routable and serving).
    #[must_use]
    pub fn live_nodes(&self) -> usize {
        self.count_state(NodeState::Live)
    }

    /// Stalled nodes (partitioned, recovery pending).
    #[must_use]
    pub fn stalled_nodes(&self) -> usize {
        self.count_state(NodeState::Stalled)
    }

    /// Nodes still draining in-flight work.
    #[must_use]
    pub fn draining_nodes(&self) -> usize {
        self.count_state(NodeState::Draining)
    }

    /// Nodes that have left the fleet (drained dry or killed).
    #[must_use]
    pub fn dead_nodes(&self) -> usize {
        self.count_state(NodeState::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_sched::ModelStats;

    fn report_with(latencies: &[f64], qos_s: f64) -> ServingReport {
        let mut r = ServingReport::default();
        r.per_model.insert(
            "m".into(),
            ModelStats {
                queries: latencies.len(),
                satisfied: latencies.iter().filter(|&&l| l <= qos_s).count(),
                latency_sum_s: latencies.iter().sum(),
                latency_max_s: latencies.iter().fold(0.0, |a: f64, &b| a.max(b)),
                latencies_s: latencies.to_vec(),
            },
        );
        r.makespan_s = 1.0;
        r
    }

    #[test]
    fn merge_pools_counts_and_sums() {
        let a = report_with(&[0.1, 0.2], 0.15);
        let b = report_with(&[0.3], 0.15);
        let m = merge_reports(&[a, b]);
        let stats = &m.per_model["m"];
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.satisfied, 1);
        assert!((stats.latency_sum_s - 0.6).abs() < 1e-12);
        assert!((stats.latency_max_s - 0.3).abs() < 1e-12);
        assert_eq!(stats.latencies_s.len(), 3);
    }

    #[test]
    fn fleet_report_rates_include_shed() {
        let fr = FleetReport {
            merged: report_with(&[0.1, 0.1, 0.9, 0.9], 0.5),
            per_node: vec![],
            node_names: vec![],
            routed_per_node: vec![],
            node_states: vec![],
            submitted: 8,
            rerouted: 0,
            shed: 4,
            shed_per_model: BTreeMap::new(),
            deferrals: 1,
            coordinator: CoordinatorStats::default(),
            telemetry: None,
        };
        assert_eq!(fr.offered(), 8);
        // 2 satisfied of 8 offered -> 75 % violation.
        assert!((fr.slo_violation_rate() - 0.75).abs() < 1e-12);
        assert!((fr.shed_fraction() - 0.5).abs() < 1e-12);
        assert!((fr.goodput_qps() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coordinator_ratios_guard_division_by_zero() {
        let zero = CoordinatorStats::default();
        assert_eq!(zero.examined_per_decision(), 0.0);
        assert_eq!(zero.round_trips_per_1k_decisions(), 0.0);
        let stats = CoordinatorStats {
            routing_decisions: 1000,
            nodes_examined: 17_000,
            index_updates: 3,
            pool_round_trips: 250,
            nodes_added: 0,
            nodes_drained: 0,
            nodes_killed: 0,
        };
        assert!((stats.examined_per_decision() - 17.0).abs() < 1e-12);
        assert!((stats.round_trips_per_1k_decisions() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_report_is_benign() {
        let fr = FleetReport {
            merged: ServingReport::default(),
            per_node: vec![],
            node_names: vec![],
            routed_per_node: vec![],
            node_states: vec![],
            submitted: 0,
            rerouted: 0,
            shed: 0,
            shed_per_model: BTreeMap::new(),
            deferrals: 0,
            coordinator: CoordinatorStats::default(),
            telemetry: None,
        };
        assert_eq!(fr.offered(), 0);
        assert_eq!(fr.slo_violation_rate(), 0.0);
        assert_eq!(fr.goodput_qps(), 0.0);
        assert_eq!(fr.shed_fraction(), 0.0);
    }
}
