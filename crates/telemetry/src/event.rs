//! The typed event vocabulary of the flight recorder.

/// One recorded lifecycle event: a virtual-time instant on a track.
///
/// Track `0` is the fleet coordinator; track `i + 1` is node `i` in
/// roster order. Timestamps are seconds of *virtual* (simulation) time,
/// never wall clock, which is what makes traces reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual-time instant, seconds.
    pub at_s: f64,
    /// Emitting track: `0` = coordinator, `i + 1` = node `i`.
    pub track: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The query-lifecycle, node-lifecycle, and autoscaler event vocabulary.
///
/// A query's span chain runs
/// `Submitted → (Routed → Admitted | Deferred | Shed)* → Dispatched* →
/// Completed [+ Violated]`, with `Requeued` marking a drain/crash detour
/// back through the front door. `query` is the fleet-wide trace id (the
/// original submission ticket), preserved across deferrals and reroutes,
/// so conservation holds: every `Submitted` chain terminates in exactly
/// one of `Completed` / `Shed`.
///
/// Model and node fields are integer ids; the [`Collector`] owning the
/// merged stream carries the matching name tables
/// (see [`TraceLog`](crate::TraceLog)).
///
/// [`Collector`]: crate::Collector
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A query entered the fleet front door (timestamped at its clamped
    /// arrival — the latency baseline).
    Submitted {
        /// Fleet-wide trace id.
        query: u64,
        /// Model id (index into the collector's model table).
        model: u32,
    },
    /// The router picked a target node for one front-door decision.
    /// Emitted for *every* decision — including ones the admission
    /// controller subsequently defers or sheds — so the count of
    /// `Routed` events equals `CoordinatorStats::routing_decisions`.
    Routed {
        /// Fleet-wide trace id.
        query: u64,
        /// Roster index of the node the router chose.
        node: u32,
        /// Prior deferrals of this query.
        attempts: u32,
    },
    /// Admission control accepted the routing decision; the query was
    /// handed to the node.
    Admitted {
        /// Fleet-wide trace id.
        query: u64,
        /// Roster index of the admitting node.
        node: u32,
        /// Prior deferrals of this query.
        attempts: u32,
    },
    /// Admission control held the query at the front door.
    Deferred {
        /// Fleet-wide trace id.
        query: u64,
        /// Deferral count *including* this one.
        attempts: u32,
        /// Virtual time at which the query re-enters routing.
        until_s: f64,
    },
    /// Admission control (or the deferral hard cap) dropped the query —
    /// a terminal event.
    Shed {
        /// Fleet-wide trace id.
        query: u64,
        /// Model id.
        model: u32,
        /// Deferrals burned before the drop.
        attempts: u32,
    },
    /// A drain or crash bounced the query back to the front door for
    /// re-routing (its trace id survives the detour).
    Requeued {
        /// Fleet-wide trace id.
        query: u64,
        /// Roster index of the node that gave the query up.
        from_node: u32,
    },
    /// A node's dispatcher granted cores to a layer block of the query.
    /// The solo ratings are recorded only when tracing is enabled and
    /// feed [`explain`](crate::TraceLog::explain)'s decomposition.
    Dispatched {
        /// Fleet-wide trace id.
        query: u64,
        /// First layer (absolute index) of the dispatched block.
        unit: u32,
        /// Code version chosen for the block's first layer.
        version: u32,
        /// The scalar interference level the version selector planned
        /// under (0 when the policy plans pressure-blind).
        pressure_at_plan: f64,
        /// Rated latency of the first layer under the live co-location.
        expected_s: f64,
        /// Rated latency of the same version with no co-runners.
        solo_s: f64,
        /// Rated solo latency of the *best* version for this layer.
        solo_best_s: f64,
    },
    /// The query finished — a terminal event, emitted whether or not the
    /// deadline was met.
    Completed {
        /// Fleet-wide trace id.
        query: u64,
        /// Model id.
        model: u32,
        /// End-to-end latency, seconds (front-door holds included).
        latency_s: f64,
        /// The model's QoS target, seconds.
        qos_s: f64,
    },
    /// The completion missed its deadline. Emitted *in addition to*
    /// `Completed`, at the same instant — `Completed`/`Shed` stay the
    /// only terminals, which keeps conservation checks simple.
    Violated {
        /// Fleet-wide trace id.
        query: u64,
        /// Model id.
        model: u32,
        /// End-to-end latency, seconds.
        latency_s: f64,
        /// The model's QoS target, seconds.
        qos_s: f64,
    },
    /// A node joined the roster (seed nodes, manual joins, and
    /// autoscaler provisions all emit this).
    NodeJoined {
        /// Roster index of the new node.
        node: u32,
    },
    /// A node stopped making progress (fault injection).
    NodeStalled {
        /// Roster index.
        node: u32,
    },
    /// A stalled node resumed.
    NodeRecovered {
        /// Roster index.
        node: u32,
    },
    /// A graceful drain began: no new placements, waiting work bounced.
    NodeDraining {
        /// Roster index.
        node: u32,
    },
    /// A node crash-stopped; its incomplete work was requeued.
    NodeKilled {
        /// Roster index.
        node: u32,
    },
    /// A draining node finished its in-flight work and left the roster.
    NodeRetired {
        /// Roster index.
        node: u32,
    },
    /// The autoscaler requested `added` new nodes.
    ScaleOut {
        /// Nodes requested.
        added: u32,
    },
    /// The autoscaler began draining a node.
    ScaleIn {
        /// Roster index of the drain victim.
        node: u32,
    },
}

impl TraceEventKind {
    /// The event's stable display name (also the Chrome-trace event
    /// name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Submitted { .. } => "Submitted",
            TraceEventKind::Routed { .. } => "Routed",
            TraceEventKind::Admitted { .. } => "Admitted",
            TraceEventKind::Deferred { .. } => "Deferred",
            TraceEventKind::Shed { .. } => "Shed",
            TraceEventKind::Requeued { .. } => "Requeued",
            TraceEventKind::Dispatched { .. } => "Dispatched",
            TraceEventKind::Completed { .. } => "Completed",
            TraceEventKind::Violated { .. } => "Violated",
            TraceEventKind::NodeJoined { .. } => "NodeJoined",
            TraceEventKind::NodeStalled { .. } => "NodeStalled",
            TraceEventKind::NodeRecovered { .. } => "NodeRecovered",
            TraceEventKind::NodeDraining { .. } => "NodeDraining",
            TraceEventKind::NodeKilled { .. } => "NodeKilled",
            TraceEventKind::NodeRetired { .. } => "NodeRetired",
            TraceEventKind::ScaleOut { .. } => "ScaleOut",
            TraceEventKind::ScaleIn { .. } => "ScaleIn",
        }
    }

    /// The trace id this event belongs to, for query-lifecycle events.
    #[must_use]
    pub fn query(&self) -> Option<u64> {
        match self {
            TraceEventKind::Submitted { query, .. }
            | TraceEventKind::Routed { query, .. }
            | TraceEventKind::Admitted { query, .. }
            | TraceEventKind::Deferred { query, .. }
            | TraceEventKind::Shed { query, .. }
            | TraceEventKind::Requeued { query, .. }
            | TraceEventKind::Dispatched { query, .. }
            | TraceEventKind::Completed { query, .. }
            | TraceEventKind::Violated { query, .. } => Some(*query),
            _ => None,
        }
    }

    /// Rewrites the query id through `map` — how the collector converts
    /// a node buffer's driver-local indices into fleet-wide trace ids.
    pub(crate) fn remap_query(&mut self, map: impl Fn(u64) -> u64) {
        match self {
            TraceEventKind::Submitted { query, .. }
            | TraceEventKind::Routed { query, .. }
            | TraceEventKind::Admitted { query, .. }
            | TraceEventKind::Deferred { query, .. }
            | TraceEventKind::Shed { query, .. }
            | TraceEventKind::Requeued { query, .. }
            | TraceEventKind::Dispatched { query, .. }
            | TraceEventKind::Completed { query, .. }
            | TraceEventKind::Violated { query, .. } => *query = map(*query),
            _ => {}
        }
    }
}
