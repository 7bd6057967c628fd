//! Fleet member configuration and the per-node load view routers consume.

use veltair_sched::{Policy, SimConfig, SimError};
use veltair_sim::MachineConfig;

use crate::fleet::ClusterError;

/// Configuration of one fleet member: a name and the [`SimConfig`] its
/// driver runs (machine, scheduling policy, interference monitor,
/// version selector and pressure projection).
///
/// Nodes are independent — a fleet may mix big and small machines and
/// heterogeneous policies (e.g. Veltair-FULL flagships next to PREMA
/// legacy boxes), and each node's selector and projection are its own,
/// so a fleet can run calibration candidates side by side with the
/// incumbent; the routing layer sees nodes only through [`NodeLoad`].
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Display name used in fleet snapshots and example tables.
    pub name: String,
    /// The node's serving configuration.
    pub config: SimConfig,
}

impl NodeSpec {
    /// A node with the default configuration of [`SimConfig::new`]: the
    /// oracle monitor, the calibrated selector and the default
    /// projection.
    #[must_use]
    pub fn new(name: &str, machine: MachineConfig, policy: Policy) -> Self {
        Self {
            name: name.to_string(),
            config: SimConfig::new(machine, policy),
        }
    }

    /// Checks that a driver can simulate this node: its configuration
    /// passes [`SimConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`], naming the node, if the
    /// machine, the projection weight or the selector's parameters cannot
    /// be simulated.
    pub fn validate(&self) -> Result<(), ClusterError> {
        self.config.validate().map_err(|e| self.driver_error(e))
    }

    /// An error from opening this node's driver, as a fleet error: an
    /// invalid configuration names the node.
    pub(crate) fn driver_error(&self, e: SimError) -> ClusterError {
        match e {
            SimError::InvalidConfig { reason } => ClusterError::InvalidConfig {
                reason: format!("node {}: {reason}", self.name),
            },
            other => other.into(),
        }
    }
}

/// Lifecycle state of a fleet member under elastic churn.
///
/// Nodes never leave the roster: a drained or killed node keeps its
/// index (so per-node statistics, the load index layout, and therefore
/// bit-determinism are unaffected) and is merely masked out of routing.
///
/// * `Live` — routable, serving.
/// * `Stalled` — temporarily unreachable (fault injection): no new work
///   is routed to it, but in-flight work keeps executing — the
///   network-partition model, where the machine is healthy but the
///   front door cannot reach it. Recovers to `Live` at a scheduled
///   instant.
/// * `Draining` — no new work; queued-but-unstarted queries were
///   re-routed at drain time and in-flight work finishes here. Becomes
///   `Dead` once idle.
/// * `Dead` — gone. A killed node's incomplete queries (waiting *and*
///   in-flight) were re-routed at kill time; its completed work stays in
///   the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Routable and serving.
    Live,
    /// Temporarily unreachable; in-flight work continues, recovery is
    /// scheduled.
    Stalled,
    /// Finishing in-flight work; unstarted work was re-routed.
    Draining,
    /// Removed from service (drain completed, or crash-killed).
    Dead,
}

impl NodeState {
    /// Display name used in tables and scenario output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            NodeState::Live => "live",
            NodeState::Stalled => "stalled",
            NodeState::Draining => "draining",
            NodeState::Dead => "dead",
        }
    }
}

/// A point-in-time view of one node's load, read off its driver at a
/// routing decision. This is the whole routing interface: routers and
/// admission controllers see nothing else, so any signal a policy needs
/// must be exported here (and, transitively, from `Driver`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// Index of the node within the fleet.
    pub node: usize,
    /// Queries admitted to this node but not yet completed.
    pub outstanding: usize,
    /// Queries waiting in the node's admission queues.
    pub queued: usize,
    /// Scheduling units currently holding cores.
    pub in_flight: usize,
    /// Cores currently granted to in-flight units.
    pub busy_cores: u32,
    /// The node machine's total cores.
    pub total_cores: u32,
    /// `busy_cores / total_cores`, in `[0, 1]`.
    pub occupancy: f64,
    /// The pressure a new tenant would face on this node: the node's own
    /// monitored co-runner estimate (oracle or counter proxy) projected
    /// over its queued backlog. Temporal nodes (PREMA, AI-MT) report
    /// their serialization pressure `q / (q + 1)` over outstanding
    /// queries instead: a new tenant there faces whole-machine
    /// exclusion, not spatial co-location (see `Driver::pressure`).
    pub pressure: f64,
}

impl NodeLoad {
    /// Outstanding queries per core: the queue-depth signal normalized so
    /// big and small machines compare fairly in heterogeneous fleets.
    #[must_use]
    pub fn outstanding_per_core(&self) -> f64 {
        self.outstanding as f64 / f64::from(self.total_cores.max(1))
    }
}
