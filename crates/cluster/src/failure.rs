//! Deterministic failure injection for fleet runs.
//!
//! A [`FailurePlan`] is a schedule of node lifecycle events — crashes,
//! stalls, drains — applied by the fleet at exact virtual instants.
//! Plans are data, not callbacks: the same plan against the same seed
//! and workload produces a bit-identical [`FleetReport`](crate::FleetReport),
//! which is what makes failure scenarios pinnable in tests.
//!
//! Events can be authored explicitly (the `try_` builder methods,
//! mirroring the validated-constructor pattern of the rest of the crate)
//! or drawn from a seeded random process ([`FailurePlan::try_seeded`]) —
//! exponentially distributed failure times with a Bernoulli crash/stall
//! split, the classic MTBF model, still fully deterministic per seed.
//!
//! Safety rail: the fleet *skips* any scheduled event that would leave
//! zero routable nodes (a front door with nowhere to route is a
//! configuration error, not a simulation state), so plans may be written
//! against fleets whose size the autoscaler changes at runtime.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fleet::ClusterError;

/// The most failure events a [`FailurePlan::try_seeded`] plan may expect
/// to draw (`horizon_s / mtbf_s`).
const MAX_EXPECTED_FAILURES: f64 = 1e6;

/// What happens to the targeted node at a [`FailureEvent`]'s instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// The node crash-stops: all incomplete queries (waiting and
    /// in-flight) are re-routed, partial progress is lost, the node is
    /// dead for the rest of the run.
    Crash,
    /// The node becomes unreachable for `duration_s` seconds: no new
    /// work is routed to it, in-flight work keeps executing, and it
    /// rejoins the routable set on recovery (the network-partition
    /// model).
    Stall {
        /// How long the node stays unreachable, seconds.
        duration_s: f64,
    },
    /// The node drains gracefully: unstarted queries are re-routed,
    /// in-flight work finishes here, then the node leaves the fleet.
    Drain,
}

impl FailureKind {
    /// Display name used in tables and scenario output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Crash => "crash",
            FailureKind::Stall { .. } => "stall",
            FailureKind::Drain => "drain",
        }
    }
}

/// One scheduled node lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureEvent {
    /// Fleet-clock instant the event fires, seconds.
    pub at_s: f64,
    /// Index of the targeted node. Events whose index is out of range
    /// when they fire (e.g. a plan written for a larger fleet) are
    /// skipped, so plans compose with autoscaling.
    pub node: usize,
    /// What happens to the node.
    pub kind: FailureKind,
}

/// A deterministic schedule of node failures, applied by
/// [`Fleet::set_failure_plan`](crate::Fleet::set_failure_plan).
///
/// Events fire in `(at_s, insertion order)` order; multiple events may
/// share an instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailurePlan {
    events: Vec<FailureEvent>,
}

impl FailurePlan {
    /// An empty plan (no injected failures).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a crash of `node` at `at_s`, validated.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDuration`] if `at_s` is negative,
    /// NaN, or infinite.
    pub fn try_crash(mut self, at_s: f64, node: usize) -> Result<Self, ClusterError> {
        validate_instant(at_s)?;
        self.events.push(FailureEvent {
            at_s,
            node,
            kind: FailureKind::Crash,
        });
        Ok(self)
    }

    /// Schedules a stall of `node` at `at_s` for `duration_s` seconds,
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDuration`] if `at_s` is negative,
    /// NaN, or infinite, or if `duration_s` is not strictly positive and
    /// finite (a zero-length stall would schedule a recovery at the same
    /// instant it fires — a no-op the caller almost certainly did not
    /// mean).
    pub fn try_stall(
        mut self,
        at_s: f64,
        node: usize,
        duration_s: f64,
    ) -> Result<Self, ClusterError> {
        validate_instant(at_s)?;
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(ClusterError::InvalidDuration { dt_s: duration_s });
        }
        self.events.push(FailureEvent {
            at_s,
            node,
            kind: FailureKind::Stall { duration_s },
        });
        Ok(self)
    }

    /// Schedules a graceful drain of `node` at `at_s`, validated.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDuration`] if `at_s` is negative,
    /// NaN, or infinite.
    pub fn try_drain(mut self, at_s: f64, node: usize) -> Result<Self, ClusterError> {
        validate_instant(at_s)?;
        self.events.push(FailureEvent {
            at_s,
            node,
            kind: FailureKind::Drain,
        });
        Ok(self)
    }

    /// Draws a random plan from the classic MTBF model, deterministic per
    /// seed: failure instants arrive as a Poisson process with mean
    /// inter-failure time `mtbf_s` over `[0, horizon_s)`, each targeting
    /// a uniformly drawn node in `[0, nodes)` and stalling (for
    /// `stall_duration_s`) with probability `stall_prob`, crashing
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidDuration`] if `horizon_s`,
    /// `mtbf_s`, or `stall_duration_s` is not strictly positive and
    /// finite, or if `horizon_s / mtbf_s` (the expected event count)
    /// exceeds a million, naming `mtbf_s`; and
    /// [`ClusterError::NoNodes`] if `nodes` is zero (there is no node to
    /// target). `stall_prob` outside `[0, 1]` is clamped.
    pub fn try_seeded(
        seed: u64,
        nodes: usize,
        horizon_s: f64,
        mtbf_s: f64,
        stall_prob: f64,
        stall_duration_s: f64,
    ) -> Result<Self, ClusterError> {
        for dt in [horizon_s, mtbf_s, stall_duration_s] {
            if !dt.is_finite() || dt <= 0.0 {
                return Err(ClusterError::InvalidDuration { dt_s: dt });
            }
        }
        // Checked before drawing: past this ratio the draw would run for
        // about that many steps, and forever once a step rounds away
        // against `t`.
        if horizon_s / mtbf_s > MAX_EXPECTED_FAILURES {
            return Err(ClusterError::InvalidDuration { dt_s: mtbf_s });
        }
        if nodes == 0 {
            return Err(ClusterError::NoNodes);
        }
        let stall_prob = stall_prob.clamp(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        let mut t = 0.0;
        loop {
            // Inverse-CDF exponential sample (the `1e-12` floor keeps
            // `ln` finite), matching the workload generator's idiom.
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -u.ln() * mtbf_s;
            if t >= horizon_s {
                break;
            }
            let node = usize::try_from(rng.gen_range(0..nodes as u64)).expect("fleet sizes fit");
            let stall: f64 = rng.gen_range(0.0..1.0);
            plan = if stall < stall_prob {
                plan.try_stall(t, node, stall_duration_s)?
            } else {
                plan.try_crash(t, node)?
            };
        }
        Ok(plan)
    }

    /// The scheduled events in insertion order (not necessarily time
    /// order; the fleet sorts stably by instant when the plan is
    /// attached).
    #[must_use]
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Whether the plan schedules no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consumes the plan, returning its events stably sorted by instant
    /// (ties keep insertion order) — the form the fleet's control
    /// timeline walks with a cursor.
    #[must_use]
    pub fn into_sorted_events(self) -> Vec<FailureEvent> {
        let mut events = self.events;
        events.sort_by(|a, b| a.at_s.partial_cmp(&b.at_s).expect("validated finite"));
        events
    }
}

fn validate_instant(at_s: f64) -> Result<(), ClusterError> {
    if !at_s.is_finite() || at_s < 0.0 {
        return Err(ClusterError::InvalidDuration { dt_s: at_s });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_validate_instants_and_durations() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FailurePlan::new().try_crash(bad, 0),
                Err(ClusterError::InvalidDuration { .. })
            ));
            assert!(matches!(
                FailurePlan::new().try_drain(bad, 0),
                Err(ClusterError::InvalidDuration { .. })
            ));
            assert!(matches!(
                FailurePlan::new().try_stall(1.0, 0, bad),
                Err(ClusterError::InvalidDuration { .. })
            ));
        }
        assert!(matches!(
            FailurePlan::new().try_stall(1.0, 0, 0.0),
            Err(ClusterError::InvalidDuration { dt_s }) if dt_s == 0.0
        ));
        // at_s == 0.0 is a valid instant (fail at the starting gun).
        let plan = FailurePlan::new().try_crash(0.0, 2).expect("valid");
        assert_eq!(plan.events().len(), 1);
    }

    #[test]
    fn sorted_events_are_stable_by_insertion() {
        let plan = FailurePlan::new()
            .try_crash(5.0, 0)
            .and_then(|p| p.try_drain(1.0, 1))
            .and_then(|p| p.try_stall(5.0, 2, 0.5))
            .expect("valid");
        let sorted = plan.into_sorted_events();
        assert_eq!(sorted[0].node, 1);
        assert_eq!(sorted[1].node, 0, "ties keep insertion order");
        assert_eq!(sorted[2].node, 2);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FailurePlan::try_seeded(42, 8, 100.0, 10.0, 0.5, 2.0).expect("valid");
        let b = FailurePlan::try_seeded(42, 8, 100.0, 10.0, 0.5, 2.0).expect("valid");
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a 100 s horizon at 10 s MTBF draws events");
        for ev in a.events() {
            assert!(ev.at_s >= 0.0 && ev.at_s < 100.0);
            assert!(ev.node < 8);
        }
        let c = FailurePlan::try_seeded(43, 8, 100.0, 10.0, 0.5, 2.0).expect("valid");
        assert_ne!(a, c, "different seeds draw different plans");
        assert!(matches!(
            FailurePlan::try_seeded(1, 4, -1.0, 10.0, 0.5, 2.0),
            Err(ClusterError::InvalidDuration { .. })
        ));
    }

    #[test]
    fn seeded_plans_reject_an_unbounded_event_count_at_once() {
        // About 1e15 expected events: rejected before a single draw.
        assert!(matches!(
            FailurePlan::try_seeded(1, 4, 1e12, 1e-3, 0.5, 2.0),
            Err(ClusterError::InvalidDuration { dt_s }) if dt_s == 1e-3
        ));
        // A horizon so far out that each step would round away against
        // `t`, and the draw would never end.
        assert!(matches!(
            FailurePlan::try_seeded(1, 4, f64::MAX, 1.0, 0.5, 2.0),
            Err(ClusterError::InvalidDuration { dt_s }) if dt_s == 1.0
        ));
    }
}
