//! The autoscaling control plane: capacity that reacts to the same
//! node loads the router and admission controller already consume.
//!
//! A [`HysteresisAutoscaler`] is consulted at a fixed virtual-time
//! cadence with the fleet's load signal
//! ([`HysteresisAutoscaler::signal`]) and answers with a
//! [`ScaleDecision`]. The fleet executes the decision under the
//! [`ScalePolicy`]'s guard rails: scale-outs clone the policy's node
//! template and *join after a modeled provisioning delay* (capacity is
//! never free or instant), scale-ins gracefully drain the highest-index
//! live nodes, and both are clamped to `[min_nodes, max_nodes]`.
//!
//! Everything here is deterministic: decisions are pure functions of the
//! signal (plus the scaler's own state), ticks fire at exact virtual
//! instants, and provisioned nodes join at exact virtual instants — so
//! an autoscaled run reproduces bit for bit per seed.
//!
//! The autoscaler is watermark-banded with consecutive-tick streaks:
//! the load signal (outstanding queries per live core, front door
//! included) must sit above the high watermark for `streak` consecutive
//! ticks before a scale-out, and below the low watermark for `streak`
//! ticks before a scale-in — the hysteresis band keeps the fleet from
//! thrashing on bursty arrivals.

use crate::fleet::ClusterError;
use crate::node::{NodeSpec, NodeState};

/// What the fleet should do with its capacity, as answered by the
/// [`HysteresisAutoscaler`] at one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Capacity is adequate; change nothing.
    Hold,
    /// Provision `nodes` new nodes from the policy template (they join
    /// after the policy's provisioning delay; clamped to `max_nodes`
    /// counting nodes already provisioning).
    ScaleOut {
        /// How many nodes to provision.
        nodes: usize,
    },
    /// Gracefully drain `nodes` live nodes (highest index first; clamped
    /// so at least `min_nodes` stay live).
    ScaleIn {
        /// How many nodes to drain.
        nodes: usize,
    },
}

/// Tuning of the [`HysteresisAutoscaler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Load signal (outstanding per live core, front door included)
    /// above which the fleet is under pressure.
    pub high_watermark: f64,
    /// Load signal below which the fleet has idle capacity.
    pub low_watermark: f64,
    /// Consecutive ticks the signal must stay beyond a watermark before
    /// the scaler acts — the anti-thrash streak.
    pub streak: u32,
    /// Nodes added or drained per action.
    pub step: usize,
}

impl AutoscalerConfig {
    /// A validated config.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidScalePolicy`] if either watermark
    /// is not finite and non-negative, the low watermark is not strictly
    /// below the high one (a degenerate band oscillates), `streak` is
    /// zero, or `step` is zero.
    pub fn try_new(
        high_watermark: f64,
        low_watermark: f64,
        streak: u32,
        step: usize,
    ) -> Result<Self, ClusterError> {
        let invalid =
            |field: &'static str, value: f64| ClusterError::InvalidScalePolicy { field, value };
        if !high_watermark.is_finite() || high_watermark < 0.0 {
            return Err(invalid("high_watermark", high_watermark));
        }
        if !low_watermark.is_finite() || low_watermark < 0.0 {
            return Err(invalid("low_watermark", low_watermark));
        }
        if low_watermark >= high_watermark {
            return Err(invalid("low_watermark", low_watermark));
        }
        if streak == 0 {
            return Err(invalid("streak", 0.0));
        }
        if step == 0 {
            return Err(invalid("step", 0.0));
        }
        Ok(Self {
            high_watermark,
            low_watermark,
            streak,
            step,
        })
    }
}

impl Default for AutoscalerConfig {
    /// Scale out when more than two queries per core are outstanding for
    /// two consecutive ticks; scale in below half a query per core, one
    /// node at a time.
    fn default() -> Self {
        Self {
            high_watermark: 2.0,
            low_watermark: 0.5,
            streak: 2,
            step: 1,
        }
    }
}

/// The watermark-banded autoscaler (see the module docs), consulted
/// with the fleet's load signal at every autoscaler tick. Its decisions
/// are deterministic functions of the signal and its own streaks, so
/// the fleet's bit-determinism contract extends through it.
#[derive(Debug)]
pub struct HysteresisAutoscaler {
    cfg: AutoscalerConfig,
    high_streak: u32,
    low_streak: u32,
}

impl HysteresisAutoscaler {
    /// Builds the scaler from a validated config.
    #[must_use]
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Self {
            cfg,
            high_streak: 0,
            low_streak: 0,
        }
    }

    /// The load signal: the `front_door` backlog plus the outstanding
    /// queries of live and stalled nodes, per core of those nodes (at
    /// least one). `nodes` yields each roster slot's
    /// `(state, outstanding queries, cores)`. Draining and dead nodes
    /// contribute neither load nor capacity — their remaining work is
    /// not this scaler's problem to provision for.
    #[must_use]
    pub fn signal(
        front_door: usize,
        nodes: impl IntoIterator<Item = (NodeState, usize, u32)>,
    ) -> f64 {
        let mut outstanding = front_door;
        let mut cores = 0u64;
        for (state, node_outstanding, node_cores) in nodes {
            if matches!(state, NodeState::Live | NodeState::Stalled) {
                outstanding += node_outstanding;
                cores += u64::from(node_cores);
            }
        }
        outstanding as f64 / (cores.max(1)) as f64
    }

    /// One control decision over the load signal (see
    /// [`HysteresisAutoscaler::signal`]).
    pub fn decide(&mut self, signal: f64) -> ScaleDecision {
        if signal > self.cfg.high_watermark {
            self.low_streak = 0;
            self.high_streak += 1;
            if self.high_streak >= self.cfg.streak {
                self.high_streak = 0;
                return ScaleDecision::ScaleOut {
                    nodes: self.cfg.step,
                };
            }
        } else if signal < self.cfg.low_watermark {
            self.high_streak = 0;
            self.low_streak += 1;
            if self.low_streak >= self.cfg.streak {
                self.low_streak = 0;
                return ScaleDecision::ScaleIn {
                    nodes: self.cfg.step,
                };
            }
        } else {
            // Inside the band: both streaks reset, the fleet holds.
            self.high_streak = 0;
            self.low_streak = 0;
        }
        ScaleDecision::Hold
    }
}

/// The complete scaling policy the fleet executes: how the autoscaler
/// decides, what a new node looks like, how long provisioning takes,
/// and the fleet-size guard rails.
#[derive(Debug, Clone)]
pub struct ScalePolicy {
    /// The tuning of the [`HysteresisAutoscaler`] that decides.
    pub autoscaler: AutoscalerConfig,
    /// Template for provisioned nodes. Clones are named
    /// `{template.name}-{counter}` and serve the fleet catalog's
    /// compiled artifacts.
    pub template: NodeSpec,
    /// Scale-ins never drop the live-node count below this.
    pub min_nodes: usize,
    /// Scale-outs never push live + provisioning nodes above this.
    pub max_nodes: usize,
    /// Virtual seconds between autoscaler consultations (first tick one
    /// interval after the policy is attached).
    pub interval_s: f64,
    /// Virtual seconds between a scale-out decision and the new node
    /// actually joining the routable set — capacity is never instant.
    pub provision_delay_s: f64,
}

impl ScalePolicy {
    /// A validated policy.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidScalePolicy`] if `min_nodes` is
    /// zero (the fleet must keep a front door), `max_nodes` is below
    /// `min_nodes`, `interval_s` is not strictly positive and finite (a
    /// zero interval would tick forever at one instant), or
    /// `provision_delay_s` is negative or non-finite (zero is allowed:
    /// pre-warmed capacity).
    pub fn try_new(
        autoscaler: AutoscalerConfig,
        template: NodeSpec,
        min_nodes: usize,
        max_nodes: usize,
        interval_s: f64,
        provision_delay_s: f64,
    ) -> Result<Self, ClusterError> {
        if min_nodes == 0 {
            return Err(ClusterError::InvalidScalePolicy {
                field: "min_nodes",
                value: 0.0,
            });
        }
        if max_nodes < min_nodes {
            return Err(ClusterError::InvalidScalePolicy {
                field: "max_nodes",
                value: max_nodes as f64,
            });
        }
        if !interval_s.is_finite() || interval_s <= 0.0 {
            return Err(ClusterError::InvalidScalePolicy {
                field: "interval_s",
                value: interval_s,
            });
        }
        if !provision_delay_s.is_finite() || provision_delay_s < 0.0 {
            return Err(ClusterError::InvalidScalePolicy {
                field: "provision_delay_s",
                value: provision_delay_s,
            });
        }
        Ok(Self {
            autoscaler,
            template,
            min_nodes,
            max_nodes,
            interval_s,
            provision_delay_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_sched::Policy;
    use veltair_sim::MachineConfig;

    fn template() -> NodeSpec {
        NodeSpec::new("auto", MachineConfig::default(), Policy::VeltairFull)
    }

    /// The signal of a one-node fleet.
    fn signal_of(outstanding: usize, cores: u32, front_door: usize) -> f64 {
        HysteresisAutoscaler::signal(front_door, [(NodeState::Live, outstanding, cores)])
    }

    #[test]
    fn config_validation_rejects_degenerate_bands() {
        assert!(AutoscalerConfig::try_new(2.0, 0.5, 2, 1).is_ok());
        for (hi, lo) in [
            (f64::NAN, 0.5),
            (2.0, f64::NAN),
            (2.0, -0.1),
            (0.5, 0.5),
            (0.4, 0.5),
        ] {
            assert!(
                matches!(
                    AutoscalerConfig::try_new(hi, lo, 2, 1),
                    Err(ClusterError::InvalidScalePolicy { .. })
                ),
                "band ({hi}, {lo}) was not rejected"
            );
        }
        assert!(matches!(
            AutoscalerConfig::try_new(2.0, 0.5, 0, 1),
            Err(ClusterError::InvalidScalePolicy {
                field: "streak",
                ..
            })
        ));
        assert!(matches!(
            AutoscalerConfig::try_new(2.0, 0.5, 2, 0),
            Err(ClusterError::InvalidScalePolicy { field: "step", .. })
        ));
    }

    #[test]
    fn policy_validation_guards_the_rails() {
        let cfg = AutoscalerConfig::default();
        assert!(ScalePolicy::try_new(cfg, template(), 1, 8, 5.0, 10.0).is_ok());
        assert!(matches!(
            ScalePolicy::try_new(cfg, template(), 0, 8, 5.0, 10.0),
            Err(ClusterError::InvalidScalePolicy {
                field: "min_nodes",
                ..
            })
        ));
        assert!(matches!(
            ScalePolicy::try_new(cfg, template(), 4, 2, 5.0, 10.0),
            Err(ClusterError::InvalidScalePolicy {
                field: "max_nodes",
                ..
            })
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ScalePolicy::try_new(cfg, template(), 1, 8, bad, 10.0),
                Err(ClusterError::InvalidScalePolicy {
                    field: "interval_s",
                    ..
                })
            ));
        }
        assert!(matches!(
            ScalePolicy::try_new(cfg, template(), 1, 8, 5.0, -1.0),
            Err(ClusterError::InvalidScalePolicy {
                field: "provision_delay_s",
                ..
            })
        ));
        // Zero provisioning delay (pre-warmed capacity) is allowed.
        assert!(ScalePolicy::try_new(cfg, template(), 1, 8, 5.0, 0.0).is_ok());
    }

    #[test]
    fn hysteresis_requires_the_streak_and_resets_in_band() {
        let cfg = AutoscalerConfig::try_new(2.0, 0.5, 2, 3).expect("valid");
        let mut scaler = HysteresisAutoscaler::new(cfg);
        let hot = signal_of(40, 8, 0); // signal 5.0
        let cold = signal_of(1, 8, 0); // signal 0.125
        let calm = signal_of(8, 8, 0); // signal 1.0, inside the band
        assert_eq!(scaler.decide(hot), ScaleDecision::Hold, "streak 1 of 2");
        assert_eq!(
            scaler.decide(hot),
            ScaleDecision::ScaleOut { nodes: 3 },
            "streak reached"
        );
        assert_eq!(scaler.decide(hot), ScaleDecision::Hold, "streak restarts");
        assert_eq!(scaler.decide(calm), ScaleDecision::Hold, "band resets");
        assert_eq!(scaler.decide(hot), ScaleDecision::Hold);
        assert_eq!(scaler.decide(cold), ScaleDecision::Hold, "flip resets");
        assert_eq!(scaler.decide(cold), ScaleDecision::ScaleIn { nodes: 3 });
    }

    #[test]
    fn signal_counts_the_front_door_and_only_live_capacity() {
        assert!((signal_of(8, 8, 8) - 2.0).abs() < 1e-12);
        // Dead capacity and its outstanding work leave the signal; only
        // the front door remains, against the 1-core floor.
        let dead = HysteresisAutoscaler::signal(8, [(NodeState::Dead, 8, 8)]);
        assert!((dead - 8.0).abs() < 1e-12);
    }
}
