//! The interference monitor: how the runtime estimates the pressure a
//! planning tenant will face from the units already in flight, and the
//! *predictive projection* that turns that lagging snapshot into the
//! near-future pressure the planned block will actually experience.
//!
//! The paper deploys two monitors, and `observe` reads whichever one the
//! configuration holds. The *oracle* (no
//! [`SimConfig::proxy`](crate::SimConfig::proxy)) reads the true
//! aggregate cache/bandwidth demand of every co-runner — available in
//! simulation, not on real hardware. The *counter proxy* is the
//! deployable path: a PCA-selected linear model over hardware
//! performance counters predicts a scalar interference level (counters
//! cannot attribute pressure to a specific resource, so the pair is the
//! symmetric expansion of the scalar). Block planning is oblivious to
//! which one is installed.
//!
//! Either monitor reports the pressure of co-runners *currently* in
//! flight. That signal lags reality: it cannot see the queued work that
//! will be running alongside the planned block moments later, so under
//! sustained overload it reads far below what the block meets (measured
//! ≈ 0.32 on the four-model overload mix while versions compiled for
//! 0.55–0.7 serve best). [`project`] closes the lag deterministically —
//! see [`ProjectionConfig`] — and [`PressureView`] carries both readings
//! to the selector seam, while block planning's core math keeps
//! consuming the raw snapshot.

use veltair_proxy::{CounterWindow, InterferenceProxy};
use veltair_sim::{Interference, MachineConfig, PerfCounters};

use super::state::Corunners;

/// Observes `corunners` on `machine` through the configured monitor:
/// the trained counter `proxy` when one is installed, the oracle
/// otherwise. Returns the pressure pair plus the scalar level used to
/// index the compiled lookup tables.
///
/// `corunners` yields the current rating of every active, not
/// soon-to-finish unit (and, for the mix ceiling of
/// [`SimState::projected`](super::SimState::projected), the phantoms
/// after them). Both monitors sum them in the order they come.
pub(crate) fn observe(
    proxy: Option<&InterferenceProxy>,
    corunners: Corunners<'_>,
    machine: &MachineConfig,
) -> (Interference, f64) {
    let mut corunners = corunners.peekable();
    if corunners.peek().is_none() {
        return (Interference::NONE, 0.0);
    }
    let Some(proxy) = proxy else {
        // The oracle: the true aggregate co-runner demand.
        let pair = Interference::from_corunners(corunners.map(|e| &e.demand), machine);
        return (pair, pair.scalar());
    };
    // The counter proxy: counters rate-weighted by each unit's own
    // duration, predicting only the scalar level.
    let mut counters = PerfCounters::default();
    for exec in corunners {
        counters.accumulate_rates(&exec.counters, exec.latency_s);
    }
    let level = proxy
        .predict(&CounterWindow::from_counters(&counters, 1.0))
        .clamp(0.0, 1.0);
    (Interference::level(level), level)
}

// --- Predictive pressure projection ----------------------------------------

/// Validated parameters of the near-future pressure [`project`]ion.
///
/// The projection corrects the one systematic bias in the instantaneous
/// snapshot: under sustained load it *lags* the contention a freshly
/// planned unit actually experiences. Two mechanisms feed the lag. The
/// greedy dispatcher grants queued work cores (down to one each) the
/// moment any free up, so moments after a planning decision the queued
/// backlog is co-running with the planned block — co-runners the
/// snapshot cannot see. And while the machine stays occupied, new
/// arrivals keep replacing whatever drains, so contention over the
/// planned unit's *lifetime* sits above the one-instant estimate. The
/// projection folds both in as a saturation blend: the level moves from
/// the snapshot toward the *mix ceiling* — the pressure the monitor
/// reads with the machine packed to capacity with the tenant mix
/// currently in the system, so light mixes never project contention
/// they cannot produce — by `saturation_weight` times the
/// sustained-demand fraction (cores held by the monitored co-runners
/// plus the queued backlog's core demand, normalized by machine size
/// and capped at 1). The remaining piece of the near future — in-flight
/// work about to *leave* — is already handled upstream: the monitored
/// snapshot excludes soon-to-finish units (the paper's rule, §4.3), and
/// their cores are likewise excluded from the occupancy term here, so
/// an emptying machine decays to the instantaneous reading.
///
/// The weight is a calibrated constant, not a live-fitted parameter —
/// `examples/projection_sweep.rs` is the harness that swept it on the
/// seed-averaged overload mix (see [`ProjectionConfig::default`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionConfig {
    /// How far the projected level moves from the instantaneous level
    /// toward saturation per unit of queued backlog demand, in `[0, 1]`.
    /// `0.0` disables projection (the projected reading equals the
    /// instantaneous one).
    pub saturation_weight: f64,
}

impl ProjectionConfig {
    /// Validated construction, matching the `try_*` convention.
    ///
    /// # Errors
    ///
    /// Returns [`ProjectionError::InvalidWeight`] unless
    /// `saturation_weight` is finite and in `[0, 1]`.
    pub fn try_new(saturation_weight: f64) -> Result<Self, ProjectionError> {
        if !saturation_weight.is_finite() || !(0.0..=1.0).contains(&saturation_weight) {
            return Err(ProjectionError::InvalidWeight {
                weight: saturation_weight,
            });
        }
        Ok(Self { saturation_weight })
    }
}

impl Default for ProjectionConfig {
    /// The calibration pass's operating point on the four-model overload
    /// mix (measured sweep in `examples/projection_sweep.rs`, pinned in
    /// `tests/policy_ordering.rs`): the seed-averaged AC satisfaction
    /// reads 0.810-0.827 across weights 0.66-0.76 — all above the 0.807
    /// the retired 2.5x anticipatory gain needed — because a
    /// sustained-overload plan instant (instantaneous ~0.32, heavy mix
    /// ceiling) now projects into the band the winning versions are
    /// ranked for. 0.71 measures 0.814,
    /// balanced midway between that floor and Veltair-AS's 0.821 (the
    /// paper's Fig. 12 keeps AC *under* AS, an ordering
    /// `tests/policy_ordering.rs` pins; weights >= 0.8 would breach
    /// it). The light-mix end is insensitive to the weight by design:
    /// the mix ceiling, not the weight, is what keeps an 8-core
    /// mobilenet box at its measured ~0.35 contention.
    fn default() -> Self {
        Self {
            saturation_weight: 0.71,
        }
    }
}

/// Why a projection configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProjectionError {
    /// The saturation weight was not a finite value in `[0, 1]`.
    InvalidWeight {
        /// The rejected weight.
        weight: f64,
    },
}

impl std::fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProjectionError::InvalidWeight { weight } => {
                write!(
                    f,
                    "projection saturation weight must be in [0, 1], got {weight}"
                )
            }
        }
    }
}

impl std::error::Error for ProjectionError {}

/// Everything the projection reads off the runtime at one planning
/// instant, besides the monitored snapshot itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionInputs {
    /// Flat core demand of the queued work (continuation and arrival
    /// queues), judged at the instantaneous level. These are
    /// the co-runners the planned block will meet that the snapshot
    /// cannot see: under greedy dispatch they join the machine the
    /// moment cores free up, whether or not cores are free *now*.
    pub backlog_cores: u64,
    /// Cores currently granted to the monitored co-runners — active
    /// units past the soon-to-finish horizon, the same set the snapshot
    /// observes. This is the occupancy term: while these cores stay
    /// claimed, drained capacity is refilled rather than freed, and the
    /// one-instant snapshot understates lifetime contention.
    pub occupied_cores: u32,
    /// The machine's total cores, the normalizer for sustained demand.
    pub total_cores: u32,
}

/// One planning decision's pressure reading: the raw monitored co-runner
/// snapshot plus the projected near-future pressure.
///
/// Version selection reads the projected level: block planning passes it
/// through [`SimState::plan_versions`](super::SimState::plan_versions) to
/// the runtime's
/// [`HysteresisLadder`](veltair_compiler::HysteresisLadder), while the
/// scheduling-side core math (block formation, dynamic thresholds)
/// consumes the raw snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureView {
    /// The raw monitored co-runner pressure pair.
    pub pair: Interference,
    /// The raw scalar level (mean of the pair).
    pub level: f64,
    /// The projected scalar level.
    pub projected_level: f64,
}

impl PressureView {
    /// Zero pressure, zero projection — what interference-oblivious
    /// policies plan under.
    pub const ZERO: PressureView = PressureView {
        pair: Interference::NONE,
        level: 0.0,
        projected_level: 0.0,
    };

    /// A view whose projection equals the instantaneous reading (no
    /// backlog, or projection disabled).
    #[must_use]
    pub fn instantaneous(pair: Interference, level: f64) -> Self {
        Self {
            pair,
            level,
            projected_level: level,
        }
    }
}

/// Projects the near-future pressure level from the instantaneous
/// monitored snapshot, the queued backlog's core demand, and the level of
/// the *mix ceiling* — what the same monitor reads with the machine
/// packed to capacity with the tenant mix currently in the system
/// (running plus queued; the runtime computes it in
/// `SimState::projected` by observing phantom executions through the
/// installed monitor).
///
/// The ceiling is what makes the projection mix-aware. Sustained demand
/// says contention will *rise*; the ceiling says toward *what*. A
/// 64-core machine churning resnet-class tenants packs to near-total
/// cache/bandwidth pressure, so a deep backlog projects close to
/// saturation — while an 8-core box serving a queue of narrow mobilenet
/// streams packs to ~0.35, and no amount of queueing should make its
/// selector compile for contention those tenants can never produce
/// (measured: targeting saturation there costs ~0.25 of diurnal-peak
/// QoS satisfaction).
///
/// Only the level is lifted: version selection reads the projected
/// level alone, and the raw pair passes through for the scheduling-side
/// core math.
///
/// Deterministic and allocation-free: a pure function of its arguments,
/// so projected planning stays bit-identical across replays. Guarantees,
/// pinned by `tests/projection_properties.rs`:
///
/// * the projected level never falls below the instantaneous level, and
///   never exceeds the larger of the instantaneous level and the
///   ceiling level;
/// * with no demand (an idle machine) the projection *is* the
///   instantaneous reading — and likewise when the ceiling says packing
///   the machine adds no pressure the snapshot doesn't already show.
#[must_use]
pub fn project(
    pair: Interference,
    level: f64,
    ceiling_level: f64,
    inputs: ProjectionInputs,
    cfg: &ProjectionConfig,
) -> PressureView {
    let demand = inputs.backlog_cores + u64::from(inputs.occupied_cores);
    if demand == 0 || cfg.saturation_weight <= 0.0 {
        return PressureView::instantaneous(pair, level);
    }
    let total = f64::from(inputs.total_cores.max(1));
    let sustain = (demand as f64 / total).min(1.0);
    // Concave response: planning instants systematically catch the
    // machine at dispatch dips (a unit just freed cores), so the raw
    // demand fraction under-reads the refill rate an overloaded machine
    // sustains between them. The square root restores the sustained
    // signal; over-projection is bounded separately by the mix ceiling.
    let boost = cfg.saturation_weight * sustain.sqrt();
    let target = ceiling_level.max(level);
    PressureView {
        pair,
        level,
        projected_level: (level + (target - level) * boost).clamp(0.0, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(backlog: u64, occupied: u32) -> ProjectionInputs {
        ProjectionInputs {
            backlog_cores: backlog,
            occupied_cores: occupied,
            total_cores: 64,
        }
    }

    #[test]
    fn no_backlog_projects_the_instantaneous_reading() {
        let v = project(
            Interference::level(0.4),
            0.4,
            1.0,
            inputs(0, 0),
            &ProjectionConfig::default(),
        );
        assert_eq!(v.projected_level, v.level);
    }

    #[test]
    fn light_mix_ceiling_caps_the_lift() {
        // A deep queue of tenants whose packed machine only reads 0.35:
        // the backlog will serialize behind light co-runners, so no
        // amount of queueing may project contention past the ceiling.
        let v = project(
            Interference::level(0.3),
            0.3,
            0.35,
            inputs(512, 64),
            &ProjectionConfig::default(),
        );
        assert!(v.projected_level > v.level);
        assert!(v.projected_level <= 0.35);
        // Ceiling at or below the snapshot: nothing to project.
        let flat = project(
            Interference::level(0.3),
            0.3,
            0.25,
            inputs(512, 64),
            &ProjectionConfig::default(),
        );
        assert_eq!(flat.projected_level, flat.level);
    }

    #[test]
    fn small_backlog_boosts_proportionally() {
        // 16 queued cores on a 64-core machine: a quarter of the machine's
        // worth of imminent co-runners moves the level a quarter-weight of
        // the way toward the mix ceiling -- strictly up, but nowhere near
        // the full-backlog lift.
        let small = project(
            Interference::level(0.3),
            0.3,
            1.0,
            inputs(16, 0),
            &ProjectionConfig::default(),
        );
        let full = project(
            Interference::level(0.3),
            0.3,
            1.0,
            inputs(64, 0),
            &ProjectionConfig::default(),
        );
        assert!(small.projected_level > 0.3);
        assert!(small.projected_level < full.projected_level);
        let w = ProjectionConfig::default().saturation_weight;
        let expected = 0.3 + (1.0 - 0.3) * w * (16.0f64 / 64.0).sqrt();
        assert!((small.projected_level - expected).abs() < 1e-12);
    }

    #[test]
    fn sustained_backlog_boosts_toward_the_ceiling() {
        // The ROADMAP scenario: monitored 0.32 on a machine holding
        // long-lived heavy co-runners on most of its cores with a modest
        // queue; default weight lands the projection in the 0.55-0.75
        // band the winning versions are ranked for.
        let v = project(
            Interference::level(0.32),
            0.32,
            1.0,
            inputs(8, 32),
            &ProjectionConfig::default(),
        );
        assert!(v.projected_level > v.level);
        assert!(
            (0.55..=0.75).contains(&v.projected_level),
            "projected {} outside the winning band",
            v.projected_level
        );
        // Demand at or beyond machine size under a saturating mix at
        // full weight: the whole lift to the ceiling.
        let sat = project(
            Interference::level(0.32),
            0.32,
            1.0,
            inputs(500, 2),
            &ProjectionConfig {
                saturation_weight: 1.0,
            },
        );
        assert!(sat.projected_level > 0.9);
    }

    #[test]
    fn zero_weight_disables_projection() {
        let v = project(
            Interference::level(0.32),
            0.32,
            1.0,
            inputs(500, 2),
            &ProjectionConfig::try_new(0.0).expect("valid weight"),
        );
        assert_eq!(v.projected_level, v.level);
    }

    #[test]
    fn projection_config_rejects_bad_weights() {
        assert!(matches!(
            ProjectionConfig::try_new(f64::NAN),
            Err(ProjectionError::InvalidWeight { .. })
        ));
        assert!(matches!(
            ProjectionConfig::try_new(-0.1),
            Err(ProjectionError::InvalidWeight { .. })
        ));
        assert!(matches!(
            ProjectionConfig::try_new(1.5),
            Err(ProjectionError::InvalidWeight { .. })
        ));
        assert!(ProjectionConfig::try_new(0.0).is_ok());
        assert!(ProjectionConfig::try_new(1.0).is_ok());
    }

    #[test]
    fn projected_level_saturates_at_one() {
        let v = project(
            Interference::level(1.0),
            1.0,
            1.0,
            inputs(10_000, 64),
            &ProjectionConfig {
                saturation_weight: 1.0,
            },
        );
        assert!(v.projected_level <= 1.0);
        assert_eq!(v.projected_level, 1.0);
    }
}
