//! Runtime version selection: the policy that picks which compiled code
//! version every scheduling unit runs under the *live* interference
//! conditions.
//!
//! Multi-version compilation (Algorithm 1) stores the artifacts; the
//! *selection policy* over them is where adaptive compilation wins or
//! loses (GACER, arXiv:2304.11745). The serving runtime has one:
//!
//! * [`HysteresisLadder`] — the calibrated Veltair-AC selector, built
//!   from its [`HysteresisConfig`]: EWMA-smoothed *projected* pressure
//!   (the runtime's predictive monitor closes the planning-instant lag)
//!   plus switch hysteresis against version flapping. The runtime owns
//!   one ladder per driver and consults it at every block-planning
//!   decision of an adaptive-compilation policy;
//! * [`solo_versions`] — the static-compilation baseline every
//!   non-adaptive policy runs;
//! * [`EwmaSmoother`] — the shared smoothing primitive (also used by the
//!   fleet's interference-aware router).

use crate::compiled::CompiledModel;
use crate::options::CompilerError;

/// Chooses the code version for every unit of the model at an assumed
/// interference level (`adaptive = false` pins the solo-optimal version,
/// i.e. static compilation).
///
/// Adaptive selection is judged at the model's flat core requirement for
/// the level — the allocation a block will actually receive — because the
/// winning version differs between a 2-core grant and a 16-core grant.
#[must_use]
pub fn select_at_level(model: &CompiledModel, level: f64, adaptive: bool) -> Vec<usize> {
    if !adaptive {
        return solo_versions(model);
    }
    let expected_cores = model.model_core_requirement(level).max(1);
    model
        .layers
        .iter()
        .map(|layer| layer.version_for(level, expected_cores))
        .collect()
}

/// The static-compilation baseline: every layer at its solo-optimal
/// version, judged at the compiler's reference core count. This is what
/// every non-adaptive policy (Planaria, PREMA, Parties, ...) runs.
#[must_use]
pub fn solo_versions(model: &CompiledModel) -> Vec<usize> {
    model
        .layers
        .iter()
        .map(|layer| layer.version_for_level(0.0))
        .collect()
}

/// Parameters of the [`HysteresisLadder`], checked by
/// [`HysteresisConfig::try_new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HysteresisConfig {
    /// EWMA weight of the newest pressure observation, in `(0, 1]`.
    /// `1.0` disables smoothing (the ladder sees the raw signal).
    pub alpha: f64,
    /// Minimum movement of the smoothed level (absolute, in pressure
    /// units) before a model's committed version plan is re-selected.
    /// `0.0` disables hysteresis.
    pub hysteresis: f64,
}

impl HysteresisConfig {
    /// Validated construction, matching the `WorkloadSpec::try_*`
    /// convention.
    ///
    /// # Errors
    ///
    /// Returns [`CompilerError::InvalidEwmaAlpha`] unless `alpha` is
    /// finite and in `(0, 1]`, and [`CompilerError::InvalidHysteresis`]
    /// unless `hysteresis` is finite and non-negative.
    pub fn try_new(alpha: f64, hysteresis: f64) -> Result<Self, CompilerError> {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) || alpha == 0.0 {
            return Err(CompilerError::InvalidEwmaAlpha { alpha });
        }
        if !hysteresis.is_finite() || hysteresis < 0.0 {
            return Err(CompilerError::InvalidHysteresis { hysteresis });
        }
        Ok(Self { alpha, hysteresis })
    }
}

impl Default for HysteresisConfig {
    /// The AC tuning pass's operating point on the four-model overload
    /// mix (measured sweep in `tests/policy_ordering.rs`): moderate
    /// smoothing — the predictive monitor's projection supplies the
    /// anticipation — and a one-bin switching margin. Holds Veltair-AC's
    /// seed-averaged satisfaction at ≥ 0.807 — between adaptive
    /// scheduling (≈ 0.821) and the layer-wise static baseline (≈ 0.626),
    /// where the paper's Fig. 12 puts it.
    fn default() -> Self {
        Self {
            alpha: 0.25,
            hysteresis: 0.1,
        }
    }
}

/// Deterministic exponentially weighted moving average over a scalar
/// signal: `s ← α·x + (1-α)·s`, seeded by the first observation.
///
/// This is the shared smoothing primitive of the adaptive-compilation
/// stack: the [`HysteresisLadder`] smooths the monitored pressure before
/// re-ranking versions, and the fleet's interference-aware router smooths
/// each node's pressure estimate before scoring it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaSmoother {
    alpha: f64,
    state: Option<f64>,
}

impl EwmaSmoother {
    /// A smoother with the given newest-observation weight (clamped to
    /// `(0, 1]`; non-finite weights fall back to `1.0`, i.e. no
    /// smoothing).
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(f64::MIN_POSITIVE, 1.0)
        } else {
            1.0
        };
        Self { alpha, state: None }
    }

    /// Feeds one observation and returns the updated smoothed value.
    pub fn observe(&mut self, x: f64) -> f64 {
        let next = match self.state {
            Some(s) => self.alpha * x + (1.0 - self.alpha) * s,
            None => x,
        };
        self.state = Some(next);
        next
    }

    /// The current smoothed value, if any observation has been fed.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// The newest-observation weight.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

/// Per-model plan the [`HysteresisLadder`] committed at its last
/// re-selection.
#[derive(Debug, Clone)]
struct CommittedPlan {
    /// Smoothed level at which the plan was selected.
    level: f64,
    /// The chosen version per unit.
    versions: Vec<usize>,
}

/// EWMA-smoothed projected pressure with switch hysteresis — the
/// calibrated Veltair-AC selector.
///
/// Three pathologies of re-ranking versions under the raw monitored
/// pressure at every decision motivate this selector; all three were
/// measured on the four-model overload mix of `tests/policy_ordering.rs`,
/// where raw re-ranking left AC's satisfaction at 0.681, near the
/// layer-wise static baseline (0.626) instead of near adaptive
/// scheduling (0.821):
///
/// 1. **Noise.** The monitored level whipsaws as blocks start and
///    finish, and every spike re-ranks versions against conditions that
///    are gone by the time the block runs. The ladder smooths the level
///    through an [`EwmaSmoother`].
/// 2. **Lag.** The monitor's raw snapshot reports the pressure of
///    co-runners currently in flight — it cannot see the queued work
///    that will be running alongside the planned block moments later.
///    Under sustained overload the planning-instant level averages
///    ≈ 0.32 while the versions that actually serve best are the ones
///    compiled for levels 0.55–0.7. The ladder consults the *projected*
///    level: the runtime's predictive monitor lifts the snapshot toward
///    saturation by the backlog that free cores plus the imminent drain
///    cannot absorb.
/// 3. **Flapping.** Near a version crossover, selection alternates
///    between two versions on successive decisions, so neither
///    version's locality assumptions ever hold. The ladder keeps a
///    model's committed plan until the smoothed level has moved at least
///    the `hysteresis` margin from the level it was selected at.
///
/// Selection reads the compiled per-level best-version tables at the
/// compiler's reference core class (like [`solo_versions`], but at a
/// live level) rather than re-ranking under the instantaneous pressure
/// pair at the expected allocation: the expected-allocation estimate
/// inherits the same lag as the level, and judging at the reference
/// class measured ≈ 10 satisfaction points better on the overload mix.
/// It is also cheaper — an O(layers) table walk instead of per-version
/// machine-model evaluations.
#[derive(Debug)]
pub struct HysteresisLadder {
    cfg: HysteresisConfig,
    smoother: EwmaSmoother,
    committed: Vec<Option<CommittedPlan>>,
}

impl HysteresisLadder {
    /// A ladder with the given validated parameters.
    #[must_use]
    pub fn new(cfg: HysteresisConfig) -> Self {
        Self {
            cfg,
            smoother: EwmaSmoother::new(cfg.alpha),
            committed: Vec::new(),
        }
    }

    /// Validated construction from raw parameters.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HysteresisConfig::try_new`].
    pub fn try_new(alpha: f64, hysteresis: f64) -> Result<Self, CompilerError> {
        Ok(Self::new(HysteresisConfig::try_new(alpha, hysteresis)?))
    }

    /// The ladder's parameters.
    #[must_use]
    pub fn config(&self) -> HysteresisConfig {
        self.cfg
    }

    /// Chooses the code version for every unit of `model`, the model at
    /// `model_index` of the registry the runtime serves, planning on the
    /// runtime's projected pressure level. Returns the model's committed
    /// plan, which has exactly `model.layers.len()` entries; a held plan
    /// is returned as it stands, and a re-selection overwrites it in
    /// place, so no call allocates once the plan exists.
    ///
    /// The ladder is stateful: every call advances its smoother, and
    /// `model_index` keys the committed plans, so it must stay stable
    /// for the ladder's lifetime. The runtime calls this at every
    /// block-planning decision of an adaptive-compilation policy, in
    /// deterministic order, so the choices are still a pure function of
    /// the decision sequence.
    pub fn select(
        &mut self,
        model: &CompiledModel,
        model_index: usize,
        projected_level: f64,
    ) -> &[usize] {
        let smoothed = self.smoother.observe(projected_level);
        let level = smoothed.clamp(0.0, 1.0);

        if self.committed.len() <= model_index {
            self.committed.resize_with(model_index + 1, || None);
        }
        let hysteresis = self.cfg.hysteresis;
        let plan = self.committed[model_index].get_or_insert_with(|| CommittedPlan {
            level,
            versions: Vec::new(),
        });
        let held =
            (level - plan.level).abs() < hysteresis && plan.versions.len() == model.layers.len();
        if !held {
            plan.level = level;
            plan.versions.clear();
            plan.versions.extend(
                model
                    .layers
                    .iter()
                    .map(|layer| layer.version_for_level(level)),
            );
        }
        &plan.versions
    }
}

impl Default for HysteresisLadder {
    fn default() -> Self {
        Self::new(HysteresisConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::compile_model;
    use crate::options::CompilerOptions;
    use veltair_sim::MachineConfig;

    fn compiled() -> CompiledModel {
        let machine = MachineConfig::threadripper_3990x();
        let spec = veltair_models::mobilenet_v2();
        compile_model(&spec, &machine, &CompilerOptions::fast())
    }

    #[test]
    fn static_level_zero_is_the_solo_baseline() {
        let m = compiled();
        // Unsmoothed and without hysteresis, the ladder at zero pressure
        // runs exactly the static-compilation baseline.
        let mut sel = HysteresisLadder::try_new(1.0, 0.0).expect("valid params");
        assert_eq!(sel.select(&m, 0, 0.0).to_vec(), solo_versions(&m));
        assert_eq!(solo_versions(&m), select_at_level(&m, 0.3, false));
    }

    #[test]
    fn hysteresis_holds_the_plan_through_noise() {
        let m = compiled();
        // No smoothing: isolate the hysteresis rule.
        let mut sel = HysteresisLadder::try_new(1.0, 0.2).expect("valid params");
        let base = sel.select(&m, 0, 0.5).to_vec();
        // Within the margin: the committed plan survives even though the
        // table may answer differently at 0.6.
        let held = sel.select(&m, 0, 0.6).to_vec();
        assert_eq!(base, held);
        // Beyond the margin: the plan is re-selected at the new level.
        let moved = sel.select(&m, 0, 0.9).to_vec();
        let expected: Vec<usize> = m.layers.iter().map(|l| l.version_for_level(0.9)).collect();
        assert_eq!(moved, expected);
    }

    #[test]
    fn ewma_smoother_converges_and_seeds_on_first_sample() {
        let mut s = EwmaSmoother::new(0.5);
        assert_eq!(s.value(), None);
        assert!((s.observe(1.0) - 1.0).abs() < 1e-12);
        assert!((s.observe(0.0) - 0.5).abs() < 1e-12);
        assert!((s.observe(0.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_config_rejects_bad_parameters() {
        assert!(matches!(
            HysteresisConfig::try_new(f64::NAN, 0.1),
            Err(CompilerError::InvalidEwmaAlpha { .. })
        ));
        assert!(matches!(
            HysteresisConfig::try_new(0.0, 0.1),
            Err(CompilerError::InvalidEwmaAlpha { .. })
        ));
        assert!(matches!(
            HysteresisConfig::try_new(1.5, 0.1),
            Err(CompilerError::InvalidEwmaAlpha { .. })
        ));
        assert!(matches!(
            HysteresisConfig::try_new(0.5, -0.01),
            Err(CompilerError::InvalidHysteresis { .. })
        ));
        assert!(matches!(
            HysteresisConfig::try_new(0.5, f64::INFINITY),
            Err(CompilerError::InvalidHysteresis { .. })
        ));
        assert!(HysteresisConfig::try_new(1.0, 0.0).is_ok());
    }

    #[test]
    fn hysteresis_ladder_consults_the_projected_level() {
        let m = compiled();
        // No smoothing, no hysteresis: selection is a pure table walk at
        // the projected level it is given.
        let mut sel = HysteresisLadder::try_new(1.0, 0.0).expect("valid params");
        let got = sel.select(&m, 0, 0.7).to_vec();
        let expected: Vec<usize> = m.layers.iter().map(|l| l.version_for_level(0.7)).collect();
        assert_eq!(got, expected);
    }
}
