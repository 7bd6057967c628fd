//! Admission control: shed or defer queries whose projected SLO
//! violation probability crosses a threshold.
//!
//! A saturated node serves every admitted query *eventually*, but under
//! sustained overload that means unbounded queueing and a 100 % SLO miss
//! rate — worse than honestly refusing the marginal query. The controller
//! here sits between the router and the node: it projects, from the
//! routed node's live load, the probability that the query would miss its
//! deadline, and either admits it, defers it (re-offered after a short
//! hold, for transient bursts), or sheds it outright.

use veltair_compiler::CompiledModel;

use crate::node::NodeLoad;

/// What the controller decided for one routed query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Inject the query into the routed node now.
    Admit,
    /// Hold the query and re-route it `delay_s` seconds later (a burst
    /// may drain in the meantime). A delay below a nanosecond is held
    /// for one; a NaN or infinite delay is a hold that never ends, so
    /// the fleet sheds the query instead (a `Shed`, not a deferral).
    Defer {
        /// How long to hold the query before the retry.
        delay_s: f64,
    },
    /// Refuse the query: it is never served and counts against the
    /// fleet's shed statistics.
    Shed,
}

/// An admission policy. Consulted once per routing attempt with the
/// *routed* node's load; `attempts` counts prior deferrals of the same
/// query so a policy can stop holding work it will never place. Deferral
/// hold time counts against the query's measured latency (and therefore
/// its SLO), and the fleet sheds a query outright once its deferrals
/// reach a hard cap — a controller that ignores `attempts` cannot wedge
/// [`Fleet::run_to_completion`](crate::Fleet::run_to_completion).
pub trait AdmissionController: std::fmt::Debug + Send {
    /// Display name used in snapshots and comparison tables.
    fn name(&self) -> &'static str;

    /// Decides the fate of a query routed to the node described by
    /// `load`, targeting `model`.
    fn decide(
        &mut self,
        load: &NodeLoad,
        model: &CompiledModel,
        attempts: u32,
    ) -> AdmissionDecision;

    /// Whether this controller reads [`NodeLoad::pressure`] (see
    /// [`Router::needs_pressure`](crate::Router::needs_pressure)).
    /// Defaults to `true`.
    fn needs_pressure(&self) -> bool {
        true
    }
}

/// Declarative admission selection, mirroring
/// [`RouterKind`](crate::RouterKind): keeps cluster configurations
/// `Clone` and re-buildable for bit-deterministic reruns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionKind {
    /// Admit everything (the single-node PR-2 behaviour).
    AdmitAll,
    /// SLO-aware shedding/deferral with the given configuration.
    SloAware(SloAdmissionConfig),
}

impl AdmissionKind {
    /// Builds a fresh controller of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn AdmissionController> {
        match self {
            AdmissionKind::AdmitAll => Box::new(AdmitAll),
            AdmissionKind::SloAware(cfg) => Box::new(SloAdmission::new(cfg)),
        }
    }
}

/// The no-op controller: every query is admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionController for AdmitAll {
    fn name(&self) -> &'static str {
        "admit-all"
    }

    fn decide(&mut self, _: &NodeLoad, _: &CompiledModel, _: u32) -> AdmissionDecision {
        AdmissionDecision::Admit
    }

    fn needs_pressure(&self) -> bool {
        false
    }
}

/// Configuration of the SLO-aware controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAdmissionConfig {
    /// Shed when the projected violation probability reaches this value.
    pub shed_threshold: f64,
    /// Defer (rather than admit) when the projection reaches this value;
    /// must not exceed `shed_threshold` to be meaningful.
    pub defer_threshold: f64,
    /// How long a deferred query is held before it is re-routed, seconds.
    pub defer_s: f64,
    /// Deferrals allowed per query before the decision becomes binary
    /// (admit below the shed threshold, shed at it).
    pub max_defers: u32,
}

impl Default for SloAdmissionConfig {
    fn default() -> Self {
        Self {
            shed_threshold: 0.9,
            defer_threshold: 0.6,
            defer_s: 0.05,
            max_defers: 2,
        }
    }
}

/// SLO-aware admission: projects the violation probability of a query on
/// the routed node from queue depth, node capacity, and the monitored
/// interference level.
///
/// The projection is an explicit, documented heuristic (not a calibrated
/// model): the node can serve about `cores / flat_requirement` queries of
/// this model concurrently at QoS, where the flat requirement is the
/// compiler's `Core@ModelGranularity` allocation *at the node's current
/// interference level*. Outstanding work — including the query being
/// admitted — divided by that concurrency is the number of "waves" the
/// query joins; one full wave projects it to land exactly on its
/// deadline, and excess waves convert to a violation probability through
/// an exponential squash:
///
/// ```text
/// waves = (outstanding + 1) / (cores / flat_req(level))
/// p     = 1 - exp(-(waves - 1))      for waves > 1, else 0
/// ```
///
/// Counting the incoming query matters on small nodes: a model whose
/// flat requirement exceeds the whole machine projects above one wave
/// even on an idle node, which is exactly right — that node can never
/// meet the deadline.
///
/// On *temporal* nodes (PREMA, AI-MT) `NodeLoad::pressure` reports
/// occupancy rather than a spatial co-runner estimate (see
/// `Driver::pressure`), so while such a node is serving anything this
/// projection looks the flat requirement up at the max-interference bin
/// even though an admitted query will eventually run alone. That makes
/// the heuristic deliberately *conservative* there — a busy
/// time-multiplexed node projects fewer free slots, which matches its
/// real behaviour of serializing every admitted query behind the
/// backlog. The projection is uncalibrated either way (ROADMAP open
/// item); revisit this bin choice when it gets its calibration pass.
#[derive(Debug, Clone, Copy)]
pub struct SloAdmission {
    cfg: SloAdmissionConfig,
}

impl SloAdmission {
    /// A controller with the given thresholds.
    #[must_use]
    pub fn new(cfg: SloAdmissionConfig) -> Self {
        Self { cfg }
    }

    /// The projected SLO violation probability for one more `model` query
    /// on a node under `load` (see the type-level docs for the model).
    #[must_use]
    pub fn projected_violation(load: &NodeLoad, model: &CompiledModel) -> f64 {
        let flat = model.model_core_requirement(load.pressure).max(1);
        let slots = f64::from(load.total_cores.max(1)) / f64::from(flat);
        let waves = (load.outstanding as f64 + 1.0) / slots.max(1e-9);
        1.0 - (-(waves - 1.0).max(0.0)).exp()
    }
}

impl AdmissionController for SloAdmission {
    fn name(&self) -> &'static str {
        "slo-aware"
    }

    fn decide(
        &mut self,
        load: &NodeLoad,
        model: &CompiledModel,
        attempts: u32,
    ) -> AdmissionDecision {
        let p = Self::projected_violation(load, model);
        if p >= self.cfg.shed_threshold {
            AdmissionDecision::Shed
        } else if p >= self.cfg.defer_threshold && attempts < self.cfg.max_defers {
            AdmissionDecision::Defer {
                delay_s: self.cfg.defer_s,
            }
        } else {
            AdmissionDecision::Admit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sim::MachineConfig;

    fn model() -> CompiledModel {
        let machine = MachineConfig::threadripper_3990x();
        compile_model(
            &veltair_models::mobilenet_v2(),
            &machine,
            &CompilerOptions::fast(),
        )
    }

    fn load(outstanding: usize, pressure: f64) -> NodeLoad {
        NodeLoad {
            node: 0,
            outstanding,
            queued: outstanding,
            in_flight: 0,
            busy_cores: 0,
            total_cores: 64,
            occupancy: 0.0,
            pressure,
        }
    }

    #[test]
    fn projection_is_monotone_in_queue_depth_and_pressure() {
        let m = model();
        let mut prev = -1.0;
        for outstanding in [0, 4, 16, 64, 256] {
            let p = SloAdmission::projected_violation(&load(outstanding, 0.0), &m);
            assert!(p >= prev, "projection fell at depth {outstanding}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
        // Higher interference shrinks capacity, so the projection at a
        // fixed depth can only rise.
        let calm = SloAdmission::projected_violation(&load(64, 0.0), &m);
        let loud = SloAdmission::projected_violation(&load(64, 0.9), &m);
        assert!(loud >= calm, "pressure lowered the projection");
    }

    #[test]
    fn idle_nodes_admit_everything() {
        let mut a = SloAdmission::new(SloAdmissionConfig::default());
        assert_eq!(
            a.decide(&load(0, 0.0), &model(), 0),
            AdmissionDecision::Admit
        );
    }

    #[test]
    fn swamped_nodes_shed() {
        let mut a = SloAdmission::new(SloAdmissionConfig::default());
        assert_eq!(
            a.decide(&load(100_000, 0.9), &model(), 0),
            AdmissionDecision::Shed
        );
    }

    #[test]
    fn mid_band_defers_until_the_budget_runs_out() {
        let cfg = SloAdmissionConfig {
            shed_threshold: 0.999,
            defer_threshold: 0.01,
            defer_s: 0.02,
            max_defers: 2,
        };
        let mut a = SloAdmission::new(cfg);
        let m = model();
        // Find a queue depth whose projection lands inside the defer band
        // (above the defer threshold, below the shed threshold).
        let l = (1..100_000)
            .map(|n| load(n, 0.5))
            .find(|l| {
                let p = SloAdmission::projected_violation(l, &m);
                (cfg.defer_threshold..cfg.shed_threshold).contains(&p)
            })
            .expect("some depth lands in the defer band");
        assert_eq!(
            a.decide(&l, &m, 0),
            AdmissionDecision::Defer { delay_s: 0.02 }
        );
        assert_eq!(
            a.decide(&l, &m, 1),
            AdmissionDecision::Defer { delay_s: 0.02 }
        );
        // Third attempt: the defer budget is exhausted, and the shed
        // threshold was never reached, so the query goes in.
        assert_eq!(a.decide(&l, &m, 2), AdmissionDecision::Admit);
    }

    #[test]
    fn admit_all_never_interferes() {
        let mut a = AdmitAll;
        assert_eq!(
            a.decide(&load(1_000_000, 1.0), &model(), 0),
            AdmissionDecision::Admit
        );
    }
}
