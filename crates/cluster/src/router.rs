//! Pluggable fleet routing policies: which node a query lands on.
//!
//! Routing is where multi-machine serving wins or loses: GACER-style
//! runtime-aware placement shows the biggest gains come from using *live*
//! load and interference signals at the moment a query arrives, rather
//! than static assignment. All four built-in policies are deterministic
//! for a fixed configuration (power-of-two-choices draws from its own
//! seeded generator), which keeps whole-fleet runs bit-reproducible.
//!
//! Every router decides off the fleet's [`LoadIndex`]: one rank key per
//! node, kept current through [`Router::rank`] as node states change,
//! plus the routability mask and the core-count sampling weights. The
//! minimum routers scan the keys, power-of-two-choices walks the
//! weights, and round-robin reads only the mask.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use veltair_compiler::{CompiledModel, EwmaSmoother};
use veltair_sched::QuerySpec;

use crate::index::LoadIndex;
use crate::node::NodeLoad;

/// A fleet routing policy. [`route`](Router::route) picks the node index
/// a query is offered to, off the fleet's [`LoadIndex`]; the admission
/// controller then decides whether that node may actually take it.
pub trait Router: std::fmt::Debug + Send {
    /// Display name used in snapshots and comparison tables.
    fn name(&self) -> &'static str;

    /// Whether this router reads [`NodeLoad::pressure`]. The pressure
    /// estimate is the one load signal that costs real work (a monitor
    /// pass over each node's running units per routing decision), so the
    /// fleet skips computing it when no configured policy consumes it.
    /// Defaults to `true`: a custom router gets correct signals unless it
    /// explicitly opts out.
    fn needs_pressure(&self) -> bool {
        true
    }

    /// The scalar rank key for one node's load — **lower is better**, and
    /// the value must never be NaN. The fleet calls this exactly once per
    /// *node state change* (not per decision), so a stateful rank (the
    /// interference-aware router's EWMA) advances on the node's update
    /// stream.
    fn rank(&mut self, load: &NodeLoad) -> f64;

    /// Picks a routable node for `query` (targeting the compiled `model`)
    /// off the maintained index, whose rank keys are current as of the
    /// last node state changes. The fleet does not honour a pick that is
    /// out of range or not [`LoadIndex::routable`] (a stalled, draining or
    /// dead slot): it offers that query to [`LoadIndex::min`] instead.
    fn route(&mut self, index: &LoadIndex, model: &CompiledModel, query: &QuerySpec) -> usize;
}

/// Declarative router selection, used by cluster builders so a fleet
/// configuration stays `Clone` and re-buildable (each session gets a
/// fresh router with identical behaviour — the key to bit-deterministic
/// reruns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Cycle through nodes in order, ignoring load.
    RoundRobin,
    /// Route to the node with the fewest outstanding queries per core.
    LeastOutstanding,
    /// Power-of-two-choices on queue depth: sample two nodes from a
    /// seeded generator, route to the less loaded of the pair.
    PowerOfTwoChoices {
        /// Seed for the sampling generator.
        seed: u64,
    },
    /// Route by the nodes' monitored interference pressure plus queue
    /// depth — the fleet-level use of the per-node monitor/proxy signal.
    InterferenceAware,
}

impl RouterKind {
    /// Builds a fresh router of this kind.
    #[must_use]
    pub fn build(self) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin::default()),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::PowerOfTwoChoices { seed } => Box::new(PowerOfTwoChoices::new(seed)),
            RouterKind::InterferenceAware => Box::new(InterferenceAware::default()),
        }
    }

    /// Display name (matches the built router's `name`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::PowerOfTwoChoices { .. } => "power-of-two",
            RouterKind::InterferenceAware => "interference-aware",
        }
    }
}

/// Load-blind rotation over the fleet.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn needs_pressure(&self) -> bool {
        false
    }

    /// Load-blind: every node ranks the same, and [`Router::route`]
    /// reads only the routability mask.
    fn rank(&mut self, _load: &NodeLoad) -> f64 {
        0.0
    }

    fn route(&mut self, index: &LoadIndex, _model: &CompiledModel, _query: &QuerySpec) -> usize {
        // Probe forward past masked (stalled/draining/dead) slots; with
        // a churn-free roster this is a single-step rotation.
        for _ in 0..index.len() {
            let pick = self.next % index.len();
            self.next = (self.next + 1) % index.len();
            if index.routable(pick) {
                return pick;
            }
        }
        unreachable!("the fleet never routes against zero routable nodes")
    }
}

/// Route to the node with the fewest outstanding queries per core
/// (normalized so an 8-core edge box is not judged by a 64-core
/// flagship's yardstick). Ties break toward the lower index.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn needs_pressure(&self) -> bool {
        false
    }

    fn rank(&mut self, load: &NodeLoad) -> f64 {
        load.outstanding_per_core()
    }

    fn route(&mut self, index: &LoadIndex, _model: &CompiledModel, _query: &QuerySpec) -> usize {
        index.min()
    }
}

/// Power-of-two-choices on queue depth: sample two distinct nodes with
/// probability proportional to their core counts, route to the one with
/// fewer outstanding queries per core. Keeps the classic "sampled pair"
/// structure (constant-time comparisons, no full scan) while adapting it
/// to heterogeneous fleets — uniform sampling would offer an 8-core edge
/// box as often as a 64-core flagship, and the pair comparison cannot
/// recover from two bad candidates.
#[derive(Debug, Clone)]
pub struct PowerOfTwoChoices {
    rng: StdRng,
}

impl PowerOfTwoChoices {
    /// A sampler whose node choices are a pure function of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Router for PowerOfTwoChoices {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn needs_pressure(&self) -> bool {
        false
    }

    fn rank(&mut self, load: &NodeLoad) -> f64 {
        load.outstanding_per_core()
    }

    /// Two core-weighted draws off the index's sampler — one
    /// `gen_range(0..total)` per candidate, the second excluding the
    /// first — then the lower key of the pair wins (ties to the first
    /// draw). The sampler walks each ticket across the core counts, so
    /// the draw sequence is the classic linear-walk router's, draw for
    /// draw.
    fn route(&mut self, index: &LoadIndex, _model: &CompiledModel, _query: &QuerySpec) -> usize {
        if index.live_len() == 1 {
            // Zero-draw early return: one candidate leaves no pair to
            // sample (the second draw's total would be zero), so the
            // generator does not advance. Under churn the one routable
            // node need not be index 0.
            for i in 0..index.len() {
                if index.routable(i) {
                    return i;
                }
            }
        }
        let total = index.total_weight(None);
        let a = index.sample(self.rng.gen_range(0..total), None);
        let total_b = index.total_weight(Some(a));
        let b = index.sample(self.rng.gen_range(0..total_b), Some(a));
        if index.key(b) < index.key(a) {
            b
        } else {
            a
        }
    }
}

/// Interference-aware routing: idle nodes rank by capacity; loaded nodes
/// by per-core queue depth with the node's *EWMA-smoothed* co-runner
/// pressure folded in as virtual queued work.
///
/// A loaded node scores `(outstanding + β · ewma(pressure)) / cores`:
/// the least-outstanding signal (per-core depth, so heterogeneous
/// machines compare fairly) with the monitored pressure — the same
/// monitor/proxy signal the node's own block planner uses (§4.3),
/// exported fleet-level — counted as β extra queries' worth of committed
/// work. Normalizing the pressure term per core is what keeps the
/// refinement honest on heterogeneous fleets: a raw additive term
/// systematically steers traffic off big machines, because a busy
/// 64-core flagship always monitors louder than a half-idle 8-core edge
/// box while being the far better placement.
///
/// An *idle* node (nothing outstanding) scores `-cores`, below every
/// loaded node: a new tenant there faces no co-location at all, so its
/// momentary pressure reading — usually the tail of work that just
/// drained — carries no information, and among idle nodes the biggest
/// machine is the best burst absorber. Without this rule, burst onsets
/// were routed by stale pressure ghosts, which is the main reason the
/// earlier raw-pressure router lost to plain least-outstanding on the
/// bursty heterogeneous mix (ROADMAP, cluster follow-ups).
///
/// Each node's samples are smoothed through a per-node
/// [`EwmaSmoother`] — the same smoothing
/// primitive the
/// `HysteresisLadder` version
/// selector uses — so the score reflects the node's *sustained*
/// co-location character rather than this instant's snapshot.
/// Seed-averaged on the `cluster_serving` mix this router now beats
/// least-outstanding on both SLO violations and goodput
/// (`tests/cluster_fleet.rs` pins the win).
///
/// **Smoothing cadence.** Each node's smoother is fed through
/// [`Router::rank`], which the coordinator calls once per *node state
/// change* — the load index's update stream — so the EWMA advances when
/// a node's load actually moves, not once per routing decision. The
/// golden fleet digests pin this cadence.
#[derive(Debug, Clone, Default)]
pub struct InterferenceAware {
    /// One smoother per fleet node, grown on first sight.
    smoothers: Vec<EwmaSmoother>,
}

impl InterferenceAware {
    /// The loaded/idle score under this node's smoothed pressure (see the
    /// type docs for the model).
    fn score(load: &NodeLoad, smoothed: f64) -> f64 {
        if load.outstanding == 0 {
            -f64::from(load.total_cores)
        } else {
            (load.outstanding as f64 + PRESSURE_WEIGHT * smoothed)
                / f64::from(load.total_cores.max(1))
        }
    }

    /// The smoother for `node`, grown on first sight.
    fn smoother(&mut self, node: usize) -> &mut EwmaSmoother {
        if self.smoothers.len() <= node {
            self.smoothers
                .resize(node + 1, EwmaSmoother::new(PRESSURE_EWMA_ALPHA));
        }
        &mut self.smoothers[node]
    }
}

/// Virtual queries per unit of smoothed pressure in the loaded-node
/// score (see the type docs).
const PRESSURE_WEIGHT: f64 = 1.0;

/// EWMA weight of the newest pressure sample in the router's per-node
/// smoothing (samples arrive once per node state change).
const PRESSURE_EWMA_ALPHA: f64 = 0.3;

impl Router for InterferenceAware {
    fn name(&self) -> &'static str {
        "interference-aware"
    }

    /// Re-keys one changed node: its smoother observes the node's fresh
    /// pressure reading (update-driven smoothing — see the type docs),
    /// then the score folds it in. Idle nodes still feed their smoother
    /// so the EWMA history stays continuous across idle gaps, even though
    /// the idle score ignores the reading.
    fn rank(&mut self, load: &NodeLoad) -> f64 {
        let smoothed = self.smoother(load.node).observe(load.pressure);
        Self::score(load, smoothed)
    }

    fn route(&mut self, index: &LoadIndex, _model: &CompiledModel, _query: &QuerySpec) -> usize {
        index.min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sim::MachineConfig;

    fn load(node: usize, outstanding: usize, cores: u32, pressure: f64) -> NodeLoad {
        NodeLoad {
            node,
            outstanding,
            queued: 0,
            in_flight: 0,
            busy_cores: 0,
            total_cores: cores,
            occupancy: 0.0,
            pressure,
        }
    }

    fn model() -> CompiledModel {
        let machine = MachineConfig::threadripper_3990x();
        compile_model(
            &veltair_models::mobilenet_v2(),
            &machine,
            &CompilerOptions::fast(),
        )
    }

    fn query() -> QuerySpec {
        QuerySpec {
            model: "m".into(),
            arrival: veltair_sim::SimTime(0.0),
        }
    }

    /// Builds an index keyed by the given router's rank over `loads`.
    fn keyed_index(router: &mut dyn Router, loads: &[NodeLoad]) -> LoadIndex {
        let mut index = LoadIndex::new(loads.iter().map(|l| u64::from(l.total_cores)).collect());
        for (i, l) in loads.iter().enumerate() {
            let key = router.rank(l);
            index.update(i, key);
        }
        index
    }

    /// Keys a fresh index over `loads` and makes one routing decision.
    fn route_once(router: &mut dyn Router, loads: &[NodeLoad]) -> usize {
        let index = keyed_index(router, loads);
        router.route(&index, &model(), &query())
    }

    /// The O(n) reference pick: the lowest score, ties to the lower index.
    fn argmin(loads: &[NodeLoad], score: impl Fn(&NodeLoad) -> f64) -> usize {
        let mut best = 0;
        for (i, l) in loads.iter().enumerate().skip(1) {
            if score(l) < score(&loads[best]) {
                best = i;
            }
        }
        best
    }

    /// The classic power-of-two router over a load table: two draws, each
    /// one `gen_range` over the summed core counts walked linearly, the
    /// second excluding the first; the lighter per-core queue wins.
    struct LinearWalkPowerOfTwo(StdRng);

    impl LinearWalkPowerOfTwo {
        fn sample(&mut self, loads: &[NodeLoad], skip: Option<usize>) -> usize {
            let weight = |l: &NodeLoad| u64::from(l.total_cores.max(1));
            let candidates = || loads.iter().enumerate().filter(|(i, _)| Some(*i) != skip);
            let total: u64 = candidates().map(|(_, l)| weight(l)).sum();
            let mut ticket = self.0.gen_range(0..total);
            for (i, l) in candidates() {
                if ticket < weight(l) {
                    return i;
                }
                ticket -= weight(l);
            }
            unreachable!("ticket was drawn below the total weight")
        }

        fn route(&mut self, loads: &[NodeLoad]) -> usize {
            let a = self.sample(loads, None);
            let b = self.sample(loads, Some(a));
            if loads[b].outstanding_per_core() < loads[a].outstanding_per_core() {
                b
            } else {
                a
            }
        }
    }

    #[test]
    fn round_robin_cycles() {
        let loads = [
            load(0, 9, 64, 0.9),
            load(1, 0, 64, 0.0),
            load(2, 0, 64, 0.0),
        ];
        let m = model();
        let mut r = RoundRobin::default();
        let index = keyed_index(&mut r, &loads);
        let picks: Vec<usize> = (0..6).map(|_| r.route(&index, &m, &query())).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_outstanding_normalizes_by_cores() {
        // 4 outstanding on 64 cores is lighter than 2 on 8 cores.
        let loads = [load(0, 4, 64, 0.0), load(1, 2, 8, 0.0)];
        assert_eq!(route_once(&mut LeastOutstanding, &loads), 0);
    }

    #[test]
    fn interference_aware_prefers_quiet_nodes() {
        // Equal queue depth and size: the monitored pressure decides.
        let loads = [load(0, 3, 64, 0.9), load(1, 3, 64, 0.0)];
        assert_eq!(route_once(&mut InterferenceAware::default(), &loads), 1);
    }

    #[test]
    fn interference_aware_keeps_depth_primary() {
        // The pressure refinement must not override a real backlog gap: a
        // calm node drowning in queued work loses to a loud but shallow
        // one.
        let loads = [load(0, 32, 64, 0.0), load(1, 2, 64, 1.0)];
        assert_eq!(route_once(&mut InterferenceAware::default(), &loads), 1);
    }

    #[test]
    fn interference_aware_ranks_idle_nodes_by_capacity() {
        // An idle node's pressure reading is a stale ghost of drained
        // work: among idle nodes the biggest machine wins regardless of
        // it, and any idle node beats any loaded one.
        let loads = [load(0, 0, 8, 0.0), load(1, 0, 64, 0.9), load(2, 1, 64, 0.0)];
        assert_eq!(route_once(&mut InterferenceAware::default(), &loads), 1);
    }

    #[test]
    fn interference_aware_pressure_is_per_core_normalized() {
        // Equal per-core depth, equal pressure: the pressure term must
        // not penalize the big machine more than the small one — the
        // smaller node absorbs the same pressure worse.
        let loads = [load(0, 8, 64, 0.8), load(1, 1, 8, 0.8)];
        // (8 + 0.8)/64 = 0.1375 < (1 + 0.8)/8 = 0.225
        assert_eq!(route_once(&mut InterferenceAware::default(), &loads), 0);
    }

    #[test]
    fn power_of_two_is_deterministic_per_seed() {
        let loads = [
            load(0, 5, 64, 0.0),
            load(1, 1, 64, 0.0),
            load(2, 9, 64, 0.0),
            load(3, 0, 64, 0.0),
        ];
        let m = model();
        let picks = |seed: u64| -> Vec<usize> {
            let mut r = PowerOfTwoChoices::new(seed);
            let index = keyed_index(&mut r, &loads);
            (0..32).map(|_| r.route(&index, &m, &query())).collect()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn power_of_two_picks_the_lighter_of_the_pair() {
        // With two nodes the sampled pair is always {0, 1}; the lighter
        // node must win every draw.
        let loads = [load(0, 50, 64, 0.0), load(1, 0, 64, 0.0)];
        let m = model();
        let mut r = PowerOfTwoChoices::new(3);
        let index = keyed_index(&mut r, &loads);
        for _ in 0..16 {
            assert_eq!(r.route(&index, &m, &query()), 1);
        }
    }

    #[test]
    fn indexed_least_outstanding_matches_the_scan() {
        let loads = [load(0, 4, 64, 0.0), load(1, 2, 8, 0.0), load(2, 1, 64, 0.0)];
        assert_eq!(
            route_once(&mut LeastOutstanding, &loads),
            argmin(&loads, NodeLoad::outstanding_per_core)
        );
    }

    #[test]
    fn indexed_round_robin_cycles_without_keys() {
        let index = LoadIndex::new(vec![1; 3]);
        let m = model();
        let mut r = RoundRobin::default();
        let picks: Vec<usize> = (0..6).map(|_| r.route(&index, &m, &query())).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn indexed_power_of_two_matches_the_scan_router_draw_for_draw() {
        // Same seed, same loads: the indexed sampler must reproduce the
        // linear-walk router's picks exactly (identical generator draw
        // sequence and identical ticket→node mapping).
        let loads = [
            load(0, 5, 64, 0.0),
            load(1, 1, 8, 0.0),
            load(2, 9, 8, 0.0),
            load(3, 0, 64, 0.0),
        ];
        let m = model();
        let mut walk = LinearWalkPowerOfTwo(StdRng::seed_from_u64(11));
        let mut indexed = PowerOfTwoChoices::new(11);
        let index = keyed_index(&mut indexed, &loads);
        for _ in 0..64 {
            assert_eq!(
                indexed.route(&index, &m, &query()),
                walk.route(&loads),
                "the index diverged from the linear-walk sampler"
            );
        }
    }

    #[test]
    fn interference_aware_rank_matches_first_decision_scoring() {
        // On the first observation the EWMA passes the sample through, so
        // a freshly keyed index must pick the argmin of the raw scores.
        let loads = [load(0, 3, 64, 0.9), load(1, 3, 64, 0.0), load(2, 0, 8, 0.5)];
        assert_eq!(
            route_once(&mut InterferenceAware::default(), &loads),
            argmin(&loads, |l| InterferenceAware::score(l, l.pressure))
        );
    }

    #[test]
    fn kinds_build_matching_names() {
        for kind in [
            RouterKind::RoundRobin,
            RouterKind::LeastOutstanding,
            RouterKind::PowerOfTwoChoices { seed: 1 },
            RouterKind::InterferenceAware,
        ] {
            assert_eq!(kind.build().name(), kind.name());
        }
    }
}
