//! The fleet's load index: one rank key, one sampling weight and one
//! routability flag per roster slot, read by the router at every routing
//! decision.
//!
//! The active [`Router`](crate::Router) defines the key through
//! [`Router::rank`](crate::Router::rank) (lower ranks win), and the fleet
//! re-keys a node only when its
//! [`Driver::version`](veltair_sched::runtime::Driver::version) moved
//! since the last decision, so a stateful rank (the interference-aware
//! EWMA) advances on each node's update stream, not once per decision.
//!
//! * [`LoadIndex::min`] is one pass over the roster that keeps the earlier
//!   slot unless a later one is strictly smaller, so ties go to the lowest
//!   node index;
//! * [`LoadIndex::sample`] and [`LoadIndex::total_weight`] serve
//!   power-of-two-choices' core-weighted candidate draws: the ticket is
//!   walked across the slots, subtracting each weight until it lands;
//! * [`LoadIndex::update`], [`LoadIndex::push`] and
//!   [`LoadIndex::set_routable`] are O(1). A draining, stalled or dead
//!   node keeps its slot: its key reads as `+inf` and its weight as zero,
//!   so every decision skips it while no other node's index moves.
//!
//! **Why a scan.** Every routing decision already advances every node to
//! the decision instant and compares every node's version, so a decision
//! costs Θ(nodes) before the router reads a single key; one more pass
//! over a flat table adds little to that. Keys must never be NaN; every
//! built-in rank is a finite arithmetic combination of finite load
//! signals.
//!
//! **Op counting.** The index tallies every key it reads in an internal
//! counter the fleet drains into
//! [`CoordinatorStats::nodes_examined`](crate::CoordinatorStats): a
//! minimum reads every roster slot, a weighted draw the slots it walks,
//! and [`LoadIndex::key`] one.

use std::cell::Cell;

/// The rank index over fleet nodes: a flat table of keys, sampling
/// weights and routability flags. See the module docs for the decision
/// rules and the op-counting contract.
#[derive(Debug)]
pub struct LoadIndex {
    /// Rank key per node (lower is better; never NaN). Unroutable nodes
    /// keep their last key but compare as `+inf` (see [`Self::eff_key`]).
    keys: Vec<f64>,
    /// Static per-node sampling weight (`total_cores.max(1)`).
    weights: Vec<u64>,
    /// Whether each node may receive new work. Draining/dead nodes stay
    /// in place (stable indices) but are masked out of every decision.
    routable: Vec<bool>,
    /// Count of routable nodes.
    live: usize,
    /// Keys read since the last [`LoadIndex::take_examined`]; a `Cell` so
    /// read-only routing methods can tally on `&self`.
    examined: Cell<u64>,
}

impl LoadIndex {
    /// Builds an index over `weights.len()` nodes, all keys zero, all
    /// nodes routable. The caller re-keys every node before the first
    /// decision (the fleet seeds its per-node version cache with a
    /// sentinel so the first refresh touches everything).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty (a fleet has at least one node).
    #[must_use]
    pub fn new(weights: Vec<u64>) -> Self {
        assert!(!weights.is_empty(), "a load index needs at least one node");
        let len = weights.len();
        Self {
            keys: vec![0.0; len],
            weights: weights.into_iter().map(|w| w.max(1)).collect(),
            routable: vec![true; len],
            live: len,
            examined: Cell::new(0),
        }
    }

    /// Number of indexed nodes, routable or not (dead nodes keep their
    /// slot so indices stay stable under churn).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index covers zero nodes (never true for a fleet-built
    /// index; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Count of routable (live) nodes.
    #[must_use]
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Whether node `i` may receive new work.
    #[must_use]
    pub fn routable(&self, i: usize) -> bool {
        self.routable[i]
    }

    /// Node `i`'s key as decisions see it: the stored rank when
    /// routable, `+inf` otherwise (so masked nodes never win a minimum).
    fn eff_key(&self, i: usize) -> f64 {
        if self.routable[i] {
            self.keys[i]
        } else {
            f64::INFINITY
        }
    }

    /// Node `i`'s weight as the sampler sees it: zero when unroutable.
    fn eff_weight(&self, i: usize) -> u64 {
        if self.routable[i] {
            self.weights[i]
        } else {
            0
        }
    }

    /// Re-keys node `i`. Debug-asserts the no-NaN key contract.
    pub fn update(&mut self, i: usize, key: f64) {
        debug_assert!(!key.is_nan(), "rank keys must never be NaN");
        self.keys[i] = key;
    }

    /// Appends a newly provisioned node with the given sampling weight
    /// (key zero, routable). The caller re-keys the node before its first
    /// decision.
    pub fn push(&mut self, weight: u64) {
        self.keys.push(0.0);
        self.weights.push(weight.max(1));
        self.routable.push(true);
        self.live += 1;
    }

    /// Masks node `i` out of (or back into) every decision. Unroutable
    /// nodes keep their slot and their last key, so no other node's index
    /// moves and the determinism contract is unaffected.
    pub fn set_routable(&mut self, i: usize, routable: bool) {
        if self.routable[i] == routable {
            return;
        }
        self.routable[i] = routable;
        if routable {
            self.live += 1;
        } else {
            self.live -= 1;
        }
    }

    /// The routable node index with the smallest key, ties to the lowest
    /// index: one pass that keeps the earlier slot unless a later one is
    /// strictly smaller (reads every slot). With zero routable nodes the
    /// result is meaningless (the fleet never routes against an empty
    /// roster).
    #[must_use]
    pub fn min(&self) -> usize {
        self.tally(self.keys.len() as u64);
        let mut best = 0;
        let mut best_key = self.eff_key(0);
        for i in 1..self.keys.len() {
            let key = self.eff_key(i);
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// Node `i`'s current key (reads 1) — how power-of-two-choices
    /// compares its sampled pair. Reads `+inf` for unroutable nodes
    /// (sampled candidates are always routable, so the mask is
    /// unobservable there).
    #[must_use]
    pub fn key(&self, i: usize) -> f64 {
        self.tally(1);
        self.eff_key(i)
    }

    /// Total sampling weight excluding `skip` and every unroutable node.
    /// Not tallied: it reads weights, never keys.
    #[must_use]
    pub fn total_weight(&self, skip: Option<usize>) -> u64 {
        let total: u64 = self
            .weights
            .iter()
            .zip(&self.routable)
            .map(|(&w, &routable)| w * u64::from(routable))
            .sum();
        total - skip.map_or(0, |s| self.eff_weight(s))
    }

    /// Maps a sampling ticket in `[0, total_weight(skip))` to a routable
    /// node index with probability proportional to core count, excluding
    /// `skip`: the walk subtracts each slot's weight from the ticket
    /// until the ticket is smaller than the weight in hand (an unroutable
    /// slot weighs zero and never takes it). Reads the slots it walks,
    /// the picked one included. A ticket at or past the total walks off
    /// the end and returns [`LoadIndex::len`].
    #[must_use]
    pub fn sample(&self, ticket: u64, skip: Option<usize>) -> usize {
        let mut remaining = ticket;
        for i in 0..self.keys.len() {
            let w = if Some(i) == skip {
                0
            } else {
                self.eff_weight(i)
            };
            if remaining < w {
                self.tally(i as u64 + 1);
                return i;
            }
            remaining -= w;
        }
        self.tally(self.keys.len() as u64);
        self.keys.len()
    }

    /// Drains the examination tally (keys read by `min`, `key` and
    /// `sample` since the last drain). The fleet calls this once per
    /// routing decision and accumulates into
    /// [`CoordinatorStats::nodes_examined`](crate::CoordinatorStats).
    pub fn take_examined(&self) -> u64 {
        self.examined.take()
    }

    fn tally(&self, n: u64) {
        self.examined.set(self.examined.get() + n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_break_to_the_lowest_index() {
        let mut index = LoadIndex::new(vec![1; 5]);
        for i in 0..5 {
            index.update(i, 0.5);
        }
        assert_eq!(index.min(), 0);
        // A minimum reads every roster slot.
        assert_eq!(index.take_examined(), 5);
        index.update(3, 0.25);
        index.update(1, 0.25);
        assert_eq!(index.min(), 1);
    }

    #[test]
    fn signed_zero_ties_match_the_scan() {
        // -0.0 < 0.0 is false in IEEE comparison, so the two are a tie and
        // the lower index keeps the win.
        let mut index = LoadIndex::new(vec![1; 3]);
        index.update(0, 0.0);
        index.update(1, -0.0);
        index.update(2, 1.0);
        assert_eq!(index.min(), 0);
    }

    /// Every ticket below `total_weight(skip)` must land on the node the
    /// hand-computed `(node, weight)` runs give it, in order, and read
    /// the slots up to and including that node.
    fn assert_tickets(index: &LoadIndex, skip: Option<usize>, runs: &[(usize, u64)]) {
        let total: u64 = runs.iter().map(|&(_, w)| w).sum();
        index.take_examined();
        assert_eq!(index.total_weight(skip), total, "skip {skip:?}");
        assert_eq!(index.take_examined(), 0, "totals read weights, not keys");
        let mut ticket = 0;
        for &(node, width) in runs {
            for _ in 0..width {
                assert_eq!(
                    index.sample(ticket, skip),
                    node,
                    "ticket {ticket} skip {skip:?}"
                );
                assert_eq!(index.take_examined(), node as u64 + 1);
                ticket += 1;
            }
        }
        assert_eq!(index.sample(total, skip), index.len(), "past the total");
        index.take_examined();
    }

    #[test]
    fn prefix_sampling_matches_the_linear_walk_for_every_ticket() {
        // Heterogeneous weights: each node takes a run of tickets as wide
        // as its weight, in slot order, and the skipped node's run closes
        // up.
        let index = LoadIndex::new(vec![64, 8, 8, 64, 1, 8, 8]);
        assert_tickets(
            &index,
            None,
            &[(0, 64), (1, 8), (2, 8), (3, 64), (4, 1), (5, 8), (6, 8)],
        );
        assert_tickets(
            &index,
            Some(3),
            &[(0, 64), (1, 8), (2, 8), (4, 1), (5, 8), (6, 8)],
        );
        assert_tickets(
            &index,
            Some(0),
            &[(1, 8), (2, 8), (3, 64), (4, 1), (5, 8), (6, 8)],
        );
        assert_tickets(
            &index,
            Some(6),
            &[(0, 64), (1, 8), (2, 8), (3, 64), (4, 1), (5, 8)],
        );
    }

    #[test]
    fn masked_nodes_never_win_and_never_sample() {
        // Drain two of five nodes: the argmin must skip them, and every
        // sampling ticket must land on a live node.
        let weights = vec![16u64, 4, 32, 4, 8];
        let mut index = LoadIndex::new(weights);
        for i in 0..5 {
            index.update(i, i as f64);
        }
        // Node 0 has the best key and node 2 the biggest weight — mask
        // exactly those to make the masking observable.
        index.set_routable(0, false);
        index.set_routable(2, false);
        assert_eq!(index.live_len(), 3);
        assert!(!index.routable(0));
        assert_eq!(index.min(), 1);
        assert_eq!(index.key(0), f64::INFINITY);
        assert_tickets(&index, None, &[(1, 4), (3, 4), (4, 8)]);
        assert_tickets(&index, Some(1), &[(3, 4), (4, 8)]);
        assert_tickets(&index, Some(3), &[(1, 4), (4, 8)]);
        assert_tickets(&index, Some(4), &[(1, 4), (3, 4)]);
        // Restoring the best node restores its wins and its weight.
        index.set_routable(0, true);
        assert_eq!(index.live_len(), 4);
        assert_eq!(index.min(), 0);
        assert_eq!(index.total_weight(None), 16 + 4 + 4 + 8);
    }

    #[test]
    fn push_grows_the_index_like_a_fresh_build() {
        // Append nodes one at a time; after every push the winner and the
        // full sampling map must match an index built from scratch over
        // the same weights.
        let mut grown = LoadIndex::new(vec![3]);
        grown.update(0, 0.5);
        let mut weights = vec![3u64];
        for step in 1..20u64 {
            let w = 1 + (step * 7) % 5;
            grown.push(w);
            weights.push(w);
            let mut fresh = LoadIndex::new(weights.clone());
            for i in 0..weights.len() {
                let key = (i as f64 * 0.37).sin();
                grown.update(i, key);
                fresh.update(i, key);
            }
            assert_eq!(grown.len(), weights.len());
            assert_eq!(grown.live_len(), weights.len());
            assert_eq!(
                grown.min(),
                fresh.min(),
                "winner diverged after push {step}"
            );
            let total = fresh.total_weight(None);
            assert_eq!(total, grown.total_weight(None));
            for ticket in 0..total {
                assert_eq!(
                    grown.sample(ticket, None),
                    fresh.sample(ticket, None),
                    "sampling diverged after push {step} at ticket {ticket}"
                );
            }
        }
    }
}
