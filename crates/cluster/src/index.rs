//! The incrementally maintained load index: O(log n) routing decisions
//! over a fleet whose per-node rank keys change only when a node's load
//! actually changes.
//!
//! The fleet's original coordinator rebuilt every node's
//! [`NodeLoad`](crate::NodeLoad) view and linearly scanned all of them on
//! *every* routing decision — O(nodes) loads materialized per query,
//! which dominates coordinator cost at 10k+ nodes. [`LoadIndex`] replaces
//! that with a **tournament tree** over one `f64` rank key per node
//! (lower ranks win; the active [`Router`](crate::Router) defines the
//! key via [`Router::rank`](crate::Router::rank)):
//!
//! * [`LoadIndex::update`] re-keys one node in O(log n) — called only for
//!   nodes whose [`Driver::version`](veltair_sched::runtime::Driver::version)
//!   changed since the last decision;
//! * [`LoadIndex::min`] reads the winner in O(1);
//! * [`LoadIndex::sample`]/[`LoadIndex::total_weight`] support
//!   power-of-two-choices' core-weighted candidate sampling through
//!   descent over a **Fenwick tree** of per-node weights, provably
//!   drawing the same node as the legacy linear walk for the same
//!   ticket;
//! * **churn** stays O(log n): [`LoadIndex::push`] appends a node
//!   (amortized — the tournament tree doubles like a `Vec`), and
//!   [`LoadIndex::set_routable`] masks a draining/dead node out of both
//!   decision structures without moving any other node's index — an
//!   unroutable node's rank key reads as `+inf` and its sampling weight
//!   as zero, so every decision path skips it while the index layout
//!   (and therefore bit-determinism of everything else) is untouched.
//!
//! **Bit-identity.** Ties break toward the lowest node index at every
//! tree comparison (`right wins only if strictly smaller`), which is
//! exactly a linear argmin's "keep the earlier index unless strictly
//! beaten" rule — so for identical keys the tree's winner *is* the
//! argmin, and indexed fleet runs are bit-identical to an O(n) scan over
//! the same keys (pinned against a scan oracle by
//! `tests/index_equivalence.rs`). Keys must never be NaN; every built-in
//! rank is a finite arithmetic combination of finite load signals.
//!
//! **Op counting.** The index tallies every key/load inspection in an
//! internal counter the fleet drains into
//! [`CoordinatorStats::nodes_examined`](crate::CoordinatorStats) — the
//! 1-CPU-container-friendly way to demonstrate the O(n) → O(log n) drop
//! (wall clock on a single core measures mostly noise).

use std::cell::Cell;

/// Sentinel for empty tournament-tree slots (fleets are rarely exact
/// powers of two).
const NONE: u32 = u32::MAX;

/// An incrementally maintained rank index over fleet nodes: a flat key
/// table, a tournament tree over it, a routability mask, and a Fenwick
/// tree of per-node core weights for weighted candidate sampling. See
/// the module docs for the complexity and bit-identity contracts.
#[derive(Debug)]
pub struct LoadIndex {
    /// Rank key per node (lower is better; never NaN). Unroutable nodes
    /// keep their last key but compare as `+inf` (see [`Self::eff_key`]).
    keys: Vec<f64>,
    /// Tournament tree in segment-tree layout: `tree[1]` holds the
    /// overall winner's node index, leaves live at `[cap, cap + len)`,
    /// and `tree[i]` is the winner of its two children under "right wins
    /// only if strictly smaller" (ties to the lower node index).
    tree: Vec<u32>,
    /// Leaf capacity: a power of two ≥ `len`; doubles on overflow.
    cap: usize,
    /// Static per-node sampling weight (`total_cores.max(1)`).
    weights: Vec<u64>,
    /// Whether each node may receive new work. Draining/dead nodes stay
    /// in place (stable indices) but are masked out of every decision.
    routable: Vec<bool>,
    /// Count of routable nodes.
    live: usize,
    /// 1-indexed Fenwick (binary indexed) tree over *effective* weights
    /// (`weights[i]` when routable, else 0): O(log n) point updates on
    /// churn, O(log n) prefix sums and ticket descent for sampling.
    fen: Vec<u64>,
    /// Keys/loads inspected since the last [`LoadIndex::take_examined`];
    /// a `Cell` so read-only routing methods can tally on `&self`.
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
        let weights: Vec<u64> = weights.iter().map(|&w| w.max(1)).collect();
        // O(n) Fenwick build: seed each leaf, then fold into parents.
        let mut fen = vec![0u64; len + 1];
        for (i, &w) in weights.iter().enumerate() {
            fen[i + 1] = w;
        }
        for i in 1..=len {
            let j = i + (i & i.wrapping_neg());
            if j <= len {
                fen[j] += fen[i];
            }
        }
        let mut index = Self {
            keys: vec![0.0; len],
            tree: Vec::new(),
            cap: 0,
            weights,
            routable: vec![true; len],
            live: len,
            fen,
            examined: Cell::new(0),
        };
        index.rebuild_tree();
        index
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
    /// routable, `+inf` otherwise (so masked nodes lose every tournament
    /// comparison without perturbing any other node).
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

    /// The winner of two leaf/subtree entries: the right entry only if
    /// its key is *strictly* smaller — the tie-to-lowest-index rule a
    /// linear argmin uses, since the left subtree always holds the lower
    /// node indices.
    fn winner(&self, a: u32, b: u32) -> u32 {
        match (a, b) {
            (NONE, w) | (w, NONE) => w,
            (a, b) => {
                if self.eff_key(b as usize) < self.eff_key(a as usize) {
                    b
                } else {
                    a
                }
            }
        }
    }

    /// Repairs the root path above leaf `i`: O(log n).
    fn repair_path(&mut self, i: usize) {
        let mut p = (self.cap + i) >> 1;
        while p >= 1 {
            self.tree[p] = self.winner(self.tree[2 * p], self.tree[2 * p + 1]);
            p >>= 1;
        }
    }

    /// Rebuilds the tournament tree from scratch (index construction and
    /// capacity doubling only — never on the per-decision path).
    fn rebuild_tree(&mut self) {
        let len = self.keys.len();
        self.cap = len.next_power_of_two();
        self.tree = vec![NONE; 2 * self.cap];
        for i in 0..len {
            self.tree[self.cap + i] = u32::try_from(i).expect("fleet sizes fit u32");
        }
        for i in (1..self.cap).rev() {
            self.tree[i] = self.winner(self.tree[2 * i], self.tree[2 * i + 1]);
        }
    }

    /// Re-keys node `i` and repairs its root path: O(log n), the only
    /// per-change maintenance the index ever needs. Debug-asserts the
    /// no-NaN key contract.
    pub fn update(&mut self, i: usize, key: f64) {
        debug_assert!(!key.is_nan(), "rank keys must never be NaN");
        self.keys[i] = key;
        self.repair_path(i);
    }

    /// Appends a newly provisioned node with the given sampling weight
    /// (key zero, routable): amortized O(log n) — the Fenwick leaf is
    /// derived from two prefix sums and the tournament tree doubles its
    /// capacity like a `Vec` when full. The caller re-keys the node
    /// before its first decision.
    pub fn push(&mut self, weight: u64) {
        let w = weight.max(1);
        let i = self.keys.len();
        // Fenwick append: entry p covers positions (p - lowbit(p), p],
        // so the new leaf's value is the new weight plus the effective
        // weights of the tail it absorbs.
        let p = i + 1;
        let low = p & p.wrapping_neg();
        let tail = self.fen_prefix(i).wrapping_sub(self.fen_prefix(p - low));
        self.fen.push(w.wrapping_add(tail));
        self.keys.push(0.0);
        self.weights.push(w);
        self.routable.push(true);
        self.live += 1;
        if i < self.cap {
            self.tree[self.cap + i] = u32::try_from(i).expect("fleet sizes fit u32");
            self.repair_path(i);
        } else {
            self.rebuild_tree();
        }
    }

    /// Masks node `i` out of (or back into) every decision structure:
    /// O(log n) — one Fenwick point update plus one tree path repair.
    /// Unroutable nodes keep their slot, so no other node's index moves
    /// and the determinism contract is unaffected.
    pub fn set_routable(&mut self, i: usize, routable: bool) {
        if self.routable[i] == routable {
            return;
        }
        self.routable[i] = routable;
        let delta = if routable {
            self.live += 1;
            self.weights[i]
        } else {
            self.live -= 1;
            self.weights[i].wrapping_neg()
        };
        self.fen_add(i + 1, delta);
        self.repair_path(i);
    }

    /// The routable node index with the smallest key (ties to the lowest
    /// index): an O(1) root read (1 examination). With zero routable
    /// nodes the result is meaningless (the fleet never routes against an
    /// empty roster).
    #[must_use]
    pub fn min(&self) -> usize {
        self.tally(1);
        self.tree[1] as usize
    }

    /// Node `i`'s current key (1 examination) — how power-of-two-choices
    /// compares its sampled pair. Reads `+inf` for unroutable nodes
    /// (sampled candidates are always routable, so the mask is
    /// unobservable there).
    #[must_use]
    pub fn key(&self, i: usize) -> f64 {
        self.tally(1);
        self.eff_key(i)
    }

    /// Total sampling weight excluding `skip` (and every unroutable
    /// node), in O(log n) off the Fenwick tree. Not tallied: it reads
    /// weights, never keys.
    #[must_use]
    pub fn total_weight(&self, skip: Option<usize>) -> u64 {
        let total = self.fen_prefix(self.keys.len());
        let skipped = skip.map_or(0, |s| self.eff_weight(s));
        total - skipped
    }

    /// Maps a sampling ticket in `[0, total_weight(skip))` to a routable
    /// node index with probability proportional to core count, excluding
    /// `skip`.
    ///
    /// Descends the Fenwick tree to the last position whose cumulative
    /// effective weight is ≤ the ticket (exactly the
    /// `partition_point(|&c| c <= ticket)` rule over prefix sums) and,
    /// when the hit lands at or past the skipped node, re-descends with
    /// the ticket shifted by the skipped weight — equivalent because for
    /// `i ≥ skip` the skip-excluded cumulative weight is the full
    /// cumulative minus `weights[skip]`, and the shifted hit can never
    /// land back on `skip` (the shifted ticket is at least the cumulative
    /// weight *through* `skip`). The result is the node the linear
    /// subtract-and-step walk over the weights would pick for the same
    /// ticket (pinned by the randomized unit tests below, with and
    /// without masked nodes). Each descent is `⌊log2 n⌋ + 1`
    /// examinations.
    #[must_use]
    pub fn sample(&self, ticket: u64, skip: Option<usize>) -> usize {
        let probes = u64::from(self.keys.len().max(1).ilog2()) + 1;
        self.tally(probes);
        let first = self.fen_search(ticket);
        match skip {
            Some(s) if first >= s => {
                self.tally(probes);
                self.fen_search(ticket + self.eff_weight(s))
            }
            _ => first,
        }
    }

    /// Drains the examination tally (keys inspected by `min`, `key` and
    /// `sample` since the last drain). The
    /// fleet calls this once per routing decision and accumulates into
    /// [`CoordinatorStats::nodes_examined`](crate::CoordinatorStats).
    pub fn take_examined(&self) -> u64 {
        self.examined.take()
    }

    fn tally(&self, n: u64) {
        self.examined.set(self.examined.get() + n);
    }

    /// Sum of the first `i` effective weights (1-based count).
    fn fen_prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        while i > 0 {
            sum = sum.wrapping_add(self.fen[i]);
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` (wrapping, so negations round-trip exactly) to
    /// effective weight `i` (1-based).
    fn fen_add(&mut self, mut i: usize, delta: u64) {
        while i < self.fen.len() {
            self.fen[i] = self.fen[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The last 0-based position whose cumulative effective weight is ≤
    /// `ticket` — identical to
    /// `prefix.partition_point(|&c| c <= ticket)` over inclusive prefix
    /// sums, in O(log n) without materializing them. Never lands on a
    /// zero-weight position for an in-range ticket (the cumulative sum
    /// does not move across it).
    fn fen_search(&self, ticket: u64) -> usize {
        let n = self.keys.len();
        let mut pos = 0usize;
        let mut remaining = ticket;
        let mut bit = if n == 0 { 0 } else { 1usize << n.ilog2() };
        while bit > 0 {
            let next = pos + bit;
            if next <= n && self.fen[next] <= remaining {
                pos = next;
                remaining -= self.fen[next];
            }
            bit >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The O(n) reference argmin over the keys decisions see: keep the
    /// earlier index unless strictly beaten.
    fn scan_min(index: &LoadIndex) -> usize {
        let mut best = 0;
        for i in 1..index.len() {
            if index.eff_key(i) < index.eff_key(best) {
                best = i;
            }
        }
        best
    }

    /// The O(n) reference total: effective weights summed linearly.
    fn scan_total(index: &LoadIndex, skip: Option<usize>) -> u64 {
        (0..index.len())
            .filter(|&i| Some(i) != skip)
            .map(|i| index.eff_weight(i))
            .sum()
    }

    /// The O(n) reference sampler: subtract weights until the ticket
    /// lands (zero-weight — unroutable — entries never absorb it).
    fn scan_sample(index: &LoadIndex, ticket: u64, skip: Option<usize>) -> usize {
        let mut remaining = ticket;
        for i in (0..index.len()).filter(|&i| Some(i) != skip) {
            let w = index.eff_weight(i);
            if remaining < w {
                return i;
            }
            remaining -= w;
        }
        unreachable!("ticket was drawn below the total weight")
    }

    #[test]
    fn ties_break_to_the_lowest_index() {
        let mut index = LoadIndex::new(vec![1; 5]);
        for i in 0..5 {
            index.update(i, 0.5);
        }
        assert_eq!(index.min(), 0);
        assert_eq!(scan_min(&index), 0);
        index.update(3, 0.25);
        index.update(1, 0.25);
        assert_eq!(index.min(), 1);
        assert_eq!(scan_min(&index), 1);
    }

    #[test]
    fn signed_zero_ties_match_the_scan() {
        // -0.0 < 0.0 is false in IEEE comparison, so the tree must treat
        // them as a tie and keep the lower index, like the scan.
        let mut index = LoadIndex::new(vec![1; 3]);
        index.update(0, 0.0);
        index.update(1, -0.0);
        index.update(2, 1.0);
        assert_eq!(scan_min(&index), 0);
        assert_eq!(index.min(), 0);
    }

    #[test]
    fn randomized_churn_agrees_with_a_fresh_scan_after_every_event() {
        // Seeded random key churn across awkward (non-power-of-two)
        // sizes: after every single update the tree's winner must equal
        // a from-scratch argmin over the key table.
        for n in [1usize, 2, 3, 5, 7, 8, 9, 33, 100] {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + n as u64);
            let mut index = LoadIndex::new(vec![1; n]);
            for _ in 0..500 {
                let node = rng.gen_range(0..n as u64) as usize;
                // Coarse grid so key collisions (ties) actually happen.
                let key = f64::from(u32::try_from(rng.gen_range(0..16u64)).unwrap()) / 8.0;
                index.update(node, key);
                assert_eq!(
                    index.min(),
                    scan_min(&index),
                    "tree diverged from scan at n={n}"
                );
            }
        }
    }

    #[test]
    fn prefix_sampling_matches_the_linear_walk_for_every_ticket() {
        // Heterogeneous weights, every skip choice, every valid ticket:
        // the Fenwick descent must pick the same node as the legacy
        // subtract-and-step walk.
        let weights = vec![64u64, 8, 8, 64, 1, 8, 8];
        let index = LoadIndex::new(weights.clone());
        let mut skips: Vec<Option<usize>> = (0..weights.len()).map(Some).collect();
        skips.push(None);
        for skip in skips {
            let total = index.total_weight(skip);
            assert_eq!(total, scan_total(&index, skip));
            for ticket in 0..total {
                let walk = scan_sample(&index, ticket, skip);
                let search = index.sample(ticket, skip);
                assert_eq!(walk, search, "ticket {ticket} skip {skip:?} diverged");
                assert_ne!(Some(search), skip, "sampled the excluded node");
            }
        }
    }

    #[test]
    fn masked_nodes_never_win_and_never_sample() {
        // Drain two of five nodes: the argmin must skip them, and every
        // sampling ticket must land on a live node, with the scan and the
        // index still agreeing ticket-for-ticket.
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
        assert_eq!(scan_min(&index), 1);
        for skip in [None, Some(1), Some(3), Some(4)] {
            let total = index.total_weight(skip);
            assert_eq!(total, scan_total(&index, skip));
            for ticket in 0..total {
                let walk = scan_sample(&index, ticket, skip);
                let search = index.sample(ticket, skip);
                assert_eq!(walk, search, "ticket {ticket} skip {skip:?} diverged");
                assert!(index.routable(search), "sampled a masked node");
                assert_ne!(Some(search), skip);
            }
        }
        // Restoring the best node restores its wins and its weight.
        index.set_routable(0, true);
        assert_eq!(index.live_len(), 4);
        assert_eq!(index.min(), 0);
        assert_eq!(index.total_weight(None), 16 + 4 + 4 + 8);
    }

    #[test]
    fn push_grows_the_index_like_a_fresh_build() {
        // Append nodes one at a time across several capacity doublings;
        // after every push the winner and the full sampling map must
        // match an index built from scratch over the same weights.
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

    #[test]
    fn churned_masks_agree_with_scan_under_random_toggles() {
        // Seeded random interleaving of key updates, pushes, and
        // routability toggles: tree argmin and Fenwick sampling must
        // agree with the scan reference after every event.
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut index = LoadIndex::new(vec![2, 5, 1]);
        for _ in 0..400 {
            let n = index.len();
            match rng.gen_range(0..10u64) {
                0 if n < 40 => index.push(1 + rng.gen_range(0..8u64)),
                1 => {
                    let i = rng.gen_range(0..n as u64) as usize;
                    // Keep at least one node routable.
                    if index.routable(i) && index.live_len() > 1 {
                        index.set_routable(i, false);
                    } else {
                        index.set_routable(i, true);
                    }
                }
                _ => {
                    let i = rng.gen_range(0..n as u64) as usize;
                    let key = f64::from(u32::try_from(rng.gen_range(0..16u64)).unwrap()) / 8.0;
                    index.update(i, key);
                }
            }
            assert_eq!(index.min(), scan_min(&index));
            let total = index.total_weight(None);
            assert_eq!(total, scan_total(&index, None));
            if total > 0 {
                let ticket = rng.gen_range(0..total);
                assert_eq!(
                    index.sample(ticket, None),
                    scan_sample(&index, ticket, None)
                );
            }
        }
    }

    #[test]
    fn examined_counts_scale_as_n_vs_log_n() {
        // A scan decision reads all n keys; the index reads the root for
        // the minimum and one Fenwick path per sample.
        let n = 1024;
        let index = LoadIndex::new(vec![1; n]);
        index.take_examined();
        let _ = index.min();
        assert_eq!(index.take_examined(), 1);
        let _ = index.total_weight(Some(3));
        assert_eq!(index.take_examined(), 0, "totals read weights, not keys");
        let _ = index.sample(17, None);
        assert_eq!(index.take_examined(), 1 + u64::from(n.ilog2()));
        let _ = index.sample(17, Some(0));
        assert!(index.take_examined() <= 2 * (1 + u64::from(n.ilog2())));
    }
}
