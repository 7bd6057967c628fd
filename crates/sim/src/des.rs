//! Minimal discrete-event simulation toolkit.
//!
//! The serving simulator in `veltair-sched` is a *progress-based* DES: when
//! the set of co-running tenants changes, every in-flight unit's completion
//! rate changes too. This module provides the deterministic clock, the
//! stable event queue, and the queue the serving loop runs on, which keeps
//! one armed completion check per unit so that a re-rate moves the check
//! instead of queueing another; the re-rating logic lives with the
//! scheduler.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation timestamp in seconds.
///
/// A newtype so that times, durations, and rates cannot be accidentally
/// mixed; ordering treats `NaN` as a programming error (it panics).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Adds a duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or not finite.
    #[inline]
    #[must_use]
    pub fn after(self, seconds: f64) -> SimTime {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "durations must be finite and non-negative, got {seconds}"
        );
        SimTime(self.0 + seconds)
    }

    /// Seconds elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (time ran backwards).
    #[inline]
    #[must_use]
    pub fn since(self, earlier: SimTime) -> f64 {
        let d = self.0 - earlier.0;
        assert!(
            d >= -1e-12,
            "time ran backwards: {} -> {}",
            earlier.0,
            self.0
        );
        d.max(0.0)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("SimTime must never be NaN")
    }
}

/// An event queue delivering `(SimTime, E)` pairs in time order, breaking
/// ties by insertion order (FIFO), which keeps simulations deterministic.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first delivery.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The event queue of a model that keeps at most one pending *check* per
/// id: *external* events (arrivals, often scheduled far ahead in bulk) in
/// one heap, and *armed* checks in an indexed heap that holds one entry
/// per id. Both draw from one sequence counter, and ties break by it.
///
/// [`arm`](SplitEventQueue::arm) moves an id's pending check in place. A
/// queue that kept every check instead (an [`EventQueue`] fed the same
/// pushes, skipping a check when a later arm of its id superseded it)
/// delivers the same live `(time, event)` sequence, ties included; it
/// only also pops the superseded checks. This queue stores none of them,
/// just the largest `(time, seq)` among those such a queue would still
/// hold. So [`is_empty`](SplitEventQueue::is_empty) turns true at the same
/// operation as that queue's: a superseded check counts as pending until
/// a pop, [`pass_until`](SplitEventQueue::pass_until) or
/// [`pass_superseded`](SplitEventQueue::pass_superseded) gets past it.
#[derive(Debug)]
pub struct SplitEventQueue<E> {
    external: BinaryHeap<Entry<E>>,
    /// Armed checks: a binary min-heap on `(time, seq)`, one per id.
    armed: Vec<Armed<E>>,
    /// Per id, the index of its check in `armed`, or `UNARMED`.
    position: Vec<usize>,
    /// The largest `(time, seq)` of a superseded check not yet passed.
    superseded: Option<(SimTime, u64)>,
    seq: u64,
}

/// `SplitEventQueue::position` of an id with no armed check.
const UNARMED: usize = usize::MAX;

#[derive(Debug)]
struct Armed<E> {
    time: SimTime,
    seq: u64,
    id: usize,
    event: E,
}

impl<E> Armed<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> SplitEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            external: BinaryHeap::new(),
            armed: Vec::new(),
            position: Vec::new(),
            superseded: None,
            seq: 0,
        }
    }

    /// Schedules an external `event` at `time`.
    pub fn push_external(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.external.push(Entry { time, seq, event });
    }

    /// Arms `id`'s check: `event` at `time`. A check `id` already had
    /// pending is superseded: it is never delivered, but it keeps the
    /// queue non-empty until it is passed.
    pub fn arm(&mut self, id: usize, time: SimTime, event: E) {
        let seq = self.next_seq();
        if id >= self.position.len() {
            self.position.resize(id + 1, UNARMED);
        }
        let at = self.position[id];
        if at == UNARMED {
            self.position[id] = self.armed.len();
            self.armed.push(Armed {
                time,
                seq,
                id,
                event,
            });
            self.sift_up(self.armed.len() - 1);
            return;
        }
        let check = &mut self.armed[at];
        let old = check.key();
        self.superseded = self.superseded.max(Some(old));
        *check = Armed {
            time,
            seq,
            id,
            event,
        };
        // `seq` is the largest drawn, so the key shrank only if the time did.
        if time < old.0 {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Whether `id` has a check armed.
    #[must_use]
    pub fn is_armed(&self, id: usize) -> bool {
        self.position.get(id).is_some_and(|&at| at != UNARMED)
    }

    /// Removes and returns the earliest event of either kind, passing
    /// every superseded check before it. `None` when no event remains;
    /// superseded checks may still be pending then (see
    /// [`pass_superseded`](SplitEventQueue::pass_superseded)).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let external_first = match (self.external.peek(), self.armed.first()) {
            (Some(ext), Some(check)) => (ext.time, ext.seq) < check.key(),
            (ext, _) => ext.is_some(),
        };
        let (time, seq, event) = if external_first {
            let e = self.external.pop()?;
            (e.time, e.seq, e.event)
        } else {
            let c = self.pop_armed()?;
            (c.time, c.seq, c.event)
        };
        if self.superseded.is_some_and(|key| key < (time, seq)) {
            self.superseded = None;
        }
        Some((time, event))
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.external.peek(), self.armed.first()) {
            (Some(ext), Some(check)) => Some(ext.time.min(check.time)),
            (ext, check) => ext.map(|e| e.time).or(check.map(|c| c.time)),
        }
    }

    /// Passes every superseded check at or before `t`, as popping every
    /// event at or before `t` would. The caller has already popped the
    /// events at or before `t`.
    pub fn pass_until(&mut self, t: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|next| next > t),
            "an event at or before {} is still pending",
            t.0
        );
        if self.superseded.is_some_and(|(time, _)| time <= t) {
            self.superseded = None;
        }
    }

    /// Passes every pending superseded check once no event remains, and
    /// returns the time of the latest one (`None` if none was pending).
    pub fn pass_superseded(&mut self) -> Option<SimTime> {
        debug_assert!(self.peek_time().is_none(), "events are still pending");
        self.superseded.take().map(|(time, _)| time)
    }

    /// Whether no event and no superseded check is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.external.is_empty() && self.armed.is_empty() && self.superseded.is_none()
    }

    /// Drops every pending event and forgets every superseded check. The
    /// sequence counter keeps counting, as it would had each been popped.
    pub fn clear(&mut self) {
        self.external.clear();
        self.armed.clear();
        self.position.fill(UNARMED);
        self.superseded = None;
    }

    fn pop_armed(&mut self) -> Option<Armed<E>> {
        if self.armed.is_empty() {
            return None;
        }
        let top = self.armed.swap_remove(0);
        self.position[top.id] = UNARMED;
        if !self.armed.is_empty() {
            self.sift_down(0);
        }
        Some(top)
    }

    /// Moves the check at `at` up to its place, then records where each
    /// moved check went.
    fn sift_up(&mut self, mut at: usize) {
        let key = self.armed[at].key();
        while at > 0 {
            let parent = (at - 1) / 2;
            if key >= self.armed[parent].key() {
                break;
            }
            self.armed.swap(at, parent);
            self.position[self.armed[at].id] = at;
            at = parent;
        }
        self.position[self.armed[at].id] = at;
    }

    /// Moves the check at `at` down to its place, then records where each
    /// moved check went.
    fn sift_down(&mut self, mut at: usize) {
        let key = self.armed[at].key();
        loop {
            let left = 2 * at + 1;
            let Some(l) = self.armed.get(left) else {
                break;
            };
            let child = match self.armed.get(left + 1) {
                Some(r) if r.key() < l.key() => left + 1,
                _ => left,
            };
            if self.armed[child].key() >= key {
                break;
            }
            self.armed.swap(at, child);
            self.position[self.armed[at].id] = at;
            at = child;
        }
        self.position[self.armed[at].id] = at;
    }
}

impl<E> Default for SplitEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(3.0), "c");
        q.push(SimTime(1.0), "a");
        q.push(SimTime(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime(1.0), 1);
        q.push(SimTime(1.0), 2);
        q.push(SimTime(1.0), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::ZERO.after(1.5);
        assert!((t.since(SimTime::ZERO) - 1.5).abs() < 1e-12);
        assert!(t > SimTime(1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let _ = SimTime::ZERO.after(-1.0);
    }

    #[test]
    fn split_queue_breaks_ties_across_heaps_by_push_order() {
        let mut q = SplitEventQueue::new();
        q.push_external(SimTime(1.0), "a");
        q.arm(0, SimTime(1.0), "b");
        q.push_external(SimTime(1.0), "c");
        q.arm(1, SimTime(0.5), "first");
        assert_eq!(q.peek_time(), Some(SimTime(0.5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_superseded_check_is_pending_until_passed() {
        let mut q = SplitEventQueue::new();
        q.arm(0, SimTime(2.0), "late");
        q.arm(0, SimTime(1.0), "early");
        assert!(q.is_armed(0) && !q.is_armed(1));
        assert_eq!(q.pop(), Some((SimTime(1.0), "early")));
        assert!(!q.is_armed(0));
        // The check at 2.0 was superseded, never delivered, but a queue
        // keeping it would still hold it.
        assert_eq!(q.pop(), None);
        assert!(!q.is_empty());
        assert_eq!(q.pass_superseded(), Some(SimTime(2.0)));
        assert!(q.is_empty());
        assert_eq!(q.pass_superseded(), None);
    }

    #[test]
    fn passing_only_moves_forward() {
        let mut q = SplitEventQueue::new();
        q.arm(0, SimTime(2.0), "stale");
        q.arm(0, SimTime(3.0), "check");
        q.pass_until(SimTime(1.0));
        assert!(!q.is_empty());
        // An arrival injected at the passed instant pops before the
        // superseded check, which stays pending.
        q.push_external(SimTime(1.0), "arrival");
        assert_eq!(q.pop(), Some((SimTime(1.0), "arrival")));
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime(3.0), "check")));
        assert!(q.is_empty());
    }

    #[test]
    fn clear_forgets_superseded_checks() {
        let mut q = SplitEventQueue::new();
        q.arm(3, SimTime(1.0), ());
        q.arm(3, SimTime(2.0), ());
        q.push_external(SimTime(0.5), ());
        q.clear();
        assert!(q.is_empty() && !q.is_armed(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(5.0), ());
        assert_eq!(q.peek_time(), Some(SimTime(5.0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
