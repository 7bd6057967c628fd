//! Minimal discrete-event simulation toolkit.
//!
//! The serving simulator in `veltair-sched` is a *progress-based* DES: when
//! the set of co-running tenants changes, every in-flight unit's completion
//! rate changes too. This module provides the deterministic clock and the
//! stable event queue; the re-rating logic lives with the scheduler.

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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
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

/// An [`EventQueue`] split into two heaps that share one sequence
/// counter: *external* events (arrivals, often scheduled far ahead in
/// bulk) and *internal* ones (events the model arms and re-arms as it
/// runs). Popping the earlier of the two heads delivers exactly the
/// `(time, event)` sequence one `EventQueue` fed the same pushes would,
/// ties included, while the frequently pushed internal events sift
/// through a heap that holds only their own kind.
#[derive(Debug)]
pub struct SplitEventQueue<E> {
    external: BinaryHeap<Entry<E>>,
    internal: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> SplitEventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            external: BinaryHeap::new(),
            internal: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules an external `event` at `time`.
    pub fn push_external(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.external.push(Entry { time, seq, event });
    }

    /// Schedules an internal `event` at `time`.
    pub fn push_internal(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq();
        self.internal.push(Entry { time, seq, event });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Removes and returns the earliest event of either kind.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // `Entry` orders earliest-first as the *greatest* element.
        let heap = match (self.external.peek(), self.internal.peek()) {
            (Some(ext), Some(int)) if ext > int => &mut self.external,
            (Some(_), None) => &mut self.external,
            _ => &mut self.internal,
        };
        heap.pop().map(|e| (e.time, e.event))
    }

    /// Time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.external.peek(), self.internal.peek()) {
            (Some(ext), Some(int)) => Some(ext.time.min(int.time)),
            (ext, int) => ext.or(int).map(|e| e.time),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.external.len() + self.internal.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.external.is_empty() && self.internal.is_empty()
    }

    /// Drops every pending event. The sequence counter keeps counting, as
    /// it would had each event been popped.
    pub fn clear(&mut self) {
        self.external.clear();
        self.internal.clear();
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
        q.push_internal(SimTime(1.0), "b");
        q.push_external(SimTime(1.0), "c");
        q.push_internal(SimTime(0.5), "first");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime(0.5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["first", "a", "b", "c"]);
        assert!(q.is_empty());
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
