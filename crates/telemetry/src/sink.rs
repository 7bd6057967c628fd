//! The emission buffer: [`RecorderSink`].

use std::collections::VecDeque;

use crate::event::TraceEventKind;

/// Where a driver writes lifecycle events: an append-only buffer,
/// optionally bounded into a flight-recorder ring that keeps the most
/// recent `capacity` events and counts what it dropped.
///
/// A sink is owned by exactly one emitter and is `Send`: the fleet's
/// work-stealing parallel stepper moves node drivers (and therefore
/// their sinks) across worker threads.
#[derive(Debug, Default)]
pub struct RecorderSink {
    buf: VecDeque<(f64, TraceEventKind)>,
    capacity: Option<usize>,
    dropped: u64,
}

impl RecorderSink {
    /// An unbounded recorder: keeps everything until drained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A bounded flight recorder keeping the most recent `capacity`
    /// events between drains; older events are dropped oldest-first and
    /// counted in [`RecorderSink::dropped`]. A zero capacity keeps
    /// nothing.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        Self {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Events currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records one event at virtual time `at_s`.
    pub fn record(&mut self, at_s: f64, kind: TraceEventKind) {
        if let Some(cap) = self.capacity {
            while self.buf.len() >= cap.max(1) {
                self.buf.pop_front();
                self.dropped += 1;
            }
            if cap == 0 {
                self.dropped += 1;
                return;
            }
        }
        self.buf.push_back((at_s, kind));
    }

    /// Moves every buffered event into `out` (oldest first), leaving the
    /// sink empty. Collectors call this at deterministic pull points.
    pub fn drain(&mut self, out: &mut Vec<(f64, TraceEventKind)>) {
        out.extend(self.buf.drain(..));
    }

    /// Events discarded so far by a bounded (flight-recorder) buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_ring_keeps_newest_and_counts_drops() {
        let mut sink = RecorderSink::bounded(2);
        for i in 0..5u64 {
            sink.record(i as f64, TraceEventKind::NodeJoined { node: i as u32 });
        }
        assert_eq!(sink.dropped(), 3);
        let mut out = Vec::new();
        sink.drain(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 3.0);
        assert_eq!(out[1].0, 4.0);
        assert!(sink.is_empty());
    }
}
