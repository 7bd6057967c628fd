//! The coordinator-side collector: merges per-node trace buffers into one
//! deterministic stream and keeps the metrics registry incrementally.

use std::collections::BTreeMap;

use crate::event::{TraceEvent, TraceEventKind};
use crate::registry::{TelemetrySnapshot, FRONT_DOOR_CLASS};
use crate::trace::TraceLog;

/// The name an event's model or track reads under when it has none.
const UNKNOWN: &str = "<unknown>";

/// The value of `map` under `key`, inserted with its default the first
/// time `key` appears: only that first lookup allocates the key.
fn entry<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("inserted above")
}

/// Merges coordinator and per-node event streams deterministically and
/// maintains the [`TelemetrySnapshot`] registry as events arrive.
///
/// Owned by the fleet coordinator. Node buffers are absorbed at
/// deterministic virtual-time points in node-index order; the merged log
/// is materialized by [`Collector::log`], sorted by
/// `(virtual time, track)` with a stable tie-break on absorb order — the
/// ordering that makes traces independent of when buffers are pulled.
#[derive(Debug)]
pub struct Collector {
    models: Vec<String>,
    tracks: Vec<String>,
    classes: Vec<String>,
    events: Vec<TraceEvent>,
    snapshot: TelemetrySnapshot,
}

impl Collector {
    /// A collector over the given model-name table. Track 0 (the
    /// coordinator) is pre-registered; node tracks follow via
    /// [`Collector::register_track`].
    #[must_use]
    pub fn new(models: Vec<String>) -> Self {
        Self {
            models,
            tracks: vec!["coordinator".to_string()],
            classes: vec!["coordinator".to_string()],
            events: Vec::new(),
            snapshot: TelemetrySnapshot::default(),
        }
    }

    /// Registers a node track (name + node-class label, e.g.
    /// `"64c/veltair-full"`) and returns its track id.
    pub fn register_track(&mut self, name: &str, class: &str) -> u32 {
        self.tracks.push(name.to_string());
        self.classes.push(class.to_string());
        (self.tracks.len() - 1) as u32
    }

    /// Relabels a node track's class, e.g. after its policy changed.
    /// Events absorbed from then on count under `class`; the violation
    /// cells of events absorbed earlier keep the old label.
    pub fn set_class(&mut self, track: u32, class: &str) {
        if let Some(slot) = self.classes.get_mut(track as usize) {
            *slot = class.to_string();
        }
    }

    /// Records one coordinator event (track 0) at virtual time `at_s`.
    pub fn coordinator(&mut self, at_s: f64, kind: TraceEventKind) {
        self.account(0, &kind);
        self.events.push(TraceEvent {
            at_s,
            track: 0,
            kind,
        });
    }

    /// Absorbs a node's drained `(time, kind)` pairs under `track`,
    /// rewriting driver-local query indices into fleet-wide ids through
    /// `map` (`map[local] == id`). `events` is consumed (left empty,
    /// capacity retained).
    ///
    /// Call order is the determinism seam: the fleet pulls every node in
    /// roster order at fixed virtual-time points.
    pub fn absorb_events(
        &mut self,
        track: u32,
        events: &mut Vec<(f64, TraceEventKind)>,
        map: &[u64],
    ) {
        for (at_s, mut kind) in events.drain(..) {
            kind.remap_query(|q| map.get(q as usize).copied().unwrap_or(q));
            self.account(track, &kind);
            self.events.push(TraceEvent { at_s, track, kind });
        }
    }

    /// Counts one event in the registry. Names are looked up by `&str`,
    /// so a model or class allocates only the first time it appears.
    fn account(&mut self, track: u32, kind: &TraceEventKind) {
        let Self {
            models,
            classes,
            snapshot,
            ..
        } = self;
        let model_name = |model: u32| models.get(model as usize).map_or(UNKNOWN, String::as_str);
        let class = classes.get(track as usize).map_or(UNKNOWN, String::as_str);
        snapshot.events_recorded += 1;
        let c = &mut snapshot.counts;
        match kind {
            TraceEventKind::Submitted { .. } => c.submitted += 1,
            TraceEventKind::Routed { .. } => c.routed += 1,
            TraceEventKind::Admitted { .. } => c.admitted += 1,
            TraceEventKind::Deferred { .. } => c.deferred += 1,
            TraceEventKind::Requeued { .. } => c.requeued += 1,
            TraceEventKind::Dispatched { .. } => c.dispatched += 1,
            TraceEventKind::NodeJoined { .. } => c.node_joined += 1,
            TraceEventKind::NodeStalled { .. } => c.node_stalled += 1,
            TraceEventKind::NodeRecovered { .. } => c.node_recovered += 1,
            TraceEventKind::NodeDraining { .. } => c.node_draining += 1,
            TraceEventKind::NodeKilled { .. } => c.node_killed += 1,
            TraceEventKind::NodeRetired { .. } => c.node_retired += 1,
            TraceEventKind::ScaleOut { .. } => c.scale_out += 1,
            TraceEventKind::ScaleIn { .. } => c.scale_in += 1,
            TraceEventKind::Shed { model, .. } => {
                c.shed += 1;
                let row = entry(&mut snapshot.violations, FRONT_DOOR_CLASS);
                entry(row, model_name(*model)).shed += 1;
            }
            TraceEventKind::Completed {
                model, latency_s, ..
            } => {
                c.completed += 1;
                let model = model_name(*model);
                snapshot.latency.record(*latency_s);
                entry(&mut snapshot.per_model_latency, model).record(*latency_s);
                let row = entry(&mut snapshot.violations, class);
                entry(row, model).completed += 1;
            }
            TraceEventKind::Violated { model, .. } => {
                c.violated += 1;
                let row = entry(&mut snapshot.violations, class);
                entry(row, model_name(*model)).violated += 1;
            }
        }
    }

    /// A point-in-time copy of the metrics registry.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot.clone()
    }

    /// Materializes the merged trace: every absorbed event, stably
    /// sorted by `(virtual time, track)` — coordinator first within an
    /// instant — plus the name tables the log renders with.
    #[must_use]
    pub fn log(&self) -> TraceLog {
        let mut events = self.events.clone();
        events.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then_with(|| a.track.cmp(&b.track))
        });
        TraceLog {
            events,
            tracks: self.tracks.clone(),
            classes: self.classes.clone(),
            models: self.models.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_orders_by_time_then_track_and_accounts() {
        let mut c = Collector::new(vec!["m".to_string()]);
        let n0 = c.register_track("node-0", "8c/test");
        let mut drained = vec![(
            2.0,
            TraceEventKind::Completed {
                query: 0,
                model: 0,
                latency_s: 0.5,
                qos_s: 1.0,
            },
        )];
        c.coordinator(2.0, TraceEventKind::Submitted { query: 1, model: 0 });
        c.coordinator(1.0, TraceEventKind::Submitted { query: 0, model: 0 });
        c.absorb_events(n0, &mut drained, &[7]);
        assert!(drained.is_empty());
        let log = c.log();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events[0].at_s, 1.0);
        // Same instant: coordinator (track 0) precedes node tracks.
        assert_eq!(log.events[1].track, 0);
        assert_eq!(log.events[2].track, n0);
        assert_eq!(log.events[2].kind.query(), Some(7));
        let snap = c.snapshot();
        assert_eq!(snap.counts.submitted, 2);
        assert_eq!(snap.counts.completed, 1);
        assert_eq!(snap.latency.count(), 1);
        assert_eq!(snap.violations["8c/test"]["m"].completed, 1);
    }
}
