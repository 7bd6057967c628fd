//! The determinism contract of the flight recorder: the merged trace
//! stream of a churning fleet, rendered to Chrome trace-event JSON, is
//! pinned byte for byte by recorded FNV-1a digests, so a change that
//! moves, drops, adds or reorders a single event fails.
//!
//! A second invariant rides along: attaching the recorder must not
//! perturb the simulation. A traced run's `FleetReport` equals the
//! untraced run's report, modulo the `telemetry` field itself.

use std::sync::OnceLock;

use veltair::prelude::*;

/// The recorded digests of [`traced_run`]'s Chrome JSON, per seed.
/// Identical in debug and release builds.
const TRACE_DIGESTS: [(u64, u64); 3] = [
    (11, 0xa87d_33c4_18bc_14cc),
    (42, 0x6296_6224_bedf_30a5),
    (97, 0x7cb8_ced8_4d00_67f9),
];

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn compiled_mix() -> &'static [CompiledModel] {
    static MODELS: OnceLock<Vec<CompiledModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast();
        ["mobilenet_v2", "tiny_yolo_v2", "resnet50"]
            .iter()
            .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
            .collect()
    })
}

/// Heterogeneous fleet: asymmetric capacity so routing discriminates and
/// per-node event loops do different amounts of work.
fn nodes() -> Vec<NodeSpec> {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    vec![
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("legacy-0", big, Policy::Prema),
        NodeSpec::new("edge-0", edge.clone(), Policy::VeltairFull),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ]
}

fn bursty_workload(queries: usize) -> WorkloadSpec {
    let streams: Vec<(&str, f64)> = ["mobilenet_v2", "tiny_yolo_v2", "resnet50"]
        .iter()
        .map(|n| (*n, 40.0))
        .collect();
    WorkloadSpec::try_bursty_mix(&streams, queries, 0.3, 0.7)
        .expect("valid bursty mix")
        .scaled_to(250.0)
}

const ADMISSION: AdmissionKind = AdmissionKind::SloAware(SloAdmissionConfig {
    shed_threshold: 0.9,
    defer_threshold: 0.6,
    defer_s: 0.05,
    max_defers: 2,
});

/// One traced run with mid-run churn (a drain and a join, so node
/// lifecycle and requeue events are in the stream), returning the
/// Chrome-JSON rendering of the merged trace, the registry snapshot,
/// and the final report.
fn traced_run(seed: u64) -> (String, TelemetrySnapshot, FleetReport) {
    let specs = nodes();
    let mut fleet = Fleet::new(
        compiled_mix(),
        &specs,
        RouterKind::InterferenceAware.build(),
        ADMISSION.build(),
    )
    .expect("valid fleet")
    .with_telemetry(TraceConfig::unbounded());
    fleet
        .submit_stream(&bursty_workload(60), seed)
        .expect("registered models");
    fleet.run_until(0.03).expect("finite target");
    fleet.kill_node(0).expect("live node");
    fleet.run_until(0.08).expect("finite target");
    fleet.drain_node(1).expect("live node");
    fleet.run_until(0.15).expect("finite target");
    let edge = MachineConfig::desktop_8core();
    fleet
        .add_node(&NodeSpec::new("late-0", edge, Policy::VeltairFull))
        .expect("valid node");
    fleet.run_to_completion();
    let json = fleet
        .trace_log()
        .expect("telemetry enabled")
        .to_chrome_json();
    let tm = fleet.telemetry_snapshot().expect("telemetry enabled");
    (json, tm, fleet.finish())
}

/// The headline pin: the merged trace's Chrome JSON hashes to its
/// recorded digest on three seeds, each run serving work and re-routing
/// the killed and drained nodes' queries.
#[test]
fn merged_trace_matches_its_recorded_digests() {
    for (seed, digest) in TRACE_DIGESTS {
        let (json, tm, report) = traced_run(seed);
        assert!(
            report.merged.total_queries() > 0,
            "seed {seed}: the run served nothing"
        );
        assert!(tm.counts.submitted > 0 && tm.counts.requeued > 0);
        let got = fnv1a(json.as_bytes());
        assert_eq!(
            got, digest,
            "seed {seed}: the merged trace JSON hashes to {got:#018x}, recorded {digest:#018x}"
        );
    }
}

/// Attaching the recorder never perturbs the simulation: a traced run's
/// report equals the untraced run's, modulo the `telemetry` field.
#[test]
fn tracing_does_not_perturb_the_run() {
    let specs = nodes();
    for seed in [11, 42] {
        let run = |telemetry: bool| -> FleetReport {
            let mut fleet = Fleet::new(
                compiled_mix(),
                &specs,
                RouterKind::InterferenceAware.build(),
                ADMISSION.build(),
            )
            .expect("valid fleet");
            if telemetry {
                fleet.enable_telemetry(TraceConfig::unbounded());
            }
            fleet
                .submit_stream(&bursty_workload(50), seed)
                .expect("registered models");
            fleet.run_until(0.05).expect("finite target");
            fleet.kill_node(3).expect("live node");
            fleet.run_to_completion();
            fleet.finish()
        };
        let untraced = run(false);
        let mut traced = run(true);
        assert!(untraced.telemetry.is_none());
        assert!(
            traced.telemetry.is_some(),
            "seed {seed}: traced run lost its registry snapshot"
        );
        traced.telemetry = None;
        assert_eq!(
            traced, untraced,
            "seed {seed}: attaching the recorder changed the simulation"
        );
    }
}

/// The bounded flight recorder trades node-side completeness for
/// memory, and does so *accountably*: every event is either absorbed or
/// counted as dropped (absorbed + dropped equals the unbounded total),
/// and coordinator-side counts — submitted, routed, deferred, shed,
/// requeued — stay exact because track 0 bypasses the node rings.
#[test]
fn flight_recorder_mode_drops_accountably() {
    let run = |config: TraceConfig| -> (TelemetrySnapshot, usize) {
        let specs = nodes();
        let mut fleet = Fleet::new(
            compiled_mix(),
            &specs,
            RouterKind::LeastOutstanding.build(),
            ADMISSION.build(),
        )
        .expect("valid fleet")
        .with_telemetry(config);
        fleet
            .submit_stream(&bursty_workload(60), 42)
            .expect("registered models");
        fleet.run_to_completion();
        let events = fleet.trace_log().expect("telemetry enabled").events.len();
        (
            fleet.telemetry_snapshot().expect("telemetry enabled"),
            events,
        )
    };
    let (full, full_events) = run(TraceConfig::unbounded());
    let (bounded, bounded_events) = run(TraceConfig::flight_recorder(16));
    assert_eq!(full.events_dropped, 0, "unbounded mode never drops");
    assert!(
        bounded.events_dropped > 0,
        "a 16-slot ring under this load must drop events"
    );
    assert_eq!(
        bounded.events_recorded + bounded.events_dropped,
        full.events_recorded,
        "absorbed + dropped must conserve the unbounded event total"
    );
    assert!(bounded_events < full_events);
    // Coordinator-side counts are exact in flight-recorder mode.
    assert_eq!(bounded.counts.submitted, full.counts.submitted);
    assert_eq!(bounded.counts.routed, full.counts.routed);
    assert_eq!(bounded.counts.admitted, full.counts.admitted);
    assert_eq!(bounded.counts.deferred, full.counts.deferred);
    assert_eq!(bounded.counts.shed, full.counts.shed);
    // Node-side streams are the lossy part — the ring keeps only the
    // most recent events between coordinator pulls.
    assert!(bounded.counts.completed <= full.counts.completed);
}
