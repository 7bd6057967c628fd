//! The metric catalogue and the statistics helpers behind it.
//!
//! Every workload prints the same names: a layer a workload never enters
//! reads 0 there (for example `cluster.*` on the single-node workloads),
//! which is also the benchmark's prediction for that pairing.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_qps", "queries/host-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("qos_satisfaction", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_mean_ms", "ms"),
    ("goodput_qps", "queries/sim-s"),
];

/// The seven zoo models, in catalogue order.
pub const ZOO: [&str; 7] = [
    "resnet50",
    "googlenet",
    "efficientnet_b0",
    "mobilenet_v2",
    "ssd_resnet34",
    "tiny_yolo_v2",
    "bert_large",
];

/// Short metric-name keys of the five Fig. 12 policies, in plot order.
pub const POLICY_KEYS: [&str; 5] = ["planaria", "prema", "as", "ac", "full"];

/// The Fig. 12 columns the capacity search covers.
pub const COLUMNS: [&str; 3] = ["Light", "Medium", "Mix"];

/// The policies the capacity search compares.
pub const SEARCH_POLICIES: [&str; 2] = ["full", "planaria"];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("compiler.compile_ms".into(), "ms")];
    for model in ZOO {
        m.push((format!("compiler.compile_ms.{model}"), "ms"));
    }
    for name in [
        "compiler.versions",
        "compiler.search_generated",
        "compiler.search_lowered",
        "compiler.cache_hits",
        "compiler.cache_misses",
        "sched.events",
    ] {
        m.push((name.into(), "count"));
    }
    m.push(("sched.material_frac".into(), "ratio"));
    for name in [
        "sched.ns_per_event",
        "sched.step_ns.material.p50",
        "sched.step_ns.material.p99",
        "sched.step_ns.other.p50",
        "sched.projection_ns.p50",
        "sched.projection_ns.p99",
    ] {
        m.push((name.into(), "ns"));
    }
    for name in ["sched.projection_probes", "sched.dispatches"] {
        m.push((name.into(), "count"));
    }
    m.push(("sched.conflict_rate".into(), "ratio"));
    m.push(("sched.preemptions".into(), "count"));
    m.push(("sched.avg_cores".into(), "cores"));
    for p in POLICY_KEYS {
        m.push((format!("sched.sim_qps.{p}"), "queries/host-s"));
        m.push((format!("sched.qos_satisfaction.{p}"), "ratio"));
    }
    for c in COLUMNS {
        let c = c.to_lowercase();
        for p in SEARCH_POLICIES {
            m.push((format!("core.search_ms.{c}.{p}"), "ms"));
            m.push((format!("core.max_qps.{c}.{p}"), "QPS"));
        }
        m.push((format!("core.qps_gain.{c}"), "ratio"));
    }
    m.push(("core.search_probes".into(), "count"));
    m.push(("core.max_qps_at_qos".into(), "QPS"));
    m.push(("core.qps_gain_vs_planaria".into(), "ratio"));
    for name in [
        "cluster.submit_ms",
        "cluster.slice_ms.p50",
        "cluster.slice_ms.p99",
        "cluster.drain_ms",
    ] {
        m.push((name.into(), "ms"));
    }
    m.push(("cluster.routing_decisions".into(), "count"));
    for name in [
        "cluster.examined_per_decision",
        "cluster.index_updates_per_decision",
        "cluster.round_trips_per_1k_decisions",
    ] {
        m.push((name.into(), "ratio"));
    }
    for name in ["cluster.deferrals", "cluster.shed", "cluster.rerouted"] {
        m.push((name.into(), "count"));
    }
    m.push(("bench.trace_qps_ratio".into(), "ratio"));
    m.push(("bench.latency_samples".into(), "count"));
    m
}

/// Metric values by name; names outside the catalogue are a bug.
pub type Values = BTreeMap<String, f64>;

/// Nearest-rank percentile (`0 < p <= 100`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
