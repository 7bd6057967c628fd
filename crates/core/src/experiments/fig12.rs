//! Figure 12: the headline result — maximum QPS with 95 % of queries
//! QoS-satisfied, for Planaria / PREMA / VELTAIR-AS / -AC / -FULL across
//! light, medium, heavy, and mixed workloads, normalized to Planaria.

use std::collections::BTreeMap;

use veltair_sched::{Policy, WorkloadSpec};

use super::ExpContext;
use crate::metrics::{max_qps_at_qos, QpsResult, QpsSearchConfig};

/// One workload column of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Column label (model or class name).
    pub label: String,
    /// Absolute max QPS per policy (Fig. 12 plots these normalized).
    pub qps: BTreeMap<String, f64>,
    /// Mean latency (seconds) at the max-QPS point, per policy (Fig. 13).
    pub latency_s: BTreeMap<String, f64>,
}

/// Figure 12 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// All workload columns in plot order.
    pub columns: Vec<WorkloadResult>,
    /// Policies in plot order.
    pub policies: Vec<String>,
}

/// The workload columns of the figure: the seven single-model streams,
/// the three class aggregates, and the full mix.
#[must_use]
pub fn workload_columns() -> Vec<(String, Vec<(String, f64)>)> {
    let spec = |n: &str| veltair_models::by_name(n).expect("zoo model");
    let single = |n: &str| (n.to_string(), vec![(n.to_string(), 1.0)]);
    let class_mix = |label: &str, names: &[&str]| {
        let streams = names
            .iter()
            .map(|n| ((*n).to_string(), 1.0 / spec(n).qos_ms))
            .collect::<Vec<_>>();
        (label.to_string(), streams)
    };
    vec![
        single("efficientnet_b0"),
        single("mobilenet_v2"),
        single("tiny_yolo_v2"),
        class_mix(
            "Light",
            &["efficientnet_b0", "mobilenet_v2", "tiny_yolo_v2"],
        ),
        single("resnet50"),
        single("googlenet"),
        class_mix("Medium", &["resnet50", "googlenet"]),
        single("ssd_resnet34"),
        single("bert_large"),
        class_mix("Heavy", &["ssd_resnet34", "bert_large"]),
        class_mix(
            "Mix",
            &[
                "efficientnet_b0",
                "mobilenet_v2",
                "tiny_yolo_v2",
                "resnet50",
                "googlenet",
                "ssd_resnet34",
                "bert_large",
            ],
        ),
    ]
}

/// Runs the full Figure 12 sweep. Columns are searched in parallel; each
/// search bisects the arrival rate for each policy.
#[must_use]
pub fn run(ctx: &ExpContext) -> Fig12 {
    let policies = Policy::figure12_set();
    let columns_spec = workload_columns();
    // Pre-compile everything once (the cache is shared).
    for m in veltair_models::all_models() {
        let _ = ctx.model(&m.graph.name);
    }
    let cfg = QpsSearchConfig::figure12();

    let mut columns: Vec<Option<WorkloadResult>> = Vec::new();
    columns.resize_with(columns_spec.len(), || None);
    std::thread::scope(|scope| {
        for (slot, (label, streams)) in columns.iter_mut().zip(&columns_spec) {
            let cfg = cfg.clone();
            scope.spawn(move || {
                let names: Vec<&str> = streams.iter().map(|(n, _)| n.as_str()).collect();
                let stream_refs: Vec<(&str, f64)> =
                    streams.iter().map(|(n, r)| (n.as_str(), *r)).collect();
                let workload = WorkloadSpec::mix(&stream_refs, cfg.queries);
                let mut qps = BTreeMap::new();
                let mut latency = BTreeMap::new();
                for policy in policies {
                    let engine = ctx.engine(policy, &names);
                    let QpsResult {
                        qps: q,
                        avg_latency_s,
                        ..
                    } = max_qps_at_qos(&engine, &workload, &cfg);
                    qps.insert(policy.name(), q);
                    latency.insert(policy.name(), avg_latency_s);
                }
                *slot = Some(WorkloadResult {
                    label: label.clone(),
                    qps,
                    latency_s: latency,
                });
            });
        }
    });

    Fig12 {
        columns: columns
            .into_iter()
            .map(|c| c.expect("all columns filled"))
            .collect(),
        policies: policies.iter().map(Policy::name).collect(),
    }
}

impl Fig12 {
    /// QPS of `policy` on `column`, normalized to Planaria.
    #[must_use]
    pub fn normalized(&self, column: &str, policy: &str) -> f64 {
        let col = self
            .columns
            .iter()
            .find(|c| c.label == column)
            .expect("column exists");
        col.qps[policy] / col.qps["Planaria"]
    }

    /// Geometric-mean improvement of one policy over Planaria across a set
    /// of columns.
    #[must_use]
    pub fn mean_improvement(&self, policy: &str, columns: &[&str]) -> f64 {
        let prod: f64 = columns.iter().map(|c| self.normalized(c, policy)).product();
        prod.powf(1.0 / columns.len() as f64) - 1.0
    }
}

impl std::fmt::Display for Fig12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 12: normalized max QPS at 90% QoS satisfaction (Planaria = 1.00; paper uses 95%, see QpsSearchConfig::figure12)")?;
        write!(f, "  {:<16}", "workload")?;
        for p in &self.policies {
            write!(f, " {p:>13}")?;
        }
        writeln!(f)?;
        for col in &self.columns {
            write!(f, "  {:<16}", col.label)?;
            let base = col.qps["Planaria"];
            for p in &self.policies {
                write!(f, " {:>9.2} ({:>4.0})", col.qps[p] / base, col.qps[p])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingEngine;

    /// A trimmed, fast variant of the Fig. 12 ordering check: FULL must
    /// beat Planaria and PREMA on a light single-model workload.
    #[test]
    fn full_beats_baselines_on_light_workload() {
        let ctx = ExpContext::new();
        let cfg = QpsSearchConfig {
            queries: 120,
            seed: 1,
            iterations: 5,
            satisfaction_target: 0.95,
        };
        let workload = WorkloadSpec::single("mobilenet_v2", 10.0, cfg.queries);
        let q = |policy| {
            let engine: ServingEngine = ctx.engine(policy, &["mobilenet_v2"]);
            max_qps_at_qos(&engine, &workload, &cfg).qps
        };
        let planaria = q(Policy::Planaria);
        let prema = q(Policy::Prema);
        let full = q(Policy::VeltairFull);
        assert!(full > prema, "FULL {full} <= PREMA {prema}");
        assert!(
            full >= planaria * 0.95,
            "FULL {full} far below Planaria {planaria}"
        );
    }
}
