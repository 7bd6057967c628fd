//! The evaluated model catalog (paper Table 2).

use veltair_tensor::ModelGraph;

/// Workload weight class from the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Small models with a 10 ms QoS target.
    Light,
    /// Mid-size classifiers with a 15 ms QoS target.
    Medium,
    /// Large detection / NMT models (100-130 ms QoS).
    Heavy,
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadClass::Light => "Light",
            WorkloadClass::Medium => "Medium",
            WorkloadClass::Heavy => "Heavy",
        };
        f.write_str(s)
    }
}

/// A model plus its serving contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The layer graph.
    pub graph: ModelGraph,
    /// Latency QoS target in milliseconds (MLPerf server guidance).
    pub qos_ms: f64,
    /// Workload weight class.
    pub class: WorkloadClass,
}

impl ModelSpec {
    /// QoS target in seconds.
    #[must_use]
    pub fn qos_s(&self) -> f64 {
        self.qos_ms * 1e-3
    }

    /// Model name shorthand.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.graph.name
    }
}

/// All seven evaluated models, in Table 2 order.
#[must_use]
pub fn all_models() -> Vec<ModelSpec> {
    vec![
        crate::resnet::resnet50(),
        crate::googlenet::googlenet(),
        crate::efficientnet::efficientnet_b0(),
        crate::mobilenet::mobilenet_v2(),
        crate::ssd::ssd_resnet34(),
        crate::yolo::tiny_yolo_v2(),
        crate::bert::bert_large(),
    ]
}

/// Looks a model up by its canonical name.
#[must_use]
pub fn by_name(name: &str) -> Option<ModelSpec> {
    all_models().into_iter().find(|m| m.graph.name == name)
}

/// Models of one class, in catalog order.
#[must_use]
pub fn by_class(class: WorkloadClass) -> Vec<ModelSpec> {
    all_models()
        .into_iter()
        .filter(|m| m.class == class)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_2() {
        let all = all_models();
        assert_eq!(all.len(), 7);
        let q = |n: &str| by_name(n).unwrap();
        assert_eq!(q("resnet50").qos_ms, 15.0);
        assert_eq!(q("googlenet").qos_ms, 15.0);
        assert_eq!(q("efficientnet_b0").qos_ms, 10.0);
        assert_eq!(q("mobilenet_v2").qos_ms, 10.0);
        assert_eq!(q("ssd_resnet34").qos_ms, 100.0);
        assert_eq!(q("tiny_yolo_v2").qos_ms, 10.0);
        assert_eq!(q("bert_large").qos_ms, 130.0);
    }

    #[test]
    fn class_partition_is_total() {
        let l = by_class(WorkloadClass::Light).len();
        let m = by_class(WorkloadClass::Medium).len();
        let h = by_class(WorkloadClass::Heavy).len();
        assert_eq!(l + m + h, 7);
        assert_eq!(l, 3);
        assert_eq!(m, 2);
        assert_eq!(h, 2);
    }

    #[test]
    fn unknown_model_is_none() {
        assert!(by_name("alexnet").is_none());
    }

    #[test]
    fn flop_ordering_matches_classes() {
        // Every heavy model out-computes every light model by a wide margin.
        let lights = by_class(WorkloadClass::Light);
        let heavies = by_class(WorkloadClass::Heavy);
        let max_light = lights
            .iter()
            .map(|m| m.graph.total_flops())
            .fold(0.0, f64::max);
        let min_heavy = heavies
            .iter()
            .map(|m| m.graph.total_flops())
            .fold(f64::INFINITY, f64::min);
        assert!(min_heavy > 5.0 * max_light);
    }
}
