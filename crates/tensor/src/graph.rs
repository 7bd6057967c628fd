//! Linearized model graphs.
//!
//! The schedulers in the paper treat a DNN as an ordered layer sequence
//! (branching subgraphs such as inception cells are linearized in
//! topological order, which is how a single-query execution engine runs them
//! anyway). [`ModelGraph`] is that sequence plus aggregate accounting.

use crate::fusion::{fuse_layers, FusedUnit};
use crate::layer::Layer;

/// An inference model: a named, ordered sequence of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    /// Model name (e.g. `resnet50`).
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
}

impl ModelGraph {
    /// Creates a graph from a layer sequence.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — an empty model cannot be scheduled.
    #[must_use]
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        assert!(
            !layers.is_empty(),
            "a model must contain at least one layer"
        );
        Self {
            name: name.into(),
            layers,
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph is empty (never true for a constructed graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total FLOPs over all layers.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Total weight bytes (the model's parameter size).
    #[must_use]
    pub fn total_weight_bytes(&self) -> f64 {
        self.layers.iter().map(Layer::weight_bytes).sum()
    }

    /// Applies the standard fusion patterns and returns the fused units that
    /// the compiler schedules.
    #[must_use]
    pub fn fused_units(&self) -> Vec<FusedUnit> {
        fuse_layers(&self.layers)
    }

    /// Count of compute-intensive (schedulable) layers.
    #[must_use]
    pub fn compute_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.op.is_compute_intensive())
            .count()
    }
}

impl std::fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} layers, {:.2} GFLOPs, {:.1} MB weights",
            self.name,
            self.len(),
            self.total_flops() / 1e9,
            self.total_weight_bytes() / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ActKind;
    use crate::shape::FeatureMap;

    fn tiny_model() -> ModelGraph {
        let fm = FeatureMap::nchw(1, 3, 32, 32);
        let c1 = Layer::conv2d("c1", fm, 16, (3, 3), (1, 1), (1, 1));
        let r1 = Layer::activation("r1", c1.output(), ActKind::Relu);
        let c2 = Layer::conv2d("c2", c1.output(), 32, (3, 3), (2, 2), (1, 1));
        ModelGraph::new("tiny", vec![c1, r1, c2])
    }

    #[test]
    fn aggregates_are_sums() {
        let m = tiny_model();
        let f: f64 = m.layers.iter().map(Layer::flops).sum();
        assert!((m.total_flops() - f).abs() < 1e-9);
        assert_eq!(m.compute_layer_count(), 2);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn fused_units_cover_all_layers() {
        let m = tiny_model();
        let units = m.fused_units();
        let covered: usize = units.iter().map(|u| 1 + u.epilogue.len()).sum();
        assert_eq!(covered, m.len());
        assert_eq!(units.len(), 2);
    }

    #[test]
    fn display_mentions_name_and_sizes() {
        let s = tiny_model().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("layers"));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_panics() {
        let _ = ModelGraph::new("empty", vec![]);
    }
}
