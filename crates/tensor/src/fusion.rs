//! Operator fusion patterns.
//!
//! The paper's compiler "enables the operator fusion optimization in the
//! auto-scheduler, which includes common fusion patterns like `conv-relu`
//! and `conv-batchnorm-relu`" (§4.1). We reproduce that pipeline stage here:
//! a compute-intensive producer absorbs the run of cheap element-wise
//! epilogues that follows it, eliminating the intermediate feature-map
//! round-trips to memory.

use crate::layer::Layer;

/// A fused scheduling unit: one producer layer plus zero or more element-wise
/// epilogue layers computed in-register before the output is stored.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedUnit {
    /// The producer (conv / dense / matmul, or a standalone cheap operator
    /// that had no producer to fuse into).
    pub base: Layer,
    /// Element-wise operators fused after the producer, in program order.
    pub epilogue: Vec<Layer>,
}

impl FusedUnit {
    /// A unit consisting of a single unfused layer.
    #[must_use]
    pub fn solo(base: Layer) -> Self {
        Self {
            base,
            epilogue: Vec::new(),
        }
    }

    /// Display name: producer name plus fused mnemonics.
    #[must_use]
    pub fn name(&self) -> String {
        if self.epilogue.is_empty() {
            self.base.name.clone()
        } else {
            let tail: Vec<&str> = self.epilogue.iter().map(|l| l.op.mnemonic()).collect();
            format!("{}+{}", self.base.name, tail.join("+"))
        }
    }

    /// Total FLOPs of the fused unit.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.base.flops() + self.epilogue.iter().map(Layer::flops).sum::<f64>()
    }

    /// Weight bytes of the fused unit (producer + epilogue affine params).
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        self.base.weight_bytes() + self.epilogue.iter().map(Layer::weight_bytes).sum::<f64>()
    }

    /// Input bytes: the producer's inputs plus any *extra* operands epilogue
    /// layers read (e.g. the residual tensor of an `EltwiseAdd`). The
    /// producer's own output never round-trips to memory.
    #[must_use]
    pub fn input_bytes(&self) -> f64 {
        let extra: f64 = self
            .epilogue
            .iter()
            .map(|l| {
                // One of the epilogue inputs is the in-register intermediate;
                // only additional operands cost memory traffic.
                (l.input_bytes() - l.input.bytes(l.dtype) as f64).max(0.0)
            })
            .sum();
        self.base.input_bytes() + extra
    }

    /// Output bytes written by the unit (the final epilogue's output).
    #[must_use]
    pub fn output_bytes(&self) -> f64 {
        self.epilogue
            .last()
            .map_or_else(|| self.base.output_bytes(), Layer::output_bytes)
    }

    /// Total bytes at perfect reuse.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes() + self.input_bytes() + self.output_bytes()
    }

    /// Memory traffic saved by fusing, relative to running each layer
    /// separately (the intermediates that no longer hit memory).
    #[must_use]
    pub fn traffic_saved_bytes(&self) -> f64 {
        if self.epilogue.is_empty() {
            return 0.0;
        }
        // Each fused boundary saves one store + one load of the intermediate.
        let mut saved = 2.0 * self.base.output_bytes();
        for pair in self.epilogue.windows(2) {
            saved += 2.0 * pair[0].output_bytes();
        }
        saved
    }
}

/// Greedily fuses a layer sequence: every compute-intensive producer absorbs
/// the maximal run of fusable element-wise epilogues that follows it.
///
/// Standalone cheap layers (a pool between two convs, a softmax head) become
/// [`FusedUnit::solo`] units.
#[must_use]
pub fn fuse_layers(layers: &[Layer]) -> Vec<FusedUnit> {
    let mut units = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        let base = layers[i].clone();
        i += 1;
        if base.op.is_compute_intensive() {
            let mut epilogue = Vec::new();
            while i < layers.len() && layers[i].op.is_fusable_epilogue() {
                epilogue.push(layers[i].clone());
                i += 1;
            }
            units.push(FusedUnit { base, epilogue });
        } else {
            units.push(FusedUnit::solo(base));
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ActKind, OpKind, PoolKind};
    use crate::shape::FeatureMap;

    fn conv_bn_relu() -> Vec<Layer> {
        let fm = FeatureMap::nchw(1, 64, 56, 56);
        let conv = Layer::conv2d("c1", fm, 64, (3, 3), (1, 1), (1, 1));
        let out = conv.output();
        vec![
            conv,
            Layer::new("bn1", OpKind::BatchNorm, out),
            Layer::activation("relu1", out, ActKind::Relu),
        ]
    }

    #[test]
    fn conv_bn_relu_fuses_to_one_unit() {
        let units = fuse_layers(&conv_bn_relu());
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].epilogue.len(), 2);
        assert_eq!(units[0].name(), "c1+bn+act");
    }

    #[test]
    fn fusion_conserves_flops() {
        let layers = conv_bn_relu();
        let sum: f64 = layers.iter().map(Layer::flops).sum();
        let units = fuse_layers(&layers);
        let fused: f64 = units.iter().map(FusedUnit::flops).sum();
        assert!((sum - fused).abs() < 1e-6);
    }

    #[test]
    fn fusion_saves_intermediate_traffic() {
        let layers = conv_bn_relu();
        let unit = &fuse_layers(&layers)[0];
        let unfused: f64 = layers.iter().map(Layer::total_bytes).sum();
        assert!(unit.total_bytes() < unfused);
        assert!(unit.traffic_saved_bytes() > 0.0);
        // Saved = intermediates stored+loaded at two fused boundaries.
        let inter = layers[0].output_bytes();
        assert!((unit.traffic_saved_bytes() - 4.0 * inter).abs() < 1e-6);
    }

    #[test]
    fn pool_breaks_fusion_run() {
        let fm = FeatureMap::nchw(1, 64, 56, 56);
        let conv = Layer::conv2d("c1", fm, 64, (1, 1), (1, 1), (0, 0));
        let out = conv.output();
        let layers = vec![
            conv,
            Layer::new(
                "pool",
                OpKind::Pool {
                    kind: PoolKind::Max,
                    kernel: (2, 2),
                    stride: (2, 2),
                },
                out,
            ),
            Layer::activation("relu", FeatureMap::nchw(1, 64, 28, 28), ActKind::Relu),
        ];
        let units = fuse_layers(&layers);
        assert_eq!(units.len(), 3);
        assert!(units[0].epilogue.is_empty());
    }

    #[test]
    fn residual_add_extra_operand_counts_once() {
        let fm = FeatureMap::nchw(1, 256, 56, 56);
        let conv = Layer::conv2d("c", fm, 256, (1, 1), (1, 1), (0, 0));
        let out = conv.output();
        let layers = vec![conv.clone(), Layer::new("add", OpKind::EltwiseAdd, out)];
        let unit = &fuse_layers(&layers)[0];
        // Extra residual operand = one feature map.
        let expected = conv.input_bytes() + out.bytes(conv.dtype) as f64;
        assert!((unit.input_bytes() - expected).abs() < 1e-6);
    }

    #[test]
    fn empty_sequence_yields_no_units() {
        assert!(fuse_layers(&[]).is_empty());
    }
}
