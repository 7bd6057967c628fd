//! A layer: an operator instance bound to a concrete input shape.

use crate::ops::{ActKind, OpKind, PoolKind};
use crate::shape::{DType, FeatureMap};

/// One layer of a DNN: an [`OpKind`] applied to a concrete input
/// [`FeatureMap`].
///
/// Layers expose the architectural profile (FLOPs, weight / activation bytes)
/// that both the compiler's cost model and the scheduler's core-requirement
/// estimation consume. All byte accounting assumes the layer's [`DType`].
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable unique-ish name (e.g. `res3a_branch2b`).
    pub name: String,
    /// The operator.
    pub op: OpKind,
    /// Input feature map shape.
    pub input: FeatureMap,
    /// Element type.
    pub dtype: DType,
}

impl Layer {
    /// Creates a layer, validating that the operator is compatible with the
    /// input shape.
    ///
    /// # Panics
    ///
    /// Panics if a convolution's `in_ch` disagrees with `input.c`, if
    /// `groups` does not divide both channel counts, or if a dense layer's
    /// `k` disagrees with the input features.
    #[must_use]
    pub fn new(name: impl Into<String>, op: OpKind, input: FeatureMap) -> Self {
        match op {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                groups,
                ..
            } => {
                assert_eq!(in_ch, input.c, "conv in_ch must match input channels");
                assert!(
                    groups > 0 && in_ch % groups == 0 && out_ch % groups == 0,
                    "groups must divide channels"
                );
            }
            OpKind::Dense { k, .. } => {
                assert_eq!(k, input.c, "dense k must match input features");
            }
            _ => {}
        }
        Self {
            name: name.into(),
            op,
            input,
            dtype: DType::F32,
        }
    }

    /// Convenience constructor for a standard (non-grouped) convolution.
    #[must_use]
    pub fn conv2d(
        name: impl Into<String>,
        input: FeatureMap,
        out_ch: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        Self::new(
            name,
            OpKind::Conv2d {
                in_ch: input.c,
                out_ch,
                kernel,
                stride,
                padding,
                groups: 1,
            },
            input,
        )
    }

    /// Convenience constructor for a depthwise convolution.
    #[must_use]
    pub fn dwconv2d(
        name: impl Into<String>,
        input: FeatureMap,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        Self::new(
            name,
            OpKind::Conv2d {
                in_ch: input.c,
                out_ch: input.c,
                kernel,
                stride,
                padding,
                groups: input.c,
            },
            input,
        )
    }

    /// Convenience constructor for a dense layer producing `out_features`.
    ///
    /// The GEMM `m` extent is the token count (`input.h * input.w`) and `k`
    /// the input features (`input.c`).
    #[must_use]
    pub fn dense(name: impl Into<String>, input: FeatureMap, out_features: usize) -> Self {
        let m = input.n * input.h * input.w;
        Self::new(
            name,
            OpKind::Dense {
                m,
                k: input.c,
                n: out_features,
            },
            input,
        )
    }

    /// Convenience constructor for an activation layer.
    #[must_use]
    pub fn activation(name: impl Into<String>, input: FeatureMap, kind: ActKind) -> Self {
        Self::new(name, OpKind::Activation(kind), input)
    }

    /// Output feature map implied by the operator and input shape.
    #[must_use]
    pub fn output(&self) -> FeatureMap {
        let i = self.input;
        match self.op {
            OpKind::Conv2d {
                out_ch,
                kernel,
                stride,
                padding,
                ..
            } => {
                let oh = conv_out(i.h, kernel.0, stride.0, padding.0);
                let ow = conv_out(i.w, kernel.1, stride.1, padding.1);
                FeatureMap::nchw(i.n, out_ch, oh, ow)
            }
            OpKind::Dense { m, n, .. } => {
                if m == 1 {
                    FeatureMap::nchw(i.n, n, 1, 1)
                } else {
                    FeatureMap::seq(m, n)
                }
            }
            OpKind::BatchedMatMul { batch, m, n, .. } => FeatureMap::seq(m, batch * n),
            OpKind::Pool {
                kind: PoolKind::GlobalAvg,
                ..
            } => FeatureMap::nchw(i.n, i.c, 1, 1),
            OpKind::Pool { kernel, stride, .. } => {
                let oh = conv_out(i.h, kernel.0, stride.0, 0).max(1);
                let ow = conv_out(i.w, kernel.1, stride.1, 0).max(1);
                FeatureMap::nchw(i.n, i.c, oh, ow)
            }
            OpKind::Activation(_)
            | OpKind::BatchNorm
            | OpKind::LayerNorm
            | OpKind::Softmax
            | OpKind::EltwiseAdd => i,
        }
    }

    /// Total floating-point operations (multiply and add counted separately).
    #[must_use]
    pub fn flops(&self) -> f64 {
        let out = self.output();
        match self.op {
            OpKind::Conv2d {
                in_ch,
                kernel,
                groups,
                ..
            } => 2.0 * out.elems() as f64 * (in_ch / groups) as f64 * (kernel.0 * kernel.1) as f64,
            OpKind::Dense { m, k, n } => 2.0 * m as f64 * k as f64 * n as f64,
            OpKind::BatchedMatMul { batch, m, k, n } => {
                2.0 * batch as f64 * m as f64 * k as f64 * n as f64
            }
            OpKind::Pool {
                kind: PoolKind::GlobalAvg,
                ..
            } => self.input.elems() as f64,
            OpKind::Pool { kernel, .. } => out.elems() as f64 * (kernel.0 * kernel.1) as f64,
            OpKind::Activation(ActKind::Relu | ActKind::Relu6) => out.elems() as f64,
            OpKind::Activation(ActKind::Sigmoid | ActKind::Swish) => 4.0 * out.elems() as f64,
            OpKind::Activation(ActKind::Gelu) => 8.0 * out.elems() as f64,
            OpKind::BatchNorm => 2.0 * out.elems() as f64,
            OpKind::LayerNorm => 8.0 * out.elems() as f64,
            OpKind::Softmax => 5.0 * out.elems() as f64,
            OpKind::EltwiseAdd => out.elems() as f64,
        }
    }

    /// Bytes of model parameters read by the layer.
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        let e = self.dtype.bytes() as f64;
        match self.op {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                groups,
                ..
            } => (out_ch * (in_ch / groups) * kernel.0 * kernel.1) as f64 * e,
            OpKind::Dense { k, n, .. } => (k * n) as f64 * e,
            // Attention GEMMs multiply two activation tensors; no weights.
            OpKind::BatchedMatMul { .. } => 0.0,
            // Scale + shift per channel.
            OpKind::BatchNorm | OpKind::LayerNorm => 2.0 * self.input.c as f64 * e,
            _ => 0.0,
        }
    }

    /// Bytes of input activations read.
    #[must_use]
    pub fn input_bytes(&self) -> f64 {
        let base = self.input.bytes(self.dtype) as f64;
        match self.op {
            // The second matmul operand is also an input activation.
            OpKind::BatchedMatMul { batch, k, n, .. } => {
                base + (batch * k * n * self.dtype.bytes()) as f64
            }
            // Residual add reads two tensors.
            OpKind::EltwiseAdd => 2.0 * base,
            _ => base,
        }
    }

    /// Bytes of output activations written.
    #[must_use]
    pub fn output_bytes(&self) -> f64 {
        self.output().bytes(self.dtype) as f64
    }

    /// Total bytes touched assuming perfect reuse (weights + in + out once).
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes() + self.input_bytes() + self.output_bytes()
    }

    /// FLOPs per byte at perfect reuse — the roofline operational intensity.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops() / self.total_bytes().max(1.0)
    }
}

/// Output extent of a strided, padded sliding window.
fn conv_out(extent: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        extent + 2 * padding >= kernel,
        "window larger than padded input (extent {extent}, kernel {kernel}, padding {padding})"
    );
    (extent + 2 * padding - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn res2_conv() -> Layer {
        Layer::conv2d(
            "res2",
            FeatureMap::nchw(1, 64, 56, 56),
            64,
            (3, 3),
            (1, 1),
            (1, 1),
        )
    }

    #[test]
    fn conv_output_shape_same_padding() {
        let out = res2_conv().output();
        assert_eq!(out, FeatureMap::nchw(1, 64, 56, 56));
    }

    #[test]
    fn conv_output_shape_strided() {
        let l = Layer::conv2d(
            "stem",
            FeatureMap::nchw(1, 3, 224, 224),
            64,
            (7, 7),
            (2, 2),
            (3, 3),
        );
        assert_eq!(l.output(), FeatureMap::nchw(1, 64, 112, 112));
    }

    #[test]
    fn conv_flops_match_closed_form() {
        // 2 * OC*OH*OW * IC*KH*KW
        let expected = 2.0 * (64 * 56 * 56) as f64 * (64 * 3 * 3) as f64;
        assert_eq!(res2_conv().flops(), expected);
    }

    #[test]
    fn depthwise_conv_divides_flops_by_channels() {
        let dense = Layer::conv2d(
            "d",
            FeatureMap::nchw(1, 144, 56, 56),
            144,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let dw = Layer::dwconv2d(
            "dw",
            FeatureMap::nchw(1, 144, 56, 56),
            (3, 3),
            (1, 1),
            (1, 1),
        );
        assert!((dense.flops() / dw.flops() - 144.0).abs() < 1e-9);
        assert_eq!(dw.weight_bytes(), (144 * 3 * 3 * 4) as f64);
    }

    #[test]
    fn dense_flops_and_weights() {
        let l = Layer::dense("fc", FeatureMap::nchw(1, 2048, 1, 1), 1000);
        assert_eq!(l.flops(), 2.0 * 2048.0 * 1000.0);
        assert_eq!(l.weight_bytes(), 2048.0 * 1000.0 * 4.0);
        assert_eq!(l.output(), FeatureMap::nchw(1, 1000, 1, 1));
    }

    #[test]
    fn seq_dense_keeps_token_extent() {
        let l = Layer::dense("qkv", FeatureMap::seq(384, 1024), 1024);
        assert_eq!(l.output(), FeatureMap::seq(384, 1024));
        assert_eq!(l.flops(), 2.0 * 384.0 * 1024.0 * 1024.0);
    }

    #[test]
    fn batched_matmul_accounting() {
        let l = Layer::new(
            "scores",
            OpKind::BatchedMatMul {
                batch: 16,
                m: 384,
                k: 64,
                n: 384,
            },
            FeatureMap::seq(384, 1024),
        );
        assert_eq!(l.flops(), 2.0 * 16.0 * 384.0 * 64.0 * 384.0);
        assert_eq!(l.weight_bytes(), 0.0);
        assert!(l.input_bytes() > FeatureMap::seq(384, 1024).bytes(DType::F32) as f64);
    }

    #[test]
    fn pooling_shapes() {
        let p = Layer::new(
            "pool",
            OpKind::Pool {
                kind: PoolKind::Max,
                kernel: (3, 3),
                stride: (2, 2),
            },
            FeatureMap::nchw(1, 64, 112, 112),
        );
        // MLPerf ResNet uses pad-1 3x3/2 pools; ours is unpadded: (112-3)/2+1.
        assert_eq!(p.output().h, 55);
        let g = Layer::new(
            "gap",
            OpKind::Pool {
                kind: PoolKind::GlobalAvg,
                kernel: (1, 1),
                stride: (1, 1),
            },
            FeatureMap::nchw(1, 2048, 7, 7),
        );
        assert_eq!(g.output(), FeatureMap::nchw(1, 2048, 1, 1));
    }

    #[test]
    fn residual_add_reads_two_inputs() {
        let a = Layer::new("add", OpKind::EltwiseAdd, FeatureMap::nchw(1, 256, 56, 56));
        assert_eq!(a.input_bytes(), 2.0 * (256 * 56 * 56 * 4) as f64);
    }

    #[test]
    fn arithmetic_intensity_orders_conv_above_eltwise() {
        let conv = res2_conv();
        let add = Layer::new("add", OpKind::EltwiseAdd, FeatureMap::nchw(1, 64, 56, 56));
        assert!(conv.arithmetic_intensity() > 10.0 * add.arithmetic_intensity());
    }

    #[test]
    #[should_panic(expected = "in_ch must match")]
    fn conv_channel_mismatch_panics() {
        let _ = Layer::new(
            "bad",
            OpKind::Conv2d {
                in_ch: 32,
                out_ch: 64,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
                groups: 1,
            },
            FeatureMap::nchw(1, 64, 8, 8),
        );
    }
}
