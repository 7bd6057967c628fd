//! Operator kinds and their parameters.

/// Pooling flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Sliding-window maximum.
    Max,
    /// Sliding-window average.
    Avg,
    /// Global average pooling (collapses the spatial extent to 1x1).
    GlobalAvg,
}

/// Element-wise activation flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (BERT).
    Gelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// x * sigmoid(x) (EfficientNet).
    Swish,
    /// Hard-swish / relu6 family used by MobileNet.
    Relu6,
}

/// The operator executed by a [`crate::Layer`].
///
/// Only the compute-intensive operators (`Conv2d`, `Dense`, `BatchedMatMul`)
/// own a tunable loop nest; the remaining operators are light element-wise or
/// reduction epilogues that the compiler fuses into their producer whenever a
/// fusion pattern applies (see [`crate::fusion`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// 2-D convolution over NCHW input.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride along height and width.
        stride: (usize, usize),
        /// Zero padding along height and width.
        padding: (usize, usize),
        /// Channel groups; `groups == in_ch == out_ch` is a depthwise conv.
        groups: usize,
    },
    /// Dense (fully-connected) layer computing an `m x k` by `k x n` GEMM.
    Dense {
        /// Rows of the activation matrix (batch x tokens).
        m: usize,
        /// Contraction extent.
        k: usize,
        /// Output features.
        n: usize,
    },
    /// Batched matrix multiply (attention score / context GEMMs in BERT).
    BatchedMatMul {
        /// Number of independent GEMMs (e.g. attention heads).
        batch: usize,
        /// Rows per GEMM.
        m: usize,
        /// Contraction extent per GEMM.
        k: usize,
        /// Columns per GEMM.
        n: usize,
    },
    /// Spatial pooling.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Window extent (ignored for `GlobalAvg`).
        kernel: (usize, usize),
        /// Window stride (ignored for `GlobalAvg`).
        stride: (usize, usize),
    },
    /// Element-wise activation.
    Activation(ActKind),
    /// Per-channel affine normalization (inference-time batch norm).
    BatchNorm,
    /// Per-token layer normalization (BERT).
    LayerNorm,
    /// Row-wise softmax (attention probabilities / classifier head).
    Softmax,
    /// Element-wise residual addition.
    EltwiseAdd,
}

impl OpKind {
    /// Whether this operator owns a tunable loop nest (conv / GEMM family).
    ///
    /// Non-compute-intensive operators are either fused into a producer or
    /// executed with a fixed streaming schedule.
    #[must_use]
    pub fn is_compute_intensive(&self) -> bool {
        matches!(
            self,
            OpKind::Conv2d { .. } | OpKind::Dense { .. } | OpKind::BatchedMatMul { .. }
        )
    }

    /// Whether the operator is a cheap element-wise epilogue that standard
    /// fusion patterns (conv-relu, conv-bn-relu, dense-gelu, ...) can absorb.
    #[must_use]
    pub fn is_fusable_epilogue(&self) -> bool {
        matches!(
            self,
            OpKind::Activation(_) | OpKind::BatchNorm | OpKind::EltwiseAdd | OpKind::LayerNorm
        )
    }

    /// Short human-readable mnemonic (used in traces and figure outputs).
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            OpKind::Conv2d { groups, in_ch, .. } if *groups == *in_ch && *groups > 1 => "dwconv",
            OpKind::Conv2d { .. } => "conv",
            OpKind::Dense { .. } => "dense",
            OpKind::BatchedMatMul { .. } => "bmm",
            OpKind::Pool { .. } => "pool",
            OpKind::Activation(_) => "act",
            OpKind::BatchNorm => "bn",
            OpKind::LayerNorm => "ln",
            OpKind::Softmax => "softmax",
            OpKind::EltwiseAdd => "add",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_intensive_classification() {
        let conv = OpKind::Conv2d {
            in_ch: 64,
            out_ch: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 1,
        };
        assert!(conv.is_compute_intensive());
        assert!(OpKind::Dense {
            m: 1,
            k: 2048,
            n: 1000
        }
        .is_compute_intensive());
        assert!(OpKind::BatchedMatMul {
            batch: 16,
            m: 384,
            k: 64,
            n: 384
        }
        .is_compute_intensive());
        assert!(!OpKind::Softmax.is_compute_intensive());
        assert!(!OpKind::Activation(ActKind::Relu).is_compute_intensive());
    }

    #[test]
    fn epilogue_classification() {
        assert!(OpKind::Activation(ActKind::Relu).is_fusable_epilogue());
        assert!(OpKind::BatchNorm.is_fusable_epilogue());
        assert!(OpKind::EltwiseAdd.is_fusable_epilogue());
        assert!(!OpKind::Softmax.is_fusable_epilogue());
        assert!(!OpKind::Pool {
            kind: PoolKind::Max,
            kernel: (2, 2),
            stride: (2, 2)
        }
        .is_fusable_epilogue());
    }

    #[test]
    fn depthwise_mnemonic() {
        let dw = OpKind::Conv2d {
            in_ch: 144,
            out_ch: 144,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
            groups: 144,
        };
        assert_eq!(dw.mnemonic(), "dwconv");
    }
}
