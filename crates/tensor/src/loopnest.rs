//! The GEMM view of compute-intensive operators' loop nests.
//!
//! Every operator the compiler tunes (convolution, dense, batched matmul) is
//! normalized to a *GEMM view*: `batch` independent `M x K x N` contractions.
//! Convolutions use the im2col correspondence (`M = OH*OW`, `N = OC/groups`,
//! `K = IC/groups * KH * KW`, `batch = groups`). The normalization is what
//! lets a single tiling space — and a single traffic model — cover all seven
//! evaluated networks, mirroring how Ansor derives its sketch from the
//! operator's loop nest.

use crate::layer::Layer;
use crate::ops::OpKind;

/// GEMM-normalized view of a compute-intensive layer.
///
/// `batch` independent contractions of an `m x k` operand A (activations)
/// with a `k x n` operand B (weights, or the second activation for attention
/// matmuls), producing an `m x n` output C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmView {
    /// Independent contraction count (conv groups / attention heads).
    pub batch: usize,
    /// Rows of A and C.
    pub m: usize,
    /// Contraction extent.
    pub k: usize,
    /// Columns of B and C.
    pub n: usize,
    /// Element size in bytes.
    pub elem_bytes: usize,
}

impl GemmView {
    /// Extracts the GEMM view of a layer, or `None` for operators without a
    /// tunable loop nest (pool, softmax, element-wise, ...).
    #[must_use]
    pub fn of(layer: &Layer) -> Option<Self> {
        let elem_bytes = layer.dtype.bytes();
        match layer.op {
            OpKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                groups,
                ..
            } => {
                let out = layer.output();
                Some(GemmView {
                    batch: groups,
                    m: out.h * out.w,
                    k: (in_ch / groups) * kernel.0 * kernel.1,
                    n: out_ch / groups,
                    elem_bytes,
                })
            }
            OpKind::Dense { m, k, n } => Some(GemmView {
                batch: 1,
                m,
                k,
                n,
                elem_bytes,
            }),
            OpKind::BatchedMatMul { batch, m, k, n } => Some(GemmView {
                batch,
                m,
                k,
                n,
                elem_bytes,
            }),
            _ => None,
        }
    }

    /// Total FLOPs of the contraction (2 per multiply-accumulate).
    #[must_use]
    pub fn flops(&self) -> f64 {
        2.0 * self.batch as f64 * self.m as f64 * self.k as f64 * self.n as f64
    }

    /// Bytes of operand A across all batches.
    #[must_use]
    pub fn a_bytes(&self) -> f64 {
        (self.batch * self.m * self.k * self.elem_bytes) as f64
    }

    /// Bytes of operand B across all batches.
    #[must_use]
    pub fn b_bytes(&self) -> f64 {
        (self.batch * self.k * self.n * self.elem_bytes) as f64
    }

    /// Bytes of the output C across all batches.
    #[must_use]
    pub fn c_bytes(&self) -> f64 {
        (self.batch * self.m * self.n * self.elem_bytes) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::FeatureMap;

    #[test]
    fn conv_gemm_view_im2col() {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 64, 56, 56),
            128,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let v = GemmView::of(&l).unwrap();
        assert_eq!(v.m, 56 * 56);
        assert_eq!(v.k, 64 * 9);
        assert_eq!(v.n, 128);
        assert_eq!(v.batch, 1);
        // GEMM view FLOPs must agree with the layer accounting.
        assert!((v.flops() - l.flops()).abs() < 1e-6);
    }

    #[test]
    fn depthwise_gemm_view_degenerates() {
        let l = Layer::dwconv2d(
            "dw",
            FeatureMap::nchw(1, 144, 28, 28),
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let v = GemmView::of(&l).unwrap();
        assert_eq!(v.batch, 144);
        assert_eq!(v.n, 1);
        assert_eq!(v.k, 9);
        assert!((v.flops() - l.flops()).abs() < 1e-6);
    }

    #[test]
    fn gemm_view_bytes_match_layer() {
        let l = Layer::dense("fc", FeatureMap::nchw(1, 2048, 1, 1), 1000);
        let v = GemmView::of(&l).unwrap();
        assert_eq!(v.b_bytes(), l.weight_bytes());
        assert_eq!(v.c_bytes(), l.output_bytes());
    }

    #[test]
    fn non_intensive_ops_have_no_nest() {
        let l = Layer::new("sm", OpKind::Softmax, FeatureMap::seq(384, 384));
        assert!(GemmView::of(&l).is_none());
    }
}
