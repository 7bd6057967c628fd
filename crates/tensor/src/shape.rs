//! Tensor shapes and element types.

/// Element type of a tensor.
///
/// The reproduction runs everything in `F32` (the paper evaluates FP32 AVX2
/// kernels), but the byte accounting is generic so INT8/BF16 studies remain
/// possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE-754 float (default; matches the paper's AVX2 FP32 setup).
    #[default]
    F32,
    /// 16-bit brain float.
    Bf16,
    /// 8-bit signed integer.
    I8,
}

impl DType {
    /// Size of one element in bytes.
    #[must_use]
    pub const fn bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::Bf16 => 2,
            DType::I8 => 1,
        }
    }

    /// Number of lanes one 256-bit AVX2 vector register holds for this type.
    #[must_use]
    pub const fn simd_lanes(self) -> usize {
        32 / self.bytes()
    }
}

/// A 4-dimensional feature map in NCHW layout.
///
/// `n` is the batch size (always 1 for latency-critical inference queries in
/// the paper), `c` the channel count, and `h`/`w` the spatial extents.
/// Sequence tensors (BERT) are encoded as `n = 1, c = hidden, h = seq_len,
/// w = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureMap {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl FeatureMap {
    /// Creates a feature map from NCHW extents.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero; a degenerate tensor is always a model
    /// construction bug.
    #[must_use]
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        assert!(
            n > 0 && c > 0 && h > 0 && w > 0,
            "feature map extents must be positive"
        );
        Self { n, c, h, w }
    }

    /// Creates a sequence-shaped map (`seq_len` tokens of `hidden` features).
    #[must_use]
    pub fn seq(seq_len: usize, hidden: usize) -> Self {
        Self::nchw(1, hidden, seq_len, 1)
    }

    /// Total number of elements.
    #[must_use]
    pub const fn elems(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Total size in bytes for the given element type.
    #[must_use]
    pub const fn bytes(&self, dtype: DType) -> usize {
        self.elems() * dtype.bytes()
    }
}

impl std::fmt::Display for FeatureMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_bytes_and_lanes() {
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::F32.simd_lanes(), 8);
        assert_eq!(DType::Bf16.simd_lanes(), 16);
        assert_eq!(DType::I8.simd_lanes(), 32);
    }

    #[test]
    fn feature_map_accounting() {
        let fm = FeatureMap::nchw(1, 64, 56, 56);
        assert_eq!(fm.elems(), 64 * 56 * 56);
        assert_eq!(fm.bytes(DType::F32), 64 * 56 * 56 * 4);
        assert_eq!(fm.to_string(), "1x64x56x56");
    }

    #[test]
    fn seq_shape_encodes_tokens_as_height() {
        let fm = FeatureMap::seq(384, 1024);
        assert_eq!(fm.h, 384);
        assert_eq!(fm.c, 1024);
        assert_eq!(fm.elems(), 384 * 1024);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = FeatureMap::nchw(1, 0, 4, 4);
    }
}
