//! Tensor operator IR for the VELTAIR reproduction.
//!
//! This crate models deep-learning layers at the *architectural* level: for
//! every operator we track shapes, floating-point work, and bytes moved, and
//! we expose the perfectly-nested loop structure (the GEMM-normalized
//! [`GemmView`]) that the compiler crate tiles, parallelizes, and unrolls.
//! No numerical tensors are materialized — multi-tenant scheduling and
//! compilation only ever consume these profiles, exactly as the paper's
//! scheduler consumes TVM's layer descriptions.
//!
//! # Example
//!
//! ```
//! use veltair_tensor::{FeatureMap, Layer, OpKind};
//!
//! // A ResNet-50 stage-2 3x3 convolution.
//! let conv = Layer::conv2d("res2_conv3x3", FeatureMap::nchw(1, 64, 56, 56), 64, (3, 3), (1, 1), (1, 1));
//! assert_eq!(conv.output().c, 64);
//! assert!(conv.flops() > 0.0);
//! ```

pub mod fusion;
pub mod graph;
pub mod layer;
pub mod loopnest;
pub mod ops;
pub mod schedule;
pub mod shape;

pub use fusion::{fuse_layers, FusedUnit};
pub use graph::ModelGraph;
pub use layer::Layer;
pub use loopnest::GemmView;
pub use ops::{ActKind, OpKind, PoolKind};
pub use schedule::{tile_ladder, Schedule};
pub use shape::{DType, FeatureMap};
