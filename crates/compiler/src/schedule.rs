//! Concrete schedules over GEMM-normalized loop nests.
//!
//! The `Schedule` type itself lives in `veltair-tensor` (it is a pure
//! function of the loop nest); this module re-exports it so existing
//! compiler-facing paths keep working.

pub use veltair_tensor::{tile_ladder, Schedule};
