//! A vendor-library stand-in (MKL-DNN class) for the Fig. 2 comparison.
//!
//! Vendor kernels use solid generic blocking but are not specialized to the
//! exact layer shape the way an auto-scheduler's winner is; we model that as
//! a fixed blocking heuristic plus a shape-specialization efficiency gap.

use veltair_sim::KernelProfile;
use veltair_tensor::{FusedUnit, GemmView, Schedule};

use crate::lower::{lower_gemm, lower_streaming};

/// Efficiency a generic library kernel sustains relative to a
/// shape-specialized auto-scheduled kernel.
const VENDOR_SPECIALIZATION: f64 = 0.85;

/// Profiles a fused unit as executed by the vendor library: fixed
/// cache-friendly blocking (28 x 64 x 256 tiles, unroll 8) with the
/// specialization gap applied.
#[must_use]
pub fn vendor_profile(unit: &FusedUnit) -> KernelProfile {
    match GemmView::of(&unit.base) {
        Some(g) => {
            let s = Schedule::new(&g, 28, 64, 256, 8);
            let p = lower_gemm(unit, &g, &s);
            KernelProfile {
                compute_efficiency: (p.compute_efficiency * VENDOR_SPECIALIZATION).max(0.02),
                ..p
            }
        }
        None => lower_streaming(unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_sim::{execute, Interference, MachineConfig};
    use veltair_tensor::{FeatureMap, Layer};

    use crate::options::CompilerOptions;
    use crate::search::search;

    #[test]
    fn vendor_profile_is_valid() {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 64, 56, 56),
            64,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let u = FusedUnit::solo(l);
        assert!(vendor_profile(&u).validate().is_ok());
    }

    #[test]
    fn auto_scheduler_beats_vendor_solo() {
        // Fig. 2: TVM generally outperforms MKL-DNN.
        let machine = MachineConfig::threadripper_3990x();
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 256, 14, 14),
            256,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let g = GemmView::of(&l).unwrap();
        let u = FusedUnit::solo(l);
        let vendor = execute(&vendor_profile(&u), 16, Interference::NONE, &machine).latency_s;
        let samples = search(&u, &g, &machine, &CompilerOptions::fast(), 0);
        let tvm = samples
            .iter()
            .map(|s| s.solo_latency_s)
            .fold(f64::INFINITY, f64::min);
        assert!(tvm < vendor, "tvm {tvm} vs vendor {vendor}");
    }

    #[test]
    fn vendor_streaming_falls_back() {
        let pool = Layer::new(
            "sm",
            veltair_tensor::OpKind::Softmax,
            FeatureMap::seq(384, 384),
        );
        let u = FusedUnit::solo(pool);
        let p = vendor_profile(&u);
        assert_eq!(p.min_traffic_bytes, p.spill_traffic_bytes);
    }
}
