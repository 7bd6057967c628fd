//! Validation of the analytic traffic model against the cache simulator.
//!
//! `veltair-sim`'s closed form says: a kernel whose footprint fits its
//! effective L3 share pays only compulsory DRAM traffic, and as the share
//! shrinks below the footprint the cross-tile reuse traffic spills in
//! proportionally (`KernelProfile::traffic_bytes`). Here the same tiled
//! GEMM schedules are replayed through a real set-associative LRU cache at
//! a ladder of capacities, producing the measured counterpart.

use veltair_compiler::{lower_gemm, Schedule};
use veltair_sim::KernelProfile;
use veltair_tensor::{FusedUnit, GemmView, Layer};

use crate::cache::{CacheConfig, SetAssociativeCache};
use crate::trace::{GemmDims, GemmTrace, TraceScale};

/// One (cache capacity, analytic traffic, measured traffic) observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationPoint {
    /// Cache capacity in bytes.
    pub cache_bytes: u64,
    /// Traffic predicted by the analytic model, bytes.
    pub analytic_bytes: f64,
    /// Traffic measured by the cache simulator, bytes.
    pub measured_bytes: f64,
}

/// The full validation result for one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// The schedule validated.
    pub schedule: Schedule,
    /// Tile working-set bytes (the knee the analytic model predicts).
    pub tile_bytes: u64,
    /// Sweep over cache capacities.
    pub points: Vec<ValidationPoint>,
}

impl ValidationReport {
    /// Pearson correlation between analytic and measured traffic across
    /// the sweep (shape agreement).
    #[must_use]
    pub fn correlation(&self) -> f64 {
        let n = self.points.len() as f64;
        if n < 2.0 {
            return 1.0;
        }
        let (mut sa, mut sm) = (0.0, 0.0);
        for p in &self.points {
            sa += p.analytic_bytes;
            sm += p.measured_bytes;
        }
        let (ma, mm) = (sa / n, sm / n);
        let (mut cov, mut va, mut vm) = (0.0, 0.0, 0.0);
        for p in &self.points {
            cov += (p.analytic_bytes - ma) * (p.measured_bytes - mm);
            va += (p.analytic_bytes - ma).powi(2);
            vm += (p.measured_bytes - mm).powi(2);
        }
        if va == 0.0 || vm == 0.0 {
            // Constant series: agreement means both are constant.
            return if va == vm { 1.0 } else { 0.0 };
        }
        cov / (va.sqrt() * vm.sqrt())
    }
}

/// A 1x1 convolution whose GEMM view realizes exactly `(m, n, k)`:
/// an `m x 1` spatial map with `k` input and `n` output channels.
///
/// # Panics
///
/// Panics unless `dims.elem_bytes == 4` (the probe layer is FP32).
fn probe_layer(dims: GemmDims) -> Layer {
    assert_eq!(dims.elem_bytes, 4, "the GEMM probe layer is FP32");
    Layer::conv2d(
        "probe",
        veltair_tensor::FeatureMap::nchw(1, dims.k, dims.m, 1),
        dims.n,
        (1, 1),
        (1, 1),
        (0, 0),
    )
}

/// Builds the single-worker analytic profile of a schedule over a GEMM.
fn analytic_profile(dims: GemmDims, s: &Schedule) -> (KernelProfile, GemmView) {
    let layer = probe_layer(dims);
    let g = GemmView::of(&layer).expect("1x1 conv always has a GEMM view");
    debug_assert_eq!((g.m, g.n, g.k), (dims.m, dims.n, dims.k));
    (lower_gemm(&FusedUnit::solo(layer), &g, s), g)
}

/// Sweeps cache capacities for one schedule of one GEMM, returning the
/// analytic-vs-measured traffic curve.
///
/// The measured side replays the trace twice and reports the second
/// (steady-state) pass, matching the analytic model's warm-cache
/// assumption plus the compulsory stream.
#[must_use]
pub fn traffic_curve(
    dims: GemmDims,
    schedule: Schedule,
    cache_ladder: &[u64],
) -> Vec<ValidationPoint> {
    let (profile, _g) = analytic_profile(dims, &schedule);
    let trace = GemmTrace::new(dims, schedule, TraceScale::default());
    let addrs = trace.addresses();

    cache_ladder
        .iter()
        .map(|&cap| {
            let cfg = CacheConfig::l3_slice(cap);
            let mut cache = SetAssociativeCache::new(cfg);
            cache.run(addrs.iter().copied());
            let measured = cache.stats().traffic_bytes(cfg.line_bytes);
            let analytic = profile.traffic_bytes(1, cap as f64);
            ValidationPoint {
                cache_bytes: cap,
                analytic_bytes: analytic,
                measured_bytes: measured,
            }
        })
        .collect()
}

/// Validates one schedule: sweeps a capacity ladder bracketing the tile
/// working set and reports the curve plus shape diagnostics.
#[must_use]
pub fn validate_schedule(dims: GemmDims, schedule: Schedule) -> ValidationReport {
    let tile = dims.tile_bytes(&schedule).max(4096);
    // Ladder from well below the tile to well above the full problem.
    let total = dims.total_bytes();
    let mut ladder = Vec::new();
    let mut c = (tile / 8).next_power_of_two().max(4096);
    while c < total * 2 {
        ladder.push(c);
        c *= 2;
    }
    ladder.push(c);
    let points = traffic_curve(dims, schedule, &ladder);
    ValidationReport {
        schedule,
        tile_bytes: tile,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_tensor::{FeatureMap, GemmView, Layer};

    fn dims() -> GemmDims {
        GemmDims::new(128, 128, 128, 4)
    }

    fn schedule(tm: usize, tn: usize, tk: usize) -> Schedule {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 128, 16, 8),
            128,
            (1, 1),
            (1, 1),
            (0, 0),
        );
        let g = GemmView::of(&l).unwrap();
        Schedule::new(&g, tm, tn, tk, 4)
    }

    #[test]
    fn measured_traffic_is_monotone_in_capacity() {
        let report = validate_schedule(dims(), schedule(32, 32, 32));
        for w in report.points.windows(2) {
            assert!(
                w[1].measured_bytes <= w[0].measured_bytes + 1e-9,
                "traffic rose with a bigger cache"
            );
        }
    }

    #[test]
    fn analytic_and_measured_shapes_agree() {
        for s in [
            schedule(16, 16, 16),
            schedule(32, 32, 64),
            schedule(128, 128, 128),
        ] {
            let report = validate_schedule(dims(), s);
            let corr = report.correlation();
            assert!(corr > 0.7, "correlation {corr:.2} too weak for {s}");
        }
    }

    #[test]
    fn big_cache_reaches_compulsory_traffic() {
        let d = dims();
        let s = schedule(32, 32, 32);
        let trace = GemmTrace::new(d, s, TraceScale::default());
        let report = validate_schedule(d, s);
        let last = report.points.last().unwrap();
        // With everything resident, misses = compulsory lines.
        assert!((last.measured_bytes - trace.compulsory_lines() as f64 * 64.0).abs() < 1e-9);
    }

    #[test]
    fn gemm_victim_suffers_from_streaming_aggressor() {
        // The contention premise of the whole analytic model: a co-runner
        // that streams through the shared cache displaces a tiled GEMM's
        // reuse set, and the victim's measured misses inflate. The more the
        // aggressor touches, the worse the victim fares.
        use crate::interleave::interleave_proportional;
        let d = dims();
        let s = schedule(32, 32, 64);
        let victim = GemmTrace::new(d, s, TraceScale::default()).addresses();
        let cfg = CacheConfig::l3_slice(512 * 1024);

        let streaming = |lines: u64, reps: usize| -> Vec<u64> {
            (0..reps).flat_map(|_| (0..lines).map(|i| i * 64)).collect()
        };
        let (solo, _) = interleave_proportional(std::slice::from_ref(&victim), cfg);
        let (mild, _) = interleave_proportional(&[victim.clone(), streaming(2_000, 8)], cfg);
        let (harsh, _) = interleave_proportional(&[victim.clone(), streaming(16_000, 8)], cfg);
        assert!(
            mild[0].misses >= solo[0].misses,
            "a co-runner cannot reduce victim misses"
        );
        assert!(
            harsh[0].misses > mild[0].misses,
            "a bigger aggressor must displace more: {} vs {}",
            harsh[0].misses,
            mild[0].misses
        );
        assert!(
            harsh[0].misses as f64 > 1.1 * solo[0].misses as f64,
            "displacement too weak: {} vs solo {}",
            harsh[0].misses,
            solo[0].misses
        );
    }
}
