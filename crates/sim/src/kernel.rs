//! The execution profile of a compiled kernel (one code version of a layer).

/// Architectural profile of one compiled implementation of a layer.
///
/// Produced by the compiler crate from a concrete schedule; consumed by
/// [`crate::execute`]. The footprint and traffic fields encode the kernel's
/// cache behaviour:
///
/// * `footprint_base_bytes` — working set shared by all workers (e.g. the
///   weight panel of the current reduction tile);
/// * `footprint_per_core_bytes` — per-worker tile working set (the paper's
///   "blocking size", i.e. locality);
/// * `min_traffic_bytes` — DRAM traffic when the working set is fully
///   L3-resident (each operand streams from memory once);
/// * `spill_traffic_bytes` — DRAM traffic when the kernel gets no L3 at all
///   and every cross-tile reuse becomes a refetch.
///
/// A high-locality schedule has a large footprint and a moderate spill
/// penalty it *will* pay under contention; a high-parallelism small-tile
/// schedule has a tiny footprint that fits even a sliver of cache, so its
/// (nominally enormous) spill traffic never materializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Floating point operations executed.
    pub flops: f64,
    /// Fraction of per-core peak FLOPs the inner loop sustains, in `(0, 1]`.
    pub compute_efficiency: f64,
    /// Number of independent parallel work chunks the schedule exposes.
    /// Cores beyond this count are useless to the kernel.
    pub parallel_chunks: u32,
    /// Worker-shared L3-resident bytes (weight panel etc.).
    pub footprint_base_bytes: f64,
    /// Additional L3-resident bytes per active worker.
    pub footprint_per_core_bytes: f64,
    /// DRAM traffic with full cache residency, bytes.
    pub min_traffic_bytes: f64,
    /// DRAM traffic with zero cache residency, bytes.
    pub spill_traffic_bytes: f64,
}

impl KernelProfile {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    /// non-finite or negative fields, zero chunks, efficiency outside
    /// `(0, 1]`, or `spill_traffic < min_traffic`.
    pub fn validate(&self) -> Result<(), String> {
        let finite = [
            self.flops,
            self.compute_efficiency,
            self.footprint_base_bytes,
            self.footprint_per_core_bytes,
            self.min_traffic_bytes,
            self.spill_traffic_bytes,
        ];
        if finite.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err("kernel profile fields must be finite and non-negative".into());
        }
        if self.parallel_chunks == 0 {
            return Err("kernel must expose at least one parallel chunk".into());
        }
        if !(self.compute_efficiency > 0.0 && self.compute_efficiency <= 1.0) {
            return Err(format!(
                "compute efficiency must be in (0,1], got {}",
                self.compute_efficiency
            ));
        }
        if self.spill_traffic_bytes + 1e-9 < self.min_traffic_bytes {
            return Err("spill traffic cannot be below resident traffic".into());
        }
        Ok(())
    }

    /// The L3-resident working set when `cores` workers are active.
    #[inline]
    #[must_use]
    pub fn footprint_bytes(&self, cores: u32) -> f64 {
        let active = f64::from(cores.min(self.parallel_chunks));
        self.footprint_base_bytes + self.footprint_per_core_bytes * active
    }

    /// DRAM traffic in bytes for `cores` active workers given `avail_cache`
    /// bytes of effective L3.
    ///
    /// Fully resident footprints pay only `min_traffic`; as the available
    /// share shrinks below the footprint, the would-be-cached reuse traffic
    /// spills proportionally to the unfitting fraction.
    #[inline]
    #[must_use]
    pub fn traffic_bytes(&self, cores: u32, avail_cache: f64) -> f64 {
        spilled_traffic(
            self.min_traffic_bytes,
            self.spill_traffic_bytes,
            self.footprint_bytes(cores),
            avail_cache,
        )
    }
}

/// DRAM traffic in bytes of a kernel with `footprint` resident bytes,
/// `min_traffic` and `spill_traffic` given `avail_cache` bytes of
/// effective L3: [`KernelProfile::traffic_bytes`] once the footprint is
/// known.
#[inline]
pub(crate) fn spilled_traffic(
    min_traffic: f64,
    spill_traffic: f64,
    footprint: f64,
    avail_cache: f64,
) -> f64 {
    let spill_frac = if footprint <= avail_cache || footprint == 0.0 {
        0.0
    } else {
        (1.0 - avail_cache.max(0.0) / footprint).clamp(0.0, 1.0)
    };
    min_traffic + (spill_traffic - min_traffic) * spill_frac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile {
            flops: 1e9,
            compute_efficiency: 0.5,
            parallel_chunks: 64,
            footprint_base_bytes: 4.0e6,
            footprint_per_core_bytes: 1.5e6,
            min_traffic_bytes: 10.0e6,
            spill_traffic_bytes: 200.0e6,
        }
    }

    #[test]
    fn footprint_scales_with_workers_up_to_chunks() {
        let p = profile();
        assert_eq!(p.footprint_bytes(1), 4.0e6 + 1.5e6);
        assert_eq!(p.footprint_bytes(16), 4.0e6 + 24.0e6);
        // Saturates at parallel_chunks workers.
        assert_eq!(p.footprint_bytes(128), p.footprint_bytes(64));
    }

    #[test]
    fn resident_footprint_pays_min_traffic() {
        let p = profile();
        assert_eq!(p.traffic_bytes(16, 256.0e6), 10.0e6);
        assert_eq!(p.traffic_bytes(16, p.footprint_bytes(16)), 10.0e6);
    }

    #[test]
    fn zero_cache_pays_full_spill() {
        let p = profile();
        assert!((p.traffic_bytes(16, 0.0) - 200.0e6).abs() < 1.0);
    }

    #[test]
    fn traffic_is_monotone_in_cache() {
        let p = profile();
        let mut last = f64::INFINITY;
        for c in [0.0, 5.0e6, 10.0e6, 20.0e6, 28.0e6, 100.0e6] {
            let t = p.traffic_bytes(16, c);
            assert!(t <= last + 1e-9, "traffic must not grow with more cache");
            last = t;
        }
    }

    #[test]
    fn validation_catches_bad_profiles() {
        let mut p = profile();
        assert!(p.validate().is_ok());
        p.parallel_chunks = 0;
        assert!(p.validate().is_err());
        p = profile();
        p.compute_efficiency = 0.0;
        assert!(p.validate().is_err());
        p = profile();
        p.spill_traffic_bytes = 1.0;
        assert!(p.validate().is_err());
        p = profile();
        p.flops = f64::NAN;
        assert!(p.validate().is_err());
    }
}
