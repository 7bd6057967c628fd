//! Shared-resource interference: what co-runners take, what a kernel feels.

use crate::machine::MachineConfig;

/// Interference experienced by a kernel: the fraction of each shared
/// resource already consumed by co-running tenants.
///
/// The paper's scalar "interference pressure level" (§4.3) is the average
/// slowdown co-runners induce; [`Interference::level`] builds the canonical
/// pressure point where both shared resources are equally loaded, which is
/// what the extended auto-scheduler's background layers produce (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Interference {
    /// Fraction of L3 capacity held by co-runners, in `[0, 1]`.
    pub cache_frac: f64,
    /// Fraction of DRAM bandwidth consumed by co-runners, in `[0, 1]`.
    pub bw_frac: f64,
}

impl Interference {
    /// No co-runners: the isolated, solo-run condition.
    pub const NONE: Interference = Interference {
        cache_frac: 0.0,
        bw_frac: 0.0,
    };

    /// Canonical pressure point: both shared resources `level`-loaded.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not within `[0, 1]` or is not finite.
    #[must_use]
    pub fn level(level: f64) -> Self {
        assert!(
            level.is_finite() && (0.0..=1.0).contains(&level),
            "interference level must be in [0,1], got {level}"
        );
        Self {
            cache_frac: level,
            bw_frac: level,
        }
    }

    /// Scalar summary used for reporting and version selection: the mean of
    /// the two resource pressures.
    #[must_use]
    pub fn scalar(&self) -> f64 {
        0.5 * (self.cache_frac + self.bw_frac)
    }

    /// Aggregates the pressure that a set of co-runners' demands exerts on
    /// one task, given the machine's shared-resource capacities.
    #[must_use]
    pub fn from_corunners<'a, I>(others: I, machine: &MachineConfig) -> Self
    where
        I: IntoIterator<Item = &'a PressureDemand>,
    {
        let mut cache = 0.0;
        let mut bw = 0.0;
        for d in others {
            cache += d.cache_bytes;
            bw += d.bw_bytes_per_s;
        }
        Self {
            cache_frac: (cache / machine.l3_bytes).clamp(0.0, 1.0),
            bw_frac: (bw / machine.dram_bw).clamp(0.0, 1.0),
        }
    }
}

/// The pressure a running kernel itself exerts on the shared resources.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressureDemand {
    /// L3 bytes the kernel tries to keep resident.
    pub cache_bytes: f64,
    /// DRAM bandwidth the kernel draws, bytes/second.
    pub bw_bytes_per_s: f64,
}

impl PressureDemand {
    /// Demand of an idle tenant.
    pub const ZERO: PressureDemand = PressureDemand {
        cache_bytes: 0.0,
        bw_bytes_per_s: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_builds_symmetric_pressure() {
        let i = Interference::level(0.6);
        assert_eq!(i.cache_frac, 0.6);
        assert_eq!(i.bw_frac, 0.6);
        assert!((i.scalar() - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn out_of_range_level_panics() {
        let _ = Interference::level(1.5);
    }

    #[test]
    fn corunner_aggregation_clamps_at_capacity() {
        let m = MachineConfig::threadripper_3990x();
        let d1 = PressureDemand {
            cache_bytes: 200.0e6,
            bw_bytes_per_s: 80.0e9,
        };
        let d2 = PressureDemand {
            cache_bytes: 200.0e6,
            bw_bytes_per_s: 80.0e9,
        };
        let i = Interference::from_corunners([&d1, &d2], &m);
        assert_eq!(i.cache_frac, 1.0);
        assert_eq!(i.bw_frac, 1.0);
    }

    #[test]
    fn no_corunners_is_no_interference() {
        let m = MachineConfig::threadripper_3990x();
        let i = Interference::from_corunners([], &m);
        assert_eq!(i, Interference::NONE);
    }

    #[test]
    fn partial_pressure_is_proportional() {
        let m = MachineConfig::threadripper_3990x();
        let d = PressureDemand {
            cache_bytes: 64.0e6,
            bw_bytes_per_s: 25.0e9,
        };
        let i = Interference::from_corunners([&d], &m);
        assert!((i.cache_frac - 0.25).abs() < 1e-12);
        assert!((i.bw_frac - 0.25).abs() < 1e-12);
    }
}
