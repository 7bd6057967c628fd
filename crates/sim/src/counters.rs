//! Simulated hardware performance counters.

/// Counter totals produced by one kernel execution, mirroring the PMU events
/// the paper samples for its interference proxy (§4.3): L3 accesses, L3
/// misses, retired instructions, core cycles, and FP operations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfCounters {
    /// References reaching the shared L3.
    pub l3_accesses: f64,
    /// L3 misses (lines fetched from DRAM).
    pub l3_misses: f64,
    /// Retired instructions (SIMD compute + memory ops).
    pub instructions: f64,
    /// Aggregate busy core cycles.
    pub cycles: f64,
    /// Floating point operations retired.
    pub flops: f64,
}

impl PerfCounters {
    /// L3 miss rate in `[0, 1]`; zero when there were no accesses.
    #[must_use]
    pub fn l3_miss_rate(&self) -> f64 {
        if self.l3_accesses > 0.0 {
            (self.l3_misses / self.l3_accesses).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Instructions per cycle; zero when no cycles elapsed.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles > 0.0 {
            self.instructions / self.cycles
        } else {
            0.0
        }
    }

    /// Element-wise accumulation (summing a window of executions).
    pub fn accumulate(&mut self, other: &PerfCounters) {
        self.l3_accesses += other.l3_accesses;
        self.l3_misses += other.l3_misses;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.flops += other.flops;
    }

    /// Rate-weighted accumulation: adds `other`'s counts per second of a
    /// unit that ran `duration_s` (floored at 1 ps) — the co-runner window
    /// the interference proxy is both trained and queried on.
    #[inline]
    pub fn accumulate_rates(&mut self, other: &PerfCounters, duration_s: f64) {
        let scale = 1.0 / duration_s.max(1e-12);
        self.l3_accesses += other.l3_accesses * scale;
        self.l3_misses += other.l3_misses * scale;
        self.instructions += other.instructions * scale;
        self.cycles += other.cycles * scale;
        self.flops += other.flops * scale;
    }

    /// The counter vector in the fixed feature order used by the proxy:
    /// `[miss_rate, accesses, ipc, flops]`.
    #[must_use]
    pub fn feature_vector(&self) -> [f64; 4] {
        [
            self.l3_miss_rate(),
            self.l3_accesses,
            self.ipc(),
            self.flops,
        ]
    }

    /// Names matching [`Self::feature_vector`] order.
    #[must_use]
    pub fn feature_names() -> [&'static str; 4] {
        ["L3 Miss Rate", "L3 Access", "IPC", "FP OP"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let c = PerfCounters {
            l3_accesses: 100.0,
            l3_misses: 25.0,
            instructions: 1000.0,
            cycles: 500.0,
            flops: 2000.0,
        };
        assert!((c.l3_miss_rate() - 0.25).abs() < 1e-12);
        assert!((c.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_counters_have_zero_rates() {
        let c = PerfCounters::default();
        assert_eq!(c.l3_miss_rate(), 0.0);
        assert_eq!(c.ipc(), 0.0);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = PerfCounters {
            l3_accesses: 1.0,
            l3_misses: 1.0,
            instructions: 1.0,
            cycles: 1.0,
            flops: 1.0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.l3_accesses, 2.0);
        assert_eq!(a.flops, 2.0);
    }

    #[test]
    fn accumulate_rates_divides_by_the_floored_duration() {
        let unit = PerfCounters {
            flops: 10.0,
            ..PerfCounters::default()
        };
        let rates = |durations: &[f64]| {
            let mut window = PerfCounters::default();
            durations
                .iter()
                .for_each(|&d| window.accumulate_rates(&unit, d));
            window
        };
        assert_eq!(rates(&[2.0, 0.5]).flops, 5.0 + 20.0);
        assert_eq!(rates(&[0.0]), rates(&[1e-12]));
    }

    #[test]
    fn feature_vector_matches_names() {
        assert_eq!(
            PerfCounters::feature_names().len(),
            PerfCounters::default().feature_vector().len()
        );
    }
}
