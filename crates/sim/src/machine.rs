//! Machine configuration.

/// Static description of the simulated CPU.
///
/// Defaults model the paper's testbed: an AMD Ryzen Threadripper 3990X with
/// 64 physical cores at 2.9 GHz (SMT and DVFS disabled, as in §5.1), AVX2
/// FMA units (32 FP32 FLOPs per cycle per core), a 256 MB shared L3, and
/// quad-channel DDR4-3200 (~100 GB/s).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Physical core count.
    pub cores: u32,
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Peak FP32 FLOPs per cycle per core (AVX2: 2 FMA pipes x 8 lanes x 2).
    pub flops_per_cycle: f64,
    /// Shared last-level cache capacity in bytes.
    pub l3_bytes: f64,
    /// Aggregate DRAM bandwidth in bytes/second.
    pub dram_bw: f64,
    /// Maximum DRAM bandwidth a single core can draw, in bytes/second.
    pub per_core_bw: f64,
    /// L3 bandwidth available to each core, in bytes/second. The cross-tile
    /// reuse stream of a kernel is served at this rate, so fine-grained
    /// tilings with heavy refetch pay a latency cost even in isolation.
    pub l3_bw_per_core: f64,
    /// Fixed cost of dispatching a kernel to an already-warm thread pool
    /// (fork-join barrier), in seconds.
    pub dispatch_overhead_s: f64,
    /// Additional dispatch cost per participating thread, in seconds: the
    /// fork-join barrier is a tree/centralized combine whose latency grows
    /// with the team, so dispatching a layer to all 64 cores costs several
    /// times more than to a 8-core team. This is the per-layer overhead
    /// that stops small kernels from scaling with cores (Fig. 4a) and
    /// taxes whole-machine temporal multiplexing once per layer.
    pub sync_per_core_s: f64,
    /// Base cost of growing a running kernel's thread team, in seconds.
    pub spawn_base_s: f64,
    /// Additional team-growth cost per newly spawned thread, in seconds.
    pub spawn_per_core_s: f64,
    /// All-core frequency droop under DVFS: the effective clock scales by
    /// `1 - droop * (active - 1) / (cores - 1)`. The paper disables DVFS
    /// (§5.1); [`MachineConfig::with_dvfs`] re-enables it for sensitivity
    /// studies.
    pub dvfs_droop: f64,
}

impl MachineConfig {
    /// The paper's evaluation platform (Threadripper 3990X class).
    #[must_use]
    pub fn threadripper_3990x() -> Self {
        Self {
            cores: 64,
            freq_ghz: 2.9,
            flops_per_cycle: 32.0,
            l3_bytes: 256.0e6,
            dram_bw: 100.0e9,
            per_core_bw: 20.0e9,
            l3_bw_per_core: 40.0e9,
            dispatch_overhead_s: 5.0e-6,
            sync_per_core_s: 0.4e-6,
            spawn_base_s: 50.0e-6,
            spawn_per_core_s: 2.5e-6,
            dvfs_droop: 0.0,
        }
    }

    /// The same machine with simultaneous multi-threading enabled: twice
    /// the logical cores, each sustaining a little over half the per-core
    /// FP throughput (two hardware threads share the FMA pipes), with
    /// halved per-core bandwidth. The paper turns SMT off because of the
    /// latency fluctuation it induces (§5.1); this variant exists for
    /// sensitivity studies.
    #[must_use]
    pub fn with_smt(mut self) -> Self {
        self.cores *= 2;
        self.flops_per_cycle *= 0.55;
        self.per_core_bw *= 0.5;
        self.l3_bw_per_core *= 0.5;
        self
    }

    /// The same machine with an all-core DVFS frequency droop re-enabled.
    ///
    /// # Panics
    ///
    /// Panics unless `droop` is within `[0, 0.5]`.
    #[must_use]
    pub fn with_dvfs(mut self, droop: f64) -> Self {
        assert!((0.0..=0.5).contains(&droop), "droop must be in [0, 0.5]");
        self.dvfs_droop = droop;
        self
    }

    /// Checks that the machine can be simulated: at least one core, every
    /// rate, capacity and clock finite and positive, every overhead finite
    /// and non-negative, and the DVFS droop within `[0, 0.5]` (the range
    /// [`MachineConfig::with_dvfs`] accepts). Every preset passes, and so
    /// do [`MachineConfig::with_smt`] and [`MachineConfig::with_dvfs`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("a machine needs at least one core".into());
        }
        let positive = [
            ("freq_ghz", self.freq_ghz),
            ("flops_per_cycle", self.flops_per_cycle),
            ("l3_bytes", self.l3_bytes),
            ("dram_bw", self.dram_bw),
            ("per_core_bw", self.per_core_bw),
            ("l3_bw_per_core", self.l3_bw_per_core),
        ];
        if let Some((name, v)) = positive.iter().find(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(format!("{name} must be finite and positive, got {v}"));
        }
        let overheads = [
            ("dispatch_overhead_s", self.dispatch_overhead_s),
            ("sync_per_core_s", self.sync_per_core_s),
            ("spawn_base_s", self.spawn_base_s),
            ("spawn_per_core_s", self.spawn_per_core_s),
        ];
        if let Some((name, v)) = overheads
            .iter()
            .find(|(_, v)| !(v.is_finite() && *v >= 0.0))
        {
            return Err(format!("{name} must be finite and non-negative, got {v}"));
        }
        if !(0.0..=0.5).contains(&self.dvfs_droop) {
            return Err(format!(
                "dvfs_droop must be in [0, 0.5], got {}",
                self.dvfs_droop
            ));
        }
        Ok(())
    }

    /// Effective per-core peak FLOPs/second with `active` cores busy
    /// (accounts for the DVFS droop when enabled).
    #[must_use]
    pub fn effective_flops_per_core(&self, active: u32) -> f64 {
        if self.dvfs_droop == 0.0 {
            // Exactly the general formula's value: the scale is 1.0.
            return self.peak_flops_per_core();
        }
        let scale = if self.cores > 1 {
            1.0 - self.dvfs_droop * f64::from(active.saturating_sub(1)) / f64::from(self.cores - 1)
        } else {
            1.0
        };
        self.peak_flops_per_core() * scale
    }

    /// A small 8-core desktop-class machine, handy for tests that need
    /// saturation to occur quickly.
    #[must_use]
    pub fn desktop_8core() -> Self {
        Self {
            cores: 8,
            freq_ghz: 3.6,
            flops_per_cycle: 32.0,
            l3_bytes: 32.0e6,
            dram_bw: 40.0e9,
            per_core_bw: 20.0e9,
            l3_bw_per_core: 35.0e9,
            dispatch_overhead_s: 3.0e-6,
            sync_per_core_s: 0.3e-6,
            spawn_base_s: 30.0e-6,
            spawn_per_core_s: 2.0e-6,
            dvfs_droop: 0.0,
        }
    }

    /// Peak FLOPs/second of one core.
    #[must_use]
    pub fn peak_flops_per_core(&self) -> f64 {
        self.freq_ghz * 1e9 * self.flops_per_cycle
    }

    /// Peak FLOPs/second of the whole machine.
    #[must_use]
    pub fn peak_flops(&self) -> f64 {
        self.peak_flops_per_core() * f64::from(self.cores)
    }

    /// Cost of dispatching one kernel (unit) to a warm team of `cores`
    /// threads: the fixed fork-join barrier plus the team-size-dependent
    /// synchronization term.
    #[must_use]
    pub fn unit_dispatch_overhead_s(&self, cores: u32) -> f64 {
        self.dispatch_overhead_s + self.sync_per_core_s * f64::from(cores)
    }

    /// Cost of expanding a running kernel's thread team by `added` threads.
    ///
    /// This is the "scheduling conflict" overhead of §3.2: a layer that
    /// starts with fewer cores than requested must spawn additional threads
    /// when cores free up (paper Fig. 5b measures a 220 us mean, 100 us
    /// median for ResNet-50 layers).
    #[must_use]
    pub fn expansion_overhead_s(&self, added: u32) -> f64 {
        if added == 0 {
            0.0
        } else {
            self.spawn_base_s + self.spawn_per_core_s * f64::from(added)
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::threadripper_3990x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_flops_are_consistent() {
        let m = MachineConfig::threadripper_3990x();
        assert!((m.peak_flops_per_core() - 92.8e9).abs() < 1e6);
        assert!((m.peak_flops() - 64.0 * 92.8e9).abs() < 1e8);
    }

    #[test]
    fn expansion_overhead_matches_paper_scale() {
        let m = MachineConfig::threadripper_3990x();
        // Growing by a full 64-core team costs ~210 us (paper mean: 220 us).
        let full = m.expansion_overhead_s(64);
        assert!(full > 150.0e-6 && full < 300.0e-6, "got {full}");
        // Growing by ~20 cores costs ~100 us (paper median: 100 us).
        let median = m.expansion_overhead_s(20);
        assert!(median > 60.0e-6 && median < 150.0e-6, "got {median}");
        assert_eq!(m.expansion_overhead_s(0), 0.0);
    }

    #[test]
    fn default_is_the_paper_testbed() {
        assert_eq!(
            MachineConfig::default(),
            MachineConfig::threadripper_3990x()
        );
    }

    #[test]
    fn presets_and_variants_validate_and_broken_machines_do_not() {
        let big = MachineConfig::threadripper_3990x();
        for m in [
            big.clone(),
            MachineConfig::desktop_8core(),
            big.clone().with_smt(),
            big.clone().with_dvfs(0.5),
            MachineConfig::desktop_8core().with_smt().with_dvfs(0.2),
        ] {
            assert_eq!(m.validate(), Ok(()));
        }
        let broken: [fn(&mut MachineConfig); 8] = [
            |m| m.cores = 0,
            |m| m.l3_bytes = f64::NAN,
            |m| m.dram_bw = 0.0,
            |m| m.freq_ghz = -1.0,
            |m| m.l3_bw_per_core = f64::INFINITY,
            |m| m.dispatch_overhead_s = f64::NAN,
            |m| m.spawn_per_core_s = -1e-6,
            |m| m.dvfs_droop = 0.6,
        ];
        for (i, edit) in broken.iter().enumerate() {
            let mut m = big.clone();
            edit(&mut m);
            assert!(m.validate().is_err(), "broken machine {i} validated");
        }
    }

    #[test]
    fn unit_dispatch_grows_with_team_size() {
        let m = MachineConfig::threadripper_3990x();
        let small = m.unit_dispatch_overhead_s(8);
        let full = m.unit_dispatch_overhead_s(64);
        assert!(full > small, "64-core barrier must cost more than 8-core");
        // The whole-machine barrier is a multiple of the base dispatch
        // cost, large enough to stop tiny layers from scaling (Fig. 4a)
        // but well under the team-rebuild (expansion) overhead.
        assert!(full >= 4.0 * m.dispatch_overhead_s, "got {full}");
        assert!(full < m.expansion_overhead_s(64));
    }
}
