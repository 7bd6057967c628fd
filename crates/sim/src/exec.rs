//! The kernel execution model: a contention-aware roofline.

use crate::contention::{Interference, PressureDemand};
use crate::counters::PerfCounters;
use crate::kernel::{spilled_traffic, KernelProfile};
use crate::machine::MachineConfig;

/// Fraction of the shorter roofline term that is *not* hidden behind the
/// longer one (imperfect compute/memory overlap).
const OVERLAP_RESIDUAL: f64 = 0.25;

/// Bandwidth floor: co-runners can never starve a kernel entirely. The
/// memory controller's fair queueing guarantees roughly a 1/8 share even
/// under the heaviest co-location the paper studies.
const BW_FLOOR_FRAC: f64 = 0.125;

/// Cache floor: a running kernel's actively streamed lines cannot be fully
/// evicted by co-runners (recency wins under LRU-like replacement, and the
/// private L2s are untouchable). ~1.3 MB on the 3990X.
const CACHE_FLOOR_FRAC: f64 = 0.005;

/// Convexity of capacity loss under contention. Co-runners owning a
/// fraction `f` of L3 insertions cost more than `f` of *useful* capacity:
/// the victim's reuse distances lengthen, so its effective share decays as
/// `(1 - f)^3`. Calibrated so the paper's version crossovers (Fig. 6b)
/// spread across the 0-100 % pressure axis.
const CACHE_CONTENTION_EXP: i32 = 3;

/// Cache line size in bytes, for counter synthesis.
const LINE_BYTES: f64 = 64.0;

/// Result of simulating one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Execution {
    /// Wall-clock latency in seconds (kernel only; scheduler dispatch and
    /// team-expansion overheads are charged separately).
    pub latency_s: f64,
    /// Simulated performance counters.
    pub counters: PerfCounters,
    /// Pressure this execution exerts on co-runners while it runs.
    pub demand: PressureDemand,
}

/// Progress of one in-flight scheduling unit in a progress-based DES.
///
/// A unit first pays any pending scheduler overhead (dispatch, thread-team
/// expansion), then works through the kernel at a rate set by the current
/// [`Execution::latency_s`] — which co-location changes re-rate, so
/// progress is tracked as a *fraction* of work remaining rather than a
/// completion timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitProgress {
    /// Fraction of the unit's kernel work still outstanding, in `[0, 1]`.
    pub remaining_frac: f64,
    /// Scheduler overhead seconds still to pay before kernel work resumes.
    pub overhead_s: f64,
}

/// Completion tolerances: progress below these residuals counts as done
/// (floating-point advancement never lands exactly on zero).
const OVERHEAD_DONE_S: f64 = 1e-12;
const FRAC_DONE: f64 = 1e-9;

impl UnitProgress {
    /// A freshly dispatched unit: full work remaining plus the given
    /// scheduler overhead.
    #[inline]
    #[must_use]
    pub fn fresh(overhead_s: f64) -> Self {
        Self {
            remaining_frac: 1.0,
            overhead_s,
        }
    }

    /// Advances by `dt` seconds under the current rating `latency_s`:
    /// overhead drains first, then the remaining fraction.
    #[inline]
    pub fn advance(&mut self, dt: f64, latency_s: f64) {
        let mut left = dt;
        if self.overhead_s > 0.0 {
            let used = self.overhead_s.min(left);
            self.overhead_s -= used;
            left -= used;
        }
        if left > 0.0 && latency_s > 0.0 {
            self.remaining_frac = (self.remaining_frac - left / latency_s).max(0.0);
        }
    }

    /// Charges additional scheduler overhead (e.g. a thread-team growth).
    #[inline]
    pub fn add_overhead(&mut self, seconds: f64) {
        self.overhead_s += seconds;
    }

    /// Restarts the work fraction for the next unit of a block, charging
    /// its dispatch overhead on top of any unpaid remainder.
    #[inline]
    pub fn restart(&mut self, dispatch_overhead_s: f64) {
        self.remaining_frac = 1.0;
        self.overhead_s += dispatch_overhead_s;
    }

    /// Whether the unit has paid its overhead and finished its work.
    #[inline]
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.overhead_s <= OVERHEAD_DONE_S && self.remaining_frac <= FRAC_DONE
    }

    /// Seconds until completion under the current rating, assuming the
    /// co-location does not change again.
    #[inline]
    #[must_use]
    pub fn eta_s(&self, latency_s: f64) -> f64 {
        self.overhead_s + self.remaining_frac * latency_s
    }
}

/// Simulates executing `kernel` on `cores` cores under `interference`.
///
/// The model is a roofline with contention: compute time is
/// `flops / (effective_cores x peak x efficiency)` including a wave-
/// quantization imbalance factor; memory time is cache-share-dependent DRAM
/// traffic divided by the bandwidth left over by co-runners. The two terms
/// overlap imperfectly (`OVERLAP_RESIDUAL`).
///
/// This is a one-shot [`LatencyModel`]; callers that rate one kernel at
/// many core counts, or many times under one pressure, prepare that model
/// once instead, and callers that rate one core grant under many
/// pressures prepare a [`GrantModel`].
///
/// # Panics
///
/// Panics if `cores == 0` or the profile fails [`KernelProfile::validate`];
/// both indicate scheduler or compiler bugs rather than recoverable inputs.
#[must_use]
pub fn execute(
    kernel: &KernelProfile,
    cores: u32,
    interference: Interference,
    machine: &MachineConfig,
) -> Execution {
    LatencyModel::new(kernel, interference, machine).execute(cores)
}

/// The two roofline terms of one kernel on one core count that no
/// interference level changes: the compute time, with the wave-
/// quantization imbalance, and the time the cross-tile reuse stream takes
/// at L3 bandwidth.
///
/// Both depend on the core count only through the effective worker count
/// `min(cores, parallel_chunks)`. [`CoreTerms::table`] therefore holds
/// every value a machine can ask for, and a [`LatencyModel`] prepared over
/// it ([`LatencyModel::with_terms`]) evaluates only the cache- and
/// bandwidth-dependent remainder of each rating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTerms {
    /// Compute time including the wave imbalance, seconds.
    pub compute_s: f64,
    /// Time of the cross-tile reuse stream at L3 bandwidth, seconds.
    pub l3_s: f64,
}

impl CoreTerms {
    /// The terms of `kernel` on `cores` cores of `machine`.
    ///
    /// This is the one place either term is written: live ratings and
    /// [`CoreTerms::table`] both call it.
    ///
    /// The wave count is the integer `chunks.div_ceil(p_eff)`, which
    /// equals `(chunks as f64 / p_eff as f64).ceil()` for every pair of
    /// `u32`s: the quotient of two `u32`s lies at least `1 / p_eff` from
    /// any integer it does not equal, more than the half-ulp its rounding
    /// can move it, so rounding never carries it across one. The integer
    /// form needs no `ceil`, which is a library call on targets without
    /// SSE4.1.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[inline]
    #[must_use]
    pub fn compute(kernel: &KernelProfile, cores: u32, machine: &MachineConfig) -> Self {
        let p_eff = cores.min(kernel.parallel_chunks);
        let chunks = f64::from(kernel.parallel_chunks);
        let ideal_waves = chunks / f64::from(p_eff);
        let imbalance = waves(kernel.parallel_chunks, p_eff) / ideal_waves;
        let compute_s = kernel.flops
            / (f64::from(p_eff)
                * machine.effective_flops_per_core(p_eff)
                * kernel.compute_efficiency)
            * imbalance;
        // The cross-tile reuse stream (all L3-reaching references) is served
        // at L3 bandwidth regardless of residency; fine tilings refetch more.
        let l3_s = kernel.spill_traffic_bytes / (f64::from(p_eff) * machine.l3_bw_per_core);
        Self { compute_s, l3_s }
    }

    /// The terms of `kernel` on `cores` cores, read from `table` (a
    /// prefix of the kernel's [`CoreTerms::table`] on `machine`) when it
    /// covers the count, and computed otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[inline]
    fn lookup(table: &[Self], kernel: &KernelProfile, cores: u32, machine: &MachineConfig) -> Self {
        let p_eff = cores.min(kernel.parallel_chunks);
        match p_eff
            .checked_sub(1)
            .and_then(|entry| table.get(entry as usize))
        {
            Some(&terms) => terms,
            None => Self::compute(kernel, cores, machine),
        }
    }

    /// `kernel`'s terms on `machine` at `1..=min(machine.cores,
    /// parallel_chunks)` cores: entry `p - 1` holds `p` cores. Past
    /// `parallel_chunks` both terms keep the last entry's values.
    #[must_use]
    pub fn table(kernel: &KernelProfile, machine: &MachineConfig) -> Box<[CoreTerms]> {
        (1..=machine.cores.min(kernel.parallel_chunks))
            .map(|p| Self::compute(kernel, p, machine))
            .collect()
    }
}

/// Wave quantization: `chunks` chunks take `ceil(chunks / p_eff)` full
/// waves on `p_eff` workers, so 65 chunks on 64 cores take two.
///
/// # Panics
///
/// Panics if `p_eff == 0`.
#[inline]
fn waves(chunks: u32, p_eff: u32) -> f64 {
    f64::from(chunks.div_ceil(p_eff))
}

/// One kernel's execution model under one fixed interference, prepared
/// once and then rated at any core count.
///
/// Preparing evaluates the interference-only terms (the cache share and
/// bandwidth co-runners leave). Each rating then prepares the kernel's
/// [`GrantModel`] on the core count and evaluates it under those shares:
/// its [`CoreTerms`] come from the table the model was prepared over when
/// that covers the core count, and are computed live otherwise.
/// [`execute`] is exactly `LatencyModel::new(..).execute(cores)`, and a
/// [`GrantModel`] rates through the same formula, so every prepared
/// rating, tabulated or live, per interference or per grant, is
/// bit-identical to the one-shot one. [`LatencyModel::add_latencies`]
/// rates a run of core counts through that formula too, without a
/// [`GrantModel`] per count.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel<'a> {
    kernel: &'a KernelProfile,
    machine: &'a MachineConfig,
    /// A prefix of `kernel`'s [`CoreTerms::table`] on `machine`; empty
    /// when every rating computes its terms live.
    terms: &'a [CoreTerms],
    /// What the kernel's co-runners leave it.
    shares: Shares,
}

impl<'a> LatencyModel<'a> {
    /// Prepares `kernel` under `interference`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`KernelProfile::validate`].
    #[must_use]
    pub fn new(
        kernel: &'a KernelProfile,
        interference: Interference,
        machine: &'a MachineConfig,
    ) -> Self {
        if let Err(e) = kernel.validate() {
            panic!("invalid kernel profile: {e}");
        }
        Self::prevalidated(kernel, interference, machine)
    }

    /// Prepares a profile the caller has already validated, skipping the
    /// check: the serving runtime validates every compiled profile once
    /// when a simulation is built and rates through this path afterwards.
    /// An invalid profile rates to meaningless (possibly NaN) figures
    /// instead of panicking.
    #[inline]
    #[must_use]
    pub fn prevalidated(
        kernel: &'a KernelProfile,
        interference: Interference,
        machine: &'a MachineConfig,
    ) -> Self {
        Self::with_terms(kernel, &[], interference, machine)
    }

    /// Prepares a validated profile over its [`CoreTerms::table`] on
    /// `machine` (or a prefix of it), so ratings read the core terms
    /// instead of computing them. Core counts the table does not cover
    /// are computed live, so the ratings match
    /// [`LatencyModel::prevalidated`] bit for bit.
    ///
    /// The caller vouches that `terms` was tabulated for this kernel on
    /// this machine: the serving runtime passes the tables the compiler
    /// built with the layer, and only when it serves on the machine the
    /// model was compiled for.
    #[inline]
    #[must_use]
    pub fn with_terms(
        kernel: &'a KernelProfile,
        terms: &'a [CoreTerms],
        interference: Interference,
        machine: &'a MachineConfig,
    ) -> Self {
        debug_assert!(
            terms.len() <= machine.cores.min(kernel.parallel_chunks) as usize,
            "a core-terms table covers at most min(cores, parallel_chunks) entries"
        );
        Self {
            kernel,
            machine,
            terms,
            shares: Shares::new(interference, machine.l3_bytes, machine.dram_bw),
        }
    }

    /// Kernel latency on `cores` cores: `self.execute(cores).latency_s`
    /// without the counters and demand.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[inline]
    #[must_use]
    pub fn latency_s(&self, cores: u32) -> f64 {
        self.grant(cores).roofline(self.shares).latency_s
    }

    /// Adds `self.latency_s(p) + extra_s` to `sums[i]` for the run of
    /// core counts `p = first + i`, bit for bit the one-at-a-time
    /// ratings.
    ///
    /// Below `parallel_chunks` every term moves with the core count, and
    /// the loop reads the core terms from the table the model was
    /// prepared over, one entry per count (computing them live past its
    /// end). From `parallel_chunks` on, the terms the grant fixes (the
    /// core terms, the footprint and the spilled traffic) no longer move:
    /// they are evaluated once, and each count only divides the traffic
    /// by the bandwidth its cores can draw. Once that reaches what
    /// co-runners leave, the unit is saturated and every larger count
    /// adds the same rating.
    ///
    /// # Panics
    ///
    /// Panics if `first == 0` and `sums` is not empty.
    #[inline]
    pub fn add_latencies(&self, first: u32, extra_s: f64, sums: &mut [f64]) {
        if sums.is_empty() {
            return;
        }
        assert!(first > 0, "cannot execute a kernel on zero cores");
        let (kernel, machine) = (self.kernel, self.machine);
        let chunks = kernel.parallel_chunks;
        let below = (chunks.saturating_sub(first) as usize).min(sums.len());
        let (varying, fixed) = sums.split_at_mut(below);
        let table = self.terms.get(first as usize - 1..).unwrap_or_default();
        let (tabulated, live) = varying.split_at_mut(table.len().min(below));
        for ((sum, &terms), p) in tabulated.iter_mut().zip(table).zip(first..) {
            *sum += self.roofline_latency(terms, p) + extra_s;
        }
        for (sum, p) in live.iter_mut().zip(first + tabulated.len() as u32..) {
            *sum += self.roofline_latency(CoreTerms::compute(kernel, p, machine), p) + extra_s;
        }
        if fixed.is_empty() {
            return;
        }
        let first = first.max(chunks);
        let terms = CoreTerms::lookup(self.terms, kernel, first, machine);
        let traffic = self.traffic(first);
        let mut counts = fixed.iter_mut().zip(first..);
        while let Some((sum, p)) = counts.next() {
            let core_bw = f64::from(p) * machine.per_core_bw;
            let rated = latency(terms, traffic / self.shares.bw.min(core_bw)) + extra_s;
            *sum += rated;
            if core_bw >= self.shares.bw {
                counts.for_each(|(sum, _)| *sum += rated);
                return;
            }
        }
    }

    /// `self.latency_s(cores)` over the given core terms: the roofline a
    /// [`GrantModel`] on `cores` would evaluate, without preparing one.
    #[inline]
    fn roofline_latency(&self, terms: CoreTerms, cores: u32) -> f64 {
        let core_bw = f64::from(cores) * self.machine.per_core_bw;
        latency(terms, self.traffic(cores) / self.shares.bw.min(core_bw))
    }

    /// The DRAM traffic of the kernel on `cores` cores under the cache
    /// share co-runners leave.
    #[inline]
    fn traffic(&self, cores: u32) -> f64 {
        let kernel = self.kernel;
        spilled_traffic(
            kernel.min_traffic_bytes,
            kernel.spill_traffic_bytes,
            kernel.footprint_bytes(cores),
            self.shares.cache,
        )
    }

    /// The full rating on `cores` cores: latency, counters and demand.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[inline]
    #[must_use]
    pub fn execute(&self, cores: u32) -> Execution {
        self.grant(cores).rate(self.shares)
    }

    #[inline]
    fn grant(&self, cores: u32) -> GrantModel {
        GrantModel::with_terms(self.kernel, self.terms, cores, self.machine)
    }
}

/// One kernel's execution model on one core grant, prepared once and then
/// rated under any interference: the transpose of [`LatencyModel`].
///
/// Preparing evaluates every term the grant fixes: the [`CoreTerms`]
/// (from the table the model is prepared over when that covers the
/// grant, computed live otherwise), the footprint, the DRAM bandwidth
/// the granted cores can draw, the L3 accesses and the instruction
/// count. Each rating then evaluates only the cache- and
/// bandwidth-dependent remainder. Both models rate through one formula,
/// so `GrantModel::with_terms(kernel, terms, cores, machine)
/// .execute(interference)` is bit-identical to
/// `LatencyModel::with_terms(kernel, terms, interference, machine)
/// .execute(cores)`.
///
/// The model copies what it reads and borrows nothing, so the serving
/// runtime keeps one per in-flight unit.
#[derive(Debug, Clone, Copy)]
pub struct GrantModel {
    /// The effective worker count `min(cores, parallel_chunks)`.
    p_eff: f64,
    terms: CoreTerms,
    /// The L3-resident working set on the grant, bytes.
    footprint: f64,
    /// DRAM bandwidth the granted cores can draw, bytes/second.
    core_bw: f64,
    min_traffic: f64,
    spill_traffic: f64,
    l3_accesses: f64,
    instructions: f64,
    flops: f64,
    l3_bytes: f64,
    dram_bw: f64,
    /// One cache-fill window, `l3_bytes / dram_bw` seconds.
    fill_s: f64,
    freq_ghz: f64,
}

/// What co-runners leave a kernel: the interference-only terms of a
/// rating.
#[derive(Debug, Clone, Copy)]
struct Shares {
    /// Effective L3 bytes.
    cache: f64,
    /// DRAM bandwidth, bytes/second.
    bw: f64,
}

impl Shares {
    #[inline]
    fn new(interference: Interference, l3_bytes: f64, dram_bw: f64) -> Self {
        Self {
            cache: (l3_bytes * (1.0 - interference.cache_frac).powi(CACHE_CONTENTION_EXP))
                .max(l3_bytes * CACHE_FLOOR_FRAC),
            bw: (dram_bw * (1.0 - interference.bw_frac)).max(dram_bw * BW_FLOOR_FRAC),
        }
    }
}

/// The one latency formula: the roofline over the core terms and the
/// DRAM time, its terms overlapping imperfectly (`OVERLAP_RESIDUAL`).
#[inline]
fn latency(terms: CoreTerms, t_dram: f64) -> f64 {
    let CoreTerms {
        compute_s: t_comp,
        l3_s: t_l3,
    } = terms;
    let serial = t_comp.max(t_dram).max(t_l3);
    serial + OVERLAP_RESIDUAL * (t_comp + t_dram + t_l3 - serial)
}

/// The quantities one rating shares between its latency and its counters
/// and demand.
struct Roofline {
    traffic: f64,
    latency_s: f64,
}

impl GrantModel {
    /// Prepares a validated profile on `cores` cores of `machine`, over
    /// its [`CoreTerms::table`] on `machine` or a prefix of it (empty to
    /// compute the terms live). The caller vouches for the profile and
    /// the table as for [`LatencyModel::with_terms`].
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[inline]
    #[must_use]
    pub fn with_terms(
        kernel: &KernelProfile,
        terms: &[CoreTerms],
        cores: u32,
        machine: &MachineConfig,
    ) -> Self {
        assert!(cores > 0, "cannot execute a kernel on zero cores");
        debug_assert!(
            terms.len() <= machine.cores.min(kernel.parallel_chunks) as usize,
            "a core-terms table covers at most min(cores, parallel_chunks) entries"
        );
        // All L3-reaching references are a schedule property (the reuse
        // stream); how many of them miss depends on the cache share
        // actually obtained.
        let l3_accesses = (kernel.spill_traffic_bytes / LINE_BYTES).max(1.0);
        Self {
            p_eff: f64::from(cores.min(kernel.parallel_chunks)),
            terms: CoreTerms::lookup(terms, kernel, cores, machine),
            footprint: kernel.footprint_bytes(cores),
            core_bw: f64::from(cores) * machine.per_core_bw,
            min_traffic: kernel.min_traffic_bytes,
            spill_traffic: kernel.spill_traffic_bytes,
            l3_accesses,
            // SIMD compute instructions plus one instruction per line
            // touched.
            instructions: kernel.flops / (machine.flops_per_cycle / 2.0) + l3_accesses,
            flops: kernel.flops,
            l3_bytes: machine.l3_bytes,
            dram_bw: machine.dram_bw,
            fill_s: machine.l3_bytes / machine.dram_bw,
            freq_ghz: machine.freq_ghz,
        }
    }

    /// The full rating under `interference`: latency, counters and
    /// demand.
    #[inline]
    #[must_use]
    pub fn execute(&self, interference: Interference) -> Execution {
        self.rate(Shares::new(interference, self.l3_bytes, self.dram_bw))
    }

    #[inline]
    fn roofline(&self, shares: Shares) -> Roofline {
        let traffic = spilled_traffic(
            self.min_traffic,
            self.spill_traffic,
            self.footprint,
            shares.cache,
        );
        Roofline {
            traffic,
            latency_s: latency(self.terms, traffic / shares.bw.min(self.core_bw)),
        }
    }

    #[inline]
    fn rate(&self, shares: Shares) -> Execution {
        let Roofline { traffic, latency_s } = self.roofline(shares);
        let counters = PerfCounters {
            l3_accesses: self.l3_accesses,
            l3_misses: (traffic / LINE_BYTES).min(self.l3_accesses),
            instructions: self.instructions,
            cycles: latency_s * self.freq_ghz * 1e9 * self.p_eff,
            flops: self.flops,
        };
        // Cache pressure = held working set + LRU pollution by the DRAM
        // insertion stream over one cache-fill window.
        let bw_bytes_per_s = traffic / latency_s.max(1e-12);
        let pollution = bw_bytes_per_s * self.fill_s;
        let demand = PressureDemand {
            cache_bytes: (self.footprint + pollution).min(self.l3_bytes),
            bw_bytes_per_s,
        };
        Execution {
            latency_s,
            counters,
            demand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::threadripper_3990x()
    }

    /// A parallelism-oriented kernel: tiny tiles, tiny footprint, higher
    /// compulsory traffic, slightly lower inner-loop efficiency.
    fn parallel_kernel() -> KernelProfile {
        KernelProfile {
            flops: 231.0e6,
            compute_efficiency: 0.6,
            parallel_chunks: 448,
            footprint_base_bytes: 0.3e6,
            footprint_per_core_bytes: 25.0e3,
            min_traffic_bytes: 4.4e6,
            spill_traffic_bytes: 95.0e6,
        }
    }

    /// A locality-oriented kernel: large tiles, large footprint, minimal
    /// compulsory traffic, best inner-loop efficiency.
    fn locality_kernel() -> KernelProfile {
        KernelProfile {
            flops: 231.0e6,
            compute_efficiency: 0.85,
            parallel_chunks: 56,
            footprint_base_bytes: 2.4e6,
            footprint_per_core_bytes: 2.5e6,
            min_traffic_bytes: 4.4e6,
            spill_traffic_bytes: 40.0e6,
        }
    }

    #[test]
    fn more_cores_never_slower() {
        let k = parallel_kernel();
        let mut last = f64::INFINITY;
        for p in [1u32, 2, 4, 8, 16, 32, 64] {
            let e = execute(&k, p, Interference::NONE, &machine());
            assert!(e.latency_s <= last * 1.0001, "latency grew at p={p}");
            last = e.latency_s;
        }
    }

    #[test]
    fn scaling_saturates_at_parallel_chunks() {
        let k = KernelProfile {
            parallel_chunks: 8,
            ..parallel_kernel()
        };
        let e8 = execute(&k, 8, Interference::NONE, &machine());
        let e64 = execute(&k, 64, Interference::NONE, &machine());
        assert!((e8.latency_s - e64.latency_s).abs() / e8.latency_s < 1e-9);
    }

    #[test]
    fn wave_quantization_penalizes_poor_divisibility() {
        // 65 chunks on 64 cores takes ~2x the time of 64 chunks.
        let k64 = KernelProfile {
            parallel_chunks: 64,
            ..parallel_kernel()
        };
        let k65 = KernelProfile {
            parallel_chunks: 65,
            ..parallel_kernel()
        };
        let e64 = execute(&k64, 64, Interference::NONE, &machine());
        let e65 = execute(&k65, 64, Interference::NONE, &machine());
        // The compute term doubles; memory terms dilute the overall ratio.
        assert!(e65.latency_s > 1.5 * e64.latency_s);
    }

    /// The integer wave count against the float ceiling it replaced, bit
    /// for bit, over edge pairs and random pairs of every magnitude.
    #[test]
    fn integer_wave_count_equals_the_float_ceiling() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let check = |chunks: u32, p: u32| {
            let float = (f64::from(chunks) / f64::from(p)).ceil();
            assert_eq!(
                waves(chunks, p).to_bits(),
                float.to_bits(),
                "{chunks} chunks on {p} workers"
            );
        };
        let edges = [
            0u32,
            1,
            2,
            3,
            7,
            63,
            64,
            65,
            (1 << 16) - 1,
            1 << 16,
            (1 << 24) - 1,
            1 << 24,
            (1 << 24) + 1,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
            u32::MAX - 2,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &chunks in &edges {
            for &p in edges.iter().filter(|&&p| p > 0) {
                check(chunks, p);
            }
        }
        let mut rng = StdRng::seed_from_u64(0x3a7e5);
        for _ in 0..100_000 {
            let chunks = rng.gen::<u32>() >> rng.gen_range(0u32..32);
            let p = (rng.gen::<u32>() >> rng.gen_range(0u32..32)).max(1);
            check(chunks, p);
            // The neighbours of a multiple, where a rounding error would
            // land the quotient on the wrong side of an integer.
            let multiple = chunks / p * p;
            for c in [
                multiple.saturating_sub(1),
                multiple,
                multiple.saturating_add(1),
            ] {
                check(c, p);
            }
        }
    }

    #[test]
    fn interference_never_speeds_up() {
        for k in [parallel_kernel(), locality_kernel()] {
            let mut last = 0.0;
            for lvl in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let e = execute(&k, 16, Interference::level(lvl), &machine());
                assert!(e.latency_s >= last - 1e-15, "latency fell at level {lvl}");
                last = e.latency_s;
            }
        }
    }

    #[test]
    fn fig6_shape_locality_wins_solo_parallelism_wins_contended() {
        // The paper's central compilation insight (Fig. 6): the
        // locality-optimal version is fastest in isolation but degrades
        // ~7x under heavy interference, where the parallel version wins.
        let m = machine();
        let loc_solo = execute(&locality_kernel(), 16, Interference::NONE, &m).latency_s;
        let par_solo = execute(&parallel_kernel(), 16, Interference::NONE, &m).latency_s;
        let loc_high = execute(&locality_kernel(), 16, Interference::level(0.95), &m).latency_s;
        let par_high = execute(&parallel_kernel(), 16, Interference::level(0.95), &m).latency_s;
        assert!(loc_solo < par_solo, "locality version must win solo");
        assert!(
            par_high < loc_high,
            "parallel version must win under contention"
        );
        let degradation = loc_high / loc_solo;
        assert!(
            degradation > 3.0,
            "locality version degraded only {degradation:.2}x"
        );
        assert!(
            par_high / par_solo < 3.0,
            "parallel version should be robust"
        );
    }

    #[test]
    fn counters_reflect_contention() {
        let m = machine();
        let solo = execute(&locality_kernel(), 16, Interference::NONE, &m);
        let high = execute(&locality_kernel(), 16, Interference::level(0.9), &m);
        assert!(high.counters.l3_miss_rate() > solo.counters.l3_miss_rate());
        assert!(high.counters.ipc() < solo.counters.ipc());
        assert_eq!(solo.counters.flops, high.counters.flops);
    }

    #[test]
    fn demand_is_bounded_by_machine() {
        let m = machine();
        let e = execute(&locality_kernel(), 64, Interference::NONE, &m);
        assert!(e.demand.cache_bytes <= m.l3_bytes);
        assert!(e.demand.bw_bytes_per_s <= m.dram_bw * 1.01);
    }

    #[test]
    #[should_panic(expected = "zero cores")]
    fn zero_cores_panics() {
        let _ = execute(&parallel_kernel(), 0, Interference::NONE, &machine());
    }

    #[test]
    fn progress_pays_overhead_before_work() {
        let mut p = UnitProgress::fresh(1.0);
        p.advance(0.5, 10.0);
        assert!((p.overhead_s - 0.5).abs() < 1e-12);
        assert!(
            (p.remaining_frac - 1.0).abs() < 1e-12,
            "no work while overhead is unpaid"
        );
        p.advance(1.5, 10.0);
        assert!(p.overhead_s <= 1e-12);
        assert!((p.remaining_frac - 0.9).abs() < 1e-9);
    }

    #[test]
    fn progress_completes_exactly_at_eta() {
        let mut p = UnitProgress::fresh(0.25);
        let eta = p.eta_s(2.0);
        assert!((eta - 2.25).abs() < 1e-12);
        p.advance(eta, 2.0);
        assert!(p.is_done());
    }

    #[test]
    fn progress_restart_charges_dispatch_overhead() {
        let mut p = UnitProgress::fresh(0.0);
        p.advance(1.0, 1.0);
        assert!(p.is_done());
        p.restart(0.01);
        assert!(!p.is_done());
        assert!((p.remaining_frac - 1.0).abs() < 1e-12);
        assert!((p.overhead_s - 0.01).abs() < 1e-12);
    }
}
