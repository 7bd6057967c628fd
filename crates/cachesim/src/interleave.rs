//! Multi-tenant trace interleaving on one shared cache.
//!
//! Co-located kernels on the paper's CPU share the L3: each tenant's
//! insertions displace the others' lines. Interleaving per-tenant address
//! streams proportionally to their access rates and replaying the merged
//! stream through one [`SetAssociativeCache`] measures exactly that
//! displacement — the ground truth the analytic `Interference` model
//! approximates.

use crate::cache::{AccessOutcome, CacheConfig, SetAssociativeCache};

/// Per-tenant outcome of an interleaved replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Accesses issued by this tenant.
    pub accesses: u64,
    /// This tenant's misses.
    pub misses: u64,
}

impl TenantStats {
    /// The tenant's miss rate (zero when it issued no accesses).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Bytes this tenant fetched from DRAM.
    #[must_use]
    pub fn traffic_bytes(&self, line_bytes: u64) -> f64 {
        (self.misses * line_bytes) as f64
    }
}

/// Replays several tenants' address streams through one shared cache,
/// interleaving them proportionally to stream length (each step advances
/// the tenant that is furthest behind its fair share — a deterministic
/// stand-in for concurrent execution at equal rates).
///
/// Tenant address spaces are offset apart automatically so distinct
/// tenants never share lines.
///
/// # Panics
///
/// Panics if `traces` is empty.
#[must_use]
pub fn interleave_proportional(
    traces: &[Vec<u64>],
    config: CacheConfig,
) -> (Vec<TenantStats>, SetAssociativeCache) {
    assert!(!traces.is_empty(), "need at least one tenant trace");
    let mut cache = SetAssociativeCache::new(config);
    let mut stats = vec![TenantStats::default(); traces.len()];
    let mut pos = vec![0usize; traces.len()];
    let total: usize = traces.iter().map(Vec::len).sum();
    let span = traces
        .iter()
        .flat_map(|t| t.iter().copied())
        .max()
        .map_or(1u64, |m| (m + 1).next_power_of_two());

    for step in 1..=total {
        // Pick the tenant with the largest deficit against its fair share.
        let tenant = (0..traces.len())
            .filter(|&t| pos[t] < traces[t].len())
            .max_by(|&a, &b| {
                let deficit = |t: usize| {
                    let fair = traces[t].len() as f64 * step as f64 / total as f64;
                    fair - pos[t] as f64
                };
                deficit(a).total_cmp(&deficit(b)).then(b.cmp(&a))
            })
            .expect("some tenant still has accesses");
        let addr = traces[tenant][pos[tenant]] + tenant as u64 * span;
        pos[tenant] += 1;
        stats[tenant].accesses += 1;
        if cache.access(addr) == AccessOutcome::Miss {
            stats[tenant].misses += 1;
        }
    }
    (stats, cache)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 64).collect()
    }

    #[test]
    fn single_tenant_matches_solo_replay() {
        let cfg = CacheConfig::new(4096, 64, 4);
        let trace: Vec<u64> = lines(32).into_iter().chain(lines(32)).collect();
        let (stats, cache) = interleave_proportional(std::slice::from_ref(&trace), cfg);
        let mut solo = SetAssociativeCache::new(cfg);
        solo.run(trace);
        assert_eq!(stats[0].misses, solo.stats().misses);
        assert_eq!(cache.stats().accesses, solo.stats().accesses);
    }

    #[test]
    fn corunner_inflates_victim_misses() {
        // The victim's working set fits the cache alone but not alongside
        // the aggressor's: its steady-state misses must rise.
        let cfg = CacheConfig::new(8192, 64, 8); // 128 lines
        let victim: Vec<u64> = (0..6).flat_map(|_| lines(80)).collect();
        let aggressor: Vec<u64> = (0..6).flat_map(|_| lines(100)).collect();
        let (solo, _) = interleave_proportional(std::slice::from_ref(&victim), cfg);
        let (shared, _) = interleave_proportional(&[victim, aggressor], cfg);
        assert!(
            shared[0].misses > solo[0].misses,
            "victim misses {} -> {}",
            solo[0].misses,
            shared[0].misses
        );
    }

    #[test]
    fn tenants_do_not_alias() {
        // Two tenants touching identical addresses must still miss
        // independently (address spaces are offset).
        let cfg = CacheConfig::new(65536, 64, 16);
        let (stats, _) = interleave_proportional(&[lines(16), lines(16)], cfg);
        assert_eq!(stats[0].misses, 16);
        assert_eq!(stats[1].misses, 16);
    }

    #[test]
    fn interleaving_is_fair_and_complete() {
        let cfg = CacheConfig::new(4096, 64, 4);
        let (stats, cache) = interleave_proportional(&[lines(100), lines(50)], cfg);
        assert_eq!(stats[0].accesses, 100);
        assert_eq!(stats[1].accesses, 50);
        assert_eq!(cache.stats().accesses, 150);
    }

    #[test]
    fn deterministic() {
        let cfg = CacheConfig::new(4096, 64, 4);
        let a = interleave_proportional(&[lines(64), lines(48)], cfg).0;
        let b = interleave_proportional(&[lines(64), lines(48)], cfg).0;
        assert_eq!(a, b);
    }
}
