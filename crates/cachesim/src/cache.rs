//! A set-associative cache with true-LRU replacement.

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent: zero sizes, a line size
    /// that is not a power of two, or a capacity not divisible into whole
    /// sets of `ways` lines.
    #[must_use]
    pub fn new(capacity_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        assert!(
            capacity_bytes > 0 && line_bytes > 0 && ways > 0,
            "cache geometry must be positive"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let lines = capacity_bytes / line_bytes;
        assert!(
            lines * line_bytes == capacity_bytes,
            "capacity must be a whole number of lines"
        );
        assert!(
            lines.is_multiple_of(u64::from(ways)),
            "capacity of {lines} lines does not divide into {ways}-way sets"
        );
        Self {
            capacity_bytes,
            line_bytes,
            ways,
        }
    }

    /// A 16-way cache geometry resembling one L3 slice of the paper's CPU,
    /// scaled by `capacity_bytes` (validation runs use scaled-down caches
    /// to keep traces short).
    #[must_use]
    pub fn l3_slice(capacity_bytes: u64) -> Self {
        Self::new(capacity_bytes, 64, 16)
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / self.line_bytes / u64::from(self.ways)
    }
}

/// Whether an access hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was fetched (and possibly evicted another line).
    Miss,
}

/// Running counters of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of accesses that missed (zero when no accesses occurred).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Bytes fetched from the next level (misses times the line size).
    #[must_use]
    pub fn traffic_bytes(&self, line_bytes: u64) -> f64 {
        (self.misses * line_bytes) as f64
    }
}

/// A set-associative cache with true-LRU replacement per set.
///
/// Addresses are byte addresses; the cache maps them to lines and sets
/// internally. Tags store the full line address, so arbitrarily sparse
/// address spaces work.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    /// Per-set recency stacks: most-recently-used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl SetAssociativeCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = usize::try_from(config.sets()).expect("set count fits a usize");
        Self {
            config,
            sets: vec![Vec::new(); sets],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses one byte address, updating LRU state and counters.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let line = addr / self.config.line_bytes;
        let set_idx = usize::try_from(line % self.config.sets()).expect("set index fits");
        let set = &mut self.sets[set_idx];
        self.stats.accesses += 1;

        if let Some(pos) = set.iter().position(|&tag| tag == line) {
            set.remove(pos);
            set.push(line);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        if set.len() == self.config.ways as usize {
            set.remove(0);
            self.stats.evictions += 1;
        }
        set.push(line);
        AccessOutcome::Miss
    }

    /// Streams a sequence of byte addresses through the cache.
    pub fn run<I: IntoIterator<Item = u64>>(&mut self, addrs: I) {
        for a in addrs {
            self.access(a);
        }
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of currently resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_after_first_miss() {
        let mut c = SetAssociativeCache::new(CacheConfig::new(1024, 64, 4));
        assert_eq!(c.access(128), AccessOutcome::Miss);
        assert_eq!(c.access(128), AccessOutcome::Hit);
        assert_eq!(
            c.access(130),
            AccessOutcome::Hit,
            "same line, different byte"
        );
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        // One set of 2 ways: sets = 2048/64/16... build a direct geometry:
        // capacity 128, line 64, ways 2 -> exactly one set.
        let mut c = SetAssociativeCache::new(CacheConfig::new(128, 64, 2));
        c.access(0); // line 0
        c.access(64); // line 1
        c.access(0); // touch line 0 (now MRU)
        c.access(128); // line 2 evicts line 1 (LRU)
        assert_eq!(c.access(0), AccessOutcome::Hit, "MRU line must survive");
        assert_eq!(c.access(64), AccessOutcome::Miss, "LRU line must be gone");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn set_mapping_isolates_conflicts() {
        // Two sets: lines alternate sets by parity.
        let mut c = SetAssociativeCache::new(CacheConfig::new(256, 64, 2));
        assert_eq!(c.config().sets(), 2);
        // Even lines (set 0): 0, 128, 256 -> three lines in a 2-way set.
        c.access(0);
        c.access(128);
        c.access(256);
        // Odd line (set 1) is untouched by those evictions.
        c.access(64);
        assert_eq!(c.access(64), AccessOutcome::Hit);
        assert_eq!(c.access(0), AccessOutcome::Miss, "oldest even line evicted");
    }

    #[test]
    fn working_set_within_capacity_converges_to_all_hits() {
        let cfg = CacheConfig::new(4096, 64, 4);
        let mut c = SetAssociativeCache::new(cfg);
        let lines: Vec<u64> = (0..32).map(|i| i * 64).collect(); // 2 KB
        c.run(lines.iter().copied());
        let cold_misses = c.stats().misses;
        for _ in 0..10 {
            c.run(lines.iter().copied());
        }
        assert_eq!(
            c.stats().misses,
            cold_misses,
            "steady state must be all hits"
        );
        assert_eq!(cold_misses, 32);
    }

    #[test]
    fn cyclic_overflow_thrashes_lru() {
        // A cyclic scan one line larger than a set thrashes true LRU: every
        // access misses once the set is saturated.
        let mut c = SetAssociativeCache::new(CacheConfig::new(128, 64, 2));
        let lines: Vec<u64> = vec![0, 128, 256]; // all map to set 0
        for _ in 0..5 {
            c.run(lines.iter().copied());
        }
        assert_eq!(c.stats().hits, 0, "LRU must thrash on cyclic overflow");
    }

    #[test]
    fn reset_clears_state() {
        let mut c = SetAssociativeCache::new(CacheConfig::new(1024, 64, 4));
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.access(0), AccessOutcome::Miss);
    }

    #[test]
    fn stats_helpers() {
        let s = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            evictions: 1,
        };
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert!((s.traffic_bytes(64) - 192.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_line_size_panics() {
        let _ = CacheConfig::new(1024, 48, 4);
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn indivisible_geometry_panics() {
        let _ = CacheConfig::new(192, 64, 2);
    }
}
