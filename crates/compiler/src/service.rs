//! The compiler as a long-lived service: per-machine compilation with a
//! deterministic artifact cache.
//!
//! [`compile_model`] answers "compile this spec for
//! this machine once"; a serving deployment asks a different question —
//! "give every (model, machine) pair in my heterogeneous fleet the code
//! compiled *for its own hardware*, and never compile the same pair
//! twice". [`CompilerService`] owns that: it memoizes compiled
//! artifacts keyed by `(machine fingerprint, model name, spec
//! fingerprint)` under the options it was built with, so compiling a
//! model set once per machine yields the per-machine model sets fleet
//! nodes serve from. Compilation is deterministic (the auto-scheduler is
//! seeded), so a cache hit and a fresh recompile are bit-identical —
//! pinned by `tests/compiler_service.rs`.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use veltair_models::ModelSpec;
use veltair_sim::MachineConfig;

use crate::compiled::{compile_model, CompiledModel};
use crate::options::CompilerOptions;
use crate::search::SearchStats;

/// A fingerprint of a [`MachineConfig`], used as the machine part of the
/// service's cache key. Two configs share a fingerprint iff every field
/// is bit-equal (`f64` fields are rendered with round-trippable shortest
/// formatting), so distinct hardware never aliases in the cache.
fn machine_key(machine: &MachineConfig) -> String {
    format!("{machine:?}")
}

/// A content fingerprint of a [`ModelSpec`]: the deterministic hash of
/// its full debug rendering (graph, shapes, QoS, class). Keying the
/// cache by *content*, not just the model name, means editing a spec —
/// a new QoS target, a changed layer — while keeping its name can never
/// serve the stale artifact.
fn spec_fingerprint(spec: &ModelSpec) -> u64 {
    // DefaultHasher::new() uses fixed keys, so the fingerprint is stable
    // across processes for identical content.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{spec:?}").hash(&mut hasher);
    hasher.finish()
}

/// A caching, per-machine compilation service.
///
/// ```no_run
/// use veltair_compiler::{CompilerOptions, CompilerService};
/// use veltair_sim::MachineConfig;
///
/// let mut service = CompilerService::new(CompilerOptions::fast());
/// let flagship = MachineConfig::threadripper_3990x();
/// let edge = MachineConfig::desktop_8core();
/// let spec = veltair_models::mobilenet_v2();
/// // One artifact per machine class; a repeated (model, machine) pair is
/// // a cache hit, not a recompile.
/// let on_big = service.compile(&spec, &flagship);
/// let on_edge = service.compile(&spec, &edge);
/// assert_eq!(service.compile(&spec, &flagship), on_big);
/// assert_ne!(on_big, on_edge);
/// assert_eq!(service.cache_stats(), (1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct CompilerService {
    /// Fixed at [`new`](CompilerService::new), so every cached artifact
    /// was compiled under them and the cache key needs no options part.
    options: CompilerOptions,
    /// `(machine fingerprint, model name, spec content fingerprint) →
    /// artifact`. A `BTreeMap` keeps iteration (and `Debug` output)
    /// deterministic.
    cache: BTreeMap<(String, String, u64), CompiledModel>,
    hits: u64,
    misses: u64,
    search_stats: SearchStats,
}

impl CompilerService {
    /// A service compiling every artifact with `options`; a different
    /// option set is a different service.
    #[must_use]
    pub fn new(options: CompilerOptions) -> Self {
        Self {
            options,
            cache: BTreeMap::new(),
            hits: 0,
            misses: 0,
            search_stats: SearchStats::default(),
        }
    }

    /// Compiles `spec` for `machine`, or returns the cached artifact if
    /// this exact (spec content, machine) pair was compiled before.
    /// Either way the result is bit-identical: compilation is
    /// deterministic, and the cache key includes a content fingerprint of
    /// the spec, so a *modified* spec reusing an old name recompiles
    /// instead of serving the stale artifact.
    pub fn compile(&mut self, spec: &ModelSpec, machine: &MachineConfig) -> CompiledModel {
        let key = (
            machine_key(machine),
            spec.graph.name.clone(),
            spec_fingerprint(spec),
        );
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            return cached.clone();
        }
        let compiled = compile_model(spec, machine, &self.options);
        self.misses += 1;
        self.search_stats.accumulate(&compiled.search_stats);
        self.cache.insert(key, compiled.clone());
        compiled
    }

    /// Number of distinct (model, machine) artifacts held.
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.cache.len()
    }

    /// `(cache hits, cache misses)` over the service's lifetime. A miss
    /// is a real compilation.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Aggregate auto-scheduler counters across every *real* compilation
    /// this service performed (cache hits add nothing: no search ran).
    #[must_use]
    pub fn search_stats(&self) -> SearchStats {
        self.search_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_keys_separate_distinct_hardware() {
        let big = MachineConfig::threadripper_3990x();
        let edge = MachineConfig::desktop_8core();
        assert_ne!(machine_key(&big), machine_key(&edge));
        assert_eq!(machine_key(&big), machine_key(&big.clone()));
    }

    #[test]
    fn modified_spec_with_same_name_recompiles() {
        let mut svc = CompilerService::new(CompilerOptions::fast());
        let machine = MachineConfig::threadripper_3990x();
        let spec = veltair_models::mobilenet_v2();
        let original = svc.compile(&spec, &machine);
        // Same name, different content: must miss the cache and produce
        // a different artifact, never serve the stale one.
        let mut changed = spec.clone();
        changed.qos_ms *= 2.0;
        let recompiled = svc.compile(&changed, &machine);
        assert_eq!(
            svc.cache_stats(),
            (0, 2),
            "a modified spec must recompile, not hit the stale artifact"
        );
        assert_ne!(original, recompiled);
        // The unchanged spec still hits.
        let hit = svc.compile(&spec, &machine);
        assert_eq!(svc.cache_stats(), (1, 2));
        assert_eq!(hit, original);
    }
}
