//! Compiled artifacts: versioned layers and models with precomputed
//! interference-indexed lookup tables for the runtime scheduler.

use std::sync::Arc;

use veltair_models::{ModelSpec, WorkloadClass};
use veltair_sim::{execute, CoreTerms, Interference, KernelProfile, LatencyModel, MachineConfig};
use veltair_tensor::{GemmView, Schedule};

use crate::lower::lower_streaming;
use crate::multiversion::select_versions;
use crate::options::{
    bin_for_level, interference_bins, CompilerOptions, NUM_INTERFERENCE_BINS, QOS_PLAN_MARGIN,
};
use crate::search::{search, Sample, SearchStats};

/// One retained code version of a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompiledVersion {
    /// The schedule it was lowered from (`None` for fixed streaming
    /// kernels of non-GEMM operators).
    pub schedule: Option<Schedule>,
    /// Execution profile consumed by the machine model.
    pub profile: KernelProfile,
    /// The paper's parallelism metric.
    pub parallelism: f64,
    /// The paper's locality metric (blocking size, bytes).
    pub locality_bytes: f64,
}

impl CompiledVersion {
    /// Wraps an auto-scheduler sample.
    #[must_use]
    pub fn from_sample(s: Sample) -> Self {
        Self {
            schedule: Some(s.schedule),
            profile: s.profile,
            parallelism: s.parallelism,
            locality_bytes: s.locality_bytes,
        }
    }
}

/// Core-count classes at which the best-version lookup table is built.
/// Runtime queries round down to the nearest class, so version choice
/// reflects the allocation a block will actually receive (a saturated
/// system grants 2-8 cores, where locality-heavy versions keep winning
/// even under pressure because the per-worker footprint is small).
pub const CORE_CLASSES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Index of the largest core class not exceeding `cores`.
fn class_for(cores: u32) -> usize {
    CORE_CLASSES
        .iter()
        .rposition(|&c| c <= cores.max(1))
        .unwrap_or(0)
}

/// A compiled layer: its multi-version code library plus the lookup tables
/// (best version and per-version core requirement per interference bin)
/// that make runtime decisions O(1), and each version's [`CoreTerms`]
/// table that makes a runtime rating cheap.
#[derive(Clone, PartialEq)]
pub struct CompiledLayer {
    /// Scheduling-unit name (fused producer + epilogues).
    pub name: String,
    /// FLOPs of the fused unit.
    pub flops: f64,
    /// Perfect-reuse bytes of the fused unit.
    pub bytes: f64,
    /// This layer's slice of the model QoS budget, seconds.
    pub qos_share_s: f64,
    /// Whether the QoS share is attainable in isolation on the full machine.
    pub qos_feasible: bool,
    /// Retained versions, most-local first.
    ///
    /// Every table of the layer is derived from these profiles when the
    /// layer is built, like the core requirements and best versions:
    /// editing a profile in place means rebuilding the layer with
    /// [`CompiledLayer::build`].
    pub versions: Vec<CompiledVersion>,
    /// Best version index per core class per interference bin.
    best_version: Vec<[usize; NUM_INTERFERENCE_BINS]>,
    /// Core class index of the compiler's reference core count.
    reference_class: usize,
    /// Minimum cores meeting the QoS share, per version per bin.
    core_req: Vec<[u32; NUM_INTERFERENCE_BINS]>,
    /// Each version's [`CoreTerms::table`] on the build machine, shared
    /// by every clone of the layer.
    core_terms: Arc<[Box<[CoreTerms]>]>,
}

impl std::fmt::Debug for CompiledLayer {
    /// Prints the lengths of the core-terms tables, not their entries.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core_terms: Vec<usize> = self.core_terms.iter().map(|t| t.len()).collect();
        f.debug_struct("CompiledLayer")
            .field("name", &self.name)
            .field("flops", &self.flops)
            .field("bytes", &self.bytes)
            .field("qos_share_s", &self.qos_share_s)
            .field("qos_feasible", &self.qos_feasible)
            .field("versions", &self.versions)
            .field("best_version", &self.best_version)
            .field("reference_class", &self.reference_class)
            .field("core_req", &self.core_req)
            .field("core_terms", &core_terms)
            .finish()
    }
}

impl CompiledLayer {
    /// Builds the lookup tables for a set of versions on `machine`: the
    /// best version per core class and interference bin, each version's
    /// core requirement per bin, and each version's [`CoreTerms::table`],
    /// which the serving runtime reads whenever it serves on `machine`.
    ///
    /// Each profile is validated once, up front, and the other tables
    /// rate it over its core-terms table.
    ///
    /// # Panics
    ///
    /// Panics if `versions` is empty or a profile fails
    /// [`KernelProfile::validate`].
    #[must_use]
    pub fn build(
        name: String,
        flops: f64,
        bytes: f64,
        qos_share_s: f64,
        versions: Vec<CompiledVersion>,
        machine: &MachineConfig,
        reference_cores: u32,
    ) -> Self {
        assert!(
            !versions.is_empty(),
            "a compiled layer needs at least one version"
        );
        // Every table below rates these profiles; check each once.
        for v in &versions {
            if let Err(e) = v.profile.validate() {
                panic!("invalid kernel profile: {e}");
            }
        }
        let core_terms: Vec<Box<[CoreTerms]>> = versions
            .iter()
            .map(|v| CoreTerms::table(&v.profile, machine))
            .collect();
        // Ratings read the core terms from the tables instead of computing
        // them, bit for bit the ratings `execute` gives.
        let model = |vi: usize, interference| {
            LatencyModel::with_terms(
                &versions[vi].profile,
                &core_terms[vi],
                interference,
                machine,
            )
        };
        let bins = interference_bins();

        let mut best_version = Vec::with_capacity(CORE_CLASSES.len());
        for &cores in &CORE_CLASSES {
            let mut row = [0usize; NUM_INTERFERENCE_BINS];
            for (bi, &level) in bins.iter().enumerate() {
                let mut best: Option<(usize, f64)> = None;
                for vi in 0..versions.len() {
                    let l =
                        model(vi, Interference::level(level)).latency_s(cores.min(machine.cores));
                    if best.is_none_or(|(_, b)| l < b) {
                        best = Some((vi, l));
                    }
                }
                row[bi] = best.expect("at least one version").0;
            }
            best_version.push(row);
        }
        let reference_class = class_for(reference_cores);

        let mut core_req = Vec::with_capacity(versions.len());
        for vi in 0..versions.len() {
            let mut row = [machine.cores; NUM_INTERFERENCE_BINS];
            for (bi, &level) in bins.iter().enumerate() {
                row[bi] = min_cores_for(
                    &model(vi, Interference::level(level)),
                    qos_share_s * QOS_PLAN_MARGIN,
                    machine,
                );
            }
            core_req.push(row);
        }

        let qos_feasible = {
            let l = model(best_version[reference_class][0], Interference::NONE)
                .latency_s(machine.cores)
                + machine.dispatch_overhead_s;
            l <= qos_share_s
        };

        Self {
            name,
            flops,
            bytes,
            qos_share_s,
            qos_feasible,
            versions,
            best_version,
            reference_class,
            core_req,
            core_terms: core_terms.into(),
        }
    }

    /// `version`'s [`CoreTerms::table`] on the machine the layer was built
    /// for.
    #[must_use]
    pub fn core_terms(&self, version: usize) -> &[CoreTerms] {
        &self.core_terms[version]
    }

    /// Index of the fastest version at the given interference level, judged
    /// at the compiler's reference core count.
    #[must_use]
    pub fn version_for_level(&self, level: f64) -> usize {
        self.best_version[self.reference_class][bin_for_level(level)]
    }

    /// Index of the fastest version at the given interference level when
    /// the layer will run on roughly `cores` cores (rounded down to the
    /// nearest [`CORE_CLASSES`] entry).
    #[must_use]
    pub fn version_for(&self, level: f64, cores: u32) -> usize {
        self.best_version[class_for(cores)][bin_for_level(level)]
    }

    /// Minimum cores for `version` to meet the QoS share at `level`
    /// (saturates at the machine's core count when infeasible).
    #[must_use]
    pub fn core_requirement(&self, version: usize, level: f64) -> u32 {
        self.core_req[version][bin_for_level(level)]
    }

    /// Kernel latency of `version` on `cores` under `interference`,
    /// including the fixed dispatch overhead.
    #[must_use]
    pub fn latency_s(
        &self,
        version: usize,
        cores: u32,
        interference: Interference,
        machine: &MachineConfig,
    ) -> f64 {
        execute(
            &self.versions[version].profile,
            cores,
            interference,
            machine,
        )
        .latency_s
            + machine.dispatch_overhead_s
    }
}

/// Minimum core count whose latency (plus dispatch) meets `target_s` under
/// `sweep`'s interference; when unattainable, the latency-minimizing core
/// count (footprint growth can make more cores slower under contention).
fn min_cores_for(sweep: &LatencyModel<'_>, target_s: f64, machine: &MachineConfig) -> u32 {
    let mut best = (1u32, f64::INFINITY);
    for p in 1..=machine.cores {
        let l = sweep.latency_s(p) + machine.dispatch_overhead_s;
        if l <= target_s {
            return p;
        }
        if l < best.1 {
            best = (p, l);
        }
    }
    best.0
}

/// A fully compiled model: versioned layers plus model-granularity core
/// requirements per interference bin.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    /// Model name.
    pub name: String,
    /// End-to-end QoS target, seconds: the model's SLO. Queries are
    /// accounted against it and the temporal policies normalize priority
    /// by it. Setting it on a compiled model changes the SLO; the
    /// per-layer compilation budget keeps the compile-time target
    /// (re-compile to change that). Every serving driver rejects a target
    /// that is not positive and finite when it is built.
    pub qos_s: f64,
    /// Workload class.
    pub class: WorkloadClass,
    /// Total FLOPs.
    pub total_flops: f64,
    /// Compiled scheduling units in execution order.
    pub layers: Vec<CompiledLayer>,
    /// `Core@ModelGranularity` per interference bin: the flat allocation
    /// under which the whole model meets QoS.
    pub model_cores: [u32; NUM_INTERFERENCE_BINS],
    /// Aggregate auto-scheduler counters across every unit's search: how
    /// many candidates were generated and lowered.
    pub search_stats: SearchStats,
    /// The machine every table of the model was built for.
    compiled_for: MachineConfig,
}

impl CompiledModel {
    /// The machine the model was compiled for. Its layers' lookup and
    /// [`CoreTerms`] tables hold for this machine only; a runtime serving
    /// on another machine computes the core terms live, with identical
    /// results.
    #[must_use]
    pub fn compiled_for(&self) -> &MachineConfig {
        &self.compiled_for
    }

    /// Flat model-granularity core requirement at an interference level.
    #[must_use]
    pub fn model_core_requirement(&self, level: f64) -> u32 {
        self.model_cores[bin_for_level(level)]
    }

    /// End-to-end latency with a flat `cores` allocation at `level`, using
    /// each layer's best version for that level and allocation.
    #[must_use]
    pub fn flat_latency_s(&self, cores: u32, level: f64, machine: &MachineConfig) -> f64 {
        self.layers
            .iter()
            .map(|l| {
                let v = l.version_for(level, cores);
                l.latency_s(v, cores, Interference::level(level), machine)
            })
            .sum()
    }

    /// Total versions stored across layers (the multi-versioning footprint).
    #[must_use]
    pub fn total_versions(&self) -> usize {
        self.layers.iter().map(|l| l.versions.len()).sum()
    }
}

impl std::fmt::Display for CompiledModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} units, {} versions, QoS {:.0} ms, model cores {}",
            self.name,
            self.layers.len(),
            self.total_versions(),
            self.qos_s * 1e3,
            self.model_cores[0]
        )
    }
}

/// Compiles a model spec: fusion, per-layer multi-version search
/// (Algorithm 1), and lookup-table construction.
#[must_use]
pub fn compile_model(
    spec: &ModelSpec,
    machine: &MachineConfig,
    opts: &CompilerOptions,
) -> CompiledModel {
    let units = spec.graph.fused_units();
    let total_flops: f64 = units.iter().map(|u| u.flops()).sum();

    // QoS share: the paper's op_count split (Alg. 1 line 3) — each unit's
    // slice of the model budget is proportional to its FLOPs — with a
    // bandwidth-feasibility floor. The floor protects streaming units
    // (pooling, elementwise) whose FLOP count is near zero but whose
    // minimum latency is bandwidth-bound; without it their share would be
    // unmeetable at any allocation. The FLOP split is also what produces
    // the paper's heterogeneous per-layer core envelope (Fig. 4b):
    // memory-bound convolutions receive FLOP-small shares that only large
    // allocations can meet, becoming the conflict-prone pivots of Alg. 2.
    let floor_s = |u: &veltair_tensor::FusedUnit| {
        1.25 * u.total_bytes() / machine.dram_bw + machine.dispatch_overhead_s
    };
    let raw_shares: Vec<f64> = units
        .iter()
        .map(|u| {
            let flop_share = if total_flops > 0.0 {
                spec.qos_s() * u.flops() / total_flops
            } else {
                0.0
            };
            flop_share.max(floor_s(u))
        })
        .collect();
    let raw_total: f64 = raw_shares.iter().sum();

    let mut layers = Vec::with_capacity(units.len());
    let mut search_stats = SearchStats::default();
    for (i, unit) in units.iter().enumerate() {
        let qos_share = raw_shares[i] * spec.qos_s() / raw_total;

        let versions = match GemmView::of(&unit.base) {
            Some(g) => {
                let samples = search(unit, &g, machine, opts, i as u64);
                search_stats.accumulate(&SearchStats {
                    generated: samples.len(),
                    lowered: samples.len(),
                });
                select_versions(&samples, qos_share, machine, opts)
            }
            None => {
                let profile = lower_streaming(unit);
                vec![CompiledVersion {
                    schedule: None,
                    profile,
                    parallelism: f64::from(profile.parallel_chunks),
                    locality_bytes: profile.footprint_per_core_bytes,
                }]
            }
        };

        layers.push(CompiledLayer::build(
            unit.name(),
            unit.flops(),
            unit.total_bytes(),
            qos_share,
            versions,
            machine,
            opts.reference_cores,
        ));
    }

    // Model-granularity core requirement per bin: the smallest flat
    // allocation whose `CompiledModel::flat_latency_s` meets the margin.
    // The layers were just built on `machine`, so their profiles are
    // validated and the ratings can read their core-terms tables.
    let target_s = spec.qos_s() * QOS_PLAN_MARGIN;
    let mut model_cores = [machine.cores; NUM_INTERFERENCE_BINS];
    for (bi, &level) in interference_bins().iter().enumerate() {
        let flat_latency_s = |cores: u32| -> f64 {
            layers
                .iter()
                .map(|l| {
                    let v = l.version_for(level, cores);
                    LatencyModel::with_terms(
                        &l.versions[v].profile,
                        &l.core_terms[v],
                        Interference::level(level),
                        machine,
                    )
                    .latency_s(cores)
                        + machine.dispatch_overhead_s
                })
                .sum()
        };
        model_cores[bi] = (1..=machine.cores)
            .find(|&p| flat_latency_s(p) <= target_s)
            .unwrap_or(machine.cores);
    }

    CompiledModel {
        name: spec.graph.name.clone(),
        qos_s: spec.qos_s(),
        class: spec.class,
        total_flops,
        layers,
        model_cores,
        search_stats,
        compiled_for: machine.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled() -> (CompiledModel, MachineConfig) {
        let machine = MachineConfig::threadripper_3990x();
        let spec = veltair_models::resnet50();
        (
            compile_model(&spec, &machine, &CompilerOptions::fast()),
            machine,
        )
    }

    #[test]
    #[should_panic(
        expected = "invalid kernel profile: kernel must expose at least one parallel chunk"
    )]
    fn build_rejects_an_invalid_profile() {
        let profile = KernelProfile {
            flops: 1.0,
            compute_efficiency: 0.5,
            parallel_chunks: 0,
            footprint_base_bytes: 0.0,
            footprint_per_core_bytes: 0.0,
            min_traffic_bytes: 1.0,
            spill_traffic_bytes: 1.0,
        };
        let version = CompiledVersion {
            schedule: None,
            profile,
            parallelism: 0.0,
            locality_bytes: 0.0,
        };
        let _ = CompiledLayer::build(
            "bad".into(),
            1.0,
            1.0,
            1.0,
            vec![version],
            &MachineConfig::threadripper_3990x(),
            16,
        );
    }

    #[test]
    fn resnet_compiles_with_versions() {
        let (m, _) = compiled();
        assert_eq!(m.layers.len(), 56);
        assert!(m.layers.iter().all(|l| !l.versions.is_empty()));
        assert!(m.layers.iter().all(|l| l.versions.len() <= 5));
        // Multi-versioning must actually fire for a good share of layers.
        let multi = m.layers.iter().filter(|l| l.versions.len() >= 2).count();
        assert!(multi >= 10, "only {multi} multi-version layers");
    }

    #[test]
    fn versions_ordered_most_local_first() {
        let (m, _) = compiled();
        for l in &m.layers {
            for w in l.versions.windows(2) {
                assert!(w[0].locality_bytes >= w[1].locality_bytes);
            }
        }
    }

    #[test]
    fn higher_interference_prefers_more_parallel_versions() {
        let (m, _) = compiled();
        let mut moved = 0;
        let (mut par0, mut par9) = (0.0, 0.0);
        for l in &m.layers {
            let v0 = l.version_for_level(0.0);
            let v9 = l.version_for_level(0.9);
            par0 += l.versions[v0].parallelism.log2();
            par9 += l.versions[v9].parallelism.log2();
            if v0 != v9 {
                moved += 1;
            }
        }
        assert!(
            moved >= 5,
            "interference never changes the chosen version ({moved})"
        );
        // In aggregate, contention shifts selection toward parallelism.
        assert!(par9 >= par0, "mean log-parallelism fell under interference");
    }

    #[test]
    fn core_requirements_grow_with_interference() {
        let (m, _) = compiled();
        let solo: u32 = m.layers.iter().map(|l| l.core_requirement(0, 0.0)).sum();
        let high: u32 = m.layers.iter().map(|l| l.core_requirement(0, 0.9)).sum();
        assert!(high >= solo);
    }

    #[test]
    fn model_core_requirement_is_moderate_solo() {
        // Fig. 1a: MLPerf vision models meet QoS with a handful of cores.
        let (m, _) = compiled();
        let c = m.model_core_requirement(0.0);
        assert!((2..=32).contains(&c), "ResNet-50 model cores = {c}");
    }

    #[test]
    fn flat_latency_meets_qos_at_model_cores() {
        let (m, machine) = compiled();
        let c = m.model_core_requirement(0.0);
        let target = m.qos_s * QOS_PLAN_MARGIN;
        assert!(m.flat_latency_s(c, 0.0, &machine) <= target);
        if c > 1 {
            assert!(
                m.flat_latency_s(c - 1, 0.0, &machine) > target,
                "the flat allocation is not minimal"
            );
        }
    }

    #[test]
    fn per_layer_requirements_meet_their_shares() {
        // Every layer's core requirement actually satisfies its QoS share
        // at the planning margin (or is capped at the machine when the
        // share is infeasible), and the envelope is heterogeneous: the
        // requirements of a real network are not all equal (Fig. 4b).
        let (m, machine) = compiled();
        let mut distinct = std::collections::BTreeSet::new();
        for l in &m.layers {
            let v = l.version_for_level(0.0);
            let p = l.core_requirement(v, 0.0);
            distinct.insert(p);
            let target = l.qos_share_s * QOS_PLAN_MARGIN + 1e-12;
            let attainable = l.latency_s(v, machine.cores, Interference::NONE, &machine) <= target;
            if attainable {
                assert!(
                    l.latency_s(v, p, Interference::NONE, &machine) <= target,
                    "{} misses its share at {p} cores",
                    l.name
                );
            }
        }
        assert!(distinct.len() >= 3, "envelope is flat: {distinct:?}");
    }

    #[test]
    fn search_stats_cover_every_gemm_unit() {
        let (m, _) = compiled();
        // Everything generated was lowered.
        assert_eq!(m.search_stats.generated, m.search_stats.lowered);
        assert!(m.search_stats.generated > 1_000);
    }

    #[test]
    fn most_layers_need_few_versions() {
        // Fig. 14c: the majority of layers keep <= 3 versions.
        let (m, _) = compiled();
        let small = m.layers.iter().filter(|l| l.versions.len() <= 3).count();
        assert!(
            small * 2 > m.layers.len(),
            "{small}/{} layers",
            m.layers.len()
        );
    }
}
