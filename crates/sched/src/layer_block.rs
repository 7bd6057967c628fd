//! Algorithm 2: dynamic-threshold layer-block formation.
//!
//! Conflict-prone layers — those whose core requirement exceeds the model's
//! flat (model-granularity) requirement by more than the runtime threshold
//! — become *splitting pivots* that begin a new block. Each block is then
//! sized to meet the summed QoS share of its layers, which lets cheap
//! layers donate slack to the expensive pivot and flattens the allocation
//! profile (paper Fig. 10a).

use veltair_compiler::{CompiledLayer, CompiledModel};
use veltair_sim::{CoreTerms, Interference, LatencyModel, MachineConfig};

/// A formed layer block: the unit range, the per-unit code versions, and
/// the core allocation that meets the block's summed QoS share.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    /// Unit index range `[start, end)` into the compiled model.
    pub start: usize,
    /// Exclusive end unit index.
    pub end: usize,
    /// Chosen version per unit in the range.
    pub versions: Vec<usize>,
    /// Core allocation for the block.
    pub cores: u32,
}

impl BlockPlan {
    /// Number of units in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block is empty (never true for formed blocks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// `Finding1stPivot` of Algorithm 2: the first unit index after `begin`
/// whose core requirement (at its chosen version and the current
/// interference level) is at least `avg_c + thres`. Returns `None` when no
/// later unit is conflict-prone.
#[must_use]
pub fn find_first_pivot(
    model: &CompiledModel,
    begin: usize,
    versions: &[usize],
    level: f64,
    avg_c: u32,
    thres: u32,
) -> Option<usize> {
    let limit = u64::from(avg_c) + u64::from(thres);
    ((begin + 1)..model.layers.len())
        .find(|&i| u64::from(model.layers[i].core_requirement(versions[i], level)) >= limit)
}

/// The serving runtime's rating model of `version` of `layer` under
/// `pressure` on `machine`, whose profile passed validation when the
/// simulation was built. It reads the layer's compiled [`CoreTerms`]
/// tables when `tabulated` (the layer was compiled for `machine`) and
/// computes the terms live otherwise, with identical results.
pub(crate) fn unit_model<'a>(
    layer: &'a CompiledLayer,
    version: usize,
    tabulated: bool,
    pressure: Interference,
    machine: &'a MachineConfig,
) -> LatencyModel<'a> {
    let terms = unit_terms(layer, version, tabulated);
    LatencyModel::with_terms(&layer.versions[version].profile, terms, pressure, machine)
}

/// The core-terms table the serving runtime rates `version` of `layer`
/// over: the compiled [`CoreTerms`] table when `tabulated`, and none
/// otherwise.
pub(crate) fn unit_terms(layer: &CompiledLayer, version: usize, tabulated: bool) -> &[CoreTerms] {
    if tabulated {
        layer.core_terms(version)
    } else {
        &[]
    }
}

/// Flat latencies of the units `[start, end)` under one ambient pressure,
/// prepared for sizing the block.
///
/// Each unit's [`LatencyModel`] is prepared once, and each allocation's
/// flat block latency is rated at most once: Algorithm 2's QoS minimum
/// ([`BlockSweep::core_requirement`]) and the boost above it
/// ([`BlockSweep::boosted`]) share the ratings. Every allocation sums its
/// units in block order, so each figure is bit-identical to rating the
/// block from scratch at that core count.
#[derive(Debug)]
pub(crate) struct BlockSweep<'a> {
    units: Vec<LatencyModel<'a>>,
    machine: &'a MachineConfig,
    /// The block's summed QoS share, with the planning margin.
    budget_s: f64,
    /// Flat block latency on 1, 2, … cores, as far as rated so far.
    rated: Vec<f64>,
}

impl<'a> BlockSweep<'a> {
    /// Prepares the block, validating every unit's profile; every rating
    /// computes its core terms live.
    ///
    /// # Panics
    ///
    /// Panics on an invalid block range or kernel profile.
    pub(crate) fn new(
        model: &'a CompiledModel,
        start: usize,
        end: usize,
        versions: &[usize],
        pressure: Interference,
        machine: &'a MachineConfig,
    ) -> Self {
        Self::prepare(model, start, end, versions, machine, |layer, v| {
            LatencyModel::new(&layer.versions[v].profile, pressure, machine)
        })
    }

    /// Prepares the block from profiles the caller has already validated
    /// (the serving runtime checks every compiled profile once, when a
    /// simulation is built), reading the compiled core terms when
    /// `tabulated` (see [`unit_model`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid block range.
    pub(crate) fn prevalidated(
        model: &'a CompiledModel,
        start: usize,
        end: usize,
        versions: &[usize],
        tabulated: bool,
        pressure: Interference,
        machine: &'a MachineConfig,
    ) -> Self {
        Self::prepare(model, start, end, versions, machine, |layer, v| {
            unit_model(layer, v, tabulated, pressure, machine)
        })
    }

    fn prepare(
        model: &'a CompiledModel,
        start: usize,
        end: usize,
        versions: &[usize],
        machine: &'a MachineConfig,
        prepare_unit: impl Fn(&'a CompiledLayer, usize) -> LatencyModel<'a>,
    ) -> Self {
        assert!(
            start < end && end <= model.layers.len(),
            "invalid block range"
        );
        let layers = &model.layers[start..end];
        Self {
            units: layers
                .iter()
                .zip(&versions[start..end])
                .map(|(layer, &v)| prepare_unit(layer, v))
                .collect(),
            machine,
            budget_s: layers.iter().map(|l| l.qos_share_s).sum::<f64>()
                * veltair_compiler::QOS_PLAN_MARGIN,
            rated: Vec::with_capacity(machine.cores as usize),
        }
    }

    /// Rates every allocation up to `cores` not rated yet.
    ///
    /// Each unit adds its ratings of the new allocations in one
    /// [`LatencyModel::add_latencies`] run, so every allocation still adds
    /// its units in block order.
    fn rate_through(&mut self, cores: u32) {
        let first = self.rated.len();
        if cores as usize <= first {
            return;
        }
        self.rated.resize(cores as usize, 0.0);
        let d = self.machine.dispatch_overhead_s;
        for unit in &self.units {
            unit.add_latencies(first as u32 + 1, d, &mut self.rated[first..]);
        }
    }

    /// Flat latency of the block on `cores` cores, including per-unit
    /// dispatch overhead.
    pub(crate) fn flat_latency_s(&mut self, cores: u32) -> f64 {
        assert!(cores > 0, "cannot execute a kernel on zero cores");
        self.rate_through(cores);
        self.rated[cores as usize - 1]
    }

    /// Minimum cores under which the block finishes within its summed
    /// QoS share (saturating at the machine size).
    ///
    /// With a `limit`, the scan stops below it: when no allocation below
    /// `limit` qualifies, the answer is `limit` (or the machine size, if
    /// smaller), and no allocation at or past it is rated. So
    /// `core_requirement(Some(cap)).min(cap)` is
    /// `core_requirement(None).min(cap)`.
    pub(crate) fn core_requirement(&mut self, limit: Option<u32>) -> u32 {
        /// Allocations rated per step of the scan: the few past the
        /// minimum are wasted unless the boost reads them.
        const STEP: u32 = 8;
        let cores = self.machine.cores;
        let limit = limit.unwrap_or(u32::MAX).min(cores.saturating_add(1));
        let mut lo = 1;
        while lo < limit {
            let hi = (lo + STEP - 1).min(limit - 1);
            self.rate_through(hi);
            if let Some(p) = (lo..=hi).find(|&p| self.rated[p as usize - 1] <= self.budget_s) {
                return p;
            }
            lo = hi + 1;
        }
        limit.min(cores)
    }

    /// The boosted allocation of [`boosted_block_cores`] over this
    /// block's ratings.
    pub(crate) fn boosted(&mut self, min_cores: u32, cap: u32) -> u32 {
        let cap = cap.min(self.machine.cores);
        if cap <= min_cores {
            return min_cores;
        }
        self.rate_through(cap);
        let flat = |p: u32| self.rated[p as usize - 1];
        let best = (min_cores..=cap).map(flat).fold(f64::INFINITY, f64::min);
        (min_cores..=cap)
            .find(|&p| flat(p) <= best * (1.0 + BOOST_SLACK))
            .unwrap_or(min_cores)
    }
}

/// Minimum cores under which the units `[start, end)` finish within their
/// summed QoS share under the given ambient pressure (saturating at the
/// machine size).
///
/// Planning takes the full cache/bandwidth pressure pair rather than a
/// collapsed scalar: a system can hold the whole L3 hostage while using
/// half the DRAM bandwidth, and sizing blocks as if both were equally
/// loaded would overestimate the requirement roughly twofold.
#[must_use]
pub fn block_core_requirement(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    machine: &MachineConfig,
) -> u32 {
    BlockSweep::new(model, start, end, versions, pressure, machine).core_requirement(None)
}

/// Flat latency of the units `[start, end)` on `cores` cores under the
/// given ambient pressure, including per-unit dispatch overhead.
#[must_use]
pub fn block_flat_latency_s(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    cores: u32,
    machine: &MachineConfig,
) -> f64 {
    BlockSweep::new(model, start, end, versions, pressure, machine).flat_latency_s(cores)
}

/// Relative latency slack accepted when boosting: the smallest allocation
/// within 5 % of the best achievable latency in the boost range wins.
const BOOST_SLACK: f64 = 0.05;

/// Raises a block's allocation above its QoS minimum toward `cap`,
/// implementing §4.2's rule that a lightly loaded system should let each
/// block "use as many cores as possible" — but only while the cores still
/// buy latency. Among allocations in `[min_cores, cap]` the smallest one
/// within `BOOST_SLACK` of the best achievable latency is chosen, which
/// looks *through* wave-quantization plateaus instead of stopping at the
/// first flat step.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's full parameter list
pub fn boosted_block_cores(
    model: &CompiledModel,
    start: usize,
    end: usize,
    versions: &[usize],
    pressure: Interference,
    min_cores: u32,
    cap: u32,
    machine: &MachineConfig,
) -> u32 {
    if cap.min(machine.cores) <= min_cores {
        return min_cores;
    }
    BlockSweep::new(model, start, end, versions, pressure, machine).boosted(min_cores, cap)
}

/// Forms the complete block partition of a model for analysis and for the
/// Fig. 10a walk-through: every conflict-prone unit starts a new block.
#[must_use]
pub fn form_blocks(
    model: &CompiledModel,
    level: f64,
    adaptive: bool,
    thres: u32,
    machine: &MachineConfig,
) -> Vec<BlockPlan> {
    let versions = veltair_compiler::selector::select_at_level(model, level, adaptive);
    let avg_c = model.model_core_requirement(if adaptive { level } else { 0.0 });
    let pressure = Interference::level(level);
    let mut blocks = Vec::new();
    let mut begin = 0;
    while begin < model.layers.len() {
        let end = find_first_pivot(model, begin, &versions, level, avg_c, thres)
            .unwrap_or(model.layers.len());
        let cores = block_core_requirement(model, begin, end, &versions, pressure, machine);
        blocks.push(BlockPlan {
            start: begin,
            end,
            versions: versions[begin..end].to_vec(),
            cores,
        });
        begin = end;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};

    fn compiled() -> (CompiledModel, MachineConfig) {
        let machine = MachineConfig::threadripper_3990x();
        let spec = veltair_models::resnet50();
        (
            compile_model(&spec, &machine, &CompilerOptions::fast()),
            machine,
        )
    }

    #[test]
    fn blocks_partition_all_layers_exactly_once() {
        let (m, machine) = compiled();
        for thres in [0u32, 2, 8, 32] {
            let blocks = form_blocks(&m, 0.0, true, thres, &machine);
            assert_eq!(blocks[0].start, 0);
            assert_eq!(blocks.last().unwrap().end, m.layers.len());
            for pair in blocks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "blocks must be contiguous");
            }
            assert!(blocks.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn lower_threshold_forms_more_blocks() {
        let (m, machine) = compiled();
        let few = form_blocks(&m, 0.0, true, 48, &machine).len();
        let many = form_blocks(&m, 0.0, true, 0, &machine).len();
        assert!(many >= few, "thres 0 gave {many}, thres 48 gave {few}");
        assert!(many > 1, "zero threshold must split ResNet-50");
    }

    #[test]
    fn block_core_requirement_is_within_machine() {
        let (m, machine) = compiled();
        let blocks = form_blocks(&m, 0.3, true, 4, &machine);
        for b in &blocks {
            assert!((1..=machine.cores).contains(&b.cores));
        }
    }

    #[test]
    fn block_allocation_is_smoother_than_layerwise_peak() {
        // Fig. 10a/10b: block formation cuts the maximum core demand.
        let (m, machine) = compiled();
        let versions = veltair_compiler::selector::select_at_level(&m, 0.0, true);
        let layer_peak = (0..m.layers.len())
            .map(|i| m.layers[i].core_requirement(versions[i], 0.0))
            .max()
            .unwrap();
        let blocks = form_blocks(&m, 0.0, true, 4, &machine);
        let block_peak = blocks.iter().map(|b| b.cores).max().unwrap();
        assert!(
            block_peak <= layer_peak,
            "block peak {block_peak} vs layer peak {layer_peak}"
        );
    }

    #[test]
    fn pivot_is_first_conflict_prone_layer() {
        let (m, machine) = compiled();
        let _ = &machine;
        let versions = veltair_compiler::selector::select_at_level(&m, 0.0, true);
        let avg_c = m.model_core_requirement(0.0);
        if let Some(p) = find_first_pivot(&m, 0, &versions, 0.0, avg_c, 0) {
            assert!(m.layers[p].core_requirement(versions[p], 0.0) >= avg_c);
            for (layer, &version) in m.layers[1..p].iter().zip(&versions[1..p]) {
                assert!(layer.core_requirement(version, 0.0) < avg_c);
            }
        }
    }

    #[test]
    fn one_sweep_serves_the_minimum_and_the_boost() {
        // plan_block sizes a block's QoS minimum and its boost from one
        // sweep; the shared ratings must answer like fresh ones, whether
        // they read the compiled core-terms tables or compute them live.
        let (m, machine) = compiled();
        let versions = veltair_compiler::selector::select_at_level(&m, 0.5, true);
        let pressure = Interference {
            cache_frac: 0.6,
            bw_frac: 0.25,
        };
        for tabulated in [true, false] {
            for (start, end) in [(0, 1), (0, 9), (5, m.layers.len())] {
                let prepare = || {
                    BlockSweep::prevalidated(
                        &m, start, end, &versions, tabulated, pressure, &machine,
                    )
                };
                let mut sweep = prepare();
                let min_cores = sweep.core_requirement(None);
                assert_eq!(
                    min_cores,
                    block_core_requirement(&m, start, end, &versions, pressure, &machine)
                );
                // The scan limited to below a hard cap answers like the
                // full scan under the cap rule, and rates nothing at or
                // past the cap when it ends there.
                for limit in 1..=machine.cores + 1 {
                    let mut limited = prepare();
                    let capped = limited.core_requirement(Some(limit));
                    let expected = if min_cores < limit {
                        min_cores
                    } else {
                        limit.min(machine.cores)
                    };
                    assert_eq!(capped, expected, "limit {limit}");
                    if capped >= limit {
                        assert!(limited.rated.len() < limit as usize, "limit {limit}");
                    }
                }
                for cap in [min_cores, 24, machine.cores] {
                    assert_eq!(
                        sweep.boosted(min_cores, cap),
                        boosted_block_cores(
                            &m, start, end, &versions, pressure, min_cores, cap, &machine
                        )
                    );
                }
                // Every allocation's flat latency is the units' one-at-a-
                // time ratings summed in block order.
                let units: Vec<_> = (start..end)
                    .map(|i| {
                        LatencyModel::new(
                            &m.layers[i].versions[versions[i]].profile,
                            pressure,
                            &machine,
                        )
                    })
                    .collect();
                let d = machine.dispatch_overhead_s;
                for cores in 1..=machine.cores {
                    let fresh =
                        block_flat_latency_s(&m, start, end, &versions, pressure, cores, &machine);
                    let one_at_a_time = units
                        .iter()
                        .fold(0.0, |sum, unit| sum + (unit.latency_s(cores) + d));
                    assert_eq!(sweep.flat_latency_s(cores).to_bits(), fresh.to_bits());
                    assert_eq!(fresh.to_bits(), one_at_a_time.to_bits(), "{cores} cores");
                }
            }
        }
    }

    #[test]
    fn infinite_threshold_yields_single_block() {
        let (m, machine) = compiled();
        let blocks = form_blocks(&m, 0.0, true, machine.cores, &machine);
        // avg_c + cores exceeds any per-layer requirement.
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), m.layers.len());
    }
}
