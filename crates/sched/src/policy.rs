//! The evaluated scheduling/compilation policies (paper Table 1 + §5.1).

/// Spatial scheduling granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Whole model per allocation (PREMA-style static unit / FCFS).
    Model,
    /// One layer per allocation (Planaria's software port).
    Layer,
    /// Fixed-size consecutive layer blocks (§3.2's Block(6)/Block(11)).
    FixedBlock(usize),
    /// Dynamic-threshold layer blocks (Algorithm 2).
    DynamicBlock,
}

/// An end-to-end serving policy: who schedules, at what granularity, with
/// which compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Model-wise First-Come-First-Serve spatial sharing, static code.
    ModelFcfs,
    /// Layer-wise spatial scheduling with tile-wise expansion, static code
    /// — the paper's software port of Planaria (baseline of Fig. 12).
    Planaria,
    /// Temporal multitasking with token-based preemptive priority, static
    /// code — the PREMA baseline.
    Prema,
    /// Temporal multitasking at layer granularity, FCFS round-robin,
    /// static code — the AI-MT port (Table 1). The original overlaps
    /// compute-heavy and memory-heavy sub-layers on an accelerator; the
    /// CPU port keeps its finer temporal multiplexing without the
    /// overlap engine.
    AiMt,
    /// QoS-aware per-tenant core partitioning, model granularity within
    /// each partition, static code — the Parties port (Table 1).
    /// Partitions are recomputed proportionally to the flat core
    /// requirement of every tenant with outstanding work.
    Parties,
    /// Fixed-size layer-block scheduling, static code (§3.2 study).
    FixedBlock(usize),
    /// VELTAIR-AS: adaptive (dynamic-threshold) scheduling, static code.
    VeltairAs,
    /// VELTAIR-AC: layer-wise scheduling, adaptive multi-version code.
    VeltairAc,
    /// VELTAIR-FULL: adaptive scheduling + adaptive compilation.
    VeltairFull,
}

impl Policy {
    /// The spatial granularity this policy schedules at (PREMA is temporal
    /// and executes model-by-model).
    #[must_use]
    pub fn granularity(&self) -> Granularity {
        match self {
            Policy::ModelFcfs | Policy::Prema | Policy::Parties => Granularity::Model,
            Policy::Planaria | Policy::VeltairAc | Policy::AiMt => Granularity::Layer,
            Policy::FixedBlock(k) => Granularity::FixedBlock(*k),
            Policy::VeltairAs | Policy::VeltairFull => Granularity::DynamicBlock,
        }
    }

    /// Whether the policy switches code versions with the monitored
    /// interference level (adaptive compilation).
    #[must_use]
    pub fn adaptive_compilation(&self) -> bool {
        matches!(self, Policy::VeltairAc | Policy::VeltairFull)
    }

    /// Whether the policy time-multiplexes the whole machine instead of
    /// sharing it spatially.
    #[must_use]
    pub fn is_temporal(&self) -> bool {
        matches!(self, Policy::Prema | Policy::AiMt)
    }

    /// Whether the policy partitions cores statically per tenant model
    /// instead of pooling them.
    #[must_use]
    pub fn is_partitioned(&self) -> bool {
        matches!(self, Policy::Parties)
    }

    /// Display name used in figures.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            Policy::ModelFcfs => "Model-FCFS".to_string(),
            Policy::Planaria => "Planaria".to_string(),
            Policy::Prema => "PREMA".to_string(),
            Policy::AiMt => "AI-MT".to_string(),
            Policy::Parties => "Parties".to_string(),
            Policy::FixedBlock(k) => format!("Block({k})"),
            Policy::VeltairAs => "Veltair-AS".to_string(),
            Policy::VeltairAc => "Veltair-AC".to_string(),
            Policy::VeltairFull => "Veltair-FULL".to_string(),
        }
    }

    /// The five policies compared in Fig. 12, in plot order.
    #[must_use]
    pub fn figure12_set() -> [Policy; 5] {
        [
            Policy::Planaria,
            Policy::Prema,
            Policy::VeltairAs,
            Policy::VeltairAc,
            Policy::VeltairFull,
        ]
    }

    /// The extended baseline set (Fig. 12 plus the Table 1 prior-work
    /// ports), used by the extended-comparison ablation.
    #[must_use]
    pub fn extended_set() -> [Policy; 7] {
        [
            Policy::Planaria,
            Policy::Prema,
            Policy::AiMt,
            Policy::Parties,
            Policy::VeltairAs,
            Policy::VeltairAc,
            Policy::VeltairFull,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_mapping_matches_table1() {
        assert_eq!(Policy::Planaria.granularity(), Granularity::Layer);
        assert_eq!(Policy::Prema.granularity(), Granularity::Model);
        assert_eq!(Policy::VeltairAs.granularity(), Granularity::DynamicBlock);
        assert_eq!(
            Policy::FixedBlock(6).granularity(),
            Granularity::FixedBlock(6)
        );
    }

    #[test]
    fn only_ac_and_full_adapt_compilation() {
        assert!(Policy::VeltairAc.adaptive_compilation());
        assert!(Policy::VeltairFull.adaptive_compilation());
        assert!(!Policy::VeltairAs.adaptive_compilation());
        assert!(!Policy::Planaria.adaptive_compilation());
        assert!(!Policy::Prema.adaptive_compilation());
    }

    #[test]
    fn prema_is_the_only_temporal_policy() {
        assert!(Policy::Prema.is_temporal());
        assert!(
            Policy::figure12_set()
                .iter()
                .filter(|p| p.is_temporal())
                .count()
                == 1
        );
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = Policy::figure12_set().iter().map(Policy::name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
