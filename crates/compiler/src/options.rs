//! Compiler configuration.

/// Number of discretized interference levels used for version pruning and
/// the runtime's version/core-requirement lookup tables (0.0, 0.1, ... 1.0).
pub const NUM_INTERFERENCE_BINS: usize = 11;

/// Fraction of a QoS budget that core-requirement planning targets. All
/// policies plan to finish inside 90 % of the deadline, leaving the
/// remaining 10 % to absorb Poisson arrival jitter and monitoring lag —
/// the slack any production serving system burns into its SLO. Planning
/// to the exact deadline would make every granularity miss QoS on the
/// first queued microsecond.
pub const QOS_PLAN_MARGIN: f64 = 0.9;

/// The discretized interference levels.
#[must_use]
pub fn interference_bins() -> [f64; NUM_INTERFERENCE_BINS] {
    let mut bins = [0.0; NUM_INTERFERENCE_BINS];
    for (i, b) in bins.iter_mut().enumerate() {
        *b = i as f64 / (NUM_INTERFERENCE_BINS - 1) as f64;
    }
    bins
}

/// Why a compiler configuration — [`CompilerOptions`] or a version
/// selector's ladder parameters — was rejected. The `try_*` constructors
/// surface these instead of panicking, matching the
/// `WorkloadSpec::try_*` convention of the scheduling layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CompilerError {
    /// The auto-scheduler was given zero trials.
    InvalidSearchIterations {
        /// The rejected trial count.
        iterations: usize,
    },
    /// The version budget was zero.
    InvalidMaxVersions {
        /// The rejected budget.
        max_versions: usize,
    },
    /// The pruning tolerance was below `1.0` or not finite (it is a
    /// latency-envelope *factor*: `1.10` means "within 10 %").
    InvalidPruneTolerance {
        /// The rejected tolerance.
        tolerance: f64,
    },
    /// The reference core count was zero.
    InvalidReferenceCores {
        /// The rejected core count.
        cores: u32,
    },
    /// An EWMA weight was not finite or outside `(0, 1]`.
    InvalidEwmaAlpha {
        /// The rejected weight.
        alpha: f64,
    },
    /// A switch-hysteresis margin was negative or not finite.
    InvalidHysteresis {
        /// The rejected margin.
        hysteresis: f64,
    },
}

impl std::fmt::Display for CompilerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompilerError::InvalidSearchIterations { iterations } => {
                write!(
                    f,
                    "at least one search iteration is required, got {iterations}"
                )
            }
            CompilerError::InvalidMaxVersions { max_versions } => {
                write!(f, "at least one version is required, got {max_versions}")
            }
            CompilerError::InvalidPruneTolerance { tolerance } => {
                write!(
                    f,
                    "prune tolerance must be a finite factor >= 1.0, got {tolerance}"
                )
            }
            CompilerError::InvalidReferenceCores { cores } => {
                write!(f, "reference core count must be at least 1, got {cores}")
            }
            CompilerError::InvalidEwmaAlpha { alpha } => {
                write!(f, "EWMA alpha must be finite and in (0, 1], got {alpha}")
            }
            CompilerError::InvalidHysteresis { hysteresis } => {
                write!(
                    f,
                    "hysteresis margin must be finite and non-negative, got {hysteresis}"
                )
            }
        }
    }
}

impl std::error::Error for CompilerError {}

/// Options controlling the auto-scheduler and the multi-version selection.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// Auto-scheduler trials per layer (the paper uses 1024 Ansor
    /// iterations).
    pub search_iterations: usize,
    /// Maximum retained code versions per layer (`V`, paper uses 5).
    pub max_versions: usize,
    /// Versions are pruned while the remaining latency envelope stays
    /// within this factor of the full set (paper: within 10 %, i.e. 1.10).
    pub prune_tolerance: f64,
    /// Core count at which candidates are measured during search.
    pub reference_cores: u32,
    /// RNG seed for the schedule sampler.
    pub seed: u64,
}

impl CompilerOptions {
    /// Paper-fidelity search effort (1024 trials per layer).
    #[must_use]
    pub fn thorough() -> Self {
        Self {
            search_iterations: 1024,
            max_versions: 5,
            prune_tolerance: 1.10,
            reference_cores: 16,
            seed: 0x7E17_A1B2,
        }
    }

    /// Reduced effort for tests and quick experiments; the schedule space
    /// sampler still covers the full tile ladder so the Pareto frontier is
    /// representative.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            search_iterations: 192,
            ..Self::thorough()
        }
    }

    /// Restricts the compiler to a single (solo-optimal) version, which is
    /// exactly the static-compilation baseline (Planaria / PREMA rows of
    /// Table 1).
    #[must_use]
    pub fn single_version() -> Self {
        Self {
            max_versions: 1,
            ..Self::thorough()
        }
    }

    /// Same options with a different version budget (Fig. 14b sweep).
    #[must_use]
    pub fn with_max_versions(self, v: usize) -> Self {
        self.try_with_max_versions(v)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`with_max_versions`](Self::with_max_versions).
    ///
    /// # Errors
    ///
    /// Returns [`CompilerError::InvalidMaxVersions`] when `v` is zero.
    pub fn try_with_max_versions(mut self, v: usize) -> Result<Self, CompilerError> {
        if v == 0 {
            return Err(CompilerError::InvalidMaxVersions { max_versions: v });
        }
        self.max_versions = v;
        Ok(self)
    }

    /// Fully validated construction from raw parameters, matching the
    /// `WorkloadSpec::try_*` convention.
    ///
    /// # Errors
    ///
    /// Returns the matching [`CompilerError`] variant when
    /// `search_iterations`, `max_versions`, or `reference_cores` is zero,
    /// or when `prune_tolerance` is not a finite factor `>= 1.0`.
    pub fn try_new(
        search_iterations: usize,
        max_versions: usize,
        prune_tolerance: f64,
        reference_cores: u32,
        seed: u64,
    ) -> Result<Self, CompilerError> {
        if search_iterations == 0 {
            return Err(CompilerError::InvalidSearchIterations {
                iterations: search_iterations,
            });
        }
        if max_versions == 0 {
            return Err(CompilerError::InvalidMaxVersions { max_versions });
        }
        if !prune_tolerance.is_finite() || prune_tolerance < 1.0 {
            return Err(CompilerError::InvalidPruneTolerance {
                tolerance: prune_tolerance,
            });
        }
        if reference_cores == 0 {
            return Err(CompilerError::InvalidReferenceCores {
                cores: reference_cores,
            });
        }
        Ok(Self {
            search_iterations,
            max_versions,
            prune_tolerance,
            reference_cores,
            seed,
        })
    }
}

impl Default for CompilerOptions {
    fn default() -> Self {
        Self::thorough()
    }
}

/// Maps a scalar interference level to the nearest bin index.
#[must_use]
pub fn bin_for_level(level: f64) -> usize {
    let l = level.clamp(0.0, 1.0);
    (l * (NUM_INTERFERENCE_BINS - 1) as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_span_unit_interval() {
        let b = interference_bins();
        assert_eq!(b[0], 0.0);
        assert_eq!(b[NUM_INTERFERENCE_BINS - 1], 1.0);
        assert!(b.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn bin_lookup_rounds_to_nearest() {
        assert_eq!(bin_for_level(0.0), 0);
        assert_eq!(bin_for_level(0.04), 0);
        assert_eq!(bin_for_level(0.06), 1);
        assert_eq!(bin_for_level(1.0), NUM_INTERFERENCE_BINS - 1);
        assert_eq!(bin_for_level(2.5), NUM_INTERFERENCE_BINS - 1);
        assert_eq!(bin_for_level(-1.0), 0);
    }

    #[test]
    fn presets_are_sane() {
        assert!(CompilerOptions::thorough().search_iterations >= 1024);
        assert_eq!(CompilerOptions::single_version().max_versions, 1);
        assert_eq!(CompilerOptions::fast().max_versions, 5);
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn zero_versions_panics() {
        let _ = CompilerOptions::fast().with_max_versions(0);
    }

    #[test]
    fn try_constructors_reject_invalid_parameters() {
        assert!(matches!(
            CompilerOptions::fast().try_with_max_versions(0),
            Err(CompilerError::InvalidMaxVersions { max_versions: 0 })
        ));
        assert!(matches!(
            CompilerOptions::try_new(0, 5, 1.1, 16, 1),
            Err(CompilerError::InvalidSearchIterations { .. })
        ));
        assert!(matches!(
            CompilerOptions::try_new(64, 0, 1.1, 16, 1),
            Err(CompilerError::InvalidMaxVersions { .. })
        ));
        assert!(matches!(
            CompilerOptions::try_new(64, 5, 0.9, 16, 1),
            Err(CompilerError::InvalidPruneTolerance { .. })
        ));
        assert!(matches!(
            CompilerOptions::try_new(64, 5, f64::NAN, 16, 1),
            Err(CompilerError::InvalidPruneTolerance { .. })
        ));
        assert!(matches!(
            CompilerOptions::try_new(64, 5, 1.1, 0, 1),
            Err(CompilerError::InvalidReferenceCores { .. })
        ));
        let ok = CompilerOptions::try_new(64, 3, 1.2, 8, 7).expect("valid options");
        assert_eq!(ok.max_versions, 3);
        assert_eq!(ok.reference_cores, 8);
    }
}
