//! The VELTAIR compiler: an Ansor-style auto-scheduler plus the paper's
//! single-pass static multi-version compilation (Algorithm 1).
//!
//! The pipeline per layer:
//!
//! 1. [`mod@search`] samples the schedule space (tilings x parallelization x
//!    unrolling over the layer's GEMM-normalized loop nest), "measuring"
//!    each candidate on the analytic machine model — the stand-in for
//!    running TVM's auto-scheduler for 1024 trials;
//! 2. [`multiversion`] implements Algorithm 1: candidates that cannot meet
//!    the layer's QoS share are dropped, the *dominant* implementations
//!    (the Pareto frontier in the parallelism/locality plane, Fig. 9) are
//!    extracted, `V = 5` versions are picked uniformly along the frontier,
//!    and redundant versions are pruned if the remaining envelope stays
//!    within 10 % of the full set across interference levels;
//! 3. [`compiled`] packages the versions with precomputed per-interference
//!    core-requirement tables that the runtime scheduler consumes, plus
//!    each version's [`CoreTerms`](veltair_sim::CoreTerms) table, which
//!    the runtime reads instead of re-deriving the interference-free
//!    roofline terms whenever it serves on the machine it compiled for.
//!
//! The [`vendor`] module provides the MKL-DNN-like fixed-schedule library
//! used as the comparison point of the paper's Fig. 2.
//!
//! Two modules carry the artifacts into serving:
//!
//! * [`service`] — [`CompilerService`], the compiler as a long-lived,
//!   caching service that compiles each model *per machine*, keyed by
//!   model name and matched on the exact (spec, machine), so
//!   heterogeneous fleet nodes run code compiled for their own hardware;
//! * [`selector`] — [`VersionSelector`], the pluggable runtime policy
//!   that picks which retained version each unit runs under live
//!   interference ([`StaticLevel`] pinning, [`HysteresisLadder`] EWMA
//!   smoothing + switch hysteresis).
//!
//! # Example
//!
//! ```
//! use veltair_compiler::{compile_model, CompilerOptions};
//! use veltair_sim::MachineConfig;
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let spec = veltair_models::mobilenet_v2();
//! let compiled = compile_model(&spec, &machine, &CompilerOptions::fast());
//! // Every layer carries 1..=5 versions spanning the locality/parallelism
//! // tradeoff.
//! assert!(compiled.layers.iter().all(|l| (1..=5).contains(&l.versions.len())));
//! ```

pub mod codegen;
pub mod compiled;
pub mod lower;
pub mod multiversion;
pub mod options;
pub mod search;
pub mod selector;
pub mod service;
pub mod vendor;

pub use codegen::{generate as generate_code, LoopNestProgram};
pub use compiled::{compile_model, CompiledLayer, CompiledModel, CompiledVersion, CORE_CLASSES};
pub use lower::{lower_gemm, lower_streaming};
pub use multiversion::{extract_dominant, select_versions};
pub use options::{
    bin_for_level, interference_bins, CompilerError, CompilerOptions, NUM_INTERFERENCE_BINS,
    QOS_PLAN_MARGIN,
};
pub use search::{search, Sample, SearchStats};
pub use selector::{
    EwmaSmoother, HysteresisConfig, HysteresisLadder, SelectionContext, SelectorKind, StaticLevel,
    VersionSelector,
};
pub use service::CompilerService;
pub use veltair_tensor::{tile_ladder, Schedule};
pub use vendor::vendor_profile;
