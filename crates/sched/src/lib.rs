//! Multi-tenant serving schedulers for VELTAIR.
//!
//! This crate hosts the online half of the paper:
//!
//! * [`workload`] — MLPerf-server-style query generation (Poisson arrivals,
//!   class mixes with inverse-QoS frequencies, uniform streams for the
//!   granularity study);
//! * [`policy`] — the evaluated scheduling policies: the paper's
//!   VELTAIR-AS/-AC/-FULL plus the Planaria, PREMA, model-wise-FCFS and
//!   fixed-layer-block baselines (Table 1's design space);
//! * [`layer_block`] — Algorithm 2: dynamic-threshold layer-block
//!   formation and block core-requirement calculation;
//! * [`runtime`] — the scheduler-core runtime: one progress-based
//!   discrete-event loop that dispatches by `match` on the [`Policy`] to
//!   its family (spatial layer-block, temporal PREMA/AI-MT, partitioned
//!   Parties), and reads one interference monitor, the oracle or the
//!   trained counter proxy of [`SimConfig::proxy`]. Its heart is the
//!   resumable [`runtime::Driver`]: the event loop inverted into a
//!   stepper with open-loop arrival injection, mid-run policy hot-swap,
//!   and incremental report snapshots;
//! * [`simulator`] — [`SimConfig`] and the batch entry point
//!   [`simulate`], which runs a [`runtime::Driver`] to completion. The
//!   configuration's `selector` holds the [`HysteresisConfig`] of the
//!   runtime's one version selector, the calibrated
//!   [`HysteresisLadder`](veltair_compiler::HysteresisLadder) that
//!   adaptive-compilation policies consult at every block-planning
//!   decision;
//! * [`report`] — per-model QoS satisfaction, latency (mean and p95/p99
//!   tails), conflict and CPU usage statistics.
//!
//! # Batch example
//!
//! ```
//! use veltair_compiler::{compile_model, CompilerOptions};
//! use veltair_sched::{simulate, Policy, SimConfig, WorkloadSpec};
//! use veltair_sim::MachineConfig;
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let compiled = vec![compile_model(
//!     &veltair_models::mobilenet_v2(),
//!     &machine,
//!     &CompilerOptions::fast(),
//! )];
//! let queries = WorkloadSpec::single("mobilenet_v2", 50.0, 100).generate(7);
//! let report = simulate(&compiled, &queries, &SimConfig::new(machine, Policy::VeltairFull))?;
//! assert_eq!(report.total_queries(), 100);
//! # Ok::<(), veltair_sched::SimError>(())
//! ```
//!
//! # Streaming example
//!
//! The same simulation, driven openly: queries are injected while the
//! clock runs, the policy is swapped mid-stream, and statistics are read
//! incrementally. Stepping a [`runtime::Driver`] to exhaustion is
//! bit-identical to [`simulate`] on the same inputs.
//!
//! ```
//! use veltair_compiler::{compile_model, CompilerOptions};
//! use veltair_sched::runtime::Driver;
//! use veltair_sched::{Policy, QuerySpec, SimConfig};
//! use veltair_sim::{MachineConfig, SimTime};
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let compiled = vec![compile_model(
//!     &veltair_models::mobilenet_v2(),
//!     &machine,
//!     &CompilerOptions::fast(),
//! )];
//! let mut driver = Driver::open(&compiled, SimConfig::new(machine, Policy::VeltairFull))?;
//! for i in 0..10 {
//!     driver.inject(&QuerySpec {
//!         model: "mobilenet_v2".into(),
//!         arrival: SimTime(f64::from(i) * 0.01),
//!     })?;
//! }
//! driver.run_until(SimTime(0.05))?;
//! driver.set_policy(Policy::Prema); // A/B the scheduler mid-stream
//! driver.run_to_completion();
//! let (report, _trace) = driver.finish();
//! assert_eq!(report.total_queries(), 10);
//! # Ok::<(), veltair_sched::runtime::SimError>(())
//! ```

pub mod layer_block;
pub mod policy;
pub mod report;
pub mod runtime;
pub mod simulator;
pub mod workload;

pub use layer_block::{block_core_requirement, find_first_pivot, form_blocks, BlockPlan};
pub use policy::{Granularity, Policy};
pub use report::{ModelStats, ServingReport};
pub use runtime::{Driver, PressureView, ProjectionConfig, ProjectionError, SimError};
pub use simulator::{simulate, SimConfig};
// Version choice is owned by the compilation layer; re-exported here
// because `SimConfig::selector` is part of this crate's configuration
// surface.
pub use veltair_compiler::HysteresisConfig;
pub use workload::{QuerySpec, WorkloadError, WorkloadSpec};
