//! VELTAIR's serving engine, evaluation metrics, and experiment harness.
//!
//! This crate ties the whole reproduction together:
//!
//! * [`engine`] — the serving API: [`ServingEngine`] (compile-once,
//!   serve-many facade over the compiler, proxy, and scheduler crates),
//!   configured one way: [`new`](ServingEngine::new),
//!   [`register`](ServingEngine::register) and its setters, with each
//!   model's SLO on the compiled model itself. Its
//!   [`session`](ServingEngine::session) opens a one-node [`Fleet`] for
//!   online serving — streaming [`submit`](Fleet::submit), incremental
//!   [`poll`](Fleet::poll)/[`snapshot`](Fleet::snapshot), and mid-run
//!   [`set_policy`](Fleet::set_policy);
//! * [`scenarios`] — the pinned fleet scenarios. A fleet of N (possibly
//!   heterogeneous) nodes behind pluggable routing and admission control
//!   opens with [`Fleet::new`] over one shared registry, or with
//!   [`Fleet::with_node_registries`] over per-machine registries compiled
//!   through one `CompilerService`; autoscaling, failure plans and
//!   telemetry are set on the fleet;
//! * [`dataset`] — co-location episode generation used to train the
//!   interference proxy exactly the way the deployed monitor observes the
//!   system;
//! * [`metrics`] — the paper's evaluation metrics (§5.1): maximum QPS at
//!   95 % QoS satisfaction (bisection search), average latency, and CPU
//!   usage efficiency;
//! * [`experiments`] — one function per figure/table of the paper,
//!   returning typed rows that the `veltair-figures` binary prints.
//!
//! One execution surface, one error type: every session is a [`Fleet`],
//! and every fallible call of this crate returns [`ClusterError`].
//!
//! # Example: engine → session → snapshot
//!
//! ```
//! use veltair_core::{Policy, ServingEngine, WorkloadSpec};
//! use veltair_compiler::{compile_model, CompilerOptions};
//! use veltair_sim::MachineConfig;
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let mut engine = ServingEngine::new(machine.clone(), Policy::VeltairFull);
//! engine.register(compile_model(
//!     &veltair_models::mobilenet_v2(),
//!     &machine,
//!     &CompilerOptions::fast(),
//! ));
//!
//! // Open-loop serving on a fleet of one: submit while the clock runs,
//! // read stats and completions mid-run.
//! let mut session = engine.session()?;
//! session.submit_stream(&WorkloadSpec::single("mobilenet_v2", 40.0, 60), 7)?;
//! session.run_until(0.5)?;
//! let snapshot = session.snapshot();
//! let completed = snapshot.merged.total_queries();
//! assert!(completed <= 60);
//! assert_eq!(session.poll().len(), completed);
//! let report = session.finish();
//! assert_eq!(report.merged.total_queries(), 60);
//!
//! // The one-shot batch path runs the same driver. (An *unpaused*
//! // session reproduces it bit for bit; the pause above may split
//! // floating-point accumulation intervals, so compare outcomes.)
//! let batch = engine.try_run(&WorkloadSpec::single("mobilenet_v2", 40.0, 60), 7)?;
//! assert_eq!(batch.total_queries(), report.merged.total_queries());
//! # Ok::<(), veltair_core::ClusterError>(())
//! ```

pub mod dataset;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod scenarios;

pub use dataset::{co_location_dataset, train_proxy};
pub use engine::ServingEngine;
pub use metrics::{max_qps_at_qos, QpsResult, QpsSearchConfig};
pub use scenarios::{all_scenarios, Scenario, SloExpectation};
// Re-export the user-facing vocabulary so downstream users need one import.
pub use veltair_cluster::{
    AdmissionKind, AutoscalerConfig, ClusterError, Completion, CoordinatorStats, FailureKind,
    FailurePlan, Fleet, FleetReport, NodeLoad, NodeSpec, NodeState, RouterKind, ScaleDecision,
    ScalePolicy, SloAdmissionConfig,
};
pub use veltair_sched::{Policy, ServingReport, SimError, WorkloadError, WorkloadSpec};
