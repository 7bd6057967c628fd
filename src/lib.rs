//! # VELTAIR
//!
//! A full reproduction of *"VELTAIR: Towards High-Performance Multi-tenant
//! Deep Learning Services via Adaptive Compilation and Scheduling"*
//! (ASPLOS 2022) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — the analytic 64-core CPU machine model with shared-L3 and
//!   memory-bandwidth contention;
//! * [`tensor`] — the operator IR (shapes, FLOP/byte accounting, loop
//!   nests, fusion);
//! * [`models`] — the seven MLPerf-style networks of the paper's Table 2;
//! * [`compiler`] — the Ansor-style auto-scheduler and the single-pass
//!   static multi-version compiler (Algorithm 1);
//! * [`proxy`] — the PCA-selected, linear performance-counter interference
//!   proxy;
//! * [`sched`] — layer-block formation (Algorithm 2), the scheduler-core
//!   runtime (Algorithm 3): a policy-agnostic event loop with one
//!   dispatcher per policy family, plus the Planaria / PREMA / AI-MT /
//!   Parties baselines;
//! * [`cluster`] — the multi-machine fleet runtime: per-node serving
//!   drivers behind pluggable SLO-aware routing (round-robin,
//!   least-outstanding, power-of-two-choices, interference-aware) and
//!   admission control;
//! * [`telemetry`] — the deterministic flight recorder: query-lifecycle
//!   tracing, the metrics registry (latency histograms, the
//!   violation-frequency table), Chrome-trace export, and per-query SLO
//!   attribution;
//! * [`core`] — the serving engine (whose session is a one-node
//!   [`cluster::Fleet`]; a fleet of N opens with [`cluster::Fleet::new`]
//!   or [`cluster::Fleet::with_node_registries`]), the pinned fleet
//!   scenarios, evaluation metrics, and the experiment harness that
//!   regenerates every figure and table of the paper.
//!
//! # Quickstart
//!
//! ```
//! use veltair::prelude::*;
//!
//! // Compile a model once, offline, and register it with an engine. The
//! // compiled model carries its SLO (`qos_s`); set it there to change it.
//! let machine = MachineConfig::threadripper_3990x();
//! let spec = veltair::models::mobilenet_v2();
//! let mut engine = ServingEngine::new(machine.clone(), Policy::VeltairFull);
//! engine.register(compile_model(&spec, &machine, &CompilerOptions::fast()));
//!
//! // Serve a Poisson stream through a resumable session (a fleet of one
//! // node): arrivals go in while the clock runs, per-model stats come
//! // out mid-run.
//! let mut session = engine.session()?;
//! session.submit_stream(&WorkloadSpec::single("mobilenet_v2", 50.0, 50), 42)?;
//! session.run_until(0.25)?;
//! let live = session.snapshot();
//! assert!(live.merged.total_queries() <= 50);
//! let report = session.finish();
//! assert_eq!(report.merged.total_queries(), 50);
//! # Ok::<(), ClusterError>(())
//! ```

pub use veltair_cluster as cluster;
pub use veltair_compiler as compiler;
pub use veltair_core as core;
pub use veltair_models as models;
pub use veltair_proxy as proxy;
pub use veltair_sched as sched;
pub use veltair_sim as sim;
pub use veltair_telemetry as telemetry;
pub use veltair_tensor as tensor;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use veltair_cluster::{
        AdmissionKind, AutoscalerConfig, ClusterError, Completion, CoordinatorStats, FailureEvent,
        FailureKind, FailurePlan, Fleet, FleetReport, LoadIndex, NodeLoad, NodeSpec, NodeState,
        Router, RouterKind, ScaleDecision, ScalePolicy, SloAdmissionConfig, StepMode,
    };
    pub use veltair_compiler::{
        compile_model, CompiledModel, CompilerError, CompilerOptions, CompilerService,
        EwmaSmoother, HysteresisConfig, HysteresisLadder, SearchStats,
    };
    pub use veltair_core::{
        all_scenarios, max_qps_at_qos, train_proxy, Policy, QpsResult, QpsSearchConfig, Scenario,
        ServingEngine, ServingReport, SimError, SloExpectation, WorkloadError, WorkloadSpec,
    };
    pub use veltair_models::{all_models, by_name, ModelSpec, WorkloadClass};
    pub use veltair_sched::runtime::Driver;
    pub use veltair_sched::{PressureView, ProjectionConfig, QuerySpec, SimConfig};
    pub use veltair_sim::{Interference, MachineConfig, SimTime};
    pub use veltair_telemetry::{
        Collector, EventCounts, LatencyHistogram, SloAttribution, TelemetrySnapshot, TraceEvent,
        TraceEventKind, TraceLog, ViolationCell,
    };
}
