//! Analytic multicore CPU machine model with shared-resource contention.
//!
//! The paper evaluates VELTAIR on an AMD Threadripper 3990X (64 cores,
//! 256 MB shared L3, 2.9 GHz, AVX2). This crate replaces that physical
//! testbed with a deterministic analytic model — a roofline extended with
//! shared-cache and shared-bandwidth contention — plus the simulated
//! hardware performance counters the interference proxy trains on, and a
//! small discrete-event toolkit used by the serving simulator.
//!
//! The phenomena the paper's design exploits all emerge from this model and
//! are locked in by tests:
//!
//! * co-located tasks steal L3 capacity and DRAM bandwidth from each other
//!   (Fig. 1b's up-to-1.8x slowdown);
//! * cache-resident ("high locality") kernels fall off a cliff once their
//!   footprint exceeds their effective share (Fig. 6a's 7x degradation);
//! * small kernels stop scaling with cores early (Fig. 4a);
//! * expanding a running kernel onto newly freed cores costs a thread-spawn
//!   penalty of O(100 us) (Fig. 5b).
//!
//! [`execute`] rates one kernel once. A [`LatencyModel`] prepares a kernel
//! under one interference and rates it at any core count, a
//! [`GrantModel`] prepares it on one core grant and rates it under any
//! interference, and a [`CoreTerms`] table holds the terms of a rating
//! that no interference changes, so a model prepared over it evaluates
//! only the rest. All of them give bit-identical results.
//!
//! # Example
//!
//! ```
//! use veltair_sim::{execute, Interference, KernelProfile, MachineConfig};
//!
//! let machine = MachineConfig::threadripper_3990x();
//! let kernel = KernelProfile {
//!     flops: 231.0e6,
//!     compute_efficiency: 0.6,
//!     parallel_chunks: 128,
//!     footprint_base_bytes: 2.0e6,
//!     footprint_per_core_bytes: 0.5e6,
//!     min_traffic_bytes: 2.0e6,
//!     spill_traffic_bytes: 64.0e6,
//! };
//! let solo = execute(&kernel, 16, Interference::NONE, &machine);
//! let contended = execute(&kernel, 16, Interference::level(0.9), &machine);
//! assert!(contended.latency_s > solo.latency_s);
//! ```

pub mod contention;
pub mod counters;
pub mod des;
pub mod exec;
pub mod kernel;
pub mod machine;

pub use contention::{Interference, PressureDemand};
pub use counters::PerfCounters;
pub use des::{EventQueue, SimTime, SplitEventQueue};
pub use exec::{execute, CoreTerms, Execution, GrantModel, LatencyModel, UnitProgress};
pub use kernel::KernelProfile;
pub use machine::MachineConfig;
