//! Host-side bench targets (no library API).
//!
//! * `cluster_hot_path` and `micro_kernels` — criterion micro-benches of
//!   the cluster and scheduler hot paths and the compiler kernels, plus
//!   the §5.5 scheduling-overhead check;
//! * `validation_cachesim` — the cache-simulator validation of the
//!   analytic contention model.
//!
//! The paper's figures and tables are regenerated by the `veltair-figures`
//! binary of `veltair-core`, scaled with the `VELTAIR_QUERIES`
//! environment variable.
