//! The performance-counter interference proxy (paper §4.3).
//!
//! The paper defines the system's *interference pressure level* as the
//! average slowdown of co-running layers, runs PCA over candidate hardware
//! counters (L3 miss rate, L3 accesses, IPC, FP operations) to find that
//! L3-related counters explain almost all of the variance (Fig. 11a), and
//! fits a *simple linear model* on the two L3 counters that predicts the
//! pressure level at negligible runtime cost (Fig. 11b).
//!
//! This crate reproduces that pipeline from scratch:
//!
//! * [`linalg`] — dense symmetric Jacobi eigensolver and Gaussian
//!   elimination (no external math dependencies);
//! * [`pca`] — principal component analysis with per-feature importance;
//! * [`linreg`] — ordinary least squares with R²;
//! * [`proxy`] — the end product: [`InterferenceProxy::fit`] /
//!   [`InterferenceProxy::predict`].
//!
//! # Example
//!
//! ```
//! use veltair_proxy::{CounterWindow, InterferenceProxy};
//!
//! // Synthetic: pressure shows up in the L3 counters.
//! let windows: Vec<CounterWindow> = (0..50)
//!     .map(|i| {
//!         let level = f64::from(i) / 49.0;
//!         CounterWindow {
//!             miss_rate: 0.1 + 0.8 * level,
//!             access_rate: 1.0e9 + 4.0e9 * level,
//!             ipc: 2.0 - level,
//!             flop_rate: 1.0e12,
//!         }
//!     })
//!     .collect();
//! let levels: Vec<f64> = (0..50).map(|i| f64::from(i) / 49.0).collect();
//! let proxy = InterferenceProxy::fit(&windows, &levels);
//! assert!(proxy.r2 > 0.99);
//! assert!((proxy.predict(&windows[25]) - levels[25]).abs() < 0.05);
//! ```

pub mod linalg;
pub mod linreg;
pub mod pca;
pub mod proxy;

pub use linreg::LinearModel;
pub use pca::Pca;
pub use proxy::{CounterWindow, InterferenceProxy};
