//! The experiment harness: one entry point per figure and table of the
//! paper, each returning typed rows that `veltair-figures` prints and
//! tests check.
//!
//! All experiments share an [`ExpContext`] that lazily compiles and caches
//! models, scales query budgets through the `VELTAIR_QUERIES` environment
//! variable, and keeps every run deterministic by seeding the workload
//! generators.

use std::collections::BTreeMap;

use std::sync::Mutex;

use veltair_compiler::{compile_model, CompiledModel, CompilerOptions};
use veltair_sched::Policy;
use veltair_sim::MachineConfig;

use crate::engine::ServingEngine;

pub mod ablations;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod tables;

/// Shared state for experiment runs: machine, compiler options, and a
/// compile-once model cache.
#[derive(Debug)]
pub struct ExpContext {
    /// The simulated machine (the paper's 3990X by default).
    pub machine: MachineConfig,
    /// Compiler effort for model compilation.
    pub opts: CompilerOptions,
    cache: Mutex<BTreeMap<String, CompiledModel>>,
}

impl ExpContext {
    /// Standard context: the paper's machine, fast compile effort.
    #[must_use]
    pub fn new() -> Self {
        Self {
            machine: MachineConfig::threadripper_3990x(),
            opts: CompilerOptions::fast(),
            cache: Mutex::new(BTreeMap::new()),
        }
    }

    /// Compiles (or fetches from cache) a model of the zoo by name.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the model zoo.
    #[must_use]
    pub fn model(&self, name: &str) -> CompiledModel {
        let mut cache = self.cache.lock().expect("model cache lock poisoned");
        if let Some(m) = cache.get(name) {
            return m.clone();
        }
        let spec = veltair_models::by_name(name).unwrap_or_else(|| panic!("unknown model {name}"));
        let compiled = compile_model(&spec, &self.machine, &self.opts);
        cache.insert(name.to_string(), compiled.clone());
        compiled
    }

    /// Builds an engine with the given policy and registered models.
    #[must_use]
    pub fn engine(&self, policy: Policy, names: &[&str]) -> ServingEngine {
        let mut e = ServingEngine::new(self.machine.clone(), policy);
        for n in names {
            e.register(self.model(n));
        }
        e
    }

    /// Query budget per simulation run (`VELTAIR_QUERIES`, default 250).
    #[must_use]
    pub fn query_budget(&self) -> usize {
        std::env::var("VELTAIR_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(250)
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_caches_models() {
        let ctx = ExpContext::new();
        let a = ctx.model("mobilenet_v2");
        let b = ctx.model("mobilenet_v2");
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        let ctx = ExpContext::new();
        let _ = ctx.model("vgg16");
    }
}
