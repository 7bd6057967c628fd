//! `overload-mix`: one 64-core node, the pinned four-model overload mix,
//! stepped through `Driver::step` to exhaustion under each Fig. 12 policy.
//!
//! The seed draws several independent arrival traces and every policy
//! serves each of them: the tail of one overloaded trace swings with its
//! few worst queueing episodes, and pooling traces steadies it.

use veltair::prelude::*;

use crate::calibrate;
use crate::digest::Digest;
use crate::harness::{
    policy_key, run_driver, sub_seed, zoo_specs, Bench, CompileLog, Pass, SchedTotals, Unit,
};
use crate::tracer::{cpu_ns, Tracer};

/// The mix of `tests/policy_ordering.rs`, weighted by inverse QoS.
pub const MIX: [&str; 4] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];

/// Aggregate Poisson arrival rate: past this node's capacity for the mix.
const AGGREGATE_QPS: f64 = 200.0;

pub struct Overload {
    machine: MachineConfig,
    models: Vec<CompiledModel>,
    traces: Vec<Vec<QuerySpec>>,
    log: CompileLog,
}

/// The mix's `(model, 1 / QoS)` streams.
pub fn inverse_qos_streams(specs: &[ModelSpec]) -> Vec<(&str, f64)> {
    specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect()
}

/// Compiles the mix and draws `traces` arrival traces of `queries` each.
pub fn setup(
    queries: usize,
    traces: usize,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Overload, String> {
    let machine = MachineConfig::threadripper_3990x();
    let specs = zoo_specs(&MIX)?;
    let mut service = CompilerService::new(CompilerOptions::fast());
    let mut log = CompileLog::default();
    let models = log.compile(&mut service, &specs, &machine, tr);
    log.close(&service, &models.iter().collect::<Vec<_>>());
    let workload = WorkloadSpec::try_mix(&inverse_qos_streams(&specs), queries)
        .map_err(|e| e.to_string())?
        .scaled_to(AGGREGATE_QPS);
    Ok(Overload {
        machine,
        models,
        traces: (0..traces)
            .map(|i| workload.generate(sub_seed(seed, i)))
            .collect(),
        log,
    })
}

impl Bench for Overload {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Digest::default();
        let mut totals = SchedTotals::default();
        for policy in Policy::figure12_set() {
            let key = policy_key(policy);
            let (mut satisfied, mut completed_all) = (0, 0);
            for (trace, queries) in self.traces.iter().enumerate() {
                let submitted = queries.len() as u64;
                pass.attempted += submitted;
                let cfg = SimConfig::new(self.machine.clone(), policy);
                let at = calibrate::checkpoint(false);
                let start = cpu_ns();
                let run = match run_driver(&self.models, queries, cfg, tr) {
                    Ok(run) => run,
                    Err(e) => {
                        pass.fail(submitted, format!("{key}: {e}"));
                        continue;
                    }
                };
                let ns = cpu_ns() - start;
                let completed = run.report.total_queries() as u64;
                if completed != submitted {
                    pass.fail(
                        submitted - completed.min(submitted),
                        format!("{key}: {completed} of {submitted} queries completed"),
                    );
                }
                pass.units.push(Unit {
                    ns,
                    resolved: completed,
                    at,
                });
                pass.add_driver_run(policy, &run);
                digest.str(key);
                digest.report(&run.report);
                totals.add(&run.report);
                satisfied += run
                    .report
                    .per_model
                    .values()
                    .map(|m| m.satisfied)
                    .sum::<usize>();
                completed_all += completed;
                if policy == Policy::VeltairFull {
                    pass.served.add_report(trace, &run.report, submitted);
                }
            }
            if completed_all > 0 {
                pass.layer.insert(
                    format!("sched.qos_satisfaction.{key}"),
                    satisfied as f64 / completed_all as f64,
                );
            }
        }
        totals.metrics(&mut pass.layer);
        pass.digest = digest.finish();
        pass
    }

    fn compile_log(&self) -> &CompileLog {
        &self.log
    }
}
