//! What every workload shares: the outcome of one pass over its
//! simulation runs, compile bookkeeping, and stepping a `Driver` from
//! outside with optional per-step timing.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use veltair::prelude::*;
use veltair::sched::ServingReport;

use crate::metrics::{percentile, Values};
use crate::tracer::{nanos, Tracer};

/// One timed piece of a pass: a policy run, a capacity search, a fleet
/// run. Host time per unit is compared across passes by its median.
#[derive(Debug, Clone)]
pub struct Unit {
    pub ns: u64,
    /// Queries resolved (completed or shed) inside the unit. A run timed
    /// as several units counts its queries on the last one.
    pub resolved: u64,
    /// Reference-kernel samples taken before the unit started.
    pub at: usize,
}

/// The simulated population the end-to-end QoS metrics are taken over,
/// in groups: one per capacity-search column or overload trace, a
/// single one on the fleet.
#[derive(Debug, Clone, Default)]
pub struct Served {
    groups: BTreeMap<usize, Group>,
}

#[derive(Debug, Clone, Default)]
struct Group {
    submitted: u64,
    completed: u64,
    satisfied: u64,
    latency_sum_s: f64,
    latencies_s: Vec<f64>,
    /// Simulated seconds the group was served over.
    sim_s: f64,
}

impl Served {
    /// Adds one run to `group`; `submitted` counts its whole input.
    pub fn add_report(&mut self, group: usize, r: &ServingReport, submitted: u64) {
        let g = self.groups.entry(group).or_default();
        g.submitted += submitted;
        for m in r.per_model.values() {
            g.completed += m.queries as u64;
            g.satisfied += m.satisfied as u64;
            g.latency_sum_s += m.latency_sum_s;
            g.latencies_s.extend_from_slice(&m.latencies_s);
        }
        g.sim_s += r.makespan_s;
    }

    /// Latency samples across all groups.
    pub fn samples(&self) -> usize {
        self.groups.values().map(|g| g.latencies_s.len()).sum()
    }

    /// The simulated end-to-end metrics. Satisfaction pools every
    /// submitted query, and shed or lost ones count as QoS misses. The
    /// latency statistics and goodput are taken per group and combined
    /// by geometric mean, as Fig. 12 combines its columns.
    pub fn metrics(&self, out: &mut Values) {
        let submitted: u64 = self.groups.values().map(|g| g.submitted).sum();
        let satisfied: u64 = self.groups.values().map(|g| g.satisfied).sum();
        let qos = if submitted == 0 {
            0.0
        } else {
            satisfied as f64 / submitted as f64
        };
        out.insert("qos_satisfaction".into(), qos);
        let per_group = |f: &dyn Fn(&Group) -> f64| {
            let values: Vec<f64> = self.groups.values().map(f).collect();
            geomean(&values)
        };
        let p50 = per_group(&|g| percentile(&g.latencies_s, 50.0));
        let p99 = per_group(&|g| percentile(&g.latencies_s, 99.0));
        let mean = per_group(&|g| g.latency_sum_s / g.completed.max(1) as f64);
        let goodput = per_group(&|g| {
            if g.sim_s > 0.0 {
                g.satisfied as f64 / g.sim_s
            } else {
                0.0
            }
        });
        out.insert("latency_p50_ms".into(), p50 * 1e3);
        out.insert("latency_p99_ms".into(), p99 * 1e3);
        out.insert("latency_mean_ms".into(), mean * 1e3);
        out.insert("goodput_qps".into(), goodput);
    }
}

/// Geometric mean; 0 for no values or any zero value.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Everything one pass over a workload's simulation runs produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub units: Vec<Unit>,
    /// Queries submitted across the pass (one operation each).
    pub attempted: u64,
    /// Operations that failed: typed errors, queries neither completed
    /// nor shed, and the queries of runs whose workload check failed.
    pub failed: u64,
    /// Why operations failed, one line per cause.
    pub failures: Vec<String>,
    pub digest: u64,
    /// Host time spent inside `Driver::step` loops.
    pub step_loop_ns: u64,
    /// Driver steps taken, material steps among them, and projection
    /// probes made (counted in traced passes only).
    pub events: u64,
    pub material: u64,
    pub probes: u64,
    /// Per policy key: queries resolved by its driver runs and the host
    /// time of their step loops.
    pub per_policy: BTreeMap<&'static str, (u64, u64)>,
    pub served: Served,
    /// Deterministic simulated per-layer values.
    pub layer: Values,
    /// Host-time per-layer values measured in this pass.
    pub host: Values,
    /// Lines printed once, before the metrics.
    pub notes: Vec<String>,
}

impl Pass {
    pub fn fail(&mut self, operations: u64, why: String) {
        self.failed += operations;
        self.failures.push(why);
    }

    pub fn resolved(&self) -> u64 {
        self.units.iter().map(|u| u.resolved).sum()
    }

    /// Folds one driver run of `policy` into the pass's step counters.
    pub fn add_driver_run(&mut self, policy: Policy, run: &DriverRun) {
        self.step_loop_ns += run.loop_ns;
        self.events += run.events;
        self.material += run.material;
        self.probes += run.probes;
        let entry = self.per_policy.entry(policy_key(policy)).or_default();
        entry.0 += run.report.total_queries() as u64;
        entry.1 += run.loop_ns;
    }
}

/// A workload after set-up: repeatable passes over fixed inputs.
pub trait Bench {
    fn pass(&self, tr: &mut Tracer) -> Pass;
    fn compile_log(&self) -> &CompileLog;
}

/// Compile work done during set-up.
#[derive(Debug, Clone, Default)]
pub struct CompileLog {
    pub ns_per_model: BTreeMap<String, u64>,
    pub versions: u64,
    pub generated: u64,
    pub lowered: u64,
    pub hits: u64,
    pub misses: u64,
}

impl CompileLog {
    /// Compiles `specs` for `machine` through `service`, one span each.
    pub fn compile(
        &mut self,
        service: &mut CompilerService,
        specs: &[ModelSpec],
        machine: &MachineConfig,
        tr: &mut Tracer,
    ) -> Vec<CompiledModel> {
        specs
            .iter()
            .map(|spec| {
                let (model, ns) = tr.span("compiler.compile", |_| service.compile(spec, machine));
                *self
                    .ns_per_model
                    .entry(spec.graph.name.clone())
                    .or_default() += ns;
                model
            })
            .collect()
    }

    /// Folds in the service's counters once set-up is over, counting the
    /// versions of every distinct artifact.
    pub fn close(&mut self, service: &CompilerService, artifacts: &[&CompiledModel]) {
        let (hits, misses) = service.cache_stats();
        let stats = service.search_stats();
        self.hits += hits;
        self.misses += misses;
        self.generated += stats.generated as u64;
        self.lowered += stats.lowered as u64;
        self.versions += artifacts
            .iter()
            .flat_map(|m| &m.layers)
            .map(|l| l.versions.len() as u64)
            .sum::<u64>();
    }

    pub fn metrics(&self, out: &mut Values) {
        let total: u64 = self.ns_per_model.values().sum();
        out.insert("compiler.compile_ms".into(), total as f64 / 1e6);
        for (model, ns) in &self.ns_per_model {
            out.insert(format!("compiler.compile_ms.{model}"), *ns as f64 / 1e6);
        }
        out.insert("compiler.versions".into(), self.versions as f64);
        out.insert("compiler.search_generated".into(), self.generated as f64);
        out.insert("compiler.search_lowered".into(), self.lowered as f64);
        out.insert("compiler.cache_hits".into(), self.hits as f64);
        out.insert("compiler.cache_misses".into(), self.misses as f64);
    }
}

/// One driver stepped to exhaustion from outside.
#[derive(Debug)]
pub struct DriverRun {
    pub report: ServingReport,
    pub events: u64,
    pub material: u64,
    pub probes: u64,
    pub loop_ns: u64,
}

/// Builds a driver over `queries` and steps it to exhaustion. When the
/// tracer is on, every step is timed and classed as material (it bumped
/// `Driver::version`) or not, and after each material step of an
/// interference-aware spatial policy the monitor projection is timed. The
/// probes only read state, so the traced run's results must equal the
/// untraced run's; the digest check enforces that.
pub fn run_driver(
    models: &[CompiledModel],
    queries: &[QuerySpec],
    cfg: SimConfig,
    tr: &mut Tracer,
) -> Result<DriverRun, SimError> {
    let aware = matches!(
        cfg.policy,
        Policy::VeltairAs | Policy::VeltairAc | Policy::VeltairFull
    );
    tr.next_run();
    let (run, _) = tr.span("sched.run", |tr| -> Result<DriverRun, SimError> {
        let mut driver = Driver::new(models, queries, cfg)?;
        let start = Instant::now();
        let (mut events, mut material, mut probes) = (0, 0, 0);
        if tr.enabled() {
            let mut version = driver.version();
            loop {
                let t0 = Instant::now();
                if driver.step().is_none() {
                    break;
                }
                let ns = nanos(t0.elapsed());
                events += 1;
                if driver.version() == version {
                    tr.sample("sched.step_ns.other", ns);
                    continue;
                }
                version = driver.version();
                material += 1;
                tr.sample("sched.step_ns.material", ns);
                if aware {
                    probes += 1;
                    let p0 = Instant::now();
                    black_box(driver.state().projected());
                    tr.sample("sched.projection_ns", nanos(p0.elapsed()));
                }
            }
        } else {
            while driver.step().is_some() {}
        }
        let loop_ns = nanos(start.elapsed());
        let (report, _) = driver.finish();
        Ok(DriverRun {
            report,
            events,
            material,
            probes,
            loop_ns,
        })
    });
    run
}

/// Seed of the `i`-th independent input drawn from a run's `seed`
/// (one SplitMix64 step, so neighbouring seeds do not share inputs).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Looks up zoo models by name.
pub fn zoo_specs(names: &[&str]) -> Result<Vec<ModelSpec>, String> {
    names
        .iter()
        .map(|n| by_name(n).ok_or_else(|| format!("{n} is not in the model zoo")))
        .collect()
}

/// Metric key of a Fig. 12 policy.
pub fn policy_key(p: Policy) -> &'static str {
    match p {
        Policy::Planaria => "planaria",
        Policy::Prema => "prema",
        Policy::VeltairAs => "as",
        Policy::VeltairAc => "ac",
        Policy::VeltairFull => "full",
        _ => "other",
    }
}

/// Simulated scheduler statistics pooled over single-node runs.
#[derive(Debug, Clone, Default)]
pub struct SchedTotals {
    pub dispatches: u64,
    pub conflicts: u64,
    pub preemptions: u64,
    pub core_seconds: f64,
    pub busy_s: f64,
}

impl SchedTotals {
    pub fn add(&mut self, r: &ServingReport) {
        self.dispatches += r.dispatches;
        self.conflicts += r.conflicts;
        self.preemptions += r.preemptions;
        self.core_seconds += r.core_seconds;
        self.busy_s += r.makespan_s;
    }

    pub fn metrics(&self, out: &mut Values) {
        out.insert("sched.dispatches".into(), self.dispatches as f64);
        let rate = if self.dispatches == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.dispatches as f64
        };
        out.insert("sched.conflict_rate".into(), rate);
        out.insert("sched.preemptions".into(), self.preemptions as f64);
        let cores = if self.busy_s > 0.0 {
            self.core_seconds / self.busy_s
        } else {
            0.0
        };
        out.insert("sched.avg_cores".into(), cores);
    }
}
