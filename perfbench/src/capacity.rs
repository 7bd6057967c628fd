//! `capacity-search`: Fig. 12's headline, `max_qps_at_qos` at the 0.90
//! target for FULL and Planaria on the Light, Medium and Mix columns, one
//! column after another on this thread.
//!
//! Each search is followed by two replays through `Driver::step`: the
//! capacity point itself, which must reproduce the search's own report
//! and meet the target, and a probe at twice the capacity, which must
//! miss it.

use veltair::core::experiments::fig12::workload_columns;
use veltair::prelude::*;

use crate::calibrate;
use crate::digest::Digest;
use crate::harness::{
    geomean, policy_key, run_driver, sub_seed, zoo_specs, Bench, CompileLog, DriverRun, Pass,
    SchedTotals, Unit,
};
use crate::metrics::COLUMNS;
use crate::tracer::{cpu_ns, Tracer};

/// Fig. 12 FULL-over-Planaria gains the paper measured on real hardware.
const PAPER_GAINS: [(&str, f64); 3] = [("light", 0.71), ("medium", 0.62), ("heavy", 0.45)];

struct Column {
    index: usize,
    label: String,
    workload: WorkloadSpec,
    engines: Vec<ServingEngine>,
}

pub struct Capacity {
    /// One search configuration per independent seed drawn from the run's.
    searches: Vec<QpsSearchConfig>,
    columns: Vec<Column>,
    log: CompileLog,
}

/// Compiles the zoo and builds the FULL and Planaria engines of each
/// column; every search runs `seeds` times with independent seeds.
pub fn setup(queries: usize, seeds: usize, seed: u64, tr: &mut Tracer) -> Result<Capacity, String> {
    let machine = MachineConfig::threadripper_3990x();
    let mut service = CompilerService::new(CompilerOptions::fast());
    let mut log = CompileLog::default();
    let zoo = log.compile(&mut service, &all_models(), &machine, tr);
    let mut columns = Vec::new();
    for (label, streams) in workload_columns() {
        if !COLUMNS.contains(&label.as_str()) {
            continue;
        }
        let refs: Vec<(&str, f64)> = streams.iter().map(|(n, r)| (n.as_str(), *r)).collect();
        let workload = WorkloadSpec::try_mix(&refs, queries).map_err(|e| e.to_string())?;
        let specs = zoo_specs(&refs.iter().map(|(n, _)| *n).collect::<Vec<_>>())?;
        let mut engines = Vec::new();
        for policy in [Policy::VeltairFull, Policy::Planaria] {
            let mut engine = ServingEngine::new(machine.clone(), policy);
            for model in log.compile(&mut service, &specs, &machine, tr) {
                engine.register(model);
            }
            engines.push(engine);
        }
        columns.push(Column {
            index: columns.len(),
            label,
            workload,
            engines,
        });
    }
    log.close(&service, &zoo.iter().collect::<Vec<_>>());
    let searches = (0..seeds)
        .map(|i| QpsSearchConfig {
            queries,
            seed: sub_seed(seed, i),
            ..QpsSearchConfig::figure12()
        })
        .collect();
    Ok(Capacity {
        searches,
        columns,
        log,
    })
}

/// How many probe runs `max_qps_at_qos` made to return `qps`, from its
/// documented rule: probe 0.5 QPS (return there if the target fails),
/// then 4, 8, 16, ... until a probe misses, then bisect `iterations`
/// times. `None` when `qps` is not a point that rule can return.
fn search_probes(qps: f64, satisfaction: f64, cfg: &QpsSearchConfig) -> Option<u64> {
    if satisfaction < cfg.satisfaction_target {
        return (qps == 0.5).then_some(1);
    }
    let (mut lo, mut hi, mut probes) = (0.5, 4.0, 2u64);
    while hi <= qps {
        lo = hi;
        hi *= 2.0;
        probes += 1;
    }
    let steps = (qps - lo) / (hi - lo) * 2f64.powi(cfg.iterations as i32);
    (steps.fract() == 0.0).then_some(probes + cfg.iterations as u64)
}

impl Capacity {
    /// Replays one probe of a search through a stepped driver.
    fn replay(
        &self,
        engine: &ServingEngine,
        workload: &WorkloadSpec,
        qps: f64,
        search: &QpsSearchConfig,
        tr: &mut Tracer,
    ) -> Result<DriverRun, SimError> {
        let mut w = workload.scaled_to(qps);
        w.total_queries = search.queries;
        let cfg = SimConfig::new(engine.machine().clone(), engine.policy())
            .with_selector(engine.selector())
            .with_projection(engine.projection());
        run_driver(engine.models(), &w.generate(search.seed), cfg, tr)
    }

    /// One `max_qps_at_qos` call plus its two checked replays. Returns
    /// the capacity found and the host time of the search call.
    fn search(
        &self,
        column: &Column,
        engine: &ServingEngine,
        search: &QpsSearchConfig,
        tr: &mut Tracer,
        out: &mut SearchTally<'_>,
    ) -> (f64, u64) {
        let pass = &mut *out.pass;
        let policy = engine.policy();
        let key = policy_key(policy);
        let col = column.label.to_lowercase();
        let target = search.satisfaction_target;
        let n = search.queries as u64;
        let sampled = calibrate::checkpoint(false);
        let start = cpu_ns();
        tr.next_run();
        let (found, search_ns) = tr.span("core.max_qps_at_qos", |_| {
            max_qps_at_qos(engine, &column.workload, search)
        });
        let probes = search_probes(found.qps, found.satisfaction, search);
        let searched = probes.unwrap_or(0) * n;
        let operations = searched + 2 * n;
        pass.attempted += operations;
        let mut failures = Vec::new();
        if probes.is_none() {
            failures.push(format!("capacity {} is off the search grid", found.qps));
        }
        if found.report.total_queries() as u64 != n {
            failures.push("the capacity-point report lost queries".to_string());
        }
        let at = self.replay(engine, &column.workload, found.qps, search, tr);
        let over = self.replay(engine, &column.workload, 2.0 * found.qps, search, tr);
        let mut resolved = searched;
        match (&at, &over) {
            (Ok(at), Ok(over)) => {
                if at.report != found.report {
                    failures.push("replaying the capacity point changed it".into());
                }
                if at.report.overall_satisfaction() < target {
                    failures.push(format!(
                        "satisfaction {:.4} at capacity is below {target}",
                        at.report.overall_satisfaction()
                    ));
                }
                if over.report.overall_satisfaction() >= target {
                    failures.push(format!(
                        "twice the capacity still meets {target} ({:.4})",
                        over.report.overall_satisfaction()
                    ));
                }
                for run in [at, over] {
                    resolved += run.report.total_queries() as u64;
                    if run.report.total_queries() as u64 != n {
                        failures.push("a replay lost queries".to_string());
                    }
                    pass.add_driver_run(policy, run);
                    out.totals.add(&run.report);
                    out.digest.report(&run.report);
                }
                if policy == Policy::VeltairFull {
                    pass.served.add_report(column.index, &at.report, n);
                }
            }
            (Err(e), _) | (_, Err(e)) => failures.push(format!("replay: {e}")),
        }
        if !failures.is_empty() {
            pass.fail(operations, format!("{col}/{key}: {}", failures.join("; ")));
        }
        out.digest.str(&col);
        out.digest.str(key);
        out.digest.f64(found.qps);
        out.digest.f64(found.satisfaction);
        out.digest.f64(found.avg_latency_s);
        out.digest.report(&found.report);
        pass.units.push(Unit {
            ns: cpu_ns() - start,
            resolved,
            at: sampled,
        });
        *pass.layer.entry("core.search_probes".into()).or_default() += probes.unwrap_or(0) as f64;
        (found.qps, search_ns)
    }
}

/// What the searches of one pass accumulate into.
struct SearchTally<'p> {
    pass: &'p mut Pass,
    digest: Digest,
    totals: SchedTotals,
}

impl Bench for Capacity {
    fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut tally = SearchTally {
            pass: &mut pass,
            digest: Digest::default(),
            totals: SchedTotals::default(),
        };
        let mut layer = Vec::new();
        let mut host = Vec::new();
        let mut gains = Vec::new();
        let mut full_qps = Vec::new();
        for column in &self.columns {
            let col = column.label.to_lowercase();
            let mut capacity = Vec::new();
            for engine in &column.engines {
                let key = policy_key(engine.policy());
                let mut found = Vec::new();
                let mut search_ns = 0;
                for search in &self.searches {
                    let (qps, ns) = self.search(column, engine, search, tr, &mut tally);
                    found.push(qps);
                    search_ns += ns;
                }
                let qps = geomean(&found);
                layer.push((format!("core.max_qps.{col}.{key}"), qps));
                host.push((
                    format!("core.search_ms.{col}.{key}"),
                    search_ns as f64 / 1e6,
                ));
                capacity.push((engine.policy(), qps));
            }
            let qps = |p: Policy| capacity.iter().find(|(q, _)| *q == p).map(|x| x.1);
            if let (Some(full), Some(planaria)) = (qps(Policy::VeltairFull), qps(Policy::Planaria))
            {
                layer.push((format!("core.qps_gain.{col}"), full / planaria - 1.0));
                gains.push((col, full / planaria));
                full_qps.push(full);
            }
        }
        let SearchTally { digest, totals, .. } = tally;
        pass.layer.extend(layer);
        pass.host.extend(host);
        let ratios: Vec<f64> = gains.iter().map(|g| g.1).collect();
        pass.layer
            .insert("core.max_qps_at_qos".into(), geomean(&full_qps));
        pass.layer
            .insert("core.qps_gain_vs_planaria".into(), geomean(&ratios) - 1.0);
        let paper: Vec<String> = PAPER_GAINS
            .iter()
            .map(|(c, g)| format!("{c} +{:.0}%", g * 100.0))
            .collect();
        pass.notes.push(format!(
            "paper reference, FULL over Planaria on real hardware (Fig. 12): {}; heavy is not run here",
            paper.join(", ")
        ));
        let measured: Vec<String> = gains
            .iter()
            .map(|(c, r)| format!("{c} {:+.1}%", (r - 1.0) * 100.0))
            .collect();
        pass.notes.push(format!(
            "measured in this simulator: {}; the model is unvalidated against hardware, so no error figure is given",
            measured.join(", ")
        ));
        totals.metrics(&mut pass.layer);
        pass.digest = digest.finish();
        pass
    }

    fn compile_log(&self) -> &CompileLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_count_follows_the_bracketing_rule() {
        let cfg = QpsSearchConfig {
            satisfaction_target: 0.9,
            queries: 10,
            seed: 1,
            iterations: 7,
        };
        // Floor failure: one probe.
        assert_eq!(search_probes(0.5, 0.5, &cfg), Some(1));
        // 0.5 and 4 probed, 4 failed, seven bisections in [0.5, 4).
        assert_eq!(search_probes(0.5, 0.95, &cfg), Some(9));
        // 0.5, 4, 8, ..., 512 probed (512 failed), bisections in [256, 512).
        assert_eq!(search_probes(328.0, 0.95, &cfg), Some(2 + 7 + 7));
        // 65.5 lies in [64, 128) on a 0.5 grid.
        assert_eq!(search_probes(65.5, 0.95, &cfg), Some(2 + 5 + 7));
        assert_eq!(search_probes(65.3, 0.95, &cfg), None);
    }
}
