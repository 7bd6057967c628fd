//! The paper's evaluation metrics (§5.1), chiefly "QPS with 95 % of tasks
//! QoS-satisfied" via bisection over the arrival rate.

use veltair_cluster::ClusterError;
use veltair_sched::{Driver, ServingReport, WorkloadSpec};

use crate::engine::ServingEngine;

/// Max-QPS search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QpsSearchConfig {
    /// Required QoS satisfaction (paper: 0.95).
    pub satisfaction_target: f64,
    /// Queries in each probe's workload. A failing probe can stop before
    /// serving them all (see [`max_qps_at_qos`]).
    pub queries: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Bisection iterations after bracketing.
    pub iterations: usize,
}

impl QpsSearchConfig {
    /// Default search: 95 % target, query budget from the
    /// `VELTAIR_QUERIES` environment variable (default 400).
    #[must_use]
    pub fn standard() -> Self {
        let queries = std::env::var("VELTAIR_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(400);
        Self {
            satisfaction_target: 0.95,
            queries,
            seed: 0xA11CE,
            iterations: 7,
        }
    }

    /// The Fig. 12 sweep's target. The paper uses 95 %; on this substrate
    /// the *static-minimum* baselines structurally miss 95 % on the heavy
    /// models at any rate (a single co-runner costs SSD/BERT more than
    /// their planning slack), which would degenerate their capacity to the
    /// search floor and inflate every normalized improvement. 90 % keeps
    /// all policies on finite, comparable capacities; the Fig. 12 title
    /// names the deviation and points here.
    #[must_use]
    pub fn figure12() -> Self {
        Self {
            satisfaction_target: 0.90,
            ..Self::standard()
        }
    }
}

/// Result of a max-QPS search.
#[derive(Debug, Clone, PartialEq)]
pub struct QpsResult {
    /// Highest aggregate QPS sustaining the satisfaction target.
    pub qps: f64,
    /// Overall satisfaction measured at that rate.
    pub satisfaction: f64,
    /// Mean query latency (seconds) at that rate.
    pub avg_latency_s: f64,
    /// The full report at the sustained rate.
    pub report: ServingReport,
}

/// Finds the maximum aggregate QPS at which the engine sustains the
/// satisfaction target for the given workload shape (stream proportions
/// are preserved; only the aggregate rate is scaled).
///
/// Every probe serves `cfg.queries` queries of the workload scaled to
/// its rate, drawn with `cfg.seed`, as [`ServingEngine::run`] does. The
/// search probes 0.5 QPS, then 4, 8, 16, ... QPS until a probe misses the
/// target, then bisects between the last passing and the first failing
/// rate `cfg.iterations` times. The bracket stops growing at its ceiling
/// of 131 072 QPS, which is never probed: a pass at 65 536 QPS bisects up
/// to the ceiling as if a probe there had failed.
///
/// When the target is unreachable even at a vanishing rate (a policy can
/// structurally miss QoS — e.g. a static minimum allocation on a heavy
/// model loses more to one co-runner than its planning slack), the floor
/// rate is returned with its measured satisfaction, so callers can
/// distinguish "capacity = floor" from a sustained target via
/// [`QpsResult::satisfaction`]. The floor probe therefore always runs in
/// full.
///
/// Every later probe stops at its first certain failure: it counts the
/// queries that complete past their model's QoS target and stops once
/// those misses rule the target out. A run of `n` queries with `m`
/// misses ends with at most `n - m` satisfied, and the report's
/// satisfaction `s / n` never falls as the satisfied count `s` grows, so
/// a probe stops exactly when its full run would fail. The search reads
/// nothing else from a failing probe, so the result is the one running
/// every probe to its last query gives, bit for bit.
///
/// # Panics
///
/// Panics if the workload references unregistered models or cannot be
/// served, as [`ServingEngine::run`] does.
#[must_use]
pub fn max_qps_at_qos(
    engine: &ServingEngine,
    workload: &WorkloadSpec,
    cfg: &QpsSearchConfig,
) -> QpsResult {
    let passing = |qps: f64| passing_probe(engine, workload, cfg, qps);

    // Bracket: grow until unsatisfied.
    let mut lo = 0.5;
    let mut lo_report = engine.run(&probe_workload(workload, cfg, lo), cfg.seed);
    if !meets(&lo_report, cfg.satisfaction_target) {
        return QpsResult::at(lo, lo_report);
    }
    let mut hi = 4.0;
    // The climb stops below its ceiling (131 072 QPS) without probing it.
    while hi < 100_000.0 {
        let Some(report) = passing(hi) else { break };
        lo = hi;
        lo_report = report;
        hi *= 2.0;
    }

    for _ in 0..cfg.iterations {
        let mid = 0.5 * (lo + hi);
        if let Some(report) = passing(mid) {
            lo = mid;
            lo_report = report;
        } else {
            hi = mid;
        }
    }
    QpsResult::at(lo, lo_report)
}

impl QpsResult {
    /// The result of a search that settles on `qps` with its report.
    fn at(qps: f64, report: ServingReport) -> Self {
        Self {
            qps,
            satisfaction: report.overall_satisfaction(),
            avg_latency_s: report.overall_avg_latency_s(),
            report,
        }
    }
}

/// The workload of the search's probe at `qps`.
fn probe_workload(workload: &WorkloadSpec, cfg: &QpsSearchConfig, qps: f64) -> WorkloadSpec {
    let mut w = workload.scaled_to(qps);
    w.total_queries = cfg.queries;
    w
}

/// The report of the probe at `qps` when it meets the target, or `None`
/// once its QoS misses show that it cannot.
fn passing_probe(
    engine: &ServingEngine,
    workload: &WorkloadSpec,
    cfg: &QpsSearchConfig,
    qps: f64,
) -> Option<ServingReport> {
    let queries = probe_workload(workload, cfg, qps).generate(cfg.seed);
    let mut driver = Driver::new(engine.models(), &queries, engine.config().clone())
        .unwrap_or_else(|e| panic!("{}", ClusterError::from(e)));
    run_undecided(&mut driver, queries.len(), cfg.satisfaction_target).then(|| {
        let report = driver.finish().0;
        debug_assert!(meets(&report, cfg.satisfaction_target));
        report
    })
}

/// Steps `driver`, a closed run of `n` queries, until it goes idle or its
/// QoS misses decide that its report fails `target`. Returns whether it
/// ran to the end, which is exactly when its report meets `target`.
fn run_undecided(driver: &mut Driver<'_>, n: usize, target: f64) -> bool {
    let (mut seen, mut misses) = (0, 0);
    while can_still_meet(n, misses, target) {
        if driver.step().is_none() {
            return true;
        }
        let state = driver.state();
        let done = driver.completions();
        for query in done[seen..].iter().map(|&q| &state.queries[q]) {
            let finish = query.finish.expect("a completed query has finished");
            // The complement of the report's `latency <= qos_s`: neither
            // side is ever NaN.
            if finish.since(query.arrival) > state.models[query.model].qos_s {
                misses += 1;
            }
        }
        seen = done.len();
    }
    false
}

/// The search's test of a report against the satisfaction target.
fn meets(report: &ServingReport, target: f64) -> bool {
    report.overall_satisfaction() >= target
}

/// Whether a run of `n` queries with `misses` QoS misses can still meet
/// `target` by the report's comparison. Its satisfied count ends at most
/// `n - misses`, and `s / n >= target` never turns false as `s` grows,
/// so that largest count is the one to test.
fn can_still_meet(n: usize, misses: usize, target: f64) -> bool {
    (n - misses) as f64 / n as f64 >= target
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use veltair_compiler::{compile_model, CompiledModel, CompilerOptions};
    use veltair_sched::{ModelStats, Policy};
    use veltair_sim::MachineConfig;

    /// The search with every probe run to its last query: the body
    /// `max_qps_at_qos` had before its probes stopped at their first
    /// certain failure.
    fn max_qps_at_qos_reference(
        engine: &ServingEngine,
        workload: &WorkloadSpec,
        cfg: &QpsSearchConfig,
    ) -> QpsResult {
        let probe = |qps: f64| -> ServingReport {
            let mut w = workload.scaled_to(qps);
            w.total_queries = cfg.queries;
            engine.run(&w, cfg.seed)
        };
        let ok = |r: &ServingReport| r.overall_satisfaction() >= cfg.satisfaction_target;

        // Bracket: grow until unsatisfied.
        let mut lo = 0.5;
        let mut lo_report = probe(lo);
        if !ok(&lo_report) {
            return QpsResult {
                qps: lo,
                satisfaction: lo_report.overall_satisfaction(),
                avg_latency_s: lo_report.overall_avg_latency_s(),
                report: lo_report,
            };
        }
        let mut hi = 4.0;
        let mut hi_report = probe(hi);
        while ok(&hi_report) && hi < 100_000.0 {
            lo = hi;
            lo_report = hi_report;
            hi *= 2.0;
            hi_report = probe(hi);
        }

        for _ in 0..cfg.iterations {
            let mid = 0.5 * (lo + hi);
            let r = probe(mid);
            if ok(&r) {
                lo = mid;
                lo_report = r;
            } else {
                hi = mid;
            }
        }

        QpsResult {
            qps: lo,
            satisfaction: lo_report.overall_satisfaction(),
            avg_latency_s: lo_report.overall_avg_latency_s(),
            report: lo_report,
        }
    }

    /// The Fig. 12 policies: VELTAIR's three and the two baselines.
    const POLICIES: [Policy; 5] = [
        Policy::VeltairFull,
        Policy::VeltairAs,
        Policy::VeltairAc,
        Policy::Planaria,
        Policy::Prema,
    ];

    /// `mobilenet_v2` and `tiny_yolo_v2` compiled once for every test.
    fn zoo() -> &'static [CompiledModel] {
        static ZOO: OnceLock<Vec<CompiledModel>> = OnceLock::new();
        ZOO.get_or_init(|| {
            let machine = MachineConfig::threadripper_3990x();
            [
                veltair_models::mobilenet_v2(),
                veltair_models::tiny_yolo_v2(),
            ]
            .iter()
            .map(|spec| compile_model(spec, &machine, &CompilerOptions::fast()))
            .collect()
        })
    }

    fn engine(policy: Policy) -> ServingEngine {
        let mut e = ServingEngine::new(MachineConfig::threadripper_3990x(), policy);
        for model in zoo() {
            e.register(model.clone());
        }
        e
    }

    /// A single-model workload and a two-model mix.
    fn workloads() -> [WorkloadSpec; 2] {
        [
            WorkloadSpec::single("tiny_yolo_v2", 10.0, 1),
            WorkloadSpec::mix(&[("tiny_yolo_v2", 2.0), ("mobilenet_v2", 1.0)], 1),
        ]
    }

    fn search_cfg() -> QpsSearchConfig {
        QpsSearchConfig {
            satisfaction_target: 0.95,
            queries: 120,
            seed: 3,
            iterations: 5,
        }
    }

    #[test]
    fn max_qps_is_bracketed_and_satisfied() {
        let e = engine(Policy::VeltairFull);
        let w = WorkloadSpec::single("mobilenet_v2", 10.0, 1);
        let r = max_qps_at_qos(&e, &w, &search_cfg());
        assert!(r.qps > 1.0, "qps {}", r.qps);
        assert!(r.satisfaction >= 0.95);
        // Above the found rate the target must eventually fail; probe 4x.
        let mut w4 = w.scaled_to(r.qps * 4.0);
        w4.total_queries = 120;
        let over = e.run(&w4, 3);
        assert!(
            over.overall_satisfaction() < 0.95,
            "4x rate still satisfied"
        );
    }

    #[test]
    fn full_beats_prema_on_throughput() {
        // The headline ordering of Fig. 12 at single-model granularity.
        let full = max_qps_at_qos(
            &engine(Policy::VeltairFull),
            &WorkloadSpec::single("mobilenet_v2", 10.0, 1),
            &search_cfg(),
        );
        let prema = max_qps_at_qos(
            &engine(Policy::Prema),
            &WorkloadSpec::single("mobilenet_v2", 10.0, 1),
            &search_cfg(),
        );
        assert!(
            full.qps > prema.qps,
            "FULL {} vs PREMA {}",
            full.qps,
            prema.qps
        );
    }

    #[test]
    fn search_matches_the_run_every_probe_reference() {
        // Target 1.5 fails at the floor, so its report is returned in
        // full. Target 0.0 passes every probe: the bracket climbs to its
        // ceiling, which is bisected as if it failed (the reference runs
        // that probe, the search does not). That is the costliest search,
        // so it runs on one seed.
        let cases: [(f64, &[u64]); 4] = [
            (0.90, &[1, 2, 3]),
            (0.95, &[1, 2, 3]),
            (1.5, &[1, 2, 3]),
            (0.0, &[1]),
        ];
        let mut searches = 0;
        for policy in POLICIES {
            let e = engine(policy);
            for w in &workloads() {
                for (target, seeds) in cases {
                    for &seed in seeds {
                        let cfg = QpsSearchConfig {
                            satisfaction_target: target,
                            queries: 16,
                            seed,
                            iterations: 3,
                        };
                        let want = max_qps_at_qos_reference(&e, w, &cfg);
                        let got = max_qps_at_qos(&e, w, &cfg);
                        assert_eq!(got, want, "{policy:?}, {w:?}, {cfg:?}");
                        if target == 1.5 {
                            assert_eq!(got.qps, 0.5);
                            assert_eq!(got.report.total_queries(), cfg.queries);
                        }
                        if target == 0.0 {
                            assert_eq!(got.qps, 131_072.0 - 65_536.0 / 8.0, "{policy:?}");
                        }
                        searches += 1;
                    }
                }
            }
        }
        assert_eq!(searches, 5 * 2 * 10);
    }

    #[test]
    fn a_probe_stops_exactly_when_its_full_run_fails() {
        let target = 0.9;
        let (mut failed, mut stopped_early) = (0, 0);
        for policy in [Policy::VeltairFull, Policy::Planaria, Policy::Prema] {
            let e = engine(policy);
            for w in &workloads() {
                let cfg = QpsSearchConfig {
                    satisfaction_target: target,
                    queries: 24,
                    seed: 5,
                    iterations: 3,
                };
                let capacity = max_qps_at_qos(&e, w, &cfg).qps;
                for factor in [0.5, 1.0, 1.5, 2.0, 4.0, 16.0] {
                    let probe = probe_workload(w, &cfg, capacity * factor);
                    let queries = probe.generate(cfg.seed);
                    let full = e.run(&probe, cfg.seed);
                    let mut driver =
                        Driver::new(e.models(), &queries, e.config().clone()).expect("valid");
                    let ran_out = run_undecided(&mut driver, queries.len(), target);
                    assert_eq!(ran_out, meets(&full, target), "{policy:?} at {factor}x");
                    if ran_out {
                        assert_eq!(driver.finish().0, full, "{policy:?} at {factor}x");
                    } else {
                        failed += 1;
                        if !driver.is_idle() {
                            stopped_early += 1;
                        }
                    }
                }
            }
        }
        assert!(failed > 0, "no probe above capacity failed");
        assert!(stopped_early > 0, "every failing probe ran until idle");
    }

    #[test]
    fn the_stop_rule_is_exact() {
        // For every query count and target, the rule stops at `m` misses
        // exactly when no satisfied count up to `n - m` passes the
        // report's own comparison.
        let targets = [-0.5, 0.0, 0.5, 0.9, 0.95, 0.999, 1.0, 1.5, f64::NAN];
        for n in 1..=500usize {
            // `reachable[t][k]`: some satisfied count up to `k` meets
            // target `t`.
            let mut reachable = vec![Vec::with_capacity(n + 1); targets.len()];
            for s in 0..=n {
                let mut report = ServingReport::default();
                report.per_model.insert(
                    "m".into(),
                    ModelStats {
                        queries: n,
                        satisfied: s,
                        ..ModelStats::default()
                    },
                );
                for (upto, &target) in reachable.iter_mut().zip(&targets) {
                    let earlier = upto.last().copied().unwrap_or(false);
                    upto.push(earlier || meets(&report, target));
                }
            }
            for (upto, &target) in reachable.iter().zip(&targets) {
                for misses in 0..=n {
                    assert_eq!(
                        can_still_meet(n, misses, target),
                        upto[n - misses],
                        "{misses} misses of {n}, target {target}"
                    );
                }
            }
        }
    }
}
