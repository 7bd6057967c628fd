//! The paper's evaluation metrics (§5.1), chiefly "QPS with 95 % of tasks
//! QoS-satisfied" via bisection over the arrival rate.

use veltair_sched::{ServingReport, WorkloadSpec};

use crate::engine::ServingEngine;

/// Max-QPS search configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QpsSearchConfig {
    /// Required QoS satisfaction (paper: 0.95).
    pub satisfaction_target: f64,
    /// Queries simulated per probe run.
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
/// When the target is unreachable even at a vanishing rate (a policy can
/// structurally miss QoS — e.g. a static minimum allocation on a heavy
/// model loses more to one co-runner than its planning slack), the floor
/// rate is returned with its measured satisfaction, so callers can
/// distinguish "capacity = floor" from a sustained target via
/// [`QpsResult::satisfaction`].
#[must_use]
pub fn max_qps_at_qos(
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

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompilerOptions};
    use veltair_sched::Policy;
    use veltair_sim::MachineConfig;

    fn engine(policy: Policy) -> ServingEngine {
        let machine = MachineConfig::threadripper_3990x();
        let mut e = ServingEngine::new(machine.clone(), policy);
        e.register(compile_model(
            &veltair_models::mobilenet_v2(),
            &machine,
            &CompilerOptions::fast(),
        ));
        e
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
}
