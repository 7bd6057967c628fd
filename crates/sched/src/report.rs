//! Serving statistics.

use std::collections::BTreeMap;

/// Per-model serving statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelStats {
    /// Completed queries.
    pub queries: usize,
    /// Queries that met their QoS target.
    pub satisfied: usize,
    /// Sum of query latencies (seconds) over completed queries.
    pub latency_sum_s: f64,
    /// Maximum observed query latency.
    pub latency_max_s: f64,
    /// Every completed query's latency, in completion order. Production
    /// serving is judged on tails, so the raw samples are kept for the
    /// percentile accessors rather than a lossy sketch.
    pub latencies_s: Vec<f64>,
}

impl ModelStats {
    /// Fraction of queries that met QoS.
    #[must_use]
    pub fn satisfaction(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.satisfied as f64 / self.queries as f64
        }
    }

    /// Mean query latency in seconds.
    #[must_use]
    pub fn avg_latency_s(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.latency_sum_s / self.queries as f64
        }
    }

    /// Latency at percentile `p` (nearest-rank over the completed
    /// queries), in seconds. Zero when no queries completed.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < p <= 100.0`.
    #[must_use]
    pub fn percentile_latency_s(&self, p: f64) -> f64 {
        assert!(
            p > 0.0 && p <= 100.0,
            "percentile must be in (0, 100], got {p}"
        );
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(f64::total_cmp);
        // Nearest-rank: the smallest sample with at least p% of the
        // distribution at or below it.
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// 95th-percentile query latency, seconds.
    #[must_use]
    pub fn p95_latency_s(&self) -> f64 {
        self.percentile_latency_s(95.0)
    }

    /// 99th-percentile query latency, seconds.
    #[must_use]
    pub fn p99_latency_s(&self) -> f64 {
        self.percentile_latency_s(99.0)
    }
}

/// Full report of one serving simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServingReport {
    /// Stats per model name.
    pub per_model: BTreeMap<String, ModelStats>,
    /// Scheduling conflicts: dispatches that could not obtain their
    /// requested cores immediately.
    pub conflicts: u64,
    /// Total scheduling-unit dispatches.
    pub dispatches: u64,
    /// Times a temporal policy preempted a running query at a unit
    /// boundary in favour of a higher-priority tenant (PREMA only;
    /// always zero for spatial policies).
    pub preemptions: u64,
    /// Integral of busy cores over time (core-seconds).
    pub core_seconds: f64,
    /// Time of the last query completion.
    pub makespan_s: f64,
    /// Peak concurrent core usage observed.
    pub peak_cores: u32,
    /// Time-averaged core usage over the busy interval.
    pub avg_cores: f64,
}

impl ServingReport {
    /// Total completed queries.
    #[must_use]
    pub fn total_queries(&self) -> usize {
        self.per_model.values().map(|m| m.queries).sum()
    }

    /// QoS satisfaction across all models.
    #[must_use]
    pub fn overall_satisfaction(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 1.0;
        }
        let sat: usize = self.per_model.values().map(|m| m.satisfied).sum();
        sat as f64 / total as f64
    }

    /// QoS satisfaction for one model (1.0 when the model saw no queries).
    #[must_use]
    pub fn qos_satisfaction(&self, model: &str) -> f64 {
        self.per_model
            .get(model)
            .map_or(1.0, ModelStats::satisfaction)
    }

    /// Mean latency for one model, seconds.
    #[must_use]
    pub fn avg_latency_s(&self, model: &str) -> f64 {
        self.per_model
            .get(model)
            .map_or(0.0, ModelStats::avg_latency_s)
    }

    /// 95th-percentile latency for one model, seconds (0 when unseen).
    #[must_use]
    pub fn p95_latency_s(&self, model: &str) -> f64 {
        self.per_model
            .get(model)
            .map_or(0.0, ModelStats::p95_latency_s)
    }

    /// 99th-percentile latency for one model, seconds (0 when unseen).
    #[must_use]
    pub fn p99_latency_s(&self, model: &str) -> f64 {
        self.per_model
            .get(model)
            .map_or(0.0, ModelStats::p99_latency_s)
    }

    /// Latency at percentile `p` across *all* completed queries, seconds.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < p <= 100.0`.
    #[must_use]
    pub fn overall_percentile_latency_s(&self, p: f64) -> f64 {
        let merged = ModelStats {
            latencies_s: self
                .per_model
                .values()
                .flat_map(|m| m.latencies_s.iter().copied())
                .collect(),
            ..ModelStats::default()
        };
        merged.percentile_latency_s(p)
    }

    /// Mean latency across all completed queries, seconds.
    #[must_use]
    pub fn overall_avg_latency_s(&self) -> f64 {
        let total = self.total_queries();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self.per_model.values().map(|m| m.latency_sum_s).sum();
        sum / total as f64
    }

    /// Conflict rate over all dispatches.
    #[must_use]
    pub fn conflict_rate(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.dispatches as f64
        }
    }

    /// Conflicts per completed query: the total conflict burden one query
    /// accumulates across all its scheduling units. Fine granularities can
    /// conflict on every unit, so this is the metric on which the paper's
    /// "layer-wise suffers the most conflicts" claim (Fig. 5a) is robust
    /// regardless of how many dispatches a policy makes.
    #[must_use]
    pub fn conflicts_per_query(&self) -> f64 {
        let q = self.total_queries();
        if q == 0 {
            0.0
        } else {
            self.conflicts as f64 / q as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction_and_latency_aggregate() {
        let mut r = ServingReport::default();
        r.per_model.insert(
            "a".into(),
            ModelStats {
                queries: 10,
                satisfied: 9,
                latency_sum_s: 1.0,
                latency_max_s: 0.3,
                ..ModelStats::default()
            },
        );
        r.per_model.insert(
            "b".into(),
            ModelStats {
                queries: 10,
                satisfied: 5,
                latency_sum_s: 3.0,
                latency_max_s: 0.9,
                ..ModelStats::default()
            },
        );
        assert_eq!(r.total_queries(), 20);
        assert!((r.overall_satisfaction() - 0.7).abs() < 1e-12);
        assert!((r.qos_satisfaction("a") - 0.9).abs() < 1e-12);
        assert!((r.avg_latency_s("b") - 0.3).abs() < 1e-12);
        assert!((r.overall_avg_latency_s() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_benign() {
        let r = ServingReport::default();
        assert_eq!(r.total_queries(), 0);
        assert_eq!(r.overall_satisfaction(), 1.0);
        assert_eq!(r.conflict_rate(), 0.0);
        assert_eq!(r.qos_satisfaction("missing"), 1.0);
    }

    #[test]
    fn conflict_rate_is_ratio() {
        let r = ServingReport {
            conflicts: 25,
            dispatches: 100,
            ..Default::default()
        };
        assert!((r.conflict_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = ModelStats {
            queries: 100,
            latencies_s: (1..=100).rev().map(|i| i as f64 / 100.0).collect(),
            ..ModelStats::default()
        };
        assert!((stats.percentile_latency_s(50.0) - 0.50).abs() < 1e-12);
        assert!((stats.p95_latency_s() - 0.95).abs() < 1e-12);
        assert!((stats.p99_latency_s() - 0.99).abs() < 1e-12);
        assert!((stats.percentile_latency_s(100.0) - 1.0).abs() < 1e-12);
        // A tiny percentile still returns the smallest sample.
        assert!((stats.percentile_latency_s(0.1) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn percentiles_of_empty_stats_are_zero() {
        let stats = ModelStats::default();
        assert_eq!(stats.p95_latency_s(), 0.0);
        assert_eq!(stats.p99_latency_s(), 0.0);
        let r = ServingReport::default();
        assert_eq!(r.p99_latency_s("missing"), 0.0);
        assert_eq!(r.overall_percentile_latency_s(99.0), 0.0);
    }

    #[test]
    fn overall_percentile_merges_models() {
        let mut r = ServingReport::default();
        r.per_model.insert(
            "fast".into(),
            ModelStats {
                queries: 9,
                latencies_s: vec![0.1; 9],
                ..ModelStats::default()
            },
        );
        r.per_model.insert(
            "slow".into(),
            ModelStats {
                queries: 1,
                latencies_s: vec![5.0],
                ..ModelStats::default()
            },
        );
        assert!((r.overall_percentile_latency_s(90.0) - 0.1).abs() < 1e-12);
        assert!((r.overall_percentile_latency_s(99.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = ModelStats::default().percentile_latency_s(0.0);
    }
}
