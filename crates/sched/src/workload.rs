//! Query stream generation (MLPerf server scenario).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_sim::SimTime;

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Target model name.
    pub model: String,
    /// Arrival time.
    pub arrival: SimTime,
}

/// Arrival process shape.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival times (MLPerf server default; Alg. 3's
    /// dispatcher "sends tasks following Poisson distribution").
    Poisson,
    /// Deterministic, evenly spaced arrivals — used by the paper's
    /// granularity study (§3.2 runs 30 000 ResNet-50 queries with
    /// "identical uniform arriving times").
    Uniform,
    /// On/off bursty arrivals (a two-state MMPP): the stream alternates
    /// between exponentially distributed ON periods, during which queries
    /// arrive as a Poisson process, and OFF periods with no arrivals at
    /// all. The ON-period rate is inflated by the inverse duty cycle so
    /// the stream's *long-run average* rate still equals its nominal
    /// queries-per-second — a `Bursty` workload is directly comparable to
    /// the `Poisson` one at the same rate, it just concentrates the same
    /// traffic into surges.
    Bursty {
        /// Mean ON-period duration, seconds.
        on_s: f64,
        /// Mean OFF-period duration, seconds.
        off_s: f64,
    },
    /// Trace-driven arrivals: a piecewise-constant rate schedule. Each
    /// segment `(dt_s, rate_mul)` runs the stream as a Poisson process at
    /// `rate_mul ×` its nominal rate for `dt_s` seconds; the schedule
    /// cycles once exhausted. A zero multiplier is exact silence. Segment
    /// boundaries are handled like the [`ArrivalProcess::Bursty`] phase
    /// boundaries — memorylessness of the exponential makes the re-draw
    /// at each boundary exact — so a trace is a *deterministic-envelope*
    /// MMPP: the rate schedule is data, only the arrival jitter inside
    /// each segment is random. This is the scenario library's substrate
    /// (diurnal cycles, flash crowds, rolling windows).
    ///
    /// Unlike `Bursty`, the nominal stream rate is *not* re-normalized:
    /// the long-run average rate is the nominal rate times the
    /// duration-weighted mean multiplier, because a trace describes the
    /// rate envelope itself, not a duty cycle over a fixed average.
    Trace {
        /// `(duration_s, rate_multiplier)` segments, cycled in order.
        segments: Vec<(f64, f64)>,
    },
}

/// Why a workload specification was rejected at construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The workload names no tenant streams.
    NoStreams,
    /// The total query budget is zero.
    NoQueries,
    /// A stream's rate (or a model's QoS target in the inverse-QoS mix)
    /// is zero, negative, or not finite.
    InvalidRate {
        /// The offending model name.
        model: String,
        /// The rejected value.
        rate: f64,
    },
    /// A bursty process phase duration (mean ON or OFF period) is zero,
    /// negative, or not finite.
    InvalidBurstPhase {
        /// Which phase was rejected (`"on"` or `"off"`).
        phase: &'static str,
        /// The rejected mean duration, seconds.
        seconds: f64,
    },
    /// A trace schedule is empty or every segment's multiplier is zero —
    /// either way it can never produce an arrival.
    EmptyTrace,
    /// A trace segment has a non-positive or non-finite duration, or a
    /// negative or non-finite rate multiplier (zero is valid: silence).
    InvalidTraceSegment {
        /// Index of the offending segment.
        index: usize,
        /// The segment's duration, seconds.
        dt_s: f64,
        /// The segment's rate multiplier.
        rate_mul: f64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NoStreams => write!(f, "a workload needs at least one stream"),
            WorkloadError::NoQueries => write!(f, "a workload needs at least one query"),
            WorkloadError::InvalidRate { model, rate } => {
                write!(
                    f,
                    "stream rates must be positive and finite: {model} has rate {rate}"
                )
            }
            WorkloadError::InvalidBurstPhase { phase, seconds } => {
                write!(
                    f,
                    "bursty {phase}-period durations must be positive and finite, got {seconds} s"
                )
            }
            WorkloadError::EmptyTrace => {
                write!(
                    f,
                    "a trace schedule needs at least one segment with a positive rate multiplier"
                )
            }
            WorkloadError::InvalidTraceSegment {
                index,
                dt_s,
                rate_mul,
            } => {
                write!(
                    f,
                    "trace segment {index} is invalid: duration {dt_s} s must be positive and \
                     finite, multiplier {rate_mul} must be non-negative and finite"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A workload: per-model arrival rates plus the total query budget.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// `(model name, queries-per-second)` for every tenant stream.
    pub streams: Vec<(String, f64)>,
    /// Total number of queries to generate across all streams.
    pub total_queries: usize,
    /// Arrival process.
    pub process: ArrivalProcess,
}

impl WorkloadSpec {
    /// A single-tenant Poisson stream, validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `qps` is not positive and finite or
    /// `total_queries` is zero.
    pub fn try_single(model: &str, qps: f64, total_queries: usize) -> Result<Self, WorkloadError> {
        Self::try_mix(&[(model, qps)], total_queries)
    }

    /// A multi-tenant Poisson mix with explicit per-stream rates,
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `streams` is empty, any rate is
    /// non-positive or non-finite, or `total_queries` is zero.
    pub fn try_mix(streams: &[(&str, f64)], total_queries: usize) -> Result<Self, WorkloadError> {
        if streams.is_empty() {
            return Err(WorkloadError::NoStreams);
        }
        if total_queries == 0 {
            return Err(WorkloadError::NoQueries);
        }
        if let Some((m, q)) = streams.iter().find(|(_, q)| !(q.is_finite() && *q > 0.0)) {
            return Err(WorkloadError::InvalidRate {
                model: (*m).to_string(),
                rate: *q,
            });
        }
        Ok(Self {
            streams: streams
                .iter()
                .map(|(m, q)| ((*m).to_string(), *q))
                .collect(),
            total_queries,
            process: ArrivalProcess::Poisson,
        })
    }

    /// Same mix with deterministic uniform arrivals (granularity study),
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] under the same conditions as
    /// [`WorkloadSpec::try_single`].
    pub fn try_uniform(model: &str, qps: f64, total_queries: usize) -> Result<Self, WorkloadError> {
        Ok(Self {
            process: ArrivalProcess::Uniform,
            ..Self::try_single(model, qps, total_queries)?
        })
    }

    /// An on/off bursty (two-state MMPP) mix: every stream alternates its
    /// own ON/OFF phases (independent Poisson surges per tenant, mean
    /// `on_s` seconds of traffic separated by mean `off_s` seconds of
    /// silence), each averaging its nominal rate. A one-stream mix is the
    /// single-tenant bursty stream. Validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] under the same conditions as
    /// [`WorkloadSpec::try_mix`], plus
    /// [`WorkloadError::InvalidBurstPhase`] if either phase duration is
    /// non-positive or non-finite.
    pub fn try_bursty_mix(
        streams: &[(&str, f64)],
        total_queries: usize,
        on_s: f64,
        off_s: f64,
    ) -> Result<Self, WorkloadError> {
        if !(on_s.is_finite() && on_s > 0.0) {
            return Err(WorkloadError::InvalidBurstPhase {
                phase: "on",
                seconds: on_s,
            });
        }
        if !(off_s.is_finite() && off_s > 0.0) {
            return Err(WorkloadError::InvalidBurstPhase {
                phase: "off",
                seconds: off_s,
            });
        }
        Ok(Self {
            process: ArrivalProcess::Bursty { on_s, off_s },
            ..Self::try_mix(streams, total_queries)?
        })
    }

    /// A trace-driven single-tenant stream: Poisson arrivals shaped by a
    /// piecewise-constant rate schedule (see [`ArrivalProcess::Trace`]).
    /// Validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] under the same conditions as
    /// [`WorkloadSpec::try_single`], plus [`WorkloadError::EmptyTrace`]
    /// if the schedule is empty or all-silent and
    /// [`WorkloadError::InvalidTraceSegment`] if any segment has a
    /// non-positive/non-finite duration or a negative/non-finite
    /// multiplier.
    pub fn try_trace(
        model: &str,
        qps: f64,
        total_queries: usize,
        segments: &[(f64, f64)],
    ) -> Result<Self, WorkloadError> {
        Self::try_trace_mix(&[(model, qps)], total_queries, segments)
    }

    /// A trace-driven multi-tenant mix: every stream is shaped by the
    /// *same* rate schedule (a fleet-wide envelope — diurnal cycle, flash
    /// crowd — modulating all tenants together), each at its own nominal
    /// rate. Validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] under the same conditions as
    /// [`WorkloadSpec::try_trace`].
    pub fn try_trace_mix(
        streams: &[(&str, f64)],
        total_queries: usize,
        segments: &[(f64, f64)],
    ) -> Result<Self, WorkloadError> {
        if segments.is_empty() {
            return Err(WorkloadError::EmptyTrace);
        }
        for (index, &(dt_s, rate_mul)) in segments.iter().enumerate() {
            if !(dt_s.is_finite() && dt_s > 0.0 && rate_mul.is_finite() && rate_mul >= 0.0) {
                return Err(WorkloadError::InvalidTraceSegment {
                    index,
                    dt_s,
                    rate_mul,
                });
            }
        }
        if segments.iter().all(|&(_, m)| m == 0.0) {
            return Err(WorkloadError::EmptyTrace);
        }
        Ok(Self {
            process: ArrivalProcess::Trace {
                segments: segments.to_vec(),
            },
            ..Self::try_mix(streams, total_queries)?
        })
    }

    /// Splits a total rate across models with frequency inversely
    /// proportional to their QoS targets (the paper's mixed workload
    /// follows \[53\]: tighter-QoS tasks arrive more often), validated.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] if `models` is empty, any QoS target or
    /// the total rate is non-positive or non-finite, or `total_queries`
    /// is zero.
    pub fn try_inverse_qos_mix(
        models: &[(&str, f64)],
        total_qps: f64,
        total_queries: usize,
    ) -> Result<Self, WorkloadError> {
        if models.is_empty() {
            return Err(WorkloadError::NoStreams);
        }
        if total_queries == 0 {
            return Err(WorkloadError::NoQueries);
        }
        if !(total_qps.is_finite() && total_qps > 0.0) {
            return Err(WorkloadError::InvalidRate {
                model: "<total>".to_string(),
                rate: total_qps,
            });
        }
        if let Some((m, qos)) = models
            .iter()
            .find(|(_, qos)| !(qos.is_finite() && *qos > 0.0))
        {
            return Err(WorkloadError::InvalidRate {
                model: (*m).to_string(),
                rate: *qos,
            });
        }
        let inv_sum: f64 = models.iter().map(|(_, qos)| 1.0 / qos).sum();
        let streams: Vec<(String, f64)> = models
            .iter()
            .map(|(m, qos)| ((*m).to_string(), total_qps * (1.0 / qos) / inv_sum))
            .collect();
        Ok(Self {
            streams,
            total_queries,
            process: ArrivalProcess::Poisson,
        })
    }

    /// A single-tenant Poisson stream.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not positive or `total_queries` is zero; use
    /// [`WorkloadSpec::try_single`] to handle invalid input gracefully.
    #[must_use]
    pub fn single(model: &str, qps: f64, total_queries: usize) -> Self {
        Self::try_single(model, qps, total_queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A multi-tenant Poisson mix with explicit per-stream rates.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty, any rate is non-positive, or
    /// `total_queries` is zero; use [`WorkloadSpec::try_mix`] to handle
    /// invalid input gracefully.
    #[must_use]
    pub fn mix(streams: &[(&str, f64)], total_queries: usize) -> Self {
        Self::try_mix(streams, total_queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Same mix with deterministic uniform arrivals (granularity study).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`WorkloadSpec::single`]; use
    /// [`WorkloadSpec::try_uniform`] to handle invalid input gracefully.
    #[must_use]
    pub fn uniform(model: &str, qps: f64, total_queries: usize) -> Self {
        Self::try_uniform(model, qps, total_queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Splits a total rate across models with frequency inversely
    /// proportional to their QoS targets (the paper's mixed workload
    /// follows \[53\]: tighter-QoS tasks arrive more often).
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid; use
    /// [`WorkloadSpec::try_inverse_qos_mix`] to handle invalid input
    /// gracefully.
    #[must_use]
    pub fn inverse_qos_mix(models: &[(&str, f64)], total_qps: f64, total_queries: usize) -> Self {
        Self::try_inverse_qos_mix(models, total_qps, total_queries)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Aggregate arrival rate.
    #[must_use]
    pub fn total_qps(&self) -> f64 {
        self.streams.iter().map(|s| s.1).sum()
    }

    /// The same workload re-scaled to a different aggregate rate, keeping
    /// stream proportions (used by the max-QPS search).
    #[must_use]
    pub fn scaled_to(&self, total_qps: f64) -> Self {
        let cur = self.total_qps();
        let mut w = self.clone();
        for s in &mut w.streams {
            s.1 *= total_qps / cur;
        }
        w
    }

    /// Generates the deterministic query stream for a seed, sorted by
    /// arrival time.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<QuerySpec> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries: Vec<QuerySpec> = Vec::with_capacity(self.total_queries);
        // Per-stream share of the query budget, proportional to rate.
        let total_rate = self.total_qps();
        let mut remaining = self.total_queries;
        for (si, (model, rate)) in self.streams.iter().enumerate() {
            let count = if si + 1 == self.streams.len() {
                remaining
            } else {
                ((self.total_queries as f64) * rate / total_rate).round() as usize
            }
            .min(remaining);
            remaining -= count;
            let mut t = 0.0;
            // Bursty phase state: every stream starts in an ON period and
            // draws arrivals at the duty-cycle-inflated rate, so the
            // long-run average matches the nominal stream rate.
            let (mut phase_end, burst_rate) = match &self.process {
                ArrivalProcess::Bursty { on_s, off_s } => {
                    (exp_sample(&mut rng, *on_s), rate * (on_s + off_s) / on_s)
                }
                _ => (f64::INFINITY, *rate),
            };
            // Trace cursor: index of the active segment and the instant it
            // ends. The schedule restarts from segment 0 for every stream.
            let (mut seg_idx, mut seg_end) = match &self.process {
                ArrivalProcess::Trace { segments } => (0usize, segments[0].0),
                _ => (0usize, f64::INFINITY),
            };
            for _ in 0..count {
                match &self.process {
                    ArrivalProcess::Poisson => {
                        t += exp_sample(&mut rng, 1.0 / rate);
                    }
                    ArrivalProcess::Uniform => t += 1.0 / rate,
                    ArrivalProcess::Bursty { on_s, off_s } => loop {
                        let dt = exp_sample(&mut rng, 1.0 / burst_rate);
                        if t + dt <= phase_end {
                            t += dt;
                            break;
                        }
                        // The candidate falls past the ON period: silence
                        // for an OFF gap, then restart the clock at the
                        // head of the next ON period. (Memorylessness of
                        // the exponential makes the re-draw exact.)
                        t = phase_end + exp_sample(&mut rng, *off_s);
                        phase_end = t + exp_sample(&mut rng, *on_s);
                    },
                    ArrivalProcess::Trace { segments } => loop {
                        let mul = segments[seg_idx].1;
                        if mul > 0.0 {
                            let dt = exp_sample(&mut rng, 1.0 / (rate * mul));
                            if t + dt <= seg_end {
                                t += dt;
                                break;
                            }
                        }
                        // Silent segment, or the candidate fell past the
                        // segment end: clamp the clock to the boundary and
                        // redraw at the next segment's rate (exact, by
                        // memorylessness). Construction guarantees at
                        // least one positive multiplier, so the cycle
                        // always reaches a segment that can arrive.
                        t = seg_end;
                        seg_idx = (seg_idx + 1) % segments.len();
                        seg_end += segments[seg_idx].0;
                    },
                }
                queries.push(QuerySpec {
                    model: model.clone(),
                    arrival: SimTime(t),
                });
            }
        }
        // `total_cmp`, not `SimTime`'s order, which panics on NaN: a NaN
        // rate yields NaN arrivals, which the simulation's entry points
        // reject as typed errors. No arrival here is -0.0, so finite
        // arrivals keep their order.
        queries.sort_by(|a, b| a.arrival.0.total_cmp(&b.arrival.0));
        queries
    }
}

/// One exponential sample with the given mean (inverse-CDF transform;
/// the `1e-12` floor keeps `ln` finite).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_close() {
        let w = WorkloadSpec::single("resnet50", 100.0, 5000);
        let q = w.generate(3);
        assert_eq!(q.len(), 5000);
        let span = q.last().unwrap().arrival.0;
        let rate = 5000.0 / span;
        assert!((rate - 100.0).abs() / 100.0 < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let w = WorkloadSpec::uniform("resnet50", 50.0, 100);
        let q = w.generate(1);
        for pair in q.windows(2) {
            let dt = pair[1].arrival.since(pair[0].arrival);
            assert!((dt - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = WorkloadSpec::single("bert_large", 5.0, 200);
        assert_eq!(w.generate(9), w.generate(9));
        assert_ne!(w.generate(9), w.generate(10));
    }

    #[test]
    fn arrivals_are_sorted() {
        let w = WorkloadSpec::mix(&[("a", 30.0), ("b", 10.0)], 1000);
        let q = w.generate(5);
        assert!(q.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn mix_splits_budget_by_rate() {
        let w = WorkloadSpec::mix(&[("a", 30.0), ("b", 10.0)], 1000);
        let q = w.generate(2);
        let a = q.iter().filter(|x| x.model == "a").count();
        assert!((a as f64 - 750.0).abs() < 1.0, "a got {a}");
    }

    #[test]
    fn inverse_qos_mix_favors_tight_deadlines() {
        let w = WorkloadSpec::inverse_qos_mix(&[("light", 10.0), ("heavy", 100.0)], 110.0, 100);
        let light_rate = w.streams.iter().find(|s| s.0 == "light").unwrap().1;
        let heavy_rate = w.streams.iter().find(|s| s.0 == "heavy").unwrap().1;
        assert!((light_rate / heavy_rate - 10.0).abs() < 1e-9);
        assert!((w.total_qps() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_proportions() {
        let w = WorkloadSpec::mix(&[("a", 30.0), ("b", 10.0)], 100);
        let s = w.scaled_to(80.0);
        assert!((s.total_qps() - 80.0).abs() < 1e-9);
        assert!((s.streams[0].1 / s.streams[1].1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn try_mix_rejects_empty_streams() {
        assert_eq!(
            WorkloadSpec::try_mix(&[], 10),
            Err(WorkloadError::NoStreams)
        );
        assert_eq!(
            WorkloadSpec::try_inverse_qos_mix(&[], 10.0, 10),
            Err(WorkloadError::NoStreams)
        );
    }

    #[test]
    fn try_mix_rejects_zero_query_budget() {
        assert_eq!(
            WorkloadSpec::try_single("m", 5.0, 0),
            Err(WorkloadError::NoQueries)
        );
        assert_eq!(
            WorkloadSpec::try_inverse_qos_mix(&[("m", 10.0)], 5.0, 0),
            Err(WorkloadError::NoQueries)
        );
    }

    #[test]
    fn try_mix_rejects_bad_rates() {
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            let err = WorkloadSpec::try_mix(&[("good", 1.0), ("bad", bad)], 10).unwrap_err();
            match err {
                WorkloadError::InvalidRate { model, .. } => assert_eq!(model, "bad"),
                other => panic!("wrong error for rate {bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn try_uniform_accepts_valid_specs() {
        let w = WorkloadSpec::try_uniform("m", 25.0, 4).expect("valid");
        assert_eq!(w.process, ArrivalProcess::Uniform);
        assert_eq!(w, WorkloadSpec::uniform("m", 25.0, 4));
    }

    #[test]
    fn try_inverse_qos_mix_rejects_bad_total_and_qos() {
        assert!(matches!(
            WorkloadSpec::try_inverse_qos_mix(&[("m", 10.0)], 0.0, 5),
            Err(WorkloadError::InvalidRate { .. })
        ));
        assert!(matches!(
            WorkloadSpec::try_inverse_qos_mix(&[("m", -1.0)], 10.0, 5),
            Err(WorkloadError::InvalidRate { .. })
        ));
        let ok =
            WorkloadSpec::try_inverse_qos_mix(&[("a", 10.0), ("b", 20.0)], 30.0, 5).expect("valid");
        assert_eq!(
            ok,
            WorkloadSpec::inverse_qos_mix(&[("a", 10.0), ("b", 20.0)], 30.0, 5)
        );
    }

    #[test]
    fn panicking_constructors_are_thin_wrappers() {
        assert_eq!(
            WorkloadSpec::single("m", 5.0, 3),
            WorkloadSpec::try_single("m", 5.0, 3).unwrap()
        );
        assert_eq!(
            WorkloadSpec::mix(&[("a", 1.0)], 3),
            WorkloadSpec::try_mix(&[("a", 1.0)], 3).unwrap()
        );
    }

    #[test]
    fn bursty_long_run_rate_matches_nominal() {
        // The ON-rate inflation must make the long-run average of the
        // bursty stream equal its nominal rate (loose tolerance: an
        // on/off process has much higher variance than Poisson).
        let w = WorkloadSpec::try_bursty_mix(&[("m", 100.0)], 20_000, 0.5, 0.5).expect("valid");
        let q = w.generate(7);
        let span = q.last().unwrap().arrival.0;
        let rate = 20_000.0 / span;
        assert!((rate - 100.0).abs() / 100.0 < 0.2, "empirical rate {rate}");
    }

    #[test]
    fn bursty_interarrivals_are_overdispersed() {
        // The squared coefficient of variation of inter-arrival times is 1
        // for Poisson; on/off bursts push it well above.
        let scv = |q: &[QuerySpec]| {
            let dts: Vec<f64> = q
                .windows(2)
                .map(|p| p[1].arrival.since(p[0].arrival))
                .collect();
            let mean = dts.iter().sum::<f64>() / dts.len() as f64;
            let var = dts.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / dts.len() as f64;
            var / (mean * mean)
        };
        let poisson = WorkloadSpec::single("m", 200.0, 5000).generate(13);
        let bursty = WorkloadSpec::try_bursty_mix(&[("m", 200.0)], 5000, 0.2, 0.8)
            .expect("valid")
            .generate(13);
        assert!(
            scv(&bursty) > 2.0 * scv(&poisson),
            "bursty SCV {} not far above Poisson SCV {}",
            scv(&bursty),
            scv(&poisson)
        );
    }

    #[test]
    fn bursty_generation_is_deterministic_and_sorted() {
        let w = WorkloadSpec::try_bursty_mix(&[("a", 50.0), ("b", 20.0)], 800, 0.3, 0.7)
            .expect("valid");
        let q = w.generate(4);
        assert_eq!(q, w.generate(4));
        assert_eq!(q.len(), 800);
        assert!(q.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn try_bursty_rejects_bad_phases() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    WorkloadSpec::try_bursty_mix(&[("m", 10.0)], 5, bad, 1.0),
                    Err(WorkloadError::InvalidBurstPhase { phase: "on", .. })
                ),
                "on-phase {bad} was not rejected"
            );
        }
        assert!(matches!(
            WorkloadSpec::try_bursty_mix(&[("m", 10.0)], 5, 1.0, -2.0),
            Err(WorkloadError::InvalidBurstPhase { phase: "off", .. })
        ));
        // Stream validation still applies underneath.
        assert!(matches!(
            WorkloadSpec::try_bursty_mix(&[("m", 0.0)], 5, 1.0, 1.0),
            Err(WorkloadError::InvalidRate { .. })
        ));
        assert!(matches!(
            WorkloadSpec::try_bursty_mix(&[], 5, 1.0, 1.0),
            Err(WorkloadError::NoStreams)
        ));
    }

    #[test]
    fn trace_generation_is_deterministic_and_sorted() {
        let w = WorkloadSpec::try_trace_mix(
            &[("a", 40.0), ("b", 10.0)],
            600,
            &[(2.0, 1.0), (1.0, 3.0)],
        )
        .expect("valid");
        let q = w.generate(11);
        assert_eq!(q, w.generate(11));
        assert_eq!(q.len(), 600);
        assert!(q.windows(2).all(|p| p[0].arrival <= p[1].arrival));
    }

    #[test]
    fn trace_silent_segments_produce_gaps() {
        // 1 s of traffic, 1 s of silence, cycling: no arrival may land in
        // the second half of any 2 s cycle (boundary inclusive — an
        // arrival exactly at the segment end is clamped there).
        let w =
            WorkloadSpec::try_trace("m", 200.0, 2000, &[(1.0, 1.0), (1.0, 0.0)]).expect("valid");
        for q in w.generate(5) {
            let pos = q.arrival.0 % 2.0;
            assert!(
                pos <= 1.0,
                "arrival at {} falls in a silent window",
                q.arrival.0
            );
        }
    }

    #[test]
    fn trace_shapes_the_rate_envelope() {
        // 4× rate in even seconds, 0.25× in odd seconds: the even windows
        // must collect far more arrivals than the odd ones.
        let w =
            WorkloadSpec::try_trace("m", 100.0, 5000, &[(1.0, 4.0), (1.0, 0.25)]).expect("valid");
        let q = w.generate(3);
        let high = q.iter().filter(|x| x.arrival.0 % 2.0 < 1.0).count();
        let low = q.len() - high;
        assert!(
            high as f64 > 8.0 * low as f64,
            "high-phase {high} vs low-phase {low}"
        );
    }

    #[test]
    fn trace_does_not_renormalize_the_nominal_rate() {
        // A constant 2× multiplier doubles the long-run rate — a trace is
        // the envelope itself, not a duty cycle over a fixed average.
        let w = WorkloadSpec::try_trace("m", 100.0, 10_000, &[(1.0, 2.0)]).expect("valid");
        let q = w.generate(9);
        let rate = q.len() as f64 / q.last().unwrap().arrival.0;
        assert!((rate - 200.0).abs() / 200.0 < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn try_trace_rejects_bad_schedules() {
        assert_eq!(
            WorkloadSpec::try_trace("m", 10.0, 5, &[]),
            Err(WorkloadError::EmptyTrace)
        );
        assert_eq!(
            WorkloadSpec::try_trace("m", 10.0, 5, &[(1.0, 0.0), (2.0, 0.0)]),
            Err(WorkloadError::EmptyTrace)
        );
        for bad in [
            (0.0, 1.0),
            (-1.0, 1.0),
            (f64::NAN, 1.0),
            (1.0, -0.5),
            (1.0, f64::NAN),
        ] {
            assert!(
                matches!(
                    WorkloadSpec::try_trace("m", 10.0, 5, &[(1.0, 1.0), bad]),
                    Err(WorkloadError::InvalidTraceSegment { index: 1, .. })
                ),
                "segment {bad:?} was not rejected"
            );
        }
        // Stream validation still applies underneath.
        assert!(matches!(
            WorkloadSpec::try_trace("m", 0.0, 5, &[(1.0, 1.0)]),
            Err(WorkloadError::InvalidRate { .. })
        ));
        assert!(matches!(
            WorkloadSpec::try_trace_mix(&[], 5, &[(1.0, 1.0)]),
            Err(WorkloadError::NoStreams)
        ));
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_mix_panics() {
        let _ = WorkloadSpec::mix(&[], 10);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_rate_panics() {
        let _ = WorkloadSpec::single("m", 0.0, 10);
    }
}
