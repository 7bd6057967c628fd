//! Algorithm 1: single-pass static multi-version selection.
//!
//! Given the auto-scheduler's sample population for one layer:
//!
//! 1. drop candidates whose solo performance cannot meet the layer's QoS
//!    share (the minimal-FLOPS filter of Alg. 1 line 5, Fig. 9c);
//! 2. extract the *dominant implementations*: the Pareto frontier in the
//!    (parallelism, locality) plane (Alg. 1 line 6, Fig. 9d);
//! 3. pick `V` versions uniformly along the frontier ordered by blocking
//!    size (Alg. 1 lines 7-10);
//! 4. prune versions whose removal keeps the latency envelope across
//!    interference levels within the tolerance (the "within 90 % of the
//!    full five versions" storage optimization of §4.1).

use veltair_sim::{Interference, LatencyModel, MachineConfig};

use crate::compiled::CompiledVersion;
use crate::options::{interference_bins, CompilerOptions, NUM_INTERFERENCE_BINS};
use crate::search::Sample;

/// Extracts the dominant implementations: samples not dominated in the
/// maximize-(parallelism, locality) sense. These form the Pareto frontier
/// of the tradeoff space (red markers of Fig. 9d).
///
/// One pass over the samples by descending parallelism finds them in
/// O(n log n), without the all-pairs test. A sample is dominated exactly
/// when a sample of equal or higher parallelism has more locality, or one
/// of higher parallelism has at least as much. So a sample survives when
/// its locality is the maximum of its parallelism group, and that
/// maximum exceeds the running maximum over every higher-parallelism
/// group. A sample with a NaN metric compares false either way: no
/// sample dominates it and it dominates none, so it survives and stays
/// out of the running maximum. The survivors, in input order, are then
/// ordered by blocking size, most local first (v0 = low-interference
/// version), by a stable sort, and metric duplicates are dropped.
#[must_use]
pub fn extract_dominant(samples: &[Sample]) -> Vec<Sample> {
    let samples: Vec<&Sample> = samples.iter().collect();
    dominant(&samples).into_iter().cloned().collect()
}

/// [`extract_dominant`] over borrowed samples.
fn dominant<'a>(samples: &[&'a Sample]) -> Vec<&'a Sample> {
    let mut keep = vec![false; samples.len()];
    let mut order = Vec::with_capacity(samples.len());
    for (i, s) in samples.iter().enumerate() {
        if s.parallelism.is_nan() || s.locality_bytes.is_nan() {
            keep[i] = true;
        } else {
            order.push(i);
        }
    }
    order.sort_unstable_by(|&a, &b| samples[b].parallelism.total_cmp(&samples[a].parallelism));
    // The most locality any higher-parallelism group offers.
    let mut higher: Option<f64> = None;
    for group in order.chunk_by(|&a, &b| samples[a].parallelism == samples[b].parallelism) {
        let best = group
            .iter()
            .map(|&i| samples[i].locality_bytes)
            .fold(f64::NEG_INFINITY, f64::max);
        if higher.is_none_or(|h| best > h) {
            for &i in group {
                keep[i] = samples[i].locality_bytes == best;
            }
            higher = Some(best);
        }
    }
    let mut frontier: Vec<&Sample> = samples
        .iter()
        .zip(keep)
        .filter_map(|(&s, kept)| kept.then_some(s))
        .collect();
    // Most local first (v0 = low-interference version), dropping metric
    // duplicates.
    frontier.sort_by(|a, b| {
        b.locality_bytes
            .total_cmp(&a.locality_bytes)
            .then(b.parallelism.total_cmp(&a.parallelism))
    });
    frontier
        .dedup_by(|a, b| a.locality_bytes == b.locality_bytes && a.parallelism == b.parallelism);
    frontier
}

/// Runs the full Algorithm 1 selection for one layer, returning 1..=V
/// compiled versions ordered from most-local (best in isolation) to
/// most-parallel (best under heavy interference).
///
/// `qos_share_s` is the layer's slice of the model's QoS budget. If no
/// sample meets it, the fastest sample is retained (the layer is flagged
/// QoS-infeasible by the caller).
///
/// The filter, the frontier and the picks work on borrowed samples; only
/// the retained versions are copied out.
#[must_use]
pub fn select_versions(
    samples: &[Sample],
    qos_share_s: f64,
    machine: &MachineConfig,
    opts: &CompilerOptions,
) -> Vec<CompiledVersion> {
    assert!(
        !samples.is_empty(),
        "cannot select versions from an empty population"
    );

    // Step 2: QoS-share filter.
    let mut qualified: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.solo_latency_s <= qos_share_s)
        .collect();
    if qualified.is_empty() {
        qualified.push(fastest(samples).expect("non-empty population"));
    }

    // Step 3: dominant implementations (Pareto frontier).
    let frontier = dominant(&qualified);

    // Step 4: uniform pick of V versions along the frontier. The
    // solo-fastest qualified sample (the auto-scheduler's default winner,
    // the paper's "impl. 1") is always part of the set.
    let solo_best = fastest(qualified.iter().copied()).expect("non-empty qualified set");
    let v = opts.max_versions.min(frontier.len() + 1).max(1);
    let mut picked: Vec<&Sample> = vec![solo_best];
    for i in 0..v.min(frontier.len()) {
        let idx = if v == 1 {
            0
        } else {
            i * (frontier.len() - 1) / (v - 1).max(1)
        };
        picked.push(frontier[idx]);
    }
    picked.sort_by(|a, b| {
        b.locality_bytes
            .total_cmp(&a.locality_bytes)
            .then(b.parallelism.total_cmp(&a.parallelism))
    });
    picked.dedup_by(|a, b| a.schedule == b.schedule);
    // Respect the budget: drop the non-solo-best pick whose locality is
    // closest to the solo-best's (the most redundant neighbour).
    while picked.len() > opts.max_versions {
        let (drop_idx, _) = picked
            .iter()
            .enumerate()
            .filter(|(_, s)| s.schedule != solo_best.schedule)
            .map(|(i, s)| (i, (s.locality_bytes - solo_best.locality_bytes).abs()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("more picks than budget implies a non-best pick");
        picked.remove(drop_idx);
    }

    // Step 5: prune versions whose absence keeps the envelope within
    // tolerance across interference levels.
    prune_redundant(picked, machine, opts)
        .into_iter()
        .map(|s| CompiledVersion::from_sample(s.clone()))
        .collect()
}

/// The first sample of least solo latency.
fn fastest<'a>(set: impl IntoIterator<Item = &'a Sample>) -> Option<&'a Sample> {
    set.into_iter()
        .min_by(|a, b| a.solo_latency_s.total_cmp(&b.solo_latency_s))
}

/// Greedily removes versions while the remaining min-latency envelope stays
/// within `opts.prune_tolerance` of the full set at every interference bin.
///
/// Each pick's profile is validated once and rated once per bin at the
/// reference core count; every candidate removal reads those ratings.
fn prune_redundant<'a>(
    mut picked: Vec<&'a Sample>,
    machine: &MachineConfig,
    opts: &CompilerOptions,
) -> Vec<&'a Sample> {
    let bins = interference_bins();
    let mut lat: Vec<[f64; NUM_INTERFERENCE_BINS]> = picked
        .iter()
        .map(|s| {
            if let Err(e) = s.profile.validate() {
                panic!("invalid kernel profile: {e}");
            }
            bins.map(|level| {
                LatencyModel::prevalidated(&s.profile, Interference::level(level), machine)
                    .latency_s(opts.reference_cores)
            })
        })
        .collect();
    // The envelope of every pick but `skip` at bin `bi`.
    let envelope = |lat: &[[f64; NUM_INTERFERENCE_BINS]], skip: Option<usize>, bi: usize| {
        lat.iter()
            .enumerate()
            .filter(|&(j, _)| Some(j) != skip)
            .map(|(_, row)| row[bi])
            .fold(f64::INFINITY, f64::min)
    };
    let full_envelope: Vec<f64> = (0..bins.len()).map(|bi| envelope(&lat, None, bi)).collect();

    loop {
        if picked.len() <= 1 {
            break;
        }
        // Find the removable version with the smallest worst-case impact.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..picked.len() {
            let worst = full_envelope
                .iter()
                .enumerate()
                .map(|(bi, full)| envelope(&lat, Some(i), bi) / full)
                .fold(0.0, f64::max);
            if best.is_none_or(|(_, w)| worst < w) {
                best = Some((i, worst));
            }
        }
        match best {
            Some((i, worst)) if worst <= opts.prune_tolerance => {
                picked.remove(i);
                lat.remove(i);
            }
            _ => break,
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::search;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use veltair_sim::{execute, KernelProfile};
    use veltair_tensor::{FeatureMap, FusedUnit, GemmView, Layer, Schedule};

    /// The all-pairs frontier `extract_dominant` replaced: O(n^2), kept as
    /// its oracle.
    fn extract_dominant_reference(samples: &[Sample]) -> Vec<Sample> {
        let mut frontier: Vec<Sample> = Vec::new();
        for s in samples {
            let dominated = samples.iter().any(|o| {
                (o.parallelism >= s.parallelism && o.locality_bytes > s.locality_bytes)
                    || (o.parallelism > s.parallelism && o.locality_bytes >= s.locality_bytes)
            });
            if !dominated {
                frontier.push(s.clone());
            }
        }
        frontier.sort_by(|a, b| {
            b.locality_bytes
                .total_cmp(&a.locality_bytes)
                .then(b.parallelism.total_cmp(&a.parallelism))
        });
        frontier.dedup_by(|a, b| {
            a.locality_bytes == b.locality_bytes && a.parallelism == b.parallelism
        });
        frontier
    }

    /// A sample identified by `id` (its `tm`) with the given metrics.
    fn sample(id: usize, parallelism: f64, locality_bytes: f64) -> Sample {
        Sample {
            schedule: Schedule {
                tm: id,
                tn: 1,
                tk: 1,
                unroll: 1,
            },
            profile: KernelProfile {
                flops: 1.0,
                compute_efficiency: 1.0,
                parallel_chunks: 1,
                footprint_base_bytes: 0.0,
                footprint_per_core_bytes: 0.0,
                min_traffic_bytes: 0.0,
                spill_traffic_bytes: 0.0,
            },
            parallelism,
            locality_bytes,
            solo_latency_s: 1.0,
        }
    }

    /// A searched population, then random populations drawn from a few
    /// distinct metric values, so parallelism ties, locality ties, exact
    /// duplicates and one-sample sets all occur; every tenth draws from
    /// signed zeros, infinities and NaN as well. The frontier must match
    /// the oracle's in content and in order.
    #[test]
    fn frontier_matches_the_all_pairs_oracle() {
        let (searched, ..) = population();
        assert_eq!(
            extract_dominant(&searched),
            extract_dominant_reference(&searched)
        );
        let mut rng = StdRng::seed_from_u64(0xf207);
        let plain = [1.0, 2.0, 3.0, 8.0, 64.0];
        let special = [0.0, -0.0, 1.0, 2.0, f64::INFINITY, f64::NAN];
        for case in 0..4000 {
            let values: &[f64] = if case % 10 == 9 { &special } else { &plain };
            let distinct = rng.gen_range(1..=values.len());
            let n = rng.gen_range(1..=24);
            let population: Vec<Sample> = (0..n)
                .map(|id| {
                    sample(
                        id,
                        values[rng.gen_range(0..distinct)],
                        values[rng.gen_range(0..distinct)],
                    )
                })
                .collect();
            let ids =
                |set: &[Sample]| -> Vec<usize> { set.iter().map(|s| s.schedule.tm).collect() };
            assert_eq!(
                ids(&extract_dominant(&population)),
                ids(&extract_dominant_reference(&population)),
                "case {case}: {:?}",
                population
                    .iter()
                    .map(|s| (s.parallelism, s.locality_bytes))
                    .collect::<Vec<_>>()
            );
        }
    }

    fn population() -> (Vec<Sample>, MachineConfig, CompilerOptions) {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 256, 14, 14),
            256,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let g = GemmView::of(&l).unwrap();
        let u = FusedUnit::solo(l);
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast();
        let samples = search(&u, &g, &machine, &opts, 42);
        (samples, machine, opts)
    }

    #[test]
    fn frontier_has_no_dominated_point() {
        let (samples, ..) = population();
        let frontier = extract_dominant(&samples);
        assert!(!frontier.is_empty());
        for f in &frontier {
            let dominated = samples.iter().any(|o| {
                (o.parallelism >= f.parallelism && o.locality_bytes > f.locality_bytes)
                    || (o.parallelism > f.parallelism && o.locality_bytes >= f.locality_bytes)
            });
            assert!(!dominated);
        }
    }

    #[test]
    fn every_excluded_sample_is_dominated() {
        let (samples, ..) = population();
        let frontier = extract_dominant(&samples);
        for s in &samples {
            let on_frontier = frontier
                .iter()
                .any(|f| f.parallelism == s.parallelism && f.locality_bytes == s.locality_bytes);
            if !on_frontier {
                let dominated = frontier.iter().any(|o| {
                    (o.parallelism >= s.parallelism && o.locality_bytes > s.locality_bytes)
                        || (o.parallelism > s.parallelism && o.locality_bytes >= s.locality_bytes)
                });
                assert!(dominated, "excluded sample must be dominated");
            }
        }
    }

    #[test]
    fn frontier_is_sorted_most_local_first() {
        let (samples, ..) = population();
        let frontier = extract_dominant(&samples);
        assert!(frontier
            .windows(2)
            .all(|w| w[0].locality_bytes >= w[1].locality_bytes));
        // Along a Pareto frontier, parallelism rises as locality falls.
        assert!(frontier
            .windows(2)
            .all(|w| w[0].parallelism <= w[1].parallelism));
    }

    #[test]
    fn selection_respects_version_budget() {
        let (samples, machine, opts) = population();
        for v in 1..=5 {
            let versions =
                select_versions(&samples, 1.0, &machine, &opts.clone().with_max_versions(v));
            assert!((1..=v).contains(&versions.len()));
        }
    }

    #[test]
    fn versions_span_isolation_to_contention() {
        let (samples, machine, opts) = population();
        let versions = select_versions(&samples, 1.0, &machine, &opts);
        assert!(versions.len() >= 2, "this layer needs multiple versions");
        let first = &versions[0];
        let last = &versions[versions.len() - 1];
        assert!(first.locality_bytes > last.locality_bytes);
        assert!(first.parallelism < last.parallelism);
    }

    #[test]
    fn infeasible_qos_keeps_fastest_sample() {
        let (samples, machine, opts) = population();
        let versions = select_versions(&samples, 1e-9, &machine, &opts);
        assert_eq!(versions.len(), 1);
        let fastest = samples
            .iter()
            .min_by(|a, b| a.solo_latency_s.total_cmp(&b.solo_latency_s))
            .unwrap();
        assert_eq!(versions[0].schedule, Some(fastest.schedule));
    }

    #[test]
    fn pruning_preserves_envelope_within_tolerance() {
        let (samples, machine, opts) = population();
        let loose = CompilerOptions {
            prune_tolerance: 1.10,
            ..opts.clone()
        };
        let versions = select_versions(&samples, 1.0, &machine, &loose);
        // Rebuild the unpruned pick and compare envelopes.
        let unpruned = CompilerOptions {
            prune_tolerance: 1.0,
            ..opts
        };
        let full = select_versions(&samples, 1.0, &machine, &unpruned);
        for &b in &interference_bins() {
            let env = |set: &[CompiledVersion]| {
                set.iter()
                    .map(|v| execute(&v.profile, 16, Interference::level(b), &machine).latency_s)
                    .fold(f64::INFINITY, f64::min)
            };
            assert!(env(&versions) <= env(&full) * 1.101);
        }
    }
}
