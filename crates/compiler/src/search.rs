//! The Ansor-style auto-scheduler: schedule-space sampling plus
//! evolutionary refinement, "measured" on the analytic machine model.
//!
//! Every generated candidate is lowered and measured, as in the paper.
//! The elite set that seeds evolutionary mutations is maintained
//! incrementally (a bounded insertion per evaluation) instead of
//! re-sorting the whole sample vector each iteration; the sampled
//! sequence is pinned unchanged by golden-fingerprint tests.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use veltair_sim::{execute, Interference, KernelProfile, MachineConfig};
use veltair_tensor::{tile_ladder, FusedUnit, GemmView, Schedule};

use crate::lower::GemmLowering;
use crate::options::CompilerOptions;

/// One evaluated point of the schedule space.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The schedule.
    pub schedule: Schedule,
    /// Its lowered execution profile.
    pub profile: KernelProfile,
    /// The paper's parallelism metric (chunks x unroll).
    pub parallelism: f64,
    /// The paper's locality metric (blocking size in bytes).
    pub locality_bytes: f64,
    /// Measured solo latency at the search's reference core count.
    pub solo_latency_s: f64,
}

/// Unroll factors explored by the sampler.
const UNROLLS: [usize; 5] = [1, 2, 4, 8, 16];

/// Evolutionary elite size (parents are drawn from the current best 16).
const ELITE: usize = 16;

/// How many schedule candidates a search (or a whole model compilation)
/// generated and lowered. The search lowers every candidate it generates,
/// so the two counts are equal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct schedule candidates produced by sampling and mutation.
    pub generated: usize,
    /// Candidates lowered to a [`KernelProfile`] and measured on the
    /// machine model.
    pub lowered: usize,
}

impl SearchStats {
    /// Folds another search's counters into this one (per-model totals).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.generated += other.generated;
        self.lowered += other.lowered;
    }
}

/// Samples the schedule space of one GEMM-family unit and returns every
/// distinct evaluated implementation (the paper records "as many samples as
/// possible" rather than only the best one — Algorithm 1, step 1).
///
/// The search runs half its budget as uniform random sampling and half as
/// evolutionary mutation of the current best schedules, mirroring Ansor's
/// sketch-then-evolve structure. If the whole space is smaller than the
/// budget it is enumerated exhaustively. The returned sequence is pinned
/// by golden fingerprints, so any change here must keep both the RNG call
/// order and the stable-sort tie semantics intact.
///
/// The bookkeeping around the `n` evaluations is cheap next to them: the
/// seen-set hashes a schedule's four fields with one multiply-rotate each
/// and is sized for every sample up front, and the unit's byte and FLOP
/// totals are computed once per search. The final sort of the elite
/// prefix orders `(solo latency, position)` keys, which are distinct, so
/// any sort of them yields the order the stable sort by latency gives,
/// and then moves each sample into place with at most one swap.
#[must_use]
pub fn search(
    unit: &FusedUnit,
    g: &GemmView,
    machine: &MachineConfig,
    opts: &CompilerOptions,
    seed: u64,
) -> Vec<Sample> {
    let mut rng = StdRng::seed_from_u64(seed ^ opts.seed);
    let lm = tile_ladder(g.m);
    let ln = tile_ladder(g.n);
    let lk = tile_ladder(g.k);

    let space = lm.len() * ln.len() * lk.len() * UNROLLS.len();
    // Every sample was once a new member, so the set never outgrows this.
    let mut seen = SeenSet::with_capacity_and_hasher(
        opts.search_iterations.min(space),
        BuildHasherDefault::default(),
    );
    let mut samples: Vec<Sample> = Vec::new();
    let lowering = GemmLowering::new(unit, g);
    // Top-ELITE samples by (solo latency, insertion order), maintained
    // incrementally. The historical implementation stable-sorted the whole
    // sample vector at the top of every evolutionary iteration — an
    // O(n^2 log n) hot loop per layer; repeated stable sorts compose to a
    // single stable sort, so one bounded insertion per evaluation plus one
    // final sort is observationally identical.
    let mut elite: Vec<(f64, Schedule)> = Vec::new();

    let evaluate = |s: Schedule,
                    seen: &mut SeenSet,
                    out: &mut Vec<Sample>,
                    elite: &mut Vec<(f64, Schedule)>| {
        if !seen.insert(s) {
            return;
        }
        let profile = lowering.lower(&s);
        let exec = execute(&profile, opts.reference_cores, Interference::NONE, machine);
        let solo_latency_s = exec.latency_s + machine.dispatch_overhead_s;
        note_elite(elite, solo_latency_s, s);
        out.push(Sample {
            schedule: s,
            parallelism: s.parallelism(g),
            locality_bytes: s.locality_bytes(g),
            solo_latency_s,
            profile,
        });
    };

    if space <= opts.search_iterations {
        // Exhaustive enumeration.
        for &tm in &lm {
            for &tn in &ln {
                for &tk in &lk {
                    for &u in &UNROLLS {
                        evaluate(
                            Schedule::new(g, tm, tn, tk, u),
                            &mut seen,
                            &mut samples,
                            &mut elite,
                        );
                    }
                }
            }
        }
        return samples;
    }

    // Phase 1: uniform random sampling.
    let random_budget = opts.search_iterations / 2;
    while samples.len() < random_budget {
        let s = Schedule::new(
            g,
            *lm.choose(&mut rng).expect("ladder never empty"),
            *ln.choose(&mut rng).expect("ladder never empty"),
            *lk.choose(&mut rng).expect("ladder never empty"),
            UNROLLS[rng.gen_range(0..UNROLLS.len())],
        );
        evaluate(s, &mut seen, &mut samples, &mut elite);
    }

    // Phase 2: evolutionary mutation of the current elite. The prefix
    // present at the top of the final iteration is sorted once at the end,
    // which is exactly where the historical per-iteration sort left it.
    let mut sorted_prefix = 0;
    while samples.len() < opts.search_iterations {
        sorted_prefix = samples.len();
        let elite_count = samples.len().min(ELITE);
        let parent = elite[rng.gen_range(0..elite_count)].1;
        let s = mutate(parent, g, &lm, &ln, &lk, &mut rng);
        let before = samples.len();
        evaluate(s, &mut seen, &mut samples, &mut elite);
        if samples.len() == before {
            // Duplicate; take a random step instead to keep making progress.
            let s = Schedule::new(
                g,
                *lm.choose(&mut rng).expect("ladder never empty"),
                *ln.choose(&mut rng).expect("ladder never empty"),
                *lk.choose(&mut rng).expect("ladder never empty"),
                UNROLLS[rng.gen_range(0..UNROLLS.len())],
            );
            evaluate(s, &mut seen, &mut samples, &mut elite);
            if samples.len() == before && seen.len() >= space {
                break;
            }
        }
    }
    sort_by_latency(&mut samples[..sorted_prefix]);
    samples
}

/// The search's seen-set: membership only, so its hasher cannot change
/// which schedules are kept or in what order.
type SeenSet = HashSet<Schedule, BuildHasherDefault<ScheduleHasher>>;

/// A multiply-rotate hasher for [`Schedule`]'s four `usize` fields: one
/// rotate, xor and multiply per field instead of SipHash's rounds.
#[derive(Default)]
struct ScheduleHasher(u64);

impl Hasher for ScheduleHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sorts `samples` by solo latency (`total_cmp`), ties in position order:
/// the order a stable `sort_by` gives. The sort runs over
/// `(latency, position)` keys, which are distinct, so an unstable sort of
/// them is exact. The samples then follow the permutation's cycles into
/// place, at most one swap per sample.
fn sort_by_latency(samples: &mut [Sample]) {
    let mut keys: Vec<(f64, usize)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| (s.solo_latency_s, i))
        .collect();
    keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    // Position `k` takes the sample at `keys[k].1`; a settled position
    // points at itself.
    for start in 0..keys.len() {
        let mut at = start;
        loop {
            let from = keys[at].1;
            keys[at].1 = at;
            if from == start {
                break;
            }
            samples.swap(at, from);
            at = from;
        }
    }
}

/// Inserts a `(score, schedule)` pair into a bounded, score-sorted elite
/// list. Insertion lands *after* equal scores, which reproduces the
/// stable-sort tie order of the historical "re-sort everything per
/// iteration" implementation bit for bit.
fn note_elite(elite: &mut Vec<(f64, Schedule)>, score: f64, s: Schedule) {
    let pos = elite.partition_point(|&(l, _)| l <= score);
    if pos < ELITE {
        elite.insert(pos, (score, s));
        elite.truncate(ELITE);
    } else if elite.len() < ELITE {
        elite.push((score, s));
    }
}

/// Moves one schedule parameter a step along its ladder.
fn mutate(
    parent: Schedule,
    g: &GemmView,
    lm: &[usize],
    ln: &[usize],
    lk: &[usize],
    rng: &mut StdRng,
) -> Schedule {
    let step = |ladder: &[usize], cur: usize, rng: &mut StdRng| -> usize {
        let idx = ladder.iter().position(|&t| t >= cur).unwrap_or(0);
        let next = if rng.gen_bool(0.5) {
            idx.saturating_sub(1)
        } else {
            (idx + 1).min(ladder.len() - 1)
        };
        ladder[next]
    };
    match rng.gen_range(0..4) {
        0 => Schedule::new(
            g,
            step(lm, parent.tm, rng),
            parent.tn,
            parent.tk,
            parent.unroll,
        ),
        1 => Schedule::new(
            g,
            parent.tm,
            step(ln, parent.tn, rng),
            parent.tk,
            parent.unroll,
        ),
        2 => Schedule::new(
            g,
            parent.tm,
            parent.tn,
            step(lk, parent.tk, rng),
            parent.unroll,
        ),
        _ => {
            let u = UNROLLS[rng.gen_range(0..UNROLLS.len())];
            Schedule::new(g, parent.tm, parent.tn, parent.tk, u)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_tensor::{FeatureMap, Layer};

    fn unit() -> (FusedUnit, GemmView) {
        let l = Layer::conv2d(
            "c",
            FeatureMap::nchw(1, 256, 14, 14),
            256,
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let g = GemmView::of(&l).unwrap();
        (FusedUnit::solo(l), g)
    }

    fn wide_unit() -> (FusedUnit, GemmView) {
        let l = Layer::conv2d(
            "w",
            FeatureMap::nchw(1, 64, 56, 56),
            64,
            (1, 1),
            (1, 1),
            (0, 0),
        );
        let g = GemmView::of(&l).unwrap();
        (FusedUnit::solo(l), g)
    }

    /// FNV-1a over every sample's (tm, tn, tk, unroll), in order.
    fn fingerprint(samples: &[Sample]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in samples {
            for v in [
                s.schedule.tm,
                s.schedule.tn,
                s.schedule.tk,
                s.schedule.unroll,
            ] {
                h ^= v as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn search_returns_distinct_valid_samples() {
        let (u, g) = unit();
        let machine = MachineConfig::threadripper_3990x();
        let samples = search(&u, &g, &machine, &CompilerOptions::fast(), 1);
        assert!(samples.len() >= 64, "got only {} samples", samples.len());
        let mut seen = HashSet::new();
        for s in &samples {
            assert!(seen.insert(s.schedule), "duplicate schedule {}", s.schedule);
            assert!(s.profile.validate().is_ok());
            assert!(s.solo_latency_s > 0.0);
        }
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (u, g) = unit();
        let machine = MachineConfig::threadripper_3990x();
        let a = search(&u, &g, &machine, &CompilerOptions::fast(), 7);
        let b = search(&u, &g, &machine, &CompilerOptions::fast(), 7);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.schedule == y.schedule));
    }

    /// Cross-version golden pin: these fingerprints were harvested from the
    /// historical implementation (per-iteration full re-sort) before the
    /// incremental-elite rework. The search must reproduce the exact
    /// sample sequence, bit for bit, seed by seed.
    #[test]
    fn full_search_sequence_matches_golden_fingerprints() {
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::fast();

        let (u, g) = unit();
        for (seed, expect) in [
            (1u64, 0x6a43_c34a_c823_e5da_u64),
            (5, 0x7ca5_170d_1cb1_eefe),
            (7, 0x6012_72ff_0d8f_0d2e),
            (11, 0xb86a_083e_ee63_a0b1),
            (42, 0xf2a4_5fc3_be20_0a28),
        ] {
            let samples = search(&u, &g, &machine, &opts, seed);
            assert_eq!(samples.len(), 192, "seed {seed}");
            assert_eq!(fingerprint(&samples), expect, "seed {seed}");
        }
        let first: Vec<String> = search(&u, &g, &machine, &opts, 7)
            .iter()
            .take(4)
            .map(|s| s.schedule.to_string())
            .collect();
        assert_eq!(
            first,
            [
                "tm196xtn16xtk2304u8",
                "tm64xtn16xtk2304u8",
                "tm64xtn32xtk2048u16",
                "tm64xtn16xtk2048u8"
            ]
        );

        let (u, g) = wide_unit();
        for (seed, expect) in [
            (7u64, 0xddc4_0ad3_df0e_3d70_u64),
            (42, 0x995f_08ff_29f7_bc76),
        ] {
            let samples = search(&u, &g, &machine, &opts, seed);
            assert_eq!(samples.len(), 192, "wide seed {seed}");
            assert_eq!(fingerprint(&samples), expect, "wide seed {seed}");
        }
    }

    /// FNV-1a over every field of every sample, in order: the schedule,
    /// then the bit patterns of the profile, both metrics and the solo
    /// latency.
    fn sample_fingerprint(samples: &[Sample]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in samples {
            let p = &s.profile;
            let sched = [
                s.schedule.tm,
                s.schedule.tn,
                s.schedule.tk,
                s.schedule.unroll,
            ];
            let words = sched.iter().map(|&v| v as u64).chain(
                [
                    p.flops,
                    p.compute_efficiency,
                    f64::from(p.parallel_chunks),
                    p.footprint_base_bytes,
                    p.footprint_per_core_bytes,
                    p.min_traffic_bytes,
                    p.spill_traffic_bytes,
                    s.parallelism,
                    s.locality_bytes,
                    s.solo_latency_s,
                ]
                .map(f64::to_bits),
            );
            for v in words {
                h ^= v;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The paper-size search (`CompilerOptions::thorough()`, 1024 samples)
    /// of both units, hashed down to every field of every sample, so the
    /// seen-set, the elite prefix sort and the lowering run at full size.
    /// Recorded from the SipHash seen-set, the stable `sort_by` of the
    /// elite prefix and the per-candidate unit totals, before each was
    /// replaced by its cheaper equivalent.
    #[test]
    fn thorough_search_matches_golden_fingerprints() {
        let machine = MachineConfig::threadripper_3990x();
        let opts = CompilerOptions::thorough();
        let (conv, wide) = (unit(), wide_unit());
        let measured: Vec<u64> = [(&conv, 0u64), (&conv, 7), (&wide, 0), (&wide, 42)]
            .into_iter()
            .map(|((u, g), seed)| {
                let samples = search(u, g, &machine, &opts, seed);
                assert_eq!(samples.len(), 1024, "seed {seed}");
                sample_fingerprint(&samples)
            })
            .collect();
        assert_eq!(
            measured,
            [
                0xdf1a_718a_5be0_5506_u64,
                0x8951_2984_535a_3cdc,
                0xddde_800a_62b3_4c99,
                0x00c5_37d7_c9b9_24c9,
            ],
            "measured {measured:#x?}"
        );
    }

    /// The key sort of the elite prefix against the stable `sort_by` it
    /// replaced, on populations with many repeated latencies (signed
    /// zeros, infinities and NaN among them in every tenth).
    #[test]
    fn key_sorted_prefix_matches_a_stable_sort() {
        let (u, g) = unit();
        let template = search(
            &u,
            &g,
            &MachineConfig::threadripper_3990x(),
            &CompilerOptions::fast(),
            1,
        )[0]
        .clone();
        let mut rng = StdRng::seed_from_u64(0x5027);
        let plain = [1e-3, 2e-3, 3e-3, 5e-4];
        let special = [0.0, -0.0, 1e-3, f64::INFINITY, -f64::NAN, f64::NAN];
        for case in 0..2000 {
            let values: &[f64] = if case % 10 == 9 { &special } else { &plain };
            let distinct = rng.gen_range(1..=values.len());
            let n = rng.gen_range(0..=64);
            let population: Vec<Sample> = (0..n)
                .map(|id| Sample {
                    schedule: Schedule {
                        tm: id,
                        ..template.schedule
                    },
                    solo_latency_s: values[rng.gen_range(0..distinct)],
                    ..template.clone()
                })
                .collect();
            let mut keyed = population.clone();
            sort_by_latency(&mut keyed);
            let mut stable = population;
            stable.sort_by(|a, b| a.solo_latency_s.total_cmp(&b.solo_latency_s));
            let ids =
                |set: &[Sample]| -> Vec<usize> { set.iter().map(|s| s.schedule.tm).collect() };
            assert_eq!(ids(&keyed), ids(&stable), "case {case}");
        }
    }

    #[test]
    fn small_spaces_are_enumerated() {
        // A depthwise conv has a tiny GEMM view -> exhaustive enumeration.
        let l = Layer::dwconv2d(
            "dw",
            FeatureMap::nchw(1, 32, 14, 14),
            (3, 3),
            (1, 1),
            (1, 1),
        );
        let g = GemmView::of(&l).unwrap();
        let u = FusedUnit::solo(l);
        let machine = MachineConfig::threadripper_3990x();
        let samples = search(&u, &g, &machine, &CompilerOptions::fast(), 3);
        let lm = tile_ladder(g.m).len();
        let ln = tile_ladder(g.n).len();
        let lk = tile_ladder(g.k).len();
        // Clamping can alias ladder points; we only require full coverage.
        assert!(samples.len() <= lm * ln * lk * UNROLLS.len());
        assert!(samples.len() > lm.max(lk));
    }

    #[test]
    fn evolution_finds_a_good_schedule() {
        let (u, g) = unit();
        let machine = MachineConfig::threadripper_3990x();
        let samples = search(&u, &g, &machine, &CompilerOptions::fast(), 11);
        let best = samples
            .iter()
            .map(|s| s.solo_latency_s)
            .fold(f64::INFINITY, f64::min);
        // Roofline bound at the reference 16 cores and peak efficiency 0.95.
        let bound = g.flops() / (16.0 * machine.peak_flops_per_core() * 0.95);
        assert!(best < 3.0 * bound, "best {best} vs bound {bound}");
    }

    #[test]
    fn samples_span_the_tradeoff_space() {
        let (u, g) = unit();
        let machine = MachineConfig::threadripper_3990x();
        let samples = search(&u, &g, &machine, &CompilerOptions::fast(), 5);
        let min_loc = samples
            .iter()
            .map(|s| s.locality_bytes)
            .fold(f64::INFINITY, f64::min);
        let max_loc = samples.iter().map(|s| s.locality_bytes).fold(0.0, f64::max);
        assert!(max_loc > 16.0 * min_loc, "locality range too narrow");
        let min_par = samples
            .iter()
            .map(|s| s.parallelism)
            .fold(f64::INFINITY, f64::min);
        let max_par = samples.iter().map(|s| s.parallelism).fold(0.0, f64::max);
        assert!(max_par > 16.0 * min_par, "parallelism range too narrow");
    }
}
