//! Randomized invariants of the machine model and DES toolkit.
//!
//! Formerly proptest-based; the hermetic build has no crates.io access,
//! so these run the same properties over seeded random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_sim::{
    execute, CoreTerms, EventQueue, Execution, GrantModel, Interference, KernelProfile,
    LatencyModel, MachineConfig, SimTime, SplitEventQueue,
};

const CASES: usize = 128;

fn arb_profile(rng: &mut StdRng) -> KernelProfile {
    let min_t = rng.gen_range(1.0e4f64..1.0e8);
    KernelProfile {
        flops: rng.gen_range(1.0e6f64..1.0e10),
        compute_efficiency: rng.gen_range(0.05f64..0.95),
        parallel_chunks: rng.gen_range(1u32..2048),
        footprint_base_bytes: rng.gen_range(0.0f64..4.0e6),
        footprint_per_core_bytes: rng.gen_range(1.0e3f64..2.0e6),
        min_traffic_bytes: min_t,
        spill_traffic_bytes: min_t + rng.gen_range(0.0f64..1.0e9),
    }
}

#[test]
fn execution_outputs_are_finite_and_positive() {
    let mut rng = StdRng::seed_from_u64(0x51b01);
    let machine = MachineConfig::threadripper_3990x();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let cores = rng.gen_range(1u32..=64);
        let level = rng.gen_range(0.0f64..1.0);
        let e = execute(&p, cores, Interference::level(level), &machine);
        assert!(e.latency_s.is_finite() && e.latency_s > 0.0);
        assert!(e.counters.l3_accesses >= e.counters.l3_misses);
        assert!((0.0..=1.0).contains(&e.counters.l3_miss_rate()));
        assert!(e.demand.cache_bytes <= machine.l3_bytes);
        assert!(e.demand.bw_bytes_per_s >= 0.0);
    }
}

#[test]
fn solo_latency_non_increasing_in_cores() {
    let mut rng = StdRng::seed_from_u64(0x51b02);
    let machine = MachineConfig::threadripper_3990x();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let cores = rng.gen_range(1u32..=63);
        let a = execute(&p, cores, Interference::NONE, &machine).latency_s;
        let b = execute(&p, cores + 1, Interference::NONE, &machine).latency_s;
        // Solo, the footprint always fits the 256 MB L3 with the bounded
        // generators above, so more cores can only help (or tie).
        assert!(b <= a * (1.0 + 1e-9), "p={cores}: {a} -> {b}");
    }
}

#[test]
fn latency_non_decreasing_in_interference() {
    let mut rng = StdRng::seed_from_u64(0x51b03);
    let machine = MachineConfig::threadripper_3990x();
    for _ in 0..CASES {
        let p = arb_profile(&mut rng);
        let cores = rng.gen_range(1u32..=64);
        let a = rng.gen_range(0.0f64..1.0);
        let b = rng.gen_range(0.0f64..1.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let l_lo = execute(&p, cores, Interference::level(lo), &machine).latency_s;
        let l_hi = execute(&p, cores, Interference::level(hi), &machine).latency_s;
        assert!(l_hi >= l_lo - 1e-15);
    }
}

#[test]
fn event_queue_delivers_sorted() {
    let mut rng = StdRng::seed_from_u64(0x51b04);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..1e6)).collect();
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime(*t), i);
        }
        let mut last = SimTime(-1.0);
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, times.len());
    }
}

#[test]
fn corunner_pressure_is_clamped() {
    let mut rng = StdRng::seed_from_u64(0x51b05);
    let machine = MachineConfig::threadripper_3990x();
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..10);
        let demands: Vec<veltair_sim::PressureDemand> = (0..n)
            .map(|_| veltair_sim::PressureDemand {
                cache_bytes: rng.gen_range(0.0f64..1.0e9),
                bw_bytes_per_s: rng.gen_range(0.0f64..1.0e11),
            })
            .collect();
        let i = Interference::from_corunners(demands.iter(), &machine);
        assert!((0.0..=1.0).contains(&i.cache_frac));
        assert!((0.0..=1.0).contains(&i.bw_frac));
        assert!((0.0..=1.0).contains(&i.scalar()));
    }
}

/// Every float of an execution, as bits: "equal" here means bit-equal.
fn bits(e: &Execution) -> [u64; 8] {
    [
        e.latency_s,
        e.counters.l3_accesses,
        e.counters.l3_misses,
        e.counters.instructions,
        e.counters.cycles,
        e.counters.flops,
        e.demand.cache_bytes,
        e.demand.bw_bytes_per_s,
    ]
    .map(f64::to_bits)
}

#[test]
fn prepared_latency_model_is_bit_identical_to_execute() {
    let mut rng = StdRng::seed_from_u64(0x51b06);
    for machine in [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
        MachineConfig::threadripper_3990x().with_dvfs(0.2),
    ] {
        for case in 0..CASES / 2 {
            let mut p = arb_profile(&mut rng);
            // Every third profile exposes fewer chunks than the machine has
            // cores (about 3 % of `arb_profile` draws do), so its core-terms
            // table ends early and larger core counts read past it.
            if case % 3 == 0 {
                p.parallel_chunks = rng.gen_range(1..machine.cores);
            }
            // Independent cache and bandwidth pressure, plus both edges.
            let pressure = match case % 8 {
                0 => Interference::NONE,
                1 => Interference::level(1.0),
                2 => Interference {
                    cache_frac: 1.0,
                    bw_frac: 0.0,
                },
                _ => Interference {
                    cache_frac: rng.gen_range(0.0f64..1.0),
                    bw_frac: rng.gen_range(0.0f64..1.0),
                },
            };
            let model = LatencyModel::new(&p, pressure, &machine);
            let unchecked = LatencyModel::prevalidated(&p, pressure, &machine);
            let terms = CoreTerms::table(&p, &machine);
            assert_eq!(terms.len(), machine.cores.min(p.parallel_chunks) as usize);
            let tabulated = LatencyModel::with_terms(&p, &terms, pressure, &machine);
            // Past the machine's cores a table that stopped there falls
            // back to live terms.
            for cores in 1..=2 * machine.cores {
                let reference = execute(&p, cores, pressure, &machine);
                assert_eq!(
                    model.latency_s(cores).to_bits(),
                    reference.latency_s.to_bits(),
                    "latency at {cores} cores"
                );
                assert_eq!(bits(&model.execute(cores)), bits(&reference));
                assert_eq!(bits(&unchecked.execute(cores)), bits(&reference));
                assert_eq!(
                    tabulated.latency_s(cores).to_bits(),
                    reference.latency_s.to_bits(),
                    "tabulated latency at {cores} cores"
                );
                assert_eq!(bits(&tabulated.execute(cores)), bits(&reference));
            }
        }
    }
}

#[test]
fn grant_model_is_bit_identical_to_the_latency_model() {
    let mut rng = StdRng::seed_from_u64(0x51b09);
    for machine in [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
        MachineConfig::threadripper_3990x().with_dvfs(0.2),
    ] {
        for _ in 0..CASES / 8 {
            // Chunk counts on both sides of the machine's core count, so
            // grants past `parallel_chunks` and past the table's end stay
            // few enough to try every one.
            let p = KernelProfile {
                parallel_chunks: rng.gen_range(1..=2 * machine.cores),
                ..arb_profile(&mut rng)
            };
            let full = CoreTerms::table(&p, &machine);
            let tables: [&[CoreTerms]; 3] = [&full, &full[..full.len().min(3)], &[]];
            let mut pressures = vec![
                Interference::NONE,
                Interference::level(1.0),
                Interference {
                    cache_frac: 1.0,
                    bw_frac: 0.0,
                },
                Interference {
                    cache_frac: 0.0,
                    bw_frac: 1.0,
                },
            ];
            pressures.extend((0..4).map(|_| Interference {
                cache_frac: rng.gen_range(0.0f64..1.0),
                bw_frac: rng.gen_range(0.0f64..1.0),
            }));
            for terms in tables {
                for cores in 1..=p.parallel_chunks.max(machine.cores) + 2 {
                    let grant = GrantModel::with_terms(&p, terms, cores, &machine);
                    for &pressure in &pressures {
                        let reference =
                            LatencyModel::with_terms(&p, terms, pressure, &machine).execute(cores);
                        assert_eq!(
                            bits(&grant.execute(pressure)),
                            bits(&reference),
                            "{} table entries, {cores} cores, {pressure:?}",
                            terms.len()
                        );
                    }
                }
            }
        }
    }
}

/// `add_latencies` adds, bit for bit, what one `latency_s` call per core
/// count plus the extra term would add, for every start and length of
/// run: runs that stay below `parallel_chunks`, cross it, cross the
/// bandwidth saturation past it, and run past the machine and the table.
#[test]
fn range_ratings_are_bit_identical_to_one_at_a_time_ratings() {
    let mut rng = StdRng::seed_from_u64(0x51b0a);
    for machine in [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
        MachineConfig::threadripper_3990x().with_dvfs(0.2),
    ] {
        // Chunk counts at the edges, below the bandwidth saturation
        // (`dram_bw / per_core_bw` cores with no co-runners), below and
        // at the machine's core count and above it.
        let chunks = [
            1,
            2,
            rng.gen_range(1..=6),
            rng.gen_range(1..machine.cores),
            machine.cores,
            rng.gen_range(machine.cores + 1..=machine.cores + 12),
        ];
        for chunks in chunks {
            let p = KernelProfile {
                parallel_chunks: chunks,
                ..arb_profile(&mut rng)
            };
            let full = CoreTerms::table(&p, &machine);
            let tables: [&[CoreTerms]; 3] = [&full, &full[..full.len().min(3)], &[]];
            // Interference with each component at 0 and at 1, and a
            // random pair.
            let pressures = [
                Interference::NONE,
                Interference::level(1.0),
                Interference {
                    cache_frac: 1.0,
                    bw_frac: 0.0,
                },
                Interference {
                    cache_frac: 0.0,
                    bw_frac: 1.0,
                },
                Interference {
                    cache_frac: rng.gen_range(0.0f64..1.0),
                    bw_frac: rng.gen_range(0.0f64..1.0),
                },
            ];
            let last = chunks.max(machine.cores) + 2;
            for terms in tables {
                for pressure in pressures {
                    let model = LatencyModel::with_terms(&p, terms, pressure, &machine);
                    let extra_s = rng.gen_range(0.0f64..1e-4);
                    let one_at_a_time: Vec<f64> =
                        (1..=last).map(|c| model.latency_s(c) + extra_s).collect();
                    for first in 1..=last {
                        for len in 0..=(last - first + 1) as usize {
                            let base: Vec<f64> = (0..len).map(|i| i as f64 * 1e-3).collect();
                            let mut sums = base.clone();
                            model.add_latencies(first, extra_s, &mut sums);
                            for (i, (sum, start)) in sums.iter().zip(&base).enumerate() {
                                let cores = first as usize + i;
                                assert_eq!(
                                    sum.to_bits(),
                                    (start + one_at_a_time[cores - 1]).to_bits(),
                                    "{chunks} chunks, {} table entries, {pressure:?}, \
                                     run from {first} of {len}, {cores} cores",
                                    terms.len()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "invalid kernel profile")]
fn latency_model_validates_the_profile_once_up_front() {
    let mut rng = StdRng::seed_from_u64(0x51b07);
    let p = KernelProfile {
        flops: f64::NAN,
        ..arb_profile(&mut rng)
    };
    let _ = LatencyModel::new(&p, Interference::NONE, &MachineConfig::threadripper_3990x());
}

/// The queue a [`SplitEventQueue`] stands in for: one [`EventQueue`] fed
/// every push and every arm, each arm as a fresh entry. A check whose id
/// was armed again since it was pushed is stale, and popping skips it.
struct KeepEverything {
    queue: EventQueue<(u64, Option<(usize, u64)>)>,
    /// Per id, the generation of its latest arm.
    generation: Vec<u64>,
    /// Per id, the payload and time of its live check, while pending.
    checks: Vec<Option<(u64, SimTime)>>,
    /// Payload and time of every pending external event.
    external: Vec<(u64, SimTime)>,
}

impl KeepEverything {
    fn new(ids: usize) -> Self {
        Self {
            queue: EventQueue::new(),
            generation: vec![0; ids],
            checks: vec![None; ids],
            external: Vec::new(),
        }
    }

    fn push_external(&mut self, t: SimTime, payload: u64) {
        self.queue.push(t, (payload, None));
        self.external.push((payload, t));
    }

    fn arm(&mut self, id: usize, t: SimTime, payload: u64) {
        self.generation[id] += 1;
        self.checks[id] = Some((payload, t));
        let check = Some((id, self.generation[id]));
        self.queue.push(t, (payload, check));
    }

    /// Pops one entry: `Ok` if it is live, `Err(its time)` if stale.
    fn pop_entry(&mut self) -> Option<Result<(SimTime, u64), SimTime>> {
        let (t, (payload, check)) = self.queue.pop()?;
        match check {
            Some((id, generation)) if generation != self.generation[id] => return Some(Err(t)),
            Some((id, _)) => self.checks[id] = None,
            None => self.external.retain(|&(p, _)| p != payload),
        }
        Some(Ok((t, payload)))
    }

    /// Pops up to the next live entry. When none remains, returns the
    /// time of the last stale entry it popped, if any.
    fn pop(&mut self) -> Result<(SimTime, u64), Option<SimTime>> {
        let mut last_stale = None;
        loop {
            match self.pop_entry() {
                Some(Ok(live)) => return Ok(live),
                Some(Err(t)) => last_stale = Some(t),
                None => return Err(last_stale),
            }
        }
    }

    fn earliest_live(&self) -> Option<SimTime> {
        let checks = self.checks.iter().flatten();
        checks.chain(&self.external).map(|&(_, t)| t).min()
    }
}

/// Pops the next live event from both queues and compares them; when none
/// remains, passes the superseded checks and compares what that returns.
/// Returns whether an event was popped.
fn pop_both(split: &mut SplitEventQueue<u64>, reference: &mut KeepEverything) -> bool {
    let popped = split.pop();
    match reference.pop() {
        Ok(live) => assert_eq!(popped, Some(live)),
        Err(last_stale) => {
            assert_eq!(popped, None);
            assert_eq!(split.pass_superseded(), last_stale);
        }
    }
    popped.is_some()
}

#[test]
fn split_queue_delivers_the_single_queue_order() {
    const IDS: usize = 6;
    let mut rng = StdRng::seed_from_u64(0x51b08);
    // Few distinct timestamps, so ties between arrivals, checks and
    // passing points are common.
    let grid = |rng: &mut StdRng| SimTime(f64::from(rng.gen_range(0u32..8)) * 0.5);
    for _ in 0..CASES {
        let mut reference = KeepEverything::new(IDS);
        let mut split = SplitEventQueue::new();
        let ops = rng.gen_range(1u64..400);
        for payload in 0..ops {
            match rng.gen_range(0u32..40) {
                0..=9 => {
                    let t = grid(&mut rng);
                    reference.push_external(t, payload);
                    split.push_external(t, payload);
                }
                10..=23 => {
                    // A re-arm moves a pending check one grid step
                    // earlier, to the same time, or one step later.
                    let id = rng.gen_range(0..IDS);
                    let t = match reference.checks[id] {
                        Some((_, at)) => {
                            let step = f64::from(rng.gen_range(0u32..3)) - 1.0;
                            SimTime((at.0 + 0.5 * step).max(0.0))
                        }
                        None => grid(&mut rng),
                    };
                    reference.arm(id, t, payload);
                    split.arm(id, t, payload);
                }
                24..=31 => {
                    pop_both(&mut split, &mut reference);
                }
                32..=38 => {
                    // `Driver::run_until`: pop every event at or before
                    // `t`, then pass the rest.
                    let t = grid(&mut rng);
                    while split.peek_time().is_some_and(|next| next <= t) {
                        assert!(pop_both(&mut split, &mut reference));
                    }
                    split.pass_until(t);
                    while reference.queue.peek_time().is_some_and(|next| next <= t) {
                        let entry = reference.pop_entry().expect("peeked");
                        assert!(entry.is_err(), "a live entry at or before {t:?} was left");
                    }
                }
                _ => {
                    split.clear();
                    reference = KeepEverything::new(IDS);
                }
            }
            assert_eq!(split.is_empty(), reference.queue.is_empty());
            assert_eq!(split.peek_time(), reference.earliest_live());
            for (id, check) in reference.checks.iter().enumerate() {
                assert_eq!(split.is_armed(id), check.is_some(), "id {id}");
            }
        }
        while pop_both(&mut split, &mut reference) {}
        assert!(split.is_empty() && reference.queue.is_empty());
    }
}
