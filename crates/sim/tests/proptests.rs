//! Randomized invariants of the machine model and DES toolkit.
//!
//! Formerly proptest-based; the hermetic build has no crates.io access,
//! so these run the same properties over seeded random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_sim::{
    execute, CoreTerms, EventQueue, Execution, Interference, KernelProfile, LatencyModel,
    MachineConfig, SimTime, SplitEventQueue,
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
#[should_panic(expected = "invalid kernel profile")]
fn latency_model_validates_the_profile_once_up_front() {
    let mut rng = StdRng::seed_from_u64(0x51b07);
    let p = KernelProfile {
        flops: f64::NAN,
        ..arb_profile(&mut rng)
    };
    let _ = LatencyModel::new(&p, Interference::NONE, &MachineConfig::threadripper_3990x());
}

#[test]
fn split_queue_delivers_the_single_queue_order() {
    let mut rng = StdRng::seed_from_u64(0x51b08);
    for _ in 0..CASES {
        let mut one = EventQueue::new();
        let mut split = SplitEventQueue::new();
        let ops = rng.gen_range(1usize..400);
        for id in 0..ops {
            // Few distinct timestamps, so ties across the two heaps are
            // common; both kinds interleave with pops at random.
            match rng.gen_range(0u32..5) {
                0 | 1 => {
                    let t = SimTime(f64::from(rng.gen_range(0u32..6)) * 0.5);
                    one.push(t, id);
                    split.push_external(t, id);
                }
                2 | 3 => {
                    let t = SimTime(f64::from(rng.gen_range(0u32..6)) * 0.5);
                    one.push(t, id);
                    split.push_internal(t, id);
                }
                _ => {
                    assert_eq!(split.pop(), one.pop());
                }
            }
            assert_eq!(split.len(), one.len());
            assert_eq!(split.is_empty(), one.is_empty());
            assert_eq!(split.peek_time(), one.peek_time());
        }
        while let Some(expected) = one.pop() {
            assert_eq!(split.pop(), Some(expected));
        }
        assert_eq!(split.pop(), None);
    }
}
