//! Randomized invariants of workload generation and block formation.
//!
//! Formerly proptest-based; the hermetic build has no crates.io access,
//! so these run the same properties over seeded random cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veltair_compiler::selector::select_at_level;
use veltair_compiler::{compile_model, CompiledModel, CompilerOptions, QOS_PLAN_MARGIN};
use veltair_sched::layer_block::{block_flat_latency_s, boosted_block_cores};
use veltair_sched::{block_core_requirement, WorkloadSpec};
use veltair_sim::{execute, Interference, MachineConfig};

const CASES: usize = 128;

#[test]
fn scaling_preserves_stream_ratios() {
    let mut rng = StdRng::seed_from_u64(0x5c4ed01);
    for _ in 0..CASES {
        let r1 = rng.gen_range(0.1f64..100.0);
        let r2 = rng.gen_range(0.1f64..100.0);
        let target = rng.gen_range(1.0f64..1000.0);
        let w = WorkloadSpec::mix(&[("a", r1), ("b", r2)], 10);
        let s = w.scaled_to(target);
        assert!((s.total_qps() - target).abs() < 1e-9 * target);
        let before = r1 / r2;
        let after = s.streams[0].1 / s.streams[1].1;
        assert!((before - after).abs() < 1e-9 * before);
    }
}

#[test]
fn inverse_qos_mix_sums_to_target() {
    let mut rng = StdRng::seed_from_u64(0x5c4ed02);
    for _ in 0..CASES {
        let q1 = rng.gen_range(1.0f64..200.0);
        let q2 = rng.gen_range(1.0f64..200.0);
        let q3 = rng.gen_range(1.0f64..200.0);
        let total = rng.gen_range(1.0f64..500.0);
        let w = WorkloadSpec::inverse_qos_mix(&[("a", q1), ("b", q2), ("c", q3)], total, 30);
        assert!((w.total_qps() - total).abs() < 1e-9 * total);
        // Tighter QoS -> higher rate.
        let rate = |n: &str| w.streams.iter().find(|s| s.0 == n).unwrap().1;
        if q1 < q2 {
            assert!(rate("a") >= rate("b"));
        }
    }
}

#[test]
fn poisson_streams_have_positive_gaps() {
    let mut rng = StdRng::seed_from_u64(0x5c4ed03);
    for _ in 0..CASES {
        let qps = rng.gen_range(1.0f64..500.0);
        let n = rng.gen_range(2usize..300);
        let seed = rng.gen_range(0u64..1000);
        let w = WorkloadSpec::single("m", qps, n);
        let q = w.generate(seed);
        assert_eq!(q.len(), n);
        assert!(q[0].arrival.0 > 0.0);
        for pair in q.windows(2) {
            assert!(pair[1].arrival >= pair[0].arrival);
        }
    }
}

#[test]
fn uniform_streams_are_exactly_spaced() {
    let mut rng = StdRng::seed_from_u64(0x5c4ed04);
    for _ in 0..CASES {
        let qps = rng.gen_range(1.0f64..500.0);
        let n = rng.gen_range(2usize..200);
        let w = WorkloadSpec::uniform("m", qps, n);
        let q = w.generate(0);
        let dt = 1.0 / qps;
        for pair in q.windows(2) {
            let gap = pair[1].arrival.since(pair[0].arrival);
            assert!((gap - dt).abs() < 1e-9);
        }
    }
}

/// The block's flat latency on `cores` cores, rated from scratch: the
/// plain per-core-count scan Algorithm 2's sizing must reproduce.
fn scan_flat_latency_s(
    model: &CompiledModel,
    (start, end): (usize, usize),
    versions: &[usize],
    pressure: Interference,
    cores: u32,
    machine: &MachineConfig,
) -> f64 {
    (start..end)
        .map(|i| {
            let profile = &model.layers[i].versions[versions[i]].profile;
            execute(profile, cores, pressure, machine).latency_s + machine.dispatch_overhead_s
        })
        .sum()
}

#[test]
fn one_sweep_block_sizing_matches_a_per_core_count_scan() {
    let machine = MachineConfig::threadripper_3990x();
    let model = compile_model(
        &veltair_models::googlenet(),
        &machine,
        &CompilerOptions::fast(),
    );
    let n = model.layers.len();
    let mut rng = StdRng::seed_from_u64(0x5c4ed05);
    for _ in 0..CASES / 4 {
        let start = rng.gen_range(0..n);
        let block = (start, rng.gen_range(start + 1..n + 1));
        let versions =
            select_at_level(&model, rng.gen_range(0.0f64..1.0), rng.gen_range(0..2) == 0);
        let pressure = Interference {
            cache_frac: rng.gen_range(0.0f64..1.0),
            bw_frac: rng.gen_range(0.0f64..1.0),
        };
        let flat: Vec<f64> = (1..=machine.cores)
            .map(|p| scan_flat_latency_s(&model, block, &versions, pressure, p, &machine))
            .collect();
        let at = |p: u32| flat[p as usize - 1];

        let budget = model.layers[block.0..block.1]
            .iter()
            .map(|l| l.qos_share_s)
            .sum::<f64>()
            * QOS_PLAN_MARGIN;
        let min_cores = (1..=machine.cores)
            .find(|&p| at(p) <= budget)
            .unwrap_or(machine.cores);
        assert_eq!(
            block_core_requirement(&model, block.0, block.1, &versions, pressure, &machine),
            min_cores
        );

        // The boost: smallest allocation in [min, cap] within 5 % of the
        // best one.
        let cap = rng.gen_range(1..machine.cores + 1);
        let boosted = if cap <= min_cores {
            min_cores
        } else {
            let best = (min_cores..=cap).map(at).fold(f64::INFINITY, f64::min);
            (min_cores..=cap)
                .find(|&p| at(p) <= best * 1.05)
                .unwrap_or(min_cores)
        };
        assert_eq!(
            boosted_block_cores(
                &model, block.0, block.1, &versions, pressure, min_cores, cap, &machine
            ),
            boosted
        );

        let p = rng.gen_range(1..machine.cores + 1);
        assert_eq!(
            block_flat_latency_s(&model, block.0, block.1, &versions, pressure, p, &machine)
                .to_bits(),
            at(p).to_bits()
        );
    }
}
