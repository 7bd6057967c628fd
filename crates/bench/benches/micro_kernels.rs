//! Criterion micro-benchmarks of the hot kernels behind the figures, plus
//! the §5.5 scheduling-overhead check (< 0.1 ms per served model).

use criterion::{criterion_group, criterion_main, Criterion};
use veltair_compiler::{compile_model, search, CompilerOptions};
use veltair_core::experiments::ExpContext;
use veltair_core::train_proxy;
use veltair_proxy::CounterWindow;
use veltair_sched::layer_block::form_blocks;
use veltair_sim::{
    execute, CoreTerms, Interference, LatencyModel, MachineConfig, PerfCounters, SimTime,
    SplitEventQueue,
};
use veltair_tensor::{FeatureMap, FusedUnit, GemmView, Layer};

fn bench_execute(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let conv = Layer::conv2d(
        "c",
        FeatureMap::nchw(1, 256, 14, 14),
        256,
        (3, 3),
        (1, 1),
        (1, 1),
    );
    let g = GemmView::of(&conv).unwrap();
    let unit = FusedUnit::solo(conv);
    let s = veltair_compiler::Schedule::new(&g, 14, 64, 512, 8);
    let profile = veltair_compiler::lower_gemm(&unit, &g, &s);
    c.bench_function("machine_model_execute", |b| {
        b.iter(|| {
            execute(
                std::hint::black_box(&profile),
                16,
                Interference::level(0.5),
                &machine,
            )
        })
    });
    // The same rating through the profile's core-terms table, as the
    // serving runtime rates a model compiled for the machine it serves on.
    let terms = CoreTerms::table(&profile, &machine);
    c.bench_function("machine_model_execute_prepared", |b| {
        b.iter(|| {
            LatencyModel::with_terms(
                std::hint::black_box(&profile),
                &terms,
                Interference::level(0.5),
                &machine,
            )
            .execute(16)
        })
    });
}

fn bench_autoscheduler(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let conv = Layer::conv2d(
        "c",
        FeatureMap::nchw(1, 256, 14, 14),
        256,
        (3, 3),
        (1, 1),
        (1, 1),
    );
    let g = GemmView::of(&conv).unwrap();
    let unit = FusedUnit::solo(conv);
    let opts = CompilerOptions {
        search_iterations: 128,
        ..CompilerOptions::fast()
    };
    c.bench_function("auto_scheduler_128_trials", |b| {
        b.iter(|| search(&unit, &g, &machine, &opts, 1))
    });
}

fn bench_block_formation(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let model = compile_model(
        &veltair_models::resnet50(),
        &machine,
        &CompilerOptions::fast(),
    );
    c.bench_function("layer_block_formation_resnet50", |b| {
        b.iter(|| form_blocks(std::hint::black_box(&model), 0.4, true, 6, &machine))
    });
    // §5.5: the runtime scheduling overhead (block formation + proxy) must
    // stay under 0.1 ms per served model.
    let start = std::time::Instant::now();
    let reps = 200;
    for _ in 0..reps {
        let _ = form_blocks(&model, 0.4, true, 6, &machine);
    }
    let per_model = start.elapsed().as_secs_f64() / f64::from(reps);
    println!(
        "scheduling overhead check: {:.3} ms per model (paper bound: 0.1 ms)",
        per_model * 1e3
    );
}

fn bench_proxy_predict(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let model = compile_model(
        &veltair_models::mobilenet_v2(),
        &machine,
        &CompilerOptions::fast(),
    );
    let proxy = train_proxy(&[model], &machine, 128, 3);
    let counters = PerfCounters {
        l3_accesses: 1.0e7,
        l3_misses: 4.0e6,
        instructions: 1.0e9,
        cycles: 8.0e8,
        flops: 5.0e9,
    };
    let w = CounterWindow::from_counters(&counters, 1.0);
    c.bench_function("interference_proxy_predict", |b| {
        b.iter(|| proxy.predict(std::hint::black_box(&w)))
    });
}

fn bench_serving_simulation(c: &mut Criterion) {
    let ctx = ExpContext::new();
    let engine = ctx.engine(veltair_sched::Policy::VeltairFull, &["mobilenet_v2"]);
    let workload = veltair_sched::WorkloadSpec::single("mobilenet_v2", 100.0, 50);
    c.bench_function("serve_50_queries_full_policy", |b| {
        b.iter(|| engine.run(std::hint::black_box(&workload), 5))
    });
}

fn bench_versions(c: &mut Criterion) {
    let machine = MachineConfig::threadripper_3990x();
    let model = compile_model(
        &veltair_models::resnet50(),
        &machine,
        &CompilerOptions::fast(),
    );
    c.bench_function("version_and_core_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for l in &model.layers {
                let v = l.version_for_level(std::hint::black_box(0.6));
                acc += l.core_requirement(v, 0.6);
            }
            acc
        })
    });
}

/// The unit-check pattern of `Driver::step` on 16 in-flight units: each
/// iteration re-arms one random unit's pending check (a re-rate), pops the
/// earliest check and re-arms it (the next unit starts), at random delays.
fn bench_event_queue(c: &mut Criterion) {
    const IDS: usize = 16;
    // xorshift64: an id from the low bits, a delay in [1 us, 1 ms) from
    // the high ones.
    let mut state = 0x5eed_u64;
    let draws: Vec<(usize, f64)> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            ((state % IDS as u64) as usize, 1e-6 + unit * (1e-3 - 1e-6))
        })
        .collect();
    let mut queue = SplitEventQueue::new();
    let mut now = SimTime::ZERO;
    for (id, &(_, eta)) in draws.iter().take(IDS).enumerate() {
        queue.arm(id, now.after(eta), id);
    }
    let mut cursor = 0;
    c.bench_function("split_event_queue_rearm", |b| {
        b.iter(|| {
            let (id, eta) = draws[cursor % draws.len()];
            cursor += 1;
            queue.arm(id, now.after(eta), id);
            let (t, popped) = queue.pop().expect("every unit has a check armed");
            now = t;
            queue.arm(popped, now.after(eta), popped);
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = bench_execute, bench_autoscheduler, bench_block_formation,
              bench_proxy_predict, bench_serving_simulation, bench_versions,
              bench_event_queue
}
criterion_main!(micro);
