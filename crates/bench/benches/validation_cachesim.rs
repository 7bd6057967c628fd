//! Validates the analytic DRAM-traffic model against the set-associative
//! LRU cache simulator. The reproduction replaces the paper's physical
//! 3990X with that closed-form model, which is sound only if it tracks
//! the misses a real cache takes. For a ladder of schedules this sweeps
//! cache capacities and reports the analytic-vs-measured traffic
//! correlation and the contention displacement a streaming aggressor
//! causes.

use veltair_cachesim::{
    interleave_proportional, validate_schedule, CacheConfig, GemmDims, GemmTrace, TraceScale,
};
use veltair_compiler::Schedule;
use veltair_tensor::{FeatureMap, GemmView, Layer};

fn main() {
    let dims = GemmDims::new(128, 128, 128, 4);
    let probe = Layer::conv2d(
        "p",
        FeatureMap::nchw(1, 128, 16, 8),
        128,
        (1, 1),
        (1, 1),
        (0, 0),
    );
    let g = GemmView::of(&probe).expect("gemm view");

    println!("==== Traffic-model validation (analytic vs LRU cache simulation) ====");
    for (tm, tn, tk) in [(16, 16, 16), (32, 32, 64), (64, 64, 128), (128, 128, 128)] {
        let s = Schedule::new(&g, tm, tn, tk, 4);
        let report = validate_schedule(dims, s);
        println!(
            "schedule {s}: tile {:>7} B, correlation {:.3} over {} capacities",
            report.tile_bytes,
            report.correlation(),
            report.points.len()
        );
        for p in &report.points {
            println!(
                "    cache {:>9} B  analytic {:>10.0} B  measured {:>10.0} B",
                p.cache_bytes, p.analytic_bytes, p.measured_bytes
            );
        }
    }

    println!("\n==== Contention displacement (victim GEMM + streaming aggressor) ====");
    let victim = GemmTrace::new(
        dims,
        Schedule::new(&g, 32, 32, 64, 4),
        TraceScale::default(),
    );
    let cfg = CacheConfig::l3_slice(512 * 1024);
    let addrs = victim.addresses();
    let (solo, _) = interleave_proportional(std::slice::from_ref(&addrs), cfg);
    for (label, lines) in [("mild", 2_000u64), ("medium", 8_000), ("harsh", 16_000)] {
        let aggressor: Vec<u64> = (0..8).flat_map(|_| (0..lines).map(|i| i * 64)).collect();
        let (stats, _) = interleave_proportional(&[addrs.clone(), aggressor], cfg);
        println!(
            "{label:>7} aggressor ({lines} lines): victim misses {} -> {} ({:+.1}%)",
            solo[0].misses,
            stats[0].misses,
            (stats[0].misses as f64 / solo[0].misses as f64 - 1.0) * 100.0
        );
    }
}
