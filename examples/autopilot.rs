//! Auto-piloting scenario from the paper's introduction (§2.1): a smart
//! vehicle runs object sensing, tracking, and decision sub-tasks in
//! parallel on one shared CPU — every frame fans out several latency-
//! critical inferences that must land within their QoS windows.
//!
//! ```text
//! cargo run --release --example autopilot
//! ```

use veltair::prelude::*;
use veltair::sched::QuerySpec;
use veltair::sim::SimTime;

fn main() {
    let machine = MachineConfig::threadripper_3990x();
    let opts = CompilerOptions::fast();

    // The vehicle's perception stack: detection at 30 fps on two camera
    // directions, plus a classifier for sign recognition.
    let names = ["tiny_yolo_v2", "mobilenet_v2", "resnet50"];
    let compiled: Vec<CompiledModel> = names
        .iter()
        .map(|n| compile_model(&by_name(n).expect("zoo model"), &machine, &opts))
        .collect();

    // 30 fps frames for 3 seconds: each frame launches front + rear
    // detection, one sign classification, and every 5th frame a heavier
    // scene classification.
    let mut queries = Vec::new();
    for frame in 0..90u32 {
        let t = f64::from(frame) / 30.0;
        queries.push(QuerySpec {
            model: "tiny_yolo_v2".into(),
            arrival: SimTime(t),
        });
        queries.push(QuerySpec {
            model: "tiny_yolo_v2".into(),
            arrival: SimTime(t + 1e-4),
        });
        queries.push(QuerySpec {
            model: "mobilenet_v2".into(),
            arrival: SimTime(t + 2e-4),
        });
        if frame % 5 == 0 {
            queries.push(QuerySpec {
                model: "resnet50".into(),
                arrival: SimTime(t + 3e-4),
            });
        }
    }

    for policy in [Policy::Planaria, Policy::VeltairFull] {
        let cfg = veltair::sched::SimConfig::new(machine.clone(), policy);
        let report = veltair::sched::simulate(&compiled, &queries, &cfg).expect("valid workload");
        println!("== {} ==", policy.name());
        for name in names {
            println!(
                "  {:<14} {:>5} frames, {:>5.1}% in budget, mean {:>6.2} ms (QoS {} ms)",
                name,
                report.per_model[name].queries,
                report.qos_satisfaction(name) * 100.0,
                report.avg_latency_s(name) * 1e3,
                by_name(name).unwrap().qos_ms
            );
        }
        println!(
            "  total: {:.1}% satisfied, {} conflicts, peak {} cores\n",
            report.overall_satisfaction() * 100.0,
            report.conflicts,
            report.peak_cores
        );
    }
}
