//! Golden bit-identity pin: every field of the serving report, hashed,
//! for every policy on the four-model overload mix.
//!
//! The equivalence suites compare one mode of the runtime with another
//! (stepped against batch, indexed against scan, parallel against
//! sequential), so a change that moves every mode the same way passes
//! them all. This suite compares against recorded constants instead. The
//! hash covers the same fields as the benchmark's `sim_digest`: per-model
//! counts and the bit pattern of every latency sample, conflicts,
//! dispatches, preemptions, core-seconds, makespan, peak and average
//! cores. A companion pin records when each of those drivers, drained at
//! 0.2 s, first reports idle (to the 0.1 ms slice): the instant a draining
//! fleet node retires, which no report field shows.
//!
//! A second pin covers the compiled artifacts themselves: every zoo model
//! compiled on two machines, hashed down to each retained version's
//! schedule, kernel profile and lookup-table entries.
//!
//! A third pin covers fleet runs: the merged and per-node reports plus the
//! front-door and lifecycle outcomes, for every router under both
//! admission controllers, through a scripted churn run, and on a fleet
//! whose nodes serve code compiled for their own machines.
//!
//! A speed-only change must leave every constant untouched. A change that
//! is meant to move simulated results re-records them and says why.

use veltair::compiler::{interference_bins, CompiledLayer, CORE_CLASSES};
use veltair::prelude::*;

/// All nine policies of the evaluation (Table 1 + §3.2 granularities).
const POLICIES: [Policy; 9] = [
    Policy::ModelFcfs,
    Policy::Planaria,
    Policy::Prema,
    Policy::AiMt,
    Policy::Parties,
    Policy::FixedBlock(6),
    Policy::VeltairAs,
    Policy::VeltairAc,
    Policy::VeltairFull,
];

const MIX: [&str; 4] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50", "googlenet"];
const QUERIES: usize = 300;
const SEEDS: [u64; 2] = [3, 17];

/// Recorded digests: the nine policies in `POLICIES` order, then
/// Veltair-FULL under a trained counter-proxy monitor (the one monitor
/// that reads the synthesized performance counters). Identical in debug
/// and release builds.
const GOLDEN: [u64; 10] = [
    0xec49_76a4_6646_af4c,
    0xbf25_2831_59ae_82cf,
    0x4354_41ed_7be9_3917,
    0xaa3c_d4ad_c2fc_23e1,
    0xa019_afd9_31ac_3b6d,
    0xd93c_dd2b_886d_f823,
    0x9a2f_48a6_aca8_6501,
    0x9d65_3843_af3c_21a7,
    0x53eb_064b_685b_b182,
    0x93a4_68d7_4b3c_bd01,
];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn report(&mut self, r: &ServingReport) {
        self.u64(r.per_model.len() as u64);
        for (name, m) in &r.per_model {
            self.str(name);
            self.u64(m.queries as u64);
            self.u64(m.satisfied as u64);
            self.f64(m.latency_sum_s);
            self.f64(m.latency_max_s);
            self.u64(m.latencies_s.len() as u64);
            for &l in &m.latencies_s {
                self.f64(l);
            }
        }
        self.u64(r.conflicts);
        self.u64(r.dispatches);
        self.u64(r.preemptions);
        self.f64(r.core_seconds);
        self.f64(r.makespan_s);
        self.u64(u64::from(r.peak_cores));
        self.f64(r.avg_cores);
    }

    fn layer(&mut self, l: &CompiledLayer) {
        self.str(&l.name);
        self.f64(l.flops);
        self.f64(l.bytes);
        self.f64(l.qos_share_s);
        self.u64(u64::from(l.qos_feasible));
        self.u64(l.versions.len() as u64);
        for v in &l.versions {
            match v.schedule {
                Some(s) => {
                    self.u64(1);
                    for x in [s.tm, s.tn, s.tk, s.unroll] {
                        self.u64(x as u64);
                    }
                }
                None => self.u64(0),
            }
            let p = &v.profile;
            self.f64(p.flops);
            self.f64(p.compute_efficiency);
            self.u64(u64::from(p.parallel_chunks));
            self.f64(p.footprint_base_bytes);
            self.f64(p.footprint_per_core_bytes);
            self.f64(p.min_traffic_bytes);
            self.f64(p.spill_traffic_bytes);
            self.f64(v.parallelism);
            self.f64(v.locality_bytes);
        }
        for cores in CORE_CLASSES {
            for level in interference_bins() {
                self.u64(l.version_for(level, cores) as u64);
            }
        }
        for v in 0..l.versions.len() {
            for level in interference_bins() {
                self.u64(u64::from(l.core_requirement(v, level)));
            }
        }
    }

    /// A fleet run, as the benchmark's fleet digest hashes it: every
    /// report, routed counts, node states, the front-door totals, and of
    /// the coordinator counters only the decision and lifecycle counts.
    /// Examined keys, index updates and round trips measure how the
    /// coordinator found its answer, not the answer.
    fn fleet(&mut self, r: &FleetReport) {
        self.report(&r.merged);
        for node in &r.per_node {
            self.report(node);
        }
        for &n in &r.routed_per_node {
            self.u64(n);
        }
        for s in &r.node_states {
            self.str(s.name());
        }
        self.u64(r.submitted);
        self.u64(r.rerouted);
        self.u64(r.shed);
        for (model, n) in &r.shed_per_model {
            self.str(model);
            self.u64(*n);
        }
        self.u64(r.deferrals);
        let c = &r.coordinator;
        for v in [
            c.routing_decisions,
            c.nodes_added,
            c.nodes_drained,
            c.nodes_killed,
        ] {
            self.u64(v);
        }
    }

    fn model(&mut self, m: &CompiledModel) {
        self.str(&m.name);
        self.u64(m.layers.len() as u64);
        for l in &m.layers {
            self.layer(l);
        }
        for c in m.model_cores {
            self.u64(u64::from(c));
        }
    }

    /// Every version's [`CompiledLayer::core_terms`] table, in layer and
    /// version order.
    fn core_terms(&mut self, m: &CompiledModel) {
        for l in &m.layers {
            for v in 0..l.versions.len() {
                let table = l.core_terms(v);
                self.u64(table.len() as u64);
                for t in table {
                    self.f64(t.compute_s);
                    self.f64(t.l3_s);
                }
            }
        }
    }
}

fn digest(models: &[CompiledModel], traces: &[Vec<QuerySpec>], cfg: &SimConfig) -> u64 {
    let mut h = Fnv::new();
    for queries in traces {
        let report = veltair::sched::simulate(models, queries, cfg).expect("valid workload");
        assert_eq!(
            report.total_queries(),
            queries.len(),
            "every query completes"
        );
        h.report(&report);
    }
    h.0
}

/// The mix compiled for the 3990X and one trace per seed in `SEEDS`.
fn overload_mix() -> (MachineConfig, Vec<CompiledModel>, Vec<Vec<QuerySpec>>) {
    let machine = MachineConfig::threadripper_3990x();
    let specs: Vec<ModelSpec> = MIX.iter().map(|n| by_name(n).expect("zoo model")).collect();
    let models: Vec<CompiledModel> = specs
        .iter()
        .map(|s| compile_model(s, &machine, &CompilerOptions::fast()))
        .collect();
    let streams: Vec<(&str, f64)> = specs
        .iter()
        .map(|s| (s.graph.name.as_str(), 1.0 / s.qos_ms))
        .collect();
    let workload = WorkloadSpec::mix(&streams, QUERIES).scaled_to(200.0);
    let traces: Vec<Vec<QuerySpec>> = SEEDS.iter().map(|&s| workload.generate(s)).collect();
    (machine, models, traces)
}

#[test]
fn every_policy_reproduces_its_recorded_report_digest() {
    let (machine, models, traces) = overload_mix();

    let mut configs: Vec<(String, SimConfig)> = POLICIES
        .iter()
        .map(|&p| (p.name(), SimConfig::new(machine.clone(), p)))
        .collect();
    let proxy = train_proxy(&models, &machine, 384, 0xAB1B);
    configs.push((
        "Veltair-FULL + counter proxy".into(),
        SimConfig::new(machine.clone(), Policy::VeltairFull).with_proxy(proxy),
    ));

    let measured: Vec<u64> = configs
        .iter()
        .map(|(_, cfg)| digest(&models, &traces, cfg))
        .collect();
    let drifted: Vec<String> = configs
        .iter()
        .zip(measured.iter().zip(GOLDEN))
        .filter(|(_, (got, want))| **got != *want)
        .map(|((name, _), (got, want))| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "simulated reports drifted from the recorded digests:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// Recorded drain-idle digests: the nine policies in `POLICIES` order,
/// each over seeds 3 and 17. Identical in debug and release builds.
const IDLE_GOLDEN: [u64; 9] = [
    0x06da_9056_1ab7_75ce,
    0xac47_13fb_35c5_3c03,
    0xeae9_4cf8_fc25_4f21,
    0xeae9_4cf8_fc25_4f21,
    0xeae9_4cf8_fc25_4f21,
    0xfad6_b448_ed73_6a87,
    0xcab7_cea7_bbd2_06bd,
    0x8f87_b880_d2cd_7065,
    0x0815_3693_fa11_1fa9,
];

/// Withdraws the waiting work at 0.2 s, as a fleet drain does, then runs
/// in 0.1 ms slices and returns the first slice after which the driver
/// reports idle: the instant a draining fleet node retires.
fn drained_idle_slice(models: &[CompiledModel], queries: &[QuerySpec], cfg: SimConfig) -> u64 {
    const DRAIN_AT_S: f64 = 0.2;
    const SLICE_S: f64 = 1e-4;
    let mut driver = Driver::new(models, queries, cfg).expect("valid workload");
    driver
        .run_until(SimTime(DRAIN_AT_S))
        .expect("finite target");
    driver.extract_waiting();
    let mut slice = 0;
    while !driver.is_idle() {
        slice += 1;
        driver
            .run_until(SimTime(DRAIN_AT_S + slice as f64 * SLICE_S))
            .expect("finite target");
    }
    slice
}

#[test]
fn every_policy_goes_idle_after_a_drain_at_its_recorded_slice() {
    let (machine, models, traces) = overload_mix();

    let mut measured = Vec::new();
    let mut drifted = Vec::new();
    for (policy, want) in POLICIES.iter().zip(IDLE_GOLDEN) {
        let slices: Vec<u64> = traces
            .iter()
            .map(|queries| {
                drained_idle_slice(&models, queries, SimConfig::new(machine.clone(), *policy))
            })
            .collect();
        let mut h = Fnv::new();
        for &s in &slices {
            h.u64(s);
        }
        if h.0 != want {
            drifted.push(format!(
                "{}: idle at slices {slices:?}, {:#018x}, recorded {want:#018x}",
                policy.name(),
                h.0
            ));
        }
        measured.push(h.0);
    }
    assert!(
        drifted.is_empty(),
        "drained drivers went idle at other instants:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// The mid-run policy walk: one driver on the seed-17 trace starts under
/// Veltair-FULL and swaps to each of these in turn, one every
/// `WALK_EVERY_S`. It reaches every dispatch family from every other,
/// including PREMA to AI-MT and back.
const WALK: [Policy; 11] = [
    Policy::ModelFcfs,
    Policy::Planaria,
    Policy::Prema,
    Policy::AiMt,
    Policy::Prema,
    Policy::Parties,
    Policy::FixedBlock(6),
    Policy::VeltairAs,
    Policy::VeltairAc,
    Policy::AiMt,
    Policy::VeltairFull,
];
const WALK_EVERY_S: f64 = 0.12;

/// Recorded digest of the walk's report. Identical in debug and release
/// builds.
const WALK_GOLDEN: u64 = 0x2149_5946_5b9e_5362;

#[test]
fn a_mid_run_walk_through_every_policy_family_reproduces_its_recorded_digest() {
    let (machine, models, traces) = overload_mix();
    let queries = &traces[1];
    let cfg = SimConfig::new(machine, Policy::VeltairFull);
    let mut driver = Driver::new(&models, queries, cfg).expect("valid workload");
    let check = |driver: &Driver<'_>| {
        if let Err(rule) = driver.check_invariants() {
            panic!("{} at {} s: {rule}", driver.policy().name(), driver.now().0);
        }
    };
    for (i, &policy) in WALK.iter().enumerate() {
        let at = SimTime(WALK_EVERY_S * (i + 1) as f64);
        while driver
            .state()
            .events
            .peek_time()
            .is_some_and(|next| next <= at)
        {
            driver.step();
            check(&driver);
        }
        driver.run_until(at).expect("finite target");
        assert!(
            !driver.is_idle(),
            "the run ended before the swap to {}",
            policy.name()
        );
        driver.set_policy(policy);
        check(&driver);
    }
    while driver.step().is_some() {
        check(&driver);
    }
    let (report, _) = driver.finish();
    assert_eq!(
        report.total_queries(),
        queries.len(),
        "every query completes"
    );
    assert!(report.preemptions > 0, "the walk never preempted");
    let mut h = Fnv::new();
    h.report(&report);
    assert_eq!(
        h.0, WALK_GOLDEN,
        "the walk drifted: {:#018x}, recorded {WALK_GOLDEN:#018x}",
        h.0
    );
}

/// Recorded artifact digests: every model of `all_models()` in catalog
/// order, compiled with `CompilerOptions::fast()` on the 3990X and then on
/// the 8-core desktop. Identical in debug and release builds.
const ARTIFACT_GOLDEN: [u64; 14] = [
    0x0d98_dc7e_1934_645c,
    0x7654_a785_8b35_c4cb,
    0x6d4a_ebca_805f_ddd4,
    0xdb1d_90c8_a342_f279,
    0x099e_f186_c29b_197a,
    0x5f8b_ea4a_2884_e5ff,
    0xdb0b_ba1b_cb1e_2c10,
    0xc874_e8a7_4723_f2f2,
    0x3dbe_786c_75c1_2026,
    0xa8d6_a11a_b84e_cdef,
    0x8e54_4580_8dc8_061a,
    0x1eaf_24f4_803b_7f7a,
    0x81f6_7a53_f5b1_cf3a,
    0x9735_38f5_0280_759c,
];

#[test]
fn every_zoo_artifact_reproduces_its_recorded_digest() {
    let machines = [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
    ];
    let mut measured = Vec::new();
    let mut drifted = Vec::new();
    for machine in &machines {
        for spec in all_models() {
            let mut h = Fnv::new();
            h.model(&compile_model(&spec, machine, &CompilerOptions::fast()));
            let want = ARTIFACT_GOLDEN[measured.len()];
            if h.0 != want {
                drifted.push(format!(
                    "{} on {} cores: {:#018x}, recorded {want:#018x}",
                    spec.graph.name, machine.cores, h.0
                ));
            }
            measured.push(h.0);
        }
    }
    assert!(
        drifted.is_empty(),
        "compiled artifacts drifted from the recorded digests:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// Recorded digests of the four-model mix (`MIX` order) compiled with
/// `CompilerOptions::thorough()`, the benchmark's fleet compile, on the
/// 3990X and then on the 8-core desktop. Each hashes the artifact as
/// `ARTIFACT_GOLDEN` does plus every version's core-terms table. Recorded
/// before the compiler's frontier, seen-set, elite-sort, lowering and
/// wave-count speedups. Identical in debug and release builds.
const THOROUGH_GOLDEN: [u64; 8] = [
    0xccd7_e936_b8e1_2594,
    0xe55e_b492_89b4_2bcd,
    0xcfa3_87f8_13e0_e2e7,
    0x9ddc_1d06_c6ef_4fb5,
    0xc2a9_f94f_874e_c3de,
    0x1c20_48ac_7e8c_8377,
    0x922d_27f1_5d98_cfcd,
    0x62a9_94e1_29f5_ebf2,
];

#[test]
fn thorough_mix_artifacts_reproduce_their_recorded_digest() {
    let machines = [
        MachineConfig::threadripper_3990x(),
        MachineConfig::desktop_8core(),
    ];
    let mut measured = Vec::new();
    let mut drifted = Vec::new();
    for machine in &machines {
        for name in MIX {
            let spec = by_name(name).expect("zoo model");
            let model = compile_model(&spec, machine, &CompilerOptions::thorough());
            let mut h = Fnv::new();
            h.model(&model);
            h.core_terms(&model);
            let want = THOROUGH_GOLDEN[measured.len()];
            if h.0 != want {
                drifted.push(format!(
                    "{name} on {} cores: {:#018x}, recorded {want:#018x}",
                    machine.cores, h.0
                ));
            }
            measured.push(h.0);
        }
    }
    assert!(
        drifted.is_empty(),
        "thorough artifacts drifted from the recorded digests:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// The three models of the mix every fleet pin serves.
const FLEET_MODELS: [&str; 3] = ["mobilenet_v2", "tiny_yolo_v2", "resnet50"];

/// The fleet models, compiled once for the 3990X.
fn fleet_models() -> Vec<CompiledModel> {
    let machine = MachineConfig::threadripper_3990x();
    FLEET_MODELS
        .iter()
        .map(|n| {
            compile_model(
                &by_name(n).expect("zoo model"),
                &machine,
                &CompilerOptions::fast(),
            )
        })
        .collect()
}

/// A heterogeneous four-node fleet: two 3990X (FULL, PREMA) and two 8-core
/// desktops (FULL, Planaria).
fn fleet_nodes() -> Vec<NodeSpec> {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    vec![
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("legacy-0", big, Policy::Prema),
        NodeSpec::new("edge-0", edge.clone(), Policy::VeltairFull),
        NodeSpec::new("edge-1", edge, Policy::Planaria),
    ]
}

fn bursty_fleet_workload(queries: usize) -> WorkloadSpec {
    let streams: Vec<(&str, f64)> = FLEET_MODELS.iter().map(|n| (*n, 40.0)).collect();
    WorkloadSpec::try_bursty_mix(&streams, queries, 0.3, 0.7)
        .expect("valid bursty mix")
        .scaled_to(250.0)
}

fn steady_fleet_workload(queries: usize) -> WorkloadSpec {
    WorkloadSpec::mix(&[("mobilenet_v2", 120.0), ("tiny_yolo_v2", 80.0)], queries)
}

const FLEET_ROUTERS: [RouterKind; 4] = [
    RouterKind::RoundRobin,
    RouterKind::LeastOutstanding,
    RouterKind::PowerOfTwoChoices { seed: 5 },
    RouterKind::InterferenceAware,
];

const SLO_AWARE: AdmissionKind = AdmissionKind::SloAware(SloAdmissionConfig {
    shed_threshold: 0.9,
    defer_threshold: 0.6,
    defer_s: 0.05,
    max_defers: 2,
});

const FLEET_ADMISSIONS: [AdmissionKind; 2] = [AdmissionKind::AdmitAll, SLO_AWARE];

/// The four-node fleet serving one shared registry.
fn fleet(models: &[CompiledModel], router: RouterKind, admission: AdmissionKind) -> Fleet<'_> {
    Fleet::new(models, &fleet_nodes(), router.build(), admission.build()).expect("valid fleet")
}

/// Serves `workload` on `fleet` and returns its final report.
fn serve(mut fleet: Fleet<'_>, workload: &WorkloadSpec, seed: u64) -> FleetReport {
    fleet.submit_stream(workload, seed).expect("registered");
    fleet.finish()
}

/// Recorded fleet digests: `FLEET_ROUTERS` × `FLEET_ADMISSIONS` (admission
/// varying fastest), each over a bursty and a steady 60-query stream on
/// seeds 11, 42 and 97. Identical in debug and release builds.
const FLEET_GOLDEN: [u64; 8] = [
    0xdba2_4d2d_44d8_c715,
    0x9d13_8bbb_50e2_7dda,
    0x28c9_e883_7adb_4edc,
    0x968e_57e4_dda7_0652,
    0x8ec2_e139_61b5_f188,
    0x94ab_8d4e_b5ff_2f5a,
    0x978a_9b35_266a_4887,
    0xb754_26d9_2478_24a6,
];

#[test]
fn every_router_and_admission_reproduces_its_recorded_fleet_digest() {
    let models = fleet_models();
    let workloads = [bursty_fleet_workload(60), steady_fleet_workload(60)];
    let mut measured = Vec::new();
    let mut drifted = Vec::new();
    for router in FLEET_ROUTERS {
        for admission in FLEET_ADMISSIONS {
            let mut h = Fnv::new();
            for workload in &workloads {
                for seed in [11, 42, 97] {
                    h.fleet(&serve(fleet(&models, router, admission), workload, seed));
                }
            }
            let want = FLEET_GOLDEN[measured.len()];
            if h.0 != want {
                drifted.push(format!(
                    "{} / {admission:?}: {:#018x}, recorded {want:#018x}",
                    router.name(),
                    h.0
                ));
            }
            measured.push(h.0);
        }
    }
    assert!(
        drifted.is_empty(),
        "fleet reports drifted from the recorded digests:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// A scripted churn run on the four-node fleet: a stall and a crash from
/// a failure plan, a fast-ticking autoscaler whose floor sits above the
/// seed roster, and a manual join, drain and kill mid-stream.
fn churn_report(models: &[CompiledModel], router: RouterKind, seed: u64) -> FleetReport {
    let plan = FailurePlan::new()
        .try_stall(0.06, 0, 0.05)
        .and_then(|p| p.try_crash(0.18, 3))
        .expect("valid plan");
    let policy = ScalePolicy::try_new(
        AutoscalerConfig::default(),
        NodeSpec::new(
            "elastic",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ),
        6,
        8,
        0.05,
        0.02,
    )
    .expect("valid policy");
    let mut session = fleet(models, router, SLO_AWARE);
    session.set_failure_plan(plan);
    session.set_scale_policy(policy).expect("valid template");
    session
        .submit_stream(&bursty_fleet_workload(80), seed)
        .expect("registered");
    session.run_until(0.05).expect("finite target");
    let joiner = session
        .add_node(&NodeSpec::new(
            "joiner-0",
            MachineConfig::desktop_8core(),
            Policy::VeltairFull,
        ))
        .expect("valid node");
    session.run_until(0.12).expect("finite target");
    session.drain_node(1).expect("drainable");
    session.run_until(0.2).expect("finite target");
    session.kill_node(joiner).expect("known node");
    session.finish()
}

/// Recorded churn digests: least-outstanding, then interference-aware,
/// each over seeds 13 and 59. Identical in debug and release builds.
const CHURN_GOLDEN: [u64; 2] = [0x45fe_73b8_b094_d3cd, 0x3adc_0dc6_8f23_b68d];

#[test]
fn scripted_churn_reproduces_its_recorded_fleet_digest() {
    let models = fleet_models();
    let mut measured = Vec::new();
    let mut drifted = Vec::new();
    for router in [RouterKind::LeastOutstanding, RouterKind::InterferenceAware] {
        let mut h = Fnv::new();
        for seed in [13, 59] {
            let report = churn_report(&models, router, seed);
            assert_eq!(report.coordinator.nodes_killed, 2, "the script lost a kill");
            h.fleet(&report);
        }
        let want = CHURN_GOLDEN[measured.len()];
        if h.0 != want {
            drifted.push(format!(
                "{}: {:#018x}, recorded {want:#018x}",
                router.name(),
                h.0
            ));
        }
        measured.push(h.0);
    }
    assert!(
        drifted.is_empty(),
        "churn reports drifted from the recorded digests:\n{}\nall measured: {measured:#x?}",
        drifted.join("\n")
    );
}

/// Recorded per-machine digest: `fleet_nodes()` with the 3990X nodes
/// serving flagship-compiled code and the desktops desktop-compiled code,
/// both compiled through one `CompilerService`, behind interference-aware
/// routing and `SLO_AWARE` admission, over the bursty and the steady
/// 60-query streams on seeds 11 and 42. Identical in debug and release
/// builds.
const PER_MACHINE_GOLDEN: u64 = 0x0a41_334f_0b19_2a72;

#[test]
fn per_machine_registries_reproduce_their_recorded_fleet_digest() {
    let flagship = MachineConfig::threadripper_3990x();
    let mut service = CompilerService::new(CompilerOptions::fast());
    let mut registry = |machine: &MachineConfig| -> Vec<CompiledModel> {
        FLEET_MODELS
            .iter()
            .map(|n| service.compile(&by_name(n).expect("zoo model"), machine))
            .collect()
    };
    let big = registry(&flagship);
    let edge = registry(&MachineConfig::desktop_8core());
    let nodes = fleet_nodes();
    let mut h = Fnv::new();
    for workload in [bursty_fleet_workload(60), steady_fleet_workload(60)] {
        for seed in [11, 42] {
            let node_models = nodes
                .iter()
                .map(|n| {
                    if n.config.machine == flagship {
                        big.as_slice()
                    } else {
                        edge.as_slice()
                    }
                })
                .collect();
            let fleet = Fleet::with_node_registries(
                &big,
                node_models,
                &nodes,
                RouterKind::InterferenceAware.build(),
                SLO_AWARE.build(),
            )
            .expect("valid fleet");
            h.fleet(&serve(fleet, &workload, seed));
        }
    }
    assert_eq!(
        h.0, PER_MACHINE_GOLDEN,
        "per-machine fleet reports drifted: {:#018x}, recorded {PER_MACHINE_GOLDEN:#018x}",
        h.0
    );
}
