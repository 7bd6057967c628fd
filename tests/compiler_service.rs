//! CompilerService guarantees: per-(model, machine) compilation is
//! deterministic, the artifact cache is bit-transparent (a hit is
//! indistinguishable from a recompile), and per-node registries actually
//! differ across machines — the whole point of compiling per node.

use veltair::prelude::*;

fn service() -> CompilerService {
    CompilerService::new(CompilerOptions::fast())
}

#[test]
fn same_model_and_machine_compile_bit_identically() {
    let machine = MachineConfig::threadripper_3990x();
    let spec = by_name("mobilenet_v2").expect("zoo model");
    // Two independent services, and the direct compile_model path, must
    // agree bit for bit: compilation is a pure function of
    // (spec, machine, options).
    let a = service().compile(&spec, &machine);
    let b = service().compile(&spec, &machine);
    let direct = compile_model(&spec, &machine, &CompilerOptions::fast());
    assert_eq!(a, b, "two service compilations diverged");
    assert_eq!(a, direct, "service diverged from compile_model");
}

#[test]
fn cache_hits_are_bit_identical_to_recompiles() {
    let machine = MachineConfig::threadripper_3990x();
    let spec = by_name("tiny_yolo_v2").expect("zoo model");
    let mut svc = service();
    let first = svc.compile(&spec, &machine);
    assert_eq!(svc.cache_stats(), (0, 1), "first compile must miss");
    let hit = svc.compile(&spec, &machine);
    assert_eq!(svc.cache_stats(), (1, 1), "second compile must hit");
    assert_eq!(first, hit, "cache hit diverged from the compilation");
    // And the hit equals what a cold service would have produced.
    let cold = service().compile(&spec, &machine);
    assert_eq!(hit, cold, "cache hit diverged from a cold recompile");
}

#[test]
fn cache_is_keyed_by_compiler_options() {
    // A service's options are fixed when it is built, so its cache only
    // holds artifacts compiled under them; another option set is another
    // service, and compiles another artifact.
    let machine = MachineConfig::threadripper_3990x();
    let spec = by_name("mobilenet_v2").expect("zoo model");
    let compile_twice = |options: CompilerOptions| -> CompiledModel {
        let mut svc = CompilerService::new(options);
        let compiled = svc.compile(&spec, &machine);
        let hit = svc.compile(&spec, &machine);
        assert_eq!(svc.cache_stats(), (1, 1), "the repeat must hit");
        assert_eq!(hit, compiled);
        // A hit runs no search: the service's counters are those of its
        // one real compilation, which lowered everything it generated.
        assert_eq!(svc.search_stats(), compiled.search_stats);
        assert_eq!(
            compiled.search_stats.generated,
            compiled.search_stats.lowered
        );
        compiled
    };
    let full = compile_twice(CompilerOptions::fast());

    // A smaller version budget compiles a different artifact...
    let fewer = compile_twice(CompilerOptions::fast().with_max_versions(3));
    assert!(fewer.layers.iter().all(|l| l.versions.len() <= 3));
    assert_ne!(full, fewer);

    // ...and the single-version preset a third.
    let single = compile_twice(CompilerOptions::single_version());
    assert_ne!(full, single);
    assert_ne!(fewer, single);
}

#[test]
fn registries_are_deterministic_and_keyed_by_machine() {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let specs = [
        by_name("mobilenet_v2").expect("zoo model"),
        by_name("tiny_yolo_v2").expect("zoo model"),
    ];
    let mut svc = service();
    let mut registry = |machine: &MachineConfig| -> Vec<CompiledModel> {
        specs.iter().map(|s| svc.compile(s, machine)).collect()
    };
    let big_reg = registry(&big);
    let edge_reg = registry(&edge);
    // Same machine again: served fully from cache, bit-identical.
    let big_again = registry(&big);
    assert_eq!(big_reg, big_again);
    assert_eq!(svc.cache_stats(), (2, 4), "the repeat is two cache hits");
    assert_eq!(
        svc.cached_artifacts(),
        4,
        "2 models x 2 machines distinct artifacts"
    );

    // Per-machine compilation must differ materially: an 8-core box's
    // flat core requirement table cannot match a 64-core flagship's.
    for (on_big, on_edge) in big_reg.iter().zip(&edge_reg) {
        assert_eq!(on_big.name, on_edge.name);
        assert_ne!(
            on_big, on_edge,
            "{}: per-machine artifacts are identical — per-node compilation is a no-op",
            on_big.name
        );
    }
}

#[test]
fn per_machine_registries_serve_a_heterogeneous_fleet() {
    // Each machine class is compiled once through one service, and each
    // node serves its own class's registry.
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let spec = by_name("mobilenet_v2").expect("zoo model");
    let mut svc = service();
    let big_models = [svc.compile(&spec, &big)];
    let edge_models = [svc.compile(&spec, &edge)];
    assert_ne!(
        big_models, edge_models,
        "edge node is serving flagship-compiled code"
    );
    let nodes = [
        NodeSpec::new("big-0", big.clone(), Policy::VeltairFull),
        NodeSpec::new("big-1", big, Policy::VeltairFull),
        NodeSpec::new("edge-0", edge, Policy::VeltairFull),
    ];

    // The heterogeneous fleet serves every query, on every node, and
    // deterministically on its per-node registries.
    let w = WorkloadSpec::single("mobilenet_v2", 120.0, 60);
    let run = || {
        let mut fleet = Fleet::with_node_registries(
            &big_models,
            vec![&big_models[..], &big_models[..], &edge_models[..]],
            &nodes,
            RouterKind::LeastOutstanding.build(),
            AdmissionKind::AdmitAll.build(),
        )
        .expect("valid fleet");
        fleet.submit_stream(&w, 11).expect("registered");
        fleet.finish()
    };
    let first = run();
    assert_eq!(first, run(), "per-node registries broke determinism");
    assert_eq!(first.shed, 0);
    assert_eq!(first.merged.total_queries(), 60);
    assert_eq!(first.routed_per_node.iter().sum::<u64>(), 60);
    assert!(first.routed_per_node.iter().all(|&n| n > 0));
}
