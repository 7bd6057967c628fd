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
    let machine = MachineConfig::threadripper_3990x();
    let spec = by_name("mobilenet_v2").expect("zoo model");
    let mut svc = service();
    let full = svc.compile(&spec, &machine);
    assert_eq!(svc.cache_stats(), (0, 1));

    // A smaller version budget must recompile — the options are part of
    // the cache fingerprint, so the stale artifact cannot alias.
    svc.set_options(CompilerOptions::fast().with_max_versions(3));
    let fewer = svc.compile(&spec, &machine);
    assert_eq!(
        svc.cache_stats(),
        (0, 2),
        "a changed version budget must miss the cache"
    );
    assert!(fewer.layers.iter().all(|l| l.versions.len() <= 3));
    assert_ne!(full, fewer);

    // The single-version preset is a third distinct artifact...
    svc.set_options(CompilerOptions::single_version());
    let single = svc.compile(&spec, &machine);
    assert_eq!(svc.cache_stats(), (0, 3));
    assert_ne!(full, single);

    // ...and returning to the original options hits the original entry.
    svc.set_options(CompilerOptions::fast());
    let again = svc.compile(&spec, &machine);
    assert_eq!(svc.cache_stats(), (1, 3));
    assert_eq!(full, again);

    // The service's aggregate counters cover exactly the three real
    // compilations, each of which lowered everything it generated.
    let total = svc.search_stats();
    assert_eq!(
        total.generated,
        full.search_stats.generated + fewer.search_stats.generated + single.search_stats.generated
    );
    assert_eq!(total.generated, total.lowered);
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
fn cluster_builder_compiles_per_node_registries() {
    let big = MachineConfig::threadripper_3990x();
    let edge = MachineConfig::desktop_8core();
    let engine = ClusterEngine::builder()
        .compiler_options(CompilerOptions::fast())
        .compile(by_name("mobilenet_v2").expect("zoo model"))
        .node(NodeSpec::new("big-0", big.clone(), Policy::VeltairFull))
        .node(NodeSpec::new("big-1", big, Policy::VeltairFull))
        .node(NodeSpec::new("edge-0", edge, Policy::VeltairFull))
        .router(RouterKind::LeastOutstanding)
        .build()
        .expect("valid cluster");

    // Two distinct machines → two registries; the twin flagships share.
    assert!(engine.per_node_compilation());
    assert_eq!(engine.registries().len(), 2);
    assert_eq!(
        engine.registry_for_node(0).as_ptr(),
        engine.registry_for_node(1).as_ptr(),
        "identical machines must share one registry"
    );
    let big_model = &engine.registry_for_node(0)[0];
    let edge_model = &engine.registry_for_node(2)[0];
    assert_ne!(
        big_model, edge_model,
        "edge node is serving flagship-compiled code"
    );

    // The heterogeneous fleet serves correctly and deterministically on
    // its per-node registries.
    let w = WorkloadSpec::single("mobilenet_v2", 120.0, 60);
    let first = engine.run(&w, 11);
    let second = engine.run(&w, 11);
    assert_eq!(first, second, "per-node registries broke determinism");
    assert_eq!(first.merged.total_queries(), 60);
    assert!(first.routed_per_node.iter().all(|&n| n > 0));
}

#[test]
fn shared_models_still_build_single_registry() {
    let machine = MachineConfig::threadripper_3990x();
    let engine = ClusterEngine::builder()
        .model(compile_model(
            &by_name("mobilenet_v2").expect("zoo model"),
            &machine,
            &CompilerOptions::fast(),
        ))
        .node(NodeSpec::new("a", machine.clone(), Policy::VeltairFull))
        .node(NodeSpec::new(
            "b",
            MachineConfig::desktop_8core(),
            Policy::Prema,
        ))
        .build()
        .expect("valid cluster");
    // Pre-compiled registration keeps the old shared-registry semantics:
    // every node serves the exact same artifact.
    assert!(!engine.per_node_compilation());
    assert_eq!(engine.registries().len(), 1);
    assert_eq!(engine.registry_for_node(0), engine.registry_for_node(1));
}
