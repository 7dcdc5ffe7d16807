//! §5.1 behaviour-isolation spot checks: groups of modules run concurrently
//! on one pipeline and every module behaves exactly as it would alone.

use menshen::prelude::*;
use menshen_bench::workloads::flow_rule_tenant;
use menshen_core::CoreError;
use menshen_programs::{
    calc::Calc, firewall::Firewall, load_balancing::LoadBalancing, netcache::NetCache,
    netchain::NetChain, source_routing::SourceRouting,
};
use menshen_rmt::config::ParseAction;
use menshen_rmt::phv::ContainerRef as C;
use menshen_runtime::RuntimeError;

/// Loads the given programs, interleaves their workloads and checks every
/// verdict against the owning program's oracle.
fn run_isolation_check_on(
    params: PipelineParams,
    tenants: Vec<(u16, Box<dyn EvaluatedProgram>)>,
    rounds: usize,
) {
    let mut pipeline = MenshenPipeline::new(params);
    for (module_id, program) in &tenants {
        program.configure_system(pipeline.system_mut());
        pipeline
            .load_module(&program.build(*module_id).expect("tenant compiles"))
            .expect("tenant loads");
    }
    let workloads: Vec<Vec<_>> = tenants
        .iter()
        .map(|(module_id, program)| program.packets(*module_id, rounds, 0xFEED))
        .collect();
    #[allow(clippy::needless_range_loop)]
    for round in 0..rounds {
        for (index, (_, program)) in tenants.iter().enumerate() {
            let packet = workloads[index][round].clone();
            let verdict = pipeline.process(packet.clone());
            assert!(
                program.check_output(&packet, &verdict),
                "behaviour isolation violated for {} on round {round}: {verdict:?}",
                program.name()
            );
        }
    }
}

/// Isolation check on the prototype-sized (Table 5) pipeline.
fn run_isolation_check(tenants: Vec<(u16, Box<dyn EvaluatedProgram>)>, rounds: usize) {
    run_isolation_check_on(TABLE5, tenants, rounds)
}

#[test]
fn calc_firewall_netcache_run_concurrently() {
    // The first trio of §5.1.
    run_isolation_check(
        vec![
            (1, Box::new(Calc) as Box<dyn EvaluatedProgram>),
            (2, Box::new(Firewall)),
            (3, Box::new(NetCache::new())),
        ],
        60,
    );
}

#[test]
fn load_balancing_source_routing_netchain_run_concurrently() {
    // The second trio of §5.1.
    run_isolation_check(
        vec![
            (4, Box::new(LoadBalancing) as Box<dyn EvaluatedProgram>),
            (5, Box::new(SourceRouting)),
            (6, Box::new(NetChain::new())),
        ],
        60,
    );
}

#[test]
fn concurrent_output_identical_to_solo_output() {
    // Stronger check: byte-for-byte identical outputs in the solo and shared
    // configurations for a stateless tenant (Firewall) even while two other
    // tenants churn state around it.
    let firewall = Firewall;
    let workload = firewall.packets(2, 80, 0xBEEF);

    // Solo run.
    let mut solo = MenshenPipeline::new(TABLE5);
    solo.load_module(&firewall.build(2).unwrap()).unwrap();
    let solo_outputs: Vec<_> = workload
        .iter()
        .map(|p| match solo.process(p.clone()) {
            Verdict::Forwarded { packet, ports, .. } => Some((packet.into_bytes(), ports)),
            Verdict::Dropped { .. } => None,
        })
        .collect();

    // Shared run with two noisy neighbours interleaved.
    let mut shared = MenshenPipeline::new(TABLE5);
    shared.load_module(&firewall.build(2).unwrap()).unwrap();
    let calc = Calc;
    let chain = NetChain::new();
    shared.load_module(&calc.build(7).unwrap()).unwrap();
    shared.load_module(&chain.build(8).unwrap()).unwrap();
    let calc_packets = calc.packets(7, workload.len(), 3);
    let chain_packets = chain.packets(8, workload.len(), 4);

    for (index, packet) in workload.iter().enumerate() {
        shared.process(calc_packets[index].clone());
        let shared_output = match shared.process(packet.clone()) {
            Verdict::Forwarded { packet, ports, .. } => Some((packet.into_bytes(), ports)),
            Verdict::Dropped { .. } => None,
        };
        shared.process(chain_packets[index].clone());
        assert_eq!(
            shared_output, solo_outputs[index],
            "packet {index}: shared-pipeline output differs from solo output"
        );
    }
}

#[test]
fn all_eight_programs_coexist() {
    // Every Table 3 module loaded at once. Together they need more stage-0
    // match entries than the prototype's 16-deep CAM provides (the packing
    // limit of §5.2), so this test provisions a deeper table — the paper's
    // point that the module count is purely a function of how much hardware
    // one pays for.
    let programs = all_programs();
    let tenants: Vec<(u16, Box<dyn EvaluatedProgram>)> = programs
        .into_iter()
        .enumerate()
        .map(|(index, program)| ((index + 1) as u16, program))
        .collect();
    run_isolation_check_on(TABLE5.with_table_depth(64), tenants, 25);
}

/// §3.4: a module must not rewrite its VLAN ID, or its traffic leaves
/// attributed to another module. The compiler refuses such source; the
/// pipeline refuses the binary, whichever path hands it over.
#[test]
fn a_deparser_writing_the_vlan_tag_is_refused_on_every_load_path() {
    let calc = Calc;
    let honest = calc.build(1).unwrap();
    let mut forged = honest.clone();
    assert_eq!(forged.deparser.actions.len(), 1);
    assert_eq!(forged.deparser.actions[0].offset, 56);
    forged.deparser.actions[0].offset = 14;

    // The lone pipeline, on load and on update.
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let refusal = pipeline.load_module(&forged).unwrap_err();
    assert!(
        matches!(&refusal, CoreError::CheckFailed(detail) if detail.contains("VLAN")),
        "{refusal}"
    );
    assert!(pipeline.loaded_modules().is_empty());
    pipeline.load_module(&honest).unwrap();
    assert_eq!(pipeline.update_module(&forged), Err(refusal.clone()));
    for packet in calc.packets(1, 10, 5) {
        let verdict = pipeline.process(packet.clone());
        assert!(calc.check_output(&packet, &verdict));
    }

    // Any byte of the TPID or TCI counts, for every container width.
    let mut probe = honest.clone();
    for (offset, container, refused) in [
        (10, C::h2(0), false),
        (11, C::h2(0), true),
        (12, C::h2(0), true),
        (15, C::h2(0), true),
        (16, C::h2(0), false),
        (8, C::h4(0), false),
        (9, C::h4(0), true),
        (6, C::h6(0), false),
        (7, C::h6(0), true),
    ] {
        probe.deparser.actions[0] = ParseAction::new(offset, container).unwrap();
        assert_eq!(
            pipeline.check_module_config(&probe).is_err(),
            refused,
            "{container} at byte {offset}"
        );
    }

    // The sharded runtime, on both backends: refused before any epoch.
    for options in [
        RuntimeOptions::deterministic(2),
        RuntimeOptions::threaded(2),
    ] {
        let mut runtime = ShardedRuntime::new(TABLE5, options);
        let epoch = runtime.current_epoch();
        assert_eq!(
            runtime.load_module(&forged),
            Err(RuntimeError::Rejected(refusal.clone()))
        );
        assert_eq!(runtime.current_epoch(), epoch, "no epoch was published");
        assert!(runtime.standby_replica().loaded_modules().is_empty());
        runtime.shutdown();
    }

    // Every Table 3 program and the benchmark's port-rewrite tenant write
    // only fields the DSL lets them write, and still load.
    for (index, program) in all_programs().iter().enumerate() {
        let config = program.build(index as u16 + 1).unwrap();
        let mut pipeline = MenshenPipeline::new(TABLE5);
        assert_eq!(
            pipeline.check_module_config(&config),
            Ok(()),
            "{}",
            program.name()
        );
        pipeline.load_module(&config).unwrap();
    }
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.load_module(&flow_rule_tenant(1, 16)).unwrap();
}
