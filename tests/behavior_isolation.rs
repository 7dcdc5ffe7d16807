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
use menshen_rmt::{AluInstruction, KeyExtractEntry, KeyMask, MatchKind, ParserEntry};
use menshen_rmt::{RmtError, VliwAction};
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

/// A flat-table tenant on stage 0: its two shared actions rewrite the UDP
/// destination port to 1111 or 2222. `kind` is LPM on the destination IP
/// or range on the UDP destination port; the rule lists start as given.
fn flat_tenant(
    module_id: u16,
    kind: MatchKind,
    lpm_rules: Vec<LpmMatchRule>,
    range_rules: Vec<RangeMatchRule>,
) -> ModuleConfig {
    let mut config = ModuleConfig::empty(
        ModuleId::new(module_id),
        format!("flat{module_id}"),
        TABLE5.num_stages,
    );
    config.parser = ParserEntry::new(vec![
        ParseAction::new(34, C::h4(1)).unwrap(),
        ParseAction::new(40, C::h2(0)).unwrap(),
    ])
    .unwrap();
    config.deparser = ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap();
    let lpm = matches!(kind, MatchKind::Lpm { .. });
    config.stages[0] = StageModuleConfig {
        key_extract: Some(KeyExtractEntry {
            slots_4b: [1, 0],
            ..Default::default()
        }),
        key_mask: Some(KeyMask::for_slots(
            [false, false, lpm, false, !lpm, false],
            false,
        )),
        match_kind: kind,
        table_actions: vec![
            VliwAction::nop().with(C::h2(0), AluInstruction::set(1111)),
            VliwAction::nop().with(C::h2(0), AluInstruction::set(2222)),
        ],
        lpm_rules,
        range_rules,
        ..Default::default()
    };
    config
}

fn lpm_tenant(module_id: u16, rules: Vec<LpmMatchRule>) -> ModuleConfig {
    flat_tenant(
        module_id,
        MatchKind::Lpm { key_offset: 12 },
        rules,
        Vec::new(),
    )
}

fn range_tenant(module_id: u16, rules: Vec<RangeMatchRule>) -> ModuleConfig {
    let kind = MatchKind::Range {
        key_offset: 20,
        key_width: 2,
    };
    flat_tenant(module_id, kind, Vec::new(), rules)
}

fn prefix(prefix: u32, prefix_len: u8, action: u16) -> LpmMatchRule {
    LpmMatchRule {
        prefix,
        prefix_len,
        action,
    }
}

/// 10.0.0.0/8 → port 1111.
fn slash8() -> LpmMatchRule {
    prefix(0x0a00_0000, 8, 0)
}

/// A range rule whose bounds are reversed.
fn reversed_range() -> RangeMatchRule {
    RangeMatchRule {
        lo: 100,
        hi: 99,
        priority: 1,
        action: 0,
    }
}

/// The UDP destination port a verdict forwards with, if forwarded.
fn forwarded_port(verdict: &Verdict) -> Option<u16> {
    verdict.packet().and_then(|p| p.udp_dst_port())
}

fn packet_to(module: u16, dst: [u8; 4]) -> Packet {
    PacketBuilder::udp_data(module, [10, 0, 0, 1], dst, 5000, 80, &[0u8; 8])
}

/// A flat-table rule the table would refuse — an LPM prefix longer than 32
/// bits, a range with `lo > hi` — fails the static checks, so the load is
/// refused before it takes a slot: the module ID stays free and no slot
/// leaks.
#[test]
fn a_flat_rule_the_table_refuses_is_refused_before_the_load_takes_a_slot() {
    for refused in [
        lpm_tenant(9, vec![prefix(0x0a00_0000, 33, 0)]),
        range_tenant(9, vec![reversed_range()]),
    ] {
        let mut pipeline = MenshenPipeline::new(TABLE5);
        let refusal = pipeline.check_module_config(&refused).unwrap_err();
        assert!(matches!(refusal, CoreError::CheckFailed(_)), "{refusal:?}");
        assert_eq!(pipeline.load_module(&refused).unwrap_err(), refusal);
        assert!(pipeline.loaded_modules().is_empty());
        assert_eq!(pipeline.free_slots(), TABLE5.overlay_depth);

        // The module ID is free: the correct program loads and forwards.
        pipeline
            .load_module(&lpm_tenant(9, vec![slash8()]))
            .unwrap();
        let verdict = pipeline.process(packet_to(9, [10, 0, 0, 5]));
        assert_eq!(forwarded_port(&verdict), Some(1111));
        // And every other slot still takes a module.
        for module in 100..100 + TABLE5.overlay_depth as u16 - 1 {
            let empty = ModuleConfig::empty(ModuleId::new(module), "empty", TABLE5.num_stages);
            pipeline.load_module(&empty).unwrap();
        }
        assert_eq!(pipeline.free_slots(), 0);
    }
}

/// An update to such a program is refused before the running one is
/// unloaded: the module keeps forwarding and can still be unloaded.
#[test]
fn an_update_to_a_flat_rule_the_table_refuses_keeps_the_running_module() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline
        .load_module(&lpm_tenant(9, vec![slash8()]))
        .unwrap();
    for refused in [
        lpm_tenant(9, vec![slash8(), prefix(0x0a00_0000, 33, 1)]),
        range_tenant(9, vec![reversed_range()]),
    ] {
        assert!(matches!(
            pipeline.update_module(&refused),
            Err(CoreError::CheckFailed(_))
        ));
        assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(9)]);
        let verdict = pipeline.process(packet_to(9, [10, 0, 0, 5]));
        assert_eq!(forwarded_port(&verdict), Some(1111));
    }
    pipeline.unload_module(ModuleId::new(9)).unwrap();
    assert!(pipeline.loaded_modules().is_empty());
}

/// `install_rules` is all or nothing: a batch with one rule the table
/// refuses — prefix length, action index, table kind, range bounds, room —
/// installs none of its rules, not even the valid ones before the bad one.
#[test]
fn a_rule_batch_the_table_refuses_installs_nothing() {
    let lpm = ModuleId::new(9);
    let range = ModuleId::new(10);
    let small = ModuleId::new(11);
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.load_module(&lpm_tenant(9, Vec::new())).unwrap();
    pipeline.load_module(&range_tenant(10, Vec::new())).unwrap();
    let mut two_prefixes = lpm_tenant(11, Vec::new());
    two_prefixes.stages[0].table_capacity = 2;
    pipeline.load_module(&two_prefixes).unwrap();
    let valid_range = RangeMatchRule {
        lo: 0,
        hi: 99,
        priority: 1,
        action: 0,
    };
    let before = pipeline.filter().reconfig_counter();
    for (module, batch, refusal) in [
        (
            lpm,
            vec![TableRule::Lpm(slash8()), TableRule::Lpm(prefix(0, 40, 0))],
            CoreError::Rmt(RmtError::FieldOverflow {
                field: "LPM prefix length",
            }),
        ),
        (
            lpm,
            vec![TableRule::Lpm(slash8()), TableRule::Lpm(prefix(0, 16, 2))],
            CoreError::BadReconfigPacket(
                "flat-table rule action index outside the module's partitioned range",
            ),
        ),
        (
            lpm,
            vec![TableRule::Lpm(slash8()), TableRule::Range(valid_range)],
            CoreError::BadReconfigPacket(
                "flat-table rule for a module slot without a table of its kind",
            ),
        ),
        (
            range,
            vec![
                TableRule::Range(valid_range),
                TableRule::Range(reversed_range()),
            ],
            CoreError::Rmt(RmtError::FieldOverflow {
                field: "range rule bounds (lo > hi)",
            }),
        ),
        (
            small,
            [8, 16, 24]
                .map(|len| TableRule::Lpm(prefix(0x0a00_0000, len, 0)))
                .to_vec(),
            CoreError::Rmt(RmtError::TableFull { table: "LPM table" }),
        ),
    ] {
        assert_eq!(
            pipeline.install_rules(module, 0, &batch),
            Err(refusal),
            "{module}"
        );
    }
    assert_eq!(pipeline.lpm_table(lpm, 0).unwrap().len(), 0);
    assert_eq!(pipeline.range_table(range, 0).unwrap().len(), 0);
    assert_eq!(pipeline.lpm_table(small, 0).unwrap().len(), 0);
    assert_eq!(pipeline.filter().reconfig_counter(), before);
    let verdict = pipeline.process(packet_to(9, [10, 0, 0, 5]));
    assert_eq!(forwarded_port(&verdict), Some(80), "no /8 was left behind");

    // Room counts distinct prefixes: two spellings of one /8 and a /16 fit
    // a table of two.
    let batch = [prefix(0x0a00_0000, 8, 0), prefix(0x0aff_0000, 8, 1)]
        .into_iter()
        .chain([prefix(0x0a01_0000, 16, 1)])
        .map(TableRule::Lpm)
        .collect::<Vec<_>>();
    assert_eq!(pipeline.install_rules(small, 0, &batch), Ok(3));
    assert_eq!(pipeline.lpm_table(small, 0).unwrap().len(), 2);
}

/// The sharded runtime refuses the same load, update and rule batch before
/// publishing anything, and every replica keeps running the module.
#[test]
fn the_runtime_refuses_a_flat_rule_the_table_refuses_before_publishing() {
    let refused = lpm_tenant(9, vec![prefix(0x0a00_0000, 33, 0)]);
    let refusal = MenshenPipeline::new(TABLE5)
        .check_module_config(&refused)
        .unwrap_err();
    let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
    assert_eq!(
        runtime.load_module(&refused),
        Err(RuntimeError::Rejected(refusal.clone()))
    );
    assert_eq!(runtime.current_epoch(), 0, "no epoch was published");
    assert!(runtime.standby_replica().loaded_modules().is_empty());

    runtime.load_module(&lpm_tenant(9, vec![slash8()])).unwrap();
    let epoch = runtime.current_epoch();
    assert_eq!(
        runtime.update_module(&refused),
        Err(RuntimeError::Rejected(refusal))
    );
    let batch = [slash8(), prefix(0, 40, 0)].map(TableRule::Lpm);
    assert!(matches!(
        runtime.install_rules(ModuleId::new(9), 0, &batch),
        Err(RuntimeError::Rejected(CoreError::Rmt(
            RmtError::FieldOverflow { .. }
        )))
    ));
    assert_eq!(runtime.current_epoch(), epoch, "no epoch was published");
    for shard in 0..runtime.shard_count() {
        let replica = runtime.shard_pipeline(shard).unwrap();
        assert_eq!(replica.loaded_modules(), vec![ModuleId::new(9)]);
        assert_eq!(replica.lpm_table(ModuleId::new(9), 0).unwrap().len(), 1);
    }
    let verdicts = runtime
        .process_batch(vec![packet_to(9, [10, 0, 0, 5])])
        .unwrap();
    assert_eq!(forwarded_port(&verdicts[0]), Some(1111));
    runtime.unload_module(ModuleId::new(9)).unwrap();
}
