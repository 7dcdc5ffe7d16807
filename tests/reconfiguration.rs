//! Disruption-free reconfiguration and secure-reconfiguration integration
//! tests (§2.1 requirements 5 and 6, §3.1 secure reconfiguration, Figure 10).

use menshen::prelude::*;
use menshen_bench::workloads::{flow_dst_ip, flow_rule_tenant_with_port};
use menshen_core::reconfig::{ReconfigCommand, ResourceKind, WritePayload};
use menshen_core::CoreError;
use menshen_core::SegmentEntry;
use menshen_programs::{calc::Calc, firewall::Firewall, qos::Qos};
use menshen_rmt::action::AluInstruction;
use menshen_rmt::phv::ContainerRef as C;
use menshen_runtime::{ExecutionMode, RuntimeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn updating_one_module_never_disturbs_another() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let firewall = Firewall;
    let qos = Qos;
    pipeline.load_module(&firewall.build(1).unwrap()).unwrap();
    pipeline.load_module(&qos.build(2).unwrap()).unwrap();

    let qos_workload = qos.packets(2, 40, 5);
    // Repeatedly update module 1 while module 2's traffic flows; module 2
    // must pass its oracle on every single packet.
    for (round, packet) in qos_workload.iter().enumerate() {
        if round % 5 == 0 {
            pipeline.update_module(&firewall.build(1).unwrap()).unwrap();
        }
        let verdict = pipeline.process(packet.clone());
        assert!(
            qos.check_output(packet, &verdict),
            "QoS disturbed while firewall was being updated (round {round})"
        );
    }
    // And module 1 still works after all those updates.
    for packet in firewall.packets(1, 20, 9) {
        let verdict = pipeline.process(packet.clone());
        assert!(firewall.check_output(&packet, &verdict));
    }
}

#[test]
fn packets_of_a_module_under_reconfiguration_are_dropped_not_misprocessed() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let calc = Calc;
    pipeline.load_module(&calc.build(1).unwrap()).unwrap();
    pipeline.begin_reconfiguration(ModuleId::new(1)).unwrap();
    for packet in calc.packets(1, 10, 1) {
        assert!(matches!(
            pipeline.process(packet),
            Verdict::Dropped {
                reason: DropReason::BeingReconfigured,
                ..
            }
        ));
    }
    pipeline.end_reconfiguration(ModuleId::new(1)).unwrap();
    for packet in calc.packets(1, 10, 2) {
        let verdict = pipeline.process(packet.clone());
        assert!(calc.check_output(&packet, &verdict));
    }
}

#[test]
fn data_path_cannot_reconfigure_the_pipeline() {
    // A malicious tenant crafts reconfiguration packets for every resource
    // kind and sends them on the data path; none may take effect and the
    // victim module must keep behaving correctly.
    let mut pipeline = MenshenPipeline::new(TABLE5);
    let firewall = Firewall;
    pipeline.load_module(&firewall.build(1).unwrap()).unwrap();
    let counter_before = pipeline.filter().reconfig_counter();

    let attacks = vec![
        ReconfigCommand::clear(ResourceKind::Parser, 0, 0),
        ReconfigCommand::clear(ResourceKind::KeyMask, 0, 0),
        ReconfigCommand::clear(ResourceKind::MatchTable, 0, 0),
        ReconfigCommand::write(
            ResourceKind::SegmentTable,
            0,
            0,
            WritePayload::Segment(SegmentEntry::new(0, 4096)),
        ),
    ];
    for attack in attacks {
        let verdict = pipeline.process(attack.to_packet());
        assert!(matches!(
            verdict,
            Verdict::Dropped {
                reason: DropReason::UntrustedReconfiguration,
                ..
            }
        ));
    }
    assert_eq!(
        pipeline.filter().reconfig_counter(),
        counter_before,
        "no configuration write went through"
    );
    for packet in firewall.packets(1, 30, 3) {
        let verdict = pipeline.process(packet.clone());
        assert!(firewall.check_output(&packet, &verdict));
    }
}

#[test]
fn trusted_daisy_chain_reconfiguration_round_trips() {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.load_module(&Calc.build(1).unwrap()).unwrap();
    // The software path (PCIe → daisy chain) can rewrite a segment entry.
    let command = ReconfigCommand::write(
        ResourceKind::SegmentTable,
        1,
        0,
        WritePayload::Segment(SegmentEntry::new(64, 32)),
    );
    let packet = command.to_packet();
    pipeline.apply_reconfiguration_packet(&packet).unwrap();
    assert!(pipeline.filter().reconfig_counter() > 0);
    // Malformed packets are rejected with an error, not applied silently.
    let data =
        PacketBuilder::new()
            .with_vlan(1)
            .build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[0u8; 8]);
    assert!(pipeline.apply_reconfiguration_packet(&data).is_err());
}

/// Updates the pipeline's static checks refuse, each built from the
/// mergeable flow-rule shape (so a runtime that re-steered before checking
/// would stop replicating the running storing program): one stage too many,
/// LPM rules in an exact-match stage, and a parser or deparser wider than a
/// table row.
fn refused_updates() -> Vec<ModuleConfig> {
    let plain = flow_rule_tenant_with_port(1, 4, 2002);
    let mut deep = plain.clone();
    deep.stages.push(StageModuleConfig::default());
    let mut mixed = plain.clone();
    mixed.stages[0].lpm_rules.push(LpmMatchRule {
        prefix: 0,
        prefix_len: 0,
        action: 0,
    });
    let row = menshen_rmt::params::PARSE_ACTIONS_PER_ENTRY;
    let mut wide_parser = plain.clone();
    wide_parser.parser.actions = vec![plain.parser.actions[0]; row + 1];
    let mut wide_deparser = plain.clone();
    wide_deparser.deparser.actions = vec![plain.deparser.actions[0]; row + 1];
    vec![deep, mixed, wide_parser, wide_deparser]
}

/// The running program: the flow-rule tenant (rewrite to port 1001, count
/// in word 0) that also stores the dst IP into word 2.
fn running_module() -> ModuleConfig {
    let mut config = flow_rule_tenant_with_port(1, 4, 1001);
    for rule in &mut config.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    config
}

fn running_traffic(count: u16) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let ip = flow_dst_ip(1, usize::from(i % 4)) as u32;
            PacketBuilder::udp_data(1, [10, 0, 0, 1], ip.to_be_bytes(), 3000 + i, 80, &[0u8; 8])
        })
        .collect()
}

fn forwards_to_1001(verdicts: &[Verdict]) -> bool {
    verdicts
        .iter()
        .all(|v| v.packet().and_then(|p| p.udp_dst_port()) == Some(1001))
}

/// A refused update must leave the running program as it was: loaded,
/// forwarding, with its counters and stateful words intact — on a lone
/// pipeline and on a deterministic sharded runtime, where it also publishes
/// no epoch and leaves the program replicated.
#[test]
fn rejected_update_leaves_the_running_module_intact() {
    let module = ModuleId::new(1);
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.load_module(&running_module()).unwrap();
    assert!(forwards_to_1001(
        &pipeline.process_batch(running_traffic(16))
    ));
    let counters = pipeline.module_counters(module);
    let words = [0, 2].map(|word| pipeline.read_stateful(module, 0, word));
    assert!(words.iter().all(|w| w.is_some_and(|w| w != 0)));
    for (index, refused) in refused_updates().iter().enumerate() {
        assert!(pipeline.update_module(refused).is_err(), "update {index}");
        assert_eq!(pipeline.module_counters(module), counters, "update {index}");
        assert_eq!(
            [0, 2].map(|word| pipeline.read_stateful(module, 0, word)),
            words,
            "update {index}"
        );
    }
    assert!(forwards_to_1001(
        &pipeline.process_batch(running_traffic(4))
    ));

    let mut runtime = ShardedRuntime::new(
        TABLE5,
        RuntimeOptions::deterministic(2).with_steering(SteeringMode::FiveTuple),
    );
    runtime.load_module(&running_module()).unwrap();
    let verdicts = runtime.process_batch(running_traffic(16)).unwrap();
    assert!(forwards_to_1001(&verdicts));
    let counters = runtime.aggregated_counters().unwrap();
    let words = [0, 2].map(|word| runtime.read_stateful_aggregate(module, 0, word));
    for (index, refused) in refused_updates().iter().enumerate() {
        // (Counter snapshots are epochs themselves, so re-read per update.)
        let epoch = runtime.current_epoch();
        assert!(
            matches!(
                runtime.update_module(refused),
                Err(RuntimeError::Rejected(_))
            ),
            "update {index}"
        );
        assert_eq!(runtime.current_epoch(), epoch, "update {index}");
        assert_eq!(runtime.replicated_modules(), vec![1], "update {index}");
        assert_eq!(runtime.aggregated_counters().unwrap(), counters);
        assert_eq!(
            [0, 2].map(|word| runtime.read_stateful_aggregate(module, 0, word)),
            words,
            "update {index}"
        );
    }
    let verdicts = runtime.process_batch(running_traffic(4)).unwrap();
    assert!(forwards_to_1001(&verdicts));
}

/// Module 1 (10 rules, 3000 stateful words) beside module 2 (6 rules, 1000
/// words): together they fill stage 0's 16-entry CAM and leave 96 of its
/// 4096 stateful words free.
fn crowded_stage() -> [ModuleConfig; 2] {
    let mut grower = flow_rule_tenant_with_port(1, 10, 1001);
    grower.stages[0].stateful_words = 3000;
    let mut neighbour = flow_rule_tenant_with_port(2, 6, 2002);
    neighbour.stages[0].stateful_words = 1000;
    [grower, neighbour]
}

/// Updates of module 1 that pass every static check but cannot fit where it
/// stands: one rule more than the 10 entries its range plus the free CAM
/// hold, and 100 stateful words more than the largest gap with its own
/// range released (3000).
fn updates_refused_for_capacity() -> Vec<ModuleConfig> {
    let [grower, _] = crowded_stage();
    let mut more_rules = flow_rule_tenant_with_port(1, 11, 1001);
    more_rules.stages[0].stateful_words = 3000;
    let mut more_words = grower;
    more_words.stages[0].stateful_words = 3100;
    vec![more_rules, more_words]
}

fn crowded_traffic() -> Vec<Packet> {
    (0..20u16)
        .map(|i| {
            let module = 1 + i % 2;
            let flows = if module == 1 { 10 } else { 6 };
            let ip = flow_dst_ip(module, usize::from(i) % flows) as u32;
            PacketBuilder::udp_data(
                module,
                [10, 0, 0, 1],
                ip.to_be_bytes(),
                3000 + i,
                80,
                &[0u8; 8],
            )
        })
        .collect()
}

fn rewritten_ports(verdicts: &[Verdict]) -> Vec<Option<u16>> {
    verdicts
        .iter()
        .map(|v| v.packet().and_then(|p| p.udp_dst_port()))
        .collect()
}

/// An update refused because the new program does not fit must be refused
/// before the running one is unloaded: module 1 stays loaded with the same
/// verdicts, counters and stateful words — on a lone pipeline, and on every
/// replica (and the standby) of a deterministic sharded runtime.
#[test]
fn rejected_update_for_capacity_keeps_the_running_module() {
    let module = ModuleId::new(1);
    let mut pipeline = MenshenPipeline::new(TABLE5);
    for config in crowded_stage() {
        pipeline.load_module(&config).unwrap();
    }
    let ports = rewritten_ports(&pipeline.process_batch(crowded_traffic()));
    assert!(ports.iter().all(|p| *p == Some(1001) || *p == Some(2002)));
    let counters = pipeline.module_counters(module);
    let word = pipeline.read_stateful(module, 0, 0);
    assert_eq!(word, Some(10));
    for (index, refused) in updates_refused_for_capacity().iter().enumerate() {
        assert!(
            matches!(
                pipeline.update_module(refused),
                Err(CoreError::InsufficientResource { .. })
            ),
            "update {index}"
        );
        assert_eq!(
            pipeline.loaded_modules(),
            vec![module, ModuleId::new(2)],
            "update {index}"
        );
        assert_eq!(pipeline.module_counters(module), counters, "update {index}");
        assert_eq!(pipeline.read_stateful(module, 0, 0), word, "update {index}");
    }
    assert_eq!(
        rewritten_ports(&pipeline.process_batch(crowded_traffic())),
        ports
    );

    let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::deterministic(2));
    for config in crowded_stage() {
        runtime.load_module(&config).unwrap();
    }
    let verdicts = runtime.process_batch(crowded_traffic()).unwrap();
    assert_eq!(rewritten_ports(&verdicts), ports);
    let counters = runtime.aggregated_counters().unwrap();
    let word = runtime.read_stateful_aggregate(module, 0, 0);
    for (index, refused) in updates_refused_for_capacity().iter().enumerate() {
        let epoch = runtime.current_epoch();
        assert!(
            matches!(
                runtime.update_module(refused),
                Err(RuntimeError::Rejected(
                    CoreError::InsufficientResource { .. }
                ))
            ),
            "update {index}"
        );
        assert_eq!(runtime.current_epoch(), epoch, "update {index}: no epoch");
        for shard in 0..runtime.shard_count() {
            let replica = runtime.shard_pipeline(shard).unwrap();
            assert_eq!(
                replica.loaded_modules(),
                vec![module, ModuleId::new(2)],
                "update {index}, shard {shard}"
            );
        }
        assert_eq!(
            runtime.standby_replica().loaded_modules(),
            vec![module, ModuleId::new(2)],
            "update {index}"
        );
        assert_eq!(runtime.aggregated_counters().unwrap(), counters);
        assert_eq!(
            runtime.read_stateful_aggregate(module, 0, 0),
            word,
            "update {index}"
        );
    }
    let verdicts = runtime.process_batch(crowded_traffic()).unwrap();
    assert_eq!(rewritten_ports(&verdicts), ports);
}

/// Flow rules per tenant in the replication scenario.
const SCR_FLOWS: usize = 4;

/// The storing (non-mergeable) tenant of the replication scenario: the
/// flow-rule shape with `flows` rules, each also storing the dst-IP
/// container into stateful word 2, so it runs replicated under 5-tuple
/// steering.
fn storing_tenant(module_id: u16, flows: usize) -> ModuleConfig {
    let mut storing = flow_rule_tenant_with_port(module_id, flows, 1000 + module_id);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    storing
}

/// One burst of 48 hits over tenants 1–6, with random source addresses and
/// ports so the 5-tuple hash spreads every tenant over the shards.
fn scr_burst(rng: &mut StdRng) -> Vec<Packet> {
    (0..48)
        .map(|_| {
            let module = rng.gen_range(1..=6u16);
            let ip = flow_dst_ip(module, rng.gen_range(0..SCR_FLOWS)) as u32;
            PacketBuilder::udp_data(
                module,
                [10, 0, 0, rng.gen_range(1..250u8)],
                ip.to_be_bytes(),
                rng.gen_range(1024..65000u16),
                80,
                &[0u8; 8],
            )
        })
        .collect()
}

/// A control op the pipeline refuses.
enum Refused {
    Load(ModuleConfig),
    Update(ModuleConfig),
}

/// Loads the storing tenant 1 and tenants 2–6 on a lone pipeline and on a
/// 5-tuple runtime (on `TABLE5.with_table_depth(64)`, so 40 CAM entries
/// stay free), then issues `op` to both. The runtime must refuse it with
/// the lone pipeline's error and publish nothing, must keep replicating
/// exactly tenant 1, and after 12 random bursts every replica must hold
/// tenant 1's stateful words exactly as the lone pipeline does.
fn refused_op_changes_nothing(op: Refused, seed: u64) {
    let params = TABLE5.with_table_depth(64);
    for options in [
        RuntimeOptions::deterministic(4),
        RuntimeOptions::threaded(2),
    ] {
        let options = options.with_steering(SteeringMode::FiveTuple);
        let mut single = MenshenPipeline::new(params);
        let mut sharded = ShardedRuntime::new(params, options);
        let tenants = std::iter::once(storing_tenant(1, SCR_FLOWS)).chain(
            (2..=6).map(|module| flow_rule_tenant_with_port(module, SCR_FLOWS, 1000 + module)),
        );
        for config in tenants {
            single.load_module(&config).unwrap();
            sharded.load_module(&config).unwrap();
        }
        assert_eq!(sharded.replicated_modules(), vec![1]);

        let epoch = sharded.current_epoch();
        let (lone, runtime) = match &op {
            Refused::Load(config) => (
                single.load_module(config).map(|_| ()),
                sharded.load_module(config),
            ),
            Refused::Update(config) => (
                single.update_module(config).map(|_| ()),
                sharded.update_module(config),
            ),
        };
        let refusal = lone.expect_err("the lone pipeline refuses the op");
        assert_eq!(runtime, Err(RuntimeError::Rejected(refusal)), "{options:?}");
        assert_eq!(sharded.current_epoch(), epoch, "{options:?}: no epoch");
        assert_eq!(sharded.replicated_modules(), vec![1], "{options:?}");

        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..12 {
            let burst = scr_burst(&mut rng);
            single.process_batch(burst.clone());
            if sharded.mode() == ExecutionMode::Deterministic {
                sharded.process_batch(burst).unwrap();
            } else {
                sharded.submit(&burst).unwrap();
            }
        }
        sharded.flush();
        let words = single.export_module_state(ModuleId::new(1)).unwrap().stages;
        assert!(
            words[0].iter().any(|&word| word != 0),
            "tenant 1 saw traffic"
        );
        for shard in 0..sharded.shard_count() {
            let states = sharded
                .export_shard_state(shard, &[ModuleId::new(1)])
                .unwrap();
            assert_eq!(states.len(), 1, "{options:?}: shard {shard}");
            assert_eq!(
                states[0].stages, words,
                "{options:?}: replica {shard} diverged"
            );
        }
        sharded.shutdown();
    }
}

/// An update of the storing tenant to a 60-rule mergeable program cannot fit
/// even with its own 4 entries released. It must not un-replicate tenant 1.
#[test]
fn refused_update_keeps_replication_and_replicas_equal() {
    refused_op_changes_nothing(
        Refused::Update(flow_rule_tenant_with_port(1, 60, 1001)),
        0x5C2_0A01,
    );
}

/// A second load of module 1 (as a mergeable program) is a duplicate ID. It
/// must not un-replicate the running storing tenant.
#[test]
fn refused_duplicate_load_keeps_replication_and_replicas_equal() {
    refused_op_changes_nothing(
        Refused::Load(flow_rule_tenant_with_port(1, SCR_FLOWS, 9999)),
        0x5C2_0A02,
    );
}

/// A storing module 7 with 60 rules does not fit in the 40 free entries. It
/// must not join the replicated set.
#[test]
fn refused_storing_load_stays_out_of_replication_and_replicas_equal() {
    refused_op_changes_nothing(Refused::Load(storing_tenant(7, 60)), 0x5C2_0A03);
}
