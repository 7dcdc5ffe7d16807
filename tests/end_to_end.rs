//! End-to-end integration: DSL source → compiler → admission → pipeline →
//! packets, for every evaluated program, plus equivalence between the
//! baseline RMT pipeline and a single-module Menshen pipeline.

use menshen::prelude::*;
use menshen_compiler::FieldRef;
use menshen_programs::figure8_program_sources;
use menshen_rmt::action::{AluInstruction, VliwAction};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParseAction, ParserEntry};
use menshen_rmt::match_table::LookupKey;
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::stage::StageConfig;
use menshen_rmt::{RmtPipeline, RmtProgram};

#[test]
fn every_figure8_program_compiles_loads_and_forwards() {
    for (index, (name, source)) in figure8_program_sources().into_iter().enumerate() {
        let module_id = (index + 1) as u16;
        let compiled = compile_source(
            source,
            &CompileOptions::new(module_id).with_initial_entries(4),
        )
        .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let mut pipeline = MenshenPipeline::new(TABLE5);
        pipeline
            .load_module(&compiled.config)
            .unwrap_or_else(|e| panic!("{name} failed to load: {e}"));
        // Generic traffic flows through (forwarded or dropped, never an error).
        let packet = PacketBuilder::new().with_vlan(module_id).build_udp(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1111,
            2222,
            &[0u8; 32],
        );
        let _ = pipeline.process(packet);
        assert_eq!(pipeline.loaded_modules(), vec![ModuleId::new(module_id)]);
    }
}

#[test]
fn menshen_with_one_module_matches_baseline_rmt() {
    // The same forwarding program expressed twice: once installed on the
    // baseline RMT pipeline, once compiled and loaded as a Menshen module.
    // Outputs must be identical packet for packet — isolation costs nothing
    // in behaviour.
    let parser = ParserEntry::new(vec![
        ParseAction::new(34, C::h4(1)).unwrap(), // dst IP
        ParseAction::new(40, C::h2(0)).unwrap(), // UDP dst port
    ])
    .unwrap();
    let key_extract = KeyExtractEntry {
        slots_4b: [1, 0],
        ..Default::default()
    };
    let key_mask = KeyMask::for_slots([false, false, true, false, false, false], false);
    let key = LookupKey::from_slots(
        [(0, 6), (0, 6), (0x0a00_0002, 4), (0, 4), (0, 2), (0, 2)],
        false,
    );
    let action = VliwAction::nop()
        .with(C::h2(0), AluInstruction::set(4242))
        .with_metadata(AluInstruction::port(9));

    // Baseline RMT.
    let mut rmt = RmtPipeline::new(TABLE5);
    rmt.load_program(RmtProgram {
        parser: parser.clone(),
        deparser: ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap(),
        stages: vec![StageConfig {
            key_extract,
            key_mask,
        }],
    })
    .unwrap();
    rmt.stage_mut(0)
        .unwrap()
        .install_rule(0, key, 0, action.clone())
        .unwrap();

    // Menshen, via the DSL.
    let source = r#"
module rewrite {
    parser { extract ethernet; extract vlan; extract ipv4; extract udp; }
    table route { key = { ipv4.dst_addr; } actions = { rewrite_and_route; } }
    action rewrite_and_route() { udp.dst_port = 4242; set_port(9); }
    apply { route.apply(); }
}
"#;
    let compiled = compile_source(source, &CompileOptions::new(5)).unwrap();
    let dst = FieldRef::new("ipv4", "dst_addr");
    let mut config = compiled.config.clone();
    config.stages[0].rules.push(
        compiled
            .rule("route", &[(&dst, 0x0a00_0002)], "rewrite_and_route")
            .unwrap(),
    );
    let mut menshen = MenshenPipeline::new(TABLE5);
    menshen.load_module(&config).unwrap();

    for last_octet in [2u8, 3, 7, 2, 2, 100] {
        let packet = PacketBuilder::new().with_vlan(5).build_udp(
            [192, 168, 0, 1],
            [10, 0, 0, last_octet],
            1000,
            80,
            &[0xaa; 16],
        );
        let rmt_out = rmt.process(packet.clone()).unwrap();
        let menshen_out = menshen.process(packet);
        match menshen_out {
            Verdict::Forwarded {
                packet: m_pkt, phv, ..
            } => {
                let r_pkt = rmt_out.packet.expect("baseline forwarded too");
                assert_eq!(m_pkt.bytes(), r_pkt.bytes(), "packet bytes differ");
                assert_eq!(phv.metadata.dst_port, rmt_out.phv.metadata.dst_port);
            }
            Verdict::Dropped { .. } => panic!("Menshen dropped a packet the baseline forwarded"),
        }
    }
}

#[test]
fn performance_isolation_counters_track_each_module_separately() {
    // Each module's counters reflect only its own traffic (the accounting the
    // paper's performance-isolation argument relies on).
    let mut pipeline = MenshenPipeline::new(TABLE5);
    for module_id in 1..=3u16 {
        pipeline
            .load_module(&ModuleConfig::empty(ModuleId::new(module_id), "fwd", 5))
            .unwrap();
    }
    let counts = [30usize, 20, 10];
    for (index, &count) in counts.iter().enumerate() {
        let module_id = (index + 1) as u16;
        for _ in 0..count {
            let packet = PacketBuilder::new().with_vlan(module_id).build_udp(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                1,
                2,
                &[0u8; 100],
            );
            pipeline.process(packet);
        }
    }
    for (index, &count) in counts.iter().enumerate() {
        let module_id = (index + 1) as u16;
        let counters = pipeline.module_counters(ModuleId::new(module_id)).unwrap();
        assert_eq!(counters.packets_in, count as u64);
        assert_eq!(counters.packets_out, count as u64);
        assert_eq!(counters.packets_dropped, 0);
    }
}

#[test]
fn malformed_traffic_never_panics_the_pipeline() {
    // Failure injection: truncated frames, garbage bytes, untagged packets.
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline
        .load_module(&ModuleConfig::empty(ModuleId::new(1), "fwd", 5))
        .unwrap();
    let inputs = vec![
        Packet::from_bytes(vec![]),
        Packet::from_bytes(vec![0xff; 7]),
        Packet::from_bytes(vec![0x00; 13]),
        Packet::from_bytes((0u16..200).map(|b| b as u8).collect()),
        {
            // VLAN tag claims IPv4 but the IP header is garbage.
            let mut bytes = PacketBuilder::new()
                .with_vlan(1)
                .build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[0u8; 8])
                .into_bytes();
            bytes[18] = 0x00; // destroy version/IHL
            Packet::from_bytes(bytes)
        },
    ];
    for packet in inputs {
        // Any verdict is fine; the pipeline just must not panic.
        let _ = pipeline.process(packet);
    }
}
