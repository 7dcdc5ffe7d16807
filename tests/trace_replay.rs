//! End-to-end test of the trace subsystem: synthesise a heavy-tailed trace,
//! round-trip it through a real pcap file, replay it through the threaded
//! sharded runtime, and check that every packet is accounted for and the
//! latency/balance telemetry is consistent.

use menshen::core::{MenshenPipeline, ModuleId};
use menshen::runtime::{RuntimeError, RuntimeOptions, ShardedRuntime, SteeringMode};
use menshen::trace::pcap::{read_pcap, write_pcap, Endianness, TimestampPrecision};
use menshen::trace::replay::{replay_pipeline, replay_sharded, Pacing};
use menshen::trace::synth::{synthesize, WorkloadSpec};
use menshen_bench::workloads::flow_rule_tenant;
use menshen_rmt::TABLE5;

const TENANTS: u16 = 4;
const RULES: usize = 64;

fn template() -> MenshenPipeline {
    let params = TABLE5.with_table_depth(1024);
    let mut pipeline = MenshenPipeline::new(params);
    for module_id in 1..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(module_id, RULES))
            .unwrap();
    }
    pipeline
}

fn trace() -> Vec<menshen::packet::Packet> {
    let mut spec = WorkloadSpec::heavy_tailed(TENANTS, 96, 1536);
    spec.rules_per_tenant = RULES;
    spec.mean_rate_pps = 20_000_000.0;
    synthesize(&spec).unwrap()
}

#[test]
fn synthesised_trace_survives_pcap_and_replays_with_full_accounting() {
    let original = trace();

    // Through the wire format and back, byte-identical.
    for (precision, lossless) in [
        (TimestampPrecision::Nanos, true),
        (TimestampPrecision::Micros, false),
    ] {
        let mut capture = Vec::new();
        write_pcap(&mut capture, &original, precision, Endianness::Little).unwrap();
        let restored = read_pcap(&capture).unwrap();
        assert_eq!(restored.len(), original.len());
        for (got, want) in restored.iter().zip(&original) {
            assert_eq!(got.bytes(), want.bytes());
            if lossless {
                assert_eq!(got.timestamp_ns, want.timestamp_ns);
            } else {
                assert_eq!(got.timestamp_ns / 1_000, want.timestamp_ns / 1_000);
            }
        }
    }

    // Replay the restored packets through the real threaded runtime.
    let mut capture = Vec::new();
    write_pcap(
        &mut capture,
        &original,
        TimestampPrecision::Nanos,
        Endianness::Big,
    )
    .unwrap();
    let restored = read_pcap(&capture).unwrap();
    let template = template();
    let mut runtime = ShardedRuntime::from_pipeline(
        &template,
        RuntimeOptions::threaded(3).with_steering(SteeringMode::FiveTuple),
    );
    let report = replay_sharded(&mut runtime, &restored, Pacing::Unpaced).unwrap();

    // Every packet accounted for by the device's own tallies, and the
    // workload is all-hits, so nothing drops either.
    assert!(report.all_packets_accounted(), "{report:?}");
    assert_eq!(report.submitted, 1536);
    assert_eq!(report.forwarded, 1536);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.shard_packets.iter().sum::<u64>(), 1536);

    // Latency telemetry: one sample per packet, recorded per shard, merged
    // on snapshot; percentiles are monotone.
    assert_eq!(report.latency.count(), 1536);
    let p = report.latency.percentiles();
    assert!(p.p50_ns > 0);
    assert!(p.p50_ns <= p.p90_ns && p.p90_ns <= p.p99_ns && p.p999_ns <= p.max_ns);

    // Per-tenant counters aggregate correctly across shards under 5-tuple
    // steering (additive state — the mergeable regime).
    let counters = runtime.aggregated_counters().unwrap();
    let total_in: u64 = counters.values().map(|c| c.packets_in).sum();
    assert_eq!(total_in, 1536);
    for module_id in 1..=TENANTS {
        let tenant_packets = restored
            .iter()
            .filter(|p| p.vlan_id().map(|v| v.value()) == Ok(module_id))
            .count() as u64;
        assert_eq!(
            counters[&module_id].packets_in, tenant_packets,
            "tenant {module_id}"
        );
    }
    runtime.shutdown();
}

#[test]
fn paced_replay_through_a_lone_pipeline_matches_the_capture_clock() {
    let trace = trace();
    let mut pipeline = template();
    let report = replay_pipeline(&mut pipeline, &trace, Pacing::TimestampFaithful);
    assert!(report.all_packets_accounted());
    assert_eq!(report.forwarded, 1536);
    // 1536 packets at 20 Mpps ≈ 77 µs of capture time; the open-loop pacer
    // may not finish faster than the capture clock.
    let span_secs = (trace.last().unwrap().timestamp_ns - trace[0].timestamp_ns) as f64 / 1e9;
    assert!(report.wall_secs >= span_secs * 0.9);
    assert_eq!(report.latency.count(), 1536);
}

#[test]
fn non_mergeable_state_replicates_under_five_tuple_steering_unless_undigestible() {
    use menshen::rmt::action::{AluInstruction, VliwAction};
    use menshen::rmt::phv::ContainerRef as C;

    let mut config = flow_rule_tenant(1, 4);
    config.stages[0].rules[0].action =
        VliwAction::nop().with(C::h4(3), AluInstruction::store(C::h4(1), 0));
    // Non-mergeable storing state runs under state-compute replication:
    // every shard carries a replica kept in lockstep by digest replay, so
    // the tenant scales past one shard.
    let mut runtime = ShardedRuntime::new(
        TABLE5.with_table_depth(1024),
        RuntimeOptions::threaded(2).with_steering(SteeringMode::FiveTuple),
    );
    runtime.load_module(&config).unwrap();
    assert_eq!(runtime.replicated_modules(), vec![1]);
    // A parser too wide to digest is wider than a parser-table row, so the
    // threaded runtime refuses it before publishing anything.
    let mut undigestible = flow_rule_tenant(2, 4);
    undigestible.parser.actions =
        vec![undigestible.parser.actions[0]; menshen::rmt::params::PARSE_ACTIONS_PER_ENTRY + 1];
    let epoch = runtime.current_epoch();
    assert!(matches!(
        runtime.load_module(&undigestible),
        Err(RuntimeError::Rejected(_))
    ));
    assert_eq!(runtime.current_epoch(), epoch);
    assert_eq!(runtime.replicated_modules(), vec![1]);
    runtime.shutdown();
    // Tenant-affine needs no replication (every module is already
    // single-owner).
    let mut affine =
        ShardedRuntime::new(TABLE5.with_table_depth(1024), RuntimeOptions::threaded(2));
    affine.load_module(&config).unwrap();
    assert!(affine.replicated_modules().is_empty());
    assert_eq!(
        affine.standby_replica().loaded_modules(),
        vec![ModuleId::new(1)]
    );
}
