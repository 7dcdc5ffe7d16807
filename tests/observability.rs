//! End-to-end tests of the observability plane: the control-plane event
//! trace must round-trip through the Chrome trace-event exporter, the
//! metrics snapshot must emit parseable Prometheus text exposition, and the
//! packet-conservation audit must balance after real traffic.

use menshen::core::{validate_prometheus, MenshenPipeline, MetricValue, MetricsSnapshot};
use menshen::runtime::{
    chrome_trace_to_events, ControlEventKind, FaultPlan, RuntimeOptions, ShardedRuntime,
    SteeringMode,
};
use menshen::trace::replay::{replay_sharded, Pacing};
use menshen::trace::synth::{synthesize, WorkloadSpec};
use menshen_bench::workloads::{flow_rule_tenant, flow_rule_tenant_with_port, flow_workload};
use menshen_json::Json;
use menshen_rmt::action::AluInstruction;
use menshen_rmt::phv::ContainerRef as C;
use std::time::Duration;

const TENANTS: u16 = 4;
const RULES: usize = 64;

fn template() -> MenshenPipeline {
    let params = menshen::rmt::TABLE5.with_table_depth(1024);
    let mut pipeline = MenshenPipeline::new(params);
    for module_id in 1..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(module_id, RULES))
            .unwrap();
    }
    pipeline
}

fn trace(packets: usize) -> Vec<menshen::packet::Packet> {
    let mut spec = WorkloadSpec::heavy_tailed(TENANTS, 96, packets);
    spec.rules_per_tenant = RULES;
    spec.mean_rate_pps = 50_000_000.0;
    synthesize(&spec).unwrap()
}

/// A resize leaves its whole life cycle in the event trace, and the trace
/// survives the Chrome trace-event JSON exporter *exactly* — every event
/// comes back with the same timestamp and payload after a full
/// serialise → pretty-print → parse → import round trip.
#[test]
fn reshard_event_trace_round_trips_through_chrome_json() {
    let mut runtime = ShardedRuntime::from_pipeline(&template(), RuntimeOptions::threaded(2));
    // A control-plane load after construction, so the trace also carries a
    // module life-cycle event (template modules predate the runtime).
    runtime
        .load_module(&flow_rule_tenant(TENANTS + 1, RULES))
        .unwrap();
    runtime.submit_owned(trace(512)).unwrap();
    runtime.flush();
    runtime.resize(4).unwrap();
    runtime.submit_owned(trace(256)).unwrap();
    runtime.flush();
    runtime.resize(2).unwrap();

    let events = runtime.control_events();
    assert_eq!(runtime.control_events_dropped(), 0);
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    // Both resizes ran their full life cycle; the scale-in also retired
    // shards and both rewrote the RETA.
    for expected in [
        "module_loaded",
        "epoch_published",
        "epoch_applied",
        "resize_started",
        "state_exported",
        "state_injected",
        "shards_retired",
        "reta_rewritten",
        "resize_completed",
    ] {
        assert!(
            names.contains(&expected),
            "event trace is missing {expected:?}; got {names:?}"
        );
    }
    assert_eq!(
        names.iter().filter(|n| **n == "resize_completed").count(),
        2,
        "both resizes must complete"
    );
    // The span event carries the measured pause, and it matches a real
    // start-before-end interval.
    let completed = events
        .iter()
        .filter_map(|e| match e.kind {
            ControlEventKind::ResizeCompleted {
                from_shards,
                to_shards,
                start_ns,
                pause_ns,
                ..
            } => Some((from_shards, to_shards, start_ns, pause_ns, e.ts_ns)),
            _ => None,
        })
        .collect::<Vec<_>>();
    assert_eq!(completed[0].0, 2);
    assert_eq!(completed[0].1, 4);
    assert_eq!(completed[1].0, 4);
    assert_eq!(completed[1].1, 2);
    for (_, _, start_ns, pause_ns, ts_ns) in completed {
        assert!(start_ns <= ts_ns);
        assert!(pause_ns > 0);
    }

    // Exact round trip through the Chrome trace-event exposition.
    let exported = runtime.export_chrome_trace();
    let reparsed = Json::parse(&exported.pretty()).unwrap();
    let restored = chrome_trace_to_events(&reparsed).unwrap();
    assert_eq!(restored, events);
}

/// The metrics snapshot of a runtime that has seen traffic and a resize is
/// a valid Prometheus text exposition and carries the headline series.
#[test]
fn metrics_snapshot_exports_valid_prometheus_and_json() {
    let mut runtime = ShardedRuntime::from_pipeline(&template(), RuntimeOptions::deterministic(2));
    let verdicts = runtime.process_batch(trace(512)).unwrap();
    assert_eq!(verdicts.len(), 512);

    let snapshot = runtime.metrics_snapshot().unwrap();
    let text = snapshot.to_prometheus();
    let series = validate_prometheus(&text).expect("exposition must parse");
    assert!(series >= 8, "expected a rich exposition, got:\n{text}");
    for name in [
        "menshen_control_epoch",
        "menshen_shard_packets_total",
        "menshen_packet_sojourn_ns",
        "menshen_tenant_forwarded_total",
    ] {
        assert!(text.contains(name), "missing series {name} in:\n{text}");
    }
    // Every tenant that forwarded traffic has a labelled sample.
    assert!(text.contains("tenant=\"1\""));

    // The JSON export carries the same number of series.
    let json = snapshot.to_json();
    let rendered = json.pretty();
    assert!(rendered.contains("menshen_shard_packets_total"));
}

/// The digest counters ride the metrics plane: every snapshot reports
/// exactly its runtime's [`ShardedRuntime::digest_totals`], a single-shard
/// runtime reports zero (no replication peers → no digest traffic), and two
/// runtimes' snapshots fold by [`MetricsSnapshot::merge`] into the exact
/// sum — so a fleet-level scrape can aggregate digest overhead without
/// double counting or loss.
#[test]
fn digest_counters_ride_and_merge_in_the_metrics_snapshot() {
    let params = menshen::rmt::TABLE5.with_table_depth(1024);
    let mut template = MenshenPipeline::new(params);
    let mut storing = flow_rule_tenant_with_port(1, RULES, 1001);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    template.load_module(&storing).unwrap();
    for module_id in 2..=TENANTS {
        template
            .load_module(&flow_rule_tenant(module_id, RULES))
            .unwrap();
    }

    let counter = |snapshot: &MetricsSnapshot, name: &str| -> u64 {
        match snapshot.get(name, &[]) {
            Some(MetricValue::Counter(value)) => *value,
            other => panic!("{name} must be a bare counter, got {other:?}"),
        }
    };
    let run = |shards: usize, packets: usize| -> (MetricsSnapshot, (u64, u64)) {
        let mut runtime = ShardedRuntime::from_pipeline(
            &template,
            RuntimeOptions::deterministic(shards).with_steering(SteeringMode::FiveTuple),
        );
        assert_eq!(runtime.replicated_modules(), vec![1]);
        runtime
            .process_batch(flow_workload(TENANTS, RULES, packets))
            .unwrap();
        let snapshot = runtime.metrics_snapshot().unwrap();
        (snapshot, runtime.digest_totals())
    };

    // Each snapshot reports its own runtime's totals, byte for byte.
    let (alone, totals_alone) = run(1, 256);
    let (small, totals_small) = run(2, 256);
    let (wide, totals_wide) = run(4, 512);
    for (snapshot, (packets, bytes)) in [
        (&alone, totals_alone),
        (&small, totals_small),
        (&wide, totals_wide),
    ] {
        assert_eq!(
            counter(snapshot, "menshen_runtime_digest_packets_total"),
            packets
        );
        assert_eq!(
            counter(snapshot, "menshen_runtime_digest_bytes_total"),
            bytes
        );
    }
    assert_eq!(totals_alone, (0, 0), "one shard has no replication peers");
    assert!(totals_small.0 > 0, "two shards must exchange digests");
    assert!(
        totals_wide.0 > totals_small.0,
        "more peers, more digest fan-out"
    );

    // Merging folds the counters into the exact sum and the merged
    // exposition still parses.
    let mut fleet = small.clone();
    fleet.merge(&wide);
    fleet.merge(&alone);
    assert_eq!(
        counter(&fleet, "menshen_runtime_digest_packets_total"),
        totals_small.0 + totals_wide.0
    );
    assert_eq!(
        counter(&fleet, "menshen_runtime_digest_bytes_total"),
        totals_small.1 + totals_wide.1
    );
    validate_prometheus(&fleet.to_prometheus()).expect("merged exposition must parse");
}

/// After a replay through the threaded runtime the conservation audit
/// balances: submitted = processed = forwarded + dropped = ledger total,
/// with nothing left in flight.
#[test]
fn conservation_audit_balances_after_threaded_replay() {
    let mut runtime = ShardedRuntime::from_pipeline(&template(), RuntimeOptions::threaded(2));
    let packets = trace(1024);
    let report = replay_sharded(&mut runtime, &packets, Pacing::Unpaced).unwrap();
    assert!(report.all_packets_accounted());

    let audit = runtime.conservation_audit().unwrap();
    assert!(audit.is_balanced(), "audit must balance: {audit:?}");
    assert_eq!(audit.submitted, 1024);
    assert_eq!(audit.processed, 1024);
    assert_eq!(audit.ledger_total, 1024);
    assert_eq!(audit.in_flight, 0);
    assert_eq!(audit.forwarded + audit.dropped, 1024);
}

/// Every view of the books tells one story across retirement and recovery:
/// after a 4 → 2 shrink with traffic on both sides, the metrics exposition's
/// tenant and sojourn series equal the aggregates, and the ledgers sum to
/// the audit's total; after a worker panic and `supervise()`, the runtime's
/// record still contains everything it held before the kill, so the earlier
/// record subtracts cleanly.
#[test]
fn aggregate_views_agree_across_retirement_and_recovery() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::deterministic(4).with_steering(SteeringMode::FiveTuple),
    );
    runtime.set_profile_interval(8).unwrap();
    runtime.process_batch(trace(1024)).unwrap();
    #[cfg(feature = "profiling")]
    let sampled_before_shrink = runtime.aggregated_profile().unwrap().sampled;
    runtime.resize(2).unwrap();
    let retired = runtime.retired_tally();
    assert_eq!(retired.shards_retired, 2);
    assert!(retired.stats.packets > 0, "the retired shards saw traffic");
    #[cfg(feature = "profiling")]
    {
        let sampled = runtime.aggregated_profile().unwrap().sampled;
        assert!(sampled_before_shrink > 0);
        assert!(
            sampled >= sampled_before_shrink,
            "a retired shard's profile must survive: {sampled_before_shrink} -> {sampled}"
        );
    }
    runtime.process_batch(trace(512)).unwrap();

    let snapshot = runtime.metrics_snapshot().unwrap();
    let counter = |name: &str, labels: &[(&str, &str)]| match snapshot.get(name, labels) {
        Some(MetricValue::Counter(value)) => *value,
        other => panic!("{name} {labels:?} must be a counter, got {other:?}"),
    };
    let histogram = |name: &str, labels: &[(&str, &str)]| match snapshot.get(name, labels) {
        Some(MetricValue::Histogram(histogram)) => histogram.clone(),
        other => panic!("{name} {labels:?} must be a histogram, got {other:?}"),
    };
    let latency = runtime.aggregated_latency().unwrap();
    assert_eq!(
        histogram("menshen_packet_sojourn_ns", &[]),
        latency.packet_ns
    );
    assert_eq!(latency.packet_ns.count(), 1536);
    let tenants = runtime.aggregated_tenants().unwrap();
    let mut ledgers = 0;
    for (tenant, view) in &tenants {
        let tenant = tenant.to_string();
        let tenant = tenant.as_str();
        assert_eq!(
            counter("menshen_tenant_forwarded_total", &[("tenant", tenant)]),
            view.ledger.forwarded
        );
        for (reason, count) in view.ledger.drop_reasons() {
            assert_eq!(
                counter(
                    "menshen_tenant_drops_total",
                    &[("reason", reason), ("tenant", tenant)]
                ),
                count
            );
        }
        assert_eq!(
            histogram("menshen_tenant_sojourn_ns", &[("tenant", tenant)]),
            view.sojourn_ns
        );
        ledgers += view.ledger.total();
    }
    let audit = runtime.conservation_audit().unwrap();
    assert!(audit.is_balanced(), "{audit:?}");
    assert_eq!(ledgers, audit.ledger_total);
    assert_eq!(ledgers, 1536);
    #[cfg(feature = "profiling")]
    assert_eq!(
        counter("menshen_stage_samples_total", &[]),
        runtime.aggregated_profile().unwrap().sampled
    );

    // Threaded: kill a trafficked worker and recover it.
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2)
            .with_steering(SteeringMode::FiveTuple)
            .with_submit_wait(Duration::from_millis(200)),
    );
    runtime.submit_owned(trace(1024)).unwrap();
    runtime.flush();
    let before = runtime.aggregated_latency().unwrap();
    let victim = 0;
    let next_burst = runtime.shard_stats()[victim].bursts + 1;
    runtime.arm_faults(FaultPlan::new().with_worker_panic(victim, next_burst));
    let mut recovered = Vec::new();
    for _ in 0..200 {
        runtime.submit_owned(trace(256)).unwrap();
        recovered.extend(runtime.supervise());
        if !recovered.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    runtime.disarm_faults();
    assert_eq!(recovered.len(), 1, "exactly the scheduled casualty");
    runtime.flush();
    let after = runtime.aggregated_latency().unwrap();
    let delta = after
        .subtracting(&before)
        .expect("the casualty's record survives its recovery");
    assert!(delta.packet_ns.count() > 0);
    assert!(runtime.conservation_audit().unwrap().is_balanced());
}
