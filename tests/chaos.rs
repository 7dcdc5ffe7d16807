//! The chaos suite: deterministic fault injection against the sharded
//! runtime and the network-attached service.
//!
//! Every scenario drives a seeded, replayable [`FaultPlan`] — worker panics
//! and stalls at exact burst indices, wire-level packet faults at exact
//! stream positions, control-connection aborts at exact request indices —
//! and then holds the plane to the conservation contract: every failure is
//! detected and recovered by `supervise()`, and afterwards
//!
//! ```text
//! forwarded + dropped + lost_to_failure == submitted      (in_flight == 0)
//! ```
//!
//! with the per-tenant ledgers independently retelling the same story.

use menshen::core::{MenshenPipeline, ModuleId};
use menshen::io::{control_request, InProcessIo, Service, ServiceConfig, UdpSocketIo};
use menshen::packet::{Packet, PacketBuilder};
use menshen::runtime::{
    ControlEventKind, FaultPlan, FaultSpec, RuntimeError, RuntimeOptions, ShardedRuntime,
    SteeringMode,
};
use menshen::trace::synth::{synthesize, WorkloadSpec};
use menshen_bench::workloads::{flow_rule_tenant, flow_rule_tenant_with_port, flow_workload};
use menshen_rmt::action::AluInstruction;
use menshen_rmt::phv::ContainerRef as C;
use std::time::{Duration, Instant};

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

fn trace(packets: usize) -> Vec<Packet> {
    let mut spec = WorkloadSpec::heavy_tailed(TENANTS, 96, packets);
    spec.rules_per_tenant = RULES;
    spec.mean_rate_pps = 50_000_000.0;
    synthesize(&spec).unwrap()
}

/// Like [`template`], but tenant 1 `store`s its dst IP into stateful word
/// 2 — non-mergeable, so it classifies Replicated under 5-tuple steering
/// and every shard replica replays its digest stream.
fn storing_template() -> MenshenPipeline {
    let params = menshen::rmt::TABLE5.with_table_depth(1024);
    let mut pipeline = MenshenPipeline::new(params);
    let mut storing = flow_rule_tenant_with_port(1, RULES, 1001);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    pipeline.load_module(&storing).unwrap();
    for module_id in 2..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(module_id, RULES))
            .unwrap();
    }
    pipeline
}

/// `n` packets all carrying `tenant`'s VLAN tag — single-shard traffic
/// under tenant-affine steering.
fn tenant_frames(tenant: u16, n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let seq = (i as u32).to_be_bytes();
            PacketBuilder::udp_data(tenant, [10, 0, 0, 1], [10, 0, 0, 2], 7, 80, &seq)
        })
        .collect()
}

/// Which shard `tenant`'s traffic lands on under tenant-affine steering
/// with `shards` shards. Probed through a deterministic replica, which the
/// shard-equivalence suite pins to the exact same steering as the threaded
/// plane.
fn tenant_shard(tenant: u16, shards: usize) -> usize {
    let mut probe =
        ShardedRuntime::from_pipeline(&template(), RuntimeOptions::deterministic(shards));
    probe.process_batch(tenant_frames(tenant, 32)).unwrap();
    let stats = probe.shard_stats();
    stats
        .iter()
        .position(|s| s.packets > 0)
        .expect("the probe batch landed on some shard")
}

/// The shards that see any of the synthetic 4-tenant trace.
fn trafficked_shards(shards: usize) -> Vec<usize> {
    let mut probe =
        ShardedRuntime::from_pipeline(&template(), RuntimeOptions::deterministic(shards));
    probe.process_batch(trace(512)).unwrap();
    probe
        .shard_stats()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.packets > 0)
        .map(|(i, _)| i)
        .collect()
}

/// Asserts the ISSUE's headline identity on a finished audit.
fn assert_conserved(audit: &menshen::runtime::ConservationAudit) {
    assert!(audit.is_balanced(), "books do not balance: {audit:?}");
    assert_eq!(
        audit.forwarded + audit.dropped + audit.lost_to_failure,
        audit.submitted,
        "forwarded + dropped + lost_to_failure must partition submitted: {audit:?}"
    );
    assert_eq!(audit.in_flight, 0, "{audit:?}");
}

/// A scheduled worker panic is contained, detected by the supervisor,
/// routed around, and the shard respawned from a standby replica — across
/// the full dispatcher-threaded path — with every packet accounted for.
#[test]
fn seeded_panics_are_detected_recovered_and_accounted() {
    let victims = trafficked_shards(4);
    assert!(!victims.is_empty());
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(4)
            .with_dispatchers(2)
            .with_submit_wait(Duration::from_millis(100))
            .with_wedge_threshold(Duration::from_secs(30)),
    );
    // Kill up to two distinct trafficked shards, early in their burst
    // streams so a handful of waves reaches the coordinates.
    let mut plan = FaultPlan::new();
    let targets: Vec<usize> = victims.iter().copied().take(2).collect();
    for (i, shard) in targets.iter().enumerate() {
        plan = plan.with_worker_panic(*shard, 2 + i as u64);
    }
    runtime.arm_faults(plan);

    let mut recovered = std::collections::BTreeSet::new();
    let mut reports = Vec::new();
    for _ in 0..200 {
        runtime.submit_owned(trace(256)).unwrap();
        for report in runtime.supervise() {
            recovered.insert(report.shard);
            reports.push(report);
        }
        if targets.iter().all(|s| recovered.contains(s)) {
            break;
        }
        // Death is not instantaneous: the casualty still has to post its
        // final snapshot and unwind off its thread before the supervisor
        // can see the body.
        std::thread::sleep(Duration::from_millis(2));
    }
    // Stop the plan re-firing on respawned workers (their burst counters
    // restart at zero). A worker that re-entered the armed window just
    // before the disarm may still be mid-death — give any such straggler
    // time to land, sweep the plane quiet, then prove the recovered shards
    // carry traffic.
    runtime.disarm_faults();
    std::thread::sleep(Duration::from_millis(50));
    loop {
        let late = runtime.supervise();
        if late.is_empty() {
            break;
        }
        for report in late {
            recovered.insert(report.shard);
            reports.push(report);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    runtime.submit_owned(trace(512)).unwrap();
    runtime.flush();
    assert!(
        runtime.supervise().is_empty(),
        "plane is quiet after disarm"
    );

    assert_eq!(
        recovered,
        targets
            .iter()
            .copied()
            .collect::<std::collections::BTreeSet<_>>(),
        "every scheduled casualty was detected and recovered"
    );
    assert!(runtime.failures() >= targets.len() as u64);
    for report in &reports {
        assert!(report.pause > Duration::ZERO, "{report:?}");
        assert!(report.detection < Duration::from_secs(30), "{report:?}");
    }

    let events = runtime.control_events();
    let failed = events
        .iter()
        .filter(|e| matches!(e.kind, ControlEventKind::ShardFailed { .. }))
        .count();
    let respawned = events
        .iter()
        .filter(|e| matches!(e.kind, ControlEventKind::ShardRecovered { .. }))
        .count();
    assert!(
        failed >= targets.len() && respawned == failed,
        "{failed} failures, {respawned} recoveries"
    );

    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert!(
        audit.lost_to_failure > 0,
        "a mid-burst panic loses its burst"
    );
    // Reports carry the shard-side losses (in-flight burst + sealed-ring
    // residue). A dispatcher refused by a ring in the seal window adds its
    // burst straight to the audit's column, so the audit may exceed the
    // report sum — never the other way around.
    let reported: u64 = reports.iter().map(|r| r.lost_packets).sum();
    assert!(
        reported <= audit.lost_to_failure,
        "reports claim {reported} lost but the audit only carries {}",
        audit.lost_to_failure
    );

    // The failure counter is on the metrics plane too.
    let snapshot = runtime.metrics_snapshot().unwrap();
    let text = snapshot.to_prometheus();
    assert!(
        text.contains("menshen_runtime_failures_total"),
        "failures counter missing from the exposition"
    );
}

/// After a kill and recovery the respawned shard carries traffic again:
/// its packet count grows under fresh load, and the books balance.
#[test]
fn respawned_shard_processes_packets_after_recovery() {
    let victims = trafficked_shards(2);
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2).with_submit_wait(Duration::from_millis(200)),
    );
    let wave = trace(8192);
    runtime.submit_owned(wave.clone()).unwrap();
    runtime.flush();

    // Kill one trafficked shard at its *next* burst and recover it.
    let victim = victims[0];
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
    assert_eq!(recovered[0].shard, victim);

    runtime.flush();
    let before = runtime.shard_stats()[victim].packets;
    runtime.submit_owned(wave).unwrap();
    runtime.flush();
    let after = runtime.shard_stats()[victim].packets;
    assert!(
        after > before,
        "the respawned shard {victim} processed nothing: {before} -> {after}"
    );
    assert_conserved(&runtime.conservation_audit().unwrap());
}

/// The chaos plane is replayable: the same seed derives the same fault
/// schedule, and driving that schedule against the same traffic kills the
/// same shards — with the books conserved on every run. (How often a
/// respawned shard is re-killed before the plan is disarmed is wall-clock
/// timing, so the replay contract is the schedule and the casualty set,
/// not the kill count.)
#[test]
fn same_seed_replays_the_same_failure_schedule() {
    const SEED: u64 = 1984;
    let spec = FaultSpec {
        shards: 4,
        burst_horizon: 8,
        worker_panics: 2,
        worker_stalls: 1,
        stall: Duration::from_millis(1),
        packet_horizon: 1,
        packet_faults: 0,
    };
    // The schedule itself is bit-identical across derivations.
    let schedule: Vec<_> = FaultPlan::randomized(SEED, &spec).worker_faults().collect();
    assert_eq!(
        schedule,
        FaultPlan::randomized(SEED, &spec)
            .worker_faults()
            .collect::<Vec<_>>(),
        "one seed, one schedule"
    );
    assert!(!schedule.is_empty());

    fn run(seed: u64, spec: &FaultSpec) -> std::collections::BTreeSet<u64> {
        let mut runtime = ShardedRuntime::from_pipeline(
            &template(),
            RuntimeOptions::threaded(4).with_submit_wait(Duration::from_secs(5)),
        );
        runtime.arm_faults(FaultPlan::randomized(seed, spec));
        for _ in 0..24 {
            runtime.submit_owned(trace(256)).unwrap();
            runtime.supervise();
            std::thread::sleep(Duration::from_millis(2));
        }
        // Let every casualty finish dying, recover it, then disarm and
        // prove the books.
        for _ in 0..50 {
            runtime.supervise();
            let stuck = runtime
                .control_events()
                .iter()
                .filter(|e| matches!(e.kind, ControlEventKind::ShardFailed { .. }))
                .count()
                == 0;
            if !stuck {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        runtime.disarm_faults();
        runtime.flush();
        runtime.supervise();
        runtime.flush();
        let audit = runtime.conservation_audit().unwrap();
        assert_conserved(&audit);
        runtime
            .control_events()
            .iter()
            .filter_map(|e| match e.kind {
                ControlEventKind::ShardFailed { shard, .. } => Some(shard),
                _ => None,
            })
            .collect()
    }
    let a = run(SEED, &spec);
    let b = run(SEED, &spec);
    assert!(
        !a.is_empty(),
        "seed {SEED} schedules at least one reachable panic"
    );
    assert_eq!(a, b, "same seed, same traffic — same casualties");
}

/// Graceful degradation: when one shard backs up, the bounded submission
/// wait sheds the *overloaded tenant's* packets as typed backpressure drops
/// — the neighbour tenant on the healthy shard never loses a packet and
/// never stalls behind the hot one.
#[test]
fn an_overloaded_tenant_sheds_without_blocking_its_neighbours() {
    // Find two tenants that land on different shards of a 2-shard plane.
    let (hot, cold) = {
        let shard_of: Vec<(u16, usize)> = (1..=TENANTS).map(|t| (t, tenant_shard(t, 2))).collect();
        let (hot, hot_shard) = shard_of[0];
        let cold = shard_of
            .iter()
            .find(|(_, s)| *s != hot_shard)
            .map(|(t, _)| *t)
            .expect("four tenants cover both shards");
        (hot, cold)
    };
    let hot_shard = tenant_shard(hot, 2);

    let mut options = RuntimeOptions::threaded(2).with_submit_wait(Duration::from_millis(20));
    options.ring_capacity = 2;
    let mut runtime = ShardedRuntime::from_pipeline(&template(), options);
    // The hot tenant's shard sleeps through its first burst while its tiny
    // rings fill behind it.
    runtime.arm_faults(FaultPlan::new().with_worker_stall(
        hot_shard,
        0,
        Duration::from_millis(500),
    ));

    let mut hot_submitted = 0u64;
    let mut cold_submitted = 0u64;
    for _ in 0..8 {
        runtime.submit_owned(tenant_frames(hot, 32)).unwrap();
        hot_submitted += 32;
        runtime.submit_owned(tenant_frames(cold, 32)).unwrap();
        cold_submitted += 32;
    }
    runtime.disarm_faults();
    runtime.flush();

    let shed = runtime.shed_by_tenant();
    let hot_shed = shed.get(&hot).copied().unwrap_or(0);
    let cold_shed = shed.get(&cold).copied().unwrap_or(0);
    assert!(
        hot_shed > 0,
        "the stalled shard's tenant pays in shed packets: {shed:?}"
    );
    assert_eq!(cold_shed, 0, "the healthy tenant never sheds: {shed:?}");

    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert_eq!(audit.shed, hot_shed, "{audit:?}");
    assert_eq!(audit.lost_to_failure, 0, "nothing died: {audit:?}");
    assert_eq!(
        audit.submitted,
        hot_submitted + cold_submitted,
        "shed packets still count as submitted"
    );

    // The ledgers tell the same story, per tenant: the hot tenant's losses
    // are *typed* backpressure drops, the cold tenant has none.
    let tenants = runtime.aggregated_tenants().unwrap();
    assert_eq!(tenants[&hot].ledger.dropped_backpressure, hot_shed);
    assert_eq!(tenants[&cold].ledger.dropped_backpressure, 0);
    let cold_ledger = &tenants[&cold].ledger;
    assert_eq!(
        cold_ledger.forwarded
            + cold_ledger
                .drop_reasons()
                .iter()
                .map(|(_, n)| n)
                .sum::<u64>(),
        cold_submitted,
        "every cold-tenant packet got a verdict"
    );
}

/// Satellite (c): a stalled shard turns a synchronous control op into a
/// typed `EpochTimeout` under traffic — and once the stall clears, later
/// epochs publish normally (the timeout wedges nothing).
#[test]
fn a_stalled_shard_times_out_the_control_op_without_wedging_later_epochs() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2).with_wedge_threshold(Duration::from_secs(30)),
    );
    runtime.set_control_timeout(Some(Duration::from_millis(100)));
    // Whichever shard the trace hits first sleeps well past the control
    // deadline; stall both coordinates so the fault fires regardless of the
    // tenant→shard map.
    runtime.arm_faults(
        FaultPlan::new()
            .with_worker_stall(0, 0, Duration::from_millis(600))
            .with_worker_stall(1, 0, Duration::from_millis(600)),
    );
    runtime.submit_owned(trace(256)).unwrap();

    let err = runtime
        .load_module(&flow_rule_tenant(9, 8))
        .expect_err("a stalled shard must fail the sync op, not hang it");
    match err {
        RuntimeError::EpochTimeout { waited, .. } => {
            assert_eq!(waited, Duration::from_millis(100));
        }
        other => panic!("expected EpochTimeout, got {other:?}"),
    }

    // The stall passes; the plane is not wedged: the next sync op flushes,
    // publishes and applies cleanly, and traffic keeps balancing.
    runtime.disarm_faults();
    runtime.flush();
    runtime
        .load_module(&flow_rule_tenant(9, 8))
        .expect("later epochs publish normally after the stall clears");
    runtime.submit_owned(trace(256)).unwrap();
    runtime.flush();
    assert_eq!(runtime.failures(), 0, "a stall is not a failure");
    assert!(runtime.supervise().is_empty(), "nothing to recover");
    assert_conserved(&runtime.conservation_audit().unwrap());
}

/// Submissions against a plane whose workers have all died return within
/// the bounded wait (shed, typed per tenant) instead of parking forever —
/// and supervision then rebuilds the whole plane.
#[test]
fn submissions_against_dead_shards_return_bounded_never_park() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2)
            .with_submit_wait(Duration::from_millis(30))
            .with_wedge_threshold(Duration::from_secs(30)),
    );
    // Both workers die on their very first burst.
    runtime.arm_faults(
        FaultPlan::new()
            .with_worker_panic(0, 0)
            .with_worker_panic(1, 0),
    );
    let start = Instant::now();
    for _ in 0..10 {
        // Rings of dead workers stay open (failure containment), so pushes
        // land until the rings fill, then shed after the bounded wait; the
        // call must always come back.
        runtime.submit_owned(trace(128)).unwrap();
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "bounded-wait submission never parks forever"
    );

    // Poll until both corpses surface — the plan stays armed until then,
    // so even a worker the scheduler was slow to run still meets its
    // burst-0 fault. No traffic flows here, so a respawned worker (fresh
    // burst counter) cannot re-fire before the disarm below.
    let mut reports = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while reports.len() < 2 {
        assert!(
            Instant::now() < deadline,
            "corpses never surfaced: {reports:?}"
        );
        reports.extend(runtime.supervise());
        std::thread::sleep(Duration::from_millis(2));
    }
    runtime.disarm_faults();
    assert_eq!(reports.len(), 2, "both casualties recovered: {reports:?}");
    runtime.submit_owned(trace(512)).unwrap();
    runtime.flush();
    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert!(audit.lost_to_failure > 0);
}

/// Digest traffic is control metadata, not packets: a replicated tenant's
/// digest broadcast must leave the conservation identity untouched —
/// `forwarded + dropped + lost_to_failure == submitted` counts data packets
/// only, on a plane that demonstrably carried digests the whole time.
#[test]
fn digest_traffic_never_perturbs_the_conservation_audit() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &storing_template(),
        RuntimeOptions::threaded(4)
            .with_steering(SteeringMode::FiveTuple)
            .with_submit_wait(Duration::from_millis(200)),
    );
    assert_eq!(runtime.replicated_modules(), vec![1]);
    let submitted = 8 * 512u64;
    for _ in 0..8 {
        runtime
            .submit_owned(flow_workload(TENANTS, RULES, 512))
            .unwrap();
    }
    runtime.flush();

    let (digest_packets, digest_bytes) = runtime.digest_totals();
    assert!(
        digest_packets > 0 && digest_bytes > 0,
        "replication on a 4-shard plane must broadcast digests"
    );
    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert_eq!(
        audit.submitted, submitted,
        "digests must not inflate the submitted column: {audit:?}"
    );
    assert_eq!(audit.lost_to_failure, 0, "nothing died: {audit:?}");
    // The per-tenant ledgers retell it: every data packet got exactly one
    // verdict, replayed digests got none.
    let tenants = runtime.aggregated_tenants().unwrap();
    let verdicts: u64 = tenants
        .values()
        .map(|t| t.ledger.forwarded + t.ledger.drop_reasons().iter().map(|(_, n)| n).sum::<u64>())
        .sum();
    assert_eq!(verdicts, submitted, "one verdict per data packet, exactly");
}

/// SCR under fire: a shard killed mid-digest-stream loses its replica of
/// the storing tenant's words; `supervise()` respawns it and reseeds the
/// replica from a live peer's snapshot. Afterwards every shard holds
/// bit-identical copies again — traffic after the rebuild keeps them in
/// lockstep — and the books balance.
#[test]
fn a_replica_killed_mid_digest_stream_is_rebuilt_from_a_live_peer() {
    let mut runtime = ShardedRuntime::from_pipeline(
        &storing_template(),
        RuntimeOptions::threaded(4)
            .with_steering(SteeringMode::FiveTuple)
            .with_submit_wait(Duration::from_millis(100))
            .with_wedge_threshold(Duration::from_secs(30)),
    );
    assert_eq!(runtime.replicated_modules(), vec![1]);
    // Seed every replica with digest-carried state, then kill one shard at
    // its next burst — mid-stream, with digests still in flight.
    runtime
        .submit_owned(flow_workload(TENANTS, RULES, 1024))
        .unwrap();
    runtime.flush();
    let victim = 1usize;
    let next_burst = runtime.shard_stats()[victim].bursts + 1;
    runtime.arm_faults(FaultPlan::new().with_worker_panic(victim, next_burst));

    let mut recovered = Vec::new();
    for _ in 0..200 {
        runtime
            .submit_owned(flow_workload(TENANTS, RULES, 256))
            .unwrap();
        recovered.extend(runtime.supervise());
        if !recovered.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    runtime.disarm_faults();
    std::thread::sleep(Duration::from_millis(50));
    loop {
        let late = runtime.supervise();
        if late.is_empty() {
            break;
        }
        recovered.extend(late);
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        recovered.iter().any(|r| r.shard == victim),
        "the scheduled casualty was recovered: {recovered:?}"
    );

    // Post-rebuild traffic: the respawned replica must replay digests in
    // lockstep with its peers from its reseeded baseline.
    runtime
        .submit_owned(flow_workload(TENANTS, RULES, 1024))
        .unwrap();
    runtime.flush();

    let storing = [ModuleId::new(1)];
    let reference = runtime
        .export_shard_state(0, &storing)
        .unwrap()
        .pop()
        .expect("shard 0 holds the replicated module");
    assert!(
        reference.stages.iter().any(|s| s.iter().any(|&w| w != 0)),
        "the storing tenant's words advanced"
    );
    for shard in 1..runtime.shard_count() {
        let replica = runtime
            .export_shard_state(shard, &storing)
            .unwrap()
            .pop()
            .unwrap_or_else(|| panic!("shard {shard} holds the replicated module"));
        assert_eq!(
            replica.stages, reference.stages,
            "shard {shard}'s replica diverged from shard 0 after the rebuild"
        );
    }
    assert_conserved(&runtime.conservation_audit().unwrap());
}

/// Wire-level chaos: a seeded schedule of drops, duplicates, reorders and
/// TPID corruption applied in front of the real UDP socket backend. The
/// service's books balance against what actually arrived — a hostile wire
/// can change *what* the plane sees, never make the accounting lie.
#[test]
fn wire_level_packet_faults_keep_the_service_books_balanced() {
    use menshen::runtime::PacketFault;
    let clean: Vec<Vec<u8>> = tenant_frames(3, 64)
        .iter()
        .map(|p| p.bytes().to_vec())
        .collect();
    let plan = FaultPlan::new()
        .with_packet_fault(3, PacketFault::Drop)
        .with_packet_fault(9, PacketFault::Duplicate)
        .with_packet_fault(17, PacketFault::Reorder)
        .with_packet_fault(30, PacketFault::Corrupt)
        .with_packet_fault(31, PacketFault::Duplicate)
        .with_packet_fault(50, PacketFault::Drop);
    let wire = plan.apply_to_frames(&clean);
    assert_eq!(wire.len(), clean.len(), "2 dropped, 2 duplicated");

    let io = UdpSocketIo::bind(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), 2).unwrap();
    let addrs = io.local_addrs();
    let mut service = Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
    let feeder = std::net::UdpSocket::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
    for (i, frame) in wire.iter().enumerate() {
        feeder.send_to(frame, addrs[i % addrs.len()]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.packets_received() < wire.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "service never saw the faulted stream: {} of {}",
            service.packets_received(),
            wire.len()
        );
        service.poll().unwrap();
    }
    let report = service.graceful_drain().unwrap();
    assert!(
        report.balanced,
        "faulted wire unbalanced the books: {report:?}"
    );
    assert_eq!(report.link.rx_packets, wire.len() as u64);
    assert_eq!(
        report.audit.submitted + report.rx_discarded,
        report.link.rx_packets,
        "every arrived frame is either in the audit or counted discarded"
    );
    assert_conserved(&report.audit);
}

/// Control-plane chaos: clients that tear their connection down
/// mid-exchange, at seeded request indices, never take the service with
/// them — the surviving requests are answered and the drain still balances.
#[test]
fn control_disconnects_mid_exchange_leave_the_service_serving() {
    let plan = FaultPlan::new()
        .with_control_disconnect(1)
        .with_control_disconnect(3)
        .with_control_disconnect(4);
    let (io, handle) = InProcessIo::new();
    let mut service = Service::new(&template(), Box::new(io), ServiceConfig::default()).unwrap();
    let addr = service.control_addr().expect("control listener");

    let client = std::thread::spawn(move || {
        let timeout = Duration::from_secs(10);
        let mut replies = Vec::new();
        for request in 0..6u64 {
            if plan.control_disconnect(request) {
                // The scheduled abort: write the request, slam the
                // connection shut before reading the reply.
                use std::io::Write;
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(b"STATS\n").unwrap();
                drop(stream);
            } else {
                replies.push(control_request(addr, "PING", timeout).unwrap());
            }
        }
        replies.push(control_request(addr, "DRAIN", timeout).unwrap());
        replies
    });

    let mut injected = 0usize;
    while !service.drain_requested() {
        if injected < 4_096 {
            handle.inject(tenant_frames(3, 32));
            injected += 32;
        }
        service.poll().unwrap();
    }
    let replies = client.join().unwrap();
    assert_eq!(replies.len(), 4, "three PINGs and the DRAIN all answered");
    assert!(replies[..3].iter().all(|r| r == "ok pong"), "{replies:?}");
    assert_eq!(replies[3], "ok draining");

    let report = service.graceful_drain().unwrap();
    assert!(
        report.balanced,
        "aborted control clients cost packets: {report:?}"
    );
    assert_eq!(report.audit.submitted, injected as u64);
}

// ---------------------------------------------------------------------------
// The return path: spent bursts ride a per-shard ring back to the submitting
// thread. It is a convenience for the allocator, never a dependency of the
// plane — it may overflow, go unread or die with its worker, and the plane
// neither wedges nor loses count.
// ---------------------------------------------------------------------------

/// One submission far larger than every ring: the return rings overflow
/// while the caller is still pushing (it only reclaims once it has pushed
/// everything), the shards fall back to dropping spent bursts themselves,
/// and nothing is shed or lost.
#[test]
fn a_submission_that_overflows_the_return_rings_completes_in_full() {
    const PACKETS: usize = 32_768;
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2).with_steering(SteeringMode::FiveTuple),
    );
    runtime
        .submit_owned(flow_workload(TENANTS, RULES, PACKETS))
        .unwrap();
    runtime.flush();
    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert_eq!(audit.submitted, PACKETS as u64);
    assert_eq!(audit.processed, PACKETS as u64, "{audit:?}");
    assert_eq!(audit.shed, 0, "{audit:?}");
    assert_eq!(audit.lost_to_failure, 0, "{audit:?}");
    assert!(
        runtime.shard_stats().iter().all(|s| s.packets > 0),
        "both shards carried traffic"
    );
}

/// A caller that submits once and then never calls the runtime again: the
/// return rings fill and stay full, and the shards must still finish the
/// backlog and exit when asked — a shard never waits on its return ring.
#[test]
fn a_caller_that_never_comes_back_cannot_wedge_shutdown() {
    const PACKETS: usize = 32_768;
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2).with_steering(SteeringMode::FiveTuple),
    );
    runtime
        .submit_owned(flow_workload(TENANTS, RULES, PACKETS))
        .unwrap();
    let start = Instant::now();
    runtime.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown joined the shards in {:?}",
        start.elapsed()
    );
    assert_eq!(
        runtime.total_stats().packets,
        PACKETS as u64,
        "the shards drained everything that was queued before exiting"
    );
}

/// A worker dies with spent bursts still sitting in its return ring. The
/// supervisor takes them home before the dead worker's handle (and with it
/// the ring) is dropped, the respawned worker gets a fresh ring, and the
/// books balance to the packet.
#[test]
fn a_worker_killed_with_a_loaded_return_ring_is_respawned_and_the_books_balance() {
    let victim = tenant_shard(1, 2);
    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(2)
            .with_submit_wait(Duration::from_millis(200))
            .with_wedge_threshold(Duration::from_secs(30)),
    );
    // The victim sleeps through the submission — so the submitter's own
    // reclaim finds nothing — then finishes bursts 0..=5, sending each one
    // home, and dies on burst 6 with burst 7 still queued.
    runtime.arm_faults(
        FaultPlan::new()
            .with_worker_stall(victim, 0, Duration::from_millis(100))
            .with_worker_panic(victim, 6),
    );
    runtime.submit_owned(tenant_frames(1, 8 * 32)).unwrap();

    let mut reports = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while reports.is_empty() {
        assert!(Instant::now() < deadline, "the corpse never surfaced");
        reports.extend(runtime.supervise());
        std::thread::sleep(Duration::from_millis(2));
    }
    runtime.disarm_faults();
    assert_eq!(reports.len(), 1, "{reports:?}");
    assert_eq!(reports[0].shard, victim);
    assert_eq!(
        reports[0].lost_packets, 64,
        "the burst in flight plus the one still queued: {reports:?}"
    );

    // The replacement carries traffic and sends it home over its own ring.
    for _ in 0..4 {
        runtime.submit_owned(tenant_frames(1, 256)).unwrap();
        runtime.flush();
    }
    assert!(runtime.supervise().is_empty(), "the plane is quiet");
    let audit = runtime.conservation_audit().unwrap();
    assert_conserved(&audit);
    assert_eq!(audit.submitted, 8 * 32 + 4 * 256);
    assert_eq!(audit.lost_to_failure, 64, "{audit:?}");
    assert_eq!(audit.processed, 6 * 32 + 4 * 256, "{audit:?}");
    let start = Instant::now();
    runtime.shutdown();
    assert!(start.elapsed() < Duration::from_secs(10));
}
