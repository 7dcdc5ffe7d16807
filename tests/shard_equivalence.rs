//! Shard/single equivalence: for any shard count 1..=8, the sharded runtime
//! in deterministic mode must be indistinguishable from one big
//! `MenshenPipeline` fed the same packets and the same control-plane
//! operations — same per-position verdict projections (and therefore the
//! same per-tenant verdict multisets), same per-tenant counter totals after
//! cross-shard aggregation, same stateful-memory evolution, same device
//! statistics — including across randomly interleaved reconfigurations
//! (module updates, unload/reload cycles, begin/end reconfiguration marks).
//!
//! The verdict projection compares forwarded bytes, egress ports, module
//! attribution and drop reasons. The final PHV is deliberately excluded: it
//! carries hardware-local artefacts (the per-filter buffer-tag round robin,
//! the per-pipeline cycle stamp) that legitimately differ between one filter
//! instance and N replicated ones without being tenant-observable in the
//! packet or its forwarding.
//!
//! In the style of this repository's other property tests, these are seeded
//! randomized loops (the workspace has no proptest): every failure is
//! reproducible from the printed seed.

use menshen::prelude::*;
use menshen_bench::workloads::{flow_dst_ip, flow_rule_tenant_with_port};
use menshen_core::{CoreError, ModuleConfig, ModuleCounters, DIGEST_MAX_FIELDS};
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::action::AluInstruction;
use menshen_rmt::config::{KeyMask, ParseAction, ParserEntry};
use menshen_rmt::params::PARSE_ACTIONS_PER_ENTRY;
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::RmtError;
use menshen_runtime::{DispatchSpray, RuntimeError, ShardedRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const TENANTS: u16 = 6;
const FLOWS_PER_TENANT: usize = 4;

/// The canonical tenant-observable projection of a verdict.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum VerdictKey {
    Forwarded {
        module_id: u16,
        bytes: Vec<u8>,
        ports: Vec<u16>,
    },
    Dropped {
        module_id: Option<u16>,
        reason: String,
    },
}

fn project(verdict: &Verdict) -> VerdictKey {
    match verdict {
        Verdict::Forwarded {
            packet,
            ports,
            module_id,
            ..
        } => VerdictKey::Forwarded {
            module_id: *module_id,
            bytes: packet.bytes().to_vec(),
            ports: ports.clone(),
        },
        Verdict::Dropped { reason, module_id } => VerdictKey::Dropped {
            module_id: *module_id,
            reason: format!("{reason:?}"),
        },
    }
}

/// The shared flow-rule tenant shape (`menshen_bench::workloads`): match on
/// dst IP, rewrite the UDP dst port, count packets in stateful word 0.
fn tenant_module(module_id: u16, rewrite_port: u16) -> ModuleConfig {
    flow_rule_tenant_with_port(module_id, FLOWS_PER_TENANT, rewrite_port)
}

/// A random packet: mostly tenant hits, plus misses, unknown modules,
/// untagged frames and data-path reconfiguration attempts.
fn random_packet(rng: &mut StdRng) -> Packet {
    let roll: u32 = rng.gen_range(0..100u32);
    if roll < 70 {
        // A hit for a random tenant (one of its flow-rule IPs), random
        // flow fields.
        let module = rng.gen_range(1..=TENANTS);
        let ip = flow_dst_ip(module, rng.gen_range(0..FLOWS_PER_TENANT));
        PacketBuilder::udp_data(
            module,
            [10, 0, 0, rng.gen_range(1..250u8)],
            [
                ((ip >> 24) & 0xff) as u8,
                ((ip >> 16) & 0xff) as u8,
                ((ip >> 8) & 0xff) as u8,
                (ip & 0xff) as u8,
            ],
            rng.gen_range(1024..65000u16),
            80,
            &[0u8; 8],
        )
    } else if roll < 85 {
        // A miss for a random tenant (wrong dst IP): forwarded un-rewritten.
        let module = rng.gen_range(1..=TENANTS);
        PacketBuilder::udp_data(
            module,
            [10, 0, 0, 1],
            [10, 9, 9, rng.gen_range(1..250u8)],
            5000,
            80,
            &[0u8; 8],
        )
    } else if roll < 92 {
        // Unknown module ID.
        PacketBuilder::udp_data(
            900 + rng.gen_range(0..50u16),
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            &[],
        )
    } else if roll < 96 {
        // Untagged frame.
        let mut builder = PacketBuilder::new();
        builder.vlan = None;
        builder.build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[])
    } else {
        // Data-path reconfiguration attempt (must drop without applying).
        menshen_core::ReconfigCommand::write(
            menshen_core::ResourceKind::KeyMask,
            0,
            0,
            menshen_core::WritePayload::KeyMask(KeyMask::default()),
        )
        .to_packet()
    }
}

/// One random control-plane event, applied identically to both sides.
fn random_control(
    rng: &mut StdRng,
    single: &mut MenshenPipeline,
    sharded: &mut ShardedRuntime,
    marked: &mut Vec<u16>,
) {
    let module = rng.gen_range(1..=TENANTS);
    match rng.gen_range(0..5u32) {
        0 => {
            // Update with a fresh rewrite port.
            let port = rng.gen_range(10000..60000u16);
            let config = tenant_module(module, port);
            single.update_module(&config).expect("single update");
            sharded.update_module(&config).expect("sharded update");
        }
        1 => {
            // Unload + reload (slot churn).
            let port = rng.gen_range(10000..60000u16);
            let config = tenant_module(module, port);
            single
                .unload_module(ModuleId::new(module))
                .expect("single unload");
            sharded
                .unload_module(ModuleId::new(module))
                .expect("sharded unload");
            single.load_module(&config).expect("single reload");
            sharded.load_module(&config).expect("sharded reload");
        }
        2 => {
            // Mark as being reconfigured (drops its packets until cleared).
            single
                .begin_reconfiguration(ModuleId::new(module))
                .expect("single begin");
            sharded
                .begin_reconfiguration(ModuleId::new(module))
                .expect("sharded begin");
            marked.push(module);
        }
        3 => {
            // Clear a pending mark, if any.
            if let Some(module) = marked.pop() {
                single
                    .end_reconfiguration(ModuleId::new(module))
                    .expect("single end");
                sharded
                    .end_reconfiguration(ModuleId::new(module))
                    .expect("sharded end");
            }
        }
        _ => {
            // System-module routing change.
            let ip = menshen_packet::Ipv4Address::new(10, 9, 9, rng.gen_range(1..250u8));
            let port = rng.gen_range(1..64u16);
            single.system_mut().add_route(ip, port);
            sharded.add_route(ip, port).expect("sharded route");
        }
    }
}

struct RunOutcome {
    /// Per-tenant verdict multisets (None = packets with no attributed module).
    multisets: HashMap<Option<u16>, Vec<VerdictKey>>,
}

/// Runs the randomized equivalence experiment.
///
/// With `dispatchers == 0` (the classic inline dispatcher) the sharded
/// runtime must match the lone pipeline *per position*. With dispatcher
/// threads modeled (`dispatchers ≥ 1`) packets of different tenants
/// interleave differently per shard — exactly as with parallel NIC queues —
/// so the guarantee is the per-burst verdict *multiset* (and therefore the
/// per-tenant multisets), which this function asserts instead.
fn run_equivalence_with(
    shards: usize,
    dispatchers: usize,
    spray: DispatchSpray,
    seed: u64,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    // A CAM deep enough for TENANTS × FLOWS_PER_TENANT rules per stage.
    let params = TABLE5.with_table_depth(64);
    let mut single = MenshenPipeline::new(params);
    let mut sharded = ShardedRuntime::new(
        params,
        RuntimeOptions::deterministic(shards)
            .with_dispatchers(dispatchers)
            .with_spray(spray),
    );
    for module in 1..=TENANTS {
        let config = tenant_module(module, 1000 + module);
        single.load_module(&config).expect("single load");
        sharded.load_module(&config).expect("sharded load");
    }

    let mut marked = Vec::new();
    let mut multisets: HashMap<Option<u16>, Vec<VerdictKey>> = HashMap::new();
    let bursts = 40;
    for burst_index in 0..bursts {
        // Interleave control-plane changes between bursts, exactly where the
        // single pipeline applies them too.
        if burst_index > 0 && rng.gen_bool(0.4) {
            random_control(&mut rng, &mut single, &mut sharded, &mut marked);
        }
        let burst: Vec<Packet> = (0..rng.gen_range(1..64usize))
            .map(|_| random_packet(&mut rng))
            .collect();
        let expected = single.process_batch(burst.clone());
        let got = sharded.process_batch(burst).expect("deterministic mode");
        assert_eq!(expected.len(), got.len());
        if dispatchers == 0 {
            for (position, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    project(a),
                    project(b),
                    "seed {seed}, {shards} shards, burst {burst_index}, packet {position}"
                );
            }
        } else {
            // Parallel dispatch reorders across tenants within a burst; the
            // burst-level verdict multiset must still be identical.
            let mut a: Vec<VerdictKey> = expected.iter().map(project).collect();
            let mut b: Vec<VerdictKey> = got.iter().map(project).collect();
            a.sort();
            b.sort();
            assert_eq!(
                a, b,
                "seed {seed}, {shards} shards × {dispatchers} dispatchers ({spray:?}), \
                 burst {burst_index}: verdict multisets diverged"
            );
        }
        for verdict in &expected {
            let key = project(verdict);
            let bucket = match &key {
                VerdictKey::Forwarded { module_id, .. } => Some(*module_id),
                VerdictKey::Dropped { module_id, .. } => *module_id,
            };
            multisets.entry(bucket).or_default().push(key);
        }
    }
    for module in marked.drain(..) {
        single
            .end_reconfiguration(ModuleId::new(module))
            .expect("single end");
        sharded
            .end_reconfiguration(ModuleId::new(module))
            .expect("sharded end");
    }

    // Counter totals: aggregation across shards equals the single pipeline.
    let aggregated = sharded.aggregated_counters().expect("snapshot applies");
    for module in 1..=TENANTS {
        let expected = single
            .module_counters(ModuleId::new(module))
            .expect("module loaded");
        let got = aggregated
            .get(&module)
            .copied()
            .unwrap_or(ModuleCounters::default());
        assert_eq!(
            expected, got,
            "seed {seed}, {shards} shards: module {module} counters diverged"
        );
        // Stateful evolution (the per-flow `loadd` counter in word 0).
        assert_eq!(
            single.read_stateful(ModuleId::new(module), 0, 0),
            sharded.read_stateful_aggregate(ModuleId::new(module), 0, 0),
            "seed {seed}, {shards} shards: module {module} stateful word diverged"
        );
    }
    // Device statistics: the link observed the same admitted traffic.
    let system = sharded.aggregated_system_stats().expect("snapshot applies");
    assert_eq!(
        single.system().stats().link_packets,
        system.link_packets,
        "seed {seed}, {shards} shards: link packet counts diverged"
    );

    RunOutcome { multisets }
}

#[test]
fn sharded_runtime_is_equivalent_for_every_shard_count() {
    let mut reference: Option<HashMap<Option<u16>, Vec<VerdictKey>>> = None;
    for shards in 1..=8 {
        // Same seed for every shard count: the verdict multisets must also
        // agree *across* shard counts, since steering only redistributes
        // work and never changes per-tenant semantics.
        let mut outcome = run_equivalence_with(shards, 0, DispatchSpray::RoundRobin, 0xE0_0001);
        for bucket in outcome.multisets.values_mut() {
            bucket.sort();
        }
        match &reference {
            None => reference = Some(outcome.multisets),
            Some(reference) => {
                assert_eq!(
                    reference, &outcome.multisets,
                    "{shards} shards produced different per-tenant multisets"
                );
            }
        }
    }
}

#[test]
fn randomized_interleavings_hold_across_seeds() {
    for (index, seed) in [3u64, 0xBEEF, 0x1234_5678, 0xDEAD_0042]
        .into_iter()
        .enumerate()
    {
        // Vary the shard count with the seed to cover odd counts too.
        let shards = 2 + (index * 2 + 1) % 7; // 3, 5, 7, 2 → odd-heavy mix
        run_equivalence_with(shards, 0, DispatchSpray::RoundRobin, seed);
    }
}

#[test]
fn multi_dispatcher_grid_is_equivalent_to_the_lone_pipeline() {
    // The acceptance grid: 2–4 dispatchers × 1–8 shards, interleaved
    // reconfigurations throughout (run_equivalence_with mixes control-plane
    // events between bursts). Per-tenant verdict multisets, counter totals,
    // stateful words and link statistics must match the lone pipeline at
    // every point — and, with the shared seed, agree across the whole grid.
    let mut reference: Option<HashMap<Option<u16>, Vec<VerdictKey>>> = None;
    for dispatchers in [2usize, 3, 4] {
        for shards in [1usize, 3, 8] {
            let mut outcome =
                run_equivalence_with(shards, dispatchers, DispatchSpray::RoundRobin, 0xD15_0001);
            for bucket in outcome.multisets.values_mut() {
                bucket.sort();
            }
            match &reference {
                None => reference = Some(outcome.multisets),
                Some(reference) => assert_eq!(
                    reference, &outcome.multisets,
                    "{dispatchers} dispatchers × {shards} shards diverged"
                ),
            }
        }
    }
}

#[test]
fn flow_affine_spray_holds_the_same_equivalence() {
    // The RETA-partitioned (flow-affine) spray preserves per-flow order end
    // to end; the equivalence contract is identical.
    for (dispatchers, shards) in [(2usize, 4usize), (4, 5), (3, 1)] {
        run_equivalence_with(shards, dispatchers, DispatchSpray::FlowAffine, 0x00AF_F14E);
    }
}

/// The elastic variant of the equivalence experiment: a fixed grow/shrink
/// resize schedule (plus the usual random control-plane churn) interleaves
/// with the bursts, and the sharded runtime must stay indistinguishable from
/// the lone pipeline throughout — per-position verdicts with the inline
/// dispatcher, per-burst multisets with dispatcher threads, and counter
/// totals / stateful words / link statistics at the end.
///
/// `resize_plan` names the shard counts visited after every third burst;
/// `None` entries perform a custom `set_reta` rewrite instead (all entries
/// to shard 0), exercising tenant moves without a count change.
#[allow(clippy::too_many_arguments)]
fn run_elastic_equivalence(
    initial_shards: usize,
    dispatchers: usize,
    spray: DispatchSpray,
    steering: SteeringMode,
    resize_plan: &[Option<usize>],
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = TABLE5.with_table_depth(64);
    let mut single = MenshenPipeline::new(params);
    let mut sharded = ShardedRuntime::new(
        params,
        RuntimeOptions::deterministic(initial_shards)
            .with_dispatchers(dispatchers)
            .with_spray(spray)
            .with_steering(steering),
    );
    for module in 1..=TENANTS {
        let config = tenant_module(module, 1000 + module);
        single.load_module(&config).expect("single load");
        sharded.load_module(&config).expect("sharded load");
    }
    let mut marked = Vec::new();
    let mut resizes = resize_plan.iter();
    let bursts = 3 * resize_plan.len() + 3;
    for burst_index in 0..bursts {
        if burst_index % 3 == 2 {
            match resizes.next() {
                Some(Some(target)) => {
                    let report = sharded.resize(*target).expect("resize");
                    assert_eq!(report.to_shards, *target, "seed {seed}");
                    assert_eq!(sharded.shard_count(), *target);
                }
                Some(None) => {
                    // Concentrate every RETA entry on shard 0: all tenants
                    // move there, no shard count change.
                    let reta = [0u16; menshen_runtime::RETA_SIZE];
                    sharded.set_reta(reta).expect("set_reta");
                }
                None => {}
            }
        } else if burst_index > 0 && rng.gen_bool(0.35) {
            random_control(&mut rng, &mut single, &mut sharded, &mut marked);
        }
        let burst: Vec<Packet> = (0..rng.gen_range(1..64usize))
            .map(|_| random_packet(&mut rng))
            .collect();
        let expected = single.process_batch(burst.clone());
        let got = sharded.process_batch(burst).expect("deterministic mode");
        assert_eq!(expected.len(), got.len());
        if dispatchers == 0 {
            for (position, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    project(a),
                    project(b),
                    "seed {seed}, burst {burst_index}, packet {position} \
                     ({steering:?}, {} shards)",
                    sharded.shard_count()
                );
            }
        } else {
            let mut a: Vec<VerdictKey> = expected.iter().map(project).collect();
            let mut b: Vec<VerdictKey> = got.iter().map(project).collect();
            a.sort();
            b.sort();
            assert_eq!(
                a, b,
                "seed {seed}, burst {burst_index}: multisets diverged after resize"
            );
        }
    }
    // End-state equivalence: counters, stateful words, link statistics all
    // survived every migration.
    let aggregated = sharded.aggregated_counters().expect("snapshot applies");
    for module in 1..=TENANTS {
        assert_eq!(
            single.module_counters(ModuleId::new(module)).unwrap(),
            aggregated.get(&module).copied().unwrap_or_default(),
            "seed {seed}: module {module} counters diverged across resizes"
        );
        assert_eq!(
            single.read_stateful(ModuleId::new(module), 0, 0),
            sharded.read_stateful_aggregate(ModuleId::new(module), 0, 0),
            "seed {seed}: module {module} stateful word diverged across resizes"
        );
    }
    assert_eq!(
        single.system().stats().link_packets,
        sharded
            .aggregated_system_stats()
            .expect("snapshot applies")
            .link_packets,
        "seed {seed}: link history lost in a resize"
    );
}

#[test]
fn interleaved_resizes_preserve_equivalence_across_the_grid() {
    // Grow and shrink through 1..=8 (extremes included), both sprays, both
    // steering modes, with and without dispatcher threads modeled.
    let plan = [Some(8), Some(3), None, Some(1), Some(5), Some(2)];
    for &(dispatchers, spray) in &[
        (0usize, DispatchSpray::RoundRobin),
        (2, DispatchSpray::RoundRobin),
        (3, DispatchSpray::FlowAffine),
    ] {
        for steering in [SteeringMode::TenantAffine, SteeringMode::FiveTuple] {
            run_elastic_equivalence(2, dispatchers, spray, steering, &plan, 0xE1A5_71C0);
        }
    }
}

#[test]
fn resize_equivalence_holds_across_seeds_and_starts() {
    for (index, seed) in [7u64, 0xFEED_BEEF, 0x0DD5_EED5].into_iter().enumerate() {
        let start = [4usize, 7, 1][index];
        let plan = [Some(start + 1), Some(2), Some(6), Some(1)];
        run_elastic_equivalence(
            start,
            index % 2,
            DispatchSpray::RoundRobin,
            SteeringMode::TenantAffine,
            &plan,
            seed,
        );
    }
}

/// The single-owner scenario: a stateful program whose state is NOT
/// mergeable (it `store`s packet-derived values) runs under tenant-affine
/// steering, where one shard owns it, and its state migrates whole across
/// grow and shrink resizes, staying equivalent to the lone pipeline
/// throughout.
#[test]
fn non_mergeable_program_migrates_under_tenant_affine_resizes() {
    let mut rng = StdRng::seed_from_u64(0x57_0BE5);
    let params = TABLE5.with_table_depth(64);
    let mut single = MenshenPipeline::new(params);
    let mut sharded = ShardedRuntime::new(
        params,
        RuntimeOptions::deterministic(2).with_steering(SteeringMode::TenantAffine),
    );
    // Tenant 1: a storing (non-mergeable) program — match its flow-rule dst
    // IPs, rewrite the port AND store the dst-IP container into stateful
    // word 2. Tenants 2..: the usual mergeable flow-rule programs.
    let mut storing = tenant_module(1, 1001);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    single.load_module(&storing).expect("single load");
    sharded.load_module(&storing).expect("sharded load");
    assert!(
        sharded.replicated_modules().is_empty(),
        "tenant-affine steering is single-owner: nothing replicates"
    );
    for module in 2..=TENANTS {
        let config = tenant_module(module, 1000 + module);
        single.load_module(&config).expect("single load");
        sharded.load_module(&config).expect("sharded load");
    }

    let mut migrations = 0usize;
    for (round, plan) in [8usize, 2, 5, 1, 3].into_iter().enumerate() {
        for _ in 0..4 {
            let burst: Vec<Packet> = (0..48).map(|_| random_packet(&mut rng)).collect();
            let expected = single.process_batch(burst.clone());
            let got = sharded.process_batch(burst).expect("deterministic mode");
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!(project(a), project(b), "round {round}");
            }
        }
        let before = sharded
            .read_stateful_aggregate(ModuleId::new(1), 0, 2)
            .unwrap();
        let report = sharded.resize(plan).expect("resize");
        migrations += report.migrated_modules;
        // The storing tenant's stored word survived the move bit-for-bit —
        // and only one replica holds it.
        assert_eq!(
            sharded.read_stateful_aggregate(ModuleId::new(1), 0, 2),
            Some(before),
            "round {round}: stored word lost in migration"
        );
        let live_copies = (0..sharded.shard_count())
            .filter(|&shard| {
                sharded
                    .shard_pipeline(shard)
                    .and_then(|p| p.read_stateful(ModuleId::new(1), 0, 2))
                    .is_some_and(|word| word != 0)
            })
            .count();
        assert!(
            live_copies <= 1,
            "round {round}: non-mergeable state replicated ({live_copies} copies)"
        );
    }
    assert!(migrations > 0, "the schedule must actually move tenants");

    // Final totals: the storing word equals the single pipeline's, counters
    // and mergeable words aggregate exactly.
    assert_eq!(
        single.read_stateful(ModuleId::new(1), 0, 2),
        sharded.read_stateful_aggregate(ModuleId::new(1), 0, 2),
        "stored (non-mergeable) state diverged from the lone pipeline"
    );
    let aggregated = sharded.aggregated_counters().expect("snapshot applies");
    for module in 1..=TENANTS {
        assert_eq!(
            single.module_counters(ModuleId::new(module)).unwrap(),
            aggregated.get(&module).copied().unwrap_or_default(),
            "module {module}"
        );
        assert_eq!(
            single.read_stateful(ModuleId::new(module), 0, 0),
            sharded.read_stateful_aggregate(ModuleId::new(module), 0, 0),
            "module {module} mergeable total"
        );
    }
}

#[test]
fn five_tuple_steering_preserves_mergeable_state_totals() {
    // Under 5-tuple steering one tenant's flows spread over shards; the
    // rewrite action is stateless and the `loadd` counter is additive, so
    // forwarded bytes and aggregated counter totals must still match the
    // single pipeline even though per-shard state diverges.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let params = TABLE5.with_table_depth(64);
    let mut single = MenshenPipeline::new(params);
    let mut sharded = ShardedRuntime::new(
        params,
        RuntimeOptions::deterministic(4).with_steering(SteeringMode::FiveTuple),
    );
    for module in 1..=TENANTS {
        let config = tenant_module(module, 2000 + module);
        single.load_module(&config).expect("single load");
        sharded.load_module(&config).expect("sharded load");
    }
    for _ in 0..20 {
        let burst: Vec<Packet> = (0..48).map(|_| random_packet(&mut rng)).collect();
        let expected = single.process_batch(burst.clone());
        let got = sharded.process_batch(burst).expect("deterministic mode");
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(project(a), project(b));
        }
    }
    let aggregated = sharded.aggregated_counters().expect("snapshot applies");
    for module in 1..=TENANTS {
        assert_eq!(
            single.module_counters(ModuleId::new(module)).unwrap(),
            aggregated.get(&module).copied().unwrap_or_default(),
            "module {module}"
        );
        assert_eq!(
            single.read_stateful(ModuleId::new(module), 0, 0),
            sharded.read_stateful_aggregate(ModuleId::new(module), 0, 0),
            "module {module} merged stateful total"
        );
    }
}

/// Builds the storing (non-mergeable) tenant used by the replication tests:
/// the shared flow-rule shape plus a `store` of the dst-IP container into
/// stateful word 2. Its parser digests, so it classifies as Replicated.
fn storing_tenant(module_id: u16, rewrite_port: u16) -> ModuleConfig {
    let mut storing = tenant_module(module_id, rewrite_port);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    storing
}

/// The state-compute-replication acceptance scenario: a storing
/// (non-mergeable) program runs UNPINNED under 5-tuple steering for every
/// shard count 1..=8. Each shard owns only the flows hashed to it and
/// rebuilds the rest of the program's state from dispatcher digests, so
/// per-position verdicts, aggregated counter totals and — on EVERY replica —
/// the stateful words must stay bit-identical to the lone pipeline.
#[test]
fn replicated_storing_program_matches_the_lone_pipeline_across_shard_counts() {
    for shards in 1..=8usize {
        let mut rng = StdRng::seed_from_u64(0x5C2_0001 + shards as u64);
        let params = TABLE5.with_table_depth(64);
        let mut single = MenshenPipeline::new(params);
        let mut sharded = ShardedRuntime::new(
            params,
            RuntimeOptions::deterministic(shards).with_steering(SteeringMode::FiveTuple),
        );
        let storing = storing_tenant(1, 1001);
        single.load_module(&storing).expect("single load");
        sharded.load_module(&storing).expect("sharded load");
        assert_eq!(
            sharded.replicated_modules(),
            vec![1],
            "the storing program must replicate, not pin"
        );
        for module in 2..=TENANTS {
            let config = tenant_module(module, 1000 + module);
            single.load_module(&config).expect("single load");
            sharded.load_module(&config).expect("sharded load");
        }

        for burst_index in 0..12 {
            let burst: Vec<Packet> = (0..48).map(|_| random_packet(&mut rng)).collect();
            let expected = single.process_batch(burst.clone());
            let got = sharded.process_batch(burst).expect("deterministic mode");
            for (position, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    project(a),
                    project(b),
                    "{shards} shards, burst {burst_index}, packet {position}"
                );
            }
        }

        // EVERY replica holds the complete stored word and the complete
        // per-flow counter word, bit-identical to the lone pipeline: digest
        // replay advanced the state for every packet a replica never saw.
        let stored = single.read_stateful(ModuleId::new(1), 0, 2);
        let counted = single.read_stateful(ModuleId::new(1), 0, 0);
        assert!(stored.is_some(), "the workload must have hit tenant 1");
        for shard in 0..shards {
            let replica = sharded.shard_pipeline(shard).expect("shard pipeline");
            assert_eq!(
                replica.read_stateful(ModuleId::new(1), 0, 2),
                stored,
                "{shards} shards: replica {shard} stored word diverged"
            );
            assert_eq!(
                replica.read_stateful(ModuleId::new(1), 0, 0),
                counted,
                "{shards} shards: replica {shard} counter word diverged"
            );
        }
        assert_eq!(
            sharded.read_stateful_aggregate(ModuleId::new(1), 0, 2),
            stored,
            "{shards} shards: the aggregate read must surface the replica word"
        );

        // Counter totals still aggregate exactly: digest replay bumps no
        // traffic counters, so replication never double-counts.
        let aggregated = sharded.aggregated_counters().expect("snapshot applies");
        for module in 1..=TENANTS {
            assert_eq!(
                single.module_counters(ModuleId::new(module)).unwrap(),
                aggregated.get(&module).copied().unwrap_or_default(),
                "{shards} shards: module {module} counters diverged"
            );
        }
        for module in 2..=TENANTS {
            assert_eq!(
                single.read_stateful(ModuleId::new(module), 0, 0),
                sharded.read_stateful_aggregate(ModuleId::new(module), 0, 0),
                "{shards} shards: module {module} mergeable total diverged"
            );
        }

        // Digest traffic flowed exactly when there were peers to inform.
        let (digest_packets, digest_bytes) = sharded.digest_totals();
        if shards > 1 {
            assert!(
                digest_packets > 0,
                "{shards} shards: replication must generate digests"
            );
            assert!(digest_bytes >= digest_packets, "digests carry wire bytes");
        } else {
            assert_eq!(digest_packets, 0, "a lone shard has no peers to inform");
        }
    }
}

/// Elastic resizes of a replicated program: growing seeds the new replicas
/// with a whole copy of the state (not a partition of it), shrinking
/// preserves counter totals while retiring surplus replicas, and the
/// program stays equivalent to the lone pipeline across the whole schedule.
#[test]
fn replicated_program_survives_elastic_resizes() {
    let mut rng = StdRng::seed_from_u64(0x5C2_E1A5);
    let params = TABLE5.with_table_depth(64);
    let mut single = MenshenPipeline::new(params);
    let mut sharded = ShardedRuntime::new(
        params,
        RuntimeOptions::deterministic(2).with_steering(SteeringMode::FiveTuple),
    );
    let storing = storing_tenant(1, 1001);
    single.load_module(&storing).expect("single load");
    sharded.load_module(&storing).expect("sharded load");
    assert_eq!(sharded.replicated_modules(), vec![1]);
    for module in 2..=TENANTS {
        let config = tenant_module(module, 1000 + module);
        single.load_module(&config).expect("single load");
        sharded.load_module(&config).expect("sharded load");
    }

    for (round, plan) in [5usize, 3, 8, 1, 4].into_iter().enumerate() {
        for _ in 0..4 {
            let burst: Vec<Packet> = (0..48).map(|_| random_packet(&mut rng)).collect();
            let expected = single.process_batch(burst.clone());
            let got = sharded.process_batch(burst).expect("deterministic mode");
            for (position, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(project(a), project(b), "round {round}, packet {position}");
            }
        }
        let stored = single.read_stateful(ModuleId::new(1), 0, 2);
        sharded.resize(plan).expect("resize");
        assert_eq!(sharded.shard_count(), plan);
        // Every replica on the NEW layout holds the whole stored word:
        // grow-seeding copied it to the fresh shards, shrinking kept it on
        // the survivors.
        for shard in 0..plan {
            let replica = sharded.shard_pipeline(shard).expect("shard pipeline");
            assert_eq!(
                replica.read_stateful(ModuleId::new(1), 0, 2),
                stored,
                "round {round}: replica {shard} lost the stored word in the resize"
            );
        }
        // Counter totals survived the resize exactly (retired replicas hand
        // their partial counters to a survivor; fresh seeds start at zero).
        let aggregated = sharded.aggregated_counters().expect("snapshot applies");
        assert_eq!(
            single.module_counters(ModuleId::new(1)).unwrap(),
            aggregated.get(&1).copied().unwrap_or_default(),
            "round {round}: storing tenant counters diverged across the resize"
        );
    }

    // Final totals for every tenant.
    let aggregated = sharded.aggregated_counters().expect("snapshot applies");
    for module in 1..=TENANTS {
        assert_eq!(
            single.module_counters(ModuleId::new(module)).unwrap(),
            aggregated.get(&module).copied().unwrap_or_default(),
            "module {module}"
        );
    }
    assert_eq!(
        single.read_stateful(ModuleId::new(1), 0, 2),
        sharded.read_stateful_aggregate(ModuleId::new(1), 0, 2),
        "stored word diverged from the lone pipeline after the schedule"
    );
}

/// The width boundary of "every parser digests". A storing tenant whose
/// parser fills a whole parser-table row digests every field and runs
/// replicated on 1–4 shards, each replica's words equal to the lone
/// pipeline's; the compiler's nine-field storing module replicates too; and
/// one action more is refused by the lone pipeline, the control plane and
/// the runtime with the parser entry's own error, before the runtime
/// publishes anything.
#[test]
fn replicated_full_width_parser_matches_the_lone_pipeline_and_wider_is_refused() {
    // Ten distinct extractions: the flow-rule shape's dst IP and UDP dst
    // port, seven header fields nothing reads, and — last — the src IP,
    // which the `store` writes into word 2. A digest that dropped its tail
    // fields would leave the replicas disagreeing on that word.
    let mut wide = tenant_module(1, 1001);
    wide.parser = ParserEntry::new(vec![
        ParseAction::new(34, C::h4(1)).unwrap(), // dst IP
        ParseAction::new(40, C::h2(0)).unwrap(), // UDP dst port
        ParseAction::new(0, C::h6(0)).unwrap(),  // dst MAC
        ParseAction::new(6, C::h6(1)).unwrap(),  // src MAC
        ParseAction::new(14, C::h2(1)).unwrap(), // VLAN TCI
        ParseAction::new(16, C::h2(2)).unwrap(), // ethertype
        ParseAction::new(26, C::h4(2)).unwrap(), // TTL, protocol, checksum
        ParseAction::new(38, C::h2(3)).unwrap(), // UDP src port
        ParseAction::new(42, C::h2(4)).unwrap(), // UDP length
        ParseAction::new(30, C::h4(4)).unwrap(), // src IP
    ])
    .unwrap();
    assert_eq!(wide.parser.actions.len(), PARSE_ACTIONS_PER_ENTRY);
    for rule in &mut wide.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(4), 2));
    }

    // The spec carries all ten fields, and its extraction mirrors the
    // parser's wire reads field for field.
    let spec = wide.digest_spec().expect("a full parser row digests");
    assert_eq!(spec.fields().len(), DIGEST_MAX_FIELDS);
    let probe = PacketBuilder::udp_data(1, [10, 0, 0, 7], [10, 0, 1, 0], 4321, 80, &[0u8; 8]);
    let digest = spec.extract(&probe, 0);
    assert_eq!(digest.fields().len(), PARSE_ACTIONS_PER_ENTRY);
    for (action, (code, value)) in wide.parser.actions.iter().zip(digest.fields()) {
        assert_eq!(code, action.container.code());
        let wire = probe.read_be(usize::from(action.offset), action.container.width_bytes());
        assert_eq!(Some(value), wire, "field at offset {}", action.offset);
    }

    for shards in 1..=4usize {
        let mut rng = StdRng::seed_from_u64(0x5C2_0A10 + shards as u64);
        let params = TABLE5.with_table_depth(64);
        let mut single = MenshenPipeline::new(params);
        let mut sharded = ShardedRuntime::new(
            params,
            RuntimeOptions::deterministic(shards).with_steering(SteeringMode::FiveTuple),
        );
        single.load_module(&wide).expect("single load");
        sharded.load_module(&wide).expect("sharded load");
        assert_eq!(sharded.replicated_modules(), vec![1]);
        assert_eq!(
            single.module_digest_spec(ModuleId::new(1)),
            Some(spec.clone())
        );
        for module in 2..=TENANTS {
            let config = tenant_module(module, 1000 + module);
            single.load_module(&config).expect("single load");
            sharded.load_module(&config).expect("sharded load");
        }
        for burst_index in 0..8 {
            let burst: Vec<Packet> = (0..48).map(|_| random_packet(&mut rng)).collect();
            let expected = single.process_batch(burst.clone());
            let got = sharded.process_batch(burst).expect("deterministic mode");
            for (position, (a, b)) in expected.iter().zip(&got).enumerate() {
                assert_eq!(
                    project(a),
                    project(b),
                    "{shards} shards, burst {burst_index}, packet {position}"
                );
            }
        }
        let stored = single.read_stateful(ModuleId::new(1), 0, 2);
        assert!(stored.is_some_and(|word| word != 0), "the store ran");
        for shard in 0..shards {
            let replica = sharded.shard_pipeline(shard).expect("deterministic shard");
            for word in [0, 2] {
                assert_eq!(
                    replica.read_stateful(ModuleId::new(1), 0, word),
                    single.read_stateful(ModuleId::new(1), 0, word),
                    "{shards} shards: replica {shard} word {word} diverged"
                );
            }
        }
    }

    // A compiled storing module with a nine-field parser: the source and
    // compiled classifications agree it is non-mergeable, and the runtime
    // replicates it.
    let fields: Vec<String> = (0..9)
        .map(|i| format!("f{i} : {};", if i < 5 { 16 } else { 32 }))
        .collect();
    let source = format!(
        r#"
module m {{
    header h {{ {} }}
    parser {{ extract h; }}
    state reg[16];
    table t {{ key = {{ h.f0; }} actions = {{ a; }} }}
    action a() {{ reg.write(0, h.f1); h.f2 = h.f3; h.f4 = h.f5; h.f6 = h.f7; h.f8 = 1; set_port(2); }}
    apply {{ t.apply(); }}
}}
"#,
        fields.join(" ")
    );
    let ast = menshen::compiler::parse_module(&source).unwrap();
    assert!(matches!(
        menshen::compiler::classify_state_mergeability(&ast),
        menshen::compiler::SourceStateMergeability::NonMergeable { .. }
    ));
    let compiled =
        compile_source(&source, &CompileOptions::new(7).with_initial_entries(1)).unwrap();
    assert!(matches!(
        compiled.config.state_mergeability(),
        menshen_core::StateMergeability::NonMergeable { .. }
    ));
    assert_eq!(compiled.config.parser.actions.len(), 9);
    let mut sharded = ShardedRuntime::new(
        TABLE5,
        RuntimeOptions::deterministic(2).with_steering(SteeringMode::FiveTuple),
    );
    sharded
        .load_module(&compiled.config)
        .expect("compiled load");
    assert_eq!(sharded.replicated_modules(), vec![7]);

    // One action past the row: refused everywhere with the entry's error.
    let overflow = RmtError::FieldOverflow {
        field: "parser entry action count",
    };
    let mut too_wide = wide.clone();
    too_wide.module_id = ModuleId::new(9);
    too_wide
        .parser
        .actions
        .push(ParseAction::new(44, C::h2(5)).unwrap());
    assert_eq!(too_wide.digest_spec(), Err(overflow.clone()));
    let mut lone = MenshenPipeline::new(TABLE5);
    assert_eq!(
        lone.load_module(&too_wide),
        Err(CoreError::Rmt(overflow.clone()))
    );
    assert!(lone.loaded_modules().is_empty());
    let epoch = sharded.current_epoch();
    assert_eq!(
        sharded.load_module(&too_wide),
        Err(RuntimeError::Rejected(CoreError::Rmt(overflow)))
    );
    assert_eq!(sharded.current_epoch(), epoch, "no epoch was published");
    assert_eq!(sharded.replicated_modules(), vec![7]);
}
