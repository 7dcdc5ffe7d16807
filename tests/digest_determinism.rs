//! Digest determinism: for one fixed packet trace, the per-shard digest
//! streams — the (module, field-values) sequences each replica replays —
//! and the final stateful words are invariant in the number of dispatchers
//! that carry the trace. Per-module dispatcher affinity pins a replicated
//! module's packets to one dispatcher, so no interleaving of 1..=4
//! dispatcher queues can reorder its digest stream. The `before` stamps ARE
//! allowed to differ (they are scatter-relative positions), so the
//! comparison here is field-level and state-level, not byte-level:
//!
//! * a digest-only replica that replays the module's packets in trace order
//!   via [`MenshenPipeline::apply_state_digest`] must land on the same
//!   stateful words as every runtime replica, for every dispatcher count —
//!   if any runtime dropped, duplicated or reordered a digest, its storing
//!   word (last-writer-wins) or counting word (occurrence count) would
//!   diverge;
//! * the digest packet/byte totals must be identical across dispatcher
//!   counts (same stream, different carriage);
//! * the final stateful words must be bit-identical across dispatcher
//!   counts, sprays, and the lone reference pipeline.
//!
//! In the style of the repository's other property tests this is a seeded
//! randomized loop: every failure reproduces from the printed seed.

use menshen::prelude::*;
use menshen_bench::workloads::{flow_dst_ip, flow_rule_tenant_with_port};
use menshen_core::ModuleConfig;
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::action::AluInstruction;
use menshen_rmt::phv::ContainerRef as C;
use menshen_runtime::{DispatchSpray, ShardedRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TENANTS: u16 = 4;
const FLOWS_PER_TENANT: usize = 4;
const STORING: u16 = 1;

/// The storing (non-mergeable) tenant: the shared flow-rule shape plus a
/// `store` of the dst-IP container into stateful word 2. Classifies as
/// Replicated under 5-tuple steering.
fn storing_tenant(module_id: u16, rewrite_port: u16) -> ModuleConfig {
    let mut storing = flow_rule_tenant_with_port(module_id, FLOWS_PER_TENANT, rewrite_port);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    storing
}

/// A random tenant packet, tagged with the module it belongs to: mostly
/// flow-rule hits, some misses. No untagged or reconfiguration frames —
/// module membership must be decidable by construction so the test can
/// rebuild the digest stream independently of the runtime.
fn random_packet(rng: &mut StdRng) -> (u16, Packet) {
    let module = rng.gen_range(1..=TENANTS);
    let dst = if rng.gen_bool(0.8) {
        let ip = flow_dst_ip(module, rng.gen_range(0..FLOWS_PER_TENANT));
        [
            ((ip >> 24) & 0xff) as u8,
            ((ip >> 16) & 0xff) as u8,
            ((ip >> 8) & 0xff) as u8,
            (ip & 0xff) as u8,
        ]
    } else {
        [10, 9, 9, rng.gen_range(1..250u8)]
    };
    let packet = PacketBuilder::udp_data(
        module,
        [10, 0, 0, rng.gen_range(1..250u8)],
        dst,
        rng.gen_range(1024..65000u16),
        80,
        &[0u8; 8],
    );
    (module, packet)
}

#[test]
fn digest_streams_are_invariant_in_the_dispatcher_count() {
    for seed in [0xD16_0001u64, 0xD16_0BEE, 0xD16_5EED] {
        let mut rng = StdRng::seed_from_u64(seed);
        let trace: Vec<Vec<(u16, Packet)>> = (0..10)
            .map(|_| {
                (0..rng.gen_range(8..48usize))
                    .map(|_| random_packet(&mut rng))
                    .collect()
            })
            .collect();
        let params = TABLE5.with_table_depth(64);
        let storing = storing_tenant(STORING, 1001);

        // Reference 1: the lone pipeline processing the whole trace.
        let mut single = MenshenPipeline::new(params);
        single.load_module(&storing).expect("single load");
        for module in 2..=TENANTS {
            let config = flow_rule_tenant_with_port(module, FLOWS_PER_TENANT, 1000 + module);
            single.load_module(&config).expect("single load");
        }
        for burst in &trace {
            single.process_batch(burst.iter().map(|(_, p)| p.clone()).collect());
        }

        // Reference 2: a digest-only replica that never sees a packet. It
        // replays the storing module's packets in trace order, rebuilt from
        // the same digest recipe the dispatchers use. Any runtime replica
        // whose stream was reordered, duplicated or truncated must diverge
        // from it in the storing word (last-writer-wins) or the counting
        // word (occurrence count).
        let mut replayer = MenshenPipeline::new(params);
        replayer.load_module(&storing).expect("replayer load");
        let spec = replayer
            .module_digest_spec(ModuleId::new(STORING))
            .expect("the storing parser must be digestible");
        for burst in &trace {
            for (module, packet) in burst {
                if *module == STORING {
                    replayer.apply_state_digest(&spec.extract(packet, 0));
                }
            }
        }
        let stored = single.read_stateful(ModuleId::new(STORING), 0, 2);
        let counted = single.read_stateful(ModuleId::new(STORING), 0, 0);
        assert!(stored.is_some(), "seed {seed}: trace never hit the tenant");
        assert_eq!(
            replayer.read_stateful(ModuleId::new(STORING), 0, 2),
            stored,
            "seed {seed}: digest replay itself diverged from packet processing"
        );
        assert_eq!(
            replayer.read_stateful(ModuleId::new(STORING), 0, 0),
            counted,
            "seed {seed}: digest replay miscounted"
        );

        // The property: every dispatcher count (and both sprays) carries
        // the same per-shard digest streams, so every replica's words and
        // the runtime-wide digest totals are invariant.
        let shards = 4usize;
        let mut totals: Option<(u64, u64)> = None;
        for dispatchers in 0..=4usize {
            for spray in [DispatchSpray::RoundRobin, DispatchSpray::FlowAffine] {
                let mut sharded = ShardedRuntime::new(
                    params,
                    RuntimeOptions::deterministic(shards)
                        .with_dispatchers(dispatchers)
                        .with_spray(spray)
                        .with_steering(SteeringMode::FiveTuple),
                );
                sharded.load_module(&storing).expect("sharded load");
                assert_eq!(sharded.replicated_modules(), vec![STORING]);
                for module in 2..=TENANTS {
                    let config =
                        flow_rule_tenant_with_port(module, FLOWS_PER_TENANT, 1000 + module);
                    sharded.load_module(&config).expect("sharded load");
                }
                for burst in &trace {
                    sharded
                        .process_batch(burst.iter().map(|(_, p)| p.clone()).collect())
                        .expect("deterministic mode");
                }
                for shard in 0..shards {
                    let replica = sharded.shard_pipeline(shard).expect("shard pipeline");
                    assert_eq!(
                        replica.read_stateful(ModuleId::new(STORING), 0, 2),
                        stored,
                        "seed {seed}, {dispatchers} dispatchers ({spray:?}): \
                         replica {shard} stored word diverged"
                    );
                    assert_eq!(
                        replica.read_stateful(ModuleId::new(STORING), 0, 0),
                        counted,
                        "seed {seed}, {dispatchers} dispatchers ({spray:?}): \
                         replica {shard} counting word diverged"
                    );
                }
                let observed = sharded.digest_totals();
                assert!(
                    observed.0 > 0,
                    "seed {seed}: replication must generate digests"
                );
                match totals {
                    None => totals = Some(observed),
                    Some(expected) => assert_eq!(
                        expected, observed,
                        "seed {seed}, {dispatchers} dispatchers ({spray:?}): \
                         digest totals diverged — the stream is not the same stream"
                    ),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The threaded inline dispatcher builds bursts while it steers: one open
// burst per shard, sealed and pushed at `burst_size` packets, digests
// anchored at the open burst's current length. How a trace is cut into
// submissions moves every burst boundary — and must move nothing else.
// ---------------------------------------------------------------------------

use menshen_runtime::{EgressSink, Steerer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One transmit: the packet's sequence number and its verdict — egress
/// ports, rewritten bytes and, for a storing tenant, the value its per-tenant
/// counter held when this packet loaded it (PHV container h4(7)); or the
/// drop reason. A replica's counter advances on digests too, so that value
/// is the packet's position in its module's *global* order: a digest
/// replayed one packet early or late shows up here even when the final
/// words would not tell.
type LogEntry = (u32, Option<(Vec<u16>, Vec<u8>, u64)>, String);

/// What one shard thread handed to the sink, in order.
type ShardLog = Vec<LogEntry>;

/// Tenants 1 and 2 store (and so replicate); the rest do not.
const STORING_TENANTS: [u16; 2] = [1, 2];

/// Records every transmit under the name of the thread that made it — one
/// log per `menshen-shard-*` thread.
#[derive(Default)]
struct PerShardLog(Mutex<BTreeMap<String, ShardLog>>);

fn sequence_of(packet: &Packet) -> u32 {
    let payload = packet.transport_payload().expect("a UDP payload");
    u32::from_be_bytes(payload[..4].try_into().expect("four bytes"))
}

fn log_entry(packet: &Packet, verdict: &Verdict) -> LogEntry {
    match verdict {
        Verdict::Forwarded {
            packet: out,
            ports,
            phv,
            module_id,
        } => {
            // A mergeable tenant's counter is a per-shard partial sum, so
            // only the replicated ones are comparable to the lone pipeline.
            let position = if STORING_TENANTS.contains(module_id) {
                phv.get(C::h4(7))
            } else {
                0
            };
            (
                sequence_of(packet),
                Some((ports.clone(), out.bytes().to_vec(), position)),
                String::new(),
            )
        }
        Verdict::Dropped { reason, .. } => (sequence_of(packet), None, format!("{reason:?}")),
    }
}

impl EgressSink for PerShardLog {
    fn transmit(&self, packet: &Packet, verdict: &Verdict) {
        let thread = std::thread::current();
        let shard = thread.name().expect("shard threads are named").to_owned();
        self.0
            .lock()
            .expect("log lock")
            .entry(shard)
            .or_default()
            .push(log_entry(packet, verdict));
    }
}

/// A packet of `module` carrying `sequence`, with a source port that lets
/// the caller pick the shard: mostly flow-rule hits, some misses.
fn sequenced_packet(rng: &mut StdRng, module: u16, sequence: u32) -> Packet {
    let dst = if rng.gen_bool(0.8) {
        let ip = flow_dst_ip(module, rng.gen_range(0..FLOWS_PER_TENANT));
        (ip as u32).to_be_bytes()
    } else {
        [10, 9, 9, rng.gen_range(1..250u8)]
    };
    let mut payload = [0u8; 8];
    payload[..4].copy_from_slice(&sequence.to_be_bytes());
    PacketBuilder::udp_data(
        module,
        [10, 0, 0, rng.gen_range(1..250u8)],
        dst,
        rng.gen_range(1024..65000u16),
        80,
        &payload,
    )
}

/// Draws packets of `module` until one steers to `shard`.
fn packet_for_shard(
    rng: &mut StdRng,
    steerer: &Steerer,
    module: u16,
    shard: usize,
    sequence: u32,
) -> Packet {
    loop {
        let packet = sequenced_packet(rng, module, sequence);
        if steerer.shard_for(&packet) == shard {
            return packet;
        }
    }
}

/// `sharded_scr`-like traffic — tenants 1 and 2 store (Replicated), 3 and 4
/// do not — through threaded shards with inline dispatch, once as a single
/// submission and once in 256-packet submissions. Per shard, the verdicts
/// must come out in the same order with the same content as a lone
/// pipeline's; the digest totals must agree; and every replica must end
/// with the lone pipeline's stateful words.
///
/// The trace ends in the two cases where an anchor is easiest to get wrong,
/// placed so that both cuttings meet them with shard 0's open burst empty:
/// exactly one burst of packets for shard 0 (sealed the moment it fills),
/// then storing-tenant packets for shard 1 only — so their digests are
/// anchored *on* the burst boundary, and shard 0 (and shard 2) ends the
/// submission owed digests and no packets.
#[test]
fn burst_boundaries_move_with_the_submission_size_and_nothing_else_does() {
    const PLAIN: u16 = 3;
    const CHUNK: usize = 256;
    for shards in [2usize, 3] {
        let seed = 0xD16_B0B0 + shards as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let params = TABLE5.with_table_depth(64);
        let burst_size = RuntimeOptions::threaded(shards).burst_size;
        let steerer = Steerer::new(SteeringMode::FiveTuple, shards);

        let mut template = MenshenPipeline::new(params);
        for module in STORING_TENANTS {
            template
                .load_module(&storing_tenant(module, 1000 + module))
                .expect("load");
        }
        for module in STORING_TENANTS.len() as u16 + 1..=TENANTS {
            let config = flow_rule_tenant_with_port(module, FLOWS_PER_TENANT, 1000 + module);
            template.load_module(&config).expect("load");
        }

        // A random body, padded so that shard 0 has received whole bursts
        // only and the total is a whole number of chunks …
        let mut trace: Vec<Packet> = Vec::new();
        for _ in 0..3000 {
            let module = rng.gen_range(1..=TENANTS);
            trace.push(sequenced_packet(&mut rng, module, trace.len() as u32));
        }
        let to_shard_0 = trace.iter().filter(|p| steerer.shard_for(p) == 0).count();
        for _ in 0..(burst_size - to_shard_0 % burst_size) % burst_size {
            let sequence = trace.len() as u32;
            trace.push(packet_for_shard(&mut rng, &steerer, PLAIN, 0, sequence));
        }
        while !trace.len().is_multiple_of(CHUNK) {
            let sequence = trace.len() as u32;
            trace.push(packet_for_shard(&mut rng, &steerer, PLAIN, 1, sequence));
        }
        // … then the tail: one exact burst for shard 0, then storing
        // traffic for shard 1 alone.
        for _ in 0..burst_size {
            let sequence = trace.len() as u32;
            trace.push(packet_for_shard(&mut rng, &steerer, PLAIN, 0, sequence));
        }
        for index in 0..8 {
            let sequence = trace.len() as u32;
            let module = STORING_TENANTS[index % 2];
            trace.push(packet_for_shard(&mut rng, &steerer, module, 1, sequence));
        }
        let storing_packets = trace
            .iter()
            .filter(|p| STORING_TENANTS.contains(&p.vlan_id().expect("tagged").value()))
            .count() as u64;

        // The lone pipeline: verdict per sequence number, final words.
        let mut single = template.config_replica();
        let expected: Vec<_> = single
            .process_batch(trace.clone())
            .iter()
            .zip(&trace)
            .map(|(verdict, packet)| log_entry(packet, verdict))
            .collect();
        let modules: Vec<ModuleId> = STORING_TENANTS.iter().map(|m| ModuleId::new(*m)).collect();
        let words: Vec<Vec<Vec<u64>>> = modules
            .iter()
            .map(|module| single.export_module_state(*module).expect("loaded").stages)
            .collect();

        let mut runs = Vec::new();
        for chunk in [trace.len(), CHUNK] {
            let mut runtime = ShardedRuntime::from_pipeline(
                &template,
                RuntimeOptions::threaded(shards).with_steering(SteeringMode::FiveTuple),
            );
            assert_eq!(runtime.replicated_modules(), STORING_TENANTS.to_vec());
            let log = Arc::new(PerShardLog::default());
            runtime.set_egress(Some(Arc::clone(&log) as Arc<dyn EgressSink>));
            for submission in trace.chunks(chunk) {
                runtime.submit_owned(submission.to_vec()).expect("submit");
            }
            runtime.flush();
            for shard in 0..shards {
                let states = runtime.export_shard_state(shard, &modules).expect("export");
                let got: Vec<Vec<Vec<u64>>> = states.into_iter().map(|s| s.stages).collect();
                assert_eq!(
                    got, words,
                    "seed {seed}, {shards} shards, {chunk}-packet submissions: \
                     replica {shard} diverged from the lone pipeline"
                );
            }
            let audit = runtime.conservation_audit().expect("audit");
            assert!(audit.is_balanced(), "{audit:?}");
            assert_eq!(audit.processed, trace.len() as u64, "{audit:?}");
            let totals = runtime.digest_totals();
            assert_eq!(
                totals.0,
                storing_packets * (shards as u64 - 1),
                "one digest per storing packet per other shard"
            );
            runtime.shutdown();
            let log = std::mem::take(&mut *log.0.lock().expect("log lock"));
            assert_eq!(
                log.len(),
                shards,
                "every shard transmitted: {:?}",
                log.keys()
            );
            for (shard, entries) in &log {
                let index: usize = shard
                    .strip_prefix("menshen-shard-")
                    .and_then(|n| n.parse().ok())
                    .expect("a shard thread");
                let want: Vec<_> = expected
                    .iter()
                    .filter(|(sequence, ..)| steerer.shard_for(&trace[*sequence as usize]) == index)
                    .cloned()
                    .collect();
                assert_eq!(
                    entries, &want,
                    "seed {seed}, {shards} shards, {chunk}-packet submissions: \
                     {shard} is out of order or disagrees with the lone pipeline"
                );
            }
            runs.push((log, totals));
        }
        assert_eq!(
            runs[0], runs[1],
            "seed {seed}, {shards} shards: cutting the trace differently changed the outcome"
        );
    }
}
