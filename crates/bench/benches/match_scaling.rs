//! Million-rule match-engine scaling: lookup Mpps and memory bytes per
//! match kind (exact CAM index, LPM trie, range intervals) at 10^3 / 10^5 /
//! 10^6 installed rules, plus two guard measurements:
//!
//! * the exact-match batch hot path re-measured (same workload as the
//!   `batch` bench) beside the LPM/range dispatch in the stage walk, and
//! * a live install burst published over the non-quiescing control path
//!   while threaded shards keep forwarding, with every packet accounted.
//!
//! Full runs merge-update the `match_scaling` section of the committed
//! `BENCH_throughput.json`; `MENSHEN_BENCH_FAST=1` smoke runs measure the
//! 10^3 tier only and write under `results/` alone.

use menshen_bench::harness::{consume, Runner};
use menshen_bench::workloads::{flow_rule_tenant, flow_workload};
use menshen_core::module::{LpmMatchRule, ModuleConfig, StageModuleConfig, TableRule};
use menshen_core::{MenshenPipeline, ModuleId, BURST_SIZE};
use menshen_cost::{MatchMemoryModel, MatchMemoryRow};
use menshen_json::{Json, ToJson};
use menshen_packet::{Packet, PacketBuilder};
use menshen_rmt::action::{AluInstruction, VliwAction};
use menshen_rmt::config::{KeyExtractEntry, KeyMask, ParseAction, ParserEntry};
use menshen_rmt::lpm::LpmTable;
use menshen_rmt::match_table::{ExactMatchTable, LookupKey, MatchEntry, MatchKind};
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::ternary::{RangeRule, RangeTable};
use menshen_rmt::TABLE5;
use menshen_runtime::{RuntimeOptions, ShardedRuntime};

/// Lookup keys cycled per measured iteration.
const PROBE_KEYS: usize = 4096;
/// The byte offset of the 4-byte key slot the flat tables match on.
const KEY_OFFSET: usize = 12;

fn key_for(dst: u64) -> LookupKey {
    LookupKey::from_slots([(0, 6), (0, 6), (dst, 4), (0, 4), (0, 2), (0, 2)], false)
}

/// A clustered prefix distribution: runs of adjacent /24s under shared trie
/// parents with a sprinkling of covering /16 aggregates — the shape of a
/// provider route table, and the case the level-compressed block layout is
/// built for.
fn clustered_prefixes(n: usize) -> Vec<(u32, u8)> {
    let mut out = Vec::with_capacity(n);
    let (mut slash24, mut slash16) = (0u32, 0u32);
    while out.len() < n {
        if out.len() % 64 == 63 {
            out.push((slash16 << 16, 16));
            slash16 += 1;
        } else {
            out.push((slash24 << 8, 24));
            slash24 += 1;
        }
    }
    out
}

struct LayoutResult {
    row: MatchMemoryRow,
    lookups_per_sec: f64,
}

impl ToJson for LayoutResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.row.kind)),
            ("rules", Json::from(self.row.entries)),
            ("lookups_per_sec", Json::from(self.lookups_per_sec)),
            ("mpps", Json::from(self.lookups_per_sec / 1e6)),
            ("data_path_bytes", Json::from(self.row.data_path_bytes)),
            ("control_bytes", Json::from(self.row.control_bytes)),
            ("bytes_per_entry", Json::from(self.row.bytes_per_entry())),
        ])
    }
}

fn bench_exact(runner: &mut Runner, rules: usize) -> LayoutResult {
    let mut table = ExactMatchTable::new(rules);
    for i in 0..rules {
        table
            .install(
                i,
                MatchEntry {
                    key: key_for(i as u64),
                    module_id: 1,
                    action_index: (i % 16) as u16,
                },
            )
            .unwrap();
    }
    let probes: Vec<LookupKey> = (0..PROBE_KEYS)
        .map(|i| key_for((i.wrapping_mul(2_654_435_761) % (rules * 2)) as u64))
        .collect();
    let m = runner.bench(
        &format!("match_scaling/exact/{rules}"),
        probes.len() as u64,
        || {
            for key in &probes {
                consume(table.lookup(key, 1));
            }
        },
    );
    LayoutResult {
        // The software hash index prices nothing the hardware has; report
        // the CAM's analytic per-entry cost next to the measured rate.
        row: MatchMemoryModel::cam(rules),
        lookups_per_sec: m.elements_per_sec(),
    }
}

fn bench_lpm(runner: &mut Runner, rules: usize) -> LayoutResult {
    let mut table = LpmTable::new(KEY_OFFSET, rules);
    for (prefix, len) in clustered_prefixes(rules) {
        table.insert(prefix, len, prefix % 1024).unwrap();
    }
    // Probe addresses inside installed /24 blocks plus ~1/3 strays beyond
    // them (misses or aggregate-only hits).
    let span = (rules as u64).saturating_mul(3) / 2 * 256;
    let probes: Vec<LookupKey> = (0..PROBE_KEYS)
        .map(|i| key_for((i as u64).wrapping_mul(48_271 * 256 + 97) % span.max(1)))
        .collect();
    let m = runner.bench(
        &format!("match_scaling/lpm/{rules}"),
        probes.len() as u64,
        || {
            for key in &probes {
                consume(table.lookup_key(key));
            }
        },
    );
    LayoutResult {
        row: MatchMemoryModel::lpm(&table),
        lookups_per_sec: m.elements_per_sec(),
    }
}

fn bench_range(runner: &mut Runner, rules: usize) -> LayoutResult {
    let mut table = RangeTable::new(KEY_OFFSET, 4, rules);
    // Disjoint intervals with gaps (half the space misses), a few priority
    // tiers.
    table
        .bulk_load((0..rules as u64).map(|i| RangeRule {
            lo: i * 128,
            hi: i * 128 + 63,
            priority: (i % 4) as u16,
            action: i as u32,
        }))
        .unwrap();
    let span = rules as u64 * 128;
    let probes: Vec<u64> = (0..PROBE_KEYS)
        .map(|i| (i as u64).wrapping_mul(2_246_822_519) % span)
        .collect();
    let m = runner.bench(
        &format!("match_scaling/range/{rules}"),
        probes.len() as u64,
        || {
            for &value in &probes {
                consume(table.lookup(value));
            }
        },
    );
    LayoutResult {
        row: MatchMemoryModel::range(&table),
        lookups_per_sec: m.elements_per_sec(),
    }
}

/// The exact-match hot path with the flat-table dispatch in the stage walk:
/// same workload as the `batch` bench, packets per second.
fn bench_exact_hot_path(runner: &mut Runner) -> f64 {
    const TENANTS: u16 = 3;
    const RULES_PER_TENANT: usize = 400;
    let params = TABLE5.with_table_depth(2048);
    let mut pipeline = MenshenPipeline::new(params);
    for module_id in 1..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(module_id, RULES_PER_TENANT))
            .unwrap();
    }
    let packets = flow_workload(TENANTS, RULES_PER_TENANT, 3072);
    let elements = packets.len() as u64;

    let mut verdicts = Vec::new();
    runner
        .bench("match_scaling/exact_process_batch", elements, || {
            for burst in packets.chunks(BURST_SIZE) {
                pipeline.process_batch_into(burst, &mut verdicts);
                consume(&verdicts);
            }
        })
        .elements_per_sec()
}

/// An LPM module matching the destination IP (4-byte key slot 0), identical
/// to the runtime tests' shape.
fn lpm_module(module_id: u16) -> ModuleConfig {
    let mut config = ModuleConfig::empty(ModuleId::new(module_id), format!("lpm{module_id}"), 5);
    config.parser = ParserEntry::new(vec![
        ParseAction::new(34, C::h4(1)).unwrap(),
        ParseAction::new(40, C::h2(0)).unwrap(),
    ])
    .unwrap();
    config.deparser = ParserEntry::new(vec![ParseAction::new(40, C::h2(0)).unwrap()]).unwrap();
    config.stages[0] = StageModuleConfig {
        key_extract: Some(KeyExtractEntry {
            slots_4b: [1, 0],
            ..Default::default()
        }),
        key_mask: Some(KeyMask::for_slots(
            [false, false, true, false, false, false],
            false,
        )),
        match_kind: MatchKind::Lpm {
            key_offset: KEY_OFFSET as u8,
        },
        table_actions: vec![
            VliwAction::nop().with(C::h2(0), AluInstruction::set(1111)),
            VliwAction::nop().with(C::h2(0), AluInstruction::set(2222)),
        ],
        ..Default::default()
    };
    config
}

/// Publishes `burst_rules` LPM rules over the non-quiescing control path
/// while threaded shards keep forwarding; returns the JSON record and
/// asserts every packet is accounted for.
fn live_install_burst(burst_rules: usize) -> Json {
    let mut runtime = ShardedRuntime::new(TABLE5, RuntimeOptions::threaded(2));
    let module = ModuleId::new(7);
    runtime.load_module(&lpm_module(7)).unwrap();

    let burst: Vec<Packet> = (0..BURST_SIZE)
        .map(|i| {
            PacketBuilder::udp_data(
                7,
                [172, 16, 0, 1],
                [10, 0, (i / 256) as u8, (i % 256) as u8],
                5000,
                80,
                &[0u8; 8],
            )
        })
        .collect();
    let rules: Vec<TableRule> = clustered_prefixes(burst_rules)
        .into_iter()
        .map(|(prefix, prefix_len)| {
            TableRule::Lpm(LpmMatchRule {
                prefix,
                prefix_len,
                action: (u64::from(prefix) % 2) as u16,
            })
        })
        .collect();

    let start = std::time::Instant::now();
    let mut submitted = 0u64;
    let mut last_epoch = 0u64;
    for chunk in rules.chunks(500.max(burst_rules / 20)) {
        runtime.submit(&burst).unwrap();
        submitted += burst.len() as u64;
        last_epoch = runtime.install_rules_async(module, 0, chunk);
        runtime.submit(&burst).unwrap();
        submitted += burst.len() as u64;
    }
    runtime.flush();
    runtime.wait_for_epoch(last_epoch).unwrap();
    assert!(
        runtime.epoch_error(last_epoch).is_none(),
        "install burst must apply cleanly"
    );
    let elapsed = start.elapsed();

    let stats = runtime.shard_stats();
    let processed: u64 = stats.iter().map(|s| s.packets).sum();
    let forwarded: u64 = stats.iter().map(|s| s.forwarded).sum();
    assert_eq!(
        processed, submitted,
        "non-quiescing install: every packet submitted during the burst must be processed"
    );
    assert_eq!(
        forwarded, submitted,
        "non-quiescing install: no packet may be dropped while rules stream in"
    );
    let standby = runtime.standby_replica();
    let installed = standby.lpm_table(module, 0).map_or(0, |t| t.len());
    assert_eq!(installed, burst_rules, "every published rule installed");
    runtime.shutdown();

    println!(
        "live install: {burst_rules} rules in {:.1} ms with {submitted} packets in flight, all forwarded",
        elapsed.as_secs_f64() * 1e3
    );
    Json::obj([
        ("rules_installed", Json::from(burst_rules)),
        ("install_ms", Json::from(elapsed.as_secs_f64() * 1e3)),
        ("packets_submitted", Json::from(submitted)),
        ("packets_forwarded", Json::from(forwarded)),
        ("non_quiescing", Json::from(true)),
    ])
}

fn main() {
    let fast = std::env::var_os("MENSHEN_BENCH_FAST").is_some();
    let tiers: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    println!(
        "match-kind scaling at {tiers:?} rules, {PROBE_KEYS} probe keys per iteration{}",
        if fast { " (fast smoke run)" } else { "" }
    );

    let mut runner = Runner::new();
    let mut layouts: Vec<LayoutResult> = Vec::new();
    for &tier in tiers {
        layouts.push(bench_exact(&mut runner, tier));
        layouts.push(bench_lpm(&mut runner, tier));
        layouts.push(bench_range(&mut runner, tier));
    }

    let batch_pps = bench_exact_hot_path(&mut runner);
    let live = live_install_burst(if fast { 1_000 } else { 10_000 });

    println!();
    println!(
        "{:>6} {:>9} {:>10} {:>14} {:>14} {:>12}",
        "kind", "rules", "Mpps", "data-path B", "control B", "B/entry"
    );
    for layout in &layouts {
        println!(
            "{:>6} {:>9} {:>10.2} {:>14} {:>14} {:>12.1}",
            layout.row.kind,
            layout.row.entries,
            layout.lookups_per_sec / 1e6,
            layout.row.data_path_bytes,
            layout.row.control_bytes,
            layout.row.bytes_per_entry()
        );
    }
    println!("exact hot path: batch {batch_pps:.0} pkt/s");

    let baseline = Json::obj([
        ("tiers", tiers.to_vec().to_json()),
        ("probe_keys", Json::from(PROBE_KEYS)),
        ("layouts", layouts.to_json()),
        (
            "exact_hot_path",
            Json::obj([("batch_packets_per_sec", Json::from(batch_pps))]),
        ),
        ("live_install", live),
        ("measurements", runner.results().to_vec().to_json()),
    ]);
    if !fast {
        menshen_bench::update_baseline("match_scaling", &baseline);
    }
    menshen_bench::write_json("bench_match_scaling", &baseline);

    // Acceptance criteria.
    if let Some(lpm_1m) = layouts
        .iter()
        .find(|l| l.row.kind == "lpm" && l.row.entries == 1_000_000)
    {
        assert!(
            lpm_1m.lookups_per_sec >= 1e6,
            "LPM at 10^6 rules must sustain >= 1 Mpps (got {:.2} Mpps)",
            lpm_1m.lookups_per_sec / 1e6
        );
    }
}
