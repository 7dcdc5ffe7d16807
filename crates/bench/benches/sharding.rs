//! The shard-scaling benchmark: cores vs aggregate Mpps over the sharded
//! multi-core runtime (`menshen-runtime`).
//!
//! Runs the `menshen_testbed::scaling` sweep at 1/2/4/8 shards on the same
//! multi-tenant flow-rule workload as the hot-path bench and appends the
//! `shard_scaling` series to the committed `BENCH_throughput.json` (merge-
//! update: the hot-path section is preserved).
//!
//! Measurement philosophy (same as the repo's 100 Gbit/s figures): the
//! per-shard rate and the dispatcher's steering rate are *measured*; every
//! shard count also runs the *real threaded runtime* end to end and must
//! account for every packet. The reported aggregate is the threaded
//! wall-clock rate when the host has enough cores to park every worker, and
//! otherwise the two-stage pipeline model
//! `min(dispatch_rate, per_shard_rate × effective_shards)` with the
//! effective shard count taken from the workload's actual steering balance.
//! The JSON records which source each point used, plus the host parallelism.

use menshen_bench::workloads::{flow_rule_tenant, flow_rule_tenant_with_port, flow_workload};
use menshen_core::MenshenPipeline;
use menshen_json::Json;
use menshen_rmt::action::AluInstruction;
use menshen_rmt::phv::ContainerRef as C;
use menshen_rmt::TABLE5;
use menshen_runtime::SteeringMode;
use menshen_testbed::scaling::{dispatch_scaling_sweep, scr_scaling_sweep, shard_scaling_sweep};

const TENANTS: u16 = 8;
const RULES_PER_TENANT: usize = 150; // 8 × 150 = 1200 CAM entries ≥ 1k
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DISPATCHER_COUNTS: [usize; 3] = [1, 2, 4];
// 32 shards is past the serial dispatcher's ceiling (per-shard × effective
// exceeds the measured ~95 Mpps steering rate), so the series shows the cap
// binding at 1 dispatcher and lifting at 2+.
const DISPATCH_SHARD_COUNTS: [usize; 3] = [8, 16, 32];

fn main() {
    let fast = std::env::var_os("MENSHEN_BENCH_FAST").is_some();
    let workload_packets = if fast { 1024 } else { 4096 };
    let reps = if fast { 1 } else { 5 };

    let params = TABLE5.with_table_depth(2048);
    let mut template = MenshenPipeline::new(params);
    let mut installed = 0usize;
    for module_id in 1..=TENANTS {
        let config = flow_rule_tenant(module_id, RULES_PER_TENANT);
        installed += config.stages[0].rules.len();
        template.load_module(&config).unwrap();
    }
    let packets = flow_workload(TENANTS, RULES_PER_TENANT, workload_packets);
    println!(
        "{TENANTS} tenants, {installed} CAM entries installed, {} packets per iteration, \
         5-tuple RSS steering",
        packets.len()
    );

    // 5-tuple steering spreads the 8 tenants' flows over all shards; the
    // workload's state (per-flow counters via `loadd`) is additive, so the
    // SCR replication regime preserves its semantics.
    let report = shard_scaling_sweep(
        &template,
        &packets,
        &SHARD_COUNTS,
        SteeringMode::FiveTuple,
        reps,
    );

    println!();
    println!(
        "per-shard (measured):  {:>8.2} Mpps    dispatcher (measured): {:>8.2} Mpps    host cores: {}",
        report.per_shard_mpps, report.dispatch_mpps, report.host_parallelism
    );
    println!();
    println!("shards   aggregate Mpps   source     model Mpps   threaded-on-host Mpps   eff. shards   speedup");
    for point in &report.points {
        println!(
            "{:>6}   {:>14.2}   {:<8} {:>12.2}   {:>21.2}   {:>11.2}   {:>6.2}x{}",
            point.shards,
            point.aggregate_mpps,
            point.source,
            point.model_mpps,
            point.threaded_mpps,
            point.effective_shards,
            point.speedup,
            if point.all_packets_accounted {
                ""
            } else {
                "   (!) packets unaccounted"
            }
        );
    }

    for point in &report.points {
        assert!(
            point.all_packets_accounted,
            "threaded runtime lost packets at {} shards",
            point.shards
        );
    }

    let point_4 = report.point(4).expect("the sweep covers 4 shards");
    let speedup_at_4 = point_4.speedup;
    // The CI gate uses the model speedup: it compares like with like on any
    // host (the series speedup can mix a measured baseline with a modeled
    // 4-shard point on small multi-core runners).
    let model_speedup_at_4 = point_4.model_speedup;

    let series: Vec<Json> = report
        .points
        .iter()
        .map(|point| {
            Json::obj([
                ("cores", Json::from(point.shards)),
                ("mpps", Json::from(point.aggregate_mpps)),
                ("source", Json::from(point.source)),
                ("model_mpps", Json::from(point.model_mpps)),
                ("threaded_on_host_mpps", Json::from(point.threaded_mpps)),
                ("effective_shards", Json::from(point.effective_shards)),
                ("speedup_vs_1_shard", Json::from(point.speedup)),
                ("model_speedup_vs_1_shard", Json::from(point.model_speedup)),
                (
                    "all_packets_accounted",
                    Json::Bool(point.all_packets_accounted),
                ),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("tenants", Json::from(TENANTS)),
        ("cam_entries_installed", Json::from(installed)),
        ("workload_packets", Json::from(packets.len())),
        ("steering", Json::from("five_tuple_rss")),
        ("host_parallelism", Json::from(report.host_parallelism)),
        ("per_shard_mpps", Json::from(report.per_shard_mpps)),
        ("dispatch_mpps", Json::from(report.dispatch_mpps)),
        ("cores_vs_mpps", Json::Arr(series)),
        ("speedup_at_4_shards", Json::from(speedup_at_4)),
        ("model_speedup_at_4_shards", Json::from(model_speedup_at_4)),
    ]);
    if !fast {
        menshen_bench::update_baseline("shard_scaling", &doc);
    }
    menshen_bench::write_json("bench_sharding", &doc);

    // ------------------------------------------------------------------
    // Stateful (state-compute-replication) series: tenant 1 becomes a
    // storing, NON-mergeable program — its rules overwrite stateful word 2
    // with a packet field — so under 5-tuple steering it runs *replicated*:
    // every shard owns part of its flows and replays digests for the rest.
    // The series reports the replay-aware scaling model plus the digest
    // wire overhead per packet.
    // ------------------------------------------------------------------
    let mut stateful_template = MenshenPipeline::new(params);
    let mut storing = flow_rule_tenant_with_port(1, RULES_PER_TENANT, 1001);
    for rule in &mut storing.stages[0].rules {
        rule.action = rule
            .action
            .clone()
            .with(C::h4(3), AluInstruction::store(C::h4(1), 2));
    }
    stateful_template.load_module(&storing).unwrap();
    for module_id in 2..=TENANTS {
        stateful_template
            .load_module(&flow_rule_tenant(module_id, RULES_PER_TENANT))
            .unwrap();
    }
    let stateful_report = scr_scaling_sweep(&stateful_template, &packets, &SHARD_COUNTS, reps);
    assert_eq!(
        stateful_report.replicated_modules,
        vec![1],
        "the storing tenant must classify Replicated"
    );

    println!();
    println!(
        "stateful series (tenant 1 storing/replicated): per-shard {:>7.2} Mpps   \
         replay {:>7.2} Mdigests/s   dispatcher {:>7.2} Mpps",
        stateful_report.per_shard_mpps, stateful_report.replay_mpps, stateful_report.dispatch_mpps
    );
    println!();
    println!(
        "shards   aggregate Mpps   source     model Mpps   threaded-on-host Mpps   digest B/pkt   speedup"
    );
    for point in &stateful_report.points {
        println!(
            "{:>6}   {:>14.2}   {:<8} {:>12.2}   {:>21.2}   {:>12.2}   {:>6.2}x{}",
            point.shards,
            point.aggregate_mpps,
            point.source,
            point.model_mpps,
            point.threaded_mpps,
            point.digest_bytes_per_packet,
            point.speedup,
            if point.all_packets_accounted {
                ""
            } else {
                "   (!) packets unaccounted"
            }
        );
    }
    for point in &stateful_report.points {
        assert!(
            point.all_packets_accounted,
            "stateful threaded runtime lost packets at {} shards",
            point.shards
        );
    }
    let stateful_4 = stateful_report.point(4).expect("the sweep covers 4 shards");
    // The committed acceptance figure: a non-mergeable storing tenant no
    // longer caps the series at one shard — the replay-aware model scales
    // past 1× despite the digest replay tax.
    assert!(
        stateful_4.model_speedup > 1.0,
        "replicated storing tenant must scale past one shard \
         (got {:.2}x model speedup)",
        stateful_4.model_speedup
    );

    let stateful_series: Vec<Json> = stateful_report
        .points
        .iter()
        .map(|point| {
            Json::obj([
                ("cores", Json::from(point.shards)),
                ("mpps", Json::from(point.aggregate_mpps)),
                ("source", Json::from(point.source)),
                ("model_mpps", Json::from(point.model_mpps)),
                ("threaded_on_host_mpps", Json::from(point.threaded_mpps)),
                ("effective_shards", Json::from(point.effective_shards)),
                ("speedup_vs_1_shard", Json::from(point.speedup)),
                ("model_speedup_vs_1_shard", Json::from(point.model_speedup)),
                ("digest_packets", Json::from(point.digest_packets)),
                ("digest_bytes", Json::from(point.digest_bytes)),
                (
                    "digest_bytes_per_packet",
                    Json::from(point.digest_bytes_per_packet),
                ),
                (
                    "all_packets_accounted",
                    Json::Bool(point.all_packets_accounted),
                ),
            ])
        })
        .collect();
    let stateful_doc = Json::obj([
        ("tenants", Json::from(TENANTS)),
        ("storing_tenants", Json::from(1u64)),
        ("cam_entries_installed", Json::from(installed)),
        ("workload_packets", Json::from(packets.len())),
        ("steering", Json::from("five_tuple_rss")),
        ("execution_mode", Json::from("replicated_non_mergeable")),
        (
            "host_parallelism",
            Json::from(stateful_report.host_parallelism),
        ),
        ("per_shard_mpps", Json::from(stateful_report.per_shard_mpps)),
        (
            "replay_mdigests_per_s",
            Json::from(stateful_report.replay_mpps),
        ),
        ("dispatch_mpps", Json::from(stateful_report.dispatch_mpps)),
        ("cores_vs_mpps", Json::Arr(stateful_series)),
        ("speedup_at_4_shards", Json::from(stateful_4.speedup)),
        (
            "model_speedup_at_4_shards",
            Json::from(stateful_4.model_speedup),
        ),
    ]);
    if !fast {
        menshen_bench::update_baseline("shard_scaling_stateful", &stateful_doc);
    }
    menshen_bench::write_json("bench_sharding_stateful", &stateful_doc);

    // ------------------------------------------------------------------
    // Dispatch-scaling series: dispatchers × shards → Mpps. The point of
    // the parallel dispatch plane: one dispatcher caps the model at the
    // serial steering rate; N dispatchers lift that cap.
    // ------------------------------------------------------------------
    let dispatcher_counts: &[usize] = if fast { &[1, 2] } else { &DISPATCHER_COUNTS };
    let dispatch_shards: &[usize] = if fast { &[2] } else { &DISPATCH_SHARD_COUNTS };
    let dispatch_report = dispatch_scaling_sweep(
        &template,
        &packets,
        dispatcher_counts,
        dispatch_shards,
        SteeringMode::FiveTuple,
        reps,
    );
    println!();
    println!(
        "serial steering (measured): {:>8.2} Mpps    per-shard: {:>8.2} Mpps",
        dispatch_report.serial_dispatch_mpps, dispatch_report.per_shard_mpps
    );
    println!();
    println!(
        "disp x shards   aggregate Mpps   source     steer Mpps (src)    model Mpps   threaded-on-host"
    );
    for point in &dispatch_report.points {
        println!(
            "{:>4} x {:<6} {:>16.2}   {:<8} {:>10.2} ({:<8}) {:>12.2}   {:>16.2}{}",
            point.dispatchers,
            point.shards,
            point.aggregate_mpps,
            point.source,
            point.steer_mpps,
            point.steer_source,
            point.model_mpps,
            point.threaded_mpps,
            if point.all_packets_accounted {
                ""
            } else {
                "   (!) packets unaccounted"
            }
        );
    }
    for point in &dispatch_report.points {
        assert!(
            point.all_packets_accounted,
            "parallel dispatch plane lost packets at {} dispatchers x {} shards",
            point.dispatchers, point.shards
        );
    }
    let dispatch_series: Vec<Json> = dispatch_report
        .points
        .iter()
        .map(|point| {
            Json::obj([
                ("dispatchers", Json::from(point.dispatchers)),
                ("shards", Json::from(point.shards)),
                ("mpps", Json::from(point.aggregate_mpps)),
                ("source", Json::from(point.source)),
                ("steer_mpps", Json::from(point.steer_mpps)),
                ("steer_source", Json::from(point.steer_source)),
                ("model_mpps", Json::from(point.model_mpps)),
                ("threaded_on_host_mpps", Json::from(point.threaded_mpps)),
                ("effective_shards", Json::from(point.effective_shards)),
                (
                    "all_packets_accounted",
                    Json::Bool(point.all_packets_accounted),
                ),
            ])
        })
        .collect();
    let dispatch_doc = Json::obj([
        ("tenants", Json::from(TENANTS)),
        ("workload_packets", Json::from(packets.len())),
        ("steering", Json::from("five_tuple_rss")),
        (
            "host_parallelism",
            Json::from(dispatch_report.host_parallelism),
        ),
        (
            "serial_dispatch_mpps",
            Json::from(dispatch_report.serial_dispatch_mpps),
        ),
        ("per_shard_mpps", Json::from(dispatch_report.per_shard_mpps)),
        ("points", Json::Arr(dispatch_series)),
    ]);
    if !fast {
        menshen_bench::update_baseline("dispatch_scaling", &dispatch_doc);
    }
    menshen_bench::write_json("bench_dispatch_scaling", &dispatch_doc);

    // The dispatch plane must lift the serial cap in the model: at the
    // widest point, the steering stage with the most dispatchers must
    // comfortably exceed the single-dispatcher stage.
    let widest = *dispatch_shards.last().unwrap();
    let most = *dispatcher_counts.last().unwrap();
    let steer_1 = dispatch_report
        .point(dispatcher_counts[0], widest)
        .expect("single-dispatcher point")
        .steer_mpps;
    let steer_n = dispatch_report
        .point(most, widest)
        .expect("widest point")
        .steer_mpps;
    assert!(
        steer_n >= steer_1 * 1.5 || most == 1,
        "{most} dispatchers should scale the steering stage: {steer_1:.1} → {steer_n:.1} Mpps"
    );

    assert!(
        model_speedup_at_4 >= 2.5,
        "acceptance criterion: 4 shards must reach >= 2.5x the 1-shard aggregate \
         (got {model_speedup_at_4:.2}x model speedup, {speedup_at_4:.2}x series speedup)"
    );
}
