//! The closed-loop capacity benchmark: offered load vs p50/p99 sojourn,
//! stepped up until the p99 knees, committed as the `capacity_knee` section
//! of `BENCH_throughput.json`.
//!
//! Uses the shared 8-tenant flow-rule workload, synthesised as a uniform
//! trace and replayed **rate-rescaled** through the real threaded
//! `ShardedRuntime`: the capture's relative spacing is kept but linearly
//! rescaled to each offered rate, and the next offered rate is chosen from
//! the previous measurement (geometric step until the knee) — the
//! closed-loop methodology that turns an open-loop replay into a capacity
//! figure.

use menshen_bench::workloads::flow_rule_tenant;
use menshen_core::MenshenPipeline;
use menshen_json::Json;
use menshen_rmt::TABLE5;
use menshen_runtime::SteeringMode;
use menshen_testbed::capacity::{capacity_sweep, CapacitySweepConfig};
use menshen_trace::synth::{synthesize, WorkloadSpec};

const TENANTS: u16 = 8;
const RULES_PER_TENANT: usize = 150; // same CAM shape as the other benches

fn main() {
    let fast = std::env::var_os("MENSHEN_BENCH_FAST").is_some();
    let packets = if fast { 512 } else { 4096 };
    let shards = if fast { 2 } else { 4 };
    let dispatchers = if fast { 1 } else { 2 };

    let params = TABLE5.with_table_depth(2048);
    let mut template = MenshenPipeline::new(params);
    for module_id in 1..=TENANTS {
        template
            .load_module(&flow_rule_tenant(module_id, RULES_PER_TENANT))
            .unwrap();
    }
    let mut spec = WorkloadSpec::uniform(TENANTS, 600, packets);
    spec.rules_per_tenant = RULES_PER_TENANT;
    spec.mean_rate_pps = 5_000_000.0;
    let trace = synthesize(&spec).expect("workload spec is valid");

    let config = CapacitySweepConfig {
        start_pps: if fast { 1_000_000.0 } else { 250_000.0 },
        growth: 2.0,
        max_points: if fast { 4 } else { 12 },
        knee_factor: 8.0,
        saturation_margin: 0.9,
    };
    println!(
        "{TENANTS} tenants, {} packets per point, {shards} shards, {dispatchers} dispatchers, \
         offered rate {} pps × {}^k until the p99 knees",
        trace.len(),
        config.start_pps,
        config.growth
    );
    let report = capacity_sweep(
        &template,
        &trace,
        shards,
        dispatchers,
        SteeringMode::FiveTuple,
        config,
    );

    println!();
    println!(
        "{:>14} {:>14} {:>10} {:>10} {:>10} {:>7}",
        "offered pps", "achieved pps", "p50 ns", "p99 ns", "p99.9 ns", "knee?"
    );
    for point in &report.points {
        println!(
            "{:>14.0} {:>14.0} {:>10} {:>10} {:>10} {:>7}{}",
            point.offered_pps,
            point.replay.achieved_mpps * 1e6,
            point.replay.latency.p50_ns,
            point.replay.latency.p99_ns,
            point.replay.latency.p999_ns,
            if point.kneed { "KNEE" } else { "" },
            if point.replay.all_packets_accounted {
                ""
            } else {
                "   (!) packets unaccounted"
            }
        );
    }
    match report.knee_pps {
        Some(knee) => println!("\ncapacity (last pre-knee offered rate): {knee:.0} pps"),
        None => println!("\nno knee within the swept range"),
    }

    for point in &report.points {
        assert!(
            point.replay.all_packets_accounted,
            "capacity sweep lost packets at {} pps",
            point.offered_pps
        );
        assert!(point.replay.latency.p99_ns >= point.replay.latency.p50_ns);
    }
    // Structural gate: the sweep must actually have closed the loop — either
    // it found a knee, or it pushed through every configured step.
    assert!(
        report.knee_pps.is_some() || report.points.len() == config.max_points,
        "sweep stopped early without a knee"
    );

    let points: Vec<Json> = report
        .points
        .iter()
        .map(|point| {
            Json::obj([
                ("offered_pps", Json::from(point.offered_pps)),
                ("achieved_pps", Json::from(point.replay.achieved_mpps * 1e6)),
                ("p50_ns", Json::from(point.replay.latency.p50_ns)),
                ("p90_ns", Json::from(point.replay.latency.p90_ns)),
                ("p99_ns", Json::from(point.replay.latency.p99_ns)),
                ("p999_ns", Json::from(point.replay.latency.p999_ns)),
                ("mean_ns", Json::from(point.replay.latency.mean_ns)),
                ("kneed", Json::Bool(point.kneed)),
                (
                    "all_packets_accounted",
                    Json::Bool(point.replay.all_packets_accounted),
                ),
            ])
        })
        .collect();
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let doc = Json::obj([
        ("tenants", Json::from(TENANTS)),
        ("rules_per_tenant", Json::from(RULES_PER_TENANT)),
        ("workload_packets", Json::from(trace.len())),
        ("shards", Json::from(report.shards)),
        ("dispatchers", Json::from(report.dispatchers)),
        ("host_parallelism", Json::from(host_parallelism)),
        ("steering", Json::from("five_tuple_rss")),
        ("pacing", Json::from("rate_rescaled_closed_loop")),
        ("baseline_p99_ns", Json::from(report.baseline_p99_ns)),
        (
            "knee_pps",
            report.knee_pps.map(Json::from).unwrap_or(Json::Null),
        ),
        ("points", Json::Arr(points)),
    ]);
    if !fast {
        menshen_bench::update_baseline("capacity_knee", &doc);
    }
    menshen_bench::write_json("bench_capacity", &doc);
}
