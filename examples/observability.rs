//! The observability plane, end to end: replay a heavy-tailed two-tenant
//! trace through the sharded runtime, resize it live, and export everything
//! the plane collected —
//!
//! * `results/metrics.prom` — the Prometheus text exposition of the full
//!   metrics snapshot (shard counters, per-tenant SLO series, sojourn
//!   histograms, control-plane gauges);
//! * `results/trace.json` — the control-plane event trace as Chrome
//!   trace-event JSON (open it at `chrome://tracing` or in Perfetto).
//!
//! The template samples one packet in 64 per stage, so the run also prints
//! the hot-path profile. Run with `cargo run --example observability`.

use menshen::core::MenshenPipeline;
use menshen::runtime::{RuntimeOptions, ShardedRuntime};
use menshen::trace::replay::{replay_sharded, Pacing};
use menshen::trace::synth::{synthesize, WorkloadSpec};
use menshen_bench::workloads::flow_rule_tenant;

const RULES: usize = 128;
const PACKETS: usize = 8_192;
const PROFILE_INTERVAL: u64 = 64;

fn main() {
    let params = menshen::rmt::TABLE5.with_table_depth(1024);
    let mut template = MenshenPipeline::new(params);
    template.set_profile_interval(PROFILE_INTERVAL);
    for module_id in 1..=2 {
        template
            .load_module(&flow_rule_tenant(module_id, RULES))
            .unwrap();
    }
    let mut spec = WorkloadSpec::heavy_tailed(2, 400, PACKETS);
    spec.rules_per_tenant = RULES;
    spec.mean_rate_pps = 20_000_000.0;
    let trace = synthesize(&spec).expect("workload spec is valid");

    let mut runtime = ShardedRuntime::from_pipeline(&template, RuntimeOptions::threaded(2));
    println!("replaying {} heavy-tailed packets over 2 shards…", PACKETS);
    let first = replay_sharded(&mut runtime, &trace, Pacing::Unpaced).unwrap();
    let resize = runtime.resize(4).expect("scale-out succeeds");
    println!(
        "resized 2 → 4 shards: {:.1} µs pause, {} modules / {} state words migrated",
        resize.pause.as_secs_f64() * 1e6,
        resize.migrated_modules,
        resize.migrated_words
    );
    let second = replay_sharded(&mut runtime, &trace, Pacing::Unpaced).unwrap();

    println!();
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10}",
        "tenant", "forwarded", "dropped", "p50 ns", "p99 ns"
    );
    for report in [&first, &second] {
        for (tenant, view) in &report.tenants {
            let pct = view.sojourn_ns.percentiles();
            println!(
                "{:>8} {:>10} {:>10} {:>10} {:>10}",
                tenant,
                view.ledger.forwarded,
                view.ledger.dropped(),
                pct.p50_ns,
                pct.p99_ns
            );
        }
        println!();
    }

    let audit = runtime.conservation_audit().unwrap();
    println!(
        "conservation audit: submitted={} forwarded={} dropped={} in_flight={} balanced={}",
        audit.submitted,
        audit.forwarded,
        audit.dropped,
        audit.in_flight,
        audit.is_balanced()
    );
    assert!(audit.is_balanced(), "audit must balance: {audit:?}");

    std::fs::create_dir_all("results").unwrap();
    let snapshot = runtime.metrics_snapshot().unwrap();
    let exposition = snapshot.to_prometheus();
    let series = menshen::core::validate_prometheus(&exposition).expect("exposition must be valid");
    std::fs::write("results/metrics.prom", &exposition).unwrap();
    println!("\nwrote results/metrics.prom ({series} series)");

    let chrome = runtime.export_chrome_trace();
    std::fs::write("results/trace.json", chrome.pretty()).unwrap();
    println!(
        "wrote results/trace.json ({} control-plane events; open in chrome://tracing)",
        runtime.control_events().len()
    );

    let profile = runtime.aggregated_profile().unwrap();
    println!(
        "\nsampled hot-path profile (1 in {}, {} packets):",
        profile.interval, profile.sampled
    );
    for (stage, hist) in menshen::core::PROFILE_PHASES.iter().zip(&profile.phase_ns) {
        let pct = hist.percentiles();
        println!(
            "  {stage:<8} p50 {:>6} ns  p99 {:>6} ns",
            pct.p50_ns, pct.p99_ns
        );
    }
}
