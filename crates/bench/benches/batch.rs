//! The headline hot-path benchmark: `process` (bursts of one) vs DPDK-style
//! `process_batch` on a 3-tenant workload with ≥ 1k CAM entries installed.
//! Performance regressions are gated by the repository benchmark
//! (`BENCHMARK.json`), not by an assertion here.
//!
//! Writes the machine-readable baseline to `BENCH_throughput.json` at the
//! repository root (committed, so future PRs can compare against it) and a
//! copy of the raw measurements under `results/`.

use menshen_bench::harness::{consume, Runner};
use menshen_bench::workloads::{flow_rule_tenant, flow_workload};
use menshen_core::{MenshenPipeline, BURST_SIZE};
use menshen_json::{Json, ToJson};
use menshen_rmt::TABLE5;

const TENANTS: u16 = 3;
const RULES_PER_TENANT: usize = 400; // 3 × 400 = 1200 CAM entries ≥ 1k
const WORKLOAD_PACKETS: usize = 3072;

fn main() {
    // A CAM deep enough for 1200 entries per stage.
    let params = TABLE5.with_table_depth(2048);
    let mut pipeline = MenshenPipeline::new(params);
    let mut installed = 0usize;
    for module_id in 1..=TENANTS {
        let config = flow_rule_tenant(module_id, RULES_PER_TENANT);
        installed += config.stages[0].rules.len();
        pipeline.load_module(&config).unwrap();
    }
    let packets = flow_workload(TENANTS, RULES_PER_TENANT, WORKLOAD_PACKETS);
    println!(
        "{TENANTS} tenants, {installed} CAM entries installed, {} packets per iteration, burst {}",
        packets.len(),
        BURST_SIZE
    );

    // Sanity: the workload forwards every packet.
    let ok = pipeline
        .process_batch(packets.clone())
        .iter()
        .filter(|v| v.is_forwarded())
        .count();
    assert_eq!(ok, packets.len(), "workload must be all-hits");

    let mut runner = Runner::new();
    let elements = packets.len() as u64;

    // One packet per call: `process` is a burst of one through the same
    // routine, so this is what the per-burst amortisation is worth.
    runner.bench("hot_path/single_packet_indexed", elements, || {
        for packet in &packets {
            consume(pipeline.process(packet.clone()));
        }
    });

    // The batched path: O(1) index + per-burst amortisation, driven through
    // the allocation-free `process_batch_into` with one reused verdict
    // buffer — the way the testbed sweeps and the sharded runtime's workers
    // consume it.
    let mut verdicts = Vec::new();
    runner.bench("hot_path/process_batch", elements, || {
        for burst in packets.chunks(BURST_SIZE) {
            pipeline.process_batch_into(burst, &mut verdicts);
            consume(&verdicts);
        }
    });

    let indexed = runner
        .get("hot_path/single_packet_indexed")
        .unwrap()
        .clone();
    let batched = runner.get("hot_path/process_batch").unwrap().clone();
    let speedup_vs_indexed = batched.elements_per_sec() / indexed.elements_per_sec();
    println!();
    println!(
        "process, one packet per call: {:>12.0} packets/s",
        indexed.elements_per_sec()
    );
    println!(
        "process_batch, bursts of {BURST_SIZE}:  {:>12.0} packets/s  ({speedup_vs_indexed:.2}x)",
        batched.elements_per_sec()
    );

    let baseline = Json::obj([
        ("tenants", Json::from(TENANTS)),
        ("cam_entries_installed", Json::from(installed)),
        ("workload_packets", Json::from(packets.len())),
        ("burst_size", Json::from(BURST_SIZE)),
        (
            "single_indexed_packets_per_sec",
            Json::from(indexed.elements_per_sec()),
        ),
        (
            "batch_packets_per_sec",
            Json::from(batched.elements_per_sec()),
        ),
        (
            "batch_speedup_vs_single_indexed",
            Json::from(speedup_vs_indexed),
        ),
        ("measurements", runner.results().to_vec().to_json()),
    ]);
    // Fast (smoke) runs keep their results under `results/` only, so they
    // never overwrite the committed full-fidelity baseline at the repo root.
    // Full runs merge-update their own section, preserving the other
    // benches' series.
    if std::env::var_os("MENSHEN_BENCH_FAST").is_none() {
        menshen_bench::update_baseline("hot_path_single_vs_batch", &baseline);
    }
    menshen_bench::write_json("bench_batch", &baseline);
}
