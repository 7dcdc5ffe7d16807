//! The chaos-plane benchmark: kill worker shards under live traffic and
//! measure what failure actually costs — detection latency, recovery pause,
//! and packets provably lost — committed as the `fault_recovery` section of
//! `BENCH_throughput.json`.
//!
//! Each round arms a one-shot [`FaultPlan`] panic at the victim's next
//! burst, keeps traffic flowing, and polls `supervise()` the way a real
//! deployment's supervisor loop would. The headline numbers are the
//! per-round detection→recovery spans and the throughput of the plane
//! *after* the last respawn, which must be indistinguishable from healthy —
//! plus the conservation audit, which must balance to the packet after
//! every kill.

use menshen_bench::workloads::flow_rule_tenant;
use menshen_core::MenshenPipeline;
use menshen_json::Json;
use menshen_rmt::TABLE5;
use menshen_runtime::{FaultPlan, RuntimeOptions, ShardedRuntime};
use menshen_trace::synth::{synthesize, WorkloadSpec};
use std::time::{Duration, Instant};

const TENANTS: u16 = 8;
const RULES_PER_TENANT: usize = 150;
const SHARDS: usize = 8;
const DISPATCHERS: usize = 2;

fn template() -> MenshenPipeline {
    let params = TABLE5.with_table_depth(2048);
    let mut pipeline = MenshenPipeline::new(params);
    for module_id in 1..=TENANTS {
        pipeline
            .load_module(&flow_rule_tenant(module_id, RULES_PER_TENANT))
            .unwrap();
    }
    pipeline
}

fn trace(packets: usize) -> Vec<menshen_packet::Packet> {
    let mut spec = WorkloadSpec::uniform(TENANTS, 600, packets);
    spec.rules_per_tenant = RULES_PER_TENANT;
    spec.mean_rate_pps = 10_000_000.0;
    synthesize(&spec).expect("workload spec is valid")
}

/// Shards the trace actually lands on (probed through the deterministic
/// replica, which shares the threaded plane's steering exactly).
fn trafficked_shards(sample: &[menshen_packet::Packet]) -> Vec<usize> {
    let mut probe =
        ShardedRuntime::from_pipeline(&template(), RuntimeOptions::deterministic(SHARDS));
    probe.process_batch(sample.to_vec()).unwrap();
    probe
        .shard_stats()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.packets > 0)
        .map(|(i, _)| i)
        .collect()
}

/// Timed traffic wave: submit + full flush, returning Mpps.
fn wave_mpps(runtime: &mut ShardedRuntime, wave: &[menshen_packet::Packet]) -> f64 {
    let start = Instant::now();
    runtime.submit_owned(wave.to_vec()).unwrap();
    runtime.flush();
    wave.len() as f64 / start.elapsed().as_secs_f64() / 1e6
}

struct Round {
    victim: usize,
    detection: Duration,
    pause: Duration,
    lost_packets: u64,
}

fn main() {
    // Injected panics are the experiment, not an accident: print them as a
    // single line instead of a full backtrace. Symbolizing the first
    // backtrace of the process costs >1s, which would otherwise land
    // inside the first round's detection window and poison the baseline.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault:"));
        if injected {
            eprintln!("{info}");
        } else {
            default_hook(info);
        }
    }));

    let fast = std::env::var_os("MENSHEN_BENCH_FAST").is_some();
    let rounds = if fast { 2 } else { 5 };
    let wave_packets = if fast { 4_096 } else { 32_768 };
    let probe_packets = if fast { 1_024 } else { 4_096 };

    menshen_bench::header("fault recovery: seeded kills under live traffic");
    println!(
        "{SHARDS} shards × {DISPATCHERS} dispatchers, {TENANTS} tenants × {RULES_PER_TENANT} \
         rules, {rounds} kill rounds, {wave_packets}-packet waves"
    );

    let wave = trace(wave_packets);
    let victims = trafficked_shards(&trace(probe_packets));
    assert!(!victims.is_empty(), "the trace reaches no shard");

    let mut runtime = ShardedRuntime::from_pipeline(
        &template(),
        RuntimeOptions::threaded(SHARDS)
            .with_dispatchers(DISPATCHERS)
            .with_submit_wait(Duration::from_millis(200)),
    );

    // Healthy baseline: warm-up, then best-of-5.
    wave_mpps(&mut runtime, &wave);
    let pre_failure_mpps = (0..5)
        .map(|_| wave_mpps(&mut runtime, &wave))
        .fold(0.0f64, f64::max);

    let mut results: Vec<Round> = Vec::new();
    for round in 0..rounds {
        let victim = victims[round % victims.len()];
        let next_burst = runtime.shard_stats()[victim].bursts + 1;
        runtime.arm_faults(FaultPlan::new().with_worker_panic(victim, next_burst));
        let kill_wave = trace(probe_packets);
        let mut recovered = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        // The supervisor loop: keep traffic moving, poll for the body.
        while recovered.is_empty() {
            assert!(
                Instant::now() < deadline,
                "round {round}: shard {victim} never detected"
            );
            runtime.submit_owned(kill_wave.clone()).unwrap();
            recovered.extend(runtime.supervise());
            if recovered.is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        runtime.disarm_faults();
        runtime.flush();
        assert_eq!(recovered.len(), 1, "exactly the scheduled casualty");
        let report = recovered.remove(0);
        assert_eq!(report.shard, victim);
        results.push(Round {
            victim,
            detection: report.detection,
            pause: report.pause,
            lost_packets: report.lost_packets,
        });
    }

    // The plane after the last respawn: same waves, same measure.
    let post_recovery_mpps = (0..5)
        .map(|_| wave_mpps(&mut runtime, &wave))
        .fold(0.0f64, f64::max);

    let audit = runtime.conservation_audit().unwrap();
    assert!(
        audit.is_balanced(),
        "books do not balance after {rounds} kills: {audit:?}"
    );
    assert_eq!(
        audit.forwarded + audit.dropped + audit.lost_to_failure,
        audit.submitted,
        "conservation identity violated: {audit:?}"
    );
    assert_eq!(runtime.failures(), rounds as u64);

    println!();
    println!(
        "{:>6} {:>8} {:>14} {:>12} {:>8}",
        "round", "victim", "detection µs", "pause µs", "lost"
    );
    for (i, r) in results.iter().enumerate() {
        println!(
            "{:>6} {:>8} {:>14.1} {:>12.1} {:>8}",
            i,
            r.victim,
            r.detection.as_secs_f64() * 1e6,
            r.pause.as_secs_f64() * 1e6,
            r.lost_packets
        );
    }
    let total_lost: u64 = results.iter().map(|r| r.lost_packets).sum();
    println!();
    println!(
        "throughput: {pre_failure_mpps:.2} Mpps healthy → {post_recovery_mpps:.2} Mpps after \
         {rounds} kill/recover rounds; {total_lost} packets lost of {} submitted",
        audit.submitted
    );

    let round_rows: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::obj([
                ("victim_shard", Json::from(r.victim as u64)),
                ("detection_us", Json::from(r.detection.as_secs_f64() * 1e6)),
                ("pause_us", Json::from(r.pause.as_secs_f64() * 1e6)),
                ("lost_packets", Json::from(r.lost_packets)),
            ])
        })
        .collect();
    let mean_us = |f: fn(&Round) -> Duration| {
        results
            .iter()
            .map(|r| f(r).as_secs_f64() * 1e6)
            .sum::<f64>()
            / results.len() as f64
    };
    let section = Json::obj([
        ("shards", Json::from(SHARDS as u64)),
        ("dispatchers", Json::from(DISPATCHERS as u64)),
        ("rounds", Json::from(results.len() as u64)),
        ("mean_detection_us", Json::from(mean_us(|r| r.detection))),
        ("mean_pause_us", Json::from(mean_us(|r| r.pause))),
        ("total_lost_packets", Json::from(total_lost)),
        ("pre_failure_mpps", Json::from(pre_failure_mpps)),
        ("post_recovery_mpps", Json::from(post_recovery_mpps)),
        (
            "audit",
            Json::obj([
                ("submitted", Json::from(audit.submitted)),
                ("forwarded", Json::from(audit.forwarded)),
                ("dropped", Json::from(audit.dropped)),
                ("shed", Json::from(audit.shed)),
                ("lost_to_failure", Json::from(audit.lost_to_failure)),
                ("balanced", Json::from(audit.is_balanced())),
            ]),
        ),
        ("per_round", Json::Arr(round_rows)),
    ]);
    // Smoke runs never overwrite the committed baseline.
    if !fast {
        menshen_bench::update_baseline("fault_recovery", &section);
    }
    menshen_bench::write_json("bench_fault_recovery", &section);
}
