//! Micro-benchmarks of the functional pipeline: per-packet processing cost
//! for the baseline RMT pipeline and for the Menshen pipeline with 1 and 8
//! loaded tenants, across packet sizes — in bursts of one (`process`) and of
//! `BURST_SIZE` (`process_batch_into`).
//!
//! These measure the *simulator's* throughput (useful for keeping the
//! simulator fast and for the ablation of isolation-primitive cost in
//! software); absolute hardware throughput comes from the platform model
//! (see `fig11_throughput`).

use menshen_bench::harness::{consume, Runner};
use menshen_core::{MenshenPipeline, BURST_SIZE};
use menshen_programs::calc::Calc;
use menshen_programs::{all_programs, EvaluatedProgram};
use menshen_rmt::{RmtPipeline, RmtProgram, TABLE5};
use menshen_testbed::TrafficGenerator;

fn bench_rmt_baseline(runner: &mut Runner) {
    let mut pipeline = RmtPipeline::new(TABLE5);
    pipeline.load_program(RmtProgram::default()).unwrap();
    let mut generator = TrafficGenerator::new(1);
    for &size in &[64usize, 256, 1500] {
        let packets = generator.burst(1, size, 64);
        runner.bench(
            &format!("rmt_baseline/{size}B"),
            packets.len() as u64,
            || {
                for packet in &packets {
                    consume(pipeline.process(packet.clone()).unwrap());
                }
            },
        );
    }
}

fn bench_menshen_single_module(runner: &mut Runner) {
    let mut pipeline = MenshenPipeline::new(TABLE5);
    pipeline.load_module(&Calc.build(1).unwrap()).unwrap();
    for &size in &[64usize, 256, 1500] {
        let mut generator = TrafficGenerator::new(2);
        let packets = generator.burst(1, size, 64);
        runner.bench(
            &format!("menshen_single/{size}B"),
            packets.len() as u64,
            || {
                for packet in &packets {
                    consume(pipeline.process(packet.clone()));
                }
            },
        );
        runner.bench(
            &format!("menshen_single_batched/{size}B"),
            packets.len() as u64,
            || {
                for burst in packets.chunks(BURST_SIZE) {
                    consume(pipeline.process_batch(burst.to_vec()));
                }
            },
        );
    }
}

fn bench_menshen_multi_tenant(runner: &mut Runner) {
    // All eight Table 3 programs loaded side by side; traffic round-robins
    // over the tenants. Together they need more stage-0 match entries than
    // the prototype's 16-deep CAM, so this bench provisions a deeper table.
    let mut pipeline = MenshenPipeline::new(TABLE5.with_table_depth(64));
    let programs = all_programs();
    let mut workload = Vec::new();
    for (index, program) in programs.iter().enumerate() {
        let module_id = (index + 1) as u16;
        program.configure_system(pipeline.system_mut());
        pipeline
            .load_module(&program.build(module_id).unwrap())
            .unwrap();
        workload.extend(program.packets(module_id, 8, 3));
    }
    runner.bench("menshen_8_tenants/single", workload.len() as u64, || {
        for packet in &workload {
            consume(pipeline.process(packet.clone()));
        }
    });
    runner.bench("menshen_8_tenants/batched", workload.len() as u64, || {
        for burst in workload.chunks(BURST_SIZE) {
            consume(pipeline.process_batch(burst.to_vec()));
        }
    });
}

fn main() {
    let mut runner = Runner::new();
    bench_rmt_baseline(&mut runner);
    bench_menshen_single_module(&mut runner);
    bench_menshen_multi_tenant(&mut runner);
    menshen_bench::write_json("bench_pipeline", &runner.results().to_vec());
}
