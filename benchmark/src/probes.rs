//! Isolated probes of single layers, timed from outside on the same generated
//! inputs the workloads use. They run after every traced workload run; each
//! reports the median of several timed repetitions.

use crate::gen::{self, Expect, Table, Traffic, BURST, CHUNK};
use crate::stats;
use crate::sut::{self, Frame, Lone, Sharded};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Timed repetitions per probe.
const SAMPLES: usize = 7;
/// Least time one repetition runs.
const SAMPLE_TIME: Duration = Duration::from_millis(4);
/// Datagrams queued on a socket per repetition of the socket probes: what a
/// default receive buffer holds without dropping.
const SOCKET_BATCH: usize = 128;

/// Median ns per item of `body`, which handles `items` items per call.
fn ns_per_item(items: usize, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    body();
    let once = start.elapsed().max(Duration::from_nanos(1));
    let calls = (SAMPLE_TIME.as_nanos() / once.as_nanos()).max(1) as usize;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                body();
            }
            start.elapsed().as_nanos() as f64 / (calls * items) as f64
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

/// Median ns per item where each repetition needs preparation that must not
/// be timed: `sample` prepares, then returns how long the part under test
/// took for `items` items (see [`timed`]).
fn ns_per_item_sampled(items: usize, mut sample: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| sample().as_nanos() as f64 / items as f64)
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

fn timed(body: impl FnOnce()) -> Duration {
    let start = Instant::now();
    body();
    start.elapsed()
}

/// Median µs of one call of `body`.
fn us_per_call(mut body: impl FnMut()) -> f64 {
    ns_per_item_sampled(1, || timed(&mut body)) / 1e3
}

fn chunks_of(frames: &[Frame], passes: usize) -> Vec<Vec<Frame>> {
    (0..passes)
        .flat_map(|_| frames.chunks(CHUNK))
        .map(<[Frame]>::to_vec)
        .collect()
}

fn loaded(traffic: &Traffic, skip: Option<u16>) -> Lone {
    let mut pipeline = Lone::new();
    for spec in traffic.tenants.iter().filter(|spec| Some(spec.id) != skip) {
        pipeline.load(&sut::tenant(spec));
    }
    pipeline
}

/// Runs every probe; `lpm_rules` is the prefix count per LPM tenant.
pub fn run(seed: u64, lpm_rules: usize) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mix = gen::mix8(seed, 0, false);
    let frames = sut::build_frames(&mix.frames);
    let sized_frames = sut::build_frames(&gen::mix8(seed, 0, true).frames);
    let mut pipeline = loaded(&mix, None);
    let mut outcomes = Vec::with_capacity(CHUNK);

    packet(&mut out, &mix, &frames, &sized_frames);
    rmt(&mut out, seed, lpm_rules, &mix);

    // core: the data path
    out.push((
        "core.process_batch_ns",
        ns_per_item(frames.len(), || {
            for burst in frames.chunks(BURST) {
                pipeline.process(burst, &mut outcomes);
                black_box(&outcomes);
            }
        }),
    ));
    out.push((
        "core.process_batch_b1_ns",
        ns_per_item(gen::MIX8_FLOWS, || {
            for burst in frames[..gen::MIX8_FLOWS].chunks(1) {
                pipeline.process(burst, &mut outcomes);
                black_box(&outcomes);
            }
        }),
    ));
    let filtered: Vec<Frame> = frames
        .iter()
        .zip(&mix.frames)
        .filter(|(_, spec)| spec.expect == Expect::FilterDrop)
        .map(|(frame, _)| frame.clone())
        .collect();
    out.push((
        "core.drop_path_ns",
        ns_per_item(filtered.len(), || {
            for burst in filtered.chunks(BURST) {
                pipeline.process(burst, &mut outcomes);
                black_box(&outcomes);
            }
        }),
    ));

    // core + runtime: state digests of tenant 1's frames
    let digester = pipeline.digest_spec(1).expect("tenant 1 is loaded");
    let tenant1: Vec<&Frame> = frames
        .iter()
        .zip(&mix.frames)
        .filter(|(_, spec)| spec.vlan == 1)
        .map(|(frame, _)| frame)
        .collect();
    out.push((
        "runtime.digest_extract_ns",
        ns_per_item(tenant1.len(), || {
            for frame in &tenant1 {
                black_box(digester.extract(frame));
            }
        }),
    ));
    let digests: Vec<_> = tenant1
        .iter()
        .map(|frame| digester.extract(frame))
        .collect();
    let mut replica = pipeline.replica();
    out.push((
        "core.apply_digest_ns",
        ns_per_item(digests.len(), || {
            for digest in &digests {
                replica.apply_digest(digest);
            }
        }),
    ));

    control(&mut out, seed, lpm_rules, &mix, &pipeline);
    runtime(&mut out, &frames, &pipeline);
    io(&mut out, &frames, &sized_frames, &mut pipeline);
    out
}

fn packet(out: &mut Vec<(&'static str, f64)>, mix: &Traffic, frames: &[Frame], sized: &[Frame]) {
    let specs = &mix.frames[..1024];
    out.push((
        "packet.build_ns",
        ns_per_item(specs.len(), || {
            for (seq, spec) in (0..).zip(specs) {
                black_box(sut::build_frame(spec, seq));
            }
        }),
    ));
    out.push((
        "packet.clone_ns",
        // Cloned into a vector that lives on, as a materialised chunk does: a
        // clone dropped at once would only measure the allocator's fast path.
        ns_per_item(1024, || {
            black_box(frames[..1024].to_vec());
        }),
    ));
    // What an rx path does with the bytes it received, at the service
    // workload's frame sizes.
    out.push((
        "packet.from_bytes_ns",
        ns_per_item(1024, || {
            for frame in &sized[..1024] {
                black_box(sut::frame_from_bytes(frame.bytes().to_vec()));
            }
        }),
    ));
}

fn rmt(out: &mut Vec<(&'static str, f64)>, seed: u64, lpm_rules: usize, mix: &Traffic) {
    let table = sut::ExactTable::new(&mix.tenants);
    let keys: Vec<_> = mix.frames[..gen::MIX8_FLOWS]
        .iter()
        .map(sut::ExactTable::key)
        .collect();
    out.push((
        "rmt.exact_lookup_ns",
        ns_per_item(keys.len(), || {
            for key in &keys {
                black_box(table.lookup(key));
            }
        }),
    ));

    // One table holding every LPM tenant's prefixes: 10^6 in the full mode.
    let lpm = gen::lpm(seed, lpm_rules);
    let mut table = sut::Lpm::new(lpm_rules * lpm.tenants.len());
    let start = Instant::now();
    let mut inserted = 0usize;
    for tenant in &lpm.tenants {
        if let Table::Lpm { prefixes, .. } = &tenant.table {
            for (action, &prefix) in (0..).zip(prefixes) {
                table.insert(prefix, action % 2);
            }
            inserted += prefixes.len();
        }
    }
    let build = start.elapsed();
    out.push((
        "rmt.lpm_insert_us_per_1k",
        build.as_nanos() as f64 / 1e3 / (inserted as f64 / 1e3),
    ));
    out.push((
        "rmt.lpm_bytes_per_rule",
        table.memory_bytes() as f64 / table.len().max(1) as f64,
    ));
    let keys: Vec<u32> = lpm
        .frames
        .iter()
        .map(|spec| u32::from_be_bytes(spec.dst_ip))
        .collect();
    out.push((
        "rmt.lpm_lookup_ns",
        ns_per_item(keys.len(), || {
            for &key in &keys {
                black_box(table.lookup(key));
            }
        }),
    ));
}

/// Control ops on a lone pipeline with no traffic, and the compiler.
fn control(
    out: &mut Vec<(&'static str, f64)>,
    seed: u64,
    lpm_rules: usize,
    mix: &Traffic,
    full: &Lone,
) {
    let churn_spec = mix.tenants.last().expect("mix8 has tenants");
    let churn = sut::tenant(churn_spec);
    let mut pipeline = loaded(mix, Some(churn_spec.id));
    let mut times: [Vec<f64>; 3] = Default::default();
    for _ in 0..SAMPLES {
        let start = Instant::now();
        pipeline.load(&churn);
        times[0].push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        pipeline.update(&churn);
        times[1].push(start.elapsed().as_nanos() as f64 / 1e3);
        let start = Instant::now();
        pipeline.unload(churn_spec.id);
        times[2].push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    for (name, samples) in [
        "core.load_module_us",
        "core.update_module_us",
        "core.unload_module_us",
    ]
    .into_iter()
    .zip(&times)
    {
        out.push((name, stats::median(samples).unwrap_or(0.0)));
    }
    out.push((
        "core.config_replica_us",
        us_per_call(|| {
            black_box(full.replica());
        }),
    ));
    // Compiling the churn tenant from DSL source, its rules included.
    out.push((
        "compiler.compile_source_us",
        us_per_call(|| {
            black_box(sut::compile_churn_tenant(churn_spec));
        }),
    ));

    let lpm = gen::lpm(seed, lpm_rules);
    let spec = &lpm.tenants[0];
    let mut pipeline = Lone::new();
    pipeline.load(&sut::tenant(spec));
    let start = Instant::now();
    let installed = pipeline.install_lpm_rules(spec);
    out.push((
        "core.install_rules_us_per_1k",
        start.elapsed().as_nanos() as f64 / 1e3 / (installed as f64 / 1e3),
    ));
}

fn runtime(out: &mut Vec<(&'static str, f64)>, frames: &[Frame], template: &Lone) {
    let steer = sut::Steer::new(2);
    out.push((
        "runtime.steer_ns",
        ns_per_item(frames.len(), || {
            for frame in frames {
                black_box(steer.shard_for(frame));
            }
        }),
    ));

    // One 32-packet burst at a time through the SPSC ring to a second thread
    // that drops it, as a dispatcher hands bursts to a shard.
    out.push((
        "runtime.ring_handoff_ns",
        ns_per_item_sampled(frames.len(), || {
            let bursts: Vec<Vec<Frame>> = frames.chunks(BURST).map(<[Frame]>::to_vec).collect();
            let (producer, consumer) = sut::burst_ring(64);
            timed(|| {
                std::thread::scope(|scope| {
                    scope.spawn(move || while consumer.pop().is_some() {});
                    for burst in bursts {
                        producer.push(burst).expect("the consumer is running");
                    }
                    producer.close();
                });
            })
        }),
    ));

    // Steering + scatter + both shard replicas on this thread: no rings.
    let mut deterministic = Sharded::deterministic(template, 2);
    let mut outcomes = Vec::with_capacity(CHUNK);
    out.push((
        "runtime.det_batch_ns",
        ns_per_item_sampled(frames.len(), || {
            let chunks = chunks_of(frames, 1);
            timed(|| {
                for chunk in chunks {
                    deterministic.process(chunk, &mut outcomes);
                    black_box(&outcomes);
                }
            })
        }),
    ));

    // One threaded shard behind its ring, saturated.
    let mut threaded = Sharded::threaded(template, 1);
    out.push((
        "runtime.threaded1_ns",
        ns_per_item_sampled(4 * frames.len(), || {
            let chunks = chunks_of(frames, 4);
            timed(|| {
                for chunk in chunks {
                    threaded.submit(chunk);
                }
                threaded.flush();
            })
        }),
    ));
    threaded.shutdown();

    // One 32 768-packet submission: the guard for the dispatcher's chunking.
    let mut threaded = Sharded::threaded(template, 2);
    let big: Vec<Frame> = frames.iter().chain(frames).cloned().collect();
    let count = big.len();
    let start = Instant::now();
    threaded.submit(big);
    threaded.flush();
    out.push((
        "runtime.submit_32k_ns",
        start.elapsed().as_nanos() as f64 / count as f64,
    ));
    threaded.shutdown();
}

fn io(out: &mut Vec<(&'static str, f64)>, frames: &[Frame], sized: &[Frame], pipeline: &mut Lone) {
    let mut outcomes = Vec::new();
    pipeline.process(&frames[..1024], &mut outcomes);
    out.push((
        "io.echo_encode_ns",
        ns_per_item(outcomes.len(), || {
            for (frame, outcome) in frames.iter().zip(&outcomes) {
                black_box(sut::encode_echo(frame, outcome));
            }
        }),
    ));

    // The socket probes queue a batch of datagrams (untimed), then time only
    // the call under test.
    let sender = UdpSocket::bind("127.0.0.1:0").expect("loopback binds");
    sender
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("socket timeout");
    let send_batch = |to: std::net::SocketAddr, offset: usize| {
        for frame in &sized[offset..offset + SOCKET_BATCH] {
            sender.send_to(frame.bytes(), to).expect("loopback sends");
        }
    };
    let drain_echoes = || {
        let mut buf = [0u8; 64];
        while sender.recv(&mut buf).is_ok() {}
    };

    let mut port = sut::UdpPort::bind();
    let mut received = Vec::with_capacity(SOCKET_BATCH);
    let mut offset = 0;
    out.push((
        "io.udp_rx_burst_ns",
        ns_per_item_sampled(SOCKET_BATCH, || {
            send_batch(port.addr(), offset);
            offset += SOCKET_BATCH;
            received.clear();
            timed(|| {
                let deadline = Instant::now() + Duration::from_millis(200);
                while received.len() < SOCKET_BATCH && Instant::now() < deadline {
                    port.rx_burst(&mut received, 64);
                }
            })
        }),
    ));
    pipeline.process(&received[..BURST], &mut outcomes);
    out.push((
        "io.udp_tx_ns",
        ns_per_item_sampled(SOCKET_BATCH, || {
            drain_echoes();
            timed(|| {
                for _ in 0..SOCKET_BATCH / BURST {
                    for (frame, outcome) in received.iter().zip(&outcomes) {
                        port.transmit(frame, outcome);
                    }
                }
            })
        }),
    ));
    drain_echoes();

    // `Service::poll` with datagrams waiting on the socket.
    let mut service = sut::UdpService::bind(pipeline);
    let mut offset = 0;
    out.push((
        "io.service_poll_ns",
        ns_per_item_sampled(SOCKET_BATCH, || {
            service.flush();
            drain_echoes();
            send_batch(service.addr(), offset);
            offset += SOCKET_BATCH;
            timed(|| {
                let mut got = 0;
                let deadline = Instant::now() + Duration::from_millis(200);
                while got < SOCKET_BATCH && Instant::now() < deadline {
                    got += service.poll();
                }
            })
        }),
    ));
    service.flush();
    service.drain();
    drain_echoes();

    // The same serve loop over the in-process backend: no syscalls.
    let mut service = sut::InProcessService::new(pipeline);
    out.push((
        "io.inprocess_service_ns",
        ns_per_item_sampled(frames.len(), || {
            service.take_echoes();
            service.inject(frames.to_vec());
            timed(|| {
                let mut got = 0;
                while got < frames.len() {
                    got += service.poll();
                }
                service.flush();
            })
        }),
    ));
    service.drain();
}
