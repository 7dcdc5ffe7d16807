//! The six workloads. Each sets its plane up (several times, for a steady
//! `setup_s`), runs closed-loop saturation windows (phase A), an open-loop
//! phase at a fixed rate below the knee (phase B), checks every outcome
//! against the lone reference pipeline, and tears the plane down.

use crate::gen::{self, Expect, FrameSpec, Traffic, BURST, CHUNK};
use crate::host;
use crate::stats;
use crate::sut::{self, EgressSink, Frame, Lone, Sharded, Summary, Tenant, UdpService};
use crate::trace::{self, SpanName, Tracer};
use std::collections::BTreeMap;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the sharded workloads. Fixed here, not derived from the host.
const SHARDS: usize = 2;
/// Open-loop rates, each far below its plane's knee so queues stay short and
/// the median latency repeats (README.md says how they were chosen): an
/// eighth of what one pipeline sustains, a twentieth of what two shards do, a
/// tenth of the UDP service's closed-loop rate.
const LONE_RATE_PPS: u64 = 500_000;
const SHARDED_RATE_PPS: u64 = 100_000;
const SERVICE_RATE_PPS: u64 = 25_000;
/// Rates above the UDP service's knee, for the loss metrics (traced run).
const OVERLOAD_RATES_PPS: [u64; 2] = [100_000, 200_000];
/// Datagrams the UDP generator keeps unanswered at most.
const SERVICE_OUTSTANDING: usize = 128;
/// The oldest unanswered datagram is sent again after this long (forty times
/// the closed loop's round trip, so a resend means a loss or a stalled
/// thread), and given up — failed — after this many sends (one second).
const RESEND_AFTER: Duration = Duration::from_millis(20);
const MAX_SENDS: u32 = 50;
/// Above the knee, with everything sent and no echo for this long, the rest
/// was lost.
const ECHO_TIMEOUT: Duration = Duration::from_millis(100);
/// In churn windows one control op follows every this many chunks.
const CHUNKS_PER_CONTROL_OP: usize = 64;
/// In the open-loop phase of `reconfig_churn` one control op every this long.
const CONTROL_OP_PERIOD: Duration = Duration::from_millis(10);
/// The tenant `reconfig_churn` loads, updates and unloads.
const CHURN_TENANT: u16 = 8;
/// Length of the unreported warm-up window. A second: that is how long the
/// scheduler takes to spread the UDP workload's three threads over the cores
/// (until then every run sits at three quarters of its settled rate).
const WARM_UP: Duration = Duration::from_secs(1);
/// How often the plane is set up for `setup_s` (see `repeat_set_up`).
const MIN_SET_UPS: usize = 5;
const SET_UP_BUDGET: Duration = Duration::from_secs(1);
/// Spans the traced run can hold per thread (32 B each).
const SPAN_CAPACITY: usize = 1 << 19;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LoneExact,
    LoneLpm1m,
    ShardedRss,
    ShardedScr,
    ReconfigChurn,
    ServiceUdp,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::LoneExact,
        Workload::LoneLpm1m,
        Workload::ShardedRss,
        Workload::ShardedScr,
        Workload::ReconfigChurn,
        Workload::ServiceUdp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LoneExact => "lone_exact",
            Workload::LoneLpm1m => "lone_lpm1m",
            Workload::ShardedRss => "sharded_rss",
            Workload::ShardedScr => "sharded_scr",
            Workload::ReconfigChurn => "reconfig_churn",
            Workload::ServiceUdp => "service_udp",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run divides its `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub traced: bool,
    /// Length of one saturation window.
    pub window: Duration,
    /// Saturation windows (even: `reconfig_churn` alternates quiet / churn).
    pub windows: usize,
    /// Length of the open-loop phase.
    pub open_loop: Duration,
    /// The smoke mode: one set-up, fewer LPM rules.
    pub quick: bool,
    /// /24 prefixes per tenant of `lone_lpm1m`.
    pub lpm_rules: usize,
}

impl Plan {
    /// Two thirds of the run in half-second saturation windows, the rest open
    /// loop. `quick` is the smoke mode: its numbers must not be cited.
    pub fn new(seed: u64, seconds: u64, traced: bool, quick: bool) -> Plan {
        let saturation_s = (2 * (seconds / 3)).max(1);
        Plan {
            seed,
            traced,
            window: Duration::from_millis(500),
            windows: 2 * saturation_s as usize,
            open_loop: Duration::from_secs(seconds.saturating_sub(saturation_s).max(1)),
            quick,
            lpm_rules: if quick {
                100_000 / usize::from(gen::LPM_TENANTS)
            } else {
                gen::LPM_RULES_PER_TENANT
            },
        }
    }
}

/// One saturation window.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Control ops ran beside the traffic (`reconfig_churn` only).
    pub churn: bool,
    pub packets: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl Window {
    pub fn mpps(&self) -> f64 {
        self.packets as f64 * 1e3 / self.wall_ns as f64
    }

    pub fn cpu_ns_per_packet(&self) -> f64 {
        self.cpu_ns as f64 / self.packets as f64
    }
}

/// The open-loop phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenLoop {
    pub rate_pps: u64,
    /// Packets whose verdict came back.
    pub samples: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// How late the generator ran: p99 of hand-over time minus due time.
    pub lateness_p99_us: f64,
    /// Rate actually offered over the stated one.
    pub offered_ratio: f64,
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct (empty when it is).
    pub faults: Vec<String>,
    pub setup_s: Vec<f64>,
    pub windows: Vec<Window>,
    pub open_loop: OpenLoop,
    pub peak_rss_mb: f64,
    /// Per-layer metrics this workload's own run produced (traced run).
    pub layer: Vec<(&'static str, f64)>,
}

impl Run {
    fn fault(&mut self, message: String) {
        eprintln!("  FAULT: {message}");
        self.faults.push(message);
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Median throughput of the windows of one kind.
    pub fn median_mpps(&self, churn: bool) -> Option<f64> {
        let values: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.churn == churn)
            .map(Window::mpps)
            .collect();
        stats::median(&values)
    }
}

pub fn run(workload: Workload, plan: &Plan) -> Run {
    let mut run = match workload {
        Workload::LoneExact | Workload::LoneLpm1m => lone(plan, workload),
        Workload::ShardedRss | Workload::ShardedScr | Workload::ReconfigChurn => {
            sharded(plan, workload)
        }
        Workload::ServiceUdp => service(plan),
    };
    run.peak_rss_mb = host::peak_rss_mb();
    if run.failed_ratio() > 0.01 {
        let ratio = run.failed_ratio();
        run.fault(format!("failed_ratio {ratio:.5} is above 0.01"));
    }
    if run.open_loop.offered_ratio < 0.99 {
        let (offered, rate) = (run.open_loop.offered_ratio, run.open_loop.rate_pps);
        run.fault(format!(
            "the open-loop phase offered {:.1} % of its {rate} pps",
            offered * 100.0
        ));
    }
    run
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// The frame pool and what the lone reference pipeline says of each frame.
/// Packet `seq` of a run is always frame `seq % len` of the pool.
struct Pool {
    specs: Vec<FrameSpec>,
    frames: Vec<Frame>,
    /// Reference outcome per frame; `None` where the outcome depends on
    /// control-op timing (the churn tenant's own traffic).
    expected: Arc<Vec<Option<Summary>>>,
}

impl Pool {
    fn build(traffic: &Traffic) -> (Vec<Frame>, Vec<Tenant>) {
        let frames = sut::build_frames(&traffic.frames);
        let tenants = traffic.tenants.iter().map(sut::tenant).collect();
        (frames, tenants)
    }

    /// Runs the frames through a lone pipeline holding `tenants` — the
    /// reference — after checking the reference itself against what the
    /// generator meant each frame to do. Outcomes of `unchecked_vlan` are
    /// left open.
    fn with_reference(
        traffic: Traffic,
        frames: Vec<Frame>,
        tenants: &[Tenant],
        unchecked_vlan: Option<u16>,
        run: &mut Run,
    ) -> Pool {
        let mut reference = Lone::new();
        for (spec, tenant) in traffic.tenants.iter().zip(tenants) {
            reference.load(tenant);
            reference.install_lpm_rules(spec);
        }
        let mut outcomes = Vec::new();
        let mut expected = Vec::with_capacity(frames.len());
        let mut disagreements = 0u64;
        for (burst, specs) in frames.chunks(BURST).zip(traffic.frames.chunks(BURST)) {
            reference.process(burst, &mut outcomes);
            for (outcome, spec) in outcomes.iter().zip(specs) {
                let got = sut::summarise(outcome);
                let meant = match spec.expect {
                    Expect::Rewritten(port) => got.forwarded && got.port == port,
                    Expect::Untouched => got.forwarded && got.port == gen::INGRESS_DST_PORT,
                    Expect::FilterDrop => !got.forwarded,
                };
                disagreements += u64::from(!meant);
                expected.push((Some(spec.vlan) != unchecked_vlan).then_some(got));
            }
        }
        if disagreements > 0 {
            run.fault(format!(
                "the reference pipeline disagrees with the generator on {disagreements} frames"
            ));
        }
        Pool {
            specs: traffic.frames,
            frames,
            expected: Arc::new(expected),
        }
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    /// Failures among `outcomes`, the answers to frames `start..` of the pool.
    fn mismatches<'a>(
        &self,
        start: usize,
        outcomes: impl Iterator<Item = &'a sut::Outcome>,
    ) -> u64 {
        outcomes
            .zip(&self.expected[start..])
            .filter(|(outcome, want)| want.is_some_and(|want| sut::summarise(outcome) != want))
            .count() as u64
    }

    /// Per-tenant (in, forwarded, dropped) the reference gives for the first
    /// `packets` packets of a run, and the forwarded total; `None` outcomes
    /// count nowhere.
    fn expected_tallies(&self, packets: u64) -> (BTreeMap<u16, (u64, u64, u64)>, u64) {
        let len = self.len() as u64;
        let (cycles, rest) = (packets / len, (packets % len) as usize);
        let mut tallies: BTreeMap<u16, (u64, u64, u64)> = BTreeMap::new();
        let mut forwarded = 0;
        for (index, (want, spec)) in self.expected.iter().zip(&self.specs).enumerate() {
            let Some(want) = want else { continue };
            let times = cycles + u64::from(index < rest);
            forwarded += times * u64::from(want.forwarded);
            if spec.expect != Expect::FilterDrop {
                let slot = tallies.entry(spec.vlan).or_default();
                slot.0 += times;
                slot.1 += times * u64::from(want.forwarded);
                slot.2 += times * u64::from(!want.forwarded);
            }
        }
        (tallies, forwarded)
    }
}

/// Sets the plane up repeatedly, tearing all but the last down, and records
/// how long each took: at least `MIN_SET_UPS` times and until `SET_UP_BUDGET`
/// is spent (once, in the smoke mode). The first few are
/// slower (cold allocator and caches), so a cheap set-up needs many for its
/// median to settle; an expensive one is steady after a few.
fn repeat_set_up<P>(
    plan: &Plan,
    run: &mut Run,
    mut set_up: impl FnMut() -> P,
    mut tear_down: impl FnMut(P),
) -> P {
    let started = Instant::now();
    loop {
        let start = Instant::now();
        let plane = set_up();
        run.setup_s.push(start.elapsed().as_secs_f64());
        let done = run.setup_s.len();
        let enough = done >= MIN_SET_UPS && started.elapsed() >= SET_UP_BUDGET;
        if plan.quick || enough {
            return plane;
        }
        tear_down(plane);
    }
}

/// Times saturation window `index` of `1..=plan.windows`: `body` offers load
/// until its deadline and returns the packets whose verdicts it saw. Window 0
/// is the warm-up — caches fill, threads settle — that is checked like the
/// rest but not reported.
fn window(
    run: &mut Run,
    tracer: &mut Tracer,
    plan: &Plan,
    index: usize,
    churn: bool,
    body: impl FnOnce(&mut Tracer, Instant) -> u64,
) {
    let length = if index == 0 { WARM_UP } else { plan.window };
    tracer.set_window(index as u16);
    let span = tracer.begin(SpanName::Window);
    let cpu = host::process_cpu_ns();
    let start = Instant::now();
    let packets = body(tracer, start + length);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let cpu_ns = host::process_cpu_ns() - cpu;
    tracer.end(span);
    run.attempted += packets;
    if index > 0 {
        run.windows.push(Window {
            churn,
            packets,
            wall_ns,
            cpu_ns,
        });
    }
}

/// The half of an open-loop phase the verdict's receiver needs (possibly on
/// another thread): packet `k` is due `k × interval` after the origin,
/// whatever the system does, and its latency runs from then.
#[derive(Clone)]
struct Verdicts {
    origin: Instant,
    interval_ns: u64,
    total: u64,
    /// Latency of packet `k` in ns + 1; 0 while its verdict is outstanding.
    latency: Arc<Vec<AtomicU32>>,
}

impl Verdicts {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Packet `k`'s verdict was seen at `now_ns`.
    fn seen(&self, k: u64, now_ns: u64) {
        let latency = now_ns.saturating_sub(k * self.interval_ns);
        let stored = latency.min(u64::from(u32::MAX) - 1) as u32 + 1;
        self.latency[k as usize].store(stored, Ordering::Relaxed);
    }
}

/// The generator's half: what is due, and how late it was handed over.
struct Pacer {
    rate_pps: u64,
    verdicts: Verdicts,
    /// Hand-over time minus due time of packet `k`, ns.
    lateness: Vec<u32>,
    /// When the last packets were handed over.
    last_handover_ns: u64,
}

impl Pacer {
    fn new(rate_pps: u64, length: Duration) -> Pacer {
        let total = rate_pps * length.as_nanos() as u64 / 1_000_000_000;
        Pacer {
            rate_pps,
            verdicts: Verdicts {
                origin: Instant::now(),
                interval_ns: 1_000_000_000 / rate_pps,
                total,
                latency: Arc::new((0..total).map(|_| AtomicU32::new(0)).collect()),
            },
            lateness: Vec::with_capacity(total as usize),
            last_handover_ns: 0,
        }
    }

    fn total(&self) -> u64 {
        self.verdicts.total
    }

    fn now_ns(&self) -> u64 {
        self.verdicts.now_ns()
    }

    /// Packets due by `now_ns` (never more than the phase's total).
    fn due(&self, now_ns: u64) -> u64 {
        (now_ns / self.verdicts.interval_ns + 1).min(self.verdicts.total)
    }

    /// Packets `from..to` were handed over at `now_ns`.
    fn handed_over(&mut self, from: u64, to: u64, now_ns: u64) {
        self.last_handover_ns = now_ns;
        for k in from..to {
            let late = now_ns.saturating_sub(k * self.verdicts.interval_ns);
            self.lateness.push(late.min(u64::from(u32::MAX)) as u32);
        }
    }

    /// Folds the phase into the run: verdicts never seen count as failed.
    fn finish(mut self, run: &mut Run) {
        let seen_in = |slots: &[AtomicU32]| -> Vec<u32> {
            slots
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .filter(|&value| value != 0)
                .map(|value| value - 1)
                .collect()
        };
        let us = |ns: Option<u32>| ns.map_or(0.0, |ns| f64::from(ns) / 1e3);
        // The reported median is the median over half-second slices of each
        // slice's own median, so one disturbed stretch does not move it.
        let per_slice = (self.rate_pps / 2).max(1) as usize;
        let slice_p50s: Vec<f64> = self
            .verdicts
            .latency
            .chunks(per_slice)
            .filter(|slice| slice.len() == per_slice)
            .map(|slice| us(stats::percentile(&mut seen_in(slice), 50.0)))
            .collect();
        let mut seen = seen_in(&self.verdicts.latency);
        let handed = self.lateness.len() as u64;
        run.attempted += handed;
        run.failed += handed - (seen.len() as u64).min(handed);
        let interval_ns = self.verdicts.interval_ns;
        run.open_loop = OpenLoop {
            rate_pps: self.rate_pps,
            samples: seen.len() as u64,
            p50_us: stats::median(&slice_p50s)
                .unwrap_or_else(|| us(stats::percentile(&mut seen, 50.0))),
            p99_us: us(stats::percentile(&mut seen, 99.0)),
            lateness_p99_us: us(stats::percentile(&mut self.lateness, 99.0)),
            // On time, the last packet goes out one interval before the end.
            offered_ratio: (handed * interval_ns) as f64
                / (self.last_handover_ns + interval_ns) as f64,
        };
    }
}

/// Compares what the program counted with what the reference expects.
fn check_tallies(
    run: &mut Run,
    got: &[(u16, (u64, u64, u64))],
    want: &BTreeMap<u16, (u64, u64, u64)>,
    unchecked: Option<u16>,
) {
    for (id, want) in want {
        let got = got
            .iter()
            .find(|(got_id, _)| got_id == id)
            .map_or((0, 0, 0), |(_, tallies)| *tallies);
        if got != *want {
            run.failed += got.0.abs_diff(want.0) + got.1.abs_diff(want.1);
            run.fault(format!(
                "tenant {id}: counted (in, forwarded, dropped) {got:?}, reference {want:?}"
            ));
        }
    }
    for (id, _) in got {
        if !want.contains_key(id) && Some(*id) != unchecked {
            run.fault(format!(
                "tenant {id} counted traffic the reference has none for"
            ));
        }
    }
}

/// The tail of a traced run: writes `benchmark/out/trace-<workload>.json`,
/// records how many spans there were, and returns the per-packet self time of
/// a span name over the saturation windows of the first (generator) thread.
fn finish_trace(
    run: &mut Run,
    workload: Workload,
    threads: &[(&str, &Tracer)],
) -> impl Fn(SpanName) -> f64 {
    let spans: Vec<(&str, &[trace::Span])> = threads
        .iter()
        .map(|(name, tracer)| (*name, tracer.spans()))
        .collect();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            trace::write_chrome_trace(&mut out, workload.name(), &spans)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("  trace: {}", path.display()),
        Err(error) => eprintln!("  trace: could not write {}: {error}", path.display()),
    }
    let recorded: usize = spans.iter().map(|(_, spans)| spans.len()).sum();
    let dropped: u64 = threads.iter().map(|(_, tracer)| tracer.dropped()).sum();
    run.layer.extend([
        ("trace.spans", recorded as f64),
        ("trace.spans_dropped", dropped as f64),
    ]);
    // Window 0 is the warm-up and everything outside the saturation windows.
    let totals = trace::self_times(spans[0].1, |span| span.window != 0);
    let packets: u64 = run.windows.iter().map(|w| w.packets).sum();
    move |name| totals[name as usize].self_ns as f64 / packets.max(1) as f64
}

fn tracer_for(plan: &Plan, origin: Instant) -> Tracer {
    if plan.traced {
        Tracer::on(SPAN_CAPACITY, origin)
    } else {
        Tracer::off()
    }
}

// ---------------------------------------------------------------------------
// lone_exact, lone_lpm1m: one pipeline, one thread
// ---------------------------------------------------------------------------

fn lone(plan: &Plan, workload: Workload) -> Run {
    let mut run = Run::default();
    let set_up = || {
        let traffic = match workload {
            Workload::LoneLpm1m => gen::lpm(plan.seed, plan.lpm_rules),
            _ => gen::mix8(plan.seed, 0, false),
        };
        let (frames, tenants) = Pool::build(&traffic);
        let mut pipeline = Lone::new();
        for (spec, tenant) in traffic.tenants.iter().zip(&tenants) {
            pipeline.load(tenant);
            pipeline.install_lpm_rules(spec);
        }
        (traffic, frames, tenants, pipeline)
    };
    let (traffic, frames, tenants, mut pipeline) = repeat_set_up(plan, &mut run, set_up, drop);
    let pool = Pool::with_reference(traffic, frames, &tenants, None, &mut run);
    let mut tracer = tracer_for(plan, Instant::now());
    let mut outcomes = Vec::with_capacity(BURST);
    let mut cursor = 0usize;

    // Phase A: closed loop, bursts of 32; one span per chunk of eight bursts.
    for index in 0..=plan.windows {
        window(
            &mut run,
            &mut tracer,
            plan,
            index,
            false,
            |tracer, deadline| {
                let mut packets = 0u64;
                while Instant::now() < deadline {
                    let span = tracer.begin(SpanName::ProcessBatch);
                    for burst in pool.frames[cursor..cursor + CHUNK].chunks(BURST) {
                        pipeline.process(burst, &mut outcomes);
                        packets += outcomes.len() as u64;
                    }
                    tracer.end(span);
                    cursor = (cursor + CHUNK) % pool.len();
                }
                packets
            },
        );
    }
    tracer.set_window(0);

    // Phase B: open loop; whatever is due goes through as one burst.
    let mut pacer = Pacer::new(LONE_RATE_PPS, plan.open_loop);
    let mut next = 0u64;
    while next < pacer.total() {
        let now_ns = pacer.now_ns();
        let due = pacer.due(now_ns);
        if due == next {
            std::hint::spin_loop();
            continue;
        }
        let count = ((due - next) as usize).min(BURST).min(pool.len() - cursor);
        pipeline.process(&pool.frames[cursor..cursor + count], &mut outcomes);
        let done_ns = pacer.now_ns();
        pacer.handed_over(next, next + count as u64, now_ns);
        for k in next..next + count as u64 {
            pacer.verdicts.seen(k, done_ns);
        }
        run.failed += pool.mismatches(cursor, outcomes.iter());
        cursor = (cursor + count) % pool.len();
        next += count as u64;
    }
    pacer.finish(&mut run);

    // The pipeline's own books against the reference, then every frame once
    // more with each outcome compared.
    let (want, _) = pool.expected_tallies(run.attempted);
    let got: Vec<(u16, (u64, u64, u64))> = want
        .keys()
        .filter_map(|&id| Some((id, pipeline.counters(id)?)))
        .collect();
    check_tallies(&mut run, &got, &want, None);
    for start in (0..pool.len()).step_by(BURST) {
        pipeline.process(&pool.frames[start..start + BURST], &mut outcomes);
        run.failed += pool.mismatches(start, outcomes.iter());
    }

    if plan.traced {
        let per_packet = finish_trace(&mut run, workload, &[("generator", &tracer)]);
        run.layer.push((
            "core.process_batch_span_ns",
            per_packet(SpanName::ProcessBatch),
        ));
    }
    run
}

// ---------------------------------------------------------------------------
// sharded_rss, sharded_scr, reconfig_churn: the threaded runtime
// ---------------------------------------------------------------------------

/// The egress sink of the open-loop phase: stamps each verdict's arrival and
/// compares it with the reference.
struct VerdictSink {
    verdicts: Verdicts,
    /// Sequence number of the phase's first packet.
    base_seq: u32,
    expected: Arc<Vec<Option<Summary>>>,
    mismatches: AtomicU64,
}

impl EgressSink for VerdictSink {
    fn transmit(&self, frame: &Frame, outcome: &sut::Outcome) {
        let now_ns = self.verdicts.now_ns();
        let seq = sut::seq_of(frame);
        let k = u64::from(seq.wrapping_sub(self.base_seq));
        if k >= self.verdicts.total {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.verdicts.seen(k, now_ns);
        let want = self.expected[seq as usize % self.expected.len()];
        if want.is_some_and(|want| sut::summarise(outcome) != want) {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Clones `count` pool frames from `*seq` on, numbering them — what an rx
/// path does when it materialises received frames.
fn materialise(pool: &Pool, seq: &mut u32, count: usize) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(count);
    for _ in 0..count {
        let mut frame = pool.frames[*seq as usize % pool.len()].clone();
        sut::set_seq(&mut frame, *seq);
        frames.push(frame);
        *seq = seq.wrapping_add(1);
    }
    frames
}

/// The load → update → unload cycle of the churn tenant, each op timed.
struct Churn {
    tenant: Tenant,
    next: usize,
    /// Wall time of every op, µs, per kind (load, update, unload).
    op_us: [Vec<f64>; 3],
}

impl Churn {
    fn step(&mut self, runtime: &mut Sharded, tracer: &mut Tracer) {
        let kind = self.next % 3;
        let span = tracer.begin(
            [
                SpanName::ControlLoad,
                SpanName::ControlUpdate,
                SpanName::ControlUnload,
            ][kind],
        );
        let start = Instant::now();
        match kind {
            0 => runtime.load(&self.tenant),
            1 => runtime.update(&self.tenant),
            _ => runtime.unload(CHURN_TENANT),
        }
        self.op_us[kind].push(start.elapsed().as_nanos() as f64 / 1e3);
        tracer.end(span);
        self.next += 1;
    }

    /// Leaves the churn tenant unloaded, as it started.
    fn settle(&mut self, runtime: &mut Sharded, tracer: &mut Tracer) {
        while !self.next.is_multiple_of(3) {
            self.step(runtime, tracer);
        }
    }
}

fn sharded(plan: &Plan, workload: Workload) -> Run {
    // Tenants 1..=storing also store a non-mergeable word (`sharded_scr`).
    let storing: u16 = if workload == Workload::ShardedScr {
        2
    } else {
        0
    };
    let churning = workload == Workload::ReconfigChurn;
    let mut run = Run::default();
    let mut spawn_ms = Vec::new();
    let mut shutdown_ms = Vec::new();
    let set_up = || {
        let traffic = gen::mix8(plan.seed, storing, false);
        let (frames, mut tenants) = Pool::build(&traffic);
        if churning {
            let spec = &traffic.tenants[usize::from(CHURN_TENANT) - 1];
            tenants[usize::from(CHURN_TENANT) - 1] = sut::compile_churn_tenant(spec);
        }
        let mut template = Lone::new();
        for (spec, tenant) in traffic.tenants.iter().zip(&tenants) {
            // The churn tenant starts unloaded.
            if !(churning && spec.id == CHURN_TENANT) {
                template.load(tenant);
            }
        }
        let start = Instant::now();
        let runtime = Sharded::threaded(&template, SHARDS);
        spawn_ms.push(start.elapsed().as_secs_f64() * 1e3);
        (traffic, frames, tenants, runtime)
    };
    let tear_down = |(_, _, _, mut runtime): (Traffic, Vec<Frame>, Vec<Tenant>, Sharded)| {
        let start = Instant::now();
        runtime.shutdown();
        shutdown_ms.push(start.elapsed().as_secs_f64() * 1e3);
    };
    let (traffic, frames, tenants, mut runtime) = repeat_set_up(plan, &mut run, set_up, tear_down);
    let unchecked = churning.then_some(CHURN_TENANT);
    let pool = Pool::with_reference(traffic, frames, &tenants, unchecked, &mut run);
    let mut churn = Churn {
        tenant: tenants[usize::from(CHURN_TENANT) - 1].clone(),
        next: 0,
        op_us: Default::default(),
    };
    if storing > 0 && runtime.replicated_tenants() != (1..=storing).collect::<Vec<u16>>() {
        run.fault(format!(
            "storing tenants must classify Replicated, got {:?}",
            runtime.replicated_tenants()
        ));
    }
    let mut tracer = tracer_for(plan, Instant::now());
    let mut seq = 0u32;

    // Phase A: closed loop in 256-packet chunks, one flush per window.
    for index in 0..=plan.windows {
        let with_churn = churning && index > 0 && index % 2 == 0;
        window(
            &mut run,
            &mut tracer,
            plan,
            index,
            with_churn,
            |tracer, deadline| {
                let first = seq;
                let mut chunks = 0usize;
                while Instant::now() < deadline {
                    let span = tracer.begin(SpanName::Materialise);
                    let chunk = materialise(&pool, &mut seq, CHUNK);
                    tracer.end(span);
                    let span = tracer.begin(SpanName::Submit);
                    runtime.submit(chunk);
                    tracer.end(span);
                    chunks += 1;
                    if with_churn && chunks.is_multiple_of(CHUNKS_PER_CONTROL_OP) {
                        churn.step(&mut runtime, tracer);
                    }
                }
                // Quiet windows always run with the churn tenant unloaded.
                churn.settle(&mut runtime, tracer);
                let span = tracer.begin(SpanName::Flush);
                runtime.flush();
                tracer.end(span);
                u64::from(seq.wrapping_sub(first))
            },
        );
    }
    tracer.set_window(0);
    let ring_depth_hwm = runtime.ring_depth_hwm();
    let sojourn_before = runtime.sojourn();

    // Phase B: open loop; the sink the benchmark installs sees every verdict.
    let mut pacer = Pacer::new(SHARDED_RATE_PPS, plan.open_loop);
    let sink = Arc::new(VerdictSink {
        verdicts: pacer.verdicts.clone(),
        base_seq: seq,
        expected: Arc::clone(&pool.expected),
        mismatches: AtomicU64::new(0),
    });
    runtime.set_egress(Some(Arc::clone(&sink) as Arc<dyn EgressSink>));
    let mut next = 0u64;
    let mut next_op = CONTROL_OP_PERIOD;
    while next < pacer.total() {
        let now_ns = pacer.now_ns();
        let due = pacer.due(now_ns);
        if due == next {
            std::thread::yield_now();
            continue;
        }
        // No spans here: a poll hands over a packet or two, and a span each
        // would fill the trace with the open loop's bookkeeping.
        runtime.submit(materialise(&pool, &mut seq, (due - next) as usize));
        pacer.handed_over(next, due, now_ns);
        next = due;
        if churning && Duration::from_nanos(now_ns) >= next_op {
            churn.step(&mut runtime, &mut tracer);
            next_op += CONTROL_OP_PERIOD;
        }
    }
    runtime.flush();
    runtime.set_egress(None);
    churn.settle(&mut runtime, &mut tracer);
    let (sojourn_p50_ns, sojourn_p99_ns) = runtime.sojourn().quantiles_since(&sojourn_before);
    let mismatches = sink.mismatches.load(Ordering::Relaxed);
    run.failed += mismatches;
    if mismatches > 0 {
        run.fault(format!(
            "{mismatches} open-loop verdicts differ from the reference"
        ));
    }
    pacer.finish(&mut run);
    if storing > 0 {
        check_replicas(&mut run, &mut runtime, &pool, &tenants, storing, &mut seq);
    }

    // Books: the conservation audit, then per-tenant tallies against the
    // reference.
    let submitted = u64::from(seq);
    let audit = runtime.audit();
    if !audit.is_balanced() || audit.submitted != submitted {
        run.fault(format!("conservation audit out of balance: {audit:?}"));
    }
    run.failed += audit.shed + audit.lost_to_failure;
    let (want, forwarded) = pool.expected_tallies(submitted);
    check_tallies(&mut run, &runtime.tenant_tallies(), &want, unchecked);
    if !churning && audit.forwarded != forwarded {
        run.failed += audit.forwarded.abs_diff(forwarded);
        run.fault(format!(
            "{} packets forwarded, reference {forwarded}",
            audit.forwarded
        ));
    }

    let shard_packets = runtime.shard_packets();
    let digests = runtime.digest_totals();
    let start = Instant::now();
    runtime.shutdown();
    shutdown_ms.push(start.elapsed().as_secs_f64() * 1e3);

    if plan.traced {
        let per_packet = finish_trace(&mut run, workload, &[("generator", &tracer)]);
        let busiest = shard_packets.iter().copied().max().unwrap_or(0) as f64;
        let all_ops: Vec<f64> = churn.op_us.iter().flatten().copied().collect();
        let op_median = |ops: &[f64]| stats::median(ops).unwrap_or(0.0);
        let mut sorted_ops: Vec<u64> = all_ops.iter().map(|&us| (us * 1e3) as u64).collect();
        run.layer.extend([
            ("gen.materialise_ns", per_packet(SpanName::Materialise)),
            ("runtime.submit_ns", per_packet(SpanName::Submit)),
            ("runtime.flush_wait_ns", per_packet(SpanName::Flush)),
            (
                "runtime.shard_balance",
                busiest / shard_packets.iter().sum::<u64>().max(1) as f64,
            ),
            ("runtime.ring_depth_hwm", ring_depth_hwm as f64),
            ("runtime.sojourn_p50_us", sojourn_p50_ns as f64 / 1e3),
            ("runtime.sojourn_p99_us", sojourn_p99_ns as f64 / 1e3),
            ("runtime.latency_p99_us", run.open_loop.p99_us),
            ("runtime.gen_lateness_p99_us", run.open_loop.lateness_p99_us),
            ("runtime.shed_packets", audit.shed as f64),
            ("runtime.lost_packets", audit.lost_to_failure as f64),
            (
                "runtime.digest_bytes_per_packet",
                digests.1 as f64 / submitted.max(1) as f64,
            ),
            ("runtime.control_load_us", op_median(&churn.op_us[0])),
            ("runtime.control_update_us", op_median(&churn.op_us[1])),
            ("runtime.control_unload_us", op_median(&churn.op_us[2])),
            ("runtime.control_op_p50_us", op_median(&all_ops)),
            (
                "runtime.control_op_p99_us",
                stats::percentile(&mut sorted_ops, 99.0).map_or(0.0, |ns| ns as f64 / 1e3),
            ),
            ("runtime.control_ops", all_ops.len() as f64),
            (
                "runtime.isolation_ratio",
                match (run.median_mpps(true), run.median_mpps(false)) {
                    (Some(churn), Some(quiet)) => churn / quiet,
                    _ => 0.0,
                },
            ),
            ("runtime.spawn_ms", stats::median(&spawn_ms).unwrap_or(0.0)),
            (
                "runtime.shutdown_ms",
                stats::median(&shutdown_ms).unwrap_or(0.0),
            ),
        ]);
    }
    run
}

/// The replicated tenants' state: both replicas must hold the same words
/// after the whole run, and one more pass over the pool must leave them where
/// it leaves a lone pipeline started from those words.
fn check_replicas(
    run: &mut Run,
    runtime: &mut Sharded,
    pool: &Pool,
    tenants: &[Tenant],
    storing: u16,
    seq: &mut u32,
) {
    let words = |runtime: &mut Sharded, shard: usize| -> Vec<Vec<Vec<u64>>> {
        (1..=storing)
            .map(|id| runtime.shard_state_words(shard, id))
            .collect()
    };
    let before = words(runtime, 0);
    let moved = before.iter().flatten().flatten().any(|&word| word != 0);
    if !moved || before != words(runtime, 1) {
        run.fault("the replicas' state words differ (or never moved) after the run".into());
    }
    let mut lone = Lone::new();
    for tenant in tenants {
        lone.load(tenant);
    }
    for (id, stages) in (1..=storing).zip(&before) {
        lone.import_state_words(id, stages);
    }
    let mut outcomes = Vec::new();
    for _ in 0..pool.len() / CHUNK {
        let chunk = materialise(pool, seq, CHUNK);
        for burst in chunk.chunks(BURST) {
            lone.process(burst, &mut outcomes);
        }
        runtime.submit(chunk);
    }
    runtime.flush();
    run.attempted += pool.len() as u64;
    let want: Vec<Vec<Vec<u64>>> = (1..=storing).map(|id| lone.state_words(id)).collect();
    if words(runtime, 0) != want || words(runtime, 1) != want {
        run.failed += 1;
        run.fault(
            "a pass over the pool left the replicas' state words unlike a lone pipeline's".into(),
        );
    }
}

// ---------------------------------------------------------------------------
// service_udp: io::Service over UDP on the loopback interface
// ---------------------------------------------------------------------------

/// One datagram of the generator's window.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// When it was last sent, ns since the generator's origin.
    sent_ns: u64,
    /// How often it has been sent.
    sends: u32,
    answered: bool,
}

/// The generator's side of the socket: numbers and sends pool frames, reads
/// verdict echoes back and checks them.
///
/// UDP may lose a datagram and a stalled thread may answer one late (README:
/// "The UDP generator is a reliable client"), so the generator is the
/// reliable client a user of the service would write: sequence numbers
/// `floor..next` are its window of at most `SERVICE_OUTSTANDING` datagrams,
/// the oldest unanswered one is sent again every `RESEND_AFTER`, and only
/// when one stays unanswered after `MAX_SENDS` sends is the window given up,
/// counted as failed and the run at an end. Resends are counted
/// (`io.resent`), never hidden: every one of them is a datagram the path lost
/// or answered late.
struct Generator {
    socket: UdpSocket,
    pool: Pool,
    origin: Instant,
    /// Slot `seq % SERVICE_OUTSTANDING` holds datagram `seq` of the window.
    slots: [Slot; SERVICE_OUTSTANDING],
    /// The oldest datagram neither answered nor given up.
    floor: u32,
    /// Sequence number of the next new datagram.
    next: u32,
    /// Datagrams answered (each counts once, whatever came back twice).
    answered: u64,
    resent: u64,
    /// Echoes of datagrams already answered: a resend whose first copy was
    /// late, not lost.
    duplicates: u64,
    /// Datagrams still unanswered when the oldest had been sent `MAX_SENDS`
    /// times, which is also when the generator stops offering load (`dead`).
    given_up: u64,
    dead: bool,
    mismatches: u64,
}

impl Generator {
    fn new(socket: UdpSocket, pool: Pool) -> Generator {
        Generator {
            socket,
            pool,
            origin: Instant::now(),
            slots: [Slot::default(); SERVICE_OUTSTANDING],
            floor: 0,
            next: 0,
            answered: 0,
            resent: 0,
            duplicates: 0,
            given_up: 0,
            dead: false,
            mismatches: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// New datagrams the window has room for.
    fn room(&self) -> usize {
        SERVICE_OUTSTANDING - self.next.wrapping_sub(self.floor) as usize
    }

    fn transmit(&mut self, seq: u32) {
        let index = seq as usize % self.pool.len();
        let frame = &mut self.pool.frames[index];
        sut::set_seq(frame, seq);
        // A datagram a full socket buffer refuses is lost like any other on
        // the path: it is never echoed.
        let _ = self.socket.send(frame.bytes());
    }

    /// Sends `count` new datagrams; the window has room for them.
    fn send_new(&mut self, count: usize) {
        let sent_ns = self.now_ns();
        for _ in 0..count {
            self.slots[self.next as usize % SERVICE_OUTSTANDING] = Slot {
                sent_ns,
                sends: 1,
                answered: false,
            };
            self.transmit(self.next);
            self.next = self.next.wrapping_add(1);
        }
    }

    /// Reads one echo if there is one and checks its verdict; returns its
    /// sequence number.
    fn read_echo(&mut self) -> Option<u32> {
        let mut buf = [0u8; 64];
        let len = self.socket.recv(&mut buf).ok()?;
        let echo = sut::decode_echo(&buf[..len])?;
        let seq = u32::from_be_bytes([echo.token[0], echo.token[1], echo.token[2], echo.token[3]]);
        let want = self.pool.expected[seq as usize % self.pool.len()];
        if want.is_some_and(|want| Summary::from(&echo) != want) {
            self.mismatches += 1;
        }
        Some(seq)
    }

    /// Reads every echo that has come back, hands the sequence number of each
    /// first answer to `answer`, and moves the window on. Returns the first
    /// answers read.
    fn read_echoes(&mut self, mut answer: impl FnMut(u32)) -> usize {
        let before = self.answered;
        while let Some(seq) = self.read_echo() {
            let in_window = seq.wrapping_sub(self.floor) < self.next.wrapping_sub(self.floor);
            let slot = &mut self.slots[seq as usize % SERVICE_OUTSTANDING];
            if in_window && !slot.answered {
                slot.answered = true;
                self.answered += 1;
                answer(seq);
            } else {
                self.duplicates += 1;
            }
        }
        self.advance();
        (self.answered - before) as usize
    }

    fn advance(&mut self) {
        while self.floor != self.next
            && self.slots[self.floor as usize % SERVICE_OUTSTANDING].answered
        {
            self.floor = self.floor.wrapping_add(1);
        }
    }

    /// Sends the oldest unanswered datagram again if it has waited
    /// `RESEND_AFTER`, or gives it up after `MAX_SENDS` sends.
    fn resend_overdue(&mut self) {
        if self.floor == self.next {
            return;
        }
        let now_ns = self.now_ns();
        let slot = &mut self.slots[self.floor as usize % SERVICE_OUTSTANDING];
        if now_ns - slot.sent_ns < RESEND_AFTER.as_nanos() as u64 {
            return;
        }
        if slot.sends == MAX_SENDS {
            // The service has stopped answering: the run is over.
            let window = self.floor..self.next;
            let unanswered = |seq: &u32| !self.slots[*seq as usize % SERVICE_OUTSTANDING].answered;
            self.given_up += window.filter(unanswered).count() as u64;
            self.floor = self.next;
            self.dead = true;
        } else {
            slot.sends += 1;
            slot.sent_ns = now_ns;
            self.resent += 1;
            self.transmit(self.floor);
        }
    }

    /// Waits until every datagram sent so far is answered or given up.
    fn settle(&mut self) {
        while self.floor != self.next {
            if self.read_echoes(|_| {}) == 0 {
                self.resend_overdue();
                std::thread::yield_now();
            }
        }
    }

    /// Open loop at `rate_pps` for `length`: sends what is due, reads what
    /// has come back, never waits for either. Past a full window the
    /// generator holds the due datagrams back (their latency still runs from
    /// their due time), so a stalled thread shows as latency, not as a socket
    /// buffer overflowing; after a stall it catches up in bursts with echo
    /// reads in between.
    fn open_loop(&mut self, rate_pps: u64, length: Duration) -> Pacer {
        let mut pacer = Pacer::new(rate_pps, length);
        let base = self.next;
        let mut handed = 0u64;
        loop {
            let now_ns = pacer.now_ns();
            let room = self.room().min(BURST) as u64;
            let due = pacer.due(now_ns).clamp(handed, handed + room);
            if due > handed {
                self.send_new((due - handed) as usize);
                pacer.handed_over(handed, due, now_ns);
                handed = due;
            }
            let verdicts = &pacer.verdicts;
            self.read_echoes(|seq| {
                verdicts.seen(u64::from(seq.wrapping_sub(base)), verdicts.now_ns());
            });
            self.resend_overdue();
            if self.dead || (handed == pacer.total() && self.floor == self.next) {
                break;
            }
            std::thread::yield_now();
        }
        pacer
    }

    /// Open loop above the knee, where loss is the measurement: no window,
    /// nothing is sent twice. Returns the share of datagrams never echoed.
    /// The last phase of a run: it leaves the window behind.
    fn overload(&mut self, rate_pps: u64, length: Duration) -> f64 {
        let pacer = Pacer::new(rate_pps, length);
        let base = self.next;
        let (mut sent, mut echoed) = (0u64, 0u64);
        let mut last_echo_ns = 0u64;
        loop {
            let now_ns = pacer.now_ns();
            let due = pacer.due(now_ns);
            for _ in sent..due {
                self.transmit(self.next);
                self.next = self.next.wrapping_add(1);
            }
            sent = due;
            while let Some(seq) = self.read_echo() {
                echoed += u64::from(u64::from(seq.wrapping_sub(base)) < sent);
                last_echo_ns = now_ns;
            }
            // All sent and nothing for 100 ms: the rest was lost.
            let quiet = now_ns.saturating_sub(last_echo_ns) > ECHO_TIMEOUT.as_nanos() as u64;
            if sent == pacer.total() && (echoed >= sent || quiet) {
                break;
            }
            std::thread::yield_now();
        }
        self.floor = self.next;
        1.0 - echoed.min(sent) as f64 / sent.max(1) as f64
    }
}

fn service(plan: &Plan) -> Run {
    let mut run = Run::default();
    let set_up = || {
        let traffic = gen::mix8(plan.seed, 0, true);
        let (frames, tenants) = Pool::build(&traffic);
        let mut template = Lone::new();
        for tenant in &tenants {
            template.load(tenant);
        }
        let service = UdpService::bind(&template);
        let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback binds");
        socket.connect(service.addr()).expect("loopback connects");
        (traffic, frames, tenants, service, socket)
    };
    let tear_down =
        |(_, _, _, mut service, _): (Traffic, Vec<Frame>, Vec<Tenant>, UdpService, UdpSocket)| {
            service.drain();
        };
    let (traffic, frames, tenants, mut service, socket) =
        repeat_set_up(plan, &mut run, set_up, tear_down);
    let pool = Pool::with_reference(traffic, frames, &tenants, None, &mut run);
    let origin = Instant::now();
    let mut tracer = tracer_for(plan, origin);

    // The service runs `Service::serve` in 10 ms slices on a thread of its
    // own until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        let mut tracer = tracer_for(plan, origin);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let span = tracer.begin(SpanName::IoServe);
                service.serve(Duration::from_millis(10));
                tracer.end(span);
            }
            (service, tracer)
        })
    };

    let mut generator = Generator::new(socket, pool);

    // Phase A: closed loop, echo-clocked: a burst goes out whenever the window
    // has room for a whole one, echoes are read back after every burst so
    // neither socket buffer can overflow.
    generator.socket.set_nonblocking(true).expect("socket mode");
    for index in 0..=plan.windows {
        window(
            &mut run,
            &mut tracer,
            plan,
            index,
            false,
            |tracer, deadline| {
                let before = generator.answered;
                let mut now = Instant::now();
                while now < deadline && !generator.dead {
                    if generator.room() >= BURST {
                        let span = tracer.begin(SpanName::IoSend);
                        generator.send_new(BURST);
                        tracer.end(span);
                    }
                    // Echoes are read (or waited for) until there is room again.
                    let span = tracer.begin(SpanName::IoRecv);
                    loop {
                        if generator.read_echoes(|_| {}) == 0 {
                            generator.resend_overdue();
                            std::thread::yield_now();
                        }
                        now = Instant::now();
                        if generator.room() >= BURST || now >= deadline || generator.dead {
                            break;
                        }
                    }
                    tracer.end(span);
                }
                generator.answered - before
            },
        );
    }
    // Let the tail come back before the paced phase starts.
    generator.settle();
    run.attempted = u64::from(generator.next);
    run.failed += generator.given_up;
    tracer.set_window(0);

    // Phase B: open loop; RTT from due time to verdict echo. (A datagram given
    // up here has no latency sample, which is what `finish` counts as failed.)
    let pacer = generator.open_loop(SERVICE_RATE_PPS, plan.open_loop);
    pacer.finish(&mut run);
    let resent = generator.resent;
    if resent > 0 {
        eprintln!(
            "  service_udp: {resent} datagrams unanswered for {RESEND_AFTER:?} were sent again \
             ({} of them only late: both copies were echoed), {} given up",
            generator.duplicates, generator.given_up
        );
    }

    // Phase C (traced run): loss above the knee.
    let mut loss = [0.0f64; OVERLOAD_RATES_PPS.len()];
    if plan.traced {
        for (slot, rate) in loss.iter_mut().zip(OVERLOAD_RATES_PPS) {
            *slot = generator.overload(rate, plan.open_loop.min(Duration::from_secs(2)));
        }
    }

    stop.store(true, Ordering::Relaxed);
    let (mut service, server_tracer) = server.join().expect("the service thread ran");
    service.flush();
    let drained = service.drain();
    run.failed += generator.mismatches;
    if generator.dead {
        run.fault(format!(
            "the service left a datagram unanswered through {MAX_SENDS} sends"
        ));
    }
    if generator.mismatches > 0 {
        run.fault(format!(
            "{} verdict echoes differ from the reference",
            generator.mismatches
        ));
    }
    if !drained.balanced {
        run.fault("the service's drain report is out of balance".into());
    }

    if plan.traced {
        let threads = [("generator", &tracer), ("service", &server_tracer)];
        let per_packet = finish_trace(&mut run, Workload::ServiceUdp, &threads);
        run.layer.extend([
            ("io.send_ns", per_packet(SpanName::IoSend)),
            ("io.recv_ns", per_packet(SpanName::IoRecv)),
            ("io.rtt_p99_us", run.open_loop.p99_us),
            ("io.loss_ratio_100k", loss[0]),
            ("io.loss_ratio_200k", loss[1]),
            ("io.rx_discarded", drained.rx_discarded as f64),
            ("io.tx_errors", drained.tx_errors as f64),
            ("io.resent", resent as f64),
            ("runtime.gen_lateness_p99_us", run.open_loop.lateness_p99_us),
            ("runtime.shed_packets", drained.shed as f64),
            ("runtime.lost_packets", drained.lost as f64),
        ]);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A relay between the generator and the service that loses every
    /// hundredth datagram the generator sends (resent copies too).
    fn lossy_relay(service: std::net::SocketAddr, stop: Arc<AtomicBool>) -> UdpSocket {
        let relay = UdpSocket::bind("127.0.0.1:0").expect("loopback binds");
        let socket = relay.try_clone().expect("socket clones");
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("socket mode");
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let (mut generator, mut from_generator) = (None, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let Ok((len, from)) = socket.recv_from(&mut buf) else {
                    continue;
                };
                if from == service {
                    if let Some(generator) = generator {
                        let _ = socket.send_to(&buf[..len], generator);
                    }
                } else {
                    generator = Some(from);
                    from_generator += 1;
                    if from_generator % 100 != 0 {
                        let _ = socket.send_to(&buf[..len], service);
                    }
                }
            }
        });
        relay
    }

    #[test]
    fn a_lost_datagram_is_sent_again_and_fails_nothing() {
        let traffic = gen::mix8(3, 0, true);
        let (frames, tenants) = Pool::build(&traffic);
        let mut template = Lone::new();
        for tenant in &tenants {
            template.load(tenant);
        }
        let mut run = Run::default();
        let pool = Pool::with_reference(traffic, frames, &tenants, None, &mut run);
        let mut service = UdpService::bind(&template);
        let stop = Arc::new(AtomicBool::new(false));
        let relay = lossy_relay(service.addr(), Arc::clone(&stop));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    service.serve(Duration::from_millis(10));
                }
                service.drain();
            })
        };
        let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback binds");
        socket
            .connect(relay.local_addr().expect("bound"))
            .expect("loopback connects");
        socket.set_nonblocking(true).expect("socket mode");

        let mut generator = Generator::new(socket, pool);
        while generator.next < 4_000 {
            if generator.room() >= BURST {
                generator.send_new(BURST);
            }
            if generator.read_echoes(|_| {}) == 0 {
                generator.resend_overdue();
                std::thread::yield_now();
            }
        }
        generator.settle();
        stop.store(true, Ordering::Relaxed);
        server.join().expect("the service thread ran");

        assert_eq!(generator.answered, u64::from(generator.next));
        assert!(generator.resent >= 40, "resent {}", generator.resent);
        assert_eq!(generator.given_up, 0);
        assert!(!generator.dead);
        assert_eq!(generator.mismatches, 0);
        assert!(run.faults.is_empty());
    }
}
