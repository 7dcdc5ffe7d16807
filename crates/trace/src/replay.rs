//! Open-loop paced replay of traces into the Menshen data paths.
//!
//! The replay engine is the simulated MoonGen/TRex: it takes a trace (from
//! [`crate::synth`] or a pcap file), computes each packet's scheduled send
//! time under a [`Pacing`] policy, and feeds the trace in bursts into either
//! a lone [`MenshenPipeline`] (via `process_batch_into`) or a threaded
//! [`ShardedRuntime`] (via `submit_owned`). Pacing is **open-loop**: send
//! times derive from the schedule, never from completions, so queueing under
//! overload shows up as latency rather than as silently reduced offered
//! load. (When the device cannot drain, ring backpressure eventually blocks
//! the sender — that saturation is visible as `achieved_pps` falling below
//! `offered_pps`.)
//!
//! Every replay accounts for every packet: the report's
//! [`ReplayReport::all_packets_accounted`] checks `in == forwarded + drops`
//! against the device's own tallies, so a replay that loses packets fails
//! loudly instead of producing a pretty but wrong latency series.

use menshen_core::{LatencyHistogram, MenshenPipeline, TenantTelemetry, Verdict, BURST_SIZE};
use menshen_packet::Packet;
use menshen_runtime::{RuntimeError, ShardedRuntime};
use std::collections::BTreeMap;
use std::time::Instant;

/// How replay maps trace timestamps to send times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// No pacing: bursts are sent back to back. Measures the device's
    /// saturation behaviour (the classic throughput test).
    Unpaced,
    /// Timestamp-faithful: packet `i` is sent at
    /// `timestamp_ns[i] - timestamp_ns[0]` after replay start, reproducing
    /// the capture's arrival process exactly.
    TimestampFaithful,
    /// Rate-rescaled: the capture's relative spacing is kept but linearly
    /// rescaled so the whole trace plays at `pps` packets per second.
    RateRescaled {
        /// Target mean offered load, packets per second.
        pps: f64,
    },
}

/// The outcome of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Packets offered to the device.
    pub submitted: u64,
    /// Packets the device forwarded.
    pub forwarded: u64,
    /// Packets the device dropped (every drop reason).
    pub dropped: u64,
    /// Wall-clock duration of the replay, seconds.
    pub wall_secs: f64,
    /// `submitted / wall_secs`.
    pub achieved_pps: f64,
    /// The schedule's offered rate (`f64::INFINITY` when unpaced).
    pub offered_pps: f64,
    /// Per-packet latency, nanoseconds: scheduled send time → verdict
    /// completion (single pipeline) or ingress stamp → burst completion on
    /// the owning shard (sharded runtime).
    pub latency: LatencyHistogram,
    /// Per-burst service time, nanoseconds.
    pub burst_latency: LatencyHistogram,
    /// Packets processed per shard (one entry per shard; a single entry for
    /// the lone-pipeline path). The raw material for RSS-balance reporting.
    pub shard_packets: Vec<u64>,
    /// Per-tenant SLO telemetry for *this run* (sojourn histogram + verdict
    /// ledger per module ID), sorted by tenant. Tenant 0 collects packets
    /// that never resolved to a module. On a reused runtime the views are
    /// baseline-subtracted like the latency histograms, so each replay
    /// reports only its own packets.
    pub tenants: Vec<(u16, TenantTelemetry)>,
}

impl ReplayReport {
    /// True when the device accounted for every submitted packet:
    /// `in == forwarded + dropped`, with the tallies taken from the
    /// device's own counters rather than the sender's bookkeeping.
    pub fn all_packets_accounted(&self) -> bool {
        self.submitted == self.forwarded + self.dropped
    }

    /// Effective parallelism implied by the per-shard packet counts:
    /// `total / max`: how many shards the load is effectively spread over.
    pub fn effective_shards(&self) -> f64 {
        let max = self.shard_packets.iter().copied().max().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            self.submitted as f64 / max as f64
        }
    }

    /// One tenant's SLO view for this run, if it saw any packets.
    pub fn tenant_view(&self, tenant: u16) -> Option<&TenantTelemetry> {
        self.tenants
            .iter()
            .find(|(id, _)| *id == tenant)
            .map(|(_, view)| view)
    }

    /// Load-imbalance skew: most-loaded shard over the mean shard load
    /// (1.0 = perfectly balanced).
    pub fn shard_skew(&self) -> f64 {
        let shards = self.shard_packets.len();
        let max = self.shard_packets.iter().copied().max().unwrap_or(0);
        if shards == 0 || self.submitted == 0 {
            return 1.0;
        }
        max as f64 / (self.submitted as f64 / shards as f64)
    }
}

/// Scheduled send offsets (ns from replay start) for `trace` under `pacing`,
/// plus the offered rate in packets per second. Public so packet-I/O
/// backends (`menshen-io`'s `TraceIo`) and external generators can reuse the
/// replay engine's exact pacing model: `Unpaced` is all-zeros,
/// `TimestampFaithful` preserves inter-arrival gaps, `RateRescaled`
/// stretches or compresses them to the target rate.
pub fn schedule_offsets(trace: &[Packet], pacing: Pacing) -> (Vec<u64>, f64) {
    match pacing {
        Pacing::Unpaced => (vec![0; trace.len()], f64::INFINITY),
        Pacing::TimestampFaithful => {
            let origin = trace.first().map(|p| p.timestamp_ns).unwrap_or(0);
            let offsets: Vec<u64> = trace
                .iter()
                .map(|p| p.timestamp_ns.saturating_sub(origin))
                .collect();
            let span = offsets.last().copied().unwrap_or(0).max(1);
            (offsets, trace.len() as f64 * 1e9 / span as f64)
        }
        Pacing::RateRescaled { pps } => {
            assert!(
                pps.is_finite() && pps > 0.0,
                "rescale rate must be positive"
            );
            let origin = trace.first().map(|p| p.timestamp_ns).unwrap_or(0);
            let span = trace
                .last()
                .map(|p| p.timestamp_ns.saturating_sub(origin))
                .unwrap_or(0);
            let ns_per_packet = 1e9 / pps;
            let offsets = if span == 0 {
                // A zero-span trace (e.g. sub-microsecond timestamps
                // quantised away by a classic-µs pcap round trip) carries no
                // relative spacing to rescale; space packets uniformly so
                // the offered rate reported really is the offered rate,
                // instead of silently degenerating to an unpaced blast.
                (0..trace.len())
                    .map(|i| (i as f64 * ns_per_packet) as u64)
                    .collect()
            } else {
                let target_span = trace.len() as f64 * 1e9 / pps;
                let scale = target_span / span as f64;
                trace
                    .iter()
                    .map(|p| (p.timestamp_ns.saturating_sub(origin) as f64 * scale) as u64)
                    .collect()
            };
            (offsets, pps)
        }
    }
}

/// Busy-waits (sleeping for the coarse part) until `target_ns` after
/// `start`. Sub-millisecond precision comes from the spin tail. Public as
/// the companion pacer to [`schedule_offsets`].
pub fn pace_until(start: Instant, target_ns: u64) {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= target_ns {
            return;
        }
        let remaining = target_ns - now;
        if remaining > 2_000_000 {
            std::thread::sleep(std::time::Duration::from_nanos(remaining - 1_000_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replays `trace` through a lone pipeline's batched data path in
/// [`BURST_SIZE`] bursts. A burst is processed once its *last* packet's
/// scheduled time has arrived — the burst-assembly model of a DPDK rx loop:
/// earlier packets of the burst wait for the burst to fill, and that wait
/// is part of their measured latency (scheduled arrival → verdict
/// completion, never negative, never hidden).
pub fn replay_pipeline(
    pipeline: &mut MenshenPipeline,
    trace: &[Packet],
    pacing: Pacing,
) -> ReplayReport {
    let (send_ns, offered_pps) = schedule_offsets(trace, pacing);
    let mut latency = LatencyHistogram::new();
    let mut burst_latency = LatencyHistogram::new();
    let mut tenants: BTreeMap<u16, TenantTelemetry> = BTreeMap::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut forwarded = 0u64;
    let mut dropped = 0u64;
    let start = Instant::now();
    for (burst_index, burst) in trace.chunks(BURST_SIZE).enumerate() {
        let first = burst_index * BURST_SIZE;
        pace_until(start, send_ns[first + burst.len() - 1]);
        let service_start = Instant::now();
        pipeline.process_batch_into(burst, &mut verdicts);
        burst_latency.record(service_start.elapsed().as_nanos() as u64);
        let done_ns = start.elapsed().as_nanos() as u64;
        for (offset, verdict) in verdicts.iter().enumerate() {
            if verdict.is_forwarded() {
                forwarded += 1;
            } else {
                dropped += 1;
            }
            let sojourn_ns = done_ns.saturating_sub(send_ns[first + offset]);
            latency.record(sojourn_ns);
            let tenant = match verdict {
                Verdict::Forwarded { module_id, .. } => *module_id,
                Verdict::Dropped { module_id, .. } => module_id.unwrap_or(0),
            };
            tenants
                .entry(tenant)
                .or_default()
                .record(verdict, sojourn_ns);
        }
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-12);
    ReplayReport {
        submitted: trace.len() as u64,
        forwarded,
        dropped,
        wall_secs,
        achieved_pps: trace.len() as f64 / wall_secs,
        offered_pps,
        latency,
        burst_latency,
        shard_packets: vec![trace.len() as u64],
        tenants: tenants.into_iter().collect(),
    }
}

/// Replays `trace` through a **threaded** sharded runtime. Bursts of
/// [`BURST_SIZE`] are submitted once their last packet's scheduled time
/// arrives (the same burst-assembly model as [`replay_pipeline`]); the
/// runtime stamps each packet at ingress, each shard records its own
/// latency, and the dispatcher merges the histograms on snapshot.
///
/// The runtime may carry earlier traffic: both the counter tallies *and*
/// the telemetry record are baselined at entry and reported as this run's
/// delta ([`menshen_runtime::ShardTelemetry::subtracting`]), so a warm-up
/// replay on the same runtime does not pollute the measurement. The
/// tallies come from the runtime's own shard statistics, so
/// `all_packets_accounted` genuinely proves the device saw everything.
pub fn replay_sharded(
    runtime: &mut ShardedRuntime,
    trace: &[Packet],
    pacing: Pacing,
) -> Result<ReplayReport, RuntimeError> {
    let (send_ns, offered_pps) = schedule_offsets(trace, pacing);
    let baseline: Vec<u64> = runtime.shard_stats().iter().map(|s| s.packets).collect();
    let baseline_forwarded: u64 = runtime.shard_stats().iter().map(|s| s.forwarded).sum();
    let baseline_dropped: u64 = runtime.shard_stats().iter().map(|s| s.dropped).sum();
    // The telemetry record is cumulative per shard; take it before the run
    // (only when the runtime has already processed traffic) so the report
    // can subtract and cover exactly this run.
    let had_traffic = baseline.iter().any(|&packets| packets > 0);
    let before = if had_traffic {
        Some(runtime.aggregated_latency()?)
    } else {
        None
    };
    let start = Instant::now();
    for (burst_index, burst) in trace.chunks(BURST_SIZE).enumerate() {
        let first = burst_index * BURST_SIZE;
        pace_until(start, send_ns[first + burst.len() - 1]);
        runtime.submit_owned(burst.to_vec())?;
    }
    runtime.flush();
    let wall_secs = start.elapsed().as_secs_f64().max(1e-12);
    let stats = runtime.shard_stats();
    let shard_packets: Vec<u64> = stats
        .iter()
        .zip(baseline.iter().chain(std::iter::repeat(&0)))
        .map(|(s, base)| s.packets - base)
        .collect();
    let forwarded: u64 = stats.iter().map(|s| s.forwarded).sum::<u64>() - baseline_forwarded;
    let dropped: u64 = stats.iter().map(|s| s.dropped).sum::<u64>() - baseline_dropped;
    let after = runtime.aggregated_latency()?;
    let run = match &before {
        Some(before) => after
            .subtracting(before)
            .expect("runtime telemetry is cumulative; an entry snapshot subtracts cleanly"),
        None => after,
    };
    let tenants: Vec<(u16, TenantTelemetry)> = run
        .tenants
        .into_iter()
        .filter(|(_, view)| view.ledger.total() > 0)
        .collect();
    Ok(ReplayReport {
        submitted: trace.len() as u64,
        forwarded,
        dropped,
        wall_secs,
        achieved_pps: trace.len() as f64 / wall_secs,
        offered_pps,
        latency: run.packet_ns,
        burst_latency: run.burst_ns,
        shard_packets,
        tenants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, WorkloadSpec};
    use menshen_core::{ModuleConfig, ModuleId};
    use menshen_rmt::params::PipelineParams;
    use menshen_runtime::{RuntimeOptions, SteeringMode};

    fn passthrough_template(tenants: u16) -> MenshenPipeline {
        let mut pipeline = MenshenPipeline::new(PipelineParams::default());
        for id in 1..=tenants {
            pipeline
                .load_module(&ModuleConfig::empty(
                    ModuleId::new(id),
                    format!("t{id}"),
                    PipelineParams::default().num_stages,
                ))
                .unwrap();
        }
        pipeline
    }

    fn quick_trace(tenants: u16, packets: usize) -> Vec<Packet> {
        let mut spec = WorkloadSpec::heavy_tailed(tenants, 128, packets);
        spec.mean_rate_pps = 50_000_000.0; // keep paced tests fast
        synthesize(&spec).unwrap()
    }

    #[test]
    fn pipeline_replay_accounts_for_every_packet() {
        let mut pipeline = passthrough_template(4);
        let trace = quick_trace(4, 600);
        let report = replay_pipeline(&mut pipeline, &trace, Pacing::Unpaced);
        assert_eq!(report.submitted, 600);
        assert_eq!(report.forwarded, 600);
        assert_eq!(report.dropped, 0);
        assert!(report.all_packets_accounted());
        assert_eq!(report.latency.count(), 600);
        assert!(report.burst_latency.count() >= 600 / 32);
        assert!(report.latency.quantile(0.99) >= report.latency.quantile(0.5));
        assert!(report.achieved_pps > 0.0);
        // The per-tenant ledgers retell the totals exactly.
        assert_eq!(report.tenants.len(), 4);
        assert_eq!(
            report
                .tenants
                .iter()
                .map(|(_, view)| view.ledger.total())
                .sum::<u64>(),
            600
        );
        for (_, view) in &report.tenants {
            assert_eq!(view.sojourn_ns.count(), view.ledger.total());
            assert_eq!(view.ledger.dropped(), 0);
        }
    }

    #[test]
    fn unknown_tenants_count_as_drops_not_losses() {
        // Only tenants 1–2 loaded, trace spans 1–4: half the packets drop,
        // but every one is accounted for.
        let mut pipeline = passthrough_template(2);
        let trace = quick_trace(4, 400);
        let report = replay_pipeline(&mut pipeline, &trace, Pacing::Unpaced);
        assert!(report.all_packets_accounted());
        assert!(report.dropped > 0, "unknown tenants must drop");
        assert_eq!(report.forwarded + report.dropped, 400);
    }

    #[test]
    fn timestamp_faithful_pacing_respects_the_capture_clock() {
        let mut pipeline = passthrough_template(2);
        let mut spec = WorkloadSpec::uniform(2, 32, 256);
        spec.mean_rate_pps = 20_000_000.0; // ≈12.8 µs of trace time
        let trace = synthesize(&spec).unwrap();
        let span_secs = (trace.last().unwrap().timestamp_ns - trace[0].timestamp_ns) as f64 / 1e9;
        let report = replay_pipeline(&mut pipeline, &trace, Pacing::TimestampFaithful);
        assert!(report.all_packets_accounted());
        assert!(
            report.wall_secs >= span_secs * 0.9,
            "replay finished faster than the capture clock allows: {} < {}",
            report.wall_secs,
            span_secs
        );
        assert!(report.offered_pps > 0.0 && report.offered_pps.is_finite());
    }

    #[test]
    fn rate_rescaled_pacing_hits_the_target_rate() {
        let mut pipeline = passthrough_template(2);
        let trace = quick_trace(2, 512);
        let target = 2_000_000.0; // 512 packets ≈ 256 µs
        let report = replay_pipeline(&mut pipeline, &trace, Pacing::RateRescaled { pps: target });
        assert!(report.all_packets_accounted());
        assert_eq!(report.offered_pps, target);
        // Open-loop pacing can only be slower than the schedule (by the last
        // burst's service time), never faster than ~burst granularity.
        assert!(
            report.achieved_pps <= target * (1.0 + 0.35),
            "achieved {} vs offered {target}",
            report.achieved_pps
        );
    }

    #[test]
    fn sharded_replay_accounts_and_reports_balance() {
        let template = passthrough_template(4);
        let mut runtime = ShardedRuntime::from_pipeline(
            &template,
            RuntimeOptions::threaded(2).with_steering(SteeringMode::FiveTuple),
        );
        let trace = quick_trace(4, 800);
        let report = replay_sharded(&mut runtime, &trace, Pacing::Unpaced).unwrap();
        assert!(report.all_packets_accounted(), "{report:?}");
        assert_eq!(report.submitted, 800);
        assert_eq!(report.shard_packets.iter().sum::<u64>(), 800);
        assert_eq!(report.shard_packets.len(), 2);
        assert_eq!(report.latency.count(), 800);
        assert!(report.effective_shards() > 0.0 && report.effective_shards() <= 2.0);
        assert!(report.shard_skew() >= 1.0);
        runtime.shutdown();
    }

    #[test]
    fn reusing_a_runtime_reports_only_the_current_runs_latency() {
        let template = passthrough_template(4);
        let mut runtime = ShardedRuntime::from_pipeline(&template, RuntimeOptions::threaded(2));
        let trace = quick_trace(4, 320);
        let warmup = replay_sharded(&mut runtime, &trace, Pacing::Unpaced).unwrap();
        assert_eq!(warmup.latency.count(), 320);
        // Second replay on the same runtime: counters AND latency must be
        // this run's delta, not the cumulative totals.
        let second = replay_sharded(&mut runtime, &trace, Pacing::Unpaced).unwrap();
        assert!(second.all_packets_accounted(), "{second:?}");
        assert_eq!(second.submitted, 320);
        assert_eq!(second.shard_packets.iter().sum::<u64>(), 320);
        assert_eq!(second.latency.count(), 320, "latency must not accumulate");
        assert!(second.burst_latency.count() >= 320 / 32);
        assert!(second.latency.quantile(0.5) > 0);
        // Tenant views are deltas too: this run's 320 packets, not 640.
        assert_eq!(
            second
                .tenants
                .iter()
                .map(|(_, view)| view.ledger.total())
                .sum::<u64>(),
            320,
            "tenant ledgers must not accumulate"
        );
        runtime.shutdown();
    }

    #[test]
    fn zero_span_traces_rescale_to_uniform_spacing() {
        // All timestamps identical (e.g. quantised away by a µs pcap round
        // trip): rate-rescaled pacing must still pace at the target rate
        // instead of degenerating to an unpaced blast.
        let mut trace = quick_trace(2, 256);
        for packet in &mut trace {
            packet.timestamp_ns = 5_000;
        }
        let mut pipeline = passthrough_template(2);
        let target = 2_000_000.0; // 256 packets ≈ 128 µs
        let report = replay_pipeline(&mut pipeline, &trace, Pacing::RateRescaled { pps: target });
        assert!(report.all_packets_accounted());
        assert_eq!(report.offered_pps, target);
        assert!(
            report.achieved_pps <= target * 1.35,
            "zero-span trace blasted through: achieved {} vs offered {target}",
            report.achieved_pps
        );
    }

    #[test]
    fn sharded_replay_needs_threaded_mode() {
        let template = passthrough_template(1);
        let mut runtime =
            ShardedRuntime::from_pipeline(&template, RuntimeOptions::deterministic(2));
        let trace = quick_trace(1, 32);
        assert!(matches!(
            replay_sharded(&mut runtime, &trace, Pacing::Unpaced),
            Err(RuntimeError::WrongMode(_))
        ));
    }
}
