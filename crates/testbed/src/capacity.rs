//! Closed-loop capacity sweep: offered load vs latency, until the p99 knees.
//!
//! The trace-replay engine ([`menshen_trace::replay`]) is open-loop: it
//! offers load at a scheduled rate regardless of how the device copes. This
//! module closes the loop around it — the classic way a capacity figure is
//! produced with an open-loop generator: replay the trace rate-rescaled at
//! an offered rate, read the measured p50/p99 sojourn, then *decide the next
//! offered rate from the measurement* (step up geometrically) until the p99
//! knees — the latency blows past a multiple of its low-load baseline, or
//! the device visibly saturates (achieved rate falls below the offered
//! rate). The last pre-knee offered rate is the reported capacity.
//!
//! Every point runs on a fresh runtime (configuration replica of the same
//! template), so the latency histograms are independent and a point can
//! never inherit queue backlog from its predecessor.

use menshen_core::{MenshenPipeline, Percentiles};
use menshen_packet::Packet;
use menshen_runtime::{RuntimeOptions, ShardedRuntime, SteeringMode};
use menshen_trace::replay::{replay_sharded, Pacing};

/// Knobs for [`capacity_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct CapacitySweepConfig {
    /// The first offered rate, packets per second. Should be comfortably
    /// below capacity: its p99 is the baseline the knee is judged against.
    pub start_pps: f64,
    /// Geometric step between offered rates (> 1).
    pub growth: f64,
    /// Hard cap on the number of points (the sweep also stops at the knee).
    pub max_points: usize,
    /// The p99 knee threshold: a point whose p99 exceeds
    /// `knee_factor × baseline p99` ends the sweep.
    pub knee_factor: f64,
    /// The saturation threshold: a point whose achieved rate falls below
    /// `saturation_margin × offered` ends the sweep (the open-loop sender
    /// was backpressured — the device is past capacity).
    pub saturation_margin: f64,
}

impl Default for CapacitySweepConfig {
    fn default() -> Self {
        CapacitySweepConfig {
            start_pps: 250_000.0,
            growth: 2.0,
            max_points: 12,
            knee_factor: 8.0,
            saturation_margin: 0.9,
        }
    }
}

/// One measured sample fed to the [`KneeDetector`]: what the sweep observed
/// at one offered rate.
#[derive(Debug, Clone, Copy)]
pub struct KneeSample {
    /// The scheduled offered rate, packets per second.
    pub offered_pps: f64,
    /// Measured p99 sojourn at that rate, nanoseconds.
    pub p99_ns: u64,
    /// Measured achieved rate, packets per second.
    pub achieved_pps: f64,
}

/// The detector's verdict for one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KneeVerdict {
    /// The sample establishes (or sits below) the knee thresholds: keep
    /// stepping the offered rate up.
    Continue,
    /// This sample kneed (latency blow-up or visible saturation); the
    /// carried rate is the last pre-knee offered rate — the capacity figure.
    Knee {
        /// The reported capacity: the previous offered rate.
        knee_pps: f64,
    },
}

/// The pure knee-decision logic of the capacity sweep, separated from the
/// replay machinery so its termination and no-knee behaviour are provable on
/// synthetic latency series (flat, monotone-noisy, genuinely kneeing)
/// without running any traffic.
///
/// Invariants the tests pin down:
///
/// * the first sample is always the baseline and never knees;
/// * a flat or noisy-but-bounded series never knees — after `max_points`
///   samples the caller stops and reports *no knee* instead of committing a
///   spurious capacity figure;
/// * a knee is only declared on a real signal: p99 above
///   `knee_factor × baseline p99`, or achieved rate below
///   `saturation_margin × offered`.
#[derive(Debug, Clone)]
pub struct KneeDetector {
    knee_factor: f64,
    saturation_margin: f64,
    growth: f64,
    baseline_p99_ns: Option<u64>,
}

impl KneeDetector {
    /// Builds a detector from the sweep's thresholds.
    pub fn new(config: &CapacitySweepConfig) -> Self {
        KneeDetector {
            knee_factor: config.knee_factor,
            saturation_margin: config.saturation_margin,
            growth: config.growth,
            baseline_p99_ns: None,
        }
    }

    /// The baseline p99 (first sample's, clamped to ≥ 1 ns so the knee
    /// ratio is always defined); 0 before any sample.
    pub fn baseline_p99_ns(&self) -> u64 {
        self.baseline_p99_ns.unwrap_or(0)
    }

    /// Judges one sample. The first sample establishes the baseline and is
    /// never a knee.
    pub fn observe(&mut self, sample: KneeSample) -> KneeVerdict {
        let Some(baseline) = self.baseline_p99_ns else {
            self.baseline_p99_ns = Some(sample.p99_ns.max(1));
            return KneeVerdict::Continue;
        };
        let latency_kneed = sample.p99_ns as f64 > self.knee_factor * baseline as f64;
        let saturated = sample.achieved_pps < self.saturation_margin * sample.offered_pps;
        if latency_kneed || saturated {
            KneeVerdict::Knee {
                knee_pps: sample.offered_pps / self.growth,
            }
        } else {
            KneeVerdict::Continue
        }
    }
}

/// One replay through a fresh threaded runtime: accounting, achieved rate
/// and latency percentiles.
#[derive(Debug, Clone)]
pub struct ReplayPoint {
    /// Packets offered.
    pub submitted: u64,
    /// True when the runtime's own tallies account for every packet.
    pub all_packets_accounted: bool,
    /// Replay wall-clock rate, Mpps.
    pub achieved_mpps: f64,
    /// Per-packet sojourn-latency percentiles, nanoseconds.
    pub latency: Percentiles,
}

/// One offered-load point of the capacity sweep.
#[derive(Debug, Clone)]
pub struct CapacityPoint {
    /// The scheduled offered rate, packets per second.
    pub offered_pps: f64,
    /// The replay point measured at that rate (latency percentiles,
    /// achieved rate, accounting).
    pub replay: ReplayPoint,
    /// True when this point triggered the knee condition.
    pub kneed: bool,
}

/// The capacity sweep result.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Worker shards each point ran with.
    pub shards: usize,
    /// Dispatcher threads each point ran with (0 = inline dispatch).
    pub dispatchers: usize,
    /// The p99 at the first (baseline) offered rate, nanoseconds.
    pub baseline_p99_ns: u64,
    /// The last offered rate *before* the knee — the capacity figure.
    /// `None` when the sweep exhausted `max_points` without kneeing.
    pub knee_pps: Option<f64>,
    /// Every point measured, in offered-rate order (the kneed point, when
    /// found, is last).
    pub points: Vec<CapacityPoint>,
}

/// Runs the closed-loop sweep: rate-rescaled replay of `trace` through a
/// fresh threaded runtime per offered rate, stepping the rate up by
/// `config.growth` until the p99 sojourn knees (see the module docs).
pub fn capacity_sweep(
    template: &MenshenPipeline,
    trace: &[Packet],
    shards: usize,
    dispatchers: usize,
    steering: SteeringMode,
    config: CapacitySweepConfig,
) -> CapacityReport {
    assert!(!trace.is_empty(), "the sweep needs a trace");
    assert!(config.growth > 1.0, "the offered rate must actually grow");
    assert!(config.start_pps > 0.0, "the starting rate must be positive");
    let mut points: Vec<CapacityPoint> = Vec::new();
    let mut detector = KneeDetector::new(&config);
    let mut knee_pps = None;
    let mut offered = config.start_pps;
    for _ in 0..config.max_points.max(1) {
        let mut runtime = ShardedRuntime::from_pipeline(
            template,
            RuntimeOptions::threaded(shards)
                .with_dispatchers(dispatchers)
                .with_steering(steering),
        );
        let report = replay_sharded(&mut runtime, trace, Pacing::RateRescaled { pps: offered })
            .expect("threaded replay accepts submissions");
        runtime.shutdown();
        let replay = ReplayPoint {
            submitted: report.submitted,
            all_packets_accounted: report.all_packets_accounted(),
            achieved_mpps: report.achieved_pps / 1e6,
            latency: report.latency.percentiles(),
        };
        // The closed loop: the next step (and whether there is one) depends
        // on what this point measured.
        let verdict = detector.observe(KneeSample {
            offered_pps: offered,
            p99_ns: replay.latency.p99_ns,
            achieved_pps: replay.achieved_mpps * 1e6,
        });
        let kneed = matches!(verdict, KneeVerdict::Knee { .. });
        points.push(CapacityPoint {
            offered_pps: offered,
            replay,
            kneed,
        });
        if let KneeVerdict::Knee { knee_pps: rate } = verdict {
            knee_pps = Some(rate);
            break;
        }
        offered *= config.growth;
    }
    CapacityReport {
        shards,
        dispatchers,
        baseline_p99_ns: detector.baseline_p99_ns(),
        knee_pps,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::passthrough_module;
    use menshen_rmt::params::PipelineParams;
    use menshen_trace::synth::{synthesize, WorkloadSpec};

    fn template(tenants: u16) -> MenshenPipeline {
        let mut pipeline = MenshenPipeline::new(PipelineParams::default());
        for id in 1..=tenants {
            pipeline
                .load_module(&passthrough_module(id))
                .expect("passthrough loads");
        }
        pipeline
    }

    fn trace(tenants: u16, packets: usize) -> Vec<Packet> {
        let mut spec = WorkloadSpec::uniform(tenants, 64, packets);
        spec.mean_rate_pps = 10_000_000.0; // keep the capture span tiny
        synthesize(&spec).unwrap()
    }

    #[test]
    fn sweep_steps_geometrically_and_accounts_every_point() {
        let template = template(4);
        let trace = trace(4, 256);
        let config = CapacitySweepConfig {
            start_pps: 500_000.0,
            growth: 4.0,
            max_points: 4,
            ..CapacitySweepConfig::default()
        };
        let report = capacity_sweep(&template, &trace, 2, 0, SteeringMode::FiveTuple, config);
        assert!(!report.points.is_empty());
        assert!(report.baseline_p99_ns >= 1);
        for (index, point) in report.points.iter().enumerate() {
            assert!(point.replay.all_packets_accounted, "{point:?}");
            assert_eq!(point.replay.submitted, 256);
            let expected = 500_000.0 * 4.0f64.powi(index as i32);
            assert!((point.offered_pps - expected).abs() < 1e-6);
            assert!(point.replay.latency.p99_ns >= point.replay.latency.p50_ns);
        }
        // Only the last point may knee, and the knee names the previous rate.
        for point in &report.points[..report.points.len() - 1] {
            assert!(!point.kneed);
        }
        if let Some(knee) = report.knee_pps {
            assert!(report.points.last().unwrap().kneed);
            let last = report.points.last().unwrap().offered_pps;
            assert!((knee - last / 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn flat_series_never_knees() {
        // A device far below capacity: p99 is flat no matter the rate. The
        // detector must keep saying Continue for arbitrarily many points —
        // the sweep then terminates at max_points and reports no knee.
        let config = CapacitySweepConfig::default();
        let mut detector = KneeDetector::new(&config);
        let mut offered = config.start_pps;
        for _ in 0..100 {
            let verdict = detector.observe(KneeSample {
                offered_pps: offered,
                p99_ns: 4_200,
                achieved_pps: offered,
            });
            assert_eq!(verdict, KneeVerdict::Continue);
            offered *= config.growth;
        }
        assert_eq!(detector.baseline_p99_ns(), 4_200);
    }

    #[test]
    fn monotone_noisy_series_below_the_threshold_never_knees() {
        // p99 creeps up monotonically with multiplicative noise, but stays
        // under knee_factor × baseline, and the achieved rate jitters a few
        // percent below offered (normal measurement noise, not saturation).
        // No spurious knee may be committed.
        let config = CapacitySweepConfig {
            knee_factor: 8.0,
            saturation_margin: 0.9,
            ..CapacitySweepConfig::default()
        };
        let mut detector = KneeDetector::new(&config);
        let mut state = 0x00D1_CE5Eu64;
        let mut noise = move || {
            // SplitMix64 step → a factor in [0.85, 1.15).
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            0.85 + ((z ^ (z >> 31)) % 1000) as f64 / 1000.0 * 0.30
        };
        let mut offered = config.start_pps;
        for index in 0..64u32 {
            // Monotone drift up to ≈4× baseline at the end: noisy, but
            // always well under the 8× knee threshold.
            let drift = 1.0 + 3.0 * f64::from(index) / 64.0;
            let p99 = (5_000.0 * drift * noise()) as u64;
            let verdict = detector.observe(KneeSample {
                offered_pps: offered,
                p99_ns: p99,
                achieved_pps: offered * (0.93 + 0.06 * noise().fract()),
            });
            assert_eq!(verdict, KneeVerdict::Continue, "point {index}: p99 {p99}");
            offered *= config.growth;
        }
    }

    #[test]
    fn genuine_knees_and_saturation_are_still_detected() {
        let config = CapacitySweepConfig::default();
        // Latency blow-up.
        let mut detector = KneeDetector::new(&config);
        assert_eq!(
            detector.observe(KneeSample {
                offered_pps: 1e6,
                p99_ns: 5_000,
                achieved_pps: 1e6
            }),
            KneeVerdict::Continue
        );
        assert_eq!(
            detector.observe(KneeSample {
                offered_pps: 2e6,
                p99_ns: 500_000,
                achieved_pps: 2e6
            }),
            KneeVerdict::Knee { knee_pps: 1e6 }
        );
        // Saturation (achieved below margin × offered) without latency blow-up.
        let mut detector = KneeDetector::new(&config);
        detector.observe(KneeSample {
            offered_pps: 1e6,
            p99_ns: 5_000,
            achieved_pps: 1e6,
        });
        assert_eq!(
            detector.observe(KneeSample {
                offered_pps: 2e6,
                p99_ns: 6_000,
                achieved_pps: 1.2e6
            }),
            KneeVerdict::Knee { knee_pps: 1e6 }
        );
        // A zero-latency baseline is clamped so the ratio stays defined.
        let mut detector = KneeDetector::new(&config);
        detector.observe(KneeSample {
            offered_pps: 1e6,
            p99_ns: 0,
            achieved_pps: 1e6,
        });
        assert_eq!(detector.baseline_p99_ns(), 1);
    }

    #[test]
    fn sweep_without_a_knee_terminates_and_reports_none() {
        // Thresholds no measurement can cross: the sweep must push through
        // exactly max_points points and report "no knee" instead of
        // fabricating a knee rate.
        let template = template(2);
        let trace = trace(2, 128);
        let config = CapacitySweepConfig {
            start_pps: 2_000_000.0,
            growth: 2.0,
            max_points: 3,
            knee_factor: f64::INFINITY,
            saturation_margin: 0.0,
        };
        let report = capacity_sweep(&template, &trace, 1, 0, SteeringMode::TenantAffine, config);
        assert_eq!(report.points.len(), 3, "terminates at max_points");
        assert_eq!(report.knee_pps, None, "no spurious knee committed");
        assert!(report.points.iter().all(|p| !p.kneed));
        assert!(report.points.iter().all(|p| p.replay.all_packets_accounted));
    }

    #[test]
    fn an_aggressive_knee_factor_finds_a_knee_immediately() {
        let template = template(2);
        let trace = trace(2, 128);
        let config = CapacitySweepConfig {
            start_pps: 1_000_000.0,
            growth: 2.0,
            max_points: 8,
            knee_factor: 0.0, // any nonzero p99 knees → stops at point 2
            saturation_margin: 0.0,
        };
        let report = capacity_sweep(&template, &trace, 1, 0, SteeringMode::TenantAffine, config);
        assert_eq!(report.points.len(), 2, "baseline + the kneeing point");
        assert!(report.points[1].kneed);
        assert_eq!(report.knee_pps, Some(1_000_000.0));
    }
}
