//! Sampled hot-path profiling: 1-in-N per-stage timing inside
//! [`MenshenPipeline::process_batch`](crate::pipeline::MenshenPipeline::process_batch).
//!
//! The batched hot path runs at millions of packets per second, so
//! unconditional `Instant::now()` pairs around every stage would cost more
//! than some stages themselves. Instead the pipeline samples **one packet
//! in N**, set per pipeline by
//! [`MenshenPipeline::set_profile_interval`](crate::pipeline::MenshenPipeline::set_profile_interval)
//! (0, the default, is off; replicas copy it). An unsampled packet pays
//! one predictable branch in `begin` and one in each `mark`; the sampled
//! packet pays the clock reads, attributing wall time to the five pipeline
//! phases in [`PROFILE_PHASES`]:
//!
//! 1. `filter` — packet-filter classification and module-slot resolution;
//! 2. `parse` — header parsing into the PHV;
//! 3. `match` — system ingress plus the per-stage match/action loop;
//! 4. `deparse` — PHV write-back into the packet bytes;
//! 5. `egress` — routing and verdict construction.
//!
//! Early-dropped packets (no VLAN, unknown module, …) record whatever
//! phases they reached — partial samples are real cost attribution, not
//! noise — so phase histograms may have differing counts.

use crate::telemetry::{BaselineMismatch, LatencyHistogram};
use std::time::Instant;

/// The five hot-path phases, in pipeline order. Index with [`Phase`].
pub const PROFILE_PHASES: [&str; 5] = ["filter", "parse", "match", "deparse", "egress"];

/// A hot-path phase (indexes [`PROFILE_PHASES`] and
/// [`StageProfile::phase_ns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Packet-filter classification + module-slot resolution.
    Filter = 0,
    /// Header parsing into the PHV.
    Parse = 1,
    /// System ingress + the per-stage match/action loop.
    Match = 2,
    /// PHV write-back into packet bytes.
    Deparse = 3,
    /// Routing and verdict construction.
    Egress = 4,
}

/// The accumulated per-phase timing distributions of one pipeline.
///
/// Empty while sampling is off (interval 0). Merges bucket-exactly like
/// everything else in the telemetry plane, so per-shard profiles fold into
/// one fleet view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageProfile {
    /// The sampling interval the profile was recorded at (0 = disabled).
    pub interval: u64,
    /// Number of packets sampled.
    pub sampled: u64,
    /// Per-phase service-time histograms, indexed by [`Phase`].
    pub phase_ns: [LatencyHistogram; PROFILE_PHASES.len()],
}

impl StageProfile {
    /// True when no packet was ever sampled.
    pub fn is_empty(&self) -> bool {
        self.sampled == 0
    }

    /// Folds another profile in (exact bucket addition). Intervals may
    /// differ across sources (e.g. a reshard changed the setting); the
    /// merged profile keeps the largest, purely as a descriptive field.
    pub fn merge(&mut self, other: &StageProfile) {
        self.interval = self.interval.max(other.interval);
        self.sampled += other.sampled;
        for (mine, theirs) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            mine.merge(theirs);
        }
    }

    /// `self − baseline`, where `baseline` is an earlier snapshot of the
    /// same profile (see [`LatencyHistogram::subtracting`]). Keeps this
    /// profile's interval.
    pub fn subtracting(&self, baseline: &StageProfile) -> Result<StageProfile, BaselineMismatch> {
        let sampled = self
            .sampled
            .checked_sub(baseline.sampled)
            .ok_or(BaselineMismatch {
                bucket: None,
                current: self.sampled,
                baseline: baseline.sampled,
            })?;
        let mut phase_ns: [LatencyHistogram; PROFILE_PHASES.len()] = Default::default();
        for ((delta, mine), theirs) in phase_ns
            .iter_mut()
            .zip(&self.phase_ns)
            .zip(&baseline.phase_ns)
        {
            *delta = mine.subtracting(theirs)?;
        }
        Ok(StageProfile {
            interval: self.interval,
            sampled,
            phase_ns,
        })
    }
}

/// The per-pipeline sampling profiler: one packet in `interval` is timed
/// phase by phase straight into its [`StageProfile`] (0 = off, the
/// default).
#[derive(Debug, Clone, Default)]
pub struct HotPathProfiler {
    interval: u64,
    countdown: u64,
    /// The previous mark of the packet being sampled; `None` for every
    /// other packet, which makes [`mark`](Self::mark) a single branch.
    last: Option<Instant>,
    profile: StageProfile,
}

impl HotPathProfiler {
    /// A profiler sampling one packet in `interval` (0 disables).
    pub fn with_interval(interval: u64) -> Self {
        let mut profiler = HotPathProfiler::default();
        profiler.set_interval(interval);
        profiler
    }

    /// Changes the sampling interval (0 disables). Accumulated phase
    /// histograms are kept.
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval;
        self.countdown = interval;
        self.last = None;
        self.profile.interval = interval;
    }

    /// The configured interval (0 = disabled).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Called once per packet before its first [`mark`](Self::mark): arms
    /// the sample on the 1-in-N packet and disarms it on every other one.
    #[inline]
    pub fn begin(&mut self) {
        if self.interval == 0 {
            return;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.interval;
            self.profile.sampled += 1;
            self.last = Some(Instant::now());
        } else {
            self.last = None;
        }
    }

    /// Closes the phase that just ran on a sampled packet: records the
    /// time since the previous mark (or since [`begin`](Self::begin)) as
    /// one `phase` sample. Recording directly is exact only because a
    /// packet marks each phase at most once; callers keep that invariant.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if let Some(last) = self.last {
            self.record(phase, last);
        }
    }

    /// The sampled packet's half of [`mark`](Self::mark), kept out of line
    /// so the unsampled path stays one branch.
    #[cold]
    fn record(&mut self, phase: Phase, last: Instant) {
        let now = Instant::now();
        self.profile.phase_ns[phase as usize].record(now.duration_since(last).as_nanos() as u64);
        self.last = Some(now);
    }

    /// A copy of the accumulated profile.
    pub fn profile(&self) -> StageProfile {
        self.profile.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_merges_bucket_exactly() {
        let mut a = StageProfile::default();
        let mut b = StageProfile::default();
        a.interval = 256;
        a.sampled = 2;
        a.phase_ns[Phase::Parse as usize].record(100);
        a.phase_ns[Phase::Match as usize].record(900);
        b.interval = 64;
        b.sampled = 1;
        b.phase_ns[Phase::Parse as usize].record(300);
        a.merge(&b);
        assert_eq!(a.sampled, 3);
        assert_eq!(a.interval, 256);
        assert_eq!(a.phase_ns[Phase::Parse as usize].count(), 2);
        assert_eq!(a.phase_ns[Phase::Match as usize].count(), 1);
        assert_eq!(a.phase_ns[Phase::Egress as usize].count(), 0);
        assert!(!a.is_empty());
        assert!(StageProfile::default().is_empty());

        // Subtracting the merged-in profile recovers the original counts.
        let delta = a.subtracting(&b).unwrap();
        assert_eq!(delta.sampled, 2);
        assert_eq!(delta.phase_ns[Phase::Parse as usize].count(), 1);
        assert_eq!(delta.phase_ns[Phase::Match as usize].count(), 1);
        assert!(b.subtracting(&a).is_err(), "a later profile is no baseline");
    }

    #[test]
    fn profiler_samples_one_in_n() {
        let mut profiler = HotPathProfiler::with_interval(4);
        for _ in 0..16 {
            profiler.begin();
            profiler.mark(Phase::Filter);
            profiler.mark(Phase::Parse);
        }
        let profile = profiler.profile();
        assert_eq!(profile.sampled, 4, "exactly 1 in 4 packets sampled");
        assert_eq!(profile.interval, 4);
        assert_eq!(profile.phase_ns[Phase::Filter as usize].count(), 4);
        assert_eq!(profile.phase_ns[Phase::Parse as usize].count(), 4);
        assert_eq!(
            profile.phase_ns[Phase::Match as usize].count(),
            0,
            "unreached phases are absent, not zero-filled"
        );

        profiler.set_interval(0);
        for _ in 0..16 {
            profiler.begin();
            profiler.mark(Phase::Filter);
        }
        let profile = profiler.profile();
        assert_eq!(profile.sampled, 4, "interval 0 disables");
        assert_eq!(profile.phase_ns[Phase::Filter as usize].count(), 4);
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let mut profiler = HotPathProfiler::default();
        profiler.begin();
        profiler.mark(Phase::Filter);
        assert!(profiler.profile().is_empty());
        assert_eq!(profiler.interval(), 0);
        assert_eq!(
            profiler.profile().phase_ns[Phase::Filter as usize].count(),
            0
        );
    }
}
