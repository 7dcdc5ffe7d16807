//! Sampled hot-path profiling: 1-in-N per-stage timing inside
//! [`MenshenPipeline::process_batch`](crate::pipeline::MenshenPipeline::process_batch).
//!
//! The batched hot path runs at millions of packets per second, so
//! unconditional `Instant::now()` pairs around every stage would cost more
//! than some stages themselves. Instead the pipeline samples **one packet
//! in N** (default [`DEFAULT_PROFILE_INTERVAL`]): the unsampled packets pay
//! one counter decrement and a predictable branch, and the sampled packet
//! pays the clock reads, attributing wall time to the five pipeline phases
//! in [`PROFILE_PHASES`]:
//!
//! 1. `filter` — packet-filter classification and module-slot resolution;
//! 2. `parse` — header parsing into the PHV;
//! 3. `match` — system ingress plus the per-stage match/action loop;
//! 4. `deparse` — PHV write-back into the packet bytes;
//! 5. `egress` — routing and verdict construction.
//!
//! Everything is gated behind the `profiling` cargo feature. Without it,
//! [`HotPathProfiler`] and [`PacketSample`] are zero-sized types whose
//! methods are empty `#[inline(always)]` bodies — the hot path compiles to
//! exactly what it was before. The overhead with the feature on is not
//! measured anywhere yet.
//!
//! Early-dropped packets (no VLAN, unknown module, …) commit whatever
//! phases they reached — partial samples are real cost attribution, not
//! noise — so phase histograms may have differing counts.

use crate::telemetry::{BaselineMismatch, LatencyHistogram};

/// The five hot-path phases, in pipeline order. Index with [`Phase`].
pub const PROFILE_PHASES: [&str; 5] = ["filter", "parse", "match", "deparse", "egress"];

/// The default sampling interval: time one packet in 256.
pub const DEFAULT_PROFILE_INTERVAL: u64 = 256;

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
/// Always available as a type (so snapshots and exporters need no feature
/// gates); without the `profiling` feature it is permanently empty.
/// Merges bucket-exactly like everything else in the telemetry plane, so
/// per-shard profiles fold into one fleet view.
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

#[cfg(feature = "profiling")]
mod imp {
    use super::{Phase, StageProfile, DEFAULT_PROFILE_INTERVAL, PROFILE_PHASES};
    use std::time::Instant;

    /// The per-pipeline sampling profiler (feature `profiling`: live).
    #[derive(Debug, Clone)]
    pub struct HotPathProfiler {
        interval: u64,
        countdown: u64,
        profile: StageProfile,
    }

    impl Default for HotPathProfiler {
        fn default() -> Self {
            HotPathProfiler::with_interval(DEFAULT_PROFILE_INTERVAL)
        }
    }

    impl HotPathProfiler {
        /// A profiler sampling one packet in `interval` (0 disables).
        pub fn with_interval(interval: u64) -> Self {
            HotPathProfiler {
                interval,
                countdown: interval,
                profile: StageProfile {
                    interval,
                    ..StageProfile::default()
                },
            }
        }

        /// Changes the sampling interval (0 disables). Accumulated phase
        /// histograms are kept.
        pub fn set_interval(&mut self, interval: u64) {
            self.interval = interval;
            self.countdown = interval;
            self.profile.interval = interval;
        }

        /// The configured interval (0 = disabled).
        pub fn interval(&self) -> u64 {
            self.interval
        }

        /// Called once per packet on the hot path. Returns an active sample
        /// for the 1-in-N packet, an inert one otherwise.
        #[inline]
        pub fn begin(&mut self) -> PacketSample {
            if self.interval == 0 {
                return PacketSample::inert();
            }
            self.countdown -= 1;
            if self.countdown == 0 {
                self.countdown = self.interval;
                PacketSample {
                    last: Some(Instant::now()),
                    durs: [0; PROFILE_PHASES.len()],
                    marked: [false; PROFILE_PHASES.len()],
                }
            } else {
                PacketSample::inert()
            }
        }

        /// Folds a finished sample into the profile. Phases the packet
        /// never reached (early drop) are simply absent from this sample.
        #[inline]
        pub fn commit(&mut self, sample: PacketSample) {
            if sample.last.is_none() {
                return;
            }
            self.profile.sampled += 1;
            for (index, hist) in self.profile.phase_ns.iter_mut().enumerate() {
                if sample.marked[index] {
                    hist.record(sample.durs[index]);
                }
            }
        }

        /// A copy of the accumulated profile.
        pub fn profile(&self) -> StageProfile {
            self.profile.clone()
        }
    }

    /// One packet's in-flight phase timings (feature `profiling`: live).
    #[derive(Debug)]
    pub struct PacketSample {
        last: Option<Instant>,
        durs: [u64; PROFILE_PHASES.len()],
        marked: [bool; PROFILE_PHASES.len()],
    }

    impl PacketSample {
        #[inline]
        fn inert() -> Self {
            PacketSample {
                last: None,
                durs: [0; PROFILE_PHASES.len()],
                marked: [false; PROFILE_PHASES.len()],
            }
        }

        /// Closes the phase that just ran: attributes the time since the
        /// previous mark (or since `begin`) to `phase`.
        #[inline]
        pub fn mark(&mut self, phase: Phase) {
            if let Some(last) = self.last {
                let now = Instant::now();
                self.durs[phase as usize] += now.duration_since(last).as_nanos() as u64;
                self.marked[phase as usize] = true;
                self.last = Some(now);
            }
        }
    }
}

#[cfg(not(feature = "profiling"))]
mod imp {
    use super::{Phase, StageProfile};

    /// The per-pipeline sampling profiler (feature `profiling` off: a
    /// zero-sized no-op, so the hot path is untouched).
    #[derive(Debug, Clone, Default)]
    pub struct HotPathProfiler;

    impl HotPathProfiler {
        /// No-op constructor (feature off).
        pub fn with_interval(_interval: u64) -> Self {
            HotPathProfiler
        }

        /// No-op (feature off).
        pub fn set_interval(&mut self, _interval: u64) {}

        /// Always 0 (feature off).
        pub fn interval(&self) -> u64 {
            0
        }

        /// No-op (feature off).
        #[inline(always)]
        pub fn begin(&mut self) -> PacketSample {
            PacketSample
        }

        /// No-op (feature off).
        #[inline(always)]
        pub fn commit(&mut self, _sample: PacketSample) {}

        /// Always empty (feature off).
        pub fn profile(&self) -> StageProfile {
            StageProfile::default()
        }
    }

    /// One packet's in-flight phase timings (feature off: zero-sized).
    #[derive(Debug)]
    pub struct PacketSample;

    impl PacketSample {
        /// No-op (feature off).
        #[inline(always)]
        pub fn mark(&mut self, _phase: Phase) {}
    }
}

pub use imp::{HotPathProfiler, PacketSample};

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

    #[cfg(feature = "profiling")]
    #[test]
    fn profiler_samples_one_in_n() {
        let mut profiler = HotPathProfiler::with_interval(4);
        for _ in 0..16 {
            let mut sample = profiler.begin();
            sample.mark(Phase::Filter);
            sample.mark(Phase::Parse);
            profiler.commit(sample);
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
            let sample = profiler.begin();
            profiler.commit(sample);
        }
        assert_eq!(profiler.profile().sampled, 4, "interval 0 disables");
    }

    #[cfg(not(feature = "profiling"))]
    #[test]
    fn disabled_profiler_is_inert() {
        let mut profiler = HotPathProfiler::with_interval(1);
        let mut sample = profiler.begin();
        sample.mark(Phase::Filter);
        profiler.commit(sample);
        assert!(profiler.profile().is_empty());
        assert_eq!(profiler.interval(), 0);
        assert_eq!(std::mem::size_of::<PacketSample>(), 0);
    }
}
