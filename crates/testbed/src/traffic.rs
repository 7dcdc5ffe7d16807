//! Traffic generation: the simulated MoonGen / Spirent.

use menshen_packet::{Packet, PacketBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator of VLAN-tagged UDP test traffic with controllable frame size
/// and per-module mix — the role MoonGen \[42\] and the Spirent tester play in
/// the paper's testbed.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    rng: StdRng,
    builder: PacketBuilder,
}

impl TrafficGenerator {
    /// Creates a deterministic generator from a seed.
    pub fn new(seed: u64) -> Self {
        TrafficGenerator {
            rng: StdRng::seed_from_u64(seed),
            builder: PacketBuilder::new(),
        }
    }

    /// Generates one frame of exactly `frame_len` bytes for `module_id`,
    /// with randomised flow identifiers.
    pub fn frame(&mut self, module_id: u16, frame_len: usize) -> Packet {
        let src_last = self.rng.gen_range(1..250);
        let src_port = self.rng.gen_range(1024..65000);
        self.builder
            .clone()
            .with_vlan(module_id)
            .build_udp_with_len([10, 0, 0, src_last], [10, 0, 1, 1], src_port, 80, frame_len)
    }

    /// Generates `count` frames of `frame_len` bytes for `module_id`.
    pub fn burst(&mut self, module_id: u16, frame_len: usize, count: usize) -> Vec<Packet> {
        (0..count)
            .map(|_| self.frame(module_id, frame_len))
            .collect()
    }

    /// Generates a burst whose packets are spread over `modules` according to
    /// `mix` (weights need not be normalised).
    pub fn mixed_burst(&mut self, mix: &RateMix, frame_len: usize, count: usize) -> Vec<Packet> {
        (0..count)
            .map(|_| {
                let module = mix.sample(&mut self.rng);
                self.frame(module, frame_len)
            })
            .collect()
    }
}

/// Why a [`RateMix`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateMixError {
    /// The mix has no entries at all.
    Empty,
    /// A weight is negative or not finite (position and offending value).
    InvalidWeight {
        /// Index of the bad entry.
        index: usize,
        /// The weight that was rejected.
        weight: f64,
    },
    /// All weights are zero, so no module could ever be sampled.
    ZeroTotal,
}

impl std::fmt::Display for RateMixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateMixError::Empty => write!(f, "rate mix has no entries"),
            RateMixError::InvalidWeight { index, weight } => {
                write!(f, "rate mix entry {index} has invalid weight {weight}")
            }
            RateMixError::ZeroTotal => write!(f, "rate mix weights sum to zero"),
        }
    }
}

impl std::error::Error for RateMixError {}

/// A weighted mix of modules, e.g. the 5:3:2 split of Figure 10.
#[derive(Debug, Clone)]
pub struct RateMix {
    entries: Vec<(u16, f64)>,
    total: f64,
}

impl RateMix {
    /// Builds a mix from `(module_id, weight)` pairs.
    ///
    /// Rejects degenerate mixes up front instead of letting them surface as
    /// a bogus default at `sample` time: the mix must be non-empty, every
    /// weight must be finite and non-negative, and at least one weight must
    /// be positive.
    pub fn new(entries: Vec<(u16, f64)>) -> Result<Self, RateMixError> {
        if entries.is_empty() {
            return Err(RateMixError::Empty);
        }
        for (index, (_, weight)) in entries.iter().enumerate() {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(RateMixError::InvalidWeight {
                    index,
                    weight: *weight,
                });
            }
        }
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        if total <= 0.0 {
            return Err(RateMixError::ZeroTotal);
        }
        Ok(RateMix { entries, total })
    }

    /// The fraction of traffic belonging to `module_id`.
    pub fn share(&self, module_id: u16) -> f64 {
        self.entries
            .iter()
            .filter(|(m, _)| *m == module_id)
            .map(|(_, w)| w / self.total)
            .sum()
    }

    /// The module IDs in the mix.
    pub fn modules(&self) -> Vec<u16> {
        self.entries.iter().map(|(m, _)| *m).collect()
    }

    /// Samples one module according to the weights. Zero-weight entries are
    /// never selected (construction guarantees at least one positive weight).
    pub fn sample(&self, rng: &mut impl Rng) -> u16 {
        let mut roll = rng.gen_range(0.0..self.total);
        for (module, weight) in &self.entries {
            if *weight > 0.0 && roll < *weight {
                return *module;
            }
            roll -= weight;
        }
        // Floating-point edge (roll accumulated to ~total): fall back to the
        // last entry that can legitimately be sampled.
        self.entries
            .iter()
            .rev()
            .find(|(_, weight)| *weight > 0.0)
            .map(|(module, _)| *module)
            .expect("a validated mix has at least one positive weight")
    }
}

/// The packet sizes swept by the Figure 11 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeSweep {
    /// 64–512 bytes: the NetFPGA (10 GbE) sweep of Figure 11a.
    NetFpga,
    /// 70–1500 bytes: the Corundum (100 GbE) sweep of Figures 11b–d.
    Corundum,
}

impl SizeSweep {
    /// The frame sizes of the sweep, in bytes.
    pub fn sizes(&self) -> &'static [usize] {
        match self {
            SizeSweep::NetFpga => &[64, 96, 128, 256, 512],
            SizeSweep::Corundum => &[70, 128, 256, 512, 768, 1024, 1500],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_have_requested_size_and_module() {
        let mut generator = TrafficGenerator::new(1);
        for &size in SizeSweep::Corundum.sizes() {
            let frame = generator.frame(9, size);
            assert_eq!(frame.len(), size);
            assert_eq!(frame.vlan_id().unwrap().value(), 9);
        }
        assert_eq!(generator.burst(3, 128, 10).len(), 10);
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<_> = TrafficGenerator::new(7).burst(1, 256, 5);
        let b: Vec<_> = TrafficGenerator::new(7).burst(1, 256, 5);
        assert_eq!(
            a.iter().map(|p| p.bytes().to_vec()).collect::<Vec<_>>(),
            b.iter().map(|p| p.bytes().to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rate_mix_rejects_degenerate_mixes() {
        assert_eq!(RateMix::new(vec![]).unwrap_err(), RateMixError::Empty);
        assert_eq!(
            RateMix::new(vec![(1, 0.0), (2, 0.0)]).unwrap_err(),
            RateMixError::ZeroTotal
        );
        assert_eq!(
            RateMix::new(vec![(1, 1.0), (2, -0.5)]).unwrap_err(),
            RateMixError::InvalidWeight {
                index: 1,
                weight: -0.5
            }
        );
        assert!(matches!(
            RateMix::new(vec![(1, f64::NAN)]).unwrap_err(),
            RateMixError::InvalidWeight { index: 0, .. }
        ));
        assert!(matches!(
            RateMix::new(vec![(1, f64::INFINITY)]).unwrap_err(),
            RateMixError::InvalidWeight { index: 0, .. }
        ));
    }

    #[test]
    fn zero_weight_entries_are_never_sampled() {
        let mix = RateMix::new(vec![(1, 0.0), (2, 1.0), (3, 0.0)]).unwrap();
        let mut generator = TrafficGenerator::new(11);
        for packet in generator.mixed_burst(&mix, 128, 500) {
            assert_eq!(packet.vlan_id().unwrap().value(), 2);
        }
        assert_eq!(mix.share(1), 0.0);
        assert_eq!(mix.share(2), 1.0);
    }

    #[test]
    fn rate_mix_shares_and_sampling() {
        let mix = RateMix::new(vec![(1, 5.0), (2, 3.0), (3, 2.0)]).unwrap();
        assert!((mix.share(1) - 0.5).abs() < 1e-9);
        assert!((mix.share(3) - 0.2).abs() < 1e-9);
        assert_eq!(mix.share(9), 0.0);
        assert_eq!(mix.modules(), vec![1, 2, 3]);

        let mut generator = TrafficGenerator::new(42);
        let burst = generator.mixed_burst(&mix, 200, 2000);
        let count1 = burst
            .iter()
            .filter(|p| p.vlan_id().unwrap().value() == 1)
            .count();
        let count3 = burst
            .iter()
            .filter(|p| p.vlan_id().unwrap().value() == 3)
            .count();
        assert!(count1 > count3, "module 1 gets the largest share");
        assert!((count1 as f64 / 2000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn sweeps_match_figure_axes() {
        assert_eq!(SizeSweep::NetFpga.sizes()[0], 64);
        assert_eq!(*SizeSweep::Corundum.sizes().last().unwrap(), 1500);
    }
}
