//! Seeded generation of tenants and traffic. Everything here is plain data:
//! the program under test only ever sees the frames and tenant
//! configurations `sut` builds from these descriptions.
//!
//! The same seed gives byte-identical frames; each frame description also
//! says what the generator expects to happen to it, which the oracle checks
//! the lone reference pipeline against before it is trusted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Tenants (VLAN 1..=8) of the common `mix8` traffic.
pub const MIX8_TENANTS: u16 = 8;
/// Exact-match rules per tenant in stage 0: 8 × 150 = 1 200 CAM entries.
pub const RULES_PER_TENANT: usize = 150;
/// Distinct 5-tuples in `mix8`.
pub const MIX8_FLOWS: usize = 4096;
/// Frames in the `mix8` pool: every flow appears exactly four times, so the
/// hit / miss / filter-drop shares are exact, not sampled.
pub const MIX8_POOL: usize = 4 * MIX8_FLOWS;
/// Shares of `mix8` flows (and so of frames): a rule hit, a table miss, and a
/// VLAN no module is loaded for — the share that leaves the fast path.
pub const MIX8_MISS_SHARE: f64 = 0.08;
pub const MIX8_UNLOADED_SHARE: f64 = 0.02;
/// The VLAN that never has a module.
pub const UNLOADED_VLAN: u16 = 99;
/// UDP destination port every generated frame carries on the way in.
pub const INGRESS_DST_PORT: u16 = 80;
/// Frames are submitted and materialised in chunks of this many — what an rx
/// loop hands over at a time.
pub const CHUNK: usize = 256;
/// The pipeline processes bursts of this many (the runtime's own burst size).
pub const BURST: usize = 32;

/// Tenants of the LPM workload and the /24 prefixes each installs.
pub const LPM_TENANTS: u16 = 4;
pub const LPM_RULES_PER_TENANT: usize = 250_000;
pub const LPM_POOL: usize = 65_536;
/// Share of LPM destinations outside every installed prefix.
pub const LPM_MISS_SHARE: f64 = 0.20;

/// Frame lengths of the UDP service workload (without FCS; 64 / 512 / 1400 B
/// on the wire) and their 7:4:1 weights.
pub const SERVICE_FRAME_LENS: [(usize, u32); 3] = [(60, 7), (508, 4), (1396, 1)];

/// Ethernet + 802.1Q + IPv4 + UDP: where a frame's UDP payload begins. The
/// first four payload bytes carry the sequence number.
pub const PAYLOAD_OFFSET: usize = 46;
/// Minimum payload: 4-byte sequence number + 4 bytes of padding.
pub const MIN_PAYLOAD: usize = 8;

/// What the generator expects the pipeline to do with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Forwarded with the UDP destination port rewritten to this value.
    Rewritten(u16),
    /// Forwarded untouched: the tenant is loaded but no rule matches.
    Untouched,
    /// Dropped by the packet filter: no module is loaded for the VLAN.
    FilterDrop,
}

/// One frame of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpec {
    pub vlan: u16,
    pub src_ip: [u8; 4],
    pub dst_ip: [u8; 4],
    pub src_port: u16,
    pub payload_len: usize,
    pub expect: Expect,
}

/// One tenant's match table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Table {
    /// Exact match on the destination IP; a hit rewrites the UDP destination
    /// port to `port` and bumps an additive counter.
    Exact { dst_ips: Vec<u32>, port: u16 },
    /// Longest-prefix match on the destination IP over /24 prefixes; prefix
    /// `i` rewrites the port to `ports[i % 2]`.
    Lpm { prefixes: Vec<u32>, ports: [u16; 2] },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    pub id: u16,
    pub table: Table,
    /// The hit action also stores the destination IP into a stateful word:
    /// non-mergeable state, so the tenant classifies `Replicated`.
    pub stores: bool,
}

/// Tenants plus the frame pool the workloads cycle through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    pub tenants: Vec<TenantSpec>,
    pub frames: Vec<FrameSpec>,
}

fn ip(value: u32) -> [u8; 4] {
    value.to_be_bytes()
}

/// The common traffic: 8 tenants × 150 exact rules, 4 096 flows. Tenants
/// `1..=storing` also store (see [`TenantSpec::stores`]); `service_sizes`
/// draws frame lengths from [`SERVICE_FRAME_LENS`] instead of the minimum.
pub fn mix8(seed: u64, storing: u16, service_sizes: bool) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants: Vec<TenantSpec> = (1..=MIX8_TENANTS)
        .map(|id| {
            // 10.<tenant>.x.y with distinct random (x, y).
            let mut seen = HashSet::new();
            let mut dst_ips = Vec::with_capacity(RULES_PER_TENANT);
            while dst_ips.len() < RULES_PER_TENANT {
                let low: u32 = rng.gen_range(0..0x1_0000u32);
                if seen.insert(low) {
                    dst_ips.push(0x0a00_0000 | u32::from(id) << 16 | low);
                }
            }
            TenantSpec {
                id,
                table: Table::Exact {
                    dst_ips,
                    port: 9000 + id,
                },
                stores: id <= storing,
            }
        })
        .collect();

    let unloaded = (MIX8_FLOWS as f64 * MIX8_UNLOADED_SHARE).round() as usize;
    let misses = (MIX8_FLOWS as f64 * MIX8_MISS_SHARE).round() as usize;
    let mut tuples = HashSet::new();
    let mut flows = Vec::with_capacity(MIX8_FLOWS);
    while flows.len() < MIX8_FLOWS {
        let index = flows.len();
        let tenant = &tenants[rng.gen_range(0..tenants.len())];
        let Table::Exact { dst_ips, port } = &tenant.table else {
            unreachable!("mix8 tenants are exact-match");
        };
        let (vlan, dst, expect) = if index < unloaded {
            let dst = dst_ips[rng.gen_range(0..dst_ips.len())];
            (UNLOADED_VLAN, dst, Expect::FilterDrop)
        } else if index < unloaded + misses {
            // 11.<tenant>.x.y is in no tenant's rules.
            let dst = 0x0b00_0000 | u32::from(tenant.id) << 16 | rng.gen_range(0..0x1_0000u32);
            (tenant.id, dst, Expect::Untouched)
        } else {
            let dst = dst_ips[rng.gen_range(0..dst_ips.len())];
            (tenant.id, dst, Expect::Rewritten(*port))
        };
        let src = 0xac10_0000 | rng.gen_range(0..0x1_0000u32);
        let src_port: u16 = rng.gen_range(1024..=u16::MAX);
        if tuples.insert((vlan, src, dst, src_port)) {
            flows.push(FrameSpec {
                vlan,
                src_ip: ip(src),
                dst_ip: ip(dst),
                src_port,
                payload_len: MIN_PAYLOAD,
                expect,
            });
        }
    }

    let weight_total: u32 = SERVICE_FRAME_LENS.iter().map(|&(_, w)| w).sum();
    let mut frames = Vec::with_capacity(MIX8_POOL);
    for _ in 0..MIX8_POOL / MIX8_FLOWS {
        let mut pass = flows.clone();
        shuffle(&mut pass, &mut rng);
        frames.extend(pass);
    }
    if service_sizes {
        for frame in &mut frames {
            let mut draw = rng.gen_range(0..weight_total);
            for &(len, weight) in &SERVICE_FRAME_LENS {
                if draw < weight {
                    frame.payload_len = (len - PAYLOAD_OFFSET).max(MIN_PAYLOAD);
                    break;
                }
                draw -= weight;
            }
        }
    }
    Traffic { tenants, frames }
}

/// The LPM traffic: `LPM_TENANTS` tenants, `rules_per_tenant` /24 prefixes
/// each, grouped into full /16 blocks picked at random (the shape of a route
/// table: dense runs under shared parents). Destinations are uniform over
/// the installed prefixes, [`LPM_MISS_SHARE`] of them in a /16 the tenant
/// did not install.
pub fn lpm(seed: u64, rules_per_tenant: usize) -> Traffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = rules_per_tenant.div_ceil(256);
    let mut absent = Vec::with_capacity(LPM_TENANTS as usize);
    let tenants: Vec<TenantSpec> = (1..=LPM_TENANTS)
        .map(|id| {
            let mut chosen = HashSet::new();
            let mut order = Vec::with_capacity(blocks);
            while order.len() < blocks {
                // First octet 1..=223: unicast space.
                let block: u32 = rng.gen_range(0x0100..0xe000u32);
                if chosen.insert(block) {
                    order.push(block);
                }
            }
            let mut missing: u32 = rng.gen_range(0x0100..0xe000u32);
            while chosen.contains(&missing) {
                missing += 1;
            }
            absent.push(missing);
            let mut prefixes: Vec<u32> = order
                .iter()
                .flat_map(|&block| (0..256u32).map(move |third| block << 16 | third << 8))
                .collect();
            prefixes.truncate(rules_per_tenant);
            TenantSpec {
                id,
                table: Table::Lpm {
                    prefixes,
                    ports: [7000 + id, 7100 + id],
                },
                stores: false,
            }
        })
        .collect();

    let frames = (0..LPM_POOL)
        .map(|_| {
            let index = rng.gen_range(0..tenants.len());
            let tenant = &tenants[index];
            let Table::Lpm { prefixes, ports } = &tenant.table else {
                unreachable!("lpm tenants are prefix-match");
            };
            let host: u32 = rng.gen_range(0..256u32);
            let (dst, expect) = if rng.gen_bool(LPM_MISS_SHARE) {
                let third: u32 = rng.gen_range(0..256u32);
                (absent[index] << 16 | third << 8 | host, Expect::Untouched)
            } else {
                let rule = rng.gen_range(0..prefixes.len());
                (prefixes[rule] | host, Expect::Rewritten(ports[rule % 2]))
            };
            FrameSpec {
                vlan: tenant.id,
                src_ip: ip(0xac10_0000 | rng.gen_range(0..0x1_0000u32)),
                dst_ip: ip(dst),
                src_port: rng.gen_range(1024..=u16::MAX),
                payload_len: MIN_PAYLOAD,
                expect,
            }
        })
        .collect();
    Traffic { tenants, frames }
}

/// Fisher–Yates with the seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix8_has_exact_shares_and_distinct_flows() {
        let traffic = mix8(1, 0, false);
        assert_eq!(traffic.tenants.len(), 8);
        assert_eq!(traffic.frames.len(), MIX8_POOL);
        let count = |want: fn(&Expect) -> bool| {
            traffic.frames.iter().filter(|f| want(&f.expect)).count() as f64 / MIX8_POOL as f64
        };
        assert!((count(|e| matches!(e, Expect::FilterDrop)) - 0.02).abs() < 0.001);
        assert!((count(|e| matches!(e, Expect::Untouched)) - 0.08).abs() < 0.001);
        assert!((count(|e| matches!(e, Expect::Rewritten(_))) - 0.90).abs() < 0.001);
        let tuples: HashSet<_> = traffic
            .frames
            .iter()
            .map(|f| (f.vlan, f.src_ip, f.dst_ip, f.src_port))
            .collect();
        assert_eq!(tuples.len(), MIX8_FLOWS);
        assert!(traffic.tenants.iter().all(|t| !t.stores));
        assert_eq!(
            mix8(1, 2, false)
                .tenants
                .iter()
                .filter(|t| t.stores)
                .count(),
            2
        );
    }

    #[test]
    fn service_sizes_follow_the_weights() {
        let traffic = mix8(3, 0, true);
        let small = traffic
            .frames
            .iter()
            .filter(|f| f.payload_len == 60 - PAYLOAD_OFFSET)
            .count() as f64;
        let share = small / MIX8_POOL as f64;
        assert!((share - 7.0 / 12.0).abs() < 0.02, "small share {share}");
        assert!(traffic.frames.iter().any(|f| f.payload_len == 1396 - 46));
    }

    #[test]
    fn lpm_prefixes_are_distinct_slash24s_and_misses_miss() {
        let traffic = lpm(5, 1000);
        assert_eq!(traffic.frames.len(), LPM_POOL);
        for tenant in &traffic.tenants {
            let Table::Lpm { prefixes, .. } = &tenant.table else {
                panic!("lpm tenant");
            };
            assert_eq!(prefixes.len(), 1000);
            assert!(prefixes.iter().all(|p| p & 0xff == 0));
            let distinct: HashSet<_> = prefixes.iter().collect();
            assert_eq!(distinct.len(), prefixes.len());
        }
        for frame in &traffic.frames {
            let tenant = &traffic.tenants[usize::from(frame.vlan) - 1];
            let Table::Lpm { prefixes, .. } = &tenant.table else {
                panic!("lpm tenant");
            };
            let dst = u32::from_be_bytes(frame.dst_ip);
            let covered = prefixes.contains(&(dst & 0xffff_ff00));
            assert_eq!(covered, matches!(frame.expect, Expect::Rewritten(_)));
        }
    }

    #[test]
    fn same_seed_same_traffic_different_seed_different() {
        assert_eq!(mix8(42, 2, true), mix8(42, 2, true));
        assert_ne!(mix8(42, 0, false).frames, mix8(43, 0, false).frames);
        assert_eq!(lpm(42, 500), lpm(42, 500));
        assert_ne!(lpm(42, 500).frames, lpm(43, 500).frames);
    }
}
