//! RSS-style flow steering: Toeplitz hashing plus an indirection table.
//!
//! Receive-side scaling on a real NIC computes a Toeplitz hash over the
//! packet's flow identifiers and uses its low bits to index a small
//! *indirection table* (RETA) whose entries name receive queues — one per
//! worker core. This module reproduces that machinery in software:
//!
//! * [`toeplitz_hash`] is the bit-exact Toeplitz hash (verified against the
//!   published Microsoft RSS test vectors);
//! * [`RssHasher`] precomputes the per-byte XOR tables so the per-packet cost
//!   is one table lookup per input byte instead of one key-window fold per
//!   input *bit*;
//! * [`Steerer`] combines a hasher, a steering mode and an indirection table
//!   into the dispatcher's per-packet `packet → shard` decision.
//!
//! # Steering modes
//!
//! [`SteeringMode::TenantAffine`] (the default) hashes only the module ID
//! (the VLAN tag). All of a tenant's packets land on one shard, so the
//! tenant's stateful ALU words and per-module counters live on exactly one
//! pipeline replica and every isolation guarantee of the single-pipeline
//! model carries over unchanged — this is the mode under which the sharded
//! runtime is provably equivalent to one big pipeline (see the
//! `shard_equivalence` tests).
//!
//! [`SteeringMode::FiveTuple`] hashes the IPv4/UDP 5-tuple fields, spreading
//! one tenant's flows over all shards the way a NIC spreads connections over
//! cores. Per-flow relative order is still preserved and aggregated counters
//! still sum correctly. For *stateful* programs the steerer then supports
//! two regimes per module: mergeable state spreads freely (per-shard copies
//! sum exactly), and non-mergeable state is **replicated** via State-Compute
//! Replication: its flows spread like any other traffic while the dispatch
//! plane broadcasts per-packet state digests so every shard replays the
//! module's state transitions in the same global order. Every loaded
//! parser projects into a digest, so no module needs a single owner.

use menshen_core::DigestSpec;
use menshen_packet::Packet;
use std::collections::HashMap;
use std::sync::Arc;

/// Length in bytes of the RSS secret key.
pub const RSS_KEY_LEN: usize = 40;

/// The canonical Microsoft RSS test key, used as the default secret. Any
/// 40-byte key works; this one makes the implementation verifiable against
/// the published test vectors.
pub const DEFAULT_RSS_KEY: [u8; RSS_KEY_LEN] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Number of entries in the indirection table (RETA). 128 matches common
/// NIC hardware and keeps redistribution granular when shard counts are not
/// powers of two.
pub const RETA_SIZE: usize = 128;

/// Maximum hashed input length: src IP (4) + dst IP (4) + src port (2) +
/// dst port (2).
pub const MAX_HASH_INPUT: usize = 12;

/// Computes the Toeplitz hash of `data` under `key`, bit-serially — the
/// reference definition. `data` must fit the key window
/// (`data.len() * 8 + 32 <= key.len() * 8`).
pub fn toeplitz_hash(key: &[u8; RSS_KEY_LEN], data: &[u8]) -> u32 {
    assert!(
        data.len() * 8 + 32 <= RSS_KEY_LEN * 8,
        "input of {} bytes overruns the {RSS_KEY_LEN}-byte key window",
        data.len()
    );
    let mut result = 0u32;
    for (byte_index, &byte) in data.iter().enumerate() {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                result ^= key_window(key, byte_index * 8 + bit);
            }
        }
    }
    result
}

/// The 32 bits of `key` starting at bit offset `offset`.
fn key_window(key: &[u8; RSS_KEY_LEN], offset: usize) -> u32 {
    let byte = offset / 8;
    let shift = offset % 8;
    let mut window = 0u64;
    for i in 0..5 {
        window = (window << 8) | u64::from(key[byte + i]);
    }
    ((window >> (8 - shift)) & 0xffff_ffff) as u32
}

/// A Toeplitz hasher with precomputed per-byte XOR tables: hashing costs one
/// table lookup per input byte (the dispatcher's per-packet budget) instead
/// of one key-window fold per input bit.
#[derive(Debug, Clone)]
pub struct RssHasher {
    /// `tables[i][b]` is the hash contribution of byte value `b` at input
    /// position `i`.
    tables: Vec<[u32; 256]>,
}

impl Default for RssHasher {
    fn default() -> Self {
        RssHasher::new(&DEFAULT_RSS_KEY)
    }
}

impl RssHasher {
    /// Builds the lookup tables for `key`, covering inputs up to
    /// [`MAX_HASH_INPUT`] bytes.
    pub fn new(key: &[u8; RSS_KEY_LEN]) -> Self {
        let mut tables = Vec::with_capacity(MAX_HASH_INPUT);
        for position in 0..MAX_HASH_INPUT {
            let mut table = [0u32; 256];
            // Contributions are linear in the bits, so build the table from
            // the eight single-bit windows.
            let mut bit_windows = [0u32; 8];
            for (bit, window) in bit_windows.iter_mut().enumerate() {
                *window = key_window(key, position * 8 + bit);
            }
            for (value, slot) in table.iter_mut().enumerate() {
                let mut acc = 0u32;
                for (bit, window) in bit_windows.iter().enumerate() {
                    if value & (0x80 >> bit) != 0 {
                        acc ^= window;
                    }
                }
                *slot = acc;
            }
            tables.push(table);
        }
        RssHasher { tables }
    }

    /// Hashes `data` (at most [`MAX_HASH_INPUT`] bytes).
    pub fn hash(&self, data: &[u8]) -> u32 {
        debug_assert!(data.len() <= MAX_HASH_INPUT);
        let mut result = 0u32;
        for (position, &byte) in data.iter().enumerate() {
            result ^= self.tables[position][usize::from(byte)];
        }
        result
    }
}

/// Which flow identifiers steer a packet to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SteeringMode {
    /// Hash the module ID (VLAN tag) only: every tenant lands on one
    /// shard, so stateful programs and per-module counters stay shard-local
    /// and the sharded runtime is exactly equivalent to a single pipeline.
    #[default]
    TenantAffine,
    /// Hash the IPv4/UDP 5-tuple fields: one tenant's flows spread across
    /// all shards. Only semantics-preserving for modules whose state is
    /// mergeable across replicas (counters and other commutative state).
    FiveTuple,
}

/// The dispatcher's per-packet steering decision: Toeplitz hash → indirection
/// table → shard index.
///
/// Beyond the classic hash + RETA, the steerer supports two control-plane
/// operations that live resharding is built on:
///
/// * **RETA rewrite** ([`retarget`](Self::retarget) /
///   [`set_reta`](Self::set_reta)): the indirection table can be rebuilt for
///   a new shard count or replaced wholesale, exactly like writing a NIC's
///   indirection table at runtime. The sharded runtime publishes rewrites
///   only at a full quiesce, after migrating the moving tenants' state.
/// * **State-compute replication**
///   ([`set_replicated`](Self::set_replicated)): a non-mergeable module
///   spreads its flows like any other traffic, described by the compact
///   [`DigestSpec`] its parser projects into. The dispatcher consults
///   [`digest_spec_for`](Self::digest_spec_for) per packet and broadcasts a
///   state digest to every non-owning shard, and
///   [`dispatcher_for`](Self::dispatcher_for) routes *all* of the module's
///   packets through one dispatcher so every replica observes the module's
///   state transitions in one global order.
#[derive(Debug, Clone)]
pub struct Steerer {
    hasher: RssHasher,
    mode: SteeringMode,
    reta: [u16; RETA_SIZE],
    shards: usize,
    /// Modules running replicated under State-Compute Replication, with the
    /// digest spec the dispatch plane extracts per packet. Their flows
    /// spread; their state digests broadcast. Empty in tenant-affine mode.
    replicated: HashMap<u16, Arc<DigestSpec>>,
}

impl Steerer {
    /// Builds a steerer over `shards` shards with the default key, filling
    /// the indirection table round-robin (the usual driver default).
    pub fn new(mode: SteeringMode, shards: usize) -> Self {
        assert!(shards > 0, "a steerer needs at least one shard");
        Steerer {
            hasher: RssHasher::default(),
            mode,
            reta: Self::round_robin_reta(shards),
            shards,
            replicated: HashMap::new(),
        }
    }

    /// The driver-default indirection table: entries rotate round-robin over
    /// `shards` shards.
    pub fn round_robin_reta(shards: usize) -> [u16; RETA_SIZE] {
        assert!(shards > 0, "a RETA needs at least one shard");
        let mut reta = [0u16; RETA_SIZE];
        for (i, entry) in reta.iter_mut().enumerate() {
            *entry = (i % shards) as u16;
        }
        reta
    }

    /// The number of shards this steerer spreads over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The steering mode.
    pub fn mode(&self) -> SteeringMode {
        self.mode
    }

    /// The current indirection table.
    pub fn reta(&self) -> &[u16; RETA_SIZE] {
        &self.reta
    }

    /// Rewrites the steerer for a new shard count with the round-robin
    /// default table — the scale-out/in entry point.
    pub fn retarget(&mut self, shards: usize) {
        assert!(shards > 0, "a steerer needs at least one shard");
        self.shards = shards;
        self.reta = Self::round_robin_reta(shards);
    }

    /// Replaces the indirection table wholesale. Every entry must name an
    /// existing shard.
    pub fn set_reta(&mut self, reta: [u16; RETA_SIZE]) {
        assert!(
            reta.iter().all(|&entry| usize::from(entry) < self.shards),
            "RETA entries must name shards below {}",
            self.shards
        );
        self.reta = reta;
    }

    /// Marks `module` as replicated under State-Compute Replication: its
    /// flows spread by the 5-tuple hash while the dispatch plane extracts
    /// `spec` digests from its packets and broadcasts them to every
    /// non-owning shard. Returns true if the entry changed — including an
    /// update that only changes the spec, which dispatchers must pick up.
    pub fn set_replicated(&mut self, module: u16, spec: Arc<DigestSpec>) -> bool {
        let changed = self.replicated.get(&module) != Some(&spec);
        self.replicated.insert(module, spec);
        changed
    }

    /// Clears a module's replicated entry. Returns true if it existed.
    pub fn clear_replicated(&mut self, module: u16) -> bool {
        self.replicated.remove(&module).is_some()
    }

    /// True when `module` runs replicated (digest-broadcast) rather than
    /// plain-mergeable.
    pub fn is_replicated(&self, module: u16) -> bool {
        self.replicated.contains_key(&module)
    }

    /// The replicated modules, sorted (telemetry/test surface).
    pub fn replicated_modules(&self) -> Vec<u16> {
        let mut replicated: Vec<u16> = self.replicated.keys().copied().collect();
        replicated.sort_unstable();
        replicated
    }

    /// The digest spec of a replicated module, if any.
    pub fn digest_spec(&self, module: u16) -> Option<&Arc<DigestSpec>> {
        self.replicated.get(&module)
    }

    /// The digest spec a dispatcher must extract from `packet`, when the
    /// packet belongs to a replicated module. One empty-map check on the
    /// per-packet hot path when no module is replicated.
    pub fn digest_spec_for(&self, packet: &Packet) -> Option<&DigestSpec> {
        if self.replicated.is_empty() {
            return None;
        }
        let vid = packet.vlan_id().ok()?;
        self.replicated.get(&vid.value()).map(Arc::as_ref)
    }

    /// The dispatcher that owns *all* of a replicated module's traffic —
    /// digest broadcast is only order-preserving if one thread serialises
    /// the module's packets, so replicated modules trade dispatcher-level
    /// spray for a stable per-module dispatcher.
    pub fn replicated_dispatcher(&self, module: u16, dispatchers: usize) -> usize {
        (self.tenant_hash(module) as usize) % dispatchers.max(1)
    }

    /// The Toeplitz hash of a module's tenant identity (the VLAN ID) — the
    /// hash tenant-affine steering uses, exposed so the control plane can
    /// compute a tenant's owner shard without a packet in hand.
    pub fn tenant_hash(&self, module: u16) -> u32 {
        self.hasher.hash(&module.to_be_bytes())
    }

    /// The shard that owns all of `module`'s traffic under tenant-affine
    /// steering; `None` in 5-tuple mode, where every module's flows spread
    /// over shards.
    pub fn owner_shard(&self, module: u16) -> Option<usize> {
        match self.mode {
            SteeringMode::TenantAffine => Some(self.shard_for_hash(self.tenant_hash(module))),
            SteeringMode::FiveTuple => None,
        }
    }

    /// Steers one packet to a shard index in `0..shards`.
    ///
    /// Tenant-affine mode hashes the VLAN (module) ID; packets without a
    /// VLAN tag fall back to the 5-tuple hash (they will be dropped by the
    /// packet filter on whatever shard receives them, so their placement
    /// only needs to be deterministic, not tenant-stable). 5-tuple mode
    /// hashes src/dst IP and src/dst UDP port; non-IP packets hash whatever
    /// prefix of those fields exists (zeros otherwise).
    pub fn shard_for(&self, packet: &Packet) -> usize {
        self.shard_for_hash(self.flow_hash(packet))
    }

    /// The Toeplitz hash of `packet`'s steering fields under the current
    /// mode — the value whose low bits index the RETA.
    pub fn flow_hash(&self, packet: &Packet) -> u32 {
        let mut buf = [0u8; MAX_HASH_INPUT];
        let len = match self.mode {
            SteeringMode::TenantAffine => match packet.vlan_id() {
                Ok(vid) => {
                    buf[..2].copy_from_slice(&vid.value().to_be_bytes());
                    2
                }
                Err(_) => self.five_tuple_into(packet, &mut buf),
            },
            SteeringMode::FiveTuple => self.five_tuple_into(packet, &mut buf),
        };
        self.hasher.hash(&buf[..len])
    }

    /// The RETA entry a flow hash selects.
    pub fn reta_index(hash: u32) -> usize {
        (hash as usize) & (RETA_SIZE - 1)
    }

    /// The shard a precomputed [`flow_hash`](Self::flow_hash) steers to.
    pub fn shard_for_hash(&self, hash: u32) -> usize {
        usize::from(self.reta[Self::reta_index(hash)])
    }

    /// The contiguous slice of RETA entries dispatcher `dispatcher` (of
    /// `dispatchers`) owns under the per-NIC-queue partition: the table is
    /// split as evenly as 128 entries allow, earlier dispatchers taking the
    /// remainder. Together the slices cover the RETA exactly once — this is
    /// how a multi-queue NIC splits its indirection table over RX queues.
    pub fn reta_slice(dispatchers: usize, dispatcher: usize) -> std::ops::Range<usize> {
        assert!(dispatchers > 0, "at least one dispatcher");
        assert!(dispatcher < dispatchers, "dispatcher index out of range");
        let base = RETA_SIZE / dispatchers;
        let remainder = RETA_SIZE % dispatchers;
        let extra = dispatcher.min(remainder);
        let start = dispatcher * base + extra;
        let len = base + usize::from(dispatcher < remainder);
        start..start + len
    }

    /// The dispatcher that owns `packet` under the RETA partition of
    /// [`reta_slice`](Self::reta_slice): hash → RETA entry → owning slice.
    /// Flow-affine spray: every packet of one flow reaches the same
    /// dispatcher, preserving per-flow order end to end (at the cost of one
    /// hash on the ingress thread). A *replicated* module's packets all
    /// route to [`replicated_dispatcher`](Self::replicated_dispatcher)
    /// instead, so one thread serialises the module's digest stream.
    pub fn dispatcher_for(&self, packet: &Packet, dispatchers: usize) -> usize {
        assert!(dispatchers > 0, "at least one dispatcher");
        if !self.replicated.is_empty() {
            if let Ok(vid) = packet.vlan_id() {
                if self.replicated.contains_key(&vid.value()) {
                    return self.replicated_dispatcher(vid.value(), dispatchers);
                }
            }
        }
        let index = Self::reta_index(self.flow_hash(packet));
        // Invert the slice layout: the first `remainder` dispatchers hold
        // `base + 1` entries each.
        let base = RETA_SIZE / dispatchers;
        let remainder = RETA_SIZE % dispatchers;
        let wide = remainder * (base + 1);
        if index < wide {
            index / (base + 1)
        } else {
            remainder + (index - wide) / base
        }
    }

    fn five_tuple_into(&self, packet: &Packet, buf: &mut [u8; MAX_HASH_INPUT]) -> usize {
        // Walk the header chain once — this code runs per packet in the
        // dispatcher, which is the serial stage of the whole runtime, so it
        // must not re-parse per field the way the convenience accessors do.
        let headers = packet.parse_headers().ok();
        let ipv4 = headers.as_ref().and_then(|h| h.ipv4);
        if let Some(ip_offset) = ipv4 {
            let bytes = packet.bytes();
            if let Some(addrs) = bytes.get(ip_offset + 12..ip_offset + 20) {
                buf[..8].copy_from_slice(addrs); // src IP ++ dst IP
                let ports = headers
                    .as_ref()
                    .and_then(|h| h.udp)
                    .and_then(|udp_offset| bytes.get(udp_offset..udp_offset + 4));
                match ports {
                    Some(ports) => buf[8..12].copy_from_slice(ports),
                    None => buf[8..12].fill(0),
                }
                return MAX_HASH_INPUT;
            }
        }
        // No parseable IP header: hash the raw frame prefix so placement is
        // at least deterministic.
        let bytes = packet.bytes();
        let len = bytes.len().min(MAX_HASH_INPUT);
        buf[..len].copy_from_slice(&bytes[..len]);
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_packet::PacketBuilder;

    /// Builds the hash input of the Microsoft test vectors:
    /// src IP, dst IP, src port, dst port in network byte order.
    fn vector_input(
        src: [u8; 4],
        dst: [u8; 4],
        src_port: u16,
        dst_port: u16,
    ) -> [u8; MAX_HASH_INPUT] {
        let mut data = [0u8; MAX_HASH_INPUT];
        data[..4].copy_from_slice(&src);
        data[4..8].copy_from_slice(&dst);
        data[8..10].copy_from_slice(&src_port.to_be_bytes());
        data[10..12].copy_from_slice(&dst_port.to_be_bytes());
        data
    }

    /// One published RSS verification vector: endpoints, ports, and the
    /// expected hashes with and without the port fields.
    struct RssVector {
        src: [u8; 4],
        dst: [u8; 4],
        src_port: u16,
        dst_port: u16,
        with_ports: u32,
        ip_only: u32,
    }

    impl RssVector {
        const fn new(
            src: [u8; 4],
            dst: [u8; 4],
            src_port: u16,
            dst_port: u16,
            with_ports: u32,
            ip_only: u32,
        ) -> Self {
            RssVector {
                src,
                dst,
                src_port,
                dst_port,
                with_ports,
                ip_only,
            }
        }
    }

    #[test]
    fn toeplitz_matches_microsoft_test_vectors() {
        // Published RSS verification suite (IPv4 with TCP/UDP ports).
        let cases = [
            RssVector::new(
                [66, 9, 149, 187],
                [161, 142, 100, 80],
                2794,
                1766,
                0x51cc_c178,
                0x323e_8fc2,
            ),
            RssVector::new(
                [199, 92, 111, 2],
                [65, 69, 140, 83],
                14230,
                4739,
                0xc626_b0ea,
                0xd718_262a,
            ),
            RssVector::new(
                [24, 19, 198, 95],
                [12, 22, 207, 184],
                12898,
                38024,
                0x5c2b_394a,
                0xd2d0_a5de,
            ),
        ];
        for case in cases {
            let full = vector_input(case.src, case.dst, case.src_port, case.dst_port);
            assert_eq!(
                toeplitz_hash(&DEFAULT_RSS_KEY, &full),
                case.with_ports,
                "4-tuple vector {:?}",
                case.src
            );
            assert_eq!(
                toeplitz_hash(&DEFAULT_RSS_KEY, &full[..8]),
                case.ip_only,
                "2-tuple vector {:?}",
                case.src
            );
        }
    }

    #[test]
    fn table_driven_hasher_matches_reference() {
        let hasher = RssHasher::default();
        let data = vector_input([66, 9, 149, 187], [161, 142, 100, 80], 2794, 1766);
        for len in 0..=MAX_HASH_INPUT {
            assert_eq!(
                hasher.hash(&data[..len]),
                toeplitz_hash(&DEFAULT_RSS_KEY, &data[..len]),
                "prefix {len}"
            );
        }
    }

    #[test]
    fn tenant_affine_is_stable_per_tenant() {
        let steerer = Steerer::new(SteeringMode::TenantAffine, 4);
        for module in 1..=32u16 {
            let a = PacketBuilder::udp_data(module, [10, 0, 0, 1], [10, 0, 1, 1], 1111, 80, &[]);
            let b =
                PacketBuilder::udp_data(module, [10, 9, 9, 9], [10, 8, 8, 8], 65000, 443, &[0; 64]);
            assert_eq!(
                steerer.shard_for(&a),
                steerer.shard_for(&b),
                "module {module} must always steer to the same shard"
            );
            assert!(steerer.shard_for(&a) < 4);
        }
    }

    #[test]
    fn five_tuple_spreads_one_tenant_and_keeps_flows_stable() {
        let steerer = Steerer::new(SteeringMode::FiveTuple, 8);
        let mut seen = [false; 8];
        for flow in 0..256u16 {
            let packet = PacketBuilder::udp_data(
                7,
                [10, 0, (flow >> 8) as u8, flow as u8],
                [10, 0, 1, 1],
                1024 + flow,
                80,
                &[],
            );
            let shard = steerer.shard_for(&packet);
            seen[shard] = true;
            // Same 5-tuple, different payload: same shard.
            let again = PacketBuilder::udp_data(
                7,
                [10, 0, (flow >> 8) as u8, flow as u8],
                [10, 0, 1, 1],
                1024 + flow,
                80,
                &[0xab; 32],
            );
            assert_eq!(shard, steerer.shard_for(&again));
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 6,
            "256 flows should cover most of 8 shards, got {seen:?}"
        );
    }

    #[test]
    fn reta_slices_partition_the_table_exactly() {
        for dispatchers in 1..=9usize {
            let mut covered = [false; RETA_SIZE];
            let mut sizes = Vec::new();
            for dispatcher in 0..dispatchers {
                let slice = Steerer::reta_slice(dispatchers, dispatcher);
                sizes.push(slice.len());
                for entry in slice {
                    assert!(!covered[entry], "entry {entry} owned twice");
                    covered[entry] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "{dispatchers} dispatchers");
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "slices must be balanced: {sizes:?}");
        }
    }

    #[test]
    fn dispatcher_for_matches_the_reta_slice_owner() {
        let steerer = Steerer::new(SteeringMode::FiveTuple, 4);
        for dispatchers in [1usize, 2, 3, 4, 7] {
            for flow in 0..128u16 {
                let packet = PacketBuilder::udp_data(
                    3,
                    [10, 1, (flow >> 8) as u8, flow as u8],
                    [10, 0, 1, 1],
                    4000 + flow,
                    80,
                    &[],
                );
                let owner = steerer.dispatcher_for(&packet, dispatchers);
                assert!(owner < dispatchers);
                let index = Steerer::reta_index(steerer.flow_hash(&packet));
                assert!(
                    Steerer::reta_slice(dispatchers, owner).contains(&index),
                    "flow {flow}: dispatcher {owner} does not own RETA entry {index}"
                );
                // And the hash split never changes the shard decision.
                assert_eq!(
                    steerer.shard_for(&packet),
                    steerer.shard_for_hash(steerer.flow_hash(&packet))
                );
            }
        }
    }

    #[test]
    fn retarget_and_set_reta_redirect_flows() {
        let mut steerer = Steerer::new(SteeringMode::TenantAffine, 4);
        let packet = PacketBuilder::udp_data(9, [10, 0, 0, 1], [10, 0, 1, 1], 1111, 80, &[]);
        let before = steerer.shard_for(&packet);
        assert!(before < 4);
        // Scale out: same hash, wider table.
        steerer.retarget(8);
        assert_eq!(steerer.shards(), 8);
        assert!(steerer.shard_for(&packet) < 8);
        assert_eq!(
            steerer.owner_shard(9),
            Some(steerer.shard_for(&packet)),
            "owner_shard computes the same decision without a packet"
        );
        // Scale in to one shard: everything pins to 0.
        steerer.retarget(1);
        assert_eq!(steerer.shard_for(&packet), 0);
        // A custom RETA sends every flow to one chosen shard.
        steerer.retarget(4);
        steerer.set_reta([3u16; RETA_SIZE]);
        assert_eq!(steerer.shard_for(&packet), 3);
        assert_eq!(steerer.reta()[0], 3);
    }

    #[test]
    #[should_panic(expected = "RETA entries must name shards")]
    fn set_reta_rejects_out_of_range_entries() {
        let mut steerer = Steerer::new(SteeringMode::TenantAffine, 2);
        steerer.set_reta([2u16; RETA_SIZE]);
    }

    #[test]
    fn replicated_modules_spread_shards_but_share_a_dispatcher() {
        use menshen_rmt::config::{ParseAction, ParserEntry};
        use menshen_rmt::phv::ContainerRef;

        let mut steerer = Steerer::new(SteeringMode::FiveTuple, 8);
        let parser = ParserEntry::new(vec![
            ParseAction::new(34, ContainerRef::h4(1)).unwrap(),
            ParseAction::new(40, ContainerRef::h2(0)).unwrap(),
        ])
        .unwrap();
        let spec = Arc::new(DigestSpec::from_parser(7, &parser).unwrap());
        assert!(steerer.set_replicated(7, Arc::clone(&spec)));
        assert!(!steerer.set_replicated(7, Arc::clone(&spec)), "unchanged");
        // An update that only narrows the parser changes the entry.
        let narrow = ParserEntry::new(parser.actions[..1].to_vec()).unwrap();
        let narrow = Arc::new(DigestSpec::from_parser(7, &narrow).unwrap());
        assert!(steerer.set_replicated(7, narrow));
        assert!(steerer.set_replicated(7, Arc::clone(&spec)));
        assert!(steerer.is_replicated(7));
        assert_eq!(steerer.replicated_modules(), vec![7]);

        let flows: Vec<Packet> = (0..64u16)
            .map(|flow| {
                PacketBuilder::udp_data(
                    7,
                    [10, 0, 0, (1 + flow % 200) as u8],
                    [10, 0, 1, 1],
                    1024 + flow,
                    80,
                    &[],
                )
            })
            .collect();
        // Flows spread over shards exactly as if the module were unmarked —
        // replication never perturbs data-plane placement.
        let plain = Steerer::new(SteeringMode::FiveTuple, 8);
        for packet in &flows {
            assert_eq!(steerer.shard_for(packet), plain.shard_for(packet));
            assert!(steerer.digest_spec_for(packet).is_some());
        }
        let spread: std::collections::HashSet<usize> =
            flows.iter().map(|p| steerer.shard_for(p)).collect();
        assert!(spread.len() > 1, "replicated flows must spread");
        assert_eq!(
            steerer.owner_shard(7),
            None,
            "replicated modules are unowned"
        );

        // ... but every packet routes through the module's one dispatcher.
        for dispatchers in [1usize, 2, 3, 4] {
            let owner = steerer.replicated_dispatcher(7, dispatchers);
            assert!(owner < dispatchers);
            for packet in &flows {
                assert_eq!(steerer.dispatcher_for(packet, dispatchers), owner);
            }
        }
        // Other modules keep flow-affine spray and extract no digest.
        let other = PacketBuilder::udp_data(8, [10, 0, 0, 9], [10, 0, 1, 1], 2000, 80, &[]);
        assert!(steerer.digest_spec_for(&other).is_none());
        assert_eq!(
            steerer.dispatcher_for(&other, 4),
            plain.dispatcher_for(&other, 4)
        );

        assert!(steerer.clear_replicated(7));
        assert!(!steerer.is_replicated(7));
        assert!(steerer.digest_spec_for(&flows[0]).is_none());
    }

    #[test]
    fn single_shard_steering_is_trivial() {
        let steerer = Steerer::new(SteeringMode::TenantAffine, 1);
        let packet = PacketBuilder::udp_data(3, [10, 0, 0, 1], [10, 0, 1, 1], 1, 2, &[]);
        assert_eq!(steerer.shard_for(&packet), 0);
        // Untagged packets still steer deterministically.
        let mut builder = PacketBuilder::new();
        builder.vlan = None;
        let untagged = builder.build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        assert_eq!(steerer.shard_for(&untagged), 0);
    }
}
