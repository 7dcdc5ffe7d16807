//! The packet filter at the head of the Menshen pipeline.
//!
//! The filter (§3.1, §4.1) separates untrusted data packets from
//! reconfiguration packets (recognised by UDP destination port `0xf1f2`),
//! discards data packets that carry no VLAN tag (and therefore no module ID),
//! drops data packets of a module that is currently being reconfigured (so
//! in-flight packets are never processed by a partially-written
//! configuration), and tags accepted packets with a packet-buffer number in
//! round-robin order for the parallel deparsers (§3.2).
//!
//! Two software-visible registers are exposed: the 32-bit "being
//! reconfigured" bitmap and the reconfiguration-packet counter.

use menshen_packet::Packet;

/// Number of parallel packet buffers/deparsers the filter round-robins over.
pub const NUM_PACKET_BUFFERS: u8 = 4;

/// Module slots the "being reconfigured" bitmap can mark: one per bit of the
/// 32-bit register. The pipeline never binds a module to a slot past this,
/// because the filter could not stop that module's packets mid-rewrite.
pub(crate) const RECONFIG_BITMAP_SLOTS: usize = u32::BITS as usize;

/// What the filter decided to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// A data packet for `module_id`, assigned to packet buffer `buffer_tag`.
    Data {
        /// The module (VLAN) ID extracted from the packet.
        module_id: u16,
        /// The packet buffer / deparser this packet is steered to.
        buffer_tag: u8,
    },
    /// A reconfiguration packet to be forwarded to the daisy chain. Only
    /// trusted sources (the software interface) may inject these; the caller
    /// decides based on where the packet came from.
    Reconfiguration,
    /// Dropped: the packet carries no VLAN tag, so no module can be selected.
    DropNoVlan,
    /// Dropped: the packet's module is currently being reconfigured.
    DropBeingReconfigured {
        /// The module in question.
        module_id: u16,
    },
}

/// Per-decision counters kept by the filter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterCounters {
    /// Data packets admitted.
    pub admitted: u64,
    /// Packets dropped for missing VLAN tags.
    pub dropped_no_vlan: u64,
    /// Packets dropped because their module was being reconfigured.
    pub dropped_reconfiguring: u64,
    /// Reconfiguration packets observed.
    pub reconfig_seen: u64,
}

/// The packet filter.
#[derive(Debug, Clone, Default)]
pub struct PacketFilter {
    /// Bit `i` set means the module occupying slot `i` is being reconfigured.
    bitmap: u32,
    /// Map from bitmap bit to module ID, so data packets can be matched
    /// against the bitmap (the prototype stores this association in software;
    /// keeping it here keeps the filter self-contained).
    slot_modules: [Option<u16>; RECONFIG_BITMAP_SLOTS],
    /// Counts reconfiguration packets that passed through the daisy chain.
    reconfig_counter: u32,
    next_buffer: u8,
    counters: FilterCounters,
}

impl PacketFilter {
    /// Creates a filter with a clear bitmap and zero counters.
    pub fn new() -> Self {
        PacketFilter::default()
    }

    /// Associates a bitmap bit (module slot) with a module ID.
    pub fn bind_slot(&mut self, slot: usize, module_id: u16) {
        if slot < RECONFIG_BITMAP_SLOTS {
            self.slot_modules[slot] = Some(module_id);
        }
    }

    /// Removes the association for a slot.
    pub fn unbind_slot(&mut self, slot: usize) {
        if slot < RECONFIG_BITMAP_SLOTS {
            self.slot_modules[slot] = None;
            self.bitmap &= !(1 << slot);
        }
    }

    /// Reads the "being reconfigured" bitmap (software register).
    pub fn bitmap(&self) -> u32 {
        self.bitmap
    }

    /// Writes the "being reconfigured" bitmap (software register).
    pub fn set_bitmap(&mut self, bitmap: u32) {
        self.bitmap = bitmap;
    }

    /// Marks one slot as being reconfigured.
    pub fn mark_reconfiguring(&mut self, slot: usize) {
        if slot < RECONFIG_BITMAP_SLOTS {
            self.bitmap |= 1 << slot;
        }
    }

    /// Clears one slot's reconfiguration mark.
    pub fn clear_reconfiguring(&mut self, slot: usize) {
        if slot < RECONFIG_BITMAP_SLOTS {
            self.bitmap &= !(1 << slot);
        }
    }

    /// Reads the reconfiguration-packet counter (software register).
    pub fn reconfig_counter(&self) -> u32 {
        self.reconfig_counter
    }

    /// Increments the reconfiguration-packet counter; called by the daisy
    /// chain when a reconfiguration packet has been applied.
    pub fn count_reconfig_packet(&mut self) {
        self.reconfig_counter = self.reconfig_counter.wrapping_add(1);
    }

    /// Filter statistics.
    pub fn counters(&self) -> FilterCounters {
        self.counters
    }

    /// Clears the filter's dynamic state — decision counters, the
    /// reconfiguration-packet counter and the buffer-tag round-robin position
    /// — while keeping its configuration (slot bindings and the "being
    /// reconfigured" bitmap). Used when snapshotting a pipeline into a fresh
    /// replica for a new worker shard.
    pub fn reset_dynamic_state(&mut self) {
        self.counters = FilterCounters::default();
        self.reconfig_counter = 0;
        self.next_buffer = 0;
    }

    /// Returns true if the module occupying any marked slot matches `module_id`.
    fn module_is_reconfiguring(&self, module_id: u16) -> bool {
        (0..RECONFIG_BITMAP_SLOTS).any(|slot| {
            self.bitmap & (1 << slot) != 0 && self.slot_modules[slot] == Some(module_id)
        })
    }

    /// Classifies one incoming packet.
    pub fn classify(&mut self, packet: &Packet) -> FilterDecision {
        if packet.is_reconfiguration() {
            self.counters.reconfig_seen += 1;
            return FilterDecision::Reconfiguration;
        }
        let module_id = match packet.vlan_id() {
            Ok(vid) => vid.value(),
            Err(_) => {
                self.counters.dropped_no_vlan += 1;
                return FilterDecision::DropNoVlan;
            }
        };
        if self.module_is_reconfiguring(module_id) {
            self.counters.dropped_reconfiguring += 1;
            return FilterDecision::DropBeingReconfigured { module_id };
        }
        let buffer_tag = self.next_buffer;
        self.next_buffer = (self.next_buffer + 1) % NUM_PACKET_BUFFERS;
        self.counters.admitted += 1;
        FilterDecision::Data {
            module_id,
            buffer_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_packet::{PacketBuilder, RECONFIG_UDP_DPORT};

    fn data_packet(vlan: u16) -> Packet {
        PacketBuilder::udp_data(vlan, [10, 0, 0, 1], [10, 0, 0, 2], 1, 2, &[0u8; 8])
    }

    #[test]
    fn classifies_data_and_reconfig() {
        let mut filter = PacketFilter::new();
        match filter.classify(&data_packet(7)) {
            FilterDecision::Data {
                module_id,
                buffer_tag,
            } => {
                assert_eq!(module_id, 7);
                assert_eq!(buffer_tag, 0);
            }
            other => panic!("unexpected decision {other:?}"),
        }
        let reconfig = PacketBuilder::udp_data(
            1,
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            9,
            RECONFIG_UDP_DPORT,
            &[0u8; 8],
        );
        assert_eq!(filter.classify(&reconfig), FilterDecision::Reconfiguration);
        assert_eq!(filter.counters().admitted, 1);
        assert_eq!(filter.counters().reconfig_seen, 1);
    }

    #[test]
    fn untagged_packets_dropped() {
        let mut filter = PacketFilter::new();
        let mut builder = PacketBuilder::new();
        builder.vlan = None;
        let pkt = builder.build_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, &[]);
        assert_eq!(filter.classify(&pkt), FilterDecision::DropNoVlan);
        assert_eq!(filter.counters().dropped_no_vlan, 1);
    }

    #[test]
    fn buffer_tags_round_robin() {
        let mut filter = PacketFilter::new();
        let tags: Vec<u8> = (0..8)
            .map(|_| match filter.classify(&data_packet(3)) {
                FilterDecision::Data { buffer_tag, .. } => buffer_tag,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn bitmap_drops_only_marked_module() {
        let mut filter = PacketFilter::new();
        filter.bind_slot(0, 10);
        filter.bind_slot(1, 11);
        filter.mark_reconfiguring(0);
        assert_eq!(filter.bitmap(), 1);
        assert_eq!(
            filter.classify(&data_packet(10)),
            FilterDecision::DropBeingReconfigured { module_id: 10 }
        );
        assert!(matches!(
            filter.classify(&data_packet(11)),
            FilterDecision::Data { module_id: 11, .. }
        ));
        filter.clear_reconfiguring(0);
        assert!(matches!(
            filter.classify(&data_packet(10)),
            FilterDecision::Data { module_id: 10, .. }
        ));
        assert_eq!(filter.counters().dropped_reconfiguring, 1);
    }

    #[test]
    fn software_registers() {
        let mut filter = PacketFilter::new();
        assert_eq!(filter.reconfig_counter(), 0);
        filter.count_reconfig_packet();
        filter.count_reconfig_packet();
        assert_eq!(filter.reconfig_counter(), 2);
        filter.set_bitmap(0xffff_ffff);
        assert_eq!(filter.bitmap(), 0xffff_ffff);
        filter.unbind_slot(3);
        assert_eq!(filter.bitmap() & (1 << 3), 0);
    }
}
