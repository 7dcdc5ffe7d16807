//! Per-packet state digests for State-Compute Replication (SCR).
//!
//! A non-mergeable stateful module cannot split its state across shard
//! replicas (last-writer-wins `store` has no well-defined merge), and until
//! this layer existed the runtime's only recourse was pinning the whole
//! tenant to one shard. SCR (arXiv 2309.14647) removes that ceiling by
//! replicating the state *computation* instead of partitioning the state:
//! every shard keeps a full copy of the module's stateful words, and for
//! every packet a shard does **not** receive, it receives a compact
//! [`StateDigest`] carrying exactly the header fields the module's parser
//! would have extracted. Replaying the digest through the module's own
//! match-action stages drives the ALUs over the same dataflow the owning
//! shard executed, so every replica's state words stay bit-identical by
//! construction.
//!
//! The digest is sufficient because the whole per-module dataflow — key
//! extraction, match predicates, and every ALU operand — reads only PHV
//! header containers, which are filled exclusively by the module's
//! [`ParserEntry`] actions (packet metadata never feeds matching or ALUs).
//! A [`DigestSpec`] is therefore just the module's parser projected into a
//! packet-to-container field list; [`DigestSpec::extract`] mirrors the
//! parser's wire reads exactly, including the short-packet zero-fill.

use menshen_packet::Packet;
use menshen_rmt::config::ParserEntry;
use menshen_rmt::phv::ContainerRef;

/// Maximum parser fields a digest can carry. Modules whose parsers extract
/// more fields than this fall back to tenant-affine pinning; the cap keeps
/// [`StateDigest`] a small, `Copy`, allocation-free ring item.
pub const DIGEST_MAX_FIELDS: usize = 8;

/// One field of a digest spec: where the module's parser reads it from the
/// wire and which PHV container it lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestField {
    /// Byte offset into the packet's header region.
    pub offset: u8,
    /// Destination PHV container (its width sets the read width).
    pub container: ContainerRef,
}

/// The per-module recipe for turning a packet into a [`StateDigest`]:
/// the minimal field set the module's stateful dataflow can observe,
/// derived from its parser entry at load time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestSpec {
    module: u16,
    fields: Vec<DigestField>,
}

impl DigestSpec {
    /// Builds the spec from a module's parser entry, or `None` if the parser
    /// extracts more than [`DIGEST_MAX_FIELDS`] fields (such modules stay
    /// pinned).
    pub fn from_parser(module: u16, parser: &ParserEntry) -> Option<Self> {
        if parser.actions.len() > DIGEST_MAX_FIELDS {
            return None;
        }
        Some(DigestSpec {
            module,
            fields: parser
                .actions
                .iter()
                .map(|action| DigestField {
                    offset: action.offset,
                    container: action.container,
                })
                .collect(),
        })
    }

    /// The module this spec digests for.
    pub fn module(&self) -> u16 {
        self.module
    }

    /// The projected parser fields.
    pub fn fields(&self) -> &[DigestField] {
        &self.fields
    }

    /// Extracts a digest from `packet`, to be replayed before the receiving
    /// shard's packet at index `before`. The wire reads mirror the parser
    /// exactly: big-endian at the field's offset, container-width bytes,
    /// zero when the packet is too short.
    pub fn extract(&self, packet: &Packet, before: u32) -> StateDigest {
        let mut digest = StateDigest {
            module: self.module,
            before,
            len: self.fields.len() as u8,
            fields: [(0, 0); DIGEST_MAX_FIELDS],
        };
        for (slot, field) in digest.fields.iter_mut().zip(self.fields.iter()) {
            let value = packet
                .read_be(usize::from(field.offset), field.container.width_bytes())
                .unwrap_or(0);
            *slot = (field.container.code(), value);
        }
        digest
    }
}

/// A compact record of one packet's parser-visible fields for one replicated
/// module, broadcast by the dispatcher to every shard that does not receive
/// the packet itself. `Copy` and fixed-size so digest bursts ride the same
/// allocation-free SPSC rings as packet bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateDigest {
    module: u16,
    before: u32,
    len: u8,
    /// `(container code, value)` pairs; only the first `len` are meaningful.
    fields: [(u8, u64); DIGEST_MAX_FIELDS],
}

impl StateDigest {
    /// The module whose state this digest advances.
    pub fn module(&self) -> u16 {
        self.module
    }

    /// Index of the first packet in the receiving shard's burst that must be
    /// processed *after* this digest (the global-order interleave point).
    pub fn before(&self) -> u32 {
        self.before
    }

    /// The populated `(container code, value)` pairs.
    pub fn fields(&self) -> &[(u8, u64)] {
        &self.fields[..usize::from(self.len)]
    }

    /// The modelled wire cost of shipping this digest, in bytes: a 7-byte
    /// header (module + interleave point + field count) plus 9 bytes per
    /// field (container code + 64-bit value). This is the explicit
    /// digest-overhead knob the benches record as bytes/packet.
    pub fn wire_bytes(&self) -> usize {
        7 + 9 * usize::from(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_packet::PacketBuilder;
    use menshen_rmt::config::ParseAction;
    use menshen_rmt::phv::ContainerRef as C;

    fn parser() -> ParserEntry {
        ParserEntry::new(vec![
            ParseAction::new(34, C::h4(1)).unwrap(),
            ParseAction::new(40, C::h2(0)).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn spec_projects_parser_fields() {
        let spec = DigestSpec::from_parser(9, &parser()).unwrap();
        assert_eq!(spec.module(), 9);
        assert_eq!(spec.fields().len(), 2);
        assert_eq!(spec.fields()[0].offset, 34);
        assert_eq!(spec.fields()[0].container, C::h4(1));
    }

    #[test]
    fn oversized_parsers_are_rejected() {
        let actions: Vec<ParseAction> = (0..9)
            .map(|i| ParseAction::new(14 + 2 * i, C::h2(i % 8)).unwrap())
            .collect();
        let parser = ParserEntry::new(actions).unwrap();
        assert!(DigestSpec::from_parser(1, &parser).is_none());
    }

    #[test]
    fn extract_mirrors_parser_reads() {
        let spec = DigestSpec::from_parser(9, &parser()).unwrap();
        let packet =
            PacketBuilder::udp_data(9, [10, 0, 0, 1], [10, 0, 0, 2], 1000, 2000, &[7u8; 32]);
        let digest = spec.extract(&packet, 3);
        assert_eq!(digest.module(), 9);
        assert_eq!(digest.before(), 3);
        assert_eq!(digest.fields().len(), 2);
        let want4 = packet.read_be(34, 4).unwrap();
        let want2 = packet.read_be(40, 2).unwrap();
        assert_eq!(digest.fields()[0], (C::h4(1).code(), want4));
        assert_eq!(digest.fields()[1], (C::h2(0).code(), want2));
        assert_eq!(digest.wire_bytes(), 7 + 2 * 9);
    }

    #[test]
    fn out_of_frame_reads_zero_fill() {
        let wide = ParserEntry::new(vec![ParseAction::new(120, C::h6(0)).unwrap()]).unwrap();
        let spec = DigestSpec::from_parser(9, &wide).unwrap();
        let packet = PacketBuilder::udp_data(9, [10, 0, 0, 1], [10, 0, 0, 2], 1, 2, &[]);
        let digest = spec.extract(&packet, 0);
        assert_eq!(digest.fields(), &[(C::h6(0).code(), 0)]);
    }
}
