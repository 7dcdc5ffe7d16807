//! Configuration-entry formats for the programmable elements.
//!
//! Every programmable element of the pipeline is driven by a table entry with
//! a fixed bit-level format (Figure 7 of the paper). This module defines the
//! structured form of those entries *and* their bit encodings, because the
//! Menshen reconfiguration path (daisy chain, §3.1/§4.1) ships raw entry bits
//! inside reconfiguration packets and the compiler must emit exactly these
//! encodings.

use crate::error::RmtError;
use crate::params::{KEY_BYTES, PARSE_ACTIONS_PER_ENTRY};
use crate::phv::{ContainerRef, ContainerType};
use crate::Result;

// ---------------------------------------------------------------------------
// Parser / deparser entries
// ---------------------------------------------------------------------------

/// One 16-bit parse action: extract `container.width_bytes()` bytes starting
/// at `offset` into `container` (§4.1).
///
/// Bit layout (most-significant first): 3 reserved bits, 7-bit byte offset,
/// 2-bit container type, 3-bit container index, 1 validity bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseAction {
    /// Byte offset from the start of the packet (0–127).
    pub offset: u8,
    /// Destination PHV container.
    pub container: ContainerRef,
}

impl ParseAction {
    /// Creates a parse action, validating the offset fits in 7 bits.
    pub fn new(offset: u8, container: ContainerRef) -> Result<Self> {
        if offset >= 128 {
            return Err(RmtError::FieldOverflow {
                field: "parse offset",
            });
        }
        Ok(ParseAction { offset, container })
    }

    /// Encodes the action into its 16-bit hardware format (validity bit set).
    pub fn encode(&self) -> u16 {
        (u16::from(self.offset & 0x7f) << 6)
            | (u16::from(self.container.ty.code()) << 4)
            | (u16::from(self.container.index & 0x7) << 1)
            | 1
    }

    /// Decodes a 16-bit parse action. Returns `Ok(None)` if the validity bit
    /// is clear (an unused slot in the entry).
    pub fn decode(bits: u16) -> Result<Option<Self>> {
        if bits & 1 == 0 {
            return Ok(None);
        }
        let offset = ((bits >> 6) & 0x7f) as u8;
        let ty = ContainerType::from_code(((bits >> 4) & 0x3) as u8)?;
        let index = ((bits >> 1) & 0x7) as u8;
        Ok(Some(ParseAction {
            offset,
            container: ContainerRef::new(ty, index)?,
        }))
    }
}

/// A parser (or deparser) table entry: up to 10 parse actions for one module.
/// The deparser-table format is identical to the parser-table format (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParserEntry {
    /// The valid parse actions of this entry (at most 10).
    pub actions: Vec<ParseAction>,
}

impl ParserEntry {
    /// Creates an entry, enforcing the 10-action limit
    /// ([`validate`](Self::validate)).
    pub fn new(actions: Vec<ParseAction>) -> Result<Self> {
        let entry = ParserEntry { actions };
        entry.validate()?;
        Ok(entry)
    }

    /// Checks that the entry fits one table row: at most
    /// [`PARSE_ACTIONS_PER_ENTRY`] actions. `actions` is public, so loaders
    /// re-check entries built without [`new`](Self::new); an entry that
    /// passes encodes without loss.
    pub fn validate(&self) -> Result<()> {
        if self.actions.len() > PARSE_ACTIONS_PER_ENTRY {
            return Err(RmtError::FieldOverflow {
                field: "parser entry action count",
            });
        }
        Ok(())
    }

    /// Encodes the entry as 10 × 16-bit words (160 bits), unused slots zero.
    pub fn encode(&self) -> [u16; PARSE_ACTIONS_PER_ENTRY] {
        let mut words = [0u16; PARSE_ACTIONS_PER_ENTRY];
        for (slot, action) in words.iter_mut().zip(self.actions.iter()) {
            *slot = action.encode();
        }
        words
    }

    /// Decodes an entry from its 160-bit encoding.
    pub fn decode(words: &[u16; PARSE_ACTIONS_PER_ENTRY]) -> Result<Self> {
        let mut actions = Vec::new();
        for &word in words {
            if let Some(action) = ParseAction::decode(word)? {
                actions.push(action);
            }
        }
        Ok(ParserEntry { actions })
    }

    /// Encodes the entry into bytes (big-endian words), the payload shipped in
    /// reconfiguration packets.
    pub fn encode_bytes(&self) -> Vec<u8> {
        self.encode().iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    /// Decodes an entry from the byte form produced by [`encode_bytes`](Self::encode_bytes).
    pub fn decode_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != PARSE_ACTIONS_PER_ENTRY * 2 {
            return Err(RmtError::BadEncoding {
                what: "parser entry bytes",
            });
        }
        let mut words = [0u16; PARSE_ACTIONS_PER_ENTRY];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            words[i] = u16::from_be_bytes([chunk[0], chunk[1]]);
        }
        ParserEntry::decode(&words)
    }
}

// ---------------------------------------------------------------------------
// Key extractor entries
// ---------------------------------------------------------------------------

/// Comparison operators supported by the key-extractor predicate (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Greater-than.
    Gt,
    /// Less-than.
    Lt,
    /// Greater-or-equal.
    Ge,
    /// Less-or-equal.
    Le,
}

impl CompareOp {
    /// 4-bit encoding.
    pub const fn code(self) -> u8 {
        match self {
            CompareOp::Eq => 1,
            CompareOp::Ne => 2,
            CompareOp::Gt => 3,
            CompareOp::Lt => 4,
            CompareOp::Ge => 5,
            CompareOp::Le => 6,
        }
    }

    /// Decodes the 4-bit opcode; 0 means "no predicate".
    pub fn from_code(code: u8) -> Result<Option<Self>> {
        Ok(Some(match code {
            0 => return Ok(None),
            1 => CompareOp::Eq,
            2 => CompareOp::Ne,
            3 => CompareOp::Gt,
            4 => CompareOp::Lt,
            5 => CompareOp::Ge,
            6 => CompareOp::Le,
            _ => {
                return Err(RmtError::BadEncoding {
                    what: "compare opcode",
                })
            }
        }))
    }

    /// Evaluates the comparison.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
            CompareOp::Gt => a > b,
            CompareOp::Lt => a < b,
            CompareOp::Ge => a >= b,
            CompareOp::Le => a <= b,
        }
    }
}

/// An 8-bit predicate operand: either a small immediate (7 bits) or a PHV
/// container reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOperand {
    /// Immediate value 0–127.
    Immediate(u8),
    /// Value read from a PHV container.
    Container(ContainerRef),
}

impl PredicateOperand {
    /// 8-bit encoding: top bit set for container references.
    pub fn encode(&self) -> u8 {
        match self {
            PredicateOperand::Immediate(value) => value & 0x7f,
            PredicateOperand::Container(c) => 0x80 | c.code(),
        }
    }

    /// Decodes the 8-bit operand.
    pub fn decode(bits: u8) -> Result<Self> {
        if bits & 0x80 != 0 {
            Ok(PredicateOperand::Container(ContainerRef::from_code(
                bits & 0x1f,
            )?))
        } else {
            Ok(PredicateOperand::Immediate(bits & 0x7f))
        }
    }

    /// Resolves the operand against a PHV.
    pub fn resolve(&self, phv: &crate::phv::Phv) -> u64 {
        match self {
            PredicateOperand::Immediate(value) => u64::from(*value),
            PredicateOperand::Container(c) => phv.get(*c),
        }
    }
}

/// The conditional-execution predicate evaluated by the key extractor
/// (`A OP B`, §4.1). Its truth value becomes the 193rd key bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Comparison operator.
    pub op: CompareOp,
    /// Left operand.
    pub a: PredicateOperand,
    /// Right operand.
    pub b: PredicateOperand,
}

impl Predicate {
    /// Evaluates the predicate against a PHV.
    pub fn eval(&self, phv: &crate::phv::Phv) -> bool {
        self.op.eval(self.a.resolve(phv), self.b.resolve(phv))
    }
}

/// A key-extractor table entry (38 bits): which container of each size class
/// to place in each of the 6 key slots, plus the optional predicate.
///
/// The key layout is `[6B slot0][6B slot1][4B slot0][4B slot1][2B slot0][2B slot1]`
/// (24 bytes), matching the match-key format of Figure 7, with the predicate
/// bit appended as bit 192.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyExtractEntry {
    /// Container index (0–7) of the first and second 6-byte slots.
    pub slots_6b: [u8; 2],
    /// Container index (0–7) of the first and second 4-byte slots.
    pub slots_4b: [u8; 2],
    /// Container index (0–7) of the first and second 2-byte slots.
    pub slots_2b: [u8; 2],
    /// Optional conditional-execution predicate.
    pub predicate: Option<Predicate>,
}

impl Default for KeyExtractEntry {
    fn default() -> Self {
        KeyExtractEntry {
            slots_6b: [0, 1],
            slots_4b: [0, 1],
            slots_2b: [0, 1],
            predicate: None,
        }
    }
}

impl KeyExtractEntry {
    /// Encodes the entry into its 38-bit hardware format (as a u64).
    ///
    /// Layout from the least-significant bit: 6 × 3-bit slot selectors
    /// (6B0, 6B1, 4B0, 4B1, 2B0, 2B1), then 4-bit compare opcode, then the two
    /// 8-bit operands.
    pub fn encode(&self) -> u64 {
        let mut bits: u64 = 0;
        let slots = [
            self.slots_6b[0],
            self.slots_6b[1],
            self.slots_4b[0],
            self.slots_4b[1],
            self.slots_2b[0],
            self.slots_2b[1],
        ];
        for (i, slot) in slots.iter().enumerate() {
            bits |= u64::from(slot & 0x7) << (3 * i);
        }
        let (op, a, b) = match self.predicate {
            Some(p) => (p.op.code(), p.a.encode(), p.b.encode()),
            None => (0, 0, 0),
        };
        bits |= u64::from(op & 0xf) << 18;
        bits |= u64::from(a) << 22;
        bits |= u64::from(b) << 30;
        bits
    }

    /// Decodes the 38-bit hardware format.
    pub fn decode(bits: u64) -> Result<Self> {
        let slot = |i: usize| ((bits >> (3 * i)) & 0x7) as u8;
        let op = CompareOp::from_code(((bits >> 18) & 0xf) as u8)?;
        let predicate = match op {
            Some(op) => Some(Predicate {
                op,
                a: PredicateOperand::decode(((bits >> 22) & 0xff) as u8)?,
                b: PredicateOperand::decode(((bits >> 30) & 0xff) as u8)?,
            }),
            None => None,
        };
        Ok(KeyExtractEntry {
            slots_6b: [slot(0), slot(1)],
            slots_4b: [slot(2), slot(3)],
            slots_2b: [slot(4), slot(5)],
            predicate,
        })
    }

    /// The container references selected into the key, in key order.
    pub fn selected_containers(&self) -> [ContainerRef; 6] {
        [
            ContainerRef::h6(self.slots_6b[0] & 0x7),
            ContainerRef::h6(self.slots_6b[1] & 0x7),
            ContainerRef::h4(self.slots_4b[0] & 0x7),
            ContainerRef::h4(self.slots_4b[1] & 0x7),
            ContainerRef::h2(self.slots_2b[0] & 0x7),
            ContainerRef::h2(self.slots_2b[1] & 0x7),
        ]
    }
}

// ---------------------------------------------------------------------------
// Key mask
// ---------------------------------------------------------------------------

/// The 193-bit key mask: which bits of the constructed key participate in the
/// exact-match lookup. Each module has its own mask entry, which is how
/// variable-length keys are supported on a fixed-width CAM (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyMask {
    /// Mask over the 24 key bytes.
    pub bytes: [u8; KEY_BYTES],
    /// Whether the predicate bit participates in the match.
    pub predicate: bool,
}

impl Default for KeyMask {
    /// The default mask matches on nothing (all bits ignored).
    fn default() -> Self {
        KeyMask {
            bytes: [0u8; KEY_BYTES],
            predicate: false,
        }
    }
}

impl KeyMask {
    /// True if every key byte is masked out (no byte participates in the
    /// match). With such a mask the masked key bytes are all zero no matter
    /// what the PHV holds, which lets the batched data path resolve the CAM
    /// lookup once per burst instead of once per packet.
    pub fn ignores_all_bytes(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// A mask that matches on every key bit.
    pub fn all() -> Self {
        KeyMask {
            bytes: [0xff; KEY_BYTES],
            predicate: true,
        }
    }

    /// A mask over the full width of the given key slots.
    ///
    /// `slots` follows the key layout order: 6B, 6B, 4B, 4B, 2B, 2B. Slot `i`
    /// set to `true` enables all bytes of that slot.
    pub fn for_slots(slots: [bool; 6], predicate: bool) -> Self {
        let widths = [6usize, 6, 4, 4, 2, 2];
        let mut bytes = [0u8; KEY_BYTES];
        let mut offset = 0;
        for (enabled, width) in slots.iter().zip(widths.iter()) {
            if *enabled {
                for byte in &mut bytes[offset..offset + width] {
                    *byte = 0xff;
                }
            }
            offset += width;
        }
        KeyMask { bytes, predicate }
    }

    /// Number of key bits enabled by this mask.
    pub fn bit_count(&self) -> u32 {
        self.bytes.iter().map(|b| b.count_ones()).sum::<u32>() + u32::from(self.predicate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::Phv;

    #[test]
    fn parse_action_encode_decode() {
        let action = ParseAction::new(46, ContainerRef::h4(3)).unwrap();
        let bits = action.encode();
        assert_eq!(ParseAction::decode(bits).unwrap(), Some(action));
        assert_eq!(ParseAction::decode(0).unwrap(), None);
        assert!(ParseAction::new(128, ContainerRef::h2(0)).is_err());
    }

    #[test]
    fn parse_action_bit_layout_matches_paper() {
        // offset 5, 2-byte container index 7, valid.
        let action = ParseAction::new(5, ContainerRef::h2(7)).unwrap();
        let bits = action.encode();
        assert_eq!(bits & 1, 1, "validity bit");
        assert_eq!((bits >> 1) & 0x7, 7, "container index");
        assert_eq!((bits >> 4) & 0x3, 0, "container type 2B");
        assert_eq!((bits >> 6) & 0x7f, 5, "offset");
        assert_eq!(bits >> 13, 0, "reserved bits are zero");
    }

    #[test]
    fn parser_entry_round_trip_and_limit() {
        let actions: Vec<_> = (0..10)
            .map(|i| ParseAction::new(i * 2, ContainerRef::h2(i % 8)).unwrap())
            .collect();
        let entry = ParserEntry::new(actions.clone()).unwrap();
        let decoded = ParserEntry::decode(&entry.encode()).unwrap();
        assert_eq!(decoded, entry);
        let bytes = entry.encode_bytes();
        assert_eq!(bytes.len(), 20);
        assert_eq!(ParserEntry::decode_bytes(&bytes).unwrap(), entry);
        assert!(ParserEntry::decode_bytes(&bytes[..19]).is_err());

        let too_many: Vec<_> = (0..11)
            .map(|i| ParseAction::new(i, ContainerRef::h2(0)).unwrap())
            .collect();
        assert!(ParserEntry::new(too_many.clone()).is_err());
        // The same rule catches an entry built through the public field.
        let mut widened = entry;
        assert!(widened.validate().is_ok());
        widened.actions = too_many;
        assert_eq!(
            widened.validate(),
            Err(RmtError::FieldOverflow {
                field: "parser entry action count"
            })
        );
    }

    #[test]
    fn key_extract_entry_round_trip() {
        let entry = KeyExtractEntry {
            slots_6b: [3, 5],
            slots_4b: [0, 7],
            slots_2b: [2, 2],
            predicate: Some(Predicate {
                op: CompareOp::Gt,
                a: PredicateOperand::Container(ContainerRef::h2(1)),
                b: PredicateOperand::Immediate(42),
            }),
        };
        let bits = entry.encode();
        assert!(bits < (1u64 << 38), "fits in 38 bits");
        assert_eq!(KeyExtractEntry::decode(bits).unwrap(), entry);

        let plain = KeyExtractEntry::default();
        assert_eq!(KeyExtractEntry::decode(plain.encode()).unwrap(), plain);
    }

    #[test]
    fn predicate_evaluation() {
        let mut phv = Phv::zeroed();
        phv.set(ContainerRef::h2(1), 100);
        let pred = Predicate {
            op: CompareOp::Gt,
            a: PredicateOperand::Container(ContainerRef::h2(1)),
            b: PredicateOperand::Immediate(42),
        };
        assert!(pred.eval(&phv));
        let pred_le = Predicate {
            op: CompareOp::Le,
            ..pred
        };
        assert!(!pred_le.eval(&phv));
        assert!(CompareOp::Eq.eval(5, 5));
        assert!(CompareOp::Ne.eval(5, 6));
        assert!(CompareOp::Lt.eval(5, 6));
        assert!(CompareOp::Ge.eval(6, 6));
    }

    #[test]
    fn compare_op_codes() {
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Gt,
            CompareOp::Lt,
            CompareOp::Ge,
            CompareOp::Le,
        ] {
            assert_eq!(CompareOp::from_code(op.code()).unwrap(), Some(op));
        }
        assert_eq!(CompareOp::from_code(0).unwrap(), None);
        assert!(CompareOp::from_code(9).is_err());
    }

    #[test]
    fn key_mask_slots() {
        let mask = KeyMask::for_slots([true, false, false, false, false, true], true);
        assert_eq!(mask.bit_count(), 6 * 8 + 2 * 8 + 1);
        assert_eq!(mask.bytes[0], 0xff);
        assert_eq!(mask.bytes[6], 0x00);
        assert_eq!(mask.bytes[22], 0xff);
        assert_eq!(KeyMask::all().bit_count(), 193);
        assert_eq!(KeyMask::default().bit_count(), 0);
    }

    #[test]
    fn predicate_operand_encoding() {
        let imm = PredicateOperand::Immediate(99);
        assert_eq!(PredicateOperand::decode(imm.encode()).unwrap(), imm);
        let cont = PredicateOperand::Container(ContainerRef::h6(4));
        assert_eq!(PredicateOperand::decode(cont.encode()).unwrap(), cont);
    }
}
