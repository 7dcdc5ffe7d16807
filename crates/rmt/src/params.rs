//! Pipeline resource parameters (Table 5 of the paper).
//!
//! The prototype's parameters are exposed as the [`TABLE5`] constant; every
//! structure in this crate and in `menshen-core` is parameterised by a
//! [`PipelineParams`] value so that benchmarks can sweep table depths (e.g.
//! Figure 8/9 sweep the number of match-action entries from 16 to 1024).

/// Number of processing stages in the prototype pipeline.
pub const NUM_STAGES: usize = 5;
/// Number of 2-byte PHV containers.
pub const NUM_2B_CONTAINERS: usize = 8;
/// Number of 4-byte PHV containers.
pub const NUM_4B_CONTAINERS: usize = 8;
/// Number of 6-byte PHV containers.
pub const NUM_6B_CONTAINERS: usize = 8;
/// Total number of header PHV containers (excluding metadata).
pub const NUM_HEADER_CONTAINERS: usize = NUM_2B_CONTAINERS + NUM_4B_CONTAINERS + NUM_6B_CONTAINERS;
/// Total number of ALUs / PHV containers including the metadata container.
pub const NUM_CONTAINERS: usize = NUM_HEADER_CONTAINERS + 1;
/// Size of the platform-specific metadata area appended to the PHV, in bytes.
pub const METADATA_BYTES: usize = 32;
/// Total PHV length in bytes (2*8 + 4*8 + 6*8 + 32 = 128).
pub const PHV_BYTES: usize =
    2 * NUM_2B_CONTAINERS + 4 * NUM_4B_CONTAINERS + 6 * NUM_6B_CONTAINERS + METADATA_BYTES;
/// Parseable header region at the front of each packet, in bytes.
pub const HEADER_REGION_BYTES: usize = 128;
/// Number of parse actions per parser/deparser table entry.
pub const PARSE_ACTIONS_PER_ENTRY: usize = 10;
/// Width of one parse action, in bits.
pub const PARSE_ACTION_BITS: usize = 16;
/// Width of a key extractor table entry, in bits (18 container-select bits +
/// 4-bit compare opcode + 2 × 8-bit operands).
pub const KEY_EXTRACT_ENTRY_BITS: usize = 38;
/// Key length in bytes before the predicate bit is appended (2×2 + 2×4 + 2×6).
pub const KEY_BYTES: usize = 24;
/// Key length in bits including the predicate bit (24*8 + 1).
pub const KEY_BITS: usize = KEY_BYTES * 8 + 1;
/// Width of a match (CAM) entry in bits: key + 12-bit module ID.
pub const MATCH_ENTRY_BITS: usize = KEY_BITS + MODULE_ID_BITS;
/// Width of one ALU action in bits.
pub const ALU_ACTION_BITS: usize = 25;
/// Width of a VLIW action-table entry in bits (25 ALU actions).
pub const VLIW_ENTRY_BITS: usize = ALU_ACTION_BITS * NUM_CONTAINERS;
/// Width of a segment-table entry in bits (1-byte offset + 1-byte range).
pub const SEGMENT_ENTRY_BITS: usize = 16;
/// Number of bits in a module identifier (a VLAN ID).
pub const MODULE_ID_BITS: usize = 12;
/// Default capacity of one LPM/range match table: the "millions of flow
/// rules" scaling target is 10^6 entries per table (2^20 = 1,048,576).
pub const MATCH_TABLE_CAPACITY: usize = 1 << 20;

/// Depths of the per-resource tables, i.e. how many entries each one holds.
///
/// The overlay tables (parser, key extractor, key mask, segment, deparser) are
/// indexed by module ID and their depth bounds the number of concurrently
/// loaded modules (§5.2: 32 in the prototype). The CAM / VLIW action table
/// depth bounds the number of match-action entries shared by all modules
/// (16 per stage in the prototype, limited by FPGA CAM cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineParams {
    /// Number of match-action processing stages.
    pub num_stages: usize,
    /// Entries in the parser/deparser/key-extractor/key-mask/segment tables
    /// (= maximum number of modules).
    pub overlay_depth: usize,
    /// Entries in the per-stage exact-match CAM.
    pub cam_depth: usize,
    /// Entries in the per-stage VLIW action table.
    pub action_depth: usize,
    /// Words of per-stage stateful memory (each word is 8 bytes wide in the
    /// simulator; the prototype's RAM is sized in the same order of magnitude).
    pub stateful_words: usize,
}

impl PipelineParams {
    /// Returns a copy with a different CAM/action-table depth; used by the
    /// Figure 8/9 sweeps over the number of match-action entries.
    pub fn with_table_depth(mut self, depth: usize) -> Self {
        self.cam_depth = depth;
        self.action_depth = depth;
        self
    }

    /// Returns a copy with a different number of stages.
    pub fn with_stages(mut self, stages: usize) -> Self {
        self.num_stages = stages;
        self
    }

    /// Returns a copy with a different overlay depth (maximum module count).
    /// The Menshen pipeline caps it at the 32 modules its packet filter's
    /// being-reconfigured bitmap can mark.
    pub fn with_overlay_depth(mut self, depth: usize) -> Self {
        self.overlay_depth = depth;
        self
    }
}

impl Default for PipelineParams {
    fn default() -> Self {
        TABLE5
    }
}

/// The prototype parameters reported in Table 5 of the paper.
pub const TABLE5: PipelineParams = PipelineParams {
    num_stages: NUM_STAGES,
    overlay_depth: 32,
    cam_depth: 16,
    action_depth: 16,
    stateful_words: 4096,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phv_is_128_bytes() {
        assert_eq!(PHV_BYTES, 128);
        assert_eq!(NUM_CONTAINERS, 25);
    }

    #[test]
    fn key_and_match_widths_match_paper() {
        assert_eq!(KEY_BITS, 193);
        assert_eq!(MATCH_ENTRY_BITS, 205);
        assert_eq!(VLIW_ENTRY_BITS, 625);
    }

    #[test]
    fn table5_defaults() {
        let p = PipelineParams::default();
        assert_eq!(p.num_stages, 5);
        assert_eq!(p.overlay_depth, 32);
        assert_eq!(p.cam_depth, 16);
        assert_eq!(p.action_depth, 16);
    }

    #[test]
    fn builders_adjust_fields() {
        let p = TABLE5
            .with_table_depth(1024)
            .with_stages(8)
            .with_overlay_depth(64);
        assert_eq!(p.cam_depth, 1024);
        assert_eq!(p.action_depth, 1024);
        assert_eq!(p.num_stages, 8);
        assert_eq!(p.overlay_depth, 64);
    }
}
