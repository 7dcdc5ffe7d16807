//! Match-memory model: bytes per entry for each match-table layout.
//!
//! The prototype's per-stage CAM holds 16 entries of [`MATCH_ENTRY_BITS`]
//! match state plus a VLIW action word — fine for the paper's FPGA, hopeless for the
//! ROADMAP's "millions of flow rules". The flat LPM trie and the
//! priority-interval range table trade the CAM's per-entry full-key storage
//! for layouts whose footprint depends on the *rule distribution*. This
//! module prices all three the same way — data-path bytes (what lookups can
//! touch) vs control-plane bytes (install-time bookkeeping) per installed
//! entry. The measured data-path figure for the LPM trie is the
//! repository benchmark's `rmt.lpm_bytes_per_rule` probe.

use menshen_json::{Json, ToJson};
use menshen_rmt::lpm::LpmTable;
use menshen_rmt::params::{MATCH_ENTRY_BITS, VLIW_ENTRY_BITS};
use menshen_rmt::ternary::RangeTable;

/// Memory footprint of one match-table layout at a given fill.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchMemoryRow {
    /// Layout name: `cam`, `lpm` or `range`.
    pub kind: &'static str,
    /// Installed entries.
    pub entries: usize,
    /// Bytes the per-packet lookup path can touch.
    pub data_path_bytes: usize,
    /// Bytes of control-plane bookkeeping (install dictionaries, delta
    /// buffers) that lookups never read.
    pub control_bytes: usize,
}

impl MatchMemoryRow {
    /// Total footprint.
    pub fn total_bytes(&self) -> usize {
        self.data_path_bytes + self.control_bytes
    }

    /// Total bytes amortised per installed entry.
    pub fn bytes_per_entry(&self) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.entries as f64
    }
}

impl ToJson for MatchMemoryRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::from(self.kind)),
            ("entries", Json::from(self.entries as u64)),
            ("data_path_bytes", Json::from(self.data_path_bytes as u64)),
            ("control_bytes", Json::from(self.control_bytes as u64)),
            ("bytes_per_entry", Json::from(self.bytes_per_entry())),
        ])
    }
}

/// Prices match-table layouts in bytes per entry.
///
/// The CAM row is analytic (every entry costs the full match word plus its
/// VLIW action); the LPM and range rows are *measured* from live tables, so
/// they price the actual block/interval structure the installed rules
/// produced rather than a worst case.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatchMemoryModel;

impl MatchMemoryModel {
    /// Bits one CAM entry occupies: the 193-bit masked key + 12-bit module
    /// ID match word, plus the VLIW action word it indexes.
    pub const CAM_ENTRY_BITS: usize = MATCH_ENTRY_BITS + VLIW_ENTRY_BITS;

    /// The CAM layout at `entries` installed rules. Every entry stores the
    /// full match word regardless of the rule's shape, and the CAM has no
    /// control-plane shadow — the match word *is* the installed state.
    pub fn cam(entries: usize) -> MatchMemoryRow {
        MatchMemoryRow {
            kind: "cam",
            entries,
            data_path_bytes: entries * Self::CAM_ENTRY_BITS / 8,
            control_bytes: 0,
        }
    }

    /// Measures an LPM trie: the contiguous leaf/child pools are data-path
    /// bytes, the installed-prefix dictionary is control-plane bytes.
    pub fn lpm(table: &LpmTable) -> MatchMemoryRow {
        MatchMemoryRow {
            kind: "lpm",
            entries: table.len(),
            data_path_bytes: table.data_path_bytes(),
            control_bytes: table.control_bytes(),
        }
    }

    /// Measures a range table: the sorted bound/winner arrays plus the
    /// not-yet-merged delta rules are data-path bytes (lookups scan the
    /// delta), the retained install-order rule list is control-plane bytes.
    pub fn range(table: &RangeTable) -> MatchMemoryRow {
        let rule_bytes = table.len() * core::mem::size_of::<menshen_rmt::ternary::RangeRule>();
        let total = table.memory_bytes();
        MatchMemoryRow {
            kind: "range",
            entries: table.len(),
            data_path_bytes: total.saturating_sub(rule_bytes),
            control_bytes: rule_bytes.min(total),
        }
    }
}

/// A set of rows (one per layout/fill point), serialisable for the bench
/// baseline.
#[derive(Debug, Clone, Default)]
pub struct MatchMemoryReport {
    /// One row per (layout, fill) measurement.
    pub rows: Vec<MatchMemoryRow>,
}

impl ToJson for MatchMemoryReport {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_rmt::ternary::RangeRule;

    #[test]
    fn cam_prices_the_full_match_word_per_entry() {
        let row = MatchMemoryModel::cam(16);
        // 193-bit key + 12-bit module ID + 25 ALU slots × 25 bits.
        assert_eq!(MatchMemoryModel::CAM_ENTRY_BITS, 205 + 625);
        assert_eq!(row.data_path_bytes, 16 * 830 / 8);
        assert_eq!(row.control_bytes, 0);
        assert!((row.bytes_per_entry() - 830.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn clustered_lpm_prefixes_amortise_far_below_the_cam_entry() {
        let mut table = LpmTable::new(12, 1 << 20);
        // 1024 /24 prefixes under 10.0.0.0/14: realistic route-table
        // clustering, so sibling prefixes share trie blocks.
        for i in 0..1024u32 {
            let prefix = 0x0a00_0000 | (i << 8);
            table.insert(prefix, 24, i % 7).unwrap();
        }
        let lpm = MatchMemoryModel::lpm(&table);
        let cam = MatchMemoryModel::cam(1024);
        assert_eq!(lpm.entries, 1024);
        assert!(
            lpm.bytes_per_entry() < cam.bytes_per_entry() / 2.0,
            "lpm {} vs cam {}",
            lpm.bytes_per_entry(),
            cam.bytes_per_entry()
        );
        // 1 root + 1 level-1 + 4 level-2 blocks × 256 slots × 2 pools × 4 B.
        assert_eq!(lpm.data_path_bytes, 6 * 256 * 2 * 4);
    }

    #[test]
    fn range_rows_split_interval_arrays_from_rule_bookkeeping() {
        let mut table = RangeTable::new(20, 2, 4096);
        for i in 0..256u64 {
            table
                .insert(RangeRule {
                    lo: i * 16,
                    hi: i * 16 + 15,
                    priority: 0,
                    action: i as u32,
                })
                .unwrap();
        }
        table.rebuild();
        let row = MatchMemoryModel::range(&table);
        assert_eq!(row.entries, 256);
        assert!(row.data_path_bytes > 0);
        assert!(row.control_bytes > 0);
        assert_eq!(row.total_bytes(), table.memory_bytes());
    }

    #[test]
    fn report_serialises_rows() {
        let report = MatchMemoryReport {
            rows: vec![MatchMemoryModel::cam(16)],
        };
        let json = report.to_json().pretty();
        assert!(json.contains("\"kind\": \"cam\""), "{json}");
        assert!(json.contains("bytes_per_entry"), "{json}");
    }
}
