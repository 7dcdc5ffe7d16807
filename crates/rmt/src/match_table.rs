//! The exact-match (CAM) table and lookup keys.
//!
//! Each stage holds one exact-match table. A lookup key is the 193-bit value
//! produced by the key extractor (24 bytes + predicate bit) with the module's
//! key mask applied; the stored entry additionally carries the 12-bit module
//! ID, giving the 205-bit CAM width of the prototype (§4.1). The lookup result
//! is the CAM address of the matching entry, which indexes the VLIW action
//! table.

use crate::config::KeyMask;
use crate::error::RmtError;
use crate::params::KEY_BYTES;
use crate::Result;
use core::cell::Cell;
use core::fmt;
use std::collections::HashMap;

/// How a table matches a key against its rules.
///
/// `Exact` is the prototype's CAM; `Lpm` and `Range` are the flat, cache-dense
/// layouts added for million-rule scaling ([`crate::lpm::LpmTable`] and
/// [`crate::ternary::RangeTable`]). The payload carries where in the 24-byte
/// lookup key the matched field lives, so the data path can extract it without
/// consulting the compiler's slot assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchKind {
    /// Exact match over the full masked key (CAM).
    #[default]
    Exact,
    /// Longest-prefix match over a 32-bit field of the key.
    Lpm {
        /// Byte offset of the matched 4-byte field within the 24-byte key.
        key_offset: u8,
    },
    /// Priority range (ternary interval) match over a field of the key.
    Range {
        /// Byte offset of the matched field within the 24-byte key.
        key_offset: u8,
        /// Width in bytes of the matched field (1..=8).
        key_width: u8,
    },
}

/// A lookup key: 24 bytes of selected containers plus the predicate bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LookupKey {
    /// The 24 key bytes, in key layout order (6B, 6B, 4B, 4B, 2B, 2B).
    pub bytes: [u8; KEY_BYTES],
    /// The predicate (conditional-execution) bit.
    pub predicate: bool,
}

impl LookupKey {
    /// Builds a key from the six selected container values in key order.
    ///
    /// `values` are `(value, width_bytes)` pairs; widths must sum to 24.
    pub fn from_slots(values: [(u64, usize); 6], predicate: bool) -> Self {
        let mut bytes = [0u8; KEY_BYTES];
        let mut offset = 0;
        for (value, width) in values {
            for i in 0..width {
                let shift = 8 * (width - 1 - i);
                bytes[offset + i] = ((value >> shift) & 0xff) as u8;
            }
            offset += width;
        }
        debug_assert_eq!(offset, KEY_BYTES);
        LookupKey { bytes, predicate }
    }

    /// Applies a key mask: bits outside the mask are forced to zero.
    pub fn masked(&self, mask: &KeyMask) -> LookupKey {
        let mut bytes = [0u8; KEY_BYTES];
        for (masked, (byte, mask_byte)) in bytes.iter_mut().zip(self.bytes.iter().zip(&mask.bytes))
        {
            *masked = byte & mask_byte;
        }
        LookupKey {
            bytes,
            predicate: self.predicate && mask.predicate,
        }
    }

    /// Returns the value of the slot at `offset..offset+width` as an integer.
    ///
    /// Used by tests to inspect constructed keys and by the LPM/range tables
    /// to extract their matched field from the key. Boundary behaviour is
    /// total rather than panicking: a zero-width slot reads as 0, bytes past
    /// the end of the 24-byte key read as 0, and a slot wider than 8 bytes
    /// keeps only its *least-significant* 8 bytes (the earlier bytes shift
    /// out of the `u64` exactly as `value << 8` discards them — there is no
    /// shift-overflow path because the shift amount is a constant 8).
    pub fn slot_value(&self, offset: usize, width: usize) -> u64 {
        let mut value = 0u64;
        for i in 0..width {
            let byte = offset
                .checked_add(i)
                .and_then(|at| self.bytes.get(at))
                .copied()
                .unwrap_or(0);
            value = (value << 8) | u64::from(byte);
        }
        value
    }
}

impl fmt::Display for LookupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in &self.bytes {
            write!(f, "{byte:02x}")?;
        }
        write!(f, "/{}", u8::from(self.predicate))
    }
}

/// One CAM entry: a masked key, the owning module's ID, and the action-table
/// index this entry points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchEntry {
    /// The stored (already masked) key.
    pub key: LookupKey,
    /// The 12-bit module ID appended to the key (isolation, §3.1).
    pub module_id: u16,
    /// Index into the VLIW action table to execute on a hit.
    pub action_index: u16,
}

/// The per-stage exact-match table (CAM model).
///
/// Entries live at fixed addresses; in Menshen each module owns a contiguous
/// range of addresses (space partitioning), which the `menshen-core` crate
/// manages. The table itself only knows how to install, remove and look up
/// entries.
///
/// The addressable `Vec<Option<MatchEntry>>` array stays the software
/// interface (reconfiguration writes name CAM addresses), but lookups go
/// through a `(key, module_id) → address` hash index maintained on every
/// install/remove/clear, so the per-packet path is O(1) instead of a linear
/// scan over every CAM slot. The index always points at the *lowest* matching
/// address, preserving the priority order a hardware CAM resolves duplicates
/// with.
#[derive(Debug, Clone)]
pub struct ExactMatchTable {
    entries: Vec<Option<MatchEntry>>,
    index: HashMap<(LookupKey, u16), usize>,
    // Statistics live in `Cell`s so `lookup` can take `&self`: shards own
    // their pipelines (the runtime only needs `Send`, never `Sync`), so
    // single-threaded interior mutability is exactly the right tool and the
    // read side stays shareable across the match-kind dispatch.
    lookups: Cell<u64>,
    hits: Cell<u64>,
}

impl ExactMatchTable {
    /// Creates an empty table with `depth` entries.
    pub fn new(depth: usize) -> Self {
        ExactMatchTable {
            entries: vec![None; depth],
            index: HashMap::new(),
            lookups: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// The linear compare over every slot a hardware CAM performs in
    /// parallel: the lowest matching address. Control-plane only — it
    /// repoints the index after an eviction and is the reference
    /// [`verify_index`](Self::verify_index) checks the index against.
    fn scan(&self, key: &LookupKey, module_id: u16) -> Option<usize> {
        self.entries.iter().position(|slot| {
            slot.as_ref()
                .map(|e| e.module_id == module_id && e.key == *key)
                .unwrap_or(false)
        })
    }

    /// Table depth (number of addressable entries).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Installs `entry` at CAM address `index`, replacing whatever was there.
    pub fn install(&mut self, index: usize, entry: MatchEntry) -> Result<()> {
        let depth = self.entries.len();
        let slot = self
            .entries
            .get_mut(index)
            .ok_or(RmtError::TableIndexOutOfRange {
                table: "exact-match table",
                index,
                depth,
            })?;
        let evicted = slot.replace(entry);
        if let Some(old) = evicted {
            self.unindex(&old, index);
        }
        let indexed = self
            .index
            .entry((entry.key, entry.module_id))
            .or_insert(index);
        *indexed = (*indexed).min(index);
        Ok(())
    }

    /// Removes the entry at CAM address `index`.
    pub fn remove(&mut self, index: usize) -> Result<Option<MatchEntry>> {
        let depth = self.entries.len();
        let slot = self
            .entries
            .get_mut(index)
            .ok_or(RmtError::TableIndexOutOfRange {
                table: "exact-match table",
                index,
                depth,
            })?;
        let removed = slot.take();
        if let Some(old) = removed {
            self.unindex(&old, index);
        }
        Ok(removed)
    }

    /// Drops `(old.key, old.module_id) → address` from the index after the
    /// entry at `address` was evicted. If another slot still holds the same
    /// key/module pair (duplicate installs), the index is repointed at the
    /// lowest such address, preserving CAM priority order. The rescan is
    /// O(depth), but runs only on the control-plane path.
    fn unindex(&mut self, old: &MatchEntry, address: usize) {
        let key = (old.key, old.module_id);
        if self.index.get(&key) != Some(&address) {
            return;
        }
        let replacement = self.scan(&old.key, old.module_id);
        match replacement {
            Some(other) => {
                self.index.insert(key, other);
            }
            None => {
                self.index.remove(&key);
            }
        }
    }

    /// Reads the entry at CAM address `index` (software interface).
    pub fn entry(&self, index: usize) -> Option<&MatchEntry> {
        self.entries.get(index).and_then(|e| e.as_ref())
    }

    /// Looks up `(key, module_id)`; returns the CAM address of the first
    /// matching entry, resolved in O(1) through the hash index. The module ID
    /// participates in the comparison, so a packet can never hit another
    /// module's entries. Takes `&self`: statistics are interior-mutable, so
    /// the read side needs no exclusive borrow.
    pub fn lookup(&self, key: &LookupKey, module_id: u16) -> Option<usize> {
        self.lookups.set(self.lookups.get() + 1);
        let hit = self.index.get(&(*key, module_id)).copied();
        if hit.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        hit
    }

    /// Read-only lookup that does not touch the hit/lookup statistics; used
    /// by the batched data path, which resolves some lookups once per burst.
    pub fn peek(&self, key: &LookupKey, module_id: u16) -> Option<usize> {
        self.index.get(&(*key, module_id)).copied()
    }

    /// Clears every entry belonging to `module_id`; returns how many were
    /// removed. Used when a module is unloaded or reconfigured.
    pub fn clear_module(&mut self, module_id: u16) -> usize {
        let mut removed = 0;
        for slot in &mut self.entries {
            if slot
                .as_ref()
                .map(|e| e.module_id == module_id)
                .unwrap_or(false)
            {
                *slot = None;
                removed += 1;
            }
        }
        if removed > 0 {
            self.index.retain(|(_, owner), _| *owner != module_id);
        }
        removed
    }

    /// True if the hash index and the slot array agree exactly: every indexed
    /// address holds the entry it claims (at the lowest matching address), and
    /// every occupied slot is reachable through the index. Test/debug aid for
    /// the index-maintenance logic.
    pub fn verify_index(&self) -> bool {
        for ((key, module_id), &address) in &self.index {
            if self.scan(key, *module_id) != Some(address) {
                return false;
            }
        }
        self.entries
            .iter()
            .flatten()
            .all(|entry| self.index.contains_key(&(entry.key, entry.module_id)))
    }

    /// Lookup statistics: `(lookups, hits)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups.get(), self.hits.get())
    }

    /// Zeroes the lookup statistics (entries and index are untouched). Used
    /// when a pipeline is snapshotted into a fresh replica.
    pub fn reset_stats(&mut self) {
        self.lookups.set(0);
        self.hits.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_with_first_byte(byte: u8) -> LookupKey {
        let mut key = LookupKey::default();
        key.bytes[0] = byte;
        key
    }

    #[test]
    fn from_slots_lays_out_key_in_order() {
        let key = LookupKey::from_slots(
            [
                (0x0000_aaaa_bbbb, 6),
                (0, 6),
                (0xdead_beef, 4),
                (0, 4),
                (0x1234, 2),
                (0x5678, 2),
            ],
            true,
        );
        assert_eq!(key.slot_value(0, 6), 0x0000_aaaa_bbbb);
        assert_eq!(key.slot_value(12, 4), 0xdead_beef);
        assert_eq!(key.slot_value(20, 2), 0x1234);
        assert_eq!(key.slot_value(22, 2), 0x5678);
        assert!(key.predicate);
        assert!(key.to_string().contains("deadbeef"));
    }

    #[test]
    fn masking_clears_unselected_bits() {
        let key = LookupKey::from_slots([(1, 6), (2, 6), (3, 4), (4, 4), (5, 2), (6, 2)], true);
        let mask = KeyMask::for_slots([true, false, true, false, false, false], false);
        let masked = key.masked(&mask);
        assert_eq!(masked.slot_value(0, 6), 1);
        assert_eq!(masked.slot_value(6, 6), 0);
        assert_eq!(masked.slot_value(12, 4), 3);
        assert_eq!(masked.slot_value(22, 2), 0);
        assert!(!masked.predicate);
    }

    #[test]
    fn lookup_respects_module_id() {
        let mut table = ExactMatchTable::new(4);
        let key = key_with_first_byte(0x42);
        table
            .install(
                0,
                MatchEntry {
                    key,
                    module_id: 1,
                    action_index: 0,
                },
            )
            .unwrap();
        table
            .install(
                1,
                MatchEntry {
                    key,
                    module_id: 2,
                    action_index: 1,
                },
            )
            .unwrap();
        assert_eq!(table.lookup(&key, 1), Some(0));
        assert_eq!(table.lookup(&key, 2), Some(1));
        assert_eq!(table.lookup(&key, 3), None);
        assert_eq!(table.stats(), (3, 2));
    }

    #[test]
    fn install_remove_bounds() {
        let mut table = ExactMatchTable::new(2);
        let entry = MatchEntry {
            key: LookupKey::default(),
            module_id: 0,
            action_index: 0,
        };
        assert!(table.install(2, entry).is_err());
        assert!(table.install(1, entry).is_ok());
        assert_eq!(table.occupancy(), 1);
        assert_eq!(table.remove(1).unwrap(), Some(entry));
        assert_eq!(table.occupancy(), 0);
        assert!(table.remove(5).is_err());
        assert!(table.entry(0).is_none());
    }

    #[test]
    fn peek_matches_lookup_without_stats() {
        let mut table = ExactMatchTable::new(4);
        let key = key_with_first_byte(0x11);
        table
            .install(
                2,
                MatchEntry {
                    key,
                    module_id: 5,
                    action_index: 2,
                },
            )
            .unwrap();
        assert_eq!(table.peek(&key, 5), Some(2));
        assert_eq!(table.peek(&key, 6), None);
        assert_eq!(table.stats(), (0, 0), "peek leaves statistics untouched");
    }

    #[test]
    fn duplicate_keys_resolve_to_lowest_address() {
        let mut table = ExactMatchTable::new(8);
        let key = key_with_first_byte(0x77);
        for &address in &[5usize, 2, 7] {
            table
                .install(
                    address,
                    MatchEntry {
                        key,
                        module_id: 1,
                        action_index: address as u16,
                    },
                )
                .unwrap();
        }
        // CAM priority: the lowest matching address wins.
        assert_eq!(table.lookup(&key, 1), Some(2));
        // Removing the winner falls through to the next-lowest duplicate.
        table.remove(2).unwrap();
        assert_eq!(table.lookup(&key, 1), Some(5));
        table.remove(5).unwrap();
        assert_eq!(table.lookup(&key, 1), Some(7));
        table.remove(7).unwrap();
        assert_eq!(table.lookup(&key, 1), None);
        assert!(table.verify_index());
    }

    #[test]
    fn overwrite_reindexes_old_and_new_keys() {
        let mut table = ExactMatchTable::new(4);
        let old_key = key_with_first_byte(0xaa);
        let new_key = key_with_first_byte(0xbb);
        table
            .install(
                1,
                MatchEntry {
                    key: old_key,
                    module_id: 3,
                    action_index: 1,
                },
            )
            .unwrap();
        table
            .install(
                1,
                MatchEntry {
                    key: new_key,
                    module_id: 3,
                    action_index: 1,
                },
            )
            .unwrap();
        assert_eq!(table.lookup(&old_key, 3), None, "evicted key unindexed");
        assert_eq!(table.lookup(&new_key, 3), Some(1));
        assert!(table.verify_index());
    }

    /// Property-style check of the index-maintenance logic: a random sequence
    /// of install/remove/clear_module operations keeps the hash index and the
    /// slot array in exact agreement, and every lookup result equals what a
    /// naive linear scan over the slot array would return — including the
    /// module-ID isolation the scan encodes.
    #[test]
    fn random_operations_keep_index_and_slots_consistent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const DEPTH: usize = 32;
        let scan = |entries: &ExactMatchTable, key: &LookupKey, module: u16| {
            (0..DEPTH).find(|&i| {
                entries
                    .entry(i)
                    .map(|e| e.module_id == module && e.key == *key)
                    .unwrap_or(false)
            })
        };

        let mut rng = StdRng::seed_from_u64(0xcafe);
        for round in 0..50 {
            let mut table = ExactMatchTable::new(DEPTH);
            for step in 0..400 {
                match rng.gen_range(0u32..10) {
                    // Install dominates so the table actually fills up;
                    // keys are drawn from a small space to force duplicates.
                    0..=6 => {
                        let entry = MatchEntry {
                            key: key_with_first_byte(rng.gen_range(0u8..8)),
                            module_id: rng.gen_range(0u16..4),
                            action_index: rng.gen_range(0u16..DEPTH as u16),
                        };
                        table.install(rng.gen_range(0usize..DEPTH), entry).unwrap();
                    }
                    7..=8 => {
                        table.remove(rng.gen_range(0usize..DEPTH)).unwrap();
                    }
                    _ => {
                        table.clear_module(rng.gen_range(0u16..4));
                    }
                }
                assert!(
                    table.verify_index(),
                    "index diverged from slots at round {round} step {step}"
                );
                // Indexed lookup == linear scan, for hits and misses alike.
                for byte in 0u8..8 {
                    let key = key_with_first_byte(byte);
                    for module in 0u16..5 {
                        assert_eq!(
                            table.peek(&key, module),
                            scan(&table, &key, module),
                            "lookup mismatch at round {round} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_value_boundary_behaviour_is_total() {
        let mut key = LookupKey::default();
        for (i, byte) in key.bytes.iter_mut().enumerate() {
            *byte = i as u8 + 1;
        }
        // Zero-width slot reads as zero at any offset, in or out of range.
        assert_eq!(key.slot_value(0, 0), 0);
        assert_eq!(key.slot_value(KEY_BYTES, 0), 0);
        assert_eq!(key.slot_value(usize::MAX, 0), 0);
        // Widths up to 8 fill the u64 exactly; the last in-range 8-byte read.
        assert_eq!(
            key.slot_value(16, 8),
            0x1112_1314_1516_1718,
            "8-byte slot fills all 64 bits without shift overflow"
        );
        // A slot wider than 8 bytes keeps only its low 8 bytes (64 bits).
        assert_eq!(key.slot_value(0, 24), key.slot_value(16, 8));
        // At width 64 the 40 trailing out-of-range bytes read as zero and the
        // real key bytes shift out of the 64-bit window entirely.
        assert_eq!(key.slot_value(0, 64), 0);
        // Bytes past the end of the key read as zero instead of panicking.
        assert_eq!(key.slot_value(22, 4), 0x1718_0000);
        assert_eq!(key.slot_value(KEY_BYTES, 4), 0);
        assert_eq!(key.slot_value(usize::MAX - 2, 4), 0);
    }

    #[test]
    fn from_slots_round_trips_through_slot_value() {
        let values: [(u64, usize); 6] = [
            (0xffff_ffff_ffff, 6),
            (0x0102_0304_0506, 6),
            (0xffff_ffff, 4),
            (0, 4),
            (0xffff, 2),
            (0x00aa, 2),
        ];
        let key = LookupKey::from_slots(values, false);
        let mut offset = 0;
        for (value, width) in values {
            assert_eq!(key.slot_value(offset, width), value);
            offset += width;
        }
    }

    /// Satellite check for the mutation API: randomized interleavings of
    /// `clear_module`, `remove` and re-`install` (same keys re-inserted at
    /// fresh addresses) keep `verify_index` true, and `peek` agrees with
    /// `lookup` — the stats-bumping and stats-free paths must resolve every
    /// probe identically, hits and misses alike.
    #[test]
    fn clear_remove_reinstall_interleavings_keep_peek_and_lookup_agreeing() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const DEPTH: usize = 24;
        const MODULES: u16 = 3;
        let mut rng = StdRng::seed_from_u64(0x5eed_1e57);
        for round in 0..40 {
            let mut table = ExactMatchTable::new(DEPTH);
            // Working set of keys per module, so "re-install" genuinely
            // brings back a previously cleared (key, module) pair.
            let keys: Vec<LookupKey> = (0u8..6).map(key_with_first_byte).collect();
            for step in 0..300 {
                match rng.gen_range(0u32..8) {
                    0..=3 => {
                        let entry = MatchEntry {
                            key: keys[rng.gen_range(0usize..keys.len())],
                            module_id: rng.gen_range(0u16..MODULES),
                            action_index: rng.gen_range(0u16..DEPTH as u16),
                        };
                        table.install(rng.gen_range(0usize..DEPTH), entry).unwrap();
                    }
                    4..=5 => {
                        table.remove(rng.gen_range(0usize..DEPTH)).unwrap();
                    }
                    6 => {
                        table.clear_module(rng.gen_range(0u16..MODULES));
                    }
                    _ => {
                        // clear → immediate re-install of that module's keys.
                        let module = rng.gen_range(0u16..MODULES);
                        table.clear_module(module);
                        for key in &keys {
                            if rng.gen_bool(0.5) {
                                let entry = MatchEntry {
                                    key: *key,
                                    module_id: module,
                                    action_index: 0,
                                };
                                table.install(rng.gen_range(0usize..DEPTH), entry).unwrap();
                            }
                        }
                    }
                }
                assert!(
                    table.verify_index(),
                    "index diverged at round {round} step {step}"
                );
                for key in &keys {
                    for module in 0..MODULES + 1 {
                        assert_eq!(
                            table.peek(key, module),
                            table.lookup(key, module),
                            "peek/lookup disagree at round {round} step {step}"
                        );
                    }
                }
            }
            let (lookups, hits) = table.stats();
            assert!(lookups >= hits, "hits can never exceed lookups");
        }
    }

    #[test]
    fn clear_module_removes_only_that_module() {
        let mut table = ExactMatchTable::new(8);
        for i in 0..8 {
            table
                .install(
                    i,
                    MatchEntry {
                        key: key_with_first_byte(i as u8),
                        module_id: (i % 2) as u16,
                        action_index: i as u16,
                    },
                )
                .unwrap();
        }
        assert_eq!(table.clear_module(0), 4);
        assert_eq!(table.occupancy(), 4);
        assert_eq!(table.lookup(&key_with_first_byte(1), 1), Some(1));
        assert_eq!(table.lookup(&key_with_first_byte(0), 0), None);
    }
}
