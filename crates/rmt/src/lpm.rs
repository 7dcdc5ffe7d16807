//! Longest-prefix-match table: a stride-8 multibit trie on flat node arrays.
//!
//! The prototype's CAM (16 entries/stage) cannot hold "millions of flow
//! rules" (ROADMAP), and a per-packet `HashMap` probe cannot express prefix
//! matching at all. This table implements the classic controlled-prefix-
//! expansion multibit trie (stride 8, four levels over a 32-bit field) on
//! *contiguously allocated* node arrays, the layout pipelined-trie IP-lookup
//! engines use: every trie node is a block of 256 slots carved from two flat
//! pools (`leaves` and `children`), so a lookup touches at most four
//! cache lines of pool memory and never chases a per-node heap pointer.
//!
//! * **Lookup** walks one block per level, indexed by the next key byte,
//!   carrying the best (longest) valid leaf seen so far — no backtracking.
//! * **Insert** expands a prefix whose length is not a multiple of 8 across
//!   the `2^(8-r)` slots it covers inside its terminal block, overwriting
//!   only slots currently held by *shorter* prefixes (leaf slots remember
//!   their prefix length), so inserts commute into LPM order incrementally:
//!   no rebuild, no quiescing of readers.
//! * **Isolation**: each module slot owns its own `LpmTable` (space
//!   partitioning, like Menshen's stateful-memory segments), so no module ID
//!   is stored or compared per entry.
//!
//! A leaf slot packs `valid(1) | prefix_len(6) | action(24)` into a `u32`;
//! a child slot holds `child_block + 1` (0 = none). The control plane keeps a
//! small dictionary of installed prefixes (duplicate detection and capacity
//! accounting) that the per-packet path never touches.

use crate::error::RmtError;
use crate::match_table::LookupKey;
use crate::Result;
use core::cell::Cell;
use std::collections::HashMap;

/// Slots per trie node: one per value of the 8-bit stride.
const BLOCK_SLOTS: usize = 256;
/// Number of trie levels for a 32-bit key field.
const LEVELS: usize = 4;

const LEAF_VALID: u32 = 1 << 31;
const LEAF_PLEN_SHIFT: u32 = 24;
const LEAF_PLEN_MASK: u32 = 0x3f;
const LEAF_ACTION_MASK: u32 = (1 << LEAF_PLEN_SHIFT) - 1;

fn pack_leaf(prefix_len: u8, action: u32) -> u32 {
    debug_assert!(u32::from(prefix_len) <= 32);
    debug_assert!(action <= LEAF_ACTION_MASK);
    LEAF_VALID | (u32::from(prefix_len) << LEAF_PLEN_SHIFT) | (action & LEAF_ACTION_MASK)
}

fn leaf_plen(leaf: u32) -> u8 {
    ((leaf >> LEAF_PLEN_SHIFT) & LEAF_PLEN_MASK) as u8
}

/// A longest-prefix-match table over a 32-bit field of the lookup key.
#[derive(Debug, Clone)]
pub struct LpmTable {
    /// Byte offset of the matched 4-byte field within the 24-byte key.
    key_offset: usize,
    /// Maximum number of distinct prefixes this table may hold.
    capacity: usize,
    /// Leaf pool: `blocks × 256` packed leaf slots, contiguous.
    leaves: Vec<u32>,
    /// Child pool, parallel to `leaves`: `child_block + 1`, 0 = no child.
    children: Vec<u32>,
    /// Installed prefixes → action (control-plane dictionary; never probed
    /// on the per-packet path).
    installed: HashMap<(u32, u8), u32>,
    lookups: Cell<u64>,
    hits: Cell<u64>,
}

impl LpmTable {
    /// Creates an empty table matching the 4-byte key field at `key_offset`,
    /// holding at most `capacity` prefixes.
    pub fn new(key_offset: usize, capacity: usize) -> Self {
        LpmTable {
            key_offset,
            capacity,
            // The root block always exists.
            leaves: vec![0; BLOCK_SLOTS],
            children: vec![0; BLOCK_SLOTS],
            installed: HashMap::new(),
            lookups: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Byte offset of the matched field within the lookup key.
    pub fn key_offset(&self) -> usize {
        self.key_offset
    }

    /// Maximum number of prefixes the table may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.installed.len()
    }

    /// True if no prefix is installed.
    pub fn is_empty(&self) -> bool {
        self.installed.is_empty()
    }

    /// Number of allocated trie nodes (256-slot blocks).
    pub fn blocks(&self) -> usize {
        self.leaves.len() / BLOCK_SLOTS
    }

    /// Bytes of flat trie storage the data path can touch (leaf + child
    /// pools). This is the cache-resident cost of the layout.
    pub fn data_path_bytes(&self) -> usize {
        (self.leaves.len() + self.children.len()) * core::mem::size_of::<u32>()
    }

    /// Bytes of control-plane bookkeeping (the installed-prefix dictionary),
    /// estimated from the hash map's entry footprint.
    pub fn control_bytes(&self) -> usize {
        self.installed.capacity()
            * (core::mem::size_of::<(u32, u8)>() + core::mem::size_of::<u32>() + 8)
    }

    /// Total memory footprint: data-path pools plus control-plane dictionary.
    pub fn memory_bytes(&self) -> usize {
        self.data_path_bytes() + self.control_bytes()
    }

    /// Allocates a fresh block and returns its index.
    fn alloc_block(&mut self) -> usize {
        let block = self.blocks();
        self.leaves.resize(self.leaves.len() + BLOCK_SLOTS, 0);
        self.children.resize(self.children.len() + BLOCK_SLOTS, 0);
        block
    }

    /// Returns the child block below `block`/`byte`, allocating it if absent.
    fn ensure_child(&mut self, block: usize, byte: usize) -> usize {
        let slot = block * BLOCK_SLOTS + byte;
        let existing = self.children[slot];
        if existing != 0 {
            return (existing - 1) as usize;
        }
        let child = self.alloc_block();
        self.children[block * BLOCK_SLOTS + byte] = child as u32 + 1;
        child
    }

    /// `prefix` with the bits below `prefix_len` cleared: the one key every
    /// spelling of the same prefix installs under. `prefix_len` must be at
    /// most 32.
    pub fn canonical(prefix: u32, prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            prefix & (u32::MAX << (32 - u32::from(prefix_len)))
        }
    }

    /// True if `prefix/prefix_len` is installed, so re-inserting it replaces
    /// its action instead of taking a new entry. `prefix_len` must be at
    /// most 32.
    pub fn contains(&self, prefix: u32, prefix_len: u8) -> bool {
        self.installed
            .contains_key(&(Self::canonical(prefix, prefix_len), prefix_len))
    }

    /// Refuses a prefix length over 32 bits, as [`insert`](Self::insert)
    /// does, so a caller can vet a rule before it writes anything.
    pub fn check_prefix_len(prefix_len: u8) -> Result<()> {
        if prefix_len > 32 {
            return Err(RmtError::FieldOverflow {
                field: "LPM prefix length",
            });
        }
        Ok(())
    }

    /// Installs `prefix/prefix_len → action`. Re-installing an existing
    /// prefix updates its action in place. Incremental: readers between any
    /// two inserts see a consistent LPM table containing every rule inserted
    /// so far.
    pub fn insert(&mut self, prefix: u32, prefix_len: u8, action: u32) -> Result<()> {
        Self::check_prefix_len(prefix_len)?;
        if action > LEAF_ACTION_MASK {
            return Err(RmtError::FieldOverflow {
                field: "LPM action index",
            });
        }
        let prefix = Self::canonical(prefix, prefix_len);
        let replacing = self.installed.contains_key(&(prefix, prefix_len));
        if !replacing && self.installed.len() >= self.capacity {
            return Err(RmtError::TableFull { table: "LPM table" });
        }

        // Depth of the terminal block and the slot span the prefix expands
        // to inside it (controlled prefix expansion for sub-byte lengths).
        let depth = if prefix_len == 0 {
            0
        } else {
            (usize::from(prefix_len) - 1) / 8
        };
        let mut block = 0usize;
        for level in 0..depth {
            let byte = ((prefix >> (24 - 8 * level)) & 0xff) as usize;
            block = self.ensure_child(block, byte);
        }
        let byte = ((prefix >> (24 - 8 * depth)) & 0xff) as usize;
        let covered_bits = usize::from(prefix_len) - 8 * depth; // 0..=8
        let span = 1usize << (8 - covered_bits);
        let start = byte & !(span - 1);
        let leaf = pack_leaf(prefix_len, action);
        let base = block * BLOCK_SLOTS + start;
        for slot in &mut self.leaves[base..base + span] {
            let current = *slot;
            // Longer prefixes keep their slots; equal length is this same
            // prefix (spans of equal-length prefixes never overlap).
            if current & LEAF_VALID == 0 || leaf_plen(current) <= prefix_len {
                *slot = leaf;
            }
        }
        self.installed.insert((prefix, prefix_len), action);
        Ok(())
    }

    /// Looks up the 32-bit value, returning the action of the longest
    /// matching prefix.
    pub fn lookup(&self, value: u32) -> Option<u32> {
        self.lookups.set(self.lookups.get() + 1);
        let mut best: u32 = 0;
        let mut block = 0usize;
        for level in 0..LEVELS {
            let byte = ((value >> (24 - 8 * level)) & 0xff) as usize;
            let slot = block * BLOCK_SLOTS + byte;
            let leaf = self.leaves[slot];
            if leaf & LEAF_VALID != 0 {
                best = leaf;
            }
            let child = self.children[slot];
            if child == 0 {
                break;
            }
            block = (child - 1) as usize;
        }
        if best & LEAF_VALID != 0 {
            self.hits.set(self.hits.get() + 1);
            Some(best & LEAF_ACTION_MASK)
        } else {
            None
        }
    }

    /// Extracts this table's 32-bit field from a lookup key and matches it.
    pub fn lookup_key(&self, key: &LookupKey) -> Option<u32> {
        self.lookup(key.slot_value(self.key_offset, 4) as u32)
    }

    /// Lookup statistics: `(lookups, hits)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups.get(), self.hits.get())
    }

    /// Zeroes the lookup statistics (used when snapshotting a replica).
    pub fn reset_stats(&mut self) {
        self.lookups.set(0);
        self.hits.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LpmTable {
        LpmTable::new(12, 1 << 20)
    }

    #[test]
    fn longest_prefix_wins_regardless_of_insert_order() {
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut t = table();
            let rules = [
                (0x0a00_0000u32, 8u8, 100u32), // 10/8
                (0x0a0a_0000, 16, 200),        // 10.10/16
                (0x0a0a_0a00, 24, 300),        // 10.10.10/24
            ];
            for &i in &order {
                let (p, l, a) = rules[i];
                t.insert(p, l, a).unwrap();
            }
            assert_eq!(t.lookup(0x0a0a_0a05), Some(300), "order {order:?}");
            assert_eq!(t.lookup(0x0a0a_ff05), Some(200));
            assert_eq!(t.lookup(0x0aff_0000), Some(100));
            assert_eq!(t.lookup(0x0b00_0000), None);
            assert_eq!(t.len(), 3);
        }
    }

    #[test]
    fn sub_byte_prefixes_expand_and_nest() {
        let mut t = table();
        t.insert(0xc000_0000, 2, 1).unwrap(); // 192/2
        t.insert(0xc800_0000, 5, 2).unwrap(); // 200/5 (inside 192/2)
        assert_eq!(t.lookup(0xc100_0000), Some(1));
        assert_eq!(t.lookup(0xc900_0000), Some(2));
        assert_eq!(t.lookup(0xcf00_0000), Some(2), "200/5 covers 200..208");
        assert_eq!(t.lookup(0xd000_0000), Some(1));
        assert_eq!(t.lookup(0x4000_0000), None);
        // Inserting the covering /2 again must not clobber the nested /5.
        t.insert(0xc000_0000, 2, 9).unwrap();
        assert_eq!(t.lookup(0xc900_0000), Some(2));
        assert_eq!(t.lookup(0xc100_0000), Some(9), "action update took effect");
        assert_eq!(t.len(), 2, "re-install is an update, not a new entry");
    }

    #[test]
    fn default_route_matches_everything_last() {
        let mut t = table();
        t.insert(0, 0, 7).unwrap();
        assert_eq!(t.lookup(0xffff_ffff), Some(7));
        assert_eq!(t.lookup(0), Some(7));
        t.insert(0xffff_ff00, 24, 8).unwrap();
        assert_eq!(t.lookup(0xffff_ff01), Some(8));
        assert_eq!(t.lookup(0xffff_fe01), Some(7));
    }

    #[test]
    fn host_routes_match_exactly() {
        let mut t = table();
        t.insert(0x0102_0304, 32, 42).unwrap();
        assert_eq!(t.lookup(0x0102_0304), Some(42));
        assert_eq!(t.lookup(0x0102_0305), None);
    }

    #[test]
    fn capacity_and_field_limits_enforced() {
        let mut t = LpmTable::new(12, 2);
        t.insert(0x0100_0000, 8, 1).unwrap();
        t.insert(0x0200_0000, 8, 2).unwrap();
        assert_eq!(
            t.insert(0x0300_0000, 8, 3),
            Err(RmtError::TableFull { table: "LPM table" })
        );
        // Updating an existing prefix is allowed at capacity.
        t.insert(0x0100_0000, 8, 9).unwrap();
        assert_eq!(t.lookup(0x0101_0101), Some(9));
        assert!(t.insert(0, 33, 0).is_err());
        assert!(t.insert(0, 8, 1 << 24).is_err());
    }

    #[test]
    fn lookup_key_extracts_configured_field() {
        let mut t = LpmTable::new(12, 16);
        t.insert(0x0a00_0000, 8, 5).unwrap();
        let key = LookupKey::from_slots(
            [(0, 6), (0, 6), (0x0a01_0203, 4), (0, 4), (0, 2), (0, 2)],
            false,
        );
        assert_eq!(t.lookup_key(&key), Some(5));
        assert_eq!(t.stats(), (1, 1));
        t.reset_stats();
        assert_eq!(t.stats(), (0, 0));
    }

    #[test]
    fn memory_grows_with_blocks_not_entries() {
        let mut t = table();
        let one_block = t.data_path_bytes();
        assert_eq!(one_block, 2 * BLOCK_SLOTS * 4);
        // 256 /16 prefixes under one /8 need the root + one level-1 block.
        for i in 0..256u32 {
            t.insert(0x0a00_0000 | (i << 16), 16, i).unwrap();
        }
        assert_eq!(t.blocks(), 2);
        assert_eq!(t.len(), 256);
        assert!(t.data_path_bytes() < 5 * 1024);
    }

    /// Oracle check: against a naive "scan all prefixes, keep the longest
    /// match" implementation over randomized rule sets and probes.
    #[test]
    fn random_rules_agree_with_naive_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1b9);
        for _ in 0..20 {
            let mut t = table();
            let mut rules: HashMap<(u32, u8), u32> = HashMap::new();
            for action in 0..200u32 {
                let len = rng.gen_range(0u8..=32);
                let prefix = if len == 0 {
                    0
                } else {
                    rng.gen_range(0u32..=u32::MAX) & (u32::MAX << (32 - u32::from(len)))
                };
                t.insert(prefix, len, action).unwrap();
                rules.insert((prefix, len), action);
            }
            assert_eq!(t.len(), rules.len());
            for _ in 0..500 {
                // Probe near installed prefixes half the time to hit often.
                let draw = rng.gen_range(0u32..=u32::MAX);
                let probe = if rng.gen_bool(0.5) {
                    let (&(p, l), _) = rules.iter().nth(rng.gen_range(0..rules.len())).unwrap();
                    p | (draw & (u32::MAX.checked_shr(u32::from(l)).unwrap_or(0)))
                } else {
                    draw
                };
                let oracle = rules
                    .iter()
                    .filter(|&(&(p, l), _)| {
                        l == 0 || (probe ^ p) & (u32::MAX << (32 - u32::from(l))) == 0
                    })
                    .max_by_key(|&(&(_, l), _)| l)
                    .map(|(_, &a)| a);
                assert_eq!(t.lookup(probe), oracle, "probe {probe:#010x}");
            }
        }
    }
}
