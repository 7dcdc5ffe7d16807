//! Per-stage stateful memory and address translation.
//!
//! Each stage has a block of persistent memory (register array) that the
//! stateful ALU operations (`load`/`store`/`loadd`) read and write. In the
//! baseline RMT pipeline the address supplied by the action is used directly;
//! Menshen inserts a per-module segment-table translation in front of the
//! memory (the [`AddressTranslate`] trait is the seam where `menshen-core`
//! plugs that in).

use crate::error::RmtError;
use crate::Result;

/// Translation from a module-local stateful address to a physical address.
///
/// Implementations must return `None` when the access is outside the module's
/// allocation, in which case the access is suppressed (the paper's hardware
/// bounds accesses to the module's segment; the simulator reports it in the
/// stage trace so tests can assert on attempted violations).
pub trait AddressTranslate {
    /// Translates `(module_id, local_address)` into a physical word address.
    fn translate(&self, module_id: u16, local_address: u32) -> Option<u32>;
}

/// The identity translation used by the baseline (single-module) pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityTranslation;

impl AddressTranslate for IdentityTranslation {
    fn translate(&self, _module_id: u16, local_address: u32) -> Option<u32> {
        Some(local_address)
    }
}

/// A block of per-stage stateful memory (64-bit words).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatefulMemory {
    words: Vec<u64>,
    reads: u64,
    writes: u64,
    /// When set, accesses are digest replays (State-Compute Replication):
    /// the data mutations are identical, but they are tallied in the
    /// `replay_*` counters so real traffic statistics stay clean.
    replay: bool,
    replay_reads: u64,
    replay_writes: u64,
}

impl StatefulMemory {
    /// Creates a zeroed memory of `size` words.
    pub fn new(size: usize) -> Self {
        StatefulMemory {
            words: vec![0; size],
            reads: 0,
            writes: 0,
            replay: false,
            replay_reads: 0,
            replay_writes: 0,
        }
    }

    /// Number of words in the memory.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the memory has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Reads the word at `address`.
    pub fn read(&mut self, address: u32) -> Result<u64> {
        let word =
            self.words
                .get(address as usize)
                .copied()
                .ok_or(RmtError::StatefulOutOfRange {
                    address,
                    limit: self.words.len() as u32,
                })?;
        if self.replay {
            self.replay_reads += 1;
        } else {
            self.reads += 1;
        }
        Ok(word)
    }

    /// Writes the word at `address`.
    pub fn write(&mut self, address: u32, value: u64) -> Result<()> {
        let limit = self.words.len() as u32;
        let slot = self
            .words
            .get_mut(address as usize)
            .ok_or(RmtError::StatefulOutOfRange { address, limit })?;
        *slot = value;
        if self.replay {
            self.replay_writes += 1;
        } else {
            self.writes += 1;
        }
        Ok(())
    }

    /// Atomically reads the word at `address`, then increments it — the
    /// `loadd` operation of Table 2.
    pub fn load_and_add(&mut self, address: u32) -> Result<u64> {
        let limit = self.words.len() as u32;
        let slot = self
            .words
            .get_mut(address as usize)
            .ok_or(RmtError::StatefulOutOfRange { address, limit })?;
        let old = *slot;
        *slot = slot.wrapping_add(1);
        if self.replay {
            self.replay_reads += 1;
            self.replay_writes += 1;
        } else {
            self.reads += 1;
            self.writes += 1;
        }
        Ok(old)
    }

    /// Reads without counting (used by tests and the software interface).
    pub fn peek(&self, address: u32) -> Option<u64> {
        self.words.get(address as usize).copied()
    }

    /// Zeroes a contiguous range of words; used when a module's segment is
    /// reclaimed so no state leaks to the next owner.
    pub fn clear_range(&mut self, start: u32, len: u32) -> Result<()> {
        let end = start.checked_add(len).ok_or(RmtError::StatefulOutOfRange {
            address: start,
            limit: self.words.len() as u32,
        })?;
        if end as usize > self.words.len() {
            return Err(RmtError::StatefulOutOfRange {
                address: end,
                limit: self.words.len() as u32,
            });
        }
        for word in &mut self.words[start as usize..end as usize] {
            *word = 0;
        }
        Ok(())
    }

    /// Copies a contiguous range of words out of the memory without touching
    /// the access statistics (a management-plane read, like [`peek`](Self::peek)
    /// (Self::peek)). This is the extraction half of the state-migration
    /// hooks: the sharded runtime snapshots a module's segment here before
    /// replaying it into another replica.
    pub fn snapshot_range(&self, start: u32, len: u32) -> Result<Vec<u64>> {
        let end = self.range_end(start, len)?;
        Ok(self.words[start as usize..end].to_vec())
    }

    /// Copies a contiguous range of words out and zeroes it in one step —
    /// the "move" primitive of state migration: after a take, exactly one
    /// copy of the state exists (the returned one), so replaying it into
    /// another replica cannot double-count.
    pub fn take_range(&mut self, start: u32, len: u32) -> Result<Vec<u64>> {
        let end = self.range_end(start, len)?;
        let mut taken = Vec::with_capacity(len as usize);
        for word in &mut self.words[start as usize..end] {
            taken.push(std::mem::take(word));
        }
        Ok(taken)
    }

    /// Adds `words` element-wise (wrapping) onto the range starting at
    /// `start` — the injection half of state migration. Addition, not
    /// overwrite: for single-owner state the target range is zero (so add
    /// equals set), and for replicated mergeable state addition is exactly
    /// the legal merge.
    pub fn merge_range(&mut self, start: u32, words: &[u64]) -> Result<()> {
        let end = self.range_end(start, words.len() as u32)?;
        for (slot, &value) in self.words[start as usize..end].iter_mut().zip(words) {
            *slot = slot.wrapping_add(value);
        }
        Ok(())
    }

    /// Bounds-checks `start..start + len`, returning the exclusive end.
    fn range_end(&self, start: u32, len: u32) -> Result<usize> {
        let limit = self.words.len() as u32;
        let end = start.checked_add(len).ok_or(RmtError::StatefulOutOfRange {
            address: start,
            limit,
        })?;
        if end > limit {
            return Err(RmtError::StatefulOutOfRange {
                address: end,
                limit,
            });
        }
        Ok(end as usize)
    }

    /// Total number of reads performed (statistics for the software interface).
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Total number of writes performed.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Enters or leaves digest-replay accounting. While set, every access
    /// mutates the words exactly as normal but is tallied in the replay
    /// counters — the digest-apply path of State-Compute Replication wraps
    /// each replayed stage in `set_replay(true)` / `set_replay(false)` so a
    /// replica's real-traffic statistics are not inflated by replays.
    pub fn set_replay(&mut self, replay: bool) {
        self.replay = replay;
    }

    /// Total reads performed while in replay mode.
    pub fn replay_read_count(&self) -> u64 {
        self.replay_reads
    }

    /// Total writes performed while in replay mode.
    pub fn replay_write_count(&self) -> u64 {
        self.replay_writes
    }

    /// Zeroes the read/write statistics (the memory contents are untouched).
    /// Used when a pipeline is snapshotted into a fresh replica.
    pub fn reset_stats(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.replay_reads = 0;
        self.replay_writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut mem = StatefulMemory::new(16);
        assert_eq!(mem.len(), 16);
        assert!(!mem.is_empty());
        mem.write(3, 42).unwrap();
        assert_eq!(mem.read(3).unwrap(), 42);
        assert_eq!(mem.peek(3), Some(42));
        assert_eq!(mem.read_count(), 1);
        assert_eq!(mem.write_count(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut mem = StatefulMemory::new(4);
        assert!(matches!(
            mem.read(4),
            Err(RmtError::StatefulOutOfRange { .. })
        ));
        assert!(matches!(
            mem.write(100, 1),
            Err(RmtError::StatefulOutOfRange { .. })
        ));
        assert!(mem.load_and_add(4).is_err());
        assert_eq!(mem.peek(4), None);
    }

    #[test]
    fn load_and_add_returns_old_value() {
        let mut mem = StatefulMemory::new(4);
        assert_eq!(mem.load_and_add(0).unwrap(), 0);
        assert_eq!(mem.load_and_add(0).unwrap(), 1);
        assert_eq!(mem.peek(0), Some(2));
        mem.write(1, u64::MAX).unwrap();
        assert_eq!(mem.load_and_add(1).unwrap(), u64::MAX);
        assert_eq!(mem.peek(1), Some(0), "wrapping add");
    }

    #[test]
    fn clear_range_zeroes_only_that_range() {
        let mut mem = StatefulMemory::new(8);
        for i in 0..8 {
            mem.write(i, 100 + u64::from(i)).unwrap();
        }
        mem.clear_range(2, 3).unwrap();
        assert_eq!(mem.peek(1), Some(101));
        assert_eq!(mem.peek(2), Some(0));
        assert_eq!(mem.peek(4), Some(0));
        assert_eq!(mem.peek(5), Some(105));
        assert!(mem.clear_range(6, 3).is_err());
        assert!(mem.clear_range(u32::MAX, 2).is_err());
    }

    #[test]
    fn migration_range_ops_move_and_merge_state() {
        let mut mem = StatefulMemory::new(8);
        for i in 0..8 {
            mem.write(i, 10 + u64::from(i)).unwrap();
        }
        let stats = (mem.read_count(), mem.write_count());
        // Snapshot copies without clearing or counting.
        assert_eq!(mem.snapshot_range(2, 3).unwrap(), vec![12, 13, 14]);
        assert_eq!(mem.peek(2), Some(12));
        // Take moves: the source range is zeroed.
        assert_eq!(mem.take_range(2, 3).unwrap(), vec![12, 13, 14]);
        assert_eq!(mem.peek(2), Some(0));
        assert_eq!(mem.peek(4), Some(0));
        assert_eq!(mem.peek(5), Some(15), "words outside the range survive");
        // Merge adds (wrapping) onto the destination.
        mem.merge_range(2, &[12, 13, 14]).unwrap();
        assert_eq!(mem.snapshot_range(2, 3).unwrap(), vec![12, 13, 14]);
        mem.write(7, u64::MAX).unwrap();
        mem.merge_range(7, &[2]).unwrap();
        assert_eq!(mem.peek(7), Some(1), "merge wraps like loadd");
        // None of the range ops count as data-path accesses.
        assert_eq!(
            (mem.read_count(), mem.write_count()),
            (stats.0, stats.1 + 1),
            "only the explicit write above counts"
        );
        // Bounds are enforced like every other accessor.
        assert!(mem.snapshot_range(6, 3).is_err());
        assert!(mem.take_range(u32::MAX, 2).is_err());
        assert!(mem.merge_range(7, &[1, 2]).is_err());
    }

    #[test]
    fn replay_mode_mutates_identically_but_counts_separately() {
        let mut mem = StatefulMemory::new(4);
        mem.load_and_add(0).unwrap();
        mem.set_replay(true);
        assert_eq!(mem.load_and_add(0).unwrap(), 1);
        mem.write(1, 9).unwrap();
        assert_eq!(mem.read(1).unwrap(), 9);
        mem.set_replay(false);
        assert_eq!(mem.peek(0), Some(2), "replay advances the words");
        assert_eq!((mem.read_count(), mem.write_count()), (1, 1));
        assert_eq!(
            (mem.replay_read_count(), mem.replay_write_count()),
            (2, 2),
            "replay accesses land in their own tallies"
        );
        mem.reset_stats();
        assert_eq!(mem.replay_read_count(), 0);
        assert_eq!(mem.replay_write_count(), 0);
    }

    #[test]
    fn identity_translation_passes_through() {
        let t = IdentityTranslation;
        assert_eq!(t.translate(7, 123), Some(123));
    }
}
