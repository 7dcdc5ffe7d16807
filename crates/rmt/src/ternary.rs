//! Priority range (ternary interval) table on flat, sorted arrays.
//!
//! Range/ternary rules (`lo..=hi` with a priority, as packet classifiers use
//! for port ranges and ternary field masks) are stored in two flat layers:
//!
//! * **Base layer** — the classic *elementary interval* layout: every rule
//!   endpoint splits the key space into disjoint intervals; a sorted
//!   boundary array plus a parallel "winning rule" array turn lookup into
//!   one binary search over contiguous memory. This is the cache-dense
//!   read-optimised form (no per-lookup priority arbitration — winners are
//!   precomputed at build time).
//! * **Delta buffer** — rules inserted since the last base rebuild, scanned
//!   linearly on lookup (bounded by `DELTA_LIMIT`, a handful of cache
//!   lines). Inserts append here in O(1); when the buffer fills, the base is
//!   rebuilt from all rules with one endpoint sort + sweep. Readers between
//!   any two inserts see every rule inserted so far — incremental,
//!   non-quiescing, with rebuild cost amortised over `DELTA_LIMIT` inserts.
//!
//! Ties are broken like a TCAM: higher priority wins; equal priority falls
//! back to the earlier-installed rule.

use crate::error::RmtError;
use crate::match_table::LookupKey;
use crate::Result;
use core::cell::Cell;

/// Delta-buffer size that triggers a base rebuild.
const DELTA_LIMIT: usize = 64;

/// One installed range rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeRule {
    /// Inclusive lower bound of the matched field value.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Rule priority: higher wins; ties go to the earlier install.
    pub priority: u16,
    /// Action index to execute on a match.
    pub action: u32,
}

/// A priority range-match table over a field of the lookup key.
#[derive(Debug, Clone)]
pub struct RangeTable {
    /// Byte offset of the matched field within the 24-byte key.
    key_offset: usize,
    /// Width in bytes of the matched field (1..=8).
    key_width: usize,
    /// Maximum number of rules.
    capacity: usize,
    /// All installed rules, in install order (install order = tie-break).
    rules: Vec<RangeRule>,
    /// Sorted elementary-interval boundaries; interval `i` covers
    /// `bounds[i]..bounds[i+1]` (the last runs to `u64::MAX` inclusive).
    bounds: Vec<u64>,
    /// Winning rule per elementary interval: rule index + 1, 0 = none.
    winners: Vec<u32>,
    /// Indices into `rules` not yet folded into the base layer.
    delta: Vec<u32>,
    lookups: Cell<u64>,
    hits: Cell<u64>,
}

/// `a` beats `b` under TCAM arbitration (priority, then install order).
fn beats(rules: &[RangeRule], a: u32, b: u32) -> bool {
    let (ra, rb) = (&rules[a as usize], &rules[b as usize]);
    ra.priority > rb.priority || (ra.priority == rb.priority && a < b)
}

impl RangeTable {
    /// Creates an empty table matching the `key_width`-byte field at
    /// `key_offset`, holding at most `capacity` rules.
    pub fn new(key_offset: usize, key_width: usize, capacity: usize) -> Self {
        RangeTable {
            key_offset,
            key_width: key_width.clamp(1, 8),
            capacity,
            rules: Vec::new(),
            bounds: Vec::new(),
            winners: Vec::new(),
            delta: Vec::new(),
            lookups: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Byte offset of the matched field within the lookup key.
    pub fn key_offset(&self) -> usize {
        self.key_offset
    }

    /// Width in bytes of the matched field.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// Maximum number of rules the table may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if no rule is installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Rules currently awaiting a base rebuild (0 right after a compaction).
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Total memory footprint: rules, interval arrays and delta buffer.
    pub fn memory_bytes(&self) -> usize {
        self.rules.capacity() * core::mem::size_of::<RangeRule>()
            + self.bounds.capacity() * core::mem::size_of::<u64>()
            + self.winners.capacity() * core::mem::size_of::<u32>()
            + self.delta.capacity() * core::mem::size_of::<u32>()
    }

    /// Installs a rule matching `lo..=hi`. O(1) amortised: appends to the
    /// delta buffer and rebuilds the base layer only every `DELTA_LIMIT`
    /// inserts. Readers are never blocked or left with a partial view.
    pub fn insert(&mut self, rule: RangeRule) -> Result<()> {
        if rule.lo > rule.hi {
            return Err(RmtError::FieldOverflow {
                field: "range rule bounds (lo > hi)",
            });
        }
        if self.rules.len() >= self.capacity {
            return Err(RmtError::TableFull {
                table: "range table",
            });
        }
        let index = self.rules.len() as u32;
        self.rules.push(rule);
        self.delta.push(index);
        if self.delta.len() >= DELTA_LIMIT {
            self.rebuild();
        }
        Ok(())
    }

    /// Installs a whole initial table population in one go, folding the
    /// base layer once at the end instead of every `DELTA_LIMIT` inserts —
    /// the control-plane path for standing a table up at the million-rule
    /// scale, where per-insert amortised rebuilds would cost O(n²·log n)
    /// total. All rules are validated before any is installed, so a bad rule
    /// leaves the table untouched. Live installs onto a serving table should
    /// keep using [`insert`](Self::insert).
    pub fn bulk_load(&mut self, rules: impl IntoIterator<Item = RangeRule>) -> Result<()> {
        let batch: Vec<RangeRule> = rules.into_iter().collect();
        if batch.iter().any(|rule| rule.lo > rule.hi) {
            return Err(RmtError::FieldOverflow {
                field: "range rule bounds (lo > hi)",
            });
        }
        if self.rules.len() + batch.len() > self.capacity {
            return Err(RmtError::TableFull {
                table: "range table",
            });
        }
        self.rules.extend(batch);
        self.rebuild();
        Ok(())
    }

    /// Folds the delta buffer into the base layer: endpoint sort + sweep,
    /// precomputing the winning rule of every elementary interval.
    pub fn rebuild(&mut self) {
        self.delta.clear();
        self.bounds.clear();
        self.winners.clear();
        if self.rules.is_empty() {
            return;
        }
        // Event list: rule starts at `lo`, expires after `hi`.
        let mut starts: Vec<u64> = Vec::with_capacity(self.rules.len() * 2);
        for rule in &self.rules {
            starts.push(rule.lo);
            if rule.hi < u64::MAX {
                starts.push(rule.hi + 1);
            }
        }
        starts.sort_unstable();
        starts.dedup();
        // Sweep: for each boundary, the set of active rules changes only at
        // boundaries, so one winner per elementary interval suffices. The
        // active set is maintained as a sorted-by-arbitration vector of rule
        // indices (insert/remove O(active); bounded by real overlap depth).
        let mut events: Vec<(u64, bool, u32)> = Vec::with_capacity(self.rules.len() * 2);
        for (i, rule) in self.rules.iter().enumerate() {
            events.push((rule.lo, true, i as u32));
            if rule.hi < u64::MAX {
                events.push((rule.hi + 1, false, i as u32));
            }
        }
        // Removals first at equal boundaries: a rule ending at b-1 must be
        // gone before the interval starting at b is assigned its winner.
        events.sort_unstable_by_key(|&(at, is_start, i)| (at, is_start, i));
        let mut active: Vec<u32> = Vec::new();
        let mut next_event = 0usize;
        for &boundary in &starts {
            while next_event < events.len() && events[next_event].0 == boundary {
                let (_, is_start, rule) = events[next_event];
                if is_start {
                    let at = active
                        .binary_search_by(|&other| {
                            if beats(&self.rules, other, rule) {
                                core::cmp::Ordering::Less
                            } else {
                                core::cmp::Ordering::Greater
                            }
                        })
                        .unwrap_or_else(|e| e);
                    active.insert(at, rule);
                } else if let Some(at) = active.iter().position(|&r| r == rule) {
                    active.remove(at);
                }
                next_event += 1;
            }
            self.bounds.push(boundary);
            self.winners.push(active.first().map_or(0, |&r| r + 1));
        }
    }

    /// Looks up a field value: binary search over the base intervals, then a
    /// bounded linear scan of the delta buffer; best rule under TCAM
    /// arbitration wins.
    pub fn lookup(&self, value: u64) -> Option<u32> {
        self.lookups.set(self.lookups.get() + 1);
        let mut best: Option<u32> = None;
        if !self.bounds.is_empty() {
            let interval = match self.bounds.binary_search(&value) {
                Ok(i) => Some(i),
                // partition_point semantics: value falls in the interval
                // starting at the previous boundary; below the first
                // boundary nothing matches.
                Err(0) => None,
                Err(i) => Some(i - 1),
            };
            if let Some(i) = interval {
                let winner = self.winners[i];
                if winner != 0 {
                    best = Some(winner - 1);
                }
            }
        }
        for &i in &self.delta {
            let rule = &self.rules[i as usize];
            let better = match best {
                None => true,
                Some(b) => beats(&self.rules, i, b),
            };
            if rule.lo <= value && value <= rule.hi && better {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.hits.set(self.hits.get() + 1);
                Some(self.rules[i as usize].action)
            }
            None => None,
        }
    }

    /// Extracts this table's field from a lookup key and matches it.
    pub fn lookup_key(&self, key: &LookupKey) -> Option<u32> {
        self.lookup(key.slot_value(self.key_offset, self.key_width))
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

    fn rule(lo: u64, hi: u64, priority: u16, action: u32) -> RangeRule {
        RangeRule {
            lo,
            hi,
            priority,
            action,
        }
    }

    #[test]
    fn priority_arbitration_matches_tcam_order() {
        let mut t = RangeTable::new(20, 2, 1024);
        t.insert(rule(0, 1023, 1, 10)).unwrap(); // low ports, low prio
        t.insert(rule(80, 80, 5, 20)).unwrap(); // http, high prio
        t.insert(rule(0, 65535, 0, 30)).unwrap(); // catch-all
        assert_eq!(t.lookup(80), Some(20));
        assert_eq!(t.lookup(443), Some(10));
        assert_eq!(t.lookup(8080), Some(30));
        // Equal priority: earlier install wins.
        t.insert(rule(70, 90, 5, 40)).unwrap();
        assert_eq!(t.lookup(80), Some(20));
        assert_eq!(t.lookup(85), Some(40));
    }

    #[test]
    fn delta_and_base_agree_across_rebuild() {
        let mut t = RangeTable::new(20, 2, 4096);
        for i in 0..DELTA_LIMIT as u64 * 3 + 7 {
            t.insert(rule(i * 10, i * 10 + 5, (i % 7) as u16, i as u32))
                .unwrap();
            // Inserted rule is visible immediately, rebuild or not.
            assert_eq!(t.lookup(i * 10 + 2), Some(i as u32));
        }
        let before: Vec<Option<u32>> = (0..2100).map(|v| t.lookup(v)).collect();
        assert!(t.delta_len() > 0 || t.len().is_multiple_of(DELTA_LIMIT));
        t.rebuild();
        assert_eq!(t.delta_len(), 0);
        let after: Vec<Option<u32>> = (0..2100).map(|v| t.lookup(v)).collect();
        assert_eq!(before, after, "rebuild must not change match results");
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let rules: Vec<RangeRule> = (0..300u64)
            .map(|i| rule(i * 8, i * 8 + 11, (i % 5) as u16, i as u32))
            .collect();
        let mut incremental = RangeTable::new(20, 2, 4096);
        for r in &rules {
            incremental.insert(*r).unwrap();
        }
        let mut bulk = RangeTable::new(20, 2, 4096);
        bulk.bulk_load(rules.iter().copied()).unwrap();
        assert_eq!(bulk.len(), incremental.len());
        assert_eq!(bulk.delta_len(), 0, "bulk load leaves no delta");
        for v in 0..2500u64 {
            assert_eq!(bulk.lookup(v), incremental.lookup(v), "value {v}");
        }
        // Validation is all-or-nothing.
        let mut t = RangeTable::new(20, 2, 8);
        assert!(t.bulk_load([rule(0, 3, 0, 0), rule(9, 4, 0, 1)]).is_err());
        assert!(t.is_empty(), "bad batch must leave the table untouched");
        assert!(t.bulk_load((0..9u64).map(|i| rule(i, i, 0, 0))).is_err());
        assert!(t.is_empty(), "over-capacity batch must be refused whole");
    }

    #[test]
    fn bounds_and_capacity_enforced() {
        let mut t = RangeTable::new(20, 2, 2);
        assert!(t.insert(rule(5, 4, 0, 0)).is_err());
        t.insert(rule(0, 10, 0, 1)).unwrap();
        t.insert(rule(20, 30, 0, 2)).unwrap();
        assert_eq!(
            t.insert(rule(40, 50, 0, 3)),
            Err(RmtError::TableFull {
                table: "range table"
            })
        );
    }

    #[test]
    fn full_u64_span_and_extremes() {
        let mut t = RangeTable::new(0, 8, 16);
        t.insert(rule(0, u64::MAX, 0, 1)).unwrap();
        t.insert(rule(u64::MAX, u64::MAX, 3, 2)).unwrap();
        t.rebuild();
        assert_eq!(t.lookup(0), Some(1));
        assert_eq!(t.lookup(u64::MAX - 1), Some(1));
        assert_eq!(t.lookup(u64::MAX), Some(2));
    }

    #[test]
    fn lookup_key_extracts_configured_field() {
        let mut t = RangeTable::new(20, 2, 16);
        t.insert(rule(1000, 2000, 0, 9)).unwrap();
        let key = LookupKey::from_slots([(0, 6), (0, 6), (0, 4), (0, 4), (1500, 2), (0, 2)], false);
        assert_eq!(t.lookup_key(&key), Some(9));
        let (lookups, hits) = t.stats();
        assert_eq!((lookups, hits), (1, 1));
    }

    /// Oracle check: base+delta lookup equals a naive full scan with TCAM
    /// arbitration, across randomized rules, probes and rebuild points.
    #[test]
    fn random_rules_agree_with_naive_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x7e47);
        for _ in 0..15 {
            let mut t = RangeTable::new(0, 8, 1 << 16);
            let mut oracle_rules: Vec<RangeRule> = Vec::new();
            for i in 0..300u32 {
                let lo = rng.gen_range(0u64..1000);
                let hi = lo + rng.gen_range(0u64..200);
                let r = rule(lo, hi, rng.gen_range(0u16..4), i);
                t.insert(r).unwrap();
                oracle_rules.push(r);
                if rng.gen_bool(0.01) {
                    t.rebuild();
                }
            }
            for _ in 0..800 {
                let probe = rng.gen_range(0u64..1400);
                let expect = oracle_rules
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.lo <= probe && probe <= r.hi)
                    .max_by(|(i, a), (j, b)| {
                        a.priority.cmp(&b.priority).then(j.cmp(i)) // earlier index wins ties
                    })
                    .map(|(_, r)| r.action);
                assert_eq!(t.lookup(probe), expect, "probe {probe}");
            }
        }
    }
}
