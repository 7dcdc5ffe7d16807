//! Space partitioning of match-action table entries and stateful memory.
//!
//! Resources that are plentiful enough to be divided at flow granularity —
//! CAM/action-table entries and stateful memory words — are space-partitioned
//! across modules: each module owns a contiguous range of addresses and the
//! allocator guarantees ranges never overlap (§3, Table 1). This module
//! provides the contiguous-range allocator the pipeline uses for both.

use crate::error::CoreError;
use crate::module::ModuleId;
use crate::Result;
use std::collections::BTreeMap;

/// A contiguous range `[start, start + len)` of a partitioned resource owned
/// by one module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// First unit of the range.
    pub start: usize,
    /// Number of units.
    pub len: usize,
}

impl Allocation {
    /// One past the last unit of the range.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// True if `index` falls inside the range.
    pub fn contains(&self, index: usize) -> bool {
        index >= self.start && index < self.end()
    }

    /// True if the two ranges share any unit.
    pub fn overlaps(&self, other: &Allocation) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

/// Allocates contiguous, non-overlapping ranges of a fixed-capacity resource
/// to modules. Used for per-stage CAM/action-table addresses (contiguity is
/// also what makes ternary priorities per-module updatable, Appendix B) and
/// for per-stage stateful memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeAllocator {
    resource: String,
    capacity: usize,
    allocations: BTreeMap<ModuleId, Allocation>,
}

impl RangeAllocator {
    /// Creates an allocator for `capacity` units of `resource`.
    pub fn new(resource: impl Into<String>, capacity: usize) -> Self {
        RangeAllocator {
            resource: resource.into(),
            capacity,
            allocations: BTreeMap::new(),
        }
    }

    /// Total capacity in units.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Units currently allocated.
    pub fn used(&self) -> usize {
        self.allocations.values().map(|a| a.len).sum()
    }

    /// Units still free (possibly fragmented).
    pub fn free(&self) -> usize {
        self.capacity - self.used()
    }

    /// The allocation of `module`, if any.
    pub fn allocation(&self, module: ModuleId) -> Option<Allocation> {
        self.allocations.get(&module).copied()
    }

    /// Allocates a contiguous range of `len` units for `module`.
    ///
    /// Fails if the module already holds a range or if no contiguous gap of
    /// the requested size exists. A request of zero units succeeds with an
    /// empty range at offset 0.
    pub fn allocate(&mut self, module: ModuleId, len: usize) -> Result<Allocation> {
        if self.allocations.contains_key(&module) {
            return Err(CoreError::ModuleAlreadyLoaded {
                module_id: module.value(),
            });
        }
        if len == 0 {
            let alloc = Allocation { start: 0, len: 0 };
            self.allocations.insert(module, alloc);
            return Ok(alloc);
        }
        let start = self.find_gap(len, None)?;
        let alloc = Allocation { start, len };
        self.allocations.insert(module, alloc);
        Ok(alloc)
    }

    /// Releases `module`'s range. Returns the released allocation, if any.
    pub fn release(&mut self, module: ModuleId) -> Option<Allocation> {
        self.allocations.remove(&module)
    }

    /// Checks that `module` could be granted `len` units once its current
    /// range is released — what an update must know before it unloads the
    /// running program. Fails with the error [`allocate`](Self::allocate)
    /// would then return.
    pub fn check_reallocate(&self, module: ModuleId, len: usize) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        self.find_gap(len, Some(module)).map(|_| ())
    }

    /// Finds the lowest-addressed gap of at least `len` units (first fit),
    /// counting `released`'s range as free. When none fits, the error names
    /// the largest gap there is: the most one contiguous grant could be, not
    /// the fragmented total of [`free`](Self::free).
    fn find_gap(&self, len: usize, released: Option<ModuleId>) -> Result<usize> {
        let mut ranges: Vec<Allocation> = self
            .allocations
            .iter()
            .filter(|(owner, a)| a.len > 0 && Some(**owner) != released)
            .map(|(_, a)| *a)
            .collect();
        ranges.sort_by_key(|a| a.start);
        let mut cursor = 0usize;
        let mut largest = 0usize;
        for range in &ranges {
            let gap = range.start.saturating_sub(cursor);
            if gap >= len {
                return Ok(cursor);
            }
            largest = largest.max(gap);
            cursor = cursor.max(range.end());
        }
        let gap = self.capacity.saturating_sub(cursor);
        if gap >= len {
            Ok(cursor)
        } else {
            Err(CoreError::InsufficientResource {
                resource: self.resource.clone(),
                requested: len,
                available: largest.max(gap),
            })
        }
    }

    /// Checks the global invariant that no two modules' ranges overlap.
    /// Always true by construction; exposed for the property tests.
    pub fn verify_disjoint(&self) -> bool {
        let ranges: Vec<_> = self.allocations.values().filter(|a| a.len > 0).collect();
        for (i, a) in ranges.iter().enumerate() {
            for b in &ranges[i + 1..] {
                if a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_release_reuse() {
        let mut alloc = RangeAllocator::new("match entries", 16);
        let a = alloc.allocate(ModuleId::new(1), 8).unwrap();
        let b = alloc.allocate(ModuleId::new(2), 8).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 8);
        assert_eq!(alloc.free(), 0);
        assert!(alloc.allocate(ModuleId::new(3), 1).is_err());
        // Releasing module 1 frees its range for a new module.
        assert_eq!(alloc.release(ModuleId::new(1)), Some(a));
        let c = alloc.allocate(ModuleId::new(3), 4).unwrap();
        assert_eq!(c.start, 0);
        assert!(alloc.verify_disjoint());
        assert_eq!(alloc.capacity(), 16);
        assert_eq!(alloc.used(), 12);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut alloc = RangeAllocator::new("stateful", 64);
        alloc.allocate(ModuleId::new(5), 10).unwrap();
        assert!(matches!(
            alloc.allocate(ModuleId::new(5), 10),
            Err(CoreError::ModuleAlreadyLoaded { module_id: 5 })
        ));
    }

    #[test]
    fn zero_length_allocation_is_fine() {
        let mut alloc = RangeAllocator::new("stateful", 4);
        let a = alloc.allocate(ModuleId::new(1), 0).unwrap();
        assert_eq!(a.len, 0);
        assert_eq!(alloc.free(), 4);
        let b = alloc.allocate(ModuleId::new(2), 4).unwrap();
        assert_eq!(b.start, 0);
    }

    #[test]
    fn fragmentation_requires_contiguous_fit() {
        let mut alloc = RangeAllocator::new("cam", 12);
        alloc.allocate(ModuleId::new(1), 4).unwrap(); // [0,4)
        alloc.allocate(ModuleId::new(2), 4).unwrap(); // [4,8)
        alloc.allocate(ModuleId::new(3), 4).unwrap(); // [8,12)
        alloc.release(ModuleId::new(1));
        alloc.release(ModuleId::new(3));
        // 8 units free but only 4 contiguous at either end.
        assert_eq!(alloc.free(), 8);
        assert!(alloc.allocate(ModuleId::new(4), 8).is_err());
        // The refusal names the largest grantable gap, not the total.
        assert!(matches!(
            alloc.allocate(ModuleId::new(4), 6),
            Err(CoreError::InsufficientResource {
                requested: 6,
                available: 4,
                ..
            })
        ));
        let a = alloc.allocate(ModuleId::new(5), 4).unwrap();
        assert_eq!(a.start, 0);
    }

    #[test]
    fn reallocation_counts_only_the_module_own_range_as_free() {
        let mut alloc = RangeAllocator::new("cam", 16);
        alloc.allocate(ModuleId::new(1), 10).unwrap(); // [0,10)
        alloc.allocate(ModuleId::new(2), 4).unwrap(); // [10,14)
        assert_eq!(alloc.check_reallocate(ModuleId::new(1), 10), Ok(()));
        assert!(matches!(
            alloc.check_reallocate(ModuleId::new(1), 11),
            Err(CoreError::InsufficientResource {
                requested: 11,
                available: 10,
                ..
            })
        ));
        // Module 2 regrows into the tail, not into module 1's range.
        assert_eq!(alloc.check_reallocate(ModuleId::new(2), 6), Ok(()));
        assert!(alloc.check_reallocate(ModuleId::new(2), 7).is_err());
        assert_eq!(alloc.check_reallocate(ModuleId::new(2), 0), Ok(()));
        // The query changes nothing.
        assert_eq!(alloc.used(), 14);
    }

    #[test]
    fn allocation_helpers() {
        let a = Allocation { start: 4, len: 4 };
        assert_eq!(a.end(), 8);
        assert!(a.contains(4));
        assert!(a.contains(7));
        assert!(!a.contains(8));
        assert!(a.overlaps(&Allocation { start: 7, len: 2 }));
        assert!(!a.overlaps(&Allocation { start: 8, len: 2 }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Whatever sequence of allocations and releases happens, live ranges
    /// never overlap and never exceed capacity.
    #[test]
    fn allocations_stay_disjoint() {
        let mut rng = StdRng::seed_from_u64(0xa110c);
        for _ in 0..200 {
            let mut alloc = RangeAllocator::new("prop", 64);
            for _ in 0..rng.gen_range(1usize..60) {
                let module = ModuleId::new(rng.gen_range(1u16..40));
                let len = rng.gen_range(0usize..12);
                if rng.gen_bool(0.5) {
                    alloc.release(module);
                } else {
                    let _ = alloc.allocate(module, len);
                }
                assert!(alloc.verify_disjoint());
                assert!(alloc.used() <= alloc.capacity());
            }
        }
    }
}
