//! Regularity support: remembering where an object lived last iteration.
//!
//! "To maintain regularity, data and results are allocated from the
//! addresses where was placed previous iteration of them" — the
//! scheduler keys placements by object and retries the remembered
//! address before falling back to first-fit.

use mcds_model::Words;

use crate::{AllocError, Allocation, Direction, FbAllocator};

/// Remembers, per key, the address where an object was last placed, and
/// allocates new instances there when possible.
///
/// Keys are dense indices `0..keys` the caller assigns to its notion of
/// object identity — the allocation walk numbers each (set, object,
/// iteration slot) — so that, say, iteration 2 of `r13` lands where
/// iteration 1 sat (Figure 5 of the paper). The table is one flat
/// vector sized when the memory is built: a lookup is an index, not a
/// hash.
///
/// # Example
///
/// ```
/// use mcds_fballoc::{Direction, FbAllocator, PlacementMemory};
/// use mcds_model::Words;
///
/// # fn main() -> Result<(), mcds_fballoc::AllocError> {
/// const R13: usize = 0;
/// let mut fb = FbAllocator::new(Words::new(64));
/// let mut mem = PlacementMemory::new(1);
/// let a = mem.alloc(&mut fb, R13, "r13#0", Words::new(8), Direction::FromLower)?;
/// let at = a.start();
/// fb.free(a)?;
/// // Next iteration: lands at the same address.
/// let b = mem.alloc(&mut fb, R13, "r13#1", Words::new(8), Direction::FromLower)?;
/// assert_eq!(b.start(), at);
/// assert_eq!(mem.regular_hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlacementMemory {
    preferred: Vec<Option<u64>>,
    regular_hits: u64,
    irregular: u64,
}

impl PlacementMemory {
    /// A memory for keys `0..keys`, none of them placed yet.
    #[must_use]
    pub fn new(keys: usize) -> Self {
        PlacementMemory {
            preferred: vec![None; keys],
            regular_hits: 0,
            irregular: 0,
        }
    }

    /// Allocates `size` words for the object identified by `key`,
    /// preferring the address of the previous placement with that key;
    /// falls back to first-fit in `direction` (and records the new
    /// address as the preference).
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError`] from the fallback first-fit allocation;
    /// the preference and both counters are then left as they were.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not below the `keys` the memory was built for.
    pub fn alloc(
        &mut self,
        fb: &mut FbAllocator,
        key: usize,
        label: impl Into<String>,
        size: Words,
        direction: Direction,
    ) -> Result<Allocation, AllocError> {
        let label = label.into();
        let preferred = self.preferred[key];
        if let Some(at) = preferred {
            if let Ok(alloc) = fb.alloc_at(label.clone(), at, size) {
                self.regular_hits += 1;
                return Ok(alloc);
            }
        }
        let alloc = fb.alloc(label, size, direction)?;
        if preferred.is_some() {
            self.irregular += 1;
        }
        self.preferred[key] = Some(alloc.start());
        Ok(alloc)
    }

    /// Number of allocations that landed on their remembered address.
    #[must_use]
    pub fn regular_hits(&self) -> u64 {
        self.regular_hits
    }

    /// Number of allocations that had a remembered address but could not
    /// use it (irregular placements).
    #[must_use]
    pub fn irregular_placements(&self) -> u64 {
        self.irregular
    }

    /// Forgets all remembered placements.
    pub fn clear(&mut self) {
        self.preferred.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_hit_reuses_the_remembered_address() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem = PlacementMemory::new(2);
        let a = mem
            .alloc(&mut fb, 1, "a#0", Words::new(8), Direction::FromLower)
            .expect("fits");
        let at = a.start();
        fb.free(a).expect("live");
        // First fit from the upper end would land elsewhere.
        let b = mem
            .alloc(&mut fb, 1, "a#1", Words::new(8), Direction::FromUpper)
            .expect("fits");
        assert_eq!(b.start(), at);
        assert_eq!((mem.regular_hits(), mem.irregular_placements()), (1, 0));
    }

    #[test]
    fn falls_back_when_preferred_is_taken() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem = PlacementMemory::new(2);
        let a = mem
            .alloc(&mut fb, 1, "a#0", Words::new(8), Direction::FromUpper)
            .expect("fits");
        let at = a.start();
        fb.free(a).expect("live");
        // Squat on the preferred address.
        let _squatter = fb.alloc_at("squat", at, Words::new(8)).expect("free");
        let b = mem
            .alloc(&mut fb, 1, "a#1", Words::new(8), Direction::FromUpper)
            .expect("fits elsewhere");
        assert_ne!(b.start(), at);
        assert_eq!(mem.regular_hits(), 0);
        assert_eq!(mem.irregular_placements(), 1);
        // The new address becomes the preference.
        let nb = b.start();
        fb.free(b).expect("live");
        let c = mem
            .alloc(&mut fb, 1, "a#2", Words::new(8), Direction::FromUpper)
            .expect("fits");
        assert_eq!(c.start(), nb);
        assert_eq!(mem.regular_hits(), 1);
    }

    #[test]
    fn no_contiguous_block_keeps_the_preference_and_counters() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem = PlacementMemory::new(1);
        let a = mem
            .alloc(&mut fb, 0, "a#0", Words::new(8), Direction::FromUpper)
            .expect("fits");
        let at = a.start();
        fb.free(a).expect("live");
        // Fill the buffer: neither the preference nor any block fits.
        let blocker = fb.alloc_at("block", 0, Words::new(32)).expect("free");
        let err = mem
            .alloc(&mut fb, 0, "a#1", Words::new(8), Direction::FromUpper)
            .expect_err("no room");
        assert!(matches!(err, AllocError::NoContiguousBlock { .. }));
        assert_eq!((mem.regular_hits(), mem.irregular_placements()), (0, 0));
        // The preference survived: first fit from the lower end would
        // land elsewhere.
        fb.free(blocker).expect("live");
        let b = mem
            .alloc(&mut fb, 0, "a#2", Words::new(8), Direction::FromLower)
            .expect("fits");
        assert_eq!(b.start(), at);
        assert_ne!(at, 0);
        assert_eq!((mem.regular_hits(), mem.irregular_placements()), (1, 0));
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem = PlacementMemory::new(3);
        let a = mem
            .alloc(&mut fb, 1, "a", Words::new(8), Direction::FromUpper)
            .expect("fits");
        let b = mem
            .alloc(&mut fb, 2, "b", Words::new(8), Direction::FromUpper)
            .expect("fits");
        assert_ne!(a.start(), b.start());
    }

    #[test]
    fn clear_forgets() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem = PlacementMemory::new(2);
        let a = mem
            .alloc(&mut fb, 1, "a", Words::new(8), Direction::FromLower)
            .expect("fits");
        fb.free(a).expect("live");
        mem.clear();
        let _b = mem
            .alloc(&mut fb, 1, "a", Words::new(8), Direction::FromLower)
            .expect("fits");
        assert_eq!(mem.regular_hits(), 0);
    }
}
