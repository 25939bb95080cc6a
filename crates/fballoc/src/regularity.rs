//! Regularity support: remembering where an object lived last iteration.
//!
//! "To maintain regularity, data and results are allocated from the
//! addresses where was placed previous iteration of them" — the
//! scheduler keys placements by object and retries the remembered
//! address before falling back to first-fit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use mcds_model::Words;

use crate::{AllocError, Allocation, Direction, FbAllocator};

/// Remembers, per key, the address where an object was last placed, and
/// allocates new instances there when possible.
///
/// `K` is the caller's notion of object identity — typically
/// `(DataId, role)` so that, say, iteration 2 of `r13` lands where
/// iteration 1 sat (Figure 5 of the paper). Keys are hashed with a
/// fast unkeyed hasher, so they should be ids the program assigns (the
/// allocation walk's `(object, slot)` pairs are dense indices), not
/// values chosen outside the program.
///
/// # Example
///
/// ```
/// use mcds_fballoc::{Direction, FbAllocator, PlacementMemory};
/// use mcds_model::Words;
///
/// # fn main() -> Result<(), mcds_fballoc::AllocError> {
/// let mut fb = FbAllocator::new(Words::new(64));
/// let mut mem: PlacementMemory<&str> = PlacementMemory::new();
/// let a = mem.alloc(&mut fb, "r13", "r13#0", Words::new(8), Direction::FromLower)?;
/// let at = a.start();
/// fb.free(a)?;
/// // Next iteration: lands at the same address.
/// let b = mem.alloc(&mut fb, "r13", "r13#1", Words::new(8), Direction::FromLower)?;
/// assert_eq!(b.start(), at);
/// assert_eq!(mem.regular_hits(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlacementMemory<K> {
    preferred: HashMap<K, u64, BuildHasherDefault<WordHasher>>,
    regular_hits: u64,
    irregular: u64,
}

/// The multiply-rotate word hasher of rustc's `FxHash`, for the
/// placement table: the default SipHash's resistance to crafted keys
/// buys nothing on program-assigned ids, and it cost a third of an
/// allocation walk. Only lookups depend on the hash; nothing iterates
/// the table, so no output does.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<K: Eq + Hash + Clone> PlacementMemory<K> {
    /// An empty memory.
    #[must_use]
    pub fn new() -> Self {
        PlacementMemory {
            preferred: HashMap::default(),
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
    /// Propagates [`AllocError`] from the fallback first-fit allocation.
    pub fn alloc(
        &mut self,
        fb: &mut FbAllocator,
        key: K,
        label: impl Into<String>,
        size: Words,
        direction: Direction,
    ) -> Result<Allocation, AllocError> {
        let label = label.into();
        if let Some(&at) = self.preferred.get(&key) {
            if let Ok(alloc) = fb.alloc_at(label.clone(), at, size) {
                self.regular_hits += 1;
                return Ok(alloc);
            }
        }
        let alloc = fb.alloc(label, size, direction)?;
        if self.preferred.contains_key(&key) {
            self.irregular += 1;
        }
        self.preferred.insert(key, alloc.start());
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
        self.preferred.clear();
    }
}

impl<K: Eq + Hash + Clone> Default for PlacementMemory<K> {
    fn default() -> Self {
        PlacementMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn falls_back_when_preferred_is_taken() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem: PlacementMemory<u32> = PlacementMemory::new();
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
    fn distinct_keys_do_not_interfere() {
        let mut fb = FbAllocator::new(Words::new(32));
        let mut mem: PlacementMemory<u32> = PlacementMemory::new();
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
        let mut mem: PlacementMemory<u32> = PlacementMemory::new();
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
