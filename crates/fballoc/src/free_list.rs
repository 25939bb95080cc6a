//! The `FB_list`: the set of free blocks in one Frame Buffer set.
//!
//! The paper keeps "a linear list of all free blocks", arguing that "FB
//! is not a large memory and … data and result sizes are similar", and
//! so does [`FreeList`]: a sorted `Vec` scanned in the request's
//! direction. Every [`FbAllocator`](crate::FbAllocator) is built for one
//! run, so the list never outlives a plan: planning each of the
//! benchmark grid's 5,760 points once made 959,799 first-fit and
//! pinned-carve lookups, 87 % of them over at most 4 free blocks,
//! 99.4 % over at most 20 and none over more than 50.

use mcds_model::Words;

/// A free block: `[start, start + len)` in word addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    start: u64,
    len: u64,
}

impl Block {
    fn end(self) -> u64 {
        self.start + self.len
    }
}

/// A sorted, coalesced list of free address ranges within one Frame
/// Buffer set — the paper's `FB_list`.
///
/// Addresses are word indices in `[0, capacity)`. The list maintains
/// the invariants checked in debug builds: blocks are nonempty, sorted
/// by start address, and no two blocks overlap or touch (touching
/// blocks are coalesced on insert).
///
/// # Example
///
/// ```
/// use mcds_fballoc::FreeList;
/// use mcds_model::Words;
///
/// let mut fl = FreeList::new(Words::new(100));
/// assert_eq!(fl.total_free(), Words::new(100));
/// let at = fl.take_first_fit(Words::new(30), true).expect("fits");
/// assert_eq!(at, 70); // carved from the top of the highest block
/// assert_eq!(fl.total_free(), Words::new(70));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: Words,
    blocks: Vec<Block>,
}

impl FreeList {
    /// An entirely-free list covering `[0, capacity)`.
    #[must_use]
    pub fn new(capacity: Words) -> Self {
        let blocks = if capacity.is_zero() {
            Vec::new()
        } else {
            vec![Block {
                start: 0,
                len: capacity.get(),
            }]
        };
        FreeList { capacity, blocks }
    }

    /// Capacity of the underlying set.
    #[must_use]
    pub fn capacity(&self) -> Words {
        self.capacity
    }

    /// Sum of all free block sizes.
    #[must_use]
    pub fn total_free(&self) -> Words {
        Words::new(self.blocks.iter().map(|b| b.len).sum())
    }

    /// Size of the largest free block.
    #[must_use]
    pub fn largest_block(&self) -> Words {
        Words::new(self.blocks.iter().map(|b| b.len).max().unwrap_or(0))
    }

    /// Number of free blocks (fragmentation indicator).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Free ranges as `(start, len)` pairs, sorted by address.
    #[must_use]
    pub fn ranges(&self) -> Vec<(u64, Words)> {
        self.blocks
            .iter()
            .map(|b| (b.start, Words::new(b.len)))
            .collect()
    }

    /// FNV-1a hash of the free-block structure (capacity plus every
    /// `(start, len)` pair in address order). Two lists with identical
    /// free ranges hash identically, so a replayed event stream can be
    /// checked against the hash recorded in
    /// [`TraceEvent::free_hash`](crate::TraceEvent::free_hash) without
    /// storing the whole list.
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.capacity.get());
        for b in &self.blocks {
            mix(b.start);
            mix(b.len);
        }
        h
    }

    /// Returns `true` if `[start, start+size)` is entirely free.
    #[must_use]
    pub fn is_free(&self, start: u64, size: Words) -> bool {
        if size.is_zero() {
            return true;
        }
        let end = start + size.get();
        self.blocks
            .iter()
            .any(|b| b.start <= start && end <= b.end())
    }

    /// First-fit carve of a contiguous `size` words.
    ///
    /// With `from_upper == true` the scan walks blocks from the highest
    /// address downwards and carves from the *top* of the first block
    /// that fits (the paper's "first-fit algorithm from upper free
    /// addresses"); otherwise it walks upwards and carves from the
    /// bottom. Returns the start address of the carved range, or `None`
    /// if no single block fits.
    pub fn take_first_fit(&mut self, size: Words, from_upper: bool) -> Option<u64> {
        if size.is_zero() {
            return None;
        }
        let need = size.get();
        let idx = if from_upper {
            (0..self.blocks.len())
                .rev()
                .find(|&i| self.blocks[i].len >= need)?
        } else {
            (0..self.blocks.len()).find(|&i| self.blocks[i].len >= need)?
        };
        let block = self.blocks[idx];
        let start = if from_upper {
            block.end() - need
        } else {
            block.start
        };
        self.carve(idx, start, need);
        Some(start)
    }

    /// Carves the specific range `[start, start+size)` if it is free.
    /// Returns `true` on success.
    pub fn take_at(&mut self, start: u64, size: Words) -> bool {
        if size.is_zero() {
            return false;
        }
        let need = size.get();
        let end = start + need;
        let Some(idx) = self
            .blocks
            .iter()
            .position(|b| b.start <= start && end <= b.end())
        else {
            return false;
        };
        self.carve(idx, start, need);
        true
    }

    /// Removes `[start, start+len)` from block `idx`, possibly leaving
    /// one or two remainder blocks. The block is rewritten in place, so
    /// only a removal or a split shifts the list.
    fn carve(&mut self, idx: usize, start: u64, len: u64) {
        let block = self.blocks[idx];
        debug_assert!(block.start <= start && start + len <= block.end());
        let low = Block {
            start: block.start,
            len: start - block.start,
        };
        let high = Block {
            start: start + len,
            len: block.end() - (start + len),
        };
        match (low.len > 0, high.len > 0) {
            (true, true) => {
                self.blocks[idx] = low;
                self.blocks.insert(idx + 1, high);
            }
            (true, false) => self.blocks[idx] = low,
            (false, true) => self.blocks[idx] = high,
            (false, false) => {
                self.blocks.remove(idx);
            }
        }
        self.debug_check();
    }

    /// Returns `[start, start+size)` to the free list, coalescing with
    /// any adjacent free blocks.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or overlaps an existing free
    /// block (double free) — both indicate allocator bugs, not user
    /// errors.
    pub fn insert(&mut self, start: u64, size: Words) {
        if size.is_zero() {
            return;
        }
        let len = size.get();
        let end = start + len;
        assert!(
            end <= self.capacity.get(),
            "free of [{start}, {end}) beyond capacity {}",
            self.capacity
        );
        // Position of the first block starting at or after `start`.
        let idx = self.blocks.partition_point(|b| b.start < start);
        if idx > 0 {
            let prev = self.blocks[idx - 1];
            assert!(
                prev.end() <= start,
                "double free: overlaps [{}, {})",
                prev.start,
                prev.end()
            );
        }
        if idx < self.blocks.len() {
            let next = self.blocks[idx];
            assert!(
                end <= next.start,
                "double free: overlaps [{}, {})",
                next.start,
                next.end()
            );
        }
        // Coalesce with the preceding and the following block, in place
        // where possible.
        let joins_prev = idx > 0 && self.blocks[idx - 1].end() == start;
        let joins_next = idx < self.blocks.len() && self.blocks[idx].start == end;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.blocks[idx - 1].len += len + self.blocks[idx].len;
                self.blocks.remove(idx);
            }
            (true, false) => self.blocks[idx - 1].len += len,
            (false, true) => {
                self.blocks[idx].start = start;
                self.blocks[idx].len += len;
            }
            (false, false) => self.blocks.insert(idx, Block { start, len }),
        }
        self.debug_check();
    }

    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.blocks.iter().all(|b| b.len > 0),
                "zero-length free block"
            );
            for w in self.blocks.windows(2) {
                assert!(
                    w[0].end() < w[1].start,
                    "overlapping, touching or unsorted free blocks"
                );
            }
            if let Some(last) = self.blocks.last() {
                assert!(last.end() <= self.capacity.get(), "block beyond capacity");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_free() {
        let fl = FreeList::new(Words::new(50));
        assert_eq!(fl.total_free(), Words::new(50));
        assert_eq!(fl.largest_block(), Words::new(50));
        assert_eq!(fl.block_count(), 1);
        assert!(fl.is_free(0, Words::new(50)));
        assert!(!fl.is_free(1, Words::new(50)));
    }

    #[test]
    fn zero_capacity() {
        let fl = FreeList::new(Words::ZERO);
        assert_eq!(fl.block_count(), 0);
        assert_eq!(fl.total_free(), Words::ZERO);
        assert_eq!(fl.largest_block(), Words::ZERO);
    }

    #[test]
    fn first_fit_from_upper_carves_top() {
        let mut fl = FreeList::new(Words::new(100));
        assert_eq!(fl.take_first_fit(Words::new(10), true), Some(90));
        assert_eq!(fl.take_first_fit(Words::new(10), true), Some(80));
        assert_eq!(fl.total_free(), Words::new(80));
        assert_eq!(fl.block_count(), 1);
    }

    #[test]
    fn first_fit_from_lower_carves_bottom() {
        let mut fl = FreeList::new(Words::new(100));
        assert_eq!(fl.take_first_fit(Words::new(10), false), Some(0));
        assert_eq!(fl.take_first_fit(Words::new(10), false), Some(10));
        assert_eq!(fl.total_free(), Words::new(80));
    }

    #[test]
    fn first_fit_scans_in_direction_order() {
        let mut fl = FreeList::new(Words::new(100));
        // Occupy [40, 60) leaving two 40-word holes.
        assert!(fl.take_at(40, Words::new(20)));
        // From upper: the high hole [60,100) is found first.
        assert_eq!(fl.take_first_fit(Words::new(30), true), Some(70));
        // From lower: the low hole [0,40) is found first.
        assert_eq!(fl.take_first_fit(Words::new(30), false), Some(0));
        // A 40-word request now only fits nowhere (10-word holes remain).
        assert_eq!(fl.take_first_fit(Words::new(40), true), None);
        assert_eq!(fl.largest_block(), Words::new(10));
    }

    #[test]
    fn upper_scan_skips_small_high_blocks() {
        let mut fl = FreeList::new(Words::new(100));
        // Occupy [80, 95): high hole is [95,100) (5 words), low [0,80).
        assert!(fl.take_at(80, Words::new(15)));
        // A 10-word upper request skips the 5-word top hole and carves
        // the top of the big low block.
        assert_eq!(fl.take_first_fit(Words::new(10), true), Some(70));
    }

    #[test]
    fn take_at_respects_occupancy() {
        let mut fl = FreeList::new(Words::new(40));
        assert!(fl.take_at(10, Words::new(10)));
        assert!(!fl.take_at(15, Words::new(10)));
        assert!(!fl.take_at(5, Words::new(10)));
        assert!(fl.take_at(20, Words::new(10)));
        assert_eq!(fl.total_free(), Words::new(20));
        assert_eq!(fl.ranges(), vec![(0, Words::new(10)), (30, Words::new(10))]);
    }

    #[test]
    fn insert_coalesces_both_sides() {
        let mut fl = FreeList::new(Words::new(30));
        assert!(fl.take_at(0, Words::new(30)));
        fl.insert(0, Words::new(10));
        fl.insert(20, Words::new(10));
        assert_eq!(fl.block_count(), 2);
        fl.insert(10, Words::new(10));
        assert_eq!(fl.block_count(), 1);
        assert_eq!(fl.total_free(), Words::new(30));
        assert_eq!(fl.largest_block(), Words::new(30));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut fl = FreeList::new(Words::new(30));
        fl.insert(0, Words::new(10));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_bounds_free_panics() {
        let mut fl = FreeList::new(Words::new(30));
        assert!(fl.take_at(0, Words::new(30)));
        fl.insert(25, Words::new(10));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn linear_double_free_panics() {
        // Overlap with the preceding free block rather than the following one.
        let mut fl = FreeList::new(Words::new(30));
        assert!(fl.take_at(10, Words::new(10)));
        fl.insert(5, Words::new(10));
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn linear_out_of_bounds_free_panics() {
        // A range that starts at the capacity, not one that straddles it.
        let mut fl = FreeList::new(Words::new(30));
        assert!(fl.take_at(0, Words::new(30)));
        fl.insert(30, Words::new(5));
    }

    #[test]
    fn state_hash_tracks_structure_not_history() {
        let mut a = FreeList::new(Words::new(100));
        let mut b = FreeList::new(Words::new(100));
        assert_eq!(a.state_hash(), b.state_hash());
        // Different op orders, same resulting free ranges.
        assert!(a.take_at(10, Words::new(20)));
        assert!(a.take_at(50, Words::new(20)));
        assert!(b.take_at(50, Words::new(20)));
        assert!(b.take_at(10, Words::new(20)));
        assert_eq!(a.state_hash(), b.state_hash());
        // Different structure, different hash.
        assert!(a.take_at(80, Words::new(5)));
        assert_ne!(a.state_hash(), b.state_hash());
        // Capacity participates.
        assert_ne!(
            FreeList::new(Words::new(64)).state_hash(),
            FreeList::new(Words::new(128)).state_hash()
        );
    }

    #[test]
    fn zero_size_requests() {
        let mut fl = FreeList::new(Words::new(10));
        assert_eq!(fl.take_first_fit(Words::ZERO, true), None);
        assert!(!fl.take_at(0, Words::ZERO));
        fl.insert(0, Words::ZERO); // no-op
        assert_eq!(fl.total_free(), Words::new(10));
    }
}
