//! Allocator accounting: peak occupancy, fragmentation, splits.

use mcds_model::Words;
use serde::{Deserialize, Serialize};

/// Statistics accumulated by an [`FbAllocator`](crate::FbAllocator).
///
/// The paper's quality claims hinge on these numbers: "the memory size
/// used is the minimum allowed by the architecture" (peak occupancy) and
/// "for all examples no data or result has to be split into several
/// parts" (split count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AllocStats {
    allocs: u64,
    frees: u64,
    split_allocs: u64,
    failed_allocs: u64,
    words_allocated: Words,
    words_freed: Words,
    peak_used: Words,
}

impl AllocStats {
    /// Number of successful allocations.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Number of frees.
    #[must_use]
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Number of allocations that had to be split across free blocks.
    #[must_use]
    pub fn split_allocs(&self) -> u64 {
        self.split_allocs
    }

    /// Number of allocation attempts that failed.
    #[must_use]
    pub fn failed_allocs(&self) -> u64 {
        self.failed_allocs
    }

    /// Total words ever allocated.
    #[must_use]
    pub fn words_allocated(&self) -> Words {
        self.words_allocated
    }

    /// Total words ever freed.
    #[must_use]
    pub fn words_freed(&self) -> Words {
        self.words_freed
    }

    /// High-water mark of simultaneous occupancy.
    #[must_use]
    pub fn peak_used(&self) -> Words {
        self.peak_used
    }

    pub(crate) fn record_alloc(&mut self, size: Words, split: bool, used_after: Words) {
        self.allocs += 1;
        if split {
            self.split_allocs += 1;
        }
        self.words_allocated += size;
        self.peak_used = self.peak_used.max(used_after);
    }

    pub(crate) fn record_free(&mut self, size: Words) {
        self.frees += 1;
        self.words_freed += size;
    }

    pub(crate) fn record_failure(&mut self) {
        self.failed_allocs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording() {
        let mut s = AllocStats::default();
        s.record_alloc(Words::new(10), false, Words::new(10));
        s.record_alloc(Words::new(5), true, Words::new(15));
        s.record_free(Words::new(10));
        s.record_failure();
        assert_eq!(s.allocs(), 2);
        assert_eq!(s.split_allocs(), 1);
        assert_eq!(s.frees(), 1);
        assert_eq!(s.failed_allocs(), 1);
        assert_eq!(s.words_allocated(), Words::new(15));
        assert_eq!(s.words_freed(), Words::new(10));
        assert_eq!(s.peak_used(), Words::new(15));
    }

    #[test]
    fn peak_is_monotone() {
        let mut s = AllocStats::default();
        s.record_alloc(Words::new(20), false, Words::new(20));
        s.record_free(Words::new(20));
        s.record_alloc(Words::new(5), false, Words::new(5));
        assert_eq!(s.peak_used(), Words::new(20));
    }
}
