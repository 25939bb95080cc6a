//! The Frame Buffer allocator: two-ended first-fit with splitting.

use mcds_model::Words;
use serde::{Deserialize, Serialize};

use crate::free_list::FreeList;
use crate::stats::AllocStats;
use crate::trace::{TraceEvent, TraceKind};
use crate::AllocError;

/// Growth direction of an allocation request.
///
/// The paper places long-lived objects (shared data, kernel input data,
/// shared results) "following the first-fit algorithm from upper free
/// addresses" and short-lived ones (final and intermediate results)
/// "from lower free addresses", so the two populations grow towards each
/// other and the middle of the set stays contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// First-fit scanning from the highest free addresses downwards.
    FromUpper,
    /// First-fit scanning from the lowest free addresses upwards.
    FromLower,
}

/// A contiguous piece of an allocation: `[start, start + len)` word
/// addresses within one Frame Buffer set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// First word address.
    pub start: u64,
    /// Length in words.
    pub len: Words,
}

impl Segment {
    /// One-past-the-end word address.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len.get()
    }
}

/// Opaque handle naming a live allocation.
///
/// It carries the allocation's serial number (its rank in allocation
/// order) and the live-table slot it occupies. Slots are reused once
/// freed, but serials never are, so a stale handle never names the
/// slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AllocHandle {
    serial: u64,
    slot: u32,
}

/// An allocation's address ranges: the one segment of a contiguous
/// allocation inline, the pieces of a split one on the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segments {
    One(Segment),
    Split(Vec<Segment>),
}

impl Segments {
    fn as_slice(&self) -> &[Segment] {
        match self {
            Segments::One(segment) => std::slice::from_ref(segment),
            Segments::Split(segments) => segments,
        }
    }
}

/// A completed allocation: one segment normally, several if the object
/// had to be split. The allocator keeps it in its live table and hands
/// out its [`AllocHandle`]; read it back with
/// [`FbAllocator::allocation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    handle: AllocHandle,
    label: String,
    segments: Segments,
}

impl Allocation {
    /// The handle that names this allocation (and
    /// [`free`](FbAllocator::free)s it).
    #[must_use]
    pub fn handle(&self) -> AllocHandle {
        self.handle
    }

    /// The label given at allocation time (e.g. `"r13"`; empty when
    /// the caller had no one to show it to).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The segments, in ascending address order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        self.segments.as_slice()
    }

    /// Total allocated size.
    #[must_use]
    pub fn size(&self) -> Words {
        self.segments().iter().map(|s| s.len).sum()
    }

    /// `true` if the object had to be split across multiple free blocks.
    #[must_use]
    pub fn is_split(&self) -> bool {
        matches!(self.segments, Segments::Split(_))
    }

    /// Start address — meaningful for contiguous allocations.
    ///
    /// # Panics
    ///
    /// Panics if the allocation has no segments (cannot happen for
    /// allocations produced by [`FbAllocator`]).
    #[must_use]
    pub fn start(&self) -> u64 {
        self.segments().first().expect("non-empty allocation").start
    }
}

/// Allocator for one Frame Buffer set.
///
/// Implements the paper's `FB_list`-based first-fit with two growth
/// directions, exact placement for regularity, last-resort splitting,
/// and full accounting. See the [crate docs](crate) for the policy
/// rationale and an example.
#[derive(Debug, Clone)]
pub struct FbAllocator {
    free: FreeList,
    /// Live allocations by [`AllocHandle`] slot. A freed slot goes on
    /// `vacant` and the next allocation reuses it, so the table never
    /// grows past the most allocations live at once.
    live: Vec<Option<Allocation>>,
    vacant: Vec<u32>,
    next_serial: u64,
    stats: AllocStats,
    trace: Option<Vec<TraceEvent>>,
}

impl FbAllocator {
    /// An empty allocator over a set of `capacity` words.
    #[must_use]
    pub fn new(capacity: Words) -> Self {
        FbAllocator {
            free: FreeList::new(capacity),
            live: Vec::new(),
            vacant: Vec::new(),
            next_serial: 0,
            stats: AllocStats::default(),
            trace: None,
        }
    }

    /// Like [`new`](Self::new), but records a [`TraceEvent`] per
    /// allocation and free for later rendering.
    #[must_use]
    pub fn with_trace(capacity: Words) -> Self {
        let mut a = FbAllocator::new(capacity);
        a.trace = Some(Vec::new());
        a
    }

    /// Capacity of the underlying set.
    #[must_use]
    pub fn capacity(&self) -> Words {
        self.free.capacity()
    }

    /// Words currently allocated.
    #[must_use]
    pub fn used(&self) -> Words {
        self.capacity() - self.free.total_free()
    }

    /// Words currently free.
    #[must_use]
    pub fn free_space(&self) -> Words {
        self.free.total_free()
    }

    /// Size of the largest contiguous free block.
    #[must_use]
    pub fn largest_free_block(&self) -> Words {
        self.free.largest_block()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// The recorded trace, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.trace.as_deref()
    }

    /// Live allocations in no particular order.
    pub fn live(&self) -> impl Iterator<Item = &Allocation> + '_ {
        self.live.iter().flatten()
    }

    /// The live allocation named by `handle`, if any.
    #[must_use]
    pub fn allocation(&self, handle: AllocHandle) -> Option<&Allocation> {
        self.live
            .get(handle.slot as usize)?
            .as_ref()
            .filter(|a| a.handle == handle)
    }

    /// [`FreeList::state_hash`] of the current free-block structure —
    /// the fingerprint trace events carry so replays can be verified.
    #[must_use]
    pub fn free_list_hash(&self) -> u64 {
        self.free.state_hash()
    }

    /// Contiguous first-fit allocation in the given direction. Returns
    /// the new allocation's handle.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] for empty requests;
    /// [`AllocError::NoContiguousBlock`] if no single free block holds
    /// `size` (the caller may then retry with
    /// [`alloc_split`](Self::alloc_split)).
    pub fn alloc(
        &mut self,
        label: &str,
        size: Words,
        direction: Direction,
    ) -> Result<AllocHandle, AllocError> {
        if size.is_zero() {
            return Err(AllocError::ZeroSize);
        }
        let from_upper = matches!(direction, Direction::FromUpper);
        let Some(start) = self.free.take_first_fit(size, from_upper) else {
            self.stats.record_failure();
            return Err(AllocError::NoContiguousBlock {
                requested: size,
                largest_block: self.free.largest_block(),
            });
        };
        Ok(self.commit(
            label.to_owned(),
            Segments::One(Segment { start, len: size }),
            Some(direction),
        ))
    }

    /// Exact placement at `start` — the regularity fast path: "to
    /// maintain regularity, data and results are allocated from the
    /// addresses where was placed previous iteration of them".
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`], [`AllocError::OutOfBounds`], or
    /// [`AllocError::RangeNotFree`] if another object holds part of the
    /// range.
    pub fn alloc_at(
        &mut self,
        label: &str,
        start: u64,
        size: Words,
    ) -> Result<AllocHandle, AllocError> {
        if size.is_zero() {
            return Err(AllocError::ZeroSize);
        }
        if start + size.get() > self.capacity().get() {
            return Err(AllocError::OutOfBounds {
                start,
                size,
                capacity: self.capacity(),
            });
        }
        if !self.free.take_at(start, size) {
            return Err(AllocError::RangeNotFree { start, size });
        }
        Ok(self.commit(
            label.to_owned(),
            Segments::One(Segment { start, len: size }),
            None,
        ))
    }

    /// Allocation that may split the object across several free blocks —
    /// the paper's last resort "to improve memory usage". Segments are
    /// carved first-fit in `direction` order until `size` is covered.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] or [`AllocError::OutOfMemory`] if even
    /// the sum of all free blocks is smaller than `size` (in which case
    /// nothing is allocated).
    pub fn alloc_split(
        &mut self,
        label: &str,
        size: Words,
        direction: Direction,
    ) -> Result<AllocHandle, AllocError> {
        if size.is_zero() {
            return Err(AllocError::ZeroSize);
        }
        if self.free.total_free() < size {
            self.stats.record_failure();
            return Err(AllocError::OutOfMemory {
                requested: size,
                available: self.free.total_free(),
            });
        }
        // Fast path: contiguous fit.
        let from_upper = matches!(direction, Direction::FromUpper);
        if let Some(start) = self.free.take_first_fit(size, from_upper) {
            return Ok(self.commit(
                label.to_owned(),
                Segments::One(Segment { start, len: size }),
                Some(direction),
            ));
        }
        // Split: greedily consume whole extremal blocks in direction
        // order until the request is covered. Total free space was
        // checked above, so this terminates.
        let mut segments: Vec<Segment> = Vec::new();
        let mut remaining = size;
        while !remaining.is_zero() {
            let piece = remaining.min(self.free.largest_block());
            let taken = (!piece.is_zero())
                .then(|| self.free.take_first_fit(piece, from_upper))
                .flatten();
            let Some(start) = taken else {
                // The free list failed to supply its own reported
                // largest block — bookkeeping is corrupt. Give back
                // what was already carved so the caller sees a typed
                // error over unchanged state, not a panic.
                debug_assert!(false, "free list cannot supply its own largest block");
                for seg in segments {
                    self.free.insert(seg.start, seg.len);
                }
                self.stats.record_failure();
                return Err(AllocError::Corrupted(
                    "free list cannot supply its own largest block",
                ));
            };
            segments.push(Segment { start, len: piece });
            remaining -= piece;
        }
        // The request fit no single block, so it took at least two.
        segments.sort_by_key(|s| s.start);
        Ok(self.commit(label.to_owned(), Segments::Split(segments), Some(direction)))
    }

    /// Frees an allocation, returning its space to the free list with
    /// coalescing — the paper's `release(c,k,iter)`. Returns the freed
    /// allocation, moved out of the live table.
    ///
    /// # Errors
    ///
    /// [`AllocError::UnknownHandle`] if the handle is not live.
    pub fn free(&mut self, handle: AllocHandle) -> Result<Allocation, AllocError> {
        let Some(alloc) = self
            .live
            .get_mut(handle.slot as usize)
            .filter(|entry| entry.as_ref().is_some_and(|a| a.handle == handle))
            .and_then(Option::take)
        else {
            return Err(AllocError::UnknownHandle);
        };
        self.vacant.push(handle.slot);
        for seg in alloc.segments() {
            self.free.insert(seg.start, seg.len);
        }
        self.stats.record_free(alloc.size());
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::new(
                TraceKind::Free,
                alloc.label().to_owned(),
                alloc.segments().to_vec(),
                None,
                self.free.state_hash(),
            ));
        }
        Ok(alloc)
    }

    /// Enters an allocation whose segments the free list has already
    /// given up into the live table, and returns its handle.
    fn commit(
        &mut self,
        label: String,
        segments: Segments,
        direction: Option<Direction>,
    ) -> AllocHandle {
        let slot = self.vacant.pop().unwrap_or_else(|| {
            self.live.push(None);
            u32::try_from(self.live.len() - 1).expect("live allocations fit u32 slots")
        });
        let handle = AllocHandle {
            serial: self.next_serial,
            slot,
        };
        self.next_serial += 1;
        let alloc = Allocation {
            handle,
            label,
            segments,
        };
        // The free list was already carved, so used() includes this
        // allocation.
        self.stats
            .record_alloc(alloc.size(), alloc.is_split(), self.used());
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent::new(
                TraceKind::Alloc,
                alloc.label().to_owned(),
                alloc.segments().to_vec(),
                direction,
                self.free.state_hash(),
            ));
        }
        self.live[slot as usize] = Some(alloc);
        handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The live allocation `handle` names.
    fn get(fb: &FbAllocator, handle: AllocHandle) -> &Allocation {
        fb.allocation(handle).expect("live")
    }

    #[test]
    fn two_ended_growth() {
        let mut fb = FbAllocator::new(Words::new(100));
        let a = fb
            .alloc("upper", Words::new(10), Direction::FromUpper)
            .expect("fits");
        let b = fb
            .alloc("lower", Words::new(10), Direction::FromLower)
            .expect("fits");
        assert_eq!(get(&fb, a).start(), 90);
        assert_eq!(get(&fb, b).start(), 0);
        assert_eq!(fb.used(), Words::new(20));
        assert_eq!(fb.largest_free_block(), Words::new(80));
    }

    #[test]
    fn free_restores_space() {
        let mut fb = FbAllocator::new(Words::new(50));
        let a = fb
            .alloc("x", Words::new(50), Direction::FromUpper)
            .expect("fits");
        assert_eq!(fb.free_space(), Words::ZERO);
        fb.free(a).expect("live");
        assert_eq!(fb.free_space(), Words::new(50));
        assert_eq!(fb.largest_free_block(), Words::new(50));
    }

    #[test]
    fn alloc_at_regularity() {
        let mut fb = FbAllocator::new(Words::new(64));
        let a = fb
            .alloc("obj", Words::new(16), Direction::FromUpper)
            .expect("fits");
        let at = get(&fb, a).start();
        fb.free(a).expect("live");
        let again = fb.alloc_at("obj", at, Words::new(16)).expect("free range");
        assert_eq!(get(&fb, again).start(), at);
        let conflict = fb.alloc_at("clash", at, Words::new(16));
        assert_eq!(
            conflict.unwrap_err(),
            AllocError::RangeNotFree {
                start: at,
                size: Words::new(16)
            }
        );
    }

    #[test]
    fn alloc_at_out_of_bounds() {
        let mut fb = FbAllocator::new(Words::new(10));
        let err = fb.alloc_at("x", 5, Words::new(10)).unwrap_err();
        assert!(matches!(err, AllocError::OutOfBounds { .. }));
    }

    #[test]
    fn zero_size_rejected() {
        let mut fb = FbAllocator::new(Words::new(10));
        assert_eq!(
            fb.alloc("z", Words::ZERO, Direction::FromUpper)
                .unwrap_err(),
            AllocError::ZeroSize
        );
        assert_eq!(
            fb.alloc_at("z", 0, Words::ZERO).unwrap_err(),
            AllocError::ZeroSize
        );
        assert_eq!(
            fb.alloc_split("z", Words::ZERO, Direction::FromUpper)
                .unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn contiguous_failure_reports_largest_block() {
        let mut fb = FbAllocator::new(Words::new(30));
        let _a = fb
            .alloc("a", Words::new(10), Direction::FromLower)
            .expect("fits");
        let b = fb
            .alloc("b", Words::new(10), Direction::FromUpper)
            .expect("fits");
        let _ = b;
        let err = fb
            .alloc("c", Words::new(15), Direction::FromUpper)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::NoContiguousBlock {
                requested: Words::new(15),
                largest_block: Words::new(10)
            }
        );
        assert_eq!(fb.stats().failed_allocs(), 1);
    }

    #[test]
    fn double_free_by_handle() {
        let mut fb = FbAllocator::new(Words::new(10));
        let a = fb
            .alloc("a", Words::new(5), Direction::FromUpper)
            .expect("fits");
        let freed = fb.free(a).expect("live");
        assert_eq!((freed.handle(), freed.label()), (a, "a"));
        assert_eq!(fb.free(a).unwrap_err(), AllocError::UnknownHandle);
    }

    #[test]
    fn stale_handle_never_frees_the_slots_next_occupant() {
        let mut fb = FbAllocator::new(Words::new(10));
        let a = fb
            .alloc("a", Words::new(5), Direction::FromUpper)
            .expect("fits");
        let stale = a;
        fb.free(a).expect("live");
        let b = fb
            .alloc("b", Words::new(4), Direction::FromUpper)
            .expect("fits");
        assert_ne!(b, stale, "serials are never reused");
        assert!(fb.allocation(stale).is_none());
        assert_eq!(fb.free(stale).unwrap_err(), AllocError::UnknownHandle);
        assert_eq!(fb.allocation(b).map(Allocation::label), Some("b"));
        assert_eq!(fb.live().count(), 1);
        fb.free(b).expect("still live");
        assert_eq!(fb.free_space(), Words::new(10));
    }

    #[test]
    fn split_allocation_spans_holes() {
        let mut fb = FbAllocator::new(Words::new(30));
        // Pin the middle so the two 10-word ends are separate holes.
        let pin = fb.alloc_at("pin", 10, Words::new(10)).expect("free");
        let wide = fb
            .alloc_split("wide", Words::new(20), Direction::FromUpper)
            .expect("total free suffices");
        let split = get(&fb, wide);
        assert!(split.is_split());
        assert_eq!(split.segments().len(), 2);
        assert_eq!(split.size(), Words::new(20));
        assert_eq!(fb.free_space(), Words::ZERO);
        assert_eq!(fb.stats().split_allocs(), 1);
        fb.free(wide).expect("live");
        fb.free(pin).expect("live");
        assert_eq!(fb.largest_free_block(), Words::new(30));
    }

    #[test]
    fn split_prefers_contiguous_when_possible() {
        let mut fb = FbAllocator::new(Words::new(40));
        let a = fb
            .alloc_split("a", Words::new(25), Direction::FromUpper)
            .expect("fits");
        assert!(!get(&fb, a).is_split());
        assert_eq!(fb.stats().split_allocs(), 0);
    }

    #[test]
    fn split_out_of_memory_leaves_state_untouched() {
        let mut fb = FbAllocator::new(Words::new(10));
        let _a = fb
            .alloc("a", Words::new(6), Direction::FromLower)
            .expect("fits");
        let err = fb
            .alloc_split("big", Words::new(5), Direction::FromUpper)
            .unwrap_err();
        assert_eq!(
            err,
            AllocError::OutOfMemory {
                requested: Words::new(5),
                available: Words::new(4)
            }
        );
        assert_eq!(fb.free_space(), Words::new(4));
    }

    #[test]
    fn trace_events_carry_direction_and_hash() {
        let mut fb = FbAllocator::with_trace(Words::new(64));
        let a = fb
            .alloc("hi", Words::new(16), Direction::FromUpper)
            .expect("fits");
        let _exact = fb.alloc_at("pin", 0, Words::new(8)).expect("free");
        fb.free(a).expect("live");
        let trace = fb.trace().expect("tracing enabled");
        assert_eq!(trace[0].direction(), Some(Direction::FromUpper));
        assert_eq!(trace[1].direction(), None, "alloc_at has no direction");
        assert_eq!(trace[2].direction(), None, "frees have no direction");
        assert_eq!(
            trace[2].free_hash(),
            fb.free_list_hash(),
            "last event's hash is the current state"
        );
    }

    #[test]
    fn peak_usage_tracked() {
        let mut fb = FbAllocator::new(Words::new(100));
        let a = fb
            .alloc("a", Words::new(60), Direction::FromUpper)
            .expect("fits");
        fb.free(a).expect("live");
        let _b = fb
            .alloc("b", Words::new(10), Direction::FromUpper)
            .expect("fits");
        assert_eq!(fb.stats().peak_used(), Words::new(60));
        assert_eq!(fb.used(), Words::new(10));
    }
}
