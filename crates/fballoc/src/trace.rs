//! Allocation traces and Figure 5 style occupancy maps.

use mcds_model::Words;
use serde::{Deserialize, Serialize};

use crate::allocator::{Direction, Segment};

/// Whether a trace event records an allocation or a release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Space was claimed.
    Alloc,
    /// Space was released back to the free list.
    Free,
}

/// One allocator action, labelled with the object it concerned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    kind: TraceKind,
    label: String,
    segments: Vec<Segment>,
    direction: Option<Direction>,
    free_hash: u64,
}

impl TraceEvent {
    pub(crate) fn new(
        kind: TraceKind,
        label: String,
        segments: Vec<Segment>,
        direction: Option<Direction>,
        free_hash: u64,
    ) -> Self {
        TraceEvent {
            kind,
            label,
            segments,
            direction,
            free_hash,
        }
    }

    /// Alloc or free.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// The object's label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The address ranges concerned.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Which two-ended side the request grew from, if the operation had
    /// a direction (exact [`alloc_at`](crate::FbAllocator::alloc_at)
    /// placements and frees have none).
    #[must_use]
    pub fn direction(&self) -> Option<Direction> {
        self.direction
    }

    /// [`FreeList::state_hash`](crate::FreeList::state_hash) of the
    /// allocator's free list immediately *after* this operation — the
    /// replay checkpoint the property tests verify against.
    #[must_use]
    pub fn free_hash(&self) -> u64 {
        self.free_hash
    }
}

/// Renders the occupancy of a Frame Buffer set after replaying `events`,
/// as rows of fixed-width cells from the highest address (top) to the
/// lowest (bottom) — the orientation of Figure 5 in the paper.
///
/// `capacity` is the set size and `rows` the vertical resolution; each
/// row covers `capacity / rows` words and shows the label of the object
/// occupying the majority of it (or `·` if mostly free).
///
/// # Example
///
/// ```
/// use mcds_fballoc::{render_map, Direction, FbAllocator};
/// use mcds_model::Words;
///
/// # fn main() -> Result<(), mcds_fballoc::AllocError> {
/// let mut fb = FbAllocator::with_trace(Words::new(64));
/// fb.alloc("D13", Words::new(32), Direction::FromUpper)?;
/// fb.alloc("r13", Words::new(16), Direction::FromLower)?;
/// let map = render_map(fb.trace().expect("tracing enabled"), Words::new(64), 4);
/// assert_eq!(map.lines().count(), 4);
/// assert!(map.contains("D13"));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn render_map(events: &[TraceEvent], capacity: Words, rows: usize) -> String {
    render_map_at(events, capacity, rows, events.len())
}

/// Like [`render_map`], but replays only the first `upto` events —
/// rendering a snapshot partway through execution (the paper's Figure 5
/// shows seven such snapshots).
#[must_use]
pub fn render_map_at(events: &[TraceEvent], capacity: Words, rows: usize, upto: usize) -> String {
    let cap = capacity.get();
    if cap == 0 || rows == 0 {
        return String::new();
    }
    // Replay into a per-word ownership vector.
    let mut owner: Vec<Option<&str>> =
        vec![None; usize::try_from(cap).expect("capacity fits usize")];
    for ev in events.iter().take(upto) {
        for seg in ev.segments() {
            for w in seg.start..seg.end() {
                let w = usize::try_from(w).expect("address fits usize");
                owner[w] = match ev.kind() {
                    TraceKind::Alloc => Some(ev.label()),
                    TraceKind::Free => None,
                };
            }
        }
    }
    render_owner_rows(&owner, rows)
}

/// Renders the snapshot at which occupancy peaks while replaying
/// `events` — the most informative single frame of a trace.
#[must_use]
pub fn render_peak_map(events: &[TraceEvent], capacity: Words, rows: usize) -> String {
    let mut occupied: i64 = 0;
    let mut best = (0usize, 0i64);
    for (i, ev) in events.iter().enumerate() {
        let words: i64 = ev
            .segments()
            .iter()
            .map(|s| i64::try_from(s.len.get()).expect("segment fits i64"))
            .sum();
        match ev.kind() {
            TraceKind::Alloc => occupied += words,
            TraceKind::Free => occupied -= words,
        }
        if occupied > best.1 {
            best = (i + 1, occupied);
        }
    }
    render_map_at(events, capacity, rows, best.0)
}

fn render_owner_rows(owner: &[Option<&str>], rows: usize) -> String {
    let cap = owner.len();
    let mut out = String::new();
    let cell_w = 8usize;
    for row in (0..rows).rev() {
        let lo = cap * row / rows;
        let hi = cap * (row + 1) / rows;
        // Majority label of the row.
        let mut counts: Vec<(&str, usize)> = Vec::new();
        let mut free = 0usize;
        for o in &owner[lo..hi] {
            match o {
                None => free += 1,
                Some(l) => {
                    if let Some(e) = counts.iter_mut().find(|(n, _)| n == l) {
                        e.1 += 1;
                    } else {
                        counts.push((l, 1));
                    }
                }
            }
        }
        let best = counts.iter().max_by_key(|(_, c)| *c);
        let label = match best {
            Some(&(l, c)) if c >= free => l,
            _ => "\u{b7}",
        };
        let truncated: String = label.chars().take(cell_w).collect();
        out.push_str(&format!("|{truncated:^cell_w$}|  [{lo:>5}..{hi:>5})\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, FbAllocator};

    #[test]
    fn trace_records_allocs_and_frees() {
        let mut fb = FbAllocator::with_trace(Words::new(32));
        let a = fb
            .alloc("a", Words::new(8), Direction::FromUpper)
            .expect("fits");
        fb.free(a).expect("live");
        let trace = fb.trace().expect("tracing enabled");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].kind(), TraceKind::Alloc);
        assert_eq!(trace[0].label(), "a");
        assert_eq!(trace[1].kind(), TraceKind::Free);
    }

    #[test]
    fn untraced_allocator_has_no_trace() {
        let fb = FbAllocator::new(Words::new(32));
        assert!(fb.trace().is_none());
    }

    #[test]
    fn map_shows_occupants_top_down() {
        let mut fb = FbAllocator::with_trace(Words::new(40));
        fb.alloc("hi", Words::new(20), Direction::FromUpper)
            .expect("fits");
        fb.alloc("lo", Words::new(10), Direction::FromLower)
            .expect("fits");
        let map = render_map(fb.trace().expect("tracing enabled"), Words::new(40), 4);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("hi"), "top row: {}", lines[0]);
        assert!(lines[1].contains("hi"));
        assert!(lines[2].contains('\u{b7}'), "middle free: {}", lines[2]);
        assert!(lines[3].contains("lo"), "bottom row: {}", lines[3]);
    }

    #[test]
    fn map_reflects_frees() {
        let mut fb = FbAllocator::with_trace(Words::new(16));
        let a = fb
            .alloc("x", Words::new(16), Direction::FromUpper)
            .expect("fits");
        fb.free(a).expect("live");
        let map = render_map(fb.trace().expect("tracing enabled"), Words::new(16), 2);
        assert!(!map.contains('x'));
    }

    #[test]
    fn partial_replay_shows_intermediate_state() {
        let mut fb = FbAllocator::with_trace(Words::new(16));
        let a = fb
            .alloc("x", Words::new(16), Direction::FromUpper)
            .expect("fits");
        fb.free(a).expect("live");
        let trace = fb.trace().expect("tracing enabled").to_vec();
        let mid = render_map_at(&trace, Words::new(16), 2, 1);
        assert!(mid.contains('x'));
        let end = render_map_at(&trace, Words::new(16), 2, 2);
        assert!(!end.contains('x'));
    }

    #[test]
    fn peak_map_captures_fullest_moment() {
        let mut fb = FbAllocator::with_trace(Words::new(32));
        let a = fb
            .alloc("first", Words::new(16), Direction::FromUpper)
            .expect("fits");
        let b = fb
            .alloc("second", Words::new(16), Direction::FromLower)
            .expect("fits");
        fb.free(a).expect("live");
        fb.free(b).expect("live");
        let map = render_peak_map(fb.trace().expect("tracing enabled"), Words::new(32), 4);
        assert!(map.contains("first"));
        assert!(map.contains("second"));
    }

    #[test]
    fn degenerate_maps() {
        assert_eq!(render_map(&[], Words::ZERO, 3), "");
        assert_eq!(render_map(&[], Words::new(8), 0), "");
        let empty = render_map(&[], Words::new(8), 2);
        assert_eq!(empty.lines().count(), 2);
    }
}
