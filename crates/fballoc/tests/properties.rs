//! Property-based tests for the Frame Buffer allocator.

use std::collections::HashMap;

use mcds_fballoc::{
    AllocError, Allocation, Direction, FbAllocator, FreeList, TraceEvent, TraceKind,
};
use mcds_model::Words;
use proptest::prelude::*;

/// A randomised allocator action.
#[derive(Debug, Clone)]
enum Action {
    Alloc { size: u64, upper: bool },
    AllocSplit { size: u64, upper: bool },
    AllocAt { start: u64, size: u64 },
    FreeOldest,
    FreeNewest,
}

fn action_strategy(cap: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        (1..=cap / 2, any::<bool>()).prop_map(|(size, upper)| Action::Alloc { size, upper }),
        (1..=cap / 2, any::<bool>()).prop_map(|(size, upper)| Action::AllocSplit { size, upper }),
        (0..cap, 1..=cap / 4).prop_map(|(start, size)| Action::AllocAt { start, size }),
        Just(Action::FreeOldest),
        Just(Action::FreeNewest),
    ]
}

/// Applies one action to `fb`, keeping `live` in sync.
fn apply(fb: &mut FbAllocator, live: &mut Vec<Allocation>, i: usize, action: Action) {
    match action {
        Action::Alloc { size, upper } => {
            let dir = if upper {
                Direction::FromUpper
            } else {
                Direction::FromLower
            };
            if let Ok(a) = fb.alloc(format!("a{i}"), Words::new(size), dir) {
                live.push(a);
            }
        }
        Action::AllocSplit { size, upper } => {
            let dir = if upper {
                Direction::FromUpper
            } else {
                Direction::FromLower
            };
            match fb.alloc_split(format!("s{i}"), Words::new(size), dir) {
                Ok(a) => live.push(a),
                Err(AllocError::OutOfMemory {
                    requested,
                    available,
                }) => {
                    prop_assert!(available < requested);
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
        Action::AllocAt { start, size } => {
            if let Ok(a) = fb.alloc_at(format!("p{i}"), start, Words::new(size)) {
                live.push(a);
            }
        }
        Action::FreeOldest => {
            if !live.is_empty() {
                let a = live.remove(0);
                fb.free(a).expect("was live");
            }
        }
        Action::FreeNewest => {
            if let Some(a) = live.pop() {
                fb.free(a).expect("was live");
            }
        }
    }
}

/// Replays an allocator event stream against a shadow [`FreeList`] and
/// checks the tracing contract:
///
/// * an `Alloc`'s segments carve out of free space — so no two live
///   blocks ever overlap;
/// * every `Free` names a previously allocated, still-live label and
///   returns exactly the words the object held;
/// * the `free_hash` recorded on every event equals the hash recomputed
///   from the shadow list after applying it.
fn verify_replay(events: &[TraceEvent], capacity: Words) {
    let mut shadow = FreeList::new(capacity);
    let mut live_words: HashMap<String, u64> = HashMap::new();
    for ev in events {
        let words: u64 = ev.segments().iter().map(|s| s.len.get()).sum();
        match ev.kind() {
            TraceKind::Alloc => {
                prop_assert!(
                    !live_words.contains_key(ev.label()),
                    "label {} allocated twice",
                    ev.label()
                );
                for seg in ev.segments() {
                    prop_assert!(
                        shadow.take_at(seg.start, seg.len),
                        "alloc {} overlaps a live block at {}..{}",
                        ev.label(),
                        seg.start,
                        seg.end()
                    );
                }
                live_words.insert(ev.label().to_owned(), words);
            }
            TraceKind::Free => {
                let held = live_words.remove(ev.label());
                prop_assert!(held.is_some(), "free of never-allocated {}", ev.label());
                prop_assert_eq!(
                    held.expect("checked above"),
                    words,
                    "free of {} returns a different word count than it held",
                    ev.label()
                );
                for seg in ev.segments() {
                    shadow.insert(seg.start, seg.len);
                }
            }
        }
        prop_assert_eq!(
            shadow.state_hash(),
            ev.free_hash(),
            "free-list hash diverged after {:?} of {}",
            ev.kind(),
            ev.label()
        );
    }
}

/// Checks that no two live allocations overlap and that accounting adds
/// up.
fn check_invariants(fb: &FbAllocator, live: &[Allocation]) {
    let mut covered: Vec<(u64, u64)> = live
        .iter()
        .flat_map(|a| a.segments().iter().map(|s| (s.start, s.end())))
        .collect();
    covered.sort_unstable();
    for w in covered.windows(2) {
        assert!(w[0].1 <= w[1].0, "live segments overlap: {w:?}");
    }
    let live_words: Words = live.iter().map(Allocation::size).sum();
    assert_eq!(fb.used(), live_words, "used() disagrees with live set");
    assert!(fb.used() + fb.free_space() == fb.capacity());
    assert!(fb.stats().peak_used() <= fb.capacity());
    assert!(fb.largest_free_block() <= fb.free_space());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_workload_preserves_invariants(
        cap in 16u64..256,
        actions in prop::collection::vec(action_strategy(64), 1..60),
    ) {
        let mut fb = FbAllocator::new(Words::new(cap));
        let mut live: Vec<Allocation> = Vec::new();
        for (i, action) in actions.into_iter().enumerate() {
            apply(&mut fb, &mut live, i, action);
            check_invariants(&fb, &live);
        }
        // Drain everything: the allocator must return to pristine state.
        for a in live.drain(..) {
            fb.free(a).expect("was live");
        }
        prop_assert_eq!(fb.used(), Words::ZERO);
        prop_assert_eq!(fb.largest_free_block(), fb.capacity());
    }

    #[test]
    fn event_stream_replays_against_shadow_free_list(
        cap in 16u64..256,
        actions in prop::collection::vec(action_strategy(64), 1..60),
    ) {
        let mut fb = FbAllocator::with_trace(Words::new(cap));
        let mut live: Vec<Allocation> = Vec::new();
        for (i, action) in actions.into_iter().enumerate() {
            apply(&mut fb, &mut live, i, action);
        }
        // Free the survivors too so the stream exercises every live
        // object's full alloc→free cycle.
        for a in live.drain(..) {
            fb.free(a).expect("was live");
        }
        let events = fb.trace().expect("tracing enabled").to_vec();
        verify_replay(&events, Words::new(cap));
    }

    #[test]
    fn split_alloc_succeeds_iff_total_free_suffices(
        cap in 8u64..128,
        pins in prop::collection::vec((0u64..128, 1u64..16), 0..6),
        request in 1u64..96,
    ) {
        let mut fb = FbAllocator::new(Words::new(cap));
        for (i, (start, size)) in pins.into_iter().enumerate() {
            let _ = fb.alloc_at(format!("pin{i}"), start % cap, Words::new(size));
        }
        let free = fb.free_space();
        let result = fb.alloc_split("req", Words::new(request), Direction::FromUpper);
        if Words::new(request) <= free {
            let a = result.expect("enough total free space");
            prop_assert_eq!(a.size(), Words::new(request));
        } else {
            let oom = matches!(result, Err(AllocError::OutOfMemory { .. }));
            prop_assert!(oom, "expected OutOfMemory");
        }
    }

    #[test]
    fn upper_and_lower_never_collide_while_space_remains(
        sizes in prop::collection::vec((1u64..16, any::<bool>()), 1..20),
    ) {
        let mut fb = FbAllocator::new(Words::new(256));
        let mut live = Vec::new();
        for (i, (size, upper)) in sizes.into_iter().enumerate() {
            let dir = if upper { Direction::FromUpper } else { Direction::FromLower };
            // Total requested < capacity, so every alloc must succeed.
            let a = fb.alloc(format!("x{i}"), Words::new(size), dir).expect("fits");
            live.push(a);
        }
        check_invariants(&fb, &live);
    }
}
