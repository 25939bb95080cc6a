//! Differential tests: the `FB_list` ([`FreeList`]) against a per-word
//! occupancy model that shares no code with it, stepped in lockstep
//! through arbitrary action sequences.
//!
//! The model keeps one `bool` per word, in the core-map style of a
//! frame allocator; its maximal free runs are the free blocks, and a
//! directional first fit takes the highest (from upper) or lowest (from
//! lower) run that fits. The list must agree with it on every placement
//! and every observable after every single step, not just at the end.

use mcds_fballoc::FreeList;
use mcds_model::Words;
use proptest::prelude::*;

/// One `bool` per word of a Frame Buffer set: `true` means free.
#[derive(Debug, Clone)]
struct Model {
    free: Vec<bool>,
}

impl Model {
    fn new(cap: u64) -> Self {
        Model {
            free: vec![true; usize::try_from(cap).expect("small capacity")],
        }
    }

    fn word_free(&self, w: u64) -> bool {
        usize::try_from(w)
            .ok()
            .and_then(|w| self.free.get(w))
            .copied()
            .unwrap_or(false)
    }

    /// Maximal free runs as `(start, len)`, in address order.
    fn runs(&self) -> Vec<(u64, Words)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (w, &free) in (0u64..).zip(self.free.iter().chain([&false])) {
            match (free, start) {
                (true, None) => start = Some(w),
                (false, Some(s)) => {
                    runs.push((s, Words::new(w - s)));
                    start = None;
                }
                _ => {}
            }
        }
        runs
    }

    fn is_free(&self, start: u64, size: u64) -> bool {
        (start..start + size).all(|w| self.word_free(w))
    }

    fn mark(&mut self, start: u64, size: u64, free: bool) {
        for w in start..start + size {
            self.free[usize::try_from(w).expect("small address")] = free;
        }
    }

    fn take_first_fit(&mut self, size: u64, upper: bool) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let runs = self.runs();
        let mut fitting = runs.iter().filter(|(_, len)| len.get() >= size);
        let start = if upper {
            let &(s, len) = fitting.next_back()?;
            s + len.get() - size
        } else {
            fitting.next()?.0
        };
        self.mark(start, size, false);
        Some(start)
    }

    fn take_at(&mut self, start: u64, size: u64) -> bool {
        if size == 0 || !self.is_free(start, size) {
            return false;
        }
        self.mark(start, size, false);
        true
    }
}

/// One free-list operation, drawn over a small address space so runs
/// produce real fragmentation, coalescing, and out-of-space paths.
#[derive(Debug, Clone)]
enum Action {
    /// Directional first fit — the paper's placement rule.
    TakeFirstFit { size: u64, upper: bool },
    /// Pinned carve at an exact range (regular placements).
    TakeAt { start: u64, size: u64 },
    /// Free a range back (only applied where currently allocated).
    Insert { start: u64, size: u64 },
    /// Zero-sized requests must behave identically too.
    TakeZero { upper: bool },
}

fn action_strategy(cap: u64) -> impl Strategy<Value = Action> {
    prop_oneof![
        (1..=cap / 2, any::<bool>()).prop_map(|(size, upper)| Action::TakeFirstFit { size, upper }),
        (0..cap, 1..=cap / 4).prop_map(|(start, size)| Action::TakeAt { start, size }),
        (0..cap, 1..=cap / 4).prop_map(|(start, size)| Action::Insert { start, size }),
        any::<bool>().prop_map(|upper| Action::TakeZero { upper }),
    ]
}

/// Applies one action to the list and the model and asserts both made
/// the same placement or the same refusal.
fn apply_both(list: &mut FreeList, model: &mut Model, action: &Action) {
    match *action {
        Action::TakeFirstFit { size, upper } => {
            let a = list.take_first_fit(Words::new(size), upper);
            let b = model.take_first_fit(size, upper);
            prop_assert_eq!(a, b, "first-fit placement diverged ({:?})", action);
        }
        Action::TakeAt { start, size } => {
            let a = list.take_at(start, Words::new(size));
            let b = model.take_at(start, size);
            prop_assert_eq!(a, b, "pinned carve diverged ({:?})", action);
        }
        Action::Insert { start, size } => {
            prop_assert_eq!(
                list.is_free(start, Words::new(size)),
                model.is_free(start, size),
                "is_free diverged ({:?})",
                action
            );
            // `insert` panics on double frees by contract, so only free
            // ranges the model holds wholly allocated.
            let cap = list.capacity().get();
            let allocated =
                start + size <= cap && (start..start + size).all(|w| !model.word_free(w));
            if allocated {
                list.insert(start, Words::new(size));
                model.mark(start, size, true);
            }
        }
        Action::TakeZero { upper } => {
            let a = list.take_first_fit(Words::ZERO, upper);
            let b = model.take_first_fit(0, upper);
            prop_assert_eq!(a, b, "zero-sized take diverged");
        }
    }
}

/// Asserts every observable of the list matches the model.
fn assert_matches(list: &FreeList, model: &Model, step: usize) {
    let runs = model.runs();
    prop_assert_eq!(list.ranges(), runs.clone(), "blocks diverged @{}", step);
    let total: Words = runs.iter().map(|&(_, len)| len).sum();
    prop_assert_eq!(list.total_free(), total);
    let largest = runs
        .iter()
        .map(|&(_, len)| len)
        .max()
        .unwrap_or(Words::ZERO);
    prop_assert_eq!(list.largest_block(), largest);
    prop_assert_eq!(list.block_count(), runs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After *every* step of an arbitrary action sequence, the list and
    /// the occupancy model agree on every placement decision and every
    /// observable piece of state.
    #[test]
    fn free_list_matches_the_occupancy_model_after_every_step(
        cap in 16u64..512,
        actions in prop::collection::vec(action_strategy(128), 1..80),
    ) {
        let mut list = FreeList::new(Words::new(cap));
        let mut model = Model::new(cap);
        assert_matches(&list, &model, 0);
        for (step, action) in actions.iter().enumerate() {
            apply_both(&mut list, &mut model, action);
            assert_matches(&list, &model, step + 1);
        }
    }

    /// Directional probes on a fragmented list: for every probe size up
    /// to the capacity and both scan directions, a take on a fresh copy
    /// of the list must place exactly where the model places (or refuse
    /// exactly when it refuses).
    #[test]
    fn directional_probes_agree_on_fragmented_lists(
        cap in 32u64..256,
        carves in prop::collection::vec((0u64..256, 1u64..32), 1..24),
    ) {
        let mut list = FreeList::new(Words::new(cap));
        let mut model = Model::new(cap);
        for &(start, size) in &carves {
            let a = list.take_at(start % cap, Words::new(size));
            let b = model.take_at(start % cap, size);
            prop_assert_eq!(a, b);
        }
        for probe in 1..=cap {
            for upper in [false, true] {
                prop_assert_eq!(
                    list.clone().take_first_fit(Words::new(probe), upper),
                    model.clone().take_first_fit(probe, upper),
                    "first-fit probe {} upper={} diverged", probe, upper
                );
            }
        }
    }

    /// Adjacent carves: pin a base range, then repeatedly take the
    /// words just past its end, as a regular placement next to its
    /// previous neighbour does. List and model must agree on whether
    /// each step is possible and on the blocks after it.
    #[test]
    fn adjacent_growth_stays_in_lockstep(
        base in 0u64..64,
        size in 1u64..16,
        grows in prop::collection::vec(1u64..8, 1..12),
        noise in prop::collection::vec((0u64..128, 1u64..8), 0..6),
    ) {
        let cap = 128u64;
        let mut list = FreeList::new(Words::new(cap));
        let mut model = Model::new(cap);
        // Noise carves first, so growth sometimes collides with a
        // neighbour and both must refuse identically.
        for &(start, s) in &noise {
            let a = list.take_at(start, Words::new(s));
            let b = model.take_at(start, s);
            prop_assert_eq!(a, b);
        }
        let got_a = list.take_at(base, Words::new(size));
        let got_b = model.take_at(base, size);
        prop_assert_eq!(got_a, got_b);
        let mut end = base + size;
        for (step, &extra) in grows.iter().enumerate() {
            let a = list.take_at(end, Words::new(extra));
            let b = model.take_at(end, extra);
            prop_assert_eq!(a, b, "growth at {} diverged", end);
            if a {
                end += extra;
            }
            assert_matches(&list, &model, step);
        }
    }
}
