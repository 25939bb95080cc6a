//! Beam-search / branch-and-bound exploration over retention
//! candidates — the engine behind `SchedulerKind::Search`.
//!
//! The paper's Complete Data Scheduler walks the TF-ranked candidate
//! list once, greedily accepting every candidate that still satisfies
//! `DS(C_c) <= FBS`. Greedy commits too early when a high-TF candidate
//! occupies Frame Buffer words that two later candidates could have
//! used to avoid more external traffic together. This crate explores
//! the accept/reject tree over the *same ordered candidate list*
//! instead, using the O(1) checkpoint/rollback API of
//! [`mcds_fballoc::FbAllocator`] to rewind occupancy between branches:
//!
//! * each tree node is a prefix of accept/reject decisions, in
//!   candidate order;
//! * accepting a candidate carves its footprint out of the per-set
//!   allocator under a fresh [`Checkpoint`](mcds_fballoc::Checkpoint),
//!   and a caller-supplied feasibility callback re-checks the paper's
//!   `DS(C_c) <= FBS` constraint — infeasible branches prune
//!   immediately and roll the allocator back;
//! * an admissible bound (gain so far + the sum of all remaining
//!   candidates' gains) drives best-first pruning against the
//!   incumbent, which is seeded with the greedy walk so search can
//!   never return less than greedy;
//! * at most `beam_width` nodes survive per depth. With
//!   `beam_width = 1` the accept-first tie-break makes the surviving
//!   node exactly the greedy prefix, so beam-1 reproduces greedy CDS.
//!
//! When the beam never overflowed and the expansion cap was never hit,
//! the run degenerated to exhaustive branch-and-bound and the result
//! is *provably optimal* for the given feasibility predicate
//! ([`SearchOutcome::optimal_proven`]), which is how reports can state
//! where greedy was already optimal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcds_fballoc::{Checkpoint, Direction, FbAllocator};
use mcds_model::Words;

/// One retention candidate, in the order the scheduler ranks them
/// (TF-descending for the paper's CDS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchItem {
    /// Dedup key: candidates sharing a key describe the same
    /// (data, FB-set) retention reached through different sharing
    /// kernels. Once one occurrence is accepted, later occurrences are
    /// force-skipped — mirroring greedy's silent duplicate skip — so
    /// a retention is never double-counted.
    pub key: (u64, u64),
    /// Which FB set's allocator the retention occupies.
    pub set: usize,
    /// Words the retained data holds in that set.
    pub size: Words,
    /// External-traffic words avoided per iteration if accepted.
    pub gain: u64,
}

/// Search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Nodes kept per depth. `0` is treated as `1`. Width 1 reproduces
    /// the greedy walk; larger widths explore alternatives.
    pub beam_width: u32,
    /// Hard cap on node expansions; the incumbent so far is returned
    /// when it is reached (`0` means unlimited).
    pub max_expansions: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            beam_width: 8,
            max_expansions: 10_000,
        }
    }
}

/// Why a branch was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneReason {
    /// The accept violated a constraint: the candidate's footprint did
    /// not fit its set's allocator, or the feasibility callback
    /// rejected the partial retention (`DS(C_c) > FBS`).
    Infeasible,
    /// The admissible bound could not beat the incumbent.
    Bounded,
}

/// Engine-level progress events, mapped by callers onto their own
/// trace streams (`mcds-core` renders them as `Event::Search*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchEvent {
    /// A node was expanded: its accept/reject children were generated.
    Expand {
        /// Candidate index the node decides next.
        depth: usize,
        /// Gain accumulated by the node's accepted prefix.
        gain: u64,
        /// Admissible bound on the best completion of this node.
        bound: u64,
    },
    /// A child was cut.
    Prune {
        /// Candidate index the child decided.
        depth: usize,
        /// The child's bound at the moment it was cut.
        bound: u64,
        /// Why.
        reason: PruneReason,
    },
    /// Allocator state was rewound to a checkpoint.
    Rollback {
        /// Candidate index whose tentative accept was undone.
        depth: usize,
    },
}

/// Counters accumulated over one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded.
    pub expansions: u64,
    /// Children cut (infeasible or bounded).
    pub prunes: u64,
    /// Allocator rollbacks performed.
    pub rollbacks: u64,
    /// `true` if any depth produced more surviving children than the
    /// beam width — the search was not exhaustive.
    pub beam_overflowed: bool,
    /// `true` if `max_expansions` stopped the search early.
    pub cap_hit: bool,
}

/// The result of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// `accept[i]` says whether candidate `i` is retained. Duplicate
    /// occurrences of an accepted key are always `false`.
    pub accept: Vec<bool>,
    /// Total gain of the accepted set.
    pub gain: u64,
    /// Gain of the greedy walk over the same candidates — the
    /// incumbent the search started from. `gain >= greedy_gain`
    /// always.
    pub greedy_gain: u64,
    /// `true` when the search was exhaustive (no beam overflow, no
    /// expansion cap), making `accept` provably optimal for the given
    /// feasibility predicate.
    pub optimal_proven: bool,
    /// Counters.
    pub stats: SearchStats,
}

/// One beam node: a decided prefix.
#[derive(Debug, Clone)]
struct Node {
    accept: Vec<bool>,
    gain: u64,
}

/// The shared allocator pair plus the trail of checkpoints that
/// materializes one node's accepted prefix at a time.
struct Arena {
    sets: Vec<FbAllocator>,
    /// `(item index, set, checkpoint taken before the item's alloc)`.
    trail: Vec<(usize, usize, Checkpoint)>,
}

impl Arena {
    fn new(set_count: usize, fbs: Words) -> Self {
        Arena {
            sets: (0..set_count.max(1))
                .map(|_| FbAllocator::new(fbs))
                .collect(),
            trail: Vec::new(),
        }
    }

    /// Checkpoints the item's set and carves its footprint. Returns
    /// `false` (state unchanged, nothing pushed) if it does not fit.
    fn push(&mut self, idx: usize, item: &SearchItem) -> bool {
        let set = item.set.min(self.sets.len() - 1);
        let cp = self.sets[set].checkpoint();
        if item.size.is_zero() {
            self.trail.push((idx, set, cp));
            return true;
        }
        // Unlabelled: these allocators are never traced or shown.
        match self.sets[set].alloc(String::new(), item.size, Direction::FromUpper) {
            Ok(_) => {
                self.trail.push((idx, set, cp));
                true
            }
            Err(_) => false,
        }
    }

    /// Rolls the most recent accept back. Returns the item index it
    /// carried.
    fn pop(&mut self) -> Option<usize> {
        let (idx, set, cp) = self.trail.pop()?;
        self.sets[set].rollback(cp);
        Some(idx)
    }

    /// Rewinds/replays so the materialized prefix equals `accept`'s
    /// accepted indices. Emits a `Rollback` per undone accept.
    fn materialize(
        &mut self,
        items: &[SearchItem],
        accept: &[bool],
        stats: &mut SearchStats,
        observer: &mut dyn FnMut(SearchEvent),
    ) {
        let target: Vec<usize> = (0..accept.len()).filter(|&i| accept[i]).collect();
        let mut common = 0;
        while common < self.trail.len() && common < target.len() {
            if self.trail[common].0 == target[common] {
                common += 1;
            } else {
                break;
            }
        }
        while self.trail.len() > common {
            if let Some(idx) = self.pop() {
                stats.rollbacks += 1;
                observer(SearchEvent::Rollback { depth: idx });
            }
        }
        for &idx in &target[common..] {
            let ok = self.push(idx, &items[idx]);
            debug_assert!(ok, "replaying a previously feasible accept cannot fail");
            if !ok {
                // A replay of a branch that fit before must fit again
                // (the allocator is deterministic); treat failure as a
                // corrupt trail and keep going — feasibility callbacks
                // still guard correctness.
                break;
            }
        }
    }
}

/// Explores accept/reject decisions over `items` in order.
///
/// `feasible` receives a full-length accept mask (undecided suffix all
/// `false`) and must implement the scheduler's real constraint — for
/// CDS, `DS(C_c) <= FBS` over every cluster. It is only consulted for
/// masks whose footprints already fit the per-set allocators, and it
/// must be *monotone*: a superset of an infeasible set stays
/// infeasible (true for the paper's DS formula, where retaining more
/// data only grows each cluster's footprint).
///
/// `observer` sees every expansion, prune, and rollback in
/// deterministic order; pass a no-op closure when tracing is off.
pub fn search_retention(
    items: &[SearchItem],
    set_count: usize,
    fbs: Words,
    config: &SearchConfig,
    feasible: &mut dyn FnMut(&[bool]) -> bool,
    observer: &mut dyn FnMut(SearchEvent),
) -> SearchOutcome {
    let n = items.len();
    let width = config.beam_width.max(1) as usize;
    let mut stats = SearchStats::default();

    // Admissible bound helper: gains of the still-undecided suffix.
    // Duplicate keys are counted, which only loosens (never tightens)
    // the bound, so it stays admissible.
    let mut suffix_gain = vec![0u64; n + 1];
    for i in (0..n).rev() {
        suffix_gain[i] = suffix_gain[i + 1] + items[i].gain;
    }

    // Seed the incumbent with the greedy walk so the search result can
    // never lose to greedy. This is the paper's CDS acceptance loop:
    // take candidates in order, keep each one that still fits.
    let mut arena = Arena::new(set_count, fbs);
    let (greedy_mask, greedy_gain) = greedy_walk(items, &mut arena, feasible);
    let mut best = Node {
        accept: greedy_mask,
        gain: greedy_gain,
    };
    // Clear the greedy occupancy before the search proper.
    while arena.pop().is_some() {}

    let mut beam = vec![Node {
        accept: vec![false; n],
        gain: 0,
    }];
    'depths: for depth in 0..n {
        let mut children: Vec<Node> = Vec::new();
        for node in &beam {
            if config.max_expansions > 0 && stats.expansions >= u64::from(config.max_expansions) {
                stats.cap_hit = true;
                break 'depths;
            }
            arena.materialize(items, &node.accept, &mut stats, observer);
            stats.expansions += 1;
            observer(SearchEvent::Expand {
                depth,
                gain: node.gain,
                bound: node.gain + suffix_gain[depth],
            });
            let item = &items[depth];
            let duplicate = (0..depth).any(|j| node.accept[j] && items[j].key == item.key);
            // Accept child (skipped entirely for duplicate keys, like
            // greedy's silent `continue`).
            if !duplicate {
                let bound = node.gain + item.gain + suffix_gain[depth + 1];
                if bound <= best.gain {
                    stats.prunes += 1;
                    observer(SearchEvent::Prune {
                        depth,
                        bound,
                        reason: PruneReason::Bounded,
                    });
                } else if arena.push(depth, item) {
                    let mut accept = node.accept.clone();
                    accept[depth] = true;
                    if feasible(&accept) {
                        children.push(Node {
                            accept,
                            gain: node.gain + item.gain,
                        });
                    } else {
                        stats.prunes += 1;
                        observer(SearchEvent::Prune {
                            depth,
                            bound,
                            reason: PruneReason::Infeasible,
                        });
                    }
                    if arena.pop().is_some() {
                        stats.rollbacks += 1;
                        observer(SearchEvent::Rollback { depth });
                    }
                } else {
                    // Footprint does not even fit the set's allocator.
                    stats.prunes += 1;
                    observer(SearchEvent::Prune {
                        depth,
                        bound,
                        reason: PruneReason::Infeasible,
                    });
                }
            }
            // Reject child — always legal; cut only by its bound.
            let bound = node.gain + suffix_gain[depth + 1];
            if bound <= best.gain {
                stats.prunes += 1;
                observer(SearchEvent::Prune {
                    depth,
                    bound,
                    reason: PruneReason::Bounded,
                });
            } else {
                children.push(node.clone_with_reject());
            }
        }
        // Leaves reached? (depth was the last decision)
        if depth + 1 == n {
            for child in &children {
                if child.gain > best.gain {
                    best = child.clone();
                }
            }
            break;
        }
        // Keep the best `width` children. The sort is stable and
        // children were generated accept-before-reject in node order,
        // so ties resolve accept-first — which is what makes width 1
        // replay the greedy walk.
        children.sort_by(|a, b| {
            let ba = a.gain + suffix_gain[depth + 1];
            let bb = b.gain + suffix_gain[depth + 1];
            bb.cmp(&ba)
        });
        if children.len() > width {
            stats.beam_overflowed = true;
            children.truncate(width);
        }
        if children.is_empty() {
            break;
        }
        beam = children;
    }
    // Unwind whatever prefix is still materialized.
    while arena.pop().is_some() {}

    let optimal_proven = !stats.beam_overflowed && !stats.cap_hit;
    SearchOutcome {
        accept: best.accept,
        gain: best.gain,
        greedy_gain,
        optimal_proven,
        stats,
    }
}

impl Node {
    fn clone_with_reject(&self) -> Node {
        Node {
            accept: self.accept.clone(),
            gain: self.gain,
        }
    }
}

/// The paper's greedy acceptance loop over `items`, run against the
/// arena's allocators and the caller's feasibility predicate. Returns
/// the accept mask and its gain, leaving the arena holding the greedy
/// occupancy (callers unwind it).
fn greedy_walk(
    items: &[SearchItem],
    arena: &mut Arena,
    feasible: &mut dyn FnMut(&[bool]) -> bool,
) -> (Vec<bool>, u64) {
    let n = items.len();
    let mut accept = vec![false; n];
    let mut gain = 0u64;
    for (i, item) in items.iter().enumerate() {
        let duplicate = (0..i).any(|j| accept[j] && items[j].key == item.key);
        if duplicate {
            continue;
        }
        if !arena.push(i, item) {
            continue;
        }
        accept[i] = true;
        if feasible(&accept) {
            gain += item.gain;
        } else {
            accept[i] = false;
            arena.pop();
        }
    }
    (accept, gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: u64, size: u64, gain: u64) -> SearchItem {
        SearchItem {
            key: (key, 0),
            set: 0,
            size: Words::new(size),
            gain,
        }
    }

    /// Feasibility = total accepted size fits `cap` (a knapsack).
    fn knapsack(items: Vec<SearchItem>, cap: u64) -> impl FnMut(&[bool]) -> bool {
        move |mask: &[bool]| {
            let used: u64 = mask
                .iter()
                .zip(&items)
                .filter(|(&m, _)| m)
                .map(|(_, it)| it.size.get())
                .sum();
            used <= cap
        }
    }

    fn run(
        items: &[SearchItem],
        fbs: u64,
        cap: u64,
        config: SearchConfig,
    ) -> (SearchOutcome, Vec<SearchEvent>) {
        let mut feasible = knapsack(items.to_vec(), cap);
        let mut events = Vec::new();
        let outcome = search_retention(
            items,
            1,
            Words::new(fbs),
            &config,
            &mut feasible,
            &mut |ev| events.push(ev),
        );
        (outcome, events)
    }

    #[test]
    fn beats_greedy_on_the_knapsack_trap() {
        // Greedy takes the 6-word/10-gain candidate first and blocks
        // the two 4-word/8-gain ones; optimal rejects it.
        let items = vec![item(1, 6, 10), item(2, 4, 8), item(3, 4, 8)];
        let (outcome, _) = run(&items, 8, 8, SearchConfig::default());
        assert_eq!(outcome.greedy_gain, 10);
        assert_eq!(outcome.gain, 16);
        assert_eq!(outcome.accept, vec![false, true, true]);
        assert!(outcome.optimal_proven);
        assert!(outcome.stats.rollbacks > 0, "branches were rolled back");
    }

    #[test]
    fn beam_width_one_reproduces_greedy() {
        let items = vec![item(1, 6, 10), item(2, 4, 8), item(3, 4, 8)];
        let config = SearchConfig {
            beam_width: 1,
            max_expansions: 0,
        };
        let (outcome, _) = run(&items, 8, 8, config);
        assert_eq!(outcome.gain, outcome.greedy_gain);
        assert_eq!(outcome.accept, vec![true, false, false]);
    }

    #[test]
    fn duplicate_keys_are_force_skipped() {
        // The same (data, set) candidate appears twice; accepting both
        // would double-count its gain.
        let items = vec![item(1, 2, 5), item(1, 2, 5), item(2, 2, 3)];
        let (outcome, _) = run(&items, 16, 16, SearchConfig::default());
        assert_eq!(outcome.gain, 8);
        assert_eq!(outcome.accept, vec![true, false, true]);
    }

    #[test]
    fn expansion_cap_reports_incumbent() {
        let items: Vec<_> = (0..12).map(|i| item(i, 1 + i % 3, 2 + i % 5)).collect();
        let config = SearchConfig {
            beam_width: 64,
            max_expansions: 3,
        };
        let (outcome, _) = run(&items, 64, 9, config);
        assert!(outcome.stats.cap_hit);
        assert!(!outcome.optimal_proven);
        assert!(outcome.gain >= outcome.greedy_gain);
    }

    #[test]
    fn events_are_deterministic() {
        let items: Vec<_> = (0..8)
            .map(|i| item(i, 1 + i % 4, 1 + (i * 7) % 5))
            .collect();
        let (a, ev_a) = run(&items, 10, 7, SearchConfig::default());
        let (b, ev_b) = run(&items, 10, 7, SearchConfig::default());
        assert_eq!(a, b);
        assert_eq!(ev_a, ev_b);
    }
}
