//! Beam-search / branch-and-bound exploration over retention
//! candidates — the engine behind `SchedulerKind::Search`.
//!
//! The paper's Complete Data Scheduler walks the TF-ranked candidate
//! list once, greedily accepting every candidate that still satisfies
//! `DS(C_c) <= FBS`. Greedy commits too early when a high-TF candidate
//! occupies Frame Buffer words that two later candidates could have
//! used to avoid more external traffic together. This crate explores
//! the accept/reject tree over the *same ordered candidate list*
//! instead:
//!
//! * each tree node is a prefix of accept/reject decisions, in
//!   candidate order;
//! * an accept is decided by the caller's feasibility callback alone,
//!   which for the schedulers is the paper's `DS(C_c) <= FBS` over
//!   every cluster — infeasible branches prune immediately;
//! * an admissible bound (gain so far + the sum of all remaining
//!   candidates' gains) drives best-first pruning against the
//!   incumbent, which is seeded with the caller's greedy mask so search
//!   can never return less than greedy;
//! * at most `beam_width` nodes survive per depth. With
//!   `beam_width = 1` the accept-first tie-break makes the surviving
//!   node exactly the greedy prefix, so beam-1 reproduces greedy CDS.
//!
//! When the beam never overflowed and the expansion cap was never hit,
//! the run degenerated to exhaustive branch-and-bound and the result
//! is *provably optimal* for the given feasibility predicate, provided
//! it is monotone ([`SearchOutcome::optimal_proven`]), which is how
//! reports can state where greedy was already optimal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    /// The feasibility callback rejected the partial retention
    /// (`DS(C_c) > FBS`).
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
}

/// Counters accumulated over one search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded.
    pub expansions: u64,
    /// Children cut (infeasible or bounded).
    pub prunes: u64,
    /// `true` if any depth produced more surviving children than the
    /// beam width — the search was not exhaustive.
    pub beam_overflowed: bool,
    /// `true` if `max_expansions` stopped the search early.
    pub cap_hit: bool,
}

/// The result of a search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// `accept[i]` says whether candidate `i` is retained.
    pub accept: Vec<bool>,
    /// Total gain of the accepted set.
    pub gain: u64,
    /// Gain of the caller's greedy mask — the incumbent the search
    /// started from. `gain >= greedy_gain` always.
    pub greedy_gain: u64,
    /// `true` when the search was exhaustive (no beam overflow, no
    /// expansion cap), making `accept` provably optimal for the given
    /// feasibility predicate if that predicate is monotone.
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

/// Explores accept/reject decisions over candidates whose gains are
/// `gains`, in order.
///
/// `greedy` is the caller's greedy accept mask over the same
/// candidates (one entry per gain); it must satisfy `feasible`, and it
/// seeds the incumbent, so the result never gains less. On equal gain
/// the greedy mask itself is returned.
///
/// `feasible` receives a full-length accept mask (undecided suffix all
/// `false`) and must implement the scheduler's real constraint — for
/// CDS, `DS(C_c) <= FBS` over every cluster. An infeasible accept cuts
/// its whole subtree, so [`SearchOutcome::optimal_proven`] holds only
/// for a *monotone* predicate, where a superset of an infeasible set
/// stays infeasible (true for the paper's DS formula, where retaining
/// more data only grows each cluster's footprint).
///
/// `observer` sees every expansion and prune in deterministic order;
/// pass a no-op closure when tracing is off.
pub fn search_retention(
    gains: &[u64],
    greedy: &[bool],
    config: &SearchConfig,
    feasible: &mut dyn FnMut(&[bool]) -> bool,
    observer: &mut dyn FnMut(SearchEvent),
) -> SearchOutcome {
    let n = gains.len();
    debug_assert_eq!(greedy.len(), n, "one greedy verdict per candidate");
    let width = config.beam_width.max(1) as usize;
    let mut stats = SearchStats::default();

    // Admissible bound helper: gains of the still-undecided suffix.
    let mut suffix_gain = vec![0u64; n + 1];
    for i in (0..n).rev() {
        suffix_gain[i] = suffix_gain[i + 1] + gains[i];
    }

    let greedy_gain = gains
        .iter()
        .zip(greedy)
        .filter(|(_, &on)| on)
        .map(|(g, _)| g)
        .sum();
    let mut best = Node {
        accept: greedy.to_vec(),
        gain: greedy_gain,
    };

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
            stats.expansions += 1;
            observer(SearchEvent::Expand {
                depth,
                gain: node.gain,
                bound: node.gain + suffix_gain[depth],
            });
            // Accept child.
            let bound = node.gain + gains[depth] + suffix_gain[depth + 1];
            if bound <= best.gain {
                stats.prunes += 1;
                observer(SearchEvent::Prune {
                    depth,
                    bound,
                    reason: PruneReason::Bounded,
                });
            } else {
                let mut accept = node.accept.clone();
                accept[depth] = true;
                if feasible(&accept) {
                    children.push(Node {
                        accept,
                        gain: node.gain + gains[depth],
                    });
                } else {
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
                children.push(node.clone());
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

    let optimal_proven = !stats.beam_overflowed && !stats.cap_hit;
    SearchOutcome {
        accept: best.accept,
        gain: best.gain,
        greedy_gain,
        optimal_proven,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feasibility = total accepted size fits `cap` (a knapsack).
    fn knapsack(sizes: &[u64], cap: u64) -> impl FnMut(&[bool]) -> bool + '_ {
        move |mask: &[bool]| {
            let used: u64 = sizes
                .iter()
                .zip(mask)
                .filter(|(_, &m)| m)
                .map(|(s, _)| s)
                .sum();
            used <= cap
        }
    }

    /// The greedy walk: keep each item, in order, while it still fits.
    fn greedy(sizes: &[u64], cap: u64) -> Vec<bool> {
        let mut fits = knapsack(sizes, cap);
        let mut accept = vec![false; sizes.len()];
        for i in 0..accept.len() {
            accept[i] = true;
            accept[i] = fits(&accept);
        }
        accept
    }

    /// `items` are `(size, gain)` pairs.
    fn run(
        items: &[(u64, u64)],
        cap: u64,
        config: SearchConfig,
    ) -> (SearchOutcome, Vec<SearchEvent>) {
        let (sizes, gains): (Vec<u64>, Vec<u64>) = items.iter().copied().unzip();
        let seed = greedy(&sizes, cap);
        let mut events = Vec::new();
        let outcome = search_retention(
            &gains,
            &seed,
            &config,
            &mut knapsack(&sizes, cap),
            &mut |ev| events.push(ev),
        );
        (outcome, events)
    }

    #[test]
    fn beats_greedy_on_the_knapsack_trap() {
        // Greedy takes the 6-word/10-gain candidate first and blocks
        // the two 4-word/8-gain ones; optimal rejects it.
        let items = [(6, 10), (4, 8), (4, 8)];
        let (outcome, _) = run(&items, 8, SearchConfig::default());
        assert_eq!(outcome.greedy_gain, 10);
        assert_eq!(outcome.gain, 16);
        assert_eq!(outcome.accept, vec![false, true, true]);
        assert!(outcome.optimal_proven);
        assert!(outcome.stats.prunes > 0, "infeasible branches were cut");
    }

    #[test]
    fn beam_width_one_reproduces_greedy() {
        let items = [(6, 10), (4, 8), (4, 8)];
        let config = SearchConfig {
            beam_width: 1,
            max_expansions: 0,
        };
        let (outcome, _) = run(&items, 8, config);
        assert_eq!(outcome.gain, outcome.greedy_gain);
        assert_eq!(outcome.accept, vec![true, false, false]);
    }

    #[test]
    fn expansion_cap_reports_incumbent() {
        let items: Vec<_> = (0..12).map(|i| (1 + i % 3, 2 + i % 5)).collect();
        let config = SearchConfig {
            beam_width: 64,
            max_expansions: 3,
        };
        let (outcome, _) = run(&items, 9, config);
        assert!(outcome.stats.cap_hit);
        assert!(!outcome.optimal_proven);
        assert!(outcome.gain >= outcome.greedy_gain);
    }

    #[test]
    fn events_are_deterministic() {
        let items: Vec<_> = (0..8).map(|i| (1 + i % 4, 1 + (i * 7) % 5)).collect();
        let (a, ev_a) = run(&items, 7, SearchConfig::default());
        let (b, ev_b) = run(&items, 7, SearchConfig::default());
        assert_eq!(a, b);
        assert_eq!(ev_a, ev_b);
    }
}
