//! Retention set selection: the greedy TF-ordered algorithm of §4.
//!
//! "The Complete Data Scheduler sorts the shared data and results
//! according to TF. It starts checking that `DS(C_c) ≤ FBS` for all
//! clusters assigned to that FB set for shared data or results with the
//! highest TF. Scheduling continues with shared data or results with
//! less TF. If `DS(C_c) > FBS` for some shared data or results, these
//! are not kept."

use mcds_model::{ClusterId, ClusterSchedule, DataId, FbSet, Words};
use serde::{Deserialize, Serialize};

use crate::sharing::{Candidate, RetainedKind};

/// How candidates are ordered before the greedy fit check. The paper
/// uses [`Tf`](RetentionRanking::Tf); the others exist for the ablation
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RetentionRanking {
    /// Descending time factor — the paper's policy.
    #[default]
    Tf,
    /// Descending raw size (big objects first, ignoring reuse counts).
    SizeDesc,
    /// Discovery order (no ranking).
    Fifo,
}

/// The set of shared objects the Complete Data Scheduler keeps in the
/// Frame Buffer, with the derived skip/passthrough queries the planner
/// and footprint model need.
///
/// The derived relations are vectors sorted by key without duplicates,
/// searched by bisection: a set holds a handful of candidates, and the
/// planner queries it for every stage and placed object. They
/// serialize as the sorted sequences a hashed set and map would.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RetentionSet {
    chosen: Vec<Candidate>,
    skip_load: Vec<(ClusterId, DataId)>,
    skip_store: Vec<(ClusterId, DataId)>,
    /// (data, set) -> (holder, last cluster) of the retention interval.
    /// An external input consumed on both sets may be retained once per
    /// set, each copy with its own interval.
    interval: Vec<((DataId, FbSet), (ClusterId, ClusterId))>,
}

/// Inserts `pair` into the sorted `pairs` unless it is already there.
fn insert_pair(pairs: &mut Vec<(ClusterId, DataId)>, pair: (ClusterId, DataId)) {
    if let Err(at) = pairs.binary_search(&pair) {
        pairs.insert(at, pair);
    }
}

/// Removes `pair` from the sorted `pairs` if it is there.
fn remove_pair(pairs: &mut Vec<(ClusterId, DataId)>, pair: (ClusterId, DataId)) {
    if let Ok(at) = pairs.binary_search(&pair) {
        pairs.remove(at);
    }
}

impl RetentionSet {
    /// The empty retention set (what Basic and DS use).
    #[must_use]
    pub fn empty() -> Self {
        RetentionSet::default()
    }

    /// Adds a candidate (assumed non-duplicate).
    pub fn add(&mut self, candidate: Candidate) {
        let d = candidate.data();
        for &c in candidate.skippers() {
            insert_pair(&mut self.skip_load, (c, d));
        }
        if let RetainedKind::SharedResult {
            store_avoided: true,
        } = candidate.kind()
        {
            insert_pair(&mut self.skip_store, (candidate.holder(), d));
        }
        let key = (d, candidate.set());
        let span = (candidate.holder(), candidate.last());
        match self.interval_at(key) {
            Ok(at) => self.interval[at].1 = span,
            Err(at) => self.interval.insert(at, (key, span)),
        }
        self.chosen.push(candidate);
    }

    /// Removes the most recently added candidate (used during greedy
    /// trial-and-error).
    pub fn pop(&mut self) -> Option<Candidate> {
        let candidate = self.chosen.pop()?;
        let d = candidate.data();
        for &c in candidate.skippers() {
            remove_pair(&mut self.skip_load, (c, d));
        }
        remove_pair(&mut self.skip_store, (candidate.holder(), d));
        if let Ok(at) = self.interval_at((d, candidate.set())) {
            self.interval.remove(at);
        }
        Some(candidate)
    }

    /// Where `key` sits in the sorted interval table (`Err`: where it
    /// would be inserted).
    fn interval_at(&self, key: (DataId, FbSet)) -> Result<usize, usize> {
        self.interval.binary_search_by(|&(k, _)| k.cmp(&key))
    }

    /// The retained candidates, in selection order.
    #[must_use]
    pub fn candidates(&self) -> &[Candidate] {
        &self.chosen
    }

    /// `true` if nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }

    /// Does cluster `c` skip loading `d` because a retained copy is
    /// already resident?
    #[must_use]
    pub fn skips_load(&self, c: ClusterId, d: DataId) -> bool {
        self.skip_load.binary_search(&(c, d)).is_ok()
    }

    /// Does cluster `c` skip storing `d` because retention made the
    /// external copy unnecessary?
    #[must_use]
    pub fn skips_store(&self, c: ClusterId, d: DataId) -> bool {
        self.skip_store.binary_search(&(c, d)).is_ok()
    }

    /// The `(cluster, data)` loads this set skips, sorted. With
    /// [`sorted_skipped_stores`](Self::sorted_skipped_stores), all that
    /// [`build_stages`](crate::build_stages) reads of the set.
    pub(crate) fn sorted_skipped_loads(&self) -> Vec<(ClusterId, DataId)> {
        self.skip_load.clone()
    }

    /// The `(cluster, data)` stores this set skips, sorted.
    pub(crate) fn sorted_skipped_stores(&self) -> Vec<(ClusterId, DataId)> {
        self.skip_store.clone()
    }

    /// Is `d` retained on any set?
    #[must_use]
    pub fn is_retained(&self, d: DataId) -> bool {
        self.interval.iter().any(|&((id, _), _)| id == d)
    }

    /// The retention interval of `d`'s copy on `set`: from the holder
    /// cluster (which loads or produces it) to the last same-set
    /// consumer.
    #[must_use]
    pub fn interval(&self, d: DataId, set: FbSet) -> Option<(ClusterId, ClusterId)> {
        let at = self.interval_at((d, set)).ok()?;
        Some(self.interval[at].1)
    }

    /// The last cluster that reads the retained copy of `d` on `set`;
    /// the space is released after it.
    #[must_use]
    pub fn release_after(&self, d: DataId, set: FbSet) -> Option<ClusterId> {
        self.interval(d, set).map(|(_, last)| last)
    }

    /// Words of retained objects that are merely *passing through*
    /// cluster `c` (same set, live across `c`, but neither loaded,
    /// produced nor consumed by it). They occupy Frame Buffer space for
    /// the whole of `c`'s execution and must be charged to its
    /// footprint.
    ///
    /// `uses` reports whether `c` reads the object (then it is part of
    /// `c`'s normal input working set instead).
    #[must_use]
    pub fn passthrough_words(
        &self,
        sched: &ClusterSchedule,
        c: ClusterId,
        sizes: impl Fn(DataId) -> Words,
        uses: impl Fn(ClusterId, DataId) -> bool,
    ) -> Words {
        let set: FbSet = sched.fb_set(c);
        let mut total = Words::ZERO;
        for cand in &self.chosen {
            if cand.set() != set {
                continue;
            }
            let d = cand.data();
            let (from, to) = (cand.holder(), cand.last());
            // For a cross-set candidate the last consumer sits on the
            // other set; its execution overlaps the next same-set
            // stage's transfers, so the charge extends one cluster
            // further on the resident set.
            let upper = if cand.is_cross_set() {
                to.index() + 1
            } else {
                to.index()
            };
            if c > from && c.index() <= upper && !uses(c, d) {
                total += sizes(d);
            }
        }
        total
    }

    /// Total external-memory words avoided per application iteration —
    /// `DT` in Table 1 of the paper.
    #[must_use]
    pub fn avoided_per_iter(&self) -> Words {
        self.chosen.iter().map(Candidate::avoided_per_iter).sum()
    }
}

/// Greedy selection: walk `candidates` in ranking order, keep each one
/// whose addition still satisfies `fits` (typically "every cluster's
/// footprint at the chosen RF stays within the FB set").
///
/// `candidates` holds at most one candidate per `(data, set)` pair, as
/// [`find_candidates_with`](crate::find_candidates_with) returns them,
/// so a table consumed on both Frame Buffer sets may be retained once
/// per set.
#[must_use]
pub fn select_greedy(
    candidates: &[Candidate],
    ranking: RetentionRanking,
    sizes: impl Fn(DataId) -> Words,
    fits: impl FnMut(&RetentionSet) -> bool,
) -> RetentionSet {
    select_greedy_with(candidates, ranking, sizes, fits, |_, _, _| {})
}

/// Applies a [`RetentionRanking`] to the candidate list, returning the
/// evaluation order shared by the greedy selector and the search
/// scheduler (which must walk the identical order for `beam_width = 1`
/// to reproduce greedy byte-for-byte).
pub(crate) fn rank_candidates<'a>(
    candidates: &'a [Candidate],
    ranking: RetentionRanking,
    sizes: &impl Fn(DataId) -> Words,
) -> Vec<&'a Candidate> {
    let mut ordered: Vec<&Candidate> = candidates.iter().collect();
    match ranking {
        RetentionRanking::Tf => { /* already sorted by find_candidates */ }
        RetentionRanking::SizeDesc => {
            ordered.sort_by(|a, b| {
                sizes(b.data())
                    .cmp(&sizes(a.data()))
                    .then_with(|| a.data().cmp(&b.data()))
            });
        }
        RetentionRanking::Fifo => {
            ordered.sort_by(|a, b| a.data().cmp(&b.data()).then(a.set().cmp(&b.set())));
        }
    }
    ordered
}

/// [`select_greedy`] with a decision callback for tracing: after each
/// fit check, `decision(candidate, tentative, accepted)` is called with
/// the tentative set *still containing* the candidate (it is popped
/// afterwards on rejection), so observers can inspect the footprint the
/// verdict was based on.
#[must_use]
pub fn select_greedy_with(
    candidates: &[Candidate],
    ranking: RetentionRanking,
    sizes: impl Fn(DataId) -> Words,
    mut fits: impl FnMut(&RetentionSet) -> bool,
    mut decision: impl FnMut(&Candidate, &RetentionSet, bool),
) -> RetentionSet {
    let ordered = rank_candidates(candidates, ranking, &sizes);

    let mut set = RetentionSet::empty();
    for cand in ordered {
        set.add(cand.clone());
        let accepted = fits(&set);
        decision(cand, &set, accepted);
        if !accepted {
            set.pop();
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::{find_candidates, Lifetimes};
    use mcds_model::{Application, ApplicationBuilder, Cycles, DataKind};

    fn fixture() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("ret");
        let big = b.data("big", Words::new(100), DataKind::ExternalInput);
        let small = b.data("small", Words::new(10), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(1), DataKind::FinalResult);
        let f1 = b.data("f1", Words::new(1), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(1), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[big, small], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[big, small], &[f2]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn greedy_keeps_everything_when_fits() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        assert_eq!(cands.len(), 2);
        let set = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        assert_eq!(set.candidates().len(), 2);
        // DT = (2-1)*100 + (2-1)*10.
        assert_eq!(set.avoided_per_iter(), Words::new(110));
        assert!(set.skips_load(ClusterId::new(2), DataId::new(0)));
        assert!(!set.skips_load(ClusterId::new(0), DataId::new(0)));
    }

    #[test]
    fn greedy_respects_fit_predicate() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        // Allow at most one retained object.
        let set = select_greedy(
            &cands,
            RetentionRanking::Tf,
            |d| app.size_of(d),
            |s| s.candidates().len() <= 1,
        );
        assert_eq!(set.candidates().len(), 1);
        // The highest-TF candidate (the big one) wins.
        assert_eq!(set.candidates()[0].data(), DataId::new(0));
    }

    #[test]
    fn greedy_skips_unfitting_but_continues() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        // Reject any set containing the big object.
        let set = select_greedy(
            &cands,
            RetentionRanking::Tf,
            |d| app.size_of(d),
            |s| !s.candidates().iter().any(|c| c.data() == DataId::new(0)),
        );
        assert_eq!(set.candidates().len(), 1);
        assert_eq!(set.candidates()[0].data(), DataId::new(1));
    }

    #[test]
    fn rankings_change_order() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let by_size = select_greedy(
            &cands,
            RetentionRanking::SizeDesc,
            |d| app.size_of(d),
            |s| s.candidates().len() <= 1,
        );
        assert_eq!(by_size.candidates()[0].data(), DataId::new(0));
        let fifo = select_greedy(
            &cands,
            RetentionRanking::Fifo,
            |d| app.size_of(d),
            |s| s.candidates().len() <= 1,
        );
        assert_eq!(fifo.candidates()[0].data(), DataId::new(0));
    }

    #[test]
    fn passthrough_counts_spanning_objects() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let set = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        // Cluster 1 is on the other set: nothing passes through it.
        let pt1 =
            set.passthrough_words(&sched, ClusterId::new(1), |d| app.size_of(d), |_, _| false);
        assert_eq!(pt1, Words::ZERO);
        // A hypothetical same-set cluster between holder and last that
        // does not use the data would be charged. Cluster 2 *uses* both
        // retained objects, so nothing is passthrough there either.
        let uses = |c: ClusterId, d: DataId| lt.loads(c).contains(&d);
        let pt2 = set.passthrough_words(&sched, ClusterId::new(2), |d| app.size_of(d), uses);
        assert_eq!(pt2, Words::ZERO);
        // If cluster 2 claimed not to use them, they would be charged.
        let pt2_forced =
            set.passthrough_words(&sched, ClusterId::new(2), |d| app.size_of(d), |_, _| false);
        assert_eq!(pt2_forced, Words::new(110));
    }

    #[test]
    fn cross_set_passthrough_extends_one_cluster() {
        use crate::find_candidates_with;
        use mcds_model::{ApplicationBuilder, Cycles, DataKind};
        // shared consumed by C0 (set 0) and C3 (set 1): with cross-set
        // access it is retained on set 0 until C3 finishes, so C2 and
        // C4 (set-0 clusters at and just past the interval end) carry
        // the passthrough.
        let mut b = ApplicationBuilder::new("xpt");
        let shared = b.data("shared", Words::new(50), DataKind::ExternalInput);
        let x = b.data("x", Words::new(1), DataKind::ExternalInput);
        let mut kernels = Vec::new();
        for i in 0..5u32 {
            let f = b.data(format!("f{i}"), Words::new(1), DataKind::FinalResult);
            let inputs = if i == 0 || i == 3 {
                vec![shared]
            } else {
                vec![x]
            };
            kernels.push(vec![b.kernel(
                format!("k{i}"),
                1,
                Cycles::new(10),
                &inputs,
                &[f],
            )]);
        }
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, kernels).expect("valid");
        let lt = crate::Lifetimes::analyze(&app, &sched);
        let cands = find_candidates_with(&app, &sched, &lt, true);
        let shared_cand = cands
            .iter()
            .find(|c| c.data() == DataId::new(0))
            .expect("cross-set group");
        assert!(shared_cand.is_cross_set());
        assert_eq!(shared_cand.holder(), ClusterId::new(0));
        assert_eq!(shared_cand.last(), ClusterId::new(3));
        let mut set = RetentionSet::empty();
        set.add(shared_cand.clone());
        let pt = |c: u32| {
            set.passthrough_words(&sched, ClusterId::new(c), |d| app.size_of(d), |_, _| false)
        };
        // C2 (set 0, inside the interval): charged.
        assert_eq!(pt(2), Words::new(50));
        // C4 (set 0, one past the cross-set end): still charged -- the
        // last consumer executes on the other set while C4's transfers
        // begin.
        assert_eq!(pt(4), Words::new(50));
        // C1/C3 are on set 1: never charged on their own set.
        assert_eq!(pt(1), Words::ZERO);
        assert_eq!(pt(3), Words::ZERO);
    }

    #[test]
    fn decision_callback_sees_tentative_set() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let mut seen: Vec<(DataId, usize, bool)> = Vec::new();
        // Reject the big object (data 0), keep the small one.
        let set = select_greedy_with(
            &cands,
            RetentionRanking::Tf,
            |d| app.size_of(d),
            |s| !s.candidates().iter().any(|c| c.data() == DataId::new(0)),
            |cand, tentative, accepted| {
                // The candidate is still in the tentative set either way.
                assert!(tentative.candidates().iter().any(|c| c == cand));
                seen.push((cand.data(), tentative.candidates().len(), accepted));
            },
        );
        assert_eq!(set.candidates().len(), 1);
        assert_eq!(
            seen,
            vec![(DataId::new(0), 1, false), (DataId::new(1), 1, true)]
        );
    }

    #[test]
    fn empty_set_queries() {
        let set = RetentionSet::empty();
        assert!(set.is_empty());
        assert!(!set.skips_load(ClusterId::new(0), DataId::new(0)));
        assert!(!set.skips_store(ClusterId::new(0), DataId::new(0)));
        assert!(!set.is_retained(DataId::new(0)));
        assert_eq!(
            set.release_after(DataId::new(0), mcds_model::FbSet::Set0),
            None
        );
        assert_eq!(set.avoided_per_iter(), Words::ZERO);
    }

    #[test]
    fn add_pop_roundtrip() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let mut set = RetentionSet::empty();
        set.add(cands[0].clone());
        assert!(set.is_retained(cands[0].data()));
        let popped = set.pop().expect("one element");
        assert_eq!(popped.data(), cands[0].data());
        assert!(set.is_empty());
        assert!(!set.is_retained(cands[0].data()));
        assert!(set.pop().is_none());
    }

    /// The set's relations as hashed collections, the way `RetentionSet`
    /// kept them before they became sorted vectors: the oracle of
    /// `sorted_relations_match_the_hashed_model`.
    #[derive(Debug, Default, PartialEq, Serialize)]
    struct Model {
        chosen: Vec<Candidate>,
        skip_load: HashSet<(ClusterId, DataId)>,
        skip_store: HashSet<(ClusterId, DataId)>,
        interval: std::collections::HashMap<(DataId, FbSet), (ClusterId, ClusterId)>,
    }

    impl Model {
        fn add(&mut self, candidate: Candidate) {
            for &c in candidate.skippers() {
                self.skip_load.insert((c, candidate.data()));
            }
            if let RetainedKind::SharedResult {
                store_avoided: true,
            } = candidate.kind()
            {
                self.skip_store
                    .insert((candidate.holder(), candidate.data()));
            }
            self.interval.insert(
                (candidate.data(), candidate.set()),
                (candidate.holder(), candidate.last()),
            );
            self.chosen.push(candidate);
        }

        fn pop(&mut self) -> Option<Candidate> {
            let candidate = self.chosen.pop()?;
            for &c in candidate.skippers() {
                self.skip_load.remove(&(c, candidate.data()));
            }
            self.skip_store
                .remove(&(candidate.holder(), candidate.data()));
            self.interval.remove(&(candidate.data(), candidate.set()));
            Some(candidate)
        }

        fn sorted(pairs: &HashSet<(ClusterId, DataId)>) -> Vec<(ClusterId, DataId)> {
            let mut sorted: Vec<_> = pairs.iter().copied().collect();
            sorted.sort_unstable();
            sorted
        }
    }

    /// Every query `set` answers equals `model`'s, over every cluster,
    /// object and Frame Buffer set of `app`.
    fn assert_matches(
        app: &Application,
        sched: &ClusterSchedule,
        set: &RetentionSet,
        model: &Model,
    ) {
        assert_eq!(set.candidates(), &model.chosen[..]);
        for d in (0..app.data().len()).map(|i| DataId::new(i as u32)) {
            let retained = model.interval.keys().any(|&(id, _)| id == d);
            assert_eq!(set.is_retained(d), retained, "{d:?}");
            for fb in [FbSet::Set0, FbSet::Set1] {
                let interval = model.interval.get(&(d, fb)).copied();
                assert_eq!(set.interval(d, fb), interval, "{d:?} {fb:?}");
                assert_eq!(set.release_after(d, fb), interval.map(|(_, last)| last));
            }
            for c in sched.clusters().iter().map(|cl| cl.id()) {
                assert_eq!(set.skips_load(c, d), model.skip_load.contains(&(c, d)));
                assert_eq!(set.skips_store(c, d), model.skip_store.contains(&(c, d)));
            }
        }
        assert_eq!(set.sorted_skipped_loads(), Model::sorted(&model.skip_load));
        assert_eq!(
            set.sorted_skipped_stores(),
            Model::sorted(&model.skip_store)
        );
        assert_eq!(
            serde_json::to_string(set).expect("serializes"),
            serde_json::to_string(model).expect("serializes")
        );
    }

    /// Drives two sets and their models through `steps` random adds and
    /// pops of the structure's candidates, found with cross-set access
    /// off and on so one object can have a candidate on each set (and
    /// two candidates can share an (object, set) key).
    fn sorted_relations_match_the_hashed_model(
        app: &Application,
        sched: &ClusterSchedule,
        mut bits: u64,
        steps: usize,
    ) {
        let lt = Lifetimes::analyze(app, sched);
        let mut pool = crate::find_candidates_with(app, sched, &lt, false);
        pool.extend(crate::find_candidates_with(app, sched, &lt, true));
        let mut pairs = [
            (RetentionSet::empty(), Model::default()),
            (RetentionSet::empty(), Model::default()),
        ];
        for _ in 0..steps {
            bits = crate::splitmix64(bits);
            // Act on the first, the second or both; both keeps the two
            // equal for a while, so `==` is checked either way.
            let targets = match bits % 3 {
                0 => 0..1,
                1 => 1..2,
                _ => 0..2,
            };
            let pick = (bits >> 8) as usize % (pool.len() + 1);
            for (set, model) in &mut pairs[targets] {
                if pick == pool.len() || (bits >> 40).is_multiple_of(4) {
                    assert_eq!(set.pop(), model.pop());
                } else {
                    set.add(pool[pick].clone());
                    model.add(pool[pick].clone());
                }
                assert_matches(app, sched, set, model);
            }
            let [(a, model_a), (b, model_b)] = &pairs;
            assert_eq!(a == b, model_a == model_b);
        }
    }

    #[test]
    fn sorted_relations_match_the_hashed_model_on_the_catalog() {
        for name in ["e1", "e3", "mpeg", "atr-sld"] {
            let (app, sched) = mcds_workloads::mix::by_name(name, 4).expect("catalog");
            sorted_relations_match_the_hashed_model(&app, &sched, 7, 200);
        }
    }

    /// A random structure of one-kernel clusters: three tables read by
    /// random clusters on either set, and results read by random later
    /// clusters, so an object can be shared on one set, on both, or
    /// across sets.
    fn mixed_structure(mut bits: u64, clusters: usize) -> (Application, ClusterSchedule) {
        let mut next = move || {
            bits = crate::splitmix64(bits);
            bits
        };
        let mut b = ApplicationBuilder::new("mixed");
        let tables: Vec<DataId> = (0..3)
            .map(|i| {
                let size = Words::new(16 + next() % 100);
                b.data(format!("t{i}"), size, DataKind::ExternalInput)
            })
            .collect();
        let readers: Vec<Vec<usize>> = (0..clusters)
            .map(|c| {
                (c + 1..clusters)
                    .filter(|_| next().is_multiple_of(3))
                    .collect()
            })
            .collect();
        let results: Vec<DataId> = readers
            .iter()
            .enumerate()
            .map(|(c, read_by)| {
                let kind = if read_by.is_empty() {
                    DataKind::FinalResult
                } else {
                    DataKind::Intermediate
                };
                b.data(format!("r{c}"), Words::new(8 + next() % 50), kind)
            })
            .collect();
        let kernels = (0..clusters)
            .map(|c| {
                let mut inputs: Vec<DataId> = tables
                    .iter()
                    .copied()
                    .filter(|_| next().is_multiple_of(2))
                    .collect();
                inputs.extend(
                    (0..c)
                        .filter(|&p| readers[p].contains(&c))
                        .map(|p| results[p]),
                );
                vec![b.kernel(format!("k{c}"), 1, Cycles::new(10), &inputs, &[results[c]])]
            })
            .collect();
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, kernels).expect("valid");
        (app, sched)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_relations_match_the_hashed_model_on_random_structures(
            seed in proptest::prelude::any::<u64>(),
            clusters in 2usize..9,
        ) {
            let (app, sched) = mixed_structure(seed, clusters);
            sorted_relations_match_the_hashed_model(&app, &sched, seed, 60);
        }
    }
}
