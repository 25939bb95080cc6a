//! Frame Buffer footprint models: the paper's `DS(C_c)` and its
//! generalisation to `RF` batched iterations and retention.

use std::collections::HashMap;

use mcds_model::{Application, ClusterId, ClusterSchedule, Words};

use crate::retention::rank_candidates;
use crate::{Candidate, Lifetimes, RetentionRanking, RetentionSet};

/// How a scheduler uses the Frame Buffer within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FootprintModel {
    /// The Basic Scheduler: all inputs, intermediates and results of the
    /// cluster are simultaneously resident — nothing is replaced in
    /// place.
    NoReplacement,
    /// The Data / Complete Data Scheduler: dead inputs and consumed
    /// intermediates are released as execution proceeds ("it replaces
    /// the external data or intermediate results that are not going to
    /// be used as input data by kernels executed later, with new
    /// intermediate and final results").
    Replacement,
}

/// The three `RF`-independent terms of one cluster's footprint:
/// `DS_RF(C_c) = RF·per_rf + (RF − 1)·batched + single`. The live words
/// at kernel `p` of batched iteration `i` are
/// `RF·(K + P) + (RF − 1 − i)·L + i·S + f(p)`, linear in `i`, so the
/// peak is at `i = 0` or `i = RF − 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Footprint {
    /// `K + P`: the inputs held to the cluster end (retained past `c`,
    /// or every object without replacement), plus passthrough.
    per_rf: Words,
    /// `max(L, S)`: one iteration's other inputs, or its outward results.
    batched: Words,
    /// `max_p f(p)`: one iteration's live words while kernel `p` runs.
    single: Words,
}

impl Footprint {
    /// One pass over cluster `c`'s loads, locals and stores.
    pub(crate) fn of(
        app: &Application,
        sched: &ClusterSchedule,
        lifetimes: &Lifetimes,
        retention: &RetentionSet,
        c: ClusterId,
        model: FootprintModel,
    ) -> Self {
        let set = sched.fb_set(c);
        let m = sched.cluster(c).len();
        let replace = model == FootprintModel::Replacement;
        let (mut held, mut released, mut stored) = (Words::ZERO, Words::ZERO, Words::ZERO);
        // f(p) as live intervals [a, b) over kernel positions.
        let mut diff = vec![0i64; m + 1];
        let mut add = |a: usize, b: usize, size: Words| {
            debug_assert!(a < b && b <= m);
            diff[a] += size.get() as i64;
            diff[b] -= size.get() as i64;
        };

        for &d in lifetimes.loads(c) {
            // A retained copy read across sets (future-work extension)
            // occupies the *other* set — charged there as passthrough,
            // not here.
            if retention.skips_load(c, d) && retention.interval(d, set).is_none() {
                continue;
            }
            let size = app.size_of(d);
            let keep_beyond = retention
                .release_after(d, set)
                .is_some_and(|release| release > c);
            if !replace || keep_beyond {
                held += size;
            } else {
                let last = lifetimes
                    .last_use_in(c, d)
                    .expect("loaded objects are consumed in the cluster");
                released += size;
                add(0, last + 1, size);
            }
        }

        for &d in lifetimes.locals(c) {
            let size = app.size_of(d);
            if replace {
                let prod = lifetimes.producer_pos(d).expect("locals have a producer");
                let last = lifetimes
                    .last_use_in(c, d)
                    .expect("locals are consumed in the cluster");
                add(prod, last + 1, size);
            } else {
                held += size;
            }
        }

        for &d in lifetimes.stores(c) {
            let size = app.size_of(d);
            if replace {
                let prod = lifetimes.producer_pos(d).expect("stores have a producer");
                stored += size;
                add(prod, m, size);
            } else {
                held += size;
            }
        }

        let passthrough = retention.passthrough_words(
            sched,
            c,
            |d| app.size_of(d),
            |cl, d| lifetimes.loads(cl).contains(&d),
        );
        let mut live = 0i64;
        let single = diff.iter().fold(0i64, |peak, delta| {
            live += delta;
            peak.max(live)
        });
        Footprint {
            per_rf: held + passthrough,
            batched: released.max(stored),
            single: Words::new(u64::try_from(single).expect("live size never negative")),
        }
    }

    /// `DS_RF(C_c)` at `rf` consecutive iterations (zero at `rf = 0`).
    pub(crate) fn at(self, rf: u64) -> Words {
        rf.checked_sub(1).map_or(Words::ZERO, |more| {
            self.per_rf * rf + self.batched * more + self.single
        })
    }

    /// The largest `rf` whose footprint fits `fbs` words (`None` if not
    /// even `rf = 1` fits; unbounded if the footprint does not grow).
    pub(crate) fn max_rf(self, fbs: Words) -> Option<u64> {
        let room = fbs.checked_sub(self.at(1))?;
        Some(
            room.get()
                .checked_div((self.per_rf + self.batched).get())
                .map_or(u64::MAX, |more| more.saturating_add(1)),
        )
    }
}

/// One plan's fit checks. A retention set the ladder tries is a mask
/// over the ranked candidates (at most one per `(object, set)`), and
/// the table keeps, per mask, the largest RF at which every cluster
/// fits: the minimum of [`Footprint::max_rf`] over the clusters, `None`
/// if some cluster does not fit at RF 1. Those terms do not depend on
/// RF, so each mask's footprints are computed once per plan, and a
/// check at rung `rf` is `rf ≤ max_rf`: exactly [`all_fit`], since a
/// footprint never shrinks as RF grows.
pub(crate) struct FitTable<'a> {
    app: &'a Application,
    sched: &'a ClusterSchedule,
    lifetimes: &'a Lifetimes,
    model: FootprintModel,
    fbs: Words,
    ranked: Vec<&'a Candidate>,
    max_rf: HashMap<Vec<bool>, Option<u64>>,
}

impl<'a> FitTable<'a> {
    pub(crate) fn new(
        app: &'a Application,
        sched: &'a ClusterSchedule,
        lifetimes: &'a Lifetimes,
        candidates: &'a [Candidate],
        ranking: RetentionRanking,
        model: FootprintModel,
        fbs: Words,
    ) -> Self {
        let ranked = rank_candidates(candidates, ranking, &|d| app.size_of(d));
        FitTable {
            app,
            sched,
            lifetimes,
            model,
            fbs,
            ranked,
            max_rf: HashMap::new(),
        }
    }

    /// The candidates in ranking order: mask entry `i` is `ranked()[i]`.
    pub(crate) fn ranked(&self) -> &[&'a Candidate] {
        &self.ranked
    }

    /// The retention set of `mask`, its candidates in ranking order.
    pub(crate) fn retention(&self, mask: &[bool]) -> RetentionSet {
        let mut set = RetentionSet::empty();
        for (cand, _) in self.ranked.iter().zip(mask).filter(|(_, &on)| on) {
            set.add((*cand).clone());
        }
        set
    }

    /// Whether every cluster fits at `rf ≥ 1` with `mask` retained.
    pub(crate) fn fits(&mut self, mask: &[bool], rf: u64) -> bool {
        self.max_rf(mask).is_some_and(|max| rf <= max)
    }

    fn max_rf(&mut self, mask: &[bool]) -> Option<u64> {
        if let Some(&max) = self.max_rf.get(mask) {
            return max;
        }
        let retention = self.retention(mask);
        let max = self.sched.clusters().iter().try_fold(u64::MAX, |rf, cl| {
            let footprint = Footprint::of(
                self.app,
                self.sched,
                self.lifetimes,
                &retention,
                cl.id(),
                self.model,
            );
            Some(rf.min(footprint.max_rf(self.fbs)?))
        });
        self.max_rf.insert(mask.to_vec(), max);
        max
    }

    /// The paper's greedy walk at `rf`: take the candidates in ranking
    /// order and keep each one while every cluster still fits. Returns
    /// the accept mask and the number of candidates rejected.
    pub(crate) fn greedy(&mut self, rf: u64) -> (Vec<bool>, u64) {
        let mut accept = vec![false; self.ranked.len()];
        let mut rejected = 0;
        for i in 0..accept.len() {
            accept[i] = true;
            if !self.fits(&accept, rf) {
                accept[i] = false;
                rejected += 1;
            }
        }
        (accept, rejected)
    }
}

/// Peak Frame Buffer words cluster `c` needs when executing `rf`
/// consecutive iterations under the given retention set, in closed
/// form: `RF·(K + P) + (RF − 1)·max(L, S) + max_p f(p)`.
///
/// The model follows the execution order of the paper's allocation
/// algorithm (Figure 4): all `rf` iterations' inputs are resident before
/// the cluster starts; then, iteration-major, every kernel executes,
/// acquiring its outputs and releasing the inputs/intermediates whose
/// last consumer it is. Results that leave the cluster stay resident
/// until the end (they are stored — or retained — afterwards). Retained
/// objects of *other* clusters that live across `c` on the same set are
/// charged as passthrough (`P`). `K` is the inputs held to the cluster
/// end, `L` and `S` one iteration's other inputs and outward results,
/// and `f(p)` one iteration's live words while kernel `p` runs — with
/// no retention, the bracket of the paper's [`ds_formula`].
///
/// # Panics
///
/// Panics if `c` is out of range for `sched`.
#[must_use]
pub fn cluster_peak(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    c: ClusterId,
    rf: u64,
    model: FootprintModel,
) -> Words {
    Footprint::of(app, sched, lifetimes, retention, c, model).at(rf)
}

/// The paper's analytic maximum-data-size formula for one iteration of a
/// cluster (no retention):
///
/// ```text
/// DS(C_c) = MAX_{i=1..n} ( Σ_{j≥i} d_j  +  Σ_{j≤i} rout_j  +  Σ_{j≤i} Σ_{t≥i} r_jt )
/// ```
///
/// where `d_j` is the input data whose last consumer is kernel `j`,
/// `rout_j` the results of kernel `j` used outside the cluster, and
/// `r_jt` the intermediate results produced by `j` and last used by `t`.
/// Equals [`cluster_peak`] with `rf = 1`, an empty retention set and
/// [`FootprintModel::Replacement`].
///
/// # Panics
///
/// Panics if `c` is out of range for `sched`.
#[must_use]
pub fn ds_formula(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    c: ClusterId,
) -> Words {
    let cluster = sched.cluster(c);
    let n = cluster.len();

    // d[j]: input data whose last consumer is kernel j.
    let mut d = vec![Words::ZERO; n];
    for &obj in lifetimes.loads(c) {
        let j = lifetimes.last_use_in(c, obj).expect("consumed in cluster");
        d[j] += app.size_of(obj);
    }
    // rout[j]: outward results of kernel j.
    let mut rout = vec![Words::ZERO; n];
    for &obj in lifetimes.stores(c) {
        let j = lifetimes.producer_pos(obj).expect("produced in cluster");
        rout[j] += app.size_of(obj);
    }
    // r[j][t]: intermediates produced by j, last used by t.
    let mut r = vec![vec![Words::ZERO; n]; n];
    for &obj in lifetimes.locals(c) {
        let j = lifetimes.producer_pos(obj).expect("produced in cluster");
        let t = lifetimes.last_use_in(c, obj).expect("consumed in cluster");
        r[j][t] += app.size_of(obj);
    }

    let mut best = Words::ZERO;
    for i in 0..n {
        let mut v: Words = d[i..].iter().copied().sum();
        for (j, &rout_j) in rout.iter().enumerate().take(i + 1) {
            v += rout_j;
            v += r[j][i..].iter().copied().sum();
        }
        best = best.max(v);
    }
    best
}

/// Returns `true` if every cluster's peak footprint at `rf` fits in a
/// Frame Buffer set of `fbs` words.
#[must_use]
pub fn all_fit(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    rf: u64,
    model: FootprintModel,
    fbs: Words,
) -> bool {
    first_unfit(app, sched, lifetimes, retention, rf, model, fbs).is_none()
}

/// Returns the first cluster (in schedule order) whose peak footprint at
/// `rf` exceeds a Frame Buffer set of `fbs` words, together with that
/// peak `DS(C_c)` — `None` when every cluster fits. The diagnostic
/// counterpart of [`all_fit`], used to name the violated constraint in
/// [`Event::RetentionRejected`](crate::Event::RetentionRejected).
#[must_use]
pub fn first_unfit(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    rf: u64,
    model: FootprintModel,
    fbs: Words,
) -> Option<(ClusterId, Words)> {
    sched.clusters().iter().find_map(|cl| {
        let peak = cluster_peak(app, sched, lifetimes, retention, cl.id(), rf, model);
        (peak > fbs).then_some((cl.id(), peak))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_candidates, find_candidates_with, select_greedy, select_greedy_with};
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, KernelId};
    use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
    use proptest::prelude::*;

    /// The fit table's verdict equals [`all_fit`] at every RF up to the
    /// iteration count, under both footprint models, with and without
    /// cross-set access, for every ranked prefix of the candidates and
    /// for random masks; its greedy walk equals [`select_greedy_with`]
    /// over `all_fit`, rejections included, whether the table is fresh
    /// or already holds the masks; and a fresh table's walk reads every
    /// verdict from the table, computing each of its masks once.
    fn fit_table_matches_all_fit(app: &Application, sched: &ClusterSchedule, seed: u64) {
        let lt = Lifetimes::analyze(app, sched);
        let mut bits = seed;
        for cross in [false, true] {
            let candidates = find_candidates_with(app, sched, &lt, cross);
            let n = candidates.len();
            let mut masks: Vec<Vec<bool>> = (0..=n)
                .map(|len| (0..n).map(|i| i < len).collect())
                .collect();
            for _ in 0..8 {
                masks.push(
                    (0..n)
                        .map(|_| {
                            bits = crate::splitmix64(bits);
                            bits & 1 == 1
                        })
                        .collect(),
                );
            }
            for model in [FootprintModel::Replacement, FootprintModel::NoReplacement] {
                for fbs in [256, 1024, 4096].map(Words::new) {
                    let ranking = RetentionRanking::Tf;
                    let mut table =
                        FitTable::new(app, sched, &lt, &candidates, ranking, model, fbs);
                    for rf in 1..=app.iterations() {
                        let fits =
                            |set: &RetentionSet| all_fit(app, sched, &lt, set, rf, model, fbs);
                        for mask in &masks {
                            let set = table.retention(mask);
                            assert_eq!(
                                table.fits(mask, rf),
                                fits(&set),
                                "{} rf={rf} {model:?} fbs={fbs} cross={cross} mask={mask:?}",
                                app.name()
                            );
                        }
                        let mut fresh =
                            FitTable::new(app, sched, &lt, &candidates, ranking, model, fbs);
                        let (accept, rejected) = fresh.greedy(rf);
                        // Candidate `i`'s tentative mask: the accepts so
                        // far plus `i`. The walk made exactly these `n`
                        // checks, all through the table.
                        assert_eq!(fresh.max_rf.len(), n, "rf={rf}");
                        for i in 0..n {
                            let tentative: Vec<bool> =
                                (0..n).map(|j| j == i || (j < i && accept[j])).collect();
                            assert!(fresh.max_rf.contains_key(&tentative), "rf={rf} i={i}");
                        }
                        assert_eq!(table.greedy(rf), (accept.clone(), rejected), "rf={rf}");
                        let mut rejections = 0;
                        let greedy = select_greedy_with(
                            &candidates,
                            ranking,
                            |d| app.size_of(d),
                            fits,
                            |_, _, accepted| rejections += u64::from(!accepted),
                        );
                        assert_eq!(table.retention(&accept), greedy, "rf={rf}");
                        assert_eq!(rejected, rejections, "rf={rf}");
                    }
                }
            }
        }
    }

    #[test]
    fn fit_table_matches_all_fit_on_the_catalog() {
        for name in ["e1", "e2", "e3", "mpeg", "atr-sld", "atr-fi"] {
            for iterations in [1, 5, 16] {
                let (app, sched) = mcds_workloads::mix::by_name(name, iterations).expect("catalog");
                fit_table_matches_all_fit(&app, &sched, iterations);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same oracle on random structures of 2–8 clusters (the
        /// inputs of `closed_form_footprint_matches_walk`).
        #[test]
        fn fit_table_matches_all_fit_on_random_structures(
            seed in any::<u64>(),
            clusters in 2usize..9,
            kmax in 1usize..4,
            dmax in 16u64..200,
            share in 0.0f64..1.0,
            cross in 0.0f64..1.0,
            iterations in 4u64..20,
        ) {
            let cfg = SyntheticConfig {
                clusters,
                kernels_per_cluster: (1, kmax),
                data_words: (16, dmax.max(17)),
                share_probability: share,
                cross_probability: cross,
                contexts: 128,
                exec_cycles: (50, 500),
                iterations,
            };
            let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
            fit_table_matches_all_fit(&app, &sched, seed);
        }
    }

    /// Two-kernel cluster:
    /// k0: reads a(10), writes m(20)        [m is local, last use k1]
    /// k1: reads m, b(5), writes fin(8)     [fin stored]
    fn two_kernel() -> (mcds_model::Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("tk");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let bb = b.data("b", Words::new(5), DataKind::ExternalInput);
        let m = b.data("m", Words::new(20), DataKind::Intermediate);
        let fin = b.data("fin", Words::new(8), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[m]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[m, bb], &[fin]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0, k1]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn replacement_walk_single_iteration() {
        let (app, sched) = two_kernel();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        // Step 0: a + b loaded = 15.
        // Step k0: a(dies after) + b + m = 35.
        // Step k1: b + m + fin = 33.
        let peak = cluster_peak(
            &app,
            &sched,
            &lt,
            &ret,
            ClusterId::new(0),
            1,
            FootprintModel::Replacement,
        );
        assert_eq!(peak, Words::new(35));
    }

    #[test]
    fn no_replacement_counts_everything() {
        let (app, sched) = two_kernel();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let peak = cluster_peak(
            &app,
            &sched,
            &lt,
            &ret,
            ClusterId::new(0),
            1,
            FootprintModel::NoReplacement,
        );
        // 10 + 5 + 20 + 8.
        assert_eq!(peak, Words::new(43));
        assert!(
            peak >= cluster_peak(
                &app,
                &sched,
                &lt,
                &ret,
                ClusterId::new(0),
                1,
                FootprintModel::Replacement
            )
        );
    }

    #[test]
    fn formula_matches_walk() {
        let (app, sched) = two_kernel();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        assert_eq!(
            ds_formula(&app, &sched, &lt, ClusterId::new(0)),
            cluster_peak(
                &app,
                &sched,
                &lt,
                &ret,
                ClusterId::new(0),
                1,
                FootprintModel::Replacement
            )
        );
    }

    #[test]
    fn rf_scaling_is_subadditive() {
        let (app, sched) = two_kernel();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let c = ClusterId::new(0);
        let p1 = cluster_peak(&app, &sched, &lt, &ret, c, 1, FootprintModel::Replacement);
        let p2 = cluster_peak(&app, &sched, &lt, &ret, c, 2, FootprintModel::Replacement);
        let p4 = cluster_peak(&app, &sched, &lt, &ret, c, 4, FootprintModel::Replacement);
        assert!(p2 > p1, "more iterations need more space");
        assert!(p4 > p2);
        // Sub-additive: only one iteration's intermediates live at once.
        assert!(p2 < p1 * 2, "p1={p1} p2={p2}");
        // rf=2 peak occurs while iteration 0's k0 runs: both iterations'
        // inputs (2·15) plus m0 (20) = 50.
        assert_eq!(p2, Words::new(50));
    }

    #[test]
    fn retention_inflates_consumer_and_spanning_clusters() {
        // C0 loads shared(100); C2 reuses it; C4 also on set 0 between?
        // Use 5 singleton clusters; shared used by C0 and C4; C2 is a
        // same-set cluster in between that must carry the passthrough.
        let mut b = ApplicationBuilder::new("pt");
        let shared = b.data("shared", Words::new(100), DataKind::ExternalInput);
        let x1 = b.data("x1", Words::new(1), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(1), DataKind::FinalResult);
        let f1 = b.data("f1", Words::new(1), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(1), DataKind::FinalResult);
        let f3 = b.data("f3", Words::new(1), DataKind::FinalResult);
        let f4 = b.data("f4", Words::new(1), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[shared], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[x1], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[x1], &[f2]);
        let k3 = b.kernel("k3", 1, Cycles::new(10), &[x1], &[f3]);
        let k4 = b.kernel("k4", 1, Cycles::new(10), &[shared], &[f4]);
        let app = b.build().expect("valid");
        let sched =
            ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2], vec![k3], vec![k4]])
                .expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        // `shared` qualifies on set 0; `x1` (used by C1 and C3)
        // qualifies on set 1.
        assert_eq!(cands.len(), 2);
        let ret = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);

        let c2_without = cluster_peak(
            &app,
            &sched,
            &lt,
            &RetentionSet::empty(),
            ClusterId::new(2),
            1,
            FootprintModel::Replacement,
        );
        let c2_with = cluster_peak(
            &app,
            &sched,
            &lt,
            &ret,
            ClusterId::new(2),
            1,
            FootprintModel::Replacement,
        );
        assert_eq!(c2_with, c2_without + Words::new(100), "passthrough charged");

        // C1/C3 are on set 1: unaffected.
        let c1_with = cluster_peak(
            &app,
            &sched,
            &lt,
            &ret,
            ClusterId::new(1),
            1,
            FootprintModel::Replacement,
        );
        assert_eq!(c1_with, Words::new(2));

        // C0 keeps `shared` alive to the end (it normally would anyway,
        // since k0 is its only kernel). C4 releases it after use.
        let c0_with = cluster_peak(
            &app,
            &sched,
            &lt,
            &ret,
            ClusterId::new(0),
            1,
            FootprintModel::Replacement,
        );
        assert_eq!(c0_with, Words::new(101));
    }

    #[test]
    fn retention_keeps_input_alive_whole_cluster() {
        // Cluster where a retained-for-later input would normally die at
        // kernel 0: retention must extend it to the cluster end.
        let mut b = ApplicationBuilder::new("keep");
        let shared = b.data("shared", Words::new(50), DataKind::ExternalInput);
        let big = b.data("big", Words::new(60), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(1), DataKind::FinalResult);
        let f1 = b.data("f1", Words::new(1), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(1), DataKind::FinalResult);
        // Cluster 0 = [k0 (uses shared), k1 (uses big)]; cluster 2 uses shared again.
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[shared], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[big], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[], &[]);
        let k3 = b.kernel("k3", 1, Cycles::new(10), &[shared], &[f2]);
        let app = b.build();
        // k2 produces nothing -> invalid? kernels may produce nothing.
        let app = app.expect("valid");
        let sched =
            ClusterSchedule::new(&app, vec![vec![k0, k1], vec![k2], vec![k3]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let ret = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        assert!(ret.is_retained(mcds_model::DataId::new(0)));

        let c0 = ClusterId::new(0);
        let without = cluster_peak(
            &app,
            &sched,
            &lt,
            &RetentionSet::empty(),
            c0,
            1,
            FootprintModel::Replacement,
        );
        // All inputs are loaded up front, so the peak without retention
        // is during k0: shared(50) + big(60) + f0(1) = 111 (shared is
        // then released before k1).
        assert_eq!(without, Words::new(111));
        let with = cluster_peak(&app, &sched, &lt, &ret, c0, 1, FootprintModel::Replacement);
        // With retention shared(50) survives k0, so k1 peaks at
        // 50 + 60 + 1 + 1 = 112.
        assert_eq!(with, Words::new(112));
    }

    #[test]
    fn all_fit_boundary() {
        let (app, sched) = two_kernel();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        assert!(all_fit(
            &app,
            &sched,
            &lt,
            &ret,
            1,
            FootprintModel::Replacement,
            Words::new(35)
        ));
        assert!(!all_fit(
            &app,
            &sched,
            &lt,
            &ret,
            1,
            FootprintModel::Replacement,
            Words::new(34)
        ));
        assert_eq!(
            first_unfit(
                &app,
                &sched,
                &lt,
                &ret,
                1,
                FootprintModel::Replacement,
                Words::new(34)
            ),
            Some((ClusterId::new(0), Words::new(35)))
        );
        assert_eq!(
            first_unfit(
                &app,
                &sched,
                &lt,
                &ret,
                1,
                FootprintModel::Replacement,
                Words::new(35)
            ),
            None
        );
    }

    #[test]
    fn formula_matches_walk_on_longer_chain() {
        let mut b = ApplicationBuilder::new("chain");
        let mut prev = b.data("in", Words::new(7), DataKind::ExternalInput);
        let mut kernels: Vec<KernelId> = Vec::new();
        for i in 0..5 {
            let kind = if i == 4 {
                DataKind::FinalResult
            } else {
                DataKind::Intermediate
            };
            let next = b.data(format!("d{i}"), Words::new(3 + i), kind);
            kernels.push(b.kernel(format!("k{i}"), 1, Cycles::new(10), &[prev], &[next]));
            prev = next;
        }
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![kernels]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        assert_eq!(
            ds_formula(&app, &sched, &lt, ClusterId::new(0)),
            cluster_peak(
                &app,
                &sched,
                &lt,
                &RetentionSet::empty(),
                ClusterId::new(0),
                1,
                FootprintModel::Replacement
            )
        );
    }
}
