//! Frame Buffer footprint models: the paper's `DS(C_c)` and its
//! generalisation to `RF` batched iterations and retention.

use mcds_model::{Application, ClusterId, ClusterSchedule, Words};

use crate::{Lifetimes, RetentionSet};

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
    use crate::{find_candidates, select_greedy, RetentionRanking};
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, KernelId};

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
