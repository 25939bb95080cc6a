//! Shared data and shared result discovery, and the TF ranking.
//!
//! "The Complete Data Scheduler finds the shared data and the shared
//! results among clusters. … It chooses the shared data or results to be
//! kept into FB according to a factor TF (time factor), which reflects
//! the time saving gained from keeping these shared data or results."

use mcds_model::{Application, ClusterId, ClusterSchedule, DataId, DataKind, FbSet, Words};
use serde::{Deserialize, Serialize};

use crate::Lifetimes;

/// What kind of sharing a retention candidate represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RetainedKind {
    /// `D_{i..j}`: an external input consumed by several clusters of the
    /// same Frame Buffer set. Keeping it avoids `N−1` loads per
    /// iteration.
    SharedData,
    /// `R_{i,j..k}`: a result of cluster `i` consumed by later clusters
    /// of the same set. Keeping it avoids `N` loads, plus the store if
    /// no other-set cluster (and no external requirement) needs it.
    SharedResult {
        /// `true` if retention also eliminates the store to external
        /// memory (`N+1` transfers avoided in total).
        store_avoided: bool,
    },
}

/// One retention opportunity, with its time factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    data: DataId,
    kind: RetainedKind,
    set: FbSet,
    holder: ClusterId,
    skippers: Vec<ClusterId>,
    last: ClusterId,
    avoided_per_iter: Words,
    tf: f64,
    #[serde(default)]
    cross_set: bool,
}

impl Candidate {
    /// The shared object.
    #[must_use]
    pub fn data(&self) -> DataId {
        self.data
    }

    /// Shared data or shared result.
    #[must_use]
    pub fn kind(&self) -> RetainedKind {
        self.kind
    }

    /// The Frame Buffer set the object is retained in.
    #[must_use]
    pub fn set(&self) -> FbSet {
        self.set
    }

    /// The cluster that brings the object into the FB: the first
    /// consumer (shared data) or the producer (shared result).
    #[must_use]
    pub fn holder(&self) -> ClusterId {
        self.holder
    }

    /// Clusters whose load of the object is avoided.
    #[must_use]
    pub fn skippers(&self) -> &[ClusterId] {
        &self.skippers
    }

    /// The last cluster that reads the retained copy; the space is
    /// released after it finishes.
    #[must_use]
    pub fn last(&self) -> ClusterId {
        self.last
    }

    /// External-memory words avoided per application iteration.
    #[must_use]
    pub fn avoided_per_iter(&self) -> Words {
        self.avoided_per_iter
    }

    /// The paper's time factor: avoided transfer volume normalised by
    /// the application's total data size per iteration
    /// (`TF(D) = |D|·(N−1)/TDS`, `TF(R) = |R|·(N+1)/TDS`).
    #[must_use]
    pub fn tf(&self) -> f64 {
        self.tf
    }

    /// `true` if some skipper reads the retained copy from the *other*
    /// Frame Buffer set (only produced by
    /// [`find_candidates_with`] on architectures with
    /// [`fb_cross_set_access`](mcds_model::ArchParams::fb_cross_set_access)).
    #[must_use]
    pub fn is_cross_set(&self) -> bool {
        self.cross_set
    }
}

/// Finds all retention candidates of `app` under `sched`, sorted by
/// descending [`tf`](Candidate::tf) (ties broken by data id for
/// determinism).
///
/// Only clusters assigned to the *same* Frame Buffer set can share a
/// retained copy — "data and results reuse among clusters assigned to
/// different sets of the FB" is the paper's future work, and retention
/// across sets is therefore never proposed.
#[must_use]
pub fn find_candidates(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
) -> Vec<Candidate> {
    find_candidates_with(app, sched, lifetimes, false)
}

/// Like [`find_candidates`], but with the paper's *future-work*
/// extension: when `cross_set` is `true` (the architecture has a
/// dual-ported Frame Buffer, see
/// [`ArchParams::fb_cross_set_access`](mcds_model::ArchParams::fb_cross_set_access)),
/// clusters on the *other* set may read a retained copy too, so one
/// group spans all consumers and a shared result's store can be avoided
/// even when cross-set clusters consume it.
///
/// Emits at most one candidate per `(object, set)` pair: an external
/// input gets one consumer group per set (one in all with `cross_set`),
/// a result one group. The greedy walk and the fit table rely on it, so
/// neither deduplicates.
#[must_use]
pub fn find_candidates_with(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    cross_set: bool,
) -> Vec<Candidate> {
    let tds = app.total_data_per_iteration();
    let mut out = Vec::new();

    for d in app.data() {
        let id = d.id();
        let size = d.size();
        match lifetimes.producer_cluster(id) {
            None => {
                // External input: group consumers per FB set (or one
                // global group when cross-set reads are possible).
                let groups: Vec<Vec<ClusterId>> = if cross_set {
                    vec![lifetimes.consumer_clusters(id).to_vec()]
                } else {
                    [FbSet::Set0, FbSet::Set1]
                        .into_iter()
                        .map(|set| {
                            lifetimes
                                .consumer_clusters(id)
                                .iter()
                                .copied()
                                .filter(|&c| sched.fb_set(c) == set)
                                .collect()
                        })
                        .collect()
                };
                for group in groups {
                    if group.len() < 2 {
                        continue;
                    }
                    let holder = group[0];
                    let set = sched.fb_set(holder);
                    let spans_sets = group.iter().any(|&c| sched.fb_set(c) != set);
                    let n = group.len() as u64;
                    let avoided = size * (n - 1);
                    out.push(Candidate {
                        data: id,
                        kind: RetainedKind::SharedData,
                        set,
                        holder,
                        skippers: group[1..].to_vec(),
                        last: *group.last().expect("non-empty group"),
                        avoided_per_iter: avoided,
                        tf: tf_of(avoided, tds),
                        cross_set: spans_sets,
                    });
                }
            }
            Some(p) => {
                let set = sched.fb_set(p);
                let consumers: Vec<ClusterId> = lifetimes
                    .consumer_clusters(id)
                    .iter()
                    .copied()
                    .filter(|&c| c != p && (cross_set || sched.fb_set(c) == set))
                    .collect();
                if consumers.is_empty() {
                    continue;
                }
                let unreachable_consumer = lifetimes
                    .consumer_clusters(id)
                    .iter()
                    .any(|&c| c != p && !cross_set && sched.fb_set(c) != set);
                let store_avoided = !unreachable_consumer && d.kind() != DataKind::FinalResult;
                let spans_sets = consumers.iter().any(|&c| sched.fb_set(c) != set);
                let n = consumers.len() as u64;
                let avoided = size * (n + u64::from(store_avoided));
                out.push(Candidate {
                    data: id,
                    kind: RetainedKind::SharedResult { store_avoided },
                    set,
                    holder: p,
                    skippers: consumers.clone(),
                    last: *consumers.last().expect("non-empty"),
                    avoided_per_iter: avoided,
                    tf: tf_of(avoided, tds),
                    cross_set: spans_sets,
                });
            }
        }
    }

    out.sort_by(|a, b| {
        b.tf.partial_cmp(&a.tf)
            .expect("tf is finite")
            .then_with(|| a.data.cmp(&b.data))
            .then_with(|| a.set.cmp(&b.set))
    });
    debug_assert!(
        out.iter()
            .enumerate()
            .all(|(i, a)| out[..i].iter().all(|b| (a.data, a.set) != (b.data, b.set))),
        "one candidate per (object, set)"
    );
    out
}

fn tf_of(avoided: Words, tds: Words) -> f64 {
    if tds.is_zero() {
        0.0
    } else {
        avoided.get() as f64 / tds.get() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{Application, ApplicationBuilder, Cycles, DataKind, KernelId};

    /// Three singleton clusters: C0 and C2 share FB set 0, C1 sits on
    /// set 1.
    ///
    /// * `shared_in` : external input used by k0 and k2 (same set → D candidate)
    /// * `both_sets` : external input used by k0 and k1 (different sets → none)
    /// * `res02`     : intermediate k0 -> k2 (same set → R, store avoided)
    /// * `res01`     : intermediate k0 -> k1 (different sets → none)
    fn fixture() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("sh");
        let shared_in = b.data("shared_in", Words::new(100), DataKind::ExternalInput);
        let both_sets = b.data("both_sets", Words::new(50), DataKind::ExternalInput);
        let res02 = b.data("res02", Words::new(40), DataKind::Intermediate);
        let res01 = b.data("res01", Words::new(30), DataKind::Intermediate);
        let fin = b.data("fin", Words::new(10), DataKind::FinalResult);
        let fin2 = b.data("fin2", Words::new(10), DataKind::FinalResult);
        let k0 = b.kernel(
            "k0",
            1,
            Cycles::new(10),
            &[shared_in, both_sets],
            &[res02, res01],
        );
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[both_sets, res01], &[fin]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[shared_in, res02], &[fin2]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn finds_same_set_candidates_only() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let datas: Vec<DataId> = cands.iter().map(Candidate::data).collect();
        assert!(datas.contains(&DataId::new(0)), "shared_in is a candidate");
        assert!(datas.contains(&DataId::new(2)), "res02 is a candidate");
        assert!(!datas.contains(&DataId::new(1)), "both_sets crosses sets");
        assert!(!datas.contains(&DataId::new(3)), "res01 crosses sets");
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn shared_data_candidate_shape() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let d = cands
            .iter()
            .find(|c| c.data() == DataId::new(0))
            .expect("present");
        assert_eq!(d.kind(), RetainedKind::SharedData);
        assert_eq!(d.holder(), ClusterId::new(0));
        assert_eq!(d.skippers(), &[ClusterId::new(2)]);
        assert_eq!(d.last(), ClusterId::new(2));
        // N = 2 consumers → (N-1)·100 = 100 words avoided.
        assert_eq!(d.avoided_per_iter(), Words::new(100));
    }

    #[test]
    fn shared_result_candidate_shape() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let r = cands
            .iter()
            .find(|c| c.data() == DataId::new(2))
            .expect("present");
        assert_eq!(
            r.kind(),
            RetainedKind::SharedResult {
                store_avoided: true
            }
        );
        assert_eq!(r.holder(), ClusterId::new(0));
        assert_eq!(r.skippers(), &[ClusterId::new(2)]);
        // N = 1 consumer, store avoided → (N+1)·40 = 80 words avoided.
        assert_eq!(r.avoided_per_iter(), Words::new(80));
    }

    #[test]
    fn tf_ordering_and_normalisation() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let tds = app.total_data_per_iteration().get() as f64;
        assert!(cands[0].tf() >= cands[1].tf(), "sorted by tf desc");
        assert!((cands[0].tf() - 100.0 / tds).abs() < 1e-12);
        assert!((cands[1].tf() - 80.0 / tds).abs() < 1e-12);
    }

    #[test]
    fn result_consumed_across_both_sets_keeps_store() {
        // res consumed by a same-set AND a cross-set cluster: retention
        // avoids the same-set load but the store remains.
        let mut b = ApplicationBuilder::new("x");
        let a = b.data("a", Words::new(4), DataKind::ExternalInput);
        let r = b.data("r", Words::new(60), DataKind::Intermediate);
        let f1 = b.data("f1", Words::new(4), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(4), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[r]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[r], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[r], &[f2]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let r_cand = cands
            .iter()
            .find(|c| c.data() == DataId::new(1))
            .expect("present");
        assert_eq!(
            r_cand.kind(),
            RetainedKind::SharedResult {
                store_avoided: false
            }
        );
        // Only the same-set (C2) load avoided.
        assert_eq!(r_cand.avoided_per_iter(), Words::new(60));
    }

    #[test]
    fn final_result_retention_never_avoids_store() {
        let mut b = ApplicationBuilder::new("fr");
        let a = b.data("a", Words::new(4), DataKind::ExternalInput);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        let g = b.data("g", Words::new(4), DataKind::FinalResult);
        let h = b.data("h", Words::new(4), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[f]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[a], &[g]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[f], &[h]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let f_cand = cands
            .iter()
            .find(|c| c.data() == DataId::new(1))
            .expect("f shared with C2 on set 0");
        assert_eq!(
            f_cand.kind(),
            RetainedKind::SharedResult {
                store_avoided: false
            }
        );
        assert_eq!(f_cand.avoided_per_iter(), Words::new(32));
    }

    #[test]
    fn cross_set_mode_merges_groups() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates_with(&app, &sched, &lt, true);
        // `both_sets` (used by C0 and C1) becomes a candidate with a
        // cross-set skipper.
        let both = cands
            .iter()
            .find(|c| c.data() == DataId::new(1))
            .expect("cross-set group exists");
        assert_eq!(both.kind(), RetainedKind::SharedData);
        assert!(both.is_cross_set());
        assert_eq!(both.holder(), ClusterId::new(0));
        assert_eq!(both.skippers(), &[ClusterId::new(1)]);
        assert_eq!(both.avoided_per_iter(), Words::new(50));
        // `res01` (k0 -> k1, different sets) becomes a shared result
        // whose store is now avoidable.
        let r01 = cands
            .iter()
            .find(|c| c.data() == DataId::new(3))
            .expect("cross-set result exists");
        assert_eq!(
            r01.kind(),
            RetainedKind::SharedResult {
                store_avoided: true
            }
        );
        assert!(r01.is_cross_set());
        // (1 load + 1 store) · 30 words.
        assert_eq!(r01.avoided_per_iter(), Words::new(60));
    }

    #[test]
    fn same_set_mode_is_default() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        assert_eq!(
            find_candidates(&app, &sched, &lt),
            find_candidates_with(&app, &sched, &lt, false)
        );
        for c in find_candidates(&app, &sched, &lt) {
            assert!(!c.is_cross_set());
        }
    }

    #[test]
    fn no_candidates_for_single_cluster() {
        let mut b = ApplicationBuilder::new("one");
        let a = b.data("a", Words::new(4), DataKind::ExternalInput);
        let f = b.data("f", Words::new(4), DataKind::FinalResult);
        let k0: KernelId = b.kernel("k0", 1, Cycles::new(10), &[a], &[f]);
        let app = b.build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        assert!(find_candidates(&app, &sched, &lt).is_empty());
    }
}
