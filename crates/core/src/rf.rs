//! Context Reuse Factor computation (loop fission, Figure 3 of the
//! paper).

use mcds_model::{Application, ClusterSchedule, Words};

use crate::footprint::Footprint;
use crate::{FootprintModel, Lifetimes, RetentionSet};

/// The largest common `RF` — the number of consecutive iterations of
/// every cluster whose data fit a Frame Buffer set of `fbs` words —
/// "the highest common RF value, to all clusters, allowed by the
/// internal memory size".
///
/// Each cluster's footprint grows by `K + P + max(L, S)` words per
/// extra iteration (see [`cluster_peak`](crate::cluster_peak)), so
/// cluster `c` admits `1 + ⌊(FBS − DS_1(C_c)) / (K + P + max(L, S))⌋`
/// iterations; a cluster whose footprint does not grow bounds nothing.
///
/// `RF` is capped at the application's iteration count (executing more
/// consecutive iterations than exist is meaningless). Returns `None`
/// when even `RF = 1` does not fit, i.e. the application is infeasible
/// under this footprint model at this memory size (the paper's
/// "Basic Scheduler cannot execute MPEG if memory size is 1K").
#[must_use]
pub fn max_common_rf(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    model: FootprintModel,
    fbs: Words,
) -> Option<u64> {
    sched
        .clusters()
        .iter()
        .try_fold(app.iterations(), |rf, cl| {
            let footprint = Footprint::of(app, sched, lifetimes, retention, cl.id(), model);
            Some(rf.min(footprint.max_rf(fbs)?))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, ClusterId, Cycles, DataKind};

    /// One cluster, one kernel, 10-word input + 5-word result per
    /// iteration. Footprint at rf: inputs 10·rf resident at start,
    /// result kept: peak = 10·rf + 5·rf (results accumulate to the end).
    fn simple(iterations: u64) -> (mcds_model::Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("s");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let f = b.data("f", Words::new(5), DataKind::FinalResult);
        let k = b.kernel("k", 1, Cycles::new(10), &[a], &[f]);
        let app = b.iterations(iterations).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn rf_grows_with_memory() {
        let (app, sched) = simple(1000);
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let rf = |fbs: u64| {
            max_common_rf(
                &app,
                &sched,
                &lt,
                &ret,
                FootprintModel::Replacement,
                Words::new(fbs),
            )
        };
        // Peak at rf: all rf inputs live while iteration 0 runs plus its
        // result: 10·rf + 5.
        assert_eq!(rf(14), None, "one iteration needs 15 words");
        assert_eq!(rf(15), Some(1));
        assert_eq!(rf(24), Some(1));
        assert_eq!(rf(25), Some(2));
        assert_eq!(rf(105), Some(10));
        assert_eq!(rf(145), Some(14));
    }

    #[test]
    fn rf_capped_by_iterations() {
        let (app, sched) = simple(4);
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let rf = max_common_rf(
            &app,
            &sched,
            &lt,
            &ret,
            FootprintModel::Replacement,
            Words::kilo(64),
        );
        assert_eq!(rf, Some(4));
    }

    #[test]
    fn no_replacement_model_gets_smaller_rf() {
        // Chain k0 -> m -> k1 in one cluster: replacement reuses m's
        // space, the basic model does not.
        let mut b = ApplicationBuilder::new("c");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let m = b.data("m", Words::new(10), DataKind::Intermediate);
        let f = b.data("f", Words::new(10), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[m]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[m], &[f]);
        let app = b.iterations(100).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0, k1]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let fbs = Words::new(60);
        let with_replacement =
            max_common_rf(&app, &sched, &lt, &ret, FootprintModel::Replacement, fbs);
        let without = max_common_rf(&app, &sched, &lt, &ret, FootprintModel::NoReplacement, fbs);
        // Without replacement all 30 words of every iteration stay live.
        assert_eq!(without, Some(2));
        // With it the peak is 10·rf + 10 (one live pair of 20, then 10
        // per other iteration), so 60 words admit rf = 5.
        assert_eq!(with_replacement, Some(5));
    }

    #[test]
    fn multi_cluster_common_rf_is_min() {
        // Cluster 0 tiny, cluster 1 huge: the common RF is limited by
        // the huge one.
        let mut b = ApplicationBuilder::new("mc");
        let a = b.data("a", Words::new(1), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(1), DataKind::FinalResult);
        let big = b.data("big", Words::new(100), DataKind::ExternalInput);
        let f1 = b.data("f1", Words::new(100), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[big], &[f1]);
        let app = b.iterations(1000).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let rf = max_common_rf(
            &app,
            &sched,
            &lt,
            &ret,
            FootprintModel::Replacement,
            Words::new(400),
        );
        // Cluster 1 peaks at 100·(rf+1): rf=3 → 400 fits, rf=4 → 500.
        assert_eq!(rf, Some(3), "limited by the big cluster");
        let _ = ClusterId::new(0);
    }
}
