//! Schedule plans: the structured output of a data scheduler.

use std::sync::Arc;

use mcds_model::{Application, ClusterId, ClusterSchedule, Words};
use mcds_sim::{OpSchedule, SimReport};
use serde::{Deserialize, Serialize};

use crate::analysis::RungDetail;
use crate::{AllocationReport, LadderEval, Lifetimes, RetentionSet};

/// One pipeline stage: `iters` consecutive iterations of one cluster,
/// with the transfers that serve it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePlan {
    cluster: ClusterId,
    round: u64,
    iters: u64,
    context_words: u32,
    load_words: Words,
    store_words: Words,
}

impl StagePlan {
    /// The executing cluster.
    #[must_use]
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }

    /// Zero-based round index (a round = one pass over all clusters).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Iterations executed in this stage (`RF`, or the remainder in the
    /// final round).
    #[must_use]
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Context words to load before this stage (0 = resident).
    #[must_use]
    pub fn context_words(&self) -> u32 {
        self.context_words
    }

    /// Data words loaded from external memory for this stage.
    #[must_use]
    pub fn load_words(&self) -> Words {
        self.load_words
    }

    /// Data words stored to external memory after this stage.
    #[must_use]
    pub fn store_words(&self) -> Words {
        self.store_words
    }
}

/// Builds the stage sequence for a given reuse factor and retention set.
///
/// Rounds iterate `ceil(n / rf)` times over the clusters in schedule
/// order; the final round may carry fewer iterations. Per stage, the
/// load volume excludes objects a retained copy makes redundant and the
/// store volume excludes retained results whose external copy is
/// unnecessary.
///
/// `context_loads` gives, per stage index, the context words the context
/// scheduler decided to transfer (see [`mcds_csched`]).
///
/// # Panics
///
/// Panics if `rf == 0` or if `context_loads` is shorter than the stage
/// sequence.
#[must_use]
pub fn build_stages(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    rf: u64,
    context_loads: &[u32],
) -> Vec<StagePlan> {
    assert!(rf >= 1, "rf must be at least 1");
    // One iteration's (load, store) words per cluster: a stage moves
    // `iters` times its cluster's.
    let per_iter: Vec<(ClusterId, Words, Words)> = sched
        .clusters()
        .iter()
        .map(|cluster| {
            let c = cluster.id();
            let load = lifetimes
                .loads(c)
                .iter()
                .filter(|&&d| !retention.skips_load(c, d))
                .map(|&d| app.size_of(d))
                .sum();
            let store = lifetimes
                .stores(c)
                .iter()
                .filter(|&&d| !retention.skips_store(c, d))
                .map(|&d| app.size_of(d))
                .sum();
            (c, load, store)
        })
        .collect();
    let n = app.iterations();
    let rounds = n.div_ceil(rf);
    let mut stages =
        Vec::with_capacity(usize::try_from(rounds).expect("rounds fit usize") * sched.len());
    for round in 0..rounds {
        let iters = rf.min(n - round * rf);
        for &(cluster, load, store) in &per_iter {
            stages.push(StagePlan {
                cluster,
                round,
                iters,
                context_words: context_loads[stages.len()],
                load_words: load * iters,
                store_words: store * iters,
            });
        }
    }
    stages
}

/// A complete data schedule: stages, retained objects, the op-level
/// program for the simulator and its simulation, and the §5 allocation
/// outcome.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    scheduler: String,
    rf: u64,
    retention: RetentionSet,
    /// The chosen rung of the RF ladder, shared with the rung memo of
    /// the analysis that planned it; choosing it filled its stages, ops
    /// and simulation, which every later plan choosing it shares too.
    rung: Arc<LadderEval>,
    allocation: AllocationReport,
}

impl SchedulePlan {
    pub(crate) fn new(
        scheduler: String,
        rf: u64,
        retention: RetentionSet,
        rung: Arc<LadderEval>,
        allocation: AllocationReport,
    ) -> Self {
        SchedulePlan {
            scheduler,
            rf,
            retention,
            rung,
            allocation,
        }
    }

    /// The chosen rung's stages, ops and simulation.
    fn detail(&self) -> &RungDetail {
        self.rung
            .detail()
            .expect("a plan's rung holds its stages, ops and simulation")
    }

    /// Name of the scheduler that produced the plan.
    #[must_use]
    pub fn scheduler(&self) -> &str {
        &self.scheduler
    }

    /// The context reuse factor (`RF` in Table 1).
    #[must_use]
    pub fn rf(&self) -> u64 {
        self.rf
    }

    /// The pipeline stages in execution order.
    #[must_use]
    pub fn stages(&self) -> &[StagePlan] {
        &self.detail().stages
    }

    /// The retained shared objects (empty for Basic/DS).
    #[must_use]
    pub fn retention(&self) -> &RetentionSet {
        &self.retention
    }

    /// The op-level program for [`mcds_sim`].
    #[must_use]
    pub fn ops(&self) -> &OpSchedule {
        &self.detail().ops
    }

    /// The simulation of [`ops`](Self::ops) on the target architecture:
    /// the evaluation that chose this plan's rung.
    #[must_use]
    pub fn report(&self) -> &SimReport {
        &self.detail().report
    }

    /// The Frame Buffer allocation outcome (§5 of the paper).
    #[must_use]
    pub fn allocation(&self) -> &AllocationReport {
        &self.allocation
    }

    /// External data words avoided per application iteration thanks to
    /// retention — `DT` in Table 1.
    #[must_use]
    pub fn dt_avoided_per_iter(&self) -> Words {
        self.retention.avoided_per_iter()
    }

    /// Total external data traffic over the whole execution.
    #[must_use]
    pub fn total_data_words(&self) -> Words {
        self.stages()
            .iter()
            .map(|s| s.load_words() + s.store_words())
            .sum()
    }

    /// Total context words transferred over the whole execution.
    #[must_use]
    pub fn total_context_words(&self) -> u64 {
        self.stages()
            .iter()
            .map(|s| u64::from(s.context_words()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_candidates, select_greedy, RetentionRanking};
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    fn fixture() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("p");
        let shared = b.data("shared", Words::new(40), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(10), DataKind::FinalResult);
        let f1 = b.data("f1", Words::new(10), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(10), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[shared], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[shared], &[f2]);
        let app = b.iterations(10).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn stage_structure_with_remainder_round() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        // 10 iterations, rf=4 -> rounds of 4, 4, 2; 3 clusters each.
        let ctx = vec![7u32; 9];
        let stages = build_stages(&app, &sched, &lt, &ret, 4, &ctx);
        assert_eq!(stages.len(), 9);
        assert_eq!(stages[0].iters(), 4);
        assert_eq!(stages[3].iters(), 4);
        assert_eq!(stages[6].iters(), 2);
        assert_eq!(stages[6].round(), 2);
        assert_eq!(stages[4].cluster(), ClusterId::new(1));
        assert_eq!(stages[0].context_words(), 7);
    }

    #[test]
    fn volumes_scale_with_iters() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let ctx = vec![0u32; 9];
        let stages = build_stages(&app, &sched, &lt, &ret, 4, &ctx);
        // Cluster 0, 4 iterations: loads shared 40*4, stores f0 10*4.
        assert_eq!(stages[0].load_words(), Words::new(160));
        assert_eq!(stages[0].store_words(), Words::new(40));
        // Remainder round: 2 iterations.
        assert_eq!(stages[6].load_words(), Words::new(80));
    }

    #[test]
    fn retention_removes_skipped_loads() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let ret = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        let ctx = vec![0u32; 30];
        let stages = build_stages(&app, &sched, &lt, &ret, 1, &ctx);
        // Cluster 2 skips loading the retained shared input.
        assert_eq!(stages[2].load_words(), Words::ZERO);
        // Cluster 0 (the holder) still loads it.
        assert_eq!(stages[0].load_words(), Words::new(40));
    }

    #[test]
    fn retained_result_with_avoided_store_is_not_stored() {
        // r produced by C0, consumed only by C2 (same set): retaining it
        // removes both the store (C0) and the load (C2).
        let mut b = ApplicationBuilder::new("rs");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let r = b.data("r", Words::new(30), DataKind::Intermediate);
        let f1 = b.data("f1", Words::new(5), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(5), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[r]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[a], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[r], &[f2]);
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let ret = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        assert!(ret.skips_store(ClusterId::new(0), mcds_model::DataId::new(1)));
        let stages = build_stages(&app, &sched, &lt, &ret, 1, &[0u32; 12]);
        // C0 stores nothing (r retained, no finals of its own).
        assert_eq!(stages[0].store_words(), Words::ZERO);
        // C2 loads nothing (r is resident, a is... a is consumed by k1
        // on set 1 and k2? no — k2 reads r only).
        assert_eq!(stages[2].load_words(), Words::ZERO);
        assert_eq!(stages[2].store_words(), Words::new(5));
    }

    /// `build_stages` as it was before it summed each cluster's volumes
    /// once: every stage re-sums its cluster's unskipped loads and
    /// stores at its own `iters`. The oracle of
    /// `stage_volumes_match_the_per_stage_sums`.
    fn per_stage_reference(
        app: &Application,
        sched: &ClusterSchedule,
        lifetimes: &Lifetimes,
        retention: &RetentionSet,
        rf: u64,
        context_loads: &[u32],
    ) -> Vec<StagePlan> {
        let n = app.iterations();
        let mut stages = Vec::new();
        for round in 0..n.div_ceil(rf) {
            let iters = rf.min(n - round * rf);
            for cluster in sched.clusters() {
                let c = cluster.id();
                let load_words: Words = lifetimes
                    .loads(c)
                    .iter()
                    .filter(|&&d| !retention.skips_load(c, d))
                    .map(|&d| app.size_of(d) * iters)
                    .sum();
                let store_words: Words = lifetimes
                    .stores(c)
                    .iter()
                    .filter(|&&d| !retention.skips_store(c, d))
                    .map(|&d| app.size_of(d) * iters)
                    .sum();
                stages.push(StagePlan {
                    cluster: c,
                    round,
                    iters,
                    context_words: context_loads[stages.len()],
                    load_words,
                    store_words,
                });
            }
        }
        stages
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `build_stages` equals the per-stage sums on random synthetic
        /// structures, at every RF up to the iteration count (so most
        /// last rounds are partial), for random accept masks over the
        /// ranked candidates with cross-set access off and on.
        #[test]
        fn stage_volumes_match_the_per_stage_sums(
            seed in proptest::prelude::any::<u64>(),
            clusters in 2usize..9,
            share in 0.0f64..1.0,
            cross in 0.0f64..1.0,
            iterations in 1u64..20,
        ) {
            let cfg = mcds_workloads::synthetic::SyntheticConfig {
                clusters,
                kernels_per_cluster: (1, 3),
                data_words: (16, 200),
                share_probability: share,
                cross_probability: cross,
                contexts: 128,
                exec_cycles: (50, 500),
                iterations,
            };
            let (app, sched) = mcds_workloads::synthetic::SyntheticGenerator::new(seed)
                .generate(&cfg)
                .expect("valid");
            let lt = Lifetimes::analyze(&app, &sched);
            let mut bits = seed;
            for cross_set in [false, true] {
                // In TF order, as the greedy walk ranks them.
                let ranked = crate::find_candidates_with(&app, &sched, &lt, cross_set);
                for _ in 0..4 {
                    let mut retention = RetentionSet::empty();
                    for cand in &ranked {
                        bits = crate::splitmix64(bits);
                        if bits & 1 == 1 {
                            retention.add(cand.clone());
                        }
                    }
                    for rf in 1..=iterations {
                        let stages = usize::try_from(iterations.div_ceil(rf)).expect("fits")
                            * sched.len();
                        let ctx: Vec<u32> = (0..stages).map(|i| (i as u32) * 7 % 33).collect();
                        proptest::prop_assert_eq!(
                            build_stages(&app, &sched, &lt, &retention, rf, &ctx),
                            per_stage_reference(&app, &sched, &lt, &retention, rf, &ctx)
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rf must be at least 1")]
    fn zero_rf_panics() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let _ = build_stages(&app, &sched, &lt, &ret, 0, &[]);
    }
}
