//! Lowering a stage sequence to the simulator's op level.

use mcds_model::{Application, ClusterSchedule, Cycles, FbSet, Words};
use mcds_sim::{OpId, OpSchedule, OpScheduleBuilder, SimError};

use crate::StagePlan;

/// Emits the op-level program for a stage sequence.
///
/// Per stage, in order: the context load (if any), the batched data load
/// for the stage's iterations, one compute op per kernel (its cycles
/// covering all the stage's iterations), and the batched result store.
/// Dependencies encode only true data/order requirements:
///
/// * the first kernel waits for the stage's context and data transfers;
/// * each kernel waits for its predecessor in the cluster (dataflow
///   within the cluster is a chain at this granularity);
/// * the store waits for the last kernel.
///
/// Everything else — DMA serialization, Frame Buffer set exclusion, RC
/// array contention, and the resulting overlap of cluster `c`'s
/// computation with cluster `c+1`'s transfers — is enforced by the
/// simulator's resource model, so the emitted program naturally executes
/// as the paper's double-buffered pipeline.
///
/// # Errors
///
/// Propagates [`SimError`] if the assembled schedule fails validation
/// (cannot happen for well-formed stages; kept for robustness).
pub fn emit_ops(
    app: &Application,
    sched: &ClusterSchedule,
    stages: &[StagePlan],
) -> Result<OpSchedule, SimError> {
    // Room for every op the stages can emit: each stage's nonempty
    // transfers and one compute per kernel. A first compute waits on
    // its stage's loads and every other op on at most one, so the
    // dependencies never outnumber the ops, and the builder never grows.
    let ops: usize = stages
        .iter()
        .map(|stage| {
            usize::from(stage.context_words() > 0)
                + usize::from(!stage.load_words().is_zero())
                + usize::from(!stage.store_words().is_zero())
                + sched.cluster(stage.cluster()).kernels().len()
        })
        .sum();
    let mut b = OpScheduleBuilder::with_capacity(ops, ops);
    // A stage's stores are emitted inside the *next* stage's block, after
    // its loads: the DMA executes in list order, so emitting
    //   ctx(s), load(s), store(s-1), computes(s)
    // lets stage s's transfers start as soon as computes(s-1) vacated
    // the other set, and store(s-1) drains while computes(s) runs — the
    // paper's double buffering ("data from one set is used for current
    // computation, while the other set stores results … and loads data").
    let mut deferred_store: Option<(FbSet, Words, OpId)> = None;
    for stage in stages {
        let c = stage.cluster();
        let set = sched.fb_set(c);

        // The stage's transfers the first kernel waits for: at most a
        // context load and a data load.
        let mut first_deps = [OpId::new(0); 2];
        let mut first_len = 0;
        if stage.context_words() > 0 {
            first_deps[first_len] = b.load_context(stage.context_words(), &[]);
            first_len += 1;
        }
        if !stage.load_words().is_zero() {
            first_deps[first_len] = b.load_data(set, stage.load_words(), &[]);
            first_len += 1;
        }
        if let Some((s_set, words, dep)) = deferred_store.take() {
            b.store_data(s_set, words, &[dep]);
        }

        let mut prev: Option<OpId> = None;
        for &k in sched.cluster(c).kernels() {
            let cycles = app.kernel(k).exec_cycles() * stage.iters();
            if cycles.is_zero() {
                continue;
            }
            let deps = match &prev {
                None => &first_deps[..first_len],
                Some(p) => std::slice::from_ref(p),
            };
            prev = Some(b.compute(k, set, cycles, deps));
        }

        if !stage.store_words().is_zero() {
            if let Some(dep) = prev {
                deferred_store = Some((set, stage.store_words(), dep));
            }
        }
    }
    if let Some((s_set, words, dep)) = deferred_store.take() {
        b.store_data(s_set, words, &[dep]);
    }
    debug_assert!(b.len() <= ops, "the stages emitted more ops than sized");
    b.build()
}

/// Total compute cycles of one stage (useful for estimators).
#[must_use]
pub fn stage_compute_cycles(
    app: &Application,
    sched: &ClusterSchedule,
    stage: &StagePlan,
) -> Cycles {
    sched
        .cluster(stage.cluster())
        .kernels()
        .iter()
        .map(|&k| app.kernel(k).exec_cycles() * stage.iters())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_stages, Lifetimes, RetentionSet};
    use mcds_model::{ApplicationBuilder, ArchParams, Cycles, DataKind, Words};
    use mcds_sim::{OpKind, Simulator};

    fn fixture() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("e");
        let a = b.data("a", Words::new(50), DataKind::ExternalInput);
        let m = b.data("m", Words::new(20), DataKind::Intermediate);
        let f = b.data("f", Words::new(30), DataKind::FinalResult);
        let k0 = b.kernel("k0", 16, Cycles::new(100), &[a], &[m]);
        let k1 = b.kernel("k1", 16, Cycles::new(100), &[m], &[f]);
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        (app, sched)
    }

    use mcds_model::Application;

    #[test]
    fn emits_expected_op_mix() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let ctx = vec![16u32; 8];
        let stages = build_stages(&app, &sched, &lt, &ret, 1, &ctx);
        let ops = emit_ops(&app, &sched, &stages).expect("valid");
        let count = |pred: fn(&OpKind) -> bool| ops.ops().iter().filter(|o| pred(o.kind())).count();
        // 8 stages: each has ctx + compute; cluster0 stages load+store
        // (m crosses clusters), cluster1 stages load m and store f.
        assert_eq!(count(|k| matches!(k, OpKind::LoadContext { .. })), 8);
        assert_eq!(count(|k| matches!(k, OpKind::Compute { .. })), 8);
        assert_eq!(count(|k| matches!(k, OpKind::LoadData { .. })), 8);
        assert_eq!(count(|k| matches!(k, OpKind::StoreData { .. })), 8);
        // Volumes: per iteration load a(50)+m(20), store m(20)+f(30).
        assert_eq!(ops.data_words_loaded(), Words::new(4 * 70));
        assert_eq!(ops.data_words_stored(), Words::new(4 * 50));
        assert_eq!(ops.context_words_loaded(), 8 * 16);
    }

    #[test]
    fn runs_on_simulator() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let ctx = vec![16u32; 4];
        let stages = build_stages(&app, &sched, &lt, &ret, 2, &ctx);
        let ops = emit_ops(&app, &sched, &stages).expect("valid");
        let report = Simulator::new(ArchParams::m1()).run(&ops).expect("runs");
        assert!(report.total() > Cycles::ZERO);
        // Lower bound: all compute must happen (4 iterations × 2 kernels × 100).
        assert!(report.total() >= Cycles::new(800));
    }

    #[test]
    fn batching_reduces_context_traffic() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let rf1 = build_stages(&app, &sched, &lt, &ret, 1, &[16u32; 8]);
        let rf4 = build_stages(&app, &sched, &lt, &ret, 4, &[16u32; 2]);
        let ops1 = emit_ops(&app, &sched, &rf1).expect("valid");
        let ops4 = emit_ops(&app, &sched, &rf4).expect("valid");
        assert_eq!(ops1.context_words_loaded(), 128);
        assert_eq!(ops4.context_words_loaded(), 32);
        // Data volume identical.
        assert_eq!(ops1.data_words_loaded(), ops4.data_words_loaded());
    }

    #[test]
    fn stores_drain_while_next_stage_computes() {
        // Regression for the double-buffering pipeline: stage s's store
        // must overlap stage s+1's compute, not block its loads.
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let stages = build_stages(&app, &sched, &lt, &ret, 1, &[16u32; 8]);
        let ops = emit_ops(&app, &sched, &stages).expect("valid");
        let report = Simulator::new(ArchParams::m1()).run(&ops).expect("runs");
        let spans = report.timeline().spans();
        // Find the first store (cluster 0's results) and the first
        // compute of cluster 1: they must overlap in time.
        let store = ops
            .ops()
            .iter()
            .position(|o| matches!(o.kind(), OpKind::StoreData { .. }))
            .expect("stores exist");
        let compute_c1 = ops
            .ops()
            .iter()
            .position(|o| matches!(o.kind(), OpKind::Compute { kernel, .. } if kernel.index() == 1))
            .expect("cluster 1 computes");
        let s = spans[store];
        let k = spans[compute_c1];
        assert!(
            s.start < k.finish && k.start < s.finish,
            "store {s:?} must overlap next-cluster compute {k:?}"
        );
    }

    #[test]
    fn emission_covers_all_iterations_with_remainder() {
        // 5 iterations at rf=2: rounds of 2, 2, 1.
        let (app, sched) = fixture();
        let mut b = ApplicationBuilder::new("r5");
        let a = b.data("a", Words::new(10), DataKind::ExternalInput);
        let f = b.data("f", Words::new(10), DataKind::FinalResult);
        b.kernel("k", 8, Cycles::new(50), &[a], &[f]);
        let app5 = b.iterations(5).build().expect("valid");
        let sched5 =
            ClusterSchedule::new(&app5, vec![vec![mcds_model::KernelId::new(0)]]).expect("valid");
        let lt = Lifetimes::analyze(&app5, &sched5);
        let stages = build_stages(&app5, &sched5, &lt, &RetentionSet::empty(), 2, &[8u32; 3]);
        let ops = emit_ops(&app5, &sched5, &stages).expect("valid");
        // Total iterations covered: loads 10w × 5, stores 10w × 5.
        assert_eq!(ops.data_words_loaded(), Words::new(50));
        assert_eq!(ops.data_words_stored(), Words::new(50));
        let _ = (app, sched, lt);
    }

    #[test]
    fn stage_compute_cycles_sums_kernels() {
        let (app, sched) = fixture();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let stages = build_stages(&app, &sched, &lt, &ret, 2, &[0u32; 4]);
        assert_eq!(
            stage_compute_cycles(&app, &sched, &stages[0]),
            Cycles::new(200)
        );
    }
}
