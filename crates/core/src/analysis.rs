//! Memoized per-application scheduling invariants.
//!
//! Planning a schedule repeatedly touches the same expensive
//! derivations: the lifetime analysis, the sharing-candidate discovery
//! and the simulated rungs of the RF ladder. A design-space sweep
//! evaluates the same (application, cluster schedule) pair under many
//! architectures and schedulers, so [`ScheduleAnalysis`] computes each
//! invariant once and shares it — it is `Sync` and intended to sit
//! behind an `Arc` across worker threads. Footprints are not memoized:
//! [`cluster_peak`](crate::cluster_peak) is a closed form over one pass
//! of a cluster's objects.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mcds_model::{Application, ArchParams, ClusterId, ClusterSchedule, DataId};
use mcds_sim::{OpSchedule, SimReport};

use crate::{
    find_candidates_with, Candidate, ContextPolicy, Lifetimes, RetentionSet, SchedulerConfig,
    StagePlan,
};

/// One memoized reuse-factor evaluation: the stage plan, the emitted
/// operation schedule, and the simulated makespan for one rung of the
/// RF ladder that every [`DataScheduler`](crate::DataScheduler) in this
/// crate climbs.
///
/// The triple is a pure function of the workload structure plus the
/// inputs in its [`LadderKey`]; notably it never reads the Frame Buffer
/// capacity, which is what lets arch-only variants share rungs.
#[derive(Debug)]
pub struct LadderEval {
    /// Stage plans for one full execution at this reuse factor.
    pub stages: Vec<StagePlan>,
    /// The operation schedule emitted from those stages.
    pub ops: OpSchedule,
    /// The full simulation report of `ops` — kept whole (not just the
    /// makespan) so the final evaluation of the chosen rung can reuse
    /// it instead of re-simulating.
    pub report: SimReport,
}

/// The memo key of one RF-ladder rung: exactly the inputs a rung's
/// (stages, ops, report) triple reads beyond the (application, cluster
/// schedule) pair its [`ScheduleAnalysis`] is built from, compared by
/// equality.
///
/// Of the retention set it keeps only the sorted skipped loads and
/// skipped stores, which are all that
/// [`build_stages`](crate::build_stages) reads: two sets that skip the
/// same transfers (the same candidates added in another order, say)
/// share one rung. The Frame Buffer capacity is deliberately absent —
/// stage building, op emission and the cycle simulation never read it
/// (only the retention *selection* does, and its outcome is in the
/// key) — which is what lets arch-only variants share rungs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LadderKey {
    rf: u64,
    skipped_loads: Vec<(ClusterId, DataId)>,
    skipped_stores: Vec<(ClusterId, DataId)>,
    context_policy: ContextPolicy,
    cm_context_words: u32,
    data_cycles_per_word: u64,
    context_cycles_per_word: u64,
    kernel_setup_cycles: u64,
}

impl LadderKey {
    /// The key of the rung at reuse factor `rf` with `retention`, under
    /// `config`'s context policy and `arch`'s Context Memory size and
    /// timing.
    #[must_use]
    pub fn new(
        rf: u64,
        retention: &RetentionSet,
        config: &SchedulerConfig,
        arch: &ArchParams,
    ) -> Self {
        LadderKey {
            rf,
            skipped_loads: retention.sorted_skipped_loads(),
            skipped_stores: retention.sorted_skipped_stores(),
            context_policy: config.context_policy,
            cm_context_words: arch.cm_context_words(),
            data_cycles_per_word: arch.data_cycles_per_word(),
            context_cycles_per_word: arch.context_cycles_per_word(),
            kernel_setup_cycles: arch.kernel_setup_cycles(),
        }
    }
}

/// Cached invariants of one (application, cluster schedule) pair.
///
/// All methods take the same `app` and `sched` the analysis was built
/// from; pairing it with a different application is a logic error (and
/// yields nonsense results, not memory unsafety).
#[derive(Debug)]
pub struct ScheduleAnalysis {
    lifetimes: Lifetimes,
    /// Sharing candidates, indexed by the `fb_cross_set_access` flag.
    candidates: [OnceLock<Vec<Candidate>>; 2],
    /// RF-ladder evaluations by their exact non-structural inputs.
    evals: Mutex<HashMap<LadderKey, Arc<LadderEval>>>,
}

impl ScheduleAnalysis {
    /// Analyzes `app` under `sched`, computing lifetimes eagerly (every
    /// consumer needs them) and candidates lazily.
    #[must_use]
    pub fn new(app: &Application, sched: &ClusterSchedule) -> Self {
        ScheduleAnalysis {
            lifetimes: Lifetimes::analyze(app, sched),
            candidates: [OnceLock::new(), OnceLock::new()],
            evals: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized RF-ladder evaluation under `key`, if present.
    #[must_use]
    pub fn ladder_hit(&self, key: &LadderKey) -> Option<Arc<LadderEval>> {
        self.evals
            .lock()
            .expect("not poisoned")
            .get(key)
            .map(Arc::clone)
    }

    /// The memoized RF-ladder evaluation under `key`, computing it via
    /// `compute` on first request.
    ///
    /// The *caller* owns the key contract: `compute` must read nothing
    /// beyond the (application, cluster schedule) pair this analysis
    /// was built from and the inputs in `key` (see [`LadderKey`]).
    ///
    /// Concurrent first requests may both run `compute`; the results
    /// are identical by the purity contract, so whichever insert lands
    /// last is indistinguishable from the other.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s error; errors are never cached.
    pub fn ladder_eval<E>(
        &self,
        key: LadderKey,
        compute: impl FnOnce() -> Result<LadderEval, E>,
    ) -> Result<Arc<LadderEval>, E> {
        if let Some(hit) = self.evals.lock().expect("not poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let eval = Arc::new(compute()?);
        self.evals
            .lock()
            .expect("not poisoned")
            .insert(key, Arc::clone(&eval));
        Ok(eval)
    }

    /// The lifetime analysis.
    #[must_use]
    pub fn lifetimes(&self) -> &Lifetimes {
        &self.lifetimes
    }

    /// The sharing candidates under the given cross-set capability,
    /// computed once per flag value.
    pub fn sharing_candidates(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        cross_set: bool,
    ) -> &[Candidate] {
        self.candidates[usize::from(cross_set)]
            .get_or_init(|| find_candidates_with(app, sched, &self.lifetimes, cross_set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};

    fn pipeline(iterations: u64) -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("an");
        let a = b.data("a", Words::new(40), DataKind::ExternalInput);
        let m = b.data("m", Words::new(24), DataKind::Intermediate);
        let f = b.data("f", Words::new(16), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(100), &[a], &[m]);
        let k1 = b.kernel("k1", 8, Cycles::new(100), &[a, m], &[f]);
        let app = b.iterations(iterations).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        (app, sched)
    }

    /// Clusters C0 and C2 share set 0: C2 reads `coef` (shared data,
    /// loaded by C0) and `r` (produced by C0). `r` is an intermediate
    /// or a final result, which decides whether retaining it also
    /// skips C0's store of it.
    fn sharing_app(r_kind: DataKind) -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("keys");
        let coef = b.data("coef", Words::new(64), DataKind::ExternalInput);
        let x = b.data("x", Words::new(32), DataKind::ExternalInput);
        let r = b.data("r", Words::new(16), r_kind);
        let f1 = b.data("f1", Words::new(8), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(8), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(100), &[coef], &[r]);
        let k1 = b.kernel("k1", 8, Cycles::new(100), &[x], &[f1]);
        let k2 = b.kernel("k2", 8, Cycles::new(100), &[coef, r], &[f2]);
        let app = b.iterations(8).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched)
    }

    /// `coef` then `r` retained, or `r` then `coef`.
    fn retained(app: &Application, sched: &ClusterSchedule, coef_first: bool) -> RetentionSet {
        let lt = Lifetimes::analyze(app, sched);
        let mut cands = crate::find_candidates(app, sched, &lt);
        assert_eq!(cands.len(), 2, "coef and r are the candidates");
        cands.sort_by_key(|c| std::cmp::Reverse(c.data() == DataId::new(0)));
        if !coef_first {
            cands.reverse();
        }
        let mut set = RetentionSet::empty();
        for c in cands {
            set.add(c);
        }
        set
    }

    /// Looks `key` up in `analysis`, reporting whether it had to be
    /// computed.
    fn missed(analysis: &ScheduleAnalysis, key: LadderKey) -> bool {
        let mut computed = false;
        analysis
            .ladder_eval(key, || -> Result<LadderEval, mcds_sim::SimError> {
                computed = true;
                let ops = mcds_sim::OpScheduleBuilder::new().build()?;
                let report = mcds_sim::Simulator::new(ArchParams::m1()).run(&ops)?;
                Ok(LadderEval {
                    stages: Vec::new(),
                    ops,
                    report,
                })
            })
            .expect("computes");
        computed
    }

    #[test]
    fn rungs_that_skip_the_same_transfers_share_one_eval() {
        let (app, sched) = sharing_app(DataKind::Intermediate);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let (config, arch) = (SchedulerConfig::default(), ArchParams::m1());
        let coef_first = retained(&app, &sched, true);
        let r_first = retained(&app, &sched, false);
        assert_ne!(coef_first.candidates(), r_first.candidates());
        let a = LadderKey::new(4, &coef_first, &config, &arch);
        let b = LadderKey::new(4, &r_first, &config, &arch);
        assert_eq!(a, b);
        assert!(missed(&analysis, a.clone()));
        assert!(!missed(&analysis, b.clone()), "same skips, same rung");
        let eval = |key| analysis.ladder_hit(&key).expect("memoized");
        assert!(Arc::ptr_eq(&eval(a), &eval(b)));
        // The Frame Buffer size is no input of a rung.
        let bigger = ArchParams::m1_with_fb(Words::kilo(8));
        assert!(!missed(
            &analysis,
            LadderKey::new(4, &coef_first, &config, &bigger)
        ));
    }

    #[test]
    fn rungs_differing_in_any_input_they_read_miss() {
        let (app, sched) = sharing_app(DataKind::Intermediate);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let (config, arch) = (SchedulerConfig::default(), ArchParams::m1());
        let both = retained(&app, &sched, true);
        assert!(missed(&analysis, LadderKey::new(4, &both, &config, &arch)));

        // One skipped load fewer: retain `coef` alone, not `r`.
        let mut coef_only = both.clone();
        assert_eq!(coef_only.pop().map(|c| c.data()), Some(DataId::new(2)));
        assert!(missed(
            &analysis,
            LadderKey::new(4, &coef_only, &config, &arch)
        ));

        // One skipped store fewer: as a final result, `r` retained
        // still saves C2's load but no longer C0's store.
        let (final_app, final_sched) = sharing_app(DataKind::FinalResult);
        let final_r = retained(&final_app, &final_sched, true);
        let (c0, c2, r) = (ClusterId::new(0), ClusterId::new(2), DataId::new(2));
        assert!(final_r.skips_load(c2, r) && both.skips_load(c2, r));
        assert!(!final_r.skips_store(c0, r) && both.skips_store(c0, r));
        assert!(missed(
            &analysis,
            LadderKey::new(4, &final_r, &config, &arch)
        ));

        // Any other input a rung reads.
        assert!(missed(&analysis, LadderKey::new(2, &both, &config, &arch)));
        let lru = config.with_context_policy(ContextPolicy::LruResidency);
        assert!(missed(&analysis, LadderKey::new(4, &both, &lru, &arch)));
        let variants = [
            arch.to_builder().cm_context_words(128).build(),
            arch.to_builder().data_cycles_per_word(2).build(),
            arch.to_builder().context_cycles_per_word(3).build(),
            arch.to_builder().kernel_setup_cycles(9).build(),
        ];
        for changed in variants {
            assert!(
                missed(&analysis, LadderKey::new(4, &both, &config, &changed)),
                "{changed:?}"
            );
        }
    }

    #[test]
    fn candidates_computed_once_per_flag() {
        let (app, sched) = pipeline(8);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let plain = analysis.sharing_candidates(&app, &sched, false);
        let fresh = find_candidates_with(&app, &sched, &Lifetimes::analyze(&app, &sched), false);
        assert_eq!(plain, &fresh[..]);
        // Second call returns the same cached slice.
        let again = analysis.sharing_candidates(&app, &sched, false);
        assert_eq!(plain.len(), again.len());
        let cross = analysis.sharing_candidates(&app, &sched, true);
        assert!(cross.len() >= plain.len());
    }
}
