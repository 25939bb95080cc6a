//! The paper's three data schedulers and the search extension: four
//! settings of one RF ladder behind a common interface.

use std::sync::Arc;

use mcds_csched::ContextScheduler;
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_sim::{SimReport, Simulator};
use serde::{Deserialize, Serialize};

use mcds_search::{
    search_retention, PruneReason, SearchConfig, SearchEvent, SearchItem, SearchOutcome,
};

use crate::emit::emit_ops;
use crate::plan::build_stages;
use crate::retention::rank_candidates;
use crate::{
    all_fit, cluster_peak, first_unfit, max_common_rf, select_greedy, select_greedy_with,
    AllocationWalk, Candidate, Event, FootprintModel, LadderEval, LadderKey, Lifetimes, Observer,
    RetentionRanking, RetentionSet, ScheduleAnalysis, ScheduleError, SchedulePlan,
};

/// How context loads are planned per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ContextPolicy {
    /// Every cluster activation reloads its contexts — the model of the
    /// paper ("their contexts may be loaded to CM n times; … with
    /// loop-fission … only n/RF times"). Default.
    #[default]
    ReloadPerActivation,
    /// Contexts stay resident under an LRU Context Memory model
    /// ([`mcds_csched::CmModel`]); reloads only happen on capacity
    /// misses. An extension/ablation beyond the paper.
    LruResidency,
}

/// Tunable knobs shared by the schedulers (primarily for the ablation
/// benches; the defaults reproduce the paper).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SchedulerConfig {
    /// Context load planning policy.
    pub context_policy: ContextPolicy,
    /// Optional cap on the reuse factor (`None` = as high as memory
    /// allows).
    pub max_rf: Option<u64>,
    /// Candidate ordering for retention selection.
    pub retention_ranking: RetentionRanking,
}

impl SchedulerConfig {
    /// The default configuration (reproduces the paper).
    #[must_use]
    pub fn new() -> Self {
        SchedulerConfig::default()
    }

    /// Returns the config with the given context load policy.
    #[must_use]
    pub fn with_context_policy(mut self, policy: ContextPolicy) -> Self {
        self.context_policy = policy;
        self
    }

    /// Returns the config with the reuse factor capped at `max_rf`
    /// (`None` removes the cap).
    #[must_use]
    pub fn with_max_rf(mut self, max_rf: Option<u64>) -> Self {
        self.max_rf = max_rf;
        self
    }

    /// Returns the config with the given retention candidate ordering.
    #[must_use]
    pub fn with_retention_ranking(mut self, ranking: RetentionRanking) -> Self {
        self.retention_ranking = ranking;
        self
    }
}

/// A data scheduler: turns an application + cluster schedule +
/// architecture into a complete [`SchedulePlan`].
///
/// Implementors provide [`plan_observed`](Self::plan_observed);
/// [`plan`](Self::plan) and [`plan_with_analysis`](Self::plan_with_analysis)
/// are conveniences over it.
pub trait DataScheduler {
    /// The scheduler's display name.
    fn name(&self) -> &'static str;

    /// Produces the transfer/compute plan, analyzing the (application,
    /// schedule) pair from scratch.
    ///
    /// # Errors
    ///
    /// Same as [`plan_observed`](Self::plan_observed).
    fn plan(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
    ) -> Result<SchedulePlan, ScheduleError> {
        self.plan_with_analysis(app, sched, arch, &ScheduleAnalysis::new(app, sched))
    }

    /// Produces the plan reusing a shared [`ScheduleAnalysis`] for the
    /// expensive invariants (lifetimes, sharing candidates, simulated
    /// RF-ladder rungs). Semantically identical to [`plan`](Self::plan);
    /// sweeps call this so grid points over the same (application,
    /// schedule) pair share work.
    ///
    /// # Errors
    ///
    /// Same as [`plan_observed`](Self::plan_observed).
    fn plan_with_analysis(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
    ) -> Result<SchedulePlan, ScheduleError> {
        self.plan_observed(app, sched, arch, analysis, Observer::none())
    }

    /// Like [`plan_with_analysis`](Self::plan_with_analysis), but also
    /// streams decision [`Event`]s and metrics through `observer`. The
    /// built-in schedulers report every RF evaluation, retention verdict
    /// (with the violated `DS(C_c) ≤ FBS` constraint on rejection) and
    /// Frame Buffer placement.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Infeasible`] if some cluster cannot fit the
    /// Frame Buffer under this scheduler's footprint model, or a wrapped
    /// model/sim/allocation error.
    fn plan_observed(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError>;
}

/// The Basic Scheduler of Maestre et al. (DATE 2000): `RF = 1`, no
/// in-place replacement, no retention — the baseline both the Data
/// Scheduler and the Complete Data Scheduler are measured against.
#[derive(Debug, Clone, Default)]
pub struct BasicScheduler {
    config: SchedulerConfig,
}

impl BasicScheduler {
    /// A Basic Scheduler with default configuration.
    #[must_use]
    pub fn new() -> Self {
        BasicScheduler::default()
    }

    /// A Basic Scheduler with explicit configuration.
    #[must_use]
    pub fn with_config(config: SchedulerConfig) -> Self {
        BasicScheduler { config }
    }
}

impl DataScheduler for BasicScheduler {
    fn name(&self) -> &'static str {
        "basic"
    }

    fn plan_observed(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError> {
        plan_ladder(
            self.name(),
            app,
            sched,
            arch,
            &self.config,
            analysis,
            Ladder::BASIC,
            observer,
        )
    }
}

/// The Data Scheduler of Sanchez-Elez et al. (ISSS 2001): in-place
/// replacement within clusters plus loop fission at the highest common
/// reuse factor; no inter-cluster retention.
#[derive(Debug, Clone, Default)]
pub struct DsScheduler {
    config: SchedulerConfig,
}

impl DsScheduler {
    /// A Data Scheduler with default configuration.
    #[must_use]
    pub fn new() -> Self {
        DsScheduler::default()
    }

    /// A Data Scheduler with explicit configuration.
    #[must_use]
    pub fn with_config(config: SchedulerConfig) -> Self {
        DsScheduler { config }
    }
}

impl DataScheduler for DsScheduler {
    fn name(&self) -> &'static str {
        "ds"
    }

    fn plan_observed(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError> {
        plan_ladder(
            self.name(),
            app,
            sched,
            arch,
            &self.config,
            analysis,
            Ladder::DS,
            observer,
        )
    }
}

/// The Complete Data Scheduler — the paper's contribution: replacement,
/// loop fission, *and* TF-ranked retention of shared data and shared
/// results among same-set clusters.
#[derive(Debug, Clone, Default)]
pub struct CdsScheduler {
    config: SchedulerConfig,
}

impl CdsScheduler {
    /// A Complete Data Scheduler with default configuration.
    #[must_use]
    pub fn new() -> Self {
        CdsScheduler::default()
    }

    /// A Complete Data Scheduler with explicit configuration.
    #[must_use]
    pub fn with_config(config: SchedulerConfig) -> Self {
        CdsScheduler { config }
    }
}

impl DataScheduler for CdsScheduler {
    fn name(&self) -> &'static str {
        "cds"
    }

    fn plan_observed(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError> {
        plan_ladder(
            self.name(),
            app,
            sched,
            arch,
            &self.config,
            analysis,
            Ladder::CDS,
            observer,
        )
    }
}

/// The beam-search / branch-and-bound retention scheduler — the
/// `mcds-search` extension beyond the paper. It is the CDS ladder
/// (footprint model, RF ladder, TF-ranked candidate list) with a
/// different retention selector: at every RF rung it runs the greedy
/// walk *and* explores accept/reject alternatives (allocator state
/// checkpointed per expansion, infeasible branches pruned on the
/// paper's `DS(C_c) <= FBS` constraint, an admissible bound pruning
/// against the greedy incumbent), and keeps a rung's searched retention
/// only when it avoids strictly more external traffic without costing
/// cycles. `beam_width <= 1` skips the search entirely and runs the
/// greedy walk, making outcomes byte-identical to CDS.
#[derive(Debug, Clone)]
pub struct SearchScheduler {
    config: SchedulerConfig,
    beam_width: u32,
    max_expansions: u32,
}

impl SearchScheduler {
    /// A search scheduler with the given beam width and expansion cap
    /// (`0` = unlimited) and default configuration.
    #[must_use]
    pub fn new(beam_width: u32, max_expansions: u32) -> Self {
        SearchScheduler {
            config: SchedulerConfig::default(),
            beam_width,
            max_expansions,
        }
    }

    /// Returns the scheduler with an explicit configuration.
    #[must_use]
    pub fn with_config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }
}

impl DataScheduler for SearchScheduler {
    fn name(&self) -> &'static str {
        "search"
    }

    fn plan_observed(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError> {
        // A width-1 beam *is* the greedy walk: climb the CDS ladder
        // (under this scheduler's name), so outcomes and trace streams
        // are byte-identical to `CdsScheduler`.
        let retain = if self.beam_width <= 1 {
            Retain::Greedy
        } else {
            Retain::Search(SearchConfig {
                beam_width: self.beam_width,
                max_expansions: self.max_expansions,
            })
        };
        let ladder = Ladder {
            retain,
            ..Ladder::CDS
        };
        plan_ladder(
            self.name(),
            app,
            sched,
            arch,
            &self.config,
            analysis,
            ladder,
            observer,
        )
    }
}

/// One scheduler as a point in the paper's feature space. DS adds
/// in-place replacement and loop fission to Basic, CDS adds TF-ranked
/// retention to DS, and the search extension changes only how a rung
/// picks its retention.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    /// Whether kernels reuse their inputs' space within a cluster.
    model: FootprintModel,
    /// `true` climbs every feasible RF (loop fission); `false` pins the
    /// RF to 1.
    batch: bool,
    /// How each rung picks the data kept across clusters.
    retain: Retain,
}

impl Ladder {
    const BASIC: Ladder = Ladder {
        model: FootprintModel::NoReplacement,
        batch: false,
        retain: Retain::Off,
    };
    const DS: Ladder = Ladder {
        model: FootprintModel::Replacement,
        batch: true,
        retain: Retain::Off,
    };
    const CDS: Ladder = Ladder {
        retain: Retain::Greedy,
        ..Ladder::DS
    };
}

/// A rung's retention selector.
#[derive(Debug, Clone, Copy)]
enum Retain {
    /// No inter-cluster retention (Basic, DS).
    Off,
    /// The paper's TF-ordered greedy walk (CDS).
    Greedy,
    /// The greedy walk plus a beam search over the same ranked
    /// candidates; a searched set must avoid strictly more traffic at
    /// no more cycles to replace greedy's.
    Search(SearchConfig),
}

/// One evaluated rung of the ladder.
#[derive(Clone)]
struct Rung {
    rf: u64,
    retention: RetentionSet,
    eval: Arc<LadderEval>,
    /// Whether `retention` came from the beam search rather than the
    /// greedy walk.
    searched: bool,
}

impl Rung {
    /// Whether this rung displaces `incumbent` as the ladder's pick:
    /// strictly faster wins; on a tie the larger RF does (fewer context
    /// loads for the same makespan).
    fn beats(&self, incumbent: Option<&Rung>) -> bool {
        incumbent.is_none_or(|best| {
            let (total, best_total) = (self.eval.report.total(), best.eval.report.total());
            total < best_total || (total == best_total && self.rf > best.rf)
        })
    }
}

/// The RF ladder every scheduler climbs: pick the candidate reuse
/// factors, select and evaluate a retention per rung, keep the fastest
/// rung, narrate the pick and validate its Frame Buffer allocation.
#[allow(clippy::too_many_arguments)]
fn plan_ladder(
    name: &str,
    app: &Application,
    sched: &ClusterSchedule,
    arch: &ArchParams,
    config: &SchedulerConfig,
    analysis: &ScheduleAnalysis,
    ladder: Ladder,
    observer: Observer<'_>,
) -> Result<SchedulePlan, ScheduleError> {
    arch.check_kernels_fit(app)?;
    let lifetimes = analysis.lifetimes();
    let fbs = arch.fb_set_words();
    let model = ladder.model;
    observer.count("plan.count", 1);
    observer.emit(|| Event::PlanStarted {
        scheduler: name.to_owned(),
        application: app.name().to_owned(),
        clusters: sched.len(),
        fbs: fbs.get(),
    });

    // 1. Candidate reuse factors.
    let Some(rfs) = rf_ladder(app, sched, config, lifetimes, ladder, fbs) else {
        observer.count("plan.infeasible", 1);
        return Err(infeasible(name, app, sched, lifetimes, model, fbs));
    };

    let cluster_contexts: Vec<u32> = sched
        .clusters()
        .iter()
        .map(|c| c.kernels().iter().map(|&k| app.kernel(k).contexts()).sum())
        .collect();
    let cs = ContextScheduler::new(arch.cm_context_words());
    let simulator = Simulator::new(*arch);
    // Sharing discovery does not depend on RF — resolve it once (and,
    // through the analysis, once per application across a whole sweep).
    let candidates = match ladder.retain {
        Retain::Off => &[][..],
        Retain::Greedy | Retain::Search(_) => {
            analysis.sharing_candidates(app, sched, arch.fb_cross_set_access())
        }
    };

    // `best` tracks the planner's pick; under `Search`, `best_greedy`
    // shadows what plain CDS would have picked, for the never-worse
    // guard after the ladder.
    let mut best: Option<Rung> = None;
    let mut best_greedy: Option<Rung> = None;
    for rf in rfs {
        let fits =
            |tentative: &RetentionSet| all_fit(app, sched, lifetimes, tentative, rf, model, fbs);
        // Context plan, stages, ops, tentative evaluation — a pure
        // function of the workload structure plus the inputs in the
        // memo key (which the FB capacity is *not* part of), so
        // arch-only variants replay the rung from the shared analysis
        // instead of re-simulating it.
        let evaluate = |retention: &RetentionSet| {
            eval_rung(
                app,
                sched,
                lifetimes,
                analysis,
                config,
                arch,
                &cluster_contexts,
                &cs,
                &simulator,
                rf,
                retention,
            )
        };

        // 2. Retention: the greedy TF-ordered walk keeps a candidate
        //    only if every cluster still fits at this RF.
        let greedy = match ladder.retain {
            Retain::Off => RetentionSet::empty(),
            Retain::Greedy | Retain::Search(_) => select_greedy(
                candidates,
                config.retention_ranking,
                |d| app.size_of(d),
                fits,
            ),
        };
        // 3. Under `Search`, the beam search over the same candidates.
        //    When it finds nothing better, its accept mask is exactly
        //    the greedy walk's, so the greedy rung IS the search rung —
        //    one evaluation covers both.
        let searched = match ladder.retain {
            Retain::Search(limits) => {
                let (set, outcome) = select_search(
                    candidates,
                    config.retention_ranking,
                    fbs,
                    &limits,
                    rf,
                    app,
                    fits,
                    observer,
                );
                observer.count("search.rungs", 1);
                observer.count("search.expansions", outcome.stats.expansions);
                observer.count("search.prunes", outcome.stats.prunes);
                observer.count("search.rollbacks", outcome.stats.rollbacks);
                if outcome.optimal_proven {
                    observer.count("search.rungs_proven", 1);
                }
                (outcome.gain > outcome.greedy_gain).then_some(set)
            }
            Retain::Off | Retain::Greedy => None,
        };

        // 4. Evaluate greedy's rung.
        let greedy_eval = evaluate(&greedy)?;
        let mut rung = Rung {
            rf,
            retention: greedy,
            eval: greedy_eval,
            searched: false,
        };
        if matches!(ladder.retain, Retain::Search(_)) && rung.beats(best_greedy.as_ref()) {
            best_greedy = Some(rung.clone());
        }
        // 5. Evaluate the searched rung and adopt it only at no more
        //    cycles: time is the primary objective, and more retention
        //    can slow a schedule down (the exposed first load grows).
        if let Some(set) = searched {
            observer.count("search.rungs_improved", 1);
            let search_eval = evaluate(&set)?;
            if search_eval.report.total() <= rung.eval.report.total() {
                rung = Rung {
                    rf,
                    retention: set,
                    eval: search_eval,
                    searched: true,
                };
            }
        }

        let total = rung.eval.report.total();
        observer.count("plan.rf_evaluated", 1);
        observer.emit(|| Event::RfEvaluated {
            scheduler: name.to_owned(),
            rf,
            total_cycles: total.get(),
            retained: rung.retention.candidates().len(),
        });
        if rung.beats(best.as_ref()) {
            best = Some(rung);
        }
    }
    let mut best = best.expect("at least one RF candidate");
    if let Some(greedy) = best_greedy {
        // Never-worse guard: a searched rung can win the ladder on the
        // larger-RF tie-break while avoiding less traffic than greedy
        // CDS's own pick. Equal cycles and less retention is a loss —
        // fall back to the greedy plan.
        if best.searched
            && best.eval.report.total() == greedy.eval.report.total()
            && best.retention.avoided_per_iter() < greedy.retention.avoided_per_iter()
        {
            observer.count("search.fallback_greedy", 1);
            best = greedy;
        }
    }
    let Rung {
        rf,
        retention,
        eval,
        searched,
    } = best;
    observer.observe("plan.rf", rf);
    observer.emit(|| Event::RfChosen {
        scheduler: name.to_owned(),
        rf,
        total_cycles: eval.report.total().get(),
    });

    // Narrate the chosen retention — only when someone is listening,
    // so the default path never pays for it.
    if observer.engaged() {
        if searched {
            // Replay the searched set's accepts in ranking order.
            // Rejections are *choices* here, not constraint violations
            // — the Search* events already told that story — so only
            // the accepted verdicts are emitted (the reject arm of
            // `retention_event` names the violated cluster, which a
            // search rejection does not have).
            let mut tentative = RetentionSet::empty();
            for cand in retention.candidates() {
                tentative.add(cand.clone());
                observer.count("retention.accepted", 1);
                observer.count("retention.words_avoided", cand.avoided_per_iter().get());
                observer.emit(|| {
                    retention_event(
                        app, sched, lifetimes, cand, &tentative, true, rf, model, fbs,
                    )
                });
            }
        } else if !matches!(ladder.retain, Retain::Off) {
            // Re-run the deterministic greedy walk at the chosen RF
            // purely to narrate each verdict.
            let _ = select_greedy_with(
                candidates,
                config.retention_ranking,
                |d| app.size_of(d),
                |tentative| all_fit(app, sched, lifetimes, tentative, rf, model, fbs),
                |cand, tentative, accepted| {
                    if accepted {
                        observer.count("retention.accepted", 1);
                        observer.count("retention.words_avoided", cand.avoided_per_iter().get());
                    } else {
                        observer.count("retention.rejected", 1);
                    }
                    observer.emit(|| {
                        retention_event(
                            app, sched, lifetimes, cand, tentative, accepted, rf, model, fbs,
                        )
                    });
                },
            );
        }
    }
    if observer.active() {
        for cl in sched.clusters() {
            let ds = cluster_peak(app, sched, lifetimes, &retention, cl.id(), rf, model);
            observer.emit(|| Event::ClusterFootprint {
                cluster: id_u32(cl.id()),
                rf,
                ds: ds.get(),
                fbs: fbs.get(),
            });
        }
    }

    // 6. Allocation validation (§5): walk up to two rounds — enough to
    //    exercise the steady state and cross-round regularity.
    let walk =
        AllocationWalk::new(app, sched, lifetimes, &retention, rf, fbs, model).observed(observer);
    let allocation = walk.run(2, false)?;
    observer.emit(|| Event::AllocationChecked {
        peak_set0: allocation.peak()[0].get(),
        peak_set1: allocation.peak()[1].get(),
        allocs: allocation.allocs(),
        splits: allocation.splits(),
    });

    Ok(SchedulePlan::new(
        name.to_owned(),
        rf,
        eval.stages.clone(),
        retention,
        eval.ops.clone(),
        allocation,
    ))
}

/// The ladder's candidate reuse factors, or `None` when not even RF 1
/// fits the Frame Buffer.
///
/// The schedulers' goal is to *minimize execution time* — a maximal RF
/// is usually but not always best (a huge batched first load is
/// exposed, and short pipelines overlap less), so a batching ladder
/// offers feasible RFs up to the maximum for the simulator to judge.
/// RF = 1 is always a candidate, which makes the Data Scheduler never
/// slower than Basic.
fn rf_ladder(
    app: &Application,
    sched: &ClusterSchedule,
    config: &SchedulerConfig,
    lifetimes: &Lifetimes,
    ladder: Ladder,
    fbs: Words,
) -> Option<Vec<u64>> {
    let empty = RetentionSet::empty();
    if !ladder.batch {
        return all_fit(app, sched, lifetimes, &empty, 1, ladder.model, fbs).then(|| vec![1]);
    }
    let rf_max = max_common_rf(app, sched, lifetimes, &empty, ladder.model, fbs)?;
    let rf_max = config.max_rf.map_or(rf_max, |cap| rf_max.min(cap)).max(1);
    if rf_max <= 64 {
        // Exhaustive: candidate sets at growing memory sizes nest, so
        // more memory can never produce a slower plan.
        return Some((1..=rf_max).collect());
    }
    // Geometric ladder plus the maximum for very deep batching
    // (coarser, but planning stays cheap).
    let mut rfs: Vec<u64> = std::iter::successors(Some(1u64), |rf| rf.checked_mul(2))
        .take_while(|&rf| rf < rf_max)
        .collect();
    rfs.push(rf_max);
    Some(rfs)
}

/// One rung of the RF ladder: context plan, stages, ops, simulated
/// makespan — memoized on the owning [`ScheduleAnalysis`] under its
/// [`LadderKey`], so the greedy and searched retentions of a rung (and
/// arch-only sweep variants) share evaluations of retentions that skip
/// the same transfers.
#[allow(clippy::too_many_arguments)]
fn eval_rung(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    analysis: &ScheduleAnalysis,
    config: &SchedulerConfig,
    arch: &ArchParams,
    cluster_contexts: &[u32],
    cs: &ContextScheduler,
    simulator: &Simulator,
    rf: u64,
    retention: &RetentionSet,
) -> Result<Arc<LadderEval>, ScheduleError> {
    analysis.ladder_eval(
        LadderKey::new(rf, retention, config, arch),
        || -> Result<LadderEval, ScheduleError> {
            let rounds = app.iterations().div_ceil(rf);
            let stage_clusters: Vec<usize> = (0..rounds).flat_map(|_| 0..sched.len()).collect();
            let ctx_plan = match config.context_policy {
                ContextPolicy::ReloadPerActivation => {
                    cs.plan_reload_always(cluster_contexts, &stage_clusters)
                }
                ContextPolicy::LruResidency => cs.plan(cluster_contexts, &stage_clusters),
            };
            let stages = build_stages(app, sched, lifetimes, retention, rf, ctx_plan.loads());
            let ops = emit_ops(app, sched, &stages)?;
            let report = simulator.run(&ops)?;
            Ok(LadderEval {
                stages,
                ops,
                report,
            })
        },
    )
}

/// Runs the beam search over the TF-ranked candidate list and rebuilds
/// the winning accept mask as a [`RetentionSet`]. Candidates are ranked
/// exactly as the greedy walk ranks them ([`rank_candidates`]), so a
/// width-1 search reproduces greedy's set byte for byte.
#[allow(clippy::too_many_arguments)]
fn select_search(
    candidates: &[Candidate],
    ranking: RetentionRanking,
    fbs: Words,
    limits: &SearchConfig,
    rf: u64,
    app: &Application,
    mut fits: impl FnMut(&RetentionSet) -> bool,
    observer: Observer<'_>,
) -> (RetentionSet, SearchOutcome) {
    let sizes = |d| app.size_of(d);
    let ordered = rank_candidates(candidates, ranking, &sizes);
    let items: Vec<SearchItem> = ordered
        .iter()
        .map(|c| SearchItem {
            key: (u64::from(id_u32(c.data())), c.set().index() as u64),
            set: c.set().index(),
            size: sizes(c.data()),
            gain: c.avoided_per_iter().get(),
        })
        .collect();
    let mut feasible = |mask: &[bool]| {
        let mut tentative = RetentionSet::empty();
        for (i, &m) in mask.iter().enumerate() {
            if m {
                tentative.add(ordered[i].clone());
            }
        }
        fits(&tentative)
    };
    let mut emit = |event: SearchEvent| match event {
        SearchEvent::Expand { depth, gain, bound } => {
            observer.emit(|| Event::SearchExpand {
                rf,
                depth,
                gain,
                bound,
            });
        }
        SearchEvent::Prune {
            depth,
            bound,
            reason,
        } => {
            observer.emit(|| Event::SearchPrune {
                rf,
                depth,
                bound,
                reason: match reason {
                    PruneReason::Infeasible => "infeasible",
                    PruneReason::Bounded => "bounded",
                }
                .to_owned(),
            });
        }
        SearchEvent::Rollback { depth } => {
            observer.emit(|| Event::SearchRollback { rf, depth });
        }
    };
    let outcome = search_retention(&items, 2, fbs, limits, &mut feasible, &mut emit);
    let mut set = RetentionSet::empty();
    for (i, &accepted) in outcome.accept.iter().enumerate() {
        if accepted {
            set.add(ordered[i].clone());
        }
    }
    (set, outcome)
}

fn id_u32(id: impl Into<usize>) -> u32 {
    u32::try_from(id.into()).expect("id fits u32")
}

/// Builds the accept/reject event for one retention verdict, naming the
/// worst-case cluster and its `DS(C_c)` footprint under the tentative
/// set (which still contains the candidate either way).
#[allow(clippy::too_many_arguments)]
fn retention_event(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &crate::Lifetimes,
    cand: &crate::Candidate,
    tentative: &RetentionSet,
    accepted: bool,
    rf: u64,
    model: FootprintModel,
    fbs: Words,
) -> Event {
    let data = id_u32(cand.data());
    let name = app.data_object(cand.data()).name().to_owned();
    let set = u8::try_from(cand.set().index()).expect("set fits u8");
    if accepted {
        let (worst, ds) = sched
            .clusters()
            .iter()
            .map(|cl| {
                (
                    cl.id(),
                    cluster_peak(app, sched, lifetimes, tentative, cl.id(), rf, model),
                )
            })
            .max_by_key(|&(_, peak)| peak)
            .expect("schedules are non-empty");
        Event::RetentionAccepted {
            data,
            name,
            set,
            tf: cand.tf(),
            avoided_per_iter: cand.avoided_per_iter().get(),
            worst_cluster: id_u32(worst),
            ds: ds.get(),
            fbs: fbs.get(),
        }
    } else {
        let (cluster, ds) = first_unfit(app, sched, lifetimes, tentative, rf, model, fbs)
            .expect("a rejected candidate violates some cluster's constraint");
        Event::RetentionRejected {
            data,
            name,
            set,
            tf: cand.tf(),
            cluster: id_u32(cluster),
            ds: ds.get(),
            fbs: fbs.get(),
        }
    }
}

fn infeasible(
    name: &str,
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    model: FootprintModel,
    fbs: Words,
) -> ScheduleError {
    let empty = RetentionSet::empty();
    let worst = sched
        .clusters()
        .iter()
        .map(|c| {
            let peak = cluster_peak(app, sched, lifetimes, &empty, c.id(), 1, model);
            (c.id(), peak)
        })
        .max_by_key(|&(_, peak)| peak)
        .expect("schedules are non-empty");
    ScheduleError::Infeasible {
        scheduler: name.to_owned(),
        cluster: worst.0,
        required: worst.1,
        capacity: fbs,
    }
}

/// Runs a plan on the M1 simulator.
///
/// # Errors
///
/// Propagates simulator errors (none occur for plans produced by the
/// schedulers in this crate).
pub fn evaluate(plan: &SchedulePlan, arch: &ArchParams) -> Result<SimReport, ScheduleError> {
    evaluate_observed(plan, arch, Observer::none())
}

/// Runs a plan on the M1 simulator, reporting completion (and, with the
/// `sim-op-events` feature, every op's timeline span) through
/// `observer`.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_observed(
    plan: &SchedulePlan,
    arch: &ArchParams,
    observer: Observer<'_>,
) -> Result<SimReport, ScheduleError> {
    let simulator = Simulator::new(*arch);
    let ops = plan.ops();
    let report = if cfg!(feature = "sim-op-events") && observer.active() {
        simulator.run_observed(ops, |i, start, finish| {
            observer.emit(|| Event::SimOp {
                index: i,
                kind: ops.ops()[i].kind().to_string(),
                start: start.get(),
                finish: finish.get(),
            });
        })?
    } else {
        simulator.run(ops)?
    };
    observer.count("sim.runs", 1);
    observer.count("sim.total_cycles", report.total().get());
    observer.emit(|| Event::SimCompleted {
        scheduler: plan.scheduler().to_owned(),
        total_cycles: report.total().get(),
        dma_busy: report.dma_busy().get(),
        rc_busy: report.rc_busy().get(),
    });
    Ok(report)
}

/// Runs a plan on the M1 simulator, reusing the rung evaluation
/// memoized in `analysis` when its simulation report is already known.
///
/// The chosen plan's (rf, retention) rung was necessarily simulated
/// during planning under the same `config` and `arch`, so outside the
/// per-op event path (the `sim-op-events` feature with an active
/// observer, which must drive the simulator to narrate each op's
/// timeline span) this normally re-simulates nothing: the memoized
/// report is the same bytes a fresh [`evaluate_observed`] would
/// produce, and the completion counters and event are emitted
/// identically. Plans that did not come out of this `analysis` (a memo
/// miss) fall back to a fresh simulation.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_with_analysis(
    plan: &SchedulePlan,
    arch: &ArchParams,
    config: &SchedulerConfig,
    analysis: &ScheduleAnalysis,
    observer: Observer<'_>,
) -> Result<SimReport, ScheduleError> {
    if cfg!(feature = "sim-op-events") && observer.active() {
        return evaluate_observed(plan, arch, observer);
    }
    let key = LadderKey::new(plan.rf(), plan.retention(), config, arch);
    let Some(eval) = analysis.ladder_hit(&key) else {
        return evaluate_observed(plan, arch, observer);
    };
    let report = eval.report.clone();
    observer.count("sim.runs", 1);
    observer.count("sim.total_cycles", report.total().get());
    observer.emit(|| Event::SimCompleted {
        scheduler: plan.scheduler().to_owned(),
        total_cycles: report.total().get(),
        dma_busy: report.dma_busy().get(),
        rc_busy: report.rc_busy().get(),
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Candidate;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, KernelId};

    /// A pipeline with cross-cluster sharing so all three schedulers
    /// separate: `coef` is shared by clusters 0 and 2 (set 0), `m12`
    /// crosses clusters 1→2.
    fn shared_app(iterations: u64) -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("sh");
        let coef = b.data("coef", Words::new(64), DataKind::ExternalInput);
        let x = b.data("x", Words::new(32), DataKind::ExternalInput);
        let m01 = b.data("m01", Words::new(32), DataKind::Intermediate);
        let m12 = b.data("m12", Words::new(32), DataKind::Intermediate);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        let k0 = b.kernel("k0", 24, Cycles::new(120), &[coef, x], &[m01]);
        let k1 = b.kernel("k1", 24, Cycles::new(120), &[m01], &[m12]);
        let k2 = b.kernel("k2", 24, Cycles::new(120), &[coef, m12], &[f]);
        let app = b.iterations(iterations).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched)
    }

    fn arch(fb: u64) -> ArchParams {
        ArchParams::m1_with_fb(Words::new(fb))
    }

    #[test]
    fn evaluate_with_analysis_replays_the_chosen_rung() {
        let (app, sched) = shared_app(16);
        let (config, arch) = (SchedulerConfig::default(), arch(4096));
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let plan = CdsScheduler::new()
            .plan_with_analysis(&app, &sched, &arch, &analysis)
            .expect("fits");
        assert!(!plan.retention().is_empty());
        let key = LadderKey::new(plan.rf(), plan.retention(), &config, &arch);
        assert!(analysis.ladder_hit(&key).is_some(), "planning memoized it");
        let fresh = evaluate(&plan, &arch).expect("runs");
        let replayed = evaluate_with_analysis(&plan, &arch, &config, &analysis, Observer::none())
            .expect("runs");
        assert_eq!(replayed, fresh);

        // A replay never looks at the plan's ops: the same rung with no
        // ops still reports the memoized simulation.
        let hollow = SchedulePlan::new(
            plan.scheduler().to_owned(),
            plan.rf(),
            plan.stages().to_vec(),
            plan.retention().clone(),
            mcds_sim::OpScheduleBuilder::new().build().expect("empty"),
            plan.allocation().clone(),
        );
        assert_eq!(
            evaluate(&hollow, &arch).expect("runs").total(),
            Cycles::ZERO
        );
        let replayed = evaluate_with_analysis(&hollow, &arch, &config, &analysis, Observer::none())
            .expect("runs");
        assert_eq!(replayed, fresh);
    }

    /// With `sim-op-events`, an observed evaluation narrates every op:
    /// one event per op, in op order, its kind rendered by `OpKind`'s
    /// `Display` and its span the simulated timeline's.
    #[cfg(feature = "sim-op-events")]
    #[test]
    fn sim_op_events_narrate_every_op() {
        use crate::VecSink;

        let (app, sched) = shared_app(8);
        let (config, arch) = (SchedulerConfig::default(), arch(4096));
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let plan = CdsScheduler::new()
            .plan_with_analysis(&app, &sched, &arch, &analysis)
            .expect("fits");
        let report = evaluate(&plan, &arch).expect("runs");
        let sink = VecSink::new();
        let observed = evaluate_with_analysis(
            &plan,
            &arch,
            &config,
            &analysis,
            Observer::new(Some(&sink), None),
        )
        .expect("runs");
        assert_eq!(observed, report);

        let events: Vec<(usize, String, u64, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|event| match event {
                Event::SimOp {
                    index,
                    kind,
                    start,
                    finish,
                } => Some((index, kind, start, finish)),
                _ => None,
            })
            .collect();
        let ops = plan.ops().ops();
        let spans = report.timeline().spans();
        assert_eq!(events.len(), ops.len());
        for (i, (index, kind, start, finish)) in events.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(kind, ops[i].kind().to_string());
            assert_eq!(spans[i].op.index(), i);
            assert_eq!(
                (start, finish),
                (spans[i].start.get(), spans[i].finish.get())
            );
        }
    }

    #[test]
    fn basic_plan_shape() {
        let (app, sched) = shared_app(8);
        let plan = BasicScheduler::new()
            .plan(&app, &sched, &arch(4096))
            .expect("fits");
        assert_eq!(plan.scheduler(), "basic");
        assert_eq!(plan.rf(), 1);
        assert!(plan.retention().is_empty());
        assert_eq!(plan.stages().len(), 8 * 3);
        assert_eq!(plan.dt_avoided_per_iter(), Words::ZERO);
    }

    #[test]
    fn ds_raises_rf_with_memory() {
        let (app, sched) = shared_app(64);
        let small = DsScheduler::new()
            .plan(&app, &sched, &arch(256))
            .expect("fits");
        let big = DsScheduler::new()
            .plan(&app, &sched, &arch(2048))
            .expect("fits");
        assert!(
            big.rf() > small.rf(),
            "small={} big={}",
            small.rf(),
            big.rf()
        );
        assert!(big.total_context_words() < small.total_context_words());
        // Same data volume: DS does not touch data transfers.
        assert_eq!(big.total_data_words(), small.total_data_words());
    }

    #[test]
    fn cds_retains_and_cuts_traffic() {
        let (app, sched) = shared_app(16);
        let a = arch(2048);
        let ds = DsScheduler::new().plan(&app, &sched, &a).expect("fits");
        let cds = CdsScheduler::new().plan(&app, &sched, &a).expect("fits");
        assert!(!cds.retention().is_empty());
        assert!(cds.dt_avoided_per_iter() > Words::ZERO);
        assert!(cds.total_data_words() < ds.total_data_words());
        assert_eq!(cds.rf(), ds.rf(), "CDS keeps the DS reuse factor");
    }

    #[test]
    fn scheduler_dominance_in_time() {
        let (app, sched) = shared_app(32);
        let a = arch(1024);
        let t = |p: &SchedulePlan| evaluate(p, &a).expect("runs").total();
        let basic = t(&BasicScheduler::new().plan(&app, &sched, &a).expect("fits"));
        let ds = t(&DsScheduler::new().plan(&app, &sched, &a).expect("fits"));
        let cds = t(&CdsScheduler::new().plan(&app, &sched, &a).expect("fits"));
        assert!(ds <= basic, "ds={ds} basic={basic}");
        assert!(cds <= ds, "cds={cds} ds={ds}");
    }

    #[test]
    fn infeasible_at_tiny_memory() {
        let (app, sched) = shared_app(8);
        let err = BasicScheduler::new()
            .plan(&app, &sched, &arch(64))
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Infeasible { .. }));
    }

    #[test]
    fn basic_infeasible_while_replacement_fits() {
        // A cluster whose no-replacement footprint exceeds the FB but
        // whose replacement footprint fits — the MPEG@1K scenario.
        let mut b = ApplicationBuilder::new("tight");
        let a = b.data("a", Words::new(60), DataKind::ExternalInput);
        let m1 = b.data("m1", Words::new(60), DataKind::Intermediate);
        let m2 = b.data("m2", Words::new(60), DataKind::Intermediate);
        let f = b.data("f", Words::new(60), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(50), &[a], &[m1]);
        let k1 = b.kernel("k1", 8, Cycles::new(50), &[m1], &[m2]);
        let k2 = b.kernel("k2", 8, Cycles::new(50), &[m2], &[f]);
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0, k1, k2]]).expect("valid");
        // No-replacement needs 240; replacement peaks at 180 (a,m1 +
        // nothing else at k0... exact value < 240 regardless).
        let a200 = arch(200);
        assert!(matches!(
            BasicScheduler::new().plan(&app, &sched, &a200),
            Err(ScheduleError::Infeasible { .. })
        ));
        assert!(DsScheduler::new().plan(&app, &sched, &a200).is_ok());
        assert!(CdsScheduler::new().plan(&app, &sched, &a200).is_ok());
    }

    #[test]
    fn rf_cap_config() {
        let (app, sched) = shared_app(64);
        let capped = DsScheduler::with_config(SchedulerConfig {
            max_rf: Some(2),
            ..SchedulerConfig::default()
        })
        .plan(&app, &sched, &arch(4096))
        .expect("fits");
        assert_eq!(capped.rf(), 2);
    }

    #[test]
    fn lru_context_policy_reduces_context_traffic() {
        let (app, sched) = shared_app(16);
        let a = arch(2048);
        // Cap RF at 2 so there are 8 rounds and residency matters.
        let reload = DsScheduler::with_config(SchedulerConfig {
            max_rf: Some(2),
            ..SchedulerConfig::default()
        })
        .plan(&app, &sched, &a)
        .expect("fits");
        let lru = DsScheduler::with_config(SchedulerConfig {
            context_policy: ContextPolicy::LruResidency,
            max_rf: Some(2),
            ..SchedulerConfig::default()
        })
        .plan(&app, &sched, &a)
        .expect("fits");
        // All three clusters (24 words each) fit the 512-word CM: under
        // LRU they are loaded exactly once; reload-per-activation pays
        // 8 rounds × 72 words.
        assert_eq!(lru.total_context_words(), 72);
        assert_eq!(reload.total_context_words(), 8 * 72);
    }

    #[test]
    fn cross_set_architecture_unlocks_more_retention() {
        // `m01` crosses clusters 0 -> 1 (different sets): only a
        // dual-ported FB lets the CDS retain it.
        let (app, sched) = shared_app(16);
        let m1 = arch(2048);
        let dual = m1.to_builder().fb_cross_set_access(true).build();
        let plain = CdsScheduler::new().plan(&app, &sched, &m1).expect("fits");
        let extended = CdsScheduler::new().plan(&app, &sched, &dual).expect("fits");
        assert!(
            extended.dt_avoided_per_iter() > plain.dt_avoided_per_iter(),
            "cross-set access must avoid more traffic: {} vs {}",
            extended.dt_avoided_per_iter(),
            plain.dt_avoided_per_iter()
        );
        let t_plain = evaluate(&plain, &m1).expect("runs");
        let t_ext = evaluate(&extended, &dual).expect("runs");
        assert!(t_ext.total() <= t_plain.total());
        assert!(extended
            .retention()
            .candidates()
            .iter()
            .any(Candidate::is_cross_set));
    }

    #[test]
    fn allocation_report_no_splits_on_clean_pipeline() {
        let (app, sched) = shared_app(16);
        let plan = CdsScheduler::new()
            .plan(&app, &sched, &arch(2048))
            .expect("fits");
        assert_eq!(plan.allocation().splits(), 0);
        let _ = KernelId::new(0);
    }

    /// A knapsack trap for the greedy TF walk: clusters C0 and C4 (both
    /// set 0) share three external inputs `big` (60w), `b1`/`b2` (40w
    /// each), while the intermediate set-0 cluster C2 carries a private
    /// `bulk` working set the retained copies must coexist with. TF
    /// ranks `big` first, so greedy retains 60 avoided words and then
    /// rejects both 40w candidates — but the pair avoids 80.
    fn trap_app() -> (Application, ClusterSchedule) {
        trap_variant(60, 40, 150, 10, 4)
    }

    /// The [`trap_app`] shape with explicit sizes: `big`, `b1` = `b2`
    /// = `shared`, the private `bulk` and the four intermediates at
    /// `inter` words each, run for `iterations`.
    fn trap_variant(
        big: u64,
        shared: u64,
        bulk: u64,
        inter: u64,
        iterations: u64,
    ) -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("trap");
        let big = b.data("big", Words::new(big), DataKind::ExternalInput);
        let b1 = b.data("b1", Words::new(shared), DataKind::ExternalInput);
        let b2 = b.data("b2", Words::new(shared), DataKind::ExternalInput);
        let bulk = b.data("bulk", Words::new(bulk), DataKind::ExternalInput);
        let m0 = b.data("m0", Words::new(inter), DataKind::Intermediate);
        let m1 = b.data("m1", Words::new(inter), DataKind::Intermediate);
        let m2 = b.data("m2", Words::new(inter), DataKind::Intermediate);
        let m3 = b.data("m3", Words::new(inter), DataKind::Intermediate);
        let f = b.data("f", Words::new(10), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(100), &[big, b1, b2], &[m0]);
        let k1 = b.kernel("k1", 8, Cycles::new(100), &[m0], &[m1]);
        let k2 = b.kernel("k2", 8, Cycles::new(100), &[bulk, m1], &[m2]);
        let k3 = b.kernel("k3", 8, Cycles::new(100), &[m2], &[m3]);
        let k4 = b.kernel("k4", 8, Cycles::new(100), &[big, b1, b2, m3], &[f]);
        let app = b.iterations(iterations).build().expect("valid");
        let sched =
            ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2], vec![k3], vec![k4]])
                .expect("valid");
        (app, sched)
    }

    #[test]
    fn search_beam_one_matches_cds() {
        let (app, sched) = shared_app(16);
        for fb in [384, 512, 1024, 2048, 4096] {
            let a = arch(fb);
            let cds = CdsScheduler::new().plan(&app, &sched, &a).expect("fits");
            let search = SearchScheduler::new(1, 10_000)
                .plan(&app, &sched, &a)
                .expect("fits");
            assert_eq!(search.scheduler(), "search");
            assert_eq!(search.rf(), cds.rf(), "fb={fb}");
            assert_eq!(
                search.retention().candidates(),
                cds.retention().candidates(),
                "fb={fb}"
            );
            assert_eq!(search.stages(), cds.stages(), "fb={fb}");
            assert_eq!(search.dt_avoided_per_iter(), cds.dt_avoided_per_iter());
            assert_eq!(search.total_data_words(), cds.total_data_words());
            let tc = evaluate(&cds, &a).expect("runs").total();
            let ts = evaluate(&search, &a).expect("runs").total();
            assert_eq!(ts, tc, "fb={fb}");
        }
    }

    #[test]
    fn search_never_loses_and_beats_greedy_somewhere() {
        let (app, sched) = trap_app();
        let config = SchedulerConfig {
            max_rf: Some(1),
            ..SchedulerConfig::default()
        };
        let mut won_at = Vec::new();
        for fb in (180..=320).step_by(5) {
            let a = arch(fb);
            let cds = CdsScheduler::with_config(config).plan(&app, &sched, &a);
            let search = SearchScheduler::new(8, 10_000)
                .with_config(config)
                .plan(&app, &sched, &a);
            match (cds, search) {
                (Ok(c), Ok(s)) => {
                    assert!(
                        s.dt_avoided_per_iter() >= c.dt_avoided_per_iter(),
                        "fb={fb}: search avoided {} < greedy {}",
                        s.dt_avoided_per_iter(),
                        c.dt_avoided_per_iter()
                    );
                    let tc = evaluate(&c, &a).expect("runs").total();
                    let ts = evaluate(&s, &a).expect("runs").total();
                    assert!(ts <= tc, "fb={fb}: search {ts} cycles > greedy {tc}");
                    if s.dt_avoided_per_iter() > c.dt_avoided_per_iter() {
                        won_at.push(fb);
                    }
                }
                (Err(_), Err(_)) => {}
                (c, s) => panic!("feasibility must agree at fb={fb}: cds={c:?} search={s:?}"),
            }
        }
        assert!(
            !won_at.is_empty(),
            "no FB size let the search beat the greedy walk"
        );
    }

    /// The never-worse guard. At RF 1 greedy keeps all three shared
    /// inputs (110 words/iter avoided); at RF 2 it keeps only `big` and
    /// runs slower, while the search keeps two and ties RF 1's cycles.
    /// The larger-RF tie-break would pick that searched rung, which
    /// avoids less traffic than greedy's own pick — so the guard falls
    /// back to RF 1's greedy set, and the plan equals CDS's.
    #[test]
    fn search_falls_back_to_greedy_when_a_searched_rung_ties_with_less_retention() {
        let (app, sched) = trap_variant(50, 30, 50, 30, 2);
        let a = arch(310);
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let cds = CdsScheduler::new()
            .plan_with_analysis(&app, &sched, &a, &analysis)
            .expect("fits");
        let metrics = crate::MetricsRegistry::new();
        let search = SearchScheduler::new(8, 10_000)
            .plan_observed(
                &app,
                &sched,
                &a,
                &analysis,
                Observer::new(None, Some(&metrics)),
            )
            .expect("fits");
        assert_eq!(cds.dt_avoided_per_iter(), Words::new(110));
        assert_eq!(metrics.get("search.rungs_improved"), Some(1));
        assert_eq!(metrics.get("search.fallback_greedy"), Some(1));
        assert_eq!(search.rf(), cds.rf());
        assert_eq!(
            search.retention().candidates(),
            cds.retention().candidates()
        );
        assert_eq!(search.stages(), cds.stages());
    }

    #[test]
    fn search_metrics_and_events_are_recorded() {
        let (app, sched) = trap_app();
        let a = arch(250);
        let config = SchedulerConfig {
            max_rf: Some(1),
            ..SchedulerConfig::default()
        };
        let metrics = crate::MetricsRegistry::new();
        let sink = crate::VecSink::new();
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let observer = Observer::new(Some(&sink), Some(&metrics));
        SearchScheduler::new(8, 10_000)
            .with_config(config)
            .plan_observed(&app, &sched, &a, &analysis, observer)
            .expect("fits");
        let snap = metrics.snapshot();
        let counter = |name: &str| snap.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
        assert!(counter("search.expansions") > 0);
        assert!(counter("search.rungs") > 0);
        assert!(counter("search.rollbacks") > 0);
        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SearchExpand { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SearchRollback { .. })));
    }
}
