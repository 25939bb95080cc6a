//! The paper's three data schedulers and the search extension: four
//! settings of one RF ladder, planned through [`SchedulerKind`].

use std::sync::Arc;

use mcds_csched::ContextScheduler;
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_sim::Simulator;
use serde::{Deserialize, Serialize};

use mcds_search::{search_retention, PruneReason, SearchConfig, SearchEvent, SearchOutcome};

use crate::emit::emit_ops;
use crate::footprint::FitTable;
use crate::plan::build_stages;
use crate::{
    all_fit, cluster_peak, first_unfit, max_common_rf, AllocationWalk, Candidate, Event,
    FootprintModel, LadderEval, LadderKey, Lifetimes, Observer, RetentionRanking, RetentionSet,
    ScheduleAnalysis, ScheduleError, SchedulePlan, SchedulerKind,
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

impl SchedulerKind {
    /// Plans `app` under `sched` for `arch` with the default
    /// [`SchedulerConfig`], analyzing the (application, schedule) pair
    /// from scratch.
    ///
    /// # Errors
    ///
    /// Same as [`plan_observed`](Self::plan_observed).
    pub fn plan(
        self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
    ) -> Result<SchedulePlan, ScheduleError> {
        let analysis = ScheduleAnalysis::new(app, sched);
        self.plan_observed(
            app,
            sched,
            arch,
            &SchedulerConfig::default(),
            &analysis,
            Observer::none(),
        )
    }

    /// Plans `app` under `sched` for `arch` with `config`, reusing the
    /// shared `analysis` of that (application, schedule) pair
    /// (lifetimes, sharing candidates, simulated RF-ladder rungs), and
    /// streams decision [`Event`]s and metrics through `observer`: every
    /// RF evaluation, retention verdict (with the violated
    /// `DS(C_c) ≤ FBS` constraint on rejection) and Frame Buffer
    /// placement. The plan carries the simulation of its chosen rung
    /// ([`SchedulePlan::report`]).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Infeasible`] if some cluster cannot fit the
    /// Frame Buffer under this scheduler's footprint model, or a wrapped
    /// model/sim/allocation error.
    pub fn plan_observed(
        self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        config: &SchedulerConfig,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<SchedulePlan, ScheduleError> {
        let ladder = match self {
            SchedulerKind::Basic => Ladder::BASIC,
            SchedulerKind::Ds => Ladder::DS,
            SchedulerKind::Cds => Ladder::CDS,
            // A width-1 beam *is* the greedy walk: climb the CDS ladder
            // (under the search's name), so outcomes and trace streams
            // are byte-identical to CDS.
            SchedulerKind::Search {
                beam_width,
                max_expansions,
            } => Ladder {
                retain: if beam_width <= 1 {
                    Retain::Greedy
                } else {
                    Retain::Search(SearchConfig {
                        beam_width,
                        max_expansions,
                    })
                },
                ..Ladder::CDS
            },
        };
        plan_ladder(
            self.name(),
            app,
            sched,
            arch,
            config,
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

/// The ladder's per-rung counters, summed over a plan and added to the
/// observer's registry once when the ladder ends, so a plan pays a few
/// registry adds instead of several per rung.
#[derive(Default)]
struct LadderCounts {
    rf_evaluated: u64,
    search_rungs: u64,
    expansions: u64,
    prunes: u64,
    rungs_proven: u64,
    rungs_improved: u64,
}

impl LadderCounts {
    /// Touches a name only where counting per rung would have, so
    /// registry snapshots do not depend on the batching.
    fn add_to(&self, observer: Observer<'_>) {
        for (name, total) in [
            ("plan.rf_evaluated", self.rf_evaluated),
            ("search.rungs", self.search_rungs),
            ("search.rungs_proven", self.rungs_proven),
            ("search.rungs_improved", self.rungs_improved),
        ] {
            if total > 0 {
                observer.count(name, total);
            }
        }
        // Every searched rung touched these, even when they stayed 0.
        if self.search_rungs > 0 {
            observer.count("search.expansions", self.expansions);
            observer.count("search.prunes", self.prunes);
        }
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
    // Neither do a retention set's footprint terms: every fit check of
    // the plan reads them from one table.
    let mut fit = FitTable::new(
        app,
        sched,
        lifetimes,
        candidates,
        config.retention_ranking,
        model,
        fbs,
    );
    let mut counts = LadderCounts::default();

    // `best` tracks the planner's pick; under `Search`, `best_greedy`
    // shadows what plain CDS would have picked, for the never-worse
    // guard after the ladder.
    let mut best: Option<Rung> = None;
    let mut best_greedy: Option<Rung> = None;
    let climb_rung = |rf: u64| -> Result<(), ScheduleError> {
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
        //    only if every cluster still fits at this RF (without
        //    candidates, as under `Retain::Off`, it keeps nothing).
        let (accept, _) = fit.greedy(rf);
        let greedy = fit.retention(&accept);
        // 3. Under `Search`, the beam search over the same candidates,
        //    seeded with greedy's mask. When it finds nothing better,
        //    its accept mask is exactly the greedy walk's, so the greedy
        //    rung IS the search rung — one evaluation covers both.
        let searched = match ladder.retain {
            Retain::Search(limits) => {
                let outcome = select_search(&mut fit, &accept, &limits, rf, observer);
                counts.search_rungs += 1;
                counts.expansions += outcome.stats.expansions;
                counts.prunes += outcome.stats.prunes;
                counts.rungs_proven += u64::from(outcome.optimal_proven);
                (outcome.gain > outcome.greedy_gain).then(|| fit.retention(&outcome.accept))
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
            counts.rungs_improved += 1;
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
        counts.rf_evaluated += 1;
        observer.emit(|| Event::RfEvaluated {
            scheduler: name.to_owned(),
            rf,
            total_cycles: total.get(),
            retained: rung.retention.candidates().len(),
        });
        if rung.beats(best.as_ref()) {
            best = Some(rung);
        }
        Ok(())
    };
    let climbed = rfs.into_iter().try_for_each(climb_rung);
    // Counted once per plan, also when a rung's evaluation failed.
    counts.add_to(observer);
    climbed?;
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

    // The chosen rung's verdicts, in ranking order. A greedy pick's are
    // read back from the fit table, which already holds every mask its
    // walk checked at this RF. A searched pick's rejections are
    // *choices*, not violated constraints — the Search* events already
    // told that story — so it has only its accepts, and counts no
    // rejections (the reject arm of `retention_event` names the
    // violated cluster, which a search rejection does not have).
    let greedy = (!searched).then(|| fit.greedy(rf));
    if !retention.is_empty() {
        observer.count("retention.accepted", retention.candidates().len() as u64);
        observer.count(
            "retention.words_avoided",
            retention.avoided_per_iter().get(),
        );
    }
    if let Some(&(_, rejected @ 1..)) = greedy.as_ref() {
        observer.count("retention.rejected", rejected);
    }

    // Narrate the verdicts — only when a sink is listening, so a plan
    // without one never pays for it. Each event sees the tentative set
    // its verdict was based on, the candidate still in it.
    if observer.active() {
        let verdicts: Vec<(&Candidate, bool)> = match &greedy {
            Some((accept, _)) => fit
                .ranked()
                .iter()
                .copied()
                .zip(accept.iter().copied())
                .collect(),
            None => retention.candidates().iter().map(|c| (c, true)).collect(),
        };
        let mut tentative = RetentionSet::empty();
        for (cand, accepted) in verdicts {
            tentative.add(cand.clone());
            observer.emit(|| {
                retention_event(
                    app, sched, lifetimes, cand, &tentative, accepted, rf, model, fbs,
                )
            });
            if !accepted {
                tentative.pop();
            }
        }
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
        retention,
        eval,
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
            // The stage order, one round of clusters after another,
            // written into a list sized for it.
            let rounds = app.iterations().div_ceil(rf);
            let stages = usize::try_from(rounds).map_or(0, |r| r.saturating_mul(sched.len()));
            let mut stage_clusters = Vec::with_capacity(stages);
            for _ in 0..rounds {
                stage_clusters.extend(0..sched.len());
            }
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

/// Runs the beam search over the plan's ranked candidates, seeded with
/// the rung's greedy mask and deciding every accept by the fit table.
/// The table ranks them exactly as the greedy walk does, so a width-1
/// search reproduces greedy's set byte for byte, and its masks are the
/// table's keys.
///
/// A candidate read across sets frees words on its readers' set, so
/// with one ranked `DS(C_c) <= FBS` is not monotone in the retained
/// set: an accept cut as infeasible may fit once more is retained. An
/// exhaustive search that made such a cut proves no optimum there.
fn select_search(
    fit: &mut FitTable<'_>,
    greedy: &[bool],
    limits: &SearchConfig,
    rf: u64,
    observer: Observer<'_>,
) -> SearchOutcome {
    let gains: Vec<u64> = fit
        .ranked()
        .iter()
        .map(|c| c.avoided_per_iter().get())
        .collect();
    let monotone = !fit.ranked().iter().any(|c| c.is_cross_set());
    let mut cut_infeasible = false;
    let mut feasible = |mask: &[bool]| fit.fits(mask, rf);
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
            cut_infeasible |= reason == PruneReason::Infeasible;
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
    };
    let mut outcome = search_retention(&gains, greedy, limits, &mut feasible, &mut emit);
    outcome.optimal_proven &= monotone || !cut_infeasible;
    outcome
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
    lifetimes: &Lifetimes,
    cand: &Candidate,
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

/// Reports a plan's evaluation on the M1 simulator through `observer`:
/// the `sim.runs` and `sim.total_cycles` counters and the
/// [`Event::SimCompleted`] event, all read from
/// [`SchedulePlan::report`], the simulation that chose the plan's rung.
/// Only with the `sim-op-events` feature and an active observer does it
/// simulate the plan's ops again, to narrate every op's timeline span.
///
/// # Errors
///
/// Propagates simulator errors from that narration (none occur for
/// plans produced by this crate).
pub fn evaluate_observed(
    plan: &SchedulePlan,
    arch: &ArchParams,
    observer: Observer<'_>,
) -> Result<(), ScheduleError> {
    if cfg!(feature = "sim-op-events") && observer.active() {
        let ops = plan.ops();
        Simulator::new(*arch).run_observed(ops, |i, start, finish| {
            observer.emit(|| Event::SimOp {
                index: i,
                kind: ops.ops()[i].kind().to_string(),
                start: start.get(),
                finish: finish.get(),
            });
        })?;
    }
    let report = plan.report();
    observer.count("sim.runs", 1);
    observer.count("sim.total_cycles", report.total().get());
    observer.emit(|| Event::SimCompleted {
        scheduler: plan.scheduler().to_owned(),
        total_cycles: report.total().get(),
        dma_busy: report.dma_busy().get(),
        rc_busy: report.rc_busy().get(),
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Candidate;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, KernelId};
    use mcds_workloads::synthetic::knapsack_trap;

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

    /// Plans under `config` over a fresh analysis, observing nothing.
    fn plan_with(
        kind: SchedulerKind,
        config: SchedulerConfig,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
    ) -> Result<SchedulePlan, ScheduleError> {
        let analysis = ScheduleAnalysis::new(app, sched);
        kind.plan_observed(app, sched, arch, &config, &analysis, Observer::none())
    }

    #[test]
    fn a_plans_report_is_the_simulation_of_its_ops() {
        let (app, sched) = shared_app(16);
        let kinds = [
            SchedulerKind::Basic,
            SchedulerKind::Ds,
            SchedulerKind::Cds,
            SchedulerKind::search_default(),
            search(1, 10_000),
        ];
        for a in [
            arch(4096),
            arch(4096).to_builder().fb_cross_set_access(true).build(),
        ] {
            for kind in kinds {
                let plan = kind.plan(&app, &sched, &a).expect("fits");
                let simulated = Simulator::new(a).run(plan.ops()).expect("runs");
                assert_eq!(plan.report(), &simulated, "{kind}");
            }
        }
    }

    /// With `sim-op-events`, an observed evaluation narrates every op:
    /// one event per op, in op order, its kind rendered by `OpKind`'s
    /// `Display` and its span the simulated timeline's.
    #[cfg(feature = "sim-op-events")]
    #[test]
    fn sim_op_events_narrate_every_op() {
        use crate::VecSink;

        let (app, sched) = shared_app(8);
        let arch = arch(4096);
        let plan = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        let sink = VecSink::new();
        evaluate_observed(&plan, &arch, Observer::new(Some(&sink), None)).expect("runs");

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
        let spans = plan.report().timeline().spans();
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
        let plan = SchedulerKind::Basic
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
        let small = SchedulerKind::Ds
            .plan(&app, &sched, &arch(256))
            .expect("fits");
        let big = SchedulerKind::Ds
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
        let ds = SchedulerKind::Ds.plan(&app, &sched, &a).expect("fits");
        let cds = SchedulerKind::Cds.plan(&app, &sched, &a).expect("fits");
        assert!(!cds.retention().is_empty());
        assert!(cds.dt_avoided_per_iter() > Words::ZERO);
        assert!(cds.total_data_words() < ds.total_data_words());
        assert_eq!(cds.rf(), ds.rf(), "CDS keeps the DS reuse factor");
    }

    #[test]
    fn scheduler_dominance_in_time() {
        let (app, sched) = shared_app(32);
        let a = arch(1024);
        let t = |kind: SchedulerKind| kind.plan(&app, &sched, &a).expect("fits").report().total();
        let (basic, ds, cds) = (
            t(SchedulerKind::Basic),
            t(SchedulerKind::Ds),
            t(SchedulerKind::Cds),
        );
        assert!(ds <= basic, "ds={ds} basic={basic}");
        assert!(cds <= ds, "cds={cds} ds={ds}");
    }

    #[test]
    fn infeasible_at_tiny_memory() {
        let (app, sched) = shared_app(8);
        let err = SchedulerKind::Basic
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
            SchedulerKind::Basic.plan(&app, &sched, &a200),
            Err(ScheduleError::Infeasible { .. })
        ));
        assert!(SchedulerKind::Ds.plan(&app, &sched, &a200).is_ok());
        assert!(SchedulerKind::Cds.plan(&app, &sched, &a200).is_ok());
    }

    #[test]
    fn rf_cap_config() {
        let (app, sched) = shared_app(64);
        let config = SchedulerConfig::new().with_max_rf(Some(2));
        let capped = plan_with(SchedulerKind::Ds, config, &app, &sched, &arch(4096)).expect("fits");
        assert_eq!(capped.rf(), 2);
    }

    #[test]
    fn lru_context_policy_reduces_context_traffic() {
        let (app, sched) = shared_app(16);
        let a = arch(2048);
        // Cap RF at 2 so there are 8 rounds and residency matters.
        let capped = SchedulerConfig::new().with_max_rf(Some(2));
        let reload = plan_with(SchedulerKind::Ds, capped, &app, &sched, &a).expect("fits");
        let lru = plan_with(
            SchedulerKind::Ds,
            capped.with_context_policy(ContextPolicy::LruResidency),
            &app,
            &sched,
            &a,
        )
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
        let plain = SchedulerKind::Cds.plan(&app, &sched, &m1).expect("fits");
        let extended = SchedulerKind::Cds.plan(&app, &sched, &dual).expect("fits");
        assert!(
            extended.dt_avoided_per_iter() > plain.dt_avoided_per_iter(),
            "cross-set access must avoid more traffic: {} vs {}",
            extended.dt_avoided_per_iter(),
            plain.dt_avoided_per_iter()
        );
        assert!(extended.report().total() <= plain.report().total());
        assert!(extended
            .retention()
            .candidates()
            .iter()
            .any(Candidate::is_cross_set));
    }

    #[test]
    fn allocation_report_no_splits_on_clean_pipeline() {
        let (app, sched) = shared_app(16);
        let plan = SchedulerKind::Cds
            .plan(&app, &sched, &arch(2048))
            .expect("fits");
        assert_eq!(plan.allocation().splits(), 0);
        let _ = KernelId::new(0);
    }

    /// `mcds_workloads`' knapsack trap at 60/40/150/10 words: TF ranks
    /// the 60-word `big` first, so greedy retains 60 avoided words and
    /// then rejects both 40-word inputs — but the pair avoids 80.
    fn trap_app() -> (Application, ClusterSchedule) {
        knapsack_trap(60, 40, 150, 10, 4).expect("valid")
    }

    fn search(beam_width: u32, max_expansions: u32) -> SchedulerKind {
        SchedulerKind::Search {
            beam_width,
            max_expansions,
        }
    }

    #[test]
    fn search_beam_one_matches_cds() {
        let (app, sched) = shared_app(16);
        for fb in [384, 512, 1024, 2048, 4096] {
            let a = arch(fb);
            let cds = SchedulerKind::Cds.plan(&app, &sched, &a).expect("fits");
            let search = search(1, 10_000).plan(&app, &sched, &a).expect("fits");
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
            assert_eq!(search.report().total(), cds.report().total(), "fb={fb}");
        }
    }

    #[test]
    fn search_never_loses_and_beats_greedy_somewhere() {
        let (app, sched) = trap_app();
        let config = SchedulerConfig::new().with_max_rf(Some(1));
        let mut won_at = Vec::new();
        for fb in (180..=320).step_by(5) {
            let a = arch(fb);
            let cds = plan_with(SchedulerKind::Cds, config, &app, &sched, &a);
            let search = plan_with(search(8, 10_000), config, &app, &sched, &a);
            match (cds, search) {
                (Ok(c), Ok(s)) => {
                    assert!(
                        s.dt_avoided_per_iter() >= c.dt_avoided_per_iter(),
                        "fb={fb}: search avoided {} < greedy {}",
                        s.dt_avoided_per_iter(),
                        c.dt_avoided_per_iter()
                    );
                    let (tc, ts) = (c.report().total(), s.report().total());
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
        let (app, sched) = knapsack_trap(50, 30, 50, 30, 2).expect("valid");
        let a = arch(310);
        let config = SchedulerConfig::default();
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let cds = SchedulerKind::Cds
            .plan_observed(&app, &sched, &a, &config, &analysis, Observer::none())
            .expect("fits");
        let metrics = crate::MetricsRegistry::new();
        let search = search(8, 10_000)
            .plan_observed(
                &app,
                &sched,
                &a,
                &config,
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
        let config = SchedulerConfig::new().with_max_rf(Some(1));
        let metrics = crate::MetricsRegistry::new();
        let sink = crate::VecSink::new();
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let observer = Observer::new(Some(&sink), Some(&metrics));
        search(8, 10_000)
            .plan_observed(&app, &sched, &a, &config, &analysis, observer)
            .expect("fits");
        let snap = metrics.snapshot();
        let counter = |name: &str| snap.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
        assert!(counter("search.expansions") > 0);
        assert!(counter("search.rungs") > 0);
        assert!(counter("search.prunes") > 0);
        let events = sink.take();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SearchExpand { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SearchPrune { .. })));
    }
}
