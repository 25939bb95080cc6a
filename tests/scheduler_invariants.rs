//! Cross-crate scheduler invariants, property-tested over random
//! workloads (invariants 1–6 of DESIGN.md).

use mcds_core::{
    all_fit, cluster_peak, ds_formula, find_candidates_with, max_common_rf, AllocationWalk,
    Candidate, Event, FootprintModel, Lifetimes, MetricsRegistry, Observer, RetentionSet,
    ScheduleAnalysis, SchedulePlan, SchedulerConfig, SchedulerKind, VecSink,
};
use mcds_model::{Application, ArchParams, ClusterId, ClusterSchedule, Words};
use mcds_search::{search_retention, PruneReason, SearchConfig, SearchEvent, SearchOutcome};
use mcds_sim::Simulator;
use mcds_workloads::synthetic::{knapsack_trap, SyntheticConfig, SyntheticGenerator};
use proptest::prelude::*;

/// The footprint oracle: walks `1 + rf·m` execution steps of cluster
/// `c` and returns the peak of the live words. Step 0 has every
/// iteration's inputs loaded; step `1 + iter·m + pos` runs kernel `pos`
/// of batched iteration `iter`, acquiring its outputs and releasing
/// what it reads last. Results stay to the cluster end, and retained
/// objects of other clusters passing through are charged per iteration.
fn walk_peak(
    app: &Application,
    sched: &ClusterSchedule,
    lifetimes: &Lifetimes,
    retention: &RetentionSet,
    c: ClusterId,
    rf: u64,
    model: FootprintModel,
) -> Words {
    let set = sched.fb_set(c);
    let m = sched.cluster(c).len() as u64;
    let end = 1 + rf * m;
    let step = |iter: u64, pos: usize| 1 + iter * m + pos as u64;
    // Live intervals [a, b) accumulated in a diff array.
    let mut diff = vec![0i64; end as usize + 1];
    let mut add = |a: u64, b: u64, size: Words| {
        assert!(a < b && b <= end);
        diff[a as usize] += size.get() as i64;
        diff[b as usize] -= size.get() as i64;
    };
    let replace = model == FootprintModel::Replacement;
    for &d in lifetimes.loads(c) {
        // A retained copy read across sets is charged on the other set.
        if retention.skips_load(c, d) && retention.interval(d, set).is_none() {
            continue;
        }
        let last = lifetimes.last_use_in(c, d).expect("consumed");
        let keep_beyond = retention
            .release_after(d, set)
            .is_some_and(|release| release > c);
        for iter in 0..rf {
            let b = if !replace || keep_beyond {
                end
            } else {
                step(iter, last) + 1
            };
            add(0, b, app.size_of(d));
        }
    }
    for &d in lifetimes.locals(c) {
        let prod = lifetimes.producer_pos(d).expect("produced");
        let last = lifetimes.last_use_in(c, d).expect("consumed");
        for iter in 0..rf {
            let (a, b) = if replace {
                (step(iter, prod), step(iter, last) + 1)
            } else {
                (0, end)
            };
            add(a, b, app.size_of(d));
        }
    }
    for &d in lifetimes.stores(c) {
        let prod = lifetimes.producer_pos(d).expect("produced");
        for iter in 0..rf {
            add(
                if replace { step(iter, prod) } else { 0 },
                end,
                app.size_of(d),
            );
        }
    }
    let passthrough = retention.passthrough_words(
        sched,
        c,
        |d| app.size_of(d),
        |cl, d| lifetimes.loads(cl).contains(&d),
    );
    let mut live = 0i64;
    let peak = diff.iter().fold(0i64, |peak, delta| {
        live += delta;
        peak.max(live)
    });
    Words::new(u64::try_from(peak).expect("never negative")) + passthrough * rf
}

/// The exhaustive oracle for the retention search. It ranks the
/// sharing candidates in TF order and decides a retention mask the way
/// the paper states the rule: every cluster's [`walk_peak`] under the
/// Replacement model is at most FBS. It shares no code with the
/// planner's fit table.
struct SearchOracle<'a> {
    app: &'a Application,
    sched: &'a ClusterSchedule,
    lifetimes: Lifetimes,
    ranked: Vec<Candidate>,
    /// Words per iteration each ranked candidate avoids.
    gains: Vec<u64>,
    fbs: Words,
}

/// Beyond this many ranked candidates the oracle does not enumerate.
const ORACLE_MAX_CANDIDATES: usize = 14;

/// The oracle checks RFs up to this one.
const ORACLE_MAX_RF: u64 = 16;

impl<'a> SearchOracle<'a> {
    /// `None` when the input has more than [`ORACLE_MAX_CANDIDATES`].
    fn new(app: &'a Application, sched: &'a ClusterSchedule, arch: &ArchParams) -> Option<Self> {
        let lifetimes = Lifetimes::analyze(app, sched);
        let ranked = find_candidates_with(app, sched, &lifetimes, arch.fb_cross_set_access());
        let gains = ranked.iter().map(|c| c.avoided_per_iter().get()).collect();
        (ranked.len() <= ORACLE_MAX_CANDIDATES).then_some(SearchOracle {
            app,
            sched,
            lifetimes,
            ranked,
            gains,
            fbs: arch.fb_set_words(),
        })
    }

    fn gain(&self, mask: &[bool]) -> u64 {
        self.gains
            .iter()
            .zip(mask)
            .filter(|(_, &on)| on)
            .map(|(g, _)| g)
            .sum()
    }

    fn retention(&self, mask: &[bool]) -> RetentionSet {
        let mut set = RetentionSet::empty();
        for (cand, _) in self.ranked.iter().zip(mask).filter(|(_, &on)| on) {
            set.add(cand.clone());
        }
        set
    }

    /// The paper's rule: `DS(C_c) <= FBS` for every cluster at `rf`.
    fn fits(&self, mask: &[bool], rf: u64) -> bool {
        let retention = self.retention(mask);
        self.sched.clusters().iter().all(|cl| {
            walk_peak(
                self.app,
                self.sched,
                &self.lifetimes,
                &retention,
                cl.id(),
                rf,
                FootprintModel::Replacement,
            ) <= self.fbs
        })
    }

    /// The TF walk: keep each candidate, in ranking order, while every
    /// cluster still fits.
    fn tf_walk(&self, rf: u64) -> Vec<bool> {
        let mut mask = vec![false; self.ranked.len()];
        for i in 0..mask.len() {
            mask[i] = true;
            mask[i] = self.fits(&mask, rf);
        }
        mask
    }

    /// The largest gain of any feasible mask at `rf`, by enumerating
    /// every mask. `floor` is the gain of a mask known to be feasible;
    /// only masks that gain more are checked.
    fn optimum(&self, rf: u64, floor: u64) -> u64 {
        let n = self.ranked.len();
        let mut best = floor;
        for bits in 0u32..1 << n {
            let mask: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let gain = self.gain(&mask);
            if gain > best && self.fits(&mask, rf) {
                best = gain;
            }
        }
        best
    }

    /// `true` when no candidate is read across sets, which is when the
    /// rule is taken to be monotone in the retained set: a superset of an
    /// infeasible mask stays infeasible. Retaining a copy read across
    /// sets frees words on its readers' set, so with one it is not. The
    /// proofs check 2 holds to the enumerated optimum test this.
    fn monotone(&self) -> bool {
        !self.ranked.iter().any(Candidate::is_cross_set)
    }

    /// The engine under test, seeded with `seed` and deciding accepts by
    /// the oracle's rule. The flag is the proof the planner claims: an
    /// exhaustive search proves its gain optimal if the rule is monotone
    /// or the search cut no accept as infeasible.
    fn search(&self, rf: u64, seed: &[bool], config: &SearchConfig) -> (SearchOutcome, bool) {
        let mut cut_infeasible = false;
        let outcome = search_retention(
            &self.gains,
            seed,
            config,
            &mut |mask: &[bool]| self.fits(mask, rf),
            &mut |event| {
                cut_infeasible |= matches!(
                    event,
                    SearchEvent::Prune {
                        reason: PruneReason::Infeasible,
                        ..
                    }
                );
            },
        );
        let proven = outcome.optimal_proven && (self.monotone() || !cut_infeasible);
        (outcome, proven)
    }
}

/// The planner's search configurations, as `search` and
/// `search:32:100000` name them, then a small beam that hits its cap.
const ORACLE_SEARCHES: [(u32, u32); 3] = [(8, 10_000), (32, 100_000), (2, 50)];

/// Runs the oracle's three checks on one input and returns what failed:
///
/// 1. the CDS plan retains exactly the TF walk at the plan's RF;
/// 2. at every RF up to `max_common_rf` with nothing retained (at most
///    [`ORACLE_MAX_RF`]), the search seeded with the TF walk returns a
///    feasible mask that never gains less, gains the enumerated optimum
///    whenever it proves optimality, and returns the TF walk at beam 1;
/// 3. the Search plans' retentions fit at their RF, and where the
///    oracle covered every rung, the plan's search counters equal the
///    oracle's searches: rungs, expansions, prunes and proven rungs.
fn search_oracle_failures(
    label: &str,
    app: &Application,
    sched: &ClusterSchedule,
    arch: &ArchParams,
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(oracle) = SearchOracle::new(app, sched, arch) else {
        return failures;
    };
    let candidates = |mask: &[bool]| oracle.retention(mask).candidates().to_vec();
    let config = SchedulerConfig::default();
    let analysis = ScheduleAnalysis::new(app, sched);
    if let Ok(plan) =
        SchedulerKind::Cds.plan_observed(app, sched, arch, &config, &analysis, Observer::none())
    {
        if plan.retention().candidates() != candidates(&oracle.tf_walk(plan.rf())) {
            failures.push(format!("{label} rf={}: CDS is not the TF walk", plan.rf()));
        }
    }
    let empty = RetentionSet::empty();
    let rf_max = max_common_rf(
        app,
        sched,
        &oracle.lifetimes,
        &empty,
        FootprintModel::Replacement,
        oracle.fbs,
    )
    .unwrap_or(0);
    // Per configuration: rungs, expansions, prunes and proven rungs.
    let mut totals = [[0u64; 4]; ORACLE_SEARCHES.len()];
    for rf in 1..=rf_max.min(ORACLE_MAX_RF) {
        let seed = oracle.tf_walk(rf);
        let seed_gain = oracle.gain(&seed);
        let optimum = oracle.optimum(rf, seed_gain);
        for ((beam_width, max_expansions), total) in ORACLE_SEARCHES.into_iter().zip(&mut totals) {
            let config = SearchConfig {
                beam_width,
                max_expansions,
            };
            let (outcome, proven) = oracle.search(rf, &seed, &config);
            let point = format!("{label} rf={rf} search:{beam_width}:{max_expansions}");
            if outcome.gain < seed_gain {
                failures.push(format!(
                    "{point}: gains {} < the TF walk's {seed_gain}",
                    outcome.gain
                ));
            }
            if proven && outcome.gain != optimum {
                failures.push(format!(
                    "{point}: proven optimal at {}, the optimum is {optimum}",
                    outcome.gain
                ));
            }
            if outcome.gain != oracle.gain(&outcome.accept) || !oracle.fits(&outcome.accept, rf) {
                failures.push(format!(
                    "{point}: returned an infeasible or misreported mask"
                ));
            }
            let stats = outcome.stats;
            for (sum, add) in
                total
                    .iter_mut()
                    .zip([1, stats.expansions, stats.prunes, u64::from(proven)])
            {
                *sum += add;
            }
        }
        let (beam1, _) = oracle.search(
            rf,
            &seed,
            &SearchConfig {
                beam_width: 1,
                max_expansions: 0,
            },
        );
        if beam1.accept != seed {
            failures.push(format!("{label} rf={rf} search:1: is not the TF walk"));
        }
    }
    for ((beam_width, max_expansions), total) in ORACLE_SEARCHES.into_iter().zip(totals).take(2) {
        let kind = SchedulerKind::Search {
            beam_width,
            max_expansions,
        };
        let metrics = MetricsRegistry::new();
        let observer = Observer::new(None, Some(&metrics));
        let Ok(plan) = kind.plan_observed(app, sched, arch, &config, &analysis, observer) else {
            continue;
        };
        if !oracle.fits(&oracle_mask(&oracle, plan.retention()), plan.rf()) {
            failures.push(format!(
                "{label} {kind}: retention overflows at rf={}",
                plan.rf()
            ));
        }
        let counters = [
            "search.rungs",
            "search.expansions",
            "search.prunes",
            "search.rungs_proven",
        ]
        .map(|name| metrics.get(name).unwrap_or(0));
        if rf_max <= ORACLE_MAX_RF && counters != total {
            failures.push(format!(
                "{label} {kind}: rungs, expansions, prunes, proven {counters:?}, \
                 the oracle's {total:?}"
            ));
        }
    }
    failures
}

/// `retention`'s candidates as a mask over the oracle's ranking.
fn oracle_mask(oracle: &SearchOracle<'_>, retention: &RetentionSet) -> Vec<bool> {
    oracle
        .ranked
        .iter()
        .map(|c| retention.candidates().contains(c))
        .collect()
}

fn assert_search_oracle(
    inputs: impl IntoIterator<Item = (String, Application, ClusterSchedule, ArchParams)>,
) {
    let failures: Vec<String> = inputs
        .into_iter()
        .flat_map(|(label, app, sched, arch)| search_oracle_failures(&label, &app, &sched, &arch))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn config_strategy() -> impl Strategy<Value = (u64, SyntheticConfig)> {
    config_strategy_with(2..6)
}

fn config_strategy_with(
    clusters: std::ops::Range<usize>,
) -> impl Strategy<Value = (u64, SyntheticConfig)> {
    (
        any::<u64>(),
        clusters,
        1usize..4,
        16u64..200,
        0.0f64..1.0,
        0.0f64..1.0,
        4u64..20,
    )
        .prop_map(|(seed, clusters, kmax, dmax, share, cross, iters)| {
            (
                seed,
                SyntheticConfig {
                    clusters,
                    kernels_per_cluster: (1, kmax),
                    data_words: (16, dmax.max(17)),
                    share_probability: share,
                    cross_probability: cross,
                    contexts: 128,
                    exec_cycles: (50, 500),
                    iterations: iters,
                },
            )
        })
}

/// The closed-form `DS_RF(C_c)` equals [`walk_peak`] at every RF up to
/// the iteration count, under both footprint models, with and without
/// cross-set access, for the empty set and every TF-ordered prefix of
/// the sharing candidates; and `max_common_rf` is the largest RF the
/// walk admits.
fn closed_form_matches_walk(app: &Application, sched: &ClusterSchedule) {
    let lt = Lifetimes::analyze(app, sched);
    let iterations = app.iterations();
    for cross in [false, true] {
        let mut ranked = find_candidates_with(app, sched, &lt, cross);
        ranked.sort_by(|a, b| b.tf().total_cmp(&a.tf()));
        for len in 0..=ranked.len() {
            let mut retention = RetentionSet::empty();
            for cand in &ranked[..len] {
                retention.add(cand.clone());
            }
            for model in [FootprintModel::Replacement, FootprintModel::NoReplacement] {
                // walk[rf - 1][cluster]
                let mut walk = Vec::new();
                for rf in 1..=iterations {
                    let mut peaks = Vec::new();
                    for cl in sched.clusters() {
                        let c = cl.id();
                        let oracle = walk_peak(app, sched, &lt, &retention, c, rf, model);
                        let closed = cluster_peak(app, sched, &lt, &retention, c, rf, model);
                        assert_eq!(
                            closed,
                            oracle,
                            "{} x{iterations} {c} rf={rf} {model:?} set of {len}",
                            app.name()
                        );
                        peaks.push(oracle);
                    }
                    walk.push(peaks);
                }
                for fbs in [256, 1024, 2048, 4096, 8192].map(Words::new) {
                    let admitted = (1..=iterations)
                        .take_while(|&rf| walk[rf as usize - 1].iter().all(|&p| p <= fbs))
                        .last();
                    assert_eq!(
                        max_common_rf(app, sched, &lt, &retention, model, fbs),
                        admitted,
                        "{} x{iterations} fbs={fbs} {model:?} set of {len}",
                        app.name()
                    );
                }
            }
        }
    }
}

/// Every scheduler a plan report is checked under: the paper's three,
/// the default search, a width-1 beam (greedy CDS under the search's
/// name) and the search of `BENCH_search.json`'s committed grid.
const REPORT_KINDS: [&str; 6] = [
    "basic",
    "ds",
    "cds",
    "search",
    "search:1",
    "search:32:100000",
];

/// The report oracle: every plan's report must be the simulation of
/// its own ops, since every consumer reads the report the plan shares
/// with the rung memo. Each (cross-set access, FB size, scheduler)
/// point is planned from scratch and through one analysis that a pass
/// at a 64 K-word Frame Buffer and every point before it warmed, so the
/// warm plan reads rungs that other FB sizes, schedulers and cross-set
/// settings memoized, as serve's analysis cache hands them out. Both
/// must agree on feasibility, RF, retention, stages, ops and report.
/// Returns the failures.
fn plan_report_failures(
    label: &str,
    app: &Application,
    sched: &ClusterSchedule,
    fb_words: &[u64],
) -> Vec<String> {
    let config = SchedulerConfig::default();
    let kinds = REPORT_KINDS.map(|k| k.parse::<SchedulerKind>().expect("parses"));
    let arch = |words: u64, cross: bool| {
        ArchParams::m1_with_fb(Words::new(words))
            .to_builder()
            .fb_cross_set_access(cross)
            .build()
    };
    let warm = ScheduleAnalysis::new(app, sched);
    for (cross, kind) in [false, true]
        .into_iter()
        .flat_map(|c| kinds.map(|k| (c, k)))
    {
        let roomy = arch(1 << 16, cross);
        let _ = kind.plan_observed(app, sched, &roomy, &config, &warm, Observer::none());
    }
    let mut failures = Vec::new();
    for cross in [false, true] {
        for &words in fb_words {
            let arch = arch(words, cross);
            for kind in kinds {
                let point = format!("{label}@{words}w cross={cross} {kind}");
                let scratch = kind.plan(app, sched, &arch);
                let warmed =
                    kind.plan_observed(app, sched, &arch, &config, &warm, Observer::none());
                let (scratch, warmed) = match (scratch, warmed) {
                    (Ok(scratch), Ok(warmed)) => (scratch, warmed),
                    (Err(_), Err(_)) => continue,
                    (scratch, warmed) => {
                        failures.push(format!(
                            "{point}: feasibility differs: scratch {:?}, warm {:?}",
                            scratch.err(),
                            warmed.err()
                        ));
                        continue;
                    }
                };
                let simulated = Simulator::new(arch)
                    .run(scratch.ops())
                    .expect("planned ops simulate");
                if scratch.report() != &simulated {
                    failures.push(format!("{point}: the report is not its ops' simulation"));
                }
                let parts = |p: &SchedulePlan| {
                    (
                        p.rf(),
                        p.retention().candidates().to_vec(),
                        p.stages().to_vec(),
                        p.ops().clone(),
                        p.report().clone(),
                    )
                };
                if parts(&warmed) != parts(&scratch) {
                    failures.push(format!("{point}: the warm plan differs from scratch"));
                }
            }
        }
    }
    failures
}

/// The report oracle over the catalog at 1, 8 and 48 iterations, at
/// the FB sizes of `mcds search-bench` (MPEG's Basic is infeasible at
/// 1 K words).
#[test]
fn a_plans_report_is_its_simulation_on_the_catalog() {
    let mut failures = Vec::new();
    for name in mcds_workloads::mix::CATALOG {
        for iterations in [1, 8, 48] {
            let (app, sched) = mcds_workloads::mix::by_name(name, iterations).expect("catalog");
            let label = format!("{name} x{iterations}");
            failures.extend(plan_report_failures(
                &label,
                &app,
                &sched,
                &[1024, 2048, 3072, 8192],
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The catalog workloads reach what the synthetic family does not:
/// under cross-set access MPEG retains `qmat` on the other set, whose
/// skipped load is charged there, not on the reader's set.
#[test]
fn closed_form_footprint_matches_walk_on_the_catalog() {
    for name in ["e1", "e2", "e3", "mpeg", "atr-sld", "atr-fi"] {
        for iterations in [1, 5, 16] {
            let (app, sched) = mcds_workloads::mix::by_name(name, iterations).expect("catalog");
            closed_form_matches_walk(&app, &sched);
        }
    }
}

/// `mcds search-bench`'s high-sharing family at its two FB sizes, with
/// cross-set access off and on.
#[test]
fn search_oracle_on_high_sharing_synthetics() {
    let config = SyntheticConfig {
        clusters: 6,
        share_probability: 0.9,
        cross_probability: 0.6,
        data_words: (64, 512),
        ..SyntheticConfig::default()
    };
    assert_search_oracle((1..=12).flat_map(|seed| {
        let (app, sched) = SyntheticGenerator::new(seed)
            .generate(&config)
            .expect("valid");
        [1, 2].into_iter().flat_map(move |kw| {
            let (app, sched) = (app.clone(), sched.clone());
            [false, true].map(move |cross| {
                let arch = ArchParams::m1_with_fb(Words::kilo(kw))
                    .to_builder()
                    .fb_cross_set_access(cross)
                    .build();
                (
                    format!("synthetic-{seed}@{kw}K cross={cross}"),
                    app.clone(),
                    sched.clone(),
                    arch,
                )
            })
        })
    }));
}

/// The knapsack trap across the window where greedy's TF order loses,
/// with cross-set access off and on.
#[test]
fn search_oracle_on_the_knapsack_trap() {
    let (app, sched) = knapsack_trap(60, 40, 150, 10, 4).expect("valid");
    assert_search_oracle((200..=320).step_by(10).flat_map(|fb| {
        let (app, sched) = (app.clone(), sched.clone());
        [false, true].map(move |cross| {
            let arch = ArchParams::m1_with_fb(Words::new(fb))
                .to_builder()
                .fb_cross_set_access(cross)
                .build();
            (
                format!("trap@{fb}w cross={cross}"),
                app.clone(),
                sched.clone(),
                arch,
            )
        })
    }));
}

/// The catalog at 1, 2 and 8 iterations over the FB sizes of
/// `mcds search-bench`, with cross-set access off and on.
#[test]
fn search_oracle_on_the_catalog() {
    let mut inputs = Vec::new();
    for name in mcds_workloads::mix::CATALOG {
        for iterations in [1, 2, 8] {
            let (app, sched) = mcds_workloads::mix::by_name(name, iterations).expect("catalog");
            for kw in [1, 2, 3, 8] {
                for cross in [false, true] {
                    let arch = ArchParams::m1_with_fb(Words::kilo(kw))
                        .to_builder()
                        .fb_cross_set_access(cross)
                        .build();
                    let label = format!("{name} x{iterations}@{kw}K cross={cross}");
                    inputs.push((label, app.clone(), sched.clone(), arch));
                }
            }
        }
    }
    assert_search_oracle(inputs);
}

/// An input where the retained words of one set sum past FBS while no
/// cluster's `DS(C_c)` does: a search that also requires the per-set
/// sum to fit cuts a mask the paper accepts.
#[test]
fn search_oracle_where_set_sums_exceed_fbs() {
    let config = SyntheticConfig {
        clusters: 8,
        kernels_per_cluster: (1, 2),
        data_words: (16, 128),
        share_probability: 1.0,
        cross_probability: 0.9,
        ..SyntheticConfig::default()
    };
    let (app, sched) = SyntheticGenerator::new(603)
        .generate(&config)
        .expect("valid");
    assert_search_oracle([false, true].map(|cross| {
        let arch = ArchParams::m1_with_fb(Words::new(384))
            .to_builder()
            .fb_cross_set_access(cross)
            .build();
        (
            format!("synthetic-603@384w cross={cross}"),
            app.clone(),
            sched.clone(),
            arch,
        )
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 3: T_cds <= T_ds <= T_basic whenever all three run.
    #[test]
    fn dominance((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(4));
        let basic = SchedulerKind::Basic.plan(&app, &sched, &arch);
        let ds = SchedulerKind::Ds.plan(&app, &sched, &arch);
        let cds = SchedulerKind::Cds.plan(&app, &sched, &arch);
        if let (Ok(b), Ok(d), Ok(c)) = (basic, ds, cds) {
            let (tb, td, tc) = (b.report().total(), d.report().total(), c.report().total());
            prop_assert!(td <= tb, "ds {td} > basic {tb}");
            prop_assert!(tc <= td, "cds {tc} > ds {td}");
        }
    }

    /// Invariant 2: the paper's analytic DS(C_c) equals the closed-form
    /// peak at rf=1 without retention, and the Basic model's peak is
    /// never below it.
    #[test]
    fn footprint_formula_consistency((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let empty = RetentionSet::empty();
        for c in sched.clusters() {
            let peak = cluster_peak(
                &app, &sched, &lt, &empty, c.id(), 1, FootprintModel::Replacement,
            );
            let formula = ds_formula(&app, &sched, &lt, c.id());
            prop_assert_eq!(peak, formula, "cluster {}", c.id());
            let basic = cluster_peak(
                &app, &sched, &lt, &empty, c.id(), 1, FootprintModel::NoReplacement,
            );
            prop_assert!(basic >= peak, "replacement can only shrink the peak");
        }
    }

    /// The closed-form footprint and RF search agree with the walk on
    /// random structures. Five or more clusters let retained objects
    /// pass through a same-set cluster.
    #[test]
    fn closed_form_footprint_matches_walk((seed, cfg) in config_strategy_with(2..9)) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        closed_form_matches_walk(&app, &sched);
    }

    /// Invariant 5: enlarging the Frame Buffer never slows any
    /// scheduler down, and the *maximum feasible* RF is non-decreasing
    /// in FB size. (The RF a plan actually picks is argmin over
    /// execution time and need not be monotone.)
    #[test]
    fn memory_monotonicity((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let small = ArchParams::m1_with_fb(Words::kilo(2));
        let large = ArchParams::m1_with_fb(Words::kilo(8));
        let at = |arch: &ArchParams| {
            SchedulerKind::Ds.plan(&app, &sched, arch).ok().map(|p| p.report().total())
        };
        if let (Some(t_s), Some(t_l)) = (at(&small), at(&large)) {
            prop_assert!(t_l <= t_s, "more memory slowed execution: {t_s} -> {t_l}");
        }
        let lt = Lifetimes::analyze(&app, &sched);
        let empty = RetentionSet::empty();
        let rf_at = |fbs: Words| mcds_core::max_common_rf(
            &app, &sched, &lt, &empty, FootprintModel::Replacement, fbs,
        );
        if let (Some(rf_s), Some(rf_l)) = (rf_at(Words::kilo(2)), rf_at(Words::kilo(8))) {
            prop_assert!(rf_l >= rf_s, "max rf shrank with memory: {rf_s} -> {rf_l}");
        }
    }

    /// Invariant 1/6: when the footprint model says a plan fits, the
    /// actual §5 allocation walk succeeds within the same capacity.
    #[test]
    fn footprint_admits_allocation((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let empty = RetentionSet::empty();
        let fbs = Words::kilo(4);
        for rf in [1u64, 2, 3] {
            if rf > app.iterations() {
                continue;
            }
            if all_fit(&app, &sched, &lt, &empty, rf, FootprintModel::Replacement, fbs) {
                let walk = AllocationWalk::new(
                    &app, &sched, &lt, &empty, rf, fbs, FootprintModel::Replacement,
                );
                let report = walk.run(2, false);
                prop_assert!(report.is_ok(), "rf={rf}: walk failed: {report:?}");
            }
        }
    }

    /// Sweep memoization: the cached sharing candidates of
    /// [`ScheduleAnalysis`] equal their freshly computed counterpart.
    #[test]
    fn memoized_invariants_match_fresh((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let lt = Lifetimes::analyze(&app, &sched);
        for cross in [false, true] {
            prop_assert_eq!(
                analysis.sharing_candidates(&app, &sched, cross),
                &find_candidates_with(&app, &sched, &lt, cross)[..]
            );
        }
    }

    /// Trace contract: retention decisions stream in non-increasing TF
    /// order (the §4 greedy visits candidates best-first), every
    /// *accepted* event satisfies its recorded DS(C_c) <= FBS, and
    /// every *rejected* event cites a genuinely violated constraint.
    #[test]
    fn retention_events_are_tf_ordered_and_feasible((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(2));
        let analysis = ScheduleAnalysis::new(&app, &sched);
        let sink = VecSink::new();
        let observer = Observer::new(Some(&sink), None);
        if SchedulerKind::Cds
            .plan_observed(&app, &sched, &arch, &SchedulerConfig::default(), &analysis, observer)
            .is_ok()
        {
            let mut last_tf = f64::INFINITY;
            for ev in sink.take() {
                match ev {
                    Event::RetentionAccepted { name, tf, ds, fbs, .. } => {
                        prop_assert!(tf <= last_tf, "TF order violated at {name}: {tf} after {last_tf}");
                        prop_assert!(ds <= fbs, "accepted {name} leaves DS {ds} > FBS {fbs}");
                        last_tf = tf;
                    }
                    Event::RetentionRejected { name, tf, ds, fbs, .. } => {
                        prop_assert!(tf <= last_tf, "TF order violated at {name}: {tf} after {last_tf}");
                        prop_assert!(ds > fbs, "rejected {name} cites no violation: DS {ds} <= FBS {fbs}");
                        last_tf = tf;
                    }
                    _ => {}
                }
            }
        }
    }

    /// The report oracle over random structures of two to eight
    /// clusters, at Frame Buffers from tight (where Basic and some RFs
    /// do not fit) to roomy.
    #[test]
    fn a_plans_report_is_its_simulation((seed, cfg) in config_strategy_with(2..9)) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let failures = plan_report_failures("random", &app, &sched, &[256, 512, 1024, 4096]);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    /// Retention set feasibility: whatever the CDS retains still fits
    /// every cluster at the chosen RF, and the retained volume matches
    /// the DT metric.
    #[test]
    fn retention_stays_feasible((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(4));
        if let Ok(plan) = SchedulerKind::Cds.plan(&app, &sched, &arch) {
            let lt = Lifetimes::analyze(&app, &sched);
            prop_assert!(all_fit(
                &app, &sched, &lt, plan.retention(), plan.rf(),
                FootprintModel::Replacement, arch.fb_set_words(),
            ));
            let sum: Words = plan
                .retention()
                .candidates()
                .iter()
                .map(|c| c.avoided_per_iter())
                .sum();
            prop_assert_eq!(sum, plan.dt_avoided_per_iter());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The search oracle over random structures at small Frame Buffers,
    /// where retention verdicts are tight. Up to eleven clusters give
    /// up to about a dozen candidates.
    #[test]
    fn search_oracle_on_random_synthetics(
        (seed, cfg) in config_strategy_with(2..12),
        fb in 256u64..2048,
        cross in any::<bool>(),
    ) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::new(fb))
            .to_builder()
            .fb_cross_set_access(cross)
            .build();
        let failures = search_oracle_failures("random", &app, &sched, &arch);
        prop_assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
