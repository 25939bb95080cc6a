//! Cross-crate scheduler invariants, property-tested over random
//! workloads (invariants 1–6 of DESIGN.md).

use mcds_core::{
    all_fit, cluster_peak, ds_formula, evaluate, find_candidates_with, max_common_rf,
    AllocationWalk, BasicScheduler, CdsScheduler, DataScheduler, DsScheduler, Event,
    FootprintModel, Lifetimes, Observer, RetentionSet, ScheduleAnalysis, VecSink,
};
use mcds_model::{Application, ArchParams, ClusterId, ClusterSchedule, Words};
use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 3: T_cds <= T_ds <= T_basic whenever all three run.
    #[test]
    fn dominance((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(4));
        let basic = BasicScheduler::new().plan(&app, &sched, &arch);
        let ds = DsScheduler::new().plan(&app, &sched, &arch);
        let cds = CdsScheduler::new().plan(&app, &sched, &arch);
        if let (Ok(b), Ok(d), Ok(c)) = (basic, ds, cds) {
            let tb = evaluate(&b, &arch).expect("runs").total();
            let td = evaluate(&d, &arch).expect("runs").total();
            let tc = evaluate(&c, &arch).expect("runs").total();
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
        let at = |arch: &ArchParams| DsScheduler::new().plan(&app, &sched, arch).ok().map(|p| {
            evaluate(&p, arch).expect("runs").total()
        });
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
        if CdsScheduler::new()
            .plan_observed(&app, &sched, &arch, &analysis, observer)
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

    /// Retention set feasibility: whatever the CDS retains still fits
    /// every cluster at the chosen RF, and the retained volume matches
    /// the DT metric.
    #[test]
    fn retention_stays_feasible((seed, cfg) in config_strategy()) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(4));
        if let Ok(plan) = CdsScheduler::new().plan(&app, &sched, &arch) {
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
