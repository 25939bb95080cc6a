//! §6 allocation-quality claims: "the memory size used is the minimum
//! allowed by the architecture", "for all examples no data or result
//! has to be split into several parts", and the placement "promotes
//! regularity".

use mcds_core::{
    cluster_peak, AllocationWalk, Event, FootprintModel, Lifetimes, Observer, Pipeline,
    RetentionSet, SchedulerKind, VecSink,
};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
use mcds_workloads::table1::table1_experiments;
use proptest::prelude::*;

/// No experiment's allocation ever splits an object across free blocks.
#[test]
fn no_splits_in_any_experiment() {
    for e in table1_experiments() {
        let plan = match SchedulerKind::Cds.plan(&e.app, &e.sched, &e.arch) {
            Ok(p) => p,
            Err(err) => panic!("{}: CDS must run: {err}", e.name),
        };
        assert_eq!(
            plan.allocation().splits(),
            0,
            "{}: split allocations",
            e.name
        );
    }
}

/// Allocator peaks stay within the Frame Buffer and within the analytic
/// footprint bound of the worst cluster.
#[test]
fn peaks_bounded_by_analysis() {
    for e in table1_experiments() {
        let plan = SchedulerKind::Cds
            .plan(&e.app, &e.sched, &e.arch)
            .expect("runs");
        let lt = Lifetimes::analyze(&e.app, &e.sched);
        let bound: Words = e
            .sched
            .clusters()
            .iter()
            .map(|c| {
                cluster_peak(
                    &e.app,
                    &e.sched,
                    &lt,
                    plan.retention(),
                    c.id(),
                    plan.rf(),
                    FootprintModel::Replacement,
                )
            })
            .max()
            .expect("non-empty");
        for peak in plan.allocation().peak() {
            assert!(
                peak <= e.arch.fb_set_words(),
                "{}: peak {peak} exceeds the set",
                e.name
            );
            assert!(
                peak <= bound,
                "{}: allocator peak {peak} exceeds analytic bound {bound}",
                e.name
            );
        }
    }
}

/// Regularity: across rounds, placements land on their previous
/// iteration's addresses (no irregular placements on the paper-scale
/// experiments).
#[test]
fn steady_state_placements_are_regular() {
    for e in table1_experiments() {
        let plan = SchedulerKind::Cds
            .plan(&e.app, &e.sched, &e.arch)
            .expect("runs");
        let report = plan.allocation();
        assert_eq!(
            report.irregular(),
            0,
            "{}: {} irregular placements",
            e.name,
            report.irregular()
        );
        // At least one full extra round was walked, so regular hits
        // must have occurred.
        assert!(
            report.regular_hits() > 0,
            "{}: no regular placements",
            e.name
        );
    }
}

/// The allocation walk is deterministic: two runs produce identical
/// reports.
#[test]
fn allocation_walk_is_deterministic() {
    let e = &table1_experiments()[0];
    let plan = SchedulerKind::Cds
        .plan(&e.app, &e.sched, &e.arch)
        .expect("runs");
    let lt = Lifetimes::analyze(&e.app, &e.sched);
    let run = || {
        AllocationWalk::new(
            &e.app,
            &e.sched,
            &lt,
            plan.retention(),
            plan.rf(),
            e.arch.fb_set_words(),
            FootprintModel::Replacement,
        )
        .run(2, false)
        .expect("fits")
    };
    assert_eq!(run(), run());
}

/// Without retention the walk needs no more memory than with the
/// no-replacement model — replacement frees space, retention fills it
/// deliberately.
#[test]
fn replacement_only_shrinks_requirements() {
    for e in table1_experiments().iter().take(6) {
        let lt = Lifetimes::analyze(&e.app, &e.sched);
        let empty = RetentionSet::empty();
        let fbs = e.arch.fb_set_words();
        let repl = AllocationWalk::new(
            &e.app,
            &e.sched,
            &lt,
            &empty,
            1,
            fbs,
            FootprintModel::Replacement,
        )
        .run(1, false);
        let basic = AllocationWalk::new(
            &e.app,
            &e.sched,
            &lt,
            &empty,
            1,
            fbs,
            FootprintModel::NoReplacement,
        )
        .run(1, false);
        let repl = repl.expect("replacement fits wherever the schedulers ran");
        if let Ok(basic) = basic {
            for (r, b) in repl.peak().iter().zip(basic.peak()) {
                assert!(*r <= b, "{}: replacement peak above basic peak", e.name);
            }
        }
    }
}

/// The planners whose walks the observation tests replay.
fn walk_schedulers() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Basic,
        SchedulerKind::Ds,
        SchedulerKind::Cds,
        SchedulerKind::search_default(),
    ]
}

/// Plans `app` with `kind` and checks that attaching a sink to the
/// chosen plan's allocation walk changes nothing it decides. Returns
/// whether the point was feasible.
fn check_planned_walk(
    app: &Application,
    sched: &ClusterSchedule,
    arch: ArchParams,
    kind: SchedulerKind,
    what: &str,
) -> bool {
    let Ok(run) = Pipeline::new(app.clone())
        .schedule(sched.clone())
        .arch(arch)
        .scheduler(kind)
        .run()
    else {
        return false;
    };
    let plan = run.plan();
    let model = if matches!(kind, SchedulerKind::Basic) {
        FootprintModel::NoReplacement
    } else {
        FootprintModel::Replacement
    };
    assert_sink_changes_nothing(
        app,
        sched,
        plan.retention(),
        plan.rf(),
        arch.fb_set_words(),
        model,
        what,
    );
    true
}

/// An attached sink is the one thing that makes an untraced walk build
/// its `name#slot` labels, so a walk must decide exactly the same with
/// and without one: the same report and placements from `run` and
/// `run_with_placements`, and the same occupancy maps from a traced
/// run (which labels its allocations either way).
fn assert_sink_changes_nothing(
    app: &Application,
    sched: &ClusterSchedule,
    retention: &RetentionSet,
    rf: u64,
    fbs: Words,
    model: FootprintModel,
    what: &str,
) {
    let lt = Lifetimes::analyze(app, sched);
    let walk = || AllocationWalk::new(app, sched, &lt, retention, rf, fbs, model);
    let sink = VecSink::new();
    let observed = || walk().observed(Observer::new(Some(&sink), None));

    let plain = walk().run(2, false);
    assert_eq!(plain, observed().run(2, false), "{what}: run");
    assert_eq!(
        walk().run_with_placements(2),
        observed().run_with_placements(2),
        "{what}: run_with_placements"
    );
    let traced = walk().run(2, true);
    assert_eq!(traced, observed().run(2, true), "{what}: traced run");

    let report = plain.expect("a planned walk fits");
    let traced = traced.expect("tracing changes no decision");
    assert_eq!(
        (
            traced.peak(),
            traced.splits(),
            traced.regular_hits(),
            traced.irregular(),
            traced.allocs()
        ),
        (
            report.peak(),
            report.splits(),
            report.regular_hits(),
            report.irregular(),
            report.allocs()
        ),
        "{what}: a traced walk decides like an untraced one"
    );
    assert!(
        report.maps().is_none(),
        "{what}: untraced walks draw no map"
    );
    let maps = traced.maps().expect("traced walks draw maps");
    assert!(maps.iter().all(|m| !m.is_empty()), "{what}: empty map");

    // The sink saw every allocation under its `name#slot` label.
    let labels: Vec<String> = sink
        .events()
        .into_iter()
        .filter_map(|event| match event {
            Event::FbAlloc { label, .. } => Some(label),
            _ => None,
        })
        .collect();
    assert!(!labels.is_empty(), "{what}: no allocation events");
    for label in &labels {
        let (name, slot) = label.rsplit_once('#').expect("name#slot label");
        assert!(
            app.data().iter().any(|d| d.name() == name) && slot.parse::<u64>().is_ok(),
            "{what}: malformed label {label}"
        );
    }
}

/// Observing an allocation walk never changes it: every Table-1
/// workload, under every scheduler, at the paper's Frame Buffer sizes.
#[test]
fn observed_walks_match_unobserved_over_the_table1_grid() {
    let mut feasible = 0;
    for e in table1_experiments() {
        for fb_kw in [1u64, 2, 3, 8] {
            let arch = ArchParams::m1_with_fb(Words::kilo(fb_kw));
            for kind in walk_schedulers() {
                let what = format!("{}/{kind}@{fb_kw}K", e.name);
                if check_planned_walk(&e.app, &e.sched, arch, kind, &what) {
                    feasible += 1;
                }
            }
        }
    }
    assert!(feasible > 0, "the grid has feasible points");
}

fn synthetic_strategy() -> impl Strategy<Value = (u64, SyntheticConfig)> {
    (
        any::<u64>(),
        2usize..6,
        1usize..4,
        16u64..200,
        0.0f64..1.0,
        4u64..20,
    )
        .prop_map(|(seed, clusters, kmax, dmax, share, iters)| {
            (
                seed,
                SyntheticConfig {
                    clusters,
                    kernels_per_cluster: (1, kmax),
                    data_words: (16, dmax.max(17)),
                    share_probability: share,
                    cross_probability: 0.5,
                    contexts: 128,
                    exec_cycles: (50, 500),
                    iterations: iters,
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same over random synthetic applications at a small and a
    /// large Frame Buffer.
    #[test]
    fn observed_walks_match_unobserved_on_synthetic_apps(
        (seed, cfg) in synthetic_strategy()
    ) {
        let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
        for fb_kw in [1u64, 4] {
            let arch = ArchParams::m1_with_fb(Words::kilo(fb_kw));
            for kind in walk_schedulers() {
                let what = format!("seed {seed}/{kind}@{fb_kw}K");
                check_planned_walk(&app, &sched, arch, kind, &what);
            }
        }
    }
}
