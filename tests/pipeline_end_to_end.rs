//! End-to-end integration: information extraction → kernel scheduling →
//! context scheduling → data scheduling → allocation → simulation, all
//! driven through the public APIs of the workspace crates.

use mcds_core::{Comparison, SchedulerKind};
use mcds_ksched::{KernelScheduler, SearchStrategy};
use mcds_model::{ApplicationBuilder, ArchParams, Cycles, DataKind, Words};
use mcds_workloads::mpeg::{mpeg_app, mpeg_schedule};
use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};

/// The full compilation pipeline on a hand-written application, letting
/// the kernel scheduler pick the clusters.
#[test]
fn full_pipeline_with_kernel_scheduler() {
    let mut b = ApplicationBuilder::new("dsp-chain");
    let coeffs = b.data("coeffs", Words::new(96), DataKind::ExternalInput);
    let mut carry = b.data("input", Words::new(160), DataKind::ExternalInput);
    for i in 0..5 {
        let kind = if i == 4 {
            DataKind::FinalResult
        } else {
            DataKind::Intermediate
        };
        let out = b.data(format!("s{i}"), Words::new(160), kind);
        let inputs = if i % 2 == 0 {
            vec![carry, coeffs]
        } else {
            vec![carry]
        };
        b.kernel(format!("stage{i}"), 128, Cycles::new(220), &inputs, &[out]);
        carry = out;
    }
    let app = b.iterations(32).build().expect("valid app");
    let arch = ArchParams::m1();

    // Kernel scheduler explores partitions.
    let sched = KernelScheduler::new(SearchStrategy::Exhaustive)
        .schedule(&app, &arch)
        .expect("feasible partition exists");

    // All three data schedulers produce valid plans that simulate.
    let basic = SchedulerKind::Basic
        .plan(&app, &sched, &arch)
        .expect("basic plan");
    let ds = SchedulerKind::Ds
        .plan(&app, &sched, &arch)
        .expect("ds plan");
    let cds = SchedulerKind::Cds
        .plan(&app, &sched, &arch)
        .expect("cds plan");

    let (t_basic, t_ds, t_cds) = (basic.report(), ds.report(), cds.report());

    assert!(t_ds.total() <= t_basic.total());
    assert!(t_cds.total() <= t_ds.total());

    // Conservation: every scheduler moves the final results out.
    let finals: Words = app
        .data()
        .iter()
        .filter(|d| d.kind() == DataKind::FinalResult)
        .map(|d| d.size() * app.iterations())
        .sum();
    for report in [t_basic, t_ds, t_cds] {
        assert!(report.data_words_stored() >= finals);
    }
}

/// The MPEG pipeline through `Comparison`, checking the sim-level
/// accounting against the plan-level accounting.
#[test]
fn plan_and_simulation_volumes_agree() {
    let app = mpeg_app(24).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let arch = ArchParams::m1_with_fb(Words::kilo(2));
    let cmp = Comparison::run(&app, &sched, &arch);
    for result in [&cmp.basic, &cmp.ds, &cmp.cds] {
        let plan = result.as_ref().expect("feasible at 2K");
        let report = plan.report();
        assert_eq!(
            plan.total_data_words(),
            report.data_words_total(),
            "{}: plan and simulator disagree on data volume",
            plan.scheduler()
        );
        assert_eq!(plan.total_context_words(), report.context_words_loaded());
        assert_eq!(plan.ops().data_words_loaded(), report.data_words_loaded());
    }
}

/// Retention reduces simulated traffic by exactly the avoided volume.
#[test]
fn cds_traffic_reduction_matches_dt() {
    let app = mpeg_app(24).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let arch = ArchParams::m1_with_fb(Words::kilo(2));
    let cmp = Comparison::run(&app, &sched, &arch);
    let ds_plan = cmp.ds.as_ref().expect("feasible");
    let cds_plan = cmp.cds.as_ref().expect("feasible");
    if cds_plan.rf() == ds_plan.rf() {
        let saved = ds_plan.report().data_words_total() - cds_plan.report().data_words_total();
        assert_eq!(
            saved,
            cds_plan.dt_avoided_per_iter() * app.iterations(),
            "traffic saved must equal DT × iterations"
        );
    }
}

/// Random applications survive the full pipeline across many seeds.
#[test]
fn synthetic_sweep_end_to_end() {
    for seed in 0..30 {
        let cfg = SyntheticConfig {
            clusters: 5,
            iterations: 12,
            ..SyntheticConfig::default()
        };
        let (app, sched) = SyntheticGenerator::new(seed)
            .generate(&cfg)
            .expect("generator emits valid apps");
        let arch = ArchParams::m1_with_fb(Words::kilo(4));
        let cmp = Comparison::run(&app, &sched, &arch);
        let basic = cmp.basic.as_ref().expect("4K fits default sizes").report();
        let ds_plan = cmp.ds.as_ref().expect("ds");
        let cds_plan = cmp.cds.as_ref().expect("cds");
        let (ds, cds) = (ds_plan.report(), cds_plan.report());
        assert!(ds.total() <= basic.total(), "seed {seed}");
        assert!(cds.total() <= ds.total(), "seed {seed}");
        assert!(ds_plan.rf() >= 1);
        // Random workloads may fragment (splitting is the allocator's
        // legal last resort); it must stay rare relative to the number
        // of placements.
        let alloc = cds_plan.allocation();
        assert!(
            alloc.splits() * 10 <= alloc.allocs(),
            "seed {seed}: {} splits out of {} allocations",
            alloc.splits(),
            alloc.allocs()
        );
    }
}
