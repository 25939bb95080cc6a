//! Integration tests for the §7 future-work extension: retention
//! across Frame Buffer sets on a dual-ported FB
//! (`ArchParams::fb_cross_set_access`).

use mcds_core::{generate_program, Comparison, SchedulerKind};
use mcds_model::ArchParams;
use mcds_workloads::mpeg::{mpeg_app, mpeg_schedule};
use mcds_workloads::table1::table1_experiments;

fn dual(arch: &ArchParams) -> ArchParams {
    arch.to_builder().fb_cross_set_access(true).build()
}

/// The dual-ported FB never makes any Table 1 experiment slower, and
/// strictly helps wherever cross-set sharing exists.
#[test]
fn dual_port_dominates_m1_on_every_experiment() {
    let mut strictly_better = 0;
    for e in table1_experiments() {
        let m1 = SchedulerKind::Cds
            .plan(&e.app, &e.sched, &e.arch)
            .expect("fits");
        let dual_arch = dual(&e.arch);
        let ext = SchedulerKind::Cds
            .plan(&e.app, &e.sched, &dual_arch)
            .expect("fits");
        let (t_m1, t_ext) = (m1.report(), ext.report());
        assert!(
            t_ext.total() <= t_m1.total(),
            "{}: dual-ported FB slowed execution",
            e.name
        );
        assert!(
            ext.dt_avoided_per_iter() >= m1.dt_avoided_per_iter(),
            "{}",
            e.name
        );
        if t_ext.total() < t_m1.total() {
            strictly_better += 1;
        }
    }
    assert!(
        strictly_better >= 6,
        "cross-set retention must strictly help the MPEG/ATR rows, helped {strictly_better}"
    );
}

/// On MPEG the quantisation matrix (shared by Q and IQ across sets)
/// becomes retainable.
#[test]
fn mpeg_qmat_retained_cross_set() {
    let app = mpeg_app(24).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let arch = dual(&ArchParams::m1_with_fb(mcds_model::Words::kilo(2)));
    let plan = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
    let names: Vec<&str> = plan
        .retention()
        .candidates()
        .iter()
        .map(|c| app.data_object(c.data()).name())
        .collect();
    assert!(names.contains(&"qmat"), "retained: {names:?}");
    assert!(
        plan.retention()
            .candidates()
            .iter()
            .any(|c| c.is_cross_set()),
        "at least one retention must span sets"
    );
    // The allocation walk placed everything without splits.
    assert_eq!(plan.allocation().splits(), 0);
}

/// Scheduler dominance still holds under the extension, and the code
/// generator handles cross-set plans.
#[test]
fn dominance_and_codegen_under_extension() {
    let app = mpeg_app(16).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let arch = dual(&ArchParams::m1_with_fb(mcds_model::Words::kilo(2)));
    let cmp = Comparison::run(&app, &sched, &arch);
    let basic = cmp.basic.as_ref().expect("feasible");
    let ds = cmp.ds.as_ref().expect("feasible");
    let cds_plan = cmp.cds.as_ref().expect("feasible");
    assert!(ds.report().total() <= basic.report().total());
    assert!(cds_plan.report().total() <= ds.report().total());

    let prog = generate_program(&app, &sched, cds_plan).expect("generates");
    // The retained qmat must not be re-DMAed in the steady round at its
    // skipper stages: count DmaIns for it.
    let qmat = app
        .data()
        .iter()
        .find(|d| d.name() == "qmat")
        .expect("exists")
        .id();
    let qmat_ins = prog
        .steady()
        .iter()
        .filter(|op| matches!(op, mcds_core::CodeOp::DmaIn { data, .. } if *data == qmat))
        .count();
    // One load per round (by the holder cluster) at most, per slot.
    assert!(
        qmat_ins as u64 <= cds_plan.rf(),
        "qmat loaded {qmat_ins} times in one round (rf = {})",
        cds_plan.rf()
    );
}
