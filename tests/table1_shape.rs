//! The reproduction's headline claims: the *shape* of Table 1 and
//! Figure 6 holds — who wins, roughly by how much, and where the
//! feasibility boundary falls.

use mcds_bench::{measure, measure_all};
use mcds_core::{ScheduleError, SchedulerKind};
use mcds_model::{ArchParams, Words};
use mcds_workloads::mpeg::{mpeg_app, mpeg_schedule};
use mcds_workloads::table1::table1_experiments;

/// CDS never loses to DS, and DS never loses to Basic, on any row.
#[test]
fn figure6_ordering_holds_on_every_row() {
    for m in measure_all() {
        if let (Some(ds), Some(cds)) = (m.row.ds_improvement, m.row.cds_improvement) {
            assert!(ds >= -1e-9, "{}: DS slower than Basic ({ds})", m.row.name);
            assert!(
                cds >= ds - 1e-9,
                "{}: CDS ({cds}) lost to DS ({ds})",
                m.row.name
            );
        }
    }
}

/// Every measured RF is within ±2 of the paper's reported RF (where
/// legible), and the memory-sweep rows strictly increase RF.
#[test]
fn rf_values_track_the_paper() {
    let rows = measure_all();
    let rf = |name: &str| {
        rows.iter()
            .find(|m| m.row.name == name)
            .expect("row exists")
            .row
            .rf
    };
    assert_eq!(rf("E1"), 1);
    assert_eq!(rf("E1*"), 3);
    assert!((2..=5).contains(&rf("E2")), "E2 rf = {}", rf("E2"));
    assert!((9..=13).contains(&rf("E3")), "E3 rf = {}", rf("E3"));
    assert_eq!(rf("MPEG"), 2);
    assert!(rf("MPEG*") > rf("MPEG"));
    assert_eq!(rf("ATR-SLD"), 1);
    assert_eq!(rf("ATR-SLD*"), 1);
    assert_eq!(rf("ATR-SLD**"), 1);
    assert!(rf("ATR-FI*") > rf("ATR-FI"));
}

/// Where the paper reports a CDS improvement, our measured value is
/// within 15 percentage points (except ATR-SLD*, whose exact kernel
/// schedule is unpublished — we only require a large gap over DS
/// there).
#[test]
fn cds_improvements_are_paper_shaped() {
    for m in measure_all() {
        let (Some(paper), Some(ours)) = (m.paper_cds, m.row.cds_improvement) else {
            continue;
        };
        if m.row.name == "ATR-SLD*" {
            let ds = m.row.ds_improvement.expect("ds ran");
            assert!(
                ours - ds > 0.2,
                "ATR-SLD*: CDS must dominate DS by a wide margin ({ds} vs {ours})"
            );
            continue;
        }
        assert!(
            (ours - paper).abs() <= 0.15,
            "{}: measured CDS {ours:.2} vs paper {paper:.2}",
            m.row.name
        );
    }
}

/// RF = 1 rows show DS == Basic (the mechanism reproduced here gains
/// only through loop fission), and their CDS gains come purely from
/// retention.
#[test]
fn rf1_rows_separate_the_mechanisms() {
    for m in measure_all() {
        if m.row.rf == 1 {
            let ds = m.row.ds_improvement.expect("ds ran");
            assert!(
                ds.abs() < 1e-9,
                "{}: DS must equal Basic at RF=1, got {ds}",
                m.row.name
            );
        }
    }
}

/// §6: "Basic Scheduler cannot execute MPEG if memory size is 1K.
/// Whereas, the Data Scheduler and the Complete Data Scheduler achieve
/// MPEG execution with memory size less than 1K."
#[test]
fn mpeg_feasibility_boundary() {
    let app = mpeg_app(8).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let at_1k = ArchParams::m1_with_fb(Words::kilo(1));
    assert!(matches!(
        SchedulerKind::Basic.plan(&app, &sched, &at_1k),
        Err(ScheduleError::Infeasible { .. })
    ));
    // DS/CDS run even slightly below 1K.
    let under_1k = ArchParams::m1_with_fb(Words::new(1000));
    let cmp = mcds_core::Comparison::run(&app, &sched, &under_1k);
    assert!(cmp.ds.is_ok(), "DS must run below 1K");
    assert!(cmp.cds.is_ok(), "CDS must run below 1K");
}

/// DT: the CDS's avoided traffic matches the workload design — large
/// for ATR-SLD (templates), small for ATR-FI.
#[test]
fn dt_magnitudes() {
    let rows = measure_all();
    let dt = |name: &str| {
        rows.iter()
            .find(|m| m.row.name == name)
            .expect("row exists")
            .row
            .dt_avoided
    };
    assert!(
        dt("ATR-SLD*") >= Words::kilo(6),
        "ATR-SLD* DT = {}",
        dt("ATR-SLD*")
    );
    assert!(
        dt("ATR-FI") <= Words::new(512),
        "ATR-FI DT = {}",
        dt("ATR-FI")
    );
    assert!(dt("E1") == Words::new(800), "E1 DT = {}", dt("E1"));
}

/// The experiment registry's own consistency: measuring a single
/// experiment equals the corresponding row of measure_all.
#[test]
fn single_measurement_matches_batch() {
    let exps = table1_experiments();
    let single = measure(&exps[0]);
    let batch = measure_all();
    assert_eq!(single.row, batch[0].row);
}
