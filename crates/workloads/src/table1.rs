//! The Table 1 experiment registry: every row of the paper's evaluation
//! bound to its application, cluster schedule, architecture and the
//! paper-reported reference values.

use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use serde::{Deserialize, Serialize};

use crate::atr::{
    atr_fi_app, atr_fi_schedule, atr_sld_app, atr_sld_schedule, FiSchedule, SldSchedule,
};
use crate::e_series::{e1, e2, e3};
use crate::mpeg::{mpeg_app, mpeg_schedule};

/// What the paper reports for one Table 1 row (where the transcription
/// is legible; `None` = lost in the OCR of the source).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PaperRow {
    /// Reported Data Scheduler improvement over Basic (fraction).
    pub ds_improvement: Option<f64>,
    /// Reported Complete Data Scheduler improvement (fraction).
    pub cds_improvement: Option<f64>,
    /// Reported context reuse factor.
    pub rf: Option<u64>,
    /// Reported Frame Buffer set size.
    pub fb: Words,
}

/// One experiment of the evaluation: workload + schedule + architecture
/// + paper reference.
#[derive(Debug)]
pub struct Experiment {
    /// Row name as printed in the paper (`E1`, `MPEG*`, `ATR-SLD**`, …).
    pub name: &'static str,
    /// The application.
    pub app: Application,
    /// The kernel schedule the row uses.
    pub sched: ClusterSchedule,
    /// The architecture (M1 with the row's Frame Buffer size).
    pub arch: ArchParams,
    /// The paper's reported values.
    pub paper: PaperRow,
}

fn row(ds: Option<f64>, cds: Option<f64>, rf: Option<u64>, fb_kw: u64) -> PaperRow {
    PaperRow {
        ds_improvement: ds,
        cds_improvement: cds,
        rf,
        fb: Words::kilo(fb_kw),
    }
}

/// Number of streaming iterations every experiment runs (the paper does
/// not report its value; improvements are ratios and insensitive to it
/// once pipelines reach steady state).
pub const EXPERIMENT_ITERATIONS: u64 = 48;

/// Builds all twelve Table 1 experiments in paper order.
///
/// # Panics
///
/// Never panics: all workload constructors are validated by tests.
#[must_use]
pub fn table1_experiments() -> Vec<Experiment> {
    let n = EXPERIMENT_ITERATIONS;
    let mut out = Vec::new();

    let (app, sched) = e1(n).expect("E1 is valid");
    out.push(Experiment {
        name: "E1",
        arch: ArchParams::m1_with_fb(Words::kilo(1)),
        paper: row(Some(0.0), Some(0.19), Some(1), 1),
        app,
        sched,
    });
    let (app, sched) = e1(n).expect("E1 is valid");
    out.push(Experiment {
        name: "E1*",
        arch: ArchParams::m1_with_fb(Words::kilo(2)),
        paper: row(Some(0.38), Some(0.58), Some(3), 2),
        app,
        sched,
    });
    let (app, sched) = e2(n).expect("E2 is valid");
    out.push(Experiment {
        name: "E2",
        arch: ArchParams::m1_with_fb(Words::kilo(2)),
        paper: row(Some(0.44), Some(0.48), Some(3), 2),
        app,
        sched,
    });
    let (app, sched) = e3(n).expect("E3 is valid");
    out.push(Experiment {
        name: "E3",
        arch: ArchParams::m1_with_fb(Words::kilo(3)),
        paper: row(Some(0.67), Some(0.76), Some(11), 3),
        app,
        sched,
    });

    let app = mpeg_app(n).expect("MPEG is valid");
    let sched = mpeg_schedule(&app).expect("valid");
    out.push(Experiment {
        name: "MPEG",
        arch: ArchParams::m1_with_fb(Words::kilo(2)),
        paper: row(Some(0.30), Some(0.45), Some(2), 2),
        app,
        sched,
    });
    let app = mpeg_app(n).expect("MPEG is valid");
    let sched = mpeg_schedule(&app).expect("valid");
    out.push(Experiment {
        name: "MPEG*",
        arch: ArchParams::m1_with_fb(Words::kilo(3)),
        paper: row(Some(0.35), Some(0.50), Some(4), 3),
        app,
        sched,
    });

    // Schedule-to-row mapping: the paper does not publish the three SLD
    // kernel schedules, only that they differ. We map by character:
    // SLD* is the paper's "loop fission helpless (DS 0%), retention huge
    // (CDS 60%)" schedule, which is our maximum-sharing per-chip split;
    // SLD and SLD** show progressively less retention opportunity.
    for (name, which, ds, cds) in [
        ("ATR-SLD", SldSchedule::Unbalanced, 0.15, 0.32),
        ("ATR-SLD*", SldSchedule::PerChip, 0.0, 0.60),
        ("ATR-SLD**", SldSchedule::Skewed, 0.13, 0.27),
    ] {
        let app = atr_sld_app(n).expect("SLD is valid");
        let sched = atr_sld_schedule(&app, which).expect("valid");
        out.push(Experiment {
            name,
            arch: ArchParams::m1_with_fb(Words::kilo(8)),
            paper: row(Some(ds), Some(cds), Some(1), 8),
            app,
            sched,
        });
    }

    for (name, which, fb_kw, rf, ds, cds) in [
        ("ATR-FI", FiSchedule::Standard, 1, 2, 0.26, 0.30),
        ("ATR-FI*", FiSchedule::Standard, 2, 5, 0.61, 0.35),
        ("ATR-FI**", FiSchedule::Alternate, 1, 2, 0.33, 0.37),
    ] {
        let app = atr_fi_app(n).expect("FI is valid");
        let sched = atr_fi_schedule(&app, which).expect("valid");
        out.push(Experiment {
            name,
            arch: ArchParams::m1_with_fb(Words::kilo(fb_kw)),
            paper: row(Some(ds), Some(cds), Some(rf), fb_kw),
            app,
            sched,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_experiments_in_paper_order() {
        let exps = table1_experiments();
        let names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "E1",
                "E1*",
                "E2",
                "E3",
                "MPEG",
                "MPEG*",
                "ATR-SLD",
                "ATR-SLD*",
                "ATR-SLD**",
                "ATR-FI",
                "ATR-FI*",
                "ATR-FI**",
            ]
        );
    }

    #[test]
    fn arch_matches_paper_fb() {
        for e in table1_experiments() {
            assert_eq!(e.arch.fb_set_words(), e.paper.fb, "{}", e.name);
        }
    }

    #[test]
    fn schedules_cover_all_kernels() {
        for e in table1_experiments() {
            let covered: usize = e.sched.clusters().iter().map(|c| c.len()).sum();
            assert_eq!(covered, e.app.kernels().len(), "{}", e.name);
        }
    }

    /// Calibration pins: the workload constants were tuned so the
    /// Table 1 shape matches the paper; these values must not drift
    /// silently. (The improvements themselves are pinned with coarser
    /// ranges in the root integration tests.)
    #[test]
    fn calibration_pins() {
        use mcds_core::SchedulerKind;
        let exps = table1_experiments();
        let plan = |name: &str| {
            let e = exps.iter().find(|e| e.name == name).expect("row exists");
            SchedulerKind::Cds
                .plan(&e.app, &e.sched, &e.arch)
                .expect("feasible")
        };
        // DT per iteration (CDS retention volume).
        assert_eq!(plan("E1").dt_avoided_per_iter(), Words::new(800));
        assert_eq!(plan("E2").dt_avoided_per_iter(), Words::new(400));
        assert_eq!(plan("E3").dt_avoided_per_iter(), Words::new(150));
        assert_eq!(plan("MPEG").dt_avoided_per_iter(), Words::new(640));
        assert_eq!(plan("ATR-SLD*").dt_avoided_per_iter(), Words::new(7168));
        // RF values the paper reports exactly.
        assert_eq!(plan("E1").rf(), 1);
        assert_eq!(plan("E1*").rf(), 3);
        assert_eq!(plan("MPEG").rf(), 2);
        assert_eq!(plan("ATR-SLD").rf(), 1);
        // Total data per iteration (DS column).
        let ds_col = |name: &str| {
            exps.iter()
                .find(|e| e.name == name)
                .expect("row exists")
                .app
                .total_data_per_iteration()
        };
        assert_eq!(ds_col("E1"), Words::new(2220));
        assert_eq!(ds_col("MPEG"), Words::new(2632));
        assert_eq!(ds_col("ATR-SLD"), Words::new(10496));
        assert_eq!(ds_col("ATR-FI"), Words::new(768));
    }
}
