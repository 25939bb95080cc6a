//! Comparison reporting: Table 1 / Figure 6 rows.

use std::fmt;

use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use serde::{Deserialize, Serialize};

use crate::{
    Observer, ScheduleAnalysis, ScheduleError, SchedulePlan, SchedulerConfig, SchedulerKind,
};

/// The outcome of running all three schedulers on one experiment.
#[derive(Debug)]
#[non_exhaustive]
pub struct Comparison {
    /// The Basic Scheduler's plan, or the reason it could not run.
    pub basic: Result<SchedulePlan, ScheduleError>,
    /// The Data Scheduler's plan.
    pub ds: Result<SchedulePlan, ScheduleError>,
    /// The Complete Data Scheduler's plan.
    pub cds: Result<SchedulePlan, ScheduleError>,
}

impl Comparison {
    /// Plans and simulates all three schedulers.
    #[must_use]
    pub fn run(app: &Application, sched: &ClusterSchedule, arch: &ArchParams) -> Self {
        Comparison::run_with(app, sched, arch, SchedulerConfig::default())
    }

    /// Plans and simulates all three schedulers with an explicit
    /// configuration, sharing one [`ScheduleAnalysis`] across them.
    #[must_use]
    pub fn run_with(
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
        config: SchedulerConfig,
    ) -> Self {
        let analysis = ScheduleAnalysis::new(app, sched);
        let go = |kind: SchedulerKind| {
            kind.plan_observed(app, sched, arch, &config, &analysis, Observer::none())
        };
        Comparison {
            basic: go(SchedulerKind::Basic),
            ds: go(SchedulerKind::Ds),
            cds: go(SchedulerKind::Cds),
        }
    }

    /// Relative execution improvement of the Data Scheduler over Basic
    /// (`(T_basic − T_ds)/T_basic`), if both ran.
    #[must_use]
    pub fn ds_improvement(&self) -> Option<f64> {
        match (&self.basic, &self.ds) {
            (Ok(b), Ok(d)) => Some(d.report().improvement_over(b.report())),
            _ => None,
        }
    }

    /// Relative execution improvement of the Complete Data Scheduler
    /// over Basic, if both ran.
    #[must_use]
    pub fn cds_improvement(&self) -> Option<f64> {
        match (&self.basic, &self.cds) {
            (Ok(b), Ok(c)) => Some(c.report().improvement_over(b.report())),
            _ => None,
        }
    }

    /// Condenses the comparison into a Table 1 row.
    #[must_use]
    pub fn to_row(
        &self,
        name: impl Into<String>,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
    ) -> ExperimentRow {
        ExperimentRow {
            name: name.into(),
            n_clusters: sched.len(),
            max_kernels: sched.max_kernels_per_cluster(),
            data_per_iter: app.total_data_per_iteration(),
            dt_avoided: self
                .cds
                .as_ref()
                .map_or(Words::ZERO, SchedulePlan::dt_avoided_per_iter),
            rf: self.cds.as_ref().map_or(0, SchedulePlan::rf),
            fb_set: arch.fb_set_words(),
            basic_feasible: self.basic.is_ok(),
            ds_improvement: self.ds_improvement(),
            cds_improvement: self.cds_improvement(),
        }
    }
}

/// One row of the paper's Table 1: experiment parameters plus measured
/// improvements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct ExperimentRow {
    /// Experiment name (`E1`, `MPEG*`, `ATR-SLD**`, …).
    pub name: String,
    /// `N`: number of clusters.
    pub n_clusters: usize,
    /// `n`: maximum kernels per cluster.
    pub max_kernels: usize,
    /// `DS`: total data size per iteration.
    pub data_per_iter: Words,
    /// `DT`: external transfers avoided per iteration by the CDS.
    pub dt_avoided: Words,
    /// `RF`: the context reuse factor achieved.
    pub rf: u64,
    /// `FB`: one Frame Buffer set size.
    pub fb_set: Words,
    /// Whether the Basic Scheduler could run at all.
    pub basic_feasible: bool,
    /// `DS%`: Data Scheduler improvement over Basic (0.0–1.0).
    pub ds_improvement: Option<f64>,
    /// `CDS%`: Complete Data Scheduler improvement over Basic.
    pub cds_improvement: Option<f64>,
}

impl ExperimentRow {
    /// Builds a row from already-measured values (the struct is
    /// `#[non_exhaustive]`, so external producers — e.g. the sweep
    /// engine — construct rows through this).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        n_clusters: usize,
        max_kernels: usize,
        data_per_iter: Words,
        dt_avoided: Words,
        rf: u64,
        fb_set: Words,
        basic_feasible: bool,
        ds_improvement: Option<f64>,
        cds_improvement: Option<f64>,
    ) -> Self {
        ExperimentRow {
            name: name.into(),
            n_clusters,
            max_kernels,
            data_per_iter,
            dt_avoided,
            rf,
            fb_set,
            basic_feasible,
            ds_improvement,
            cds_improvement,
        }
    }

    /// Formats an improvement as a percentage, `-` when unavailable.
    fn pct(v: Option<f64>) -> String {
        v.map_or_else(|| "-".to_owned(), |x| format!("{:.0}%", x * 100.0))
    }
}

impl fmt::Display for ExperimentRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<11} {:>2} {:>2} {:>8} {:>8} {:>3} {:>6} {:>6} {:>6}",
            self.name,
            self.n_clusters,
            self.max_kernels,
            self.data_per_iter.to_string(),
            self.dt_avoided.to_string(),
            self.rf,
            self.fb_set.to_string(),
            Self::pct(self.ds_improvement),
            Self::pct(self.cds_improvement),
        )
    }
}

/// Header line aligned with [`ExperimentRow`]'s `Display`.
#[must_use]
pub fn table_header() -> String {
    format!(
        "{:<11} {:>2} {:>2} {:>8} {:>8} {:>3} {:>6} {:>6} {:>6}",
        "experiment", "N", "n", "DS", "DT", "RF", "FB", "DS%", "CDS%"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    fn tiny() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("t");
        let a = b.data("a", Words::new(64), DataKind::ExternalInput);
        let m = b.data("m", Words::new(32), DataKind::Intermediate);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        let k0 = b.kernel("k0", 16, Cycles::new(100), &[a], &[m]);
        let k1 = b.kernel("k1", 16, Cycles::new(100), &[a, m], &[f]);
        let app = b.iterations(8).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn comparison_runs_all_three() {
        let (app, sched) = tiny();
        let arch = ArchParams::m1();
        let cmp = Comparison::run(&app, &sched, &arch);
        assert!(cmp.basic.is_ok());
        assert!(cmp.ds.is_ok());
        assert!(cmp.cds.is_ok());
        assert!(cmp.ds_improvement().expect("both ran") >= 0.0);
        assert!(
            cmp.cds_improvement().expect("both ran") >= cmp.ds_improvement().expect("ran") - 1e-9
        );
    }

    #[test]
    fn row_formatting() {
        let (app, sched) = tiny();
        let arch = ArchParams::m1();
        let cmp = Comparison::run(&app, &sched, &arch);
        let row = cmp.to_row("T1", &app, &sched, &arch);
        assert_eq!(row.name, "T1");
        assert_eq!(row.n_clusters, 2);
        assert_eq!(row.max_kernels, 1);
        assert!(row.basic_feasible);
        let line = row.to_string();
        assert!(line.contains("T1"));
        assert!(line.contains('%'));
        assert_eq!(
            table_header().split_whitespace().count(),
            9,
            "header has 9 columns"
        );
    }

    #[test]
    fn comparison_with_infeasible_basic() {
        // A cluster that only fits with replacement: Basic infeasible,
        // DS/CDS fine, improvements unavailable.
        let mut b = ApplicationBuilder::new("tight");
        let a = b.data("a", Words::new(400), DataKind::ExternalInput);
        let m = b.data("m", Words::new(400), DataKind::Intermediate);
        let f = b.data("f", Words::new(200), DataKind::FinalResult);
        let k0 = b.kernel("k0", 8, Cycles::new(50), &[a], &[m]);
        let k1 = b.kernel("k1", 8, Cycles::new(50), &[m], &[f]);
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0, k1]]).expect("valid");
        let arch = ArchParams::m1(); // 1K: basic needs 1000... adjust below
                                     // basic footprint = 400+400+200 = 1000 <= 1024; shrink FB.
        let arch = arch.to_builder().fb_set_words(Words::new(900)).build();
        let cmp = Comparison::run(&app, &sched, &arch);
        assert!(cmp.basic.is_err());
        assert!(cmp.ds.is_ok());
        assert_eq!(cmp.ds_improvement(), None);
        assert_eq!(cmp.cds_improvement(), None);
        let row = cmp.to_row("tight", &app, &sched, &arch);
        assert!(!row.basic_feasible);
        assert!(row.to_string().contains('-'));
    }

    #[test]
    fn infeasible_basic_leaves_dash() {
        let row = ExperimentRow {
            name: "X".into(),
            n_clusters: 1,
            max_kernels: 1,
            data_per_iter: Words::new(10),
            dt_avoided: Words::ZERO,
            rf: 1,
            fb_set: Words::new(10),
            basic_feasible: false,
            ds_improvement: None,
            cds_improvement: None,
        };
        assert!(row.to_string().contains('-'));
    }
}
