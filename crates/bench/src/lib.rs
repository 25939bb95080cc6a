//! Experiment-reproduction helpers shared by the `reproduce` binary,
//! the `mcds` CLI and the integration tests, and the `mcds` argument
//! parser ([`cli`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

use mcds_core::{Comparison, ExperimentRow};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_sweep::{SweepSpec, SweepWorkload};
use mcds_workloads::table1::{table1_experiments, Experiment};
use serde::Serialize;

/// One experiment's measured-vs-paper record.
#[derive(Debug, Serialize)]
pub struct MeasuredRow {
    /// The measured Table 1 row.
    #[serde(flatten)]
    pub row: ExperimentRow,
    /// The paper's reported DS improvement, if legible.
    pub paper_ds: Option<f64>,
    /// The paper's reported CDS improvement, if legible.
    pub paper_cds: Option<f64>,
    /// The paper's reported reuse factor, if legible.
    pub paper_rf: Option<u64>,
    /// Splits during allocation (paper: zero everywhere).
    pub splits: u64,
}

/// Runs one experiment end to end.
#[must_use]
pub fn measure(e: &Experiment) -> MeasuredRow {
    let cmp = Comparison::run(&e.app, &e.sched, &e.arch);
    let splits = cmp.cds.as_ref().map_or(0, |p| p.allocation().splits());
    MeasuredRow {
        row: cmp.to_row(e.name, &e.app, &e.sched, &e.arch),
        paper_ds: e.paper.ds_improvement,
        paper_cds: e.paper.cds_improvement,
        paper_rf: e.paper.rf,
        splits,
    }
}

/// Runs all twelve Table 1 experiments.
#[must_use]
pub fn measure_all() -> Vec<MeasuredRow> {
    table1_experiments().iter().map(measure).collect()
}

/// Formats a fraction as `NN%` (or `-` when unavailable).
#[must_use]
pub fn pct(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| format!("{:.0}%", x * 100.0))
}

/// The Table-1 design space as a sweep grid: every distinct
/// (application, kernel schedule) pair of the paper's evaluation —
/// starred rows collapse onto their base workload, the three ATR-SLD
/// schedules become three partitions — crossed with one M1 variant per
/// entry of `fb_kw` (kilowords) and all three schedulers.
///
/// With the paper's own sizes (`[1, 2, 3, 8]`) this is a
/// 9 cells × 4 architectures × 3 schedulers = 108-point grid.
#[must_use]
pub fn table1_sweep(fb_kw: &[u64], cross_set: bool) -> SweepSpec {
    type Group = (String, Application, Vec<(String, ClusterSchedule)>);
    let mut groups: Vec<Group> = Vec::new();
    for e in table1_experiments() {
        let base = e.name.trim_end_matches('*').to_owned();
        match groups.iter_mut().find(|(name, _, _)| *name == base) {
            Some((_, _, parts)) => {
                if !parts.iter().any(|(_, s)| *s == e.sched) {
                    parts.push((e.name.to_owned(), e.sched));
                }
            }
            None => groups.push((base, e.app, vec![(e.name.to_owned(), e.sched)])),
        }
    }
    let mut spec = SweepSpec::new();
    for &kw in fb_kw {
        spec = spec.arch(
            ArchParams::m1()
                .to_builder()
                .fb_set_words(Words::kilo(kw))
                .fb_cross_set_access(cross_set)
                .build(),
        );
    }
    for (name, app, parts) in groups {
        let mut w = SweepWorkload::new(name, app);
        for (pname, sched) in parts {
            w = w.partition(pname, sched);
        }
        spec = spec.workload(w);
    }
    spec
}
