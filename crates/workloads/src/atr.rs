//! Automatic Target Recognition workloads: SLD and FI.
//!
//! Models the two ATR stages the MorphoSys papers evaluate:
//!
//! * **SLD** (Second-Level Detection): each iteration correlates four
//!   image chips against a large template bank. The bank is read by
//!   every correlation cluster, so the clusters on each Frame Buffer
//!   set can share one retained copy — this is the paper's
//!   high-`DT` experiment (≈ 6K of an 8K set).
//! * **FI** (Focus of Attention / initial detection): a small
//!   morphological pipeline over image stripes with a threshold map
//!   reused at the end of the pipeline (modest `DT` ≈ 0.25K, small FB).

use mcds_model::{
    Application, ApplicationBuilder, ClusterSchedule, Cycles, DataKind, ModelError, Words,
};

/// Template bank size in words (≈ 3K per Frame Buffer set copy).
pub const TEMPLATE_WORDS: u64 = 3072;

/// Image chip size in words.
pub const CHIP_WORDS: u64 = 768;

/// Builds the SLD application: 4 chips per iteration, 9 kernels
/// (4 × prep, 4 × correlate, 1 × peak detection).
///
/// # Errors
///
/// Propagates model validation (never fails for positive `iterations`).
pub fn atr_sld_app(iterations: u64) -> Result<Application, ModelError> {
    let mut b = ApplicationBuilder::new("atr-sld");
    let tmpl = b.data("tmpl", Words::new(TEMPLATE_WORDS), DataKind::ExternalInput);
    let mut scores = Vec::new();
    let mut kernel_order = Vec::new();
    for i in 0..4 {
        let chip = b.data(
            format!("chip{i}"),
            Words::new(CHIP_WORDS),
            DataKind::ExternalInput,
        );
        let prep = b.data(
            format!("p{i}"),
            Words::new(CHIP_WORDS),
            DataKind::Intermediate,
        );
        let score = b.data(format!("s{i}"), Words::new(256), DataKind::Intermediate);
        let kp = b.kernel(format!("prep{i}"), 64, Cycles::new(150), &[chip], &[prep]);
        let kc = b.kernel(
            format!("corr{i}"),
            160,
            Cycles::new(300),
            &[prep, tmpl],
            &[score],
        );
        kernel_order.push((kp, kc));
        scores.push(score);
    }
    let det = b.data("det", Words::new(256), DataKind::FinalResult);
    b.kernel("peak", 96, Cycles::new(200), &scores, &[det]);
    b.iterations(iterations).build()
}

/// Which of the paper's three SLD kernel schedules to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SldSchedule {
    /// One cluster per chip plus a peak cluster (N=5, n=2) — the
    /// template bank is shared by two clusters on each set. Maximum
    /// retention opportunity: used for the paper's `ATR-SLD*` row
    /// (DS 0%, CDS largest).
    PerChip,
    /// Chips paired into two big clusters plus peak (N=3, n=4) — the
    /// bank is consumed once per set, so only score results can be
    /// retained. Least retention opportunity: the `ATR-SLD**` row.
    Paired,
    /// An unbalanced split — the bank is shared by the two set-0
    /// clusters only. Intermediate retention: the `ATR-SLD` row.
    Unbalanced,
    /// A skewed split `{p0,c0} {p1,c1,p2,c2} {p3,c3,peak}` — the bank
    /// is shared by the first and last cluster (set 0) and one score
    /// result can be retained for the peak kernel: the `ATR-SLD**`
    /// row.
    Skewed,
}

/// Builds one of the three SLD cluster schedules.
///
/// # Errors
///
/// Propagates model validation (never fails for apps from
/// [`atr_sld_app`]).
pub fn atr_sld_schedule(
    app: &Application,
    which: SldSchedule,
) -> Result<ClusterSchedule, ModelError> {
    let k: Vec<_> = app.kernels().iter().map(|k| k.id()).collect();
    // Kernel order: prep0,corr0, prep1,corr1, prep2,corr2, prep3,corr3, peak.
    let partition = match which {
        SldSchedule::PerChip => vec![
            vec![k[0], k[1]],
            vec![k[2], k[3]],
            vec![k[4], k[5]],
            vec![k[6], k[7]],
            vec![k[8]],
        ],
        SldSchedule::Paired => vec![
            vec![k[0], k[1], k[2], k[3]],
            vec![k[4], k[5], k[6], k[7]],
            vec![k[8]],
        ],
        SldSchedule::Unbalanced => vec![
            vec![k[0], k[1], k[2], k[3]],
            vec![k[4], k[5]],
            vec![k[6], k[7], k[8]],
        ],
        SldSchedule::Skewed => vec![
            vec![k[0], k[1]],
            vec![k[2], k[3], k[4], k[5]],
            vec![k[6], k[7], k[8]],
        ],
    };
    ClusterSchedule::new(app, partition)
}

/// Builds the FI application: a five-kernel morphological pipeline
/// (threshold, erode, dilate, label, extract) over image stripes. The
/// threshold map is reused by the final extraction kernel.
///
/// # Errors
///
/// Propagates model validation (never fails for positive `iterations`).
pub fn atr_fi_app(iterations: u64) -> Result<Application, ModelError> {
    let mut b = ApplicationBuilder::new("atr-fi");
    let stripe = b.data("stripe", Words::new(256), DataKind::ExternalInput);
    let t = b.data("t", Words::new(64), DataKind::Intermediate);
    let e = b.data("e", Words::new(128), DataKind::Intermediate);
    let d = b.data("d", Words::new(128), DataKind::Intermediate);
    let lab = b.data("lab", Words::new(128), DataKind::Intermediate);
    let out = b.data("out", Words::new(64), DataKind::FinalResult);
    b.kernel("thresh", 96, Cycles::new(100), &[stripe], &[t]);
    b.kernel("erode", 128, Cycles::new(120), &[t], &[e]);
    b.kernel("dilate", 128, Cycles::new(120), &[e], &[d]);
    b.kernel("label", 160, Cycles::new(150), &[d], &[lab]);
    b.kernel("extract", 96, Cycles::new(80), &[lab, t], &[out]);
    b.iterations(iterations).build()
}

/// Which of the FI kernel schedules to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiSchedule {
    /// `ATR-FI` / `ATR-FI*`: `{thresh,erode} {dilate} {label,extract}` —
    /// the threshold map crosses from cluster 0 to cluster 2 on set 0
    /// and can be retained.
    Standard,
    /// `ATR-FI**`: `{thresh} {erode,dilate} {label,extract}` — same
    /// retention opportunity, different load balance.
    Alternate,
}

/// Builds one of the FI cluster schedules.
///
/// # Errors
///
/// Propagates model validation (never fails for apps from
/// [`atr_fi_app`]).
pub fn atr_fi_schedule(
    app: &Application,
    which: FiSchedule,
) -> Result<ClusterSchedule, ModelError> {
    let k: Vec<_> = app.kernels().iter().map(|k| k.id()).collect();
    let partition = match which {
        FiSchedule::Standard => vec![vec![k[0], k[1]], vec![k[2]], vec![k[3], k[4]]],
        FiSchedule::Alternate => vec![vec![k[0]], vec![k[1], k[2]], vec![k[3], k[4]]],
    };
    ClusterSchedule::new(app, partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_core::{find_candidates, Lifetimes, RetainedKind, SchedulerKind};
    use mcds_model::ArchParams;

    #[test]
    fn sld_per_chip_shares_templates_on_both_sets() {
        let app = atr_sld_app(8).expect("valid");
        let sched = atr_sld_schedule(&app, SldSchedule::PerChip).expect("valid");
        assert_eq!(sched.len(), 5);
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let tmpl_cands: Vec<_> = cands
            .iter()
            .filter(|c| app.data_object(c.data()).name() == "tmpl")
            .collect();
        assert_eq!(tmpl_cands.len(), 2, "one shared-data group per set");
        for c in &tmpl_cands {
            assert_eq!(c.kind(), RetainedKind::SharedData);
            assert_eq!(c.avoided_per_iter(), Words::new(TEMPLATE_WORDS));
        }
    }

    #[test]
    fn sld_runs_at_8k_with_rf_1() {
        let app = atr_sld_app(8).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(8));
        for which in [
            SldSchedule::PerChip,
            SldSchedule::Paired,
            SldSchedule::Unbalanced,
            SldSchedule::Skewed,
        ] {
            let sched = atr_sld_schedule(&app, which).expect("valid");
            let plan = SchedulerKind::Ds.plan(&app, &sched, &arch).expect("fits");
            assert_eq!(plan.rf(), 1, "{which:?}: big data keeps RF at 1");
        }
    }

    #[test]
    fn sld_cds_avoids_template_reloads() {
        let app = atr_sld_app(8).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(8));
        let sched = atr_sld_schedule(&app, SldSchedule::PerChip).expect("valid");
        let cds = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        // DT must cover both template groups: ≥ 6K words per iteration.
        assert!(
            cds.dt_avoided_per_iter() >= Words::new(2 * TEMPLATE_WORDS),
            "dt = {}",
            cds.dt_avoided_per_iter()
        );
    }

    #[test]
    fn fi_schedules_share_threshold_map() {
        let app = atr_fi_app(8).expect("valid");
        for which in [FiSchedule::Standard, FiSchedule::Alternate] {
            let sched = atr_fi_schedule(&app, which).expect("valid");
            let lt = Lifetimes::analyze(&app, &sched);
            let cands = find_candidates(&app, &sched, &lt);
            assert!(
                cands
                    .iter()
                    .any(|c| app.data_object(c.data()).name() == "t"),
                "{which:?} must offer the threshold map for retention"
            );
        }
    }

    #[test]
    fn fi_rf_grows_from_1k_to_2k() {
        let app = atr_fi_app(32).expect("valid");
        let sched = atr_fi_schedule(&app, FiSchedule::Standard).expect("valid");
        let rf = |kw: u64| {
            SchedulerKind::Ds
                .plan(&app, &sched, &ArchParams::m1_with_fb(Words::kilo(kw)))
                .expect("fits")
                .rf()
        };
        let rf1 = rf(1);
        let rf2 = rf(2);
        assert!(rf1 >= 2, "paper: RF=2 at 1K, got {rf1}");
        assert!(rf2 > rf1, "paper: RF=5 at 2K ({rf1} -> {rf2})");
    }
}
