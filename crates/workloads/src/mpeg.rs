//! An MPEG macroblock-pipeline workload.
//!
//! Models the per-macroblock kernel chain of an MPEG video encoder the
//! way the MorphoSys papers map it: motion estimation / compensation,
//! DCT, quantisation, the reconstruction loop (IQ/IDCT/REC) and VLC.
//! One application iteration processes one macroblock.
//!
//! Cross-cluster reuse the Complete Data Scheduler can exploit:
//!
//! * the **prediction** block is produced by MC (cluster 0, set 0) and
//!   consumed by both DCT (cluster 1, set 1) and REC (cluster 2, set 0)
//!   — the set-0 copy can be retained for REC;
//! * the **quantised coefficients** are produced by Q (cluster 1,
//!   set 1) and consumed by IQ (cluster 2, set 0) and VLC (cluster 3,
//!   set 1) — the set-1 copy can be retained for VLC.
//!
//! The quantisation matrix is shared by Q and IQ but those clusters sit
//! on *different* sets, so it must be loaded twice — exactly the
//! limitation the paper defers to future work.

use mcds_model::{
    Application, ApplicationBuilder, ClusterSchedule, Cycles, DataKind, ModelError, Words,
};

/// Macroblock size in Frame Buffer words (6 sub-blocks of 8×8 packed
/// pixels at the granularity the schedulers see).
pub const MB_WORDS: u64 = 256;

/// Builds the MPEG macroblock application over `macroblocks`
/// iterations.
///
/// # Errors
///
/// Never fails for positive `macroblocks`; the `Result` propagates the
/// model validation.
pub fn mpeg_app(macroblocks: u64) -> Result<Application, ModelError> {
    let mb = Words::new(MB_WORDS);
    let mut b = ApplicationBuilder::new("mpeg");

    let ref_window = b.data(
        "ref_window",
        Words::new(2 * MB_WORDS),
        DataKind::ExternalInput,
    );
    let cur_mb = b.data("cur_mb", mb, DataKind::ExternalInput);
    let qmat = b.data("qmat", Words::new(64), DataKind::ExternalInput);
    let tbl = b.data("tbl", Words::new(128), DataKind::ExternalInput);

    let mv = b.data("mv", Words::new(8), DataKind::Intermediate);
    let pred = b.data("pred", mb, DataKind::Intermediate);
    let coef = b.data("coef", mb, DataKind::Intermediate);
    let qcoef = b.data("qcoef", mb, DataKind::Intermediate);
    let rcoef = b.data("rcoef", mb, DataKind::Intermediate);
    let rres = b.data("rres", mb, DataKind::Intermediate);
    let recon = b.data("recon", mb, DataKind::FinalResult);
    let bits = b.data("bits", Words::new(128), DataKind::FinalResult);

    b.kernel("me", 512, Cycles::new(600), &[ref_window, cur_mb], &[mv]);
    b.kernel("mc", 384, Cycles::new(150), &[ref_window, mv], &[pred]);
    b.kernel("dct", 448, Cycles::new(300), &[cur_mb, pred], &[coef]);
    b.kernel("q", 384, Cycles::new(80), &[coef, qmat, tbl], &[qcoef]);
    b.kernel("iq", 384, Cycles::new(80), &[qcoef, qmat], &[rcoef]);
    b.kernel("idct", 448, Cycles::new(300), &[rcoef], &[rres]);
    b.kernel("rec", 384, Cycles::new(80), &[rres, pred], &[recon]);
    b.kernel("vlc", 448, Cycles::new(250), &[qcoef, mv, tbl], &[bits]);

    b.iterations(macroblocks).build()
}

/// The MPEG cluster schedule used for the paper's MPEG and MPEG* rows:
/// `{ME,MC} {DCT,Q} {IQ,IDCT,REC} {VLC}` — four clusters, three kernels
/// at most.
///
/// # Errors
///
/// Propagates model validation (never fails for apps from
/// [`mpeg_app`]).
pub fn mpeg_schedule(app: &Application) -> Result<ClusterSchedule, ModelError> {
    let k: Vec<_> = app.kernels().iter().map(|k| k.id()).collect();
    ClusterSchedule::new(
        app,
        vec![
            vec![k[0], k[1]],       // ME, MC
            vec![k[2], k[3]],       // DCT, Q
            vec![k[4], k[5], k[6]], // IQ, IDCT, REC
            vec![k[7]],             // VLC
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_core::{
        cluster_peak, find_candidates, FootprintModel, Lifetimes, RetentionSet, ScheduleError,
        SchedulerKind,
    };
    use mcds_model::{ArchParams, ClusterId, DataId};

    #[test]
    fn builds_and_schedules() {
        let app = mpeg_app(16).expect("valid");
        assert_eq!(app.kernels().len(), 8);
        let sched = mpeg_schedule(&app).expect("valid");
        assert_eq!(sched.len(), 4);
        assert_eq!(sched.max_kernels_per_cluster(), 3);
    }

    #[test]
    fn paper_claim_basic_infeasible_at_1k_but_ds_cds_run() {
        let app = mpeg_app(16).expect("valid");
        let sched = mpeg_schedule(&app).expect("valid");
        let arch_1k = ArchParams::m1_with_fb(Words::kilo(1));
        assert!(
            matches!(
                SchedulerKind::Basic.plan(&app, &sched, &arch_1k),
                Err(ScheduleError::Infeasible { .. })
            ),
            "Basic cannot execute MPEG if memory size is 1K"
        );
        assert!(SchedulerKind::Ds.plan(&app, &sched, &arch_1k).is_ok());
        assert!(SchedulerKind::Cds.plan(&app, &sched, &arch_1k).is_ok());
    }

    #[test]
    fn reconstruction_cluster_is_the_bottleneck() {
        let app = mpeg_app(16).expect("valid");
        let sched = mpeg_schedule(&app).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let peaks: Vec<_> = sched
            .clusters()
            .iter()
            .map(|c| {
                cluster_peak(
                    &app,
                    &sched,
                    &lt,
                    &ret,
                    c.id(),
                    1,
                    FootprintModel::NoReplacement,
                )
            })
            .collect();
        let worst = peaks.iter().max().expect("non-empty");
        assert!(
            *worst > Words::kilo(1),
            "worst basic cluster exceeds 1K: {peaks:?}"
        );
        assert_eq!(
            peaks.iter().position(|p| p == worst),
            Some(2),
            "IQ/IDCT/REC holds the most simultaneous blocks"
        );
    }

    #[test]
    fn retention_candidates_are_pred_and_qcoef() {
        let app = mpeg_app(16).expect("valid");
        let sched = mpeg_schedule(&app).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let names: Vec<&str> = cands
            .iter()
            .map(|c| app.data_object(c.data()).name())
            .collect();
        assert!(names.contains(&"pred"), "candidates: {names:?}");
        assert!(names.contains(&"qcoef"), "candidates: {names:?}");
        // qmat crosses sets: not a candidate.
        assert!(!names.contains(&"qmat"));
        let _ = (ClusterId::new(0), DataId::new(0));
    }

    #[test]
    fn rf_grows_from_2k_to_3k() {
        let app = mpeg_app(32).expect("valid");
        let sched = mpeg_schedule(&app).expect("valid");
        let at = |kw: u64| {
            SchedulerKind::Ds
                .plan(&app, &sched, &ArchParams::m1_with_fb(Words::kilo(kw)))
                .expect("fits")
                .rf()
        };
        let rf_2k = at(2);
        let rf_3k = at(3);
        assert!(rf_2k >= 2, "paper: RF=2 at 2K, got {rf_2k}");
        assert!(rf_3k > rf_2k, "paper: RF grows at 3K ({rf_2k} -> {rf_3k})");
    }
}
