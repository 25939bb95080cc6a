//! The synthetic experiments E1–E3.
//!
//! "Synthetic experiments have been generated manually in order to
//! consider additional features that are not present in the analyzed
//! real applications." Each E-application stresses a different regime:
//!
//! * **E1** — four two-kernel clusters with per-set shared inputs and a
//!   cross-cluster result. At a 1K Frame Buffer only one iteration fits
//!   (`RF = 1`, so the Data Scheduler cannot beat Basic) yet retention
//!   is *structurally free* (every shared object is last used by its
//!   holder's final kernel), so the CDS still wins — the paper's
//!   E1 row (0% vs 19%). At 2K (`E1*`) three iterations fit and both
//!   schedulers improve (38% vs 58% in the paper).
//! * **E2** — six context-heavy clusters with little data sharing: loop
//!   fission does almost all the work and the CDS adds only a small
//!   margin (44% vs 48%).
//! * **E3** — tiny per-iteration working set: eleven iterations fit a
//!   3K set, so context reloads almost vanish (67% vs 76%).

use mcds_model::{
    Application, ApplicationBuilder, ClusterSchedule, Cycles, DataId, DataKind, KernelId,
    ModelError, Words,
};

/// Builds E1 and returns it with its 4-cluster schedule.
///
/// # Errors
///
/// Propagates model validation (never fails for positive `iterations`).
pub fn e1(iterations: u64) -> Result<(Application, ClusterSchedule), ModelError> {
    let mut b = ApplicationBuilder::new("e1");
    let sh0 = b.data("sh0", Words::new(300), DataKind::ExternalInput);
    let sh1 = b.data("sh1", Words::new(300), DataKind::ExternalInput);
    let x02 = b.data("x02", Words::new(100), DataKind::Intermediate);

    let mut partition: Vec<Vec<KernelId>> = Vec::new();
    for i in 0..4u32 {
        let shared: DataId = if i % 2 == 0 { sh0 } else { sh1 };
        let input = b.data(format!("in{i}"), Words::new(180), DataKind::ExternalInput);
        let mid = b.data(format!("mid{i}"), Words::new(80), DataKind::Intermediate);
        let fin = b.data(format!("fin{i}"), Words::new(120), DataKind::FinalResult);
        // First kernel of cluster 2 also consumes the cross result.
        let ka_inputs: Vec<DataId> = if i == 2 {
            vec![input, shared, x02]
        } else {
            vec![input, shared]
        };
        let ka = b.kernel(format!("c{i}a"), 256, Cycles::new(200), &ka_inputs, &[mid]);
        // The holder's *last* kernel consumes the shared object too, so
        // retaining it costs no extra Frame Buffer lifetime.
        let kb_outputs: Vec<DataId> = if i == 0 { vec![fin, x02] } else { vec![fin] };
        let kb = b.kernel(
            format!("c{i}b"),
            256,
            Cycles::new(200),
            &[mid, shared],
            &kb_outputs,
        );
        partition.push(vec![ka, kb]);
    }
    let app = b.iterations(iterations).build()?;
    let sched = ClusterSchedule::new(&app, partition)?;
    Ok((app, sched))
}

/// Builds E2 and its 6-cluster schedule.
///
/// # Errors
///
/// Propagates model validation (never fails for positive `iterations`).
pub fn e2(iterations: u64) -> Result<(Application, ClusterSchedule), ModelError> {
    let mut b = ApplicationBuilder::new("e2");
    // One small shared table per set (modest DT).
    let sh0 = b.data("sh0", Words::new(100), DataKind::ExternalInput);
    let sh1 = b.data("sh1", Words::new(100), DataKind::ExternalInput);
    let mut partition: Vec<Vec<KernelId>> = Vec::new();
    for i in 0..6u32 {
        let shared = if i % 2 == 0 { sh0 } else { sh1 };
        let input = b.data(format!("in{i}"), Words::new(300), DataKind::ExternalInput);
        let m1 = b.data(format!("m1_{i}"), Words::new(100), DataKind::Intermediate);
        let m2 = b.data(format!("m2_{i}"), Words::new(100), DataKind::Intermediate);
        let fin = b.data(format!("fin{i}"), Words::new(120), DataKind::FinalResult);
        let ka = b.kernel(format!("c{i}a"), 256, Cycles::new(150), &[input], &[m1]);
        let kb = b.kernel(format!("c{i}b"), 256, Cycles::new(150), &[m1], &[m2]);
        let kc = b.kernel(
            format!("c{i}c"),
            256,
            Cycles::new(150),
            &[m2, shared],
            &[fin],
        );
        partition.push(vec![ka, kb, kc]);
    }
    let app = b.iterations(iterations).build()?;
    let sched = ClusterSchedule::new(&app, partition)?;
    Ok((app, sched))
}

/// Builds E3 and its 3-cluster schedule.
///
/// # Errors
///
/// Propagates model validation (never fails for positive `iterations`).
pub fn e3(iterations: u64) -> Result<(Application, ClusterSchedule), ModelError> {
    let mut b = ApplicationBuilder::new("e3");
    let sh = b.data("sh", Words::new(70), DataKind::ExternalInput);
    let x02 = b.data("x02", Words::new(40), DataKind::Intermediate);
    let mut partition: Vec<Vec<KernelId>> = Vec::new();
    for i in 0..3u32 {
        let input = b.data(format!("in{i}"), Words::new(130), DataKind::ExternalInput);
        let m1 = b.data(format!("m1_{i}"), Words::new(40), DataKind::Intermediate);
        let m2 = b.data(format!("m2_{i}"), Words::new(40), DataKind::Intermediate);
        let fin = b.data(format!("fin{i}"), Words::new(65), DataKind::FinalResult);
        // Clusters 0 and 2 (both on set 0) share `sh`; cluster 0 feeds
        // cluster 2 with `x02`.
        let ka_inputs: Vec<DataId> = match i {
            0 => vec![input, sh],
            2 => vec![input, sh, x02],
            _ => vec![input],
        };
        let ka = b.kernel(format!("c{i}a"), 256, Cycles::new(60), &ka_inputs, &[m1]);
        let kb = b.kernel(format!("c{i}b"), 256, Cycles::new(60), &[m1], &[m2]);
        let kc_inputs: Vec<DataId> = if i == 0 { vec![m2, sh] } else { vec![m2] };
        let kc_outputs: Vec<DataId> = if i == 0 { vec![fin, x02] } else { vec![fin] };
        let kc = b.kernel(
            format!("c{i}c"),
            256,
            Cycles::new(60),
            &kc_inputs,
            &kc_outputs,
        );
        partition.push(vec![ka, kb, kc]);
    }
    let app = b.iterations(iterations).build()?;
    let sched = ClusterSchedule::new(&app, partition)?;
    Ok((app, sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_core::{Comparison, SchedulerKind};
    use mcds_model::ArchParams;

    fn rf_of(app: &Application, sched: &ClusterSchedule, fb_kw: u64) -> u64 {
        SchedulerKind::Ds
            .plan(app, sched, &ArchParams::m1_with_fb(Words::kilo(fb_kw)))
            .expect("fits")
            .rf()
    }

    #[test]
    fn e1_rf_profile_matches_paper() {
        let (app, sched) = e1(64).expect("valid");
        assert_eq!(rf_of(&app, &sched, 1), 1, "E1: RF=1 at 1K");
        assert_eq!(rf_of(&app, &sched, 2), 3, "E1*: RF=3 at 2K");
    }

    #[test]
    fn e1_cds_wins_even_at_rf_1() {
        let (app, sched) = e1(32).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(1));
        let cmp = Comparison::run(&app, &sched, &arch);
        let ds = cmp.ds_improvement().expect("feasible");
        let cds = cmp.cds_improvement().expect("feasible");
        assert!(ds.abs() < 0.01, "DS ≈ Basic at RF=1, got {ds}");
        assert!(cds > 0.10, "CDS gains from retention alone, got {cds}");
    }

    #[test]
    fn e1_retention_is_structurally_free() {
        let (app, sched) = e1(32).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(2));
        let plan = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        // All three shared objects retained: sh0 + sh1 + x02.
        assert_eq!(plan.retention().candidates().len(), 3);
        // DT = 300 + 300 + (1+1)·100.
        assert_eq!(plan.dt_avoided_per_iter(), Words::new(800));
    }

    #[test]
    fn e2_rf_3_at_2k_and_small_cds_margin() {
        let (app, sched) = e2(48).expect("valid");
        let rf = rf_of(&app, &sched, 2);
        assert!((2..=4).contains(&rf), "E2: RF ≈ 3 at 2K, got {rf}");
        let arch = ArchParams::m1_with_fb(Words::kilo(2));
        let cmp = Comparison::run(&app, &sched, &arch);
        let ds = cmp.ds_improvement().expect("feasible");
        let cds = cmp.cds_improvement().expect("feasible");
        assert!(ds > 0.25, "loop fission dominates, got {ds}");
        assert!(cds > ds, "retention adds a margin");
        assert!(cds - ds < 0.15, "but only a small one: {ds} vs {cds}");
    }

    #[test]
    fn e3_rf_around_11_at_3k() {
        let (app, sched) = e3(128).expect("valid");
        let rf = rf_of(&app, &sched, 3);
        assert!((9..=13).contains(&rf), "E3: RF ≈ 11 at 3K, got {rf}");
    }

    #[test]
    fn e3_improvements_are_large() {
        let (app, sched) = e3(64).expect("valid");
        let arch = ArchParams::m1_with_fb(Words::kilo(3));
        let cmp = Comparison::run(&app, &sched, &arch);
        let ds = cmp.ds_improvement().expect("feasible");
        let cds = cmp.cds_improvement().expect("feasible");
        assert!(ds > 0.5, "context reloads nearly vanish: {ds}");
        assert!(cds > ds, "{cds} > {ds}");
    }
}
