//! ATR-SLD under three kernel schedules: how cluster formation changes
//! what the Complete Data Scheduler can retain.
//!
//! The template bank (3K words) is read by all four correlation
//! kernels. Depending on how kernels are grouped into clusters, the
//! bank's consumers land on one Frame Buffer set (retainable) or are
//! split across both (not retainable) — the spread of CDS improvements
//! across the paper's ATR-SLD / ATR-SLD* / ATR-SLD** rows.
//!
//! ```sh
//! cargo run --example atr_scheduling
//! ```

use mcds_core::{McdsError, Pipeline};
use mcds_model::{ArchParams, Words};
use mcds_workloads::atr::{atr_sld_app, atr_sld_schedule, SldSchedule};

fn main() -> Result<(), McdsError> {
    let app = atr_sld_app(32)?;
    let arch = ArchParams::m1_with_fb(Words::kilo(8));
    println!("ATR-SLD: 4 chips x template correlation, bank = 3K words, FB = 8K\n");

    for (label, which) in [
        ("per-chip clusters (ATR-SLD*)", SldSchedule::PerChip),
        ("unbalanced split (ATR-SLD)", SldSchedule::Unbalanced),
        ("skewed split (ATR-SLD**)", SldSchedule::Skewed),
        ("paired chips (minimal sharing)", SldSchedule::Paired),
    ] {
        let sched = atr_sld_schedule(&app, which)?;
        let pipeline = Pipeline::new(app.clone()).arch(arch).schedule(sched);
        let cmp = pipeline.compare()?;
        let comparison = cmp.comparison();
        let cds = comparison.cds.as_ref().map_err(|e| e.clone())?;
        let t_cds = cds.report();
        let t_basic = comparison.basic.as_ref().map_err(|e| e.clone())?.report();
        let t_ds = comparison.ds.as_ref().map_err(|e| e.clone())?.report();

        println!("== {label}: {} clusters ==", cmp.schedule().len());
        println!(
            "   DT retained/iteration: {} across {} shared objects",
            cds.dt_avoided_per_iter(),
            cds.retention().candidates().len()
        );
        for cand in cds.retention().candidates() {
            println!(
                "     - {} on {} held by {} for {:?}",
                app.data_object(cand.data()).name(),
                cand.set(),
                cand.holder(),
                cand.skippers(),
            );
        }
        println!(
            "   basic {}   ds {} ({:+.1}%)   cds {} ({:+.1}%)\n",
            t_basic.total(),
            t_ds.total(),
            t_ds.improvement_over(t_basic) * 100.0,
            t_cds.total(),
            t_cds.improvement_over(t_basic) * 100.0,
        );
    }
    Ok(())
}
