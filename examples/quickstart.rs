//! Quickstart: build a small application, run all three data schedulers
//! through the [`Pipeline`] facade, and compare execution times on the
//! M1 simulator.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use mcds_core::{McdsError, Pipeline};
use mcds_model::{ApplicationBuilder, ClusterSchedule, Cycles, DataKind, Words};

fn main() -> Result<(), McdsError> {
    // 1. Describe the application: kernels with known context counts,
    //    execution times, and input/output data sizes. Here: a tiny
    //    filter pipeline where a coefficient table is shared by the
    //    first and third cluster (both on Frame Buffer set 0).
    let mut b = ApplicationBuilder::new("quickstart");
    let coeffs = b.data("coeffs", Words::new(128), DataKind::ExternalInput);
    let samples = b.data("samples", Words::new(192), DataKind::ExternalInput);
    let filtered = b.data("filtered", Words::new(192), DataKind::Intermediate);
    let spectrum = b.data("spectrum", Words::new(128), DataKind::Intermediate);
    let detected = b.data("detected", Words::new(64), DataKind::FinalResult);
    let fir = b.kernel(
        "fir",
        192,
        Cycles::new(250),
        &[samples, coeffs],
        &[filtered],
    );
    let fft = b.kernel("fft", 256, Cycles::new(300), &[filtered], &[spectrum]);
    let detect = b.kernel(
        "detect",
        128,
        Cycles::new(150),
        &[spectrum, coeffs],
        &[detected],
    );
    let app = b.iterations(64).build()?;

    // 2. A kernel schedule: three single-kernel clusters alternating
    //    between the two Frame Buffer sets.
    let sched = ClusterSchedule::new(&app, vec![vec![fir], vec![fft], vec![detect]])?;

    // 3. The pipeline: application → fixed cluster schedule → M1 (the
    //    default architecture). `compare()` runs Basic, DS and CDS over
    //    one shared analysis.
    let pipeline = Pipeline::new(app).schedule(sched);
    let app = pipeline.app();
    println!(
        "application: {} ({} iterations)",
        app.name(),
        app.iterations()
    );
    println!(
        "data per iteration: {}, total contexts: {} words\n",
        app.total_data_per_iteration(),
        app.total_contexts()
    );

    let cmp = pipeline.compare()?;
    let comparison = cmp.comparison();
    let basic_time = comparison
        .basic
        .as_ref()
        .map(|plan| plan.report().total().get())
        .ok();
    for result in [&comparison.basic, &comparison.ds, &comparison.cds] {
        let plan = result.as_ref().map_err(|e| e.clone())?;
        let report = plan.report();
        let improvement = match basic_time {
            Some(b) if plan.scheduler() != "basic" => {
                (b as f64 - report.total().get() as f64) / b as f64 * 100.0
            }
            _ => 0.0,
        };
        println!(
            "{:<6} RF={} data={:>6} contexts={:>6}w time={:>8} improvement={:>5.1}%",
            plan.scheduler(),
            plan.rf(),
            plan.total_data_words().to_string(),
            plan.total_context_words(),
            report.total().to_string(),
            improvement,
        );
        if !plan.retention().is_empty() {
            println!("       retained:");
            for cand in plan.retention().candidates() {
                println!(
                    "         {} ({}; saves {}/iteration, TF={:.3})",
                    app.data_object(cand.data()).name(),
                    cand.set(),
                    cand.avoided_per_iter(),
                    cand.tf(),
                );
            }
        }
    }
    println!(
        "\nas a Table-1 row:\n{}\n{}",
        mcds_core::table_header(),
        cmp.row()
    );
    Ok(())
}
