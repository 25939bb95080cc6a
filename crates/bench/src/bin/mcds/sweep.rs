//! `mcds sweep`: the parallel design-space sweep.

use mcds_bench::cli::Args;
use mcds_bench::table1_sweep;
use mcds_core::{McdsError, SchedulerKind};
use mcds_model::{ArchParams, Words};
use mcds_sweep::{SweepSpec, SweepWorkload};

use crate::{fb_kw_list, load_app, schedule_from};

pub fn sweep(args: &Args) -> Result<(), McdsError> {
    let format = args.value("--format").unwrap_or("table");
    if !matches!(format, "table" | "json" | "csv") {
        return Err(McdsError::spec(format!(
            "unknown format `{format}` (expected table, json, or csv)"
        )));
    }
    let fb_kw = fb_kw_list(args)?;
    let threads: Option<usize> = args.parsed("--threads")?;
    let cross_set = args.switch("--cross-set");

    let spec = if args.positionals().is_empty() {
        table1_sweep(&fb_kw, cross_set)
    } else {
        let mut spec = SweepSpec::new();
        for &kw in &fb_kw {
            spec = spec.arch(
                ArchParams::m1()
                    .to_builder()
                    .fb_set_words(Words::kilo(kw))
                    .fb_cross_set_access(cross_set)
                    .build(),
            );
        }
        for path in args.positionals() {
            let app = load_app(path)?;
            let sched = schedule_from(args, &app)?;
            spec = spec
                .workload(SweepWorkload::new(app.name().to_owned(), app).partition("cli", sched));
        }
        spec
    };

    let spec = match args.list::<SchedulerKind>("--schedulers")? {
        Some(kinds) => spec.schedulers(kinds),
        None => spec,
    };

    let spec = spec.threads(threads);
    eprintln!(
        "sweeping {} grid points ({} threads)…",
        spec.points(),
        threads.map_or_else(|| "auto".to_owned(), |t| t.to_string())
    );
    let report = spec.run()?;
    match format {
        "table" => print!("{}", report.table()),
        "json" => println!("{}", report.to_json()?),
        _ => print!("{}", report.to_csv()),
    }
    Ok(())
}
