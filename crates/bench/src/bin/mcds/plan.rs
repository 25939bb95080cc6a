//! One application at a time: `sample-app`, `inspect`, `plan`, `run`
//! and `explore`.

use std::sync::Arc;

use mcds_bench::cli::Args;
use mcds_core::{JsonLinesSink, McdsError, MetricsRegistry, Pipeline, SchedulerKind};
use mcds_ksched::{KernelScheduler, SearchStrategy};
use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};
use mcds_sim::{bottleneck, render_gantt, Simulator};

use crate::{arch_from, load_app, schedule_from};

pub fn sample_app() -> Result<(), McdsError> {
    let mut b = ApplicationBuilder::new("sample");
    let table = b.data("table", Words::new(96), DataKind::ExternalInput);
    let input = b.data("input", Words::new(128), DataKind::ExternalInput);
    let mid = b.data("mid", Words::new(128), DataKind::Intermediate);
    let out = b.data("out", Words::new(64), DataKind::FinalResult);
    b.kernel("stage0", 96, Cycles::new(240), &[input, table], &[mid]);
    b.kernel("stage1", 128, Cycles::new(200), &[mid, table], &[out]);
    let app = b.iterations(32).build()?;
    println!(
        "{}",
        serde_json::to_string_pretty(&app).map_err(|e| McdsError::spec(e.to_string()))?
    );
    Ok(())
}

pub fn inspect(args: &Args) -> Result<(), McdsError> {
    let app = load_app(args.positional())?;
    let df = app.dataflow();
    println!(
        "{}: {} kernels, {} data objects, {} iterations, {} per iteration, {} context words",
        app.name(),
        app.kernels().len(),
        app.data().len(),
        app.iterations(),
        app.total_data_per_iteration(),
        app.total_contexts()
    );
    println!("\nkernels:");
    for k in app.kernels() {
        let ins: Vec<&str> = k
            .inputs()
            .iter()
            .map(|&d| app.data_object(d).name())
            .collect();
        let outs: Vec<&str> = k
            .outputs()
            .iter()
            .map(|&d| app.data_object(d).name())
            .collect();
        println!(
            "  {} {:<10} {:>4} ctx {:>7} reads {:?} writes {:?}",
            k.id(),
            k.name(),
            k.contexts(),
            k.exec_cycles().to_string(),
            ins,
            outs
        );
    }
    println!("\ndata:");
    for d in app.data() {
        println!(
            "  {} {:<12} {:>7} {:?} consumers {:?}",
            d.id(),
            d.name(),
            d.size().to_string(),
            d.kind(),
            df.consumers(d.id())
        );
    }
    Ok(())
}

fn print_run(
    pipeline: &Pipeline,
    run: &mcds_core::PipelineRun,
    gantt: bool,
    program: bool,
) -> Result<(), McdsError> {
    let app = pipeline.app();
    let arch = pipeline.arch_params();
    let (plan, report) = (run.plan(), run.report());
    println!(
        "{}: RF={} stages={} data={} contexts={}w time={}",
        plan.scheduler(),
        plan.rf(),
        plan.stages().len(),
        plan.total_data_words(),
        plan.total_context_words(),
        report.total()
    );
    println!(
        "dma {:.0}% busy, rc {:.0}% busy, bottleneck: {:?}",
        report.dma_utilization() * 100.0,
        report.rc_utilization() * 100.0,
        bottleneck(report, 0.9)
    );
    if !plan.retention().is_empty() {
        println!("retained (DT = {}/iteration):", plan.dt_avoided_per_iter());
        for c in plan.retention().candidates() {
            println!(
                "  {} on {} for {:?} (TF={:.3}{})",
                app.data_object(c.data()).name(),
                c.set(),
                c.skippers(),
                c.tf(),
                if c.is_cross_set() { ", cross-set" } else { "" }
            );
        }
    }
    let alloc = plan.allocation();
    println!(
        "allocation: peaks {}/{}, splits {}, regular {}, irregular {}",
        alloc.peak()[0],
        alloc.peak()[1],
        alloc.splits(),
        alloc.regular_hits(),
        alloc.irregular()
    );
    if gantt {
        let timeline = Simulator::new(*arch).timeline(plan.ops())?;
        println!("\n{}", render_gantt(plan.ops(), &timeline, 100));
    }
    if program {
        let prog = mcds_core::generate_program(app, run.schedule(), plan)?;
        println!("\n; warm-up round");
        for op in prog.warmup() {
            println!("  {}", op.display(app));
        }
        println!("; steady-state round (x{})", prog.steady_rounds());
        for op in prog.steady() {
            println!("  {}", op.display(app));
        }
    }
    Ok(())
}

/// The pipeline `plan` and `run` share: the app file, its clusters,
/// the architecture and the scheduler from the command line.
fn pipeline_from(args: &Args) -> Result<Pipeline, McdsError> {
    let app = load_app(args.positional())?;
    let sched = schedule_from(args, &app)?;
    Ok(Pipeline::new(app)
        .arch(arch_from(args)?)
        .schedule(sched)
        .scheduler(args.value("--scheduler").unwrap_or("cds").parse()?))
}

pub fn plan(args: &Args) -> Result<(), McdsError> {
    let pipeline = pipeline_from(args)?;
    let run = pipeline.run()?;
    print_run(
        &pipeline,
        &run,
        args.switch("--gantt"),
        args.switch("--program"),
    )
}

pub fn run(args: &Args) -> Result<(), McdsError> {
    let mut pipeline = pipeline_from(args)?;
    if let Some(out) = args.value("--trace-out") {
        pipeline = pipeline.trace(JsonLinesSink::create(out)?);
    }
    let metrics = args
        .switch("--metrics")
        .then(|| Arc::new(MetricsRegistry::new()));
    if let Some(m) = &metrics {
        pipeline = pipeline.metrics(Arc::clone(m));
    }
    let run = if args.switch("--explain") {
        let (run, log) = pipeline.explain()?;
        print!("{log}");
        println!();
        run
    } else {
        pipeline.run()?
    };
    print_run(
        &pipeline,
        &run,
        args.switch("--gantt"),
        args.switch("--program"),
    )?;
    if let Some(m) = metrics {
        println!("\nmetrics:");
        for (name, value) in m.snapshot() {
            println!("  {name:<24} {value}");
        }
    }
    Ok(())
}

pub fn explore(args: &Args) -> Result<(), McdsError> {
    let pipeline = Pipeline::new(load_app(args.positional())?)
        .arch(arch_from(args)?)
        .clustering(KernelScheduler::new(SearchStrategy::Exhaustive))
        .scheduler(SchedulerKind::Cds);
    let run = pipeline.run()?;
    let (app, sched) = (pipeline.app(), run.schedule());
    println!("best partition ({} clusters):", sched.len());
    for c in sched.clusters() {
        let names: Vec<&str> = c.kernels().iter().map(|&k| app.kernel(k).name()).collect();
        println!("  {} on {}: {:?}", c.id(), sched.fb_set(c.id()), names);
    }
    print_run(&pipeline, &run, false, false)
}
