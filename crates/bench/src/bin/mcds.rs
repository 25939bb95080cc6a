//! `mcds` — file-driven command-line front end to the scheduler stack.
//!
//! Every command builds its plans through the [`Pipeline`] facade (or
//! the sweep engine on top of it) — no hand-wired scheduler stages.
//!
//! ```text
//! mcds sample-app                          # print a sample application JSON
//! mcds inspect  <app.json>                 # summary + dataflow
//! mcds plan     <app.json> [options]       # plan + simulate
//! mcds run      <app.json> [options]       # plan + simulate with tracing
//! mcds explore  <app.json> [options]       # kernel-scheduler partition search
//! mcds sweep    [app.json …] [options]     # parallel design-space sweep
//! mcds serve    [options]                  # scheduling service (versioned newline-delimited JSON over TCP)
//! mcds client   [options]                  # single-process load client; prints a JSON report
//! mcds load     [options]                  # scaled multi-process load harness; prints a merged JSON report
//! mcds chaos    [options]                  # deterministic fault-injection soak; prints JSON per seed
//! mcds crashdrill [options]                # kill -9 durability drill; prints a JSON evidence report
//! mcds overload [options]                  # adversarial overload drill; prints a JSON evidence report
//! mcds hotpath  [options]                  # hot-path micro-benchmarks; prints a JSON evidence report
//! mcds search-bench [options]              # beam-search vs greedy CDS benchmark; prints a JSON evidence report
//!
//! options:
//!   --clusters "0,1;2;3"   kernel ids per cluster, ';'-separated (default: one per kernel)
//!   --scheduler basic|ds|cds|search[:beam[:cap]]   (default: cds)
//!   --fb-kw N              FB set size in kilowords (default: 1)
//!   --cross-set            enable the dual-ported-FB extension
//!   --gantt                print the execution Gantt chart
//!   --program              print the generated transfer program (code generator output)
//!
//! run options (in addition to the options above):
//!   --explain              print the human-readable decision log
//!   --trace-out F.jsonl    stream every trace event to F.jsonl (one JSON object per line)
//!   --metrics              print the aggregated metrics counters after the run
//!
//! sweep options:
//!   --fb-kw-list 1,2,3,8   FB sizes to cross every workload with
//!   --threads N            worker threads (default: all cores; 1 = serial)
//!   --format table|json|csv                (default: table)
//!   --schedulers a,b,…     scheduler axis, comma-separated kind names
//!                          (default: basic,ds,cds; e.g. add search:1,search:8
//!                          for the five-scheduler grid)
//!
//! serve options:
//!   --addr A:P             bind address (default: 127.0.0.1:7171; port 0 picks a free port)
//!   --workers N            scheduling worker threads (default: cores, capped at 8)
//!   --queue-depth N        admission queue capacity; full queue rejects (default: 64)
//!   --max-frame-kb N       largest accepted request frame in KiB (default: 256)
//!   --shards N             outcome-cache shards, rounded up to a power of two (default: 16)
//!   --fault-seed S         attach a deterministic chaos-preset fault plan seeded S
//!   --degrade-below-ms D   deadlines under D ms skip straight to the degraded scheduler
//!   --no-degrade           disable the degraded (within-cluster-only) fallback
//!   --qos-quotas P,S,B     per-class admission quotas, priority,standard,batch
//!                          (0 inherits --queue-depth; default: 0,0,0)
//!   --shed-after-ms D      shed stale lower-class queue heads once dequeue
//!                          delay exceeds D ms (0 = off; default: 250)
//!   --idle-timeout-ms D    reap connections with no complete frame for D ms
//!                          (0 = off; default: 60000)
//!   --write-stall-ms D     reap connections accepting no bytes for D ms while
//!                          output is pending (0 = off; default: 10000)
//!   --conn-buffer-kb N     per-connection buffered-output cap in KiB; past it
//!                          the peer gets `overloaded` and is disconnected
//!                          (0 = off; default: 1024)
//!   --store-dir DIR        journal committed outcomes to a durable store in
//!                          DIR (WAL + snapshot) and warm-start the cache from
//!                          it on boot (default: no persistence)
//!   --fsync P              store sync policy: always | interval[:ms] | never
//!                          (default: always; requires --store-dir)
//!
//! client options:
//!   --addr A:P             server address (default: 127.0.0.1:7171)
//!   --connections N        concurrent connections (default: 4)
//!   --requests M           total requests across both phases (default: 200)
//!   --distinct-keys K      distinct request keys; cold phase touches each once (default: 24)
//!   --pipeline W           in-flight requests per connection (default: 32; 1 = lockstep)
//!   --seed S               warm-phase sampling seed (default: 1)
//!   --scheduler basic|ds|cds|search[:beam[:cap]]   (default: server default)
//!   --deadline-ms D        per-request deadline (default: none)
//!   --retries N            re-queues per failed request (default: 3)
//!   --class C              admission class: priority|standard|batch (default: standard)
//!   --legacy               send deprecated un-versioned frames (compat-shim exercise)
//!
//! load options (all client options, plus):
//!   --procs P              driver processes (default: 2); reports are merged
//!                          exactly — percentiles over the combined latency
//!                          histogram, outcome digests cross-checked per key
//!
//! chaos options:
//!   --seed S               first fault seed (default: 7)
//!   --seeds N              soak N consecutive seeds S, S+1, … (default: 1)
//!   --requests M           requests per seed (default: 200)
//!   --workers N            server worker threads per seed (default: 2)
//!
//! crashdrill options:
//!   --seed S               deterministic drill seed (default: 7)
//!   --keys K               outcomes committed (acked + fsynced) before the
//!                          kill -9 (default: 12)
//!   --requests M           background requests racing the kill (default: 64)
//!   --dir D                store directory (default: a fresh temp directory,
//!                          removed when the drill passes)
//!   --out F.json           also write the evidence report to F.json
//!
//! overload options:
//!   --addr A:P             attack an already-running server (default: self-host
//!                          a small-quota, short-timeout server for the drill)
//!   --requests M           requests per well-behaved traffic class (default: 400)
//!   --priority-deadline-ms D   per-request deadline for the priority class;
//!                          the report records whether its p99 met it (default: 2000)
//!   --abuse-clients N      clients per abusive population (default: 4)
//!   --abuse-duration-ms D  abusive-population runtime (default: 1500)
//!   --abuse-modes a,b      comma-separated populations to run, from
//!                          slow_writer|stalled_reader|idle_holder|frame_flood
//!                          (default: frame_flood,stalled_reader)
//!   --out F.json           also write the report to F.json
//!
//! hotpath options:
//!   --out F.json           also write the report to F.json
//!   --check BASELINE.json  fail if any speedup regresses >10% below the baseline's
//!   --repeats N            timing repeats per probe; minima are reported (default: 5)
//!
//! search-bench options:
//!   --beam N               beam width of the searched variant (default: 32)
//!   --max-expansions N     expansion cap per rung, 0 = unlimited (default: 100000)
//!   --fb-kw-list 1,2,3,8   FB sizes for the Table-1 family
//!   --seeds N              synthetic workloads per FB size (default: 12)
//!   --out F.json           also write the report to F.json
//!
//! `mcds sweep` without application files sweeps the paper's Table-1
//! workloads.
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mcds_bench::table1_sweep;
use mcds_core::{
    FaultConfig, FaultPlan, JsonLinesSink, McdsError, MetricsRegistry, Pipeline, SchedulerKind,
};
use mcds_ksched::{KernelScheduler, SearchStrategy};
use mcds_model::{
    Application, ApplicationBuilder, ArchParams, ClusterSchedule, Cycles, DataKind, KernelId, Words,
};
use mcds_serve::{
    run_abuse, run_load, scan, AbuseConfig, AbuseMode, AbuseReport, ClientConfig, FsyncPolicy,
    LoadConfig, LoadReport, QosClass, Record, ScheduleSpec, Scheduled, ServeConfig, ServeSummary,
    Server, StatEntry, StoreConfig, JOURNAL_FILE,
};
use mcds_sim::{bottleneck, render_gantt, Simulator};
use mcds_sweep::{SweepReport, SweepSpec, SweepWorkload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), McdsError> {
    let Some(cmd) = args.first() else {
        return Err(McdsError::spec(
            "usage: mcds <sample-app|inspect|plan|run|explore|sweep|serve|client|load|chaos|crashdrill|overload|hotpath|search-bench> …",
        ));
    };
    match cmd.as_str() {
        "sample-app" => sample_app(),
        "inspect" => inspect(
            args.get(1)
                .ok_or_else(|| McdsError::spec("inspect needs an app.json path"))?,
        ),
        "plan" => plan(&args[1..]),
        "run" => traced_run(&args[1..]),
        "explore" => explore(&args[1..]),
        "sweep" => sweep(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "load" => load(&args[1..]),
        "chaos" => chaos(&args[1..]),
        "crashdrill" => crashdrill(&args[1..]),
        "overload" => overload(&args[1..]),
        "hotpath" => hotpath(&args[1..]),
        "search-bench" => search_bench(&args[1..]),
        other => Err(McdsError::spec(format!("unknown command `{other}`"))),
    }
}

fn load_app(path: &str) -> Result<Application, McdsError> {
    let text = std::fs::read_to_string(path)?;
    let app: Application =
        serde_json::from_str(&text).map_err(|e| McdsError::spec(format!("parsing {path}: {e}")))?;
    app.validate()?;
    Ok(app)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn arch_from(args: &[String]) -> Result<ArchParams, McdsError> {
    let kw: u64 = opt(args, "--fb-kw")
        .map(|v| {
            v.parse()
                .map_err(|e| McdsError::spec(format!("--fb-kw: {e}")))
        })
        .transpose()?
        .unwrap_or(1);
    Ok(ArchParams::m1()
        .to_builder()
        .fb_set_words(Words::kilo(kw))
        .fb_cross_set_access(flag(args, "--cross-set"))
        .build())
}

fn schedule_from(args: &[String], app: &Application) -> Result<ClusterSchedule, McdsError> {
    match opt(args, "--clusters") {
        None => Ok(ClusterSchedule::singletons(app)?),
        Some(spec) => {
            let mut partition = Vec::new();
            for cluster in spec.split(';') {
                let mut kernels = Vec::new();
                for id in cluster.split(',') {
                    let id: u32 = id
                        .trim()
                        .parse()
                        .map_err(|e| McdsError::spec(format!("--clusters `{id}`: {e}")))?;
                    kernels.push(KernelId::new(id));
                }
                partition.push(kernels);
            }
            Ok(ClusterSchedule::new(app, partition)?)
        }
    }
}

fn scheduler_from(args: &[String]) -> Result<SchedulerKind, McdsError> {
    opt(args, "--scheduler").unwrap_or("cds").parse()
}

fn sample_app() -> Result<(), McdsError> {
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

fn inspect(path: &str) -> Result<(), McdsError> {
    let app = load_app(path)?;
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
        let sim_report = Simulator::new(*arch).run(plan.ops())?;
        println!("\n{}", render_gantt(plan.ops(), sim_report.timeline(), 100));
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

fn plan(args: &[String]) -> Result<(), McdsError> {
    let path = args
        .first()
        .ok_or_else(|| McdsError::spec("plan needs an app.json path"))?;
    let app = load_app(path)?;
    let sched = schedule_from(args, &app)?;
    let pipeline = Pipeline::new(app)
        .arch(arch_from(args)?)
        .schedule(sched)
        .scheduler(scheduler_from(args)?);
    let run = pipeline.run()?;
    print_run(
        &pipeline,
        &run,
        flag(args, "--gantt"),
        flag(args, "--program"),
    )
}

fn traced_run(args: &[String]) -> Result<(), McdsError> {
    let path = args
        .first()
        .ok_or_else(|| McdsError::spec("run needs an app.json path"))?;
    let app = load_app(path)?;
    let sched = schedule_from(args, &app)?;
    let mut pipeline = Pipeline::new(app)
        .arch(arch_from(args)?)
        .schedule(sched)
        .scheduler(scheduler_from(args)?);
    if let Some(out) = opt(args, "--trace-out") {
        pipeline = pipeline.trace(JsonLinesSink::create(out)?);
    }
    let metrics = flag(args, "--metrics").then(|| Arc::new(MetricsRegistry::new()));
    if let Some(m) = &metrics {
        pipeline = pipeline.metrics(Arc::clone(m));
    }
    let run = if flag(args, "--explain") {
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
        flag(args, "--gantt"),
        flag(args, "--program"),
    )?;
    if let Some(m) = metrics {
        println!("\nmetrics:");
        for (name, value) in m.snapshot() {
            println!("  {name:<24} {value}");
        }
    }
    Ok(())
}

fn explore(args: &[String]) -> Result<(), McdsError> {
    let path = args
        .first()
        .ok_or_else(|| McdsError::spec("explore needs an app.json path"))?;
    let pipeline = Pipeline::new(load_app(path)?)
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

fn sweep(args: &[String]) -> Result<(), McdsError> {
    let format = opt(args, "--format").unwrap_or("table");
    if !matches!(format, "table" | "json" | "csv") {
        return Err(McdsError::spec(format!(
            "unknown format `{format}` (expected table, json, or csv)"
        )));
    }
    let fb_kw: Vec<u64> = opt(args, "--fb-kw-list")
        .unwrap_or("1,2,3,8")
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| McdsError::spec(format!("--fb-kw-list `{v}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let threads = opt(args, "--threads")
        .map(|v| {
            v.parse()
                .map_err(|e| McdsError::spec(format!("--threads: {e}")))
        })
        .transpose()?;
    let app_paths: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();

    let spec = if app_paths.is_empty() {
        table1_sweep(&fb_kw, flag(args, "--cross-set"))
    } else {
        let mut spec = SweepSpec::new();
        for &kw in &fb_kw {
            spec = spec.arch(
                ArchParams::m1()
                    .to_builder()
                    .fb_set_words(Words::kilo(kw))
                    .fb_cross_set_access(flag(args, "--cross-set"))
                    .build(),
            );
        }
        for path in app_paths {
            let app = load_app(path)?;
            let sched = schedule_from(args, &app)?;
            spec = spec
                .workload(SweepWorkload::new(app.name().to_owned(), app).partition("cli", sched));
        }
        spec
    };

    let spec = match opt(args, "--schedulers") {
        Some(list) => spec.schedulers(
            list.split(',')
                .map(|v| v.trim().parse::<SchedulerKind>())
                .collect::<Result<Vec<_>, _>>()?,
        ),
        None => spec,
    };

    let spec = spec.threads(threads);
    eprintln!(
        "sweeping {} grid points ({} threads)…",
        spec.points(),
        threads.map_or_else(|| "auto".to_owned(), |t: usize| t.to_string())
    );
    let report = spec.run()?;
    print_sweep(&report, format)
}

fn parsed_opt<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, McdsError>
where
    T::Err: std::fmt::Display,
{
    opt(args, name)
        .map(|v| {
            v.parse()
                .map_err(|e| McdsError::spec(format!("{name}: {e}")))
        })
        .transpose()
}

fn serve(args: &[String]) -> Result<(), McdsError> {
    let mut config = ServeConfig {
        addr: opt(args, "--addr").unwrap_or("127.0.0.1:7171").to_owned(),
        ..ServeConfig::default()
    };
    if let Some(workers) = parsed_opt(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(depth) = parsed_opt(args, "--queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(kb) = parsed_opt::<usize>(args, "--max-frame-kb")? {
        config.max_frame_bytes = kb.saturating_mul(1024);
    }
    if let Some(seed) = parsed_opt(args, "--fault-seed")? {
        config.faults = Some(Arc::new(FaultPlan::new(FaultConfig::chaos(seed))));
    }
    if let Some(below) = parsed_opt(args, "--degrade-below-ms")? {
        config.degrade_below_ms = below;
    }
    if flag(args, "--no-degrade") {
        config.degrade = false;
    }
    if let Some(shards) = parsed_opt(args, "--shards")? {
        config.shards = shards;
    }
    if let Some(quotas) = opt(args, "--qos-quotas") {
        config.qos_quotas = parse_quotas(quotas)?;
    }
    if let Some(after) = parsed_opt(args, "--shed-after-ms")? {
        config.shed_after_ms = after;
    }
    if let Some(idle) = parsed_opt(args, "--idle-timeout-ms")? {
        config.idle_timeout_ms = idle;
    }
    if let Some(stall) = parsed_opt(args, "--write-stall-ms")? {
        config.write_stall_ms = stall;
    }
    if let Some(kb) = parsed_opt::<usize>(args, "--conn-buffer-kb")? {
        config.max_conn_buffer_bytes = kb.saturating_mul(1024);
    }
    match opt(args, "--store-dir") {
        Some(dir) => {
            let mut store = StoreConfig::new(dir);
            if let Some(policy) = parsed_opt::<FsyncPolicy>(args, "--fsync")? {
                store.fsync = policy;
            }
            config.store = Some(store);
        }
        None if opt(args, "--fsync").is_some() => {
            return Err(McdsError::spec("--fsync requires --store-dir"));
        }
        None => {}
    }
    let server = Server::bind(config)?;
    println!("mcds-serve listening on {}", server.local_addr());
    let summary = server.run()?;
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| McdsError::spec(e.to_string()))?
    );
    Ok(())
}

/// Parses a `--qos-quotas P,S,B` triple (0 = inherit the queue depth).
fn parse_quotas(spec: &str) -> Result<[usize; 3], McdsError> {
    let parts: Vec<usize> = spec
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| McdsError::spec(format!("--qos-quotas `{v}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    <[usize; 3]>::try_from(parts).map_err(|_| {
        McdsError::spec("--qos-quotas needs exactly three values: priority,standard,batch")
    })
}

fn class_from(args: &[String]) -> Result<Option<QosClass>, McdsError> {
    opt(args, "--class")
        .map(|v| {
            QosClass::from_wire(v).ok_or_else(|| {
                McdsError::spec(format!(
                    "--class `{v}`: expected priority, standard, or batch"
                ))
            })
        })
        .transpose()
}

fn load_config_from(args: &[String]) -> Result<LoadConfig, McdsError> {
    let mut config = LoadConfig {
        addr: opt(args, "--addr").unwrap_or("127.0.0.1:7171").to_owned(),
        scheduler: opt(args, "--scheduler").map(str::to_owned),
        deadline_ms: parsed_opt(args, "--deadline-ms")?,
        class: class_from(args)?,
        legacy: flag(args, "--legacy"),
        ..LoadConfig::default()
    };
    if let Some(connections) = parsed_opt(args, "--connections")? {
        config.connections = connections;
    }
    if let Some(requests) = parsed_opt(args, "--requests")? {
        config.requests = requests;
    }
    if let Some(distinct) = parsed_opt(args, "--distinct-keys")? {
        config.distinct_keys = distinct;
    }
    if let Some(pipeline) = parsed_opt(args, "--pipeline")? {
        config.pipeline = pipeline;
    }
    if let Some(seed) = parsed_opt(args, "--seed")? {
        config.seed = seed;
    }
    if let Some(retries) = parsed_opt(args, "--retries")? {
        config.retries = retries;
    }
    Ok(config)
}

/// `mcds client` output: the load report's fields flattened at the top
/// level (shape-compatible with earlier releases) plus the server's
/// `serve.store.*` persistence counters when a durable store is
/// attached.
#[derive(serde::Serialize)]
struct ClientReport {
    #[serde(flatten)]
    load: LoadReport,
    /// `serve.store.*` counters snapshotted over the wire after the
    /// run — journal bytes, snapshot epoch, recovery counts. Empty
    /// when the server runs without `--store-dir`.
    store: Vec<StatEntry>,
}

/// Snapshots the server's `serve.store.*` counters over the wire.
/// Best-effort: an unreachable server or failed `stats` verb yields an
/// empty list rather than failing the report.
fn store_stats(addr: &str) -> Vec<StatEntry> {
    let Ok(mut client) = ClientConfig::new(addr).connect() else {
        return Vec::new();
    };
    match client.stats() {
        Ok(reply) => reply
            .entries
            .into_iter()
            .filter(|e| e.name.starts_with("serve.store."))
            .collect(),
        Err(_) => Vec::new(),
    }
}

fn client(args: &[String]) -> Result<(), McdsError> {
    let config = load_config_from(args)?;
    let mut report = run_load(&config)?;
    report.strip_raw();
    let report = ClientReport {
        store: store_stats(&config.addr),
        load: report,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| McdsError::spec(e.to_string()))?
    );
    Ok(())
}

/// The scaled load harness. With `--procs P > 1` the parent re-executes
/// itself `P` times with `--child` (each child drives its own
/// connections and prints a raw per-process report, histograms and
/// per-key outcome digests included) and merges the reports exactly:
/// counters add, percentiles are recomputed over the combined latency
/// histogram, and any key served two different outcomes — even across
/// processes — flips `consistent_outcomes`.
fn load(args: &[String]) -> Result<(), McdsError> {
    let config = load_config_from(args)?;
    let procs: usize = parsed_opt(args, "--procs")?.unwrap_or(2).max(1);
    if flag(args, "--child") {
        // Raw single-process report on one line for the parent to merge.
        let report = run_load(&config)?;
        println!(
            "{}",
            serde_json::to_string(&report).map_err(|e| McdsError::spec(e.to_string()))?
        );
        return Ok(());
    }
    let mut merged = if procs == 1 {
        run_load(&config)?
    } else {
        let exe = std::env::current_exe()?;
        let mut children = Vec::new();
        for p in 0..procs {
            let requests = config.requests / procs + usize::from(p < config.requests % procs);
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["load", "--child"])
                .args(["--addr", &config.addr])
                .args(["--connections", &config.connections.to_string()])
                .args(["--requests", &requests.max(1).to_string()])
                .args(["--distinct-keys", &config.distinct_keys.to_string()])
                .args(["--pipeline", &config.pipeline.to_string()])
                .args(["--seed", &(config.seed + p as u64 * 10_007).to_string()])
                .args(["--retries", &config.retries.to_string()])
                .stdout(std::process::Stdio::piped());
            if let Some(s) = &config.scheduler {
                cmd.args(["--scheduler", s]);
            }
            if let Some(d) = config.deadline_ms {
                cmd.args(["--deadline-ms", &d.to_string()]);
            }
            if let Some(c) = config.class {
                cmd.args(["--class", c.as_str()]);
            }
            if config.legacy {
                cmd.arg("--legacy");
            }
            children.push(cmd.spawn()?);
        }
        let mut merged: Option<LoadReport> = None;
        for child in children {
            let out = child.wait_with_output()?;
            if !out.status.success() {
                return Err(McdsError::spec("load driver process failed"));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let report: LoadReport = serde_json::from_str(text.trim())
                .map_err(|e| McdsError::spec(format!("parsing driver report: {e}")))?;
            match &mut merged {
                None => merged = Some(report),
                Some(m) => m.merge(&report),
            }
        }
        merged.ok_or_else(|| McdsError::spec("no driver processes ran"))?
    };
    merged.strip_raw();
    println!(
        "{}",
        serde_json::to_string_pretty(&merged).map_err(|e| McdsError::spec(e.to_string()))?
    );
    Ok(())
}

/// One seed's deterministic chaos-soak verdict. Every field is a pure
/// function of `(seed, requests)` — two runs with the same arguments
/// must print byte-identical JSON (timing goes to stderr instead).
#[derive(serde::Serialize)]
struct ChaosSeedSummary {
    seed: u64,
    requests: u64,
    ok: u64,
    errors: u64,
    rejected: u64,
    retried: u64,
    transport_errors: u64,
    degraded: u64,
    distinct_keys: u64,
    consistent_outcomes: bool,
    audited_workloads: u64,
    cache_poisoned: bool,
    worker_restarts: u64,
    /// Journal records written by the soak's durable store — lockstep
    /// driving makes the commit sequence (and so this count) a pure
    /// function of the seed.
    store_appends: u64,
    /// `1` when the drained server wrote its clean-shutdown marker.
    store_clean_shutdown: u64,
    faults: mcds_core::FaultSnapshot,
}

/// One audited `schedule` request through the typed client, for the
/// audit phase of a chaos run. Opens a fresh connection per attempt so
/// an injected disconnect cannot poison the next try; returns `None`
/// once the listener is gone or the attempts are exhausted.
fn chaos_request(addr: &str, spec: &ScheduleSpec, attempts: u32) -> Option<Scheduled> {
    for _ in 0..attempts {
        let Ok(mut client) = ClientConfig::new(addr).with_reconnect(false).connect() else {
            return None; // Listener gone (post-shutdown) — no retry.
        };
        match client.schedule(spec) {
            Ok(scheduled) => return Some(scheduled),
            // Typed failure or injected transport drop — fresh attempt
            // on a fresh connection.
            Err(_) => continue,
        }
    }
    None
}

/// One shutdown handshake attempt per fresh connection; `true` once
/// the server acknowledged the drain.
fn chaos_shutdown(addr: &str, attempts: u32) -> bool {
    for _ in 0..attempts {
        let Ok(mut client) = ClientConfig::new(addr).with_reconnect(false).connect() else {
            return false;
        };
        if client.shutdown().is_ok() {
            return true;
        }
    }
    false
}

/// The outcome the (unfaulted) pipeline computes for a catalog
/// workload — the ground truth the cache-poisoning audit compares
/// served outcomes against.
fn reference_outcome(
    name: &str,
    iterations: u64,
    fb_kw: u64,
    kind: SchedulerKind,
    degraded: bool,
) -> Result<mcds_serve::Outcome, McdsError> {
    let (app, sched) = mcds_workloads::mix::by_name(name, iterations)
        .ok_or_else(|| McdsError::spec(format!("unknown catalog workload `{name}`")))?;
    let arch = ArchParams::m1()
        .to_builder()
        .fb_set_words(Words::kilo(fb_kw))
        .build();
    let run = Pipeline::new(app.clone())
        .arch(arch)
        .schedule(sched)
        .scheduler(kind)
        .run()?;
    let plan = run.plan();
    Ok(mcds_serve::Outcome {
        app: app.name().to_owned(),
        scheduler: kind.name().to_owned(),
        clusters: run.schedule().len() as u64,
        rf: plan.rf(),
        dt_avoided_words: plan.dt_avoided_per_iter().get(),
        data_words: plan.total_data_words().get(),
        context_words: plan.total_context_words(),
        total_cycles: run.report().total().get(),
        degraded,
    })
}

/// Deterministic fault-injection soak: for each seed, start a live
/// server with the chaos-preset fault plan, drive it with the retrying
/// client, audit the cache against locally recomputed ground truth,
/// and print one line of reproducible JSON. Exits non-zero on any
/// hang, inconsistency, or cache poisoning.
fn chaos(args: &[String]) -> Result<(), McdsError> {
    let first_seed: u64 = parsed_opt(args, "--seed")?.unwrap_or(7);
    let seeds: u64 = parsed_opt(args, "--seeds")?.unwrap_or(1).max(1);
    let requests: usize = parsed_opt(args, "--requests")?.unwrap_or(200);
    let workers: usize = parsed_opt(args, "--workers")?.unwrap_or(2);
    let mut failed = false;
    for seed in first_seed..first_seed.saturating_add(seeds) {
        let started = std::time::Instant::now();
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(seed)));
        // A throwaway durable store so the `store.append` /
        // `store.fsync` disk seams are part of every soak; `always`
        // keeps the per-append seam-query sequence deterministic.
        let store_dir =
            std::env::temp_dir().join(format!("mcds-chaos-store-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth: 64,
            faults: Some(Arc::clone(&plan)),
            store: Some(StoreConfig::new(&store_dir)),
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());

        // Soak phase: one connection in strict lockstep (pipeline 1
        // keeps the fault sequence independent of interleaving), no
        // deadlines (keeps it independent of wall-clock), generous
        // retries.
        let report = run_load(&LoadConfig {
            addr: addr.clone(),
            connections: 1,
            pipeline: 1,
            requests,
            seed,
            retries: 8,
            ..LoadConfig::default()
        })?;

        // Audit phase: every catalog workload the mix samples from,
        // recomputed locally with a clean pipeline and compared against
        // what the (faulted) server serves. Any mismatch on a
        // non-degraded outcome is cache poisoning.
        let mut audited = 0u64;
        let mut poisoned = false;
        for name in mcds_workloads::mix::CATALOG {
            let spec = ScheduleSpec {
                iterations: Some(16),
                fb_kw: Some(8),
                ..ScheduleSpec::workload(name)
            };
            let Some(scheduled) = chaos_request(&addr, &spec, 20) else {
                eprintln!("chaos seed {seed}: audit of `{name}` got no ok response");
                poisoned = true;
                continue;
            };
            let served = scheduled.outcome;
            let kind = if served.degraded {
                SchedulerKind::Ds
            } else {
                SchedulerKind::Cds
            };
            let expected = reference_outcome(name, 16, 8, kind, served.degraded)?;
            audited += 1;
            if served != expected {
                eprintln!(
                    "chaos seed {seed}: POISONED `{name}`: served {} expected {}",
                    serde_json::to_string(&served).unwrap_or_default(),
                    serde_json::to_string(&expected).unwrap_or_default(),
                );
                poisoned = true;
            }
        }

        // Snapshot before the shutdown handshake: the number of
        // shutdown attempts is fault-dependent, and keeping those
        // queries out of the snapshot keeps the printed JSON a pure
        // function of the seed.
        let snapshot = plan.snapshot();

        // Shutdown phase: the shutdown frame itself can be hit by
        // injected read/write faults, so retry until the server thread
        // actually exits (bounded by a watchdog).
        let watchdog = std::time::Instant::now();
        while !handle.is_finished() {
            if watchdog.elapsed() > std::time::Duration::from_secs(60) {
                return Err(McdsError::spec(format!(
                    "chaos seed {seed}: server did not drain within 60s (hang)"
                )));
            }
            let _ = chaos_shutdown(&addr, 5);
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let summary = handle
            .join()
            .map_err(|_| McdsError::spec(format!("chaos seed {seed}: server thread panicked")))??;

        let verdict = ChaosSeedSummary {
            seed,
            requests: report.requests,
            ok: report.ok,
            errors: report.errors,
            rejected: report.rejected,
            retried: report.retried,
            transport_errors: report.transport_errors,
            degraded: report.degraded,
            distinct_keys: report.distinct_keys,
            consistent_outcomes: report.consistent_outcomes,
            audited_workloads: audited,
            cache_poisoned: poisoned,
            worker_restarts: summary.worker_restarts,
            store_appends: summary.store_appends,
            store_clean_shutdown: summary.store_clean_shutdown,
            faults: snapshot,
        };
        let _ = std::fs::remove_dir_all(&store_dir);
        println!(
            "{}",
            serde_json::to_string(&verdict).map_err(|e| McdsError::spec(e.to_string()))?
        );
        eprintln!(
            "chaos seed {seed}: {} requests, {} retried, {} degraded, {} faults injected, {:.1}s",
            report.requests,
            report.retried,
            report.degraded,
            verdict.faults.total_fired(),
            started.elapsed().as_secs_f64(),
        );
        if poisoned || !report.consistent_outcomes || report.ok == 0 {
            failed = true;
        }
    }
    if failed {
        return Err(McdsError::spec(
            "chaos soak detected cache poisoning or inconsistent outcomes",
        ));
    }
    Ok(())
}

/// One crash drill's evidence. Every field is a pure function of the
/// seed — two drills with the same seed must print byte-identical
/// JSON (timing and paths go to stderr), which is what the CI
/// determinism diff pins.
#[derive(serde::Serialize)]
struct CrashDrillReport {
    seed: u64,
    /// Distinct outcomes committed — acked to the client with
    /// `--fsync always` — before the `kill -9`.
    committed_keys: u64,
    /// Committed outcomes the restarted server answered as cache hits.
    recovered_served: u64,
    /// `true` when every committed outcome came back byte-identical
    /// (same serialized JSON) after the restart.
    byte_identical: bool,
    /// Committed outcomes the restarted server recomputed instead of
    /// serving from the warm-started cache — must be zero.
    recomputes_for_recovered: u64,
    /// `true` when the restart tolerated the garbage appended to the
    /// journal tail (booted, served, and counted the dropped bytes).
    tail_garbage_tolerated: bool,
    /// `true` when the post-drill graceful shutdown left a journal
    /// whose last record is a clean-shutdown marker.
    clean_restart_verified: bool,
}

/// A `mcds serve` child process with its banner-parsed address. The
/// stdout pipe is held open for the child's lifetime so a graceful
/// exit can print its summary without hitting a closed pipe.
struct ServeChild {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

/// Spawns `mcds serve --store-dir DIR --fsync always` on a free port
/// and parses the listen address from its banner line.
fn spawn_store_server(dir: &std::path::Path) -> Result<ServeChild, McdsError> {
    use std::io::BufRead;
    let exe = std::env::current_exe()?;
    let mut child = std::process::Command::new(&exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--fsync",
            "always",
        ])
        .arg("--store-dir")
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .spawn()?;
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner)?;
    let Some(addr) = banner
        .strip_prefix("mcds-serve listening on ")
        .map(|a| a.trim().to_owned())
    else {
        let _ = child.kill();
        return Err(McdsError::spec(format!(
            "unexpected serve banner: {banner:?}"
        )));
    };
    Ok(ServeChild {
        child,
        stdout,
        addr,
    })
}

/// Drains a gracefully-shut-down serve child and parses the summary
/// JSON it prints on exit.
fn reap_serve_child(mut server: ServeChild) -> Result<ServeSummary, McdsError> {
    use std::io::Read;
    let status = server.child.wait()?;
    if !status.success() {
        return Err(McdsError::spec("serve child exited unsuccessfully"));
    }
    let mut rest = String::new();
    server.stdout.read_to_string(&mut rest)?;
    serde_json::from_str(rest.trim())
        .map_err(|e| McdsError::spec(format!("parsing serve summary: {e}")))
}

/// The kill -9 durability drill: commit a deterministic family of
/// outcomes against a store-backed server (`--fsync always`, lockstep
/// so every ack implies a fsynced journal record), SIGKILL the server
/// mid-load, corrupt the journal tail the way a torn write would, then
/// restart on the same directory and prove every committed outcome is
/// served back byte-identical from the warm-started cache — zero
/// pipeline re-runs. Exits non-zero unless all evidence holds.
fn crashdrill(args: &[String]) -> Result<(), McdsError> {
    let seed: u64 = parsed_opt(args, "--seed")?.unwrap_or(7);
    let keys: usize = parsed_opt(args, "--keys")?.unwrap_or(12).max(1);
    let requests: usize = parsed_opt(args, "--requests")?.unwrap_or(64);
    let (dir, ephemeral) = match opt(args, "--dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("mcds-crashdrill-{}-{seed}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let started = std::time::Instant::now();

    // Phase A: commit a seed-derived family of distinct outcomes in
    // strict lockstep. With `--fsync always` the server journals and
    // fsyncs each outcome before releasing the response, so an ack
    // makes it crash-durable by contract.
    let catalog = mcds_workloads::mix::CATALOG;
    let specs: Vec<ScheduleSpec> = (0..keys)
        .map(|i| {
            let name = catalog[(seed as usize + i) % catalog.len()];
            ScheduleSpec {
                iterations: Some(i as u64 + 1),
                fb_kw: Some(8),
                ..ScheduleSpec::workload(name)
            }
        })
        .collect();
    let victim = spawn_store_server(&dir)?;
    eprintln!(
        "crashdrill seed {seed}: committing {keys} outcomes against {} (store {})",
        victim.addr,
        dir.display()
    );
    let mut committed: Vec<(u64, String)> = Vec::new();
    {
        let mut client = ClientConfig::new(&victim.addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("commit connection: {e}")))?;
        for spec in &specs {
            let scheduled = client
                .schedule(spec)
                .map_err(|e| McdsError::spec(format!("commit schedule: {e}")))?;
            let json = serde_json::to_string(&scheduled.outcome)
                .map_err(|e| McdsError::spec(e.to_string()))?;
            if !committed.iter().any(|(k, _)| *k == scheduled.key) {
                committed.push((scheduled.key, json));
            }
        }
    }

    // Phase B: race background load against the kill so the process
    // dies mid-commit, then simulate the torn write the kill may not
    // have produced on its own: a frame header promising more payload
    // bytes than exist.
    let churn_addr = victim.addr.clone();
    let churn = std::thread::spawn(move || {
        let _ = run_load(&LoadConfig {
            addr: churn_addr,
            connections: 2,
            pipeline: 8,
            requests,
            distinct_keys: 16,
            seed,
            retries: 0,
            ..LoadConfig::default()
        });
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut victim = victim;
    victim.child.kill()?; // SIGKILL: no drop glue, no flush, no snapshot.
    let _ = victim.child.wait();
    let _ = churn.join();
    let garbage: &[u8] = &[0x40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, b'{', b'"'];
    {
        use std::io::Write;
        let mut journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        journal.write_all(garbage)?;
    }
    eprintln!(
        "crashdrill seed {seed}: killed server, appended {} garbage bytes to the journal tail",
        garbage.len()
    );

    // Phase C: restart on the same directory and replay the committed
    // family. Every outcome must come back byte-identical and as a
    // cache hit — the journal, not the pipeline, answers.
    let survivor = spawn_store_server(&dir)?;
    let mut recovered_served = 0u64;
    let mut recomputes = 0u64;
    let mut byte_identical = true;
    {
        let mut client = ClientConfig::new(&survivor.addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("replay connection: {e}")))?;
        for (spec, (key, json)) in specs.iter().zip(&committed) {
            let scheduled = client
                .schedule(spec)
                .map_err(|e| McdsError::spec(format!("replay schedule: {e}")))?;
            let replayed = serde_json::to_string(&scheduled.outcome)
                .map_err(|e| McdsError::spec(e.to_string()))?;
            if scheduled.key != *key || replayed != *json {
                eprintln!(
                    "crashdrill seed {seed}: MISMATCH key {key}: committed {json} replayed {replayed}"
                );
                byte_identical = false;
                continue;
            }
            if scheduled.cache_hit {
                recovered_served += 1;
            } else {
                recomputes += 1;
            }
        }
    }
    let stats = store_stats(&survivor.addr);
    let stat = |name: &str| stats.iter().find(|e| e.name == name).map_or(0, |e| e.value);
    let tail_garbage_tolerated = stat("serve.store.recovered") >= committed.len() as u64
        && stat("serve.store.dropped") >= garbage.len() as u64
        && stat("serve.store.corrupt") >= 1;

    // Graceful drain: the survivor flushes, snapshots, and stamps the
    // clean-shutdown marker; the journal on disk must end with it.
    let watchdog = std::time::Instant::now();
    while watchdog.elapsed() < std::time::Duration::from_secs(60) {
        if chaos_shutdown(&survivor.addr, 5) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let summary = reap_serve_child(survivor)?;
    let journal_bytes = std::fs::read(dir.join(JOURNAL_FILE))?;
    let tail_scan = scan(&journal_bytes);
    let clean_restart_verified = summary.store_clean_shutdown == 1
        && !tail_scan.corrupt
        && matches!(tail_scan.records.last(), Some(Record::CleanShutdown { .. }));

    let report = CrashDrillReport {
        seed,
        committed_keys: committed.len() as u64,
        recovered_served,
        byte_identical,
        recomputes_for_recovered: recomputes,
        tail_garbage_tolerated,
        clean_restart_verified,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| McdsError::spec(e.to_string()))?;
    println!("{json}");
    if let Some(path) = opt(args, "--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    eprintln!(
        "crashdrill seed {seed}: {}/{} recovered, {:.1}s",
        report.recovered_served,
        report.committed_keys,
        started.elapsed().as_secs_f64()
    );
    let passed = report.byte_identical
        && report.recovered_served == report.committed_keys
        && report.recomputes_for_recovered == 0
        && report.tail_garbage_tolerated
        && report.clean_restart_verified;
    if !passed {
        return Err(McdsError::spec(
            "crash drill failed: committed outcomes were lost, recomputed, or corrupted",
        ));
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// One overload drill's evidence: two well-behaved traffic classes
/// (priority with a deadline, batch without) racing several abusive
/// populations against one small-quota server, plus the server's own
/// robustness counters snapshotted over the wire afterwards.
#[derive(serde::Serialize)]
struct OverloadReport {
    /// Deadline sent with every priority request, in milliseconds.
    priority_deadline_ms: u64,
    /// `serve.qos.shed.priority` after the drill — structurally pinned
    /// to zero (the shed governor only drains classes *below* the one
    /// being dequeued).
    priority_sheds: u64,
    /// `true` iff the priority class's p99 latency beat its deadline.
    priority_p99_within_deadline: bool,
    /// Peak per-connection buffered output the server ever held
    /// (`serve.conn.buffer_bytes.max`) — the memory-bound evidence.
    buffer_high_water_bytes: u64,
    /// The priority-class load report.
    priority: LoadReport,
    /// The batch-class load report (no deadline; absorbs rejections).
    batch: LoadReport,
    /// One report per abusive population.
    abuse: Vec<AbuseReport>,
    /// Every `serve.*` counter after the drill (QoS lanes, reaping,
    /// buffer caps, queue gauges) — snapshotted via the `stats` verb.
    server_stats: Vec<StatEntry>,
    /// The drained server's summary when the drill self-hosted one.
    summary: Option<ServeSummary>,
}

/// Adversarial overload drill: self-hosts a deliberately small,
/// short-fused server (unless `--addr` points at a live one), then
/// races a deadline-bearing priority workload and a batch workload
/// against misbehaving-client populations, and reports whether the
/// QoS lanes and slow-peer defenses held: priority p99 under its
/// deadline with zero priority sheds, batch absorbing the rejections,
/// and per-connection memory bounded by the buffer cap.
fn overload(args: &[String]) -> Result<(), McdsError> {
    let requests: usize = parsed_opt(args, "--requests")?.unwrap_or(400);
    let deadline_ms: u64 = parsed_opt(args, "--priority-deadline-ms")?.unwrap_or(2000);
    let abuse_clients: usize = parsed_opt(args, "--abuse-clients")?.unwrap_or(4);
    let abuse_duration_ms: u64 = parsed_opt(args, "--abuse-duration-ms")?.unwrap_or(1500);
    let modes: Vec<AbuseMode> = opt(args, "--abuse-modes")
        .unwrap_or("frame_flood,stalled_reader")
        .split(',')
        .map(|m| {
            AbuseMode::from_name(m.trim())
                .ok_or_else(|| McdsError::spec(format!("--abuse-modes `{m}`: unknown mode")))
        })
        .collect::<Result<_, _>>()?;

    // Tight batch quota so admission rejections actually happen, short
    // peer timeouts and a small buffer cap so the abusive populations
    // trip every defense within the drill's runtime.
    let (addr, hosted) = match opt(args, "--addr") {
        Some(a) => (a.to_owned(), None),
        None => {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                queue_depth: 64,
                qos_quotas: [64, 16, 8],
                shed_after_ms: 100,
                idle_timeout_ms: 500,
                write_stall_ms: 500,
                max_conn_buffer_bytes: 64 * 1024,
                ..ServeConfig::default()
            })?;
            let addr = server.local_addr().to_string();
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };
    eprintln!(
        "overload drill against {addr}: {requests} requests/class, \
         {abuse_clients} abusive clients per mode for {abuse_duration_ms}ms"
    );

    let load_for = |class: QosClass,
                    deadline: Option<u64>,
                    pipeline: usize,
                    distinct_keys: usize,
                    retries: u32,
                    seed: u64| {
        run_load(&LoadConfig {
            addr: addr.clone(),
            connections: 2,
            requests,
            distinct_keys,
            pipeline,
            seed,
            deadline_ms: deadline,
            class: Some(class),
            retries,
            ..LoadConfig::default()
        })
    };
    let (priority, batch, abuse) = std::thread::scope(|s| {
        // Priority: few keys (mostly cache hits), shallow pipeline,
        // generous retries — the traffic that must stay fast.
        let p = s.spawn(|| load_for(QosClass::Priority, Some(deadline_ms), 4, 12, 6, 11));
        // Batch: many distinct keys so the cold phase is genuine
        // compute pressure on the batch lane's small quota, a deep
        // pipeline, and few retries so rejections stand and show up.
        let b = s.spawn(|| {
            load_for(
                QosClass::Batch,
                None,
                32,
                requests.div_ceil(4).max(16),
                2,
                23,
            )
        });
        let abusers: Vec<_> = modes
            .iter()
            .map(|&mode| {
                let addr = addr.clone();
                s.spawn(move || {
                    run_abuse(&AbuseConfig {
                        addr,
                        mode,
                        clients: abuse_clients,
                        duration_ms: abuse_duration_ms,
                    })
                })
            })
            .collect();
        let join = "overload driver thread panicked";
        let p = p.join().map_err(|_| McdsError::spec(join));
        let b = b.join().map_err(|_| McdsError::spec(join));
        let abuse: Vec<AbuseReport> = abusers
            .into_iter()
            .map(|h| h.join().expect("abuse populations must not panic"))
            .collect();
        (p, b, abuse)
    });
    let (mut priority, mut batch) = (priority??, batch??);
    priority.strip_raw();
    batch.strip_raw();

    let server_stats: Vec<StatEntry> = {
        let mut client = ClientConfig::new(&addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("stats connection: {e}")))?;
        let reply = client
            .stats()
            .map_err(|e| McdsError::spec(format!("stats: {e}")))?;
        reply
            .entries
            .into_iter()
            .filter(|e| e.name.starts_with("serve."))
            .collect()
    };
    let stat = |name: &str| {
        server_stats
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };
    let priority_sheds = stat("serve.qos.shed.priority");
    let buffer_high_water_bytes = stat("serve.conn.buffer_bytes.max");

    let summary = match hosted {
        None => None,
        Some(handle) => {
            // The shutdown frame can race lingering abusive
            // connections being reaped; retry on fresh connections
            // until the server actually drains (watchdog-bounded).
            let watchdog = std::time::Instant::now();
            while !handle.is_finished() {
                if watchdog.elapsed() > std::time::Duration::from_secs(60) {
                    return Err(McdsError::spec("overload: server did not drain within 60s"));
                }
                let _ = chaos_shutdown(&addr, 5);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Some(
                handle
                    .join()
                    .map_err(|_| McdsError::spec("overload: server thread panicked"))??,
            )
        }
    };

    let report = OverloadReport {
        priority_deadline_ms: deadline_ms,
        priority_sheds,
        priority_p99_within_deadline: priority.p99_us <= deadline_ms.saturating_mul(1000),
        buffer_high_water_bytes,
        priority,
        batch,
        abuse,
        server_stats,
        summary,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| McdsError::spec(e.to_string()))?;
    println!("{json}");
    if let Some(path) = opt(args, "--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    Ok(())
}

/// One hot-path evidence report: warm (analysis-reuse) arch-only
/// variant runs against from-scratch runs. Absolute nanoseconds are
/// machine-dependent; the regression gate in [`check_hotpath`]
/// therefore compares *speedup ratios* only.
#[derive(serde::Serialize, serde::Deserialize)]
struct HotpathReport {
    analysis_reuse: Vec<AnalysisProbe>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct AnalysisProbe {
    workload: String,
    fb_kw: u64,
    warmed_by_fb_kw: u64,
    scratch_ns: f64,
    warm_ns: f64,
    speedup: f64,
}

/// Minimum per-iteration nanoseconds of two operations whose repeat
/// windows are interleaved `a, b, a, b, …`.
///
/// The minimum estimates the noise floor — co-tenant load and CPU
/// frequency drift only ever *add* time — so it is far more
/// reproducible run-to-run than a mean or median, which is what the
/// `--check` regression gate needs. Every probe here reports a *ratio*
/// of the two timings, and interleaving makes transient machine load
/// hit both sides rather than sinking whichever one was being measured
/// when it arrived. One untimed warm-up run of each operation precedes
/// the measurements so neither cold caches nor CPU frequency ramp-up
/// bias whichever probe happens to run first.
fn paired_min_ns(
    repeats: u32,
    iters_a: u32,
    iters_b: u32,
    mut op_a: impl FnMut(),
    mut op_b: impl FnMut(),
) -> (f64, f64) {
    for _ in 0..iters_a {
        op_a();
    }
    for _ in 0..iters_b {
        op_b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        for _ in 0..iters_a {
            op_a();
        }
        best_a = best_a.min(t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters_a));
        let t0 = std::time::Instant::now();
        for _ in 0..iters_b {
            op_b();
        }
        best_b = best_b.min(t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters_b));
    }
    (best_a, best_b)
}

/// Arch-only cache-miss latency: the same workload structure scheduled
/// at a new Frame Buffer size, from scratch versus over an analysis
/// warmed by the largest paper architecture (whose RF-ladder rungs are
/// a superset of the smaller sizes').
fn analysis_probe(repeats: u32, name: &str, fb_kw: u64, warm_kw: u64) -> AnalysisProbe {
    let e = mcds_workloads::table1::table1_experiments()
        .into_iter()
        .find(|e| e.name == name)
        .expect("a Table-1 workload");
    let build = |kw: u64| {
        Pipeline::new(e.app.clone())
            .schedule(e.sched.clone())
            .arch(ArchParams::m1_with_fb(Words::kilo(kw)))
            .scheduler(SchedulerKind::Cds)
    };
    let prepared = build(warm_kw).prepare().expect("prepares");
    let _ = build(warm_kw).run_prepared(&prepared);
    // The warm run is several times faster than the scratch run, so it
    // gets proportionally more iterations per window; interleaving the
    // two probes' repeat windows means a co-tenant load burst hits both
    // sides of the ratio instead of sinking whichever happened to be
    // measured during it, and each side's minimum samples quiet periods
    // across the whole probe duration.
    let iters = 64u32;
    let warm_iters = iters * 4;
    let (scratch_ns, warm_ns) = paired_min_ns(
        repeats,
        iters,
        warm_iters,
        || {
            std::hint::black_box(build(fb_kw).run().ok());
        },
        || {
            std::hint::black_box(build(fb_kw).run_prepared(&prepared).ok());
        },
    );
    AnalysisProbe {
        workload: name.to_owned(),
        fb_kw,
        warmed_by_fb_kw: warm_kw,
        scratch_ns,
        warm_ns,
        speedup: scratch_ns / warm_ns,
    }
}

/// Fails when any current speedup falls more than 10% below the
/// committed baseline's — ratios, not nanoseconds, so the gate is
/// stable across machines.
fn check_hotpath(current: &HotpathReport, baseline: &HotpathReport) -> Result<(), McdsError> {
    let mut failures = Vec::new();
    for base in &baseline.analysis_reuse {
        let Some(cur) = current
            .analysis_reuse
            .iter()
            .find(|p| p.workload == base.workload && p.fb_kw == base.fb_kw)
        else {
            failures.push(format!("analysis probe {} missing", base.workload));
            continue;
        };
        if cur.speedup < base.speedup * 0.9 {
            failures.push(format!(
                "analysis-reuse {}@{}K: speedup {:.2}x regressed >10% below baseline {:.2}x",
                base.workload, base.fb_kw, cur.speedup, base.speedup
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(McdsError::spec(format!(
            "hotpath regression: {}",
            failures.join("; ")
        )))
    }
}

fn hotpath(args: &[String]) -> Result<(), McdsError> {
    let repeats: u32 = parsed_opt(args, "--repeats")?.unwrap_or(5);
    let report = HotpathReport {
        analysis_reuse: ["E1", "E3", "MPEG"]
            .into_iter()
            .map(|name| analysis_probe(repeats, name, 2, 8))
            .collect(),
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| McdsError::spec(e.to_string()))?;
    println!("{json}");
    if let Some(path) = opt(args, "--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    if let Some(path) = opt(args, "--check") {
        let text = std::fs::read_to_string(path)?;
        let baseline: HotpathReport = serde_json::from_str(&text)
            .map_err(|e| McdsError::spec(format!("parsing {path}: {e}")))?;
        check_hotpath(&report, &baseline)?;
        eprintln!("hotpath check passed against {path}");
    }
    Ok(())
}

/// One grid point of the `search-bench` evidence report: greedy CDS
/// and the beam-search scheduler on the same (workload, partition,
/// architecture), with the traffic/cycle deltas and the per-point
/// search counters.
#[derive(serde::Serialize)]
struct SearchPoint {
    point: String,
    fb_words: u64,
    cds_cycles: u64,
    search_cycles: u64,
    cds_avoided_per_iter: u64,
    search_avoided_per_iter: u64,
    /// Extra external-traffic words the search avoids per iteration
    /// over greedy CDS (never negative by construction).
    traffic_saved_per_iter: u64,
    /// Cycles saved over greedy CDS (never negative by construction).
    cycles_saved: u64,
    /// `true` when every RF rung was searched exhaustively (no beam
    /// overflow, no expansion cap) *and* the search matched greedy —
    /// i.e. the greedy walk is provably traffic-optimal here.
    greedy_optimal_proven: bool,
    expansions: u64,
    prunes: u64,
    rollbacks: u64,
}

#[derive(serde::Serialize)]
struct SearchBenchSummary {
    points: usize,
    infeasible_points: usize,
    /// Points where the search avoided strictly more traffic.
    search_wins: usize,
    /// Points where search and greedy tied on both axes.
    greedy_matched: usize,
    /// Ties that were additionally proven optimal (exhaustive search).
    greedy_optimal_proven: usize,
    traffic_saved_per_iter_total: u64,
    cycles_saved_total: u64,
}

#[derive(serde::Serialize)]
struct SearchBenchReport {
    beam_width: u32,
    max_expansions: u32,
    summary: SearchBenchSummary,
    /// The paper's Table-1 design space (9 cells × the FB-size list).
    table1: Vec<SearchPoint>,
    /// Seeded synthetic workloads with heavy sharing.
    synthetic: Vec<SearchPoint>,
    /// Crafted knapsack-trap workload where greedy's TF order is
    /// provably suboptimal, swept across FB sizes.
    adversarial: Vec<SearchPoint>,
}

/// Evaluates greedy CDS and the beam search on one grid point.
/// `None` when the point is infeasible (for both schedulers alike —
/// they share the feasibility predicate).
fn search_point(
    point: String,
    app: &Application,
    sched: &ClusterSchedule,
    arch: &ArchParams,
    beam: u32,
    cap: u32,
) -> Option<SearchPoint> {
    use mcds_core::{evaluate, CdsScheduler, DataScheduler, Observer, ScheduleAnalysis};

    let analysis = ScheduleAnalysis::new(app, sched);
    let cds = CdsScheduler::new()
        .plan_with_analysis(app, sched, arch, &analysis)
        .ok()?;
    let metrics = MetricsRegistry::new();
    let search = mcds_core::SearchScheduler::new(beam, cap)
        .plan_observed(
            app,
            sched,
            arch,
            &analysis,
            Observer::new(None, Some(&metrics)),
        )
        .expect("search feasibility equals greedy CDS feasibility");
    let cds_cycles = evaluate(&cds, arch)
        .expect("planned schedules simulate")
        .total()
        .get();
    let search_cycles = evaluate(&search, arch)
        .expect("planned schedules simulate")
        .total()
        .get();
    let snap = metrics.snapshot();
    let counter = |n: &str| snap.iter().find(|(k, _)| k == n).map_or(0, |&(_, v)| v);
    let rungs = counter("search.rungs");
    let proven = rungs > 0 && counter("search.rungs_proven") == rungs;
    let cds_avoided = cds.dt_avoided_per_iter().get();
    let search_avoided = search.dt_avoided_per_iter().get();
    Some(SearchPoint {
        point,
        fb_words: arch.fb_set_words().get(),
        cds_cycles,
        search_cycles,
        cds_avoided_per_iter: cds_avoided,
        search_avoided_per_iter: search_avoided,
        traffic_saved_per_iter: search_avoided.saturating_sub(cds_avoided),
        cycles_saved: cds_cycles.saturating_sub(search_cycles),
        greedy_optimal_proven: proven
            && search_avoided == cds_avoided
            && search_cycles == cds_cycles,
        expansions: counter("search.expansions"),
        prunes: counter("search.prunes"),
        rollbacks: counter("search.rollbacks"),
    })
}

/// The knapsack trap: clusters C0/C4 (set 0) share one 60-word and two
/// 40-word inputs while the intermediate set-0 cluster C2 carries a
/// 150-word private working set. TF ranks the 60-word input first, so
/// at the right FB size greedy retains 60 avoided words where the
/// 40+40 pair would avoid 80.
fn knapsack_trap() -> Result<(Application, ClusterSchedule), McdsError> {
    let mut b = ApplicationBuilder::new("trap");
    let big = b.data("big", Words::new(60), DataKind::ExternalInput);
    let b1 = b.data("b1", Words::new(40), DataKind::ExternalInput);
    let b2 = b.data("b2", Words::new(40), DataKind::ExternalInput);
    let bulk = b.data("bulk", Words::new(150), DataKind::ExternalInput);
    let m0 = b.data("m0", Words::new(10), DataKind::Intermediate);
    let m1 = b.data("m1", Words::new(10), DataKind::Intermediate);
    let m2 = b.data("m2", Words::new(10), DataKind::Intermediate);
    let m3 = b.data("m3", Words::new(10), DataKind::Intermediate);
    let f = b.data("f", Words::new(10), DataKind::FinalResult);
    let k0 = b.kernel("k0", 8, Cycles::new(100), &[big, b1, b2], &[m0]);
    let k1 = b.kernel("k1", 8, Cycles::new(100), &[m0], &[m1]);
    let k2 = b.kernel("k2", 8, Cycles::new(100), &[bulk, m1], &[m2]);
    let k3 = b.kernel("k3", 8, Cycles::new(100), &[m2], &[m3]);
    let k4 = b.kernel("k4", 8, Cycles::new(100), &[big, b1, b2, m3], &[f]);
    let app = b.iterations(4).build()?;
    let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2], vec![k3], vec![k4]])?;
    Ok((app, sched))
}

fn search_bench(args: &[String]) -> Result<(), McdsError> {
    use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
    use mcds_workloads::table1::table1_experiments;

    let beam: u32 = parsed_opt(args, "--beam")?.unwrap_or(32);
    let cap: u32 = parsed_opt(args, "--max-expansions")?.unwrap_or(100_000);
    let seeds: u64 = parsed_opt(args, "--seeds")?.unwrap_or(12);
    let fb_kw: Vec<u64> = opt(args, "--fb-kw-list")
        .unwrap_or("1,2,3,8")
        .split(',')
        .map(|v| {
            v.trim()
                .parse()
                .map_err(|e| McdsError::spec(format!("--fb-kw-list `{v}`: {e}")))
        })
        .collect::<Result<_, _>>()?;

    let mut infeasible = 0usize;
    let mut measure = |family: &mut Vec<SearchPoint>,
                       point: String,
                       app: &Application,
                       sched: &ClusterSchedule,
                       arch: &ArchParams| {
        match search_point(point, app, sched, arch, beam, cap) {
            Some(p) => family.push(p),
            None => infeasible += 1,
        }
    };

    // Family 1: the Table-1 design space (distinct (app, partition)
    // pairs as in `table1_sweep`) × the FB-size list.
    let mut cells: Vec<(String, Application, ClusterSchedule)> = Vec::new();
    for e in table1_experiments() {
        if cells
            .iter()
            .any(|(_, app, sched)| *app == e.app && *sched == e.sched)
        {
            continue;
        }
        cells.push((e.name.to_owned(), e.app, e.sched));
    }
    let mut table1 = Vec::new();
    for (name, app, sched) in &cells {
        for &kw in &fb_kw {
            let arch = ArchParams::m1_with_fb(Words::kilo(kw));
            measure(&mut table1, format!("{name}@{kw}K"), app, sched, &arch);
        }
    }

    // Family 2: seeded synthetic workloads biased toward heavy sharing,
    // at a tight and a comfortable FB.
    let config = SyntheticConfig {
        clusters: 6,
        share_probability: 0.9,
        cross_probability: 0.6,
        data_words: (64, 512),
        ..SyntheticConfig::default()
    };
    let mut synthetic = Vec::new();
    for seed in 1..=seeds {
        let (app, sched) = SyntheticGenerator::new(seed)
            .generate(&config)
            .map_err(|e| McdsError::spec(format!("synthetic seed {seed}: {e}")))?;
        for &kw in &[1u64, 2] {
            let arch = ArchParams::m1_with_fb(Words::kilo(kw));
            measure(
                &mut synthetic,
                format!("synthetic-{seed}@{kw}K"),
                &app,
                &sched,
                &arch,
            );
        }
    }

    // Family 3: the adversarial knapsack trap across a fine FB range
    // bracketing the window where greedy's TF order loses.
    let (trap_app, trap_sched) = knapsack_trap()?;
    let mut adversarial = Vec::new();
    for fb in (200u64..=320).step_by(10) {
        let arch = ArchParams::m1_with_fb(Words::new(fb));
        measure(
            &mut adversarial,
            format!("trap@{fb}w"),
            &trap_app,
            &trap_sched,
            &arch,
        );
    }

    let all = table1.iter().chain(&synthetic).chain(&adversarial);
    let summary = SearchBenchSummary {
        points: table1.len() + synthetic.len() + adversarial.len(),
        infeasible_points: infeasible,
        search_wins: all.clone().filter(|p| p.traffic_saved_per_iter > 0).count(),
        greedy_matched: all
            .clone()
            .filter(|p| p.traffic_saved_per_iter == 0 && p.cycles_saved == 0)
            .count(),
        greedy_optimal_proven: all.clone().filter(|p| p.greedy_optimal_proven).count(),
        traffic_saved_per_iter_total: all.clone().map(|p| p.traffic_saved_per_iter).sum(),
        cycles_saved_total: all.clone().map(|p| p.cycles_saved).sum(),
    };
    let report = SearchBenchReport {
        beam_width: beam,
        max_expansions: cap,
        summary,
        table1,
        synthetic,
        adversarial,
    };
    let json = serde_json::to_string_pretty(&report).map_err(|e| McdsError::spec(e.to_string()))?;
    println!("{json}");
    if let Some(path) = opt(args, "--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    Ok(())
}

fn print_sweep(report: &SweepReport, format: &str) -> Result<(), McdsError> {
    match format {
        "table" => print!("{}", report.table()),
        "json" => println!("{}", report.to_json()?),
        "csv" => print!("{}", report.to_csv()),
        other => {
            return Err(McdsError::spec(format!(
                "unknown format `{other}` (expected table, json, or csv)"
            )))
        }
    }
    Ok(())
}
