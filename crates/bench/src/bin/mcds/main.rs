//! `mcds` — file-driven command-line front end to the scheduler stack.
//!
//! Every command builds its plans through the [`Pipeline`] facade (or
//! the sweep engine on top of it) — no hand-wired scheduler stages.
//! Each subcommand's flags are one table in [`mcds_bench::cli`]; an
//! unknown, repeated or value-less flag, or a missing or surplus
//! positional, is refused before anything runs. Positionals may come
//! before or after flags.
//!
//! [`Pipeline`]: mcds_core::Pipeline
//!
//! ```text
//! mcds sample-app                          # print a sample application JSON
//! mcds inspect  <app.json>                 # summary + dataflow
//! mcds plan     <app.json> [options]       # plan + simulate
//! mcds run      <app.json> [options]       # plan + simulate with tracing
//! mcds explore  <app.json> [options]       # kernel-scheduler partition search
//! mcds sweep    [app.json …] [options]     # parallel design-space sweep
//! mcds serve    [options]                  # scheduling service (versioned newline-delimited JSON over TCP)
//! mcds load     [options]                  # pipelined load driver; prints a JSON report
//! mcds chaos    [options]                  # deterministic fault-injection soak; prints JSON per seed
//! mcds crashdrill [options]                # kill -9 durability drill; prints a JSON evidence report
//! mcds overload [options]                  # adversarial overload drill; prints a JSON evidence report
//! mcds hotpath  [options]                  # hot-path micro-benchmarks; prints a JSON evidence report
//! mcds search-bench [options]              # beam-search vs greedy CDS benchmark; prints a JSON evidence report
//!
//! plan and run options (explore takes --fb-kw and --cross-set):
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
//! sweep options (and --clusters, --cross-set):
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
//! load options:
//!   --addr A:P             server address (default: 127.0.0.1:7171)
//!   --connections N        concurrent connections, one thread each (default: 4)
//!   --requests M           total requests across both phases (default: 200)
//!   --distinct-keys K      distinct request keys; cold phase touches each once (default: 24)
//!   --pipeline W           in-flight requests per connection (default: 32; 1 = lockstep)
//!   --seed S               warm-phase sampling seed (default: 1)
//!   --scheduler basic|ds|cds|search[:beam[:cap]]   (default: server default)
//!   --deadline-ms D        per-request deadline (default: none)
//!   --retries N            re-queues per failed request (default: 3)
//!   --class C              admission class: priority|standard|batch (default: standard)
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

mod drill;
mod hotpath;
mod plan;
mod search_bench;
mod serve;
mod sweep;

use std::process::ExitCode;

use mcds_bench::cli::{self, Args};
use mcds_core::McdsError;
use mcds_model::{Application, ArchParams, ClusterSchedule, KernelId, Words};

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
    let Some((name, rest)) = args.split_first() else {
        let names: Vec<&str> = cli::COMMANDS.iter().map(|c| c.name).collect();
        return Err(McdsError::spec(format!(
            "usage: mcds <{}> …",
            names.join("|")
        )));
    };
    let command =
        cli::command(name).ok_or_else(|| McdsError::spec(format!("unknown command `{name}`")))?;
    let args = cli::parse(command, rest)?;
    match command.name {
        "sample-app" => plan::sample_app(),
        "inspect" => plan::inspect(&args),
        "plan" => plan::plan(&args),
        "run" => plan::run(&args),
        "explore" => plan::explore(&args),
        "sweep" => sweep::sweep(&args),
        "serve" => serve::serve(&args),
        "load" => serve::load(&args),
        "chaos" => drill::chaos(&args),
        "crashdrill" => drill::crashdrill(&args),
        "overload" => drill::overload(&args),
        "hotpath" => hotpath::hotpath(&args),
        "search-bench" => search_bench::search_bench(&args),
        other => unreachable!("`{other}` is in the command table but not dispatched"),
    }
}

fn load_app(path: &str) -> Result<Application, McdsError> {
    let text = std::fs::read_to_string(path)?;
    let app: Application =
        serde_json::from_str(&text).map_err(|e| McdsError::spec(format!("parsing {path}: {e}")))?;
    app.validate()?;
    Ok(app)
}

/// A Frame Buffer set size of `kw` kilowords, refused with a spec error
/// naming `flag` when `kw * 1024` words overflow.
fn fb_words(flag: &str, kw: u64) -> Result<Words, McdsError> {
    Words::checked_kilo(kw).ok_or_else(|| {
        McdsError::spec(format!(
            "{flag}: {kw} is over the limit of {} kilowords",
            Words::MAX_KILO
        ))
    })
}

fn arch_from(args: &Args) -> Result<ArchParams, McdsError> {
    let kw = args.parsed("--fb-kw")?.unwrap_or(1);
    Ok(ArchParams::m1()
        .to_builder()
        .fb_set_words(fb_words("--fb-kw", kw)?)
        .fb_cross_set_access(args.switch("--cross-set"))
        .build())
}

/// The `--fb-kw-list` sizes in kilowords (default `1,2,3,8`), each
/// checked to fit a `u64` once scaled to words.
fn fb_kw_list(args: &Args) -> Result<Vec<u64>, McdsError> {
    let list = args
        .list("--fb-kw-list")?
        .unwrap_or_else(|| vec![1, 2, 3, 8]);
    for &kw in &list {
        fb_words("--fb-kw-list", kw)?;
    }
    Ok(list)
}

fn schedule_from(args: &Args, app: &Application) -> Result<ClusterSchedule, McdsError> {
    match args.value("--clusters") {
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

/// Prints `report` as pretty JSON and, given `out`, writes it there too.
fn print_json(report: &impl serde::Serialize, out: Option<&str>) -> Result<(), McdsError> {
    let json = serde_json::to_string_pretty(report).map_err(|e| McdsError::spec(e.to_string()))?;
    println!("{json}");
    if let Some(path) = out {
        std::fs::write(path, format!("{json}\n"))?;
    }
    Ok(())
}
