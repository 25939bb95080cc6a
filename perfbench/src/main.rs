//! End-to-end benchmark of the mcds planner and scheduling service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-cold|serve-cold|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process, pinned to one CPU. With `--trace 0` the
//! last stdout line is a JSON object with the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run. See
//! `README.md` beside this file for what each metric means.

mod grid;
mod layers;
mod measure;
mod plan_cold;
mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, nearest_rank, usage};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where runs keep their store directories and span files.
fn scratch_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/run"))
}

/// What one invocation measured.
#[derive(Default)]
pub struct Run {
    /// Duration of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Timed wall-clock and CPU seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Operations done in each whole second of the timed phase.
    pub per_second: Vec<usize>,
    /// Checked operations, set-up included.
    pub attempted: u64,
    /// Failed operations the benchmark saw itself.
    pub failed: u64,
    /// Failures whose output differed from the record.
    pub mismatches: u64,
    /// Failures the server counted (errors, rejections, restarts).
    pub server_failures: u64,
    pub first_failure: Option<String>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
}

/// How a checked operation went wrong.
pub enum Failure {
    /// The output differs from the record.
    Mismatch(String),
    /// A typed error, a rejection or a transport error.
    Error(String),
}

impl Run {
    /// Counts one checked operation.
    pub fn check(&mut self, verdict: Result<(), Failure>) {
        self.attempted += 1;
        let why = match verdict {
            Ok(()) => return,
            Err(Failure::Mismatch(why)) => {
                self.mismatches += 1;
                why
            }
            Err(Failure::Error(why)) => why,
        };
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why);
        }
    }

    /// Sets a per-layer metric; the name must be in [`layers::PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            layers::PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }
}

/// Wall-clock and CPU time of the timed phase, which may be split into
/// segments (a cold server restart pauses it). It also counts the
/// operations done in each second of running time, which shows whether
/// a run straddled a change in the host's speed.
pub struct Clock {
    budget_s: f64,
    wall_s: f64,
    cpu_s: f64,
    segment: Option<(Instant, f64)>,
    per_second: Vec<usize>,
    /// Operations done at the last whole second.
    mark: usize,
}

impl Clock {
    pub fn new(budget_s: f64) -> Clock {
        Clock {
            budget_s,
            wall_s: 0.0,
            cpu_s: 0.0,
            segment: None,
            per_second: Vec::new(),
            mark: 0,
        }
    }

    pub fn resume(&mut self) {
        self.segment = Some((Instant::now(), usage().cpu_s));
    }

    pub fn pause(&mut self) {
        if let Some((wall, cpu)) = self.segment.take() {
            self.wall_s += wall.elapsed().as_secs_f64();
            self.cpu_s += usage().cpu_s - cpu;
        }
    }

    /// Called between operations with the number done so far; tells
    /// whether the budget is spent.
    pub fn lap(&mut self, ops: usize) -> bool {
        let wall = self.wall_s + self.segment.map_or(0.0, |(t, _)| t.elapsed().as_secs_f64());
        if wall >= (self.per_second.len() + 1) as f64 {
            self.per_second.push(ops - self.mark);
            self.mark = ops;
        }
        wall >= self.budget_s
    }

    /// Stops the clock and adds its totals to `run`.
    pub fn finish(mut self, run: &mut Run) {
        self.pause();
        run.wall_s += self.wall_s;
        run.cpu_s += self.cpu_s;
        run.per_second.append(&mut self.per_second);
    }

    /// Stops the clock; returns its wall-clock seconds.
    pub fn stop(mut self) -> f64 {
        self.pause();
        self.wall_s
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Result<Args, PathBuf>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--write-expected" => return Ok(Err(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn write_expected(path: &PathBuf) -> Result<(), String> {
    let points = grid::universe();
    let apps = grid::Apps::build(&points, None)?;
    let results: Vec<_> = points
        .iter()
        .map(|p| (*p, grid::library_expectation(&apps, p)))
        .collect();
    std::fs::write(path, grid::Record::render(&results))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = match parse_args()? {
        Ok(args) => args,
        Err(path) => return write_expected(&path),
    };
    let cpu = measure::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let run = match args.workload.as_str() {
        "plan-cold" => plan_cold::run(args.seed, args.seconds, args.trace, reps)?,
        "serve-cold" => serve::run(serve::Mode::Cold, args.seed, args.seconds, args.trace, reps)?,
        "serve-warm" => serve::run(serve::Mode::Warm, args.seed, args.seconds, args.trace, reps)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (plan-cold, serve-cold, serve-warm)"
            ))
        }
    };
    report(&args, cpu, run)
}

fn report(args: &Args, cpu: usize, mut run: Run) -> Result<(), String> {
    let failed = run.failed.max(run.server_failures);
    let correct = run.mismatches == 0;
    println!(
        "workload {} seed {} seconds {} trace {} on CPU {cpu}: attempted {} failed {failed} mismatched {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.attempted,
        run.mismatches
    );
    if let Some(why) = &run.first_failure {
        println!("first failure: {why}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let ops = run.latencies_ns.len();
        if ops == 0 {
            return Err("no operation completed in the timed phase".to_owned());
        }
        // Sorted in place: a copy would count in `peak_rss_mb`.
        run.latencies_ns.sort_unstable();
        let pct = |p| nearest_rank(&run.latencies_ns, p).unwrap_or(0) as f64 / 1e3;
        println!(
            "timed: {ops} ops in {:.3} s wall and {:.3} s CPU; percentiles by nearest rank \
             over n={ops}; ops in each second {:?}; set-up: median of {:?} s",
            run.wall_s, run.cpu_s, run.per_second, run.setup_s
        );
        vec![
            ("p50_us", pct(50.0), "us"),
            ("p90_us", pct(90.0), "us"),
            ("ops_per_s", ops as f64 / run.wall_s, "1/s"),
            ("cpu_us_per_op", run.cpu_s * 1e6 / ops as f64, "us"),
            ("setup_s", median(&run.setup_s), "s"),
            ("peak_rss_mb", usage().peak_rss_kb as f64 / 1024.0, "MB"),
        ]
    };
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        run.attempted
    );
    Ok(())
}
