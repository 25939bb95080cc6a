//! `plan-cold`: the paper's compile-time use. Every operation schedules
//! one grid point from scratch with `Pipeline::run`, through the library
//! alone.

use std::sync::Arc;
use std::time::Instant;

use mcds_core::{McdsError, MetricsRegistry, PipelineRun};
use mcds_sim::Simulator;

use crate::grid::{self, Apps, Point, Record};
use crate::layers;
use crate::measure::Tracer;
use crate::{Clock, Failure, Run};

/// Untimed operations before the clock starts, on a seed-independent
/// sample of the grid.
const WARMUP_OPS: usize = 1024;

struct Inputs {
    record: Record,
    order: Vec<Point>,
    apps: Apps,
}

impl Inputs {
    fn check(&self, p: &Point, result: &Result<PipelineRun, McdsError>) -> Result<(), Failure> {
        let run = result
            .as_ref()
            .map_err(|e| Failure::Error(format!("{p:?}: {e}")))?;
        let outcome = grid::outcome_of(run, self.apps.get(p).0.name(), p);
        self.record
            .expected(p)
            .check(None, &outcome)
            .map_err(|why| Failure::Mismatch(format!("{p:?}: {why}")))
    }
}

fn setup(seed: u64, run: &mut Run, tracer: Option<&mut Tracer>) -> Result<Inputs, String> {
    let record = Record::parse(grid::RECORD);
    let schedulable = record.schedulable();
    let order = grid::seeded_order(&schedulable, seed);
    let apps = Apps::build(&order, tracer)?;
    let inputs = Inputs {
        record,
        order,
        apps,
    };
    for p in &grid::fixed_sample(&schedulable, WARMUP_OPS, seed) {
        let result = inputs.apps.pipeline(p).run();
        run.check(inputs.check(p, &result));
    }
    Ok(inputs)
}

pub fn run(seed: u64, seconds: f64, trace: bool, reps: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let mut tracer = Tracer::default();
    let mut inputs = None;
    for _ in 0..reps {
        drop(inputs.take());
        let started = Instant::now();
        inputs = Some(setup(seed, &mut run, trace.then_some(&mut tracer))?);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    if !trace {
        timed(&inputs, seconds, &mut run);
        return Ok(run);
    }
    // The traced half replays the untraced half's operations, so the
    // overhead compares the same work.
    timed(&inputs, seconds / 2.0, &mut run);
    let ops = run.latencies_ns.len() as u64;
    let untraced_ops_per_s = ops as f64 / run.wall_s;
    traced(&inputs, ops, &mut run, &mut tracer, untraced_ops_per_s);
    layers::write_spans(&tracer, "plan-cold", seed);
    Ok(run)
}

/// Runs the grid in order from its start until the clock runs out.
fn timed(inputs: &Inputs, seconds: f64, run: &mut Run) {
    let mut clock = Clock::new(seconds);
    let start = run.latencies_ns.len();
    clock.resume();
    for p in inputs.order.iter().cycle() {
        if clock.lap(run.latencies_ns.len() - start) {
            break;
        }
        let pipeline = inputs.apps.pipeline(p);
        let started = Instant::now();
        let result = pipeline.run();
        run.latencies_ns.push(started.elapsed().as_nanos() as u64);
        run.check(inputs.check(p, &result));
    }
    clock.finish(run);
}

fn run_prepared_span(p: &Point) -> &'static str {
    match p.scheduler {
        "basic" => "pipeline.run_prepared.basic",
        "ds" => "pipeline.run_prepared.ds",
        "cds" => "pipeline.run_prepared.cds",
        _ => "pipeline.run_prepared.search",
    }
}

/// Each operation split into `prepare` + `run_prepared` with a registry
/// attached, plus a replay of the final plan on the simulator.
fn traced(inputs: &Inputs, ops: u64, run: &mut Run, tracer: &mut Tracer, untraced_ops_per_s: f64) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut clock = Clock::new(f64::INFINITY);
    let mut sim_ops = 0u64;
    clock.resume();
    for p in inputs.order.iter().cycle().take(ops as usize) {
        let op = tracer.begin("op", None);
        let pipeline = inputs.apps.pipeline(p).metrics(Arc::clone(&registry));
        let result = tracer
            .time("pipeline.prepare", Some(op), || pipeline.prepare())
            .and_then(|prepared| {
                tracer.time(run_prepared_span(p), Some(op), || {
                    pipeline.run_prepared(&prepared)
                })
            });
        if let Ok(r) = &result {
            let ops_in_plan = r.plan().ops();
            sim_ops += ops_in_plan.len() as u64;
            let replay = tracer.time("sim.run", Some(op), || {
                Simulator::new(p.arch()).run(ops_in_plan)
            });
            if !replay.is_ok_and(|report| report.total() == r.report().total()) {
                run.check(Err(Failure::Mismatch(format!(
                    "{p:?}: simulator replay differs"
                ))));
            }
        }
        let verdict = tracer.time("client.check", Some(op), || inputs.check(p, &result));
        run.check(verdict);
        tracer.end(op);
        tracer.close_op();
    }
    let wall_s = clock.stop();
    layers::report_overhead(run, ops, untraced_ops_per_s, ops as f64 / wall_s);
    layers::report_spans(run, tracer);
    run.set(
        "sim.ops_per_run",
        layers::ratio(sim_ops as f64, tracer.layer("sim.run").calls as f64),
    );
    layers::report_counters(run, ops, |name| registry.get(name).unwrap_or(0));
}
