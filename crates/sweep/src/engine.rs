//! The parallel evaluation engine.
//!
//! Work is a flat task list: every (workload, partition, architecture)
//! *cell* times every scheduler is one task. Worker threads claim tasks
//! through an atomic cursor and write each result into its pre-assigned
//! slot, so the assembled report is in grid order no matter how the OS
//! interleaves the threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use mcds_core::{
    arch_key, compose_key, evaluate_observed, render_explain, structure_key, ExperimentRow,
    McdsError, Observer, ScheduleAnalysis, ScheduleError, SchedulerKind, TraceSink, VecSink,
};
use mcds_model::{Application, ArchParams, ClusterSchedule, Cycles, Words};

use crate::report::{SchedulerOutcome, SweepReport, SweepRow};
use crate::SweepSpec;

/// What the report keeps from one grid point (the full plan is dropped
/// to keep large sweeps small).
#[derive(Debug, Clone)]
struct PointMeasure {
    rf: u64,
    dt_avoided: Words,
    total: Cycles,
    explain: Option<String>,
}

/// One (workload, partition, architecture) cell of the grid.
struct Cell<'a> {
    workload: &'a str,
    partition: &'a str,
    app: &'a Application,
    sched: &'a ClusterSchedule,
    analysis: &'a ScheduleAnalysis,
    /// Workload-structure key half, shared by every arch/scheduler
    /// variant of this (workload, partition).
    structure: u64,
    arch: ArchParams,
    /// Index into the sweep's arch axis (for the arch-key half).
    arch_idx: usize,
}

pub(crate) fn run(spec: &SweepSpec) -> Result<SweepReport, McdsError> {
    if spec.workloads.is_empty() {
        return Err(McdsError::spec("sweep has no workloads"));
    }
    if spec.schedulers.is_empty() {
        return Err(McdsError::spec("sweep has no schedulers"));
    }
    let archs: Vec<ArchParams> = if spec.archs.is_empty() {
        vec![ArchParams::m1()]
    } else {
        spec.archs.clone()
    };

    // Resolve partitions and build one shared analysis per (workload,
    // partition) — reused across every architecture and scheduler.
    let mut resolved: Vec<Vec<(String, ClusterSchedule, ScheduleAnalysis, u64)>> = Vec::new();
    for w in &spec.workloads {
        let partitions: Vec<(String, ClusterSchedule)> = if w.partitions.is_empty() {
            vec![(
                "singletons".to_owned(),
                ClusterSchedule::singletons(&w.app)?,
            )]
        } else {
            w.partitions.clone()
        };
        resolved.push(
            partitions
                .into_iter()
                .map(|(name, sched)| {
                    let analysis = ScheduleAnalysis::new(&w.app, &sched);
                    let structure = structure_key(&w.app, Some(&sched));
                    (name, sched, analysis, structure)
                })
                .collect(),
        );
    }

    // Flatten into grid-ordered cells.
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for (w, parts) in spec.workloads.iter().zip(&resolved) {
        for (pname, sched, analysis, structure) in parts {
            for (arch_idx, arch) in archs.iter().enumerate() {
                cells.push(Cell {
                    workload: &w.name,
                    partition: pname,
                    app: &w.app,
                    sched,
                    analysis,
                    structure: *structure,
                    arch: *arch,
                    arch_idx,
                });
            }
        }
    }

    let n_sched = spec.schedulers.len();
    let tasks = cells.len() * n_sched;

    // Content-addressed dedup: two tasks whose (app, partition, arch,
    // scheduler, config) hash to the same request key are the same
    // evaluation, so only the first (the *canonical* task) runs and
    // every duplicate reads its slot. The key composes from split
    // halves — each cell's structure half was hashed once at
    // resolution, and the arch half is hashed once per (arch,
    // scheduler) here rather than per task. The mapping is computed
    // serially before the workers start, so it is deterministic.
    let arch_halves: Vec<Vec<u64>> = archs
        .iter()
        .map(|arch| {
            spec.schedulers
                .iter()
                .map(|&kind| arch_key(arch, kind, &spec.config))
                .collect()
        })
        .collect();
    let mut canonical: Vec<usize> = Vec::with_capacity(tasks);
    let mut first_by_key: HashMap<u64, usize> = HashMap::with_capacity(tasks);
    for t in 0..tasks {
        let cell = &cells[t / n_sched];
        let key = compose_key(cell.structure, arch_halves[cell.arch_idx][t % n_sched]);
        canonical.push(*first_by_key.entry(key).or_insert(t));
    }
    let unique: Vec<usize> = (0..tasks).filter(|&t| canonical[t] == t).collect();
    let n_unique = unique.len();

    let workers = spec
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, n_unique.max(1));

    // Each task writes its own slot; slot index == grid index.
    let slots: Vec<OnceLock<Result<PointMeasure, ScheduleError>>> =
        (0..tasks).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);

    let evaluate_task = |t: usize| {
        let cell = &cells[t / n_sched];
        let kind = spec.schedulers[t % n_sched];
        // Per-task sink (when explain capture is on) plus the shared
        // metrics registry; both optional, both allocation-free when
        // absent.
        let sink = spec.capture_explain.then(VecSink::new);
        let observer = Observer::new(
            sink.as_ref().map(|s| s as &dyn TraceSink),
            spec.metrics.as_deref(),
        );
        let result = kind
            .plan_observed(
                cell.app,
                cell.sched,
                &cell.arch,
                &spec.config,
                cell.analysis,
                observer,
            )
            .and_then(|plan| {
                evaluate_observed(&plan, &cell.arch, observer)?;
                Ok(PointMeasure {
                    rf: plan.rf(),
                    dt_avoided: plan.dt_avoided_per_iter(),
                    total: plan.report().total(),
                    explain: sink.as_ref().map(|s| render_explain(&s.take())),
                })
            });
        let _ = slots[t].set(result);
    };

    if workers == 1 {
        for &t in &unique {
            evaluate_task(t);
        }
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let u = cursor.fetch_add(1, Ordering::Relaxed);
                    if u >= n_unique {
                        break;
                    }
                    evaluate_task(unique[u]);
                });
            }
        });
    }

    // Assemble rows in cell (grid) order.
    let rows = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let point = |kind: SchedulerKind| -> Option<&Result<PointMeasure, ScheduleError>> {
                spec.schedulers
                    .iter()
                    .position(|&k| k == kind)
                    .map(|si| slots[canonical[ci * n_sched + si]].get().expect("task ran"))
            };
            let ok = |kind| point(kind).and_then(|r| r.as_ref().ok());
            let improvement = |kind| -> Option<f64> {
                let base = ok(SchedulerKind::Basic)?.total.get();
                let own = ok(kind)?.total.get();
                (base > 0).then(|| (base as f64 - own as f64) / base as f64)
            };
            // Best plan available for the DT/RF columns: CDS, else DS,
            // else Basic.
            let best = ok(SchedulerKind::Cds)
                .or_else(|| ok(SchedulerKind::Ds))
                .or_else(|| ok(SchedulerKind::Basic));
            let row = ExperimentRow::new(
                format!(
                    "{}/{}@{}",
                    cell.workload,
                    cell.partition,
                    cell.arch.fb_set_words()
                ),
                cell.sched.len(),
                cell.sched.max_kernels_per_cluster(),
                cell.app.total_data_per_iteration(),
                best.map_or(Words::ZERO, |m| m.dt_avoided),
                best.map_or(0, |m| m.rf),
                cell.arch.fb_set_words(),
                ok(SchedulerKind::Basic).is_some(),
                improvement(SchedulerKind::Ds),
                improvement(SchedulerKind::Cds),
            );
            let outcomes = spec
                .schedulers
                .iter()
                .map(|&kind| {
                    let r = point(kind).expect("kind is on the axis");
                    SchedulerOutcome {
                        scheduler: kind,
                        rf: r.as_ref().ok().map(|m| m.rf),
                        total_cycles: r.as_ref().ok().map(|m| m.total.get()),
                        dt_avoided: r.as_ref().ok().map(|m| m.dt_avoided.get()),
                        error: r.as_ref().err().map(ToString::to_string),
                        explain: r.as_ref().ok().and_then(|m| m.explain.clone()),
                    }
                })
                .collect();
            SweepRow {
                workload: cell.workload.to_owned(),
                partition: cell.partition.to_owned(),
                fb_set: cell.arch.fb_set_words(),
                cross_set: cell.arch.fb_cross_set_access(),
                outcomes,
                row,
            }
        })
        .collect();

    Ok(SweepReport {
        rows,
        metrics: spec.metrics.as_ref().map(|m| m.snapshot()),
    })
}
