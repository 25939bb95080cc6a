//! Golden-trace regression tests: the rendered `--explain` decision log
//! for two Table-1 workloads under every scheduler, and for two
//! knapsack-trap workloads under the CDS and the search scheduler, is
//! snapshotted in `tests/golden/` and must stay byte-identical. So is
//! the metrics registry's snapshot after a run of each of those
//! workloads under every scheduler (`tests/golden/metrics/`).
//!
//! When a deliberate scheduler change alters the decisions, refresh the
//! snapshots with
//!
//! ```text
//! BLESS=1 cargo test -p mcds-bench --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

use std::path::PathBuf;
use std::sync::Arc;

use mcds_core::{MetricsRegistry, Pipeline, SchedulerKind};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use mcds_sweep::{SweepReport, SweepSpec, SweepWorkload};
use mcds_workloads::synthetic::knapsack_trap;
use mcds_workloads::table1::{table1_experiments, Experiment};

/// The snapshotted workloads: one small pipeline and one real-media
/// decoder, both feasible under all three schedulers at their paper
/// architecture.
const GOLDEN: [&str; 2] = ["E1", "MPEG"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .canonicalize()
        .expect("tests/golden exists")
}

fn experiments() -> Vec<Experiment> {
    let exps: Vec<Experiment> = table1_experiments()
        .into_iter()
        .filter(|e| GOLDEN.contains(&e.name))
        .collect();
    assert_eq!(exps.len(), GOLDEN.len(), "both golden workloads found");
    exps
}

/// One snapshotted workload and the schedulers whose logs are pinned.
/// A log lives in `<name>_<scheduler name>.txt`.
struct GoldenCase {
    name: &'static str,
    app: Application,
    sched: ClusterSchedule,
    arch: ArchParams,
    kinds: Vec<SchedulerKind>,
}

fn golden_cases() -> Vec<GoldenCase> {
    let mut cases: Vec<GoldenCase> = experiments()
        .into_iter()
        .map(|e| GoldenCase {
            name: e.name,
            app: e.app,
            sched: e.sched,
            arch: e.arch,
            kinds: [
                SchedulerKind::ALL.as_slice(),
                &[SchedulerKind::search_default()],
            ]
            .concat(),
        })
        .collect();
    let trap_kinds = vec![SchedulerKind::Cds, SchedulerKind::search_default()];
    // `search-bench`'s trap at 250 words: the searched set wins (80
    // against 60 words/iter avoided), so this log narrates a searched
    // pick by replaying its accepts.
    let (app, sched) = knapsack_trap(60, 40, 150, 10, 4).expect("valid");
    cases.push(GoldenCase {
        name: "trap250",
        app,
        sched,
        arch: ArchParams::m1_with_fb(Words::new(250)),
        kinds: trap_kinds.clone(),
    });
    // The never-worse guard: the searched RF-2 rung ties RF 1's cycles
    // with less retention, so the search falls back to greedy's RF-1
    // pick and narrates the greedy walk.
    let (app, sched) = knapsack_trap(50, 30, 50, 30, 2).expect("valid");
    cases.push(GoldenCase {
        name: "trap-guard",
        app,
        sched,
        arch: ArchParams::m1_with_fb(Words::new(310)),
        kinds: trap_kinds,
    });
    cases
}

fn explain(case: &GoldenCase, kind: SchedulerKind) -> String {
    let (_, log) = Pipeline::new(case.app.clone())
        .arch(case.arch)
        .schedule(case.sched.clone())
        .scheduler(kind)
        .explain()
        .expect("golden workloads are feasible");
    log
}

#[test]
fn explain_logs_match_golden_snapshots() {
    let bless = std::env::var_os("BLESS").is_some();
    let dir = golden_dir();
    for case in &golden_cases() {
        for &kind in &case.kinds {
            let log = explain(case, kind);
            let path = dir.join(format!("{}_{}.txt", case.name, kind.name()));
            if bless {
                std::fs::write(&path, &log).expect("write snapshot");
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|err| {
                panic!(
                    "missing snapshot {} ({err}); run `BLESS=1 cargo test -p mcds-bench \
                     --test golden_traces` to create it",
                    path.display()
                )
            });
            assert_eq!(
                log,
                want,
                "decision log for {}/{kind} drifted from {}; if the change is \
                 intentional, refresh with BLESS=1",
                case.name,
                path.display()
            );
        }
    }
}

/// The metrics registry's snapshot after one run of `case` under
/// `kind` (through `explain` when `narrated`), one `name value` line
/// per counter in snapshot (name) order. The run's result does not
/// matter: an infeasible plan still counts.
fn metrics_after(case: &GoldenCase, kind: SchedulerKind, narrated: bool) -> String {
    let metrics = Arc::new(MetricsRegistry::new());
    let pipeline = Pipeline::new(case.app.clone())
        .arch(case.arch)
        .schedule(case.sched.clone())
        .scheduler(kind)
        .metrics(Arc::clone(&metrics));
    let _ = if narrated {
        pipeline.explain().map(|(run, _)| run)
    } else {
        pipeline.run()
    };
    metrics
        .snapshot()
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

/// The counter cases: every golden workload under all four schedulers,
/// plus MPEG at 1 K words with cross-set access, the catalog point
/// where greedy CDS rejects a candidate (`retention.rejected`) and
/// Basic is infeasible (`plan.infeasible`).
fn metrics_cases() -> Vec<GoldenCase> {
    let every_kind = [
        SchedulerKind::ALL.as_slice(),
        &[SchedulerKind::search_default()],
    ]
    .concat();
    let mut cases = golden_cases();
    let mpeg = cases
        .iter()
        .find(|case| case.name == "MPEG")
        .expect("MPEG is a golden case");
    let cross = GoldenCase {
        name: "MPEG-cross-1K",
        app: mpeg.app.clone(),
        sched: mpeg.sched.clone(),
        arch: mpeg
            .arch
            .to_builder()
            .fb_set_words(Words::kilo(1))
            .fb_cross_set_access(true)
            .build(),
        kinds: Vec::new(),
    };
    cases.push(cross);
    for case in &mut cases {
        case.kinds.clone_from(&every_kind);
    }
    cases
}

/// Counter totals are pinned: a plan reports the same `plan.*`,
/// `retention.*`, `search.*`, `fb.*` and `sim.*` values whether or not
/// a sink narrates it, and those values match the snapshots.
#[test]
fn metrics_snapshots_match_golden_and_explain() {
    let bless = std::env::var_os("BLESS").is_some();
    let dir = golden_dir().join("metrics");
    let mut rejected = 0;
    for case in &metrics_cases() {
        for &kind in &case.kinds {
            let quiet = metrics_after(case, kind, false);
            let narrated = metrics_after(case, kind, true);
            assert_eq!(
                quiet, narrated,
                "{}/{kind}: a metrics-only run and explain must count alike",
                case.name
            );
            rejected += quiet
                .lines()
                .filter_map(|line| line.strip_prefix("retention.rejected "))
                .map(|v| v.parse::<u64>().expect("counter value"))
                .sum::<u64>();
            let path = dir.join(format!("{}_{}.txt", case.name, kind.name()));
            if bless {
                std::fs::create_dir_all(&dir).expect("create metrics dir");
                std::fs::write(&path, &quiet).expect("write snapshot");
                continue;
            }
            let want = std::fs::read_to_string(&path).unwrap_or_else(|err| {
                panic!(
                    "missing snapshot {} ({err}); run `BLESS=1 cargo test -p mcds-bench \
                     --test golden_traces` to create it",
                    path.display()
                )
            });
            assert_eq!(
                quiet,
                want,
                "metrics for {}/{kind} drifted from {}",
                case.name,
                path.display()
            );
        }
    }
    assert!(rejected > 1, "fixtures exercise greedy rejections");
}

fn sweep_with_explains(threads: usize) -> SweepReport {
    let mut spec = SweepSpec::new()
        .capture_explain(true)
        .threads(Some(threads));
    for e in experiments() {
        spec = spec
            .arch(e.arch)
            .workload(SweepWorkload::new(e.name, e.app).partition("golden", e.sched));
    }
    spec.run().expect("sweep runs")
}

#[test]
fn sweep_traces_are_byte_identical_across_thread_counts() {
    let serial = sweep_with_explains(1);
    let serial_json = serial.to_json().expect("serializes");
    for threads in [2, 8] {
        let parallel = sweep_with_explains(threads);
        assert_eq!(
            serial_json,
            parallel.to_json().expect("serializes"),
            "captured traces must not depend on thread count ({threads} workers)"
        );
    }
    // Where a sweep cell matches an experiment's own architecture, the
    // captured trace is the exact golden log — the sweep engine and the
    // pipeline facade drive the identical instrumented path.
    let dir = golden_dir();
    let mut checked = 0;
    for e in &experiments() {
        let row = serial
            .rows
            .iter()
            .find(|r| r.workload == e.name && r.fb_set == e.arch.fb_set_words())
            .expect("cell on the grid");
        for o in &row.outcomes {
            let path = dir.join(format!("{}_{}.txt", e.name, o.scheduler));
            let Ok(want) = std::fs::read_to_string(&path) else {
                continue; // unblessed tree: the snapshot test reports it
            };
            assert_eq!(
                o.explain.as_deref(),
                Some(want.as_str()),
                "sweep-captured trace for {}/{} must equal the golden log",
                e.name,
                o.scheduler
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "at least one golden cell compared");
}
