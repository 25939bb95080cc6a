//! Hot-path micro-benchmarks backing `BENCH_hotpath.json`: prepared
//! (analysis-reuse) pipeline runs against from-scratch runs for
//! arch-only variants.
//!
//! ```sh
//! cargo bench -p mcds-bench --bench hotpath
//! ```
//!
//! The committed evidence file is produced by `mcds hotpath`, which
//! measures the same workloads deterministically and supports `--check`
//! for regression gating in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcds_core::{Pipeline, SchedulerKind};
use mcds_model::{ArchParams, Words};
use mcds_workloads::table1::table1_experiments;
use std::hint::black_box;

/// Arch-only variants of one workload structure: a from-scratch run
/// re-derives the whole analysis (lifetimes, sharing candidates,
/// RF-ladder rungs) per architecture; a run over a warm [`PreparedSchedule`]
/// (here warmed by the largest Frame Buffer, whose rung ladder is a
/// superset of the smaller ones) replays the memoized work.
fn bench_analysis_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath/analysis-reuse");
    for name in ["E3", "MPEG"] {
        let e = table1_experiments()
            .into_iter()
            .find(|e| e.name == name)
            .expect("experiment on the grid");
        let build = |fb_kw: u64| {
            Pipeline::new(e.app.clone())
                .schedule(e.sched.clone())
                .arch(ArchParams::m1_with_fb(Words::kilo(fb_kw)))
                .scheduler(SchedulerKind::Cds)
        };
        group.bench_function(BenchmarkId::new("from-scratch", name), |b| {
            b.iter(|| black_box(build(2).run().ok()));
        });
        group.bench_function(BenchmarkId::new("warm-variant", name), |b| {
            let prepared = build(8).prepare().expect("prepares");
            let _ = build(8).run_prepared(&prepared);
            b.iter(|| black_box(build(2).run_prepared(&prepared).ok()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_analysis_reuse);
criterion_main!(benches);
