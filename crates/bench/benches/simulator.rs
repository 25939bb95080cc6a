//! Simulator engine throughput: ops executed per second on growing
//! schedules, and the cost split between building and running them.
//!
//! ```sh
//! cargo bench -p mcds-bench --bench simulator
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mcds_model::{ArchParams, Cycles, FbSet, KernelId, Words};
use mcds_sim::{OpSchedule, OpScheduleBuilder, Simulator};
use std::hint::black_box;

/// A pipelined schedule of `stages` stages (ctx + load + compute +
/// store each).
fn pipeline_schedule(stages: usize) -> OpSchedule {
    let mut b = OpScheduleBuilder::new();
    for s in 0..stages {
        let set = if s % 2 == 0 { FbSet::Set0 } else { FbSet::Set1 };
        let ctx = b.load_context(128, &[]);
        let load = b.load_data(set, Words::new(256), &[]);
        let comp = b.compute(
            KernelId::new((s % 8) as u32),
            set,
            Cycles::new(300),
            &[ctx, load],
        );
        b.store_data(set, Words::new(128), &[comp]);
    }
    b.build().expect("valid schedule")
}

fn bench_engine(c: &mut Criterion) {
    let sim = Simulator::new(ArchParams::m1());
    let mut group = c.benchmark_group("sim/engine");
    for stages in [100usize, 1000, 10_000] {
        let schedule = pipeline_schedule(stages);
        group.throughput(Throughput::Elements(schedule.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(stages),
            &schedule,
            |b, schedule| {
                b.iter(|| black_box(sim.run(schedule).expect("runs").total()));
            },
        );
    }
    group.finish();
}

fn bench_builder(c: &mut Criterion) {
    c.bench_function("sim/build-1000-stages", |b| {
        b.iter(|| black_box(pipeline_schedule(1000).len()));
    });
}

criterion_group!(benches, bench_engine, bench_builder);
criterion_main!(benches);
