//! Frame Buffer allocator micro-benchmarks: churn throughput,
//! fragmentation behaviour, the split path and the regularity fast
//! path.
//!
//! ```sh
//! cargo bench -p mcds-bench --bench fballoc
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcds_fballoc::{Direction, FbAllocator, PlacementMemory};
use mcds_model::Words;
use std::hint::black_box;

/// Two-ended alloc/free churn: the §5 steady state.
fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("fballoc/churn");
    for objects in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(objects), &objects, |b, &n| {
            b.iter(|| {
                let mut fb = FbAllocator::new(Words::kilo(8));
                let mut live = Vec::with_capacity(n);
                for i in 0..n {
                    let dir = if i % 2 == 0 {
                        Direction::FromUpper
                    } else {
                        Direction::FromLower
                    };
                    live.push(fb.alloc("x", Words::new(16), dir).expect("fits"));
                }
                for a in live {
                    fb.free(a).expect("live");
                }
                black_box(fb.stats().allocs())
            });
        });
    }
    group.finish();
}

/// First-fit scan cost under heavy fragmentation (many small holes).
fn bench_fragmented_first_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fballoc/fragmented-first-fit");
    for holes in [16u64, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(holes), &holes, |b, &holes| {
            // Build a checkerboard: `holes` free gaps of 8 words.
            let cap = holes * 16;
            let mut fb = FbAllocator::new(Words::new(cap));
            let mut pins = Vec::new();
            for i in 0..holes {
                pins.push(fb.alloc_at("pin", i * 16, Words::new(8)).expect("free"));
            }
            b.iter(|| {
                let a = fb
                    .alloc("probe", Words::new(8), Direction::FromLower)
                    .expect("a hole fits");
                let at = a.start();
                fb.free(a).expect("live");
                black_box(at)
            });
        });
    }
    group.finish();
}

/// The split path: allocations that must span multiple holes.
fn bench_split(c: &mut Criterion) {
    c.bench_function("fballoc/split-across-holes", |b| {
        let mut fb = FbAllocator::new(Words::new(1024));
        // Pin every other 32-word block: 16 holes of 32 words.
        let mut pins = Vec::new();
        for i in 0..16u64 {
            pins.push(fb.alloc_at("pin", i * 64, Words::new(32)).expect("free"));
        }
        b.iter(|| {
            let a = fb
                .alloc_split("wide", Words::new(128), Direction::FromUpper)
                .expect("total free suffices");
            let n = a.segments().len();
            fb.free(a).expect("live");
            black_box(n)
        });
    });
}

/// Regularity fast path vs cold first-fit.
fn bench_regularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fballoc/placement");
    group.bench_function("regular-hit", |b| {
        let mut fb = FbAllocator::new(Words::kilo(1));
        let mut mem = PlacementMemory::new(8);
        // Warm the preference.
        let a = mem
            .alloc(&mut fb, 7, "obj", Words::new(64), Direction::FromUpper)
            .expect("fits");
        fb.free(a).expect("live");
        b.iter(|| {
            let a = mem
                .alloc(&mut fb, 7, "obj", Words::new(64), Direction::FromUpper)
                .expect("fits");
            let at = a.start();
            fb.free(a).expect("live");
            black_box(at)
        });
    });
    group.bench_function("cold-first-fit", |b| {
        let mut fb = FbAllocator::new(Words::kilo(1));
        b.iter(|| {
            let a = fb
                .alloc("obj", Words::new(64), Direction::FromUpper)
                .expect("fits");
            let at = a.start();
            fb.free(a).expect("live");
            black_box(at)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_churn,
    bench_fragmented_first_fit,
    bench_split,
    bench_regularity
);
criterion_main!(benches);
