//! `mcds hotpath`: the analysis-reuse micro-benchmarks and their
//! regression gate.

use mcds_bench::cli::Args;
use mcds_core::{McdsError, Pipeline, SchedulerKind};
use mcds_model::{ArchParams, Words};

use crate::print_json;

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
/// warmed by the largest paper architecture. The Table-1 workloads run
/// 48 iterations, so `rf_max` stays at most 64 and the larger size's
/// RF-ladder rungs are a superset of the smaller sizes'; past RF 64 the
/// ladders stop nesting (ROADMAP.md, item 3).
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

pub fn hotpath(args: &Args) -> Result<(), McdsError> {
    let repeats: u32 = args.parsed("--repeats")?.unwrap_or(5);
    let report = HotpathReport {
        analysis_reuse: ["E1", "E3", "MPEG"]
            .into_iter()
            .map(|name| analysis_probe(repeats, name, 2, 8))
            .collect(),
    };
    print_json(&report, args.value("--out"))?;
    if let Some(path) = args.value("--check") {
        let text = std::fs::read_to_string(path)?;
        let baseline: HotpathReport = serde_json::from_str(&text)
            .map_err(|e| McdsError::spec(format!("parsing {path}: {e}")))?;
        check_hotpath(&report, &baseline)?;
        eprintln!("hotpath check passed against {path}");
    }
    Ok(())
}
