//! `mcds search-bench`: beam search against greedy CDS.

use mcds_bench::cli::Args;
use mcds_core::{McdsError, MetricsRegistry, SchedulerKind};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};

use crate::{fb_kw_list, print_json};

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
    use mcds_core::{Observer, ScheduleAnalysis, SchedulerConfig};

    let config = SchedulerConfig::default();
    let analysis = ScheduleAnalysis::new(app, sched);
    let cds = SchedulerKind::Cds
        .plan_observed(app, sched, arch, &config, &analysis, Observer::none())
        .ok()?;
    let metrics = MetricsRegistry::new();
    let search = SchedulerKind::Search {
        beam_width: beam,
        max_expansions: cap,
    }
    .plan_observed(
        app,
        sched,
        arch,
        &config,
        &analysis,
        Observer::new(None, Some(&metrics)),
    )
    .expect("search feasibility equals greedy CDS feasibility");
    let cds_cycles = cds.report().total().get();
    let search_cycles = search.report().total().get();
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
    })
}

pub fn search_bench(args: &Args) -> Result<(), McdsError> {
    use mcds_workloads::synthetic::{knapsack_trap, SyntheticConfig, SyntheticGenerator};
    use mcds_workloads::table1::table1_experiments;

    let beam: u32 = args.parsed("--beam")?.unwrap_or(32);
    let cap: u32 = args.parsed("--max-expansions")?.unwrap_or(100_000);
    let seeds: u64 = args.parsed("--seeds")?.unwrap_or(12);
    let fb_kw = fb_kw_list(args)?;

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

    // Family 3: the adversarial knapsack trap (60/40/40-word shared
    // inputs across a 150-word private one) across a fine FB range
    // bracketing the window where greedy's TF order loses.
    let (trap_app, trap_sched) = knapsack_trap(60, 40, 150, 10, 4)?;
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
    print_json(&report, args.value("--out"))
}
