//! Reproduces the paper's evaluation artifacts.
//!
//! ```text
//! reproduce table1            # Table 1: measured vs paper
//! reproduce fig6              # Figure 6: improvement bars
//! reproduce fig5              # Figure 5: allocation map snapshots
//! reproduce rf-sweep          # Figure 3 companion: RF vs FB size
//! reproduce mpeg-feasibility  # §6 claim: Basic cannot run MPEG at 1K
//! reproduce future-work       # §7: cross-set retention extension
//! reproduce gantt             # pipeline Gantt charts for the three schedulers
//! reproduce json              # Table 1 as machine-readable JSON
//! reproduce ablations         # CDS design choices: ranking, context policy, RF cap
//! reproduce all               # everything above except json
//! ```
//!
//! Every plan is produced through the [`Pipeline`] facade (or the
//! sweep engine on top of it).

use mcds_bench::{measure_all, pct};
use mcds_core::{
    table_header, AllocationWalk, ContextPolicy, FootprintModel, Lifetimes, McdsError, Pipeline,
    RetentionRanking, ScheduleError, SchedulerConfig, SchedulerKind,
};
use mcds_model::{ArchParams, Words};
use mcds_sweep::{SweepSpec, SweepWorkload};
use mcds_workloads::e_series::e1;
use mcds_workloads::mpeg::{mpeg_app, mpeg_schedule};
use mcds_workloads::table1::{table1_experiments, Experiment};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match mode.as_str() {
        "table1" => table1(),
        "fig6" => fig6(),
        "fig5" => fig5(),
        "rf-sweep" => rf_sweep(),
        "mpeg-feasibility" => mpeg_feasibility(),
        "future-work" => future_work(),
        "gantt" => gantt(),
        "json" => json(),
        "ablations" => ablations(),
        "all" => {
            table1();
            println!();
            fig6();
            println!();
            fig5();
            println!();
            rf_sweep();
            println!();
            mpeg_feasibility();
            println!();
            future_work();
            println!();
            gantt();
            println!();
            ablations();
        }
        other => {
            eprintln!("unknown mode `{other}`; see the module docs for the list");
            std::process::exit(2);
        }
    }
}

fn table1() {
    println!("=== Table 1: measured (this reproduction) vs paper ===");
    println!("{}   | paper: DS%  CDS%  RF | splits", table_header());
    for m in measure_all() {
        println!(
            "{}   | {:>10} {:>5} {:>3} | {}",
            m.row,
            pct(m.paper_ds),
            pct(m.paper_cds),
            m.paper_rf.map_or("-".to_owned(), |r| r.to_string()),
            m.splits,
        );
    }
}

fn fig6() {
    println!("=== Figure 6: relative execution improvement over Basic (%) ===");
    for m in measure_all() {
        let bar = |v: Option<f64>| {
            let n = (v.unwrap_or(0.0) * 50.0).round().max(0.0) as usize;
            "#".repeat(n)
        };
        println!(
            "{:<11} CDS {:>5} |{}",
            m.row.name,
            pct(m.row.cds_improvement),
            bar(m.row.cds_improvement)
        );
        println!(
            "{:<11} DS  {:>5} |{}",
            "",
            pct(m.row.ds_improvement),
            bar(m.row.ds_improvement)
        );
    }
}

fn fig5() {
    println!("=== Figure 5 companion: FB set occupancy maps (E1, CDS) ===");
    let (app, sched) = e1(8).expect("E1 is valid");
    let pipeline = Pipeline::new(app)
        .arch(ArchParams::m1_with_fb(Words::kilo(1)))
        .schedule(sched);
    let run = pipeline.run().expect("E1 fits a 1K set");
    let (app, sched, plan) = (pipeline.app(), run.schedule(), run.plan());
    let lifetimes = Lifetimes::analyze(app, sched);
    let walk = AllocationWalk::new(
        app,
        sched,
        &lifetimes,
        plan.retention(),
        plan.rf(),
        pipeline.arch_params().fb_set_words(),
        FootprintModel::Replacement,
    );
    let report = walk.run(1, true).expect("fits");
    let maps = report.maps().expect("traced");
    println!("--- FB set 0 (top = high addresses) ---");
    println!("{}", maps[0]);
    println!("--- FB set 1 ---");
    println!("{}", maps[1]);
    println!(
        "regular placements: {}, irregular: {}, splits: {}",
        report.regular_hits(),
        report.irregular(),
        report.splits()
    );
}

fn rf_sweep() {
    println!("=== RF vs Frame Buffer size (loop fission, Figure 3 companion) ===");
    let (app, sched) = e1(256).expect("E1 is valid");
    let sizes = [1u64, 2, 3, 4, 6, 8];
    let report = SweepSpec::new()
        .workload(SweepWorkload::new("E1", app).partition("paper", sched))
        .fb_sizes(sizes.map(Words::kilo))
        .schedulers([SchedulerKind::Ds])
        .run()
        .expect("grid is non-empty");
    print!("FB (Kw):");
    for kw in sizes {
        print!(" {kw:>5}");
    }
    println!();
    print!("RF     :");
    for row in &report.rows {
        let rf = row.outcomes[0]
            .rf
            .map_or_else(|| "-".to_owned(), |r| r.to_string());
        print!(" {rf:>5}");
    }
    println!();
}

fn mpeg_feasibility() {
    println!("=== §6 claim: MPEG feasibility at FB = 1K ===");
    let app = mpeg_app(16).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    for kind in SchedulerKind::ALL {
        let result = Pipeline::new(app.clone())
            .arch(ArchParams::m1_with_fb(Words::kilo(1)))
            .schedule(sched.clone())
            .scheduler(kind)
            .run();
        let name = kind.name();
        match result {
            Ok(run) => println!("{name:<6} runs (RF = {})", run.plan().rf()),
            Err(McdsError::Schedule(ScheduleError::Infeasible {
                required, capacity, ..
            })) => {
                println!("{name:<6} INFEASIBLE (needs {required}, set holds {capacity})");
            }
            Err(e) => println!("{name:<6} error: {e}"),
        }
    }
}

fn gantt() {
    println!("=== Pipeline Gantt charts: MPEG at FB = 2K, 4 macroblocks ===");
    println!("(L/S = data load/store, C = context load, # = RC array compute)\n");
    let app = mpeg_app(4).expect("valid");
    let sched = mpeg_schedule(&app).expect("valid");
    let arch = ArchParams::m1_with_fb(Words::kilo(2));
    for kind in SchedulerKind::ALL {
        let result = Pipeline::new(app.clone())
            .arch(arch)
            .schedule(sched.clone())
            .scheduler(kind)
            .run();
        match result {
            Ok(run) => {
                let plan = run.plan();
                println!("-- {} (RF = {}) --", plan.scheduler(), plan.rf());
                let timeline = mcds_sim::Simulator::new(arch)
                    .timeline(plan.ops())
                    .expect("runs");
                println!("{}", mcds_sim::render_gantt(plan.ops(), &timeline, 100));
            }
            Err(e) => println!("{e}"),
        }
    }
}

fn future_work() {
    println!("=== §7 future work: retention across FB sets (dual-ported FB) ===");
    println!("CDS improvement over Basic, per experiment:");
    println!(
        "{:<11} {:>8} {:>11} {:>9}",
        "experiment", "M1", "dual-port", "extra DT"
    );
    for e in table1_experiments() {
        let compare = |arch: ArchParams| {
            Pipeline::new(e.app.clone())
                .arch(arch)
                .schedule(e.sched.clone())
                .compare()
                .expect("fixed schedules always resolve")
        };
        let m1 = compare(e.arch);
        let Ok(basic) = &m1.comparison().basic else {
            continue;
        };
        let dual = compare(e.arch.to_builder().fb_cross_set_access(true).build());
        let (Ok(p_m1), Ok(p_dual)) = (&m1.comparison().cds, &dual.comparison().cds) else {
            continue;
        };
        let t_basic = basic.report();
        println!(
            "{:<11} {:>7.0}% {:>10.0}% {:>9}",
            e.name,
            p_m1.report().improvement_over(t_basic) * 100.0,
            p_dual.report().improvement_over(t_basic) * 100.0,
            (p_dual
                .dt_avoided_per_iter()
                .saturating_sub(p_m1.dt_avoided_per_iter()))
            .to_string(),
        );
    }
}

fn json() {
    let rows = measure_all();
    println!(
        "{}",
        serde_json::to_string_pretty(&rows).expect("rows serialize")
    );
}

fn cds_pipeline(e: &Experiment, config: SchedulerConfig) -> Pipeline {
    Pipeline::new(e.app.clone())
        .arch(e.arch)
        .schedule(e.sched.clone())
        .scheduler(SchedulerKind::Cds)
        .config(config)
}

/// Ablations of the Complete Data Scheduler's design choices:
///
/// * **TF ranking** vs size-descending vs FIFO retention ordering;
/// * **context policy**: per-activation reload (the paper's model) vs
///   LRU Context Memory residency;
/// * **RF cap**: how much of the win is loop fission alone.
fn ablations() {
    println!("=== Ablation: retention ranking (CDS improvement over Basic, %) ===");
    println!(
        "{:<11} {:>6} {:>9} {:>6}",
        "experiment", "TF", "SizeDesc", "FIFO"
    );
    for e in table1_experiments() {
        let Ok(basic) = cds_pipeline(&e, SchedulerConfig::default())
            .scheduler(SchedulerKind::Basic)
            .run()
        else {
            continue;
        };
        let t_basic = basic.report();
        let run = |ranking: RetentionRanking| -> String {
            cds_pipeline(&e, SchedulerConfig::new().with_retention_ranking(ranking))
                .run()
                .map(|r| format!("{:.0}%", r.report().improvement_over(t_basic) * 100.0))
                .unwrap_or_else(|_| "-".to_owned())
        };
        println!(
            "{:<11} {:>6} {:>9} {:>6}",
            e.name,
            run(RetentionRanking::Tf),
            run(RetentionRanking::SizeDesc),
            run(RetentionRanking::Fifo),
        );
    }

    println!("\n=== Ablation: context policy / RF cap (CDS improvement, %) ===");
    println!(
        "{:<11} {:>7} {:>7} {:>7}",
        "experiment", "paper", "lru-cm", "rf<=1"
    );
    for e in table1_experiments() {
        let Ok(basic) = cds_pipeline(&e, SchedulerConfig::default())
            .scheduler(SchedulerKind::Basic)
            .run()
        else {
            continue;
        };
        let t_basic = basic.report();
        let run = |config: SchedulerConfig| -> String {
            cds_pipeline(&e, config)
                .run()
                .map(|r| format!("{:.0}%", r.report().improvement_over(t_basic) * 100.0))
                .unwrap_or_else(|_| "-".to_owned())
        };
        println!(
            "{:<11} {:>7} {:>7} {:>7}",
            e.name,
            run(SchedulerConfig::default()),
            run(SchedulerConfig::new().with_context_policy(ContextPolicy::LruResidency)),
            run(SchedulerConfig::new().with_max_rf(Some(1))),
        );
    }
}
