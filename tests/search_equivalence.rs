//! Greedy-equivalence differential suite: a beam width of 1 makes the
//! search scheduler walk exactly one path — the TF-ranked greedy walk —
//! so `Search { beam_width: 1, .. }` must reproduce the Complete Data
//! Scheduler **byte-for-byte** over the whole Table-1 grid: same plan
//! (rf, stages, retention, ops, allocation), same simulated report and
//! timeline, same trace event stream, same error on every infeasible cell. The
//! only permitted difference is the scheduler's display name.

use std::collections::HashMap;

use mcds_core::{structure_key, Pipeline, PipelineRun, SchedulerKind, VecSink};
use mcds_model::{ArchParams, Words};
use mcds_sim::Simulator;
use mcds_workloads::table1::table1_experiments;

/// The architecture axis of the Table-1 sweep grid.
const FB_KILOWORDS: [u64; 4] = [1, 2, 3, 8];

const BEAM_ONE: SchedulerKind = SchedulerKind::Search {
    beam_width: 1,
    max_expansions: 10_000,
};

/// The per-op spans of `run`'s plan (its report holds totals only).
fn timeline(run: &PipelineRun, arch: ArchParams) -> mcds_sim::Timeline {
    Simulator::new(arch)
        .timeline(run.plan().ops())
        .expect("a plan's ops simulate")
}

/// Serializes one pipeline outcome (or its error) to comparable bytes,
/// leaving the scheduler's display name out — it is the one field the
/// two schedulers are allowed to disagree on.
fn outcome_bytes(result: Result<PipelineRun, mcds_core::McdsError>, arch: ArchParams) -> String {
    match result {
        Ok(run) => format!(
            "ok rf={} stages={} retention={} ops={} alloc={} report={} timeline={}",
            run.plan().rf(),
            serde_json::to_string(&run.plan().stages().to_vec()).expect("serializes"),
            serde_json::to_string(run.plan().retention()).expect("serializes"),
            serde_json::to_string(run.plan().ops()).expect("serializes"),
            serde_json::to_string(run.plan().allocation()).expect("serializes"),
            serde_json::to_string(run.report()).expect("serializes"),
            serde_json::to_string(&timeline(&run, arch)).expect("serializes"),
        ),
        // Infeasibility errors name the reporting scheduler too.
        Err(e) => format!("err {}", e.to_string().replacen("search: ", "cds: ", 1)),
    }
}

#[test]
fn beam_one_outcomes_match_cds_over_the_table1_grid() {
    // Dedupe the experiment rows by structure key, as the other
    // differential suites do — starred rows share a structure.
    let mut structures = HashMap::new();
    for e in table1_experiments() {
        structures
            .entry(structure_key(&e.app, Some(&e.sched)))
            .or_insert((e.name, e.app, e.sched));
    }
    let mut cells = 0;
    let mut feasible = 0;
    for (name, app, sched) in structures.values() {
        for fb_kw in FB_KILOWORDS {
            let arch = ArchParams::m1_with_fb(Words::kilo(fb_kw));
            let build = |kind| {
                Pipeline::new(app.clone())
                    .schedule(sched.clone())
                    .arch(arch)
                    .scheduler(kind)
            };
            let cds = outcome_bytes(build(SchedulerKind::Cds).run(), arch);
            let search = outcome_bytes(build(BEAM_ONE).run(), arch);
            assert_eq!(cds, search, "outcome diverged for {name} @ {fb_kw}K");
            cells += 1;
            if cds.starts_with("ok ") {
                feasible += 1;
            }
        }
    }
    assert_eq!(cells, structures.len() * FB_KILOWORDS.len());
    assert!(
        feasible > cells / 2,
        "most of the grid is feasible ({feasible}/{cells}) — an all-error \
         grid would make the equivalence vacuous"
    );
}

#[test]
fn beam_one_traces_match_cds_modulo_scheduler_name() {
    // The trace stream is the observable the golden suite pins, so the
    // equivalence must hold event-for-event. Events are compared as
    // JSON with the scheduler-name field normalized; a width-1 search
    // takes the greedy path without branching, so no `Search*` events
    // may appear either.
    for e in table1_experiments()
        .into_iter()
        .filter(|e| ["E1", "MPEG", "ATR-SLD"].contains(&e.name))
    {
        let trace = |kind| {
            let sink = VecSink::new();
            let _ = Pipeline::new(e.app.clone())
                .schedule(e.sched.clone())
                .arch(e.arch)
                .scheduler(kind)
                .trace(sink.clone())
                .run();
            sink.take()
                .iter()
                .map(|ev| {
                    serde_json::to_string(ev)
                        .expect("serializes")
                        .replace("\"scheduler\":\"search\"", "\"scheduler\":\"cds\"")
                })
                .collect::<Vec<String>>()
        };
        let cds = trace(SchedulerKind::Cds);
        let search = trace(BEAM_ONE);
        assert!(!cds.is_empty(), "{} produced no events", e.name);
        assert_eq!(cds, search, "trace stream diverged for {}", e.name);
        assert!(
            !search.iter().any(|l| l.contains("Search")),
            "a width-1 search must not branch, so no Search* events: {}",
            e.name
        );
    }
}
