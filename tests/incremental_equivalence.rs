//! Incremental-vs-from-scratch differential suite over the Table-1
//! grid: for every workload structure, the analysis front half
//! ([`Pipeline::prepare`]) runs **once**, and the resulting
//! [`PreparedSchedule`] is replayed against every (architecture,
//! scheduler) variant via [`Pipeline::run_prepared`]. Each replay must
//! be byte-identical to a from-scratch [`Pipeline::run`] — same
//! serialized outcome, same trace event stream, same error on the
//! infeasible cells — proving the memoized analysis is exactly the
//! arch-independent prefix of the pipeline and nothing more.

use std::collections::HashMap;

use mcds_core::{structure_key, Pipeline, SchedulerKind, VecSink};
use mcds_model::{ArchParams, Words};
use mcds_workloads::table1::table1_experiments;

/// The architecture axis of the Table-1 sweep grid.
const FB_KILOWORDS: [u64; 4] = [1, 2, 3, 8];

/// The paper's three schedulers plus the search extension at its
/// default beam, so the search path through `run_prepared` is compared
/// too.
fn kinds() -> [SchedulerKind; 4] {
    let [basic, ds, cds] = SchedulerKind::ALL;
    [basic, ds, cds, SchedulerKind::search_default()]
}

/// Serializes one pipeline outcome (or its error) to comparable bytes.
fn outcome_bytes(result: Result<mcds_core::PipelineRun, mcds_core::McdsError>) -> String {
    match result {
        // The plan is compared part-by-part through serde (not Debug):
        // the vendored serializer renders its hash sets/maps in sorted
        // order, so equal plans produce equal bytes regardless of each
        // instance's hash seeding.
        Ok(run) => format!(
            "ok schedule={} scheduler={} rf={} stages={} retention={} ops={} alloc={} report={}",
            serde_json::to_string(run.schedule()).expect("serializes"),
            run.plan().scheduler(),
            run.plan().rf(),
            serde_json::to_string(&run.plan().stages().to_vec()).expect("serializes"),
            serde_json::to_string(run.plan().retention()).expect("serializes"),
            serde_json::to_string(run.plan().ops()).expect("serializes"),
            serde_json::to_string(run.plan().allocation()).expect("serializes"),
            serde_json::to_string(run.report()).expect("serializes"),
        ),
        Err(e) => format!("err {e}"),
    }
}

#[test]
fn prepared_replay_matches_from_scratch_over_the_table1_grid() {
    // Dedupe the experiment rows by structure key — E1 and E1* (and the
    // starred ATR/MPEG rows) share a structure and must share one
    // prepared analysis, exactly as the serve analysis cache would.
    let mut structures = HashMap::new();
    for e in table1_experiments() {
        structures
            .entry(structure_key(&e.app, Some(&e.sched)))
            .or_insert((e.name, e.app, e.sched));
    }
    assert!(
        structures.len() >= 6,
        "expected at least one structure per workload family, got {}",
        structures.len()
    );

    let mut cells = 0;
    let mut feasible = 0;
    for (name, app, sched) in structures.values() {
        // One prepare per structure, at a baseline pipeline: the
        // prepared analysis must be valid for *every* arch variant.
        let prepared = Pipeline::new(app.clone())
            .schedule(sched.clone())
            .prepare()
            .expect("analysis is arch-independent and must prepare");
        for fb_kw in FB_KILOWORDS {
            let arch = ArchParams::m1_with_fb(Words::kilo(fb_kw));
            for kind in kinds() {
                let build = || {
                    Pipeline::new(app.clone())
                        .schedule(sched.clone())
                        .arch(arch)
                        .scheduler(kind)
                };
                let incremental = outcome_bytes(build().run_prepared(&prepared));
                let scratch = outcome_bytes(build().run());
                assert_eq!(
                    incremental, scratch,
                    "outcome diverged for {name}/{kind} @ {fb_kw}K"
                );
                cells += 1;
                if incremental.starts_with("ok ") {
                    feasible += 1;
                }
            }
        }
    }
    assert_eq!(
        cells,
        structures.len() * FB_KILOWORDS.len() * kinds().len(),
        "every grid cell compared"
    );
    assert!(
        feasible > cells / 2,
        "most of the grid is feasible ({feasible}/{cells}) — an all-error \
         grid would make the equivalence vacuous"
    );
}

#[test]
fn prepared_replay_streams_identical_trace_events_per_cell() {
    // The trace stream is the observable the chaos and golden suites
    // pin, so equivalence must hold event-for-event, not just on the
    // final outcome. One representative workload per family keeps this
    // fast; the outcome test above covers the full grid.
    for e in table1_experiments()
        .into_iter()
        .filter(|e| ["E1", "MPEG", "ATR-SLD"].contains(&e.name))
    {
        let prepared = Pipeline::new(e.app.clone())
            .schedule(e.sched.clone())
            .prepare()
            .expect("prepares");
        for kind in kinds() {
            let inc_sink = VecSink::new();
            let scratch_sink = VecSink::new();
            let _ = Pipeline::new(e.app.clone())
                .schedule(e.sched.clone())
                .arch(e.arch)
                .scheduler(kind)
                .trace(inc_sink.clone())
                .run_prepared(&prepared);
            let _ = Pipeline::new(e.app.clone())
                .schedule(e.sched.clone())
                .arch(e.arch)
                .scheduler(kind)
                .trace(scratch_sink.clone())
                .run();
            let inc = inc_sink.take();
            let scratch = scratch_sink.take();
            assert!(!scratch.is_empty(), "{}/{kind} produced no events", e.name);
            assert_eq!(inc, scratch, "trace stream diverged for {}/{kind}", e.name);
        }
    }
}
