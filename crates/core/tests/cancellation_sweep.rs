//! Exhaustive cancellation sweep: fire the [`CancelToken`] at *every*
//! pipeline stage boundary (via the deterministic
//! [`CancelToken::after_checks`] counter mode) and assert each
//! cancellation is clean — a typed [`McdsError::Cancelled`], a trace
//! that is an exact prefix of the uncancelled run's trace, and no
//! metrics recorded for stages that never ran.

use std::sync::Arc;

use mcds_core::{
    CancelToken, Event, McdsError, MetricsRegistry, Pipeline, PipelineRun, SchedulerKind, VecSink,
};
use mcds_model::{Application, ApplicationBuilder, Cycles, DataKind, Words};

fn app() -> Application {
    let mut b = ApplicationBuilder::new("sweep");
    let a = b.data("a", Words::new(96), DataKind::ExternalInput);
    let m = b.data("m", Words::new(48), DataKind::Intermediate);
    let f = b.data("f", Words::new(48), DataKind::FinalResult);
    let k0 = b.kernel("k0", 16, Cycles::new(150), &[a], &[m]);
    b.kernel("k1", 16, Cycles::new(150), &[a, m], &[f]);
    let _ = k0;
    b.iterations(16).build().expect("valid app")
}

fn pipeline(sink: VecSink, metrics: Arc<MetricsRegistry>, token: CancelToken) -> Pipeline {
    Pipeline::new(app())
        .scheduler(SchedulerKind::Cds)
        .trace(sink)
        .metrics(metrics)
        .cancellation(token)
}

/// `run()` polls the token at its three stage boundaries: admission,
/// post-clustering, post-planning. The sweep discovers that count and
/// pins it.
#[test]
fn every_run_boundary_cancels_cleanly() {
    // Reference: the uncancelled trace and result.
    let full_sink = VecSink::new();
    let full = Pipeline::new(app())
        .scheduler(SchedulerKind::Cds)
        .trace(full_sink.clone())
        .run()
        .expect("uncancelled run succeeds");
    let full_events = full_sink.events();
    assert!(!full_events.is_empty());

    let mut first_ok: Option<u64> = None;
    for k in 0..8 {
        let sink = VecSink::new();
        let metrics = Arc::new(MetricsRegistry::new());
        let result = pipeline(
            sink.clone(),
            Arc::clone(&metrics),
            CancelToken::after_checks(k),
        )
        .run();
        let events = sink.events();
        match result {
            Err(err) => {
                assert!(
                    first_ok.is_none(),
                    "cancellation must be monotone in the boundary index: \
                     boundary {k} failed after boundary {first_ok:?} succeeded"
                );
                assert!(
                    matches!(err, McdsError::Cancelled(_)),
                    "boundary {k}: typed cancellation, got {err}"
                );
                assert!(err.to_string().contains("run abandoned"));
                // The partial trace is an exact prefix of the full
                // trace: no half-written or reordered events.
                assert!(
                    events.len() < full_events.len(),
                    "boundary {k}: cancelled run must record fewer events"
                );
                assert_eq!(
                    events,
                    full_events[..events.len()],
                    "boundary {k}: partial trace must be a prefix of the full trace"
                );
                // Simulation never ran on a cancelled run (the last
                // boundary sits before evaluation).
                assert_eq!(
                    metrics.get("sim.runs"),
                    None,
                    "boundary {k}: no simulation on a cancelled run"
                );
                assert!(
                    !events
                        .iter()
                        .any(|e| matches!(e, Event::SimCompleted { .. })),
                    "boundary {k}: no SimCompleted event on a cancelled run"
                );
            }
            Ok(run) => {
                if first_ok.is_none() {
                    first_ok = Some(k);
                }
                assert_outcome_matches(&run, &full);
                assert_eq!(events, full_events, "late token must not perturb the trace");
                assert_eq!(metrics.get("sim.runs"), Some(1));
            }
        }
    }
    assert_eq!(
        first_ok,
        Some(3),
        "run() has exactly three cancellation boundaries \
         (admission, post-clustering, post-planning)"
    );
}

/// `explain()` has the same three boundaries as `run()` and must not
/// leak a partial decision log on cancellation.
#[test]
fn every_explain_boundary_cancels_cleanly() {
    let (_, full_log) = Pipeline::new(app()).explain().expect("explains");
    let mut first_ok = None;
    for k in 0..8 {
        match Pipeline::new(app())
            .cancellation(CancelToken::after_checks(k))
            .explain()
        {
            Err(err) => {
                assert!(first_ok.is_none(), "monotone at boundary {k}");
                assert!(matches!(err, McdsError::Cancelled(_)));
            }
            Ok((_, log)) => {
                first_ok.get_or_insert(k);
                assert_eq!(log, full_log, "late token must not perturb the log");
            }
        }
    }
    assert_eq!(first_ok, Some(3), "explain() has exactly three boundaries");
}

fn assert_outcome_matches(run: &PipelineRun, full: &PipelineRun) {
    assert_eq!(run.plan().rf(), full.plan().rf());
    assert_eq!(run.report().total(), full.report().total());
}
