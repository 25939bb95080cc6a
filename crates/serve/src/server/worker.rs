//! The worker pool: each worker pops admitted jobs, runs them through
//! the pipeline under `catch_unwind`, publishes deterministic results,
//! and hands every reply back to the reactor.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use mcds_core::{CancelToken, Fault, McdsError, Pipeline, PipelineRun, SchedulerKind, Seam};

use super::lanes::Job;
use super::resolve::Resolved;
use super::Ctx;
use crate::cache::{degraded_key, AnalysisLookup, CachedEntry, CachedResult, Token};
use crate::protocol::{ErrorCode, Outcome};

/// How a completion answers one parked request.
#[derive(Clone)]
pub(super) enum ReplyPayload {
    /// A published cache entry: the leader's miss, a waiter's hit
    /// (successes splice the pre-serialized outcome; cached
    /// deterministic failures render as typed errors).
    Entry { key: u64, entry: CachedResult },
    /// A transient, uncached failure.
    Error {
        code: ErrorCode,
        message: Arc<str>,
        key: u64,
        /// `true` when the failure counts under `serve.errors`, and
        /// the leader's reply also as its cache miss (it *was* the
        /// miss). A job dropped at dequeue and a waiter's own deadline
        /// count neither (the deadline counts under
        /// `serve.deadline_misses`, matching the pre-reactor server).
        counted: bool,
    },
}

impl ReplyPayload {
    /// A transient failure of the flight computing `key`.
    pub(super) fn error(code: ErrorCode, message: &str, key: u64, counted: bool) -> ReplyPayload {
        ReplyPayload::Error {
            code,
            message: Arc::from(message),
            key,
            counted,
        }
    }
}

pub(super) struct Reply {
    pub(super) token: Token,
    /// `true` for the reply to the flight's leader.
    pub(super) leads: bool,
    pub(super) payload: ReplyPayload,
}

/// One reply per requester of a flight, each carrying `payload`: the
/// leader's first (when it has one), then every waiter's.
pub(super) fn fan_out(
    leader: Option<Token>,
    waiters: Vec<Token>,
    payload: ReplyPayload,
) -> Vec<Reply> {
    let tokens = leader.map(|token| (token, true)).into_iter();
    tokens
        .chain(waiters.into_iter().map(|token| (token, false)))
        .map(|(token, leads)| Reply {
            token,
            leads,
            payload: payload.clone(),
        })
        .collect()
}

/// Runs one pipeline under the supervisor's `catch_unwind`. `faulted`
/// attaches the server's fault plan (the degraded fallback runs clean
/// so it is guaranteed to complete whenever scheduling is feasible).
fn supervised_run(
    ctx: &Ctx,
    resolved: &Resolved,
    kind: SchedulerKind,
    cancel: Option<CancelToken>,
    faulted: bool,
) -> Result<Result<PipelineRun, McdsError>, ()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if faulted && matches!(ctx.fault(Seam::WorkerRun), Some(Fault::WorkerPanic)) {
            panic!("injected worker panic");
        }
        let mut pipeline = Pipeline::new(resolved.app.clone())
            .arch(resolved.arch)
            .scheduler(kind)
            .metrics(Arc::clone(&ctx.metrics));
        if let Some(token) = cancel {
            pipeline = pipeline.cancellation(token);
        }
        if faulted {
            if let Some(plan) = &ctx.faults {
                // Scoped: this run's fault stream indexes per-request
                // counters salted by (key, attempt), so chaos replay is
                // a pure function of the request — independent of how
                // many allocation calls other requests made first.
                pipeline = pipeline.faults_scoped(plan, resolved.key);
            }
        }
        if let Some(sched) = &resolved.sched {
            pipeline = pipeline.schedule(sched.clone());
        }
        // Analysis memoization by structure key: arch-only variants of
        // an already-analyzed workload skip straight to data scheduling
        // + allocation. The single-flight guard blocks concurrent
        // preparers of the same structure; a failed preparation drops
        // the guard, wakes the waiters, and surfaces the (deterministic)
        // error through the normal outcome path.
        match ctx.cache.analysis_lookup(resolved.structure_key) {
            AnalysisLookup::Hit(prepared) => {
                ctx.counters.analysis_hits.incr();
                pipeline.run_prepared(&prepared)
            }
            AnalysisLookup::Lead(lead) => {
                ctx.counters.analysis_misses.incr();
                match pipeline.prepare() {
                    Ok(prepared) => {
                        let prepared = Arc::new(prepared);
                        lead.fulfill(Arc::clone(&prepared));
                        // Analyses hold live graphs and are not
                        // persisted; the index record accounts for
                        // warm-start coverage.
                        if let Some(store) = &ctx.store {
                            store.append_analysis(resolved.structure_key);
                        }
                        pipeline.run_prepared(&prepared)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }))
    .map_err(|_| ())
}

/// Answers a job dropped at dequeue (shed by the queue-delay governor,
/// or already past its deadline): the run never started, so nothing
/// counts as a miss or an error — the typed retryable code is the
/// whole story.
fn drop_job(ctx: &Ctx, job: Job, code: ErrorCode, message: &str) {
    let Job { guard, leader, .. } = job;
    let dropped = ReplyPayload::error(code, message, guard.key(), false);
    ctx.complete(fan_out(Some(leader), guard.abandon(), dropped));
}

/// Journals a published entry and answers its flight. The journal
/// follows the publish: the in-memory entry is the source of truth,
/// the journal is what survives a process kill.
fn commit(
    ctx: &Ctx,
    key: u64,
    leader: Token,
    (entry, waiters): (CachedResult, Vec<Token>),
) -> Vec<Reply> {
    if let Some(store) = &ctx.store {
        store.append_entry(key, &entry);
        store.maybe_compact(&ctx.cache);
    }
    fan_out(Some(leader), waiters, ReplyPayload::Entry { key, entry })
}

/// One worker under its supervisor: pops admitted jobs and computes
/// them through the pipeline. Deterministic results (success or
/// scheduling error) are published to the cache; abandoned and faulted
/// runs are not. A panicking run (injected or real) is contained by
/// `catch_unwind`: the worker recycles itself for the next job,
/// `serve.worker_restarts` counts the recycle, and the leader plus any
/// parked waiters get a typed retryable error instead of hanging.
pub(super) fn worker_loop(ctx: &Ctx) {
    while let Some((job, shed)) = ctx.queue.pop() {
        // Jobs the queue-delay governor pulled from lower lanes while
        // congested: answer `overloaded` without running them.
        for victim in shed {
            ctx.counters.qos_shed[victim.class.index()].incr();
            ctx.counters.rejected.incr();
            let message = "overloaded: shed after queue delay exceeded";
            drop_job(ctx, *victim, ErrorCode::Overloaded, message);
        }
        // Deadline-aware early drop: a job whose deadline passed while
        // it queued is answered `deadline` without burning a worker on
        // a run the client has already given up on.
        if job.cancel.as_ref().is_some_and(CancelToken::is_expired) {
            ctx.counters.deadline_misses.incr();
            ctx.counters.qos_expired.incr();
            let message = "deadline expired before the run started";
            drop_job(ctx, *job, ErrorCode::Deadline, message);
            continue;
        }
        let Job {
            resolved,
            kind,
            degraded,
            cancel,
            guard,
            leader,
            ..
        } = *job;
        let flight_key = guard.key();
        ctx.inflight.fetch_add(1, Ordering::Relaxed);
        let caught = supervised_run(ctx, &resolved, kind, cancel, !degraded);
        let replies = match caught {
            Err(()) => {
                // Poisoned worker: recycle in place, never cache.
                ctx.counters.worker_restarts.incr();
                let message = "worker panicked; the request is retryable";
                let panicked = ReplyPayload::error(ErrorCode::Faulted, message, flight_key, true);
                fan_out(Some(leader), guard.abandon(), panicked)
            }
            Ok(Ok(run)) => {
                if degraded {
                    ctx.counters.degraded.incr();
                }
                let outcome = Outcome::of(&run, resolved.app.name(), kind, degraded);
                commit(
                    ctx,
                    flight_key,
                    leader,
                    guard.fulfill(CachedEntry::ok(outcome)),
                )
            }
            Ok(Err(McdsError::Cancelled(reason))) => {
                // Not a pure function of the request — never cached.
                ctx.counters.deadline_misses.incr();
                let message = format!("run abandoned: {reason}");
                let abandoned =
                    ReplyPayload::error(ErrorCode::Deadline, &message, flight_key, true);
                let fallback = if ctx.degrade && kind == SchedulerKind::Cds {
                    // Fall back to the cheaper within-cluster-only
                    // scheduler, clean (no faults, no deadline), and
                    // serve + cache it under the *degraded* key. The
                    // primary key stays uncomputed so a later request
                    // with a generous deadline gets the full CDS.
                    supervised_run(ctx, &resolved, SchedulerKind::Ds, None, false).ok()
                } else {
                    None
                };
                if let Some(Ok(run)) = fallback {
                    ctx.counters.degraded.incr();
                    let dkey = degraded_key(resolved.key);
                    let outcome = Outcome::of(&run, resolved.app.name(), SchedulerKind::Ds, true);
                    let (shared, dwaiters) = ctx.cache.publish(dkey, CachedEntry::ok(outcome));
                    if let Some(store) = &ctx.store {
                        store.append_entry(dkey, &shared);
                        store.append_degraded(resolved.key, dkey);
                        store.maybe_compact(&ctx.cache);
                    }
                    let pwaiters = guard.abandon();
                    let served = ReplyPayload::Entry {
                        key: dkey,
                        entry: shared,
                    };
                    let mut replies = fan_out(Some(leader), dwaiters, served);
                    replies.extend(fan_out(None, pwaiters, abandoned));
                    replies
                } else {
                    // The fallback failed too (infeasible, disabled, or
                    // it panicked): plain abandon.
                    fan_out(Some(leader), guard.abandon(), abandoned)
                }
            }
            Ok(Err(e @ McdsError::Faulted(_))) => {
                // Injected fault: transient — never cached, retryable.
                let message = e.to_string();
                let faulted = ReplyPayload::error(ErrorCode::Faulted, &message, flight_key, true);
                fan_out(Some(leader), guard.abandon(), faulted)
            }
            Ok(Err(e)) => {
                // Scheduling errors are deterministic → cacheable (and
                // journaled: a recovered failure is served without
                // re-running the pipeline just like a success).
                let entry = CachedEntry::err(ErrorCode::BadRequest, e.to_string());
                commit(ctx, flight_key, leader, guard.fulfill(entry))
            }
        };
        ctx.complete(replies);
        ctx.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}
