//! Resolving a `schedule` request into pipeline inputs and its
//! canonical key.

use mcds_core::{arch_key, compose_key, structure_key, McdsError, SchedulerConfig, SchedulerKind};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};

use crate::protocol::{QosClass, ScheduleSpec};

/// A `schedule` line resolved into pipeline inputs, shared between the
/// reactor's memo table and the worker that computes it.
pub(super) struct Resolved {
    pub(super) app: Application,
    pub(super) sched: Option<ClusterSchedule>,
    pub(super) arch: ArchParams,
    pub(super) kind: SchedulerKind,
    /// Canonical content key of the *full-quality* request.
    pub(super) key: u64,
    /// The workload-structure half of `key` — the analysis cache's
    /// address, shared by every arch/scheduler variant.
    pub(super) structure_key: u64,
    pub(super) deadline_ms: Option<u64>,
    /// Admission lane (not part of `key` — identical computations
    /// share one cache entry whatever class requested them).
    pub(super) class: QosClass,
}

/// The largest `iterations × kernels` a `schedule` request may ask for
/// (2^20). Planning at RF 1 builds one stage per iteration and cluster,
/// and an application has at most one cluster per kernel, so this
/// bounds what one request can make the planner allocate.
const MAX_ITERATION_KERNELS: u64 = 1 << 20;

/// The largest expansion cap a `search:<beam>:<cap>` request may ask for
/// (100,000, the cap of `BENCH_search.json`'s committed grid). The
/// search is exponential in the candidates, cap 0 means unlimited, and
/// cancellation is polled only between pipeline stages, so a deadline
/// cannot stop a search once it runs.
const MAX_SEARCH_EXPANSIONS: u32 = 100_000;

/// The widest beam a `search:<beam>:<cap>` request may ask for (1,024;
/// the committed benches and tests use at most 32). Each expansion
/// keeps up to `beam` nodes, so like the expansion cap this bounds the
/// work a deadline cannot stop.
const MAX_SEARCH_BEAM: u32 = 1024;

/// Resolves a `schedule` request into pipeline inputs plus its
/// canonical key.
pub(super) fn resolve(spec: ScheduleSpec) -> Result<Resolved, String> {
    let class = spec.qos();
    let kind: SchedulerKind = spec
        .scheduler
        .as_deref()
        .unwrap_or("cds")
        .parse()
        .map_err(|e: McdsError| e.to_string())?;
    if let SchedulerKind::Search {
        beam_width,
        max_expansions,
    } = kind
    {
        if max_expansions == 0 || max_expansions > MAX_SEARCH_EXPANSIONS {
            return Err(format!(
                "search expansion cap {max_expansions} is outside 1..={MAX_SEARCH_EXPANSIONS} \
                 (0 is unlimited)"
            ));
        }
        if beam_width > MAX_SEARCH_BEAM {
            return Err(format!(
                "search beam width {beam_width} is outside 0..={MAX_SEARCH_BEAM}"
            ));
        }
    }
    let arch = match spec.arch {
        Some(arch) => arch,
        None => {
            let kw = spec.fb_kw.unwrap_or(1).max(1);
            let fb = Words::checked_kilo(kw)
                .ok_or_else(|| format!("fb_kw {kw} is over the limit of {}", Words::MAX_KILO))?;
            ArchParams::m1().to_builder().fb_set_words(fb).build()
        }
    };
    let (app, sched) = match (spec.app, spec.workload.as_deref()) {
        (Some(_), Some(_)) => return Err("`app` and `workload` are mutually exclusive".to_owned()),
        (None, None) => return Err("schedule needs `app` or `workload`".to_owned()),
        (Some(app), None) => {
            app.validate().map_err(|e| format!("invalid app: {e}"))?;
            (app, None)
        }
        (None, Some(name)) => {
            let iterations = spec.iterations.unwrap_or(16);
            let (app, sched) = mcds_workloads::mix::by_name(name, iterations)
                .ok_or_else(|| format!("unknown workload `{name}` (and iterations must be > 0)"))?;
            (app, Some(sched))
        }
    };
    let work = app.iterations().saturating_mul(app.kernels().len() as u64);
    if work > MAX_ITERATION_KERNELS {
        return Err(format!(
            "iterations × kernels is {work}, over the limit of {MAX_ITERATION_KERNELS} (2^20)"
        ));
    }
    let skey = structure_key(&app, sched.as_ref());
    let key = compose_key(skey, arch_key(&arch, kind, &SchedulerConfig::default()));
    Ok(Resolved {
        app,
        sched,
        arch,
        kind,
        key,
        structure_key: skey,
        deadline_ms: spec.deadline_ms,
        class,
    })
}
