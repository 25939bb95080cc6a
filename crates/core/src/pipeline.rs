//! The end-to-end scheduling pipeline behind one facade.
//!
//! Every consumer used to hand-wire the same stages: pick a cluster
//! schedule (kernel scheduling), plan data movement
//! ([`SchedulerKind::plan_observed`], which simulates the chosen rung),
//! and report the plan's evaluation ([`evaluate_observed`]).
//! [`Pipeline`] owns that wiring:
//!
//! ```
//! use mcds_core::{Pipeline, SchedulerKind};
//! use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};
//!
//! # fn main() -> Result<(), mcds_core::McdsError> {
//! let mut b = ApplicationBuilder::new("pipe");
//! let a = b.data("a", Words::new(64), DataKind::ExternalInput);
//! let f = b.data("f", Words::new(32), DataKind::FinalResult);
//! b.kernel("k", 16, Cycles::new(200), &[a], &[f]);
//! let app = b.iterations(16).build()?;
//!
//! let run = Pipeline::new(app).scheduler(SchedulerKind::Ds).run()?;
//! assert_eq!(run.plan().scheduler(), "ds");
//! assert!(run.report().total().get() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Cluster formation is pluggable through [`ClusterProvider`]: pass a
//! fixed [`ClusterSchedule`], the default [`SingletonClusters`], or a
//! search-based provider such as `mcds_ksched::KernelScheduler`.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use mcds_model::{Application, ArchParams, ClusterSchedule};
use mcds_sim::SimReport;
use serde::{Deserialize, Serialize};

use crate::{
    evaluate_observed, render_explain, CancelToken, Comparison, ExperimentRow, Fault, FaultDecider,
    FaultPlan, FaultScope, McdsError, MetricsRegistry, Observer, ScheduleAnalysis, SchedulePlan,
    SchedulerConfig, Seam, TraceSink, VecSink,
};

/// How a pipeline consumes fault decisions: straight off the shared
/// plan's process-wide counters, or through a per-request
/// [`FaultScope`].
enum FaultBinding {
    Global(Arc<FaultPlan>),
    Scoped(FaultScope),
}

impl FaultBinding {
    fn decider(&self) -> &dyn FaultDecider {
        match self {
            FaultBinding::Global(plan) => plan.as_ref(),
            FaultBinding::Scoped(scope) => scope,
        }
    }
}

/// A cluster-formation strategy: anything that can turn an application
/// into a [`ClusterSchedule`] for a given architecture.
///
/// Implemented by [`ClusterSchedule`] itself (a fixed schedule), by
/// [`SingletonClusters`], and by `mcds_ksched::KernelScheduler` (the
/// design-space search of Maestre et al.).
pub trait ClusterProvider {
    /// Produces the cluster schedule.
    ///
    /// # Errors
    ///
    /// [`McdsError::Clustering`] (or a model error) when no valid
    /// schedule exists under `arch`.
    fn clusters(&self, app: &Application, arch: &ArchParams) -> Result<ClusterSchedule, McdsError>;
}

impl ClusterProvider for ClusterSchedule {
    fn clusters(
        &self,
        _app: &Application,
        _arch: &ArchParams,
    ) -> Result<ClusterSchedule, McdsError> {
        Ok(self.clone())
    }
}

/// The trivial provider: one cluster per kernel, in declaration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingletonClusters;

impl ClusterProvider for SingletonClusters {
    fn clusters(
        &self,
        app: &Application,
        _arch: &ArchParams,
    ) -> Result<ClusterSchedule, McdsError> {
        Ok(ClusterSchedule::singletons(app)?)
    }
}

/// A data scheduler: one setting of the RF ladder that
/// [`plan`](SchedulerKind::plan) and
/// [`plan_observed`](SchedulerKind::plan_observed) climb to turn an
/// application, cluster schedule and architecture into a complete
/// [`SchedulePlan`]. A [`Pipeline`] (or sweep point) runs one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SchedulerKind {
    /// The Basic Scheduler of Maestre et al. (DATE 2000): `RF = 1`, no
    /// in-place replacement, no retention — the baseline both the Data
    /// Scheduler and the Complete Data Scheduler are measured against.
    Basic,
    /// The Data Scheduler of Sanchez-Elez et al. (ISSS 2001): in-place
    /// replacement within clusters plus loop fission at the highest
    /// common reuse factor; no inter-cluster retention.
    Ds,
    /// The Complete Data Scheduler — the paper's contribution:
    /// replacement, loop fission, *and* TF-ranked retention of shared
    /// data and shared results among same-set clusters.
    Cds,
    /// Beam-search / branch-and-bound retention over the CDS candidate
    /// list (`mcds-search`) — the extension beyond the paper. At every
    /// RF rung it runs the greedy walk *and* explores accept/reject
    /// alternatives (every accept decided by the paper's
    /// `DS(C_c) <= FBS` constraint alone, an admissible bound pruning
    /// against the greedy incumbent), and keeps a rung's searched
    /// retention only when it avoids strictly more external traffic
    /// without costing cycles. Never returns a worse schedule than
    /// [`Cds`](SchedulerKind::Cds); with `beam_width <= 1` it skips the
    /// search and *is* greedy CDS, byte-identical outcomes and all.
    Search {
        /// Beam nodes kept per candidate depth (`1` reproduces greedy).
        beam_width: u32,
        /// Hard cap on node expansions (`0` means unlimited).
        max_expansions: u32,
    },
}

impl SchedulerKind {
    /// The paper's three schedulers, in baseline-to-best order. The
    /// search extension is deliberately not part of this set — it is
    /// parameterized, so grids opt into specific `Search` points (see
    /// [`SchedulerKind::search_default`]).
    pub const ALL: [SchedulerKind; 3] =
        [SchedulerKind::Basic, SchedulerKind::Ds, SchedulerKind::Cds];

    /// Default beam width of the `Search` scheduler.
    pub const DEFAULT_SEARCH_BEAM: u32 = 8;
    /// Default expansion cap of the `Search` scheduler.
    pub const DEFAULT_SEARCH_EXPANSIONS: u32 = 10_000;

    /// The `Search` variant with its default parameters (beam width 8,
    /// 10 000 expansions) — what `"search"` parses to.
    #[must_use]
    pub fn search_default() -> SchedulerKind {
        SchedulerKind::Search {
            beam_width: Self::DEFAULT_SEARCH_BEAM,
            max_expansions: Self::DEFAULT_SEARCH_EXPANSIONS,
        }
    }

    /// The scheduler's short name (`basic` / `ds` / `cds` / `search`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Basic => "basic",
            SchedulerKind::Ds => "ds",
            SchedulerKind::Cds => "cds",
            SchedulerKind::Search { .. } => "search",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SchedulerKind::Search {
                beam_width,
                max_expansions,
            } => write!(f, "search:{beam_width}:{max_expansions}"),
            _ => f.write_str(self.name()),
        }
    }
}

impl FromStr for SchedulerKind {
    type Err = McdsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        fn bad(s: &str) -> McdsError {
            McdsError::spec(format!(
                "unknown scheduler `{s}` (expected basic, ds, cds, search, \
                 search:<beam>, or search:<beam>:<max-expansions>)"
            ))
        }
        match s {
            "basic" => Ok(SchedulerKind::Basic),
            "ds" => Ok(SchedulerKind::Ds),
            "cds" => Ok(SchedulerKind::Cds),
            "search" => Ok(SchedulerKind::search_default()),
            other => {
                // Parameterized search: `search:<beam>[:<max-expansions>]`.
                let Some(params) = other.strip_prefix("search:") else {
                    return Err(bad(other));
                };
                let mut parts = params.splitn(2, ':');
                let beam = parts
                    .next()
                    .and_then(|p| p.parse::<u32>().ok())
                    .ok_or_else(|| bad(other))?;
                let cap = match parts.next() {
                    Some(p) => p.parse::<u32>().map_err(|_| bad(other))?,
                    None => Self::DEFAULT_SEARCH_EXPANSIONS,
                };
                Ok(SchedulerKind::Search {
                    beam_width: beam,
                    max_expansions: cap,
                })
            }
        }
    }
}

/// The unified facade: application → clustering → data scheduler →
/// architecture, with [`run`](Pipeline::run) /
/// [`compare`](Pipeline::compare) executing the whole chain.
///
/// Defaults: M1 architecture, singleton clusters, the CDS, default
/// [`SchedulerConfig`].
pub struct Pipeline {
    app: Application,
    arch: ArchParams,
    config: SchedulerConfig,
    scheduler: SchedulerKind,
    clustering: Box<dyn ClusterProvider + Send + Sync>,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    cancel: Option<CancelToken>,
    faults: Option<FaultBinding>,
}

impl Pipeline {
    /// Starts a pipeline over `app` with the defaults above.
    #[must_use]
    pub fn new(app: Application) -> Self {
        Pipeline {
            app,
            arch: ArchParams::m1(),
            config: SchedulerConfig::default(),
            scheduler: SchedulerKind::Cds,
            clustering: Box::new(SingletonClusters),
            sink: None,
            metrics: None,
            cancel: None,
            faults: None,
        }
    }

    /// Sets the target architecture.
    #[must_use]
    pub fn arch(mut self, arch: ArchParams) -> Self {
        self.arch = arch;
        self
    }

    /// Sets the scheduler configuration.
    #[must_use]
    pub fn config(mut self, config: SchedulerConfig) -> Self {
        self.config = config;
        self
    }

    /// Picks the data scheduler [`run`](Pipeline::run) executes.
    #[must_use]
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Plugs in a cluster-formation strategy.
    #[must_use]
    pub fn clustering(mut self, provider: impl ClusterProvider + Send + Sync + 'static) -> Self {
        self.clustering = Box::new(provider);
        self
    }

    /// Uses a fixed, pre-built cluster schedule.
    #[must_use]
    pub fn schedule(self, sched: ClusterSchedule) -> Self {
        self.clustering(sched)
    }

    /// Attaches a [`TraceSink`]: every decision [`Event`](crate::Event)
    /// of subsequent [`run`](Pipeline::run) calls is recorded into it.
    /// Without a sink the instrumented paths are allocation-free no-ops.
    #[must_use]
    pub fn trace(mut self, sink: impl TraceSink + 'static) -> Self {
        self.sink = Some(Arc::new(sink));
        self
    }

    /// Attaches a shared [`MetricsRegistry`] for counter/histogram
    /// rollups (pass clones of one `Arc` to aggregate across pipelines).
    #[must_use]
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attaches a [`CancelToken`]: [`run`](Pipeline::run),
    /// [`run_prepared`](Pipeline::run_prepared) and
    /// [`explain`](Pipeline::explain) poll it at every stage boundary
    /// (admission, after clustering, after planning) and abandon the
    /// request with [`McdsError::Cancelled`] once it trips — the serving
    /// layer's per-request deadline enforcement.
    #[must_use]
    pub fn cancellation(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deterministic [`FaultPlan`]: stage boundaries and the
    /// allocation walk consult it and inject the faults it fires
    /// (stage delays / cancellations, transient allocation failures).
    /// Intended for robustness testing — production pipelines simply
    /// omit it.
    #[must_use]
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(FaultBinding::Global(plan));
        self
    }

    /// Like [`faults`](Pipeline::faults), but scoped: decisions index
    /// per-request counters salted by `(request_key, attempt)` via
    /// [`FaultPlan::scope`], so this run's fault stream is independent
    /// of how many decisions other requests consumed, and retries of
    /// the same key draw fresh streams. The serving layer binds every
    /// worker run this way.
    #[must_use]
    pub fn faults_scoped(mut self, plan: &Arc<FaultPlan>, request_key: u64) -> Self {
        self.faults = Some(FaultBinding::Scoped(plan.scope(request_key)));
        self
    }

    fn observer(&self) -> Observer<'_> {
        Observer::new(self.sink.as_deref(), self.metrics.as_deref())
            .with_faults(self.faults.as_ref().map(FaultBinding::decider))
    }

    fn check_cancel(&self) -> Result<(), McdsError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// One stage boundary: consult the fault plan for this seam (a
    /// fired `StageDelay` stalls here; a fired `StageCancel` aborts the
    /// run exactly like a tripped deadline), then poll the cancel
    /// token.
    fn checkpoint(&self, seam: Seam) -> Result<(), McdsError> {
        match self.observer().fault(seam) {
            Some(Fault::StageDelay(d)) => std::thread::sleep(d),
            Some(Fault::StageCancel) => {
                return Err(McdsError::Cancelled(format!(
                    "injected stage fault at {seam}"
                )))
            }
            Some(_) | None => {}
        }
        self.check_cancel()
    }

    /// The application under schedule.
    #[must_use]
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The target architecture.
    #[must_use]
    pub fn arch_params(&self) -> &ArchParams {
        &self.arch
    }

    /// Resolves the cluster schedule without planning.
    ///
    /// # Errors
    ///
    /// Whatever the [`ClusterProvider`] reports.
    pub fn resolve_clusters(&self) -> Result<ClusterSchedule, McdsError> {
        self.clustering.clusters(&self.app, &self.arch)
    }

    /// Runs the arch-independent front half of the chain — cluster
    /// resolution plus the shared [`ScheduleAnalysis`] (lifetimes,
    /// sharing candidates) — and packages it for reuse by
    /// [`run_prepared`](Pipeline::run_prepared).
    ///
    /// The result depends only on the application and the resolved
    /// partition, so one `PreparedSchedule` can serve every
    /// (architecture, scheduler, config) variant of the same workload
    /// structure — provided the [`ClusterProvider`] itself ignores the
    /// architecture (fixed schedules and [`SingletonClusters`] do;
    /// search-based providers may not).
    ///
    /// This half is pure and uncancellable: no checkpoints fire, no
    /// trace events stream, and no fault decisions are consumed, so a
    /// cached `PreparedSchedule` is byte-identical to what a
    /// from-scratch [`run`](Pipeline::run) would have computed
    /// internally even when the producing request was faulted or
    /// cancelled later in its pipeline.
    ///
    /// # Errors
    ///
    /// Whatever the [`ClusterProvider`] reports.
    pub fn prepare(&self) -> Result<PreparedSchedule, McdsError> {
        let schedule = self.resolve_clusters()?;
        let analysis = Arc::new(ScheduleAnalysis::new(&self.app, &schedule));
        Ok(PreparedSchedule { schedule, analysis })
    }

    /// Runs the back half of the chain — data scheduling, allocation,
    /// and evaluation — over a previously [`prepare`](Pipeline::prepare)d
    /// front half.
    ///
    /// Consults the same seams in the same order as
    /// [`run`](Pipeline::run) (admission, clustering, planning), so
    /// fault streams, cancellation behavior, trace events, and the
    /// outcome are all bit-identical to a from-scratch run of the same
    /// request — the incremental-equivalence differential suite pins
    /// this.
    ///
    /// # Errors
    ///
    /// Planning or evaluation errors, unified as [`McdsError`].
    pub fn run_prepared(&self, prepared: &PreparedSchedule) -> Result<PipelineRun, McdsError> {
        self.checkpoint(Seam::PipelineAdmission)?;
        self.checkpoint(Seam::PipelineClustering)?;
        let schedule = Cow::Borrowed(&prepared.schedule);
        self.plan_and_evaluate(schedule, &prepared.analysis, self.observer())
    }

    /// Runs the full chain with the selected scheduler.
    ///
    /// # Errors
    ///
    /// Clustering, planning, or evaluation errors, unified as
    /// [`McdsError`].
    pub fn run(&self) -> Result<PipelineRun, McdsError> {
        self.run_observed(self.observer())
    }

    /// Runs the full chain while capturing the decision trace, and
    /// returns the run together with its rendered
    /// [`render_explain`] decision log — the `mcds run --explain`
    /// backend. Any sink attached with [`trace`](Pipeline::trace) still
    /// receives every event.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Pipeline::run).
    pub fn explain(&self) -> Result<(PipelineRun, String), McdsError> {
        let local = VecSink::new();
        let tee = TeeSink {
            local: local.clone(),
            other: self.sink.clone(),
        };
        let observer = Observer::new(Some(&tee), self.metrics.as_deref())
            .with_faults(self.faults.as_ref().map(FaultBinding::decider));
        let run = self.run_observed(observer)?;
        Ok((run, render_explain(&local.take())))
    }

    /// [`run`](Pipeline::run) reporting through `observer`: admission,
    /// clustering, then the shared back half over a fresh analysis.
    fn run_observed(&self, observer: Observer<'_>) -> Result<PipelineRun, McdsError> {
        self.checkpoint(Seam::PipelineAdmission)?;
        let schedule = self.resolve_clusters()?;
        self.checkpoint(Seam::PipelineClustering)?;
        let analysis = ScheduleAnalysis::new(&self.app, &schedule);
        self.plan_and_evaluate(Cow::Owned(schedule), &analysis, observer)
    }

    /// The back half every run shares: data scheduling (with its
    /// allocation walk and the simulation of its chosen rung), the
    /// planning checkpoint, and the report of that evaluation. A
    /// borrowed `schedule` is cloned into the run only once it
    /// succeeds.
    fn plan_and_evaluate(
        &self,
        schedule: Cow<'_, ClusterSchedule>,
        analysis: &ScheduleAnalysis,
        observer: Observer<'_>,
    ) -> Result<PipelineRun, McdsError> {
        let plan = self.scheduler.plan_observed(
            &self.app,
            &schedule,
            &self.arch,
            &self.config,
            analysis,
            observer,
        )?;
        self.checkpoint(Seam::PipelinePlanning)?;
        evaluate_observed(&plan, &self.arch, observer)?;
        Ok(PipelineRun {
            schedule: schedule.into_owned(),
            plan,
        })
    }

    /// Runs all three schedulers over one resolved cluster schedule
    /// (sharing one [`ScheduleAnalysis`]) and condenses the outcome
    /// into a Table-1 row named after the application.
    ///
    /// # Errors
    ///
    /// Clustering errors only — per-scheduler failures (e.g. Basic
    /// infeasible at small memories) are captured inside the
    /// [`Comparison`].
    pub fn compare(&self) -> Result<PipelineComparison, McdsError> {
        let schedule = self.resolve_clusters()?;
        let comparison = Comparison::run_with(&self.app, &schedule, &self.arch, self.config);
        let row = comparison.to_row(self.app.name(), &self.app, &schedule, &self.arch);
        Ok(PipelineComparison {
            schedule,
            comparison,
            row,
        })
    }
}

/// Records into the `explain` buffer and forwards to the pipeline's own
/// sink, so `--explain --trace-out` see the same stream.
struct TeeSink {
    local: VecSink,
    other: Option<Arc<dyn TraceSink>>,
}

impl TraceSink for TeeSink {
    fn record(&self, event: &crate::Event) {
        self.local.record(event);
        if let Some(other) = &self.other {
            other.record(event);
        }
    }
}

impl fmt::Debug for Pipeline {
    // Hand-written: the boxed `dyn ClusterProvider` has no Debug.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("app", &self.app.name())
            .field("scheduler", &self.scheduler)
            .field("arch", &self.arch)
            .finish_non_exhaustive()
    }
}

/// The reusable front half of a pipeline: the resolved cluster schedule
/// plus the arch-independent [`ScheduleAnalysis`] over it, from
/// [`Pipeline::prepare`]. Cloning shares the analysis (`Arc`), so a
/// cached instance serves concurrent [`Pipeline::run_prepared`] calls
/// across arch variants of the same workload structure.
#[derive(Debug, Clone)]
pub struct PreparedSchedule {
    schedule: ClusterSchedule,
    analysis: Arc<ScheduleAnalysis>,
}

impl PreparedSchedule {
    /// The resolved cluster schedule.
    #[must_use]
    pub fn schedule(&self) -> &ClusterSchedule {
        &self.schedule
    }

    /// The shared analysis over that schedule.
    #[must_use]
    pub fn analysis(&self) -> &Arc<ScheduleAnalysis> {
        &self.analysis
    }
}

/// A completed single-scheduler pipeline run.
#[derive(Debug)]
pub struct PipelineRun {
    schedule: ClusterSchedule,
    plan: SchedulePlan,
}

impl PipelineRun {
    /// The cluster schedule the run used.
    #[must_use]
    pub fn schedule(&self) -> &ClusterSchedule {
        &self.schedule
    }

    /// The data-movement plan.
    #[must_use]
    pub fn plan(&self) -> &SchedulePlan {
        &self.plan
    }

    /// The simulation report: the plan's own
    /// ([`SchedulePlan::report`]).
    #[must_use]
    pub fn report(&self) -> &SimReport {
        self.plan.report()
    }
}

/// A completed three-scheduler comparison run.
#[derive(Debug)]
pub struct PipelineComparison {
    schedule: ClusterSchedule,
    comparison: Comparison,
    row: ExperimentRow,
}

impl PipelineComparison {
    /// The cluster schedule all three schedulers used.
    #[must_use]
    pub fn schedule(&self) -> &ClusterSchedule {
        &self.schedule
    }

    /// Per-scheduler plans and reports.
    #[must_use]
    pub fn comparison(&self) -> &Comparison {
        &self.comparison
    }

    /// The condensed Table-1 row.
    #[must_use]
    pub fn row(&self) -> &ExperimentRow {
        &self.row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};

    fn app() -> Application {
        let mut b = ApplicationBuilder::new("px");
        let a = b.data("a", Words::new(64), DataKind::ExternalInput);
        let m = b.data("m", Words::new(32), DataKind::Intermediate);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        let k0 = b.kernel("k0", 16, Cycles::new(100), &[a], &[m]);
        b.kernel("k1", 16, Cycles::new(100), &[a, m], &[f]);
        let _ = k0;
        b.iterations(8).build().expect("valid")
    }

    #[test]
    fn run_matches_direct_wiring() {
        let application = app();
        let sched = ClusterSchedule::singletons(&application).expect("valid");
        let arch = ArchParams::m1();
        let direct = SchedulerKind::Ds
            .plan(&application, &sched, &arch)
            .expect("fits");
        let direct_total = direct.report().total();

        let run = Pipeline::new(application)
            .scheduler(SchedulerKind::Ds)
            .run()
            .expect("pipeline runs");
        assert_eq!(run.plan().scheduler(), "ds");
        assert_eq!(run.plan().rf(), direct.rf());
        assert_eq!(run.report().total(), direct_total);
        assert_eq!(run.schedule(), &sched);
    }

    #[test]
    fn compare_produces_row() {
        let cmp = Pipeline::new(app()).compare().expect("clusters");
        assert!(cmp.comparison().basic.is_ok());
        assert_eq!(cmp.row().name, "px");
        assert_eq!(cmp.row().n_clusters, cmp.schedule().len());
        let d = cmp.comparison().ds_improvement().expect("both ran");
        assert!(d >= 0.0);
    }

    #[test]
    fn fixed_schedule_is_respected() {
        let application = app();
        let k: Vec<_> = application.kernels().iter().map(|k| k.id()).collect();
        let fused = ClusterSchedule::new(&application, vec![vec![k[0], k[1]]]).expect("valid");
        let run = Pipeline::new(application)
            .schedule(fused.clone())
            .scheduler(SchedulerKind::Basic)
            .run()
            .expect("fits");
        assert_eq!(run.schedule(), &fused);
        assert_eq!(run.schedule().len(), 1);
    }

    #[test]
    fn traced_run_streams_events_and_metrics() {
        let sink = VecSink::new();
        let metrics = Arc::new(MetricsRegistry::new());
        let run = Pipeline::new(app())
            .scheduler(SchedulerKind::Cds)
            .trace(sink.clone())
            .metrics(Arc::clone(&metrics))
            .run()
            .expect("pipeline runs");
        let events = sink.events();
        assert!(matches!(events[0], Event::PlanStarted { .. }));
        assert!(events.iter().any(|e| matches!(e, Event::RfChosen { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::FbAlloc { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::AllocationChecked { .. })));
        assert!(matches!(
            events.last(),
            Some(Event::SimCompleted { total_cycles, .. })
                if *total_cycles == run.report().total().get()
        ));
        assert_eq!(metrics.get("plan.count"), Some(1));
        assert_eq!(metrics.get("sim.runs"), Some(1));
        assert!(metrics.get("fb.allocs").expect("counted") > 0);
    }

    #[test]
    fn untraced_and_traced_runs_agree() {
        let plain = Pipeline::new(app()).run().expect("runs");
        let traced = Pipeline::new(app())
            .trace(VecSink::new())
            .run()
            .expect("runs");
        assert_eq!(plain.plan().rf(), traced.plan().rf());
        assert_eq!(plain.report().total(), traced.report().total());
    }

    #[test]
    fn explain_renders_decision_log_and_tees() {
        let sink = VecSink::new();
        let pipeline = Pipeline::new(app())
            .scheduler(SchedulerKind::Cds)
            .trace(sink.clone());
        let (run, log) = pipeline.explain().expect("runs");
        assert!(log.contains("[cds] plan px"));
        assert!(log.contains("chose rf"));
        assert!(log.contains("[cds] simulated"));
        assert!(!sink.is_empty(), "attached sink still sees the stream");
        let (_, log2) = pipeline.explain().expect("runs again");
        assert_eq!(log, log2, "explain is deterministic");
        let _ = run;
    }

    #[test]
    fn cancelled_token_aborts_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        let err = Pipeline::new(app())
            .cancellation(token)
            .run()
            .expect_err("admission check trips");
        assert!(matches!(err, McdsError::Cancelled(_)));
        assert!(err.to_string().contains("run abandoned"));
    }

    #[test]
    fn elapsed_deadline_aborts_run_and_explain() {
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let pipeline = Pipeline::new(app()).cancellation(token);
        assert!(matches!(
            pipeline.run().expect_err("deadline"),
            McdsError::Cancelled(_)
        ));
        assert!(matches!(
            pipeline.explain().expect_err("deadline"),
            McdsError::Cancelled(_)
        ));
    }

    #[test]
    fn unexpired_deadline_does_not_change_the_result() {
        let plain = Pipeline::new(app()).run().expect("runs");
        let timed = Pipeline::new(app())
            .cancellation(CancelToken::with_deadline(std::time::Duration::from_secs(
                3600,
            )))
            .run()
            .expect("deadline far away");
        assert_eq!(plain.plan().rf(), timed.plan().rf());
        assert_eq!(plain.report().total(), timed.report().total());
    }

    #[test]
    fn injected_stage_cancel_aborts_and_counts() {
        use crate::FaultConfig;
        let metrics = Arc::new(MetricsRegistry::new());
        // Rate 1M at admission: the very first decision fires. Probe
        // for a seed whose flavor roll is StageCancel (not StageDelay)
        // so the run aborts instead of merely stalling.
        let admission_always =
            |seed| FaultConfig::new(seed).with_rate(Seam::PipelineAdmission, 1_000_000);
        let seed = (0..100)
            .find(|&s| {
                let probe = FaultPlan::new(admission_always(s));
                matches!(
                    probe.decide(Seam::PipelineAdmission),
                    Some(Fault::StageCancel)
                )
            })
            .expect("some small seed rolls a cancel");
        let plan = Arc::new(FaultPlan::new(admission_always(seed)));
        let err = Pipeline::new(app())
            .metrics(Arc::clone(&metrics))
            .faults(Arc::clone(&plan))
            .run()
            .expect_err("admission fault fires");
        assert!(matches!(err, McdsError::Cancelled(_)), "got {err}");
        assert!(err.to_string().contains("pipeline.admission"));
        assert_eq!(metrics.get("fault.pipeline.admission"), Some(1));
        assert_eq!(plan.snapshot().total_fired(), 1);
    }

    #[test]
    fn injected_alloc_fault_is_transient_not_deterministic() {
        use crate::FaultConfig;
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::new(3).with_rate(Seam::FbAlloc, 1_000_000),
        ));
        let err = Pipeline::new(app())
            .faults(plan)
            .run()
            .expect_err("every allocation faults");
        assert!(err.is_transient(), "got {err}");
        assert!(matches!(err, McdsError::Faulted(_)));
    }

    #[test]
    fn zero_rate_fault_plan_changes_nothing() {
        use crate::FaultConfig;
        let plain = Pipeline::new(app()).run().expect("runs");
        let faulted = Pipeline::new(app())
            .faults(Arc::new(FaultPlan::new(FaultConfig::new(5))))
            .run()
            .expect("all rates zero");
        assert_eq!(plain.plan().rf(), faulted.plan().rf());
        assert_eq!(plain.report().total(), faulted.report().total());
    }

    #[test]
    fn prepared_run_matches_from_scratch_across_arches() {
        for arch in [ArchParams::m1(), ArchParams::m1_with_fb(Words::kilo(2))] {
            for kind in SchedulerKind::ALL {
                let pipeline = Pipeline::new(app()).arch(arch).scheduler(kind);
                let prepared = pipeline.prepare().expect("prepares");
                let inc = pipeline.run_prepared(&prepared).expect("runs prepared");
                let scratch = pipeline.run().expect("runs");
                assert_eq!(inc.plan().rf(), scratch.plan().rf());
                assert_eq!(inc.report().total(), scratch.report().total());
                assert_eq!(inc.schedule(), scratch.schedule());
            }
        }
    }

    #[test]
    fn prepared_run_streams_identical_trace_events() {
        let inc_sink = VecSink::new();
        let scratch_sink = VecSink::new();
        let incremental = Pipeline::new(app()).trace(inc_sink.clone());
        let prepared = incremental.prepare().expect("prepares");
        incremental.run_prepared(&prepared).expect("runs prepared");
        Pipeline::new(app())
            .trace(scratch_sink.clone())
            .run()
            .expect("runs");
        assert_eq!(
            inc_sink.take(),
            scratch_sink.take(),
            "prepared reuse must not perturb the event stream"
        );
    }

    #[test]
    fn scoped_faults_replay_per_key_through_the_pipeline() {
        use crate::FaultConfig;
        // Under a scoped binding, the outcome for (seed, key, attempt)
        // is independent of unrelated traffic drawn from the same plan.
        let outcome = |pre_drain: u64| {
            let plan = Arc::new(FaultPlan::new(
                FaultConfig::new(11).with_rate(Seam::FbAlloc, 200_000),
            ));
            for _ in 0..pre_drain {
                let _ = plan.decide(Seam::FbAlloc);
            }
            Pipeline::new(app())
                .faults_scoped(&plan, 0xABCD)
                .run()
                .map(|r| r.report().total())
                .map_err(|e| e.to_string())
        };
        assert_eq!(outcome(0), outcome(999));
    }

    #[test]
    fn scheduler_kind_parses_and_prints() {
        for kind in SchedulerKind::ALL {
            assert_eq!(kind.name().parse::<SchedulerKind>().expect("parses"), kind);
        }
        let err = "dds".parse::<SchedulerKind>().unwrap_err();
        assert!(err.to_string().contains("unknown scheduler"));
    }

    #[test]
    fn search_kind_parses_prints_and_round_trips() {
        assert_eq!(
            "search".parse::<SchedulerKind>().expect("parses"),
            SchedulerKind::search_default()
        );
        let custom = SchedulerKind::Search {
            beam_width: 4,
            max_expansions: 500,
        };
        assert_eq!(
            "search:4:500".parse::<SchedulerKind>().expect("parses"),
            custom
        );
        assert_eq!(
            custom.to_string().parse::<SchedulerKind>().expect("parses"),
            custom
        );
        assert_eq!(
            "search:4".parse::<SchedulerKind>().expect("parses"),
            SchedulerKind::Search {
                beam_width: 4,
                max_expansions: SchedulerKind::DEFAULT_SEARCH_EXPANSIONS,
            }
        );
        assert_eq!(custom.name(), "search");
        for garbage in ["search:", "search:x", "search:4:", "search:4:x", "searchy"] {
            let err = garbage.parse::<SchedulerKind>().unwrap_err();
            assert!(err.to_string().contains("unknown scheduler"), "{garbage}");
        }
    }
}
