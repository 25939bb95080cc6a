//! The Complete Data Scheduler (CDS) for multi-context reconfigurable
//! architectures — the primary contribution of Sanchez-Elez et al.,
//! *"A Complete Data Scheduler for Multi-Context Reconfigurable
//! Architectures"*, DATE 2002 — together with the two baselines it is
//! evaluated against.
//!
//! # The three schedulers
//!
//! All three consume the same inputs — an [`Application`], a
//! [`ClusterSchedule`] from the kernel scheduler, and the
//! [`ArchParams`] of the target — and produce a [`SchedulePlan`]: the
//! complete transfer/compute program that [`mcds_sim`] executes.
//!
//! * [`BasicScheduler`] (Maestre et al., DATE 2000): contexts are
//!   reloaded on every cluster activation (`RF = 1`), every cluster
//!   loads all of its inputs and stores all of its outward results every
//!   iteration, and the Frame Buffer holds a cluster's entire working
//!   set at once (no in-place replacement).
//! * [`DsScheduler`] (the *Data Scheduler*, ISSS 2001): dead inputs and
//!   consumed intermediates are replaced in place, shrinking the
//!   footprint [`cluster_peak`]; the freed space batches data for
//!   [`max_common_rf`] consecutive iterations so contexts are reloaded
//!   only `n/RF` times (loop fission, Figure 3 of the paper).
//! * [`CdsScheduler`] (the paper's contribution): additionally detects
//!   *shared data* and *shared results* among clusters on the same
//!   Frame Buffer set, ranks them by the time factor
//!   [`Candidate::tf`], and retains the best-ranked ones in the FB while
//!   every affected cluster still fits — avoiding `N−1` loads per shared
//!   datum and `N+1` transfers per shared result.
//!
//! # Example
//!
//! ```
//! use mcds_core::{BasicScheduler, CdsScheduler, DataScheduler, evaluate};
//! use mcds_model::{ApplicationBuilder, ArchParams, ClusterSchedule, Cycles, DataKind, Words};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ApplicationBuilder::new("demo");
//! let shared = b.data("coeffs", Words::new(128), DataKind::ExternalInput);
//! let x = b.data("x", Words::new(64), DataKind::ExternalInput);
//! let m = b.data("m", Words::new(64), DataKind::Intermediate);
//! let y = b.data("y", Words::new(64), DataKind::FinalResult);
//! let k0 = b.kernel("k0", 32, Cycles::new(300), &[shared, x], &[m]);
//! let k1 = b.kernel("k1", 32, Cycles::new(300), &[shared, m], &[y]);
//! let app = b.iterations(64).build()?;
//! // Two single-kernel clusters on alternating FB sets. Sharing
//! // needs two clusters on the same set, so `coeffs` is loaded by
//! // both and retention has nothing to keep: CDS plans as DS does,
//! // never slower than Basic.
//! let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]])?;
//! let arch = ArchParams::m1();
//!
//! let basic = BasicScheduler::new().plan(&app, &sched, &arch)?;
//! let cds = CdsScheduler::new().plan(&app, &sched, &arch)?;
//! assert!(cds.retention().is_empty());
//! let t_basic = evaluate(&basic, &arch)?;
//! let t_cds = evaluate(&cds, &arch)?;
//! assert!(t_cds.total() <= t_basic.total());
//! # Ok(())
//! # }
//! ```
//!
//! [`Application`]: mcds_model::Application
//! [`ClusterSchedule`]: mcds_model::ClusterSchedule
//! [`ArchParams`]: mcds_model::ArchParams

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc_walk;
mod analysis;
mod cancel;
mod codegen;
mod emit;
mod error;
mod fault;
mod footprint;
mod key;
mod lifetime;
mod pipeline;
mod plan;
mod report;
mod retention;
mod rf;
mod scheduler;
mod sharing;
mod trace;

pub use alloc_walk::{AllocationReport, AllocationWalk, PlacementRecord, PlacementRole};
pub use analysis::{LadderEval, LadderKey, ScheduleAnalysis};
pub use cancel::CancelToken;
pub use codegen::{generate_program, CodeOp, CodeOpDisplay, TransferProgram};
pub use emit::{emit_ops, stage_compute_cycles};
pub use error::{McdsError, ScheduleError};
pub use fault::{
    splitmix64, Fault, FaultConfig, FaultDecider, FaultPlan, FaultScope, FaultSnapshot, Seam,
    SeamStats,
};
pub use footprint::{all_fit, cluster_peak, ds_formula, first_unfit, FootprintModel};
pub use key::{arch_key, canonical_value_hash, compose_key, request_key, structure_key};
pub use lifetime::Lifetimes;
pub use pipeline::{
    ClusterProvider, Pipeline, PipelineComparison, PipelineRun, PreparedSchedule, SchedulerKind,
    SingletonClusters,
};
pub use plan::{build_stages, SchedulePlan, StagePlan};
pub use report::{table_header, Comparison, ExperimentRow};
pub use retention::{select_greedy, select_greedy_with, RetentionRanking, RetentionSet};
pub use rf::max_common_rf;
pub use scheduler::{
    evaluate, evaluate_observed, evaluate_with_analysis, BasicScheduler, CdsScheduler,
    ContextPolicy, DataScheduler, DsScheduler, SchedulerConfig, SearchScheduler,
};
pub use sharing::{find_candidates, find_candidates_with, Candidate, RetainedKind};
pub use trace::{
    render_explain, Counter, Event, Histogram, JsonLinesSink, MetricsRegistry, NullSink, Observer,
    TraceSink, VecSink,
};
