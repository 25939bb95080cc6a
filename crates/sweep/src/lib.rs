//! Parallel design-space exploration for the scheduler stack.
//!
//! The paper evaluates each workload at a handful of hand-picked
//! (memory size, kernel schedule) points. This crate sweeps the whole
//! grid — every combination of
//!
//! * **workload** ([`SweepWorkload`]: an application plus one or more
//!   candidate cluster partitions),
//! * **data scheduler** ([`SchedulerKind`]: Basic / DS / CDS),
//! * **architecture variant** (Frame Buffer size, cross-set access, …),
//!
//! in parallel across OS threads, sharing one memoized
//! [`ScheduleAnalysis`](mcds_core::ScheduleAnalysis) per (workload,
//! partition) so the lifetime analysis, sharing-candidate discovery
//! and simulated RF-ladder rungs are computed once rather than per
//! grid point.
//!
//! Results come back as a [`SweepReport`] whose rows are in **grid
//! order** — the report (and its JSON/CSV renderings) is byte-identical
//! run to run regardless of thread count or scheduling.
//!
//! # Example
//!
//! ```
//! use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};
//! use mcds_sweep::{SweepSpec, SweepWorkload};
//!
//! # fn main() -> Result<(), mcds_core::McdsError> {
//! let mut b = ApplicationBuilder::new("pipe");
//! let a = b.data("a", Words::new(64), DataKind::ExternalInput);
//! let f = b.data("f", Words::new(32), DataKind::FinalResult);
//! b.kernel("k", 16, Cycles::new(200), &[a], &[f]);
//! let app = b.iterations(16).build()?;
//!
//! let report = SweepSpec::new()
//!     .workload(SweepWorkload::new("pipe", app))
//!     .fb_sizes([Words::kilo(1), Words::kilo(2)])
//!     .run()?;
//! assert_eq!(report.rows.len(), 2); // 1 workload × 1 partition × 2 FBs
//! let parallel = report.to_json()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod report;
mod spec;

pub use mcds_core::SchedulerKind;
pub use report::{SchedulerOutcome, SweepReport, SweepRow};
pub use spec::{SweepSpec, SweepWorkload};
