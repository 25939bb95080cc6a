//! Transaction-level simulator of the MorphoSys M1 reconfigurable
//! system.
//!
//! The data/context schedulers of the `mcds` workspace emit an
//! [`OpSchedule`] — an explicit, dependency-annotated list of transfers
//! and computations — and this crate executes it against the M1 resource
//! model, producing a cycle-accurate [`Timeline`] and a [`SimReport`]
//! with transfer and occupancy metrics.
//!
//! An op is only its [`OpKind`] and its dependencies: ops carry no
//! labels, because planners build thousands of them per plan and
//! nothing on the planning path reads one. `OpKind`'s `Display`
//! renders an op for people (`load set0 120w`, `compute k3 set1 400cy`).
//!
//! # Resource model
//!
//! Matching the architecture description in the paper:
//!
//! * **One DMA channel.** "The DMA controller establishes the bridge
//!   that connects the external memory, the FB or the CM. Thus
//!   simultaneous transfers of data and contexts are not possible" — all
//!   [`LoadData`](OpKind::LoadData), [`StoreData`](OpKind::StoreData)
//!   and [`LoadContext`](OpKind::LoadContext) ops serialize on it.
//! * **One RC array.** [`Compute`](OpKind::Compute) ops serialize on the
//!   8×8 reconfigurable-cell array.
//! * **Two Frame Buffer sets.** "Data from one set is used for current
//!   computation, while the other set stores results … and loads data" —
//!   a computation reading set *s* excludes DMA data transfers touching
//!   *s* (and vice versa), but overlaps freely with transfers on the
//!   other set and with context loads.
//!
//! # Example
//!
//! ```
//! use mcds_model::{ArchParams, Cycles, FbSet, KernelId, Words};
//! use mcds_sim::{OpScheduleBuilder, Simulator};
//!
//! # fn main() -> Result<(), mcds_sim::SimError> {
//! let mut b = OpScheduleBuilder::new();
//! let load = b.load_data(FbSet::Set0, Words::new(100), &[]);
//! let run = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(400), &[load]);
//! b.store_data(FbSet::Set0, Words::new(50), &[run]);
//! let report = Simulator::new(ArchParams::m1()).run(&b.build()?)?;
//! // load (100cy) -> compute (400cy) -> store (50cy), fully serialized:
//! assert_eq!(report.total().get(), 554); // + 4cy kernel setup
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod analysis;
mod engine;
mod error;
mod op;
mod report;
mod timeline;

pub use analysis::{bottleneck, critical_path, op_duration, resource_bound, Bottleneck};
pub use engine::Simulator;
pub use error::SimError;
pub use op::{Op, OpId, OpKind, OpSchedule, OpScheduleBuilder};
pub use report::SimReport;
pub use timeline::{render_gantt, OpSpan, Timeline};
