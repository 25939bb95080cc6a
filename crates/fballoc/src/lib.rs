//! The Frame Buffer allocation algorithm of the Complete Data Scheduler
//! (§5 of Sanchez-Elez et al., DATE 2002).
//!
//! "As FB is not a large memory and as data and result sizes are similar,
//! the chosen allocation method is first-fit. It keeps track of which
//! parts are free through a linear list of all free blocks (`FB_list`)."
//!
//! The allocator supports everything the paper's placement policy needs:
//!
//! * **two growth directions** — shared data, kernel input data and
//!   shared results are placed first-fit *from upper free addresses*;
//!   final and intermediate results *from lower free addresses*
//!   ([`Direction`]);
//! * **regularity** — "data and results are allocated from the addresses
//!   where was placed previous iteration of them": [`FbAllocator::alloc_at`]
//!   plus the [`PlacementMemory`] helper reproduce an iteration's layout;
//! * **splitting** — "sometimes a data or result does not fit in any free
//!   block, so to improve memory usage the Complete Data Scheduler split
//!   it into two or more parts" ([`FbAllocator::alloc_split`]); split
//!   counts are tracked because the paper reports that none of its
//!   experiments needed one;
//! * **release** — `release(c,k,iter)` in the paper returns dead space to
//!   `FB_list` ([`FbAllocator::free`] coalesces adjacent blocks);
//! * **handles** — every placement returns an [`AllocHandle`]; the
//!   allocator's live table keeps each allocation's label and segments,
//!   which a caller reads with [`FbAllocator::allocation`] only when it
//!   shows them (an event, a trace, a placement record), and `free`
//!   hands the released [`Allocation`] back;
//! * **statistics and traces** — peak occupancy, fragmentation and an
//!   event trace that renders the Figure 5 style allocation maps
//!   ([`AllocStats`], [`render_map`]).
//!
//! # Example
//!
//! ```
//! use mcds_fballoc::{Direction, FbAllocator};
//! use mcds_model::Words;
//!
//! # fn main() -> Result<(), mcds_fballoc::AllocError> {
//! let mut fb = FbAllocator::new(Words::new(64));
//! let data = fb.alloc("input", Words::new(16), Direction::FromUpper)?;
//! let result = fb.alloc("result", Words::new(8), Direction::FromLower)?;
//! assert_eq!(fb.used(), Words::new(24));
//! fb.free(data)?;
//! fb.free(result)?;
//! assert_eq!(fb.used(), Words::ZERO);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocator;
mod error;
mod free_list;
mod regularity;
mod stats;
mod trace;

pub use allocator::{AllocHandle, Allocation, Direction, FbAllocator, Segment};
pub use error::AllocError;
pub use free_list::FreeList;
pub use regularity::PlacementMemory;
pub use stats::AllocStats;
pub use trace::{render_map, render_map_at, render_peak_map, TraceEvent, TraceKind};
