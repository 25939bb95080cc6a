//! Op schedules: the contract between schedulers and the simulator.

use std::fmt;

use mcds_model::{Cycles, FbSet, KernelId, Words};
use serde::{Deserialize, Serialize};

use crate::SimError;

/// Index of an [`Op`] within its [`OpSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct OpId(u32);

impl OpId {
    /// Creates an op id with the given raw index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        OpId(index)
    }

    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// What an op does and which resources it claims.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// DMA transfer of `words` from external memory into Frame Buffer
    /// set `set`.
    LoadData {
        /// Destination set.
        set: FbSet,
        /// Transfer size.
        words: Words,
    },
    /// DMA transfer of `words` from Frame Buffer set `set` to external
    /// memory.
    StoreData {
        /// Source set.
        set: FbSet,
        /// Transfer size.
        words: Words,
    },
    /// DMA transfer of `context_words` 32-bit context words into the
    /// Context Memory.
    LoadContext {
        /// Number of context words.
        context_words: u32,
    },
    /// `cycles` of computation by `kernel` on the RC array, reading and
    /// writing Frame Buffer set `set`.
    Compute {
        /// The executing kernel.
        kernel: KernelId,
        /// The Frame Buffer set the kernel's data lives in.
        set: FbSet,
        /// Computation time (excluding control-processor setup).
        cycles: Cycles,
    },
}

impl OpKind {
    /// The Frame Buffer set this op touches with *data*, if any
    /// (context loads touch none).
    #[must_use]
    pub fn fb_set(&self) -> Option<FbSet> {
        match self {
            OpKind::LoadData { set, .. }
            | OpKind::StoreData { set, .. }
            | OpKind::Compute { set, .. } => Some(*set),
            OpKind::LoadContext { .. } => None,
        }
    }

    /// `true` for ops that occupy the DMA channel.
    #[must_use]
    pub fn uses_dma(&self) -> bool {
        !matches!(self, OpKind::Compute { .. })
    }
}

impl fmt::Display for OpKind {
    /// A short rendering of the kind and its resources, e.g.
    /// `load set0 120w` or `compute k3 set1 400cy`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::LoadData { set, words } => write!(f, "load set{} {words}", set.index()),
            OpKind::StoreData { set, words } => write!(f, "store set{} {words}", set.index()),
            OpKind::LoadContext { context_words } => write!(f, "context {context_words}w"),
            OpKind::Compute {
                kernel,
                set,
                cycles,
            } => write!(f, "compute {kernel} set{} {cycles}", set.index()),
        }
    }
}

/// One step of a schedule: a kind and the ops that must finish first.
///
/// The dependencies live in one list per [`OpSchedule`]; the op holds
/// its range of that list, so read them through
/// [`OpSchedule::deps`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Op {
    kind: OpKind,
    deps_start: u32,
    deps_end: u32,
}

impl Op {
    /// The op's kind.
    #[must_use]
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }
}

/// A validated, topologically ordered list of ops.
///
/// Build with [`OpScheduleBuilder`], the only constructor, which
/// validates every op: dependencies always point backwards in the list,
/// so list order is a valid execution order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct OpSchedule {
    ops: Vec<Op>,
    /// Every op's dependencies, back to back in op order.
    deps: Vec<OpId>,
}

impl OpSchedule {
    /// The ops in list (topological) order.
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of ops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the schedule has no ops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Looks up an op.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// The ops that must complete before op `id` starts.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn deps(&self, id: OpId) -> &[OpId] {
        self.deps_of(&self.ops[id.index()])
    }

    /// The dependencies of `op`, which must belong to this schedule.
    pub(crate) fn deps_of(&self, op: &Op) -> &[OpId] {
        &self.deps[op.deps_start as usize..op.deps_end as usize]
    }

    /// Total data words loaded from external memory.
    #[must_use]
    pub fn data_words_loaded(&self) -> Words {
        self.ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::LoadData { words, .. } => Some(*words),
                _ => None,
            })
            .sum()
    }

    /// Total data words stored to external memory.
    #[must_use]
    pub fn data_words_stored(&self) -> Words {
        self.ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::StoreData { words, .. } => Some(*words),
                _ => None,
            })
            .sum()
    }

    /// Total context words loaded.
    #[must_use]
    pub fn context_words_loaded(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|o| match o.kind() {
                OpKind::LoadContext { context_words } => Some(u64::from(*context_words)),
                _ => None,
            })
            .sum()
    }
}

/// Builds an [`OpSchedule`] op by op, wiring dependencies by the
/// returned [`OpId`]s. A builder made
/// [`with_capacity`](Self::with_capacity) for the ops and dependencies
/// it will hold writes them in place and never grows.
///
/// # Example
///
/// ```
/// use mcds_model::{Cycles, FbSet, KernelId, Words};
/// use mcds_sim::OpScheduleBuilder;
///
/// # fn main() -> Result<(), mcds_sim::SimError> {
/// let mut b = OpScheduleBuilder::new();
/// let ctx = b.load_context(32, &[]);
/// let data = b.load_data(FbSet::Set0, Words::new(64), &[]);
/// let k0 = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(100), &[ctx, data]);
/// let schedule = b.build()?;
/// assert_eq!(schedule.len(), 3);
/// assert_eq!(schedule.deps(k0), &[ctx, data]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct OpScheduleBuilder {
    ops: Vec<Op>,
    deps: Vec<OpId>,
    /// Set once an append would overflow the `u32` id space; the
    /// builder stops accepting ops and [`build`](Self::build) reports
    /// [`SimError::TooManyOps`] instead of panicking mid-append.
    overflowed: bool,
}

impl OpScheduleBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        OpScheduleBuilder::default()
    }

    /// An empty builder with room for `ops` ops holding `deps`
    /// dependencies between them.
    #[must_use]
    pub fn with_capacity(ops: usize, deps: usize) -> Self {
        OpScheduleBuilder {
            ops: Vec::with_capacity(ops),
            deps: Vec::with_capacity(deps),
            overflowed: false,
        }
    }

    fn push(&mut self, kind: OpKind, deps: &[OpId]) -> OpId {
        let index = u32::try_from(self.ops.len());
        let deps_start = u32::try_from(self.deps.len());
        let deps_end = u32::try_from(self.deps.len() + deps.len());
        let (Ok(index), Ok(deps_start), Ok(deps_end)) = (index, deps_start, deps_end) else {
            self.overflowed = true;
            return OpId::new(u32::MAX);
        };
        self.deps.extend_from_slice(deps);
        self.ops.push(Op {
            kind,
            deps_start,
            deps_end,
        });
        OpId::new(index)
    }

    /// Appends a data load into `set`.
    pub fn load_data(&mut self, set: FbSet, words: Words, deps: &[OpId]) -> OpId {
        self.push(OpKind::LoadData { set, words }, deps)
    }

    /// Appends a data store from `set`.
    pub fn store_data(&mut self, set: FbSet, words: Words, deps: &[OpId]) -> OpId {
        self.push(OpKind::StoreData { set, words }, deps)
    }

    /// Appends a context load.
    pub fn load_context(&mut self, context_words: u32, deps: &[OpId]) -> OpId {
        self.push(OpKind::LoadContext { context_words }, deps)
    }

    /// Appends a kernel computation on `set`.
    pub fn compute(&mut self, kernel: KernelId, set: FbSet, cycles: Cycles, deps: &[OpId]) -> OpId {
        self.push(
            OpKind::Compute {
                kernel,
                set,
                cycles,
            },
            deps,
        )
    }

    /// Number of ops appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no ops were appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates and finalises the schedule.
    ///
    /// # Errors
    ///
    /// [`SimError::ForwardDependency`] if a dependency does not point
    /// strictly backwards; [`SimError::ZeroLengthOp`] for empty
    /// transfers or zero-cycle computations; [`SimError::TooManyOps`]
    /// when more ops or dependencies were appended than `u32` indices
    /// can name.
    pub fn build(self) -> Result<OpSchedule, SimError> {
        if self.overflowed {
            return Err(SimError::TooManyOps);
        }
        let schedule = OpSchedule {
            ops: self.ops,
            deps: self.deps,
        };
        for (i, op) in schedule.ops.iter().enumerate() {
            let Ok(index) = u32::try_from(i) else {
                return Err(SimError::TooManyOps);
            };
            let id = OpId::new(index);
            for &d in schedule.deps_of(op) {
                if d.index() >= i {
                    return Err(SimError::ForwardDependency { op: id, dep: d });
                }
            }
            let zero = match op.kind() {
                OpKind::LoadData { words, .. } | OpKind::StoreData { words, .. } => words.is_zero(),
                OpKind::LoadContext { context_words } => *context_words == 0,
                OpKind::Compute { cycles, .. } => cycles.is_zero(),
            };
            if zero {
                return Err(SimError::ZeroLengthOp(id));
            }
        }
        Ok(schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = OpScheduleBuilder::new();
        assert!(b.is_empty());
        let a = b.load_data(FbSet::Set0, Words::new(1), &[]);
        let c = b.load_context(4, &[a]);
        let k = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(5), &[a, c]);
        assert_eq!(a, OpId::new(0));
        assert_eq!(c, OpId::new(1));
        assert_eq!(k, OpId::new(2));
        assert_eq!(b.len(), 3);
        let s = b.build().expect("valid");
        assert_eq!(s.deps(k), &[a, c]);
        assert_eq!(s.deps(c), &[a]);
        assert!(s.deps(a).is_empty());
    }

    #[test]
    fn op_kinds_render_their_resources() {
        let render = |kind: OpKind| kind.to_string();
        assert_eq!(
            render(OpKind::LoadData {
                set: FbSet::Set0,
                words: Words::new(120)
            }),
            "load set0 120w"
        );
        assert_eq!(
            render(OpKind::StoreData {
                set: FbSet::Set1,
                words: Words::new(2048)
            }),
            "store set1 2Kw"
        );
        assert_eq!(
            render(OpKind::LoadContext { context_words: 32 }),
            "context 32w"
        );
        assert_eq!(
            render(OpKind::Compute {
                kernel: KernelId::new(3),
                set: FbSet::Set1,
                cycles: Cycles::new(400)
            }),
            "compute k3 set1 400cy"
        );
    }

    #[test]
    fn rejects_forward_dependency() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(1), &[OpId::new(1)]);
        b.load_data(FbSet::Set0, Words::new(1), &[]);
        assert!(matches!(
            b.build().unwrap_err(),
            SimError::ForwardDependency { .. }
        ));
    }

    #[test]
    fn rejects_self_dependency() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(1), &[OpId::new(0)]);
        assert!(matches!(
            b.build().unwrap_err(),
            SimError::ForwardDependency { .. }
        ));
    }

    #[test]
    fn rejects_zero_length_ops() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::ZERO, &[]);
        assert_eq!(b.build().unwrap_err(), SimError::ZeroLengthOp(OpId::new(0)));

        let mut b = OpScheduleBuilder::new();
        b.compute(KernelId::new(0), FbSet::Set1, Cycles::ZERO, &[]);
        assert_eq!(b.build().unwrap_err(), SimError::ZeroLengthOp(OpId::new(0)));

        let mut b = OpScheduleBuilder::new();
        b.load_context(0, &[]);
        assert_eq!(b.build().unwrap_err(), SimError::ZeroLengthOp(OpId::new(0)));
    }

    #[test]
    fn volume_accounting() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(10), &[]);
        b.load_data(FbSet::Set1, Words::new(20), &[]);
        b.store_data(FbSet::Set0, Words::new(5), &[]);
        b.load_context(7, &[]);
        let s = b.build().expect("valid");
        assert_eq!(s.data_words_loaded(), Words::new(30));
        assert_eq!(s.data_words_stored(), Words::new(5));
        assert_eq!(s.context_words_loaded(), 7);
    }

    #[test]
    fn op_kind_resource_queries() {
        let load = OpKind::LoadData {
            set: FbSet::Set0,
            words: Words::new(1),
        };
        let ctx = OpKind::LoadContext { context_words: 1 };
        let comp = OpKind::Compute {
            kernel: KernelId::new(0),
            set: FbSet::Set1,
            cycles: Cycles::new(1),
        };
        assert_eq!(load.fb_set(), Some(FbSet::Set0));
        assert_eq!(ctx.fb_set(), None);
        assert_eq!(comp.fb_set(), Some(FbSet::Set1));
        assert!(load.uses_dma());
        assert!(ctx.uses_dma());
        assert!(!comp.uses_dma());
    }
}
