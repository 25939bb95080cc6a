//! The code generator — the final box of the paper's compilation
//! framework (Figure 2).
//!
//! Turns a [`SchedulePlan`] plus the §5 allocation's concrete
//! [`PlacementRecord`]s into a *transfer program*: the sequence of DMA
//! descriptors (with real Frame Buffer addresses) and kernel launches
//! the TinyRISC control processor would execute. Thanks to the
//! allocator's regularity, addresses repeat from the second round on,
//! so the program lists the warm-up round, one steady-state round, and
//! a repeat count.

use std::collections::BTreeMap;
use std::fmt;

use mcds_fballoc::Segment;
use mcds_model::{Application, ClusterId, ClusterSchedule, DataId, FbSet, KernelId};
use serde::{Deserialize, Serialize};

use crate::alloc_walk::{AllocationWalk, PlacementRecord, PlacementRole};
use crate::{FootprintModel, Lifetimes, ScheduleError, SchedulePlan};

/// One instruction of the generated control program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodeOp {
    /// Load a cluster's context words into the Context Memory.
    LoadContexts {
        /// The cluster whose kernels' configurations are loaded.
        cluster: ClusterId,
        /// Context words transferred.
        words: u32,
    },
    /// DMA an object instance from external memory into the Frame
    /// Buffer.
    DmaIn {
        /// The object.
        data: DataId,
        /// Iteration slot within the round.
        slot: u64,
        /// Destination set.
        set: FbSet,
        /// Destination address range(s).
        segments: Vec<Segment>,
    },
    /// Launch a kernel for the stage's iterations.
    Launch {
        /// The kernel.
        kernel: KernelId,
        /// Consecutive iterations executed (the stage's `RF` batch).
        iterations: u64,
    },
    /// DMA a result instance from the Frame Buffer to external memory.
    DmaOut {
        /// The object.
        data: DataId,
        /// Iteration slot within the round.
        slot: u64,
        /// Source set.
        set: FbSet,
        /// Source address range(s).
        segments: Vec<Segment>,
    },
}

/// A per-round control program with a steady-state repeat count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferProgram {
    warmup: Vec<CodeOp>,
    steady: Vec<CodeOp>,
    steady_rounds: u64,
}

impl TransferProgram {
    /// The first round's instructions (cold Frame Buffer).
    #[must_use]
    pub fn warmup(&self) -> &[CodeOp] {
        &self.warmup
    }

    /// One steady-state round; thanks to regular allocation its
    /// addresses are valid for every remaining round.
    #[must_use]
    pub fn steady(&self) -> &[CodeOp] {
        &self.steady
    }

    /// How many times the steady-state round executes.
    #[must_use]
    pub fn steady_rounds(&self) -> u64 {
        self.steady_rounds
    }

    /// Total instruction count if fully unrolled.
    #[must_use]
    pub fn unrolled_len(&self) -> u64 {
        self.warmup.len() as u64 + self.steady.len() as u64 * self.steady_rounds
    }

    /// The operand table of one recorded round: where each (object,
    /// slot) instance lives — what a kernel's address generator needs.
    #[must_use]
    pub fn operand_table(&self, round: &[CodeOp]) -> BTreeMap<(DataId, u64), Vec<Segment>> {
        let mut table = BTreeMap::new();
        for op in round {
            match op {
                CodeOp::DmaIn {
                    data,
                    slot,
                    segments,
                    ..
                }
                | CodeOp::DmaOut {
                    data,
                    slot,
                    segments,
                    ..
                } => {
                    table.insert((*data, *slot), segments.clone());
                }
                _ => {}
            }
        }
        table
    }
}

/// Generates the transfer program for a planned schedule.
///
/// Re-runs the §5 allocation walk for two rounds with placement
/// recording, then lowers each stage to `LoadContexts` / `DmaIn` /
/// `Launch` / `DmaOut` instructions. Retained objects produce no
/// `DmaIn` at their skipper stages and (when their store is avoided)
/// no `DmaOut` at their producer — exactly the transfers the Complete
/// Data Scheduler eliminated.
///
/// # Errors
///
/// Propagates allocation failures (cannot happen for plans produced by
/// the schedulers, which already validated the allocation).
pub fn generate_program(
    app: &Application,
    sched: &ClusterSchedule,
    plan: &SchedulePlan,
) -> Result<TransferProgram, ScheduleError> {
    let lifetimes = Lifetimes::analyze(app, sched);
    let model = if plan.scheduler() == "basic" {
        FootprintModel::NoReplacement
    } else {
        FootprintModel::Replacement
    };
    // Capacity: the recorded allocation's peak is what the plan
    // validated against; reuse the plan's stages for volumes.
    let capacity = plan
        .allocation()
        .peak()
        .iter()
        .copied()
        .max()
        .unwrap_or_default()
        .max(mcds_model::Words::new(1));
    let walk = AllocationWalk::new(
        app,
        sched,
        &lifetimes,
        plan.retention(),
        plan.rf(),
        capacity,
        model,
    );
    let (_, placements) = walk.run_with_placements(2)?;

    let total_rounds = app.iterations().div_ceil(plan.rf());
    let rounds_recorded = total_rounds.min(2);

    let mut by_round: Vec<Vec<CodeOp>> = vec![Vec::new(); rounds_recorded as usize];
    for round in 0..rounds_recorded {
        let stages_this_round: Vec<_> = plan
            .stages()
            .iter()
            .filter(|s| s.round() == round)
            .collect();
        let placed: Vec<&PlacementRecord> =
            placements.iter().filter(|p| p.round == round).collect();
        let ops = &mut by_round[round as usize];
        for stage in stages_this_round {
            let c = stage.cluster();
            if stage.context_words() > 0 {
                ops.push(CodeOp::LoadContexts {
                    cluster: c,
                    words: stage.context_words(),
                });
            }
            // Inputs: every upper-direction placement of this stage
            // that is not a produced result is a DMA-in.
            for p in placed.iter().filter(|p| {
                p.cluster == c
                    && matches!(
                        p.role,
                        PlacementRole::SharedData | PlacementRole::KernelData
                    )
            }) {
                ops.push(CodeOp::DmaIn {
                    data: p.data,
                    slot: p.slot,
                    set: p.set,
                    segments: p.segments.clone(),
                });
            }
            for &k in sched.cluster(c).kernels() {
                ops.push(CodeOp::Launch {
                    kernel: k,
                    iterations: stage.iters(),
                });
            }
            // Outputs: stores not avoided by retention.
            for p in placed.iter().filter(|p| p.cluster == c) {
                let is_store = lifetimes.stores(c).contains(&p.data)
                    && !plan.retention().skips_store(c, p.data);
                if is_store {
                    ops.push(CodeOp::DmaOut {
                        data: p.data,
                        slot: p.slot,
                        set: p.set,
                        segments: p.segments.clone(),
                    });
                }
            }
        }
    }

    let mut rounds_iter = by_round.into_iter();
    let warmup = rounds_iter.next().unwrap_or_default();
    let steady = rounds_iter.next().unwrap_or_else(|| warmup.clone());
    Ok(TransferProgram {
        warmup,
        steady,
        steady_rounds: total_rounds.saturating_sub(1),
    })
}

/// Renders one instruction as an assembly-like line.
pub struct CodeOpDisplay<'a> {
    op: &'a CodeOp,
    app: &'a Application,
}

impl CodeOp {
    /// Display with object/kernel names resolved against `app`.
    #[must_use]
    pub fn display<'a>(&'a self, app: &'a Application) -> CodeOpDisplay<'a> {
        CodeOpDisplay { op: self, app }
    }
}

impl fmt::Display for CodeOpDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let segs = |segments: &[Segment]| {
            segments
                .iter()
                .map(|s| format!("[{}..{})", s.start, s.end()))
                .collect::<Vec<_>>()
                .join("+")
        };
        match self.op {
            CodeOp::LoadContexts { cluster, words } => {
                write!(f, "ldctx   {cluster} ({words} words)")
            }
            CodeOp::DmaIn {
                data,
                slot,
                set,
                segments,
            } => write!(
                f,
                "dma.in  {}#{slot} -> {set}{}",
                self.app.data_object(*data).name(),
                segs(segments)
            ),
            CodeOp::Launch { kernel, iterations } => write!(
                f,
                "launch  {} x{iterations}",
                self.app.kernel(*kernel).name()
            ),
            CodeOp::DmaOut {
                data,
                slot,
                set,
                segments,
            } => write!(
                f,
                "dma.out {}#{slot} <- {set}{}",
                self.app.data_object(*data).name(),
                segs(segments)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedulerKind;
    use mcds_model::{ApplicationBuilder, ArchParams, Cycles, DataKind, Words};

    fn fixture() -> (Application, ClusterSchedule, ArchParams) {
        let mut b = ApplicationBuilder::new("cg");
        let shared = b.data("shared", Words::new(64), DataKind::ExternalInput);
        let x = b.data("x", Words::new(32), DataKind::ExternalInput);
        let m = b.data("m", Words::new(32), DataKind::Intermediate);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        let k0 = b.kernel("k0", 32, Cycles::new(100), &[shared, x], &[m]);
        let k1 = b.kernel("k1", 32, Cycles::new(100), &[m], &[]);
        let k2 = b.kernel("k2", 32, Cycles::new(100), &[shared], &[f]);
        let app = b.iterations(6).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        (app, sched, ArchParams::m1())
    }

    #[test]
    fn program_structure() {
        let (app, sched, arch) = fixture();
        let plan = SchedulerKind::Ds.plan(&app, &sched, &arch).expect("fits");
        let prog = generate_program(&app, &sched, &plan).expect("generates");
        assert!(!prog.warmup().is_empty());
        assert!(!prog.steady().is_empty());
        let rounds = app.iterations().div_ceil(plan.rf());
        assert_eq!(prog.steady_rounds(), rounds - 1);
        // Launches cover every kernel each round.
        let launches = |ops: &[CodeOp]| {
            ops.iter()
                .filter(|o| matches!(o, CodeOp::Launch { .. }))
                .count()
        };
        assert_eq!(launches(prog.warmup()), 3);
        assert_eq!(launches(prog.steady()), 3);
    }

    #[test]
    fn retention_removes_dma_ins() {
        let (app, sched, arch) = fixture();
        let ds = SchedulerKind::Ds.plan(&app, &sched, &arch).expect("fits");
        let cds = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        let count_in = |plan: &SchedulePlan| {
            let prog = generate_program(&app, &sched, plan).expect("generates");
            prog.steady()
                .iter()
                .filter(|o| matches!(o, CodeOp::DmaIn { .. }))
                .count()
        };
        assert!(
            count_in(&cds) < count_in(&ds),
            "the CDS program must issue fewer input DMAs"
        );
    }

    #[test]
    fn steady_round_addresses_are_stable() {
        // With regular allocation, generating twice gives identical
        // programs, and the steady round's operand table is
        // self-consistent.
        let (app, sched, arch) = fixture();
        let plan = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        let p1 = generate_program(&app, &sched, &plan).expect("generates");
        let p2 = generate_program(&app, &sched, &plan).expect("generates");
        assert_eq!(p1, p2);
        let table = p1.operand_table(p1.steady());
        assert!(!table.is_empty());
        for segments in table.values() {
            assert_eq!(segments.len(), 1, "no split placements expected");
        }
    }

    #[test]
    fn program_volumes_match_plan_volumes() {
        // The DMA words the generated program moves per round must
        // equal the plan's per-stage volumes for that round.
        let (app, sched, arch) = fixture();
        for plan in [
            SchedulerKind::Ds.plan(&app, &sched, &arch).expect("fits"),
            SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits"),
        ] {
            let prog = generate_program(&app, &sched, &plan).expect("generates");
            let total_rounds = app.iterations().div_ceil(plan.rf());
            let steady_round = 1u64.min(total_rounds - 1);
            for (round, ops) in [(0u64, prog.warmup()), (steady_round, prog.steady())] {
                let planned_in: u64 = plan
                    .stages()
                    .iter()
                    .filter(|s| s.round() == round)
                    .map(|s| s.load_words().get())
                    .sum();
                let planned_out: u64 = plan
                    .stages()
                    .iter()
                    .filter(|s| s.round() == round)
                    .map(|s| s.store_words().get())
                    .sum();
                let moved = |want_in: bool| -> u64 {
                    ops.iter()
                        .map(|op| match op {
                            CodeOp::DmaIn { segments, .. } if want_in => {
                                segments.iter().map(|s| s.len.get()).sum()
                            }
                            CodeOp::DmaOut { segments, .. } if !want_in => {
                                segments.iter().map(|s| s.len.get()).sum()
                            }
                            _ => 0,
                        })
                        .sum()
                };
                assert_eq!(
                    moved(true),
                    planned_in,
                    "{}: round {round} loads",
                    plan.scheduler()
                );
                assert_eq!(
                    moved(false),
                    planned_out,
                    "{}: round {round} stores",
                    plan.scheduler()
                );
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let (app, sched, arch) = fixture();
        let plan = SchedulerKind::Cds.plan(&app, &sched, &arch).expect("fits");
        let prog = generate_program(&app, &sched, &plan).expect("generates");
        let listing: Vec<String> = prog
            .warmup()
            .iter()
            .map(|o| o.display(&app).to_string())
            .collect();
        let text = listing.join("\n");
        assert!(text.contains("launch  k0"));
        assert!(text.contains("dma.in"));
        assert!(text.contains("ldctx"));
    }
}
