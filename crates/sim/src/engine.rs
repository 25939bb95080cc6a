//! The discrete-event execution engine.

use mcds_model::{ArchParams, Cycles, FbSet, Words};

use crate::analysis::op_duration;
use crate::op::{OpKind, OpSchedule};
use crate::report::SimReport;
use crate::timeline::{OpSpan, Timeline};
use crate::{OpId, SimError};

/// Executes [`OpSchedule`]s against the M1 resource model.
///
/// Ops are issued in list order (which is topological by construction).
/// Each op starts at the earliest time satisfying:
///
/// * all dependencies finished;
/// * its resource (the DMA channel for transfers, the RC array for
///   computations) is free;
/// * the Frame Buffer exclusion rule: data transfers and computations on
///   the *same* set never overlap (each FB set is single-ported between
///   the array and the DMA; double buffering exists precisely so the
///   *other* set can be streamed during computation).
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Simulator {
    params: ArchParams,
}

impl Simulator {
    /// A simulator for the given architecture.
    #[must_use]
    pub fn new(params: ArchParams) -> Self {
        Simulator { params }
    }

    /// The architecture parameters in use.
    #[must_use]
    pub fn params(&self) -> &ArchParams {
        &self.params
    }

    /// Runs `schedule` to completion and reports timing and transfer
    /// metrics, in one pass over its ops: each op is placed on the
    /// timeline and counted into the busy and transfer totals as it is
    /// issued.
    ///
    /// # Errors
    ///
    /// Currently infallible for schedules produced by
    /// [`OpScheduleBuilder::build`](crate::OpScheduleBuilder::build)
    /// (which already validated structure); the `Result` keeps room for
    /// future semantic checks.
    pub fn run(&self, schedule: &OpSchedule) -> Result<SimReport, SimError> {
        self.run_observed(schedule, |_, _, _| {})
    }

    /// Like [`run`](Self::run), but calls `observe(index, start, finish)`
    /// for every op as it is placed on the timeline — the hook the
    /// tracing layer uses to stream per-op events without the simulator
    /// depending on it.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run).
    pub fn run_observed(
        &self,
        schedule: &OpSchedule,
        mut observe: impl FnMut(usize, Cycles, Cycles),
    ) -> Result<SimReport, SimError> {
        let mut spans: Vec<OpSpan> = Vec::with_capacity(schedule.len());

        let mut dma_free = Cycles::ZERO;
        let mut rc_free = Cycles::ZERO;
        // Last finish of a data transfer / computation per FB set.
        let mut data_busy = [Cycles::ZERO; 2];
        let mut compute_busy = [Cycles::ZERO; 2];

        let mut dma_busy_total = Cycles::ZERO;
        let mut rc_busy_total = Cycles::ZERO;
        let mut loaded = Words::ZERO;
        let mut stored = Words::ZERO;
        let mut context_words = 0u64;

        for (i, op) in schedule.ops().iter().enumerate() {
            let ready = schedule
                .deps_of(op)
                .iter()
                .map(|d| spans[d.index()].finish)
                .max()
                .unwrap_or(Cycles::ZERO);
            let duration = op_duration(&self.params, op.kind());

            // Place the op on its resources and count it in the totals.
            let (start, end) = match *op.kind() {
                OpKind::Compute { set, .. } => {
                    let s = set.index();
                    let start = ready.max(rc_free).max(data_busy[s]);
                    let end = start + duration;
                    rc_free = end;
                    compute_busy[s] = compute_busy[s].max(end);
                    rc_busy_total += duration;
                    (start, end)
                }
                OpKind::LoadData { set, words } | OpKind::StoreData { set, words } => {
                    let s = set.index();
                    let start = ready.max(dma_free).max(compute_busy[s]);
                    let end = start + duration;
                    dma_free = end;
                    data_busy[s] = data_busy[s].max(end);
                    dma_busy_total += duration;
                    if matches!(op.kind(), OpKind::LoadData { .. }) {
                        loaded += words;
                    } else {
                        stored += words;
                    }
                    (start, end)
                }
                OpKind::LoadContext {
                    context_words: words,
                } => {
                    let start = ready.max(dma_free);
                    let end = start + duration;
                    dma_free = end;
                    dma_busy_total += duration;
                    context_words += u64::from(words);
                    (start, end)
                }
            };

            observe(i, start, end);
            let Ok(index) = u32::try_from(i) else {
                // Unreachable for a validated schedule (build() bounds
                // the op count), but degenerate input gets a typed
                // error, not a panic.
                return Err(SimError::TooManyOps);
            };
            spans.push(OpSpan {
                op: OpId::new(index),
                start,
                finish: end,
            });
        }

        let timeline = Timeline::new(spans);
        Ok(SimReport::new(
            timeline,
            dma_busy_total,
            rc_busy_total,
            loaded,
            stored,
            context_words,
        ))
    }
}

// Compile-time guarantee that FbSet indices fit the 2-entry arrays.
const _: () = {
    assert!(FbSet::Set0.index() < 2);
    assert!(FbSet::Set1.index() < 2);
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpScheduleBuilder;
    use mcds_model::{ArchParamsBuilder, KernelId, Words};

    fn zero_setup() -> ArchParams {
        ArchParamsBuilder::new().kernel_setup_cycles(0).build()
    }

    #[test]
    fn serial_chain() {
        let mut b = OpScheduleBuilder::new();
        let l = b.load_data(FbSet::Set0, Words::new(100), &[]);
        let k = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(50), &[l]);
        b.store_data(FbSet::Set0, Words::new(30), &[k]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(180));
        assert_eq!(report.dma_busy(), Cycles::new(130));
        assert_eq!(report.rc_busy(), Cycles::new(50));
    }

    #[test]
    fn compute_overlaps_transfer_on_other_set() {
        let mut b = OpScheduleBuilder::new();
        let l0 = b.load_data(FbSet::Set0, Words::new(10), &[]);
        // Compute on set 0 while loading set 1: overlap allowed.
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(100), &[l0]);
        b.load_data(FbSet::Set1, Words::new(100), &[l0]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        // 10 (load set0) + max(100 compute, 100 load set1) = 110.
        assert_eq!(report.total(), Cycles::new(110));
    }

    #[test]
    fn compute_excludes_transfer_on_same_set() {
        let mut b = OpScheduleBuilder::new();
        let l0 = b.load_data(FbSet::Set0, Words::new(10), &[]);
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(100), &[l0]);
        // No dependency on the compute, but same set: must serialize.
        b.load_data(FbSet::Set0, Words::new(100), &[l0]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(210));
    }

    #[test]
    fn context_load_overlaps_any_compute() {
        let mut b = OpScheduleBuilder::new();
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(100), &[]);
        b.load_context(100, &[]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(100));
    }

    #[test]
    fn dma_serializes_data_and_contexts() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(60), &[]);
        b.load_context(40, &[]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(100));
        assert_eq!(report.dma_busy(), Cycles::new(100));
    }

    #[test]
    fn rc_array_serializes_computes() {
        let mut b = OpScheduleBuilder::new();
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(50), &[]);
        b.compute(KernelId::new(1), FbSet::Set1, Cycles::new(50), &[]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(100));
    }

    #[test]
    fn kernel_setup_overhead_applies_per_compute() {
        let params = ArchParamsBuilder::new().kernel_setup_cycles(7).build();
        let mut b = OpScheduleBuilder::new();
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(10), &[]);
        b.compute(KernelId::new(1), FbSet::Set0, Cycles::new(10), &[]);
        let report = Simulator::new(params)
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(34));
    }

    #[test]
    fn transfer_cost_scaling() {
        let params = ArchParamsBuilder::new()
            .data_cycles_per_word(3)
            .context_cycles_per_word(2)
            .kernel_setup_cycles(0)
            .build();
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(10), &[]);
        b.load_context(5, &[]);
        let report = Simulator::new(params)
            .run(&b.build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::new(40));
    }

    #[test]
    fn empty_schedule() {
        let report = Simulator::new(zero_setup())
            .run(&OpScheduleBuilder::new().build().expect("valid"))
            .expect("runs");
        assert_eq!(report.total(), Cycles::ZERO);
    }

    #[test]
    fn observed_run_reports_every_op_span() {
        let mut b = OpScheduleBuilder::new();
        let l = b.load_data(FbSet::Set0, Words::new(100), &[]);
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(50), &[l]);
        let schedule = b.build().expect("valid");
        let mut seen = Vec::new();
        let report = Simulator::new(zero_setup())
            .run_observed(&schedule, |i, start, end| seen.push((i, start, end)))
            .expect("runs");
        assert_eq!(
            seen,
            vec![
                (0, Cycles::ZERO, Cycles::new(100)),
                (1, Cycles::new(100), Cycles::new(150)),
            ]
        );
        assert_eq!(report.total(), Cycles::new(150));
    }

    #[test]
    fn dependencies_delay_start() {
        let mut b = OpScheduleBuilder::new();
        let l = b.load_data(FbSet::Set1, Words::new(100), &[]);
        let k = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(10), &[l]);
        let report = Simulator::new(zero_setup())
            .run(&b.build().expect("valid"))
            .expect("runs");
        let span = report.timeline().span(k);
        assert_eq!(span.start, Cycles::new(100));
        assert_eq!(report.total(), Cycles::new(110));
    }
}
