//! Schedule analysis: lower bounds and bottleneck attribution.

use mcds_model::{ArchParams, Cycles};
use serde::{Deserialize, Serialize};

use crate::op::{OpKind, OpSchedule};
use crate::SimReport;

/// Which resource limits a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// The DMA channel is busy most of the makespan.
    Dma,
    /// The RC array is busy most of the makespan.
    RcArray,
    /// Neither resource is saturated: dependency stalls dominate.
    Dependencies,
}

/// Duration of one op under `params`.
#[must_use]
pub fn op_duration(params: &ArchParams, kind: &OpKind) -> Cycles {
    match kind {
        OpKind::LoadData { words, .. } | OpKind::StoreData { words, .. } => {
            params.data_transfer_time(*words)
        }
        OpKind::LoadContext { context_words } => params.context_load_time(*context_words),
        OpKind::Compute { cycles, .. } => *cycles + Cycles::new(params.kernel_setup_cycles()),
    }
}

/// The longest dependency chain of `schedule` (by op duration) — a
/// makespan lower bound independent of resource contention.
///
/// # Example
///
/// ```
/// use mcds_model::{ArchParams, Cycles, FbSet, KernelId, Words};
/// use mcds_sim::{critical_path, OpScheduleBuilder};
///
/// # fn main() -> Result<(), mcds_sim::SimError> {
/// let mut b = OpScheduleBuilder::new();
/// let l = b.load_data(FbSet::Set0, Words::new(100), &[]);
/// b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(50), &[l]);
/// let arch = ArchParams::m1().to_builder().kernel_setup_cycles(0).build();
/// assert_eq!(critical_path(&arch, &b.build()?), Cycles::new(150));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn critical_path(params: &ArchParams, schedule: &OpSchedule) -> Cycles {
    let mut finish: Vec<Cycles> = Vec::with_capacity(schedule.len());
    for op in schedule.ops() {
        let start = schedule
            .deps_of(op)
            .iter()
            .map(|d| finish[d.index()])
            .max()
            .unwrap_or(Cycles::ZERO);
        finish.push(start + op_duration(params, op.kind()));
    }
    finish.into_iter().max().unwrap_or(Cycles::ZERO)
}

/// The resource-work lower bound: the makespan can never undercut the
/// total work queued on either unary resource.
#[must_use]
pub fn resource_bound(params: &ArchParams, schedule: &OpSchedule) -> Cycles {
    let mut dma = Cycles::ZERO;
    let mut rc = Cycles::ZERO;
    for op in schedule.ops() {
        let d = op_duration(params, op.kind());
        if op.kind().uses_dma() {
            dma += d;
        } else {
            rc += d;
        }
    }
    dma.max(rc)
}

/// Attributes a finished run to its dominating resource: the busier of
/// DMA/RC if it exceeds `threshold` (fraction of the makespan,
/// typically 0.9), otherwise [`Bottleneck::Dependencies`].
#[must_use]
pub fn bottleneck(report: &SimReport, threshold: f64) -> Bottleneck {
    let dma = report.dma_utilization();
    let rc = report.rc_utilization();
    if dma >= rc && dma >= threshold {
        Bottleneck::Dma
    } else if rc > dma && rc >= threshold {
        Bottleneck::RcArray
    } else {
        Bottleneck::Dependencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpScheduleBuilder;
    use crate::Simulator;
    use mcds_model::{ArchParamsBuilder, FbSet, KernelId, Words};

    fn arch() -> ArchParams {
        ArchParamsBuilder::new().kernel_setup_cycles(0).build()
    }

    #[test]
    fn critical_path_of_chain() {
        let mut b = OpScheduleBuilder::new();
        let l = b.load_data(FbSet::Set0, Words::new(10), &[]);
        let k = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(20), &[l]);
        b.store_data(FbSet::Set0, Words::new(5), &[k]);
        let s = b.build().expect("valid");
        assert_eq!(critical_path(&arch(), &s), Cycles::new(35));
    }

    #[test]
    fn critical_path_takes_longest_branch() {
        let mut b = OpScheduleBuilder::new();
        let a = b.load_data(FbSet::Set0, Words::new(100), &[]);
        let c = b.load_data(FbSet::Set1, Words::new(10), &[]);
        b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(5), &[a, c]);
        let s = b.build().expect("valid");
        assert_eq!(critical_path(&arch(), &s), Cycles::new(105));
    }

    #[test]
    fn resource_bound_is_max_of_lanes() {
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(100), &[]);
        b.load_context(50, &[]);
        b.compute(KernelId::new(0), FbSet::Set1, Cycles::new(60), &[]);
        let s = b.build().expect("valid");
        assert_eq!(resource_bound(&arch(), &s), Cycles::new(150));
    }

    #[test]
    fn makespan_respects_both_bounds() {
        let mut b = OpScheduleBuilder::new();
        let mut prev = None;
        for i in 0..10u32 {
            let set = if i % 2 == 0 { FbSet::Set0 } else { FbSet::Set1 };
            let l = b.load_data(set, Words::new(64), &[]);
            let deps: Vec<_> = prev.into_iter().chain([l]).collect();
            prev = Some(b.compute(KernelId::new(i), set, Cycles::new(80), &deps));
        }
        let s = b.build().expect("valid");
        let report = Simulator::new(arch()).run(&s).expect("runs");
        assert!(report.total() >= critical_path(&arch(), &s));
        assert!(report.total() >= resource_bound(&arch(), &s));
    }

    #[test]
    fn bottleneck_attribution() {
        // DMA-bound: huge transfer, tiny compute.
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(1000), &[]);
        b.compute(KernelId::new(0), FbSet::Set1, Cycles::new(10), &[]);
        let s = b.build().expect("valid");
        let report = Simulator::new(arch()).run(&s).expect("runs");
        assert_eq!(bottleneck(&report, 0.9), Bottleneck::Dma);

        // Compute-bound.
        let mut b = OpScheduleBuilder::new();
        b.load_data(FbSet::Set0, Words::new(10), &[]);
        b.compute(KernelId::new(0), FbSet::Set1, Cycles::new(1000), &[]);
        let s = b.build().expect("valid");
        let report = Simulator::new(arch()).run(&s).expect("runs");
        assert_eq!(bottleneck(&report, 0.9), Bottleneck::RcArray);

        // Dependency-stalled: a strict alternating chain on one set.
        let mut b = OpScheduleBuilder::new();
        let mut prev: Option<crate::OpId> = None;
        for i in 0..4u32 {
            let deps: Vec<_> = prev.into_iter().collect();
            let l = b.load_data(FbSet::Set0, Words::new(100), &deps);
            prev = Some(b.compute(KernelId::new(i), FbSet::Set0, Cycles::new(100), &[l]));
        }
        let s = b.build().expect("valid");
        let report = Simulator::new(arch()).run(&s).expect("runs");
        assert_eq!(bottleneck(&report, 0.9), Bottleneck::Dependencies);
    }
}
