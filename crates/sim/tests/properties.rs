//! Property tests for the simulation engine: the makespan always
//! respects the analytic lower bounds, execution is deterministic, and
//! resource exclusivity holds on the produced timeline.

use mcds_model::{ArchParams, ArchParamsBuilder, Cycles, FbSet, KernelId, Words};
use mcds_sim::{critical_path, resource_bound, OpKind, OpSchedule, OpScheduleBuilder, Simulator};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum GenOp {
    Load { set: bool, words: u64 },
    Store { set: bool, words: u64 },
    Context { words: u32 },
    Compute { set: bool, cycles: u64 },
}

fn op_strategy() -> impl Strategy<Value = (GenOp, Vec<prop::sample::Index>)> {
    let op = prop_oneof![
        (any::<bool>(), 1u64..200).prop_map(|(set, words)| GenOp::Load { set, words }),
        (any::<bool>(), 1u64..200).prop_map(|(set, words)| GenOp::Store { set, words }),
        (1u32..100).prop_map(|words| GenOp::Context { words }),
        (any::<bool>(), 1u64..500).prop_map(|(set, cycles)| GenOp::Compute { set, cycles }),
    ];
    (
        op,
        prop::collection::vec(any::<prop::sample::Index>(), 0..3),
    )
}

/// Builds a random (valid) schedule: each op may depend on up to two
/// earlier ops.
fn build(ops: &[(GenOp, Vec<prop::sample::Index>)]) -> OpSchedule {
    let mut b = OpScheduleBuilder::new();
    let mut ids = Vec::new();
    for (i, (op, dep_idx)) in ops.iter().enumerate() {
        let mut deps: Vec<_> = dep_idx
            .iter()
            .filter(|_| i > 0)
            .map(|ix| ids[ix.index(i)])
            .collect();
        deps.sort();
        deps.dedup();
        let set = |s: bool| if s { FbSet::Set1 } else { FbSet::Set0 };
        let id = match *op {
            GenOp::Load { set: s, words } => b.load_data(set(s), Words::new(words), &deps),
            GenOp::Store { set: s, words } => b.store_data(set(s), Words::new(words), &deps),
            GenOp::Context { words } => b.load_context(words, &deps),
            GenOp::Compute { set: s, cycles } => {
                b.compute(KernelId::new(i as u32), set(s), Cycles::new(cycles), &deps)
            }
        };
        ids.push(id);
    }
    b.build().expect("construction is valid by design")
}

fn arch() -> ArchParams {
    ArchParamsBuilder::new().kernel_setup_cycles(3).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn makespan_respects_lower_bounds(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let schedule = build(&ops);
        let report = Simulator::new(arch()).run(&schedule).expect("runs");
        prop_assert!(report.total() >= critical_path(&arch(), &schedule));
        prop_assert!(report.total() >= resource_bound(&arch(), &schedule));
        // And an upper bound: fully serialized execution.
        let serial: Cycles = schedule
            .ops()
            .iter()
            .map(|o| mcds_sim::op_duration(&arch(), o.kind()))
            .sum();
        prop_assert!(report.total() <= serial);
    }

    #[test]
    fn execution_is_deterministic(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let schedule = build(&ops);
        let sim = Simulator::new(arch());
        let a = sim.run(&schedule).expect("runs");
        let b = sim.run(&schedule).expect("runs");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn timeline_respects_resources(ops in prop::collection::vec(op_strategy(), 1..30)) {
        let schedule = build(&ops);
        let report = Simulator::new(arch()).run(&schedule).expect("runs");
        let spans = report.timeline().spans();

        // No two DMA ops overlap; no two computes overlap; computes and
        // data transfers on the same set never overlap; dependencies
        // are honoured.
        for (i, a) in spans.iter().enumerate() {
            let ka = schedule.op(a.op).kind();
            for &dep in schedule.deps(a.op) {
                prop_assert!(spans[dep.index()].finish <= a.start, "dependency violated");
            }
            for b in spans.iter().skip(i + 1) {
                let kb = schedule.op(b.op).kind();
                let overlap = a.start < b.finish && b.start < a.finish;
                if !overlap {
                    continue;
                }
                prop_assert!(
                    !(ka.uses_dma() && kb.uses_dma()),
                    "two DMA ops overlap: {:?} {:?}", a, b
                );
                let both_compute =
                    matches!(ka, OpKind::Compute { .. }) && matches!(kb, OpKind::Compute { .. });
                prop_assert!(!both_compute, "two computes overlap");
                // Compute vs data transfer on the same set.
                let conflict = match (ka, kb) {
                    (OpKind::Compute { set: sa, .. }, _) if kb.uses_dma() => {
                        kb.fb_set() == Some(*sa)
                    }
                    (_, OpKind::Compute { set: sb, .. }) if ka.uses_dma() => {
                        ka.fb_set() == Some(*sb)
                    }
                    _ => false,
                };
                prop_assert!(!conflict, "same-set compute/transfer overlap: {:?} {:?}", a, b);
            }
        }
    }

    /// The engine tallies transfers as it places ops; the schedule's
    /// own sums over its op list are the oracle.
    #[test]
    fn volume_accounting_matches_schedule(ops in prop::collection::vec(op_strategy(), 0..40)) {
        let schedule = build(&ops);
        let report = Simulator::new(arch()).run(&schedule).expect("runs");
        prop_assert_eq!(report.data_words_loaded(), schedule.data_words_loaded());
        prop_assert_eq!(report.data_words_stored(), schedule.data_words_stored());
        prop_assert_eq!(report.context_words_loaded(), schedule.context_words_loaded());
    }
}
