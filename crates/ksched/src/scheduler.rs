//! The kernel scheduler: design-space exploration over partitions.

use mcds_core::SchedulerKind;
use mcds_model::{Application, ArchParams, ClusterSchedule, Cycles, KernelId};

use crate::estimate::estimate_round_time;
use crate::partition::{enumerate_partitions, greedy_partition};
use crate::KschedError;

/// What the exploration minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// The fast analytic round-time estimate — how the paper's kernel
    /// scheduler searches ("estimating data and contexts transfers").
    #[default]
    Estimate,
    /// Plan each candidate with the Data Scheduler and simulate it —
    /// exact but slower.
    SimulateDs,
    /// Plan each candidate with the Complete Data Scheduler and
    /// simulate it — the full co-exploration of kernel schedule and
    /// data schedule.
    SimulateCds,
}

/// How the partition space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SearchStrategy {
    /// Enumerate every contiguous partition of the topological kernel
    /// order and keep the best estimate. Exact, exponential — fine for
    /// the paper-scale applications (≤ ~12 kernels).
    #[default]
    Exhaustive,
    /// Greedy footprint-budget clustering with the given Frame Buffer
    /// fill fraction, then local boundary improvement. Linear; for
    /// large synthetic applications.
    Greedy {
        /// Fraction of the Frame Buffer a cluster may fill at `RF = 1`
        /// (leave headroom for loop fission), in `(0, 1]`.
        fill: f64,
    },
    /// Explore kernel *sequences* too: enumerate up to `max_orders`
    /// topological orders of the dataflow DAG and every contiguous
    /// partition of each — the full design space of the paper's kernel
    /// scheduler. Exponential in both dimensions; for small
    /// applications.
    ExhaustiveOrders {
        /// Cap on the number of linear extensions explored.
        max_orders: usize,
    },
}

/// The kernel scheduler: picks the cluster partition minimising the
/// estimated round time.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct KernelScheduler {
    strategy: SearchStrategy,
    objective: Objective,
}

impl KernelScheduler {
    /// A scheduler with the given strategy and the default (analytic)
    /// objective.
    #[must_use]
    pub fn new(strategy: SearchStrategy) -> Self {
        KernelScheduler {
            strategy,
            objective: Objective::Estimate,
        }
    }

    /// Overrides the exploration objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Cost of one candidate under the configured objective
    /// (`None` = the candidate is infeasible under that objective's
    /// data scheduler).
    fn cost(
        &self,
        app: &Application,
        sched: &ClusterSchedule,
        arch: &ArchParams,
    ) -> Option<Cycles> {
        match self.objective {
            Objective::Estimate => Some(estimate_round_time(app, sched, arch)),
            Objective::SimulateDs => SchedulerKind::Ds
                .plan(app, sched, arch)
                .ok()
                .map(|p| p.report().total()),
            Objective::SimulateCds => SchedulerKind::Cds
                .plan(app, sched, arch)
                .ok()
                .map(|p| p.report().total()),
        }
    }

    /// Explores partitions of the application's topological kernel
    /// order and returns the best-estimated feasible schedule.
    ///
    /// # Errors
    ///
    /// [`KschedError::NoFeasiblePartition`] if no partition fits the
    /// Frame Buffer.
    pub fn schedule(
        &self,
        app: &Application,
        arch: &ArchParams,
    ) -> Result<ClusterSchedule, KschedError> {
        let order: Vec<KernelId> = app.dataflow().topological_order();
        let fbs = arch.fb_set_words();
        match self.strategy {
            SearchStrategy::Exhaustive => {
                let candidates = enumerate_partitions(app, &order, fbs);
                candidates
                    .into_iter()
                    .filter_map(|s| self.cost(app, &s, arch).map(|c| (s, c)))
                    .min_by_key(|&(_, c)| c)
                    .map(|(s, _)| s)
                    .ok_or(KschedError::NoFeasiblePartition { capacity: fbs })
            }
            SearchStrategy::Greedy { fill } => {
                let base = greedy_partition(app, &order, fbs, fill)
                    .ok_or(KschedError::NoFeasiblePartition { capacity: fbs })?;
                Ok(self.improve_boundaries(app, arch, base))
            }
            SearchStrategy::ExhaustiveOrders { max_orders } => {
                let mut best: Option<(ClusterSchedule, Cycles)> = None;
                for order in crate::partition::linear_extensions(app, max_orders) {
                    for sched in enumerate_partitions(app, &order, fbs) {
                        let Some(cost) = self.cost(app, &sched, arch) else {
                            continue;
                        };
                        if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                            best = Some((sched, cost));
                        }
                    }
                }
                best.map(|(s, _)| s)
                    .ok_or(KschedError::NoFeasiblePartition { capacity: fbs })
            }
        }
    }

    /// One pass of local improvement: try moving each boundary kernel to
    /// the neighbouring cluster and keep changes that lower the
    /// estimate.
    fn improve_boundaries(
        &self,
        app: &Application,
        arch: &ArchParams,
        sched: ClusterSchedule,
    ) -> ClusterSchedule {
        let mut best = sched;
        let mut best_t = estimate_round_time(app, &best, arch);
        let mut improved = true;
        while improved {
            improved = false;
            let partition: Vec<Vec<KernelId>> = best
                .clusters()
                .iter()
                .map(|c| c.kernels().to_vec())
                .collect();
            for b in 0..partition.len().saturating_sub(1) {
                // Move last kernel of cluster b to b+1, and first kernel
                // of b+1 to b.
                for dir in [0, 1] {
                    let mut p = partition.clone();
                    if dir == 0 {
                        if p[b].len() <= 1 {
                            continue;
                        }
                        let k = p[b].pop().expect("non-empty");
                        p[b + 1].insert(0, k);
                    } else {
                        if p[b + 1].len() <= 1 {
                            continue;
                        }
                        let k = p[b + 1].remove(0);
                        p[b].push(k);
                    }
                    if let Ok(cand) = ClusterSchedule::new(app, p) {
                        let t = estimate_round_time(app, &cand, arch);
                        if t < best_t {
                            best = cand;
                            best_t = t;
                            improved = true;
                        }
                    }
                }
                if improved {
                    break;
                }
            }
        }
        best
    }
}

impl mcds_core::ClusterProvider for KernelScheduler {
    /// Runs the partition exploration, so a
    /// [`Pipeline`](mcds_core::Pipeline) can own the kernel scheduler
    /// as its clustering stage.
    fn clusters(
        &self,
        app: &Application,
        arch: &ArchParams,
    ) -> Result<ClusterSchedule, mcds_core::McdsError> {
        self.schedule(app, arch).map_err(Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};

    fn pipeline(n: usize) -> Application {
        let mut b = ApplicationBuilder::new("p");
        let mut prev = b.data("in", Words::new(40), DataKind::ExternalInput);
        for i in 0..n {
            let kind = if i + 1 == n {
                DataKind::FinalResult
            } else {
                DataKind::Intermediate
            };
            let next = b.data(format!("d{i}"), Words::new(40), kind);
            b.kernel(format!("k{i}"), 8, Cycles::new(150), &[prev], &[next]);
            prev = next;
        }
        b.iterations(16).build().expect("valid")
    }

    #[test]
    fn exhaustive_returns_valid_schedule() {
        let app = pipeline(5);
        let sched = KernelScheduler::new(SearchStrategy::Exhaustive)
            .schedule(&app, &ArchParams::m1())
            .expect("feasible");
        // Every kernel appears exactly once.
        let total: usize = sched.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn exhaustive_beats_or_matches_singletons() {
        let app = pipeline(5);
        let arch = ArchParams::m1();
        let best = KernelScheduler::new(SearchStrategy::Exhaustive)
            .schedule(&app, &arch)
            .expect("feasible");
        let singles = ClusterSchedule::singletons(&app).expect("valid");
        assert!(
            estimate_round_time(&app, &best, &arch) <= estimate_round_time(&app, &singles, &arch)
        );
    }

    #[test]
    fn greedy_handles_larger_apps() {
        let app = pipeline(12);
        let sched = KernelScheduler::new(SearchStrategy::Greedy { fill: 0.5 })
            .schedule(&app, &ArchParams::m1())
            .expect("feasible");
        let total: usize = sched.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn simulate_objective_never_loses_to_estimate() {
        // The exact objective evaluates the real pipeline, so its pick
        // is at least as fast (under CDS planning) as the estimator's.
        let app = pipeline(5);
        let arch = ArchParams::m1();
        let by_estimate = KernelScheduler::new(SearchStrategy::Exhaustive)
            .schedule(&app, &arch)
            .expect("feasible");
        let by_sim = KernelScheduler::new(SearchStrategy::Exhaustive)
            .with_objective(Objective::SimulateCds)
            .schedule(&app, &arch)
            .expect("feasible");
        let time = |s: &ClusterSchedule| {
            let plan = SchedulerKind::Cds.plan(&app, s, &arch).expect("fits");
            plan.report().total()
        };
        assert!(time(&by_sim) <= time(&by_estimate));
    }

    #[test]
    fn simulate_ds_objective_returns_valid_schedule() {
        let app = pipeline(4);
        let sched = KernelScheduler::new(SearchStrategy::Exhaustive)
            .with_objective(Objective::SimulateDs)
            .schedule(&app, &ArchParams::m1())
            .expect("feasible");
        let total: usize = sched.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn exhaustive_orders_never_loses_to_fixed_order() {
        // A DAG where reordering the two independent middle kernels
        // changes which pairs can be clustered together.
        use mcds_model::DataKind;
        let mut b = ApplicationBuilder::new("reorder");
        let a = b.data("a", Words::new(40), DataKind::ExternalInput);
        let x = b.data("x", Words::new(200), DataKind::Intermediate);
        let y = b.data("y", Words::new(10), DataKind::Intermediate);
        let r = b.data("r", Words::new(20), DataKind::FinalResult);
        let k0 = b.kernel("k0", 64, Cycles::new(100), &[a], &[x, y]);
        b.kernel("kx", 256, Cycles::new(400), &[x], &[]);
        b.kernel("ky", 64, Cycles::new(50), &[y], &[]);
        b.kernel("k3", 128, Cycles::new(100), &[a], &[r]);
        let app = b.iterations(16).build().expect("valid");
        let arch = ArchParams::m1();
        let fixed = KernelScheduler::new(SearchStrategy::Exhaustive)
            .schedule(&app, &arch)
            .expect("feasible");
        let orders = KernelScheduler::new(SearchStrategy::ExhaustiveOrders { max_orders: 50 })
            .schedule(&app, &arch)
            .expect("feasible");
        assert!(
            estimate_round_time(&app, &orders, &arch) <= estimate_round_time(&app, &fixed, &arch),
            "the order-exploring search covers a superset of candidates"
        );
        let _ = k0;
    }

    #[test]
    fn infeasible_when_kernel_exceeds_fb() {
        let mut b = ApplicationBuilder::new("big");
        let a = b.data("a", Words::kilo(4), DataKind::ExternalInput);
        let f = b.data("f", Words::kilo(4), DataKind::FinalResult);
        b.kernel("k", 8, Cycles::new(10), &[a], &[f]);
        let app = b.build().expect("valid");
        let err = KernelScheduler::new(SearchStrategy::Exhaustive)
            .schedule(&app, &ArchParams::m1())
            .unwrap_err();
        assert!(matches!(err, KschedError::NoFeasiblePartition { .. }));
    }
}
