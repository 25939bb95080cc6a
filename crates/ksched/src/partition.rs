//! Partitioning a kernel order into contiguous clusters.

use mcds_core::{all_fit, cluster_peak, FootprintModel, Lifetimes, RetentionSet};
use mcds_model::{Application, ClusterSchedule, KernelId, Words};

/// Enumerates every contiguous partition of `order` as a
/// [`ClusterSchedule`] (there are `2^(m-1)` of them), skipping
/// partitions whose clusters exceed `fbs` at one iteration under the
/// replacement footprint model.
///
/// Intended for exhaustive exploration of small applications (the
/// paper's experiments have at most ~8 kernels). For larger `m` use
/// [`greedy_partition`].
///
/// # Panics
///
/// Panics if `order` has more than 20 kernels (2^19 partitions) — use
/// [`greedy_partition`] instead.
#[must_use]
pub fn enumerate_partitions(
    app: &Application,
    order: &[KernelId],
    fbs: Words,
) -> Vec<ClusterSchedule> {
    let m = order.len();
    assert!(
        m <= 20,
        "exhaustive enumeration is exponential; use greedy_partition"
    );
    if m == 0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    // Bit i of `mask` set = boundary after kernel i.
    for mask in 0u32..(1 << (m - 1)) {
        let mut partition: Vec<Vec<KernelId>> = vec![Vec::new()];
        for (i, &k) in order.iter().enumerate() {
            partition.last_mut().expect("non-empty").push(k);
            if i + 1 < m && mask & (1 << i) != 0 {
                partition.push(Vec::new());
            }
        }
        let Ok(sched) = ClusterSchedule::new(app, partition) else {
            continue; // order violation within this permutation
        };
        if fits(app, &sched, fbs) {
            out.push(sched);
        }
    }
    out
}

/// Greedy partitioning: grow each cluster until adding the next kernel
/// would push its single-iteration footprint above `fill · fbs`
/// (`fill ∈ (0, 1]`, typically below 1 to leave room for `RF > 1`).
///
/// Returns `None` if some single kernel already exceeds the Frame
/// Buffer.
#[must_use]
pub fn greedy_partition(
    app: &Application,
    order: &[KernelId],
    fbs: Words,
    fill: f64,
) -> Option<ClusterSchedule> {
    let budget = Words::new((fbs.get() as f64 * fill.clamp(0.05, 1.0)) as u64);
    let mut partition: Vec<Vec<KernelId>> = Vec::new();
    let mut current: Vec<KernelId> = Vec::new();
    for &k in order {
        current.push(k);
        let mut candidate = partition.clone();
        candidate.push(current.clone());
        // Extend with the rest as one tail cluster so the schedule is
        // complete enough to validate; only the current cluster's
        // footprint matters here.
        let consumed: usize = candidate.iter().map(Vec::len).sum();
        if consumed < order.len() {
            candidate.push(order[consumed..].to_vec());
        }
        let sched = ClusterSchedule::new(app, candidate).ok()?;
        let lt = Lifetimes::analyze(app, &sched);
        let c = mcds_model::ClusterId::new(u32::try_from(partition.len()).expect("fits"));
        let peak = cluster_peak(
            app,
            &sched,
            &lt,
            &RetentionSet::empty(),
            c,
            1,
            FootprintModel::Replacement,
        );
        if peak > budget && current.len() > 1 {
            // Close the cluster before this kernel.
            current.pop();
            partition.push(std::mem::take(&mut current));
            current.push(k);
        } else if peak > fbs {
            return None; // single kernel too big
        }
    }
    if !current.is_empty() {
        partition.push(current);
    }
    let sched = ClusterSchedule::new(app, partition).ok()?;
    fits(app, &sched, fbs).then_some(sched)
}

/// Enumerates topological orders (linear extensions) of the kernel
/// dataflow DAG, up to `cap` orders — the sequence dimension of the
/// paper's design space ("explores the design space to find a sequence
/// of kernels that minimizes the execution time").
///
/// The application's declaration order is always produced first, so the
/// first element is the stable default.
#[must_use]
pub fn linear_extensions(app: &Application, cap: usize) -> Vec<Vec<KernelId>> {
    let df = app.dataflow();
    let n = app.kernels().len();
    let mut indeg = vec![0usize; n];
    for k in app.kernels() {
        for s in df.successors(k.id()) {
            indeg[s.index()] += 1;
        }
    }
    let mut out = Vec::new();
    let mut prefix = Vec::with_capacity(n);
    extend_orders(&df, &mut indeg, &mut prefix, &mut out, cap, n);
    out
}

fn extend_orders(
    df: &mcds_model::DataflowInfo,
    indeg: &mut Vec<usize>,
    prefix: &mut Vec<KernelId>,
    out: &mut Vec<Vec<KernelId>>,
    cap: usize,
    n: usize,
) {
    if out.len() >= cap {
        return;
    }
    if prefix.len() == n {
        out.push(prefix.clone());
        return;
    }
    // Ready kernels in ascending id order (stable default first).
    let ready: Vec<usize> = (0..n)
        .filter(|&i| indeg[i] == 0 && !prefix.iter().any(|k| k.index() == i))
        .collect();
    for i in ready {
        let id = KernelId::new(u32::try_from(i).expect("kernel index fits u32"));
        prefix.push(id);
        for s in df.successors(id).to_vec() {
            indeg[s.index()] -= 1;
        }
        extend_orders(df, indeg, prefix, out, cap, n);
        for s in df.successors(id).to_vec() {
            indeg[s.index()] += 1;
        }
        prefix.pop();
        if out.len() >= cap {
            return;
        }
    }
}

fn fits(app: &Application, sched: &ClusterSchedule, fbs: Words) -> bool {
    let lt = Lifetimes::analyze(app, sched);
    let empty = RetentionSet::empty();
    all_fit(app, sched, &lt, &empty, 1, FootprintModel::Replacement, fbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    /// A chain where every kernel also emits a final result: final
    /// results accumulate until the cluster ends, so a cluster's
    /// footprint grows with its length (unlike a pure chain, which
    /// replacement keeps flat).
    fn chain(n: usize, size: u64) -> Application {
        let mut b = ApplicationBuilder::new("chain");
        let mut prev = b.data("in", Words::new(size), DataKind::ExternalInput);
        for i in 0..n {
            let kind = if i + 1 == n {
                DataKind::FinalResult
            } else {
                DataKind::Intermediate
            };
            let next = b.data(format!("d{i}"), Words::new(size), kind);
            let fin = b.data(format!("f{i}"), Words::new(size), DataKind::FinalResult);
            b.kernel(format!("k{i}"), 4, Cycles::new(100), &[prev], &[next, fin]);
            prev = next;
        }
        b.iterations(8).build().expect("valid")
    }

    fn order(app: &Application) -> Vec<KernelId> {
        app.kernels().iter().map(|k| k.id()).collect()
    }

    #[test]
    fn enumerates_all_partitions_of_small_chain() {
        let app = chain(4, 10);
        let parts = enumerate_partitions(&app, &order(&app), Words::kilo(1));
        assert_eq!(parts.len(), 8, "2^(4-1) partitions, all feasible");
        // They are distinct.
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn enumeration_filters_oversized_clusters() {
        let app = chain(3, 100);
        // Singleton clusters peak at 300 (input + chain output + final);
        // any 2-kernel cluster peaks at 400. At 350 words only the
        // all-singleton partition survives.
        let parts = enumerate_partitions(&app, &order(&app), Words::new(350));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 3);
    }

    #[test]
    fn greedy_respects_budget() {
        let app = chain(6, 50);
        let sched = greedy_partition(&app, &order(&app), Words::kilo(1), 0.3).expect("feasible");
        let lt = Lifetimes::analyze(&app, &sched);
        for c in sched.clusters() {
            let peak = cluster_peak(
                &app,
                &sched,
                &lt,
                &RetentionSet::empty(),
                c.id(),
                1,
                FootprintModel::Replacement,
            );
            assert!(peak <= Words::kilo(1));
        }
        assert!(sched.len() >= 2, "budget forces a split");
    }

    #[test]
    fn greedy_single_cluster_when_room() {
        let app = chain(3, 10);
        let sched = greedy_partition(&app, &order(&app), Words::kilo(4), 1.0).expect("feasible");
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn greedy_fails_on_oversized_kernel() {
        let app = chain(2, 600);
        assert!(greedy_partition(&app, &order(&app), Words::new(100), 1.0).is_none());
    }

    #[test]
    fn linear_extensions_of_chain_is_unique() {
        let app = chain(4, 10);
        let orders = linear_extensions(&app, 100);
        assert_eq!(orders.len(), 1, "a chain has one topological order");
        assert_eq!(orders[0], order(&app));
    }

    #[test]
    fn linear_extensions_of_diamond() {
        use mcds_model::{ApplicationBuilder, Cycles, DataKind};
        let mut b = ApplicationBuilder::new("diamond");
        let a = b.data("a", Words::new(4), DataKind::ExternalInput);
        let x = b.data("x", Words::new(4), DataKind::Intermediate);
        let y = b.data("y", Words::new(4), DataKind::Intermediate);
        let xx = b.data("xx", Words::new(4), DataKind::Intermediate);
        let yy = b.data("yy", Words::new(4), DataKind::Intermediate);
        let r = b.data("r", Words::new(4), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[x, y]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[x], &[xx]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[y], &[yy]);
        let k3 = b.kernel("k3", 1, Cycles::new(10), &[xx, yy], &[r]);
        let app = b.build().expect("valid");
        let orders = linear_extensions(&app, 100);
        // k0 first, k3 last, k1/k2 in either order: 2 extensions.
        assert_eq!(orders.len(), 2);
        let df = app.dataflow();
        for o in &orders {
            assert!(df.respects_order(o));
            assert_eq!(o[0], k0);
            assert_eq!(o[3], k3);
        }
        assert_ne!(orders[0], orders[1]);
        let _ = (k1, k2);
    }

    #[test]
    fn linear_extensions_respect_cap() {
        use mcds_model::{ApplicationBuilder, Cycles, DataKind};
        // 6 fully independent kernels: 720 extensions, capped at 10.
        let mut b = ApplicationBuilder::new("wide");
        for i in 0..6 {
            let a = b.data(format!("a{i}"), Words::new(4), DataKind::ExternalInput);
            let f = b.data(format!("f{i}"), Words::new(4), DataKind::FinalResult);
            b.kernel(format!("k{i}"), 1, Cycles::new(10), &[a], &[f]);
        }
        let app = b.build().expect("valid");
        assert_eq!(linear_extensions(&app, 10).len(), 10);
        assert_eq!(linear_extensions(&app, 1000).len(), 720);
    }

    #[test]
    fn empty_order_enumerates_nothing() {
        let app = chain(2, 10);
        assert!(enumerate_partitions(&app, &[], Words::kilo(1)).is_empty());
    }
}
