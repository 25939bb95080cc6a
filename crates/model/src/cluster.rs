//! Clusters and cluster schedules: the kernel scheduler's output.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{Application, ClusterId, KernelId, ModelError};

/// One of the two sets of the MorphoSys Frame Buffer.
///
/// "This buffer has two sets to enable overlapping of computation with
/// data transfers": while one set feeds the RC array, the DMA fills and
/// drains the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FbSet {
    /// Frame Buffer set 0.
    Set0,
    /// Frame Buffer set 1.
    Set1,
}

impl FbSet {
    /// The other set.
    #[must_use]
    pub const fn other(self) -> FbSet {
        match self {
            FbSet::Set0 => FbSet::Set1,
            FbSet::Set1 => FbSet::Set0,
        }
    }

    /// Index (0 or 1) of the set.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            FbSet::Set0 => 0,
            FbSet::Set1 => 1,
        }
    }
}

impl fmt::Display for FbSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FB{}", self.index())
    }
}

/// A set of kernels assigned to the same Frame Buffer set "whose
/// components are consecutively executed".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    id: ClusterId,
    kernels: Vec<KernelId>,
}

impl Cluster {
    /// Creates a cluster. Prefer [`ClusterSchedule::new`], which assigns
    /// ids and validates.
    #[must_use]
    pub fn new(id: ClusterId, kernels: Vec<KernelId>) -> Self {
        Cluster { id, kernels }
    }

    /// The cluster's id (its position in the schedule).
    #[must_use]
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Kernels in execution order.
    #[must_use]
    pub fn kernels(&self) -> &[KernelId] {
        &self.kernels
    }

    /// Number of kernels in the cluster.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Returns `true` if the cluster has no kernels (invalid once
    /// scheduled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Returns `true` if `kernel` belongs to this cluster.
    #[must_use]
    pub fn contains(&self, kernel: KernelId) -> bool {
        self.kernels.contains(&kernel)
    }

    /// Position of `kernel` within the cluster, if present.
    #[must_use]
    pub fn position(&self, kernel: KernelId) -> Option<usize> {
        self.kernels.iter().position(|&k| k == kernel)
    }
}

/// An ordered set of clusters with alternating Frame Buffer set
/// assignment: "while the first cluster is being executed using data of
/// one FB set, the contexts and data of the other cluster kernels are
/// being transferred".
///
/// # Example
///
/// ```
/// use mcds_model::{ApplicationBuilder, ClusterSchedule, DataKind, FbSet, Words, Cycles};
///
/// # fn main() -> Result<(), mcds_model::ModelError> {
/// let mut b = ApplicationBuilder::new("x");
/// let a = b.data("a", Words::new(4), DataKind::ExternalInput);
/// let m = b.data("m", Words::new(4), DataKind::Intermediate);
/// let r = b.data("r", Words::new(4), DataKind::FinalResult);
/// let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[m]);
/// let k1 = b.kernel("k1", 1, Cycles::new(10), &[m], &[r]);
/// let app = b.build()?;
/// let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]])?;
/// assert_eq!(sched.fb_set(sched.clusters()[0].id()), FbSet::Set0);
/// assert_eq!(sched.fb_set(sched.clusters()[1].id()), FbSet::Set1);
/// # Ok(())
/// # }
/// ```
///
/// The clusters sit behind one reference count, so a clone shares them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSchedule {
    clusters: Arc<[Cluster]>,
}

impl ClusterSchedule {
    /// Builds and validates a schedule from a partition of the
    /// application's kernels.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if any cluster is empty, a kernel is
    /// repeated or missing, or the concatenated execution order violates
    /// a dataflow dependency.
    pub fn new(app: &Application, partition: Vec<Vec<KernelId>>) -> Result<Self, ModelError> {
        let mut clusters: Vec<Cluster> = Vec::with_capacity(partition.len());
        for (i, ks) in partition.into_iter().enumerate() {
            let Ok(index) = u32::try_from(i) else {
                return Err(ModelError::IdSpaceExhausted);
            };
            clusters.push(Cluster::new(ClusterId::new(index), ks));
        }
        let schedule = ClusterSchedule {
            clusters: clusters.into(),
        };
        schedule.validate(app)?;
        Ok(schedule)
    }

    fn validate(&self, app: &Application) -> Result<(), ModelError> {
        let mut seen = vec![false; app.kernels().len()];
        let mut flat = Vec::with_capacity(app.kernels().len());
        for c in self.clusters() {
            if c.is_empty() {
                return Err(ModelError::EmptyCluster(c.id()));
            }
            for &k in c.kernels() {
                if k.index() >= seen.len() {
                    return Err(ModelError::KernelMissing(k));
                }
                if std::mem::replace(&mut seen[k.index()], true) {
                    return Err(ModelError::KernelRepeated(k));
                }
                flat.push(k);
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            // `seen` is indexed by validated kernel ids, so the position
            // always fits; degenerate input still gets a typed error.
            let Ok(index) = u32::try_from(missing) else {
                return Err(ModelError::IdSpaceExhausted);
            };
            return Err(ModelError::KernelMissing(KernelId::new(index)));
        }
        let df = app.dataflow();
        if !df.respects_order(&flat) {
            // Locate one offending pair for the error message.
            let mut pos = vec![usize::MAX; app.kernels().len()];
            for (i, &k) in flat.iter().enumerate() {
                pos[k.index()] = i;
            }
            for p in app.kernels() {
                for &c in df.successors(p.id()) {
                    if pos[c.index()] < pos[p.id().index()] {
                        return Err(ModelError::OrderViolation {
                            producer: p.id(),
                            consumer: c,
                        });
                    }
                }
            }
            unreachable!("respects_order() disagreed with pairwise scan");
        }
        Ok(())
    }

    /// The clusters in execution order.
    #[must_use]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Number of clusters (`N` in Table 1 of the paper).
    #[must_use]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Returns `true` if the schedule has no clusters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Looks up a cluster by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// The Frame Buffer set a cluster executes from: clusters alternate,
    /// even positions on [`FbSet::Set0`], odd on [`FbSet::Set1`].
    #[must_use]
    pub fn fb_set(&self, id: ClusterId) -> FbSet {
        if id.index().is_multiple_of(2) {
            FbSet::Set0
        } else {
            FbSet::Set1
        }
    }

    /// Clusters assigned to `set`, in execution order.
    pub fn clusters_on(&self, set: FbSet) -> impl Iterator<Item = &Cluster> + '_ {
        self.clusters
            .iter()
            .filter(move |c| self.fb_set(c.id()) == set)
    }

    /// The cluster containing `kernel`, if any.
    #[must_use]
    pub fn cluster_of(&self, kernel: KernelId) -> Option<ClusterId> {
        self.clusters
            .iter()
            .find(|c| c.contains(kernel))
            .map(Cluster::id)
    }

    /// Maximum kernels per cluster (`n` in Table 1 of the paper).
    #[must_use]
    pub fn max_kernels_per_cluster(&self) -> usize {
        self.clusters.iter().map(Cluster::len).max().unwrap_or(0)
    }

    /// One cluster per kernel, in declaration order — the trivial
    /// schedule used when no clustering information exists.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if declaration order violates a
    /// dependency.
    pub fn singletons(app: &Application) -> Result<Self, ModelError> {
        ClusterSchedule::new(app, app.kernels().iter().map(|k| vec![k.id()]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApplicationBuilder, Cycles, DataKind, Words};

    fn chain(n: usize) -> Application {
        let mut b = ApplicationBuilder::new("chain");
        let mut prev = b.data("in", Words::new(4), DataKind::ExternalInput);
        for i in 0..n {
            let kind = if i + 1 == n {
                DataKind::FinalResult
            } else {
                DataKind::Intermediate
            };
            let next = b.data(format!("d{i}"), Words::new(4), kind);
            b.kernel(format!("k{i}"), 1, Cycles::new(10), &[prev], &[next]);
            prev = next;
        }
        b.build().expect("valid")
    }

    #[test]
    fn valid_partition() {
        let app = chain(5);
        let ks: Vec<KernelId> = app.kernels().iter().map(|k| k.id()).collect();
        let sched = ClusterSchedule::new(&app, vec![vec![ks[0], ks[1]], vec![ks[2], ks[3], ks[4]]])
            .expect("valid");
        assert_eq!(sched.len(), 2);
        assert_eq!(sched.max_kernels_per_cluster(), 3);
        assert_eq!(sched.fb_set(ClusterId::new(0)), FbSet::Set0);
        assert_eq!(sched.fb_set(ClusterId::new(1)), FbSet::Set1);
        assert_eq!(sched.cluster_of(ks[3]), Some(ClusterId::new(1)));
        assert_eq!(sched.cluster(ClusterId::new(0)).len(), 2);
        assert_eq!(sched.cluster(ClusterId::new(0)).position(ks[1]), Some(1));
    }

    #[test]
    fn clusters_on_alternate_sets() {
        let app = chain(4);
        let sched = ClusterSchedule::singletons(&app).expect("valid");
        let on0: Vec<ClusterId> = sched.clusters_on(FbSet::Set0).map(Cluster::id).collect();
        let on1: Vec<ClusterId> = sched.clusters_on(FbSet::Set1).map(Cluster::id).collect();
        assert_eq!(on0, vec![ClusterId::new(0), ClusterId::new(2)]);
        assert_eq!(on1, vec![ClusterId::new(1), ClusterId::new(3)]);
    }

    #[test]
    fn rejects_empty_cluster() {
        let app = chain(2);
        let ks: Vec<KernelId> = app.kernels().iter().map(|k| k.id()).collect();
        let err = ClusterSchedule::new(&app, vec![vec![ks[0], ks[1]], vec![]]).unwrap_err();
        assert_eq!(err, ModelError::EmptyCluster(ClusterId::new(1)));
    }

    #[test]
    fn rejects_repeated_kernel() {
        let app = chain(2);
        let ks: Vec<KernelId> = app.kernels().iter().map(|k| k.id()).collect();
        let err = ClusterSchedule::new(&app, vec![vec![ks[0]], vec![ks[0], ks[1]]]).unwrap_err();
        assert_eq!(err, ModelError::KernelRepeated(ks[0]));
    }

    #[test]
    fn rejects_missing_kernel() {
        let app = chain(2);
        let ks: Vec<KernelId> = app.kernels().iter().map(|k| k.id()).collect();
        let err = ClusterSchedule::new(&app, vec![vec![ks[0]]]).unwrap_err();
        assert_eq!(err, ModelError::KernelMissing(ks[1]));
    }

    #[test]
    fn rejects_order_violation() {
        let app = chain(2);
        let ks: Vec<KernelId> = app.kernels().iter().map(|k| k.id()).collect();
        let err = ClusterSchedule::new(&app, vec![vec![ks[1]], vec![ks[0]]]).unwrap_err();
        assert_eq!(
            err,
            ModelError::OrderViolation {
                producer: ks[0],
                consumer: ks[1],
            }
        );
    }

    #[test]
    fn fb_set_other() {
        assert_eq!(FbSet::Set0.other(), FbSet::Set1);
        assert_eq!(FbSet::Set1.other(), FbSet::Set0);
        assert_eq!(FbSet::Set0.to_string(), "FB0");
    }
}
