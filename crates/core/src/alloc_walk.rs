//! Execution of the paper's §5 allocation algorithm (Figure 4) against
//! the Frame Buffer allocator.
//!
//! While [`cluster_peak`](crate::cluster_peak) gives the *analytic*
//! footprint, this walk actually places every object with the two-ended
//! first-fit policy, exercising fragmentation, regularity and splitting
//! — the properties §6 of the paper reports on ("for all examples no
//! data or result has to be split into several parts").

use std::ops::Range;

use mcds_fballoc::{
    render_peak_map, AllocError, AllocHandle, Allocation, Direction, FbAllocator, PlacementMemory,
};
use mcds_model::{Application, ClusterId, ClusterSchedule, DataId, Words};
use serde::{Deserialize, Serialize};

use crate::sharing::RetainedKind;
use crate::{Event, Fault, FootprintModel, Lifetimes, Observer, RetentionSet, Seam};

/// The placement role of an allocated instance — which branch of the
/// paper's Figure 4 allocated it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementRole {
    /// `allocate_shared_data`: a retained shared input (upper).
    SharedData,
    /// `allocate_kernel_data`: an ordinary cluster input (upper).
    KernelData,
    /// `allocate_shared_result`: a retained result (upper).
    SharedResult,
    /// `allocate_final_result`: a result leaving the cluster (lower).
    FinalResult,
    /// `allocate_intermediate_result`: a cluster-local result (lower).
    Intermediate,
}

/// Where one instance of one object landed: the concrete addresses the
/// code generator turns into DMA descriptors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRecord {
    /// Zero-based round index.
    pub round: u64,
    /// The cluster whose stage performed the allocation.
    pub cluster: ClusterId,
    /// The placed object.
    pub data: DataId,
    /// Iteration slot within the round (`0..iters`).
    pub slot: u64,
    /// The Frame Buffer set holding the instance.
    pub set: mcds_model::FbSet,
    /// The address range(s); more than one segment only if split.
    pub segments: Vec<mcds_fballoc::Segment>,
    /// Which Figure 4 branch placed it.
    pub role: PlacementRole,
}

/// Outcome of an allocation walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationReport {
    peak: [Words; 2],
    splits: u64,
    regular_hits: u64,
    irregular: u64,
    allocs: u64,
    maps: Option<[String; 2]>,
}

impl Default for AllocationReport {
    /// An empty report (no walk performed).
    fn default() -> Self {
        AllocationReport {
            peak: [Words::ZERO; 2],
            splits: 0,
            regular_hits: 0,
            irregular: 0,
            allocs: 0,
            maps: None,
        }
    }
}

impl AllocationReport {
    /// Peak occupancy per Frame Buffer set.
    #[must_use]
    pub fn peak(&self) -> [Words; 2] {
        self.peak
    }

    /// Number of objects that had to be split across free blocks — the
    /// paper reports zero for all of its experiments.
    #[must_use]
    pub fn splits(&self) -> u64 {
        self.splits
    }

    /// Allocations that landed on the address of the object's previous
    /// iteration (regular placements).
    #[must_use]
    pub fn regular_hits(&self) -> u64 {
        self.regular_hits
    }

    /// Allocations that had a remembered address but could not reuse it.
    #[must_use]
    pub fn irregular(&self) -> u64 {
        self.irregular
    }

    /// Total successful allocations.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Rendered occupancy maps (one per set) if the walk was traced.
    #[must_use]
    pub fn maps(&self) -> Option<&[String; 2]> {
        self.maps.as_ref()
    }
}

/// Replays the Figure 4 allocation order for a schedule.
#[derive(Debug)]
pub struct AllocationWalk<'a> {
    app: &'a Application,
    sched: &'a ClusterSchedule,
    lifetimes: &'a Lifetimes,
    retention: &'a RetentionSet,
    rf: u64,
    capacity: Words,
    model: FootprintModel,
    observer: Observer<'a>,
}

impl<'a> AllocationWalk<'a> {
    /// Prepares a walk over `rounds` rounds of the schedule at reuse
    /// factor `rf` with Frame Buffer sets of `capacity` words.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        app: &'a Application,
        sched: &'a ClusterSchedule,
        lifetimes: &'a Lifetimes,
        retention: &'a RetentionSet,
        rf: u64,
        capacity: Words,
        model: FootprintModel,
    ) -> Self {
        AllocationWalk {
            app,
            sched,
            lifetimes,
            retention,
            rf,
            capacity,
            model,
            observer: Observer::none(),
        }
    }

    /// Returns the walk streaming every allocator action (alloc / free
    /// with free-list state hashes) and counters through `observer`.
    #[must_use]
    pub fn observed(mut self, observer: Observer<'a>) -> Self {
        self.observer = observer;
        self
    }

    /// Runs the walk for `rounds` rounds (clamped to the application's
    /// real round count). `traced` additionally renders occupancy maps.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`AllocError`] if an object cannot be
    /// placed even with splitting — i.e. the schedule genuinely does not
    /// fit the Frame Buffer.
    pub fn run(&self, rounds: u64, traced: bool) -> Result<AllocationReport, AllocError> {
        Ok(self.execute(rounds, traced, false)?.0)
    }

    /// Like [`run`](Self::run), but also returns the concrete placement
    /// of every allocated instance — the input of the code generator.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_placements(
        &self,
        rounds: u64,
    ) -> Result<(AllocationReport, Vec<PlacementRecord>), AllocError> {
        self.execute(rounds, false, true)
    }

    fn execute(
        &self,
        rounds: u64,
        traced: bool,
        record: bool,
    ) -> Result<(AllocationReport, Vec<PlacementRecord>), AllocError> {
        let total_rounds = self.app.iterations().div_ceil(self.rf);
        let rounds = rounds.min(total_rounds);
        let objects = self.app.data().len();
        let slots = self.rf.min(self.app.iterations());
        let mut state =
            WalkState::new(self.capacity, objects, slots, traced, record, self.observer);
        let actions = self.stage_actions();

        let walked = (0..rounds).try_for_each(|round| {
            let iters = self.rf.min(self.app.iterations() - round * self.rf);
            actions
                .stages
                .iter()
                .try_for_each(|stage| self.walk_stage(&mut state, &actions, stage, round, iters))
        });
        // Counted once per walk, also when it ends on an error: the
        // totals then cover the events up to the failure.
        state.add_counters();
        walked?;

        let placements = std::mem::take(&mut state.placements);
        Ok((state.into_report(traced), placements))
    }

    /// Decides every cluster's stage once per walk: which Figure 4
    /// branch places each object, and which objects a stage releases,
    /// depend on the cluster and the retention set, not on the round.
    fn stage_actions(&self) -> StageActions {
        let replacement = self.model == FootprintModel::Replacement;
        let mut actions = StageActions {
            stages: Vec::with_capacity(self.sched.len()),
            inputs: Vec::new(),
            steps: Vec::new(),
            pending: Vec::new(),
            released: Vec::new(),
        };
        let mut held: Vec<(ClusterId, DataId)> = Vec::new();
        let mut placed = vec![false; self.app.data().len()];
        for cluster in self.sched.clusters() {
            let c = cluster.id();
            let set = self.sched.fb_set(c);
            let si = set.index();
            // A retained `d` whose last reader comes after `c` stays
            // resident.
            let kept_past_c = |d: DataId| {
                self.retention
                    .release_after(d, set)
                    .is_some_and(|rel| rel > c)
            };
            let (inputs, steps, pending, released) = (
                actions.inputs.len(),
                actions.steps.len(),
                actions.pending.len(),
                actions.released.len(),
            );

            // (a) Shared data held by this cluster, farthest consumer
            //     first ("For v = last cluster down to c+2 do
            //     allocated_shared_data(c,v,RF)").
            placed.fill(false);
            held.clear();
            held.extend(
                self.retention
                    .candidates()
                    .iter()
                    .filter(|cand| cand.holder() == c && cand.kind() == RetainedKind::SharedData)
                    .map(|cand| (cand.last(), cand.data())),
            );
            held.sort_by_key(|&(last, _)| std::cmp::Reverse(last));
            for &(_, d) in &held {
                actions.inputs.push((d, PlacementRole::SharedData));
                placed[d.index()] = true;
            }

            // (b) Remaining kernel input data, last kernel first ("For
            //     k = last kernel down to first do
            //     allocate_kernel_data(c,k,RF)"). A load retention
            //     skips is resident already (possibly on the other set,
            //     with cross-set access).
            for &k in cluster.kernels().iter().rev() {
                for &d in self.app.kernel(k).inputs() {
                    if !self.lifetimes.loads(c).contains(&d)
                        || std::mem::replace(&mut placed[d.index()], true)
                        || self.retention.skips_load(c, d)
                    {
                        continue;
                    }
                    actions.inputs.push((d, PlacementRole::KernelData));
                }
            }

            // (c) The execute sweep's per-slot steps, in kernel order:
            //     allocate each output under its branch, and release
            //     inputs after their last reader.
            for (pos, &k) in cluster.kernels().iter().enumerate() {
                let kernel = self.app.kernel(k);
                for &d in kernel.outputs() {
                    let shared_result =
                        self.retention.interval(d, set).is_some_and(|(h, _)| h == c);
                    let (dir, role) = if shared_result {
                        (Direction::FromUpper, PlacementRole::SharedResult)
                    } else if self.lifetimes.stores(c).contains(&d) {
                        (Direction::FromLower, PlacementRole::FinalResult)
                    } else {
                        (Direction::FromLower, PlacementRole::Intermediate)
                    };
                    actions.steps.push(Step::Alloc(d, dir, role));
                }
                if replacement {
                    for &d in kernel.inputs() {
                        // Released after its last reader, unless
                        // retained for a later cluster.
                        if self.lifetimes.last_use_in(c, d) == Some(pos) && !kept_past_c(d) {
                            actions.steps.push(Step::Release(d));
                        }
                    }
                }
            }

            // (d) Stage end: results leaving the cluster become pending
            //     stores, except retained ones; the basic model releases
            //     its inputs and locals; retained objects whose last
            //     consumer is `c` are released from the set their copy
            //     lives on, which for a cross-set candidate differs from
            //     this cluster's.
            actions.pending.extend(
                self.lifetimes
                    .stores(c)
                    .iter()
                    .copied()
                    .filter(|&d| !kept_past_c(d)),
            );
            if !replacement {
                let loads = self.lifetimes.loads(c).iter().copied();
                let dead = loads.filter(|&d| !kept_past_c(d));
                let locals = self.lifetimes.locals(c).iter().copied();
                actions.released.extend(dead.chain(locals).map(|d| (si, d)));
            }
            actions.released.extend(
                self.retention
                    .candidates()
                    .iter()
                    .filter(|cand| cand.last() == c)
                    .map(|cand| (cand.set().index(), cand.data())),
            );

            actions.stages.push(StageRanges {
                cluster: c,
                set: si,
                inputs: inputs..actions.inputs.len(),
                steps: steps..actions.steps.len(),
                pending: pending..actions.pending.len(),
                released: released..actions.released.len(),
            });
        }
        actions
    }

    fn walk_stage(
        &self,
        state: &mut WalkState<'_>,
        actions: &StageActions,
        stage: &StageRanges,
        round: u64,
        iters: u64,
    ) -> Result<(), AllocError> {
        state.at = (round, stage.cluster);
        let si = stage.set;

        // The previous same-set stage's stores have been drained by now.
        state.drain_pending(si)?;

        // (a), (b): every slot's copy of each input, unless a kernel
        // input's retained copy is live on this set already.
        for &(d, role) in &actions.inputs[stage.inputs.clone()] {
            if role == PlacementRole::KernelData && state.is_live(si, d) {
                continue;
            }
            state.alloc_instances(self.app, si, d, iters, Direction::FromUpper, role)?;
        }

        // (c) Execute: iteration-major kernel sweep.
        let steps = &actions.steps[stage.steps.clone()];
        for slot in 0..iters {
            for &step in steps {
                match step {
                    Step::Alloc(d, dir, role) => {
                        state.alloc_instance(self.app, si, d, slot, dir, role)?;
                    }
                    Step::Release(d) => state.free_instance(si, d, slot)?,
                }
            }
        }

        // (d) Stage end: pending stores free once the DMA has drained
        //     them, i.e. before the next same-set stage.
        for &d in &actions.pending[stage.pending.clone()] {
            state.make_pending(si, d, iters);
        }
        for &(set, d) in &actions.released[stage.released.clone()] {
            state.free_all_instances(set, d, iters)?;
        }
        Ok(())
    }
}

/// One per-slot action of a stage's execute sweep: allocate a kernel
/// output under its Figure 4 branch, or release an input after its
/// last reader.
#[derive(Debug, Clone, Copy)]
enum Step {
    Alloc(DataId, Direction, PlacementRole),
    Release(DataId),
}

/// Every cluster's stage actions, decided once per walk and replayed in
/// each round: the clusters' lists back to back, and per cluster its
/// ranges of them.
struct StageActions {
    stages: Vec<StageRanges>,
    /// Inputs placed before the execute sweep, with their branch.
    inputs: Vec<(DataId, PlacementRole)>,
    /// The execute sweep's per-slot steps.
    steps: Vec<Step>,
    /// Results that leave as pending stores.
    pending: Vec<DataId>,
    /// Objects released at stage end, with the set their copy is on.
    released: Vec<(usize, DataId)>,
}

/// One cluster's stage: its set and its ranges of [`StageActions`].
struct StageRanges {
    cluster: ClusterId,
    set: usize,
    inputs: Range<usize>,
    steps: Range<usize>,
    pending: Range<usize>,
    released: Range<usize>,
}

fn set_u8(si: usize) -> u8 {
    u8::try_from(si).expect("set index fits u8")
}

/// An allocation's segments as the `(start, len)` pairs events carry.
fn event_segments(alloc: &Allocation) -> Vec<(u64, u64)> {
    alloc
        .segments()
        .iter()
        .map(|s| (s.start, s.len.get()))
        .collect()
}

/// Mutable walk state: allocators, live instances, deferred frees.
///
/// An instance is one (set, object, iteration slot); both instance
/// tables below are flat vectors indexed by
/// `(set · objects + object) · slots + slot`, allocated once per walk.
/// A stage places every object at most `slots = min(rf, iterations)`
/// times, so each table holds at most twice one round's allocations.
struct WalkState<'a> {
    fbs: [FbAllocator; 2],
    /// Where each instance sat last round: its regularity preference.
    placement: PlacementMemory,
    /// (round, cluster) of the stage being walked.
    at: (u64, ClusterId),
    record: bool,
    /// Whether allocations get their `name#slot` label: only an
    /// attached sink (alloc/free events) or a traced walk (occupancy
    /// maps) ever reads one.
    labelled: bool,
    placements: Vec<PlacementRecord>,
    /// Number of data objects: (set, object) pairs index `live_count`
    /// as `set * objects + object`.
    objects: usize,
    /// Iteration slots per (set, object) in the instance tables.
    slots: usize,
    /// Live instance handles — a table retained on both sets has an
    /// independent copy per set.
    live: Vec<Option<AllocHandle>>,
    /// Live instance count per (set, object).
    live_count: Vec<u32>,
    pending: [Vec<AllocHandle>; 2],
    observer: Observer<'a>,
}

impl<'a> WalkState<'a> {
    fn new(
        capacity: Words,
        objects: usize,
        slots: u64,
        traced: bool,
        record: bool,
        observer: Observer<'a>,
    ) -> Self {
        let mk = || {
            if traced {
                FbAllocator::with_trace(capacity)
            } else {
                FbAllocator::new(capacity)
            }
        };
        for si in 0..2u8 {
            observer.emit(|| Event::FbReset {
                set: si,
                capacity: capacity.get(),
            });
        }
        let slots = usize::try_from(slots).expect("slots fit usize");
        let instances = 2 * objects * slots;
        WalkState {
            fbs: [mk(), mk()],
            placement: PlacementMemory::new(instances),
            at: (0, ClusterId::new(0)),
            record,
            labelled: traced || observer.active(),
            placements: Vec::new(),
            objects,
            slots,
            live: vec![None; instances],
            live_count: vec![0; 2 * objects],
            pending: [Vec::new(), Vec::new()],
            observer,
        }
    }

    fn is_live(&self, si: usize, d: DataId) -> bool {
        self.live_count[si * self.objects + d.index()] > 0
    }

    /// The instance tables' index of (set, object, slot).
    fn instance(&self, si: usize, d: DataId, slot: u64) -> usize {
        let slot = usize::try_from(slot).expect("slot fits usize");
        debug_assert!(slot < self.slots, "slot beyond the walk's RF");
        (si * self.objects + d.index()) * self.slots + slot
    }

    /// Enters `handle` as the live copy of instance `i` of (set, object).
    fn insert_live(&mut self, si: usize, d: DataId, i: usize, handle: AllocHandle) {
        let prev = self.live[i].replace(handle);
        debug_assert!(prev.is_none(), "instance double-allocated");
        if prev.is_none() {
            self.live_count[si * self.objects + d.index()] += 1;
        }
    }

    fn take_live(&mut self, si: usize, d: DataId, slot: u64) -> Option<AllocHandle> {
        let i = self.instance(si, d, slot);
        let handle = self.live[i].take()?;
        self.live_count[si * self.objects + d.index()] -= 1;
        Some(handle)
    }

    fn drain_pending(&mut self, si: usize) -> Result<(), AllocError> {
        // Drained through a taken list that goes back afterwards, so
        // the next stage reuses its room.
        let mut pending = std::mem::take(&mut self.pending[si]);
        let drained = pending
            .drain(..)
            .try_for_each(|handle| self.free_traced(si, handle));
        self.pending[si] = pending;
        drained
    }

    /// Frees `handle`, emitting the [`Event::FbFree`] from the
    /// allocation the release hands back.
    fn free_traced(&mut self, si: usize, handle: AllocHandle) -> Result<(), AllocError> {
        let freed = self.fbs[si].free(handle)?;
        self.observer.emit(|| Event::FbFree {
            set: set_u8(si),
            label: freed.label().to_owned(),
            segments: event_segments(&freed),
            free_hash: self.fbs[si].free_list_hash(),
        });
        Ok(())
    }

    fn alloc_instances(
        &mut self,
        app: &Application,
        si: usize,
        d: DataId,
        iters: u64,
        dir: Direction,
        role: PlacementRole,
    ) -> Result<(), AllocError> {
        for slot in 0..iters {
            self.alloc_instance(app, si, d, slot, dir, role)?;
        }
        Ok(())
    }

    fn alloc_instance(
        &mut self,
        app: &Application,
        si: usize,
        d: DataId,
        slot: u64,
        dir: Direction,
        role: PlacementRole,
    ) -> Result<(), AllocError> {
        let size = app.size_of(d);
        let label = if self.labelled {
            format!("{}#{}", app.data_object(d).name(), slot)
        } else {
            String::new()
        };
        // Fault seam: a plan attached to the observer can force this
        // allocation to fail transiently or report simulated
        // corruption. `Injected` is never cached upstream.
        match self.observer.fault(Seam::FbAlloc) {
            Some(Fault::CorruptAlloc) => {
                return Err(AllocError::Injected("simulated free-list corruption"))
            }
            Some(_) => return Err(AllocError::Injected("transient allocation failure")),
            None => {}
        }
        let key = self.instance(si, d, slot);
        let fb = &mut self.fbs[si];
        let handle = match self.placement.alloc(fb, key, &label, size, dir) {
            Ok(handle) => handle,
            Err(AllocError::NoContiguousBlock { .. }) => {
                // Last resort: split across free blocks.
                fb.alloc_split(&label, size, dir)?
            }
            Err(e) => return Err(e),
        };
        // The live table holds the label and segments; events and
        // records read them from there, and only when one is wanted.
        let placed = || {
            self.fbs[si]
                .allocation(handle)
                .expect("a handle just placed is live")
        };
        self.observer.emit(|| Event::FbAlloc {
            set: set_u8(si),
            label: placed().label().to_owned(),
            role: format!("{role:?}"),
            segments: event_segments(placed()),
            side: match dir {
                Direction::FromUpper => "upper",
                Direction::FromLower => "lower",
            }
            .to_owned(),
            free_hash: self.fbs[si].free_list_hash(),
        });
        if self.record {
            let segments = placed().segments().to_vec();
            self.placements.push(PlacementRecord {
                round: self.at.0,
                cluster: self.at.1,
                data: d,
                slot,
                set: if si == 0 {
                    mcds_model::FbSet::Set0
                } else {
                    mcds_model::FbSet::Set1
                },
                segments,
                role,
            });
        }
        self.insert_live(si, d, key, handle);
        Ok(())
    }

    fn free_instance(&mut self, si: usize, d: DataId, slot: u64) -> Result<(), AllocError> {
        if let Some(handle) = self.take_live(si, d, slot) {
            self.free_traced(si, handle)?;
        }
        Ok(())
    }

    fn free_all_instances(&mut self, si: usize, d: DataId, iters: u64) -> Result<(), AllocError> {
        for slot in 0..iters {
            if !self.is_live(si, d) {
                break;
            }
            self.free_instance(si, d, slot)?;
        }
        Ok(())
    }

    fn make_pending(&mut self, si: usize, d: DataId, iters: u64) {
        for slot in 0..iters {
            if !self.is_live(si, d) {
                break;
            }
            if let Some(handle) = self.take_live(si, d, slot) {
                self.pending[si].push(handle);
            }
        }
    }

    /// Adds the walk's totals to the `fb.*` counters. The allocators'
    /// stats count every successful allocation, free and split, so one
    /// add per name replaces a registry lookup per event; a name is
    /// touched only if its event happened.
    fn add_counters(&self) {
        let [a, b] = [self.fbs[0].stats(), self.fbs[1].stats()];
        for (name, total) in [
            ("fb.allocs", a.allocs() + b.allocs()),
            ("fb.frees", a.frees() + b.frees()),
            ("fb.splits", a.split_allocs() + b.split_allocs()),
        ] {
            if total > 0 {
                self.observer.count(name, total);
            }
        }
    }

    fn into_report(self, traced: bool) -> AllocationReport {
        let maps = if traced {
            // The peak-occupancy snapshot is the most informative
            // single frame (cf. the paper's Figure 5 sequence).
            let render = |fb: &FbAllocator| {
                fb.trace()
                    .map(|t| render_peak_map(t, fb.capacity(), 16))
                    .unwrap_or_default()
            };
            Some([render(&self.fbs[0]), render(&self.fbs[1])])
        } else {
            None
        };
        AllocationReport {
            peak: [
                self.fbs[0].stats().peak_used(),
                self.fbs[1].stats().peak_used(),
            ],
            splits: self.fbs[0].stats().split_allocs() + self.fbs[1].stats().split_allocs(),
            regular_hits: self.placement.regular_hits(),
            irregular: self.placement.irregular_placements(),
            allocs: self.fbs[0].stats().allocs() + self.fbs[1].stats().allocs(),
            maps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_candidates, select_greedy, RetentionRanking};
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    fn pipeline() -> (Application, ClusterSchedule) {
        let mut b = ApplicationBuilder::new("aw");
        let a = b.data("a", Words::new(40), DataKind::ExternalInput);
        let m = b.data("m", Words::new(20), DataKind::Intermediate);
        let f = b.data("f", Words::new(30), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[a], &[m]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[m], &[f]);
        let app = b.iterations(6).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1]]).expect("valid");
        (app, sched)
    }

    #[test]
    fn walk_fits_when_footprint_fits() {
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let walk = AllocationWalk::new(
            &app,
            &sched,
            &lt,
            &ret,
            2,
            Words::new(200),
            FootprintModel::Replacement,
        );
        let report = walk.run(3, false).expect("fits");
        assert_eq!(report.splits(), 0);
        assert!(report.peak()[0] <= Words::new(200));
        assert!(report.peak()[1] <= Words::new(200));
        assert!(report.allocs() > 0);
    }

    #[test]
    fn walk_fails_when_too_small() {
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let walk = AllocationWalk::new(
            &app,
            &sched,
            &lt,
            &ret,
            1,
            Words::new(30),
            FootprintModel::Replacement,
        );
        assert!(walk.run(1, false).is_err());
    }

    #[test]
    fn regularity_across_rounds() {
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let walk = AllocationWalk::new(
            &app,
            &sched,
            &lt,
            &ret,
            2,
            Words::new(300),
            FootprintModel::Replacement,
        );
        let report = walk.run(3, false).expect("fits");
        // From round 2 on every placement should be regular.
        assert!(report.regular_hits() > 0, "report: {report:?}");
        assert_eq!(report.irregular(), 0);
    }

    #[test]
    fn retained_objects_stay_across_stages() {
        // shared input used by C0 and C2 (both set 0).
        let mut b = ApplicationBuilder::new("r");
        let shared = b.data("shared", Words::new(50), DataKind::ExternalInput);
        let f0 = b.data("f0", Words::new(5), DataKind::FinalResult);
        let f1 = b.data("f1", Words::new(5), DataKind::FinalResult);
        let f2 = b.data("f2", Words::new(5), DataKind::FinalResult);
        let k0 = b.kernel("k0", 1, Cycles::new(10), &[shared], &[f0]);
        let k1 = b.kernel("k1", 1, Cycles::new(10), &[], &[f1]);
        let k2 = b.kernel("k2", 1, Cycles::new(10), &[shared], &[f2]);
        let app = b.iterations(4).build().expect("valid");
        let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2]]).expect("valid");
        let lt = Lifetimes::analyze(&app, &sched);
        let cands = find_candidates(&app, &sched, &lt);
        let ret = select_greedy(&cands, RetentionRanking::Tf, |d| app.size_of(d), |_| true);
        assert!(!ret.is_empty());
        let walk = AllocationWalk::new(
            &app,
            &sched,
            &lt,
            &ret,
            2,
            Words::new(200),
            FootprintModel::Replacement,
        );
        let report = walk.run(2, false).expect("fits");
        assert_eq!(report.splits(), 0);
        // Set 0 peak must cover shared(50)·2 slots + results.
        assert!(report.peak()[0] >= Words::new(100));
    }

    #[test]
    fn traced_walk_produces_maps() {
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let walk = AllocationWalk::new(
            &app,
            &sched,
            &lt,
            &ret,
            1,
            Words::new(300),
            FootprintModel::Replacement,
        );
        let report = walk.run(1, true).expect("fits");
        let maps = report.maps().expect("traced");
        assert!(!maps[0].is_empty());
        assert!(!maps[1].is_empty());
    }

    /// An injected `Seam::FbAlloc` fault ends the walk partway; the
    /// counters then hold the events up to the fault. Seed 9 fires on
    /// the 15th allocation, after 14 allocations and 10 frees; seed 13
    /// fires on the first, so no `fb.*` counter is touched at all.
    #[test]
    fn injected_fault_keeps_the_partial_counts() {
        use crate::{FaultConfig, FaultPlan, MetricsRegistry};
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        let counts = |seed: u64| {
            let plan = FaultPlan::new(FaultConfig::new(seed).with_rate(Seam::FbAlloc, 100_000));
            let metrics = MetricsRegistry::new();
            let observer = Observer::new(None, Some(&metrics)).with_faults(Some(&plan));
            let walk = AllocationWalk::new(
                &app,
                &sched,
                &lt,
                &ret,
                2,
                Words::new(200),
                FootprintModel::Replacement,
            )
            .observed(observer);
            assert!(matches!(walk.run(3, false), Err(AllocError::Injected(_))));
            metrics.snapshot()
        };
        let pairs = |list: &[(&str, u64)]| -> Vec<(String, u64)> {
            list.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
        };
        assert_eq!(
            counts(9),
            pairs(&[
                ("fault.fballoc.alloc", 1),
                ("fb.allocs", 14),
                ("fb.frees", 10)
            ])
        );
        assert_eq!(counts(13), pairs(&[("fault.fballoc.alloc", 1)]));
    }

    #[test]
    fn basic_model_needs_more_space() {
        let (app, sched) = pipeline();
        let lt = Lifetimes::analyze(&app, &sched);
        let ret = RetentionSet::empty();
        // Replacement fits 90 words per iteration cluster 0 (a+m), but
        // the no-replacement model keeps a, m simultaneously anyway for
        // this tiny pipeline — use cluster sizes that differ: skip
        // formal assert on equality, check monotonicity of peaks.
        let run = |model| {
            AllocationWalk::new(&app, &sched, &lt, &ret, 1, Words::new(300), model)
                .run(2, false)
                .expect("fits")
        };
        let rep = run(FootprintModel::Replacement);
        let basic = run(FootprintModel::NoReplacement);
        assert!(basic.peak()[0] >= rep.peak()[0]);
        assert!(basic.peak()[1] >= rep.peak()[1]);
    }
}
