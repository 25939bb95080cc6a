//! Structured decision traces and metrics for the scheduler stack.
//!
//! Every greedy decision the Complete Data Scheduler chain makes —
//! which reuse factor wins, which TF-ranked candidate is retained or
//! dropped (and which cluster's `DS(C_c) ≤ FBS` constraint it violated),
//! where the two-ended allocator placed each object — can be captured
//! as a typed [`Event`] through a [`TraceSink`]. When no sink is
//! attached the instrumented code paths cost one `Option` check and
//! never construct an event, so the default pipeline stays
//! allocation-free.
//!
//! Three sinks ship with the crate:
//!
//! * [`NullSink`] — explicitly discard (the implicit default);
//! * [`VecSink`] — collect in memory, for tests and
//!   [`render_explain`]'s human-readable decision log;
//! * [`JsonLinesSink`] — stream one JSON object per event to any writer
//!   (the CLI's `--trace-out file.jsonl`).
//!
//! Alongside the event stream, a lock-free [`MetricsRegistry`] of named
//! counters and histograms aggregates cheap numeric totals — shareable
//! across sweep worker threads, with a deterministic
//! [`snapshot`](MetricsRegistry::snapshot).
//!
//! ```
//! use mcds_core::{Pipeline, SchedulerKind, VecSink, render_explain};
//! use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};
//!
//! # fn main() -> Result<(), mcds_core::McdsError> {
//! let mut b = ApplicationBuilder::new("tr");
//! let a = b.data("a", Words::new(64), DataKind::ExternalInput);
//! let f = b.data("f", Words::new(32), DataKind::FinalResult);
//! b.kernel("k", 16, Cycles::new(200), &[a], &[f]);
//! let app = b.iterations(16).build()?;
//!
//! let sink = VecSink::new();
//! let run = Pipeline::new(app)
//!     .scheduler(SchedulerKind::Ds)
//!     .trace(sink.clone())
//!     .run()?;
//! assert!(!sink.events().is_empty());
//! assert!(render_explain(&sink.events()).contains("chose rf"));
//! # let _ = run;
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use crate::fault::{Fault, FaultDecider, Seam};

/// One observed decision or action, in schedule order.
///
/// Address ranges are `(start, len)` word pairs; `set` is the Frame
/// Buffer set index (0 or 1). The enum serializes with the vendored
/// derive (`{"VariantName": {fields…}}` JSON shape) for
/// [`JsonLinesSink`].
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum Event {
    /// A scheduler began planning an application.
    PlanStarted {
        /// Scheduler short name (`basic` / `ds` / `cds`).
        scheduler: String,
        /// Application name.
        application: String,
        /// Number of clusters in the kernel schedule.
        clusters: usize,
        /// Frame Buffer set capacity in words.
        fbs: u64,
    },
    /// One candidate reuse factor was simulated.
    RfEvaluated {
        /// Scheduler short name.
        scheduler: String,
        /// The candidate reuse factor.
        rf: u64,
        /// Simulated makespan at this RF.
        total_cycles: u64,
        /// Number of candidates the tentative retention set kept.
        retained: usize,
    },
    /// The fastest reuse factor was selected.
    RfChosen {
        /// Scheduler short name.
        scheduler: String,
        /// The winning reuse factor.
        rf: u64,
        /// Its simulated makespan.
        total_cycles: u64,
    },
    /// A TF-ranked candidate was kept: every affected cluster still
    /// satisfies `DS(C_c) ≤ FBS`.
    RetentionAccepted {
        /// The shared object's id.
        data: u32,
        /// The shared object's name.
        name: String,
        /// FB set index holding the retained copy.
        set: u8,
        /// The paper's time factor.
        tf: f64,
        /// External words avoided per application iteration.
        avoided_per_iter: u64,
        /// The tightest cluster after acceptance.
        worst_cluster: u32,
        /// That cluster's footprint `DS(C_c)` in words.
        ds: u64,
        /// The Frame Buffer set capacity it fits within.
        fbs: u64,
    },
    /// A TF-ranked candidate was dropped: keeping it would violate
    /// `DS(C_c) ≤ FBS` for the named cluster.
    RetentionRejected {
        /// The shared object's id.
        data: u32,
        /// The shared object's name.
        name: String,
        /// FB set index the copy would have lived on.
        set: u8,
        /// The paper's time factor.
        tf: f64,
        /// The first cluster whose constraint broke.
        cluster: u32,
        /// That cluster's footprint with the candidate kept.
        ds: u64,
        /// The capacity it exceeded.
        fbs: u64,
    },
    /// Footprint of one cluster at the chosen reuse factor.
    ClusterFootprint {
        /// Cluster id.
        cluster: u32,
        /// Reuse factor the footprint was computed at.
        rf: u64,
        /// The footprint `DS(C_c)` in words.
        ds: u64,
        /// The Frame Buffer set capacity.
        fbs: u64,
    },
    /// An allocation walk (re)started with empty Frame Buffer sets.
    FbReset {
        /// FB set index.
        set: u8,
        /// Set capacity in words.
        capacity: u64,
    },
    /// The two-ended allocator placed an object instance.
    FbAlloc {
        /// FB set index.
        set: u8,
        /// Instance label (`name#slot`).
        label: String,
        /// Which Figure 4 branch placed it.
        role: String,
        /// `(start, len)` word ranges; more than one only if split.
        segments: Vec<(u64, u64)>,
        /// `upper` or `lower` — the two-ended growth side.
        side: String,
        /// Free-list state hash after the placement.
        free_hash: u64,
    },
    /// The allocator released an object instance.
    FbFree {
        /// FB set index.
        set: u8,
        /// Instance label.
        label: String,
        /// The released `(start, len)` ranges.
        segments: Vec<(u64, u64)>,
        /// Free-list state hash after the release.
        free_hash: u64,
    },
    /// The allocation walk completed and was validated.
    AllocationChecked {
        /// Peak occupancy of set 0 in words.
        peak_set0: u64,
        /// Peak occupancy of set 1 in words.
        peak_set1: u64,
        /// Total successful allocations.
        allocs: u64,
        /// Objects that had to be split (the paper reports zero).
        splits: u64,
    },
    /// One simulator op's placement on the timeline (emitted only with
    /// the `sim-op-events` feature; excluded from [`render_explain`]).
    SimOp {
        /// Index in the op schedule.
        index: usize,
        /// The op's kind and resources, rendered by
        /// [`OpKind`](mcds_sim::OpKind)'s `Display` (e.g.
        /// `load set0 120w`, `compute k3 set1 400cy`).
        kind: String,
        /// Start cycle.
        start: u64,
        /// Finish cycle.
        finish: u64,
    },
    /// A plan finished simulating.
    SimCompleted {
        /// Scheduler short name.
        scheduler: String,
        /// Simulated makespan in cycles.
        total_cycles: u64,
        /// Cycles the DMA channel was busy.
        dma_busy: u64,
        /// Cycles the RC array was busy.
        rc_busy: u64,
    },
    /// The search scheduler expanded a retention-tree node (emitted
    /// only by `SchedulerKind::Search`).
    SearchExpand {
        /// RF rung the search runs at.
        rf: u64,
        /// Candidate index (TF order) the node decides next.
        depth: usize,
        /// Avoided words/iteration accumulated by the node's prefix.
        gain: u64,
        /// Admissible bound on the node's best completion.
        bound: u64,
    },
    /// The search scheduler cut a branch.
    SearchPrune {
        /// RF rung the search runs at.
        rf: u64,
        /// Candidate index the cut child decided.
        depth: usize,
        /// The child's bound when cut.
        bound: u64,
        /// `infeasible` (DS(C_c) > FBS) or `bounded` (could not beat
        /// the incumbent).
        reason: String,
    },
}

/// A consumer of [`Event`]s. Implementations must be cheap and
/// thread-safe: sinks may be shared across sweep workers.
pub trait TraceSink: Send + Sync {
    /// Records one event. Called in decision order within one plan.
    fn record(&self, event: &Event);
}

/// A sink that discards every event — attach it to measure the
/// instrumentation overhead itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// An in-memory sink. Cloning shares the underlying buffer, so keep a
/// clone and hand another to [`Pipeline::trace`](crate::Pipeline::trace).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A copy of the recorded events, in record order.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the buffer.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock").clone()
    }

    /// Drains the recorded events, leaving the sink empty.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the buffer.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }

    /// Number of recorded events.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the buffer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// `true` if nothing was recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: &Event) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

/// A sink that streams one compact JSON object per event (JSON Lines)
/// to any writer.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wraps an arbitrary writer.
    #[must_use]
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        JsonLinesSink {
            out: Mutex::new(Box::new(writer)),
        }
    }

    /// Creates (truncating) `path` and buffers writes to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink::new(io::BufWriter::new(file)))
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's flush error.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().expect("sink lock").flush()
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink").finish_non_exhaustive()
    }
}

impl TraceSink for JsonLinesSink {
    fn record(&self, event: &Event) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut out = self.out.lock().expect("sink lock");
            let _ = writeln!(out, "{line}");
        }
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// The borrowed (sink, metrics) pair the instrumented code paths carry.
///
/// Copyable and cheap: with neither attached, [`emit`](Observer::emit)
/// is a single branch and the event-building closure never runs.
#[derive(Clone, Copy, Default)]
pub struct Observer<'a> {
    sink: Option<&'a dyn TraceSink>,
    metrics: Option<&'a MetricsRegistry>,
    faults: Option<&'a dyn FaultDecider>,
}

impl<'a> Observer<'a> {
    /// An observer with neither sink nor metrics — the zero-cost
    /// default.
    #[must_use]
    pub fn none() -> Self {
        Observer::default()
    }

    /// An observer over optional borrowed sink and metrics.
    #[must_use]
    pub fn new(sink: Option<&'a dyn TraceSink>, metrics: Option<&'a MetricsRegistry>) -> Self {
        Observer {
            sink,
            metrics,
            faults: None,
        }
    }

    /// An observer recording events into `sink` only.
    #[must_use]
    pub fn with_sink(sink: &'a dyn TraceSink) -> Self {
        Observer {
            sink: Some(sink),
            metrics: None,
            faults: None,
        }
    }

    /// Attaches a fault decider (a process-wide
    /// [`FaultPlan`](crate::FaultPlan) or a per-request
    /// [`FaultScope`](crate::FaultScope)): instrumented seams start
    /// consulting it via [`fault`](Self::fault).
    #[must_use]
    pub fn with_faults(mut self, faults: Option<&'a dyn FaultDecider>) -> Self {
        self.faults = faults;
        self
    }

    /// `true` if a sink is attached (event closures will run).
    #[must_use]
    pub fn active(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `f` — `f` only runs when a sink is
    /// attached.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(sink) = self.sink {
            sink.record(&f());
        }
    }

    /// Adds `v` to the named counter, if metrics are attached.
    #[inline]
    pub fn count(&self, name: &str, v: u64) {
        if let Some(m) = self.metrics {
            m.add(name, v);
        }
    }

    /// Records one histogram observation, if metrics are attached.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(m) = self.metrics {
            m.observe(name, v);
        }
    }

    /// One fault decision at `seam` — `None` unless a
    /// [`FaultDecider`](crate::FaultDecider) is attached *and* its
    /// deterministic counter fires here. Firing bumps the seam's
    /// `fault.*` counter on the attached metrics registry.
    #[inline]
    pub fn fault(&self, seam: Seam) -> Option<Fault> {
        let fault = self.faults?.decide(seam)?;
        self.count(seam.metric(), 1);
        Some(fault)
    }
}

impl fmt::Debug for Observer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("sink", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("faults", &self.faults.is_some())
            .finish()
    }
}

/// Capacity of the registry's append-only slot table. A serving
/// process touches about 50 distinct names (planner, allocator,
/// simulator, serve and fault counters).
const METRIC_SLOTS: usize = 128;

struct MetricSlot {
    name: OnceLock<String>,
    value: AtomicU64,
}

/// A lock-free registry of named `u64` counters and histograms.
///
/// Counters are an append-only slot table updated with relaxed atomics;
/// worker threads of a sweep share one registry without contention
/// beyond the cache line of the counter itself. Under a racy
/// first-touch of the same name two slots may be created —
/// [`snapshot`](Self::snapshot) merges them, so totals are exact and
/// deterministic for a fixed task set whatever the thread count.
///
/// Histograms ([`observe`](Self::observe)) expand to three counters:
/// `<name>.count`, `<name>.sum` and `<name>.max`.
pub struct MetricsRegistry {
    len: AtomicUsize,
    slots: Vec<MetricSlot>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.snapshot())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            len: AtomicUsize::new(0),
            slots: (0..METRIC_SLOTS)
                .map(|_| MetricSlot {
                    name: OnceLock::new(),
                    value: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The slot of the counter named `base` followed by `suffix`
    /// (`""` for a plain counter), matched in place: the name is only
    /// formatted when its slot is created.
    fn slot_index(&self, base: &str, suffix: &str) -> usize {
        let len = self.len.load(Ordering::Acquire).min(self.slots.len());
        let named = |n: &String| {
            n.len() == base.len() + suffix.len() && n.starts_with(base) && n.ends_with(suffix)
        };
        for (i, s) in self.slots[..len].iter().enumerate() {
            if s.name.get().is_some_and(named) {
                return i;
            }
        }
        let idx = self.len.fetch_add(1, Ordering::AcqRel);
        assert!(idx < self.slots.len(), "metrics registry full");
        self.slots[idx]
            .name
            .set(format!("{base}{suffix}"))
            .expect("freshly reserved slot");
        idx
    }

    fn slot(&self, base: &str, suffix: &str) -> &AtomicU64 {
        &self.slots[self.slot_index(base, suffix)].value
    }

    /// Pre-resolves counter `name` into a [`Counter`] handle: the name
    /// lookup happens once, here; every subsequent
    /// [`add`](Counter::add) is a single relaxed atomic on the slot.
    /// Hot paths (the serve reactor) use handles instead of
    /// [`add`](Self::add)/[`incr`](Self::incr), which linear-scan the
    /// name table on every call.
    #[must_use]
    pub fn counter(self: &Arc<Self>, name: &str) -> Counter {
        Counter {
            registry: Arc::clone(self),
            idx: self.slot_index(name, ""),
        }
    }

    /// Pre-resolves histogram `name` into a [`Histogram`] handle —
    /// the three backing counters (`.count`/`.sum`/`.max`) are located
    /// once, and [`observe`](Histogram::observe) never allocates.
    #[must_use]
    pub fn histogram(self: &Arc<Self>, name: &str) -> Histogram {
        Histogram {
            count: self.slot_index(name, ".count"),
            sum: self.slot_index(name, ".sum"),
            max: self.slot_index(name, ".max"),
            registry: Arc::clone(self),
        }
    }

    /// Adds `v` to counter `name`, creating it at zero on first touch.
    pub fn add(&self, name: &str, v: u64) {
        self.slot(name, "").fetch_add(v, Ordering::Relaxed);
    }

    /// Increments counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records one observation of histogram `name`. Each of its three
    /// counters is found by a scan of the name table, as for
    /// [`add`](Self::add); nothing is allocated once they exist.
    pub fn observe(&self, name: &str, v: u64) {
        self.slot(name, ".count").fetch_add(1, Ordering::Relaxed);
        self.slot(name, ".sum").fetch_add(v, Ordering::Relaxed);
        self.slot(name, ".max").fetch_max(v, Ordering::Relaxed);
    }

    /// Current value of counter `name` (duplicate slots merged), or
    /// `None` if never touched.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<u64> {
        self.snapshot()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// All counters as `(name, value)` pairs sorted by name — a
    /// deterministic rollup: for a fixed task set the totals do not
    /// depend on how many worker threads recorded them. Racy duplicate
    /// slots are merged (summed; `*.max` entries take the max).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let len = self.len.load(Ordering::Acquire).min(self.slots.len());
        let mut merged: Vec<(String, u64)> = Vec::new();
        for s in &self.slots[..len] {
            let Some(name) = s.name.get() else { continue };
            let v = s.value.load(Ordering::Relaxed);
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((n, acc)) => {
                    if n.ends_with(".max") {
                        *acc = (*acc).max(v);
                    } else {
                        *acc += v;
                    }
                }
                None => merged.push((name.clone(), v)),
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        merged
    }
}

/// A pre-resolved handle to one [`MetricsRegistry`] counter.
///
/// Obtained from [`MetricsRegistry::counter`]; owns an `Arc` to the
/// registry, so handles can be moved into worker threads and outlive
/// the scope that resolved them. All updates are relaxed atomics on
/// the already-located slot — no name scan, no allocation.
#[derive(Clone)]
pub struct Counter {
    registry: Arc<MetricsRegistry>,
    idx: usize,
}

impl Counter {
    /// Adds `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.registry.slots[self.idx]
            .value
            .fetch_add(v, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value of this slot (for tests; racy duplicates from
    /// other threads' first-touch are *not* merged here — use
    /// [`MetricsRegistry::get`] for exact totals).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.registry.slots[self.idx].value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter").field("idx", &self.idx).finish()
    }
}

/// A pre-resolved handle to one [`MetricsRegistry`] histogram
/// (`.count`/`.sum`/`.max` triple). Unlike
/// [`MetricsRegistry::observe`], [`observe`](Self::observe) performs no
/// name formatting or scanning — three relaxed atomics, nothing else.
#[derive(Clone)]
pub struct Histogram {
    registry: Arc<MetricsRegistry>,
    count: usize,
    sum: usize,
    max: usize,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let slots = &self.registry.slots;
        slots[self.count].value.fetch_add(1, Ordering::Relaxed);
        slots[self.sum].value.fetch_add(v, Ordering::Relaxed);
        slots[self.max].value.fetch_max(v, Ordering::Relaxed);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .finish()
    }
}

fn fmt_segments(segments: &[(u64, u64)]) -> String {
    let mut out = String::new();
    for (i, &(start, len)) in segments.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let _ = write!(out, "[{start}..{})", start + len);
    }
    out
}

/// Renders an event stream as the human-readable decision log behind
/// `mcds run --explain` and the golden-trace tests.
///
/// Per-op simulator events ([`Event::SimOp`]) are excluded so the
/// rendering does not depend on the `sim-op-events` feature; everything
/// else appears in record order with deterministic formatting.
#[must_use]
pub fn render_explain(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        match ev {
            Event::PlanStarted {
                scheduler,
                application,
                clusters,
                fbs,
            } => {
                let _ = writeln!(
                    out,
                    "[{scheduler}] plan {application}: {clusters} clusters, FBS {fbs}w"
                );
            }
            Event::RfEvaluated {
                rf,
                total_cycles,
                retained,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  rf {rf}: {total_cycles} cycles ({retained} retained)"
                );
            }
            Event::RfChosen {
                rf, total_cycles, ..
            } => {
                let _ = writeln!(out, "  chose rf {rf}: {total_cycles} cycles");
            }
            Event::RetentionAccepted {
                name,
                set,
                tf,
                avoided_per_iter,
                worst_cluster,
                ds,
                fbs,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  retain {name} on set{set}: TF {tf:.4}, avoids {avoided_per_iter}w/iter \
                     (worst C{worst_cluster}: DS {ds}w <= FBS {fbs}w)"
                );
            }
            Event::RetentionRejected {
                name,
                set,
                tf,
                cluster,
                ds,
                fbs,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  drop {name} on set{set}: TF {tf:.4} (C{cluster}: DS {ds}w > FBS {fbs}w)"
                );
            }
            Event::ClusterFootprint {
                cluster,
                rf,
                ds,
                fbs,
            } => {
                let _ = writeln!(out, "  C{cluster}: DS {ds}w of {fbs}w at rf {rf}");
            }
            Event::FbReset { set, capacity } => {
                let _ = writeln!(out, "  fb set{set}: reset ({capacity}w)");
            }
            Event::FbAlloc {
                set,
                label,
                role,
                segments,
                side,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  fb set{set}: alloc {label} {} {side} ({role})",
                    fmt_segments(segments)
                );
            }
            Event::FbFree {
                set,
                label,
                segments,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "  fb set{set}: free {label} {}",
                    fmt_segments(segments)
                );
            }
            Event::AllocationChecked {
                peak_set0,
                peak_set1,
                allocs,
                splits,
            } => {
                let _ = writeln!(
                    out,
                    "  allocation: peaks {peak_set0}w/{peak_set1}w, {allocs} allocs, {splits} splits"
                );
            }
            Event::SimOp { .. } => { /* feature-dependent volume: excluded */ }
            Event::SearchExpand {
                rf,
                depth,
                gain,
                bound,
            } => {
                let _ = writeln!(
                    out,
                    "  search rf={rf}: expand depth {depth} (gain {gain}w/iter, bound {bound})"
                );
            }
            Event::SearchPrune {
                rf,
                depth,
                bound,
                reason,
            } => {
                let _ = writeln!(
                    out,
                    "  search rf={rf}: prune depth {depth} ({reason}, bound {bound})"
                );
            }
            Event::SimCompleted {
                scheduler,
                total_cycles,
                dma_busy,
                rc_busy,
            } => {
                let _ = writeln!(
                    out,
                    "[{scheduler}] simulated: {total_cycles} cycles (dma {dma_busy}, rc {rc_busy})"
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> Event {
        Event::RetentionRejected {
            data: 3,
            name: "coef".to_owned(),
            set: 0,
            tf: 0.25,
            cluster: 2,
            ds: 1100,
            fbs: 1024,
        }
    }

    #[test]
    fn null_sink_discards() {
        let sink = NullSink;
        sink.record(&sample_event());
    }

    #[test]
    fn vec_sink_shares_buffer_across_clones() {
        let sink = VecSink::new();
        let clone = sink.clone();
        clone.record(&sample_event());
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
        assert_eq!(sink.events()[0], sample_event());
        let taken = sink.take();
        assert_eq!(taken.len(), 1);
        assert!(clone.is_empty());
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(Shared(Arc::clone(&buf)));
        sink.record(&sample_event());
        sink.record(&Event::FbReset {
            set: 1,
            capacity: 1024,
        });
        sink.flush().expect("flush");
        let text = String::from_utf8(buf.lock().expect("buf").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"RetentionRejected\""));
        assert!(lines[0].contains("\"coef\""));
        assert!(lines[1].contains("\"FbReset\""));
    }

    #[test]
    fn observer_skips_closure_when_inactive() {
        let obs = Observer::none();
        assert!(!obs.active());
        obs.emit(|| unreachable!("must not build events without a sink"));
        obs.count("x", 1); // no registry: no-op
    }

    #[test]
    fn observer_records_when_active() {
        let sink = VecSink::new();
        let metrics = MetricsRegistry::new();
        let obs = Observer::new(Some(&sink), Some(&metrics));
        assert!(obs.active());
        obs.emit(sample_event);
        obs.count("plans", 2);
        obs.observe("rf", 4);
        assert_eq!(sink.len(), 1);
        assert_eq!(metrics.get("plans"), Some(2));
        assert_eq!(metrics.get("rf.count"), Some(1));
        assert_eq!(metrics.get("rf.sum"), Some(4));
        assert_eq!(metrics.get("rf.max"), Some(4));
    }

    #[test]
    fn observe_by_name_matches_a_histogram_handle() {
        let by_name = MetricsRegistry::new();
        let handles = Arc::new(MetricsRegistry::new());
        let (rf, r) = (handles.histogram("plan.rf"), handles.histogram("plan.r"));
        // A plain counter and a histogram whose names prefix the
        // histogram's slots must not be matched for them.
        by_name.add("plan.rf", 1);
        handles.add("plan.rf", 1);
        by_name.observe("plan.rf", 3);
        rf.observe(3);
        by_name.observe("plan.r", 9);
        r.observe(9);
        let slots = by_name.len.load(Ordering::Acquire);
        for v in [1, 8, 8, 2] {
            by_name.observe("plan.rf", v);
            rf.observe(v);
            by_name.observe("plan.r", v + 1);
            r.observe(v + 1);
        }
        assert_eq!(slots, 7);
        assert_eq!(by_name.len.load(Ordering::Acquire), slots);
        assert_eq!(by_name.snapshot(), handles.snapshot());
        assert_eq!(by_name.get("plan.rf.count"), Some(5));
        assert_eq!(by_name.get("plan.rf.sum"), Some(22));
        assert_eq!(by_name.get("plan.rf.max"), Some(8));
    }

    #[test]
    fn metrics_snapshot_is_sorted_and_merged() {
        let m = MetricsRegistry::new();
        m.incr("b");
        m.add("a", 5);
        m.incr("b");
        let snap = m.snapshot();
        assert_eq!(snap, vec![("a".to_owned(), 5), ("b".to_owned(), 2)]);
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn metrics_concurrent_totals_are_exact() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        m.add("hits", 1);
                        m.observe("size", i % 7);
                    }
                });
            }
        });
        assert_eq!(m.get("hits"), Some(8000));
        assert_eq!(m.get("size.count"), Some(8000));
        assert_eq!(m.get("size.max"), Some(6));
    }

    #[test]
    fn explain_renders_decisions_and_skips_sim_ops() {
        let events = vec![
            Event::PlanStarted {
                scheduler: "cds".to_owned(),
                application: "demo".to_owned(),
                clusters: 3,
                fbs: 1024,
            },
            Event::RfEvaluated {
                scheduler: "cds".to_owned(),
                rf: 2,
                total_cycles: 900,
                retained: 1,
            },
            Event::RfChosen {
                scheduler: "cds".to_owned(),
                rf: 2,
                total_cycles: 900,
            },
            sample_event(),
            Event::SimOp {
                index: 0,
                kind: "load".to_owned(),
                start: 0,
                finish: 10,
            },
            Event::FbAlloc {
                set: 0,
                label: "coef#0".to_owned(),
                role: "SharedData".to_owned(),
                segments: vec![(960, 64)],
                side: "upper".to_owned(),
                free_hash: 7,
            },
        ];
        let text = render_explain(&events);
        assert!(text.contains("[cds] plan demo: 3 clusters, FBS 1024w"));
        assert!(text.contains("rf 2: 900 cycles (1 retained)"));
        assert!(text.contains("chose rf 2"));
        assert!(text.contains("drop coef on set0: TF 0.2500 (C2: DS 1100w > FBS 1024w)"));
        assert!(text.contains("alloc coef#0 [960..1024) upper (SharedData)"));
        assert!(!text.contains("load"), "SimOp lines are excluded");
    }

    #[test]
    fn events_serialize_to_stable_json() {
        let json = serde_json::to_string(&sample_event()).expect("serializes");
        assert!(json.contains("\"tf\""));
        assert!(json.contains("0.25"));
        let seg = serde_json::to_string(&Event::FbFree {
            set: 1,
            label: "x#0".to_owned(),
            segments: vec![(0, 8), (24, 8)],
            free_hash: 42,
        })
        .expect("serializes");
        assert!(seg.contains("[[0,8],[24,8]]"));
    }
}
