//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] decides, at named *seam points* threaded through the
//! scheduler and the serving layer, whether to inject a failure. Every
//! decision is a pure function of `(seed, seam, per-seam query index)`
//! via a counter-indexed SplitMix64 hash, so a run that failed under
//! seed `S` replays the *identical* fault sequence when re-run with
//! seed `S` — no shared RNG stream, no ordering sensitivity between
//! seams.
//!
//! The plan is configured by a serializable [`FaultConfig`] (seed plus
//! per-seam fire rates in parts per million) and reports what actually
//! happened through a serializable [`FaultSnapshot`]: per-seam query
//! and fire counters plus an order-independent `sequence_hash` folding
//! every fired decision. Two runs with equal snapshots injected the
//! same faults at the same decision indices.
//!
//! Seam semantics (who queries, what each [`Fault`] means there) are
//! documented on [`Seam`]; the scheduler-side seams are wired through
//! [`Observer::fault`](crate::trace::Observer::fault) so firing also
//! bumps a `fault.<seam>` metric on the run's registry.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Number of distinct seams (length of [`Seam::ALL`]).
const SEAMS: usize = 14;

/// A named injection point. Each seam owns an independent decision
/// counter, so the faults fired at one seam never depend on how often
/// any other seam was queried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Seam {
    /// Pipeline admission checkpoint (before clustering).
    PipelineAdmission,
    /// Pipeline checkpoint after cluster resolution.
    PipelineClustering,
    /// Pipeline checkpoint after planning, before evaluation.
    PipelinePlanning,
    /// Frame-buffer allocation inside the allocation walk.
    FbAlloc,
    /// Serve worker about to run a job (panic injection).
    WorkerRun,
    /// Serve connection received a complete request frame.
    ServeRead,
    /// Serve connection about to write a response frame.
    ServeWrite,
    /// Reactor poll(2) layer (queried once per processed frame so the
    /// decision stream stays independent of tick timing).
    PollError,
    /// Reactor accepted a connection (failure drops the new socket as
    /// if `accept(2)` itself had failed).
    AcceptFail,
    /// Reactor accepted a connection into a simulated exhausted fd
    /// table (the socket is shed immediately).
    FdExhausted,
    /// Reactor tick body panics (the supervisor must restart the
    /// reactor without dropping the listener).
    TickPanic,
    /// Durability store about to append a journal record (short-write
    /// injection: only a prefix of the frame reaches the file, leaving
    /// a torn record for recovery to discard).
    StoreAppend,
    /// Durability store about to fsync the journal (the sync "fails";
    /// the store keeps serving but counts the miss).
    StoreFsync,
    /// Durability store decoding a record during recovery (the record
    /// is treated as CRC-corrupt; everything after it is dropped).
    StoreLoad,
}

impl Seam {
    /// Every seam, in canonical (snapshot) order.
    pub const ALL: [Seam; SEAMS] = [
        Seam::PipelineAdmission,
        Seam::PipelineClustering,
        Seam::PipelinePlanning,
        Seam::FbAlloc,
        Seam::WorkerRun,
        Seam::ServeRead,
        Seam::ServeWrite,
        Seam::PollError,
        Seam::AcceptFail,
        Seam::FdExhausted,
        Seam::TickPanic,
        Seam::StoreAppend,
        Seam::StoreFsync,
        Seam::StoreLoad,
    ];

    /// Stable dotted name, used for `fault.<seam>` metrics and
    /// snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Seam::PipelineAdmission => "pipeline.admission",
            Seam::PipelineClustering => "pipeline.clustering",
            Seam::PipelinePlanning => "pipeline.planning",
            Seam::FbAlloc => "fballoc.alloc",
            Seam::WorkerRun => "serve.worker",
            Seam::ServeRead => "serve.read",
            Seam::ServeWrite => "serve.write",
            Seam::PollError => "serve.poll",
            Seam::AcceptFail => "serve.accept",
            Seam::FdExhausted => "serve.fds",
            Seam::TickPanic => "serve.tick",
            Seam::StoreAppend => "store.append",
            Seam::StoreFsync => "store.fsync",
            Seam::StoreLoad => "store.load",
        }
    }

    /// Name of the counter bumped on the PR 2 metrics registry each
    /// time a fault fires at this seam.
    #[must_use]
    pub fn metric(self) -> &'static str {
        match self {
            Seam::PipelineAdmission => "fault.pipeline.admission",
            Seam::PipelineClustering => "fault.pipeline.clustering",
            Seam::PipelinePlanning => "fault.pipeline.planning",
            Seam::FbAlloc => "fault.fballoc.alloc",
            Seam::WorkerRun => "fault.serve.worker",
            Seam::ServeRead => "fault.serve.read",
            Seam::ServeWrite => "fault.serve.write",
            Seam::PollError => "fault.serve.poll",
            Seam::AcceptFail => "fault.serve.accept",
            Seam::FdExhausted => "fault.serve.fds",
            Seam::TickPanic => "fault.serve.tick",
            Seam::StoreAppend => "fault.store.append",
            Seam::StoreFsync => "fault.store.fsync",
            Seam::StoreLoad => "fault.store.load",
        }
    }

    fn index(self) -> usize {
        match self {
            Seam::PipelineAdmission => 0,
            Seam::PipelineClustering => 1,
            Seam::PipelinePlanning => 2,
            Seam::FbAlloc => 3,
            Seam::WorkerRun => 4,
            Seam::ServeRead => 5,
            Seam::ServeWrite => 6,
            Seam::PollError => 7,
            Seam::AcceptFail => 8,
            Seam::FdExhausted => 9,
            Seam::TickPanic => 10,
            Seam::StoreAppend => 11,
            Seam::StoreFsync => 12,
            Seam::StoreLoad => 13,
        }
    }
}

impl fmt::Display for Seam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a fired decision injects. The flavor is derived from the same
/// hash as the fire decision, so it is equally deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// `fballoc` returns a transient
    /// [`mcds_fballoc::AllocError::Injected`] (`crates/fballoc`): the
    /// allocation "failed" this time but would succeed on retry.
    TransientAlloc,
    /// `fballoc` reports simulated free-list corruption (also surfaced
    /// as `AllocError::Injected`, distinct message).
    CorruptAlloc,
    /// A pipeline stage boundary stalls for the configured delay.
    StageDelay(Duration),
    /// A pipeline stage boundary aborts the run as if a deadline
    /// cancellation fired there.
    StageCancel,
    /// The serve worker panics mid-job (supervisor must recycle it).
    WorkerPanic,
    /// The serve connection drops before processing the request frame.
    Disconnect,
    /// The serve connection writes only a prefix of the response frame,
    /// then drops (mid-frame disconnect: the client sees a short read).
    TruncateWrite,
    /// The serve connection dribbles the response out in small delayed
    /// chunks (slow-loris writer).
    SlowWrite,
    /// The reactor's poll layer reports a spurious error; the
    /// supervisor restarts the reactor (connections drop, the listener
    /// and caches survive).
    PollFail,
    /// `accept(2)` lands in a simulated exhausted fd table; the freshly
    /// accepted socket is shed before it is registered.
    FdExhausted,
    /// The reactor tick body panics mid-frame; the supervisor catches
    /// the unwind and restarts the reactor.
    TickPanic,
    /// The store writes only a prefix of the journal frame (torn
    /// record on disk; the in-memory cache still has the entry).
    ShortWrite,
    /// The store's fsync fails (data may not be durable; serving
    /// continues, the miss is counted).
    FsyncFail,
    /// A journal record reads back corrupt during recovery (treated as
    /// a CRC mismatch: the record and everything after it is dropped).
    CorruptRecord,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::TransientAlloc => "transient-alloc",
            Fault::CorruptAlloc => "corrupt-alloc",
            Fault::StageDelay(_) => "stage-delay",
            Fault::StageCancel => "stage-cancel",
            Fault::WorkerPanic => "worker-panic",
            Fault::Disconnect => "disconnect",
            Fault::TruncateWrite => "truncate-write",
            Fault::SlowWrite => "slow-write",
            Fault::PollFail => "poll-fail",
            Fault::FdExhausted => "fd-exhausted",
            Fault::TickPanic => "tick-panic",
            Fault::ShortWrite => "short-write",
            Fault::FsyncFail => "fsync-fail",
            Fault::CorruptRecord => "corrupt-record",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Serializable fault-injection configuration: the seed plus a fire
/// rate (parts per million of queries) per seam. A config with every
/// rate zero injects nothing and costs one atomic increment per query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed every decision hash derives from.
    pub seed: u64,
    /// Per-seam fire rates in parts per million, in [`Seam::ALL`]
    /// order.
    pub rates_ppm: [u32; SEAMS],
    /// Stall length for [`Fault::StageDelay`] and the per-chunk delay
    /// of [`Fault::SlowWrite`], in microseconds.
    pub delay_us: u64,
}

impl FaultConfig {
    /// A config that injects nothing (all rates zero).
    #[must_use]
    pub fn new(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            rates_ppm: [0; SEAMS],
            delay_us: 200,
        }
    }

    /// Sets the fire rate for one seam, in parts per million
    /// (clamped to 1_000_000 = always fire).
    #[must_use]
    pub fn with_rate(mut self, seam: Seam, ppm: u32) -> FaultConfig {
        self.rates_ppm[seam.index()] = ppm.min(1_000_000);
        self
    }

    /// Sets the stage-delay / slow-write chunk delay.
    #[must_use]
    pub fn with_delay_us(mut self, delay_us: u64) -> FaultConfig {
        self.delay_us = delay_us;
        self
    }

    /// The configured rate for one seam.
    #[must_use]
    pub fn rate(&self, seam: Seam) -> u32 {
        self.rates_ppm[seam.index()]
    }

    /// The chaos-soak preset: moderate fault pressure at every seam.
    /// Per-query rates are scaled to per-*run* exposure: pipeline and
    /// serve seams are queried about once per request, but the
    /// allocation walk queries [`Seam::FbAlloc`] dozens of times per
    /// run, so its rate is an order of magnitude lower to land a
    /// comparable per-request fault probability.
    ///
    /// Tuned for the poll(2) reactor: [`Seam::ServeWrite`] fires hot
    /// enough that both write flavors ([`Fault::TruncateWrite`] and
    /// the dribbled [`Fault::SlowWrite`], which exercises the
    /// partial-write resume path through the timer heap) land several
    /// times per soak, and the four reactor seams (poll / accept / fd
    /// table / tick) fire at rates low enough that the supervisor
    /// restart cost stays a small fraction of the run.
    #[must_use]
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig::new(seed)
            .with_rate(Seam::PipelineAdmission, 10_000)
            .with_rate(Seam::PipelineClustering, 10_000)
            .with_rate(Seam::PipelinePlanning, 30_000)
            .with_rate(Seam::FbAlloc, 1_500)
            .with_rate(Seam::WorkerRun, 15_000)
            .with_rate(Seam::ServeRead, 20_000)
            .with_rate(Seam::ServeWrite, 40_000)
            .with_rate(Seam::PollError, 4_000)
            .with_rate(Seam::AcceptFail, 8_000)
            .with_rate(Seam::FdExhausted, 4_000)
            .with_rate(Seam::TickPanic, 5_000)
            .with_rate(Seam::StoreAppend, 20_000)
            .with_rate(Seam::StoreFsync, 20_000)
            .with_rate(Seam::StoreLoad, 10_000)
            .with_delay_us(200)
    }
}

/// SplitMix64 finalizer: the single mixing primitive behind every
/// fault decision (and the deterministic client jitter).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn decision_hash(seed: u64, seam: Seam, index: u64) -> u64 {
    let salt = splitmix64(0xFA17_5EA0 ^ (seam.index() as u64) << 32);
    splitmix64(splitmix64(seed ^ salt) ^ index)
}

/// Anything that can answer "does a fault fire here?": a process-wide
/// [`FaultPlan`] or a per-request [`FaultScope`]. The scheduler-side
/// seams ([`Observer::fault`](crate::trace::Observer::fault)) consume
/// decisions through this trait so the pipeline works identically under
/// either counter scope.
pub trait FaultDecider: Sync {
    /// One decision at `seam`: consumes the decider's next counter
    /// index for that seam and returns the fault to inject, if any.
    fn decide(&self, seam: Seam) -> Option<Fault>;
}

/// A live fault plan: the config plus per-seam atomic decision
/// counters. Shared across threads (`Arc`) — decisions are lock-free.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    delay: Duration,
    queries: [AtomicU64; SEAMS],
    fired: [AtomicU64; SEAMS],
    sequence_hash: AtomicU64,
    /// Attempts seen per request key, so every retry of the same key
    /// scopes to a fresh deterministic decision stream (a transient
    /// fault must not replay forever).
    attempts: Mutex<HashMap<u64, u64>>,
}

impl FaultPlan {
    /// Builds a plan from its config with all counters at zero.
    #[must_use]
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            delay: Duration::from_micros(config.delay_us),
            config,
            queries: Default::default(),
            fired: Default::default(),
            sequence_hash: AtomicU64::new(0),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// The configuration this plan replays.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// One decision at `seam`: consumes the seam's next counter index
    /// and returns the fault to inject, if any. The n-th call for a
    /// given seam always returns the same answer for the same seed.
    #[must_use]
    pub fn decide(&self, seam: Seam) -> Option<Fault> {
        let s = seam.index();
        let index = self.queries[s].fetch_add(1, Ordering::Relaxed);
        self.roll(seam, self.config.seed, index)
    }

    /// Opens a per-request decision scope for `request_key`. The scope
    /// owns fresh per-seam counters and salts every decision with the
    /// key and this key's attempt number, so:
    ///
    /// * the faults a request sees depend only on `(seed, key,
    ///   attempt)` — not on how many allocations *other* requests
    ///   performed before it ran, and
    /// * a retry of the same key draws a fresh stream, so a transient
    ///   fault stays transient instead of replaying on every attempt.
    ///
    /// Scope decisions still account to the plan's global snapshot
    /// (queries, fires, sequence hash).
    #[must_use]
    pub fn scope(self: &Arc<Self>, request_key: u64) -> FaultScope {
        let attempt = {
            let mut attempts = self.attempts.lock().expect("fault attempts poisoned");
            let slot = attempts.entry(request_key).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        };
        FaultScope {
            seed: self.config.seed ^ splitmix64(request_key ^ splitmix64(attempt)),
            plan: Arc::clone(self),
            queries: Default::default(),
        }
    }

    /// The shared decision core: rate check, fire bookkeeping, and
    /// flavor derivation for one `(seed, seam, index)` triple.
    fn roll(&self, seam: Seam, seed: u64, index: u64) -> Option<Fault> {
        let s = seam.index();
        let rate = self.config.rates_ppm[s];
        if rate == 0 {
            return None;
        }
        let h = decision_hash(seed, seam, index);
        if h % 1_000_000 >= u64::from(rate) {
            return None;
        }
        self.fired[s].fetch_add(1, Ordering::Relaxed);
        // XOR-fold of fired decision hashes: commutative, so the
        // sequence hash is stable under thread interleaving as long as
        // the same decisions fired.
        self.sequence_hash
            .fetch_xor(splitmix64(h), Ordering::Relaxed);
        let roll = h >> 40;
        Some(match seam {
            Seam::PipelineAdmission | Seam::PipelineClustering | Seam::PipelinePlanning => {
                if roll.is_multiple_of(3) {
                    Fault::StageDelay(self.delay)
                } else {
                    Fault::StageCancel
                }
            }
            Seam::FbAlloc => {
                if roll.is_multiple_of(4) {
                    Fault::CorruptAlloc
                } else {
                    Fault::TransientAlloc
                }
            }
            Seam::WorkerRun => Fault::WorkerPanic,
            Seam::ServeRead | Seam::AcceptFail => Fault::Disconnect,
            Seam::ServeWrite => {
                if roll.is_multiple_of(2) {
                    Fault::TruncateWrite
                } else {
                    Fault::SlowWrite
                }
            }
            Seam::PollError => Fault::PollFail,
            Seam::FdExhausted => Fault::FdExhausted,
            Seam::TickPanic => Fault::TickPanic,
            Seam::StoreAppend => Fault::ShortWrite,
            Seam::StoreFsync => Fault::FsyncFail,
            Seam::StoreLoad => Fault::CorruptRecord,
        })
    }

    /// Serializable account of what the plan did so far.
    #[must_use]
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            seed: self.config.seed,
            seams: Seam::ALL
                .iter()
                .map(|&seam| SeamStats {
                    seam: seam.name().to_owned(),
                    queries: self.queries[seam.index()].load(Ordering::Relaxed),
                    fired: self.fired[seam.index()].load(Ordering::Relaxed),
                })
                .collect(),
            sequence_hash: self.sequence_hash.load(Ordering::Relaxed),
        }
    }
}

impl FaultDecider for FaultPlan {
    fn decide(&self, seam: Seam) -> Option<Fault> {
        FaultPlan::decide(self, seam)
    }
}

/// A per-request view of a [`FaultPlan`], from
/// [`FaultPlan::scope`]: decisions index private per-seam counters
/// salted by `(request_key, attempt)` instead of the plan's
/// process-wide counters.
///
/// This is what makes chaos replay robust to *unrelated* call-count
/// changes: with process-wide counters, making the allocator issue one
/// more or one fewer [`Seam::FbAlloc`] query for request A shifts every
/// later request's decision indices; with a scope, each request's fault
/// stream is a pure function of its own behavior.
#[derive(Debug)]
pub struct FaultScope {
    plan: Arc<FaultPlan>,
    /// Effective seed: the plan seed salted with the request key and
    /// the per-key attempt number.
    seed: u64,
    queries: [AtomicU64; SEAMS],
}

impl FaultScope {
    /// The plan this scope draws configuration and accounting from.
    #[must_use]
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl FaultDecider for FaultScope {
    fn decide(&self, seam: Seam) -> Option<Fault> {
        let s = seam.index();
        let index = self.queries[s].fetch_add(1, Ordering::Relaxed);
        // Global query accounting: the snapshot still counts every
        // decision taken anywhere.
        self.plan.queries[s].fetch_add(1, Ordering::Relaxed);
        self.plan.roll(seam, self.seed, index)
    }
}

/// Per-seam decision counters of a [`FaultPlan`] run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeamStats {
    /// Seam name ([`Seam::name`]).
    pub seam: String,
    /// Total decisions taken at this seam.
    pub queries: u64,
    /// Decisions that fired a fault.
    pub fired: u64,
}

/// What a [`FaultPlan`] actually injected: replayable evidence that two
/// runs saw the same fault sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSnapshot {
    /// The seed the plan ran under.
    pub seed: u64,
    /// Counters per seam, in [`Seam::ALL`] order.
    pub seams: Vec<SeamStats>,
    /// XOR-fold of every fired decision hash (0 when nothing fired).
    /// Order-independent: equal across runs iff the same decisions
    /// fired, regardless of thread interleaving.
    pub sequence_hash: u64,
}

impl FaultSnapshot {
    /// Total faults fired across all seams.
    #[must_use]
    pub fn total_fired(&self) -> u64 {
        self.seams.iter().map(|s| s.fired).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &FaultPlan, seam: Seam, n: usize) -> Vec<Option<Fault>> {
        (0..n).map(|_| plan.decide(seam)).collect()
    }

    #[test]
    fn same_seed_replays_the_same_sequence() {
        let a = FaultPlan::new(FaultConfig::chaos(7));
        let b = FaultPlan::new(FaultConfig::chaos(7));
        for seam in Seam::ALL {
            assert_eq!(drain(&a, seam, 500), drain(&b, seam, 500));
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(a.snapshot().total_fired() > 0, "chaos preset must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(FaultConfig::chaos(1));
        let b = FaultPlan::new(FaultConfig::chaos(2));
        for seam in Seam::ALL {
            let _ = drain(&a, seam, 500);
            let _ = drain(&b, seam, 500);
        }
        assert_ne!(a.snapshot().sequence_hash, b.snapshot().sequence_hash);
    }

    #[test]
    fn seams_are_independent_of_each_other() {
        // Interleaving queries across seams must not shift any seam's
        // own decision stream.
        let solo = FaultPlan::new(FaultConfig::chaos(42));
        let solo_seq = drain(&solo, Seam::FbAlloc, 200);
        let mixed = FaultPlan::new(FaultConfig::chaos(42));
        let mut mixed_seq = Vec::new();
        for i in 0..200 {
            let _ = mixed.decide(Seam::ServeRead);
            if i % 3 == 0 {
                let _ = mixed.decide(Seam::PipelinePlanning);
            }
            mixed_seq.push(mixed.decide(Seam::FbAlloc));
        }
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn rate_extremes() {
        let zero = FaultPlan::new(FaultConfig::new(9));
        assert!(drain(&zero, Seam::FbAlloc, 1000)
            .iter()
            .all(Option::is_none));
        assert_eq!(zero.snapshot().sequence_hash, 0);

        let always = FaultPlan::new(FaultConfig::new(9).with_rate(Seam::WorkerRun, 1_000_000));
        assert!(drain(&always, Seam::WorkerRun, 100)
            .iter()
            .all(|f| matches!(f, Some(Fault::WorkerPanic))));
        let snap = always.snapshot();
        assert_eq!((snap.seams[4].queries, snap.seams[4].fired), (100, 100));
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = FaultConfig::chaos(7).with_delay_us(50);
        let json = serde_json::to_string(&config).expect("serialize");
        let back: FaultConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, config);
        // A plan rebuilt from the deserialized config replays.
        let a = FaultPlan::new(config);
        let b = FaultPlan::new(back);
        assert_eq!(
            drain(&a, Seam::ServeWrite, 300),
            drain(&b, Seam::ServeWrite, 300)
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let plan = FaultPlan::new(FaultConfig::chaos(3));
        for seam in Seam::ALL {
            let _ = drain(&plan, seam, 64);
        }
        let snap = plan.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: FaultSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }

    #[test]
    fn scopes_replay_by_key_and_attempt() {
        let drain_scope = |scope: &FaultScope, seam: Seam, n: usize| -> Vec<Option<Fault>> {
            (0..n).map(|_| scope.decide(seam)).collect()
        };
        let a = Arc::new(FaultPlan::new(FaultConfig::chaos(7)));
        let b = Arc::new(FaultPlan::new(FaultConfig::chaos(7)));
        // First attempts for the same key replay across plans…
        let sa = a.scope(0xDEAD_BEEF);
        let sb = b.scope(0xDEAD_BEEF);
        for seam in Seam::ALL {
            assert_eq!(
                drain_scope(&sa, seam, 300),
                drain_scope(&sb, seam, 300),
                "same (seed, key, attempt) must replay at {seam}"
            );
        }
        // …and a retry of the key draws a different stream (the fault
        // sequence must not be pinned to the key forever). A hot rate
        // makes stream divergence overwhelmingly likely.
        let hot = Arc::new(FaultPlan::new(
            FaultConfig::new(7).with_rate(Seam::FbAlloc, 500_000),
        ));
        let attempt0 = drain_scope(&hot.scope(0xDEAD_BEEF), Seam::FbAlloc, 64);
        let attempt1 = drain_scope(&hot.scope(0xDEAD_BEEF), Seam::FbAlloc, 64);
        assert_ne!(attempt0, attempt1, "attempt number salts the stream");
    }

    #[test]
    fn scoped_decisions_ignore_other_requests_traffic() {
        // The same key sees the same faults no matter how much other
        // keys (or the global counters) were queried first.
        let quiet = Arc::new(FaultPlan::new(FaultConfig::chaos(7)));
        let busy = Arc::new(FaultPlan::new(FaultConfig::chaos(7)));
        for _ in 0..500 {
            let _ = busy.decide(Seam::FbAlloc);
        }
        let other = busy.scope(1);
        for _ in 0..500 {
            let _ = other.decide(Seam::FbAlloc);
        }
        let sq = quiet.scope(42);
        let sb = busy.scope(42);
        let a: Vec<_> = (0..300).map(|_| sq.decide(Seam::FbAlloc)).collect();
        let b: Vec<_> = (0..300).map(|_| sb.decide(Seam::FbAlloc)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn scoped_queries_account_to_the_plan_snapshot() {
        let plan = Arc::new(FaultPlan::new(FaultConfig::new(9)));
        let scope = plan.scope(5);
        for _ in 0..40 {
            let _ = scope.decide(Seam::FbAlloc);
        }
        let _ = plan.decide(Seam::FbAlloc);
        let snap = plan.snapshot();
        assert_eq!(snap.seams[3].queries, 41, "scope queries are counted");
    }

    #[test]
    fn reactor_seams_map_to_their_flavors() {
        let always = FaultPlan::new(
            FaultConfig::new(3)
                .with_rate(Seam::PollError, 1_000_000)
                .with_rate(Seam::AcceptFail, 1_000_000)
                .with_rate(Seam::FdExhausted, 1_000_000)
                .with_rate(Seam::TickPanic, 1_000_000),
        );
        assert!(matches!(
            always.decide(Seam::PollError),
            Some(Fault::PollFail)
        ));
        assert!(matches!(
            always.decide(Seam::AcceptFail),
            Some(Fault::Disconnect)
        ));
        assert!(matches!(
            always.decide(Seam::FdExhausted),
            Some(Fault::FdExhausted)
        ));
        assert!(matches!(
            always.decide(Seam::TickPanic),
            Some(Fault::TickPanic)
        ));
        // The reactor seams extend the snapshot *after* the seven
        // original seams, so historical seam indices stay stable.
        let snap = always.snapshot();
        assert_eq!(snap.seams[5].seam, "serve.read");
        assert_eq!(snap.seams[10].seam, "serve.tick");
        assert_eq!((snap.seams[10].queries, snap.seams[10].fired), (1, 1));
    }

    #[test]
    fn store_seams_map_to_their_flavors() {
        let always = FaultPlan::new(
            FaultConfig::new(3)
                .with_rate(Seam::StoreAppend, 1_000_000)
                .with_rate(Seam::StoreFsync, 1_000_000)
                .with_rate(Seam::StoreLoad, 1_000_000),
        );
        assert!(matches!(
            always.decide(Seam::StoreAppend),
            Some(Fault::ShortWrite)
        ));
        assert!(matches!(
            always.decide(Seam::StoreFsync),
            Some(Fault::FsyncFail)
        ));
        assert!(matches!(
            always.decide(Seam::StoreLoad),
            Some(Fault::CorruptRecord)
        ));
        // The store seams extend the snapshot *after* the reactor
        // seams, so historical seam indices stay stable.
        let snap = always.snapshot();
        assert_eq!(snap.seams[10].seam, "serve.tick");
        assert_eq!(snap.seams[11].seam, "store.append");
        assert_eq!(snap.seams[13].seam, "store.load");
        assert_eq!((snap.seams[11].queries, snap.seams[11].fired), (1, 1));
    }

    #[test]
    fn sequence_hash_is_order_independent() {
        let fwd = FaultPlan::new(FaultConfig::chaos(11));
        for seam in Seam::ALL {
            let _ = drain(&fwd, seam, 100);
        }
        let rev = FaultPlan::new(FaultConfig::chaos(11));
        for seam in Seam::ALL.iter().rev() {
            let _ = drain(&rev, *seam, 100);
        }
        assert_eq!(fwd.snapshot().sequence_hash, rev.snapshot().sequence_hash);
    }
}
