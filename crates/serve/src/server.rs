//! The scheduling daemon — a readiness-driven reactor.
//!
//! One thread owns every socket: the listener and all connections are
//! nonblocking and multiplexed through `poll(2)` (see [`crate::sys`]).
//! Received bytes accumulate in per-connection [`FrameBuffer`]s and are
//! scanned zero-copy; decoded `schedule` requests resolve to a
//! canonical [`request_key`] and go through the sharded
//! [`OutcomeCache`]: hits are answered inline by splicing the
//! pre-serialized outcome into the connection's write buffer
//! ([`render_scheduled`]), the single leader per key is pushed onto a
//! **bounded admission queue** split into strict-priority QoS lanes
//! (full lane → typed `overloaded` rejection, not unbounded memory)
//! and computed by a fixed worker pool, and concurrent requesters of
//! an in-flight key park as *waiters* — no thread blocks — until the
//! leader's completion fans the shared result out to all of them
//! through the completion queue and the reactor's [`Waker`].
//!
//! Overload and abuse defenses (DESIGN.md §14): per-class lane
//! quotas, a dequeue-side queue-delay governor that sheds stale
//! lower-class work, deadline-expired jobs answered without running,
//! idle/write-stall connection reaping, and a per-connection buffer
//! cap. The reactor itself is crash-only: [`Server::run`] supervises
//! the tick loop under `catch_unwind`, so a panicking tick (or an
//! injected poll failure) recycles the incarnation while the
//! listener, caches, queue, and workers survive.
//!
//! Responses on a connection are delivered in request order (a
//! per-connection FIFO of pending slots), so pipelined clients can keep
//! many requests in flight and still match responses positionally. The
//! `shutdown` verb drains gracefully: the listener stops accepting,
//! buffered frames are answered, in-flight computations finish, then
//! [`Server::run`] returns.
//!
//! Identical request lines are memoized (bytes → resolved pipeline
//! inputs), so a hot key's steady state costs a hash lookup and a
//! buffer splice instead of a JSON parse and an application rebuild.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcds_core::{
    arch_key, compose_key, structure_key, CancelToken, Counter, Fault, FaultPlan, Histogram,
    McdsError, MetricsRegistry, Pipeline, PipelineRun, SchedulerConfig, SchedulerKind, Seam,
};
use mcds_model::{Application, ArchParams, ClusterSchedule, Words};
use serde::{Deserialize, Serialize};

use crate::cache::{
    degraded_key, AnalysisLookup, CachedEntry, CachedResult, FlightGuard, Lookup, OutcomeCache,
    Token, DEFAULT_SHARDS,
};
use crate::protocol::{
    decode_request, render_scheduled, ErrorCode, FrameBuffer, FrameError, Outcome, QosClass,
    ScheduleSpec, Scheduled, ServeError, ServeRequest, ServeResponse, StatEntry, StatsReply,
};
use crate::store::{OutcomeStore, StoreConfig};
use crate::sys::{PollSet, Waker};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads computing schedules.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects instead of
    /// buffering. `0` rejects every compute (useful for overload
    /// tests).
    pub queue_depth: usize,
    /// Upper bound on one reactor tick's `poll` timeout in
    /// milliseconds (completions and I/O wake it earlier).
    pub poll_ms: u64,
    /// Largest accepted request frame in bytes; a connection that
    /// buffers more without a newline gets a typed error and is
    /// dropped instead of growing memory without bound.
    pub max_frame_bytes: usize,
    /// Outcome-cache shard count (rounded up to a power of two).
    pub shards: usize,
    /// Deterministic fault-injection plan for robustness testing
    /// (`None` in production: zero injected faults).
    pub faults: Option<Arc<FaultPlan>>,
    /// Enables the degraded fallback path: a full-CDS request whose
    /// run is cancelled (deadline, injected stage fault) is re-run
    /// through the cheaper within-cluster-only scheduler and served
    /// with `degraded: true` instead of failing.
    pub degrade: bool,
    /// Requests with a deadline below this many milliseconds skip the
    /// full CDS entirely and go straight to the degraded scheduler
    /// (`0` disables the upfront check).
    pub degrade_below_ms: u64,
    /// Per-class admission-lane quotas `[priority, standard, batch]`;
    /// a lane left at `0` inherits [`queue_depth`](Self::queue_depth).
    /// Lanes are drained in strict priority order, so a small batch
    /// quota bounds how much background traffic can queue behind
    /// latency-sensitive work.
    pub qos_quotas: [usize; 3],
    /// Queue sojourn (milliseconds) beyond which the dequeue-side
    /// governor sheds stale jobs from lanes *below* the one being
    /// served — a CoDel-style early drop under sustained overload.
    /// The priority lane is never shed. `0` disables shedding.
    pub shed_after_ms: u64,
    /// A connection with no *complete* frame for this many
    /// milliseconds (and nothing pending or unwritten) is reaped —
    /// the slow-loris/connect-and-idle defense. `0` disables.
    pub idle_timeout_ms: u64,
    /// A connection with unwritten output making no flush progress for
    /// this many milliseconds is dropped (stalled reader). `0`
    /// disables.
    pub write_stall_ms: u64,
    /// Cap on one connection's total buffered bytes (unread frames +
    /// unwritten responses). Exceeding it gets a typed `overloaded`
    /// error and the connection is closed after flushing — per-peer
    /// memory stays bounded under frame floods and stalled readers.
    /// `0` disables.
    pub max_conn_buffer_bytes: usize,
    /// WAL-backed durability ([`OutcomeStore`]): `Some` warm-starts
    /// the outcome cache from the store directory before accepting and
    /// journals every committed entry; `None` serves memory-only (the
    /// pre-durability behavior).
    pub store: Option<StoreConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .clamp(1, 8),
            queue_depth: 64,
            poll_ms: 25,
            max_frame_bytes: 256 * 1024,
            shards: DEFAULT_SHARDS,
            faults: None,
            degrade: true,
            degrade_below_ms: 0,
            qos_quotas: [0, 0, 0],
            shed_after_ms: 250,
            idle_timeout_ms: 60_000,
            write_stall_ms: 10_000,
            max_conn_buffer_bytes: 1024 * 1024,
            store: None,
        }
    }
}

/// What one server lifetime handled, returned by [`Server::run`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Total request lines handled.
    pub requests: u64,
    /// `schedule` cache hits (including single-flight waiters).
    pub cache_hits: u64,
    /// `schedule` computations performed.
    pub cache_misses: u64,
    /// Overload rejections (admission queue full).
    pub rejected: u64,
    /// Runs abandoned on a deadline.
    pub deadline_misses: u64,
    /// Malformed or failed requests.
    pub errors: u64,
    /// Worker threads recycled after a panic (supervised recovery).
    #[serde(default)]
    pub worker_restarts: u64,
    /// Requests served by the degraded fallback scheduler.
    #[serde(default)]
    pub degraded: u64,
    /// Faults the attached [`FaultPlan`] injected (all seams).
    #[serde(default)]
    pub faults_injected: u64,
    /// Computations that reused a memoized analysis (arch-only
    /// variants of an already-analyzed workload structure).
    #[serde(default)]
    pub analysis_hits: u64,
    /// Computations that had to run the analysis front half.
    #[serde(default)]
    pub analysis_misses: u64,
    /// Reactor incarnations recycled by the supervisor after a panic
    /// or an injected poll failure (listener and caches survive).
    #[serde(default)]
    pub reactor_restarts: u64,
    /// Queued jobs shed by the queue-delay governor (all lanes).
    #[serde(default)]
    pub qos_shed: u64,
    /// Jobs whose deadline expired while queued, answered `deadline`
    /// without running.
    #[serde(default)]
    pub qos_expired: u64,
    /// Connections closed for exceeding the per-connection buffer cap.
    #[serde(default)]
    pub conn_overflows: u64,
    /// Connections reaped by the idle timeout.
    #[serde(default)]
    pub idle_reaped: u64,
    /// Connections dropped by the write-stall timeout.
    #[serde(default)]
    pub write_stalls: u64,
    /// Cache entries recovered from the durability store at startup
    /// (warm start; 0 when no store is attached).
    #[serde(default)]
    pub store_recovered: u64,
    /// Bytes recovery discarded after the last valid journal record.
    #[serde(default)]
    pub store_dropped: u64,
    /// Invalid frames that cut a recovery scan.
    #[serde(default)]
    pub store_corrupt: u64,
    /// Journal records appended this lifetime.
    #[serde(default)]
    pub store_appends: u64,
    /// Snapshot compactions performed this lifetime.
    #[serde(default)]
    pub store_compactions: u64,
    /// Clean-shutdown markers written (1 after a graceful drain).
    #[serde(default)]
    pub store_clean_shutdown: u64,
}

/// A `schedule` line resolved into pipeline inputs, shared between the
/// reactor's memo table and the worker that computes it.
struct Resolved {
    app: Application,
    sched: Option<ClusterSchedule>,
    arch: ArchParams,
    kind: SchedulerKind,
    /// Canonical content key of the *full-quality* request.
    key: u64,
    /// The workload-structure half of `key` — the analysis cache's
    /// address, shared by every arch/scheduler variant.
    structure_key: u64,
    deadline_ms: Option<u64>,
    /// Admission lane (not part of `key` — identical computations
    /// share one cache entry whatever class requested them).
    class: QosClass,
}

/// Memoized fate of an exact request line (bytes → outcome of the
/// parse/resolve stage, which is a pure function of the line).
#[derive(Clone)]
enum Memo {
    Good(Arc<Resolved>),
    /// A refused line, with the verb its first reply echoed (`unknown`
    /// for a decode failure, `schedule` for a resolve failure).
    Bad {
        code: ErrorCode,
        message: Arc<str>,
        verb: &'static str,
    },
}

/// Parse-memo capacity; lines beyond this are simply not memoized.
const MEMO_CAP: usize = 16 * 1024;

/// The largest `iterations × kernels` a `schedule` request may ask for
/// (2^20). Planning at RF 1 builds one stage per iteration and cluster,
/// and an application has at most one cluster per kernel, so this
/// bounds what one request can make the planner allocate.
const MAX_ITERATION_KERNELS: u64 = 1 << 20;

/// The largest expansion cap a `search:<beam>:<cap>` request may ask for
/// (100,000, the cap of `BENCH_search.json`'s committed grid). The
/// search is exponential in the candidates, cap 0 means unlimited, and
/// cancellation is polled only between pipeline stages, so a deadline
/// cannot stop a search once it runs.
const MAX_SEARCH_EXPANSIONS: u32 = 100_000;

/// One admitted computation.
struct Job {
    resolved: Arc<Resolved>,
    /// Scheduler actually run (`Ds` when routed degraded upfront).
    kind: SchedulerKind,
    /// `true` when the request was routed to the degraded scheduler
    /// upfront (tight deadline). Degraded jobs run clean and
    /// uncancellable — they exist to return *something*.
    degraded: bool,
    cancel: Option<CancelToken>,
    guard: FlightGuard,
    /// The leader's reply token (waiter tokens live in the cache).
    leader: Token,
    /// Lane this job was admitted on.
    class: QosClass,
    /// When the job entered its lane — drives the queue-delay governor
    /// and the dequeue-side deadline drop.
    enqueued: Instant,
}

struct QueueState {
    /// One FIFO per class, indexed by [`QosClass::index`] and drained
    /// in strict priority order.
    lanes: [VecDeque<Box<Job>>; 3],
    closed: bool,
}

/// The bounded admission queue, split into strict-priority QoS lanes.
struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Per-lane capacity, indexed by [`QosClass::index`].
    quotas: [usize; 3],
    /// Sojourn beyond which lower lanes are shed at dequeue (`None`
    /// disables the governor).
    shed_after: Option<Duration>,
}

impl JobQueue {
    fn new(quotas: [usize; 3], shed_after: Option<Duration>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            available: Condvar::new(),
            quotas,
            shed_after,
        }
    }

    /// Admits the job onto its class lane, or hands it back (with
    /// whether the queue was closed rather than the lane full) — the
    /// caller turns that into a typed rejection.
    fn try_push(&self, job: Box<Job>) -> Result<(), (Box<Job>, bool)> {
        let lane = job.class.index();
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err((job, true));
        }
        if state.lanes[lane].len() >= self.quotas[lane] {
            return Err((job, false));
        }
        state.lanes[lane].push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Next job in strict priority order, blocking; `None` once the
    /// queue is closed and drained. When the popped job itself waited
    /// longer than `shed_after`, the queue is congested: stale heads
    /// of every lane *below* the popped one are shed (lowest class
    /// first) and returned for the caller to answer `overloaded` —
    /// the priority lane can never appear below another and so is
    /// never shed.
    // Shed jobs stay boxed: they were boxed on the lane and the caller
    // answers each one exactly as it would a popped job.
    #[allow(clippy::vec_box)]
    fn pop(&self) -> Option<(Box<Job>, Vec<Box<Job>>)> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            let lane = state.lanes.iter().position(|l| !l.is_empty());
            if let Some(lane) = lane {
                let job = state.lanes[lane].pop_front().expect("non-empty lane");
                let mut shed = Vec::new();
                if let Some(limit) = self.shed_after {
                    if job.enqueued.elapsed() > limit {
                        for lower in ((lane + 1)..state.lanes.len()).rev() {
                            while state.lanes[lower]
                                .front()
                                .is_some_and(|j| j.enqueued.elapsed() > limit)
                            {
                                shed.push(state.lanes[lower].pop_front().expect("checked front"));
                            }
                        }
                    }
                }
                return Some((job, shed));
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Current per-lane depths `[priority, standard, batch]`.
    fn depths(&self) -> [usize; 3] {
        let state = self.state.lock().expect("queue lock");
        [
            state.lanes[0].len(),
            state.lanes[1].len(),
            state.lanes[2].len(),
        ]
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }
}

/// How a worker's completion answers one parked request.
enum ReplyPayload {
    /// A published cache entry: render as hit/miss (successes splice
    /// the pre-serialized outcome; cached deterministic failures render
    /// as typed errors).
    Entry {
        key: u64,
        hit: bool,
        entry: CachedResult,
    },
    /// A transient, uncached failure.
    Error {
        code: ErrorCode,
        message: Arc<str>,
        key: u64,
        /// `true` for the leader of an abandoned run (it *was* the
        /// cache miss); waiters count neither hit nor miss.
        count_miss: bool,
        /// `true` when the failure counts under `serve.errors`
        /// (waiter-deadline expiries count only `deadline_misses`,
        /// matching the pre-reactor server).
        count_error: bool,
    },
}

struct Reply {
    token: Token,
    payload: ReplyPayload,
}

/// Pre-resolved metric handles — the hot path never re-hashes a
/// counter name.
struct Counters {
    requests: Counter,
    hits: Counter,
    misses: Counter,
    rejected: Counter,
    deadline_misses: Counter,
    errors: Counter,
    worker_restarts: Counter,
    degraded: Counter,
    analysis_hits: Counter,
    analysis_misses: Counter,
    latency: Histogram,
    /// Per-class admissions, indexed by [`QosClass::index`].
    qos_admitted: [Counter; 3],
    /// Per-class lane-full rejections.
    qos_rejected: [Counter; 3],
    /// Per-class queue-delay sheds.
    qos_shed: [Counter; 3],
    qos_expired: Counter,
    reactor_restarts: Counter,
    conn_overflows: Counter,
    idle_reaped: Counter,
    write_stalls: Counter,
    /// Total buffered bytes per connection, observed each service
    /// round — its `.max` is the per-peer memory high-water mark.
    buffer_bytes: Histogram,
}

impl Counters {
    fn new(metrics: &Arc<MetricsRegistry>) -> Counters {
        let per_class =
            |stem: &str| QosClass::ALL.map(|c| metrics.counter(&format!("serve.qos.{stem}.{c}")));
        Counters {
            requests: metrics.counter("serve.requests"),
            hits: metrics.counter("serve.cache.hits"),
            misses: metrics.counter("serve.cache.misses"),
            rejected: metrics.counter("serve.rejected"),
            deadline_misses: metrics.counter("serve.deadline_misses"),
            errors: metrics.counter("serve.errors"),
            worker_restarts: metrics.counter("serve.worker_restarts"),
            degraded: metrics.counter("serve.degraded"),
            analysis_hits: metrics.counter("serve.analysis.hits"),
            analysis_misses: metrics.counter("serve.analysis.misses"),
            latency: metrics.histogram("serve.latency_us"),
            qos_admitted: per_class("admitted"),
            qos_rejected: per_class("rejected"),
            qos_shed: per_class("shed"),
            qos_expired: metrics.counter("serve.qos.expired"),
            reactor_restarts: metrics.counter("serve.reactor_restarts"),
            conn_overflows: metrics.counter("serve.conn.overflow"),
            idle_reaped: metrics.counter("serve.conn.idle_reaped"),
            write_stalls: metrics.counter("serve.conn.write_stalls"),
            buffer_bytes: metrics.histogram("serve.conn.buffer_bytes"),
        }
    }
}

/// Shared state of one server lifetime (reactor + workers).
struct Ctx {
    cache: Arc<OutcomeCache>,
    /// WAL-backed durability; `None` = memory-only serving.
    store: Option<Arc<OutcomeStore>>,
    metrics: Arc<MetricsRegistry>,
    queue: JobQueue,
    /// Worker → reactor completion queue; pushing wakes the reactor.
    completions: Mutex<Vec<Reply>>,
    waker: Waker,
    faults: Option<Arc<FaultPlan>>,
    fault_delay: Duration,
    degrade: bool,
    degrade_below_ms: u64,
    counters: Counters,
    /// Jobs a worker has dequeued but not yet completed — a live
    /// gauge, read by the `stats` verb.
    inflight: AtomicU64,
}

impl Ctx {
    /// One fault decision at a serve-side seam; firing bumps the
    /// seam's `fault.*` counter.
    fn fault(&self, seam: Seam) -> Option<Fault> {
        let fault = self.faults.as_ref()?.decide(seam)?;
        self.metrics.incr(seam.metric());
        Some(fault)
    }

    /// Hands completed replies to the reactor and wakes it.
    fn complete(&self, replies: Vec<Reply>) {
        if replies.is_empty() {
            return;
        }
        self.completions
            .lock()
            .expect("completion lock")
            .extend(replies);
        self.waker.wake();
    }
}

/// A bound, not-yet-running scheduling daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
}

impl Server {
    /// Binds the listener (without accepting yet).
    ///
    /// # Errors
    ///
    /// [`McdsError::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, McdsError> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            config,
            metrics: Arc::new(MetricsRegistry::new()),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (shared with the pipelines it
    /// runs; also exposed over the wire via the `stats` verb).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Serves until a `shutdown` request arrives, then drains: buffered
    /// requests on open connections are answered, queued jobs finish,
    /// and the final counters are returned.
    ///
    /// # Errors
    ///
    /// [`McdsError::Io`] on listener/poll failures. Per-connection and
    /// per-request errors never abort the server.
    pub fn run(self) -> Result<ServeSummary, McdsError> {
        self.listener.set_nonblocking(true)?;
        let quotas = [0, 1, 2].map(|lane| {
            let quota = self.config.qos_quotas[lane];
            if quota == 0 {
                self.config.queue_depth
            } else {
                quota
            }
        });
        let shed_after = if self.config.shed_after_ms == 0 {
            None
        } else {
            Some(Duration::from_millis(self.config.shed_after_ms))
        };
        // Warm start: rebuild the cache from the durability store
        // (snapshot + journal) before the first connection is
        // accepted, so recovered keys serve as hits with zero pipeline
        // re-runs. A store open failure is fatal — the operator asked
        // for durability; running without it silently would be worse.
        let cache = OutcomeCache::with_shards(self.config.shards);
        let store = match &self.config.store {
            Some(config) => Some(OutcomeStore::open(
                config,
                &cache,
                &self.metrics,
                self.config.faults.clone(),
            )?),
            None => None,
        };
        let ctx = Ctx {
            cache: Arc::clone(&cache),
            store: store.clone(),
            metrics: Arc::clone(&self.metrics),
            queue: JobQueue::new(quotas, shed_after),
            completions: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            fault_delay: Duration::from_micros(
                self.config
                    .faults
                    .as_ref()
                    .map_or(0, |f| f.config().delay_us),
            ),
            faults: self.config.faults.clone(),
            degrade: self.config.degrade,
            degrade_below_ms: self.config.degrade_below_ms,
            counters: Counters::new(&self.metrics),
            inflight: AtomicU64::new(0),
        };
        std::thread::scope(|s| -> Result<(), McdsError> {
            for _ in 0..self.config.workers.max(1) {
                s.spawn(|| worker_loop(&ctx));
            }
            // Crash-only supervision: a reactor incarnation is
            // disposable — the listener, the outcome/analysis caches,
            // the admission queue, and the worker pool all live out
            // here and survive a tick panic (or an injected poll
            // failure) intact. Connections and the parse memo die with
            // the incarnation; clients see a transport error and
            // retry, the memo rebuilds itself.
            let result = loop {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Reactor::new(&ctx, &self.listener, &self.config).run()
                }));
                match outcome {
                    Ok(Ok(())) => break Ok(()),
                    Ok(Err(McdsError::Faulted(_))) | Err(_) => {
                        ctx.counters.reactor_restarts.incr();
                    }
                    Ok(Err(e)) => break Err(e),
                }
            };
            ctx.queue.close();
            result
        })?;
        // Graceful drain finished (workers joined, listener closed):
        // flush everything into a clean snapshot and mark the journal
        // so the next recovery can prove nothing is torn.
        if let Some(store) = &store {
            store.clean_shutdown(&cache);
        }
        let count = |name: &str| self.metrics.get(name).unwrap_or(0);
        Ok(ServeSummary {
            requests: count("serve.requests"),
            cache_hits: count("serve.cache.hits"),
            cache_misses: count("serve.cache.misses"),
            rejected: count("serve.rejected"),
            deadline_misses: count("serve.deadline_misses"),
            errors: count("serve.errors"),
            worker_restarts: count("serve.worker_restarts"),
            degraded: count("serve.degraded"),
            faults_injected: self
                .config
                .faults
                .as_ref()
                .map_or(0, |f| f.snapshot().total_fired()),
            analysis_hits: count("serve.analysis.hits"),
            analysis_misses: count("serve.analysis.misses"),
            reactor_restarts: count("serve.reactor_restarts"),
            qos_shed: QosClass::ALL
                .iter()
                .map(|c| count(&format!("serve.qos.shed.{c}")))
                .sum(),
            qos_expired: count("serve.qos.expired"),
            conn_overflows: count("serve.conn.overflow"),
            idle_reaped: count("serve.conn.idle_reaped"),
            write_stalls: count("serve.conn.write_stalls"),
            store_recovered: count("serve.store.recovered"),
            store_dropped: count("serve.store.dropped"),
            store_corrupt: count("serve.store.corrupt"),
            store_appends: count("serve.store.appends"),
            store_compactions: count("serve.store.compactions"),
            store_clean_shutdown: count("serve.store.clean_shutdown"),
        })
    }
}

/// Packs a reply token from a connection generation and request slot.
fn pack_token(gen: u32, slot: u32) -> Token {
    (u64::from(gen) << 32) | u64::from(slot)
}

fn token_gen(token: Token) -> u32 {
    (token >> 32) as u32
}

fn token_slot(token: Token) -> u32 {
    token as u32
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(unix)]
fn fd_of<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

/// One parked response position in a connection's FIFO. Responses are
/// written strictly in request order, so a pipelined client can match
/// them positionally.
struct PendingSlot {
    slot: u32,
    started: Instant,
    state: SlotState,
}

enum SlotState {
    /// The request is computing (leader) or parked on another flight
    /// (waiter).
    Waiting,
    /// The rendered response, ready to pump once it reaches the front.
    Done(Vec<u8>),
}

/// One nonblocking connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    gen: u32,
    frames: FrameBuffer,
    /// Rendered-but-unwritten response bytes.
    out: Vec<u8>,
    out_pos: usize,
    pending: VecDeque<PendingSlot>,
    next_slot: u32,
    /// Remaining chunks of an injected slow-loris write, dribbled out
    /// by timer.
    dribble: VecDeque<Vec<u8>>,
    /// No more bytes will be read (EOF, drain, or a fatal frame
    /// error).
    read_done: bool,
    /// Close once `out` and `dribble` are fully written.
    close_after_flush: bool,
    /// Close immediately; discard anything unwritten.
    broken: bool,
    /// Last *complete* frame processed (connect time until the
    /// first) — a peer dribbling bytes without ever finishing a frame
    /// still reads as idle, which is the slow-loris defense.
    last_frame: Instant,
    /// Last time `flush` moved bytes into the socket; a stalled
    /// reader stops making progress here.
    last_write_progress: Instant,
}

impl Conn {
    /// Everything this peer is making the server hold: unparsed frame
    /// bytes, parked/rendered responses, and the unwritten tail.
    fn buffered_bytes(&self) -> usize {
        let pending: usize = self
            .pending
            .iter()
            .map(|s| match &s.state {
                SlotState::Done(bytes) => bytes.len(),
                SlotState::Waiting => 0,
            })
            .sum();
        let dribble: usize = self.dribble.iter().map(Vec::len).sum();
        (self.out.len() - self.out_pos) + pending + dribble + self.frames.len()
    }
}

enum TimerEvent {
    /// A parked waiter's own deadline: deregister it from the flight
    /// and answer a typed retryable `deadline` error.
    WaiterDeadline { token: Token, key: u64 },
    /// Next chunk of an injected slow-loris write.
    Dribble { gen: u32 },
}

struct TimerEntry {
    at: Instant,
    seq: u64,
    event: TimerEvent,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The single-threaded reactor: owns every socket, the timer heap, and
/// the parse memo; workers only ever touch the cache, the queue, and
/// the completion queue.
struct Reactor<'a> {
    ctx: &'a Ctx,
    listener: &'a TcpListener,
    poll_ms: u64,
    max_frame_bytes: usize,
    idle_timeout: Duration,
    write_stall: Duration,
    max_conn_buffer: usize,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    by_gen: HashMap<u32, usize>,
    next_gen: u32,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    draining: bool,
    drained_buffered: bool,
    /// Set by an injected [`Seam::PollError`]: the tick loop bails out
    /// with [`McdsError::Faulted`] at the next loop head and the
    /// supervisor starts a fresh incarnation.
    poll_failed: bool,
    last_sweep: Instant,
    memo: HashMap<Box<[u8]>, Memo>,
    poll: PollSet,
    chunk: Vec<u8>,
}

impl<'a> Reactor<'a> {
    fn new(ctx: &'a Ctx, listener: &'a TcpListener, config: &ServeConfig) -> Reactor<'a> {
        Reactor {
            ctx,
            listener,
            poll_ms: config.poll_ms.max(1),
            max_frame_bytes: config.max_frame_bytes,
            idle_timeout: Duration::from_millis(config.idle_timeout_ms),
            write_stall: Duration::from_millis(config.write_stall_ms),
            max_conn_buffer: config.max_conn_buffer_bytes,
            conns: Vec::new(),
            free: Vec::new(),
            by_gen: HashMap::new(),
            next_gen: 1,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            draining: false,
            drained_buffered: false,
            poll_failed: false,
            last_sweep: Instant::now(),
            memo: HashMap::new(),
            poll: PollSet::new(),
            chunk: vec![0u8; 64 * 1024],
        }
    }

    fn run(&mut self) -> Result<(), McdsError> {
        loop {
            if self.poll_failed {
                return Err(McdsError::Faulted("injected poll failure".to_owned()));
            }
            let replies =
                std::mem::take(&mut *self.ctx.completions.lock().expect("completion lock"));
            for reply in replies {
                self.deliver(reply);
            }
            for (key, waiters) in self.ctx.cache.take_orphans() {
                for token in waiters {
                    self.deliver(Reply {
                        token,
                        payload: ReplyPayload::Error {
                            code: ErrorCode::Faulted,
                            message: Arc::from("worker died; the request is retryable"),
                            key,
                            count_miss: false,
                            count_error: true,
                        },
                    });
                }
            }
            self.fire_due_timers();
            self.reap_slow_peers();
            if self.draining && !self.drained_buffered {
                self.drained_buffered = true;
                for idx in 0..self.conns.len() {
                    if let Some(mut conn) = self.conns[idx].take() {
                        self.drain_frames(&mut conn);
                        conn.read_done = true;
                        self.finish(idx, conn);
                    }
                }
            }
            if self.draining && self.by_gen.is_empty() {
                return Ok(());
            }
            let (listener_idx, waker_idx, conn_poll) = self.build_poll_set();
            let timeout = self.poll_timeout();
            self.poll.poll(timeout)?;
            self.ctx.waker.drain();
            let _ = waker_idx;
            if listener_idx.is_some_and(|idx| self.poll.readable(idx)) {
                self.accept_all()?;
            }
            for (idx, pidx) in conn_poll {
                if self.poll.readable(pidx) {
                    self.service_readable(idx);
                } else if self.poll.writable(pidx) {
                    if let Some(conn) = self.conns[idx].take() {
                        self.finish(idx, conn);
                    }
                }
            }
        }
    }

    /// Registers every live descriptor for the next `poll`; returns the
    /// poll indices of the listener, the waker, and each interested
    /// connection.
    #[allow(clippy::type_complexity)]
    fn build_poll_set(&mut self) -> (Option<usize>, Option<usize>, Vec<(usize, usize)>) {
        self.poll.clear();
        let listener_idx = if self.draining {
            None
        } else {
            Some(self.poll.push(fd_of(self.listener), true, false))
        };
        let waker_fd = self.ctx.waker.fd();
        let waker_idx = if waker_fd >= 0 {
            Some(self.poll.push(waker_fd, true, false))
        } else {
            None
        };
        let mut conn_poll = Vec::new();
        for (i, slot) in self.conns.iter().enumerate() {
            if let Some(conn) = slot {
                let want_read = !conn.read_done;
                let want_write = conn.out_pos < conn.out.len();
                if want_read || want_write {
                    conn_poll.push((
                        i,
                        self.poll.push(fd_of(&conn.stream), want_read, want_write),
                    ));
                }
            }
        }
        (listener_idx, waker_idx, conn_poll)
    }

    /// Poll timeout in ms: the configured tick, shortened to the next
    /// due timer.
    fn poll_timeout(&self) -> i32 {
        let mut timeout = i64::try_from(self.poll_ms).unwrap_or(i64::MAX);
        if let Some(Reverse(next)) = self.timers.peek() {
            let until = next
                .at
                .saturating_duration_since(Instant::now())
                .as_millis();
            timeout = timeout.min(i64::try_from(until).unwrap_or(i64::MAX));
        }
        i32::try_from(timeout.clamp(0, 60_000)).unwrap_or(25)
    }

    /// Drops connections that stopped holding up their end: a peer
    /// with unwritten output and no flush progress for `write_stall`
    /// (stalled reader), or one that completed no frame for
    /// `idle_timeout` while owing the server nothing (connect-and-idle
    /// and slow-loris writers alike — `last_frame` only advances on
    /// *complete* frames). Runs at most every 100ms; the reactor loop
    /// already ticks at least every `poll_ms`.
    fn reap_slow_peers(&mut self) {
        if self.idle_timeout.is_zero() && self.write_stall.is_zero() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < Duration::from_millis(100) {
            return;
        }
        self.last_sweep = now;
        for idx in 0..self.conns.len() {
            let stalled;
            match &self.conns[idx] {
                Some(conn) => {
                    if !self.write_stall.is_zero()
                        && conn.out_pos < conn.out.len()
                        && now.duration_since(conn.last_write_progress) > self.write_stall
                    {
                        stalled = true;
                    } else if !self.idle_timeout.is_zero()
                        && conn.pending.is_empty()
                        && conn.dribble.is_empty()
                        && conn.out_pos >= conn.out.len()
                        && now.duration_since(conn.last_frame) > self.idle_timeout
                    {
                        stalled = false;
                    } else {
                        continue;
                    }
                }
                None => continue,
            }
            let Some(mut conn) = self.conns[idx].take() else {
                continue;
            };
            if stalled {
                self.ctx.counters.write_stalls.incr();
            } else {
                self.ctx.counters.idle_reaped.incr();
            }
            conn.broken = true;
            self.finish(idx, conn);
        }
    }

    fn accept_all(&mut self) -> Result<(), McdsError> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Injected accept-path failures, decided once per
                    // accepted socket (deterministic under chaos
                    // lockstep): the peer's connect already succeeded
                    // in the kernel, so dropping the stream here looks
                    // to the client like an immediate server-side
                    // close — exactly what a transient accept error or
                    // fd exhaustion produces.
                    if self.ctx.fault(Seam::AcceptFail).is_some()
                        || self.ctx.fault(Seam::FdExhausted).is_some()
                    {
                        drop(stream);
                        continue;
                    }
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    self.add_conn(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1);
        let conn = Conn {
            stream,
            gen,
            frames: FrameBuffer::new(self.max_frame_bytes),
            out: Vec::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            next_slot: 0,
            dribble: VecDeque::new(),
            read_done: false,
            close_after_flush: false,
            broken: false,
            last_frame: Instant::now(),
            last_write_progress: Instant::now(),
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.by_gen.insert(gen, idx);
    }

    fn service_readable(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        loop {
            // Backpressure, not unbounded slurp: once this peer has a
            // buffer cap's worth of unanswered input, stop reading and
            // leave the rest in the kernel buffer — poll re-arms on the
            // leftovers, and `enforce_buffer_cap` disconnects the peer
            // if it is flooding rather than merely bursty.
            if self.max_conn_buffer > 0 && conn.frames.len() >= self.max_conn_buffer {
                break;
            }
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    conn.read_done = true;
                    break;
                }
                Ok(n) => conn.frames.extend(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.broken = true;
                    break;
                }
            }
        }
        self.drain_frames(&mut conn);
        self.finish(idx, conn);
    }

    /// Answers every complete frame buffered on `conn`.
    fn drain_frames(&mut self, conn: &mut Conn) {
        if conn.broken || conn.close_after_flush {
            return;
        }
        let mut frames = std::mem::replace(&mut conn.frames, FrameBuffer::new(1));
        loop {
            match frames.next_frame() {
                Ok(Some(line)) => {
                    let line = line.trim();
                    if line.is_empty() {
                        continue;
                    }
                    conn.last_frame = Instant::now();
                    self.process_line(conn, line);
                    if conn.broken || conn.close_after_flush {
                        break;
                    }
                    // Small requests can render large responses: stop
                    // answering the moment the cap is crossed so the
                    // overshoot is bounded by one response, and let
                    // `enforce_buffer_cap` deliver the verdict.
                    if self.max_conn_buffer > 0 && conn.buffered_bytes() > self.max_conn_buffer {
                        break;
                    }
                }
                Ok(None) => break,
                Err(FrameError::InvalidUtf8) => {
                    // The bad frame was consumed — answer typed and
                    // keep serving this connection.
                    self.ctx.counters.errors.incr();
                    let failed = ServeResponse::Failed(ServeError {
                        code: ErrorCode::BadRequest,
                        message: FrameError::InvalidUtf8.to_string(),
                        key: None,
                        verb: "frame".to_owned(),
                        latency_us: 0,
                    });
                    self.queue_response(conn, &failed);
                }
                Err(err @ FrameError::Oversized { .. }) => {
                    // The frame boundary is lost: answer typed, then
                    // close instead of buffering forever.
                    self.ctx.counters.errors.incr();
                    let failed = ServeResponse::Failed(ServeError {
                        code: ErrorCode::Oversized,
                        message: err.to_string(),
                        key: None,
                        verb: "frame".to_owned(),
                        latency_us: 0,
                    });
                    self.queue_response(conn, &failed);
                    conn.read_done = true;
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        conn.frames = frames;
    }

    fn memo_insert(&mut self, line: &str, memo: Memo) {
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(line.as_bytes().into(), memo);
        }
    }

    fn process_line(&mut self, conn: &mut Conn, line: &str) {
        // An injected pre-processing disconnect drops the request (and
        // the connection) before it is even counted — the client must
        // retry on a fresh connection, as with a real peer reset.
        if matches!(self.ctx.fault(Seam::ServeRead), Some(Fault::Disconnect)) {
            conn.broken = true;
            return;
        }
        // Reactor-era seams, decided once per processed frame (never
        // per poll tick — tick counts are wall-clock dependent and
        // would break chaos replay). Both take down the incarnation:
        // a tick panic unwinds into the supervisor's `catch_unwind`,
        // an injected poll failure flags the loop to bail with
        // `Faulted` at the next head. No lock is held at this point,
        // so the unwind cannot poison shared state.
        if matches!(self.ctx.fault(Seam::TickPanic), Some(Fault::TickPanic)) {
            panic!("injected reactor tick panic");
        }
        if matches!(self.ctx.fault(Seam::PollError), Some(Fault::PollFail)) {
            self.poll_failed = true;
            conn.broken = true;
            return;
        }
        let started = Instant::now();
        self.ctx.counters.requests.incr();
        if let Some(memo) = self.memo.get(line.as_bytes()).cloned() {
            match memo {
                Memo::Good(resolved) => self.handle_schedule(conn, started, &resolved),
                Memo::Bad {
                    code,
                    message,
                    verb,
                } => {
                    self.ctx.counters.errors.incr();
                    self.respond_failed(conn, started, code, &message, verb, None);
                }
            }
            return;
        }
        let request = match decode_request(line) {
            Ok(decoded) => decoded,
            Err(err) => {
                self.ctx.counters.errors.incr();
                let code = err.code();
                let message = err.to_string();
                self.memo_insert(
                    line,
                    Memo::Bad {
                        code,
                        message: Arc::from(message.as_str()),
                        verb: "unknown",
                    },
                );
                self.respond_failed(conn, started, code, &message, "unknown", None);
                return;
            }
        };
        match request {
            ServeRequest::Ping => {
                let latency_us = self.observed_latency(started);
                self.queue_response(conn, &ServeResponse::Pong { latency_us });
            }
            ServeRequest::Stats => {
                let mut entries: Vec<StatEntry> = self
                    .ctx
                    .metrics
                    .snapshot()
                    .into_iter()
                    .map(|(name, value)| StatEntry { name, value })
                    .collect();
                // Live gauges (queue occupancy and in-flight work)
                // have no counter representation — compute them at
                // snapshot time and keep the reply sorted by name.
                let depths = self.ctx.queue.depths();
                entries.push(StatEntry {
                    name: "serve.queue.depth".to_owned(),
                    value: depths.iter().map(|&d| d as u64).sum(),
                });
                for (class, depth) in QosClass::ALL.iter().zip(depths) {
                    entries.push(StatEntry {
                        name: format!("serve.queue.depth.{class}"),
                        value: depth as u64,
                    });
                }
                entries.push(StatEntry {
                    name: "serve.inflight".to_owned(),
                    value: self.ctx.inflight.load(Ordering::Relaxed),
                });
                // Durability gauges: journal growth and snapshot epoch
                // are live store state, not counters. (Recovery totals
                // like `serve.store.recovered` already ride in the
                // registry snapshot above.)
                if let Some(store) = &self.ctx.store {
                    entries.push(StatEntry {
                        name: "serve.store.journal_bytes".to_owned(),
                        value: store.journal_bytes(),
                    });
                    entries.push(StatEntry {
                        name: "serve.store.snapshot_epoch".to_owned(),
                        value: store.snapshot_epoch(),
                    });
                }
                entries.sort_by(|a, b| a.name.cmp(&b.name));
                let latency_us = self.observed_latency(started);
                self.queue_response(
                    conn,
                    &ServeResponse::Stats(StatsReply {
                        entries,
                        latency_us,
                    }),
                );
            }
            ServeRequest::Shutdown => {
                self.draining = true;
                let latency_us = self.observed_latency(started);
                self.queue_response(conn, &ServeResponse::ShuttingDown { latency_us });
            }
            ServeRequest::Schedule(spec) => match resolve(spec) {
                Ok(resolved) => {
                    let resolved = Arc::new(resolved);
                    self.memo_insert(line, Memo::Good(Arc::clone(&resolved)));
                    self.handle_schedule(conn, started, &resolved);
                }
                Err(message) => {
                    self.ctx.counters.errors.incr();
                    self.memo_insert(
                        line,
                        Memo::Bad {
                            code: ErrorCode::BadRequest,
                            message: Arc::from(message.as_str()),
                            verb: "schedule",
                        },
                    );
                    self.respond_failed(
                        conn,
                        started,
                        ErrorCode::BadRequest,
                        &message,
                        "schedule",
                        None,
                    );
                }
            },
        }
    }

    fn handle_schedule(&mut self, conn: &mut Conn, started: Instant, resolved: &Arc<Resolved>) {
        let ctx = self.ctx;
        let deadline = resolved
            .deadline_ms
            .map(|ms| started + Duration::from_millis(ms));
        // Upfront degrade: when the deadline is too tight for the full
        // CDS to be worth attempting, route the request straight to the
        // cheaper within-cluster-only scheduler (its own cache key, no
        // cancellation — it exists to succeed).
        let degraded_upfront = ctx.degrade
            && ctx.degrade_below_ms > 0
            && resolved.kind == SchedulerKind::Cds
            && resolved
                .deadline_ms
                .is_some_and(|ms| ms < ctx.degrade_below_ms);
        let entry_key = if degraded_upfront {
            degraded_key(resolved.key)
        } else {
            resolved.key
        };
        let token = pack_token(conn.gen, conn.next_slot);
        match ctx.cache.lookup(entry_key, token) {
            Lookup::Hit(entry) => {
                ctx.counters.hits.incr();
                self.respond_entry(conn, started, entry_key, true, &entry);
            }
            Lookup::Wait => {
                push_waiting(conn, started);
                if let Some(at) = deadline {
                    self.schedule_timer(
                        at,
                        TimerEvent::WaiterDeadline {
                            token,
                            key: entry_key,
                        },
                    );
                }
            }
            Lookup::Lead(guard) => {
                let cancel = if degraded_upfront {
                    None
                } else {
                    Some(deadline.map_or_else(CancelToken::new, CancelToken::at))
                };
                let class = resolved.class;
                let job = Box::new(Job {
                    resolved: Arc::clone(resolved),
                    kind: if degraded_upfront {
                        SchedulerKind::Ds
                    } else {
                        resolved.kind
                    },
                    degraded: degraded_upfront,
                    cancel,
                    guard,
                    leader: token,
                    class,
                    enqueued: started,
                });
                match ctx.queue.try_push(job) {
                    Ok(()) => {
                        ctx.counters.qos_admitted[class.index()].incr();
                        push_waiting(conn, started);
                    }
                    Err((job, closed)) => {
                        let Job { guard, .. } = *job;
                        let _ = guard.abandon();
                        if closed {
                            ctx.counters.errors.incr();
                            self.respond_failed(
                                conn,
                                started,
                                ErrorCode::Shutdown,
                                "server is draining; no new computations admitted",
                                "schedule",
                                Some(entry_key),
                            );
                        } else {
                            ctx.counters.rejected.incr();
                            ctx.counters.qos_rejected[class.index()].incr();
                            self.respond_failed(
                                conn,
                                started,
                                ErrorCode::Overloaded,
                                "overloaded: admission lane full",
                                "schedule",
                                Some(entry_key),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Observes the latency histogram and returns the value.
    fn observed_latency(&self, started: Instant) -> u64 {
        let latency = elapsed_us(started);
        self.ctx.counters.latency.observe(latency);
        latency
    }

    fn respond_failed(
        &mut self,
        conn: &mut Conn,
        started: Instant,
        code: ErrorCode,
        message: &str,
        verb: &str,
        key: Option<u64>,
    ) {
        let latency_us = self.observed_latency(started);
        let failed = ServeResponse::Failed(ServeError {
            code,
            message: message.to_owned(),
            key,
            verb: verb.to_owned(),
            latency_us,
        });
        self.queue_response(conn, &failed);
    }

    /// Renders a cache entry (hit or leader-completed miss) for `conn`.
    fn respond_entry(
        &mut self,
        conn: &mut Conn,
        started: Instant,
        key: u64,
        hit: bool,
        entry: &CachedResult,
    ) {
        let latency_us = self.observed_latency(started);
        self.render_entry(conn, key, hit, entry, latency_us);
    }

    fn render_entry(
        &mut self,
        conn: &mut Conn,
        key: u64,
        hit: bool,
        entry: &CachedResult,
        latency_us: u64,
    ) {
        match (&entry.result, entry.outcome_json()) {
            (Ok(_), Some(json)) => {
                if self.ctx.faults.is_none() && conn.pending.is_empty() && conn.dribble.is_empty() {
                    // Hot path: splice straight into the write buffer —
                    // no intermediate allocation, no slot bookkeeping.
                    render_scheduled(&mut conn.out, key, hit, json.as_bytes(), latency_us);
                } else {
                    let mut bytes = Vec::with_capacity(json.len() + 160);
                    render_scheduled(&mut bytes, key, hit, json.as_bytes(), latency_us);
                    self.queue_bytes(conn, bytes);
                }
            }
            (Ok(outcome), None) => {
                // Unreachable in practice (successes pre-serialize),
                // but render correctly if an entry lacks its JSON.
                let response = ServeResponse::Scheduled(Scheduled {
                    key,
                    cache_hit: hit,
                    outcome: outcome.clone(),
                    latency_us,
                });
                self.queue_response(conn, &response);
            }
            (Err(err), _) => {
                self.ctx.counters.errors.incr();
                let failed = ServeResponse::Failed(ServeError {
                    code: err.code,
                    message: err.message.clone(),
                    key: Some(key),
                    verb: "schedule".to_owned(),
                    latency_us,
                });
                self.queue_response(conn, &failed);
            }
        }
    }

    fn queue_response(&mut self, conn: &mut Conn, response: &ServeResponse) {
        let mut bytes = response.encode().into_bytes();
        bytes.push(b'\n');
        self.queue_bytes(conn, bytes);
    }

    /// Appends a rendered response respecting the per-connection FIFO
    /// (and write-fault machinery when a fault plan is attached).
    fn queue_bytes(&mut self, conn: &mut Conn, bytes: Vec<u8>) {
        if self.ctx.faults.is_none() && conn.pending.is_empty() && conn.dribble.is_empty() {
            conn.out.extend_from_slice(&bytes);
            return;
        }
        conn.pending.push_back(PendingSlot {
            slot: conn.next_slot,
            started: Instant::now(),
            state: SlotState::Done(bytes),
        });
        conn.next_slot = conn.next_slot.wrapping_add(1);
        self.pump(conn);
    }

    /// Moves consecutive completed responses from the FIFO into the
    /// write buffer, applying per-response write faults in response
    /// order.
    fn pump(&mut self, conn: &mut Conn) {
        if !conn.dribble.is_empty() || conn.close_after_flush {
            return;
        }
        while matches!(
            conn.pending.front(),
            Some(PendingSlot {
                state: SlotState::Done(_),
                ..
            })
        ) {
            let slot = conn.pending.pop_front().expect("checked front");
            let SlotState::Done(bytes) = slot.state else {
                unreachable!("matched Done above");
            };
            match self.ctx.fault(Seam::ServeWrite) {
                Some(Fault::TruncateWrite) => {
                    // Mid-frame disconnect: half the frame, then the
                    // connection closes — the client sees a short read
                    // with no terminating newline.
                    conn.out.extend_from_slice(&bytes[..bytes.len() / 2]);
                    conn.pending.clear();
                    conn.dribble.clear();
                    conn.read_done = true;
                    conn.close_after_flush = true;
                    return;
                }
                Some(Fault::SlowWrite) => {
                    // Slow-loris writer: dribble the frame out in eight
                    // timer-delayed chunks. The frame still completes,
                    // so a patient client succeeds without a retry.
                    let piece = bytes.len().div_ceil(8).max(1);
                    for chunk in bytes.chunks(piece) {
                        conn.dribble.push_back(chunk.to_vec());
                    }
                    let at = Instant::now() + self.ctx.fault_delay;
                    self.schedule_timer(at, TimerEvent::Dribble { gen: conn.gen });
                    return;
                }
                Some(_) | None => conn.out.extend_from_slice(&bytes),
            }
        }
    }

    fn schedule_timer(&mut self, at: Instant, event: TimerEvent) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry { at, seq, event }));
    }

    fn fire_due_timers(&mut self) {
        let now = Instant::now();
        while self
            .timers
            .peek()
            .is_some_and(|Reverse(next)| next.at <= now)
        {
            let Reverse(entry) = self.timers.pop().expect("peeked");
            match entry.event {
                TimerEvent::WaiterDeadline { token, key } => {
                    if self.ctx.cache.cancel_wait(key, token) {
                        self.ctx.counters.deadline_misses.incr();
                        self.deliver(Reply {
                            token,
                            payload: ReplyPayload::Error {
                                code: ErrorCode::Deadline,
                                message: Arc::from("run abandoned: deadline exceeded"),
                                key,
                                count_miss: false,
                                count_error: false,
                            },
                        });
                    }
                }
                TimerEvent::Dribble { gen } => {
                    let Some(&idx) = self.by_gen.get(&gen) else {
                        continue;
                    };
                    let Some(mut conn) = self.conns[idx].take() else {
                        continue;
                    };
                    if let Some(chunk) = conn.dribble.pop_front() {
                        conn.out.extend_from_slice(&chunk);
                    }
                    if conn.dribble.is_empty() {
                        self.pump(&mut conn);
                    } else {
                        let at = Instant::now() + self.ctx.fault_delay;
                        self.schedule_timer(at, TimerEvent::Dribble { gen });
                    }
                    self.finish(idx, conn);
                }
            }
        }
    }

    /// Routes one worker completion to its parked request slot.
    fn deliver(&mut self, reply: Reply) {
        let gen = token_gen(reply.token);
        let Some(&idx) = self.by_gen.get(&gen) else {
            return; // connection already closed — drop the reply
        };
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let slot_id = token_slot(reply.token);
        let pos = conn
            .pending
            .iter()
            .position(|s| s.slot == slot_id && matches!(s.state, SlotState::Waiting));
        if let Some(pos) = pos {
            let started = conn.pending[pos].started;
            let latency_us = self.observed_latency(started);
            let mut bytes = Vec::new();
            match reply.payload {
                ReplyPayload::Entry { key, hit, entry } => {
                    if hit {
                        self.ctx.counters.hits.incr();
                    } else {
                        self.ctx.counters.misses.incr();
                    }
                    self.render_slot(&mut bytes, key, hit, &entry, latency_us);
                }
                ReplyPayload::Error {
                    code,
                    message,
                    key,
                    count_miss,
                    count_error,
                } => {
                    if count_miss {
                        self.ctx.counters.misses.incr();
                    }
                    if count_error {
                        self.ctx.counters.errors.incr();
                    }
                    let failed = ServeResponse::Failed(ServeError {
                        code,
                        message: message.as_ref().to_owned(),
                        key: Some(key),
                        verb: "schedule".to_owned(),
                        latency_us,
                    });
                    bytes = failed.encode().into_bytes();
                    bytes.push(b'\n');
                }
            }
            conn.pending[pos].state = SlotState::Done(bytes);
            self.pump(&mut conn);
        }
        self.finish(idx, conn);
    }

    /// Renders an entry into `bytes` for a parked slot (always the
    /// slot-buffer path — ordering is enforced by the FIFO).
    fn render_slot(
        &mut self,
        bytes: &mut Vec<u8>,
        key: u64,
        hit: bool,
        entry: &CachedResult,
        latency_us: u64,
    ) {
        match (&entry.result, entry.outcome_json()) {
            (Ok(_), Some(json)) => render_scheduled(bytes, key, hit, json.as_bytes(), latency_us),
            (Ok(outcome), None) => {
                let response = ServeResponse::Scheduled(Scheduled {
                    key,
                    cache_hit: hit,
                    outcome: outcome.clone(),
                    latency_us,
                });
                *bytes = response.encode().into_bytes();
                bytes.push(b'\n');
            }
            (Err(err), _) => {
                self.ctx.counters.errors.incr();
                let failed = ServeResponse::Failed(ServeError {
                    code: err.code,
                    message: err.message.clone(),
                    key: Some(key),
                    verb: "schedule".to_owned(),
                    latency_us,
                });
                *bytes = failed.encode().into_bytes();
                bytes.push(b'\n');
            }
        }
    }

    /// Enforces the per-connection buffer cap: a peer making the
    /// server hold more than `max_conn_buffer` bytes (frame flood
    /// against a stalled reader, typically) gets one final typed
    /// `overloaded` error and is closed after flushing — the
    /// write-stall timeout guarantees the fd is reclaimed even if the
    /// peer never reads.
    fn enforce_buffer_cap(&mut self, conn: &mut Conn) {
        let buffered = conn.buffered_bytes();
        self.ctx.counters.buffer_bytes.observe(buffered as u64);
        if self.max_conn_buffer == 0
            || buffered <= self.max_conn_buffer
            || conn.broken
            || conn.close_after_flush
        {
            return;
        }
        self.ctx.counters.conn_overflows.incr();
        let failed = ServeResponse::Failed(ServeError {
            code: ErrorCode::Overloaded,
            message: "overloaded: connection buffer cap exceeded".to_owned(),
            key: None,
            verb: "conn".to_owned(),
            latency_us: 0,
        });
        let mut bytes = failed.encode().into_bytes();
        bytes.push(b'\n');
        // Bypass the pending FIFO — whatever is parked there will
        // never be pumped once the connection is closing.
        conn.out.extend_from_slice(&bytes);
        conn.read_done = true;
        conn.close_after_flush = true;
    }

    /// Flushes what the socket accepts, then either parks the
    /// connection back in the slab or closes it.
    fn finish(&mut self, idx: usize, mut conn: Conn) {
        self.enforce_buffer_cap(&mut conn);
        flush(&mut conn);
        let flushed = conn.out_pos >= conn.out.len();
        let done = conn.broken
            || (flushed
                && conn.dribble.is_empty()
                && (conn.close_after_flush || (conn.read_done && conn.pending.is_empty())));
        if done {
            self.by_gen.remove(&conn.gen);
            self.free.push(idx);
            // Dropping `conn` closes the socket.
        } else {
            self.conns[idx] = Some(conn);
        }
    }
}

/// Parks the request's response position in the connection FIFO.
fn push_waiting(conn: &mut Conn, started: Instant) {
    conn.pending.push_back(PendingSlot {
        slot: conn.next_slot,
        started,
        state: SlotState::Waiting,
    });
    conn.next_slot = conn.next_slot.wrapping_add(1);
}

/// Writes as much of the pending output as the socket accepts.
fn flush(conn: &mut Conn) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.broken = true;
                return;
            }
            Ok(n) => {
                conn.out_pos += n;
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.broken = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}

/// Condenses a pipeline run into the wire outcome.
fn outcome_of(run: &PipelineRun, app: &str, kind: SchedulerKind, degraded: bool) -> Outcome {
    let plan = run.plan();
    Outcome {
        app: app.to_owned(),
        scheduler: kind.name().to_owned(),
        clusters: run.schedule().len() as u64,
        rf: plan.rf(),
        dt_avoided_words: plan.dt_avoided_per_iter().get(),
        data_words: plan.total_data_words().get(),
        context_words: plan.total_context_words(),
        total_cycles: run.report().total().get(),
        degraded,
    }
}

/// Runs one pipeline under the supervisor's `catch_unwind`. `faulted`
/// attaches the server's fault plan (the degraded fallback runs clean
/// so it is guaranteed to complete whenever scheduling is feasible).
fn supervised_run(
    ctx: &Ctx,
    resolved: &Resolved,
    kind: SchedulerKind,
    cancel: Option<CancelToken>,
    faulted: bool,
) -> Result<Result<PipelineRun, McdsError>, ()> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if faulted && matches!(ctx.fault(Seam::WorkerRun), Some(Fault::WorkerPanic)) {
            panic!("injected worker panic");
        }
        let mut pipeline = Pipeline::new(resolved.app.clone())
            .arch(resolved.arch)
            .scheduler(kind)
            .metrics(Arc::clone(&ctx.metrics));
        if let Some(token) = cancel {
            pipeline = pipeline.cancellation(token);
        }
        if faulted {
            if let Some(plan) = &ctx.faults {
                // Scoped: this run's fault stream indexes per-request
                // counters salted by (key, attempt), so chaos replay is
                // a pure function of the request — independent of how
                // many allocation calls other requests made first.
                pipeline = pipeline.faults_scoped(plan, resolved.key);
            }
        }
        if let Some(sched) = &resolved.sched {
            pipeline = pipeline.schedule(sched.clone());
        }
        // Analysis memoization by structure key: arch-only variants of
        // an already-analyzed workload skip straight to data scheduling
        // + allocation. The single-flight guard blocks concurrent
        // preparers of the same structure; a failed preparation drops
        // the guard, wakes the waiters, and surfaces the (deterministic)
        // error through the normal outcome path.
        match ctx.cache.analysis_lookup(resolved.structure_key) {
            AnalysisLookup::Hit(prepared) => {
                ctx.counters.analysis_hits.incr();
                pipeline.run_prepared(&prepared)
            }
            AnalysisLookup::Lead(lead) => {
                ctx.counters.analysis_misses.incr();
                match pipeline.prepare() {
                    Ok(prepared) => {
                        let prepared = Arc::new(prepared);
                        lead.fulfill(Arc::clone(&prepared));
                        // Analyses hold live graphs and are not
                        // persisted; the index record accounts for
                        // warm-start coverage.
                        if let Some(store) = &ctx.store {
                            store.append_analysis(resolved.structure_key);
                        }
                        pipeline.run_prepared(&prepared)
                    }
                    Err(e) => Err(e),
                }
            }
        }
    }))
    .map_err(|_| ())
}

/// Replies answering the leader (miss) and every waiter (hit) with one
/// shared cache entry.
fn entry_replies(key: u64, leader: Token, waiters: Vec<Token>, entry: &CachedResult) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(1 + waiters.len());
    replies.push(Reply {
        token: leader,
        payload: ReplyPayload::Entry {
            key,
            hit: false,
            entry: Arc::clone(entry),
        },
    });
    for token in waiters {
        replies.push(Reply {
            token,
            payload: ReplyPayload::Entry {
                key,
                hit: true,
                entry: Arc::clone(entry),
            },
        });
    }
    replies
}

/// Replies for a job dropped at dequeue (shed by the queue-delay
/// governor, or already past its deadline): the run never started, so
/// nothing counts as a miss or an error — the typed retryable code is
/// the whole story.
fn drop_replies(
    key: u64,
    leader: Token,
    waiters: Vec<Token>,
    code: ErrorCode,
    message: &Arc<str>,
) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(1 + waiters.len());
    for token in std::iter::once(leader).chain(waiters) {
        replies.push(Reply {
            token,
            payload: ReplyPayload::Error {
                code,
                message: Arc::clone(message),
                key,
                count_miss: false,
                count_error: false,
            },
        });
    }
    replies
}

/// Replies failing the leader (counted as the miss) and every waiter
/// with the same transient error.
fn fail_replies(
    key: u64,
    leader: Token,
    waiters: Vec<Token>,
    code: ErrorCode,
    message: &Arc<str>,
) -> Vec<Reply> {
    let mut replies = Vec::with_capacity(1 + waiters.len());
    replies.push(Reply {
        token: leader,
        payload: ReplyPayload::Error {
            code,
            message: Arc::clone(message),
            key,
            count_miss: true,
            count_error: true,
        },
    });
    for token in waiters {
        replies.push(Reply {
            token,
            payload: ReplyPayload::Error {
                code,
                message: Arc::clone(message),
                key,
                count_miss: false,
                count_error: true,
            },
        });
    }
    replies
}

/// One worker under its supervisor: pops admitted jobs and computes
/// them through the pipeline. Deterministic results (success or
/// scheduling error) are published to the cache; abandoned and faulted
/// runs are not. A panicking run (injected or real) is contained by
/// `catch_unwind`: the worker recycles itself for the next job,
/// `serve.worker_restarts` counts the recycle, and the leader plus any
/// parked waiters get a typed retryable error instead of hanging.
fn worker_loop(ctx: &Ctx) {
    while let Some((job, shed)) = ctx.queue.pop() {
        // Jobs the queue-delay governor pulled from lower lanes while
        // congested: answer `overloaded` without running them.
        for victim in shed {
            ctx.counters.qos_shed[victim.class.index()].incr();
            ctx.counters.rejected.incr();
            let Job { guard, leader, .. } = *victim;
            let key = guard.key();
            let waiters = guard.abandon();
            let message = Arc::from("overloaded: shed after queue delay exceeded");
            ctx.complete(drop_replies(
                key,
                leader,
                waiters,
                ErrorCode::Overloaded,
                &message,
            ));
        }
        // Deadline-aware early drop: a job whose deadline passed while
        // it queued is answered `deadline` without burning a worker on
        // a run the client has already given up on.
        if job.cancel.as_ref().is_some_and(CancelToken::is_expired) {
            ctx.counters.deadline_misses.incr();
            ctx.counters.qos_expired.incr();
            let Job { guard, leader, .. } = *job;
            let key = guard.key();
            let waiters = guard.abandon();
            let message = Arc::from("deadline expired before the run started");
            ctx.complete(drop_replies(
                key,
                leader,
                waiters,
                ErrorCode::Deadline,
                &message,
            ));
            continue;
        }
        let Job {
            resolved,
            kind,
            degraded,
            cancel,
            guard,
            leader,
            ..
        } = *job;
        let flight_key = guard.key();
        ctx.inflight.fetch_add(1, Ordering::Relaxed);
        let caught = supervised_run(ctx, &resolved, kind, cancel, !degraded);
        let replies = match caught {
            Err(()) => {
                // Poisoned worker: recycle in place, never cache.
                ctx.counters.worker_restarts.incr();
                let waiters = guard.abandon();
                let message = Arc::from("worker panicked; the request is retryable");
                fail_replies(flight_key, leader, waiters, ErrorCode::Faulted, &message)
            }
            Ok(Ok(run)) => {
                if degraded {
                    ctx.counters.degraded.incr();
                }
                let entry = CachedEntry::ok(outcome_of(&run, resolved.app.name(), kind, degraded));
                let (shared, waiters) = guard.fulfill(entry);
                // Journal after publish: the in-memory entry is the
                // source of truth, the journal is what survives a
                // process kill.
                if let Some(store) = &ctx.store {
                    store.append_entry(flight_key, &shared);
                    store.maybe_compact(&ctx.cache);
                }
                entry_replies(flight_key, leader, waiters, &shared)
            }
            Ok(Err(McdsError::Cancelled(reason))) => {
                // Not a pure function of the request — never cached.
                ctx.counters.deadline_misses.incr();
                let message: Arc<str> = Arc::from(format!("run abandoned: {reason}").as_str());
                let fallback = if ctx.degrade && kind == SchedulerKind::Cds {
                    // Fall back to the cheaper within-cluster-only
                    // scheduler, clean (no faults, no deadline), and
                    // serve + cache it under the *degraded* key. The
                    // primary key stays uncomputed so a later request
                    // with a generous deadline gets the full CDS.
                    supervised_run(ctx, &resolved, SchedulerKind::Ds, None, false).ok()
                } else {
                    None
                };
                if let Some(Ok(run)) = fallback {
                    ctx.counters.degraded.incr();
                    let dkey = degraded_key(resolved.key);
                    let outcome = outcome_of(&run, resolved.app.name(), SchedulerKind::Ds, true);
                    let (shared, dwaiters) = ctx.cache.publish(dkey, CachedEntry::ok(outcome));
                    if let Some(store) = &ctx.store {
                        store.append_entry(dkey, &shared);
                        store.append_degraded(resolved.key, dkey);
                        store.maybe_compact(&ctx.cache);
                    }
                    let pwaiters = guard.abandon();
                    let mut replies = entry_replies(dkey, leader, dwaiters, &shared);
                    for token in pwaiters {
                        replies.push(Reply {
                            token,
                            payload: ReplyPayload::Error {
                                code: ErrorCode::Deadline,
                                message: Arc::clone(&message),
                                key: flight_key,
                                count_miss: false,
                                count_error: true,
                            },
                        });
                    }
                    replies
                } else {
                    // The fallback failed too (infeasible, disabled, or
                    // it panicked): plain abandon.
                    let waiters = guard.abandon();
                    fail_replies(flight_key, leader, waiters, ErrorCode::Deadline, &message)
                }
            }
            Ok(Err(e @ McdsError::Faulted(_))) => {
                // Injected fault: transient — never cached, retryable.
                let waiters = guard.abandon();
                let message = Arc::from(e.to_string().as_str());
                fail_replies(flight_key, leader, waiters, ErrorCode::Faulted, &message)
            }
            Ok(Err(e)) => {
                // Scheduling errors are deterministic → cacheable (and
                // journaled: a recovered failure is served without
                // re-running the pipeline just like a success).
                let entry = CachedEntry::err(ErrorCode::BadRequest, e.to_string());
                let (shared, waiters) = guard.fulfill(entry);
                if let Some(store) = &ctx.store {
                    store.append_entry(flight_key, &shared);
                    store.maybe_compact(&ctx.cache);
                }
                entry_replies(flight_key, leader, waiters, &shared)
            }
        };
        ctx.complete(replies);
        ctx.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Resolves a `schedule` request into pipeline inputs plus its
/// canonical key.
fn resolve(spec: ScheduleSpec) -> Result<Resolved, String> {
    let class = spec.qos();
    let kind: SchedulerKind = spec
        .scheduler
        .as_deref()
        .unwrap_or("cds")
        .parse()
        .map_err(|e: McdsError| e.to_string())?;
    if let SchedulerKind::Search { max_expansions, .. } = kind {
        if max_expansions == 0 || max_expansions > MAX_SEARCH_EXPANSIONS {
            return Err(format!(
                "search expansion cap {max_expansions} is outside 1..={MAX_SEARCH_EXPANSIONS} \
                 (0 is unlimited)"
            ));
        }
    }
    let arch = match spec.arch {
        Some(arch) => arch,
        None => {
            let kw = spec.fb_kw.unwrap_or(1).max(1);
            let fb = Words::checked_kilo(kw)
                .ok_or_else(|| format!("fb_kw {kw} is over the limit of {}", Words::MAX_KILO))?;
            ArchParams::m1().to_builder().fb_set_words(fb).build()
        }
    };
    let (app, sched) = match (spec.app, spec.workload.as_deref()) {
        (Some(_), Some(_)) => return Err("`app` and `workload` are mutually exclusive".to_owned()),
        (None, None) => return Err("schedule needs `app` or `workload`".to_owned()),
        (Some(app), None) => {
            app.validate().map_err(|e| format!("invalid app: {e}"))?;
            (app, None)
        }
        (None, Some(name)) => {
            let iterations = spec.iterations.unwrap_or(16);
            let (app, sched) = mcds_workloads::mix::by_name(name, iterations)
                .ok_or_else(|| format!("unknown workload `{name}` (and iterations must be > 0)"))?;
            (app, Some(sched))
        }
    };
    let work = app.iterations().saturating_mul(app.kernels().len() as u64);
    if work > MAX_ITERATION_KERNELS {
        return Err(format!(
            "iterations × kernels is {work}, over the limit of {MAX_ITERATION_KERNELS} (2^20)"
        ));
    }
    let skey = structure_key(&app, sched.as_ref());
    let key = compose_key(skey, arch_key(&arch, kind, &SchedulerConfig::default()));
    Ok(Resolved {
        app,
        sched,
        arch,
        kind,
        key,
        structure_key: skey,
        deadline_ms: spec.deadline_ms,
        class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Lookup;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind};

    /// A queued job aged `age_ms` into the past, leading a fresh flight
    /// on its own key so the guard is real (dropping it parks orphans,
    /// which these tests never read back).
    fn job(cache: &Arc<OutcomeCache>, key: u64, class: QosClass, age_ms: u64) -> Box<Job> {
        let resolved = Arc::new(resolve(ScheduleSpec::workload("e1")).expect("catalog resolves"));
        let Lookup::Lead(guard) = cache.lookup(key, key) else {
            panic!("a fresh key always leads");
        };
        Box::new(Job {
            resolved,
            kind: SchedulerKind::Cds,
            degraded: false,
            cancel: None,
            guard,
            leader: key,
            class,
            enqueued: Instant::now()
                .checked_sub(Duration::from_millis(age_ms))
                .expect("test ages fit in the clock"),
        })
    }

    #[test]
    fn resolve_bounds_iterations_times_kernels() {
        let rejected = |spec| resolve(spec).err();
        // E2 has 18 kernels: 18 × 58,254 ≤ 2^20 < 18 × 58,255.
        let e2 = |iterations| ScheduleSpec {
            iterations: Some(iterations),
            ..ScheduleSpec::workload("e2")
        };
        assert_eq!(rejected(e2(58_254)), None);
        let message = rejected(e2(58_255)).expect("over the limit");
        assert!(message.contains("1048576 (2^20)"), "{message}");
        // An inline app of four kernels is bounded at 2^18 iterations.
        let inline = |iterations| {
            let mut b = ApplicationBuilder::new("wide");
            let input = b.data("in", Words::new(8), DataKind::ExternalInput);
            for k in 0..4 {
                let out = b.data(format!("out{k}"), Words::new(8), DataKind::FinalResult);
                b.kernel(format!("k{k}"), 1, Cycles::new(10), &[input], &[out]);
            }
            ScheduleSpec {
                app: Some(b.iterations(iterations).build().expect("valid")),
                ..ScheduleSpec::default()
            }
        };
        assert_eq!(rejected(inline(1 << 18)), None);
        assert!(rejected(inline((1 << 18) + 1)).is_some());
    }

    #[test]
    fn resolve_bounds_search_expansions() {
        let search = |name: &str| ScheduleSpec {
            scheduler: Some(name.to_owned()),
            ..ScheduleSpec::workload("e1")
        };
        for name in ["search", "search:1", "search:32:100000"] {
            assert!(resolve(search(name)).is_ok(), "{name}");
        }
        for name in ["search:4294967295:0", "search:8:100001"] {
            let message = resolve(search(name)).err().expect("over the limit");
            assert!(message.contains("1..=100000"), "{message}");
        }
    }

    #[test]
    fn resolve_refuses_a_frame_buffer_that_overflows() {
        let fb = |kw| ScheduleSpec {
            fb_kw: Some(kw),
            ..ScheduleSpec::workload("e1")
        };
        let largest = resolve(fb((1 << 54) - 1)).expect("2^54 - 1 kilowords fit a u64");
        assert_eq!(largest.arch.fb_set_words().get(), u64::MAX - 1023);
        // 2^54 kilowords wrapped to 0 words, and 2^54 + 1 to the 1 K
        // Frame Buffer (aliasing its key and outcome).
        for kw in [1 << 54, (1 << 54) + 1] {
            let message = resolve(fb(kw)).err().expect("overflows");
            assert!(message.contains("18014398509481983"), "{message}");
        }
    }

    #[test]
    fn lanes_pop_in_strict_priority_order() {
        let cache = OutcomeCache::new();
        let queue = JobQueue::new([4, 4, 4], None);
        queue
            .try_push(job(&cache, 1, QosClass::Batch, 0))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 2, QosClass::Standard, 0))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 3, QosClass::Priority, 0))
            .map_err(|_| ())
            .expect("admitted");
        assert_eq!(queue.depths(), [1, 1, 1]);
        let order: Vec<QosClass> = (0..3)
            .map(|_| {
                let (job, shed) = queue.pop().expect("a job is queued");
                assert!(shed.is_empty(), "fresh jobs never trip the governor");
                job.class
            })
            .collect();
        assert_eq!(
            order,
            vec![QosClass::Priority, QosClass::Standard, QosClass::Batch]
        );
        assert_eq!(queue.depths(), [0, 0, 0]);
    }

    #[test]
    fn lane_quotas_reject_independently_and_close_is_distinguished() {
        let cache = OutcomeCache::new();
        let queue = JobQueue::new([1, 1, 1], None);
        queue
            .try_push(job(&cache, 10, QosClass::Standard, 0))
            .map_err(|_| ())
            .expect("first standard admitted");
        let (_, closed) = queue
            .try_push(job(&cache, 11, QosClass::Standard, 0))
            .expect_err("standard lane is full");
        assert!(!closed, "a full lane is not a closed queue");
        // A full standard lane does not steal the other lanes' quota.
        queue
            .try_push(job(&cache, 12, QosClass::Priority, 0))
            .map_err(|_| ())
            .expect("priority lane has its own quota");
        queue
            .try_push(job(&cache, 13, QosClass::Batch, 0))
            .map_err(|_| ())
            .expect("batch lane has its own quota");
        queue.close();
        let (_, closed) = queue
            .try_push(job(&cache, 14, QosClass::Priority, 0))
            .expect_err("closed queue admits nothing");
        assert!(closed, "shutdown rejections are typed as such");
    }

    #[test]
    fn congested_pop_sheds_stale_lower_lane_heads_lowest_class_first() {
        let cache = OutcomeCache::new();
        let queue = JobQueue::new([8, 8, 8], Some(Duration::from_millis(50)));
        queue
            .try_push(job(&cache, 20, QosClass::Priority, 200))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 21, QosClass::Standard, 200))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 22, QosClass::Batch, 200))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 23, QosClass::Batch, 0))
            .map_err(|_| ())
            .expect("admitted");
        // The popped priority job waited 200ms > 50ms: the governor
        // sheds the stale heads of the lanes below it, batch before
        // standard, and stops at the first fresh head.
        let (popped, shed) = queue.pop().expect("a job is queued");
        assert_eq!(popped.class, QosClass::Priority, "priority is never shed");
        let shed_classes: Vec<QosClass> = shed.iter().map(|j| j.class).collect();
        assert_eq!(shed_classes, vec![QosClass::Batch, QosClass::Standard]);
        assert_eq!(
            queue.depths(),
            [0, 0, 1],
            "the fresh batch job rode out the purge"
        );
    }

    #[test]
    fn uncongested_pop_never_sheds_even_with_stale_lower_jobs() {
        let cache = OutcomeCache::new();
        let queue = JobQueue::new([8, 8, 8], Some(Duration::from_millis(50)));
        queue
            .try_push(job(&cache, 30, QosClass::Priority, 0))
            .map_err(|_| ())
            .expect("admitted");
        queue
            .try_push(job(&cache, 31, QosClass::Batch, 200))
            .map_err(|_| ())
            .expect("admitted");
        // The popped job itself flowed freely — the queue is keeping
        // up, so nothing is shed no matter how old the batch head is.
        let (popped, shed) = queue.pop().expect("a job is queued");
        assert_eq!(popped.class, QosClass::Priority);
        assert!(shed.is_empty(), "only the popped job's sojourn governs");
        assert_eq!(queue.depths(), [0, 0, 1]);
    }
}
