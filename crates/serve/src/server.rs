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

mod lanes;
mod reactor;
mod resolve;
mod worker;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mcds_core::{Counter, Fault, FaultPlan, Histogram, McdsError, MetricsRegistry, Seam};
use serde::{Deserialize, Serialize};

use crate::cache::OutcomeCache;
use crate::protocol::QosClass;
use crate::store::{OutcomeStore, StoreConfig};
use crate::sys::Waker;

use lanes::JobQueue;
use reactor::Reactor;
use worker::{worker_loop, Reply};

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
    /// Largest accepted request frame in bytes; a connection that
    /// buffers more without a newline gets a typed error and is
    /// dropped instead of growing memory without bound.
    pub max_frame_bytes: usize,
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
            max_frame_bytes: 256 * 1024,
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
        let cache = OutcomeCache::new();
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

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::lanes::{Job, JobQueue};
    use super::resolve::resolve;
    use super::*;
    use crate::cache::Lookup;
    use crate::protocol::ScheduleSpec;
    use mcds_core::SchedulerKind;
    use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};

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
        for name in [
            "search",
            "search:1",
            "search:32:100000",
            "search:1024:100000",
        ] {
            assert!(resolve(search(name)).is_ok(), "{name}");
        }
        for name in ["search:4294967295:0", "search:8:100001"] {
            let message = resolve(search(name)).err().expect("over the limit");
            assert!(message.contains("1..=100000"), "{message}");
        }
        for name in ["search:4294967295:100000", "search:1025:100000"] {
            let message = resolve(search(name)).err().expect("over the limit");
            assert!(message.contains("0..=1024"), "{message}");
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
