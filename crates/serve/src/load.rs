//! The load harness: pipelined connections over an enumerated key
//! space, each driven by its own thread, with explicit cold/warm
//! phases.
//!
//! Latency is aggregated in a log-linear histogram (32 sub-buckets per
//! octave, ≈3% relative error, percentiles reported from bucket upper
//! bounds so they never understate), per phase and over the whole run.
//!
//! Outcome consistency is checked end to end: every `ok` response's
//! outcome is hashed (FNV-1a over its canonical JSON) under its
//! request key; any two responses for the same key with different
//! digests, on any connection, flip `consistent_outcomes` to `false`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use mcds_core::{splitmix64, McdsError};
use serde::{Deserialize, Serialize};

use crate::client::Conn;
use crate::protocol::{QosClass, ScheduleSpec, ServeRequest, ServeResponse};

/// Load-generator tunables.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Total requests sent (across all connections, both phases).
    pub requests: usize,
    /// Distinct request keys to spread the load over (the cold phase
    /// touches each exactly once; the warm phase samples them).
    pub distinct_keys: usize,
    /// In-flight requests per connection (1 = strict request/response
    /// lockstep, required for deterministic chaos runs).
    pub pipeline: usize,
    /// Base RNG seed; connection `i` samples with a stream derived
    /// from `(seed, i)`.
    pub seed: u64,
    /// Scheduler name sent with every request (`None` → server
    /// default).
    pub scheduler: Option<String>,
    /// Per-request deadline in milliseconds (`None` → no deadline).
    pub deadline_ms: Option<u64>,
    /// Admission class sent with every request (`None` → standard).
    pub class: Option<QosClass>,
    /// Times a failed request is re-queued after its first try:
    /// transport failures and typed retryable failures (overload,
    /// deadline, faults) retry; deterministic failures never do.
    pub retries: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7171".to_owned(),
            connections: 4,
            requests: 200,
            distinct_keys: 24,
            pipeline: 32,
            seed: 1,
            scheduler: None,
            deadline_ms: None,
            class: None,
            retries: 3,
        }
    }
}

/// A deterministic enumeration of `schedule` requests with pairwise
/// distinct canonical keys: the catalog workloads crossed with
/// iteration counts (1..=24) and Frame Buffer sizes (8 kW upward, so
/// every combination is feasible). Requests are pre-encoded once —
/// the driver writes the same bytes for the same key, which also
/// exercises the server's parse memo.
pub struct KeySpace {
    payloads: Vec<String>,
}

/// Iteration counts a key space cycles through per workload.
const KEYSPACE_ITERATIONS: u64 = 24;
/// Smallest Frame Buffer size (kilowords) — fits every catalog
/// workload; the key space only grows it from here.
const KEYSPACE_FB_KW: u64 = 8;

impl KeySpace {
    /// Enumerates `distinct` specs (at least 1).
    #[must_use]
    pub fn new(distinct: usize, config: &LoadConfig) -> KeySpace {
        let catalog = mcds_workloads::mix::CATALOG;
        let per_fb = catalog.len() as u64 * KEYSPACE_ITERATIONS;
        let payloads = (0..distinct.max(1) as u64)
            .map(|k| {
                let spec = ScheduleSpec {
                    workload: Some(catalog[(k % catalog.len() as u64) as usize].to_owned()),
                    iterations: Some((k / catalog.len() as u64) % KEYSPACE_ITERATIONS + 1),
                    app: None,
                    arch: None,
                    fb_kw: Some(KEYSPACE_FB_KW + k / per_fb),
                    scheduler: config.scheduler.clone(),
                    deadline_ms: config.deadline_ms,
                    class: config.class,
                };
                let mut line = ServeRequest::Schedule(spec).encode();
                line.push('\n');
                line
            })
            .collect();
        KeySpace { payloads }
    }

    /// Number of distinct keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// `true` when the key space is empty (never, in practice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The pre-encoded wire line (with trailing newline) for key
    /// index `i`.
    #[must_use]
    pub fn payload(&self, i: usize) -> &str {
        &self.payloads[i % self.payloads.len().max(1)]
    }
}

// ---- log-linear latency histogram --------------------------------------

/// Sub-buckets per octave (as a power of two): 2^5 = 32 → ≈3% relative
/// resolution.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Dense bucket count covering the full `u64` range.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = (v >> (msb - SUB_BITS)) - SUB;
    ((msb - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// Upper bound of bucket `b` — percentiles report this, so they never
/// understate the true value.
fn bucket_high(b: usize) -> u64 {
    let b = b as u64;
    if b < SUB {
        return b;
    }
    let octave = b / SUB;
    let sub = b % SUB;
    let high = (u128::from(SUB + sub + 1) << (octave - 1)) - 1;
    u64::try_from(high).unwrap_or(u64::MAX)
}

struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// Nearest-rank percentile (bucket upper bound, clamped to the
    /// exact observed maximum).
    fn percentile(&self, pct: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total - 1) * pct / 100;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return bucket_high(b).min(self.max);
            }
        }
        self.max
    }
}

// ---- reports -----------------------------------------------------------

/// Counters and latency distribution of one load phase.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PhaseStats {
    /// Requests completed in this phase.
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Typed non-retryable/exhausted failures.
    pub errors: u64,
    /// Overload rejections that stood after retries.
    pub rejected: u64,
    /// `ok` responses served from the cache.
    pub cache_hits: u64,
    /// `ok` responses that were computed.
    pub cache_misses: u64,
    /// Wall-clock duration of the phase in milliseconds.
    pub elapsed_ms: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median client-observed round-trip latency (µs).
    pub p50_us: u64,
    /// 95th-percentile latency (µs).
    pub p95_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Worst-case latency (µs).
    pub max_us: u64,
}

impl PhaseStats {
    fn from_samples(samples: &[Sample], elapsed: Duration) -> PhaseStats {
        let mut hist = Hist::new();
        let mut stats = PhaseStats {
            elapsed_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
            ..PhaseStats::default()
        };
        for sample in samples {
            stats.requests += 1;
            hist.record(sample.latency_us);
            match sample.kind {
                SampleKind::Ok { hit, .. } => {
                    stats.ok += 1;
                    if hit {
                        stats.cache_hits += 1;
                    } else {
                        stats.cache_misses += 1;
                    }
                }
                SampleKind::Rejected => stats.rejected += 1,
                SampleKind::Error | SampleKind::Transport => stats.errors += 1,
            }
        }
        stats.p50_us = hist.percentile(50);
        stats.p95_us = hist.percentile(95);
        stats.p99_us = hist.percentile(99);
        stats.max_us = hist.max;
        if stats.elapsed_ms > 0 {
            stats.throughput_rps = stats.requests as f64 / (stats.elapsed_ms as f64 / 1000.0);
        }
        stats
    }
}

/// Aggregated results of one load run. Serializes to the
/// `BENCH_serve_*.json` evidence format.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Connections opened.
    pub connections: u64,
    /// In-flight requests per connection.
    pub pipeline: u64,
    /// Requests sent.
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Failures that stood after retries.
    pub errors: u64,
    /// Overload rejections that stood after retries.
    pub rejected: u64,
    /// `ok` responses served from the cache.
    pub cache_hits: u64,
    /// `ok` responses that were computed.
    pub cache_misses: u64,
    /// Distinct request keys observed in `ok` responses.
    pub distinct_keys: u64,
    /// `true` iff every response for the same key carried a
    /// byte-identical outcome (checked via per-key digests across all
    /// connections).
    pub consistent_outcomes: bool,
    /// Wall-clock duration of the run in milliseconds (both phases).
    pub elapsed_ms: u64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median client-observed round-trip latency (µs), over the
    /// latency distribution of *both* phases.
    pub p50_us: u64,
    /// 95th-percentile latency (µs), both phases.
    pub p95_us: u64,
    /// 99th-percentile latency (µs), both phases.
    pub p99_us: u64,
    /// Worst-case latency (µs).
    pub max_us: u64,
    /// Retry attempts performed (beyond each request's first try).
    pub retried: u64,
    /// Transport-level failures observed (each forces a reconnect).
    pub transport_errors: u64,
    /// `ok` responses served by the degraded fallback scheduler.
    pub degraded: u64,
    /// The cold phase: every distinct key requested exactly once.
    pub cold: PhaseStats,
    /// The warm phase: the remaining requests, sampled over the key
    /// space.
    pub warm: PhaseStats,
}

// ---- the driver --------------------------------------------------------

enum SampleKind {
    Ok {
        hit: bool,
        degraded: bool,
        key: u64,
        digest: u64,
    },
    Rejected,
    Error,
    Transport,
}

struct Sample {
    latency_us: u64,
    kind: SampleKind,
}

struct ConnResult {
    samples: Vec<Sample>,
    retried: u64,
    transport_errors: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn classify(response: ServeResponse) -> (SampleKind, bool) {
    match response {
        ServeResponse::Scheduled(s) => {
            let json = serde_json::to_string(&s.outcome).unwrap_or_default();
            (
                SampleKind::Ok {
                    hit: s.cache_hit,
                    degraded: s.outcome.degraded,
                    key: s.key,
                    digest: fnv1a(json.as_bytes()),
                },
                false,
            )
        }
        ServeResponse::Failed(e) => {
            let kind = if e.code == crate::protocol::ErrorCode::Overloaded {
                SampleKind::Rejected
            } else {
                SampleKind::Error
            };
            (kind, e.retryable())
        }
        _ => (SampleKind::Error, false),
    }
}

/// Drives one connection through its work list with up to `window`
/// requests in flight; responses arrive in request order (the server's
/// per-connection FIFO guarantee).
fn drive(
    addr: &str,
    keyspace: &KeySpace,
    work: Vec<u32>,
    window: usize,
    retries: u32,
) -> Result<ConnResult, std::io::Error> {
    let mut conn = Conn::open(addr)?;
    let mut queue: VecDeque<(u32, u32)> = work.into_iter().map(|k| (k, 0)).collect();
    let mut inflight: VecDeque<(u32, u32, Instant)> = VecDeque::new();
    let mut result = ConnResult {
        samples: Vec::with_capacity(queue.len()),
        retried: 0,
        transport_errors: 0,
    };
    let window = window.max(1);
    while !queue.is_empty() || !inflight.is_empty() {
        while inflight.len() < window {
            let Some((key, attempts)) = queue.pop_front() else {
                break;
            };
            let sent = Instant::now();
            match conn.send(keyspace.payload(key as usize).as_bytes()) {
                Ok(()) => inflight.push_back((key, attempts, sent)),
                Err(_) => {
                    queue.push_front((key, attempts));
                    recover(
                        addr,
                        &mut conn,
                        &mut queue,
                        &mut inflight,
                        &mut result,
                        retries,
                    )?;
                }
            }
        }
        let Some(&(key, attempts, sent)) = inflight.front() else {
            continue;
        };
        match conn.receive() {
            Ok(response) => {
                inflight.pop_front();
                let latency_us = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                let (kind, retryable) = classify(response);
                if retryable && attempts < retries {
                    result.retried += 1;
                    queue.push_back((key, attempts + 1));
                } else {
                    result.samples.push(Sample { latency_us, kind });
                }
            }
            Err(_) => {
                recover(
                    addr,
                    &mut conn,
                    &mut queue,
                    &mut inflight,
                    &mut result,
                    retries,
                )?;
            }
        }
    }
    Ok(result)
}

/// After a transport failure: re-open the connection and either
/// re-queue or fail every in-flight request.
fn recover(
    addr: &str,
    conn: &mut Conn,
    queue: &mut VecDeque<(u32, u32)>,
    inflight: &mut VecDeque<(u32, u32, Instant)>,
    result: &mut ConnResult,
    retries: u32,
) -> Result<(), std::io::Error> {
    result.transport_errors += 1;
    while let Some((key, attempts, sent)) = inflight.pop_front() {
        if attempts < retries {
            result.retried += 1;
            queue.push_back((key, attempts + 1));
        } else {
            result.samples.push(Sample {
                latency_us: u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX),
                kind: SampleKind::Transport,
            });
        }
    }
    *conn = Conn::open(addr)?;
    Ok(())
}

fn run_phase(
    config: &LoadConfig,
    keyspace: &KeySpace,
    work: Vec<Vec<u32>>,
) -> Result<(Vec<Sample>, Duration, u64, u64), std::io::Error> {
    let started = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = work
            .into_iter()
            .map(|list| {
                s.spawn(move || {
                    drive(
                        &config.addr,
                        keyspace,
                        list,
                        config.pipeline,
                        config.retries,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread must not panic"))
            .collect::<Result<Vec<_>, std::io::Error>>()
    })?;
    let elapsed = started.elapsed();
    let mut samples = Vec::new();
    let mut retried = 0;
    let mut transport_errors = 0;
    for mut r in results {
        samples.append(&mut r.samples);
        retried += r.retried;
        transport_errors += r.transport_errors;
    }
    Ok((samples, elapsed, retried, transport_errors))
}

/// Runs the two-phase load against a server and aggregates the report:
/// a **cold** phase requesting each distinct key exactly once (misses
/// dominate), then a **warm** phase sampling the key space for the
/// remaining request budget (hits dominate).
///
/// # Errors
///
/// [`McdsError::Io`] when a connection cannot be established or
/// re-established. Protocol-level failures (`error`/`rejected`
/// responses) are *counted*, not returned as errors.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, McdsError> {
    let keyspace = KeySpace::new(config.distinct_keys.max(1), config);
    let conns = config.connections.max(1);
    let total = config.requests.max(1);
    let cold_n = keyspace.len().min(total);

    // Cold: key k → connection k mod conns, each key exactly once.
    let mut cold_work: Vec<Vec<u32>> = vec![Vec::new(); conns];
    for k in 0..cold_n {
        cold_work[k % conns].push(k as u32);
    }
    let (cold_samples, cold_elapsed, cold_retried, cold_terr) =
        run_phase(config, &keyspace, cold_work)?;

    // Warm: the remaining budget, sampled deterministically per
    // connection.
    let warm_total = total - cold_n;
    let mut warm_work: Vec<Vec<u32>> = vec![Vec::new(); conns];
    for (i, list) in warm_work.iter_mut().enumerate() {
        let count = warm_total / conns + usize::from(i < warm_total % conns);
        list.extend((0..count).map(|j| {
            (splitmix64(config.seed ^ ((i as u64) << 32) ^ j as u64) % keyspace.len() as u64) as u32
        }));
    }
    let (warm_samples, warm_elapsed, warm_retried, warm_terr) = if warm_total > 0 {
        run_phase(config, &keyspace, warm_work)?
    } else {
        (Vec::new(), Duration::ZERO, 0, 0)
    };

    let cold = PhaseStats::from_samples(&cold_samples, cold_elapsed);
    let warm = PhaseStats::from_samples(&warm_samples, warm_elapsed);
    let elapsed = cold_elapsed + warm_elapsed;

    let mut hist = Hist::new();
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut consistent = true;
    let mut degraded = 0;
    for sample in cold_samples.iter().chain(&warm_samples) {
        hist.record(sample.latency_us);
        if let SampleKind::Ok {
            degraded: d,
            key,
            digest,
            ..
        } = sample.kind
        {
            degraded += u64::from(d);
            match digests.get(&key) {
                None => {
                    digests.insert(key, digest);
                }
                Some(&seen) if seen != digest => consistent = false,
                Some(_) => {}
            }
        }
    }

    let elapsed_ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
    let requests = cold.requests + warm.requests;
    Ok(LoadReport {
        connections: conns as u64,
        pipeline: config.pipeline.max(1) as u64,
        requests,
        ok: cold.ok + warm.ok,
        errors: cold.errors + warm.errors,
        rejected: cold.rejected + warm.rejected,
        cache_hits: cold.cache_hits + warm.cache_hits,
        cache_misses: cold.cache_misses + warm.cache_misses,
        distinct_keys: digests.len() as u64,
        consistent_outcomes: consistent,
        elapsed_ms,
        throughput_rps: if elapsed.as_secs_f64() > 0.0 {
            requests as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        p50_us: hist.percentile(50),
        p95_us: hist.percentile(95),
        p99_us: hist.percentile(99),
        max_us: hist.max,
        retried: cold_retried + warm_retried,
        transport_errors: cold_terr + warm_terr,
        degraded,
        cold,
        warm,
    })
}

// ---- misbehaving clients ----------------------------------------------

/// How an abusive peer misbehaves — each mode targets one of the
/// server's slow-peer defenses (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbuseMode {
    /// Writes a valid frame one byte at a time with long pauses —
    /// a slow-loris writer that never completes a frame quickly. The
    /// idle reaper should drop it (`last_frame` never advances).
    SlowWriter,
    /// Pipelines schedule requests as fast as possible and never
    /// reads a byte back — the buffer cap and the write-stall timeout
    /// should bound the server's memory and reclaim the fd.
    StalledReader,
    /// Connects and sends nothing — the connect-and-idle defense
    /// should reap it.
    IdleHolder,
    /// Floods small valid frames without reading responses — admission
    /// quotas, the buffer cap, and the write-stall timeout all engage.
    FrameFlood,
}

impl AbuseMode {
    /// Stable wire/report name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AbuseMode::SlowWriter => "slow_writer",
            AbuseMode::StalledReader => "stalled_reader",
            AbuseMode::IdleHolder => "idle_holder",
            AbuseMode::FrameFlood => "frame_flood",
        }
    }
}

impl std::str::FromStr for AbuseMode {
    type Err = &'static str;

    /// Parses a report name back into a mode.
    fn from_str(name: &str) -> Result<AbuseMode, Self::Err> {
        match name {
            "slow_writer" => Ok(AbuseMode::SlowWriter),
            "stalled_reader" => Ok(AbuseMode::StalledReader),
            "idle_holder" => Ok(AbuseMode::IdleHolder),
            "frame_flood" => Ok(AbuseMode::FrameFlood),
            _ => Err("unknown mode"),
        }
    }
}

impl std::fmt::Display for AbuseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One abusive peer population.
#[derive(Debug, Clone)]
pub struct AbuseConfig {
    /// Server address.
    pub addr: String,
    /// How the peers misbehave.
    pub mode: AbuseMode,
    /// Concurrent abusive connections.
    pub clients: usize,
    /// How long to keep misbehaving (per client; reconnects on server
    /// closes until the budget runs out).
    pub duration_ms: u64,
}

/// What one abusive population managed to inflict (and absorb).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AbuseReport {
    /// The [`AbuseMode`] name.
    pub mode: String,
    /// Concurrent abusive clients.
    pub clients: u64,
    /// Connections opened across the run (first + reconnects).
    pub connects: u64,
    /// Complete frames written (0 for idle holders; partial for slow
    /// writers).
    pub frames_sent: u64,
    /// Bytes written to the server.
    pub bytes_sent: u64,
    /// Times the server terminated the connection (reset, EOF, or a
    /// refused write) — the defenses doing their job.
    pub server_closed: u64,
    /// Wall-clock duration of the abuse run in milliseconds.
    pub elapsed_ms: u64,
}

/// One abusive client loop: misbehave until the deadline, reconnecting
/// whenever the server drops us.
fn abuse_client(addr: &str, mode: AbuseMode, until: Instant, report: &mut AbuseReport) {
    let ping = {
        let mut line = ServeRequest::Ping.encode();
        line.push('\n');
        line
    };
    let flood_payload = {
        // A real schedule request so floods exercise admission, not
        // just the parse path.
        let mut line = ServeRequest::Schedule(ScheduleSpec::workload("e1")).encode();
        line.push('\n');
        line
    };
    while Instant::now() < until {
        let Ok(stream) = TcpStream::connect(addr) else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        report.connects += 1;
        let mut stream = stream;
        let _ = stream.set_nodelay(true);
        let closed = match mode {
            AbuseMode::IdleHolder => {
                // Hold the fd and wait for the server to reap us.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
                let mut byte = [0u8; 1];
                loop {
                    if Instant::now() >= until {
                        break false;
                    }
                    match stream.read(&mut byte) {
                        Ok(0) => break true,
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(_) => break true,
                    }
                }
            }
            AbuseMode::SlowWriter => {
                // One byte every 10ms: the frame technically grows,
                // but `last_frame` never advances.
                let mut closed = false;
                'conn: loop {
                    for &b in ping.as_bytes() {
                        if Instant::now() >= until {
                            break 'conn;
                        }
                        if stream.write_all(&[b]).is_err() {
                            closed = true;
                            break 'conn;
                        }
                        report.bytes_sent += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    report.frames_sent += 1;
                }
                closed
            }
            AbuseMode::StalledReader | AbuseMode::FrameFlood => {
                // Write hard, read never. The stalled reader paces
                // itself a little so the server's write buffer (not
                // the client's socket) is the contended resource.
                let payload = flood_payload.as_bytes();
                let pace = if mode == AbuseMode::StalledReader {
                    Duration::from_millis(1)
                } else {
                    Duration::ZERO
                };
                let mut closed = false;
                while Instant::now() < until {
                    match stream.write(payload) {
                        Ok(0) | Err(_) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => {
                            report.bytes_sent += n as u64;
                            if n == payload.len() {
                                report.frames_sent += 1;
                            }
                        }
                    }
                    if !pace.is_zero() {
                        std::thread::sleep(pace);
                    }
                }
                closed
            }
        };
        if closed {
            report.server_closed += 1;
        }
    }
}

/// Unleashes one abusive population against a server and reports what
/// it managed to do. Never fails: an unreachable server just produces
/// a report with zero connects.
#[must_use]
pub fn run_abuse(config: &AbuseConfig) -> AbuseReport {
    let started = Instant::now();
    let until = started + Duration::from_millis(config.duration_ms);
    let clients = config.clients.max(1);
    let reports: Vec<AbuseReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut report = AbuseReport::default();
                    abuse_client(&config.addr, config.mode, until, &mut report);
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("abuse thread must not panic"))
            .collect()
    });
    let mut merged = AbuseReport {
        mode: config.mode.as_str().to_owned(),
        clients: clients as u64,
        elapsed_ms: u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        ..AbuseReport::default()
    };
    for r in reports {
        merged.connects += r.connects;
        merged.frames_sent += r.frames_sent;
        merged.bytes_sent += r.bytes_sent;
        merged.server_closed += r.server_closed;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abuse_mode_names_round_trip() {
        for mode in [
            AbuseMode::SlowWriter,
            AbuseMode::StalledReader,
            AbuseMode::IdleHolder,
            AbuseMode::FrameFlood,
        ] {
            assert_eq!(mode.as_str().parse(), Ok(mode));
        }
        assert!("polite_client".parse::<AbuseMode>().is_err());
    }

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut last = None;
        for v in (0..4096u64).chain([1 << 20, 1 << 40, u64::MAX - 1, u64::MAX]) {
            let b = bucket_of(v);
            assert!(bucket_high(b) >= v, "upper bound covers the value");
            if let Some((lv, lb)) = last {
                assert!(b >= lb, "bucket index monotone: {lv} → {v}");
            }
            last = Some((v, b));
        }
        // Relative error bound: upper bound within ~2/32 of the value.
        for v in [100u64, 10_000, 1_000_000, 123_456_789] {
            let high = bucket_high(bucket_of(v));
            assert!(high - v <= v / 16 + 1, "{v} → {high}");
        }
    }

    #[test]
    fn hist_percentiles_match_nearest_rank_on_exact_values() {
        let mut hist = Hist::new();
        for v in 1..=100u64 {
            hist.record(v);
        }
        // Values ≤ 2^5 land in exact buckets; larger ones report the
        // bucket upper bound (never understating).
        assert_eq!(hist.percentile(0), 1);
        assert!(hist.percentile(50) >= 50 && hist.percentile(50) <= 52);
        // Nearest-rank p99 of 1..=100 is 99; the histogram may round
        // up within its ~3% bucket, never down.
        assert!(hist.percentile(99) >= 99 && hist.percentile(99) <= 100);
        assert_eq!(hist.max, 100);
    }
}
