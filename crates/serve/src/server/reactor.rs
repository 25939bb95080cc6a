//! The single-threaded reactor: sockets, frames, the parse memo,
//! timers, and each connection's in-order reply FIFO.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcds_core::{CancelToken, Fault, McdsError, SchedulerKind, Seam};

use super::lanes::Job;
use super::resolve::{resolve, Resolved};
use super::worker::{fan_out, Reply, ReplyPayload};
use super::{Counters, Ctx, ServeConfig};
use crate::cache::{degraded_key, Lookup, Token};
use crate::protocol::{
    decode_request, render_scheduled, ErrorCode, FrameBuffer, FrameError, QosClass, ServeError,
    ServeRequest, ServeResponse, StatEntry, StatsReply,
};
use crate::sys::PollSet;

/// Memoized fate of an exact request line (bytes → outcome of the
/// parse/resolve stage, which is a pure function of the line).
#[derive(Clone)]
enum Memo {
    Good(Arc<Resolved>),
    /// A refused line and the failure its first reply carried (verb
    /// `unknown` for a decode failure, `schedule` for a resolve
    /// failure).
    Bad(ServeError),
}

/// Parse-memo capacity; lines beyond this are simply not memoized.
const MEMO_CAP: usize = 16 * 1024;

/// Upper bound on one reactor tick's `poll` timeout in milliseconds
/// (completions, I/O and due timers wake it earlier).
const POLL_MS: i64 = 25;

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
pub(super) struct Reactor<'a> {
    ctx: &'a Ctx,
    listener: &'a TcpListener,
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
    pub(super) fn new(
        ctx: &'a Ctx,
        listener: &'a TcpListener,
        config: &ServeConfig,
    ) -> Reactor<'a> {
        Reactor {
            ctx,
            listener,
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

    pub(super) fn run(&mut self) -> Result<(), McdsError> {
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
                let message = "worker died; the request is retryable";
                let died = ReplyPayload::error(ErrorCode::Faulted, message, key, true);
                for reply in fan_out(None, waiters, died) {
                    self.deliver(reply);
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

    /// Poll timeout in ms: [`POLL_MS`], shortened to the next due
    /// timer.
    fn poll_timeout(&self) -> i32 {
        let mut timeout = POLL_MS;
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
    /// already ticks at least every [`POLL_MS`].
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
                Err(err) => {
                    // The bad frame was consumed: answer typed. An
                    // oversized frame loses the frame boundary, so the
                    // connection closes instead of buffering forever;
                    // after invalid UTF-8 it keeps serving.
                    let oversized = matches!(err, FrameError::Oversized { .. });
                    let code = if oversized {
                        ErrorCode::Oversized
                    } else {
                        ErrorCode::BadRequest
                    };
                    self.ctx.counters.errors.incr();
                    let failure = ServeError::new(code, err.to_string()).with_verb("frame");
                    self.emit(conn, |out| render_failed(out, failure, 0));
                    if oversized {
                        conn.read_done = true;
                        conn.close_after_flush = true;
                        break;
                    }
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
                Memo::Bad(failure) => {
                    self.ctx.counters.errors.incr();
                    self.respond_failed(conn, started, failure);
                }
            }
            return;
        }
        let request = match decode_request(line) {
            Ok(decoded) => decoded,
            Err(err) => {
                let failure = ServeError::new(err.code(), err.to_string()).with_verb("unknown");
                self.refuse(conn, started, line, failure);
                return;
            }
        };
        match request {
            ServeRequest::Ping => {
                let latency_us = self.observed_latency(started);
                self.emit(conn, |out| {
                    render_response(out, &ServeResponse::Pong { latency_us });
                });
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
                let stats = ServeResponse::Stats(StatsReply {
                    entries,
                    latency_us,
                });
                self.emit(conn, |out| render_response(out, &stats));
            }
            ServeRequest::Shutdown => {
                self.draining = true;
                let latency_us = self.observed_latency(started);
                self.emit(conn, |out| {
                    render_response(out, &ServeResponse::ShuttingDown { latency_us });
                });
            }
            ServeRequest::Schedule(spec) => match resolve(spec) {
                Ok(resolved) => {
                    let resolved = Arc::new(resolved);
                    self.memo_insert(line, Memo::Good(Arc::clone(&resolved)));
                    self.handle_schedule(conn, started, &resolved);
                }
                Err(message) => {
                    let failure = ServeError::new(ErrorCode::BadRequest, message);
                    self.refuse(conn, started, line, failure);
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
                let latency_us = self.observed_latency(started);
                let hit = ReplyPayload::Entry {
                    key: entry_key,
                    entry,
                };
                self.emit(conn, |out| {
                    render_reply(&ctx.counters, out, false, &hit, latency_us);
                });
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
                        let failure = if closed {
                            ctx.counters.errors.incr();
                            let message = "server is draining; no new computations admitted";
                            ServeError::new(ErrorCode::Shutdown, message)
                        } else {
                            ctx.counters.rejected.incr();
                            ctx.counters.qos_rejected[class.index()].incr();
                            ServeError::new(
                                ErrorCode::Overloaded,
                                "overloaded: admission lane full",
                            )
                        };
                        self.respond_failed(conn, started, failure.with_key(entry_key));
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

    /// Answers a line that does not decode or resolve, and memoizes
    /// the refusal: both are pure functions of the line.
    fn refuse(&mut self, conn: &mut Conn, started: Instant, line: &str, failure: ServeError) {
        self.ctx.counters.errors.incr();
        self.memo_insert(line, Memo::Bad(failure.clone()));
        self.respond_failed(conn, started, failure);
    }

    /// Answers a failed request, stamped with its observed latency.
    fn respond_failed(&mut self, conn: &mut Conn, started: Instant, failure: ServeError) {
        let latency_us = self.observed_latency(started);
        self.emit(conn, |out| render_failed(out, failure, latency_us));
    }

    /// Writes one reply in request order: straight into `conn.out`
    /// when no fault plan is attached and nothing is parked ahead of
    /// it, else into a FIFO slot that [`pump`](Self::pump) releases
    /// through the write-fault seam.
    fn emit(&mut self, conn: &mut Conn, render: impl FnOnce(&mut Vec<u8>)) {
        if self.ctx.faults.is_none() && conn.pending.is_empty() && conn.dribble.is_empty() {
            render(&mut conn.out);
            return;
        }
        let mut bytes = Vec::new();
        render(&mut bytes);
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
                        let message = "run abandoned: deadline exceeded";
                        self.deliver(Reply {
                            token,
                            leads: false,
                            payload: ReplyPayload::error(ErrorCode::Deadline, message, key, false),
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
            let latency_us = self.observed_latency(conn.pending[pos].started);
            let mut bytes = Vec::new();
            render_reply(
                &self.ctx.counters,
                &mut bytes,
                reply.leads,
                &reply.payload,
                latency_us,
            );
            conn.pending[pos].state = SlotState::Done(bytes);
            self.pump(&mut conn);
        }
        self.finish(idx, conn);
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
        let message = "overloaded: connection buffer cap exceeded";
        let failure = ServeError::new(ErrorCode::Overloaded, message).with_verb("conn");
        // Bypass the pending FIFO — whatever is parked there will
        // never be pumped once the connection is closing.
        render_failed(&mut conn.out, failure, 0);
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

/// Counts and renders one reply to a `schedule` request. A published
/// entry is the leader's cache miss or a waiter's hit: a success
/// splices its pre-serialized outcome, a cached failure renders typed
/// and counts under `serve.errors`. A transient failure counts only
/// when `counted`, then also as the leader's miss.
fn render_reply(
    counters: &Counters,
    out: &mut Vec<u8>,
    leads: bool,
    payload: &ReplyPayload,
    latency_us: u64,
) {
    match payload {
        ReplyPayload::Entry { key, entry } => {
            if leads {
                counters.misses.incr();
            } else {
                counters.hits.incr();
            }
            match &entry.result {
                Ok(ok) => {
                    // The envelope around the outcome takes at most 180
                    // bytes, so the line is rendered without a regrowth.
                    out.reserve(ok.json().len() + 180);
                    render_scheduled(out, *key, !leads, ok.json().as_bytes(), latency_us);
                }
                Err(err) => {
                    counters.errors.incr();
                    let failure = ServeError::new(err.code, err.message.as_str());
                    render_failed(out, failure.with_key(*key), latency_us);
                }
            }
        }
        ReplyPayload::Error {
            code,
            message,
            key,
            counted,
        } => {
            if *counted {
                if leads {
                    counters.misses.incr();
                }
                counters.errors.incr();
            }
            let failure = ServeError::new(*code, &**message).with_key(*key);
            render_failed(out, failure, latency_us);
        }
    }
}

/// Renders a typed failure line stamped with `latency_us`.
fn render_failed(out: &mut Vec<u8>, mut failure: ServeError, latency_us: u64) {
    failure.latency_us = latency_us;
    render_response(out, &ServeResponse::Failed(failure));
}

/// Renders one response line.
fn render_response(out: &mut Vec<u8>, response: &ServeResponse) {
    out.extend_from_slice(response.encode().as_bytes());
    out.push(b'\n');
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
