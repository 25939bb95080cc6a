//! `serve-cold` and `serve-warm`: the grid sent over the wire to an
//! in-process server, one connection with one request in flight.
//!
//! `serve-cold` never repeats a key on a server: when the grid runs out
//! it restarts the server (the clock is paused meanwhile). `serve-warm`
//! fills a fixed key set in set-up and then sends only hits.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use mcds_core::McdsError;
use mcds_serve::{
    decode_request, render_scheduled, FsyncPolicy, ServeConfig, ServeRequest, ServeResponse,
    ServeSummary, Server, StoreConfig,
};
use mcds_workloads::mix;

use crate::grid::{self, Apps, Expected, Point, Record, Rng};
use crate::layers::{self, ratio};
use crate::measure::Tracer;
use crate::{Clock, Failure, Run};

/// Keys `serve-warm` fills per workload structure: 4 × 288 structures =
/// 1,152 keys, below the 16,384 lines the parse memo holds.
const WARM_KEYS_PER_STRUCTURE: usize = 4;
/// Untimed hits `serve-warm` sends after the fill.
const WARM_WARMUP_OPS: usize = 20_000;
/// Untimed misses `serve-cold` sends to a warm-up server of its own, on
/// a seed-independent sample of the grid.
const COLD_WARMUP_OPS: usize = 512;
/// Points whose served outcome is also compared with a library run.
const LIBRARY_CROSS_CHECKS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Cold => "serve-cold",
            Mode::Warm => "serve-warm",
        }
    }
}

/// One connection, one request in flight.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            addr,
            stream,
            buf: vec![0; 64 << 10],
        })
    }

    /// Writes one request line and reads its response line, newline
    /// included. After a transport error the next call uses a fresh
    /// connection.
    fn round_trip(&mut self, line: &[u8]) -> io::Result<&[u8]> {
        match exchange(&mut self.stream, &mut self.buf, line) {
            Ok(len) => Ok(&self.buf[..len]),
            Err(e) => {
                if let Ok(fresh) = Client::connect(self.addr) {
                    self.stream = fresh.stream;
                }
                Err(e)
            }
        }
    }

    fn stats(&mut self) -> Result<Snapshot, String> {
        let line = format!("{}\n", ServeRequest::Stats.encode());
        let resp = self
            .round_trip(line.as_bytes())
            .map_err(|e| format!("stats: {e}"))?;
        let text = std::str::from_utf8(resp).map_err(|e| format!("stats: {e}"))?;
        match ServeResponse::decode(text.trim_end()) {
            Ok(ServeResponse::Stats(s)) => Ok(Snapshot {
                counters: s.entries.into_iter().map(|e| (e.name, e.value)).collect(),
                latency_us: s.latency_us,
            }),
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }
}

fn exchange(stream: &mut TcpStream, buf: &mut Vec<u8>, line: &[u8]) -> io::Result<usize> {
    stream.write_all(line)?;
    let mut len = 0;
    loop {
        if len == buf.len() {
            buf.resize(len * 2, 0);
        }
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        len += n;
        if buf[len - 1] == b'\n' {
            return Ok(len);
        }
    }
}

/// A server running on a thread of this process, journaling into its
/// own fresh directory.
struct Daemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<Result<ServeSummary, McdsError>>>,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        static STARTED: AtomicU64 = AtomicU64::new(0);
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let dir = crate::scratch_dir().join(format!("store-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut store = StoreConfig::new(&dir);
        store.fsync = FsyncPolicy::Never;
        // The process is pinned to one CPU before this runs, so the
        // default worker count is one.
        let config = ServeConfig {
            store: Some(store),
            ..ServeConfig::default()
        };
        let server = Server::bind(config).map_err(|e| format!("binding the server: {e}"))?;
        let addr = server.local_addr();
        let thread = std::thread::Builder::new()
            .name("mcds-serve".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawning the server: {e}"))?;
        Ok(Daemon {
            addr,
            thread: Some(thread),
            dir,
        })
    }

    /// Drains the server, joins its thread and removes its directory.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let line = format!("{}\n", ServeRequest::Shutdown.encode());
        let sent =
            Client::connect(self.addr).and_then(|mut c| c.round_trip(line.as_bytes()).map(drop));
        if let Err(e) = sent {
            // A server that did not take the shutdown would never be
            // joined; it ends with the process instead.
            let _ = fs::remove_dir_all(&self.dir);
            return Err(format!("shutting the server down: {e}"));
        }
        let joined = thread.join();
        let _ = fs::remove_dir_all(&self.dir);
        match joined {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("warning: {e}");
        }
    }
}

/// One request with everything needed to check its response.
struct Input {
    point: Point,
    line: Vec<u8>,
    expected: Expected,
    hit: bool,
    /// Expected response bytes up to the latency value.
    prefix: Vec<u8>,
    outcome_json: String,
}

impl Input {
    fn new(point: Point, expected: &Expected, hit: bool) -> Input {
        let (key, outcome_json) = match expected {
            Expected::Outcome { key, outcome } => (
                *key,
                serde_json::to_string(outcome).expect("outcomes serialize"),
            ),
            _ => (0, String::new()),
        };
        let prefix = if outcome_json.is_empty() {
            Vec::new()
        } else {
            format!(
                "{{\"v\":1,\"status\":\"ok\",\"verb\":\"schedule\",\"key\":\"{key:016x}\",\
                 \"cache\":\"{}\",\"outcome\":{outcome_json},\"code\":null,\"error\":null,\
                 \"stats\":null,\"retryable\":null,\"latency_us\":",
                if hit { "hit" } else { "miss" }
            )
            .into_bytes()
        };
        Input {
            point,
            line: point.request_line().into_bytes(),
            expected: expected.clone(),
            hit,
            prefix,
            outcome_json,
        }
    }

    /// Checks a response; returns its server-side latency.
    fn verify(&self, resp: &[u8]) -> Result<u64, Failure> {
        if !self.prefix.is_empty() {
            if let Some(digits) = resp
                .strip_prefix(self.prefix.as_slice())
                .and_then(|rest| rest.strip_suffix(b"}\n"))
            {
                if let Some(us) = std::str::from_utf8(digits)
                    .ok()
                    .and_then(|d| d.parse().ok())
                {
                    return Ok(us);
                }
            }
        }
        // Not the expected bytes: decode, so a reordered but equal
        // response passes and a real difference is named.
        let text = std::str::from_utf8(resp)
            .map_err(|_| Failure::Mismatch(format!("{:?}: response is not UTF-8", self.point)))?;
        match ServeResponse::decode(text.trim_end()) {
            Ok(ServeResponse::Scheduled(s)) => {
                self.expected
                    .check(Some(s.key), &s.outcome)
                    .map_err(|why| Failure::Mismatch(format!("{:?}: {why}", self.point)))?;
                if s.cache_hit != self.hit {
                    return Err(Failure::Mismatch(format!(
                        "{:?}: cache hit {}, expected {}",
                        self.point, s.cache_hit, self.hit
                    )));
                }
                Ok(s.latency_us)
            }
            Ok(ServeResponse::Failed(e)) => Err(Failure::Error(format!(
                "{:?}: {} ({})",
                self.point, e.code, e.message
            ))),
            Ok(other) => Err(Failure::Mismatch(format!(
                "{:?}: reply {other:?}",
                self.point
            ))),
            Err(e) => Err(Failure::Mismatch(format!("{:?}: {e}", self.point))),
        }
    }
}

/// A `stats` reply: counters by name, and the reply's own latency.
struct Snapshot {
    counters: BTreeMap<String, u64>,
    latency_us: u64,
}

impl Snapshot {
    fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Server counter deltas summed over the timed segments.
#[derive(Default)]
struct Tally {
    deltas: BTreeMap<String, u64>,
    /// Latency of the opening `stats` request of each segment, which
    /// the segment's latency delta includes.
    stats_latency_us: u64,
    segments: u64,
    ops: u64,
    /// Journal growth and operations over segments without compaction.
    journal_bytes: u64,
    journal_ops: u64,
}

impl Tally {
    fn add(&mut self, before: &Snapshot, after: &Snapshot, ops: u64) {
        for (name, &value) in &after.counters {
            *self.deltas.entry(name.clone()).or_default() += value.saturating_sub(before.get(name));
        }
        if after.get("serve.store.compactions") == before.get("serve.store.compactions") {
            self.journal_bytes += after
                .get("serve.store.journal_bytes")
                .saturating_sub(before.get("serve.store.journal_bytes"));
            self.journal_ops += ops;
        }
        self.stats_latency_us += before.latency_us;
        self.segments += 1;
        self.ops += ops;
    }

    fn get(&self, name: &str) -> u64 {
        self.deltas.get(name).copied().unwrap_or(0)
    }

    fn failures(&self) -> u64 {
        self.get("serve.errors") + self.get("serve.rejected") + self.get("serve.worker_restarts")
    }
}

struct Session {
    mode: Mode,
    daemon: Daemon,
    client: Client,
    /// Timed requests, in order.
    inputs: Vec<Input>,
    cursor: usize,
}

impl Session {
    /// Closes the connection, then drains and stops the server.
    fn stop(self) -> Result<(), String> {
        let Session { daemon, client, .. } = self;
        drop(client);
        daemon.stop()
    }

    /// Replaces the server with a fresh one (new cache, new store).
    fn restart(&mut self) -> Result<(), String> {
        let fresh = Daemon::start()?;
        let old = std::mem::replace(&mut self.daemon, fresh);
        old.stop()?;
        self.client = Client::connect(self.daemon.addr).map_err(|e| format!("connecting: {e}"))?;
        self.cursor = 0;
        Ok(())
    }

    /// The next timed request; `serve-cold` restarts the server when the
    /// grid runs out, `serve-warm` cycles its keys.
    fn advance(
        &mut self,
        clock: &mut Clock,
        segment: &mut Segment,
        tally: &mut Tally,
    ) -> Result<usize, String> {
        if self.cursor == self.inputs.len() {
            match self.mode {
                Mode::Warm => self.cursor = 0,
                Mode::Cold => {
                    clock.pause();
                    segment.close(&mut self.client, tally)?;
                    self.restart()?;
                    *segment = Segment::open(&mut self.client)?;
                    clock.resume();
                }
            }
        }
        self.cursor += 1;
        Ok(self.cursor - 1)
    }
}

/// Counters at the start of a stretch of timed operations on one server.
struct Segment {
    before: Snapshot,
    ops: u64,
}

impl Segment {
    fn open(client: &mut Client) -> Result<Segment, String> {
        Ok(Segment {
            before: client.stats()?,
            ops: 0,
        })
    }

    fn close(&mut self, client: &mut Client, tally: &mut Tally) -> Result<(), String> {
        let after = client.stats()?;
        tally.add(&self.before, &after, self.ops);
        self.ops = 0;
        Ok(())
    }
}

/// Sends one request and counts its verdict.
fn send(client: &mut Client, input: &Input, run: &mut Run) {
    let verdict = match client.round_trip(&input.line) {
        Ok(resp) => input.verify(resp).map(drop),
        Err(e) => Err(Failure::Error(format!("{:?}: transport: {e}", input.point))),
    };
    run.check(verdict);
}

/// Compares the library outcome of `points` with the record, so that a
/// served outcome equal to the record also equals the library's.
fn cross_check(record: &Record, points: &[Point], run: &mut Run) -> Result<(), String> {
    let apps = Apps::build(points, None)?;
    for p in points {
        let verdict = match (grid::library_expectation(&apps, p), record.expected(p)) {
            (Expected::Outcome { key, outcome }, want) => want
                .check(Some(key), &outcome)
                .map_err(|why| Failure::Mismatch(format!("{p:?}: library run: {why}"))),
            (got, _) => Err(Failure::Error(format!("{p:?}: library run: {got:?}"))),
        };
        run.check(verdict);
    }
    Ok(())
}

fn setup(mode: Mode, seed: u64, run: &mut Run) -> Result<Session, String> {
    let record = Record::parse(grid::RECORD);
    let schedulable = record.schedulable();
    let order = grid::seeded_order(&schedulable, seed);
    let mut daemon = Daemon::start()?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connecting: {e}"))?;
    cross_check(
        &record,
        &order[..LIBRARY_CROSS_CHECKS.min(order.len())],
        run,
    )?;
    let inputs = match mode {
        Mode::Cold => {
            // The timed server starts empty, so no timed key was ever
            // sent to it.
            for p in grid::fixed_sample(&schedulable, COLD_WARMUP_OPS, seed) {
                send(&mut client, &Input::new(p, record.expected(&p), false), run);
            }
            drop(client);
            daemon.stop()?;
            daemon = Daemon::start()?;
            client = Client::connect(daemon.addr).map_err(|e| format!("connecting: {e}"))?;
            order
                .iter()
                .map(|p| Input::new(*p, record.expected(p), false))
                .collect()
        }
        Mode::Warm => {
            let keys = grid::fixed_per_structure(&schedulable, WARM_KEYS_PER_STRUCTURE, seed);
            for p in &keys {
                send(&mut client, &Input::new(*p, record.expected(p), false), run);
            }
            let mut inputs: Vec<Input> = keys
                .iter()
                .map(|p| Input::new(*p, record.expected(p), true))
                .collect();
            Rng::new(!seed).shuffle(&mut inputs);
            for input in inputs.iter().cycle().take(WARM_WARMUP_OPS) {
                send(&mut client, input, run);
            }
            inputs
        }
    };
    Ok(Session {
        mode,
        daemon,
        client,
        inputs,
        cursor: 0,
    })
}

pub fn run(mode: Mode, seed: u64, seconds: f64, trace: bool, reps: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let mut session = None;
    for _ in 0..reps {
        if let Some(old) = session.take() {
            Session::stop(old)?;
        }
        let started = Instant::now();
        session = Some(setup(mode, seed, &mut run)?);
        run.setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let mut tally = Tally::default();
    if !trace {
        timed(&mut session, seconds, &mut run, &mut tally)?;
    } else {
        // The traced half replays the untraced half's requests, so the
        // overhead compares the same work. A cold replay needs a fresh
        // server, since no key repeats on a warm one.
        let mut untraced = Tally::default();
        timed(&mut session, seconds / 2.0, &mut run, &mut untraced)?;
        run.server_failures += untraced.failures();
        let ops = run.latencies_ns.len() as u64;
        let untraced_ops_per_s = ops as f64 / run.wall_s;
        if mode == Mode::Cold {
            session.restart()?;
        }
        session.cursor = 0;
        let mut tracer = Tracer::default();
        traced(
            &mut session,
            ops,
            &mut run,
            &mut tally,
            &mut tracer,
            untraced_ops_per_s,
        )?;
        layers::write_spans(&tracer, mode.name(), seed);
    }
    run.server_failures += tally.failures();
    session.stop()?;
    Ok(run)
}

fn timed(
    session: &mut Session,
    seconds: f64,
    run: &mut Run,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut clock = Clock::new(seconds);
    let mut segment = Segment::open(&mut session.client)?;
    let start = run.latencies_ns.len();
    clock.resume();
    while !clock.lap(run.latencies_ns.len() - start) {
        let i = session.advance(&mut clock, &mut segment, tally)?;
        let input = &session.inputs[i];
        let started = Instant::now();
        let resp = session.client.round_trip(&input.line);
        run.latencies_ns.push(started.elapsed().as_nanos() as u64);
        segment.ops += 1;
        let verdict = match resp {
            Ok(resp) => input.verify(resp).map(drop),
            Err(e) => Err(Failure::Error(format!("{:?}: transport: {e}", input.point))),
        };
        run.check(verdict);
    }
    clock.pause();
    segment.close(&mut session.client, tally)?;
    clock.finish(run);
    Ok(())
}

/// The timed loop with spans: the round trip and the output check, then
/// the client-side layers on this operation's own inputs — decode,
/// `by_name` and key derivation only where the server runs them (every
/// `serve-cold` request is a new line; `serve-warm` lines hit the parse
/// memo), render on both.
fn traced(
    session: &mut Session,
    ops: u64,
    run: &mut Run,
    tally: &mut Tally,
    tracer: &mut Tracer,
    untraced_ops_per_s: f64,
) -> Result<(), String> {
    let mut clock = Clock::new(f64::INFINITY);
    let mut segment = Segment::open(&mut session.client)?;
    let mut rendered = Vec::with_capacity(1024);
    clock.resume();
    for _ in 0..ops {
        let i = session.advance(&mut clock, &mut segment, tally)?;
        let input = &session.inputs[i];
        segment.ops += 1;
        let op = tracer.begin("op", None);
        let resp = tracer.time("server.roundtrip", Some(op), || {
            session.client.round_trip(&input.line)
        });
        let verdict = tracer.time("client.check", Some(op), || match resp {
            Ok(resp) => input.verify(resp),
            Err(e) => Err(Failure::Error(format!("{:?}: transport: {e}", input.point))),
        });
        let latency_us = verdict.as_ref().map_or(0, |us| *us);
        run.check(verdict.map(drop));
        let Expected::Outcome { key, .. } = input.expected else {
            tracer.end(op);
            tracer.close_op();
            continue;
        };
        if session.mode == Mode::Cold {
            let p = input.point;
            let line = std::str::from_utf8(&input.line).expect("request lines are UTF-8");
            let decoded = tracer.time("protocol.decode", Some(op), || {
                decode_request(line.trim_end())
            });
            let built = tracer.time("mix.by_name", Some(op), || {
                mix::by_name(p.workload, p.iterations)
            });
            let derived = built.map(|(app, sched)| {
                tracer.time("key.derive", Some(op), || {
                    grid::derive_key(&app, &sched, &p)
                })
            });
            if decoded.is_err() || derived != Some(key) {
                run.check(Err(Failure::Mismatch(format!(
                    "{p:?}: client-side decode or key differs"
                ))));
            }
        }
        tracer.time("protocol.render", Some(op), || {
            rendered.clear();
            render_scheduled(
                &mut rendered,
                key,
                input.hit,
                input.outcome_json.as_bytes(),
                latency_us,
            );
        });
        if !rendered.starts_with(&input.prefix) {
            run.check(Err(Failure::Mismatch(format!(
                "{:?}: render differs",
                input.point
            ))));
        }
        tracer.end(op);
        tracer.close_op();
    }
    clock.pause();
    segment.close(&mut session.client, tally)?;
    let wall_s = clock.stop();
    layers::report_overhead(run, ops, untraced_ops_per_s, ops as f64 / wall_s);
    layers::report_spans(run, tracer);
    layers::report_counters(run, ops, |name| tally.get(name));
    let requests = tally
        .get("serve.latency_us.count")
        .saturating_sub(tally.segments);
    let side_us = ratio(
        tally
            .get("serve.latency_us.sum")
            .saturating_sub(tally.stats_latency_us) as f64,
        requests as f64,
    );
    run.set("server.side_us", side_us);
    run.set("server.requests", requests as f64);
    run.set(
        "server.transport_us",
        layers::mean_us(tracer, "server.roundtrip") - side_us,
    );
    let ops = tally.ops as f64;
    run.set(
        "cache.hit_ratio",
        ratio(tally.get("serve.cache.hits") as f64, ops),
    );
    run.set("cache.requests", ops);
    let lookups = tally.get("serve.analysis.hits") + tally.get("serve.analysis.misses");
    run.set(
        "cache.analysis_hit_ratio",
        ratio(tally.get("serve.analysis.hits") as f64, lookups as f64),
    );
    run.set("cache.analysis_lookups", lookups as f64);
    run.set(
        "store.appends_per_op",
        ratio(tally.get("serve.store.appends") as f64, ops),
    );
    run.set(
        "store.bytes_per_op",
        ratio(tally.journal_bytes as f64, tally.journal_ops as f64),
    );
    run.set("store.bytes_ops", tally.journal_ops as f64);
    run.set("server.errors", tally.get("serve.errors") as f64);
    run.set("server.rejected", tally.get("serve.rejected") as f64);
    run.set(
        "server.worker_restarts",
        tally.get("serve.worker_restarts") as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_serve::Outcome;

    fn outcome() -> Outcome {
        Outcome {
            app: "e1".to_owned(),
            scheduler: "cds".to_owned(),
            clusters: 4,
            rf: 3,
            dt_avoided_words: 800,
            data_words: 86_400,
            context_words: 32_768,
            total_cycles: 120_016,
            degraded: false,
        }
    }

    fn input(expected: Expected) -> Input {
        let p = Point {
            workload: "e1",
            iterations: 48,
            fb_kw: 2,
            scheduler: "cds",
        };
        Input::new(p, &expected, true)
    }

    fn response(key: u64, outcome: &Outcome) -> Vec<u8> {
        let mut out = Vec::new();
        let json = serde_json::to_string(outcome).expect("serializes");
        render_scheduled(&mut out, key, true, json.as_bytes(), 17);
        out
    }

    #[test]
    fn verify_accepts_the_expected_response() {
        let good = input(Expected::Outcome {
            key: 42,
            outcome: outcome(),
        });
        assert!(matches!(good.verify(&response(42, &outcome())), Ok(17)));
        // Equal content in another field order passes the decoding path.
        let reordered = format!(
            "{{\"status\":\"ok\",\"v\":1,\"verb\":\"schedule\",\"cache\":\"hit\",\"key\":\"{:016x}\",\"outcome\":{},\"latency_us\":9}}\n",
            42,
            serde_json::to_string(&outcome()).expect("serializes")
        );
        assert!(matches!(good.verify(reordered.as_bytes()), Ok(9)));
    }

    #[test]
    fn verify_counts_differences_and_errors_without_panicking() {
        let good = input(Expected::Outcome {
            key: 42,
            outcome: outcome(),
        });
        let mut slower = outcome();
        slower.total_cycles += 1;
        assert!(matches!(
            good.verify(&response(42, &slower)),
            Err(Failure::Mismatch(_))
        ));
        assert!(matches!(
            good.verify(&response(43, &outcome())),
            Err(Failure::Mismatch(_))
        ));
        assert!(matches!(
            good.verify(b"{\"v\":1,\"stat"),
            Err(Failure::Mismatch(_))
        ));
        assert!(matches!(
            good.verify(&[0xff, b'\n']),
            Err(Failure::Mismatch(_))
        ));
        let rejected =
            b"{\"v\":1,\"status\":\"rejected\",\"verb\":\"schedule\",\"key\":null,\"cache\":null,\
            \"outcome\":null,\"code\":\"overloaded\",\"error\":\"queue full\",\"stats\":null,\
            \"retryable\":true,\"latency_us\":3}\n";
        assert!(matches!(good.verify(rejected), Err(Failure::Error(_))));
        // A corrupted expectation fails every response, the right one too.
        let corrupt = input(Expected::Corrupt("line `e1 48 2 cds ...`: bad".to_owned()));
        assert!(matches!(
            corrupt.verify(&response(42, &outcome())),
            Err(Failure::Mismatch(_))
        ));
    }
}
