//! The typed client: a builder-configured connection that speaks the
//! v1 protocol and classifies every failure by [`ErrorCode`] — no
//! string matching on error messages, ever.
//!
//! ```no_run
//! use mcds_serve::{ClientConfig, ScheduleSpec};
//!
//! let mut client = ClientConfig::new("127.0.0.1:7171")
//!     .with_retry(3)
//!     .with_deadline(500)
//!     .with_reconnect(true)
//!     .connect()?;
//! let scheduled = client.schedule(&ScheduleSpec::workload("e1"))?;
//! println!("{} cycles", scheduled.outcome.total_cycles);
//! # Ok::<(), mcds_serve::ClientError>(())
//! ```

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{
    ErrorCode, QosClass, ScheduleSpec, Scheduled, ServeError, ServeRequest, ServeResponse,
    StatsReply,
};

/// Builder-style client configuration. Every `with_*` method consumes
/// and returns the config, so a client is assembled in one expression
/// and finished with [`connect`](Self::connect).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    addr: String,
    retries: u32,
    backoff_base_ms: u64,
    backoff_cap_ms: u64,
    retry_budget_ms: u64,
    deadline_ms: Option<u64>,
    class: Option<QosClass>,
    reconnect: bool,
    seed: u64,
}

impl ClientConfig {
    /// A config for the server at `addr` with retries disabled, no
    /// default deadline, and reconnect-on-transport-failure enabled.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> ClientConfig {
        ClientConfig {
            addr: addr.into(),
            retries: 0,
            backoff_base_ms: 5,
            backoff_cap_ms: 80,
            retry_budget_ms: 2_000,
            deadline_ms: None,
            class: None,
            reconnect: true,
            seed: 1,
        }
    }

    /// Retry attempts per request after the first try. Retries fire on
    /// transport failures (disconnects, truncated or unparseable
    /// frames) and on typed responses whose [`ErrorCode::retryable`]
    /// is `true` (overload rejections, abandoned or faulted runs).
    #[must_use]
    pub fn with_retry(mut self, retries: u32) -> ClientConfig {
        self.retries = retries;
        self
    }

    /// Backoff schedule: attempt `n` waits up to
    /// `min(cap_ms, base_ms << n)` milliseconds with deterministic
    /// jitter in the upper half of that window; a retry whose backoff
    /// would overrun `budget_ms` (counted per request) is skipped and
    /// the last observed failure stands.
    #[must_use]
    pub fn with_backoff(mut self, base_ms: u64, cap_ms: u64, budget_ms: u64) -> ClientConfig {
        self.backoff_base_ms = base_ms.max(1);
        self.backoff_cap_ms = cap_ms.max(1);
        self.retry_budget_ms = budget_ms;
        self
    }

    /// Default per-request deadline in milliseconds, attached to every
    /// `schedule` whose spec does not carry its own.
    #[must_use]
    pub fn with_deadline(mut self, deadline_ms: u64) -> ClientConfig {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Default admission class attached to every `schedule` whose spec
    /// does not carry its own (the server treats an absent class as
    /// `standard`).
    #[must_use]
    pub fn with_class(mut self, class: QosClass) -> ClientConfig {
        self.class = Some(class);
        self
    }

    /// Whether a transport failure re-opens the connection before the
    /// next attempt (`true` by default). With reconnect disabled, the
    /// first transport failure is terminal.
    #[must_use]
    pub fn with_reconnect(mut self, reconnect: bool) -> ClientConfig {
        self.reconnect = reconnect;
        self
    }

    /// Seed for the deterministic backoff jitter.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ClientConfig {
        self.seed = seed;
        self
    }

    /// The configured server address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Opens the connection.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the server cannot be reached.
    pub fn connect(self) -> Result<Client, ClientError> {
        let conn = Conn::open(&self.addr).map_err(ClientError::transport)?;
        Ok(Client {
            config: self,
            conn: Some(conn),
            exchanges: 0,
            retried: 0,
            transport_errors: 0,
        })
    }
}

/// Why a client call failed, typed end to end.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, disconnect, truncated or
    /// unparseable frame) and retries — if any — were exhausted.
    Transport {
        /// The I/O failure class.
        kind: std::io::ErrorKind,
        /// Human-oriented diagnostic.
        message: String,
    },
    /// The server answered with a typed failure; branch on
    /// [`ServeError::code`].
    Server(ServeError),
    /// The server answered something structurally valid but impossible
    /// for the request (e.g. a `stats` payload for a `ping`).
    Protocol(String),
}

impl ClientError {
    fn transport(e: std::io::Error) -> ClientError {
        ClientError::Transport {
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    /// `true` when retrying the call may succeed.
    #[must_use]
    pub fn retryable(&self) -> bool {
        match self {
            ClientError::Transport { .. } => true,
            ClientError::Server(e) => e.retryable(),
            ClientError::Protocol(_) => false,
        }
    }

    /// The server's [`ErrorCode`], when this is a typed server
    /// failure.
    #[must_use]
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server(e) => Some(e.code),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport { kind, message } => write!(f, "transport ({kind}): {message}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Protocol(message) => write!(f, "protocol: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One live protocol connection; dropped and re-opened after any
/// transport failure so a poisoned stream never leaks a stale frame
/// into the next exchange.
pub(crate) struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub(crate) fn open(addr: &str) -> Result<Conn, std::io::Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    pub(crate) fn send(&mut self, payload: &[u8]) -> Result<(), std::io::Error> {
        self.writer.write_all(payload)
    }

    /// Reads one response frame. Any `Err` means the transport is
    /// suspect (disconnect, truncated frame, garbage) — the caller
    /// must reconnect before retrying.
    pub(crate) fn receive(&mut self) -> Result<ServeResponse, std::io::Error> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if !line.ends_with('\n') {
            // A frame without its terminator: the server died (or an
            // injected fault truncated the write) mid-frame.
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated response frame",
            ));
        }
        ServeResponse::decode(line.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    fn exchange(&mut self, payload: &[u8]) -> Result<ServeResponse, std::io::Error> {
        self.send(payload)?;
        self.receive()
    }
}

/// The backoff before retry `attempt` (0-based): capped exponential
/// with deterministic jitter in the upper half of the window, derived
/// from `(seed, call, attempt)` so two runs with the same seed sleep
/// identically.
pub(crate) fn backoff(seed: u64, base_ms: u64, cap_ms: u64, call: u64, attempt: u32) -> Duration {
    let ceiling = cap_ms
        .min(base_ms.checked_shl(attempt).unwrap_or(u64::MAX))
        .max(1);
    let h = mcds_core::splitmix64(mcds_core::splitmix64(seed ^ (call << 16)) ^ u64::from(attempt));
    let floor = ceiling / 2;
    Duration::from_millis(floor + h % (ceiling - floor + 1))
}

/// A connected v1 client. All calls are synchronous; retries and
/// reconnects happen inside [`request`](Self::request) according to
/// the [`ClientConfig`].
pub struct Client {
    config: ClientConfig,
    conn: Option<Conn>,
    exchanges: u64,
    retried: u64,
    transport_errors: u64,
}

impl Client {
    /// Computes (or fetches from cache) a scheduling outcome. The
    /// config's default deadline and admission class apply when the
    /// spec carries none.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for typed failures,
    /// [`ClientError::Transport`] when the connection died and retries
    /// were exhausted.
    pub fn schedule(&mut self, spec: &ScheduleSpec) -> Result<Scheduled, ClientError> {
        let mut spec = spec.clone();
        if spec.deadline_ms.is_none() {
            spec.deadline_ms = self.config.deadline_ms;
        }
        if spec.class.is_none() {
            spec.class = self.config.class;
        }
        match self.request(&ServeRequest::Schedule(spec))? {
            ServeResponse::Scheduled(s) => Ok(s),
            ServeResponse::Failed(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("schedule", &other)),
        }
    }

    /// Liveness probe; returns the server-side latency in µs.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        match self.request(&ServeRequest::Ping)? {
            ServeResponse::Pong { latency_us } => Ok(latency_us),
            ServeResponse::Failed(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("ping", &other)),
        }
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request(&ServeRequest::Stats)? {
            ServeResponse::Stats(s) => Ok(s),
            ServeResponse::Failed(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// As [`schedule`](Self::schedule).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&ServeRequest::Shutdown)? {
            ServeResponse::ShuttingDown { .. } => Ok(()),
            ServeResponse::Failed(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Sends one typed request and returns the typed response,
    /// retrying transport failures and retryable typed failures per
    /// the config. A non-retryable [`ServeResponse::Failed`] is
    /// returned as `Ok` — callers branch on the typed surface.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the transport died and retries
    /// were exhausted (or reconnect is disabled).
    pub fn request(&mut self, request: &ServeRequest) -> Result<ServeResponse, ClientError> {
        let mut payload = request.encode();
        payload.push('\n');
        let call = self.exchanges;
        self.exchanges += 1;
        let started = Instant::now();
        let budget = Duration::from_millis(self.config.retry_budget_ms);
        let mut attempt = 0u32;
        loop {
            let outcome = match self.conn.as_mut() {
                Some(c) => c.exchange(payload.as_bytes()),
                None => Conn::open(&self.config.addr).and_then(|mut c| {
                    let response = c.exchange(payload.as_bytes());
                    self.conn = Some(c);
                    response
                }),
            };
            let (retryable, result) = match outcome {
                Ok(ServeResponse::Failed(e)) if e.retryable() => {
                    (true, Ok(ServeResponse::Failed(e)))
                }
                Ok(response) => (false, Ok(response)),
                Err(e) => {
                    self.conn = None;
                    self.transport_errors += 1;
                    (self.config.reconnect, Err(ClientError::transport(e)))
                }
            };
            if !retryable || attempt >= self.config.retries {
                return result;
            }
            let delay = backoff(
                self.config.seed,
                self.config.backoff_base_ms,
                self.config.backoff_cap_ms,
                call,
                attempt,
            );
            if started.elapsed() + delay > budget {
                // Out of budget: the last observed failure stands.
                return result;
            }
            std::thread::sleep(delay);
            attempt += 1;
            self.retried += 1;
        }
    }

    /// Sends one hand-written wire line (no retries, no rewriting) and
    /// decodes the typed response — the escape hatch for exercising
    /// frames the typed surface cannot produce: un-versioned envelopes,
    /// malformed JSON, unknown verbs.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the connection dies mid-exchange.
    pub fn raw_roundtrip(&mut self, line: &str) -> Result<ServeResponse, ClientError> {
        Ok(self.pipeline_raw(&[line])?.remove(0))
    }

    /// Writes every line before reading any response, then decodes
    /// exactly one typed response per line, in order — the server's
    /// per-connection FIFO guarantee makes the pairing positional.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the connection dies mid-exchange.
    pub fn pipeline_raw(&mut self, lines: &[&str]) -> Result<Vec<ServeResponse>, ClientError> {
        self.exchanges += lines.len() as u64;
        let conn = match self.conn.as_mut() {
            Some(c) => c,
            None => {
                let c = Conn::open(&self.config.addr).map_err(ClientError::transport)?;
                self.conn.insert(c)
            }
        };
        let run = |conn: &mut Conn| -> Result<Vec<ServeResponse>, std::io::Error> {
            let mut payload = String::new();
            for line in lines {
                payload.push_str(line);
                payload.push('\n');
            }
            conn.send(payload.as_bytes())?;
            lines.iter().map(|_| conn.receive()).collect()
        };
        run(conn).map_err(|e| {
            self.conn = None;
            self.transport_errors += 1;
            ClientError::transport(e)
        })
    }

    /// Retry attempts performed across the client's lifetime.
    #[must_use]
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Transport failures weathered across the client's lifetime.
    #[must_use]
    pub fn transport_errors(&self) -> u64 {
        self.transport_errors
    }
}

fn unexpected(verb: &str, response: &ServeResponse) -> ClientError {
    ClientError::Protocol(format!("unexpected response to `{verb}`: {response:?}"))
}
