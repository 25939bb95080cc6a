//! The versioned wire protocol: newline-delimited JSON, one object per
//! line, every frame carrying `"v":1`.
//!
//! The typed surface is two `#[non_exhaustive]` enums —
//! [`ServeRequest`] and [`ServeResponse`] — plus the machine-readable
//! [`ErrorCode`] that replaces string matching on error messages. On
//! the wire each request is one flat JSON object:
//!
//! ```text
//! {"v":1,"verb":"schedule","workload":"e1","iterations":16,"scheduler":"cds","deadline_ms":500,"class":"priority"}
//! {"v":1,"verb":"ping"}
//! {"v":1,"verb":"stats"}
//! {"v":1,"verb":"shutdown"}
//! ```
//!
//! and each response one flat object with `status` (`ok` / `error` /
//! `rejected`), the echoed verb, and — on failures — a stable `code`
//! string from [`ErrorCode`]. See `DESIGN.md` §12 for the full wire
//! table.
//!
//! ## Versioning
//!
//! * A request whose `v` field is missing, `null` or a number other
//!   than `1` is answered with a typed [`ErrorCode::UnsupportedVersion`]
//!   error — the connection stays open.
//! * A `v` of any other JSON type is malformed input
//!   ([`ErrorCode::BadRequest`]) — never a panic, never a dropped
//!   connection.
//!
//! Responses are always emitted in the v1 shape.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

use mcds_model::{Application, ArchParams};

/// Why a received frame was rejected before parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// More bytes buffered without a newline than the configured
    /// maximum — the connection must be closed, since the frame
    /// boundary is lost.
    Oversized {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// The frame is not valid UTF-8. The frame is consumed; the
    /// connection may continue at the next newline.
    InvalidUtf8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "frame exceeds the {limit}-byte limit without a newline")
            }
            FrameError::InvalidUtf8 => write!(f, "frame is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Once this many consumed bytes accumulate at the front of the buffer
/// it is compacted on the next [`FrameBuffer::extend`].
const COMPACT_AT: usize = 32 * 1024;

/// A bounded accumulator for newline-delimited frames with zero-copy
/// scanning: [`next_frame`](Self::next_frame) returns a `&str` view
/// into the reused buffer instead of allocating a `String` per frame.
///
/// Consumed bytes are tracked by a head offset and reclaimed lazily
/// ([`extend`](Self::extend) compacts when the whole buffer is consumed
/// or the dead prefix grows past a threshold), so a connection pumping
/// thousands of pipelined frames reuses one allocation.
///
/// Fixes the OOM-by-long-line hazard of naive line reading: a peer
/// that streams bytes without ever sending `\n` is cut off with a
/// typed [`FrameError::Oversized`] once `max_bytes` is buffered,
/// instead of growing the buffer without bound. Frames that are not
/// valid UTF-8 are rejected (typed, recoverable) rather than lossily
/// transcoded.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    head: usize,
    max_bytes: usize,
}

impl FrameBuffer {
    /// An empty buffer that holds at most `max_bytes` of an unfinished
    /// frame (clamped to at least 1).
    #[must_use]
    pub fn new(max_bytes: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            head: 0,
            max_bytes: max_bytes.max(1),
        }
    }

    /// Appends received bytes, compacting the consumed prefix first
    /// when it is large (or when the buffer is fully consumed, which
    /// is free).
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.head > 0 && (self.head == self.buf.len() || self.head >= COMPACT_AT) {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered (for tests/diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// `true` when nothing unconsumed is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pops the next complete frame (one line, newline and optional
    /// `\r` stripped) as a borrowed view into the buffer. The view is
    /// valid until the next `extend`/`next_frame` call.
    ///
    /// Returns `Ok(None)` when no complete frame is buffered yet.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the unfinished frame already
    /// exceeds the limit (the caller must drop the connection);
    /// [`FrameError::InvalidUtf8`] when the completed frame is not
    /// UTF-8 (the frame is consumed — the caller may answer with a
    /// typed error and keep reading).
    pub fn next_frame(&mut self) -> Result<Option<&str>, FrameError> {
        let start = self.head;
        match self.buf[start..].iter().position(|&b| b == b'\n') {
            // The limit applies to the *line*, not the delivery: a
            // too-long line whose newline arrived in the same read is
            // just as oversized as one still waiting for its newline,
            // so the decision cannot depend on TCP segmentation.
            Some(rel) if rel > self.max_bytes => Err(FrameError::Oversized {
                limit: self.max_bytes,
            }),
            Some(rel) => {
                let mut end = start + rel;
                self.head = end + 1;
                if end > start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                match std::str::from_utf8(&self.buf[start..end]) {
                    Ok(text) => Ok(Some(text)),
                    Err(_) => Err(FrameError::InvalidUtf8),
                }
            }
            None if self.len() > self.max_bytes => Err(FrameError::Oversized {
                limit: self.max_bytes,
            }),
            None => Ok(None),
        }
    }
}

/// Machine-readable failure classification, carried on the wire as the
/// stable snake_case `code` field of every non-`ok` response.
///
/// Replaces string matching on error messages: clients branch on the
/// code (and [`retryable`](Self::retryable)), messages stay
/// human-oriented diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The bounded admission queue was full — retry after backoff.
    Overloaded,
    /// The request's deadline expired (the run was abandoned, or the
    /// caller timed out waiting on another request's computation).
    /// Retrying with a longer deadline may succeed.
    Deadline,
    /// A transient internal failure: an injected fault fired or a
    /// worker panicked and was recycled. Never cached; retryable.
    Faulted,
    /// The request itself is invalid or deterministically
    /// unsatisfiable (malformed JSON, unknown verb or workload,
    /// infeasible schedule). Retrying the identical request fails
    /// identically.
    BadRequest,
    /// The request frame exceeded the server's size limit; the
    /// connection is closed after this response.
    Oversized,
    /// The server is draining after a `shutdown` request and no longer
    /// admits new computations.
    Shutdown,
    /// The request's `v` field named a protocol version this server
    /// does not speak.
    UnsupportedVersion,
}

impl ErrorCode {
    /// The stable wire string for this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Faulted => "faulted",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::UnsupportedVersion => "unsupported_version",
        }
    }

    /// Parses a wire string; `None` for codes this build does not know
    /// (the enum is `#[non_exhaustive]` — treat unknown codes as
    /// non-retryable).
    #[must_use]
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "overloaded" => ErrorCode::Overloaded,
            "deadline" => ErrorCode::Deadline,
            "faulted" => ErrorCode::Faulted,
            "bad_request" => ErrorCode::BadRequest,
            "oversized" => ErrorCode::Oversized,
            "shutdown" => ErrorCode::Shutdown,
            "unsupported_version" => ErrorCode::UnsupportedVersion,
            _ => return None,
        })
    }

    /// `true` when retrying the same request may succeed (transient
    /// failures: overload, expired deadlines, injected faults/worker
    /// crashes). Deterministic failures — bad requests, oversized
    /// frames, version mismatches — and shutdown are not retryable.
    #[must_use]
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::Deadline | ErrorCode::Faulted
        )
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The admission class of a `schedule` request: which QoS lane the job
/// queues in. Carried on the wire as the optional `class` field of the
/// v1 envelope.
///
/// Lane resolution is deliberately forgiving: a missing `class` and an
/// *unknown* class string both resolve to [`QosClass::Standard`] — an
/// old client must never be rejected for not knowing about lanes, and
/// a newer client's future class name must degrade to standard service
/// rather than an error. Only a
/// wrong-*typed* `class` field (a number, an object) is malformed,
/// answered with [`ErrorCode::BadRequest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive traffic: dequeued before everything else,
    /// shed last.
    Priority,
    /// The default lane; every request without an explicit class.
    #[default]
    Standard,
    /// Throughput traffic: dequeued only when the other lanes are
    /// empty, shed first under overload.
    Batch,
}

impl QosClass {
    /// Every class, highest priority first (dequeue order; shed order
    /// is the reverse).
    pub const ALL: [QosClass; 3] = [QosClass::Priority, QosClass::Standard, QosClass::Batch];

    /// The stable wire string for this class.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QosClass::Priority => "priority",
            QosClass::Standard => "standard",
            QosClass::Batch => "batch",
        }
    }

    /// Parses a wire string; `None` for class names this build does
    /// not know.
    #[must_use]
    pub fn from_wire(s: &str) -> Option<QosClass> {
        Some(match s {
            "priority" => QosClass::Priority,
            "standard" => QosClass::Standard,
            "batch" => QosClass::Batch,
            _ => return None,
        })
    }

    /// Parses a wire string, resolving unknown class names to
    /// [`QosClass::Standard`] (the compat rule above).
    #[must_use]
    pub fn from_wire_lossy(s: &str) -> QosClass {
        QosClass::from_wire(s).unwrap_or_default()
    }

    /// Lane index: 0 = priority, 1 = standard, 2 = batch.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            QosClass::Priority => 0,
            QosClass::Standard => 1,
            QosClass::Batch => 2,
        }
    }
}

impl fmt::Display for QosClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The options of a `schedule` request (everything but the verb).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleSpec {
    /// Catalog workload name (`e1`, `e2`, `e3`, `mpeg`, `atr-sld`,
    /// `atr-fi`). Mutually exclusive with `app`.
    pub workload: Option<String>,
    /// Streaming iterations for a catalog workload (default 16).
    pub iterations: Option<u64>,
    /// Inline application (validated server-side before scheduling).
    pub app: Option<Application>,
    /// Full inline architecture; overrides `fb_kw`.
    pub arch: Option<ArchParams>,
    /// Frame Buffer set size in kilowords over the M1 baseline
    /// (default 1).
    pub fb_kw: Option<u64>,
    /// Scheduler name (`basic`, `ds`, `cds`, `search`,
    /// `search:<beam>[:<max-expansions>]`; default `cds`). The server
    /// refuses an expansion cap of 0 (unlimited) or above 100,000.
    pub scheduler: Option<String>,
    /// Per-request deadline in milliseconds; the pipeline abandons the
    /// run at the next stage boundary once it expires.
    pub deadline_ms: Option<u64>,
    /// Admission class ([`QosClass`]); absent means standard.
    pub class: Option<QosClass>,
}

impl ScheduleSpec {
    /// A spec for a catalog workload with every option defaulted.
    #[must_use]
    pub fn workload(name: &str) -> Self {
        ScheduleSpec {
            workload: Some(name.to_owned()),
            ..ScheduleSpec::default()
        }
    }

    /// The lane this request queues in: the explicit class, or
    /// standard.
    #[must_use]
    pub fn qos(&self) -> QosClass {
        self.class.unwrap_or_default()
    }
}

/// One typed request — the v1 protocol surface.
///
/// `Schedule` carries the full spec inline: requests are decoded once
/// per frame and consumed immediately, so boxing the large variant
/// would buy nothing but an allocation on the hot path.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)]
pub enum ServeRequest {
    /// Compute (or fetch from cache) a scheduling outcome.
    Schedule(ScheduleSpec),
    /// Liveness probe.
    Ping,
    /// Metrics snapshot.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
}

/// Why a request line could not be decoded into a [`ServeRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// The frame named a protocol version this server does not speak.
    UnsupportedVersion {
        /// The version the peer asked for.
        got: u64,
    },
    /// The frame carried no `v` field, or `"v":null`: the un-versioned
    /// pre-v1 protocol, which this server no longer speaks.
    Unversioned,
    /// Malformed JSON, a wrong-typed `v` field, an unknown verb, or a
    /// frame violating the schema. Deterministic — never retryable.
    Malformed(String),
}

impl RequestError {
    /// The [`ErrorCode`] a server answers this decode failure with.
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            RequestError::UnsupportedVersion { .. } | RequestError::Unversioned => {
                ErrorCode::UnsupportedVersion
            }
            RequestError::Malformed(_) => ErrorCode::BadRequest,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this server speaks v1)"
                )
            }
            RequestError::Unversioned => {
                f.write_str("missing protocol version `v` (this server speaks v1)")
            }
            RequestError::Malformed(msg) => write!(f, "malformed request: {msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The flat v1 request object as it appears on the wire. Field order
/// is the wire field order.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RequestFrame {
    v: u64,
    verb: String,
    workload: Option<String>,
    iterations: Option<u64>,
    app: Option<Application>,
    arch: Option<ArchParams>,
    fb_kw: Option<u64>,
    scheduler: Option<String>,
    deadline_ms: Option<u64>,
    class: Option<String>,
}

impl ServeRequest {
    fn verb(&self) -> &'static str {
        match self {
            ServeRequest::Schedule(_) => "schedule",
            ServeRequest::Ping => "ping",
            ServeRequest::Stats => "stats",
            ServeRequest::Shutdown => "shutdown",
        }
    }

    fn to_frame(&self) -> RequestFrame {
        let spec = match self {
            ServeRequest::Schedule(spec) => spec.clone(),
            _ => ScheduleSpec::default(),
        };
        RequestFrame {
            v: 1,
            verb: self.verb().to_owned(),
            workload: spec.workload,
            iterations: spec.iterations,
            app: spec.app,
            arch: spec.arch,
            fb_kw: spec.fb_kw,
            scheduler: spec.scheduler,
            deadline_ms: spec.deadline_ms,
            class: spec.class.map(|c| c.as_str().to_owned()),
        }
    }

    /// Serializes this request as one v1 wire line (no trailing
    /// newline).
    #[must_use]
    pub fn encode(&self) -> String {
        serde_json::to_string(&self.to_frame()).expect("request frames serialize")
    }
}

/// Decodes one request line: version sniff first, then the typed
/// frame.
///
/// # Errors
///
/// [`RequestError::UnsupportedVersion`] for a numeric `v` other than 1;
/// [`RequestError::Unversioned`] for an object whose `v` is missing or
/// `null`; [`RequestError::Malformed`] for anything else that does not
/// decode (including wrong-typed `v` fields — never a panic).
pub fn decode_request(line: &str) -> Result<ServeRequest, RequestError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| RequestError::Malformed(e.to_string()))?;
    match value.get("v") {
        Some(Value::UInt(1)) => {}
        Some(Value::UInt(n)) => return Err(RequestError::UnsupportedVersion { got: *n }),
        None | Some(Value::Null) if matches!(value, Value::Map(_)) => {
            return Err(RequestError::Unversioned)
        }
        // Not an object at all: `from_value` below says why.
        None => {}
        Some(_) => {
            return Err(RequestError::Malformed(
                "the `v` field must be an unsigned integer".to_owned(),
            ))
        }
    }
    let frame =
        RequestFrame::from_value(&value).map_err(|e| RequestError::Malformed(e.to_string()))?;
    let request = match frame.verb.as_str() {
        "ping" => ServeRequest::Ping,
        "stats" => ServeRequest::Stats,
        "shutdown" => ServeRequest::Shutdown,
        "schedule" => ServeRequest::Schedule(ScheduleSpec {
            workload: frame.workload,
            iterations: frame.iterations,
            app: frame.app,
            arch: frame.arch,
            fb_kw: frame.fb_kw,
            scheduler: frame.scheduler,
            deadline_ms: frame.deadline_ms,
            // Unknown class names resolve to the standard lane; only a
            // wrong-typed field is an error (caught by `from_value`).
            class: frame.class.as_deref().map(QosClass::from_wire_lossy),
        }),
        other => {
            return Err(RequestError::Malformed(format!(
                "unknown verb `{other}` (expected schedule, ping, stats, shutdown)"
            )))
        }
    };
    Ok(request)
}

/// The condensed result of one scheduling run — everything the
/// serving benchmark compares, nothing architecture-internal. Identical
/// requests must serialize to byte-identical outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outcome {
    /// Application name.
    pub app: String,
    /// Scheduler that produced the plan.
    pub scheduler: String,
    /// Number of clusters scheduled.
    pub clusters: u64,
    /// Chosen reuse factor.
    pub rf: u64,
    /// Data transfers avoided per iteration (words) by retention.
    pub dt_avoided_words: u64,
    /// Total data words moved by the plan.
    pub data_words: u64,
    /// Total context words loaded.
    pub context_words: u64,
    /// Simulated execution time in cycles.
    pub total_cycles: u64,
    /// `true` when this outcome came from the degraded fallback path
    /// (within-cluster-only scheduler instead of the full CDS). Cached
    /// under a separate key so it never masks the full-quality result.
    #[serde(default)]
    pub degraded: bool,
}

/// One `stats` counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatEntry {
    /// Counter name (e.g. `serve.cache.hits`).
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A successful `schedule` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Canonical request key the outcome is cached under.
    pub key: u64,
    /// `true` when the outcome came from the cache (including
    /// single-flight waiters answered by another request's
    /// computation).
    pub cache_hit: bool,
    /// The scheduling outcome.
    pub outcome: Outcome,
    /// Server-side latency of this request in microseconds.
    pub latency_us: u64,
}

/// A `stats` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// The metrics snapshot, sorted by name.
    pub entries: Vec<StatEntry>,
    /// Server-side latency of this request in microseconds.
    pub latency_us: u64,
}

/// A typed failure reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-oriented diagnostic (never for branching).
    pub message: String,
    /// The request key, when one was resolved before failing.
    pub key: Option<u64>,
    /// Echoed verb (`schedule`, `frame`, `unknown`, …).
    pub verb: String,
    /// Server-side latency of this request in microseconds.
    pub latency_us: u64,
}

impl ServeError {
    /// A failure reply for the given code, echoing `schedule`.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServeError {
            code,
            message: message.into(),
            key: None,
            verb: "schedule".to_owned(),
            latency_us: 0,
        }
    }

    /// Same failure, tagged with the resolved request key.
    #[must_use]
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Same failure, echoing a different verb.
    #[must_use]
    pub fn with_verb(mut self, verb: &str) -> Self {
        self.verb = verb.to_owned();
        self
    }

    /// Shorthand for `self.code.retryable()`.
    #[must_use]
    pub fn retryable(&self) -> bool {
        self.code.retryable()
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// One typed response — the v1 protocol surface.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeResponse {
    /// A successful `schedule`.
    Scheduled(Scheduled),
    /// A successful `ping`.
    Pong {
        /// Server-side latency in microseconds.
        latency_us: u64,
    },
    /// A successful `stats`.
    Stats(StatsReply),
    /// The acknowledgement of a `shutdown` — the server is draining.
    ShuttingDown {
        /// Server-side latency in microseconds.
        latency_us: u64,
    },
    /// Any failure, classified by [`ErrorCode`].
    Failed(ServeError),
}

/// Why a response line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResponseError {
    /// The line is not a well-formed v1 (or legacy-superset) response.
    Malformed(String),
}

impl fmt::Display for ResponseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseError::Malformed(msg) => write!(f, "malformed response: {msg}"),
        }
    }
}

impl std::error::Error for ResponseError {}

/// The flat response object as it appears on the wire. Field order is
/// the wire field order — [`render_scheduled`] reproduces it byte for
/// byte, which a unit test pins against this derive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Protocol version (always 1 from this server; absent from
    /// legacy-era captures).
    pub v: Option<u64>,
    /// `ok`, `error`, or `rejected` (admission queue full — kept as a
    /// distinct status for legacy clients; `code` says `overloaded`).
    pub status: String,
    /// Echo of the request verb.
    pub verb: String,
    /// Content-addressed request key as 16 hex digits.
    pub key: Option<String>,
    /// `hit` or `miss` (`schedule` only).
    pub cache: Option<String>,
    /// The scheduling outcome on success.
    pub outcome: Option<Outcome>,
    /// Stable machine-readable [`ErrorCode`] string on failures.
    pub code: Option<String>,
    /// Human-oriented diagnostic on failures.
    pub error: Option<String>,
    /// Metrics snapshot (`stats` only).
    pub stats: Option<Vec<StatEntry>>,
    /// Legacy retry hint (`code.retryable()` is authoritative).
    pub retryable: Option<bool>,
    /// Server-side latency of this request in microseconds.
    pub latency_us: u64,
}

impl ResponseFrame {
    fn bare(status: &str, verb: &str, latency_us: u64) -> Self {
        ResponseFrame {
            v: Some(1),
            status: status.to_owned(),
            verb: verb.to_owned(),
            key: None,
            cache: None,
            outcome: None,
            code: None,
            error: None,
            stats: None,
            retryable: None,
            latency_us,
        }
    }
}

impl ServeResponse {
    /// The wire frame for this response.
    #[must_use]
    pub fn to_frame(&self) -> ResponseFrame {
        match self {
            ServeResponse::Scheduled(s) => {
                let mut f = ResponseFrame::bare("ok", "schedule", s.latency_us);
                f.key = Some(format_key(s.key));
                f.cache = Some(if s.cache_hit { "hit" } else { "miss" }.to_owned());
                f.outcome = Some(s.outcome.clone());
                f
            }
            ServeResponse::Pong { latency_us } => ResponseFrame::bare("ok", "ping", *latency_us),
            ServeResponse::Stats(s) => {
                let mut f = ResponseFrame::bare("ok", "stats", s.latency_us);
                f.stats = Some(s.entries.clone());
                f
            }
            ServeResponse::ShuttingDown { latency_us } => {
                ResponseFrame::bare("ok", "shutdown", *latency_us)
            }
            ServeResponse::Failed(e) => {
                let status = if e.code == ErrorCode::Overloaded {
                    "rejected"
                } else {
                    "error"
                };
                let mut f = ResponseFrame::bare(status, &e.verb, e.latency_us);
                f.key = e.key.map(format_key);
                f.code = Some(e.code.as_str().to_owned());
                f.error = Some(e.message.clone());
                f.retryable = Some(e.code.retryable());
                f
            }
        }
    }

    /// Serializes this response as one wire line (no trailing
    /// newline).
    #[must_use]
    pub fn encode(&self) -> String {
        serde_json::to_string(&self.to_frame()).expect("response frames serialize")
    }

    /// Decodes one response line into the typed surface.
    ///
    /// # Errors
    ///
    /// [`ResponseError::Malformed`] when the line is not valid JSON or
    /// violates the response schema. Unknown `code` strings degrade
    /// gracefully (classified by the legacy `retryable` hint) — a
    /// newer server never breaks an older client's decode.
    pub fn decode(line: &str) -> Result<ServeResponse, ResponseError> {
        let frame: ResponseFrame =
            serde_json::from_str(line).map_err(|e| ResponseError::Malformed(e.to_string()))?;
        let key = match frame.key.as_deref() {
            Some(hex) => Some(
                parse_key(hex)
                    .ok_or_else(|| ResponseError::Malformed(format!("bad key `{hex}`")))?,
            ),
            None => None,
        };
        match frame.status.as_str() {
            "ok" => {
                if let Some(outcome) = frame.outcome {
                    return Ok(ServeResponse::Scheduled(Scheduled {
                        key: key.ok_or_else(|| {
                            ResponseError::Malformed("ok schedule without a key".to_owned())
                        })?,
                        cache_hit: frame.cache.as_deref() == Some("hit"),
                        outcome,
                        latency_us: frame.latency_us,
                    }));
                }
                if let Some(entries) = frame.stats {
                    return Ok(ServeResponse::Stats(StatsReply {
                        entries,
                        latency_us: frame.latency_us,
                    }));
                }
                match frame.verb.as_str() {
                    "ping" => Ok(ServeResponse::Pong {
                        latency_us: frame.latency_us,
                    }),
                    "shutdown" => Ok(ServeResponse::ShuttingDown {
                        latency_us: frame.latency_us,
                    }),
                    other => Err(ResponseError::Malformed(format!(
                        "ok response for verb `{other}` carries no payload"
                    ))),
                }
            }
            "rejected" | "error" => {
                let code = frame
                    .code
                    .as_deref()
                    .and_then(ErrorCode::from_wire)
                    .unwrap_or({
                        // Legacy (or future-coded) failure: classify by
                        // status and the retry hint.
                        if frame.status == "rejected" {
                            ErrorCode::Overloaded
                        } else if frame.retryable == Some(true) {
                            ErrorCode::Faulted
                        } else {
                            ErrorCode::BadRequest
                        }
                    });
                Ok(ServeResponse::Failed(ServeError {
                    code,
                    message: frame.error.unwrap_or_default(),
                    key,
                    verb: frame.verb,
                    latency_us: frame.latency_us,
                }))
            }
            other => Err(ResponseError::Malformed(format!(
                "unknown response status `{other}`"
            ))),
        }
    }
}

/// Renders a request key as the protocol's 16-hex-digit form.
#[must_use]
pub fn format_key(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses the 16-hex-digit wire form back into a key.
#[must_use]
pub fn parse_key(hex: &str) -> Option<u64> {
    if hex.is_empty() || hex.len() > 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn push_key_hex(out: &mut Vec<u8>, key: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(HEX[((key >> (shift * 4)) & 0xf) as usize]);
    }
}

/// Appends a complete `ok`/`schedule` response line (including the
/// trailing newline) directly to a connection's output buffer,
/// splicing in a pre-serialized outcome — the reactor's warm-hit fast
/// path. Byte-identical to `ServeResponse::Scheduled(..).encode()`
/// for the same inputs (pinned by a unit test), so clients cannot
/// distinguish the fast path from the generic one.
pub fn render_scheduled(
    out: &mut Vec<u8>,
    key: u64,
    cache_hit: bool,
    outcome_json: &[u8],
    latency_us: u64,
) {
    out.extend_from_slice(b"{\"v\":1,\"status\":\"ok\",\"verb\":\"schedule\",\"key\":\"");
    push_key_hex(out, key);
    out.extend_from_slice(b"\",\"cache\":\"");
    out.extend_from_slice(if cache_hit { b"hit" } else { b"miss" as &[u8] });
    out.extend_from_slice(b"\",\"outcome\":");
    out.extend_from_slice(outcome_json);
    out.extend_from_slice(
        b",\"code\":null,\"error\":null,\"stats\":null,\"retryable\":null,\"latency_us\":",
    );
    push_u64(out, latency_us);
    out.extend_from_slice(b"}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            app: "e1".to_owned(),
            scheduler: "cds".to_owned(),
            clusters: 3,
            rf: 4,
            dt_avoided_words: 96,
            data_words: 4096,
            context_words: 512,
            total_cycles: 123_456,
            degraded: false,
        }
    }

    #[test]
    fn v1_request_roundtrips() {
        let mut spec = ScheduleSpec::workload("e1");
        spec.iterations = Some(16);
        spec.deadline_ms = Some(250);
        let line = ServeRequest::Schedule(spec.clone()).encode();
        assert!(line.contains("\"v\":1"), "envelope carries the version");
        match decode_request(&line).expect("decodes") {
            ServeRequest::Schedule(s) => assert_eq!(s, spec),
            other => panic!("wrong variant: {other:?}"),
        }
        let ping = decode_request(r#"{"v":1,"verb":"ping"}"#).expect("minimal v1 ping");
        assert_eq!(ping, ServeRequest::Ping);
    }

    #[test]
    fn unversioned_frames_get_unsupported_version() {
        // The pre-v1 wire shape (no `v` key at all) and an explicit
        // `"v":null` are both refused with the typed version code.
        for frame in [
            r#"{"verb":"schedule","workload":"mpeg","iterations":8,"fb_kw":8}"#,
            r#"{"verb":"ping"}"#,
            r#"{"v":null,"verb":"ping"}"#,
        ] {
            let err = decode_request(frame).expect_err("un-versioned frames are refused");
            assert_eq!(err, RequestError::Unversioned, "{frame}");
            assert_eq!(err.code(), ErrorCode::UnsupportedVersion, "{frame}");
        }
        // JSON that is not an object stays malformed, version or not.
        let err = decode_request("[1]").expect_err("not an object");
        assert_eq!(err.code(), ErrorCode::BadRequest);
    }

    #[test]
    fn version_field_is_sniffed_safely() {
        // Future numeric versions: typed UnsupportedVersion.
        assert_eq!(
            decode_request(r#"{"v":2,"verb":"ping"}"#),
            Err(RequestError::UnsupportedVersion { got: 2 })
        );
        assert_eq!(
            RequestError::UnsupportedVersion { got: 2 }.code(),
            ErrorCode::UnsupportedVersion
        );
        // Malformed version fields: BadRequest, never a panic.
        for bad in [
            r#"{"v":"one","verb":"ping"}"#,
            r#"{"v":1.5,"verb":"ping"}"#,
            r#"{"v":-1,"verb":"ping"}"#,
            r#"{"v":true,"verb":"ping"}"#,
            r#"{"v":[1],"verb":"ping"}"#,
            r#"{"v":{"x":1},"verb":"ping"}"#,
        ] {
            let err = decode_request(bad).expect_err("wrong-typed v is rejected");
            assert_eq!(err.code(), ErrorCode::BadRequest, "{bad}");
        }
        // Unknown verbs are BadRequest too.
        let err = decode_request(r#"{"v":1,"verb":"fly"}"#).expect_err("unknown verb");
        assert!(matches!(err, RequestError::Malformed(_)));
    }

    #[test]
    fn qos_class_resolution_follows_the_compat_rules() {
        // Explicit classes roundtrip through the typed surface.
        let mut spec = ScheduleSpec::workload("e1");
        spec.class = Some(QosClass::Priority);
        let line = ServeRequest::Schedule(spec.clone()).encode();
        assert!(line.contains("\"class\":\"priority\""));
        match decode_request(&line).expect("decodes") {
            ServeRequest::Schedule(s) => {
                assert_eq!(s, spec);
                assert_eq!(s.qos(), QosClass::Priority);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Absent class: standard lane, no error.
        for frame in [
            r#"{"v":1,"verb":"schedule","workload":"e1"}"#,
            r#"{"v":1,"verb":"schedule","workload":"e1","class":null}"#,
        ] {
            match decode_request(frame).expect("decodes") {
                ServeRequest::Schedule(s) => {
                    assert_eq!(s.class, None, "{frame}");
                    assert_eq!(s.qos(), QosClass::Standard, "{frame}");
                }
                other => panic!("wrong variant: {other:?}"),
            }
        }
        // Unknown class *names* degrade to standard…
        let future = r#"{"v":1,"verb":"schedule","workload":"e1","class":"platinum"}"#;
        match decode_request(future).expect("decodes") {
            ServeRequest::Schedule(s) => assert_eq!(s.class, Some(QosClass::Standard)),
            other => panic!("wrong variant: {other:?}"),
        }
        // …but a wrong-typed class field is a typed BadRequest.
        for bad in [
            r#"{"v":1,"verb":"schedule","workload":"e1","class":3}"#,
            r#"{"v":1,"verb":"schedule","workload":"e1","class":["priority"]}"#,
            r#"{"v":1,"verb":"schedule","workload":"e1","class":{"x":1}}"#,
        ] {
            let err = decode_request(bad).expect_err("wrong-typed class is rejected");
            assert_eq!(err.code(), ErrorCode::BadRequest, "{bad}");
        }
        // Wire strings are stable and ALL is in dequeue order.
        for class in QosClass::ALL {
            assert_eq!(QosClass::from_wire(class.as_str()), Some(class));
        }
        assert_eq!(QosClass::ALL.map(QosClass::index), [0, 1, 2]);
        assert_eq!(QosClass::from_wire_lossy("gold"), QosClass::Standard);
    }

    #[test]
    fn error_codes_have_stable_wire_strings() {
        let all = [
            ErrorCode::Overloaded,
            ErrorCode::Deadline,
            ErrorCode::Faulted,
            ErrorCode::BadRequest,
            ErrorCode::Oversized,
            ErrorCode::Shutdown,
            ErrorCode::UnsupportedVersion,
        ];
        for code in all {
            assert_eq!(ErrorCode::from_wire(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("nope"), None);
        assert!(ErrorCode::Overloaded.retryable());
        assert!(ErrorCode::Deadline.retryable());
        assert!(ErrorCode::Faulted.retryable());
        assert!(!ErrorCode::BadRequest.retryable());
        assert!(!ErrorCode::Oversized.retryable());
        assert!(!ErrorCode::Shutdown.retryable());
        assert!(!ErrorCode::UnsupportedVersion.retryable());
    }

    #[test]
    fn responses_roundtrip_through_the_typed_surface() {
        let scheduled = ServeResponse::Scheduled(Scheduled {
            key: 0xdead_beef,
            cache_hit: false,
            outcome: outcome(),
            latency_us: 321,
        });
        let line = scheduled.encode();
        assert!(line.contains("\"key\":\"00000000deadbeef\""));
        assert_eq!(ServeResponse::decode(&line).expect("decodes"), scheduled);

        let failed = ServeResponse::Failed(
            ServeError::new(ErrorCode::Overloaded, "admission queue full").with_key(1),
        );
        let line = failed.encode();
        assert!(
            line.contains("\"status\":\"rejected\""),
            "legacy status kept"
        );
        assert!(line.contains("\"code\":\"overloaded\""));
        match ServeResponse::decode(&line).expect("decodes") {
            ServeResponse::Failed(e) => {
                assert_eq!(e.code, ErrorCode::Overloaded);
                assert!(e.retryable());
                assert_eq!(e.key, Some(1));
            }
            other => panic!("wrong variant: {other:?}"),
        }

        for r in [
            ServeResponse::Pong { latency_us: 5 },
            ServeResponse::ShuttingDown { latency_us: 6 },
            ServeResponse::Stats(StatsReply {
                entries: vec![StatEntry {
                    name: "serve.requests".to_owned(),
                    value: 9,
                }],
                latency_us: 7,
            }),
        ] {
            assert_eq!(ServeResponse::decode(&r.encode()).expect("decodes"), r);
        }
    }

    #[test]
    fn legacy_error_responses_classify_by_retry_hint() {
        // A code-less error frame (legacy server) maps through the
        // retryable hint instead of failing the decode.
        let transient =
            r#"{"status":"error","verb":"schedule","retryable":true,"error":"x","latency_us":1}"#;
        match ServeResponse::decode(transient).expect("decodes") {
            ServeResponse::Failed(e) => assert_eq!(e.code, ErrorCode::Faulted),
            other => panic!("wrong variant: {other:?}"),
        }
        let hard = r#"{"status":"error","verb":"schedule","error":"x","latency_us":1}"#;
        match ServeResponse::decode(hard).expect("decodes") {
            ServeResponse::Failed(e) => assert_eq!(e.code, ErrorCode::BadRequest),
            other => panic!("wrong variant: {other:?}"),
        }
        // An unknown future code degrades the same way.
        let future = r#"{"status":"error","verb":"schedule","code":"telepathy_failure","retryable":true,"error":"x","latency_us":1}"#;
        match ServeResponse::decode(future).expect("decodes") {
            ServeResponse::Failed(e) => assert_eq!(e.code, ErrorCode::Faulted),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn fast_renderer_matches_the_derive_byte_for_byte() {
        for (key, hit, latency) in [(0u64, true, 0u64), (0xdead_beef, false, 987_654)] {
            let scheduled = ServeResponse::Scheduled(Scheduled {
                key,
                cache_hit: hit,
                outcome: outcome(),
                latency_us: latency,
            });
            let mut generic = scheduled.encode().into_bytes();
            generic.push(b'\n');
            let outcome_json = serde_json::to_string(&outcome()).expect("serializes");
            let mut fast = Vec::new();
            render_scheduled(&mut fast, key, hit, outcome_json.as_bytes(), latency);
            assert_eq!(
                String::from_utf8_lossy(&fast),
                String::from_utf8_lossy(&generic),
                "fast path must be indistinguishable on the wire"
            );
        }
    }

    #[test]
    fn frame_buffer_splits_and_bounds() {
        let mut fb = FrameBuffer::new(16);
        fb.extend(b"hello");
        assert_eq!(fb.next_frame(), Ok(None), "incomplete frame waits");
        fb.extend(b" world\nsecond\r\n");
        assert_eq!(fb.next_frame(), Ok(Some("hello world")));
        assert_eq!(fb.next_frame(), Ok(Some("second")));
        assert_eq!(fb.next_frame(), Ok(None));
        assert!(fb.is_empty());

        // A newline-free flood trips the bound instead of buffering.
        fb.extend(&[b'x'; 17]);
        assert_eq!(fb.next_frame(), Err(FrameError::Oversized { limit: 16 }));
    }

    #[test]
    fn frame_buffer_rejects_invalid_utf8_but_recovers() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(&[0xff, 0xfe, b'\n']);
        fb.extend(b"after\n");
        assert_eq!(fb.next_frame(), Err(FrameError::InvalidUtf8));
        // The bad frame was consumed; the next one parses.
        assert_eq!(fb.next_frame(), Ok(Some("after")));
    }

    #[test]
    fn frame_buffer_reuses_its_allocation_across_frames() {
        let mut fb = FrameBuffer::new(64);
        fb.extend(b"warmup-frame-to-size-the-buffer\n");
        assert!(fb.next_frame().expect("ok").is_some());
        fb.extend(b"a\n"); // fully-consumed buffer compacts for free
        let cap = fb.buf.capacity();
        for _ in 0..1000 {
            assert_eq!(fb.next_frame(), Ok(Some("a")));
            assert_eq!(fb.next_frame(), Ok(None));
            fb.extend(b"a\n");
        }
        assert_eq!(fb.buf.capacity(), cap, "steady state allocates nothing");
    }

    #[test]
    fn key_formatting_roundtrips() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_key(&format_key(key)), Some(key));
        }
        assert_eq!(parse_key(""), None);
        assert_eq!(parse_key("zz"), None);
        assert_eq!(parse_key("00000000000000001"), None, "too long");
    }

    #[test]
    fn outcome_degraded_defaults_to_false_on_old_wire_format() {
        let legacy = r#"{"app":"e1","scheduler":"cds","clusters":1,"rf":1,
            "dt_avoided_words":0,"data_words":0,"context_words":0,"total_cycles":9}"#;
        let out: Outcome = serde_json::from_str(legacy).expect("parses without the field");
        assert!(!out.degraded);
    }
}
