//! # mcds-serve — a concurrent scheduling service
//!
//! Wraps the `mcds-core` [`Pipeline`](mcds_core::Pipeline) in a small
//! std-only daemon speaking versioned newline-delimited JSON over TCP
//! (`"v":1` envelopes, machine-readable [`ErrorCode`]s), plus a typed
//! client and a pipelined load harness. Five layers:
//!
//! * **Reactor** — one thread multiplexes every socket through
//!   `poll(2)` ([`sys`](crate) shim, no external crates): nonblocking
//!   reads into per-connection frame buffers, zero-copy frame
//!   scanning, responses rendered straight into per-connection write
//!   buffers. A fixed worker pool computes schedules behind a bounded
//!   admission queue.
//! * **Caching** — every `schedule` request is reduced to a canonical
//!   content key ([`mcds_core::request_key`]) and answered from the
//!   **sharded** [`OutcomeCache`]; concurrent identical requests are
//!   deduplicated single-flight without blocking any thread.
//! * **Robustness** — a full queue rejects with a typed `overloaded`
//!   code (never buffers unboundedly), per-request deadlines are
//!   enforced mid-pipeline through
//!   [`CancelToken`](mcds_core::CancelToken) and on parked waiters by
//!   reactor timers, a malformed request poisons only its own
//!   connection, and `shutdown` drains gracefully.
//! * **Durability** — an optional WAL-backed [`OutcomeStore`]
//!   journals every committed cache entry (CRC32-framed, snapshot
//!   compaction with atomic rename) and warm-starts the cache on boot,
//!   tolerating torn writes and truncated tails by scanning to the
//!   last valid record. See `DESIGN.md` §16.
//! * **Observability** — the shared
//!   [`MetricsRegistry`](mcds_core::MetricsRegistry) counts requests,
//!   hits, misses, rejections, and latency, exposed over the wire via
//!   the `stats` verb.
//!
//! See `DESIGN.md` §12 for the wire grammar, the version/compat
//! window, and the reactor's delivery guarantees.
//!
//! ```no_run
//! use mcds_serve::{ClientConfig, ScheduleSpec, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::default())?;
//! let addr = server.local_addr().to_string();
//! let handle = std::thread::spawn(move || server.run());
//! let mut client = ClientConfig::new(&addr).with_retry(3).connect()?;
//! let scheduled = client.schedule(&ScheduleSpec::workload("e1"))?;
//! assert_eq!(scheduled.outcome.app, "e1");
//! client.shutdown()?;
//! # handle.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod client;
mod load;
mod protocol;
mod server;
mod store;
mod sys;

pub use cache::{
    degraded_key, CachedEntry, CachedError, CachedOutcome, CachedResult, FlightGuard, Lookup,
    OutcomeCache, Token, SHARDS,
};
pub use client::{Client, ClientConfig, ClientError};
pub use load::{
    run_abuse, run_load, AbuseConfig, AbuseMode, AbuseReport, KeySpace, LoadConfig, LoadReport,
    PhaseStats,
};
pub use protocol::{
    decode_request, format_key, parse_key, render_scheduled, ErrorCode, FrameBuffer, FrameError,
    Outcome, QosClass, RequestError, ResponseError, ResponseFrame, ScheduleSpec, Scheduled,
    ServeError, ServeRequest, ServeResponse, StatEntry, StatsReply,
};
pub use server::{ServeConfig, ServeSummary, Server};
pub use store::{
    crc32, encode_frame, scan, FsyncPolicy, OutcomeStore, Record, RecoveryReport, Scan,
    StoreConfig, DEFAULT_FSYNC_INTERVAL_MS, JOURNAL_FILE, MAX_RECORD_BYTES, SNAPSHOT_FILE,
    SNAPSHOT_TMP,
};
