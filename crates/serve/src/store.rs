//! Crash-safe durability for the outcome cache: an append-only
//! write-ahead journal plus periodic snapshot compaction.
//!
//! Every committed cache entry (success, cached deterministic failure,
//! degraded-fallback result) is appended to `journal.log` as a
//! length-prefixed, CRC32-framed record *after* it is published
//! in-memory — the cache is the source of truth while the process
//! lives; the journal is what survives `kill -9`. On startup,
//! [`OutcomeStore::open`] replays `snapshot.log` then `journal.log`
//! into the [`OutcomeCache`] before the server accepts a single
//! connection, so a restart serves every journaled key byte-identical
//! from memory with zero pipeline re-runs.
//!
//! **Recovery is paranoid and never panics.** A frame is accepted only
//! if its length field is sane, its payload is fully present, its
//! CRC32 matches, and the payload decodes; the scan stops at the first
//! violation and discards the rest of the file (`serve.store.dropped`
//! counts the discarded bytes, `serve.store.corrupt` the cut). This
//! single rule absorbs every crash shape at once: a torn append is a
//! short frame, a truncated tail is a short frame, a bit flip is a CRC
//! mismatch, and a crash between compaction's atomic rename and the
//! journal reset merely replays duplicate records — record application
//! is an idempotent key→value put, so duplicates are harmless.
//!
//! Compaction rewrites the cache contents to `snapshot.tmp`, fsyncs,
//! renames over `snapshot.log` (the rename is the commit point), and
//! truncates the journal. Because the snapshot is dumped from the
//! *in-memory* cache, compaction also heals any torn tail the journal
//! accumulated while running. A graceful shutdown compacts, then
//! appends a [`Record::CleanShutdown`] marker so the next recovery can
//! prove the tail scan found a deliberate end of log rather than a
//! crash point.
//!
//! Durability of individual appends is governed by [`FsyncPolicy`]:
//! `always` syncs every record (what the crash drill and chaos soak
//! run), `interval` syncs at most once per window, `never` leaves it
//! to the OS. The [`Seam::StoreAppend`], [`Seam::StoreFsync`] and
//! [`Seam::StoreLoad`] fault seams make torn writes, sync failures and
//! read-back corruption deterministically injectable, so chaos replays
//! stay byte-identical per seed.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mcds_core::{Fault, FaultPlan, MetricsRegistry, Seam};
use serde::{Deserialize, Serialize};

use crate::cache::{CachedEntry, OutcomeCache};
use crate::protocol::ErrorCode;

/// Journal file name inside the store directory.
pub const JOURNAL_FILE: &str = "journal.log";
/// Snapshot file name inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.log";
/// Scratch name the snapshot is built under before the atomic rename.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Upper bound on one record's payload. A frame whose length field
/// exceeds this is treated as corrupt without attempting the read — a
/// bit flip in the length must not make recovery allocate gigabytes.
pub const MAX_RECORD_BYTES: usize = 1 << 22;

// ---- CRC32 (IEEE 802.3, reflected) -------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the frame checksum. Hand-rolled: the
/// vendored dependency set has no checksum crate, and 8 table lookups
/// per 8 bytes is plenty for journal rates.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---- record format -----------------------------------------------------

/// One journal/snapshot record. Serialized as JSON inside a binary
/// frame: `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Record {
    /// A committed successful outcome: the canonical request key and
    /// the outcome JSON *exactly as published* — recovery re-serves
    /// these bytes, which is what makes restart byte-identical.
    Outcome {
        /// Canonical request key ([`mcds_core::request_key`]).
        key: u64,
        /// The pre-serialized outcome, verbatim.
        json: String,
    },
    /// A cached deterministic failure (e.g. "infeasible at this FB
    /// size") — a pure function of the request, so it recovers too.
    Failure {
        /// Canonical request key.
        key: u64,
        /// Wire string of the [`ErrorCode`].
        code: String,
        /// Human-oriented diagnostic.
        message: String,
    },
    /// Index record linking a primary key to the degraded key its
    /// fallback outcome was published under (the outcome itself rides
    /// in its own [`Record::Outcome`]).
    Degraded {
        /// The canonical key of the original request.
        primary: u64,
        /// [`crate::degraded_key`] of `primary`.
        degraded: u64,
    },
    /// Index record: a structure key whose analysis was memoized.
    /// Analyses hold live `Arc` graphs and are *not* persisted — the
    /// record exists so recovery can account for warm-start coverage.
    Analysis {
        /// The workload-structure key ([`mcds_core::structure_key`]).
        structure_key: u64,
    },
    /// Snapshot header: the compaction epoch that produced the file.
    Epoch {
        /// Monotonic compaction counter.
        epoch: u64,
    },
    /// Clean-shutdown marker: the journal ends here on purpose.
    CleanShutdown {
        /// Snapshot epoch at shutdown.
        epoch: u64,
    },
}

impl Record {
    /// The record that journals `entry` under `key`.
    fn entry(key: u64, entry: &CachedEntry) -> Record {
        match &entry.result {
            Ok(ok) => Record::Outcome {
                key,
                json: ok.json().to_owned(),
            },
            Err(e) => Record::Failure {
                key,
                code: e.code.as_str().to_owned(),
                message: e.message.clone(),
            },
        }
    }
}

/// Encodes one record as a framed byte string ready to append.
#[must_use]
pub fn encode_frame(record: &Record) -> Vec<u8> {
    let payload = serde_json::to_string(record)
        .expect("records serialize")
        .into_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record fits u32")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One step of the frame scanner.
enum Step {
    /// A valid record occupying `len` bytes from the scan position.
    Record(Record, usize),
    /// Clean end of input (the position sits exactly on a boundary).
    End,
    /// Torn, truncated, oversized, checksum-failed or undecodable
    /// frame — the scan must stop and discard from here.
    Corrupt,
}

fn step(bytes: &[u8], pos: usize) -> Step {
    if pos == bytes.len() {
        return Step::End;
    }
    let Some(header) = bytes.get(pos..pos + 8) else {
        return Step::Corrupt; // torn header
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Step::Corrupt; // bit-flipped length field
    }
    let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
        return Step::Corrupt; // torn payload
    };
    if crc32(payload) != crc {
        return Step::Corrupt; // bit flip anywhere in the payload
    }
    let Ok(text) = std::str::from_utf8(payload) else {
        return Step::Corrupt;
    };
    let Ok(record) = serde_json::from_str::<Record>(text) else {
        return Step::Corrupt;
    };
    Step::Record(record, 8 + len)
}

/// Result of scanning a journal/snapshot byte string.
#[derive(Debug)]
pub struct Scan {
    /// Every record in the longest valid prefix, in append order.
    pub records: Vec<Record>,
    /// Length of that valid prefix in bytes.
    pub valid_bytes: u64,
    /// Bytes after the prefix that were discarded.
    pub dropped_bytes: u64,
    /// `true` when the scan was cut by an invalid frame (as opposed to
    /// ending exactly on a frame boundary).
    pub corrupt: bool,
}

/// Scans `bytes` to the last valid record — the pure core of recovery,
/// exposed so property tests can drive it with arbitrary mutations.
/// Never panics on any input.
#[must_use]
pub fn scan(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut corrupt = false;
    loop {
        match step(bytes, pos) {
            Step::End => break,
            Step::Corrupt => {
                corrupt = true;
                break;
            }
            Step::Record(record, len) => {
                records.push(record);
                pos += len;
            }
        }
    }
    Scan {
        records,
        valid_bytes: pos as u64,
        dropped_bytes: (bytes.len() - pos) as u64,
        corrupt,
    }
}

// ---- configuration -----------------------------------------------------

/// When journal appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — the strongest guarantee, and the
    /// only deterministic choice (what `mcds crashdrill` and the chaos
    /// soak run).
    Always,
    /// `fsync` at most once per window (milliseconds): bounded data
    /// loss, journal-rate writes.
    Interval(u64),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    Never,
}

/// Default window for [`FsyncPolicy::Interval`], in milliseconds.
pub const DEFAULT_FSYNC_INTERVAL_MS: u64 = 25;

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "interval" => Ok(FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL_MS)),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("interval:").map(str::parse) {
                Some(Ok(ms)) => Ok(FsyncPolicy::Interval(ms)),
                _ => Err(format!(
                    "unknown fsync policy `{other}` (use always|interval|interval:<ms>|never)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Interval(ms) => write!(f, "interval:{ms}"),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// Durability configuration: where the store lives and how hard it
/// syncs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding `journal.log` / `snapshot.log` (created if
    /// absent).
    pub dir: PathBuf,
    /// Sync policy for journal appends.
    pub fsync: FsyncPolicy,
    /// Journal size that triggers snapshot compaction.
    pub compact_threshold_bytes: u64,
}

impl StoreConfig {
    /// A config with the default sync policy ([`FsyncPolicy::Always`])
    /// and a 4 MiB compaction threshold.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            compact_threshold_bytes: 4 << 20,
        }
    }
}

/// What recovery found and what it had to discard. Serializable so the
/// crash drill can carry it as evidence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Cache entries (outcomes + cached failures) republished into the
    /// in-memory cache.
    pub recovered: u64,
    /// Analysis index records seen (coverage accounting only).
    pub analyses_indexed: u64,
    /// Degraded-key index records seen.
    pub degraded_links: u64,
    /// Bytes discarded after the last valid record (both files).
    pub dropped_bytes: u64,
    /// Invalid frames that cut a scan (at most one per file).
    pub corrupt_frames: u64,
    /// `true` when the journal ended with the clean-shutdown marker —
    /// the previous process exited deliberately, nothing can be torn.
    pub clean_shutdown: bool,
    /// Compaction epoch of the snapshot that was loaded (0 = none).
    pub snapshot_epoch: u64,
}

// ---- the store ---------------------------------------------------------

struct Writer {
    file: File,
    last_sync: Instant,
}

/// The WAL-backed durability layer. One per server, shared with the
/// worker pool via `Arc`; appends serialize on an internal lock (the
/// file is a single append stream regardless).
pub struct OutcomeStore {
    dir: PathBuf,
    policy: FsyncPolicy,
    compact_threshold: u64,
    metrics: Arc<MetricsRegistry>,
    faults: Option<Arc<FaultPlan>>,
    writer: Mutex<Writer>,
    journal_bytes: AtomicU64,
    snapshot_epoch: AtomicU64,
    recovery: RecoveryReport,
}

impl OutcomeStore {
    /// Opens (or creates) the store at `config.dir`, replaying the
    /// snapshot and journal into `cache` — warm start. Torn or corrupt
    /// tails are discarded (counted, never fatal); the journal is then
    /// truncated to its valid prefix so new appends extend good data.
    /// Recovery totals land on `metrics` as
    /// `serve.store.recovered/dropped/corrupt`.
    pub fn open(
        config: &StoreConfig,
        cache: &Arc<OutcomeCache>,
        metrics: &Arc<MetricsRegistry>,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Arc<OutcomeStore>> {
        fs::create_dir_all(&config.dir)?;
        // A crash mid-compaction can leave the scratch file; the
        // rename is the commit point, so an existing tmp is by
        // definition incomplete — discard it.
        let _ = fs::remove_file(config.dir.join(SNAPSHOT_TMP));

        let mut report = RecoveryReport::default();
        let mut epoch = 0u64;
        load_file(
            &config.dir.join(SNAPSHOT_FILE),
            cache,
            metrics,
            faults.as_deref(),
            &mut report,
            &mut epoch,
        )?;
        let journal_path = config.dir.join(JOURNAL_FILE);
        let valid = load_file(
            &journal_path,
            cache,
            metrics,
            faults.as_deref(),
            &mut report,
            &mut epoch,
        )?;
        report.snapshot_epoch = epoch;

        // Truncate the torn tail (if any) so appends extend the valid
        // prefix instead of burying new records behind garbage.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&journal_path)?;
        file.set_len(valid)?;
        file.seek(SeekFrom::Start(valid))?;

        metrics.add("serve.store.recovered", report.recovered);
        metrics.add("serve.store.dropped", report.dropped_bytes);
        metrics.add("serve.store.corrupt", report.corrupt_frames);
        metrics.add("serve.store.analyses_indexed", report.analyses_indexed);
        if report.clean_shutdown {
            metrics.incr("serve.store.clean_start");
        }

        Ok(Arc::new(OutcomeStore {
            dir: config.dir.clone(),
            policy: config.fsync,
            compact_threshold: config.compact_threshold_bytes.max(1),
            metrics: Arc::clone(metrics),
            faults,
            writer: Mutex::new(Writer {
                file,
                last_sync: Instant::now(),
            }),
            journal_bytes: AtomicU64::new(valid),
            snapshot_epoch: AtomicU64::new(epoch),
            recovery: report,
        }))
    }

    /// What recovery found when this store opened.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current journal length in bytes (valid prefix + this run's
    /// appends).
    #[must_use]
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.load(Ordering::Relaxed)
    }

    /// Compaction epoch of the current snapshot.
    #[must_use]
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch.load(Ordering::Relaxed)
    }

    /// Journals a committed cache entry under `key`. Errors never
    /// propagate to the request path: a failed append is counted
    /// (`serve.store.append_errors`) and serving continues from memory.
    pub fn append_entry(&self, key: u64, entry: &CachedEntry) {
        self.append(&Record::entry(key, entry));
    }

    /// Journals the primary→degraded key link for a fallback outcome.
    pub fn append_degraded(&self, primary: u64, degraded: u64) {
        self.append(&Record::Degraded { primary, degraded });
    }

    /// Journals an analysis-memo index record.
    pub fn append_analysis(&self, structure_key: u64) {
        self.append(&Record::Analysis { structure_key });
    }

    fn decide(&self, seam: Seam) -> Option<Fault> {
        let fault = self.faults.as_deref().and_then(|f| f.decide(seam));
        if fault.is_some() {
            self.metrics.incr(seam.metric());
        }
        fault
    }

    fn append(&self, record: &Record) {
        let frame = encode_frame(record);
        let mut w = self.writer.lock().expect("store writer lock");
        // Injected short write: only a prefix of the frame reaches the
        // file. The in-memory cache still serves the entry; recovery
        // will discard the torn record (and anything appended after
        // it, until compaction heals the journal from memory).
        let write_len = match self.decide(Seam::StoreAppend) {
            Some(Fault::ShortWrite) => (frame.len() / 2).max(1),
            _ => frame.len(),
        };
        if write_len < frame.len() {
            self.metrics.incr("serve.store.append_errors");
        }
        match w.file.write_all(&frame[..write_len]) {
            Ok(()) => {
                self.journal_bytes
                    .fetch_add(write_len as u64, Ordering::Relaxed);
                self.metrics.incr("serve.store.appends");
            }
            Err(_) => {
                self.metrics.incr("serve.store.append_errors");
                return;
            }
        }
        self.sync(&mut w, false);
    }

    /// Applies the fsync policy after an append (`force` bypasses both
    /// the policy and the fault seam — the shutdown path).
    fn sync(&self, w: &mut Writer, force: bool) {
        let due = force
            || match self.policy {
                FsyncPolicy::Always => true,
                FsyncPolicy::Interval(ms) => w.last_sync.elapsed() >= Duration::from_millis(ms),
                FsyncPolicy::Never => false,
            };
        if !due {
            return;
        }
        if !force {
            if let Some(Fault::FsyncFail) = self.decide(Seam::StoreFsync) {
                self.metrics.incr("serve.store.fsync_errors");
                return;
            }
        }
        match w.file.sync_data() {
            Ok(()) => {
                w.last_sync = Instant::now();
                self.metrics.incr("serve.store.fsyncs");
            }
            Err(_) => self.metrics.incr("serve.store.fsync_errors"),
        }
    }

    /// Compacts when the journal has outgrown the threshold; no-op
    /// otherwise. Called from the worker commit path after appends.
    pub fn maybe_compact(&self, cache: &OutcomeCache) {
        if self.journal_bytes.load(Ordering::Relaxed) < self.compact_threshold {
            return;
        }
        let mut w = self.writer.lock().expect("store writer lock");
        // Re-check under the lock: a racing worker may have compacted.
        if self.journal_bytes.load(Ordering::Relaxed) < self.compact_threshold {
            return;
        }
        if self.compact_locked(&mut w, cache).is_err() {
            self.metrics.incr("serve.store.compact_errors");
        }
    }

    /// Unconditional compaction: snapshot the cache, atomically
    /// replace `snapshot.log`, reset the journal.
    pub fn compact(&self, cache: &OutcomeCache) -> std::io::Result<()> {
        let mut w = self.writer.lock().expect("store writer lock");
        self.compact_locked(&mut w, cache)
    }

    fn compact_locked(&self, w: &mut Writer, cache: &OutcomeCache) -> std::io::Result<()> {
        let epoch = self.snapshot_epoch.load(Ordering::Relaxed) + 1;
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut out = File::create(&tmp)?;
        out.write_all(&encode_frame(&Record::Epoch { epoch }))?;
        for (key, entry) in cache.entries() {
            out.write_all(&encode_frame(&Record::entry(key, &entry)))?;
        }
        out.sync_data()?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        // Directory fsync so the rename itself is durable; best
        // effort — not every filesystem supports it.
        let _ = File::open(&self.dir).and_then(|d| d.sync_all());
        // The snapshot now covers everything the journal said (and
        // more: it is dumped from memory, so it also heals any torn
        // tail accumulated this run). Reset the journal.
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        let _ = w.file.sync_data();
        self.journal_bytes.store(0, Ordering::Relaxed);
        self.snapshot_epoch.store(epoch, Ordering::Relaxed);
        self.metrics.incr("serve.store.compactions");
        Ok(())
    }

    /// Graceful-drain hook: flush everything into a fresh snapshot and
    /// end the (now empty) journal with the clean-shutdown marker, so
    /// the next recovery knows nothing can be torn.
    pub fn clean_shutdown(&self, cache: &OutcomeCache) {
        let mut w = self.writer.lock().expect("store writer lock");
        if self.compact_locked(&mut w, cache).is_err() {
            self.metrics.incr("serve.store.compact_errors");
            // Fall through: the marker is still worth attempting — a
            // journal that ends with it is clean even if long.
        }
        let epoch = self.snapshot_epoch.load(Ordering::Relaxed);
        let frame = encode_frame(&Record::CleanShutdown { epoch });
        if w.file.write_all(&frame).is_ok() {
            self.journal_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            self.sync(&mut w, true);
            self.metrics.incr("serve.store.clean_shutdown");
        }
    }
}

/// Replays one file into the cache; returns the valid prefix length.
/// A missing file is an empty file; any other I/O error propagates
/// (the operator asked for durability — silently running without it
/// would be worse than failing startup).
fn load_file(
    path: &Path,
    cache: &Arc<OutcomeCache>,
    metrics: &Arc<MetricsRegistry>,
    faults: Option<&FaultPlan>,
    report: &mut RecoveryReport,
    epoch: &mut u64,
) -> std::io::Result<u64> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut pos = 0usize;
    let mut clean = false;
    loop {
        match step(&bytes, pos) {
            Step::End => break,
            Step::Corrupt => {
                report.corrupt_frames += 1;
                break;
            }
            Step::Record(record, len) => {
                // Injected read-back corruption: treat this record as
                // CRC-failed, cutting the scan here.
                if let Some(Fault::CorruptRecord) = faults.and_then(|f| f.decide(Seam::StoreLoad)) {
                    metrics.incr(Seam::StoreLoad.metric());
                    report.corrupt_frames += 1;
                    break;
                }
                clean = matches!(record, Record::CleanShutdown { .. });
                apply(record, cache, report, epoch);
                pos += len;
            }
        }
    }
    report.dropped_bytes += (bytes.len() - pos) as u64;
    // The marker only certifies a clean end when it is the *last*
    // record — a marker mid-file is just history from an earlier
    // clean restart.
    report.clean_shutdown = clean && pos == bytes.len();
    Ok(pos as u64)
}

fn apply(record: Record, cache: &Arc<OutcomeCache>, report: &mut RecoveryReport, epoch: &mut u64) {
    match record {
        Record::Outcome { key, json } => match CachedEntry::from_json(json) {
            Ok(entry) => {
                cache.publish(key, entry);
                report.recovered += 1;
            }
            // CRC-valid frame whose inner outcome does not parse can
            // only come from a version skew; skip it rather than
            // poison the cache or cut the scan.
            Err(_) => report.corrupt_frames += 1,
        },
        Record::Failure { key, code, message } => {
            let code = ErrorCode::from_wire(&code).unwrap_or(ErrorCode::BadRequest);
            cache.publish(key, CachedEntry::err(code, message));
            report.recovered += 1;
        }
        Record::Degraded { .. } => report.degraded_links += 1,
        Record::Analysis { .. } => report.analyses_indexed += 1,
        Record::Epoch { epoch: e } => *epoch = e,
        Record::CleanShutdown { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Outcome;

    fn outcome(cycles: u64) -> Outcome {
        Outcome {
            app: "t".to_owned(),
            scheduler: "cds".to_owned(),
            clusters: 1,
            rf: 1,
            dt_avoided_words: 0,
            data_words: 0,
            context_words: 0,
            total_cycles: cycles,
            degraded: false,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mcds-store-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_scan_in_order() {
        let records = vec![
            Record::Epoch { epoch: 3 },
            Record::Outcome {
                key: 7,
                json: "{\"x\":1}".to_owned(),
            },
            Record::Degraded {
                primary: 7,
                degraded: 9,
            },
            Record::Analysis { structure_key: 11 },
            Record::CleanShutdown { epoch: 3 },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_frame(r));
        }
        let scan = scan(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_bytes, bytes.len() as u64);
        assert_eq!(scan.dropped_bytes, 0);
        assert!(!scan.corrupt);
    }

    #[test]
    fn truncation_and_bit_flips_cut_the_scan_without_panicking() {
        let a = encode_frame(&Record::Analysis { structure_key: 1 });
        let b = encode_frame(&Record::Analysis { structure_key: 2 });
        let mut bytes = a.clone();
        bytes.extend_from_slice(&b);
        // Truncate mid-second-frame: first record survives.
        let torn = &bytes[..a.len() + b.len() / 2];
        let s = scan(torn);
        assert_eq!(s.records.len(), 1);
        assert!(s.corrupt);
        assert_eq!(s.valid_bytes, a.len() as u64);
        // Flip a payload byte in the first frame: nothing survives,
        // even though the second frame is intact (no resync — the
        // format has no record boundaries once framing is lost).
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        let s = scan(&flipped);
        assert!(s.records.is_empty());
        assert!(s.corrupt);
        // A bit-flipped length field must not allocate or read wild.
        let mut bad_len = bytes;
        bad_len[3] = 0xFF;
        assert!(scan(&bad_len).records.is_empty());
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        assert_eq!("always".parse(), Ok(FsyncPolicy::Always));
        assert_eq!("never".parse(), Ok(FsyncPolicy::Never));
        assert_eq!(
            "interval".parse(),
            Ok(FsyncPolicy::Interval(DEFAULT_FSYNC_INTERVAL_MS))
        );
        assert_eq!("interval:5".parse(), Ok(FsyncPolicy::Interval(5)));
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::Interval(5).to_string(), "interval:5");
    }

    #[test]
    fn store_persists_and_recovers_entries() {
        let dir = tempdir("roundtrip");
        let config = StoreConfig::new(&dir);
        let metrics = Arc::new(mcds_core::MetricsRegistry::new());
        {
            let cache = OutcomeCache::new();
            let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("open");
            let entry = CachedEntry::ok(outcome(42));
            cache.publish(5, entry.clone());
            store.append_entry(5, &entry);
            let err = CachedEntry::err(ErrorCode::BadRequest, "infeasible");
            cache.publish(6, err.clone());
            store.append_entry(6, &err);
            assert!(store.journal_bytes() > 0);
            // No clean shutdown: the journal alone must carry it.
        }
        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("reopen");
        let report = store.recovery();
        assert_eq!(report.recovered, 2);
        assert_eq!(report.dropped_bytes, 0);
        assert!(!report.clean_shutdown);
        let hit = cache.get(5).expect("recovered outcome");
        assert_eq!(hit.result.as_ref().expect("ok").outcome().total_cycles, 42);
        assert_eq!(
            hit.result.as_ref().expect("ok").json(),
            CachedEntry::ok(outcome(42)).result.expect("ok").json(),
            "recovered bytes are the published bytes"
        );
        let err = cache.get(6).expect("recovered failure");
        assert_eq!(
            err.result.as_ref().expect_err("cached failure").message,
            "infeasible"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted_then_healed_by_compaction() {
        let dir = tempdir("torn");
        let config = StoreConfig::new(&dir);
        let metrics = Arc::new(mcds_core::MetricsRegistry::new());
        {
            let cache = OutcomeCache::new();
            let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("open");
            let entry = CachedEntry::ok(outcome(1));
            cache.publish(1, entry.clone());
            store.append_entry(1, &entry);
        }
        // Tear the journal by appending garbage (a crashed append).
        let journal = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("journal");
        f.write_all(&[0xAB, 0xCD, 0xEF]).expect("garbage");
        drop(f);

        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("reopen");
        assert_eq!(store.recovery().recovered, 1);
        assert_eq!(store.recovery().dropped_bytes, 3);
        assert_eq!(store.recovery().corrupt_frames, 1);
        // The tail was truncated away: appends after recovery recover.
        let entry = CachedEntry::ok(outcome(2));
        cache.publish(2, entry.clone());
        store.append_entry(2, &entry);
        drop(store);
        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("reopen 2");
        assert_eq!(store.recovery().recovered, 2);
        assert_eq!(store.recovery().dropped_bytes, 0);

        // Compaction folds everything into the snapshot and resets
        // the journal.
        store.compact(&cache).expect("compact");
        assert_eq!(store.journal_bytes(), 0);
        assert_eq!(store.snapshot_epoch(), 1);
        drop(store);
        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("reopen 3");
        assert_eq!(store.recovery().recovered, 2);
        assert_eq!(store.recovery().snapshot_epoch, 1);
        assert_eq!(cache.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_shutdown_marks_the_journal() {
        let dir = tempdir("clean");
        let config = StoreConfig::new(&dir);
        let metrics = Arc::new(mcds_core::MetricsRegistry::new());
        {
            let cache = OutcomeCache::new();
            let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("open");
            let entry = CachedEntry::ok(outcome(9));
            cache.publish(9, entry.clone());
            store.append_entry(9, &entry);
            store.clean_shutdown(&cache);
        }
        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("reopen");
        assert!(store.recovery().clean_shutdown);
        assert_eq!(store.recovery().recovered, 1, "snapshot carried it");
        assert_eq!(store.recovery().dropped_bytes, 0);
        assert!(store.snapshot_epoch() >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_compaction_tmp_file_is_discarded() {
        let dir = tempdir("midcompact");
        let config = StoreConfig::new(&dir);
        let metrics = Arc::new(mcds_core::MetricsRegistry::new());
        fs::write(dir.join(SNAPSHOT_TMP), b"half-written snapshot").expect("tmp");
        let cache = OutcomeCache::new();
        let store = OutcomeStore::open(&config, &cache, &metrics, None).expect("open");
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp discarded");
        assert_eq!(store.recovery().recovered, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
