//! Sharded, content-addressed outcome cache with non-blocking
//! single-flight deduplication.
//!
//! The cache maps a canonical request key
//! ([`mcds_core::request_key`]) to the published scheduling outcome.
//! Keys are routed to one of N power-of-two **shards** by their
//! high-order prefix bits, each shard behind its own lock — warm hits
//! from many connections never contend on a single mutex.
//!
//! Single-flight is *ticket-based*, designed for the reactor: a
//! [`lookup`](OutcomeCache::lookup) never blocks. The first requester
//! of a key becomes the leader ([`Lookup::Lead`]) and computes; a
//! concurrent requester registers an opaque waiter token and returns
//! immediately ([`Lookup::Wait`]). When the leader
//! [`fulfill`](FlightGuard::fulfill)s, every registered token is handed
//! back so the caller (the reactor) can answer those requests as cache
//! hits; when the leader [`abandon`](FlightGuard::abandon)s, the tokens
//! come back so the waiters can be failed with a typed, retryable
//! error instead of hanging.
//!
//! Both successes and deterministic scheduling errors (e.g. "infeasible
//! at this memory size") are cached — they are pure functions of the
//! request. Abandoned runs (deadline exceeded, injected faults, worker
//! panics) are *never* cached: the leader's guard removes the in-flight
//! entry so a later request with a longer deadline recomputes instead
//! of inheriting the short deadline's failure.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use mcds_core::PreparedSchedule;

use crate::protocol::{ErrorCode, Outcome};

/// Opaque waiter identity, packed by the caller (the reactor packs
/// connection slot coordinates into it). The cache only stores and
/// returns tokens; it never interprets them.
pub type Token = u64;

/// A cached failure: the typed code plus the human diagnostic. Only
/// deterministic failures ([`ErrorCode::BadRequest`]) are ever stored;
/// transient ones bypass the cache entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedError {
    /// Machine-readable classification.
    pub code: ErrorCode,
    /// Human-oriented diagnostic.
    pub message: String,
}

/// One published cache entry: the result plus — for successes — the
/// outcome pre-serialized once at publish time, so the reactor's hit
/// path splices bytes instead of re-serializing per response.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEntry {
    /// The published result.
    pub result: Result<Outcome, CachedError>,
    outcome_json: Option<String>,
}

impl CachedEntry {
    /// A successful entry; serializes the outcome once, here.
    #[must_use]
    pub fn ok(outcome: Outcome) -> CachedEntry {
        let json = serde_json::to_string(&outcome).expect("outcomes serialize");
        CachedEntry {
            result: Ok(outcome),
            outcome_json: Some(json),
        }
    }

    /// A deterministic-failure entry.
    #[must_use]
    pub fn err(code: ErrorCode, message: impl Into<String>) -> CachedEntry {
        CachedEntry {
            result: Err(CachedError {
                code,
                message: message.into(),
            }),
            outcome_json: None,
        }
    }

    /// A successful entry rebuilt from its journaled JSON. The exact
    /// journaled string is kept as the pre-serialized form, so a
    /// recovered entry serves back the *same bytes* that were
    /// originally published — the byte-identity contract the crash
    /// drill pins.
    pub fn from_json(json: String) -> Result<CachedEntry, serde_json::Error> {
        let outcome: Outcome = serde_json::from_str(&json)?;
        Ok(CachedEntry {
            result: Ok(outcome),
            outcome_json: Some(json),
        })
    }

    /// The pre-serialized outcome JSON (`None` for failure entries).
    #[must_use]
    pub fn outcome_json(&self) -> Option<&str> {
        self.outcome_json.as_deref()
    }
}

/// A published result, shared across every requester of its key.
pub type CachedResult = Arc<CachedEntry>;

/// The cache key a request's *degraded* outcome lives under: a salted
/// permutation of its canonical key. Degraded results (within-cluster
/// scheduler fallback) must never alias the full-quality result, so a
/// later request with a generous deadline still computes the real
/// thing.
#[must_use]
pub fn degraded_key(key: u64) -> u64 {
    mcds_core::splitmix64(key ^ 0xDE62_ADED_0000_0001)
}

enum Entry {
    /// A leader is computing; the tokens are the registered waiters.
    InFlight(Vec<Token>),
    Ready(CachedResult),
}

/// What [`OutcomeCache::lookup`] resolved the key to. Never blocks.
pub enum Lookup {
    /// A published result was available — a cache hit.
    Hit(CachedResult),
    /// This caller is the leader: compute, then
    /// [`fulfill`](FlightGuard::fulfill) or
    /// [`abandon`](FlightGuard::abandon) the guard.
    Lead(FlightGuard),
    /// Another requester is already computing this key; the caller's
    /// token was registered and will be returned by the leader's
    /// fulfill/abandon (or by [`OutcomeCache::take_orphans`] if the
    /// leader died).
    Wait,
}

/// The leader's obligation: exactly one of
/// [`fulfill`](Self::fulfill) / [`abandon`](Self::abandon), both of
/// which hand back the waiter tokens that accumulated during the
/// computation. Dropping the guard without either (worker panic that
/// escaped `catch_unwind`) clears the flight and parks the waiters on
/// the orphan list, so they can still be failed instead of hanging.
pub struct FlightGuard {
    cache: Arc<OutcomeCache>,
    key: u64,
    done: bool,
}

impl FlightGuard {
    /// The key this flight computes.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Publishes the result for every current and future requester.
    /// Returns the shared entry and the tokens of every waiter that
    /// registered while the computation ran — answer each as a hit.
    pub fn fulfill(mut self, entry: CachedEntry) -> (CachedResult, Vec<Token>) {
        self.done = true;
        let shared = Arc::new(entry);
        let mut map = self.cache.shard(self.key).lock().expect("cache shard lock");
        let waiters = match map.insert(self.key, Entry::Ready(Arc::clone(&shared))) {
            Some(Entry::InFlight(waiters)) => waiters,
            _ => Vec::new(),
        };
        drop(map);
        (shared, waiters)
    }

    /// Removes the in-flight entry without publishing — the run was
    /// abandoned and must not poison the cache. Returns the registered
    /// waiter tokens; the caller must fail each with a typed,
    /// retryable error (a fresh request for the key leads a new
    /// flight).
    #[must_use]
    pub fn abandon(mut self) -> Vec<Token> {
        self.done = true;
        self.cache.remove_in_flight(self.key)
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        if !self.done {
            let waiters = self.cache.remove_in_flight(self.key);
            self.cache
                .orphans
                .lock()
                .expect("orphan lock")
                .push((self.key, waiters));
        }
    }
}

/// One memoized analysis entry: in flight (a worker is preparing it) or
/// ready to reuse.
enum AnalysisSlot {
    InFlight,
    Ready(Arc<PreparedSchedule>),
}

/// One shard of the analysis family: its own map and its own condvar
/// for the blocking single-flight protocol.
struct AnalysisShard {
    map: Mutex<HashMap<u64, AnalysisSlot>>,
    cv: Condvar,
}

/// What [`OutcomeCache::analysis_lookup`] resolved a structure key to.
///
/// Unlike the outcome family's token-based [`Lookup`], this protocol
/// *blocks* concurrent requesters: the callers are worker threads (not
/// the reactor), and an analysis in flight resolves in milliseconds, so
/// parking the worker on the shard's condvar is simpler and strictly
/// better than re-running the analysis.
pub(crate) enum AnalysisLookup {
    /// A memoized analysis was available (possibly after a short wait
    /// for the in-flight leader) — the arch-only fast path.
    Hit(Arc<PreparedSchedule>),
    /// This worker is the leader: prepare the analysis, then
    /// [`fulfill`](AnalysisGuard::fulfill) the guard. Dropping the
    /// guard without fulfilling (preparation failed or panicked) clears
    /// the flight and wakes the waiters, which re-elect a leader.
    Lead(AnalysisGuard),
}

/// The analysis leader's obligation; see [`AnalysisLookup::Lead`].
pub(crate) struct AnalysisGuard {
    cache: Arc<OutcomeCache>,
    skey: u64,
    done: bool,
}

impl AnalysisGuard {
    /// Publishes the prepared analysis for every current and future
    /// requester of this structure key and wakes the blocked waiters.
    pub(crate) fn fulfill(mut self, prepared: Arc<PreparedSchedule>) {
        self.done = true;
        let shard = self.cache.analysis_shard(self.skey);
        shard
            .map
            .lock()
            .expect("analysis shard lock")
            .insert(self.skey, AnalysisSlot::Ready(prepared));
        shard.cv.notify_all();
    }
}

impl Drop for AnalysisGuard {
    fn drop(&mut self) {
        if !self.done {
            let shard = self.cache.analysis_shard(self.skey);
            let mut map = shard.map.lock().expect("analysis shard lock");
            if matches!(map.get(&self.skey), Some(AnalysisSlot::InFlight)) {
                map.remove(&self.skey);
            }
            drop(map);
            shard.cv.notify_all();
        }
    }
}

/// Default shard count — plenty for the worker/connection counts this
/// daemon runs with, small enough that an empty cache stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// The sharded cache. Shared across the reactor and worker threads via
/// `Arc`.
pub struct OutcomeCache {
    shards: Box<[Mutex<HashMap<u64, Entry>>]>,
    /// The analysis family: one shard per outcome shard, keyed by
    /// *structure* key and holding memoized
    /// [`PreparedSchedule`]s instead of outcomes.
    analysis: Box<[AnalysisShard]>,
    /// `log2(shards.len())` — the key's top `bits` bits select the
    /// shard.
    bits: u32,
    orphans: Mutex<Vec<(u64, Vec<Token>)>>,
}

impl OutcomeCache {
    /// An empty cache with [`DEFAULT_SHARDS`] shards.
    #[must_use]
    pub fn new() -> Arc<Self> {
        OutcomeCache::with_shards(DEFAULT_SHARDS)
    }

    /// An empty cache with `n` shards, rounded up to the next power of
    /// two and clamped to `[1, 1024]`.
    #[must_use]
    pub fn with_shards(n: usize) -> Arc<Self> {
        let n = n.clamp(1, 1024).next_power_of_two();
        Arc::new(OutcomeCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            analysis: (0..n)
                .map(|_| AnalysisShard {
                    map: Mutex::new(HashMap::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            bits: n.trailing_zeros(),
            orphans: Mutex::new(Vec::new()),
        })
    }

    /// The shard count (a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `key` routes to: the key's high-order prefix bits.
    /// Stable for a given key and shard count — the routing contract
    /// the shard tests pin.
    #[must_use]
    pub fn shard_of(&self, key: u64) -> usize {
        if self.bits == 0 {
            0
        } else {
            (key >> (64 - self.bits)) as usize
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Entry>> {
        &self.shards[self.shard_of(key)]
    }

    fn analysis_shard(&self, skey: u64) -> &AnalysisShard {
        &self.analysis[self.shard_of(skey)]
    }

    /// Resolves a *structure* key to its memoized
    /// [`PreparedSchedule`], blocking briefly if another worker is
    /// preparing it right now. The first requester becomes the leader
    /// and must [`fulfill`](AnalysisGuard::fulfill) (or drop) the
    /// returned guard. See [`AnalysisLookup`] for why this family
    /// blocks where the outcome family uses waiter tokens.
    #[must_use]
    pub(crate) fn analysis_lookup(self: &Arc<Self>, skey: u64) -> AnalysisLookup {
        let shard = self.analysis_shard(skey);
        let mut map = shard.map.lock().expect("analysis shard lock");
        loop {
            match map.get(&skey) {
                Some(AnalysisSlot::Ready(p)) => return AnalysisLookup::Hit(Arc::clone(p)),
                Some(AnalysisSlot::InFlight) => {
                    map = shard.cv.wait(map).expect("analysis shard lock");
                }
                None => {
                    map.insert(skey, AnalysisSlot::InFlight);
                    return AnalysisLookup::Lead(AnalysisGuard {
                        cache: Arc::clone(self),
                        skey,
                        done: false,
                    });
                }
            }
        }
    }

    /// Memoized analysis count across all shards (in-flight slots
    /// excluded).
    #[must_use]
    pub fn analysis_len(&self) -> usize {
        self.analysis
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .expect("analysis shard lock")
                    .values()
                    .filter(|e| matches!(e, AnalysisSlot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Resolves `key` without blocking: an immediate hit, leadership of
    /// the first computation, or registration of `token` as a waiter on
    /// the in-flight computation.
    #[must_use]
    pub fn lookup(self: &Arc<Self>, key: u64, token: Token) -> Lookup {
        let mut map = self.shard(key).lock().expect("cache shard lock");
        match map.get_mut(&key) {
            Some(Entry::Ready(r)) => Lookup::Hit(Arc::clone(r)),
            Some(Entry::InFlight(waiters)) => {
                waiters.push(token);
                Lookup::Wait
            }
            None => {
                map.insert(key, Entry::InFlight(Vec::new()));
                Lookup::Lead(FlightGuard {
                    cache: Arc::clone(self),
                    key,
                    done: false,
                })
            }
        }
    }

    /// A read-only peek: the published entry, if any. Never leads and
    /// never registers — the warm fast path when the caller cannot
    /// take on a leader's obligations.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<CachedResult> {
        match self.shard(key).lock().expect("cache shard lock").get(&key) {
            Some(Entry::Ready(r)) => Some(Arc::clone(r)),
            _ => None,
        }
    }

    /// Deregisters `token` from `key`'s in-flight waiter list — the
    /// waiter's own deadline expired. `true` when the token was still
    /// registered (the caller should fail the request);
    /// `false` when the flight already resolved (the token was, or is
    /// about to be, answered by the leader's completion).
    pub fn cancel_wait(&self, key: u64, token: Token) -> bool {
        let mut map = self.shard(key).lock().expect("cache shard lock");
        if let Some(Entry::InFlight(waiters)) = map.get_mut(&key) {
            if let Some(pos) = waiters.iter().position(|&t| t == token) {
                waiters.swap_remove(pos);
                return true;
            }
        }
        false
    }

    /// Publishes a result directly, without leading a flight — used by
    /// the degraded fallback path, which computes under the *degraded*
    /// key while the primary key's flight is abandoned. Overwrites any
    /// existing entry (results are deterministic, so a racing leader
    /// publishes the identical value) and returns any waiters that had
    /// registered on an in-flight entry for this key.
    pub fn publish(&self, key: u64, entry: CachedEntry) -> (CachedResult, Vec<Token>) {
        let shared = Arc::new(entry);
        let mut map = self.shard(key).lock().expect("cache shard lock");
        let waiters = match map.insert(key, Entry::Ready(Arc::clone(&shared))) {
            Some(Entry::InFlight(waiters)) => waiters,
            _ => Vec::new(),
        };
        drop(map);
        (shared, waiters)
    }

    /// Drains flights whose guard was dropped without fulfill/abandon
    /// (a worker died ungracefully). The caller fails each returned
    /// waiter with a typed, retryable error.
    #[must_use]
    pub fn take_orphans(&self) -> Vec<(u64, Vec<Token>)> {
        std::mem::take(&mut *self.orphans.lock().expect("orphan lock"))
    }

    /// Published entry count across all shards (in-flight entries
    /// excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard lock")
                    .values()
                    .filter(|e| matches!(e, Entry::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// `true` when nothing has been published yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published `(key, entry)` pair, sorted by key — the
    /// snapshot-compaction dump. In-flight entries are skipped (they
    /// have nothing durable to say yet); sorting makes the snapshot
    /// file a deterministic function of the cache contents.
    #[must_use]
    pub fn entries(&self) -> Vec<(u64, CachedResult)> {
        let mut all: Vec<(u64, CachedResult)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("cache shard lock")
                    .iter()
                    .filter_map(|(&k, e)| match e {
                        Entry::Ready(r) => Some((k, Arc::clone(r))),
                        Entry::InFlight(_) => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all
    }

    fn remove_in_flight(&self, key: u64) -> Vec<Token> {
        let mut map = self.shard(key).lock().expect("cache shard lock");
        // Only clear our own in-flight marker: a racing re-publish
        // (cannot normally happen, but cheap to guard) stays.
        if matches!(map.get(&key), Some(Entry::InFlight(_))) {
            if let Some(Entry::InFlight(waiters)) = map.remove(&key) {
                return waiters;
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn first_leads_then_hits() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(7, 0) else {
            panic!("empty cache: first requester leads");
        };
        let (_, waiters) = guard.fulfill(CachedEntry::ok(outcome(10)));
        assert!(waiters.is_empty(), "nobody waited");
        let Lookup::Hit(r) = cache.lookup(7, 1) else {
            panic!("published entry: second requester hits");
        };
        assert_eq!(r.result.as_ref().expect("ok").total_cycles, 10);
        assert!(r
            .outcome_json()
            .expect("pre-serialized")
            .contains("\"total_cycles\":10"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get(7).is_some(), "peek sees the entry");
        assert!(cache.get(8).is_none(), "peek never leads");
        assert!(matches!(cache.lookup(8, 2), Lookup::Lead(_)));
    }

    #[test]
    fn deterministic_errors_are_cached_too() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(1, 0) else {
            panic!("leads");
        };
        guard.fulfill(CachedEntry::err(ErrorCode::BadRequest, "infeasible"));
        let Lookup::Hit(r) = cache.lookup(1, 1) else {
            panic!("hits");
        };
        let err = r.result.as_ref().expect_err("cached failure");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.message, "infeasible");
        assert!(r.outcome_json().is_none());
    }

    #[test]
    fn waiters_are_returned_on_fulfill() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(3, 100) else {
            panic!("leads");
        };
        for token in [101, 102, 103] {
            assert!(matches!(cache.lookup(3, token), Lookup::Wait));
        }
        let (shared, mut waiters) = guard.fulfill(CachedEntry::ok(outcome(42)));
        waiters.sort_unstable();
        assert_eq!(waiters, vec![101, 102, 103]);
        assert_eq!(shared.result.as_ref().expect("ok").total_cycles, 42);
    }

    #[test]
    fn abandon_returns_waiters_and_clears_the_flight() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(2, 7) else {
            panic!("leads");
        };
        assert!(matches!(cache.lookup(2, 8), Lookup::Wait));
        let waiters = guard.abandon();
        assert_eq!(waiters, vec![8]);
        // The next requester leads again instead of hanging or seeing a
        // poisoned entry.
        assert!(matches!(cache.lookup(2, 9), Lookup::Lead(_)));
        assert!(cache.is_empty());
    }

    #[test]
    fn dropped_guards_orphan_their_waiters() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(4, 0) else {
            panic!("leads");
        };
        assert!(matches!(cache.lookup(4, 41), Lookup::Wait));
        drop(guard); // panic-safety path: no fulfill, no abandon
        let orphans = cache.take_orphans();
        assert_eq!(orphans, vec![(4, vec![41])]);
        assert!(cache.take_orphans().is_empty(), "drained once");
        assert!(matches!(cache.lookup(4, 42), Lookup::Lead(_)));
    }

    #[test]
    fn cancel_wait_deregisters_exactly_once() {
        let cache = OutcomeCache::new();
        let Lookup::Lead(guard) = cache.lookup(5, 0) else {
            panic!("leads");
        };
        assert!(matches!(cache.lookup(5, 51), Lookup::Wait));
        assert!(matches!(cache.lookup(5, 52), Lookup::Wait));
        assert!(cache.cancel_wait(5, 51), "registered token cancels");
        assert!(!cache.cancel_wait(5, 51), "second cancel is a no-op");
        let (_, waiters) = guard.fulfill(CachedEntry::ok(outcome(1)));
        assert_eq!(waiters, vec![52], "cancelled token is not returned");
        assert!(
            !cache.cancel_wait(5, 52),
            "cancel after resolution reports the race"
        );
    }

    #[test]
    fn publish_overrides_and_returns_pending_waiters() {
        let cache = OutcomeCache::new();
        // Publish under a degraded key while the primary flight is
        // still open: the primary key is untouched.
        let Lookup::Lead(guard) = cache.lookup(8, 0) else {
            panic!("leads");
        };
        let dkey = degraded_key(8);
        assert_ne!(dkey, 8);
        let (_, waiters) = cache.publish(dkey, CachedEntry::ok(outcome(5)));
        assert!(waiters.is_empty());
        let Lookup::Hit(r) = cache.lookup(dkey, 1) else {
            panic!("published degraded entry hits");
        };
        assert_eq!(r.result.as_ref().expect("ok").total_cycles, 5);
        let abandoned = guard.abandon();
        assert!(abandoned.is_empty());
        assert!(
            matches!(cache.lookup(8, 2), Lookup::Lead(_)),
            "primary key stays independent of the degraded entry"
        );
        // Publishing over an in-flight entry hands back its waiters.
        let Lookup::Lead(_guard) = cache.lookup(9, 0) else {
            panic!("leads");
        };
        assert!(matches!(cache.lookup(9, 91), Lookup::Wait));
        let (_, waiters) = cache.publish(9, CachedEntry::ok(outcome(6)));
        assert_eq!(waiters, vec![91]);
    }

    #[test]
    fn shard_routing_is_stable_and_prefix_based() {
        let cache = OutcomeCache::with_shards(16);
        assert_eq!(cache.shard_count(), 16);
        for key in [0u64, 1, 0xdead_beef, u64::MAX, 42 << 60] {
            assert_eq!(cache.shard_of(key), cache.shard_of(key), "stable");
            assert_eq!(cache.shard_of(key), (key >> 60) as usize, "top bits");
        }
        // Rounding and clamping.
        assert_eq!(OutcomeCache::with_shards(0).shard_count(), 1);
        assert_eq!(OutcomeCache::with_shards(3).shard_count(), 4);
        assert_eq!(OutcomeCache::with_shards(9000).shard_count(), 1024);
        // A single shard routes everything to 0 without shifting by 64.
        let one = OutcomeCache::with_shards(1);
        assert_eq!(one.shard_of(u64::MAX), 0);
    }

    fn prepared() -> Arc<PreparedSchedule> {
        use mcds_model::{ApplicationBuilder, Cycles, DataKind, Words};
        let mut b = ApplicationBuilder::new("cache-test");
        let a = b.data("a", Words::new(64), DataKind::ExternalInput);
        let f = b.data("f", Words::new(32), DataKind::FinalResult);
        b.kernel("k", 16, Cycles::new(200), &[a], &[f]);
        let app = b.iterations(8).build().expect("valid");
        Arc::new(mcds_core::Pipeline::new(app).prepare().expect("prepares"))
    }

    #[test]
    fn analysis_first_leads_then_hits() {
        let cache = OutcomeCache::new();
        let AnalysisLookup::Lead(guard) = cache.analysis_lookup(11) else {
            panic!("empty family: first requester leads");
        };
        let p = prepared();
        guard.fulfill(Arc::clone(&p));
        let AnalysisLookup::Hit(hit) = cache.analysis_lookup(11) else {
            panic!("memoized analysis hits");
        };
        assert!(Arc::ptr_eq(&hit, &p), "the same shared analysis");
        assert_eq!(cache.analysis_len(), 1);
        // Another structure key leads independently.
        assert!(matches!(cache.analysis_lookup(12), AnalysisLookup::Lead(_)));
        // The outcome family is untouched by the analysis family.
        assert!(cache.is_empty());
    }

    #[test]
    fn analysis_waiters_block_until_the_leader_fulfills() {
        let cache = OutcomeCache::new();
        let AnalysisLookup::Lead(guard) = cache.analysis_lookup(5) else {
            panic!("leads");
        };
        let p = prepared();
        let hit = std::thread::scope(|s| {
            let waiter = {
                let cache = Arc::clone(&cache);
                s.spawn(move || match cache.analysis_lookup(5) {
                    AnalysisLookup::Hit(h) => h,
                    AnalysisLookup::Lead(_) => panic!("flight is open: must wait, not lead"),
                })
            };
            // Give the waiter a moment to park on the condvar, then
            // publish.
            std::thread::sleep(std::time::Duration::from_millis(20));
            guard.fulfill(Arc::clone(&p));
            waiter.join().expect("no panic")
        });
        assert!(Arc::ptr_eq(&hit, &p));
    }

    #[test]
    fn dropped_analysis_guard_reelects_a_leader() {
        let cache = OutcomeCache::new();
        let AnalysisLookup::Lead(guard) = cache.analysis_lookup(6) else {
            panic!("leads");
        };
        let relead = std::thread::scope(|s| {
            let waiter = {
                let cache = Arc::clone(&cache);
                s.spawn(move || matches!(cache.analysis_lookup(6), AnalysisLookup::Lead(_)))
            };
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(guard); // preparation failed: no fulfill
            waiter.join().expect("no panic")
        });
        assert!(relead, "a waiter takes over the abandoned flight");
        assert_eq!(cache.analysis_len(), 0);
    }

    #[test]
    fn concurrent_lookups_elect_exactly_one_leader() {
        let cache = OutcomeCache::new();
        let leads: Vec<bool> = std::thread::scope(|s| {
            (0..8)
                .map(|i| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || match cache.lookup(77, i) {
                        Lookup::Lead(guard) => {
                            guard.fulfill(CachedEntry::ok(outcome(1)));
                            true
                        }
                        _ => false,
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(
            leads.iter().filter(|&&l| l).count(),
            1,
            "single-flight: one leader among concurrent requesters"
        );
    }
}
