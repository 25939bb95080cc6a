//! End-to-end tests for the serving layer: a real reactor server on a
//! loopback port, the typed client, and the load harness, covering
//! caching, overload rejection, per-connection error isolation,
//! deadlines, pipelining, protocol versioning, and graceful drain.

use std::net::SocketAddr;
use std::thread::JoinHandle;

use mcds_core::McdsError;
use mcds_serve::{
    run_load, Client, ClientConfig, ClientError, ErrorCode, LoadConfig, ScheduleSpec, ServeConfig,
    ServeSummary, Server,
};

/// Binds on a free loopback port and runs the server on its own
/// thread.
fn start(config: ServeConfig) -> (SocketAddr, JoinHandle<Result<ServeSummary, McdsError>>) {
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn connect(addr: SocketAddr) -> Client {
    ClientConfig::new(addr.to_string())
        .connect()
        .expect("connect")
}

/// The typed failure a call must produce, or the test fails with the
/// actual response.
fn expect_server_error(
    result: Result<mcds_serve::Scheduled, ClientError>,
) -> mcds_serve::ServeError {
    match result {
        Err(ClientError::Server(e)) => e,
        other => panic!("expected a typed server failure, got {other:?}"),
    }
}

#[test]
fn load_run_hits_the_cache_and_drains_cleanly() {
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    });

    let report = run_load(&LoadConfig {
        addr: addr.to_string(),
        connections: 4,
        requests: 100,
        distinct_keys: 6,
        pipeline: 8,
        seed: 7,
        ..LoadConfig::default()
    })
    .expect("load run succeeds");
    assert_eq!(report.requests, 100, "every request gets a response");
    assert_eq!(report.ok, 100, "no errors under normal load");
    assert_eq!(report.errors + report.rejected, 0);
    assert_eq!(report.distinct_keys, 6);
    assert_eq!(
        report.cold.requests, 6,
        "cold phase touches each key exactly once"
    );
    assert_eq!(report.cold.cache_misses, 6, "cold requests compute");
    assert_eq!(
        report.warm.cache_hits, report.warm.requests,
        "every warm request is a cache hit"
    );
    assert!(
        report.consistent_outcomes,
        "identical keys must serialize to byte-identical outcomes"
    );
    assert!(
        report.p99_us >= report.warm.p99_us,
        "merged p99 cannot undercut the warm phase"
    );

    let mut control = connect(addr);
    control.ping().expect("pong");
    let stats = control.stats().expect("stats payload");
    let get = |name: &str| {
        stats
            .entries
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };
    assert!(get("serve.requests") >= 102, "load + ping + stats counted");
    assert_eq!(get("serve.cache.hits"), report.cache_hits);
    assert_eq!(get("serve.cache.misses"), report.cache_misses);

    control.shutdown().expect("acknowledged drain");
    let summary = handle.join().expect("no panic").expect("clean drain");
    assert_eq!(summary.cache_hits, report.cache_hits);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.legacy_frames, 0, "v1 clients leave no legacy marks");
}

#[test]
fn full_queue_rejects_with_a_typed_overload_code() {
    // queue_depth 0: every computation is an overload.
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = connect(addr);
    let error = expect_server_error(client.schedule(&ScheduleSpec::workload("e1")));
    assert_eq!(error.code, ErrorCode::Overloaded);
    assert!(error.retryable(), "overload is transient by definition");
    assert!(error.key.is_some(), "rejection still reports the key");
    client.shutdown().expect("drain");
    let summary = handle.join().expect("no panic").expect("clean drain");
    assert!(summary.rejected >= 1);
}

#[test]
fn malformed_requests_poison_only_their_own_connection() {
    let (addr, handle) = start(ServeConfig::default());
    let mut bad = connect(addr);
    let mut good = connect(addr);

    // Hand-typed garbage goes through the raw line interface the typed
    // client cannot produce.
    let garbage = bad.raw_roundtrip("this is not json").expect("typed reply");
    assert_eq!(failure_code(&garbage), Some(ErrorCode::BadRequest));
    let unknown = bad
        .raw_roundtrip(r#"{"v":1,"verb":"frobnicate"}"#)
        .expect("typed reply");
    assert_eq!(failure_code(&unknown), Some(ErrorCode::BadRequest));
    let incomplete = bad
        .raw_roundtrip(r#"{"v":1,"verb":"schedule"}"#)
        .expect("typed reply");
    assert_eq!(failure_code(&incomplete), Some(ErrorCode::BadRequest));
    // A request too large to plan is refused before any planning.
    let oversized = bad
        .raw_roundtrip(
            r#"{"v":1,"verb":"schedule","workload":"e1","iterations":1000000000000,"scheduler":"ds"}"#,
        )
        .expect("typed reply");
    assert_eq!(failure_code(&oversized), Some(ErrorCode::BadRequest));

    // The same connection keeps working after its errors…
    bad.ping().expect("connection survives its own errors");
    let after = bad
        .schedule(&ScheduleSpec {
            iterations: Some(8),
            scheduler: Some("ds".to_owned()),
            ..ScheduleSpec::workload("e1")
        })
        .expect("a normal outcome after the oversized request");
    assert_eq!(after.outcome.app, "e1");
    // …and the other connection never noticed.
    let ok = good
        .schedule(&ScheduleSpec {
            iterations: Some(8),
            ..ScheduleSpec::workload("e2")
        })
        .expect("clean request on a clean connection");
    assert_eq!(ok.outcome.app, "e2");

    good.shutdown().expect("drain");
    let summary = handle.join().expect("no panic").expect("clean drain");
    assert!(summary.errors >= 4);
}

fn failure_code(response: &mcds_serve::ServeResponse) -> Option<ErrorCode> {
    match response {
        mcds_serve::ServeResponse::Failed(e) => Some(e.code),
        _ => None,
    }
}

#[test]
fn search_scheduler_over_the_wire() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = connect(addr);

    let with_scheduler = |name: &str| ScheduleSpec {
        scheduler: Some(name.to_owned()),
        iterations: Some(8),
        ..ScheduleSpec::workload("e1")
    };
    let cds = client
        .schedule(&with_scheduler("cds"))
        .expect("cds baseline runs");
    for name in ["search", "search:1", "search:8:500"] {
        let scheduled = client.schedule(&with_scheduler(name)).expect("runs");
        assert_eq!(scheduled.outcome.scheduler, "search", "{name}");
        assert!(
            scheduled.outcome.total_cycles <= cds.outcome.total_cycles,
            "{name} must not cost cycles over cds"
        );
        assert!(
            scheduled.outcome.dt_avoided_words >= cds.outcome.dt_avoided_words,
            "{name} must not lose retention to cds"
        );
    }
    // Distinct search parameters are distinct cache keys.
    let narrow = client.schedule(&with_scheduler("search:1")).expect("runs");
    let wide = client.schedule(&with_scheduler("search:8")).expect("runs");
    assert_ne!(narrow.key, wide.key, "beam width is part of the key");
    assert_ne!(narrow.key, cds.key, "search never shares cds's key");

    // Unknown scheduler names are typed bad requests, not crashes.
    for bogus in ["searchy", "search:", "search:x", "quantum"] {
        let error = expect_server_error(client.schedule(&with_scheduler(bogus)));
        assert_eq!(error.code, ErrorCode::BadRequest, "{bogus}");
        assert!(
            error.message.contains("unknown scheduler"),
            "message names the failure: {}",
            error.message
        );
    }

    client.shutdown().expect("drain");
    handle.join().expect("no panic").expect("clean drain");
}

#[test]
fn expired_deadlines_abandon_the_run_without_poisoning_the_cache() {
    // Degraded fallback off: a missed deadline surfaces as an error.
    let (addr, handle) = start(ServeConfig {
        degrade: false,
        ..ServeConfig::default()
    });
    let mut client = connect(addr);

    let expired = expect_server_error(client.schedule(&ScheduleSpec {
        deadline_ms: Some(0),
        ..ScheduleSpec::workload("e3")
    }));
    assert_eq!(expired.code, ErrorCode::Deadline);
    assert!(
        expired.retryable(),
        "an abandoned run is transient, not a verdict on the request"
    );

    // The abandoned run was not cached: the retry computes (a miss)
    // and succeeds.
    let retry = client
        .schedule(&ScheduleSpec::workload("e3"))
        .expect("retry computes");
    assert!(!retry.cache_hit);
    // And now it is cached.
    let again = client
        .schedule(&ScheduleSpec::workload("e3"))
        .expect("cached");
    assert!(again.cache_hit);
    assert_eq!(
        again.outcome, retry.outcome,
        "hit and miss must agree byte for byte"
    );

    client.shutdown().expect("drain");
    let summary = handle.join().expect("no panic").expect("clean drain");
    assert!(summary.deadline_misses >= 1);
    assert!(summary.cache_hits >= 1);
}

#[test]
fn pipelined_frames_come_back_in_request_order() {
    let (addr, handle) = start(ServeConfig::default());

    // A batch of frames written before any response is read: the
    // reactor must answer them strictly in order, interleaving cheap
    // pings behind an expensive schedule without reordering.
    let mut client = connect(addr);
    client
        .schedule(&ScheduleSpec::workload("e1"))
        .expect("warm the cache");
    let responses = client
        .pipeline_raw(&[
            r#"{"v":1,"verb":"schedule","workload":"e2"}"#,
            r#"{"v":1,"verb":"ping"}"#,
            r#"{"v":1,"verb":"schedule","workload":"e1"}"#,
            r#"{"v":1,"verb":"ping"}"#,
        ])
        .expect("four typed responses");
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(&responses[0], mcds_serve::ServeResponse::Scheduled(s) if s.outcome.app == "e2")
    );
    assert!(matches!(
        &responses[1],
        mcds_serve::ServeResponse::Pong { .. }
    ));
    assert!(
        matches!(&responses[2], mcds_serve::ServeResponse::Scheduled(s) if s.outcome.app == "e1" && s.cache_hit)
    );
    assert!(matches!(
        &responses[3],
        mcds_serve::ServeResponse::Pong { .. }
    ));

    client.shutdown().expect("drain");
    handle.join().expect("no panic").expect("clean drain");
}

#[test]
fn legacy_and_v1_frames_share_the_cache_and_count_separately() {
    let (addr, handle) = start(ServeConfig::default());

    // A legacy (un-versioned) client and a v1 client request the same
    // work: one computation, byte-identical outcomes, and the compat
    // shim counts exactly the legacy frames.
    let spec = ScheduleSpec {
        iterations: Some(12),
        ..ScheduleSpec::workload("mpeg")
    };
    let mut legacy = connect(addr);
    let legacy_line = mcds_serve::ServeRequest::Schedule(spec.clone()).encode_legacy();
    let first = legacy.raw_roundtrip(&legacy_line).expect("typed reply");
    let mcds_serve::ServeResponse::Scheduled(first) = first else {
        panic!("legacy frame must be served: {first:?}");
    };
    assert!(!first.cache_hit);

    let mut modern = connect(addr);
    let second = modern.schedule(&spec).expect("v1 frame");
    assert!(second.cache_hit, "legacy and v1 map to the same key");
    assert_eq!(second.outcome, first.outcome, "identical bytes either way");
    assert_eq!(second.key, first.key);

    modern.shutdown().expect("drain");
    let summary = handle.join().expect("no panic").expect("clean drain");
    assert_eq!(
        summary.legacy_frames, 1,
        "only the un-versioned frame counts"
    );
}

#[test]
fn sharded_cache_still_deduplicates_across_many_keys() {
    // A 64-shard cache under a multi-connection pipelined load over
    // many distinct keys: every key computes exactly once (the misses
    // equal the key count) and every repeat hits, regardless of which
    // shard it routes to.
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_depth: 256,
        shards: 64,
        ..ServeConfig::default()
    });
    let report = run_load(&LoadConfig {
        addr: addr.to_string(),
        connections: 4,
        requests: 600,
        distinct_keys: 144,
        pipeline: 16,
        seed: 3,
        ..LoadConfig::default()
    })
    .expect("load run succeeds");
    assert_eq!(report.ok, 600);
    assert_eq!(report.cache_misses, 144, "each key computes exactly once");
    assert_eq!(report.cache_hits, 456);
    assert_eq!(report.distinct_keys, 144);
    assert!(report.consistent_outcomes);

    let mut control = connect(addr);
    control.shutdown().expect("drain");
    handle.join().expect("no panic").expect("clean drain");
}
