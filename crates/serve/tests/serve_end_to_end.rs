//! End-to-end tests for the serving layer: a real reactor server on a
//! loopback port, the typed client, and the load harness, covering
//! caching, overload rejection, per-connection error isolation,
//! deadlines, pipelining, protocol versioning, and graceful drain.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use mcds_core::{FaultConfig, FaultPlan, McdsError};
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
    // An unknown verb and a schedule that does not resolve are bad
    // requests; frames without a version, or with `"v":null`, get the
    // typed version refusal. A repeat is answered from the parse memo
    // with the same reply as its first copy, bar the latency.
    for (line, code, verb) in [
        (
            r#"{"v":1,"verb":"frobnicate"}"#,
            ErrorCode::BadRequest,
            "unknown",
        ),
        (
            r#"{"v":1,"verb":"schedule"}"#,
            ErrorCode::BadRequest,
            "schedule",
        ),
        (
            r#"{"verb":"ping"}"#,
            ErrorCode::UnsupportedVersion,
            "unknown",
        ),
        (
            r#"{"v":null,"verb":"schedule","workload":"e1","iterations":8}"#,
            ErrorCode::UnsupportedVersion,
            "unknown",
        ),
    ] {
        let replies: Vec<mcds_serve::ServeError> = (0..2)
            .map(|_| match bad.raw_roundtrip(line).expect("typed reply") {
                mcds_serve::ServeResponse::Failed(error) => error,
                other => panic!("{line} must be refused, got {other:?}"),
            })
            .collect();
        let (first, repeat) = (&replies[0], &replies[1]);
        assert_eq!(first.code, code, "{line}");
        assert_eq!(first.verb, verb, "{line}");
        assert_eq!(
            (&repeat.verb, repeat.code, &repeat.message, repeat.key),
            (&first.verb, first.code, &first.message, first.key),
            "{line}: the repeat must be answered as the first copy was"
        );
    }
    // A request too large to plan is refused before any planning.
    let oversized = bad
        .raw_roundtrip(
            r#"{"v":1,"verb":"schedule","workload":"e1","iterations":1000000000000,"scheduler":"ds"}"#,
        )
        .expect("typed reply");
    assert_eq!(failure_code(&oversized), Some(ErrorCode::BadRequest));
    // So is a Frame Buffer whose word count overflows: 2^54 + 1
    // kilowords once wrapped to the 1 K Frame Buffer, 2^54 to none.
    for kw in [(1u64 << 54) + 1, 1 << 54] {
        let line = format!(
            r#"{{"v":1,"verb":"schedule","workload":"e1","iterations":8,"fb_kw":{kw},"scheduler":"ds"}}"#
        );
        let reply = bad.raw_roundtrip(&line).expect("typed reply");
        let mcds_serve::ServeResponse::Failed(error) = reply else {
            panic!("fb_kw {kw} must be refused, got {reply:?}");
        };
        assert_eq!(error.code, ErrorCode::BadRequest, "fb_kw {kw}");
        assert!(
            error.message.contains("18014398509481983"),
            "the message names the limit: {}",
            error.message
        );
    }

    // The same connection keeps working after its errors…
    bad.ping().expect("connection survives its own errors");
    let after = bad
        .schedule(&ScheduleSpec {
            iterations: Some(8),
            fb_kw: Some(1),
            scheduler: Some("ds".to_owned()),
            ..ScheduleSpec::workload("e1")
        })
        .expect("a normal outcome after the refused requests");
    assert_eq!(after.outcome.app, "e1");
    assert!(!after.cache_hit, "the refused requests cached nothing");
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
    assert!(summary.errors >= 6);
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

    // Unknown scheduler names, and searches without a bounded
    // expansion cap or with a beam wider than 1,024, are typed bad
    // requests, not crashes.
    for (bogus, fragment) in [
        ("searchy", "unknown scheduler"),
        ("search:", "unknown scheduler"),
        ("search:x", "unknown scheduler"),
        ("quantum", "unknown scheduler"),
        ("search:4294967295:0", "1..=100000"),
        ("search:8:100001", "1..=100000"),
        ("search:4294967295:100000", "0..=1024"),
    ] {
        let error = expect_server_error(client.schedule(&with_scheduler(bogus)));
        assert_eq!(error.code, ErrorCode::BadRequest, "{bogus}");
        assert!(
            error.message.contains(fragment),
            "message names the failure: {}",
            error.message
        );
    }
    // The connection still serves a bounded search.
    let bounded = client
        .schedule(&with_scheduler("search:8:500"))
        .expect("runs");
    assert_eq!(bounded.outcome.scheduler, "search");

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
fn sharded_cache_still_deduplicates_across_many_keys() {
    // The sharded cache under a multi-connection pipelined load over
    // many distinct keys: every key computes exactly once (the misses
    // equal the key count) and every repeat hits, regardless of which
    // shard it routes to.
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_depth: 256,
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

/// Several connections pipeline the same few uncached lines, twice
/// each, before any of them reads a reply. Each line computes once:
/// its first arrival leads, the rest hit the cache or wait on the
/// leader's flight. On the wire that is one `miss` per line, and every
/// reply to a line carries the same outcome bytes.
#[test]
fn identical_lines_on_many_connections_compute_once() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    const CONNECTIONS: usize = 4;
    const REPEATS: usize = 2;
    let lines: Vec<String> = [("mpeg", 24), ("atr-sld", 24), ("e3", 24)]
        .into_iter()
        .map(|(workload, iterations)| {
            mcds_serve::ServeRequest::Schedule(ScheduleSpec {
                iterations: Some(iterations),
                fb_kw: Some(8),
                ..ScheduleSpec::workload(workload)
            })
            .encode()
        })
        .collect();
    let payload = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let streams: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Every connection writes all its lines before any reply is read.
    for mut stream in &streams {
        for _ in 0..REPEATS {
            stream.write_all(payload.as_bytes()).expect("pipeline");
        }
    }
    let replies: Vec<Vec<String>> = streams
        .into_iter()
        .map(|stream| {
            let mut reader = BufReader::new(stream);
            (0..REPEATS * lines.len())
                .map(|_| {
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("one reply per line");
                    reply
                })
                .collect()
        })
        .collect();

    let outcome = |reply: &str| -> String {
        let from = reply.find("\"outcome\":").expect("an outcome") + "\"outcome\":".len();
        let to = reply[from..].find(",\"code\":").expect("the code follows");
        reply[from..from + to].to_owned()
    };
    for (i, line) in lines.iter().enumerate() {
        let answers: Vec<&String> = replies
            .iter()
            .flat_map(|conn| conn.iter().skip(i).step_by(lines.len()))
            .collect();
        assert_eq!(answers.len(), CONNECTIONS * REPEATS);
        assert!(
            answers.iter().all(|r| r.contains("\"status\":\"ok\"")),
            "{line}: {answers:?}"
        );
        let first = outcome(answers[0]);
        assert!(
            answers.iter().all(|r| outcome(r) == first),
            "{line}: every reply carries the same outcome bytes"
        );
        let misses = answers
            .iter()
            .filter(|r| r.contains("\"cache\":\"miss\""))
            .count();
        assert_eq!(misses, 1, "{line}: exactly one reply computed");
    }

    let mut control = connect(addr);
    let stats = control.stats().expect("stats payload");
    let misses = stats
        .entries
        .iter()
        .find(|e| e.name == "serve.cache.misses")
        .map_or(0, |e| e.value);
    assert_eq!(misses, lines.len() as u64, "one compute per distinct line");
    control.shutdown().expect("drain");
    handle.join().expect("no panic").expect("clean drain");
}

/// The planner's counters reach the `stats` verb whole: every miss
/// plans once, every plan is simulated or infeasible, and the server's
/// `fb.allocs` is the sum of the allocation walks the same requests
/// make through the library.
#[test]
fn stats_totals_match_the_plans_served() {
    use mcds_core::{Pipeline, SchedulerKind};
    use mcds_model::{ArchParams, Words};

    let requests: [(&str, u64, &str); 8] = [
        ("e1", 1, "cds"),
        ("e1", 2, "ds"),
        ("e2", 1, "basic"),
        ("e3", 1, "search"),
        ("mpeg", 1, "basic"),
        ("mpeg", 2, "cds"),
        ("atr-sld", 2, "search:4"),
        ("atr-fi", 1, "cds"),
    ];
    let (addr, handle) = start(ServeConfig::default());
    let mut client = connect(addr);
    let (mut expected_allocs, mut infeasible) = (0, 0);
    for &(workload, fb_kw, scheduler) in &requests {
        let spec = ScheduleSpec {
            fb_kw: Some(fb_kw),
            scheduler: Some(scheduler.to_owned()),
            ..ScheduleSpec::workload(workload)
        };
        let served = client.schedule(&spec);
        let (app, sched) = mcds_workloads::mix::by_name(workload, 16).expect("catalog");
        let arch = ArchParams::m1()
            .to_builder()
            .fb_set_words(Words::kilo(fb_kw))
            .build();
        let kind: SchedulerKind = scheduler.parse().expect("known scheduler");
        let run = Pipeline::new(app)
            .arch(arch)
            .schedule(sched)
            .scheduler(kind)
            .run();
        assert_eq!(served.is_ok(), run.is_ok(), "{workload}/{scheduler}");
        match run {
            Ok(run) => expected_allocs += run.plan().allocation().allocs(),
            Err(err) => {
                assert!(
                    matches!(
                        err,
                        McdsError::Schedule(mcds_core::ScheduleError::Infeasible { .. })
                    ),
                    "{err}"
                );
                infeasible += 1;
            }
        }
    }

    let stats = client.stats().expect("stats payload");
    let get = |name: &str| {
        stats
            .entries
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };
    let n = requests.len() as u64;
    assert_eq!(get("plan.count"), n);
    assert_eq!(get("serve.cache.misses"), n);
    assert_eq!(get("plan.infeasible"), infeasible);
    assert!(infeasible > 0, "Basic does not fit MPEG at 1 K");
    assert_eq!(get("sim.runs") + get("plan.infeasible"), get("plan.count"));
    assert_eq!(get("fb.allocs"), expected_allocs);
    assert!(expected_allocs > 0);

    client.shutdown().expect("drain");
    handle.join().expect("no panic").expect("clean drain");
}

#[test]
fn inline_and_fifo_replies_are_byte_identical() {
    // The first burst is answered through parked slots on any server:
    // a miss (a search long enough that its repeat, read in the same
    // burst, parks as a waiter) and an infeasible miss. The second
    // burst is all answered at once: a hit, the cached failure, a
    // malformed line and a ping. With no fault plan those replies
    // splice straight into the write buffer; with a plan attached,
    // even one that never fires, every reply takes a FIFO slot.
    let miss = r#"{"v":1,"verb":"schedule","workload":"mpeg","iterations":48,"scheduler":"search","fb_kw":8}"#;
    let infeasible = r#"{"v":1,"verb":"schedule","workload":"mpeg","fb_kw":1,"scheduler":"basic"}"#;
    let bursts: [&[&str]; 2] = [
        &[miss, miss, infeasible],
        &[
            miss,
            infeasible,
            "this is not json",
            r#"{"v":1,"verb":"ping"}"#,
        ],
    ];
    let replies = |faults: Option<Arc<FaultPlan>>| {
        let (addr, handle) = start(ServeConfig {
            faults,
            ..ServeConfig::default()
        });
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        for burst in bursts {
            let payload: String = burst.iter().map(|line| format!("{line}\n")).collect();
            writer
                .write_all(payload.as_bytes())
                .expect("send the burst");
            for _ in burst {
                let mut line = String::new();
                reader.read_line(&mut line).expect("one reply per line");
                let (head, _) = line
                    .rsplit_once("\"latency_us\":")
                    .expect("every reply ends with its latency");
                lines.push(format!("{head}\"latency_us\":0}}"));
            }
        }
        connect(addr).shutdown().expect("drain");
        handle.join().expect("no panic").expect("clean drain");
        lines
    };
    let inline = replies(None);
    let fifo = replies(Some(Arc::new(FaultPlan::new(FaultConfig::new(7)))));
    assert_eq!(inline, fifo);

    assert!(inline[0].contains(r#""cache":"miss""#), "{}", inline[0]);
    assert!(inline[1].contains(r#""cache":"hit""#), "{}", inline[1]);
    assert_eq!(inline[3], inline[1], "a hit renders as its waiter did");
    assert!(
        inline[2].contains(r#""code":"bad_request""#),
        "{}",
        inline[2]
    );
    assert_eq!(
        inline[4], inline[2],
        "the cached failure renders as its miss did"
    );
    assert!(inline[5].contains(r#""verb":"unknown""#), "{}", inline[5]);
    assert!(inline[6].contains(r#""verb":"ping""#), "{}", inline[6]);
}
