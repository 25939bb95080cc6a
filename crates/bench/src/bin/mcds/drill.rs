//! The robustness drills: `chaos`, `crashdrill` and `overload`.

use std::sync::Arc;

use mcds_bench::cli::Args;
use mcds_core::{FaultConfig, FaultPlan, McdsError, Pipeline, SchedulerKind};
use mcds_model::{ArchParams, Words};
use mcds_serve::{
    run_abuse, run_load, scan, AbuseConfig, AbuseMode, AbuseReport, ClientConfig, LoadConfig,
    LoadReport, QosClass, Record, ScheduleSpec, Scheduled, ServeConfig, ServeSummary, Server,
    StatEntry, StoreConfig, JOURNAL_FILE,
};

use crate::print_json;

/// One seed's deterministic chaos-soak verdict. Every field is a pure
/// function of `(seed, requests)` — two runs with the same arguments
/// must print byte-identical JSON (timing goes to stderr instead).
#[derive(serde::Serialize)]
struct ChaosSeedSummary {
    seed: u64,
    requests: u64,
    ok: u64,
    errors: u64,
    rejected: u64,
    retried: u64,
    transport_errors: u64,
    degraded: u64,
    distinct_keys: u64,
    consistent_outcomes: bool,
    audited_workloads: u64,
    cache_poisoned: bool,
    worker_restarts: u64,
    /// Journal records written by the soak's durable store — lockstep
    /// driving makes the commit sequence (and so this count) a pure
    /// function of the seed.
    store_appends: u64,
    /// `1` when the drained server wrote its clean-shutdown marker.
    store_clean_shutdown: u64,
    faults: mcds_core::FaultSnapshot,
}

/// One audited `schedule` request through the typed client, for the
/// audit phase of a chaos run. Opens a fresh connection per attempt so
/// an injected disconnect cannot poison the next try; returns `None`
/// once the listener is gone or the attempts are exhausted.
fn chaos_request(addr: &str, spec: &ScheduleSpec, attempts: u32) -> Option<Scheduled> {
    for _ in 0..attempts {
        let Ok(mut client) = ClientConfig::new(addr).with_reconnect(false).connect() else {
            return None; // Listener gone (post-shutdown) — no retry.
        };
        match client.schedule(spec) {
            Ok(scheduled) => return Some(scheduled),
            // Typed failure or injected transport drop — fresh attempt
            // on a fresh connection.
            Err(_) => continue,
        }
    }
    None
}

/// One shutdown handshake attempt per fresh connection; `true` once
/// the server acknowledged the drain.
fn chaos_shutdown(addr: &str, attempts: u32) -> bool {
    for _ in 0..attempts {
        let Ok(mut client) = ClientConfig::new(addr).with_reconnect(false).connect() else {
            return false;
        };
        if client.shutdown().is_ok() {
            return true;
        }
    }
    false
}

/// Sends `shutdown` on fresh connections until the in-process server
/// behind `handle` exits, and returns its summary. `what` names the
/// drill in the error when the server has not drained within 60 s (a
/// hang) or its thread panicked.
fn drain(
    addr: &str,
    handle: std::thread::JoinHandle<Result<ServeSummary, McdsError>>,
    what: &str,
) -> Result<ServeSummary, McdsError> {
    let watchdog = std::time::Instant::now();
    while !handle.is_finished() {
        if watchdog.elapsed() > std::time::Duration::from_secs(60) {
            return Err(McdsError::spec(format!(
                "{what}: server did not drain within 60s (hang)"
            )));
        }
        let _ = chaos_shutdown(addr, 5);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    handle
        .join()
        .map_err(|_| McdsError::spec(format!("{what}: server thread panicked")))?
}

/// The outcome the (unfaulted) pipeline computes for a catalog
/// workload — the ground truth the cache-poisoning audit compares
/// served outcomes against.
fn reference_outcome(
    name: &str,
    iterations: u64,
    fb_kw: u64,
    kind: SchedulerKind,
    degraded: bool,
) -> Result<mcds_serve::Outcome, McdsError> {
    let (app, sched) = mcds_workloads::mix::by_name(name, iterations)
        .ok_or_else(|| McdsError::spec(format!("unknown catalog workload `{name}`")))?;
    let arch = ArchParams::m1()
        .to_builder()
        .fb_set_words(Words::kilo(fb_kw))
        .build();
    let run = Pipeline::new(app.clone())
        .arch(arch)
        .schedule(sched)
        .scheduler(kind)
        .run()?;
    Ok(mcds_serve::Outcome::of(&run, app.name(), kind, degraded))
}

/// Deterministic fault-injection soak: for each seed, start a live
/// server with the chaos-preset fault plan, drive it with the retrying
/// client, audit the cache against locally recomputed ground truth,
/// and print one line of reproducible JSON. Exits non-zero on any
/// hang, inconsistency, or cache poisoning.
pub fn chaos(args: &Args) -> Result<(), McdsError> {
    let first_seed: u64 = args.parsed("--seed")?.unwrap_or(7);
    let seeds: u64 = args.parsed("--seeds")?.unwrap_or(1).max(1);
    let requests: usize = args.parsed("--requests")?.unwrap_or(200);
    let workers: usize = args.parsed("--workers")?.unwrap_or(2);
    let mut failed = false;
    for seed in first_seed..first_seed.saturating_add(seeds) {
        let started = std::time::Instant::now();
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(seed)));
        // A throwaway durable store so the `store.append` /
        // `store.fsync` disk seams are part of every soak; `always`
        // keeps the per-append seam-query sequence deterministic.
        let store_dir =
            std::env::temp_dir().join(format!("mcds-chaos-store-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth: 64,
            faults: Some(Arc::clone(&plan)),
            store: Some(StoreConfig::new(&store_dir)),
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());

        // Soak phase: one connection in strict lockstep (pipeline 1
        // keeps the fault sequence independent of interleaving), no
        // deadlines (keeps it independent of wall-clock), generous
        // retries.
        let report = run_load(&LoadConfig {
            addr: addr.clone(),
            connections: 1,
            pipeline: 1,
            requests,
            seed,
            retries: 8,
            ..LoadConfig::default()
        })?;

        // Audit phase: every catalog workload the mix samples from,
        // recomputed locally with a clean pipeline and compared against
        // what the (faulted) server serves. Any mismatch on a
        // non-degraded outcome is cache poisoning.
        let mut audited = 0u64;
        let mut poisoned = false;
        for name in mcds_workloads::mix::CATALOG {
            let spec = ScheduleSpec {
                iterations: Some(16),
                fb_kw: Some(8),
                ..ScheduleSpec::workload(name)
            };
            let Some(scheduled) = chaos_request(&addr, &spec, 20) else {
                eprintln!("chaos seed {seed}: audit of `{name}` got no ok response");
                poisoned = true;
                continue;
            };
            let served = scheduled.outcome;
            let kind = if served.degraded {
                SchedulerKind::Ds
            } else {
                SchedulerKind::Cds
            };
            let expected = reference_outcome(name, 16, 8, kind, served.degraded)?;
            audited += 1;
            if served != expected {
                eprintln!(
                    "chaos seed {seed}: POISONED `{name}`: served {} expected {}",
                    serde_json::to_string(&served).unwrap_or_default(),
                    serde_json::to_string(&expected).unwrap_or_default(),
                );
                poisoned = true;
            }
        }

        // Snapshot before the shutdown handshake: the number of
        // shutdown attempts is fault-dependent, and keeping those
        // queries out of the snapshot keeps the printed JSON a pure
        // function of the seed.
        let snapshot = plan.snapshot();

        // Shutdown phase: the shutdown frame itself can be hit by
        // injected read/write faults.
        let summary = drain(&addr, handle, &format!("chaos seed {seed}"))?;

        let verdict = ChaosSeedSummary {
            seed,
            requests: report.requests,
            ok: report.ok,
            errors: report.errors,
            rejected: report.rejected,
            retried: report.retried,
            transport_errors: report.transport_errors,
            degraded: report.degraded,
            distinct_keys: report.distinct_keys,
            consistent_outcomes: report.consistent_outcomes,
            audited_workloads: audited,
            cache_poisoned: poisoned,
            worker_restarts: summary.worker_restarts,
            store_appends: summary.store_appends,
            store_clean_shutdown: summary.store_clean_shutdown,
            faults: snapshot,
        };
        let _ = std::fs::remove_dir_all(&store_dir);
        println!(
            "{}",
            serde_json::to_string(&verdict).map_err(|e| McdsError::spec(e.to_string()))?
        );
        eprintln!(
            "chaos seed {seed}: {} requests, {} retried, {} degraded, {} faults injected, {:.1}s",
            report.requests,
            report.retried,
            report.degraded,
            verdict.faults.total_fired(),
            started.elapsed().as_secs_f64(),
        );
        if poisoned || !report.consistent_outcomes || report.ok == 0 {
            failed = true;
        }
    }
    if failed {
        return Err(McdsError::spec(
            "chaos soak detected cache poisoning or inconsistent outcomes",
        ));
    }
    Ok(())
}

/// One crash drill's evidence. Every field is a pure function of the
/// seed — two drills with the same seed must print byte-identical
/// JSON (timing and paths go to stderr), which is what the CI
/// determinism diff pins.
#[derive(serde::Serialize)]
struct CrashDrillReport {
    seed: u64,
    /// Distinct outcomes committed — acked to the client with
    /// `--fsync always` — before the `kill -9`.
    committed_keys: u64,
    /// Committed outcomes the restarted server answered as cache hits.
    recovered_served: u64,
    /// `true` when every committed outcome came back byte-identical
    /// (same serialized JSON) after the restart.
    byte_identical: bool,
    /// Committed outcomes the restarted server recomputed instead of
    /// serving from the warm-started cache — must be zero.
    recomputes_for_recovered: u64,
    /// `true` when the restart tolerated the garbage appended to the
    /// journal tail (booted, served, and counted the dropped bytes).
    tail_garbage_tolerated: bool,
    /// `true` when the post-drill graceful shutdown left a journal
    /// whose last record is a clean-shutdown marker.
    clean_restart_verified: bool,
}

/// A `mcds serve` child process with its banner-parsed address. The
/// stdout pipe is held open for the child's lifetime so a graceful
/// exit can print its summary without hitting a closed pipe.
struct ServeChild {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

/// Spawns `mcds serve --store-dir DIR --fsync always` on a free port
/// and parses the listen address from its banner line.
fn spawn_store_server(dir: &std::path::Path) -> Result<ServeChild, McdsError> {
    use std::io::BufRead;
    let exe = std::env::current_exe()?;
    let mut child = std::process::Command::new(&exe)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--fsync",
            "always",
        ])
        .arg("--store-dir")
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .spawn()?;
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner)?;
    let Some(addr) = banner
        .strip_prefix("mcds-serve listening on ")
        .map(|a| a.trim().to_owned())
    else {
        let _ = child.kill();
        return Err(McdsError::spec(format!(
            "unexpected serve banner: {banner:?}"
        )));
    };
    Ok(ServeChild {
        child,
        stdout,
        addr,
    })
}

/// Drains a gracefully-shut-down serve child and parses the summary
/// JSON it prints on exit.
fn reap_serve_child(mut server: ServeChild) -> Result<ServeSummary, McdsError> {
    use std::io::Read;
    let status = server.child.wait()?;
    if !status.success() {
        return Err(McdsError::spec("serve child exited unsuccessfully"));
    }
    let mut rest = String::new();
    server.stdout.read_to_string(&mut rest)?;
    serde_json::from_str(rest.trim())
        .map_err(|e| McdsError::spec(format!("parsing serve summary: {e}")))
}

/// The kill -9 durability drill: commit a deterministic family of
/// outcomes against a store-backed server (`--fsync always`, lockstep
/// so every ack implies a fsynced journal record), SIGKILL the server
/// mid-load, corrupt the journal tail the way a torn write would, then
/// restart on the same directory and prove every committed outcome is
/// served back byte-identical from the warm-started cache — zero
/// pipeline re-runs. Exits non-zero unless all evidence holds.
pub fn crashdrill(args: &Args) -> Result<(), McdsError> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(7);
    let keys: usize = args.parsed("--keys")?.unwrap_or(12).max(1);
    let requests: usize = args.parsed("--requests")?.unwrap_or(64);
    let (dir, ephemeral) = match args.value("--dir") {
        Some(d) => (std::path::PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("mcds-crashdrill-{}-{seed}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let started = std::time::Instant::now();

    // Phase A: commit a seed-derived family of distinct outcomes in
    // strict lockstep. With `--fsync always` the server journals and
    // fsyncs each outcome before releasing the response, so an ack
    // makes it crash-durable by contract.
    let catalog = mcds_workloads::mix::CATALOG;
    let specs: Vec<ScheduleSpec> = (0..keys)
        .map(|i| {
            let name = catalog[(seed as usize + i) % catalog.len()];
            ScheduleSpec {
                iterations: Some(i as u64 + 1),
                fb_kw: Some(8),
                ..ScheduleSpec::workload(name)
            }
        })
        .collect();
    let victim = spawn_store_server(&dir)?;
    eprintln!(
        "crashdrill seed {seed}: committing {keys} outcomes against {} (store {})",
        victim.addr,
        dir.display()
    );
    let mut committed: Vec<(u64, String)> = Vec::new();
    {
        let mut client = ClientConfig::new(&victim.addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("commit connection: {e}")))?;
        for spec in &specs {
            let scheduled = client
                .schedule(spec)
                .map_err(|e| McdsError::spec(format!("commit schedule: {e}")))?;
            let json = serde_json::to_string(&scheduled.outcome)
                .map_err(|e| McdsError::spec(e.to_string()))?;
            if !committed.iter().any(|(k, _)| *k == scheduled.key) {
                committed.push((scheduled.key, json));
            }
        }
    }

    // Phase B: race background load against the kill so the process
    // dies mid-commit, then simulate the torn write the kill may not
    // have produced on its own: a frame header promising more payload
    // bytes than exist.
    let churn_addr = victim.addr.clone();
    let churn = std::thread::spawn(move || {
        let _ = run_load(&LoadConfig {
            addr: churn_addr,
            connections: 2,
            pipeline: 8,
            requests,
            distinct_keys: 16,
            seed,
            retries: 0,
            ..LoadConfig::default()
        });
    });
    std::thread::sleep(std::time::Duration::from_millis(30));
    let mut victim = victim;
    victim.child.kill()?; // SIGKILL: no drop glue, no flush, no snapshot.
    let _ = victim.child.wait();
    let _ = churn.join();
    let garbage: &[u8] = &[0x40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, b'{', b'"'];
    {
        use std::io::Write;
        let mut journal = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL_FILE))?;
        journal.write_all(garbage)?;
    }
    eprintln!(
        "crashdrill seed {seed}: killed server, appended {} garbage bytes to the journal tail",
        garbage.len()
    );

    // Phase C: restart on the same directory and replay the committed
    // family. Every outcome must come back byte-identical and as a
    // cache hit — the journal, not the pipeline, answers.
    let survivor = spawn_store_server(&dir)?;
    let mut recovered_served = 0u64;
    let mut recomputes = 0u64;
    let mut byte_identical = true;
    let stats = {
        let mut client = ClientConfig::new(&survivor.addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("replay connection: {e}")))?;
        for (spec, (key, json)) in specs.iter().zip(&committed) {
            let scheduled = client
                .schedule(spec)
                .map_err(|e| McdsError::spec(format!("replay schedule: {e}")))?;
            let replayed = serde_json::to_string(&scheduled.outcome)
                .map_err(|e| McdsError::spec(e.to_string()))?;
            if scheduled.key != *key || replayed != *json {
                eprintln!(
                    "crashdrill seed {seed}: MISMATCH key {key}: committed {json} replayed {replayed}"
                );
                byte_identical = false;
                continue;
            }
            if scheduled.cache_hit {
                recovered_served += 1;
            } else {
                recomputes += 1;
            }
        }
        // Recovery totals, over the wire. A failed `stats` leaves them
        // at zero, which fails the drill below.
        client
            .stats()
            .map(|reply| reply.entries)
            .unwrap_or_default()
    };
    let stat = |name: &str| stats.iter().find(|e| e.name == name).map_or(0, |e| e.value);
    let tail_garbage_tolerated = stat("serve.store.recovered") >= committed.len() as u64
        && stat("serve.store.dropped") >= garbage.len() as u64
        && stat("serve.store.corrupt") >= 1;

    // Graceful drain: the survivor flushes, snapshots, and stamps the
    // clean-shutdown marker; the journal on disk must end with it.
    let watchdog = std::time::Instant::now();
    while watchdog.elapsed() < std::time::Duration::from_secs(60) {
        if chaos_shutdown(&survivor.addr, 5) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let summary = reap_serve_child(survivor)?;
    let journal_bytes = std::fs::read(dir.join(JOURNAL_FILE))?;
    let tail_scan = scan(&journal_bytes);
    let clean_restart_verified = summary.store_clean_shutdown == 1
        && !tail_scan.corrupt
        && matches!(tail_scan.records.last(), Some(Record::CleanShutdown { .. }));

    let report = CrashDrillReport {
        seed,
        committed_keys: committed.len() as u64,
        recovered_served,
        byte_identical,
        recomputes_for_recovered: recomputes,
        tail_garbage_tolerated,
        clean_restart_verified,
    };
    print_json(&report, args.value("--out"))?;
    eprintln!(
        "crashdrill seed {seed}: {}/{} recovered, {:.1}s",
        report.recovered_served,
        report.committed_keys,
        started.elapsed().as_secs_f64()
    );
    let passed = report.byte_identical
        && report.recovered_served == report.committed_keys
        && report.recomputes_for_recovered == 0
        && report.tail_garbage_tolerated
        && report.clean_restart_verified;
    if !passed {
        return Err(McdsError::spec(
            "crash drill failed: committed outcomes were lost, recomputed, or corrupted",
        ));
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// One overload drill's evidence: two well-behaved traffic classes
/// (priority with a deadline, batch without) racing several abusive
/// populations against one small-quota server, plus the server's own
/// robustness counters snapshotted over the wire afterwards.
#[derive(serde::Serialize)]
struct OverloadReport {
    /// Deadline sent with every priority request, in milliseconds.
    priority_deadline_ms: u64,
    /// `serve.qos.shed.priority` after the drill — structurally pinned
    /// to zero (the shed governor only drains classes *below* the one
    /// being dequeued).
    priority_sheds: u64,
    /// `true` iff the priority class's p99 latency beat its deadline.
    priority_p99_within_deadline: bool,
    /// Peak per-connection buffered output the server ever held
    /// (`serve.conn.buffer_bytes.max`) — the memory-bound evidence.
    buffer_high_water_bytes: u64,
    /// The priority-class load report.
    priority: LoadReport,
    /// The batch-class load report (no deadline; absorbs rejections).
    batch: LoadReport,
    /// One report per abusive population.
    abuse: Vec<AbuseReport>,
    /// Every `serve.*` counter after the drill (QoS lanes, reaping,
    /// buffer caps, queue gauges) — snapshotted via the `stats` verb.
    server_stats: Vec<StatEntry>,
    /// The drained server's summary when the drill self-hosted one.
    summary: Option<ServeSummary>,
}

/// Adversarial overload drill: self-hosts a deliberately small,
/// short-fused server (unless `--addr` points at a live one), then
/// races a deadline-bearing priority workload and a batch workload
/// against misbehaving-client populations, and reports whether the
/// QoS lanes and slow-peer defenses held: priority p99 under its
/// deadline with zero priority sheds, batch absorbing the rejections,
/// and per-connection memory bounded by the buffer cap.
pub fn overload(args: &Args) -> Result<(), McdsError> {
    let requests: usize = args.parsed("--requests")?.unwrap_or(400);
    let deadline_ms: u64 = args.parsed("--priority-deadline-ms")?.unwrap_or(2000);
    let abuse_clients: usize = args.parsed("--abuse-clients")?.unwrap_or(4);
    let abuse_duration_ms: u64 = args.parsed("--abuse-duration-ms")?.unwrap_or(1500);
    let modes = args
        .list("--abuse-modes")?
        .unwrap_or_else(|| vec![AbuseMode::FrameFlood, AbuseMode::StalledReader]);

    // Tight batch quota so admission rejections actually happen, short
    // peer timeouts and a small buffer cap so the abusive populations
    // trip every defense within the drill's runtime.
    let (addr, hosted) = match args.value("--addr") {
        Some(a) => (a.to_owned(), None),
        None => {
            let server = Server::bind(ServeConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                queue_depth: 64,
                qos_quotas: [64, 16, 8],
                shed_after_ms: 100,
                idle_timeout_ms: 500,
                write_stall_ms: 500,
                max_conn_buffer_bytes: 64 * 1024,
                ..ServeConfig::default()
            })?;
            let addr = server.local_addr().to_string();
            (addr, Some(std::thread::spawn(move || server.run())))
        }
    };
    eprintln!(
        "overload drill against {addr}: {requests} requests/class, \
         {abuse_clients} abusive clients per mode for {abuse_duration_ms}ms"
    );

    let load_for = |class: QosClass,
                    deadline: Option<u64>,
                    pipeline: usize,
                    distinct_keys: usize,
                    retries: u32,
                    seed: u64| {
        run_load(&LoadConfig {
            addr: addr.clone(),
            connections: 2,
            requests,
            distinct_keys,
            pipeline,
            seed,
            deadline_ms: deadline,
            class: Some(class),
            retries,
            ..LoadConfig::default()
        })
    };
    let (priority, batch, abuse) = std::thread::scope(|s| {
        // Priority: few keys (mostly cache hits), shallow pipeline,
        // generous retries — the traffic that must stay fast.
        let p = s.spawn(|| load_for(QosClass::Priority, Some(deadline_ms), 4, 12, 6, 11));
        // Batch: many distinct keys so the cold phase is genuine
        // compute pressure on the batch lane's small quota, a deep
        // pipeline, and few retries so rejections stand and show up.
        let b = s.spawn(|| {
            load_for(
                QosClass::Batch,
                None,
                32,
                requests.div_ceil(4).max(16),
                2,
                23,
            )
        });
        let abusers: Vec<_> = modes
            .iter()
            .map(|&mode| {
                let addr = addr.clone();
                s.spawn(move || {
                    run_abuse(&AbuseConfig {
                        addr,
                        mode,
                        clients: abuse_clients,
                        duration_ms: abuse_duration_ms,
                    })
                })
            })
            .collect();
        let join = "overload driver thread panicked";
        let p = p.join().map_err(|_| McdsError::spec(join));
        let b = b.join().map_err(|_| McdsError::spec(join));
        let abuse: Vec<AbuseReport> = abusers
            .into_iter()
            .map(|h| h.join().expect("abuse populations must not panic"))
            .collect();
        (p, b, abuse)
    });
    let (priority, batch) = (priority??, batch??);

    let server_stats: Vec<StatEntry> = {
        let mut client = ClientConfig::new(&addr)
            .connect()
            .map_err(|e| McdsError::spec(format!("stats connection: {e}")))?;
        let reply = client
            .stats()
            .map_err(|e| McdsError::spec(format!("stats: {e}")))?;
        reply
            .entries
            .into_iter()
            .filter(|e| e.name.starts_with("serve."))
            .collect()
    };
    let stat = |name: &str| {
        server_stats
            .iter()
            .find(|e| e.name == name)
            .map_or(0, |e| e.value)
    };
    let priority_sheds = stat("serve.qos.shed.priority");
    let buffer_high_water_bytes = stat("serve.conn.buffer_bytes.max");

    let summary = match hosted {
        None => None,
        // The shutdown frame can race lingering abusive connections
        // being reaped.
        Some(handle) => Some(drain(&addr, handle, "overload")?),
    };

    let report = OverloadReport {
        priority_deadline_ms: deadline_ms,
        priority_sheds,
        priority_p99_within_deadline: priority.p99_us <= deadline_ms.saturating_mul(1000),
        buffer_high_water_bytes,
        priority,
        batch,
        abuse,
        server_stats,
        summary,
    };
    print_json(&report, args.value("--out"))
}
