//! The per-layer metrics of a traced run. Every traced run reports all
//! of them; a layer the workload does not pass through reads 0.

use std::fs::{self, File};
use std::io::BufWriter;

use crate::measure::Tracer;
use crate::Run;

/// Every per-layer metric with its unit, in report order. A ratio or a
/// mean is followed by its base.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("trace.ops", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("mix.by_name_us", "us"),
    ("mix.by_name.calls", "count"),
    ("key.derive_us", "us"),
    ("key.derive.calls", "count"),
    ("pipeline.prepare_us", "us"),
    ("pipeline.prepare.calls", "count"),
    ("pipeline.run_prepared_us.basic", "us"),
    ("pipeline.run_prepared.basic.calls", "count"),
    ("pipeline.run_prepared_us.ds", "us"),
    ("pipeline.run_prepared.ds.calls", "count"),
    ("pipeline.run_prepared_us.cds", "us"),
    ("pipeline.run_prepared.cds.calls", "count"),
    ("pipeline.run_prepared_us.search", "us"),
    ("pipeline.run_prepared.search.calls", "count"),
    ("sim.run_us", "us"),
    ("sim.run.calls", "count"),
    ("sim.ops_per_run", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.decode.calls", "count"),
    ("protocol.render_us", "us"),
    ("protocol.render.calls", "count"),
    ("client.check_us", "us"),
    ("client.check.calls", "count"),
    ("plan.rf_evaluated_per_op", "count"),
    ("retention.accepted_per_op", "count"),
    ("retention.rejected_per_op", "count"),
    ("fb.allocs_per_op", "count"),
    ("fb.splits", "count"),
    ("search.expansions_per_op", "count"),
    ("search.prunes_per_op", "count"),
    ("server.side_us", "us"),
    ("server.requests", "count"),
    ("server.transport_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.requests", "count"),
    ("cache.analysis_hit_ratio", "ratio"),
    ("cache.analysis_lookups", "count"),
    ("store.appends_per_op", "count"),
    ("store.bytes_per_op", "B"),
    ("store.bytes_ops", "count"),
    ("server.errors", "count"),
    ("server.rejected", "count"),
    ("server.worker_restarts", "count"),
];

/// Span names with the metrics that report their mean self time and
/// their call count.
const SPANS: [(&str, &str, &str); 11] = [
    ("mix.by_name", "mix.by_name_us", "mix.by_name.calls"),
    ("key.derive", "key.derive_us", "key.derive.calls"),
    (
        "pipeline.prepare",
        "pipeline.prepare_us",
        "pipeline.prepare.calls",
    ),
    (
        "pipeline.run_prepared.basic",
        "pipeline.run_prepared_us.basic",
        "pipeline.run_prepared.basic.calls",
    ),
    (
        "pipeline.run_prepared.ds",
        "pipeline.run_prepared_us.ds",
        "pipeline.run_prepared.ds.calls",
    ),
    (
        "pipeline.run_prepared.cds",
        "pipeline.run_prepared_us.cds",
        "pipeline.run_prepared.cds.calls",
    ),
    (
        "pipeline.run_prepared.search",
        "pipeline.run_prepared_us.search",
        "pipeline.run_prepared.search.calls",
    ),
    ("sim.run", "sim.run_us", "sim.run.calls"),
    (
        "protocol.decode",
        "protocol.decode_us",
        "protocol.decode.calls",
    ),
    (
        "protocol.render",
        "protocol.render_us",
        "protocol.render.calls",
    ),
    ("client.check", "client.check_us", "client.check.calls"),
];

/// Registry counters reported per traced operation: (counter, metric).
/// `fb.splits` is reported as a total.
const COUNTERS: [(&str, &str); 7] = [
    ("plan.rf_evaluated", "plan.rf_evaluated_per_op"),
    ("retention.accepted", "retention.accepted_per_op"),
    ("retention.rejected", "retention.rejected_per_op"),
    ("fb.allocs", "fb.allocs_per_op"),
    ("fb.splits", "fb.splits"),
    ("search.expansions", "search.expansions_per_op"),
    ("search.prunes", "search.prunes_per_op"),
];

/// `num / den`, or 0 when there is no base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean self time per call of span `name`, in microseconds.
pub fn mean_us(tracer: &Tracer, name: &str) -> f64 {
    let l = tracer.layer(name);
    ratio(l.self_ns as f64 / 1e3, l.calls as f64)
}

/// Reports every span layer's mean self time and call count.
pub fn report_spans(run: &mut Run, tracer: &Tracer) {
    for (span, us, calls) in SPANS {
        run.set(us, mean_us(tracer, span));
        run.set(calls, tracer.layer(span).calls as f64);
    }
}

/// Reports registry counters per operation, `get` reading a counter.
pub fn report_counters(run: &mut Run, ops: u64, get: impl Fn(&str) -> u64) {
    for (counter, metric) in COUNTERS {
        let n = get(counter) as f64;
        let value = if counter == "fb.splits" {
            n
        } else {
            ratio(n, ops as f64)
        };
        run.set(metric, value);
    }
}

/// Reports the traced run's throughput cost: the share of untraced
/// operations per second that tracing lost.
pub fn report_overhead(run: &mut Run, ops: u64, untraced_ops_per_s: f64, traced_ops_per_s: f64) {
    run.set("trace.ops", ops as f64);
    run.set("trace.untraced_ops_per_s", untraced_ops_per_s);
    run.set("trace.traced_ops_per_s", traced_ops_per_s);
    run.set(
        "trace.overhead_pct",
        ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s) * 100.0,
    );
}

/// Writes the kept spans to `target/run/spans-<workload>-<seed>.tsv`
/// beside this package; a failure to write is reported, not fatal.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let dir = crate::scratch_dir();
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let written = fs::create_dir_all(&dir)
        .and_then(|()| File::create(&path))
        .and_then(|f| tracer.write_tsv(BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}
