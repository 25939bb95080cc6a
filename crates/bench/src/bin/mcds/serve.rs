//! The scheduling service and its load driver: `serve` and `load`.

use std::sync::Arc;

use mcds_bench::cli::Args;
use mcds_core::{FaultConfig, FaultPlan, McdsError};
use mcds_serve::{run_load, FsyncPolicy, LoadConfig, QosClass, ServeConfig, Server, StoreConfig};

use crate::print_json;

pub fn serve(args: &Args) -> Result<(), McdsError> {
    let mut config = ServeConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7171").to_owned(),
        ..ServeConfig::default()
    };
    if let Some(workers) = args.parsed("--workers")? {
        config.workers = workers;
    }
    if let Some(depth) = args.parsed("--queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(kb) = args.parsed::<usize>("--max-frame-kb")? {
        config.max_frame_bytes = kb.saturating_mul(1024);
    }
    if let Some(seed) = args.parsed("--fault-seed")? {
        config.faults = Some(Arc::new(FaultPlan::new(FaultConfig::chaos(seed))));
    }
    if let Some(below) = args.parsed("--degrade-below-ms")? {
        config.degrade_below_ms = below;
    }
    if args.switch("--no-degrade") {
        config.degrade = false;
    }
    if let Some(quotas) = args.list::<usize>("--qos-quotas")? {
        config.qos_quotas = quotas.try_into().map_err(|_| {
            McdsError::spec("--qos-quotas needs exactly three values: priority,standard,batch")
        })?;
    }
    if let Some(after) = args.parsed("--shed-after-ms")? {
        config.shed_after_ms = after;
    }
    if let Some(idle) = args.parsed("--idle-timeout-ms")? {
        config.idle_timeout_ms = idle;
    }
    if let Some(stall) = args.parsed("--write-stall-ms")? {
        config.write_stall_ms = stall;
    }
    if let Some(kb) = args.parsed::<usize>("--conn-buffer-kb")? {
        config.max_conn_buffer_bytes = kb.saturating_mul(1024);
    }
    match args.value("--store-dir") {
        Some(dir) => {
            let mut store = StoreConfig::new(dir);
            if let Some(policy) = args.parsed::<FsyncPolicy>("--fsync")? {
                store.fsync = policy;
            }
            config.store = Some(store);
        }
        None if args.value("--fsync").is_some() => {
            return Err(McdsError::spec("--fsync requires --store-dir"));
        }
        None => {}
    }
    let server = Server::bind(config)?;
    println!("mcds-serve listening on {}", server.local_addr());
    let summary = server.run()?;
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| McdsError::spec(e.to_string()))?
    );
    Ok(())
}

/// The load driver: one [`run_load`] over `--connections` pipelined
/// connections, each on its own thread, printed as a JSON report.
pub fn load(args: &Args) -> Result<(), McdsError> {
    let class = args
        .value("--class")
        .map(|v| {
            QosClass::from_wire(v).ok_or_else(|| {
                McdsError::spec(format!(
                    "--class `{v}`: expected priority, standard, or batch"
                ))
            })
        })
        .transpose()?;
    let mut config = LoadConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:7171").to_owned(),
        scheduler: args.value("--scheduler").map(str::to_owned),
        deadline_ms: args.parsed("--deadline-ms")?,
        class,
        ..LoadConfig::default()
    };
    if let Some(connections) = args.parsed("--connections")? {
        config.connections = connections;
    }
    if let Some(requests) = args.parsed("--requests")? {
        config.requests = requests;
    }
    if let Some(distinct) = args.parsed("--distinct-keys")? {
        config.distinct_keys = distinct;
    }
    if let Some(pipeline) = args.parsed("--pipeline")? {
        config.pipeline = pipeline;
    }
    if let Some(seed) = args.parsed("--seed")? {
        config.seed = seed;
    }
    if let Some(retries) = args.parsed("--retries")? {
        config.retries = retries;
    }
    print_json(&run_load(&config)?, None)
}
