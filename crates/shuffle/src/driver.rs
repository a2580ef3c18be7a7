//! Sort drivers: seed the input, run the serverless or in-VM sort
//! through a [`FunctionExecutor`], and report wall time and cost.

use std::sync::Arc;

use cloudsim::ObjectBody;
use serverful::cloudobject::CloudObjectRef;
use serverful::executor::MapOptions;
use serverful::{CloudEnv, ExecError, FunctionExecutor, Payload, SizingPolicy};
use simkernel::SimRng;

use crate::config::SortConfig;
use crate::data;
use crate::tasks::{Exchange, FusedExchangeTask, GatherTask, ScatterTask};

/// The outcome of one sort run.
#[derive(Debug, Clone, PartialEq)]
pub struct SortReport {
    /// End-to-end wall-clock seconds (including provisioning).
    pub wall_secs: f64,
    /// Dollars billed during the run (all services).
    pub cost_usd: f64,
    /// Number of sorted output parts written.
    pub output_parts: usize,
    /// Bytes sorted.
    pub total_bytes: u64,
}

impl SortReport {
    /// The paper's cost-performance metric, `1 / (latency × cost)`.
    pub fn cost_performance(&self) -> f64 {
        1.0 / (self.wall_secs * self.cost_usd)
    }
}

/// Seeds the input chunks into the object store (untimed setup) and
/// returns refs to them.
pub fn seed_input(env: &mut CloudEnv, cfg: &SortConfig) -> Vec<CloudObjectRef> {
    let mut rng = SimRng::seed_from(cfg.seed);
    (0..cfg.chunks)
        .map(|i| {
            let bytes = cfg.chunk_bytes(i);
            let key = cfg.chunk_key(i);
            let body = if cfg.real_data {
                let keys = data::random_keys(&mut rng, (bytes / 8) as usize);
                ObjectBody::real(data::encode_keys(&keys))
            } else {
                ObjectBody::opaque(bytes)
            };
            let size = body.len();
            env.seed_object(&cfg.bucket, &key, body);
            CloudObjectRef::new(cfg.bucket.clone(), key, size)
        })
        .collect()
}

/// Runs the two-stage range-partition sort on the given executor with
/// storage as the exchange medium (the serverless architecture).
///
/// # Errors
///
/// Propagates executor errors (task failures, stalls).
pub fn serverless_sort(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
) -> Result<SortReport, ExecError> {
    run_exchange(
        env,
        exec,
        cfg,
        refs,
        Exchange::Storage,
        cfg.chunks,
        cfg.reducers,
        true,
    )
}

/// Runs the same sort with the master-local KV (shared memory) as the
/// exchange medium — the in-place VM architecture. The worker count
/// follows the vCPUs of the instance the sizing policy picks, mirroring
/// the master's own proactive-provisioning decision.
///
/// # Errors
///
/// Propagates executor errors (task failures, stalls).
pub fn vm_sort(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
    sizing: &SizingPolicy,
) -> Result<SortReport, ExecError> {
    let itype = sizing.choose(cfg.total_bytes);
    let workers = itype.vcpus as usize;
    run_exchange(env, exec, cfg, refs, Exchange::Kv, workers, workers, true)
}

/// Runs a stateful exchange as a *single* job on the serverful backend:
/// every worker scatters and gathers within one logical function,
/// synchronising through the master's shared-memory KV. This is the
/// serverful fast path — one map call, one set of framework overheads.
///
/// # Errors
///
/// Propagates executor errors (task failures, stalls).
pub fn run_fused_exchange(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
    workers: usize,
    exchange: Exchange,
    shutdown: bool,
) -> Result<SortReport, ExecError> {
    let start = env.now();
    let cost_before = env.world().ledger().total();
    let job = submit_fused_exchange(env, exec, cfg, refs, workers, exchange, false);
    let results = exec.get_result(env, job)?;
    if shutdown {
        exec.shutdown(env);
    }
    let wall_secs = (env.now() - start).as_secs_f64();
    let cost_usd = env.world().ledger().total() - cost_before;
    Ok(SortReport {
        wall_secs,
        cost_usd,
        output_parts: results.len(),
        total_bytes: cfg.total_bytes,
    })
}

/// Assigns the chunk `refs` to `workers` round-robin and encodes each
/// worker's input as `[index, refs]`, so a task factory rebuilds the
/// task whatever order tasks start in, and the sizing policy sees the
/// data volume through the refs. With `keep_idle` false, workers that
/// got no chunk are dropped (and the rest renumbered in order).
fn worker_inputs(refs: &[CloudObjectRef], workers: usize, keep_idle: bool) -> Vec<Payload> {
    let mut assignment: Vec<Vec<CloudObjectRef>> = vec![Vec::new(); workers];
    for (i, r) in refs.iter().enumerate() {
        assignment[i % workers].push(r.clone());
    }
    assignment
        .into_iter()
        .filter(|refs| keep_idle || !refs.is_empty())
        .enumerate()
        .map(|(w, refs)| {
            Payload::List(vec![
                Payload::U64(w as u64),
                Payload::List(refs.into_iter().map(Payload::CloudObject).collect()),
            ])
        })
        .collect()
}

/// Decodes a [`worker_inputs`] payload into the worker's index and its
/// chunk refs.
fn decode_worker_input(input: &Payload) -> (usize, Vec<CloudObjectRef>) {
    let items = input.as_list().expect("worker input is a list");
    let w = items[0].as_u64().expect("worker index") as usize;
    let refs = items[1]
        .as_list()
        .expect("chunk refs")
        .iter()
        .map(|p| p.as_cloudobject().expect("chunk ref").clone())
        .collect();
    (w, refs)
}

/// Submits the fused exchange as a single (optionally gated) job
/// without blocking on it — the non-blocking building block DAG
/// schedulers compose. [`run_fused_exchange`] is this plus a blocking
/// `get_result`.
pub fn submit_fused_exchange(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
    workers: usize,
    exchange: Exchange,
    gated: bool,
) -> serverful::JobHandle {
    // Every worker participates (an empty chunk list is fine — its range
    // must still be gathered).
    let inputs = worker_inputs(refs, workers, true);
    let fused_cfg = cfg.clone();
    let factory: serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
        let (w, refs) = decode_worker_input(input);
        Box::new(FusedExchangeTask::new(
            fused_cfg.clone(),
            w,
            workers,
            refs,
            exchange,
        ))
    });
    let mut opts = MapOptions::named(cfg.label.clone()).stateful();
    if gated {
        opts = opts.gated();
    }
    exec.map_with(env, factory, inputs, opts)
}

/// Submits the scatter half of a storage/KV exchange without blocking.
/// Returns the handle and the *effective* scatter worker count (workers
/// with no chunks assigned are dropped) — the gather half needs it.
#[allow(clippy::too_many_arguments)]
pub fn submit_scatter(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
    exchange: Exchange,
    workers: usize,
    ranges: usize,
    gated: bool,
) -> (serverful::JobHandle, usize) {
    // Workers with no chunks are dropped: only the rest scatter.
    let scatter_inputs = worker_inputs(refs, workers, false);
    let scatter_workers = scatter_inputs.len();
    let scatter_cfg = cfg.clone();
    let factory: serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
        let (w, refs) = decode_worker_input(input);
        Box::new(ScatterTask::new(
            scatter_cfg.clone(),
            w,
            ranges,
            exchange,
            refs,
        ))
    });
    let mut opts = MapOptions::named(format!("{}/scatter", cfg.label)).stateful();
    if gated {
        opts = opts.gated();
    }
    (exec.map_with(env, factory, scatter_inputs, opts), scatter_workers)
}

/// Submits the gather half of an exchange without blocking.
/// `scatter_workers` must be the effective count [`submit_scatter`]
/// returned.
pub fn submit_gather(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    exchange: Exchange,
    scatter_workers: usize,
    ranges: usize,
    gated: bool,
) -> serverful::JobHandle {
    let gather_cfg = cfg.clone();
    let gather_inputs: Vec<Payload> = (0..ranges).map(|r| Payload::U64(r as u64)).collect();
    let factory: serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
        let r = input.as_u64().expect("range index") as usize;
        Box::new(GatherTask::new(
            gather_cfg.clone(),
            r,
            scatter_workers,
            exchange,
        ))
    });
    let mut opts = MapOptions::named(format!("{}/gather", cfg.label)).stateful();
    if gated {
        opts = opts.gated();
    }
    exec.map_with(env, factory, gather_inputs, opts)
}

/// Runs one scatter/gather exchange on the given executor — the building
/// block pipeline stages reuse for their stateful operations. With
/// `shutdown` false, the executor's VMs stay alive for the next stage
/// (instance reuse).
///
/// # Errors
///
/// Propagates executor errors (task failures, stalls).
#[allow(clippy::too_many_arguments)]
pub fn run_exchange(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    cfg: &SortConfig,
    refs: &[CloudObjectRef],
    exchange: Exchange,
    workers: usize,
    ranges: usize,
    shutdown: bool,
) -> Result<SortReport, ExecError> {
    let start = env.now();
    let cost_before = env.world().ledger().total();

    let (job, scatter_workers) =
        submit_scatter(env, exec, cfg, refs, exchange, workers, ranges, false);
    exec.get_result(env, job)?;

    let job = submit_gather(env, exec, cfg, exchange, scatter_workers, ranges, false);
    let results = exec.get_result(env, job)?;

    // "Once all logical functions have been completed, all resources are
    // automatically stopped": include teardown in the measured run —
    // unless the caller keeps the instances for the next stage.
    if shutdown {
        exec.shutdown(env);
    }

    let wall_secs = (env.now() - start).as_secs_f64();
    let cost_usd = env.world().ledger().total() - cost_before;
    Ok(SortReport {
        wall_secs,
        cost_usd,
        output_parts: results.len(),
        total_bytes: cfg.total_bytes,
    })
}
