//! Runs the annotation pipeline on the three studied architectures —
//! and, more generally, any [`Workload`] on any [`DeploymentPlan`].
//!
//! * [`Architecture::Serverless`] — every stage on cloud functions
//!   (the deployment METASPACE migrated to first);
//! * [`Architecture::Hybrid`] — the paper's contribution: stateless
//!   stages on cloud functions, stateful operations on right-sized VMs
//!   reused across stages through the serverful backend;
//! * [`Architecture::Cluster`] — the original fixed Spark deployment
//!   (4 × c5.4xlarge).
//!
//! The three architectures are *named plans*
//! ([`DeploymentPlan::for_architecture`]). Four entry points share one
//! execution path, which every deployment — hand-picked or
//! planner-found — flows through:
//!
//! * [`run_annotation`] runs a Table 2 job's workload
//!   ([`pipeline::job_workload`]) under a named architecture;
//! * [`run_workload`] validates any workload description and runs it
//!   under a plan, optionally traced;
//! * [`run_workload_chaos`] does the same with master kills armed and
//!   returns the recovery observability;
//! * [`run_plan_graph`] takes the stage list and its edges apart, the
//!   form the planner's evaluator holds.
//!
//! Each run happens in a fresh simulated region and reports wall time,
//! cost, per-stage spans (Figure 2) and CPU-utilisation statistics
//! (Table 3).

use std::fmt;
use std::sync::Arc;

use cloudsim::{CloudConfig, InstanceType, ObjectBody, ObjectStore, World};
use clustersim::{ClusterConfig, ClusterEngine, StageDef};
use serverful::config::WORKSPACE_BUCKET;
use serverful::executor::MapOptions;
use serverful::{
    run_dag, Backend, CloudEnv, Dag, DagNode, Edge, ExecError, ExecMode, ExecutorConfig,
    FunctionExecutor, Payload, RecoveryMode, RecoveryStats, RetryPolicy, ScriptTask, SizingPolicy,
};
use shuffle::tasks::Exchange;
use shuffle::SortConfig;
use simkernel::{SimDuration, SimTime};

use telemetry::{FaultLedger, UsageStats};

use crate::jobs::JobSpec;
use crate::pipeline::{self, Stage, StageEdge, StageKind, Workload};
use crate::plan::{ClusterPlan, DeploymentPlan, FunctionsPlan, PlanKind, StageBackend};

/// The deployment architecture to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Architecture {
    /// Pure cloud functions.
    Serverless,
    /// Cloud functions + serverful stateful stages (the paper's
    /// proposal).
    Hybrid,
    /// Fixed Spark-like cluster.
    Cluster,
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Architecture::Serverless => f.write_str("cloud functions"),
            Architecture::Hybrid => f.write_str("hybrid"),
            Architecture::Cluster => f.write_str("spark"),
        }
    }
}

/// Measured outcome of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage name.
    pub name: String,
    /// Parallel tasks the stage ran (Figure 2's bar height).
    pub tasks: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Offset of the stage's first activity from the run start, seconds.
    /// Under barrier execution stages tile back-to-back; under pipelined
    /// execution windows overlap (the overlap report measures by how
    /// much).
    pub start_secs: f64,
    /// Offset of the stage's last activity from the run start, seconds.
    pub end_secs: f64,
    /// Whether the stage is a stateful operation.
    pub stateful: bool,
}

/// Measured outcome of one annotation run.
#[derive(Debug, Clone)]
pub struct AnnotationReport {
    /// Job name.
    pub job: String,
    /// Architecture evaluated (derived from the plan for plan runs).
    pub arch: Architecture,
    /// End-to-end seconds.
    pub wall_secs: f64,
    /// Dollars billed.
    pub cost_usd: f64,
    /// Billed-but-wasted resources under faults/retries/stragglers, from
    /// the telemetry fault ledger: sandbox GB-seconds plus VM
    /// instance-seconds that bought no completed work. Zero in
    /// fault-free runs.
    pub waste: f64,
    /// Per-stage breakdown.
    pub stages: Vec<StageResult>,
    /// CPU-usage statistics over the run (Table 3), when measurable.
    pub cpu: Option<UsageStats>,
}

impl AnnotationReport {
    /// The paper's cost-performance metric, `1 / (latency × cost)`.
    pub fn cost_performance(&self) -> f64 {
        1.0 / (self.wall_secs * self.cost_usd)
    }
}

/// Output of a traced run: deterministic Chrome trace-event JSON (load
/// it in `chrome://tracing` or Perfetto) plus a compact text summary.
#[derive(Debug, Clone)]
pub struct TraceOutput {
    /// The full span trace as Chrome trace-event JSON. Byte-identical
    /// across runs with the same job, architecture and seed.
    pub chrome_json: String,
    /// Per-stage metrics, span census and fault/retry report.
    pub summary: String,
}

/// Runs one job's workload on one architecture in a fresh,
/// default-configured simulated region.
///
/// # Errors
///
/// Propagates executor failures (the cluster path panics on internal
/// errors instead, as it has no fallible API).
pub fn run_annotation(
    job: &JobSpec,
    arch: Architecture,
    seed: u64,
) -> Result<AnnotationReport, ExecError> {
    let w = pipeline::job_workload(job);
    let plan = DeploymentPlan::for_architecture(arch, &w.stages);
    run_workload(&w, &plan, seed, CloudConfig::default(), false).map(|(r, _)| r)
}

/// Runs a stage list with explicit dataflow edges under a plan: the
/// compilation target every workload lowers to. `label` names the run in
/// the report; `trace` also records a span trace (returned as the
/// second element). `edges` must align index-for-index with `stages`
/// and point only at earlier stages. Cluster plans execute the stage
/// list as a barrier chain and ignore the edges.
///
/// # Errors
///
/// Propagates executor failures and rejects malformed plans or
/// misaligned/non-topological edges.
pub fn run_plan_graph(
    label: &str,
    stages: &[Stage],
    edges: &[Vec<StageEdge>],
    plan: &DeploymentPlan,
    seed: u64,
    cloud: CloudConfig,
    trace: bool,
) -> Result<(AnnotationReport, Option<TraceOutput>), ExecError> {
    validate_plan(stages, plan)?;
    validate_edges(stages, edges)?;
    match &plan.kind {
        PlanKind::Functions(f) => {
            run_functions_plan(label, stages, edges, f, seed, cloud, trace, &[])
                .map(|(r, t, _)| (r, t))
        }
        PlanKind::Cluster(c) => Ok(run_cluster_plan(label, stages, c, seed, cloud, trace)),
    }
}

/// Runs a full [`Workload`] description — validated, then compiled to
/// the stage DAG with the workload's own dataflow edges — under a plan.
/// The workload's name labels the report; `trace` also records a span
/// trace (returned as the second element).
///
/// The trace covers the measured window (pipeline stage spans, job and
/// task-attempt spans, cold starts, VM lifecycles, storage transfers and
/// fault/retry instants). Cluster plans record the coarser world-level
/// spans only.
///
/// # Errors
///
/// Rejects invalid workloads and malformed plans; propagates executor
/// failures.
pub fn run_workload(
    w: &Workload,
    plan: &DeploymentPlan,
    seed: u64,
    cloud: CloudConfig,
    trace: bool,
) -> Result<(AnnotationReport, Option<TraceOutput>), ExecError> {
    w.validate()
        .map_err(|e| ExecError::Unsupported(e.to_string()))?;
    run_plan_graph(&w.name, &w.stages, &w.edges, plan, seed, cloud, trace)
}

/// Extra observability a chaos run returns alongside its report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Recovery-machinery activity (checkpoints, re-adoptions,
    /// redispatches, completion counters, master data-path ops).
    pub recovery: RecoveryStats,
    /// Routed executor events over the whole run (the clock the kill
    /// indices count against).
    pub events_routed: u64,
    /// Deterministic digest of the science outputs in the workspace
    /// bucket (recovery plumbing and warm-up keys excluded). Equal
    /// digests mean the runs produced identical outputs, however many
    /// re-executions it took.
    pub science_digest: u64,
    /// Injected faults, retries and waste over the whole run.
    pub faults: FaultLedger,
    /// High-water mark of concurrent same-generation monitor LISTs
    /// ([`CloudEnv::monitor_list_overlap`]); never above 1.
    pub monitor_list_overlap: u32,
}

/// [`run_workload`] plus master-kill chaos injection:
/// the serverful pool's master VM is killed when the executor's
/// routed-event counter passes each offset in `kills` (offsets are
/// relative to the start of the measured window, after warm-up). What
/// happens next is the plan's [`RecoveryMode`]: `Protected` strands the
/// job (the run errors), `Checkpointed` boots a replacement master that
/// replays the snapshot, `Decentralized` does not care.
///
/// Only functions-family plans can host a master kill; cluster plans
/// are rejected.
///
/// # Errors
///
/// Propagates executor failures — including the stall a protected-mode
/// master kill is expected to cause — and rejects invalid workloads and
/// malformed or cluster plans.
pub fn run_workload_chaos(
    w: &Workload,
    plan: &DeploymentPlan,
    seed: u64,
    cloud: CloudConfig,
    kills: &[u64],
) -> Result<(AnnotationReport, ChaosReport), ExecError> {
    w.validate()
        .map_err(|e| ExecError::Unsupported(e.to_string()))?;
    validate_plan(&w.stages, plan)?;
    match &plan.kind {
        PlanKind::Functions(f) => {
            run_functions_plan(&w.name, &w.stages, &w.edges, f, seed, cloud, false, kills)
                .map(|(r, _, c)| (r, c))
        }
        PlanKind::Cluster(_) => Err(ExecError::Unsupported(
            "master-kill chaos targets the serverful master; cluster plans have none".into(),
        )),
    }
}

/// Rejects dataflow edges the lowering cannot honour: one edge list per
/// stage, each pointing only at earlier stages.
fn validate_edges(stages: &[Stage], edges: &[Vec<StageEdge>]) -> Result<(), ExecError> {
    if edges.len() != stages.len() {
        return Err(ExecError::Unsupported(format!(
            "{} stages but {} edge lists; they must align index-for-index",
            stages.len(),
            edges.len()
        )));
    }
    for (i, deps) in edges.iter().enumerate() {
        for e in deps {
            if e.from >= i {
                return Err(ExecError::Unsupported(format!(
                    "edge into stage {i} from {} is not topological",
                    e.from
                )));
            }
        }
    }
    Ok(())
}

/// Rejects plans the execution path cannot honour.
fn validate_plan(stages: &[Stage], plan: &DeploymentPlan) -> Result<(), ExecError> {
    let bad = |msg: String| Err(ExecError::Unsupported(msg));
    match &plan.kind {
        PlanKind::Functions(f) => {
            if f.backends.len() != stages.len() {
                return bad(format!(
                    "plan `{}` assigns {} stages but the graph has {}",
                    plan.name,
                    f.backends.len(),
                    stages.len()
                ));
            }
            if f.memory_mb == 0 {
                return bad(format!("plan `{}` has zero function memory", plan.name));
            }
            if f.vm_count == 0 {
                return bad(format!("plan `{}` has an empty VM fleet", plan.name));
            }
            if f.max_attempts == 0 {
                return bad(format!("plan `{}` allows zero attempts", plan.name));
            }
            if f.mem_factor.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return bad(format!("plan `{}` has a non-positive mem factor", plan.name));
            }
            let catalog = match &f.region {
                Some(key) => match cloudsim::region(key) {
                    Some(profile) => profile.catalog,
                    None => {
                        return bad(format!(
                            "plan `{}`: unknown region `{key}` (known: {})",
                            plan.name,
                            cloudsim::region_keys().join(", ")
                        ))
                    }
                },
                None => cloudsim::catalog(),
            };
            if let Some(name) = &f.instance {
                if !catalog.iter().any(|it| it.name == *name) {
                    return bad(format!(
                        "plan `{}`: unknown instance type `{name}` in region `{}`",
                        plan.name,
                        f.region.as_deref().unwrap_or("aws-us-east-1")
                    ));
                }
            }
        }
        PlanKind::Cluster(c) => {
            if c.nodes == 0 {
                return bad(format!("plan `{}` has an empty cluster", plan.name));
            }
            if cloudsim::instance_type(&c.instance).is_none() {
                return bad(format!(
                    "plan `{}`: unknown instance type `{}`",
                    plan.name, c.instance
                ));
            }
        }
    }
    Ok(())
}

/// Renders a world's recorded trace into its export forms.
fn trace_output(world: &World) -> TraceOutput {
    let tracer = world.tracer();
    let mut summary = tracer.summary(world.fault_ledger());
    let sched = world.sched_stats();
    summary.push_str(&format!(
        "scheduler: {} events scheduled, {} fired, {} cancelled\n",
        sched.scheduled, sched.fired, sched.cancelled
    ));
    TraceOutput {
        chrome_json: tracer.chrome_json(),
        summary,
    }
}

/// Billed-but-wasted resources recorded by a world's fault ledger.
fn ledger_waste(world: &World) -> f64 {
    let ledger = world.fault_ledger();
    ledger.wasted_gb_secs + ledger.wasted_instance_secs
}

// ----------------------------------------------------------------------
// Cloud-function / hybrid / serverful path
// ----------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_functions_plan(
    label: &str,
    stages: &[Stage],
    edges: &[Vec<StageEdge>],
    plan: &FunctionsPlan,
    seed: u64,
    cloud: CloudConfig,
    trace: bool,
    kills: &[u64],
) -> Result<(AnnotationReport, Option<TraceOutput>, ChaosReport), ExecError> {
    let retry = RetryPolicy {
        max_attempts: plan.max_attempts,
        ..RetryPolicy::default()
    };
    let sizing = SizingPolicy {
        mem_factor: plan.mem_factor,
        ..SizingPolicy::default()
    };
    // Region selection rewrites the config through the provider
    // registry; a spot bid with no explicit region runs in the default
    // region's market. The default path (no region, no spot) leaves the
    // caller's config untouched so pre-provider runs stay
    // byte-identical.
    let profile = match (&plan.region, plan.spot) {
        (Some(key), _) => Some(cloudsim::region(key).expect("validated above")),
        (None, true) => Some(cloudsim::default_region()),
        (None, false) => None,
    };
    let cloud = match profile {
        Some(p) => p.apply(&cloud),
        None => cloud,
    };
    let catalog = profile.map_or_else(cloudsim::catalog, |p| p.catalog);
    let mut env = CloudEnv::new(cloud, seed);
    let faas_cfg = ExecutorConfig {
        runtime_memory_mb: plan.memory_mb,
        retry: retry.clone(),
        ..ExecutorConfig::default()
    };
    let faas = FunctionExecutor::new(&mut env, Backend::faas(), faas_cfg);
    // The architecture sizes the serverful host from the largest stateful
    // operation assigned to it ("measures input size and selects the host
    // instance type based on empirically defined bounds").
    let max_exchange_bytes = stages
        .iter()
        .zip(&plan.backends)
        .filter(|(_, b)| **b == StageBackend::Serverful)
        .filter_map(|(s, _)| match s.kind {
            StageKind::Stateful { exchange_gb } => Some((exchange_gb * 1e9) as u64),
            StageKind::Stateless { .. } => None,
        })
        .max()
        .unwrap_or(0);
    let planned_itype: &InstanceType = match &plan.instance {
        Some(name) => catalog
            .iter()
            .find(|it| it.name == *name)
            .expect("validated above"),
        None => sizing.plan_from(catalog, max_exchange_bytes).0,
    };
    // Total worker processes across the serverful fleet (one per vCPU).
    let vm_workers = planned_itype.vcpus as usize * plan.vm_count;
    let mut vm = plan.uses_serverful().then(|| {
        let mut cfg = ExecutorConfig {
            retry: retry.clone(),
            ..ExecutorConfig::default() // consolidated, reuse_instances
        };
        cfg.standalone.sizing = sizing.clone();
        cfg.standalone.recovery = plan.recovery;
        if let Some(p) = profile {
            // The default master would not exist in a foreign catalog.
            cfg.standalone.master_instance = p.master_instance.to_owned();
        }
        if plan.spot {
            cfg.standalone.bid = serverful::BidPolicy::spot();
        }
        if plan.vm_count == 1 {
            cfg.standalone.instance_override = Some(planned_itype.name.to_owned());
        } else {
            cfg.standalone.exec_mode = ExecMode::Fleet {
                instance_type: planned_itype.name.to_owned(),
                count: plan.vm_count,
            };
        }
        FunctionExecutor::new(&mut env, Backend::vm(), cfg)
    });
    // Production deployments keep previously configured VMs warm ("use
    // existing, previously configured VMs"); bring the serverful host up
    // before the measured window, like the cluster baseline's excluded
    // initialisation.
    // A master-kill-survivable exchange cannot live in the master's
    // RAM: Decentralized has no master KV in the data path at all, and
    // Checkpointed would strand in-flight gathers (finished peers are
    // never re-executed, so their KV pieces would die with the master).
    // Both recovery modes therefore route fused exchanges through
    // object storage; only the paper's protected master keeps the
    // shared-memory fast path.
    let exchange = if plan.recovery == RecoveryMode::Protected {
        Exchange::Kv
    } else {
        Exchange::Storage
    };
    if let Some(vm_exec) = vm.as_mut() {
        let mut warm = SortConfig {
            chunks: 1,
            reducers: 1,
            total_bytes: 1_000_000,
            key_prefix: "warmup-".to_owned(),
            label: "warmup".to_owned(),
            ..SortConfig::default()
        };
        warm.bucket = WORKSPACE_BUCKET.to_owned();
        let refs = shuffle::seed_input(&mut env, &warm);
        shuffle::run_fused_exchange(&mut env, vm_exec, &warm, &refs, vm_workers, exchange, false)?;
        env.world_mut().ledger_mut().reset();
    }
    // Tracing starts after the warm-up so the trace covers exactly the
    // measured window.
    if trace {
        env.enable_tracing();
    }
    // Kill offsets count routed events from here — after the warm-up,
    // so the same offset lands at the same point of the measured window
    // regardless of warm-up traffic.
    let event_base = env.events_routed();
    for &k in kills {
        env.arm_master_kill(0, event_base + k);
    }
    let start = env.now();
    // Lower the stage graph to a task-level DAG and run it. Barrier
    // execution replays the classic stage chain (each node blocks until
    // drained — byte-identical to the pre-dataflow runner); Pipelined
    // releases downstream partitions as their upstream dependencies
    // complete.
    let dag = build_stage_dag(stages, edges, plan, &sizing, planned_itype, vm_workers, seed, exchange);
    let mut ctx = StageCtx { faas, vm };
    run_dag(&mut env, &mut ctx, dag, plan.execution)?;
    if let Some(mut vm_exec) = ctx.vm {
        vm_exec.shutdown(&mut env);
    }

    let end = env.now();
    let stage_results = summarise(stages, env.timeline().spans(), start);
    let cpu = UsageStats::compute(
        env.world().cpu_monitor(),
        start,
        end,
        SimDuration::from_secs(1),
        &env.timeline().stateful_windows(),
    );
    let report = AnnotationReport {
        job: label.to_owned(),
        arch: if plan.uses_serverful() {
            Architecture::Hybrid
        } else {
            Architecture::Serverless
        },
        wall_secs: (end - start).as_secs_f64(),
        cost_usd: env.world().ledger().total(),
        waste: ledger_waste(env.world()),
        stages: stage_results,
        cpu,
    };
    let chaos = ChaosReport {
        recovery: env.recovery_stats().clone(),
        events_routed: env.events_routed() - event_base,
        science_digest: science_digest(env.world().store(), WORKSPACE_BUCKET),
        faults: env.world().fault_ledger().clone(),
        monitor_list_overlap: env.monitor_list_overlap(),
    };
    Ok((report, trace.then(|| trace_output(env.world())), chaos))
}

/// Deterministic FNV-1a digest of the science outputs in a workspace
/// `bucket`, over each object's key, length and bytes in key order.
/// Recovery snapshots, decentralized bundles/counters and job plumbing
/// (`recovery/`, `jobs/`) and warm-up keys are excluded: the digest
/// covers exactly what the pipeline computed, so a run that lost its
/// master or spot VMs and recovered digests identically to a fault-free
/// one.
pub fn science_digest(store: &ObjectStore, bucket: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (key, body) in store.objects(bucket) {
        if key.starts_with("recovery/") || key.starts_with("jobs/") || key.starts_with("warmup-") {
            continue;
        }
        mix(key.as_bytes());
        mix(&[0]);
        mix(&body.len().to_le_bytes());
        if let Some(bytes) = body.bytes() {
            mix(bytes);
        }
    }
    h
}

/// Sequential rounds a stateful exchange needs on the plan's fleet: the
/// per-VM share of the data, bounded by the (chosen or policy-picked)
/// instance's memory.
fn plan_rounds(
    sizing: &SizingPolicy,
    plan: &FunctionsPlan,
    itype: &InstanceType,
    bytes: u64,
) -> usize {
    let share = bytes.div_ceil(plan.vm_count as u64);
    if plan.instance.is_none() && plan.vm_count == 1 {
        // The paper's path: the policy both picks the instance and
        // splits into rounds against its empirical bound table.
        return sizing.plan(share).1;
    }
    // Explicit instance (or fleet): the chosen type is the bound.
    let bounded = SizingPolicy {
        max_instance_mem_gib: itype.mem_gib,
        ..sizing.clone()
    };
    if bounded.required_mem_gib(share) <= itype.mem_gib {
        1
    } else {
        bounded.plan(share).1
    }
}

/// The executors a DAG's launch closures draw on.
struct StageCtx {
    faas: FunctionExecutor,
    vm: Option<FunctionExecutor>,
}

/// Lowers a stage graph (with its dataflow edges) to a task-level
/// [`Dag`]:
///
/// * a stateless stage → one map node;
/// * a serverful stateful stage → one fused-exchange node per
///   sequential round, rounds chained all-to-all (each round's working
///   set must fully vacate the bounded fleet memory before the next);
/// * a functions stateful stage → a scatter node plus a gather node
///   joined all-to-all (the storage exchange is a full shuffle).
///
/// Stage-level in-edges attach to the stage's *first* node and point at
/// the upstream stage's *terminal* node (round chains make
/// terminal-done imply all-rounds-done, so this is exact).
#[allow(clippy::too_many_arguments)]
fn build_stage_dag(
    stages: &[Stage],
    stage_deps: &[Vec<StageEdge>],
    plan: &FunctionsPlan,
    sizing: &SizingPolicy,
    planned_itype: &InstanceType,
    vm_workers: usize,
    seed: u64,
    exchange: Exchange,
) -> Dag<StageCtx> {
    let mut dag: Dag<StageCtx> = Dag::new();
    // Terminal node index of each lowered stage.
    let mut terminal: Vec<usize> = Vec::with_capacity(stages.len());
    for (si, (stage, backend)) in stages.iter().zip(&plan.backends).enumerate() {
        let g = dag.add_group(stage.name.clone());
        let in_edges: Vec<Edge> = stage_deps[si]
            .iter()
            .map(|e| Edge {
                from: terminal[e.from],
                fan_in: e.fan_in,
            })
            .collect();
        let terminal_node = match stage.kind {
            StageKind::Stateless {
                read_spread,
                write_spread,
            } => {
                let stage_c = stage.clone();
                let on_vm = *backend == StageBackend::Serverful;
                dag.add_node(DagNode {
                    label: stage.name.clone(),
                    group: Some(g),
                    tasks: stage.tasks,
                    deps: in_edges,
                    launch: Box::new(move |ctx: &mut StageCtx, env, gated| {
                        let exec = if on_vm {
                            ctx.vm.as_mut().expect("serverful stage has a pool")
                        } else {
                            &mut ctx.faas
                        };
                        Ok(submit_stateless(
                            env,
                            exec,
                            &stage_c,
                            read_spread,
                            write_spread,
                            gated,
                        ))
                    }),
                })
            }
            StageKind::Stateful { exchange_gb } => match backend {
                StageBackend::Serverful => {
                    // The serverful path is bounded by the empirical
                    // instance table: data beyond the fleet's bounded
                    // memory is processed in sequential rounds, fused
                    // (scatter+gather in one job through shared memory).
                    let bytes = (exchange_gb * 1e9) as u64;
                    let rounds = plan_rounds(sizing, plan, planned_itype, bytes);
                    let mut prev = None;
                    for round in 0..rounds {
                        let mut cfg =
                            exchange_config(stage, exchange_gb / rounds as f64, seed);
                        cfg.key_prefix = format!("{}-{round}-", stage.name);
                        cfg.label = if rounds == 1 {
                            stage.name.clone()
                        } else {
                            format!("{}/round{round}", stage.name)
                        };
                        let deps = match prev {
                            None => in_edges.clone(),
                            Some(p) => vec![Edge::all_to_all(p)],
                        };
                        let label = cfg.label.clone();
                        prev = Some(dag.add_node(DagNode {
                            label,
                            group: Some(g),
                            tasks: vm_workers,
                            deps,
                            launch: Box::new(move |ctx: &mut StageCtx, env, gated| {
                                let vm_exec =
                                    ctx.vm.as_mut().expect("serverful stage has a pool");
                                let refs = shuffle::seed_input(env, &cfg);
                                Ok(shuffle::submit_fused_exchange(
                                    env, vm_exec, &cfg, &refs, vm_workers, exchange, gated,
                                ))
                            }),
                        }));
                    }
                    prev.expect("at least one round")
                }
                StageBackend::Functions => {
                    let cfg = exchange_config(stage, exchange_gb, seed);
                    let tasks = stage.tasks;
                    // The gather reads one output per scatter worker that
                    // got a chunk: `tasks` workers over `cfg.chunks`.
                    let scatter_workers = tasks.min(cfg.chunks);
                    let cfg_s = cfg.clone();
                    let scatter = dag.add_node(DagNode {
                        label: format!("{}/scatter", stage.name),
                        group: Some(g),
                        tasks,
                        deps: in_edges,
                        launch: Box::new(move |ctx: &mut StageCtx, env, gated| {
                            let refs = shuffle::seed_input(env, &cfg_s);
                            let (handle, workers) = shuffle::submit_scatter(
                                env,
                                &mut ctx.faas,
                                &cfg_s,
                                &refs,
                                Exchange::Storage,
                                tasks,
                                tasks,
                                gated,
                            );
                            debug_assert_eq!(workers, scatter_workers);
                            Ok(handle)
                        }),
                    });
                    dag.add_node(DagNode {
                        label: format!("{}/gather", stage.name),
                        group: Some(g),
                        tasks,
                        deps: vec![Edge::all_to_all(scatter)],
                        launch: Box::new(move |ctx: &mut StageCtx, env, gated| {
                            Ok(shuffle::submit_gather(
                                env,
                                &mut ctx.faas,
                                &cfg,
                                Exchange::Storage,
                                scatter_workers,
                                tasks,
                                gated,
                            ))
                        }),
                    })
                }
            },
        };
        terminal.push(terminal_node);
    }
    dag
}

/// Seeds per-task inputs and submits a read→compute→write map without
/// blocking on it.
fn submit_stateless(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    stage: &Stage,
    read_spread: usize,
    write_spread: usize,
    gated: bool,
) -> serverful::JobHandle {
    let bucket = WORKSPACE_BUCKET;
    let read_bytes = (stage.read_mb_per_task * 1e6) as u64;
    let write_bytes = (stage.write_mb_per_task * 1e6) as u64;
    if read_bytes > 0 {
        for t in 0..stage.tasks {
            env.seed_object(
                bucket,
                &stateless_in_key(stage, t, read_spread),
                ObjectBody::opaque(read_bytes),
            );
        }
    }
    let stage_clone = stage.clone();
    let factory: serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
        let t = input.as_u64().expect("task index") as usize;
        let mut script = ScriptTask::new();
        if read_bytes > 0 {
            script = script.get(bucket, stateless_in_key(&stage_clone, t, read_spread));
        }
        script = script.compute(stage_clone.cpu_secs_per_task);
        if write_bytes > 0 {
            script = script.put(
                bucket,
                stateless_out_key(&stage_clone, t, write_spread),
                ObjectBody::opaque(write_bytes),
            );
        }
        script.finish_value(Payload::Unit).boxed()
    });
    let inputs: Vec<Payload> = (0..stage.tasks).map(|t| Payload::U64(t as u64)).collect();
    let mut opts = MapOptions::named(stage.name.clone());
    if gated {
        opts = opts.gated();
    }
    exec.map_with(env, factory, inputs, opts)
}

fn stateless_in_key(stage: &Stage, task: usize, spread: usize) -> String {
    format!("{}-r{}/in-{task:05}", stage.name, task % spread.max(1))
}

fn stateless_out_key(stage: &Stage, task: usize, spread: usize) -> String {
    format!("{}-w{}/out-{task:05}", stage.name, task % spread.max(1))
}

/// Builds the exchange configuration of a stateful stage, splitting its
/// CPU budget evenly between the partition and merge phases.
fn exchange_config(stage: &Stage, exchange_gb: f64, seed: u64) -> SortConfig {
    let bytes = (exchange_gb * 1e9) as u64;
    // CPU density is per byte, so a partial-volume round gets a
    // proportional share of the stage's CPU budget.
    let full_gb = match stage.kind {
        StageKind::Stateful { exchange_gb } => exchange_gb,
        StageKind::Stateless { .. } => exchange_gb,
    };
    let total_cpu = stage.total_cpu_secs() * (exchange_gb / full_gb);
    let per_reducer = (bytes / stage.tasks.max(1) as u64 / 8).max(2) as f64;
    SortConfig {
        bucket: WORKSPACE_BUCKET.to_owned(),
        chunks: stage.tasks,
        reducers: stage.tasks,
        total_bytes: bytes,
        real_data: false,
        partition_ns_per_byte: 0.5 * total_cpu / bytes as f64 * 1e9,
        sort_ns_per_byte_log: 0.5 * total_cpu * 1e9 / (bytes as f64 * per_reducer.log2()),
        seed,
        key_prefix: format!("{}-", stage.name),
        label: stage.name.clone(),
    }
}

/// Merges the timeline's spans (stateful stages produce scatter+gather
/// pairs, or one span per round) back into per-stage results, with
/// stage windows expressed relative to `run_start`.
fn summarise(
    stages: &[Stage],
    spans: &[telemetry::StageSpan],
    run_start: SimTime,
) -> Vec<StageResult> {
    stages
        .iter()
        .map(|stage| {
            let mine: Vec<&telemetry::StageSpan> = spans
                .iter()
                .filter(|s| {
                    s.name == stage.name || s.name.starts_with(&format!("{}/", stage.name))
                })
                .collect();
            let start = mine.iter().map(|s| s.start).min().unwrap_or(SimTime::ZERO);
            let end = mine.iter().map(|s| s.end).max().unwrap_or(SimTime::ZERO);
            StageResult {
                name: stage.name.clone(),
                tasks: stage.tasks,
                secs: end.saturating_since(start).as_secs_f64(),
                start_secs: start.saturating_since(run_start).as_secs_f64(),
                end_secs: end.saturating_since(run_start).as_secs_f64(),
                stateful: stage.is_stateful(),
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Cluster path
// ----------------------------------------------------------------------

fn run_cluster_plan(
    label: &str,
    stages: &[Stage],
    plan: &ClusterPlan,
    seed: u64,
    cloud: CloudConfig,
    trace: bool,
) -> (AnnotationReport, Option<TraceOutput>) {
    let mut world = World::new(cloud, seed);
    if trace {
        world.set_tracing(true);
    }
    let cluster_cfg = ClusterConfig {
        instance_type: plan.instance.clone(),
        count: plan.nodes,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterEngine::provision(&mut world, cluster_cfg);
    let start = world.now();
    let defs: Vec<StageDef> = stages.iter().map(cluster_stage).collect();
    let report = cluster.run(&mut world, &defs);
    let end = world.now();

    let stage_results: Vec<StageResult> = stages
        .iter()
        .map(|stage| {
            let span = report.timeline.span(&stage.name);
            StageResult {
                name: stage.name.clone(),
                tasks: stage.tasks,
                secs: span.map_or(0.0, |s| s.duration().as_secs_f64()),
                start_secs: span
                    .map_or(0.0, |s| s.start.saturating_since(start).as_secs_f64()),
                end_secs: span
                    .map_or(0.0, |s| s.end.saturating_since(start).as_secs_f64()),
                stateful: stage.is_stateful(),
            }
        })
        .collect();
    let cpu = UsageStats::compute(
        world.cpu_monitor(),
        start,
        end,
        SimDuration::from_secs(1),
        &report.timeline.stateful_windows(),
    );
    let annotation = AnnotationReport {
        job: label.to_owned(),
        arch: Architecture::Cluster,
        wall_secs: report.wall_secs,
        cost_usd: report.cost_usd,
        waste: ledger_waste(&world),
        stages: stage_results,
        cpu,
    };
    (annotation, trace.then(|| trace_output(&world)))
}

fn cluster_stage(stage: &Stage) -> StageDef {
    match stage.kind {
        StageKind::Stateless { read_spread, .. } => StageDef {
            name: stage.name.clone(),
            tasks: stage.tasks,
            cpu_secs_per_task: stage.cpu_secs_per_task,
            read_bytes_per_task: (stage.read_mb_per_task * 1e6) as u64,
            write_bytes_per_task: (stage.write_mb_per_task * 1e6) as u64,
            shuffle_bytes: 0,
            stateful: false,
            storage_prefix: stage.name.clone(),
            prefix_spread: read_spread,
        },
        StageKind::Stateful { exchange_gb } => {
            let bytes = (exchange_gb * 1e9) as u64;
            StageDef {
                name: stage.name.clone(),
                tasks: stage.tasks,
                cpu_secs_per_task: stage.cpu_secs_per_task,
                // The sort's input read and output write also hit object
                // storage, like the serverless path's chunks and parts.
                read_bytes_per_task: bytes / stage.tasks.max(1) as u64,
                write_bytes_per_task: bytes / stage.tasks.max(1) as u64,
                shuffle_bytes: bytes,
                stateful: true,
                storage_prefix: format!("{}-x", stage.name),
                prefix_spread: 1,
            }
        }
    }
}
