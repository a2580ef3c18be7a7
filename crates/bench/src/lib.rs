//! Reproduction harness: one function per paper table/figure.
//!
//! Each function runs the corresponding experiment on the simulated
//! substrate and returns structured results; the `repro` binary renders
//! them next to the paper's published numbers. See EXPERIMENTS.md for
//! the recorded paper-vs-measured comparison.

#![warn(missing_docs)]

use std::sync::Arc;

use metaspace::plan::{DeploymentPlan, FunctionsPlan, PlanKind};
use metaspace::{jobs, run_annotation, AnnotationReport, Architecture, JobSpec};

pub mod render;
use serverful::executor::MapOptions;
use serverful::{
    Backend, CloudEnv, ExecMode, ExecutorConfig, FunctionExecutor, Payload, ScriptTask,
    SizingPolicy,
};
use shuffle::{seed_input, serverless_sort, vm_sort, SortConfig, SortReport};
use telemetry::UsageStats;

/// Results of Table 1: a 100×5 s CPU-bound map across three services.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1 {
    /// AWS-Lambda-like execution, seconds.
    pub lambda_secs: f64,
    /// EC2-like execution (m6a.32xlarge from a pre-built AMI), seconds.
    pub ec2_secs: f64,
    /// EMR-Serverless-like execution with default parameters, seconds.
    pub emr_secs: f64,
}

/// Paper values for Table 1.
pub const TABLE1_PAPER: Table1 = Table1 {
    lambda_secs: 12.56,
    ec2_secs: 42.34,
    emr_secs: 134.87,
};

/// Runs Table 1: 100 CPU-bound functions of five seconds each, measured
/// end to end including resource (de)provisioning.
pub fn table1(seed: u64) -> Table1 {
    let five_second_task: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .compute(5.0)
            .finish_value(Payload::Unit)
            .boxed()
    });
    let inputs = || (0..100).map(Payload::U64).collect::<Vec<_>>();

    // AWS Lambda, 1769 MB per function.
    let mut env = CloudEnv::new_default(seed);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let job = exec.map_with(
        &mut env,
        five_second_task.clone(),
        inputs(),
        MapOptions::named("table1-lambda"),
    );
    exec.get_result(&mut env, job).expect("lambda map");
    let lambda_secs = env.now().as_secs_f64();

    // EC2: one m6a.32xlarge (128 vCPUs) created from a pre-built AMI,
    // torn down afterwards (times include provisioning/deprovisioning).
    let mut env = CloudEnv::new_default(seed);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.instance_override = Some("m6a.32xlarge".to_owned());
    cfg.standalone.reuse_instances = false;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let job = exec.map_with(
        &mut env,
        five_second_task,
        inputs(),
        MapOptions::named("table1-ec2"),
    );
    exec.get_result(&mut env, job).expect("ec2 map");
    let ec2_secs = env.now().as_secs_f64();

    // EMR Serverless with default execution parameters.
    let mut world = cloudsim::World::new(cloudsim::CloudConfig::default(), seed);
    let emr_job = world.emr_submit(100, 5.0);
    let emr_secs = loop {
        match world.step() {
            Some((t, cloudsim::Notify::EmrDone { job })) if job == emr_job => {
                break t.as_secs_f64()
            }
            Some(_) => continue,
            None => unreachable!("EMR job never finished"),
        }
    };

    Table1 {
        lambda_secs,
        ec2_secs,
        emr_secs,
    }
}

/// Table 2 is the job characterisation itself.
pub fn table2() -> Vec<JobSpec> {
    jobs::all()
}

/// Results of Table 3: CPU usage of the Xenograft annotation on cloud
/// functions vs the Spark cluster.
#[derive(Debug, Clone, Copy)]
pub struct Table3 {
    /// Cloud-functions deployment statistics.
    pub cloud_functions: UsageStats,
    /// Spark-cluster deployment statistics.
    pub spark: UsageStats,
}

/// Paper values for Table 3 (percent).
pub const TABLE3_PAPER: [(&str, f64, f64); 5] = [
    ("average", 72.76, 53.53),
    ("std-dev", 19.02, 42.19),
    ("maximum", 99.99, 99.43),
    ("minimum", 35.58, 0.43),
    ("stateful-average", 40.57, 17.68),
];

/// Runs Table 3: Xenograft on both deployments, sampling CPU usage.
pub fn table3(seed: u64) -> Table3 {
    let job = jobs::xenograft();
    let cf = run_annotation(&job, Architecture::Serverless, seed).expect("serverless run");
    let sp = run_annotation(&job, Architecture::Cluster, seed).expect("cluster run");
    Table3 {
        cloud_functions: cf.cpu.expect("cf usage stats"),
        spark: sp.cpu.expect("spark usage stats"),
    }
}

/// One Table 4 row: a job on all three architectures.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The job.
    pub job: JobSpec,
    /// Cloud-functions run.
    pub cloud_functions: AnnotationReport,
    /// Hybrid run.
    pub hybrid: AnnotationReport,
    /// Spark run.
    pub spark: AnnotationReport,
}

/// Paper values for Table 4 (seconds): (job, CF, hybrid, Spark).
pub const TABLE4_PAPER: [(&str, f64, f64, f64); 3] = [
    ("Brain", 152.20, 105.49, 54.83),
    ("Xenograft", 351.57, 398.70, 889.54),
    ("X089", 488.86, 709.14, 2582.66),
];

/// Paper values for Figure 4 (dollars, approximate read-offs): the paper
/// states CF costs ≈2× Spark for typical jobs and up to ≈4× for
/// demanding ones.
pub const FIG4_PAPER_RATIO: [(&str, f64); 3] =
    [("Brain", 1.5), ("Xenograft", 2.0), ("X089", 4.0)];

/// Runs one Table 4 row.
pub fn table4_row(job: &JobSpec, seed: u64) -> Table4Row {
    Table4Row {
        job: job.clone(),
        cloud_functions: run_annotation(job, Architecture::Serverless, seed)
            .expect("serverless run"),
        hybrid: run_annotation(job, Architecture::Hybrid, seed).expect("hybrid run"),
        spark: run_annotation(job, Architecture::Cluster, seed).expect("cluster run"),
    }
}

/// Runs all of Table 4 (also feeds Figures 3, 4 and 6).
pub fn table4(seed: u64) -> Vec<Table4Row> {
    jobs::all().iter().map(|j| table4_row(j, seed)).collect()
}

/// A barrier-vs-pipelined run of one job's hybrid deployment — the
/// `repro dag` experiment.
#[derive(Debug, Clone)]
pub struct DagComparison {
    /// Job name.
    pub job: String,
    /// The hybrid plan under classic BSP barriers.
    pub barrier: AnnotationReport,
    /// The same plan scheduled dependency-driven.
    pub pipelined: AnnotationReport,
    /// Stage-level dataflow edges as `(from, to)` index pairs.
    pub edges: Vec<(usize, usize)>,
}

/// Runs the job's hybrid deployment twice from the same seed — once
/// with stage barriers, once dependency-driven — and pairs the reports
/// with the pipeline's stage DAG. `smoke` shrinks the stage graph for
/// debug-fast CI gates.
///
/// # Errors
///
/// Propagates executor failures from either run.
pub fn dag_comparison(
    spec: &JobSpec,
    seed: u64,
    smoke: bool,
) -> Result<DagComparison, serverful::ExecError> {
    let w = metaspace::pipeline::job_workload(spec);
    let w = if smoke { w.scaled(0.02) } else { w };
    let (barrier_plan, pipelined_plan) = hybrid_plans(&w.stages);
    let cloud = cloudsim::CloudConfig::default;
    let (barrier, _) = metaspace::run_workload(&w, &barrier_plan, seed, cloud(), false)?;
    let (pipelined, _) = metaspace::run_workload(&w, &pipelined_plan, seed, cloud(), false)?;
    Ok(DagComparison {
        job: spec.name.to_owned(),
        barrier,
        pipelined,
        edges: w.edge_pairs(),
    })
}

/// The hybrid plan for `stages` under stage barriers, and the same plan
/// scheduled dependency-driven.
fn hybrid_plans(stages: &[metaspace::Stage]) -> (DeploymentPlan, DeploymentPlan) {
    let barrier = DeploymentPlan::hybrid(stages);
    let PlanKind::Functions(f) = &barrier.kind else {
        unreachable!("hybrid is a functions plan")
    };
    let pipelined = DeploymentPlan::functions(
        "hybrid-pipelined",
        FunctionsPlan {
            execution: serverful::ExecutionMode::Pipelined,
            ..f.clone()
        },
    );
    (barrier, pipelined)
}

/// A three-plan run of one workload description — the `repro workload`
/// experiment: the hybrid deployment under barriers and dependency-driven,
/// plus the pure-serverless baseline.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// Workload name.
    pub name: String,
    /// The (possibly smoke-scaled) workload that actually ran.
    pub workload: workload::Workload,
    /// The hybrid plan under classic BSP barriers.
    pub hybrid_barrier: AnnotationReport,
    /// The same hybrid plan scheduled dependency-driven.
    pub hybrid_pipelined: AnnotationReport,
    /// Everything on cloud functions, under barriers.
    pub serverless: AnnotationReport,
    /// Stage-level dataflow edges as `(from, to)` index pairs.
    pub edges: Vec<(usize, usize)>,
}

/// Runs a workload description three times from the same seed — hybrid
/// barrier, hybrid pipelined, pure serverless — and pairs the reports
/// with the declared stage DAG. `smoke` shrinks the graph (~2% task
/// volume, floor of two tasks per stage) for debug-fast CI gates.
///
/// # Errors
///
/// Propagates validation and executor failures from any run.
pub fn workload_comparison(
    w: &workload::Workload,
    seed: u64,
    smoke: bool,
) -> Result<WorkloadComparison, serverful::ExecError> {
    let w = if smoke { w.scaled(0.02) } else { w.clone() };
    let (hybrid, pipelined_plan) = hybrid_plans(&w.stages);
    let serverless_plan = DeploymentPlan::serverless(&w.stages);
    let cloud = cloudsim::CloudConfig::default;
    let (hybrid_barrier, _) = metaspace::run_workload(&w, &hybrid, seed, cloud(), false)?;
    let (hybrid_pipelined, _) = metaspace::run_workload(&w, &pipelined_plan, seed, cloud(), false)?;
    let (serverless, _) = metaspace::run_workload(&w, &serverless_plan, seed, cloud(), false)?;
    Ok(WorkloadComparison {
        name: w.name.clone(),
        edges: w.edge_pairs(),
        workload: w,
        hybrid_barrier,
        hybrid_pipelined,
        serverless,
    })
}

/// Runs Figure 2: per-stage concurrency of the serverless Xenograft
/// annotation. Returns `(stage, tasks, stateful, measured seconds)`.
pub fn fig2(seed: u64) -> Vec<(String, usize, bool, f64)> {
    let report = run_annotation(&jobs::xenograft(), Architecture::Serverless, seed)
        .expect("serverless run");
    report
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.tasks, s.stateful, s.secs))
        .collect()
}

/// Results of Figure 5: the Xenograft distributed sort on both
/// architectures.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Serverless sort (37 × 1769 MB functions).
    pub serverless: SortReport,
    /// Single-VM sort (m4.4xlarge).
    pub vm: SortReport,
}

/// Paper values for Figure 5: serverless 1.28× faster; the VM ~15×
/// cheaper overall (I/O time charged $0.75 vs $0.05).
pub const FIG5_PAPER_SPEEDUP: f64 = 1.28;
/// Paper's quoted VM-vs-serverless cost advantage ("17 times cheaper").
pub const FIG5_PAPER_COST_RATIO: f64 = 17.0;

/// Runs Figure 5 in fresh, identically seeded regions.
pub fn fig5(seed: u64) -> Fig5 {
    let cfg = SortConfig::xenograft();

    let mut env = CloudEnv::new_default(seed);
    let refs = seed_input(&mut env, &cfg);
    let mut faas = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let serverless = serverless_sort(&mut env, &mut faas, &cfg, &refs).expect("serverless sort");

    let mut env = CloudEnv::new_default(seed);
    let refs = seed_input(&mut env, &cfg);
    let mut vm_exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let vm = vm_sort(&mut env, &mut vm_exec, &cfg, &refs, &SizingPolicy::default())
        .expect("vm sort");

    Fig5 { serverless, vm }
}

/// An ablation: the same map on the VM backend with and without
/// proactive instance reuse, isolating what "use existing, previously
/// configured VMs" buys.
pub fn ablation_reuse(seed: u64) -> (f64, f64) {
    let duration_of = |reuse: bool| {
        let mut env = CloudEnv::new_default(seed);
        let mut cfg = ExecutorConfig::default();
        cfg.standalone.reuse_instances = reuse;
        cfg.standalone.exec_mode = ExecMode::Consolidated;
        let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
        let factory: serverful::job::TaskFactory = Arc::new(|_| {
            ScriptTask::new()
                .compute(2.0)
                .finish_value(Payload::Unit)
                .boxed()
        });
        for i in 0..3 {
            let job = exec.map_with(
                &mut env,
                factory.clone(),
                (0..8).map(Payload::U64).collect(),
                MapOptions::named(format!("reuse-abl-{i}")),
            );
            exec.get_result(&mut env, job).expect("map");
        }
        exec.shutdown(&mut env);
        env.now().as_secs_f64()
    };
    (duration_of(true), duration_of(false))
}

/// An ablation: Lambda memory size vs wall time and cost for a fixed
/// CPU-bound map (the memory→vCPU mapping at work).
pub fn ablation_memory(seed: u64, mem_mb: u32) -> (f64, f64) {
    let mut env = CloudEnv::new_default(seed);
    let cfg = ExecutorConfig {
        runtime_memory_mb: mem_mb,
        ..ExecutorConfig::default()
    };
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    let factory: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .compute(5.0)
            .finish_value(Payload::Unit)
            .boxed()
    });
    let job = exec.map_with(
        &mut env,
        factory,
        (0..50).map(Payload::U64).collect(),
        MapOptions::named("memory-abl"),
    );
    exec.get_result(&mut env, job).expect("map");
    (env.now().as_secs_f64(), env.world().ledger().total())
}

/// An ablation: the Figure 5 serverless sort under different per-prefix
/// storage bandwidths — where does the serverless speed edge go?
pub fn ablation_prefix_bandwidth(seed: u64, per_prefix_bps: f64) -> SortReport {
    let cfg = SortConfig::xenograft();
    let mut cloud = cloudsim::CloudConfig::default();
    cloud.storage.per_prefix_bps = per_prefix_bps;
    let mut env = CloudEnv::new(cloud, seed);
    let refs = seed_input(&mut env, &cfg);
    let mut faas = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    serverless_sort(&mut env, &mut faas, &cfg, &refs).expect("serverless sort")
}

/// One point of the fault-rate ablation: the same map on both backends
/// under seeded fault injection at a given base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRatePoint {
    /// FaaS map wall-clock, seconds.
    pub faas_wall_secs: f64,
    /// FaaS map billed dollars.
    pub faas_cost_usd: f64,
    /// VM map wall-clock, seconds.
    pub vm_wall_secs: f64,
    /// VM map billed dollars.
    pub vm_cost_usd: f64,
    /// Total retries (task + storage + straggler) across both runs.
    pub retries: u64,
    /// Total faults injected across both runs.
    pub faults_injected: u64,
}

/// An ablation: a 40-task × 1 s map on both backends under fault
/// injection at `rate` (see [`cloudsim::FaultConfig::at_rate`]),
/// measuring what retries cost in wall-clock and dollars. `rate` 0 is
/// the fault-free baseline.
pub fn ablation_fault_rate(seed: u64, rate: f64) -> FaultRatePoint {
    let factory = || -> serverful::job::TaskFactory {
        Arc::new(|_| {
            ScriptTask::new()
                .compute(1.0)
                .finish_value(Payload::Unit)
                .boxed()
        })
    };
    let cloud = || cloudsim::CloudConfig {
        faults: cloudsim::FaultConfig::at_rate(rate),
        ..cloudsim::CloudConfig::default()
    };

    let mut env = CloudEnv::new(cloud(), seed);
    let mut faas = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let job = faas.map_with(
        &mut env,
        factory(),
        (0..40).map(Payload::U64).collect(),
        MapOptions::named("fault-abl-faas"),
    );
    faas.get_result(&mut env, job).expect("faas map under faults");
    let faas_wall_secs = env.now().as_secs_f64();
    let faas_cost_usd = env.world().ledger().total();
    let faas_ledger = env.world().fault_ledger().clone();

    let mut env = CloudEnv::new(cloud(), seed);
    let mut vm = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let job = vm.map_with(
        &mut env,
        factory(),
        (0..40).map(Payload::U64).collect(),
        MapOptions::named("fault-abl-vm"),
    );
    vm.get_result(&mut env, job).expect("vm map under faults");
    vm.shutdown(&mut env);
    let vm_wall_secs = env.now().as_secs_f64();
    let vm_cost_usd = env.world().ledger().total();
    let vm_ledger = env.world().fault_ledger().clone();

    FaultRatePoint {
        faas_wall_secs,
        faas_cost_usd,
        vm_wall_secs,
        vm_cost_usd,
        retries: faas_ledger.total_retries() + vm_ledger.total_retries(),
        faults_injected: faas_ledger.total_injected() + vm_ledger.total_injected(),
    }
}

/// The paper's closing extension ("AWS EC2 offers instances with tens of
/// terabytes of memory... We could virtually sort datasets of thousands
/// of GBs within serverful components, vertically scaling them to input
/// size"): sorts of growing volume on the serverful backend with the
/// sizing bound lifted, so the policy climbs the catalog up to the
/// 12 TiB u7i instance. Returns `(instance name, wall seconds, cost)`.
pub fn extension_huge_sort(seed: u64, total_gb: f64) -> (String, f64, f64) {
    let cfg = SortConfig {
        total_bytes: (total_gb * 1e9) as u64,
        chunks: (total_gb / 2.0).ceil().max(8.0) as usize,
        reducers: 64,
        key_prefix: "hugesort-".to_owned(),
        label: "huge-sort".to_owned(),
        ..SortConfig::default()
    };
    let mut env = CloudEnv::new_default(seed);
    let refs = seed_input(&mut env, &cfg);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    // Lift the empirical bound: vertical scaling all the way up.
    let sizing = SizingPolicy {
        max_instance_mem_gib: f64::INFINITY,
        ..SizingPolicy::default()
    };
    let itype = sizing.choose(cfg.total_bytes);
    let report = vm_sort(&mut env, &mut exec, &cfg, &refs, &sizing).expect("huge sort");
    (itype.name.to_owned(), report.wall_secs, report.cost_usd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let t = table1(3);
        // Lambda fastest, EC2 burdened by boot, EMR by startup.
        assert!(t.lambda_secs < t.ec2_secs);
        assert!(t.ec2_secs < t.emr_secs);
        // Within a factor of ~1.6 of the paper's absolutes.
        assert!((t.lambda_secs / TABLE1_PAPER.lambda_secs - 1.0).abs() < 0.6);
        assert!((t.ec2_secs / TABLE1_PAPER.ec2_secs - 1.0).abs() < 0.6);
        assert!((t.emr_secs / TABLE1_PAPER.emr_secs - 1.0).abs() < 0.6);
    }

    #[test]
    fn fig5_shape_holds() {
        let f = fig5(3);
        assert!(f.serverless.wall_secs < f.vm.wall_secs, "serverless is faster");
        assert!(f.vm.cost_usd < f.serverless.cost_usd / 2.0, "the VM is much cheaper");
    }

    #[test]
    fn extension_huge_sort_scales_vertically() {
        // 300 GB needs ~750 GiB of memory: r5.24xlarge territory.
        let (itype, wall, cost) = extension_huge_sort(3, 300.0);
        assert_eq!(itype, "r5.24xlarge");
        assert!(wall > 0.0 && cost > 0.0);
    }

    #[test]
    fn ablation_reuse_saves_boots() {
        let (with_reuse, without) = ablation_reuse(3);
        assert!(
            with_reuse < without - 30.0,
            "reuse {with_reuse} vs fresh {without}"
        );
    }

    #[test]
    fn ablation_memory_trades_time_for_cost() {
        let (t_small, _) = ablation_memory(3, 885); // ~0.5 vCPU
        let (t_full, _) = ablation_memory(3, 1769); // 1 vCPU
        assert!(t_small > t_full + 3.0, "{t_small} vs {t_full}");
    }
}
