//! Cross-crate integration tests: the paper's claims as assertions.

use std::sync::Arc;

use serverful_repro::metaspace::{algo, data, jobs, run_annotation, Architecture};
use serverful_repro::serverful::executor::MapOptions;
use serverful_repro::serverful::job::TaskFactory;
use serverful_repro::serverful::{
    Backend, CloudEnv, EnvEvent, ExecutorConfig, FunctionExecutor, Payload, ScriptTask,
};
use serverful_repro::simkernel::{SimDuration, SimRng};

/// The paper's abstract in one test: the hybrid deployment is more
/// cost-effective than pure serverless while being much faster than the
/// serverful (Spark) baseline — on the typical job.
#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn abstract_claims_hold_on_xenograft() {
    let job = jobs::xenograft();
    let cf = run_annotation(&job, Architecture::Serverless, 1).unwrap();
    let hy = run_annotation(&job, Architecture::Hybrid, 1).unwrap();
    let sp = run_annotation(&job, Architecture::Cluster, 1).unwrap();

    // Hybrid improves cost-performance over pure serverless.
    assert!(
        hy.cost_performance() > cf.cost_performance(),
        "hybrid {} vs serverless {}",
        hy.cost_performance(),
        cf.cost_performance()
    );
    // Hybrid is much faster than the serverful baseline (paper: 2.21x).
    let speedup = sp.wall_secs / hy.wall_secs;
    assert!(
        speedup > 1.8,
        "hybrid should be ~2x faster than Spark, got {speedup:.2}"
    );
    // Serverless is faster than Spark but more expensive (Figures 3, 4).
    assert!(cf.wall_secs < sp.wall_secs);
    assert!(cf.cost_usd > sp.cost_usd);
}

#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn hybrid_improves_cost_performance_on_all_jobs() {
    // Figure 6's claim, across the full Table 2.
    for job in jobs::all() {
        let cf = run_annotation(&job, Architecture::Serverless, 1).unwrap();
        let hy = run_annotation(&job, Architecture::Hybrid, 1).unwrap();
        assert!(
            hy.cost_performance() >= cf.cost_performance(),
            "{}: hybrid {} < serverless {}",
            job.name,
            hy.cost_performance(),
            cf.cost_performance()
        );
    }
}

#[test]
fn small_jobs_prefer_the_warm_cluster() {
    // Table 4's Brain row: the fixed cluster wins on tiny inputs because
    // elasticity overheads dominate.
    let job = jobs::brain();
    let cf = run_annotation(&job, Architecture::Serverless, 1).unwrap();
    let sp = run_annotation(&job, Architecture::Cluster, 1).unwrap();
    assert!(
        sp.wall_secs < cf.wall_secs,
        "Spark {} should beat serverless {} on Brain",
        sp.wall_secs,
        cf.wall_secs
    );
}

#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn demanding_jobs_underprovision_the_cluster() {
    // Table 4's X089 row: the 64-slot cluster falls 4-5x behind.
    let job = jobs::x089();
    let cf = run_annotation(&job, Architecture::Serverless, 1).unwrap();
    let sp = run_annotation(&job, Architecture::Cluster, 1).unwrap();
    let speedup = sp.wall_secs / cf.wall_secs;
    assert!(
        speedup > 4.0,
        "serverless should be >4x faster on X089, got {speedup:.2}"
    );
}

#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn serverless_cpu_usage_is_flatter_than_spark() {
    // Table 3: elastic provisioning stabilises utilisation — lower
    // standard deviation and a much higher minimum than the fixed pool.
    let job = jobs::xenograft();
    let cf = run_annotation(&job, Architecture::Serverless, 1).unwrap();
    let sp = run_annotation(&job, Architecture::Cluster, 1).unwrap();
    let cf_cpu = cf.cpu.expect("cf stats");
    let sp_cpu = sp.cpu.expect("spark stats");
    assert!(
        cf_cpu.std_dev < sp_cpu.std_dev,
        "cf σ {} vs spark σ {}",
        cf_cpu.std_dev,
        sp_cpu.std_dev
    );
    assert!(
        cf_cpu.min > sp_cpu.min + 10.0,
        "cf min {} vs spark min {}",
        cf_cpu.min,
        sp_cpu.min
    );
    // Stateful operations underutilise both deployments.
    assert!(cf_cpu.stateful_average < cf_cpu.average);
    assert!(sp_cpu.stateful_average < sp_cpu.average);
}

#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn stage_concurrency_matches_figure2_shape() {
    // Stateful stages run at tens of tasks; the comparison at thousands.
    let report = run_annotation(&jobs::xenograft(), Architecture::Serverless, 1).unwrap();
    let stateful_max = report
        .stages
        .iter()
        .filter(|s| s.stateful)
        .map(|s| s.tasks)
        .max()
        .unwrap();
    let stateless_max = report
        .stages
        .iter()
        .filter(|s| !s.stateful)
        .map(|s| s.tasks)
        .max()
        .unwrap();
    assert!(stateful_max <= 100, "stateful stages stay narrow");
    assert!(stateless_max >= 2000, "the comparison reaches thousands");
}

#[test]
fn annotation_is_architecture_independent() {
    // The real algorithms produce the same annotations regardless of how
    // the pipeline is deployed — here checked between the in-memory
    // reference at different segmentations (the distributed pipelines
    // shard exactly this way).
    let mut rng = SimRng::seed_from(21);
    let db = data::generate_db(&mut rng, 30);
    let ds = data::generate_dataset(&mut rng, &data::DatasetParams::default(), &db);
    let a = algo::annotate_reference(&ds, &db, 2, 3.0, 0.2);
    let b = algo::annotate_reference(&ds, &db, 16, 3.0, 0.2);
    let ids = |v: &[algo::Annotation]| {
        let mut ids: Vec<u32> = v.iter().map(|x| x.formula_id).collect();
        ids.sort_unstable();
        ids
    };
    let (a, b) = (ids(&a), ids(&b));
    let common = a.iter().filter(|x| b.contains(x)).count();
    assert!(common * 10 >= a.len().max(b.len()) * 9, "{a:?} vs {b:?}");
}

#[test]
fn runs_are_deterministic_per_seed_and_vary_across_seeds() {
    let job = jobs::brain();
    let a = run_annotation(&job, Architecture::Hybrid, 9).unwrap();
    let b = run_annotation(&job, Architecture::Hybrid, 9).unwrap();
    assert_eq!(a.wall_secs, b.wall_secs);
    assert_eq!(a.cost_usd, b.cost_usd);
    let c = run_annotation(&job, Architecture::Hybrid, 10).unwrap();
    assert_ne!(a.wall_secs, c.wall_secs, "different seeds should jitter");
}

/// Tasks that compute for half a second and return three times their
/// input, whichever VM runs them.
fn tripling_tasks() -> TaskFactory {
    Arc::new(|input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(0.5)
            .finish_value(Payload::U64(i * 3))
            .boxed()
    })
}

/// Pumps the environment until `secs` of virtual time have passed.
fn wait(env: &mut CloudEnv, secs: f64) {
    let token = env.external_timer(SimDuration::from_secs_f64(secs));
    while env.pump() != EnvEvent::Timer(token) {}
}

/// The serverful pool's keep-alive window ("use existing, previously
/// configured VMs"): a job submitted right after another reuses the warm
/// VM, while a pool left idle past its window releases it, so the next
/// job pays the boot again. Results never depend on which VM ran them.
#[test]
fn idle_vm_pool_is_released_after_its_keep_alive_window() {
    let mut env = CloudEnv::new_default(7);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.idle_timeout_secs = Some(30.0);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let run = |env: &mut CloudEnv, exec: &mut FunctionExecutor| {
        let start = env.now();
        let inputs = (0..8).map(Payload::U64).collect();
        let job = exec.map_with(env, tripling_tasks(), inputs, MapOptions::named("keep-alive"));
        let results = exec.get_result(env, job).expect("vm map");
        (results, (env.now() - start).as_secs_f64())
    };

    let (first, _) = run(&mut env, &mut exec);
    assert!(exec.warm(&env), "the pool stays warm after a job");
    let (second, warm_secs) = run(&mut env, &mut exec);
    assert!(warm_secs < 5.0, "a job on the warm pool took {warm_secs:.2} s");

    // Idle well past the 30 s window: the keep-alive timer releases the VM.
    wait(&mut env, 120.0);
    assert!(!exec.warm(&env), "the keep-alive window should release the pool");
    let (third, cold_secs) = run(&mut env, &mut exec);
    assert!(cold_secs > 20.0, "a job on a released pool took only {cold_secs:.2} s");
    exec.shutdown(&mut env);

    assert_eq!(first, second);
    assert_eq!(second, third);
}

/// A fully gated job that starts the moment its pool's VM finishes SSH
/// setup: the job's start launches the VM's worker processes, and the
/// VM's readiness must not launch them a second time. A debug assertion
/// checks that no worker process runs two tasks at once; the results
/// must match the released inputs.
#[test]
fn gated_job_starting_on_a_fresh_vm_runs_each_process_once() {
    let mut env = CloudEnv::new_default(3);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let inputs = (0..16).map(Payload::U64).collect();
    let options = MapOptions::named("gated").gated();
    let job = exec.map_with(&mut env, tripling_tasks(), inputs, options);
    // Release only once the pool is up and the job owns it.
    wait(&mut env, 120.0);
    assert!(exec.warm(&env), "the pool should be up before the release");
    job.release_all(&mut env);
    let results = exec.get_result(&mut env, job).expect("gated vm map");
    exec.shutdown(&mut env);
    assert_eq!(results, (0..16).map(|i| Payload::U64(i * 3)).collect::<Vec<_>>());
}
