//! Chaos tests: deterministic fault injection on both backends, proving
//! the executor's retry/backoff machinery masks failures — jobs still
//! complete with byte-identical results, and the paper's claims survive.
//!
//! The injection layer draws from its own seeded RNG stream, so every
//! test here is fully reproducible: a failing seed is a bug, not flake.

use std::sync::Arc;

use serverful_repro::cloudsim::{
    CloudConfig, FaultConfig, Notify, ObjectBody, OpId, OpOutcome, StorageRequest, World,
};
use serverful_repro::metaspace::{jobs, pipeline, run_workload, Architecture, DeploymentPlan};
use serverful_repro::serverful::executor::MapOptions;
use serverful_repro::serverful::{
    Backend, CloudEnv, ExecError, ExecMode, ExecutorConfig, FunctionExecutor, Payload, RetryPolicy,
    ScriptTask,
};
use serverful_repro::telemetry::FaultKind;

/// The chaos profile the issue prescribes: 5% sandbox crashes, 2% VM
/// boot failures, 10% storage faults — plus a sprinkle of invoke errors
/// and SlowDowns.
fn chaos_cloud() -> CloudConfig {
    CloudConfig {
        faults: FaultConfig {
            sandbox_invoke_error_prob: 0.02,
            sandbox_crash_prob: 0.05,
            vm_boot_failure_prob: 0.02,
            storage_error_prob: 0.07,
            storage_slowdown_prob: 0.03,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    }
}

/// A map whose results are a pure function of the input, so re-executed
/// attempts must reproduce them exactly.
fn square_map(env: &mut CloudEnv, exec: &mut FunctionExecutor, n: u64) -> Vec<Payload> {
    square_map_for(env, exec, n, 0.8)
}

/// [`square_map`] with tasks that compute for `secs`.
fn square_map_for(
    env: &mut CloudEnv,
    exec: &mut FunctionExecutor,
    n: u64,
    secs: f64,
) -> Vec<Payload> {
    let factory: serverful_repro::serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(secs)
            .finish_value(Payload::U64(i * i))
            .boxed()
    });
    let job = exec.map_with(
        env,
        factory,
        (0..n).map(Payload::U64).collect(),
        MapOptions::named("chaos-square"),
    );
    exec.get_result(env, job).expect("map under chaos")
}

#[test]
fn faas_map_survives_chaos_with_identical_results() {
    // Fault-free reference.
    let mut env = CloudEnv::new_default(11);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let clean = square_map(&mut env, &mut exec, 24);

    // Chaos run: crashes, invoke errors and storage faults injected.
    let mut env = CloudEnv::new(chaos_cloud(), 11);
    let mut cfg = ExecutorConfig::default();
    cfg.retry.max_attempts = 6; // survive unlucky streaks at 10% storage faults
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    let chaotic = square_map(&mut env, &mut exec, 24);

    assert_eq!(clean, chaotic, "retries must reproduce results exactly");
    let ledger = env.world().fault_ledger();
    assert!(
        ledger.total_injected() > 0,
        "the chaos profile should actually inject faults"
    );
    assert!(
        ledger.total_retries() > 0,
        "injected faults should surface as retries: {}",
        ledger.report()
    );
}

#[test]
fn vm_pool_survives_boot_failures_and_worker_loss() {
    // Aggressive VM fault rates so the fleet provably takes hits: boot
    // failures on provisioning and mid-job losses of worker VMs.
    let cloud = CloudConfig {
        faults: FaultConfig {
            vm_boot_failure_prob: 0.25,
            vm_loss_prob: 0.6,
            vm_loss_after: (5.0, 40.0),
            storage_error_prob: 0.05,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, 5);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".into(),
        count: 3,
    };
    cfg.standalone.reuse_instances = false;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);

    let factory: serverful_repro::serverful::job::TaskFactory = Arc::new(|input: &Payload| {
        let i = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(6.0)
            .finish_value(Payload::U64(i + 100))
            .boxed()
    });
    let job = exec.map_with(
        &mut env,
        factory,
        (0..18).map(Payload::U64).collect(),
        MapOptions::named("chaos-vm"),
    );
    let results = exec.get_result(&mut env, job).expect("vm map under chaos");
    exec.shutdown(&mut env);

    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.as_u64(), Some(i as u64 + 100), "task {i} result");
    }
    let ledger = env.world().fault_ledger();
    let vm_faults =
        ledger.injected(FaultKind::VmBootFailure) + ledger.injected(FaultKind::VmLoss);
    assert!(
        vm_faults > 0,
        "the test should exercise VM recovery: {}",
        ledger.report()
    );
    assert!(
        ledger.vm_replacements > 0,
        "failed VMs must be replaced: {}",
        ledger.report()
    );
}

/// Worker loss on one fleet pool reused by three back-to-back maps of
/// short tasks: VMs die during SSH setup, with pops in flight and with a
/// result write in flight (the result lands, yet the task runs again),
/// replacements join mid-job, and requeues wake idle worker processes.
/// A worker process must never run two tasks at once (a debug
/// assertion), and every seed must reproduce the fault-free results.
#[test]
fn reused_vm_pool_survives_worker_loss_across_jobs() {
    let run = |faults: FaultConfig, seed: u64, secs: f64| {
        let cloud = CloudConfig {
            faults,
            ..CloudConfig::default()
        };
        let mut env = CloudEnv::new(cloud, seed);
        let mut cfg = ExecutorConfig::default();
        cfg.retry.max_attempts = 8;
        cfg.standalone.max_provision_attempts = 20;
        cfg.standalone.exec_mode = ExecMode::Fleet {
            instance_type: "c5.large".into(),
            count: 4,
        };
        let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
        let results: Vec<Vec<Payload>> =
            (0..3).map(|_| square_map_for(&mut env, &mut exec, 40, secs)).collect();
        exec.shutdown(&mut env);
        (results, env.world().fault_ledger().vm_replacements)
    };
    let (clean, _) = run(FaultConfig::disabled(), 1, 0.3);
    let faults = FaultConfig {
        vm_loss_prob: 0.6,
        vm_loss_after: (0.2, 6.0),
        vm_boot_failure_prob: 0.1,
        ..FaultConfig::disabled()
    };
    let mut replacements = 0;
    for secs in [0.15, 0.3] {
        for seed in 0..40 {
            let (results, replaced) = run(faults.clone(), seed, secs);
            assert_eq!(results, clean, "{secs} s tasks, seed {seed}: results diverged");
            replacements += replaced;
        }
    }
    assert!(replacements > 0, "the fault profile should replace worker VMs");
}

/// Pool workers run a multi-GET under heavy storage faults. When one GET
/// of the action runs out of its budget, the attempt is torn down and
/// its worker freed while the host stays up, so its siblings' backoff
/// timers still fire. Those retries belong to a dead attempt: they must
/// be dropped, not land on the queued task or on its next attempt. Every
/// seed must return exactly the fault-free results or exhaust a task's
/// budget, and both outcomes must occur.
#[test]
fn stale_retries_of_a_torn_down_multi_op_attempt_are_dropped() {
    let run = |seed: u64| {
        let cloud = CloudConfig {
            faults: FaultConfig {
                storage_error_prob: 0.4,
                ..FaultConfig::disabled()
            },
            ..CloudConfig::default()
        };
        let mut env = CloudEnv::new(cloud, seed);
        for k in 0..8 {
            env.seed_object("data", &format!("in/{k}"), ObjectBody::opaque(1 << 20));
        }
        let mut cfg = ExecutorConfig::default();
        cfg.retry.max_attempts = 3;
        cfg.standalone.exec_mode = ExecMode::Fleet {
            instance_type: "c5.large".into(),
            count: 2,
        };
        let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
        let factory: serverful_repro::serverful::job::TaskFactory = Arc::new(|input: &Payload| {
            let i = input.as_u64().expect("u64 input");
            ScriptTask::new()
                .get_many("data", (0..8).map(|k| format!("in/{k}")).collect())
                .compute(0.5)
                .finish_value(Payload::U64(i * i))
                .boxed()
        });
        let job = exec.map_with(
            &mut env,
            factory,
            (0..12).map(Payload::U64).collect(),
            MapOptions::named("stale-retries"),
        );
        exec.get_result(&mut env, job)
    };
    let clean: Vec<Payload> = (0..12u64).map(|i| Payload::U64(i * i)).collect();
    let (mut completed, mut exhausted) = (0, 0);
    for seed in 1..=12 {
        match run(seed) {
            Ok(results) => {
                assert_eq!(results, clean, "seed {seed}: results diverged");
                completed += 1;
            }
            Err(ExecError::AttemptsExhausted { .. }) => exhausted += 1,
            Err(other) => panic!("seed {seed}: {other}"),
        }
    }
    assert!(
        completed > 0 && exhausted > 0,
        "both outcomes should occur: {completed} completed, {exhausted} exhausted"
    );
}

#[test]
fn straggler_redispatch_completes_the_job() {
    // A straggler timeout far above normal task latency plus sandbox
    // crashes: speculative re-dispatch must never corrupt results.
    let cloud = CloudConfig {
        faults: FaultConfig {
            sandbox_crash_prob: 0.10,
            sandbox_crash_after: (0.5, 30.0),
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, 23);
    let cfg = ExecutorConfig {
        retry: RetryPolicy {
            straggler_timeout_secs: Some(45.0),
            ..RetryPolicy::default()
        },
        ..ExecutorConfig::default()
    };
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    let results = square_map(&mut env, &mut exec, 16);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.as_u64(), Some((i * i) as u64), "task {i} result");
    }
}

#[test]
fn chaos_runs_are_deterministic() {
    // Golden determinism: two runs of the same seeded fault schedule
    // produce identical billing ledgers, fault ledgers and wall-clocks.
    let run = || {
        let mut env = CloudEnv::new(chaos_cloud(), 17);
        let mut cfg = ExecutorConfig::default();
        cfg.retry.max_attempts = 6;
        let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
        let results = square_map(&mut env, &mut exec, 20);
        (
            results,
            env.now(),
            env.world().ledger().entries().to_vec(),
            env.world().fault_ledger().clone(),
        )
    };
    let (r1, t1, bill1, faults1) = run();
    let (r2, t2, bill2, faults2) = run();
    assert_eq!(r1, r2, "results diverged across identical seeded runs");
    assert_eq!(t1, t2, "wall-clock diverged");
    assert_eq!(bill1, bill2, "billing ledger diverged");
    assert_eq!(faults1, faults2, "fault ledger diverged");
}

#[test]
fn zero_probabilities_match_the_default_config() {
    // All-zero fault probabilities draw nothing from the injector's RNG:
    // a `FaultConfig::at_rate(0.0)` run must be byte-identical (time,
    // billing, fault ledger) to one with the default (disabled) config.
    let run = |cloud: CloudConfig| {
        let mut env = CloudEnv::new(cloud, 29);
        let mut exec =
            FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
        let results = square_map(&mut env, &mut exec, 12);
        (
            results,
            env.now(),
            env.world().ledger().entries().to_vec(),
            env.world().fault_ledger().clone(),
        )
    };
    let zeroed = CloudConfig {
        faults: FaultConfig::at_rate(0.0),
        ..CloudConfig::default()
    };
    let (r1, t1, bill1, faults1) = run(CloudConfig::default());
    let (r2, t2, bill2, faults2) = run(zeroed);
    assert_eq!(r1, r2);
    assert_eq!(t1, t2, "a zero-rate fault layer must not perturb timing");
    assert_eq!(bill1, bill2);
    assert!(faults1.is_empty() && faults2.is_empty());
}

/// Pumps the world until `op` completes.
fn outcome_of(world: &mut World, op: OpId) -> OpOutcome {
    loop {
        match world
            .step()
            .expect("the op completes before the world drains")
        {
            (_, Notify::Op { op: done, outcome }) if done == op => return outcome,
            _ => {}
        }
    }
}

/// The world owns a storage request while it is in flight, so a faulted
/// one must come back whole: the issuing host and the exact request
/// (bucket, key or prefix, body). Re-issuing what comes back until it
/// succeeds must act as if the request had never faulted.
#[test]
fn faulted_storage_requests_come_back_whole() {
    let cloud = CloudConfig {
        faults: FaultConfig {
            storage_error_prob: 0.5,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut world = World::new(cloud, 10);
    let client = world.client_host();
    let body = ObjectBody::real(vec![7u8; 4096]);
    let (bucket, key) = ("chaos", "shards/00042");
    let requests = [
        StorageRequest::Put {
            bucket: bucket.into(),
            key: key.into(),
            body: body.clone(),
        },
        StorageRequest::Get {
            bucket: bucket.into(),
            key: key.into(),
        },
        StorageRequest::List {
            bucket: bucket.into(),
            prefix: "shards/".into(),
        },
        StorageRequest::Delete {
            bucket: bucket.into(),
            key: key.into(),
        },
    ];
    let mut faulted = Vec::new();
    let mut outcomes = Vec::new();
    for issued in requests {
        let mut request = issued.clone();
        let mut faults = 0;
        let outcome = loop {
            let op = world.storage(client, request);
            match outcome_of(&mut world, op) {
                OpOutcome::Faulted {
                    from,
                    request: back,
                    ..
                } => {
                    assert_eq!(from, client, "a faulted {issued:?} names another host");
                    assert_eq!(back, issued, "a faulted request came back changed");
                    faults += 1;
                    request = back;
                }
                done => break done,
            }
        };
        faulted.push(faults);
        outcomes.push(outcome);
        if matches!(issued, StorageRequest::Put { .. }) {
            assert_eq!(
                world.store().get(bucket, key),
                Some(&body),
                "the PUT landed under another key"
            );
        }
    }
    assert!(
        faulted.iter().all(|&n| n > 0),
        "seed 10 should fault every request at least once: {faulted:?}"
    );
    let [put, get, list, delete] = <[OpOutcome; 4]>::try_from(outcomes).expect("four outcomes");
    assert!(matches!(put, OpOutcome::PutOk), "{put:?}");
    let OpOutcome::GetOk { body: got } = get else {
        panic!("the GET after the PUT yielded {get:?}");
    };
    assert_eq!(got, body, "the GET returned another body");
    let OpOutcome::ListOk { keys } = list else {
        panic!("the LIST yielded {list:?}");
    };
    assert_eq!(keys, [key]);
    assert!(matches!(delete, OpOutcome::DeleteOk), "{delete:?}");
    assert!(
        world.store().get(bucket, key).is_none(),
        "the DELETE left the object"
    );
}

/// Figure 6's ordering under failures: the hybrid architecture still
/// beats pure serverless on cost-performance when the region misbehaves.
#[test]
// Paper-scale simulation: minutes under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn hybrid_still_beats_serverless_under_chaos() {
    let cloud = CloudConfig {
        faults: FaultConfig::at_rate(0.02),
        ..CloudConfig::default()
    };
    let w = pipeline::job_workload(&jobs::xenograft());
    let run = |arch| {
        let plan = DeploymentPlan::for_architecture(arch, &w.stages);
        run_workload(&w, &plan, 1, cloud.clone(), false).map(|(report, _)| report)
    };
    let cf = run(Architecture::Serverless).expect("serverless under chaos");
    let hy = run(Architecture::Hybrid).expect("hybrid under chaos");
    assert!(
        hy.cost_performance() > cf.cost_performance(),
        "hybrid {} vs serverless {} under faults",
        hy.cost_performance(),
        cf.cost_performance()
    );
}
