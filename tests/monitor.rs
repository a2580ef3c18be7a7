//! Property tests of the per-job completion monitor.
//!
//! The monitor is a chain of world timers stamped with its generation:
//! each tick issues one LIST, and only the LIST's reply (or a monitor
//! restart under a new generation) arms the next tick. Its cardinal
//! invariant is that the LIST cycle never forks: at any instant at most
//! one LIST is in flight per job, across monitor restarts (straggler
//! sweeps riding the same generation, master kills, checkpointed
//! re-adoption replaying the monitor on a replacement master).
//! `CloudEnv::monitor_list_overlap` tracks the high-water mark of
//! concurrent same-generation LISTs; every property here drives a full
//! job and asserts the mark stayed at 1.
//!
//! No crates.io access means no `proptest`; cases are drawn from
//! [`SimRng`] with the failing seed printed on assertion failure, like
//! the retry-policy properties.

use std::sync::Arc;

use serverful_repro::serverful::job::TaskFactory;
use serverful_repro::serverful::{
    Backend, CloudEnv, ExecMode, ExecutorConfig, FunctionExecutor, Payload, RecoveryMode,
    ScriptTask,
};
use serverful_repro::simkernel::SimRng;

const TASKS: usize = 10;

fn double_factory() -> TaskFactory {
    Arc::new(|input: &Payload| {
        let x = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(1.0)
            .finish_value(Payload::U64(x * 2))
            .boxed()
    })
}

fn expected() -> Vec<Payload> {
    (0..TASKS as u64).map(|x| Payload::U64(x * 2)).collect()
}

fn vm_config() -> ExecutorConfig {
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".to_owned(),
        count: 2,
    };
    cfg.standalone.recovery = RecoveryMode::Checkpointed;
    cfg.standalone.poll_interval = 0.5;
    cfg
}

/// Runs one VM-backend job, arming master kills at the given event
/// indices; returns (results, LIST high-water mark, events routed).
/// Every armed kill must actually fire — a kill index beyond the run's
/// event span would make the recovery property vacuous.
fn run_vm_job(seed: u64, kills: &[u64]) -> (Vec<Payload>, u32, u64) {
    let mut env = CloudEnv::new_default(seed);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), vm_config());
    for &at in kills {
        env.arm_master_kill(0, at);
    }
    let inputs: Vec<Payload> = (0..TASKS as u64).map(Payload::U64).collect();
    let job = exec.map(&mut env, double_factory(), inputs);
    let results = exec
        .get_result(&mut env, job)
        .expect("checkpointed job survives the master kill");
    assert_eq!(
        env.pending_master_kills(),
        0,
        "an armed master kill never fired"
    );
    assert_eq!(
        env.recovery_stats().masters_replaced,
        kills.len() as u64,
        "each fired kill boots exactly one replacement master"
    );
    (results, env.monitor_list_overlap(), env.events_routed())
}

/// Fault-free runs on both backends keep exactly one LIST in flight.
#[test]
fn fault_free_monitor_never_overlaps_lists() {
    for seed in [3, 17, 99] {
        let mut env = CloudEnv::new_default(seed);
        let mut exec =
            FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
        let inputs: Vec<Payload> = (0..TASKS as u64).map(Payload::U64).collect();
        let job = exec.map(&mut env, double_factory(), inputs);
        assert_eq!(exec.get_result(&mut env, job).unwrap(), expected());
        assert!(
            env.monitor_list_overlap() <= 1,
            "seed {seed}: FaaS monitor forked the LIST cycle \
             (overlap {})",
            env.monitor_list_overlap()
        );

        let (results, overlap, _) = run_vm_job(seed, &[]);
        assert_eq!(results, expected());
        assert!(overlap <= 1, "seed {seed}: VM monitor overlap {overlap}");
    }
}

/// A straggler-speculating FaaS monitor rides the same generation as
/// its sweeps and still never forks the LIST cycle.
#[test]
fn straggler_speculation_shares_the_list_cycle() {
    for seed in [5, 23] {
        let mut env = CloudEnv::new_default(seed);
        let mut cfg = ExecutorConfig::default();
        // Aggressive enough that speculation actually fires on the
        // slowest cold starts.
        cfg.retry.straggler_timeout_secs = Some(4.0);
        let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
        let inputs: Vec<Payload> = (0..TASKS as u64).map(Payload::U64).collect();
        let job = exec.map(&mut env, double_factory(), inputs);
        assert_eq!(exec.get_result(&mut env, job).unwrap(), expected());
        let overlap = env.monitor_list_overlap();
        assert!(
            overlap <= 1,
            "seed {seed}: speculating monitor overlap {overlap}"
        );
    }
}

/// The property the checkpoint-recovery machinery must uphold: killing
/// the master mid-run replays the monitor on the replacement, and the
/// replayed monitor *continues* the LIST cycle rather than forking a
/// second one. Kill points are drawn from the middle half of the
/// fault-free run's event span, so the monitor is genuinely mid-cycle.
#[test]
fn replayed_monitor_never_forks_the_list_cycle() {
    for case in 0..6u64 {
        let seed = 0x11577 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SimRng::seed_from(seed);
        let base_seed = rng.uniform_u64(1, 1 << 20);
        let (baseline, overlap, span) = run_vm_job(base_seed, &[]);
        assert_eq!(baseline, expected());
        assert!(overlap <= 1, "seed {seed:#x}: baseline overlap {overlap}");

        let kill = rng.uniform_u64(span / 4, 3 * span / 4);
        let (results, overlap, _) = run_vm_job(base_seed, &[kill]);
        assert_eq!(
            results,
            expected(),
            "seed {seed:#x}: kill at event {kill} corrupted results"
        );
        assert!(
            overlap <= 1,
            "seed {seed:#x}: monitor replayed after the kill at event \
             {kill} forked the LIST cycle (overlap {overlap})"
        );
    }
}
