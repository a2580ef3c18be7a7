//! Golden-table and golden-trace regression tests.
//!
//! Each golden file under `tests/goldens/` snapshots the exact text the
//! `repro` binary prints for one table or figure at seed 42. The
//! simulation is deterministic, so a golden only moves when behaviour
//! does: an unexplained diff is a regression, not noise.
//! `control_paths.txt` pins the fault-handling paths the same way: the
//! exact end state of small runs that retry, speculate, replace VMs
//! and recover from a master kill. `drivers.txt` pins what the DAG and
//! fleet drivers schedule: fleet cells (barrier and pipelined, what-if
//! plans) and pipelined DAG runs, traced and master-killed.
//! `workloads.txt` pins the full-scale runs of the exchange-heavy
//! workload families, whose storage flows load the fair-share data
//! plane most. `drivers_full.txt` pins the same two drivers at full
//! scale: `repro dag` on the three Table 2 jobs and `repro fleet mixed`.
//!
//! After an *intentional* behaviour change, refresh the snapshots and
//! review the diff like any other code change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --release --test goldens
//! ```
//!
//! The slowest paper-scale goldens (Table 4, Figure 6, the workload
//! families, the full-scale drivers, the Xenograft trace) are ignored
//! under debug builds; run them with `--release`.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use serverful_repro::bench::render::{
    render_dag, render_fig5, render_fig6, render_table1, render_table2, render_table3,
    render_table4, render_workload,
};
use serverful_repro::bench::{dag_comparison, workload_comparison};
use serverful_repro::cloudsim::{CloudConfig, FaultConfig};
use serverful_repro::fleet::{
    self, report, run_scenario, FleetReport, PolicyOutcome, Scenario, TenantSpec,
};
use serverful_repro::metaspace::{
    self, jobs, pipeline, plan::PlanKind, workloads, Architecture, DeploymentPlan, FunctionsPlan,
    TraceOutput,
};
use serverful_repro::serverful::executor::MapOptions;
use serverful_repro::serverful::{
    Backend, CloudEnv, ExecMode, ExecutionMode, ExecutorConfig, FunctionExecutor, Payload,
    RecoveryMode, ScriptTask,
};

/// The one seed all goldens are pinned to.
const GOLDEN_SEED: u64 = 42;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Compares `actual` against the stored golden, or rewrites the golden
/// when `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(create it with UPDATE_GOLDENS=1 cargo test --release --test goldens)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let mismatch = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "golden `{name}` drifted (first difference at line {}):\n\
         --- expected ({})\n{}\n--- actual\n{}\n\
         If this change is intentional, refresh with UPDATE_GOLDENS=1 \
         cargo test --release --test goldens and commit the diff.",
        mismatch + 1,
        path.display(),
        expected.lines().nth(mismatch).unwrap_or("<eof>"),
        actual.lines().nth(mismatch).unwrap_or("<eof>"),
    );
}

#[test]
fn golden_table1() {
    check_golden("table1", &render_table1(GOLDEN_SEED));
}

#[test]
fn golden_table2() {
    check_golden("table2", &render_table2());
}

#[test]
fn golden_table3() {
    check_golden("table3", &render_table3(GOLDEN_SEED));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_table4() {
    check_golden("table4", &render_table4(GOLDEN_SEED));
}

#[test]
fn golden_fig5() {
    check_golden("fig5", &render_fig5(GOLDEN_SEED));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_fig6() {
    check_golden("fig6", &render_fig6(GOLDEN_SEED));
}

/// The full-scale comparisons of the exchange-heavy workload families,
/// each as `repro workload <name> --seed 42` prints it: all-to-all
/// shuffles and wide scans through object storage, hundreds of
/// concurrent flows under a few key prefixes.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_workloads() {
    let text: String = ["terasort-small", "terasort-medium", "terasort-large", "mlpipe", "montage"]
        .into_iter()
        .map(|name| {
            let w = workloads::named(name).expect("bundled workload");
            render_workload(&workload_comparison(&w, GOLDEN_SEED, false).expect("workload runs"))
        })
        .collect();
    check_golden("workloads", &text);
}

// --- golden traces -------------------------------------------------------

fn traced(job: &str, arch: Architecture, seed: u64) -> TraceOutput {
    let spec = jobs::all()
        .into_iter()
        .find(|j| j.name == job)
        .expect("job in Table 2");
    let w = pipeline::job_workload(&spec);
    let plan = DeploymentPlan::for_architecture(arch, &w.stages);
    let (_, trace) =
        metaspace::run_workload(&w, &plan, seed, CloudConfig::default(), true).expect("traced run");
    trace.expect("traced run returns a trace")
}

/// The tracer is deterministic: two runs of the same seeded job emit
/// byte-identical Chrome JSON, and a different seed emits a different
/// trace. Brain is the smallest Table 2 job, so this stays in the debug
/// suite.
#[test]
fn trace_same_seed_is_byte_identical() {
    let a = traced("Brain", Architecture::Serverless, 7);
    let b = traced("Brain", Architecture::Serverless, 7);
    assert_eq!(a.chrome_json, b.chrome_json, "same seed must replay identically");
    assert_eq!(a.summary, b.summary);
    let c = traced("Brain", Architecture::Serverless, 8);
    assert_ne!(a.chrome_json, c.chrome_json, "different seeds must differ");
}

/// The trace summary (span counts, per-stage latency quantiles, wasted
/// work) is goldened for the Brain job: cheap to run, and it pins the
/// whole tracer→collector→summary pipeline.
#[test]
fn golden_trace_brain_summary() {
    let trace = traced("Brain", Architecture::Serverless, GOLDEN_SEED);
    check_golden("trace_brain_summary", &trace.summary);
}

// --- golden control paths ------------------------------------------------

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// How a single-executor control path ended: final virtual time, the
/// routed-event clock, the exact billed total, the fault and recovery
/// ledgers, the monitor's LIST high-water mark and a digest of results.
fn env_line(name: &str, env: &CloudEnv, results: &[Payload]) -> String {
    format!(
        "{name}: t={}us events={} billed={:#018x} lists={} results={:#018x}\n  \
         faults={:?}\n  recovery={:?}\n",
        env.now().as_micros(),
        env.events_routed(),
        env.world().ledger().total().to_bits(),
        env.monitor_list_overlap(),
        fnv(results.iter().flat_map(Payload::encode)),
        env.world().fault_ledger(),
        env.recovery_stats(),
    )
}

/// A map of `n` tasks computing `secs` each and returning `i * i`.
fn square_map(env: &mut CloudEnv, exec: &mut FunctionExecutor, n: u64, secs: f64) -> Vec<Payload> {
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
        MapOptions::named("control-path"),
    );
    exec.get_result(env, job).expect("control-path map")
}

/// FaaS under the chaos profile of `tests/chaos.rs`: task retries after
/// crashes and invoke errors, storage retries after 5xx and SlowDown.
fn faas_retry_path() -> String {
    let cloud = CloudConfig {
        faults: FaultConfig {
            sandbox_invoke_error_prob: 0.02,
            sandbox_crash_prob: 0.05,
            vm_boot_failure_prob: 0.02,
            storage_error_prob: 0.07,
            storage_slowdown_prob: 0.03,
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, 5);
    let mut cfg = ExecutorConfig::default();
    cfg.retry.max_attempts = 6;
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    // Tasks long enough for mid-run sandbox crashes to land.
    let results = square_map(&mut env, &mut exec, 32, 12.0);
    env_line("faas-retries", &env, &results)
}

/// FaaS straggler speculation: a timeout tight enough that slow cold
/// starts are abandoned and re-dispatched, plus sandbox crashes.
fn faas_straggler_path() -> String {
    let cloud = CloudConfig {
        faults: FaultConfig {
            sandbox_crash_prob: 0.10,
            sandbox_crash_after: (0.5, 30.0),
            ..FaultConfig::disabled()
        },
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, 23);
    let mut cfg = ExecutorConfig::default();
    cfg.retry.straggler_timeout_secs = Some(4.0);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), cfg);
    let results = square_map(&mut env, &mut exec, 16, 2.0);
    env_line("faas-stragglers", &env, &results)
}

/// 18 tasks of 6 s on three c5.large workers, without instance reuse,
/// under `faults` and the pool's `recovery` mode.
fn vm_fleet_run(name: &str, seed: u64, faults: FaultConfig, recovery: RecoveryMode) -> String {
    let cloud = CloudConfig {
        faults,
        ..CloudConfig::default()
    };
    let mut env = CloudEnv::new(cloud, seed);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".into(),
        count: 3,
    };
    cfg.standalone.reuse_instances = false;
    cfg.standalone.recovery = recovery;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let results = square_map(&mut env, &mut exec, 18, 6.0);
    exec.shutdown(&mut env);
    env_line(name, &env, &results)
}

/// A three-worker VM fleet taking boot failures and mid-job worker loss.
fn vm_fleet_path() -> String {
    let faults = FaultConfig {
        vm_boot_failure_prob: 0.25,
        vm_loss_prob: 0.6,
        vm_loss_after: (5.0, 40.0),
        storage_error_prob: 0.05,
        ..FaultConfig::disabled()
    };
    vm_fleet_run("vm-fleet-losses", 1, faults, RecoveryMode::Protected)
}

/// The same fleet under heavier worker loss and storage faults, with
/// its task queue in `recovery`'s medium, at a seed where workers die
/// holding claims that never started. Under `Decentralized` (seed 208)
/// the queue is bundles in object storage: one worker dies with a claim
/// GET in flight and another during a claim's storage backoff, and both
/// claims go back on the ready list. Under `Checkpointed` (seed 1411)
/// it is the master's KV list, whose host is spared: a worker dies with
/// a pop in flight, and the popped bundle is pushed back.
fn vm_fleet_queue_path(recovery: RecoveryMode, seed: u64) -> String {
    let faults = FaultConfig {
        vm_boot_failure_prob: 0.25,
        vm_loss_prob: 0.9,
        vm_loss_after: (5.0, 40.0),
        storage_error_prob: 0.35,
        ..FaultConfig::disabled()
    };
    let name = format!("vm-fleet-queue-{}", recovery.name());
    vm_fleet_run(&name, seed, faults, recovery)
}

/// The smoke-scaled Brain hybrid on a four-VM fleet, run in `execution`
/// mode, its master killed at a fixed routed-event index of the
/// measured window.
fn brain_kill_path(recovery: RecoveryMode, execution: ExecutionMode) -> String {
    const KILL_AT: u64 = 300;
    let w = pipeline::job_workload(&jobs::brain()).scaled(0.02);
    let base = DeploymentPlan::hybrid(&w.stages);
    let PlanKind::Functions(f) = &base.kind else {
        unreachable!("hybrid is a functions plan")
    };
    let plan = DeploymentPlan::functions(
        format!("hybrid-{}", recovery.name()),
        FunctionsPlan {
            execution,
            recovery,
            vm_count: 4,
            ..f.clone()
        },
    );
    let (report, chaos) =
        metaspace::run_workload_chaos(&w, &plan, GOLDEN_SEED, CloudConfig::default(), &[KILL_AT])
            .expect("a recoverable master kill");
    format!(
        "brain-kill@{KILL_AT}-{}: wall={:#018x} events={} billed={:#018x} lists={} \
         science={:#018x}\n  faults={:?}\n  recovery={:?}\n",
        recovery.name(),
        report.wall_secs.to_bits(),
        chaos.events_routed,
        report.cost_usd.to_bits(),
        chaos.monitor_list_overlap,
        chaos.science_digest,
        chaos.faults,
        chaos.recovery,
    )
}

/// Pins the numbers of the fault-handling control paths — retries,
/// straggler speculation, VM replacement, master recovery, task-queue
/// hand-backs — that the table goldens (faults off) never exercise and
/// the chaos and recovery suites only compare against their own repeat.
#[test]
fn golden_control_paths() {
    let text = [
        faas_retry_path(),
        faas_straggler_path(),
        vm_fleet_path(),
        brain_kill_path(RecoveryMode::Decentralized, ExecutionMode::Barrier),
        brain_kill_path(RecoveryMode::Checkpointed, ExecutionMode::Barrier),
        vm_fleet_queue_path(RecoveryMode::Decentralized, 208),
        vm_fleet_queue_path(RecoveryMode::Checkpointed, 1411),
    ]
    .concat();
    check_golden("control_paths", &text);
}

// --- golden drivers ------------------------------------------------------

/// The exact numbers of one fleet cell, below the rendered table's
/// rounding: billing bits, a digest of every job's finish time, the
/// admission and pool counters, and the science digest.
fn policy_line(p: &PolicyOutcome) -> String {
    let finished = fnv(p.jobs.iter().flat_map(|j| j.finished.as_micros().to_le_bytes()));
    format!(
        "{}: jobs={} finished={finished:#018x} billed={:#018x} throttled={} degraded={} \
         leases={} hits={} science={:#018x}\n",
        p.label,
        p.jobs.len(),
        p.cost_usd.to_bits(),
        p.throttled,
        p.degraded,
        p.pool_leases,
        p.pool_hits,
        p.science_digest,
    )
}

/// A fleet report as `repro fleet` renders it, plus one exact line per
/// cell.
fn fleet_text(report: &FleetReport) -> String {
    let mut text = report::render(report);
    report.policies.iter().for_each(|p| text.push_str(&policy_line(p)));
    text
}

/// The smoke scenario with the `terasort-small` tenant of
/// `tests/fleet.rs`, run dependency-driven.
fn pipelined_fleet() -> Scenario {
    let mut sc = Scenario::smoke();
    sc.name = "smoke+terasort".to_owned();
    sc.pipelined = true;
    sc.tenants.push(TenantSpec {
        name: "sorters".to_owned(),
        job: "terasort-small".to_owned(),
        weight: 2.0,
        scale: 0.05,
    });
    sc
}

/// The smoke tenant's hybrid plan, run Pipelined under the smoke
/// scenario's traffic.
fn whatif_pipelined() -> String {
    let sc = Scenario::smoke();
    let stages = sc.tenants[0].stages();
    let plan = DeploymentPlan::functions(
        "hybrid-pipelined",
        FunctionsPlan {
            execution: ExecutionMode::Pipelined,
            ..FunctionsPlan::hybrid(&stages)
        },
    );
    let outcome =
        fleet::whatif::plan_under_load(&sc, &plan, GOLDEN_SEED).expect("what-if run completes");
    fleet_text(&FleetReport {
        scenario: sc,
        seed: GOLDEN_SEED,
        policies: vec![outcome],
    })
}

/// The smoke-scaled Brain hybrid, run Pipelined with tracing on: wall
/// and billing bits plus a digest of the whole Chrome trace.
fn brain_pipelined_trace() -> String {
    let w = pipeline::job_workload(&jobs::brain()).scaled(0.02);
    let plan = DeploymentPlan::functions(
        "hybrid-pipelined",
        FunctionsPlan {
            execution: ExecutionMode::Pipelined,
            ..FunctionsPlan::hybrid(&w.stages)
        },
    );
    let (report, trace) =
        metaspace::run_workload(&w, &plan, GOLDEN_SEED, CloudConfig::default(), true)
            .expect("traced pipelined run");
    let trace = trace.expect("traced run returns a trace");
    format!(
        "brain-pipelined-trace: wall={:#018x} billed={:#018x} chrome={:#018x}\n",
        report.wall_secs.to_bits(),
        report.cost_usd.to_bits(),
        fnv(trace.chrome_json.bytes()),
    )
}

/// Pins what the two drivers schedule. The table goldens run only
/// Barrier DAGs and no fleet cell, so this covers the rest: fleet cells
/// under barrier and pipelined scheduling, a what-if plan under load,
/// and pipelined DAG runs, traced and master-killed.
#[test]
fn golden_drivers() {
    let run = |sc: &Scenario| run_scenario(sc, GOLDEN_SEED, 1).expect("fleet traffic completes");
    let text = [
        "== fleet smoke ==\n".to_owned(),
        fleet_text(&run(&Scenario::smoke())),
        "== fleet smoke+terasort, pipelined ==\n".to_owned(),
        fleet_text(&run(&pipelined_fleet())),
        "== what-if: smoke hybrid plan, pipelined ==\n".to_owned(),
        whatif_pipelined(),
        "== dag: pipelined ==\n".to_owned(),
        brain_pipelined_trace(),
        brain_kill_path(RecoveryMode::Decentralized, ExecutionMode::Pipelined),
        brain_kill_path(RecoveryMode::Checkpointed, ExecutionMode::Pipelined),
    ]
    .concat();
    check_golden("drivers", &text);
}

/// The two drivers at full scale, as `repro dag <job> --seed 42` and
/// `repro fleet mixed --seed 42 --threads 1` print them: the pipelined
/// release of the Table 2 jobs' thousands of gated tasks, and a fleet
/// cell's 120 jobs under every policy.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn golden_drivers_full() {
    let mut text: String = ["brain", "xenograft", "x089"]
        .into_iter()
        .map(|job| {
            let spec = jobs::by_name(job).expect("Table 2 job");
            render_dag(&dag_comparison(&spec, GOLDEN_SEED, false).expect("dag runs"))
        })
        .collect();
    let report = run_scenario(&Scenario::mixed(), GOLDEN_SEED, 1).expect("fleet traffic completes");
    text.push_str(&report::render(&report));
    check_golden("drivers_full", &text);
}

/// The paper-scale acceptance check: the seeded Xenograft trace replays
/// byte-for-byte, on the serverless and the hybrid architecture.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn xenograft_trace_is_byte_identical() {
    for arch in [Architecture::Serverless, Architecture::Hybrid] {
        let a = traced("Xenograft", arch, 42);
        let b = traced("Xenograft", arch, 42);
        assert_eq!(a.chrome_json, b.chrome_json, "arch {arch:?}");
    }
}
