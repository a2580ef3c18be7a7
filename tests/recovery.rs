//! Master-kill chaos matrix: the release gate for `serverful::recovery`.
//!
//! Every cell kills the serverful pool's master VM at seeded random
//! points of the measured window and asserts the run still produces
//! *identical science outputs* to the fault-free baseline
//! ([`metaspace::ChaosReport::science_digest`]), with billing bounded
//! by the re-executed work. The matrix crosses the two recovery
//! stories ([`RecoveryMode::Checkpointed`],
//! [`RecoveryMode::Decentralized`]) with both execution modes and two
//! Table 2 workloads, on a dedicated-master fleet and on the paper's
//! consolidated single host.
//!
//! Debug builds run the smoke-scaled graphs (same shape, ~2% volume);
//! the full paper-scale matrix is release-gated like the other
//! paper-scale tests (`scripts/ci.sh --full` runs it per cell).
//!
//! The negative direction is covered too: the paper's unprotected
//! master ([`RecoveryMode::Protected`]) must *fail* the run when its
//! master dies — if that test ever passes a kill, the chaos matrix is
//! not actually exercising the recovery machinery.

use serverful_repro::cloudsim::CloudConfig;
use serverful_repro::metaspace::{
    self, jobs::JobSpec, pipeline, plan::PlanKind, ChaosReport, DeploymentPlan, FunctionsPlan,
    Stage, Workload,
};
use serverful_repro::serverful::{ExecError, ExecutionMode, RecoveryMode};
use serverful_repro::simkernel::SimRng;

const SEED: u64 = 42;

/// The hybrid plan for `stages` with the cell's execution mode,
/// recovery mode and fleet size.
fn cell_plan(
    stages: &[Stage],
    execution: ExecutionMode,
    recovery: RecoveryMode,
    vm_count: usize,
) -> DeploymentPlan {
    let base = DeploymentPlan::hybrid(stages);
    let PlanKind::Functions(f) = &base.kind else {
        unreachable!("hybrid is a functions plan")
    };
    DeploymentPlan::functions(
        format!("hybrid-{execution}-{}-vm{vm_count}", recovery.name()),
        FunctionsPlan {
            execution,
            recovery,
            vm_count,
            ..f.clone()
        },
    )
}

fn run_cell(
    w: &Workload,
    plan: &DeploymentPlan,
    kills: &[u64],
) -> Result<(metaspace::AnnotationReport, ChaosReport), ExecError> {
    metaspace::run_workload_chaos(w, plan, SEED, CloudConfig::default(), kills)
}

/// Brain's workload at the smoke scale (same shape, ~2% volume).
fn smoke_brain() -> Workload {
    pipeline::job_workload(&metaspace::jobs::brain()).scaled(0.02)
}

/// Runs one matrix cell: fault-free baseline, then a seeded master
/// kill inside the measured window, then the same kill again. Asserts
/// the killed run finishes with the baseline's science digest, that
/// billing stays within a generous two-sided ratio of the baseline
/// (re-executed work costs extra; a dead master also *stops* billing,
/// so a killed run can come out cheaper), and that the repeat replays
/// byte-identically.
fn assert_cell_survives(
    spec: &JobSpec,
    scale: f64,
    execution: ExecutionMode,
    recovery: RecoveryMode,
    vm_count: usize,
    case: u64,
) {
    let w = pipeline::job_workload(spec);
    let w = if scale < 1.0 { w.scaled(scale) } else { w };
    let plan = cell_plan(&w.stages, execution, recovery, vm_count);
    let ctx = format!("{} {}", spec.name, plan.name);

    let (base_report, base_chaos) =
        run_cell(&w, &plan, &[]).unwrap_or_else(|e| panic!("{ctx}: fault-free: {e}"));
    assert!(
        base_chaos.events_routed > 100,
        "{ctx}: suspiciously quiet baseline ({} events)",
        base_chaos.events_routed
    );
    if recovery == RecoveryMode::Decentralized {
        assert_eq!(
            base_chaos.recovery.master_data_ops, 0,
            "{ctx}: decentralized baseline routed data ops through the master"
        );
        assert!(
            base_chaos.recovery.counters_written > 0,
            "{ctx}: decentralized baseline wrote no completion counters"
        );
    }

    // Seeded kill point, away from the very edges of the window so it
    // lands while work is genuinely in flight.
    let mut rng = SimRng::seed_from(0xDEAD_BEEF ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let span = base_chaos.events_routed;
    let kill = rng.uniform_u64(span / 8, span / 2 + 1);
    let kills = [kill];

    let (killed_report, killed_chaos) = run_cell(&w, &plan, &kills)
        .unwrap_or_else(|e| panic!("{ctx}: killed at event {kill}/{span}: {e}"));
    assert_eq!(
        killed_chaos.science_digest, base_chaos.science_digest,
        "{ctx}: kill at event {kill}/{span} changed the science outputs"
    );
    let ratio = killed_report.cost_usd / base_report.cost_usd;
    assert!(
        (0.3..=3.0).contains(&ratio),
        "{ctx}: kill at {kill}/{span} moved cost by {ratio:.2}x \
         (${:.4} -> ${:.4})",
        base_report.cost_usd,
        killed_report.cost_usd
    );
    match recovery {
        RecoveryMode::Checkpointed => assert!(
            killed_chaos.recovery.masters_replaced >= 1,
            "{ctx}: kill at {kill}/{span} never triggered a master replacement"
        ),
        RecoveryMode::Decentralized => assert_eq!(
            killed_chaos.recovery.master_data_ops, 0,
            "{ctx}: decentralized recovery routed data ops through the master"
        ),
        RecoveryMode::Protected => unreachable!("matrix cells are recoverable modes"),
    }

    // Same cell, same kill schedule: byte-identical replay.
    let (rep_report, rep_chaos) =
        run_cell(&w, &plan, &kills).unwrap_or_else(|e| panic!("{ctx}: repeat killed run: {e}"));
    assert_eq!(
        rep_chaos.science_digest, killed_chaos.science_digest,
        "{ctx}: repeat diverged in outputs"
    );
    assert_eq!(
        rep_report.cost_usd.to_bits(),
        killed_report.cost_usd.to_bits(),
        "{ctx}: repeat diverged in billing"
    );
    assert_eq!(
        rep_chaos.recovery, killed_chaos.recovery,
        "{ctx}: repeat diverged in recovery activity"
    );
    assert_eq!(
        rep_chaos.events_routed, killed_chaos.events_routed,
        "{ctx}: repeat diverged in event count"
    );

    // Per-cell verdict for `scripts/ci.sh --full` (run with --nocapture).
    println!(
        "chaos cell OK: {ctx}: kill@{kill}/{span} digest={:#018x} cost {:.2}x \
         (replaced {} redispatched {})",
        killed_chaos.science_digest,
        ratio,
        killed_chaos.recovery.masters_replaced,
        killed_chaos.recovery.tasks_redispatched,
    );
}

const SMOKE_FLEET: usize = 4;

#[test]
fn smoke_matrix_brain_barrier() {
    for (i, rc) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
        .into_iter()
        .enumerate()
    {
        assert_cell_survives(
            &metaspace::jobs::brain(),
            0.02,
            ExecutionMode::Barrier,
            rc,
            SMOKE_FLEET,
            i as u64,
        );
    }
}

#[test]
fn smoke_matrix_brain_pipelined() {
    for (i, rc) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
        .into_iter()
        .enumerate()
    {
        assert_cell_survives(
            &metaspace::jobs::brain(),
            0.02,
            ExecutionMode::Pipelined,
            rc,
            SMOKE_FLEET,
            10 + i as u64,
        );
    }
}

#[test]
fn smoke_matrix_xenograft_barrier() {
    for (i, rc) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
        .into_iter()
        .enumerate()
    {
        assert_cell_survives(
            &metaspace::jobs::xenograft(),
            0.008,
            ExecutionMode::Barrier,
            rc,
            SMOKE_FLEET,
            20 + i as u64,
        );
    }
}

#[test]
fn smoke_matrix_xenograft_pipelined() {
    for (i, rc) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
        .into_iter()
        .enumerate()
    {
        assert_cell_survives(
            &metaspace::jobs::xenograft(),
            0.008,
            ExecutionMode::Pipelined,
            rc,
            SMOKE_FLEET,
            30 + i as u64,
        );
    }
}

/// The paper's consolidated single right-sized host: killing the
/// master kills the only worker too, so recovery has to rebuild the
/// whole pool and still converge on the same outputs.
#[test]
fn smoke_matrix_consolidated_host() {
    for (i, rc) in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized]
        .into_iter()
        .enumerate()
    {
        assert_cell_survives(
            &metaspace::jobs::brain(),
            0.02,
            ExecutionMode::Barrier,
            rc,
            1,
            40 + i as u64,
        );
    }
}

/// Kill the replacement master too: checkpointed recovery must survive
/// repeated losses within one run.
#[test]
fn smoke_double_kill_checkpointed() {
    let w = smoke_brain();
    let plan = cell_plan(
        &w.stages,
        ExecutionMode::Barrier,
        RecoveryMode::Checkpointed,
        SMOKE_FLEET,
    );
    let (_, base) = run_cell(&w, &plan, &[]).expect("fault-free baseline");
    let span = base.events_routed;
    let kills = [span / 4, span / 2];
    let (_, killed) = run_cell(&w, &plan, &kills)
        .unwrap_or_else(|e| panic!("double kill at {kills:?}/{span}: {e}"));
    assert_eq!(
        killed.science_digest, base.science_digest,
        "double master kill changed the science outputs"
    );
    assert!(
        killed.recovery.masters_replaced >= 1,
        "double kill never replaced a master"
    );
}

/// The checkpoint loop actually snapshots during a run (cadence is
/// [`serverful::StandaloneConfig::checkpoint_interval_secs`], well
/// under the smoke job's serverful phase).
#[test]
fn checkpoints_are_written_fault_free() {
    let w = smoke_brain();
    let plan = cell_plan(
        &w.stages,
        ExecutionMode::Barrier,
        RecoveryMode::Checkpointed,
        SMOKE_FLEET,
    );
    let (_, chaos) = run_cell(&w, &plan, &[]).expect("fault-free run");
    assert!(
        chaos.recovery.checkpoints_written >= 1,
        "checkpointed mode never wrote a snapshot ({:?})",
        chaos.recovery
    );
    assert!(
        chaos.recovery.checkpoint_bytes > 0,
        "snapshots were empty"
    );
}

/// Negative path: the paper's unprotected master. A master kill must
/// fail the run — queued work died with the KV store and nobody
/// rebuilds it, which the executor surfaces as a stall (or a task
/// failure once retry budgets drain). If this ever completes, the
/// chaos matrix above is vacuous.
#[test]
fn protected_master_kill_fails_the_run() {
    let w = smoke_brain();
    for vm_count in [1, SMOKE_FLEET] {
        let plan = cell_plan(
            &w.stages,
            ExecutionMode::Barrier,
            RecoveryMode::Protected,
            vm_count,
        );
        let (_, base) = run_cell(&w, &plan, &[]).expect("fault-free baseline");
        let kill = base.events_routed / 4;
        let err = run_cell(&w, &plan, &[kill]).err().unwrap_or_else(|| {
            panic!("protected vm{vm_count}: run survived a master kill at {kill}")
        });
        assert!(
            matches!(
                err,
                ExecError::Stalled(_)
                    | ExecError::TaskFailed(_)
                    | ExecError::AttemptsExhausted { .. }
            ),
            "protected vm{vm_count}: unexpected failure shape: {err}"
        );
    }
}

/// The full paper-scale matrix — every Table 2 workload crossed with
/// both execution and both recovery modes. `scripts/ci.sh` runs this in
/// release as a gate, one verdict per cell.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn full_matrix_paper_scale() {
    let mut case = 100;
    for spec in metaspace::jobs::all() {
        for execution in [ExecutionMode::Barrier, ExecutionMode::Pipelined] {
            for recovery in [RecoveryMode::Checkpointed, RecoveryMode::Decentralized] {
                assert_cell_survives(&spec, 1.0, execution, recovery, SMOKE_FLEET, case);
                case += 1;
            }
        }
    }
}
