//! Executor determinism: the DAG driver ([`serverful::run_dag`]) is
//! the workspace's only engine, so its contract is stated directly —
//! repeat runs of the same (workload, plan, mode, seed) cell must be
//! *byte-identical*: same report tables, same span traces (down to
//! span-id allocation order), same billing bits. This is what lets
//! goldens, chaos replays and CI double-runs mean anything.
//!
//! Debug builds run the smoke-scaled graphs (same shape, ~2% volume);
//! the full paper-scale sweep is release-gated like the other
//! paper-scale tests.

use serverful_repro::cloudsim::CloudConfig;
use serverful_repro::metaspace::{
    self, jobs::JobSpec, pipeline, plan::PlanKind, workloads, DeploymentPlan, FunctionsPlan,
};
use serverful_repro::serverful::ExecutionMode;

/// Re-keys a hybrid/serverless base plan to the requested execution
/// mode.
fn with_mode(base: DeploymentPlan, mode: ExecutionMode) -> DeploymentPlan {
    let PlanKind::Functions(f) = &base.kind else {
        unreachable!("functions plan expected")
    };
    DeploymentPlan::functions(
        format!("{}-{mode}", base.name),
        FunctionsPlan {
            execution: mode,
            ..f.clone()
        },
    )
}

/// Runs one (spec, mode) hybrid cell twice with tracing on and asserts
/// the two runs match byte for byte.
fn assert_repeat_identical(spec: &JobSpec, mode: ExecutionMode, smoke: bool, seed: u64) {
    let w = pipeline::job_workload(spec);
    let w = if smoke { w.scaled(0.02) } else { w };
    let plan = with_mode(DeploymentPlan::hybrid(&w.stages), mode);
    let run = || {
        metaspace::run_workload(&w, &plan, seed, CloudConfig::default(), true)
            .unwrap_or_else(|e| panic!("{} {mode}: {e}", spec.name))
    };
    let (first_report, first_trace) = run();
    let (second_report, second_trace) = run();

    let ctx = format!("{} {mode}", spec.name);
    assert_eq!(
        format!("{first_report:?}"),
        format!("{second_report:?}"),
        "{ctx}: report tables diverged between repeat runs"
    );
    assert_eq!(
        first_report.cost_usd.to_bits(),
        second_report.cost_usd.to_bits(),
        "{ctx}: billing diverged between repeat runs"
    );
    let ft = first_trace.expect("trace requested");
    let st = second_trace.expect("trace requested");
    assert_eq!(
        ft.chrome_json, st.chrome_json,
        "{ctx}: span traces diverged between repeat runs"
    );
    assert_eq!(
        ft.summary, st.summary,
        "{ctx}: trace summaries diverged between repeat runs"
    );
}

#[test]
fn repeat_runs_match_smoke_brain_barrier() {
    assert_repeat_identical(&metaspace::jobs::brain(), ExecutionMode::Barrier, true, 42);
}

#[test]
fn repeat_runs_match_smoke_brain_pipelined() {
    assert_repeat_identical(&metaspace::jobs::brain(), ExecutionMode::Pipelined, true, 42);
}

#[test]
fn repeat_runs_match_smoke_xenograft_barrier() {
    assert_repeat_identical(&metaspace::jobs::xenograft(), ExecutionMode::Barrier, true, 42);
}

#[test]
fn repeat_runs_match_smoke_xenograft_pipelined() {
    assert_repeat_identical(&metaspace::jobs::xenograft(), ExecutionMode::Pipelined, true, 42);
}

#[test]
fn repeat_runs_match_smoke_x089_barrier() {
    assert_repeat_identical(&metaspace::jobs::x089(), ExecutionMode::Barrier, true, 42);
}

#[test]
fn repeat_runs_match_smoke_x089_pipelined() {
    assert_repeat_identical(&metaspace::jobs::x089(), ExecutionMode::Pipelined, true, 42);
}

/// Determinism must also hold on a pure-serverless plan (no warm VM
/// pool, scatter/gather lowering for stateful stages) and across seeds
/// — and a different seed must actually perturb the trace, or the
/// repeat-run assertions above are vacuous.
#[test]
fn repeat_runs_match_smoke_serverless_plans_and_seeds() {
    for mode in [ExecutionMode::Barrier, ExecutionMode::Pipelined] {
        let w = pipeline::job_workload(&metaspace::jobs::brain()).scaled(0.02);
        let plan = with_mode(DeploymentPlan::serverless(&w.stages), mode);
        let run = |seed: u64| {
            metaspace::run_workload(&w, &plan, seed, CloudConfig::default(), true)
                .expect("serverless smoke run completes")
        };
        let mut traces = Vec::new();
        for seed in [1, 42] {
            let (r1, t1) = run(seed);
            let (r2, t2) = run(seed);
            assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "seed {seed} {mode}");
            let t1 = t1.expect("traced").chrome_json;
            assert_eq!(t1, t2.expect("traced").chrome_json, "seed {seed} {mode}");
            traces.push(t1);
        }
        assert_ne!(
            traces[0], traces[1],
            "{mode}: different seeds should perturb the measured run"
        );
    }
}

/// Every bundled workload — METASPACE jobs and the DSL families alike —
/// replays byte-identically through [`metaspace::run_workload`] on its
/// smoke scale.
#[test]
fn repeat_runs_match_every_bundled_workload() {
    for name in workloads::all_names() {
        let w = workloads::named(&name).expect("bundled name resolves");
        let w = w.scaled(0.02);
        let plan = with_mode(DeploymentPlan::hybrid(&w.stages), ExecutionMode::Pipelined);
        let run = || {
            metaspace::run_workload(&w, &plan, 42, CloudConfig::default(), true)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let (r1, t1) = run();
        let (r2, t2) = run();
        assert_eq!(format!("{r1:?}"), format!("{r2:?}"), "{name}: reports diverged");
        assert_eq!(
            t1.expect("traced").chrome_json,
            t2.expect("traced").chrome_json,
            "{name}: traces diverged"
        );
    }
}

/// Paper-scale repeat determinism across the full job × mode matrix —
/// the release gate the smoke cells preview.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn repeat_runs_match_paper_scale_all_specs_and_modes() {
    for spec in metaspace::jobs::all() {
        for mode in [ExecutionMode::Barrier, ExecutionMode::Pipelined] {
            assert_repeat_identical(&spec, mode, false, 42);
        }
    }
}
