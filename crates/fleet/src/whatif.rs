//! What-if planning *under load*: evaluates a deployment plan against a
//! traffic scenario instead of a single idle-region job.
//!
//! The planner's [`planner::Evaluator`] measures one job alone in a
//! fresh region; a plan that looks cheap there can throttle or queue
//! once dozens of jobs share the regional quotas. [`plan_under_load`]
//! re-uses the fleet driver to run a whole scenario with every stage
//! placed by an explicit [`metaspace::plan::DeploymentPlan`], and
//! reports the fleet outcome (bill, job latencies, throttles) of that
//! one plan.

use metaspace::plan::{DeploymentPlan, PlanKind};
use serverful::ExecError;

use crate::driver::{run_cell, Placement, PolicyOutcome};
use crate::scenario::Scenario;

/// Runs the scenario's full traffic with every job's stages placed by
/// `plan` (`Functions` stages on FaaS behind the admission controller,
/// `Serverful` stages leased from the shared pool).
///
/// # Errors
///
/// Rejects cluster plans (the fleet driver places stages on FaaS or
/// the pool) and propagates cell failures.
pub fn plan_under_load(
    sc: &Scenario,
    plan: &DeploymentPlan,
    seed: u64,
) -> Result<PolicyOutcome, ExecError> {
    let PlanKind::Functions(f) = &plan.kind else {
        return Err(ExecError::Unsupported(format!(
            "plan `{}`: fleet traffic places stages on FaaS or the shared pool, not a cluster",
            plan.name
        )));
    };
    let stages = sc.tenants[0].stages();
    if f.backends.len() != stages.len() {
        return Err(ExecError::Unsupported(format!(
            "plan `{}` assigns {} stages but tenant jobs have {}",
            plan.name,
            f.backends.len(),
            stages.len()
        )));
    }
    run_cell(sc, Placement::Plan(&f.backends, f.execution), plan.name.clone(), seed)
}
