//! Runs one candidate plan through a fresh simulated world.

use cloudsim::CloudConfig;
use metaspace::jobs::JobSpec;
use metaspace::pipeline::{self, Stage, StageEdge, Workload};
use metaspace::plan::DeploymentPlan;
use metaspace::runner::run_plan_graph;
use serverful::ExecError;

/// The measured objectives of one plan: what the search engine trades
/// off. All three come out of the telemetry ledgers of the plan's own
/// fresh [`cloudsim::World`].
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The plan evaluated.
    pub plan: DeploymentPlan,
    /// Dollars billed for the measured window.
    pub cost_usd: f64,
    /// End-to-end wall-clock seconds.
    pub makespan_secs: f64,
    /// Billed-but-wasted resources (retries, stragglers) from the fault
    /// ledger; zero in fault-free runs.
    pub waste: f64,
}

impl PlanOutcome {
    /// Pareto dominance under (cost, makespan) minimisation: at least
    /// as good on both objectives and strictly better on one.
    pub fn dominates(&self, other: &PlanOutcome) -> bool {
        self.cost_usd <= other.cost_usd
            && self.makespan_secs <= other.makespan_secs
            && (self.cost_usd < other.cost_usd || self.makespan_secs < other.makespan_secs)
    }

    /// The paper's cost-performance metric, `1 / (latency × cost)`.
    pub fn cost_performance(&self) -> f64 {
        1.0 / (self.makespan_secs * self.cost_usd)
    }
}

/// Evaluates candidate plans for one fixed workload.
///
/// Every call builds a *fresh* simulated region from the same
/// `CloudConfig` and seed, so evaluations are independent and the
/// outcome of a plan is a pure function of `(workload, plan, seed)` —
/// the property the parallel search leans on for determinism.
#[derive(Debug, Clone)]
pub struct Evaluator {
    /// Run label (job name).
    pub label: String,
    /// The stage graph to deploy.
    pub stages: Vec<Stage>,
    /// The dataflow edges between stages (per downstream stage).
    pub edges: Vec<Vec<StageEdge>>,
    /// Cloud configuration each world is built from.
    pub cloud: CloudConfig,
    /// Simulation seed shared by every evaluation.
    pub seed: u64,
}

impl Evaluator {
    /// An evaluator for one of the paper's Table 2 jobs.
    pub fn for_job(job: &JobSpec, seed: u64) -> Evaluator {
        Evaluator::for_workload(&pipeline::job_workload(job), seed)
    }

    /// An evaluator for any workload description, edges included; the
    /// candidate space it searches ([`crate::SearchSpace`]) is derived
    /// from the same stage list.
    pub fn for_workload(w: &Workload, seed: u64) -> Evaluator {
        Evaluator {
            label: w.name.clone(),
            stages: w.stages.clone(),
            edges: w.edges.clone(),
            cloud: CloudConfig::default(),
            seed,
        }
    }

    /// Runs `plan` in a fresh world and measures it.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (malformed plans, exhausted retry
    /// budgets under fault injection). The search engine skips failed
    /// candidates rather than aborting.
    pub fn evaluate(&self, plan: &DeploymentPlan) -> Result<PlanOutcome, ExecError> {
        let (report, _) = run_plan_graph(
            &self.label,
            &self.stages,
            &self.edges,
            plan,
            self.seed,
            self.cloud.clone(),
            false,
        )?;
        Ok(PlanOutcome {
            plan: plan.clone(),
            cost_usd: report.cost_usd,
            makespan_secs: report.wall_secs,
            waste: report.waste,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaspace::plan::{FunctionsPlan, StageBackend};
    use serverful::FanIn;

    /// A two-stage toy graph: a stateless load shuffled into a sort.
    fn tiny_workload() -> Workload {
        Workload::builder("toy")
            .stage(
                Stage {
                    name: "load".into(),
                    tasks: 4,
                    cpu_secs_per_task: 1.0,
                    read_mb_per_task: 1.0,
                    write_mb_per_task: 1.0,
                    kind: metaspace::StageKind::Stateless {
                        read_spread: 2,
                        write_spread: 2,
                    },
                },
                &[],
            )
            .stage(
                Stage {
                    name: "sort".into(),
                    tasks: 4,
                    cpu_secs_per_task: 1.0,
                    read_mb_per_task: 0.0,
                    write_mb_per_task: 0.0,
                    kind: metaspace::StageKind::Stateful { exchange_gb: 0.01 },
                },
                &[("load", FanIn::AllToAll)],
            )
            .build()
            .expect("toy graph is valid")
    }

    #[test]
    fn outcome_is_deterministic_across_repeated_evaluations() {
        let ev = Evaluator::for_workload(&tiny_workload(), 7);
        let plan = DeploymentPlan::hybrid(&ev.stages);
        let a = ev.evaluate(&plan).unwrap();
        let b = ev.evaluate(&plan).unwrap();
        assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    }

    #[test]
    fn malformed_plans_are_rejected_not_run() {
        let ev = Evaluator::for_workload(&tiny_workload(), 7);
        let bad = DeploymentPlan::functions(
            "bad",
            FunctionsPlan {
                backends: vec![StageBackend::Functions], // wrong length
                ..match DeploymentPlan::serverless(&ev.stages).kind {
                    metaspace::PlanKind::Functions(f) => f,
                    _ => unreachable!(),
                }
            },
        );
        assert!(ev.evaluate(&bad).is_err());
    }

    #[test]
    fn workload_evaluators_deploy_the_declared_edges() {
        // A DSL family with a diamond: the evaluator must run the
        // declared edges and stay deterministic.
        let w = metaspace::workloads::named("montage")
            .expect("bundled family")
            .scaled(0.05);
        let ev = Evaluator::for_workload(&w, 7);
        assert_eq!(ev.edges, w.edges);
        let plan = DeploymentPlan::hybrid(&ev.stages);
        let a = ev.evaluate(&plan).unwrap();
        let b = ev.evaluate(&plan).unwrap();
        assert_eq!(a.cost_usd.to_bits(), b.cost_usd.to_bits());
        assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    }

    #[test]
    fn dominance_requires_a_strict_edge() {
        let ev = Evaluator::for_workload(&tiny_workload(), 7);
        let out = ev.evaluate(&DeploymentPlan::hybrid(&ev.stages)).unwrap();
        assert!(!out.dominates(&out), "a point never dominates itself");
        let mut cheaper = out.clone();
        cheaper.cost_usd *= 0.5;
        assert!(cheaper.dominates(&out));
        assert!(!out.dominates(&cheaper));
    }
}
