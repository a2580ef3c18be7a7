//! The four ledger workloads. Each one is a real `repro` code path:
//! inputs are built from a seed, simulated in fresh regions, rendered
//! with the same table code `repro` prints, and checked against
//! invariants that hold for every seed.

use std::sync::Mutex;

use cloudsim::CloudConfig;
use metaspace::plan::{DeploymentPlan, FunctionsPlan, PlanKind};
use metaspace::{AnnotationReport, JobSpec, Workload};
use planner::{Evaluator, Objective, PlanOutcome, SearchConfig, SearchSpace};

use crate::layers::Layers;

/// What one simulated cell produced, reduced to the ledger's numbers.
pub struct Outcome {
    /// Simulated end-to-end latency of every job or run in the cell, s.
    pub latencies: Vec<f64>,
    /// Simulated dollars billed across the cell.
    pub cost_usd: f64,
    /// The text `repro` prints for this cell.
    pub report: String,
}

impl Outcome {
    /// Mean simulated latency per job, s.
    pub fn mean_latency(&self) -> f64 {
        self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
    }

    /// Simulated dollars per job.
    pub fn cost_per_job(&self) -> f64 {
        self.cost_usd / self.latencies.len() as f64
    }
}

/// One ledger workload: build inputs, simulate, report.
pub trait Cell {
    /// Everything a cell needs before the simulator runs.
    type Input;
    /// The simulator's raw results.
    type Sim;

    /// Builds the cell's inputs from a seed.
    fn build(seed: u64) -> Self::Input;
    /// Tasks the cell's inputs declare, summed over every run: the unit
    /// of simulated work host time is divided by.
    fn tasks(input: &Self::Input) -> usize;
    /// Runs the simulator; with `trace` on, span and scheduler counts
    /// land in `layers`.
    fn simulate(input: &Self::Input, trace: bool, layers: &mut Layers)
        -> Result<Self::Sim, String>;
    /// Renders the results as `repro` would, reduces them, and checks
    /// the invariants every seed must satisfy.
    fn report(input: &Self::Input, sim: Self::Sim) -> Result<Outcome, String>;
}

/// A workload description after a trip through the DSL: the simulator
/// runs exactly what a `.wl` file would load.
fn via_dsl(w: &Workload) -> Workload {
    let parsed = workload::parse(&workload::emit(w)).expect("emitted DSL parses");
    parsed.validate().expect("bundled workload validates");
    assert_eq!(&parsed, w, "DSL round trip is exact");
    parsed
}

/// Runs `w` under each of three plans, each in a fresh default region.
fn run_plans(
    w: &Workload,
    plans: &[DeploymentPlan; 3],
    seed: u64,
    trace: bool,
    layers: &mut Layers,
) -> Result<[AnnotationReport; 3], String> {
    let mut run = |plan: &DeploymentPlan| -> Result<AnnotationReport, String> {
        let (report, out) = metaspace::run_workload(w, plan, seed, CloudConfig::default(), trace)
            .map_err(|e| format!("{} under {}: {e}", w.name, plan.name))?;
        if let Some(t) = out {
            layers.record_trace(&t.summary)?;
        }
        Ok(report)
    };
    let [a, b, c] = plans;
    Ok([run(a)?, run(b)?, run(c)?])
}

fn total_tasks(w: &Workload) -> usize {
    w.stages.iter().map(|s| s.tasks).sum()
}

fn positive(what: &str, x: f64) -> Result<(), String> {
    if x.is_finite() && x > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} = {x}, expected finite and positive"))
    }
}

/// Per-run invariants: a positive makespan and bill, one result per
/// stage, and no stage ending after the run does.
fn check_runs(reports: &[&AnnotationReport], stages: usize) -> Result<(), String> {
    for r in reports {
        positive(&format!("{} makespan", r.job), r.wall_secs)?;
        positive(&format!("{} cost", r.job), r.cost_usd)?;
        if r.stages.len() != stages {
            return Err(format!(
                "{}: {} stage results for {stages} stages",
                r.job,
                r.stages.len()
            ));
        }
        if let Some(s) = r.stages.iter().find(|s| s.end_secs > r.wall_secs + 1e-6) {
            return Err(format!("{}: stage {} ends after the run", r.job, s.name));
        }
    }
    Ok(())
}

/// The paper's Table 4 cell: the Brain annotation on cloud functions,
/// the hybrid deployment and the Spark-like cluster.
pub struct Annotate;

pub struct AnnotateInput {
    job: JobSpec,
    workload: Workload,
    plans: [DeploymentPlan; 3],
    seed: u64,
}

impl Cell for Annotate {
    type Input = AnnotateInput;
    type Sim = [AnnotationReport; 3];

    fn build(seed: u64) -> AnnotateInput {
        let job = metaspace::jobs::brain();
        let workload = via_dsl(&metaspace::pipeline::job_workload(&job));
        let plans = [
            DeploymentPlan::serverless(&workload.stages),
            DeploymentPlan::hybrid(&workload.stages),
            DeploymentPlan::cluster(),
        ];
        AnnotateInput {
            job,
            workload,
            plans,
            seed,
        }
    }

    fn tasks(i: &AnnotateInput) -> usize {
        i.plans.len() * total_tasks(&i.workload)
    }

    fn simulate(i: &AnnotateInput, trace: bool, layers: &mut Layers) -> Result<Self::Sim, String> {
        run_plans(&i.workload, &i.plans, i.seed, trace, layers)
    }

    fn report(i: &AnnotateInput, sim: Self::Sim) -> Result<Outcome, String> {
        let [cloud_functions, hybrid, spark] = sim;
        check_runs(
            &[&cloud_functions, &hybrid, &spark],
            i.workload.stages.len(),
        )?;
        // Table 4's shape on the small job: the fixed cluster is fastest
        // and the hybrid beats pure cloud functions on time and money.
        if !(spark.wall_secs < hybrid.wall_secs && hybrid.wall_secs < cloud_functions.wall_secs) {
            return Err(format!(
                "Brain ordering broke: spark {:.2}s hybrid {:.2}s cf {:.2}s",
                spark.wall_secs, hybrid.wall_secs, cloud_functions.wall_secs
            ));
        }
        if hybrid.cost_usd >= cloud_functions.cost_usd {
            return Err("the Brain hybrid no longer undercuts cloud functions".into());
        }
        let row = bench::Table4Row {
            job: i.job.clone(),
            cloud_functions,
            hybrid,
            spark,
        };
        Ok(Outcome {
            latencies: vec![
                row.cloud_functions.wall_secs,
                row.hybrid.wall_secs,
                row.spark.wall_secs,
            ],
            cost_usd: row.cloud_functions.cost_usd + row.hybrid.cost_usd + row.spark.cost_usd,
            report: bench::render::render_table4_rows(std::slice::from_ref(&row)),
        })
    }
}

/// An exchange-heavy terasort: thousands of object-storage flows
/// contending under one prefix, on three deployments.
pub struct Shuffle;

pub struct ShuffleInput {
    workload: Workload,
    plans: [DeploymentPlan; 3],
    seed: u64,
}

impl Cell for Shuffle {
    type Input = ShuffleInput;
    type Sim = [AnnotationReport; 3];

    fn build(seed: u64) -> ShuffleInput {
        let workload = via_dsl(&workload::families::terasort("terasort-8g", 8.0));
        let hybrid = DeploymentPlan::hybrid(&workload.stages);
        let PlanKind::Functions(f) = &hybrid.kind else {
            unreachable!("hybrid is a functions plan")
        };
        let pipelined = DeploymentPlan::functions(
            "hybrid-pipelined",
            FunctionsPlan {
                execution: serverful::ExecutionMode::Pipelined,
                ..f.clone()
            },
        );
        let serverless = DeploymentPlan::serverless(&workload.stages);
        ShuffleInput {
            plans: [hybrid, pipelined, serverless],
            workload,
            seed,
        }
    }

    fn tasks(i: &ShuffleInput) -> usize {
        i.plans.len() * total_tasks(&i.workload)
    }

    fn simulate(i: &ShuffleInput, trace: bool, layers: &mut Layers) -> Result<Self::Sim, String> {
        run_plans(&i.workload, &i.plans, i.seed, trace, layers)
    }

    fn report(i: &ShuffleInput, sim: Self::Sim) -> Result<Outcome, String> {
        let [hybrid_barrier, hybrid_pipelined, serverless] = sim;
        check_runs(
            &[&hybrid_barrier, &hybrid_pipelined, &serverless],
            i.workload.stages.len(),
        )?;
        // The paper's sort result: an exchange kept in one VM's memory is
        // far cheaper than one shuffled through object storage.
        if hybrid_barrier.cost_usd >= serverless.cost_usd {
            return Err("the terasort hybrid no longer undercuts serverless".into());
        }
        let cmp = bench::WorkloadComparison {
            name: i.workload.name.clone(),
            workload: i.workload.clone(),
            edges: i.workload.edge_pairs(),
            hybrid_barrier,
            hybrid_pipelined,
            serverless,
        };
        Ok(Outcome {
            latencies: vec![
                cmp.hybrid_barrier.wall_secs,
                cmp.hybrid_pipelined.wall_secs,
                cmp.serverless.wall_secs,
            ],
            cost_usd: cmp.hybrid_barrier.cost_usd
                + cmp.hybrid_pipelined.cost_usd
                + cmp.serverless.cost_usd,
            report: bench::render::render_workload(&cmp),
        })
    }
}

/// Multi-tenant traffic: three tenants under shared quotas, replayed
/// under the serverless, per-job-fleet and shared-pool policies.
pub struct Fleet;

pub struct FleetInput {
    scenario: fleet::Scenario,
    arrivals: usize,
    /// Tasks of every arriving job, once.
    arrival_tasks: usize,
    seed: u64,
}

impl Cell for Fleet {
    type Input = FleetInput;
    type Sim = fleet::FleetReport;

    fn build(seed: u64) -> FleetInput {
        let mut scenario = fleet::Scenario::mixed();
        // Long enough that the arrival cap always binds, so every seed
        // submits the same number of jobs.
        scenario.duration_secs = 900.0;
        let schedule = fleet::schedule(&scenario, seed);
        let arrival_tasks = schedule
            .iter()
            .map(|a| total_tasks(&scenario.tenants[a.tenant].workload()))
            .sum();
        FleetInput {
            arrivals: schedule.len(),
            arrival_tasks,
            scenario,
            seed,
        }
    }

    fn tasks(i: &FleetInput) -> usize {
        // Every policy replays the same arrivals.
        3 * i.arrival_tasks
    }

    fn simulate(i: &FleetInput, _trace: bool, layers: &mut Layers) -> Result<Self::Sim, String> {
        let report = fleet::run_scenario(&i.scenario, i.seed, 1).map_err(|e| e.to_string())?;
        for p in &report.policies {
            layers.record_policy(p);
        }
        Ok(report)
    }

    fn report(i: &FleetInput, sim: Self::Sim) -> Result<Outcome, String> {
        if i.arrivals != i.scenario.max_jobs {
            return Err(format!(
                "{} arrivals, expected the cap of {}",
                i.arrivals, i.scenario.max_jobs
            ));
        }
        // Every policy replays the whole schedule to completion.
        for p in &sim.policies {
            if p.jobs.len() != i.arrivals {
                return Err(format!(
                    "{}: {} of {} jobs finished",
                    p.label,
                    p.jobs.len(),
                    i.arrivals
                ));
            }
            if let Some(j) = p.jobs.iter().find(|j| j.finished <= j.arrived) {
                return Err(format!(
                    "{}: job {} finished before it arrived",
                    p.label, j.name
                ));
            }
            positive(&format!("{} cost", p.label), p.cost_usd)?;
        }
        Ok(Outcome {
            latencies: sim
                .policies
                .iter()
                .flat_map(|p| p.jobs.iter().map(fleet::JobOutcome::latency_secs))
                .collect(),
            cost_usd: sim.policies.iter().map(|p| p.cost_usd).sum(),
            report: fleet::report::render(&sim),
        })
    }
}

/// The what-if planner sweeping Brain's hybrid over every provider
/// region and both tenancies, one fresh region per candidate.
pub struct Planner;

pub struct PlannerInput {
    evaluator: Evaluator,
    space: SearchSpace,
    candidates: usize,
    seed: u64,
}

impl Cell for Planner {
    type Input = PlannerInput;
    type Sim = planner::SearchReport;

    fn build(seed: u64) -> PlannerInput {
        let evaluator = Evaluator::for_job(&metaspace::jobs::brain(), seed);
        let space = SearchSpace::provider_sweep(&evaluator.stages);
        let candidates = space.candidates(&evaluator.stages).len();
        PlannerInput {
            evaluator,
            space,
            candidates,
            seed,
        }
    }

    fn tasks(i: &PlannerInput) -> usize {
        i.candidates * i.evaluator.stages.iter().map(|s| s.tasks).sum::<usize>()
    }

    fn simulate(i: &PlannerInput, trace: bool, layers: &mut Layers) -> Result<Self::Sim, String> {
        let ev = &i.evaluator;
        let summaries = Mutex::new(Vec::new());
        // `Evaluator::evaluate` with the trace switch exposed.
        let eval = |plan: &DeploymentPlan| {
            let (report, out) = metaspace::run_plan_graph(
                &ev.label,
                &ev.stages,
                &ev.edges,
                plan,
                ev.seed,
                ev.cloud.clone(),
                trace,
            )?;
            if let Some(t) = out {
                summaries
                    .lock()
                    .expect("lock is not poisoned")
                    .push(t.summary);
            }
            Ok(PlanOutcome {
                plan: plan.clone(),
                cost_usd: report.cost_usd,
                makespan_secs: report.wall_secs,
                waste: report.waste,
            })
        };
        let cfg = SearchConfig {
            threads: 1,
            seed: i.seed,
            ..SearchConfig::default()
        };
        let report = planner::search_with(&ev.stages, &eval, &i.space, &cfg);
        for summary in summaries.into_inner().expect("lock is not poisoned") {
            layers.record_trace(&summary)?;
        }
        layers.plans_evaluated += report.evaluated as f64;
        Ok(report)
    }

    fn report(i: &PlannerInput, sim: Self::Sim) -> Result<Outcome, String> {
        if sim.failed > 0 || sim.evaluated != i.candidates {
            return Err(format!(
                "{} of {} candidates evaluated, {} failed",
                sim.evaluated, i.candidates, sim.failed
            ));
        }
        let frontier = sim.frontier.points();
        if frontier.is_empty() {
            return Err("empty Pareto frontier".into());
        }
        if let Some(p) = frontier
            .iter()
            .find(|p| sim.ranked.iter().any(|o| o.dominates(p)))
        {
            return Err(format!("frontier plan {} is dominated", p.plan.key()));
        }
        for o in &sim.ranked {
            positive(&format!("{} cost", o.plan.key()), o.cost_usd)?;
            positive(&format!("{} makespan", o.plan.key()), o.makespan_secs)?;
        }
        Ok(Outcome {
            latencies: sim.ranked.iter().map(|o| o.makespan_secs).collect(),
            cost_usd: sim.ranked.iter().map(|o| o.cost_usd).sum(),
            report: bench::render::render_plan_search(&i.evaluator.label, &sim, Objective::Pareto)
                + &sim.frontier.stable_digest(),
        })
    }
}
