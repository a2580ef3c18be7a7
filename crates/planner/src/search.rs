//! The search engine: exhaustive grid for small spaces, seeded
//! beam/local search for large ones.
//!
//! Determinism argument (holds for any worker count):
//!
//! 1. Every candidate's outcome is a pure function of
//!    `(workload, plan, seed)` — each evaluation builds its own fresh
//!    `World` ([`crate::Evaluator`]).
//! 2. The parallel fan-out ([`crate::parallel_map`]) returns results in
//!    input order regardless of scheduling.
//! 3. Every selection (seeding, beam ranking, frontier ordering) uses
//!    total orders: `f64::total_cmp` on objectives, then the stable
//!    plan key.
//!
//! So the evaluated set, the beam trajectory and the final frontier are
//! pure functions of `(workload, space, config)` — `--threads 8`
//! reproduces `--threads 1` byte for byte.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use metaspace::plan::{DeploymentPlan, PlanKind};

use crate::eval::{Evaluator, PlanOutcome};
use crate::pareto::ParetoFrontier;
use crate::queue::parallel_map;
use crate::space::SearchSpace;

/// What the search optimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimise dollars.
    Cost,
    /// Minimise makespan.
    Latency,
    /// Keep the whole non-dominated set.
    #[default]
    Pareto,
}

impl Objective {
    /// Parses a CLI objective name.
    pub fn parse(s: &str) -> Option<Objective> {
        match s {
            "cost" => Some(Objective::Cost),
            "latency" => Some(Objective::Latency),
            "pareto" => Some(Objective::Pareto),
            _ => None,
        }
    }

    /// Ranks two outcomes under this objective (total order; Pareto
    /// ranks cheapest-first like the frontier itself).
    pub fn rank(self, a: &PlanOutcome, b: &PlanOutcome) -> Ordering {
        let primary = match self {
            Objective::Latency => a.makespan_secs.total_cmp(&b.makespan_secs),
            Objective::Cost | Objective::Pareto => a.cost_usd.total_cmp(&b.cost_usd),
        };
        let secondary = match self {
            Objective::Latency => a.cost_usd.total_cmp(&b.cost_usd),
            Objective::Cost | Objective::Pareto => {
                a.makespan_secs.total_cmp(&b.makespan_secs)
            }
        };
        primary
            .then(secondary)
            .then_with(|| a.plan.key().cmp(&b.plan.key()))
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Objective::Cost => "cost",
            Objective::Latency => "latency",
            Objective::Pareto => "pareto",
        })
    }
}

/// Search knobs.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// What to optimise.
    pub objective: Objective,
    /// Worker threads for the evaluation fan-out (≥ 1; purely a speed
    /// knob, never a result knob).
    pub threads: usize,
    /// Seed for both the simulations and the beam search's seeding.
    pub seed: u64,
    /// Spaces up to this many candidates are searched exhaustively;
    /// larger ones get the seeded beam search.
    pub grid_limit: usize,
    /// Plans kept per beam round.
    pub beam_width: usize,
    /// Beam expansion rounds.
    pub beam_rounds: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            objective: Objective::Pareto,
            threads: 1,
            seed: 42,
            grid_limit: 96,
            beam_width: 8,
            beam_rounds: 4,
        }
    }
}

/// What a search produced.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The non-dominated set over everything evaluated.
    pub frontier: ParetoFrontier,
    /// Every evaluated outcome, sorted by the configured objective.
    pub ranked: Vec<PlanOutcome>,
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Candidates whose simulation failed (skipped).
    pub failed: usize,
    /// Candidates the space contained.
    pub space_size: usize,
    /// Whether the whole space was enumerated (vs beam search).
    pub exhaustive: bool,
}

impl SearchReport {
    /// The winner under the configured objective (`None` only for an
    /// empty space).
    pub fn best(&self) -> Option<&PlanOutcome> {
        self.ranked.first()
    }
}

/// `splitmix64`: the tiny standard seed mixer (no crates.io RNGs here).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Knob distance between two candidates, mirroring the knobs the space
/// generator varies: each *stateful* stage's backend is its own knob,
/// the stateless stages' placement moves as one block knob (like
/// `SearchSpace`'s masks), and every scalar (memory, instance, fleet
/// size, sizing factor, retry budget) is one knob. Plans from different
/// families (functions vs cluster) are never neighbours.
fn knob_distance(stages: &[metaspace::Stage], a: &DeploymentPlan, b: &DeploymentPlan) -> usize {
    match (&a.kind, &b.kind) {
        (PlanKind::Functions(x), PlanKind::Functions(y)) => {
            if x.backends.len() != stages.len() || y.backends.len() != stages.len() {
                return usize::MAX;
            }
            let stateful_diff = stages
                .iter()
                .zip(x.backends.iter().zip(&y.backends))
                .filter(|(s, (p, q))| s.is_stateful() && p != q)
                .count();
            let stateless_diff = usize::from(
                stages
                    .iter()
                    .zip(x.backends.iter().zip(&y.backends))
                    .any(|(s, (p, q))| !s.is_stateful() && p != q),
            );
            stateful_diff
                + stateless_diff
                + usize::from(x.memory_mb != y.memory_mb)
                + usize::from(x.instance != y.instance)
                + usize::from(x.vm_count != y.vm_count)
                + usize::from(x.mem_factor.to_bits() != y.mem_factor.to_bits())
                + usize::from(x.max_attempts != y.max_attempts)
        }
        (PlanKind::Cluster(x), PlanKind::Cluster(y)) => {
            usize::from(x.instance != y.instance) + usize::from(x.nodes != y.nodes)
        }
        _ => usize::MAX,
    }
}

/// Runs the search: grid when the space fits under
/// [`SearchConfig::grid_limit`], seeded beam search otherwise.
pub fn search(evaluator: &Evaluator, space: &SearchSpace, cfg: &SearchConfig) -> SearchReport {
    search_with(
        &evaluator.stages,
        &|plan| evaluator.evaluate(plan),
        space,
        cfg,
    )
}

/// [`search`] over an arbitrary evaluation function: the same grid/beam
/// engine, with the objective measured however the caller likes. It
/// serves callers that need their own evaluation function, such as the
/// benchmark's planner cell. `eval` must be a pure function of the plan
/// (plus captured constants) for the determinism argument in the module
/// docs to hold.
pub fn search_with(
    stages: &[metaspace::Stage],
    eval: &(dyn Fn(&DeploymentPlan) -> Result<PlanOutcome, serverful::ExecError> + Sync),
    space: &SearchSpace,
    cfg: &SearchConfig,
) -> SearchReport {
    let candidates = space.candidates(stages);
    let exhaustive = candidates.len() <= cfg.grid_limit;
    let mut outcomes: Vec<PlanOutcome> = Vec::new();
    let mut failed = 0usize;
    let mut evaluate_batch = |batch: &[DeploymentPlan], outcomes: &mut Vec<PlanOutcome>| {
        let results = parallel_map(batch, cfg.threads, |_, plan| eval(plan));
        for r in results {
            match r {
                Ok(o) => outcomes.push(o),
                Err(_) => failed += 1,
            }
        }
    };

    if exhaustive {
        evaluate_batch(&candidates, &mut outcomes);
    } else {
        // Seed the beam: the named deployments (the paper's three
        // points, when the space contains them) plus a deterministic
        // random sample of the rest.
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut seeds: Vec<DeploymentPlan> = candidates
            .iter()
            .filter(|p| matches!(p.name.as_str(), "serverless" | "hybrid" | "spark"))
            .cloned()
            .collect();
        let mut rng = cfg.seed;
        while seeds.len() < cfg.beam_width.min(candidates.len()) {
            let pick = (splitmix64(&mut rng) % candidates.len() as u64) as usize;
            let plan = &candidates[pick];
            if seeds.iter().all(|s| s.key() != plan.key()) {
                seeds.push(plan.clone());
            }
        }
        for s in &seeds {
            seen.insert(s.key());
        }
        evaluate_batch(&seeds, &mut outcomes);

        for _ in 0..cfg.beam_rounds {
            // The beam: best evaluated plans under the objective.
            let mut ranked: Vec<&PlanOutcome> = outcomes.iter().collect();
            ranked.sort_by(|a, b| cfg.objective.rank(a, b));
            ranked.truncate(cfg.beam_width);
            // Expand: every unvisited candidate one knob away from a
            // beam plan. Candidate order (sorted by key) keeps the
            // batch deterministic.
            let batch: Vec<DeploymentPlan> = candidates
                .iter()
                .filter(|c| !seen.contains(&c.key()))
                .filter(|c| {
                    ranked
                        .iter()
                        .any(|o| knob_distance(stages, &o.plan, c) <= 1)
                })
                .cloned()
                .collect();
            if batch.is_empty() {
                break;
            }
            for b in &batch {
                seen.insert(b.key());
            }
            evaluate_batch(&batch, &mut outcomes);
        }
    }

    let frontier = ParetoFrontier::from_outcomes(outcomes.iter().cloned());
    let mut ranked = outcomes;
    ranked.sort_by(|a, b| cfg.objective.rank(a, b));
    SearchReport {
        evaluated: ranked.len(),
        failed,
        space_size: candidates.len(),
        exhaustive,
        frontier,
        ranked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metaspace::{jobs, Stage, StageKind, Workload};
    use serverful::FanIn;

    /// A three-stage toy chain: map, shuffle, reduce, each all-to-all
    /// after the one before.
    fn toy_workload() -> Workload {
        let stateless = |name: &str, tasks, mb| Stage {
            name: name.into(),
            tasks,
            cpu_secs_per_task: 0.5,
            read_mb_per_task: mb,
            write_mb_per_task: mb,
            kind: StageKind::Stateless {
                read_spread: 2,
                write_spread: 2,
            },
        };
        Workload::builder("toy")
            .stage(stateless("map", 8, 2.0), &[])
            .stage(
                Stage {
                    name: "shuffle".into(),
                    tasks: 8,
                    cpu_secs_per_task: 0.5,
                    read_mb_per_task: 0.0,
                    write_mb_per_task: 0.0,
                    kind: StageKind::Stateful { exchange_gb: 0.05 },
                },
                &[("map", FanIn::AllToAll)],
            )
            .stage(stateless("reduce", 4, 1.0), &[("shuffle", FanIn::AllToAll)])
            .build()
            .expect("toy graph is valid")
    }

    #[test]
    fn smoke_grid_finds_all_three_named_plans() {
        let ev = Evaluator::for_workload(&toy_workload(), 42);
        let space = SearchSpace::smoke(&ev.stages);
        let report = search(&ev, &space, &SearchConfig::default());
        assert!(report.exhaustive);
        assert_eq!(report.evaluated, 3);
        assert_eq!(report.failed, 0);
        assert!(!report.frontier.is_empty());
        assert!(report.best().is_some());
    }

    #[test]
    fn frontier_has_no_dominated_point() {
        let ev = Evaluator::for_workload(&toy_workload(), 42);
        let report = search(&ev, &SearchSpace::smoke(&ev.stages), &SearchConfig::default());
        let pts = report.frontier.points();
        for a in pts {
            for b in pts {
                assert!(!a.dominates(b), "{} dominates {}", a.plan, b.plan);
            }
        }
        // And every evaluated non-frontier plan is dominated or equal.
        for o in &report.ranked {
            let on_frontier = pts.iter().any(|p| p.plan.key() == o.plan.key());
            assert!(on_frontier || report.frontier.dominated(o), "{}", o.plan);
        }
    }

    #[test]
    fn thread_count_never_changes_the_frontier() {
        let ev = Evaluator::for_workload(&toy_workload(), 42);
        let space = SearchSpace::standard(&ev.stages);
        let digest_of = |threads: usize| {
            let cfg = SearchConfig {
                threads,
                ..SearchConfig::default()
            };
            search(&ev, &space, &cfg).frontier.stable_digest()
        };
        let one = digest_of(1);
        assert_eq!(one, digest_of(8), "1 vs 8 workers");
        assert_eq!(one, digest_of(3), "1 vs 3 workers");
        assert!(!one.is_empty());
    }

    #[test]
    fn repeated_same_seed_runs_are_identical() {
        let ev = Evaluator::for_workload(&toy_workload(), 7);
        let space = SearchSpace::smoke(&ev.stages);
        let cfg = SearchConfig {
            threads: 4,
            seed: 7,
            ..SearchConfig::default()
        };
        let a = search(&ev, &space, &cfg).frontier.stable_digest();
        let b = search(&ev, &space, &cfg).frontier.stable_digest();
        assert_eq!(a, b);
    }

    #[test]
    fn beam_search_is_deterministic_and_visits_fewer_candidates() {
        let ev = Evaluator::for_workload(&toy_workload(), 42);
        let space = SearchSpace::standard(&ev.stages);
        let cfg = SearchConfig {
            grid_limit: 4, // force the beam path
            beam_width: 4,
            beam_rounds: 2,
            threads: 8,
            ..SearchConfig::default()
        };
        let a = search(&ev, &space, &cfg);
        let b = search(&ev, &space, &cfg);
        assert!(!a.exhaustive);
        assert!(a.evaluated < a.space_size, "beam prunes the space");
        assert_eq!(a.frontier.stable_digest(), b.frontier.stable_digest());
        let serial = search(
            &ev,
            &space,
            &SearchConfig {
                threads: 1,
                ..cfg
            },
        );
        assert_eq!(a.frontier.stable_digest(), serial.frontier.stable_digest());
    }

    #[test]
    fn objectives_rank_differently() {
        let ev = Evaluator::for_workload(&toy_workload(), 42);
        let space = SearchSpace::smoke(&ev.stages);
        let by = |objective| {
            search(
                &ev,
                &space,
                &SearchConfig {
                    objective,
                    ..SearchConfig::default()
                },
            )
        };
        let cost = by(Objective::Cost);
        let latency = by(Objective::Latency);
        let best_cost = cost.best().unwrap();
        let best_latency = latency.best().unwrap();
        // The cost winner is never more expensive than the latency
        // winner, and vice versa on makespan.
        assert!(best_cost.cost_usd <= best_latency.cost_usd);
        assert!(best_latency.makespan_secs <= best_cost.makespan_secs);
    }

    #[test]
    fn brain_smoke_search_reproduces_paper_ordering() {
        // Release-only: paper-scale simulations are slow in debug.
        if cfg!(debug_assertions) {
            return;
        }
        let ev = Evaluator::for_job(&jobs::brain(), 42);
        let report = search(&ev, &SearchSpace::smoke(&ev.stages), &SearchConfig::default());
        let by_name = |name: &str| {
            report
                .ranked
                .iter()
                .find(|o| o.plan.name == name)
                .expect("evaluated")
        };
        let (serverless, hybrid, spark) = (by_name("serverless"), by_name("hybrid"), by_name("spark"));
        // The paper's Brain ordering (Table 4 / Figure 4): the hybrid
        // dominates pure serverless outright, while the warm Spark
        // cluster stays fastest — so spark evicts hybrid and is the
        // smoke frontier's sole survivor.
        assert!(hybrid.dominates(serverless), "hybrid beats serverless");
        assert!(spark.makespan_secs <= hybrid.makespan_secs, "spark fastest");
        assert!(report.frontier.by_name("spark").is_some());
    }
}
