//! What-if deployment planning over the deterministic cloud simulator.
//!
//! The paper's headline hybrid deployment — stateless stages on cloud
//! functions, stateful operations on a right-sized VM — is a point the
//! authors picked *by hand* from empirical bounds (§4.3). This crate
//! automates that choice: because `cloudsim` worlds are deterministic
//! and cheap, every candidate [`metaspace::plan::DeploymentPlan`] can be
//! evaluated exactly, in parallel, and the results merged into a
//! reproducible Pareto frontier over (cost, makespan).
//!
//! The pieces:
//!
//! * [`SearchSpace`] — generates candidate plans from the instance
//!   catalog and the stage model (backend masks, hosts, fleets, Lambda
//!   memory, sizing factors, cluster shapes);
//! * [`Evaluator`] — holds one workload description (its stages and
//!   their dataflow edges), runs a candidate through a fresh simulated
//!   world and returns `(cost_usd, makespan, waste)` from the telemetry
//!   ledgers;
//! * [`search()`] — exhaustive grid for small spaces, seeded beam/local
//!   search for large ones, fanned out over [`parallel_map`]'s
//!   hand-rolled `std::thread::scope` work queue;
//! * [`ParetoFrontier`] — the deterministic non-dominated set, with a
//!   [`ParetoFrontier::stable_digest`] that is byte-identical for any
//!   worker count and insertion order.
//!
//! The acceptance experiment (`repro plan brain`, EXPERIMENTS.md):
//! given only the catalog and the workload, the planner rediscovers a
//! hybrid plan that matches the paper's hand-picked one — serverful
//! sort stages, policy-sized host — and dominates pure serverless on
//! cost while beating the fixed cluster on makespan.
//!
//! # Example
//!
//! ```
//! use metaspace::{jobs, pipeline};
//! use planner::{search, Evaluator, SearchConfig, SearchSpace};
//!
//! // Brain's pipeline at 2% of its task volume, edges included.
//! let w = pipeline::job_workload(&jobs::brain()).scaled(0.02);
//! let ev = Evaluator::for_workload(&w, 42);
//! let space = SearchSpace::smoke(&ev.stages);
//! # // Every candidate is a whole simulation; doctests only build this.
//! # if false {
//! let report = search(&ev, &space, &SearchConfig::default());
//! for p in report.frontier.points() {
//!     println!("{}: ${:.2} {:.0}s", p.plan, p.cost_usd, p.makespan_secs);
//! }
//! # }
//! ```

#![warn(missing_docs)]

pub mod eval;
pub mod pareto;
pub mod queue;
pub mod search;
pub mod space;

pub use eval::{Evaluator, PlanOutcome};
pub use pareto::ParetoFrontier;
pub use queue::parallel_map;
pub use search::{search, search_with, Objective, SearchConfig, SearchReport};
pub use space::SearchSpace;
