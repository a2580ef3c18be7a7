//! Multi-tenant traffic simulation over the serverful-functions stack.
//!
//! The paper evaluates one job at a time in an otherwise idle region.
//! Production regions are not idle: many tenants submit annotation jobs
//! concurrently, they share the account's Lambda burst-concurrency and
//! EC2 capacity quotas, and a serverful deployment can amortise warm
//! VMs *across* jobs rather than per job. This crate closes that gap:
//!
//! * [`scenario`] — tenants (Table 2 jobs, scaled), a Poisson arrival
//!   process, shared [`cloudsim::RegionQuotas`] and pool knobs;
//! * [`arrivals`] — the seeded arrival schedule, a pure function of
//!   `(scenario, seed)`;
//! * [`admission`] — the region-level admission controller: stages are
//!   throttled (queued) when the shared quotas have no headroom, or
//!   degraded (rerouted between the pool and cloud functions) under
//!   pressure;
//! * [`pool`] — the cross-job shared VM pool, extending serverful's
//!   proactive provisioning with keep-alive leases between jobs;
//! * [`driver`] — the per-policy event loop; every policy cell replays
//!   identical traffic in a fresh deterministic world, and cells merge
//!   in fixed order, so reports are byte-identical for any thread
//!   count;
//! * [`report`] — plain-text rendering over [`telemetry`]'s fleet
//!   tables;
//! * [`whatif`] — deployment-plan evaluation *under load*: one
//!   scenario's traffic with every stage placed by an explicit plan.
//!
//! The headline experiment (`repro fleet mixed`, EXPERIMENTS.md): at
//! high arrival rates the warm shared pool beats per-job fleets *and*
//! pure serverless on cost at a comparable p99, while the Lambda quota
//! visibly throttles the pure-serverless cells.
//!
//! # Example
//!
//! Run a small two-tenant scenario and compare the three policies:
//!
//! ```
//! use fleet::{report, run_scenario, Scenario};
//!
//! let mut sc = Scenario::smoke();
//! sc.duration_secs = 30.0; // a few arrivals are enough for a doctest
//! sc.max_jobs = 3;
//! let fleet = run_scenario(&sc, 42, 1).expect("smoke traffic completes");
//! assert_eq!(fleet.policies.len(), 3);
//! let text = report::render(&fleet);
//! assert!(text.contains("serverless") && text.contains("shared-pool"));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod arrivals;
pub mod driver;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod whatif;

pub use admission::Admission;
pub use arrivals::{schedule, Arrival};
pub use driver::{run_policy, run_scenario, FleetReport, JobOutcome, PolicyOutcome};
pub use pool::SharedPool;
pub use scenario::{Policy, PoolConfig, RegionOutage, Scenario, TenantSpec};
