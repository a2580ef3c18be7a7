//! Scenario definitions: tenants, traffic shape, quotas, pool knobs,
//! region placement and spot-market shape.

use cloudsim::{RegionQuotas, SpotMarket};
use metaspace::pipeline::Stage;
use metaspace::workloads;
use workload::Workload;

/// One tenant of the simulated region: a lab or team repeatedly
/// submitting replicas of a bundled workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name; job names and billing labels are prefixed with it.
    pub name: String,
    /// Bundled workload the tenant submits — any
    /// [`metaspace::workloads`] name: a Table 2 job (`Brain`), its
    /// `metaspace-` alias, or a DSL family (`terasort-small`).
    pub job: String,
    /// Relative arrival weight in the traffic mix.
    pub weight: f64,
    /// Stage-graph scale factor in `(0, 1]`; see
    /// [`workload::Workload::scaled`].
    pub scale: f64,
}

impl TenantSpec {
    /// The tenant's (scaled) workload description.
    ///
    /// # Panics
    ///
    /// Panics if `job` names no bundled workload.
    pub fn workload(&self) -> Workload {
        workloads::named(&self.job)
            .unwrap_or_else(|| panic!("tenant `{}`: unknown workload `{}`", self.name, self.job))
            .scaled(self.scale)
    }

    /// The tenant's (scaled) stage graph.
    pub fn stages(&self) -> Vec<Stage> {
        self.workload().stages
    }
}

/// The deployment policy a fleet run compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Every stage of every job on cloud functions, subject to the
    /// shared Lambda concurrency quota.
    Serverless,
    /// Every job provisions its own serverful fleet at arrival and
    /// tears it down at completion (boot time and minimum billing paid
    /// per job).
    PerJobFleet,
    /// Every stage leased from a shared warm pool of serverful
    /// executors kept alive across jobs; when the whole pool is busy,
    /// stateless stages degrade (burst) to cloud functions under the
    /// shared Lambda quota instead of queueing.
    SharedPool,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Serverless => f.write_str("serverless"),
            Policy::PerJobFleet => f.write_str("per-job-fleet"),
            Policy::SharedPool => f.write_str("shared-pool"),
        }
    }
}

/// Knobs of the cross-job shared VM pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Number of serverful executors in the pool (each one master VM).
    pub size: usize,
    /// Instance type each pool executor provisions.
    pub instance: String,
    /// Keep-alive window: an executor idle this long tears its VM down
    /// (re-provisioned cold on the next lease).
    pub idle_timeout_secs: f64,
    /// Master fault tolerance of every serverful executor the scenario
    /// creates (shared-pool members and per-job fleets alike). Presets
    /// keep the paper's protected master.
    pub recovery: serverful::RecoveryMode,
    /// Dedicated worker VMs per pool executor. `0` (the default, and
    /// the historical layout) runs each executor consolidated: one VM
    /// that doubles as master. `> 0` switches executors to fleet mode —
    /// an orchestrating master plus this many `instance`-typed workers,
    /// which is the only layout where a spot [`PoolConfig::bid`] bites
    /// (masters always run on-demand).
    pub workers: usize,
    /// How pool worker slots bid for VM capacity: on-demand (the
    /// paper's behaviour) or discounted-but-preemptible spot with a
    /// bounded per-slot preemption budget, falling back to on-demand
    /// once the budget is spent.
    pub bid: serverful::BidPolicy,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 2,
            instance: "c5.2xlarge".to_owned(),
            idle_timeout_secs: 240.0,
            recovery: serverful::RecoveryMode::Protected,
            workers: 0,
            bid: serverful::BidPolicy::OnDemand,
        }
    }
}

/// A scheduled regional outage: while it lasts, arriving jobs cannot be
/// admitted in the scenario's home region and spill to a secondary one.
///
/// The spillover split is a pure function of the precomputed arrival
/// schedule — each policy then runs one cell per region over its share
/// of the traffic, so the whole run stays byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionOutage {
    /// Outage start, seconds into the run.
    pub start_secs: f64,
    /// Outage length, seconds.
    pub duration_secs: f64,
    /// Region key (see [`cloudsim::region`]) jobs arriving during the
    /// outage run in instead.
    pub spill_to: String,
}

impl RegionOutage {
    /// Whether an arrival at `at_secs` falls inside the outage window
    /// (start inclusive, end exclusive).
    pub fn covers(&self, at_secs: f64) -> bool {
        at_secs >= self.start_secs && at_secs < self.start_secs + self.duration_secs
    }
}

/// A complete traffic scenario: who submits what, how often, under
/// which regional quotas.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (appears in the report header).
    pub name: String,
    /// The tenants sharing the region.
    pub tenants: Vec<TenantSpec>,
    /// Mean job arrivals per minute across all tenants (Poisson).
    pub arrival_rate_per_min: f64,
    /// Arrival window, seconds; jobs arriving inside it always run to
    /// completion. At most [`crate::arrivals::MAX_DURATION_SECS`].
    pub duration_secs: f64,
    /// Shared regional service quotas.
    pub quotas: RegionQuotas,
    /// Shared-pool knobs (used by [`Policy::SharedPool`]; the per-job
    /// fleet borrows the instance type).
    pub pool: PoolConfig,
    /// Hard cap on generated arrivals, a safety net against runaway
    /// rate/duration combinations.
    pub max_jobs: usize,
    /// When set, jobs run their stage graphs dependency-driven
    /// ([`serverful::ExecutionMode::Pipelined`]): FaaS stages release
    /// tasks as their upstream partitions complete (quota admission at
    /// task granularity), serverful stages start as soon as their
    /// dependencies fully drain. Presets leave this off (BSP barriers,
    /// the pre-dataflow behaviour).
    pub pipelined: bool,
    /// Home region key (see [`cloudsim::region`]). `None` — the
    /// default, and every pre-existing preset — leaves the cell's
    /// [`cloudsim::CloudConfig`] untouched, so historical runs stay
    /// byte-identical. The scenario's own [`Scenario::quotas`] always
    /// win over the region profile's (they are the experiment's control
    /// variable).
    pub region: Option<String>,
    /// Overrides the region's spot-market shape (discount, preemption
    /// probability and window) — how a *preemption storm* is dialled in
    /// without minting a whole synthetic region. `None` keeps the
    /// region profile's market.
    pub spot_market: Option<SpotMarket>,
    /// A scheduled regional outage with cross-region spillover; `None`
    /// (all presets before `spillover`) runs all traffic at home.
    pub outage: Option<RegionOutage>,
}

impl Scenario {
    /// The debug-fast scenario CI's determinism gate runs: two tenants,
    /// tiny scaled jobs, a Lambda quota low enough to throttle.
    pub fn smoke() -> Scenario {
        Scenario {
            name: "smoke".to_owned(),
            tenants: vec![
                TenantSpec {
                    name: "brain-lab".to_owned(),
                    job: "Brain".to_owned(),
                    weight: 3.0,
                    scale: 0.02,
                },
                TenantSpec {
                    name: "xeno-core".to_owned(),
                    job: "Xenograft".to_owned(),
                    weight: 1.0,
                    scale: 0.008,
                },
            ],
            arrival_rate_per_min: 6.0,
            duration_secs: 90.0,
            quotas: RegionQuotas {
                lambda_concurrency: 8,
                ec2_vcpus: 256.0,
            },
            pool: PoolConfig {
                size: 1,
                instance: "c5.2xlarge".to_owned(),
                idle_timeout_secs: 180.0,
                ..PoolConfig::default()
            },
            max_jobs: 24,
            pipelined: false,
            region: None,
            spot_market: None,
            outage: None,
        }
    }

    /// The paper-scale scenario of EXPERIMENTS.md: three tenants mixing
    /// all Table 2 jobs at an arrival rate that saturates the shared
    /// Lambda quota.
    pub fn mixed() -> Scenario {
        Scenario {
            name: "mixed".to_owned(),
            tenants: vec![
                TenantSpec {
                    name: "brain-lab".to_owned(),
                    job: "Brain".to_owned(),
                    weight: 4.0,
                    scale: 0.0175,
                },
                TenantSpec {
                    name: "xeno-core".to_owned(),
                    job: "Xenograft".to_owned(),
                    weight: 2.0,
                    scale: 0.007,
                },
                TenantSpec {
                    name: "x089-batch".to_owned(),
                    job: "X089".to_owned(),
                    weight: 1.0,
                    scale: 0.00525,
                },
            ],
            arrival_rate_per_min: 16.0,
            duration_secs: 480.0,
            quotas: RegionQuotas {
                lambda_concurrency: 48,
                ec2_vcpus: 256.0,
            },
            pool: PoolConfig {
                size: 12,
                instance: "c5.2xlarge".to_owned(),
                idle_timeout_secs: 90.0,
                ..PoolConfig::default()
            },
            max_jobs: 120,
            pipelined: false,
            region: None,
            spot_market: None,
            outage: None,
        }
    }

    /// A preemption storm in GCP's volatile spot market: the smoke
    /// tenants run against `gcp-us-central1` with a spot-bidding shared
    /// pool (fleet-mode executors, so worker slots are spot-eligible)
    /// and a market override that reclaims almost every spot VM. The
    /// release-gated test asserts the storm cell's science digest is
    /// byte-identical to the same scenario run all on-demand — spot
    /// reclaims change when and what the run pays, never what it
    /// computes.
    pub fn spot_storm() -> Scenario {
        Scenario {
            name: "spot-storm".to_owned(),
            region: Some("gcp-us-central1".to_owned()),
            spot_market: Some(SpotMarket {
                discount: 0.75,
                preemption_prob: 0.85,
                preemption_after: (15.0, 90.0),
            }),
            pool: PoolConfig {
                size: 2,
                instance: "n2-standard-8".to_owned(),
                idle_timeout_secs: 180.0,
                workers: 2,
                bid: serverful::BidPolicy::spot(),
                ..PoolConfig::default()
            },
            ..Scenario::smoke_shaped("spot-storm")
        }
    }

    /// A regional outage with cross-region spillover: the smoke tenants
    /// run at home in `aws-us-east-1` until a mid-run outage window
    /// diverts arriving jobs to `aws-eu-west-1` (same shapes, ~11%
    /// price premium). Every policy runs one home cell and one spill
    /// cell over its deterministic share of the schedule.
    pub fn spillover() -> Scenario {
        Scenario {
            name: "spillover".to_owned(),
            region: Some("aws-us-east-1".to_owned()),
            outage: Some(RegionOutage {
                start_secs: 30.0,
                duration_secs: 40.0,
                spill_to: "aws-eu-west-1".to_owned(),
            }),
            ..Scenario::smoke_shaped("spillover")
        }
    }

    /// The smoke scenario's traffic shape under a different name — the
    /// base the region/spot presets specialise.
    fn smoke_shaped(name: &str) -> Scenario {
        Scenario {
            name: name.to_owned(),
            ..Scenario::smoke()
        }
    }

    /// Looks a scenario up by name (case-insensitive).
    pub fn named(name: &str) -> Option<Scenario> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scenario::smoke()),
            "mixed" => Some(Scenario::mixed()),
            "spot-storm" => Some(Scenario::spot_storm()),
            "spillover" => Some(Scenario::spillover()),
            _ => None,
        }
    }

    /// Names [`Scenario::named`] resolves.
    pub fn all_names() -> &'static [&'static str] {
        &["smoke", "mixed", "spot-storm", "spillover"]
    }
}
