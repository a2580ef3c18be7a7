//! Deployment plans: the paper's hand-tuned §4.3 choices, as data.
//!
//! The paper fixes one deployment by hand — stateless stages on cloud
//! functions, stateful operations on a right-sized VM, 1769 MB Lambdas,
//! the empirical 2.5× sizing factor — and evaluates it against a pure
//! cloud-functions deployment and the fixed Spark cluster. A
//! [`DeploymentPlan`] captures every one of those knobs so the three
//! studied architectures become three *named points* in a much larger
//! space that the `planner` crate searches:
//!
//! * per-stage backend assignment ([`StageBackend`]);
//! * serverful host instance type and fleet size;
//! * Lambda memory (the memory→vCPU mapping);
//! * sizing factor (memory demand per input byte → sequential rounds);
//! * retry budget.
//!
//! [`crate::runner::run_workload`] executes any plan on a workload in a
//! fresh simulated region; [`DeploymentPlan::for_architecture`]
//! reproduces the paper's three deployments exactly.

use std::fmt;

use serverful::{ExecutionMode, RecoveryMode};

use crate::pipeline::Stage;
use crate::runner::Architecture;

/// Which backend one pipeline stage runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageBackend {
    /// Cloud functions (Lambda-like sandboxes, storage-based exchange
    /// for stateful stages).
    Functions,
    /// The serverful VM pool (in-memory exchange through the master's
    /// KV store).
    Serverful,
}

impl StageBackend {
    /// Short stable code used in plan keys (`f`/`s`).
    pub fn code(self) -> char {
        match self {
            StageBackend::Functions => 'f',
            StageBackend::Serverful => 's',
        }
    }
}

/// A deployment built from cloud functions and (optionally) the
/// serverful backend — the family the paper's serverless and hybrid
/// architectures live in.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionsPlan {
    /// Backend of each stage, aligned index-for-index with the job's
    /// stage list ([`crate::pipeline::stages`]).
    pub backends: Vec<StageBackend>,
    /// Sandbox memory for the FaaS stages, MB (1769 MB = 1 vCPU).
    pub memory_mb: u32,
    /// Serverful host instance type; `None` lets the sizing policy pick
    /// from the catalog (the paper's "empirically defined bounds").
    pub instance: Option<String>,
    /// Number of serverful worker VMs. `1` is the paper's consolidated
    /// single right-sized host; larger fleets add a dedicated master.
    pub vm_count: usize,
    /// Memory demand as a multiple of input size (the paper's empirical
    /// 2–3×); drives instance choice and sequential-round splitting.
    pub mem_factor: f64,
    /// Attempts per task before the job fails (retry budget).
    pub max_attempts: u32,
    /// How the stage graph is scheduled: classic BSP barriers, or
    /// dependency-driven dataflow ([`ExecutionMode::Pipelined`]).
    pub execution: ExecutionMode,
    /// What happens if the serverful master VM dies mid-job:
    /// protected (the paper's assumption), checkpointed replay, or
    /// decentralized storage-backed dispatch with no master in the data
    /// path. Irrelevant for pure-FaaS plans.
    pub recovery: RecoveryMode,
    /// Provider region to deploy in, as a `{provider}-{region}` registry
    /// key (see [`cloudsim::provider`]). `None` is the paper's
    /// `aws-us-east-1` with no spot market — byte-identical to the
    /// pre-provider behaviour.
    pub region: Option<String>,
    /// Bid for spot capacity on serverful worker slots (discounted but
    /// preemptible; masters stay on-demand). Meaningless without a
    /// serverful stage.
    pub spot: bool,
}

impl FunctionsPlan {
    /// Every stage on cloud functions (the deployment METASPACE migrated
    /// to first).
    pub fn serverless(n_stages: usize) -> FunctionsPlan {
        FunctionsPlan {
            backends: vec![StageBackend::Functions; n_stages],
            ..FunctionsPlan::defaults()
        }
    }

    /// The paper's hybrid: stateless stages on functions, stateful
    /// operations on the serverful backend.
    pub fn hybrid(stages: &[Stage]) -> FunctionsPlan {
        FunctionsPlan {
            backends: stages
                .iter()
                .map(|s| {
                    if s.is_stateful() {
                        StageBackend::Serverful
                    } else {
                        StageBackend::Functions
                    }
                })
                .collect(),
            ..FunctionsPlan::defaults()
        }
    }

    /// The knob defaults shared by the named plans (the paper's setup).
    fn defaults() -> FunctionsPlan {
        FunctionsPlan {
            backends: Vec::new(),
            memory_mb: 1769,
            instance: None,
            vm_count: 1,
            mem_factor: 2.5,
            max_attempts: serverful::RetryPolicy::default().max_attempts,
            execution: ExecutionMode::Barrier,
            recovery: RecoveryMode::Protected,
            region: None,
            spot: false,
        }
    }

    /// Whether any stage runs on the serverful backend.
    pub fn uses_serverful(&self) -> bool {
        self.backends.contains(&StageBackend::Serverful)
    }

    /// Whether any stage runs on cloud functions.
    pub fn uses_functions(&self) -> bool {
        self.backends.contains(&StageBackend::Functions)
    }
}

/// A fixed cluster deployment (the Spark baseline's family).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// Node instance type (catalog name).
    pub instance: String,
    /// Number of nodes.
    pub nodes: usize,
}

impl ClusterPlan {
    /// The paper's METASPACE production cluster: 4 × c5.4xlarge.
    pub fn paper() -> ClusterPlan {
        ClusterPlan {
            instance: "c5.4xlarge".to_owned(),
            nodes: 4,
        }
    }
}

/// How a plan lays compute out.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// Cloud functions, optionally with serverful stages.
    Functions(FunctionsPlan),
    /// A fixed cluster for the whole pipeline.
    Cluster(ClusterPlan),
}

/// One fully specified deployment: everything `run_workload` needs to
/// execute a job, and everything the planner searches over.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Human-readable name (`serverless`, `hybrid`, `spark`, or a
    /// search-generated key).
    pub name: String,
    /// The deployment itself.
    pub kind: PlanKind,
}

impl DeploymentPlan {
    /// Builds a named functions-family plan.
    pub fn functions(name: impl Into<String>, plan: FunctionsPlan) -> DeploymentPlan {
        DeploymentPlan {
            name: name.into(),
            kind: PlanKind::Functions(plan),
        }
    }

    /// Builds a named cluster-family plan.
    pub fn cluster_of(name: impl Into<String>, plan: ClusterPlan) -> DeploymentPlan {
        DeploymentPlan {
            name: name.into(),
            kind: PlanKind::Cluster(plan),
        }
    }

    /// The pure cloud-functions deployment, as a plan.
    pub fn serverless(stages: &[Stage]) -> DeploymentPlan {
        DeploymentPlan::functions("serverless", FunctionsPlan::serverless(stages.len()))
    }

    /// The paper's hybrid deployment, as a plan.
    pub fn hybrid(stages: &[Stage]) -> DeploymentPlan {
        DeploymentPlan::functions("hybrid", FunctionsPlan::hybrid(stages))
    }

    /// The fixed Spark cluster, as a plan.
    pub fn cluster() -> DeploymentPlan {
        DeploymentPlan::cluster_of("spark", ClusterPlan::paper())
    }

    /// The named plan equivalent to one of the three studied
    /// architectures on the given stage graph.
    pub fn for_architecture(arch: Architecture, stages: &[Stage]) -> DeploymentPlan {
        match arch {
            Architecture::Serverless => DeploymentPlan::serverless(stages),
            Architecture::Hybrid => DeploymentPlan::hybrid(stages),
            Architecture::Cluster => DeploymentPlan::cluster(),
        }
    }

    /// The architecture a plan is closest to (for reporting).
    pub fn architecture(&self) -> Architecture {
        match &self.kind {
            PlanKind::Cluster(_) => Architecture::Cluster,
            PlanKind::Functions(f) if f.uses_serverful() => Architecture::Hybrid,
            PlanKind::Functions(_) => Architecture::Serverless,
        }
    }

    /// A compact, stable, unique key describing every knob — used for
    /// deterministic ordering, deduplication and frontier rendering.
    ///
    /// # Example
    ///
    /// ```
    /// use metaspace::pipeline::stages;
    /// use metaspace::plan::DeploymentPlan;
    ///
    /// let st = stages(&metaspace::jobs::brain());
    /// let key = DeploymentPlan::hybrid(&st).key();
    /// assert!(key.starts_with("fn:"), "{key}");
    /// ```
    pub fn key(&self) -> String {
        match &self.kind {
            PlanKind::Cluster(c) => format!("cl:{}x{}", c.nodes, c.instance),
            PlanKind::Functions(f) => {
                let mask: String = f.backends.iter().map(|b| b.code()).collect();
                // The `:pl` / `:ck` / `:dc` / `:@region` / `:sp`
                // suffixes appear only for non-default execution,
                // recovery, region and tenancy so every pre-existing
                // (Barrier, Protected, default-region, on-demand) key
                // stays byte-stable.
                let pl = match f.execution {
                    ExecutionMode::Barrier => "",
                    ExecutionMode::Pipelined => ":pl",
                };
                let rc = f.recovery.key_suffix();
                let rg = match &f.region {
                    Some(r) => format!(":@{r}"),
                    None => String::new(),
                };
                let sp = if f.spot { ":sp" } else { "" };
                format!(
                    "fn:{mask}:mem{}:vm{}x{}:mf{:.1}:r{}{pl}{rc}{rg}{sp}",
                    f.memory_mb,
                    f.vm_count,
                    f.instance.as_deref().unwrap_or("auto"),
                    f.mem_factor,
                    f.max_attempts,
                )
            }
        }
    }
}

impl fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;
    use crate::pipeline::stages;

    #[test]
    fn named_plans_mirror_architectures() {
        let st = stages(&jobs::brain());
        for arch in [
            Architecture::Serverless,
            Architecture::Hybrid,
            Architecture::Cluster,
        ] {
            let plan = DeploymentPlan::for_architecture(arch, &st);
            assert_eq!(plan.architecture(), arch, "{plan}");
        }
    }

    #[test]
    fn hybrid_assigns_stateful_stages_to_the_serverful_backend() {
        let st = stages(&jobs::xenograft());
        let PlanKind::Functions(f) = DeploymentPlan::hybrid(&st).kind else {
            panic!("hybrid is a functions plan");
        };
        for (stage, backend) in st.iter().zip(&f.backends) {
            let expect = if stage.is_stateful() {
                StageBackend::Serverful
            } else {
                StageBackend::Functions
            };
            assert_eq!(*backend, expect, "{}", stage.name);
        }
    }

    #[test]
    fn keys_distinguish_every_knob() {
        let st = stages(&jobs::brain());
        let base = DeploymentPlan::hybrid(&st);
        let PlanKind::Functions(f) = &base.kind else { unreachable!() };
        let variants = [
            FunctionsPlan { memory_mb: 3538, ..f.clone() },
            FunctionsPlan { instance: Some("r5.4xlarge".into()), ..f.clone() },
            FunctionsPlan { vm_count: 4, ..f.clone() },
            FunctionsPlan { mem_factor: 2.0, ..f.clone() },
            FunctionsPlan { max_attempts: 1, ..f.clone() },
            FunctionsPlan { execution: ExecutionMode::Pipelined, ..f.clone() },
            FunctionsPlan { recovery: RecoveryMode::Checkpointed, ..f.clone() },
            FunctionsPlan { recovery: RecoveryMode::Decentralized, ..f.clone() },
            FunctionsPlan { region: Some("aws-eu-west-1".into()), ..f.clone() },
            FunctionsPlan { spot: true, ..f.clone() },
        ];
        let mut keys = vec![base.key(), DeploymentPlan::cluster().key()];
        for v in variants {
            keys.push(DeploymentPlan::functions("v", v).key());
        }
        let unique: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "{keys:?}");
    }

    #[test]
    fn barrier_keys_carry_no_execution_suffix() {
        // Pre-dataflow plan keys must stay byte-stable: only Pipelined
        // plans grow the `:pl` marker.
        let st = stages(&jobs::brain());
        let base = DeploymentPlan::hybrid(&st);
        assert!(!base.key().contains(":pl"), "{}", base.key());
        let PlanKind::Functions(f) = base.kind else { unreachable!() };
        let pl = DeploymentPlan::functions(
            "p",
            FunctionsPlan { execution: ExecutionMode::Pipelined, ..f },
        );
        assert!(pl.key().ends_with(":pl"), "{}", pl.key());
    }

    #[test]
    fn protected_keys_carry_no_recovery_suffix() {
        // Same byte-stability rule for the recovery knob: only
        // non-default modes grow a marker, and it composes with `:pl`.
        let st = stages(&jobs::brain());
        let base = DeploymentPlan::hybrid(&st);
        assert!(!base.key().contains(":ck"), "{}", base.key());
        assert!(!base.key().contains(":dc"), "{}", base.key());
        let PlanKind::Functions(f) = base.kind else { unreachable!() };
        let ck = DeploymentPlan::functions(
            "c",
            FunctionsPlan {
                recovery: RecoveryMode::Checkpointed,
                ..f.clone()
            },
        );
        assert!(ck.key().ends_with(":ck"), "{}", ck.key());
        let both = DeploymentPlan::functions(
            "b",
            FunctionsPlan {
                execution: ExecutionMode::Pipelined,
                recovery: RecoveryMode::Decentralized,
                ..f
            },
        );
        assert!(both.key().ends_with(":pl:dc"), "{}", both.key());
    }

    #[test]
    fn default_region_and_tenancy_carry_no_suffix() {
        // Same byte-stability rule for the provider knobs: only a
        // selected region or a spot bid grows a marker, and they
        // compose (region before tenancy).
        let st = stages(&jobs::brain());
        let base = DeploymentPlan::hybrid(&st);
        assert!(!base.key().contains(":@"), "{}", base.key());
        assert!(!base.key().contains(":sp"), "{}", base.key());
        let PlanKind::Functions(f) = base.kind else { unreachable!() };
        let rg = DeploymentPlan::functions(
            "r",
            FunctionsPlan {
                region: Some("gcp-us-central1".into()),
                ..f.clone()
            },
        );
        assert!(rg.key().ends_with(":@gcp-us-central1"), "{}", rg.key());
        let both = DeploymentPlan::functions(
            "b",
            FunctionsPlan {
                region: Some("aws-eu-west-1".into()),
                spot: true,
                ..f.clone()
            },
        );
        assert!(both.key().ends_with(":@aws-eu-west-1:sp"), "{}", both.key());
        let sp = DeploymentPlan::functions("s", FunctionsPlan { spot: true, ..f });
        assert!(sp.key().ends_with(":sp"), "{}", sp.key());
    }

    #[test]
    fn serverless_plan_never_uses_vms() {
        let st = stages(&jobs::brain());
        let PlanKind::Functions(f) = DeploymentPlan::serverless(&st).kind else {
            unreachable!()
        };
        assert!(!f.uses_serverful());
        assert!(f.uses_functions());
    }
}
