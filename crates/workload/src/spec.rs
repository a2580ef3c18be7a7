//! Core workload types: stages, edges, the [`Workload`] graph,
//! validation and deterministic scaling.

use std::fmt;

use serverful::FanIn;

/// A dependency of one stage on an earlier stage, with the fan-in shape
/// the DAG scheduler uses to release downstream partitions: one-to-one
/// for map-chained stages (partition `p` only needs its own upstream
/// block), all-to-all for sort/segmentation shuffles (every downstream
/// partition needs the whole upstream stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEdge {
    /// Index of the upstream stage in the stage list.
    pub from: usize,
    /// Fan-in shape of the dependency.
    pub fan_in: FanIn,
}

impl StageEdge {
    /// A partition-wise edge from stage `from`.
    pub fn one_to_one(from: usize) -> StageEdge {
        StageEdge { from, fan_in: FanIn::OneToOne }
    }

    /// A shuffle edge from stage `from`.
    pub fn all_to_all(from: usize) -> StageEdge {
        StageEdge { from, fan_in: FanIn::AllToAll }
    }
}

/// How a stage moves data.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// Embarrassingly parallel: tasks read their input slice, compute,
    /// write their output. Reads/writes spread across this many
    /// top-level storage prefixes.
    Stateless {
        /// Distinct top-level prefixes the reads spread over.
        read_spread: usize,
        /// Distinct top-level prefixes the writes spread over.
        write_spread: usize,
    },
    /// Sort/partition: an all-to-all exchange of `exchange_gb`. On cloud
    /// functions the exchange crosses object storage (one contended
    /// prefix); on the serverful backend it stays in the master VM's
    /// memory; on the cluster it crosses the executors' NICs.
    Stateful {
        /// Total bytes exchanged all-to-all, GB.
        exchange_gb: f64,
    },
}

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name.
    pub name: String,
    /// Parallel tasks (a stage's elasticity bar height).
    pub tasks: usize,
    /// CPU-seconds per task.
    pub cpu_secs_per_task: f64,
    /// MB each task reads from object storage.
    pub read_mb_per_task: f64,
    /// MB each task writes to object storage.
    pub write_mb_per_task: f64,
    /// Data-movement behaviour.
    pub kind: StageKind,
}

impl Stage {
    /// Whether the stage is a stateful operation.
    pub fn is_stateful(&self) -> bool {
        matches!(self.kind, StageKind::Stateful { .. })
    }

    /// Total CPU-seconds across tasks.
    pub fn total_cpu_secs(&self) -> f64 {
        self.tasks as f64 * self.cpu_secs_per_task
    }
}

/// The most CPU-seconds one task may declare: about 42× the largest
/// bundled value (mlpipe's 240 s `train` tasks). Run time grows linearly
/// with declared CPU time: on a 2-vCPU box, terasort-small with
/// `cpu_secs=1e5` on its `validate` stage runs at full scale in about
/// 0.13 s and with 1e6 in about 1.3 s, so 1e9 would take over 20
/// minutes. At the cap, Xenograft with its 2,006-task `annotate` stage
/// runs in under a second. Far past it, a task's compute time would
/// overflow the simulator's clock.
pub const MAX_CPU_SECS_PER_TASK: f64 = 1e4;

/// The most tasks one stage may declare: about 5× the largest bundled
/// stage (Xenograft's 2,006). Every task is simulated individually and
/// shares the storage data plane with the stage's other flows, so run
/// time grows faster than the count: on a 2-vCPU box, terasort-small
/// with a 10,000-task `gen` stage runs at full scale in about 6 s, and
/// with 100,000 tasks for over a minute. Far past the cap, a mistyped
/// count would abort the run on allocation.
pub const MAX_TASKS_PER_STAGE: usize = 10_000;

/// The most megabytes one task may read: about 6.5× the largest bundled
/// value (1,536). Transfers move through the storage data plane in
/// pieces, so run time grows with the volume: on a 2-vCPU box,
/// terasort-small with `read_mb=1e8` on its `validate` stage runs at
/// full scale in about 2 s, and with 1e308 it never ends.
pub const MAX_READ_MB_PER_TASK: f64 = 1e4;

/// The most megabytes one task may write: about 4× the largest bundled
/// value (512), for the same reason as [`MAX_READ_MB_PER_TASK`].
pub const MAX_WRITE_MB_PER_TASK: f64 = 2e3;

/// The most gigabytes one stateful stage may exchange: 4× the largest
/// bundled value (terasort-large's 50). Run time grows with the volume:
/// terasort-small with `exchange_gb=1e4` on its `sort` stage runs at
/// full scale in about 8 s on a 2-vCPU box.
pub const MAX_EXCHANGE_GB_PER_STAGE: f64 = 200.0;

/// The fewest gigabytes one stateful stage may exchange, and the floor
/// [`Workload::scaled`] keeps an exchange at: 5 MB, 40× below the
/// smallest bundled value (0.2 GB). The stage's CPU budget is charged
/// per exchanged byte, so a tiny exchange packs it into a few bytes.
/// On a 2-vCPU box, terasort-small at full scale with `exchange_gb=1e-6`
/// on its `sort` stage (40 B per task) runs in 0.15 s and with `1e-7`
/// in 3.6 s; `1e-9` ran past 15 s, and `1e-12` panicked on a negative
/// compute time. At [`MAX_TASKS_PER_STAGE`] tasks the floor still
/// leaves 500 B per task.
pub const MIN_EXCHANGE_GB_PER_STAGE: f64 = 0.005;

/// A validation failure: why a [`Workload`] is not schedulable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError(pub String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid workload: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

/// Fewest tasks a stage keeps under [`Workload::scaled`]: two, so every
/// scaled stage still exercises parallel dispatch (and none rounds to a
/// zero-task stage, which could never be released).
const MIN_SCALED_TASKS: usize = 2;

/// A named stage-DAG workload description: the stage list plus one
/// dependency list per stage, aligned index-for-index.
///
/// Construct via [`Workload::builder`], [`crate::dsl::parse`], or a
/// bundled family in [`crate::families`]/[`crate::catalog`]; check
/// with [`Workload::validate`] before compiling it to an executor DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (a single whitespace-free token).
    pub name: String,
    /// The stages, in topological order.
    pub stages: Vec<Stage>,
    /// Dependencies of each stage, aligned with `stages`. Entry `i`
    /// lists the edges *into* stage `i`; an empty entry makes the stage
    /// a root. Every `from` must be `< i`.
    pub edges: Vec<Vec<StageEdge>>,
}

fn token_ok(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_graphic() && c != '#')
}

impl Workload {
    /// Starts a [`WorkloadBuilder`] with the given name.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder {
            name: name.into(),
            stages: Vec::new(),
            deps: Vec::new(),
        }
    }

    /// Checks the description is schedulable: topological (acyclic)
    /// edges without duplicates, unique token-safe names, and sane
    /// resource numbers (at most [`MAX_TASKS_PER_STAGE`] tasks per stage,
    /// [`MAX_CPU_SECS_PER_TASK`] CPU-seconds, [`MAX_READ_MB_PER_TASK`] MB
    /// read and [`MAX_WRITE_MB_PER_TASK`] MB written per task, and from
    /// [`MIN_EXCHANGE_GB_PER_STAGE`] to [`MAX_EXCHANGE_GB_PER_STAGE`] GB
    /// exchanged per stage).
    ///
    /// No check visits a task, so the cost is O(stages + edges) beside
    /// the pairwise name and sibling-edge comparisons. Fan-in needs no
    /// per-partition check: with a task in every stage and every edge
    /// from an earlier stage, each [`FanIn`] range is non-empty and ends
    /// inside the upstream stage, for any two widths.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |m: String| Err(ValidateError(m));
        if !token_ok(&self.name) {
            return err(format!(
                "workload name {:?} must be a non-empty token of printable ASCII without spaces or '#'",
                self.name
            ));
        }
        if self.stages.is_empty() {
            return err("workload has no stages".into());
        }
        if self.edges.len() != self.stages.len() {
            return err(format!(
                "{} stages but {} edge lists; they must align index-for-index",
                self.stages.len(),
                self.edges.len()
            ));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if !token_ok(&s.name) {
                return err(format!("stage {i} name {:?} is not a valid token", s.name));
            }
            if self.stages[..i].iter().any(|p| p.name == s.name) {
                return err(format!("duplicate stage name {:?}", s.name));
            }
            if s.tasks == 0 {
                return err(format!("stage {:?} has zero tasks", s.name));
            }
            if s.tasks > MAX_TASKS_PER_STAGE {
                return err(format!(
                    "stage {:?} tasks = {} (must be at most {MAX_TASKS_PER_STAGE})",
                    s.name, s.tasks
                ));
            }
            for (label, v, max) in [
                ("cpu_secs", s.cpu_secs_per_task, MAX_CPU_SECS_PER_TASK),
                ("read_mb", s.read_mb_per_task, MAX_READ_MB_PER_TASK),
                ("write_mb", s.write_mb_per_task, MAX_WRITE_MB_PER_TASK),
            ] {
                if !v.is_finite() || v < 0.0 {
                    return err(format!("stage {:?} {label} = {v} (must be finite and >= 0)", s.name));
                }
                if v > max {
                    return err(format!(
                        "stage {:?} {label} = {v:e} (must be at most {max:e} per task)",
                        s.name
                    ));
                }
            }
            match s.kind {
                StageKind::Stateless { read_spread, write_spread } => {
                    if read_spread == 0 || write_spread == 0 {
                        return err(format!("stage {:?} has a zero storage spread", s.name));
                    }
                }
                StageKind::Stateful { exchange_gb } => {
                    if !exchange_gb.is_finite() || exchange_gb < MIN_EXCHANGE_GB_PER_STAGE {
                        return err(format!(
                            "stage {:?} exchange_gb = {exchange_gb:e} (must be finite and at \
                             least {MIN_EXCHANGE_GB_PER_STAGE:e})",
                            s.name
                        ));
                    }
                    if exchange_gb > MAX_EXCHANGE_GB_PER_STAGE {
                        return err(format!(
                            "stage {:?} exchange_gb = {exchange_gb:e} (must be at most \
                             {MAX_EXCHANGE_GB_PER_STAGE:e} per stage)",
                            s.name
                        ));
                    }
                }
            }
        }
        for (i, deps) in self.edges.iter().enumerate() {
            for (d, e) in deps.iter().enumerate() {
                if e.from >= i {
                    return err(format!(
                        "edge into stage {:?} from index {} is not topological (must come from an earlier stage)",
                        self.stages[i].name, e.from
                    ));
                }
                if deps[..d].iter().any(|p| p.from == e.from) {
                    return err(format!(
                        "stage {:?} has duplicate edges from {:?}",
                        self.stages[i].name, self.stages[e.from].name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Down-scales the workload: task counts and exchange volumes
    /// multiplied by `scale`, per-task work unchanged. Every stage keeps
    /// at least two tasks and every exchange at least
    /// [`MIN_EXCHANGE_GB_PER_STAGE`], so smoke tests and fleet tenants
    /// run the same *shape* at tractable volume.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < scale <= 1`.
    pub fn scaled(&self, scale: f64) -> Workload {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let stages = self
            .stages
            .iter()
            .cloned()
            .map(|mut s| {
                s.tasks = ((s.tasks as f64 * scale).round() as usize).max(MIN_SCALED_TASKS);
                if let StageKind::Stateful { exchange_gb } = s.kind {
                    s.kind = StageKind::Stateful {
                        exchange_gb: (exchange_gb * scale).max(MIN_EXCHANGE_GB_PER_STAGE),
                    };
                }
                s
            })
            .collect();
        Workload {
            name: self.name.clone(),
            stages,
            edges: self.edges.clone(),
        }
    }

    /// The edges flattened to `(from, to)` stage-index pairs, in
    /// downstream order — the shape the telemetry report helpers
    /// (`stage_overlaps`, `critical_path`) consume.
    pub fn edge_pairs(&self) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(to, deps)| deps.iter().map(move |e| (e.from, to)))
            .collect()
    }

    /// Total CPU-seconds across all stages.
    pub fn total_cpu_secs(&self) -> f64 {
        self.stages.iter().map(Stage::total_cpu_secs).sum()
    }
}

/// Incrementally builds a [`Workload`], resolving dependency names to
/// stage indices at [`WorkloadBuilder::build`] time.
///
/// # Example
///
/// ```
/// use serverful::FanIn;
/// use workload::{Stage, StageKind, Workload};
///
/// let w = Workload::builder("toy")
///     .stage(
///         Stage {
///             name: "gen".into(),
///             tasks: 4,
///             cpu_secs_per_task: 1.0,
///             read_mb_per_task: 0.0,
///             write_mb_per_task: 64.0,
///             kind: StageKind::Stateless { read_spread: 4, write_spread: 4 },
///         },
///         &[],
///     )
///     .stage(
///         Stage {
///             name: "sort".into(),
///             tasks: 4,
///             cpu_secs_per_task: 2.0,
///             read_mb_per_task: 0.0,
///             write_mb_per_task: 0.0,
///             kind: StageKind::Stateful { exchange_gb: 0.25 },
///         },
///         &[("gen", FanIn::AllToAll)],
///     )
///     .build()
///     .unwrap();
/// assert_eq!(w.stages.len(), 2);
/// assert_eq!(w.edges[1][0].from, 0);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    name: String,
    stages: Vec<Stage>,
    deps: Vec<Vec<(String, FanIn)>>,
}

impl WorkloadBuilder {
    /// Appends a stage with dependencies on earlier stages by name.
    pub fn stage(mut self, stage: Stage, deps: &[(&str, FanIn)]) -> Self {
        self.stages.push(stage);
        self.deps
            .push(deps.iter().map(|&(n, f)| (n.to_owned(), f)).collect());
        self
    }

    /// Resolves dependency names and validates the finished workload.
    pub fn build(self) -> Result<Workload, ValidateError> {
        let mut edges = Vec::with_capacity(self.stages.len());
        for deps in &self.deps {
            let mut list = Vec::with_capacity(deps.len());
            for (name, fan_in) in deps {
                let from = self
                    .stages
                    .iter()
                    .position(|s| &s.name == name)
                    .ok_or_else(|| {
                        ValidateError(format!("dependency on unknown stage {name:?}"))
                    })?;
                list.push(StageEdge { from, fan_in: *fan_in });
            }
            edges.push(list);
        }
        let w = Workload {
            name: self.name,
            stages: self.stages,
            edges,
        };
        w.validate()?;
        Ok(w)
    }
}
