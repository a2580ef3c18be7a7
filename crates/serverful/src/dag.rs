//! Dependency-driven dataflow execution over [`CloudEnv`].
//!
//! A [`Dag`] represents a workflow as a task-level dependency graph:
//! node *v*'s partition *p* becomes runnable as soon as its specific
//! upstream partitions complete — not when the whole upstream stage
//! drains. This is Wukong's observation ("In Search of a Fast and
//! Efficient Serverless DAG Engine"): BSP stage barriers make fast
//! partitions idle behind stragglers at every boundary, and a
//! dependency-driven scheduler removes exactly that cost.
//!
//! [`run_dag`] executes a graph in one of two [`ExecutionMode`]s:
//!
//! * [`ExecutionMode::Barrier`] — the classic BSP chain. Node *v* is
//!   launched ungated once node *v*−1 has drained. A barrier is the
//!   *degenerate DAG* (all-to-all edges between consecutive stages
//!   collapsed into whole-job waits), and this mode reproduces the
//!   pre-dataflow executor byte-for-byte: identical world-call sequence,
//!   identical goldens.
//! * [`ExecutionMode::Pipelined`] — every node is launched up front with
//!   its tasks *gated* ([`crate::executor::MapOptions::gated`]), and each
//!   task is released the moment its [`FanIn`]-shaped upstream
//!   dependencies are satisfied. FaaS tasks launch immediately;
//!   serverful tasks enqueue on the already-warm worker pool.
//!
//! Both modes step one [`DagRun`], the per-job state machine the fleet's
//! traffic driver also holds one of per arriving job. [`run_dag`] is one
//! plain loop over [`CloudEnv::pump`]: launch what the mode allows,
//! release ready gated tasks in node then task order, pump one event,
//! then observe every live node in node order. Observing reads only the
//! new entries of a job's completion log ([`JobHandle::completed_tasks`])
//! and collects the job once it finished, so each completion costs the
//! downstream tasks that name it, and nothing costs the whole graph per
//! event. The fixed pass order is what makes the env call sequence,
//! span-id allocation, tables, traces and billing byte-identical across
//! repeat runs.
//!
//! The launch closures own backend choice and input seeding; the DAG
//! only sequences them. See `metaspace::runner` for the full pipeline
//! lowering and `examples/dag_pipeline.rs` for a standalone example.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::env::{CloudEnv, EnvEvent};
use crate::error::ExecError;
use crate::executor::JobHandle;
use simkernel::SimTime;
use telemetry::trace::SpanId;

/// How an edge fans partitions in from its upstream node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanIn {
    /// Task `j` of a width-`m` downstream node depends on the block of
    /// upstream tasks `[j*n/m, max((j+1)*n/m, j*n/m + 1))` of a
    /// width-`n` upstream node. For equal widths this is the identity
    /// mapping (map stages chained partition-to-partition).
    OneToOne,
    /// Every downstream task depends on *every* upstream task (shuffle
    /// edges: sort, segmentation, any repartitioning exchange).
    AllToAll,
}

/// A dependency edge: `from` is the index of an upstream node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the upstream node (must be < the downstream node's).
    pub from: usize,
    /// Fan-in shape of the dependency.
    pub fan_in: FanIn,
}

impl Edge {
    /// A one-to-one (partition-wise) edge from node `from`.
    pub fn one_to_one(from: usize) -> Edge {
        Edge { from, fan_in: FanIn::OneToOne }
    }

    /// An all-to-all (shuffle) edge from node `from`.
    pub fn all_to_all(from: usize) -> Edge {
        Edge { from, fan_in: FanIn::AllToAll }
    }
}

/// The upstream task indices task `t` of a width-`m` downstream node
/// waits on across a `fan_in`-shaped edge from a width-`n` upstream
/// node, as a half-open range.
///
/// # Example
///
/// ```
/// use serverful::dag::{fan_in_range, FanIn};
///
/// // 8 upstream partitions feeding 3 downstream: blocks of ~n/m.
/// assert_eq!(fan_in_range(FanIn::OneToOne, 8, 3, 1), 2..5);
/// assert_eq!(fan_in_range(FanIn::AllToAll, 8, 3, 1), 0..8);
/// ```
pub fn fan_in_range(
    fan_in: FanIn,
    upstream_tasks: usize,
    downstream_tasks: usize,
    t: usize,
) -> std::ops::Range<usize> {
    let n = upstream_tasks;
    match fan_in {
        FanIn::AllToAll => 0..n,
        FanIn::OneToOne => {
            let m = downstream_tasks;
            let lo = t * n / m;
            let hi = ((t + 1) * n / m).max(lo + 1).min(n);
            lo..hi
        }
    }
}

/// Which tasks of a task-level dependency graph may run, fed one
/// completion at a time. [`DagRun`] holds one per job, so both drivers,
/// [`run_dag`] and the fleet's, decide readiness through it, and nothing
/// else releases a gated task, whatever its backend or recovery mode.
///
/// A task's *dependency units* are, per edge into its node, each
/// upstream task of its [`fan_in_range`] block (one-to-one) or the
/// whole upstream node (all-to-all, one unit). A task is ready once
/// every unit is met, which is exactly when every upstream task of every
/// edge's block is done. Feeding a completion costs the downstream tasks
/// that name it; ready tasks wait in a per-node list, handed out in task
/// order, until [`take_ready`](Self::take_ready) takes them.
///
/// # Example
///
/// ```
/// use serverful::dag::{Edge, Readiness};
///
/// // 4 upstream partitions feeding 2 downstream: blocks [0,2) and [2,4).
/// let mut r = Readiness::new([(4, vec![]), (2, vec![Edge::one_to_one(0)])]);
/// assert_eq!(r.next_ready(0), Some(0)); // roots are ready at once
/// r.complete(0, 3);
/// r.complete(0, 2);
/// assert_eq!(r.next_ready(1), Some(1));
/// assert_eq!(r.take_ready(1), Some(1));
/// assert_eq!(r.next_ready(1), None);
/// ```
#[derive(Debug, Clone)]
pub struct Readiness {
    /// Per node, per task: dependency units not met yet.
    unmet: Vec<Vec<usize>>,
    /// Per node, per task: whether its completion was fed.
    done: Vec<Vec<bool>>,
    /// Per node: tasks with every unit met that were not taken yet.
    ready: Vec<BinaryHeap<Reverse<usize>>>,
    /// Per node: the edges out of it.
    out: Vec<Vec<OutEdge>>,
}

/// An edge as its upstream node sees it.
#[derive(Debug, Clone)]
struct OutEdge {
    /// The downstream node.
    to: usize,
    fan_out: FanOut,
}

#[derive(Debug, Clone)]
enum FanOut {
    /// One-to-one: per upstream task, the downstream tasks whose block
    /// holds it (blocks are monotone, so these form a range).
    Blocks(Vec<Range<usize>>),
    /// All-to-all: upstream tasks not done yet; the unit is met at zero.
    Whole { waiting: usize },
}

impl Readiness {
    /// A tracker over nodes given as `(width, edges into the node)`, in
    /// topological order. Nothing is done yet, so exactly the tasks with
    /// no dependency units are ready.
    ///
    /// # Panics
    ///
    /// Panics if an edge points at its own node or a later one.
    pub fn new<E>(nodes: impl IntoIterator<Item = (usize, E)>) -> Readiness
    where
        E: IntoIterator<Item = Edge>,
    {
        let mut r = Readiness {
            unmet: Vec::new(),
            done: Vec::new(),
            ready: Vec::new(),
            out: Vec::new(),
        };
        for (v, (m, deps)) in nodes.into_iter().enumerate() {
            let mut unmet = vec![0; m];
            for e in deps {
                assert!(e.from < v, "edge {} -> {v} is not topological", e.from);
                let n = r.unmet[e.from].len();
                let fan_out = match e.fan_in {
                    FanIn::OneToOne => {
                        let mut readers = vec![0..0; n];
                        for (t, units) in unmet.iter_mut().enumerate() {
                            let block = fan_in_range(FanIn::OneToOne, n, m, t);
                            *units += block.len();
                            for u in block {
                                // `end == 0`: no reader yet.
                                let named_by = &mut readers[u];
                                debug_assert!(named_by.end == 0 || named_by.end == t);
                                if named_by.end == 0 {
                                    named_by.start = t;
                                }
                                named_by.end = t + 1;
                            }
                        }
                        FanOut::Blocks(readers)
                    }
                    FanIn::AllToAll => {
                        if n > 0 {
                            unmet.iter_mut().for_each(|units| *units += 1);
                        }
                        FanOut::Whole { waiting: n }
                    }
                };
                r.out[e.from].push(OutEdge { to: v, fan_out });
            }
            let ready = (0..m).filter(|&t| unmet[t] == 0).map(Reverse).collect();
            r.unmet.push(unmet);
            r.done.push(vec![false; m]);
            r.ready.push(ready);
            r.out.push(Vec::new());
        }
        r
    }

    /// Feeds one task's completion. Feeding a task again is a no-op.
    pub fn complete(&mut self, node: usize, task: usize) {
        if std::mem::replace(&mut self.done[node][task], true) {
            return;
        }
        for edge in &mut self.out[node] {
            let (unmet, ready) = (&mut self.unmet[edge.to], &mut self.ready[edge.to]);
            match &mut edge.fan_out {
                FanOut::Blocks(readers) => {
                    for t in readers[task].clone() {
                        meet(unmet, ready, t);
                    }
                }
                FanOut::Whole { waiting } => {
                    *waiting -= 1;
                    if *waiting == 0 {
                        (0..unmet.len()).for_each(|t| meet(unmet, ready, t));
                    }
                }
            }
        }
    }

    /// Feeds the completion of every task of `node` not fed yet (the
    /// node's whole job drained).
    pub fn complete_node(&mut self, node: usize) {
        for task in 0..self.done[node].len() {
            self.complete(node, task);
        }
    }

    /// The lowest ready task of `node` not taken yet.
    pub fn next_ready(&self, node: usize) -> Option<usize> {
        self.ready[node].peek().map(|&Reverse(t)| t)
    }

    /// Takes [`next_ready`](Self::next_ready): it is handed out once.
    pub fn take_ready(&mut self, node: usize) -> Option<usize> {
        self.ready[node].pop().map(|Reverse(t)| t)
    }

    /// Every ready task of `node` not taken yet, in no particular order.
    pub fn ready(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.ready[node].iter().map(|&Reverse(t)| t)
    }
}

/// Meets one dependency unit of downstream task `t`.
fn meet(unmet: &mut [usize], ready: &mut BinaryHeap<Reverse<usize>>, t: usize) {
    unmet[t] -= 1;
    if unmet[t] == 0 {
        ready.push(Reverse(t));
    }
}

/// One job's task-level DAG while the job is in flight: per node, the
/// launched job, whether it launched gated, how much of its completion
/// log was read and whether it drained, plus the job's [`Readiness`].
/// [`run_dag`] steps one; the fleet's traffic driver clones one from its
/// tenant's template per arrival. When to launch a node, and whether a
/// ready task is admitted, stay the caller's decisions.
#[derive(Debug, Clone)]
pub struct DagRun {
    ready: Readiness,
    /// Per node: the nodes its edges come from.
    upstream: Vec<Vec<usize>>,
    nodes: Vec<NodeRun>,
}

/// One node's state inside a [`DagRun`].
#[derive(Debug, Clone, Default)]
struct NodeRun {
    /// The node's job, once launched.
    handle: Option<JobHandle>,
    /// Whether the job launched with its tasks gated.
    gated: bool,
    /// Entries of the job's completion log fed to the tracker.
    seen: usize,
    /// The job finished and its result was taken.
    drained: bool,
}

impl DagRun {
    /// A job with nothing launched, over nodes given as `(width, edges
    /// into the node)` in topological order.
    ///
    /// # Panics
    ///
    /// Panics if an edge points at its own node or a later one.
    pub fn new<E>(nodes: impl IntoIterator<Item = (usize, E)>) -> DagRun
    where
        E: IntoIterator<Item = Edge>,
    {
        let nodes: Vec<(usize, Vec<Edge>)> = nodes
            .into_iter()
            .map(|(width, deps)| (width, deps.into_iter().collect()))
            .collect();
        DagRun {
            ready: Readiness::new(nodes.iter().map(|(width, deps)| (*width, deps.iter().copied()))),
            upstream: nodes
                .iter()
                .map(|(_, deps)| deps.iter().map(|e| e.from).collect())
                .collect(),
            nodes: vec![NodeRun::default(); nodes.len()],
        }
    }

    /// Records node `v`'s launched job. A gated job's tasks wait for
    /// [`release`](Self::release); an ungated job dispatched every task
    /// at launch, so none of its tasks is ever released or admitted.
    pub fn launch(&mut self, v: usize, handle: JobHandle, gated: bool) {
        debug_assert!(self.nodes[v].handle.is_none(), "node {v} launched twice");
        self.nodes[v] = NodeRun {
            handle: Some(handle),
            gated,
            ..NodeRun::default()
        };
    }

    /// Feeds the tasks node `v`'s job completed since the last look to
    /// the tracker, passing each to `done`. Once the job has finished,
    /// takes its result, marks the node drained and returns the job's
    /// error, if any. A node not launched or already drained is left
    /// alone.
    pub fn observe(
        &mut self,
        env: &mut CloudEnv,
        v: usize,
        mut done: impl FnMut(usize),
    ) -> Result<(), ExecError> {
        let node = &mut self.nodes[v];
        let Some(handle) = node.handle.filter(|_| !node.drained) else {
            return Ok(());
        };
        let log = handle.completed_tasks(env);
        for &t in &log[node.seen..] {
            self.ready.complete(v, t);
            done(t);
        }
        node.seen = log.len();
        let Some(result) = env.try_job_result(handle.id) else {
            return Ok(());
        };
        node.drained = true;
        self.ready.complete_node(v);
        result.map(|_| ())
    }

    /// Releases gated node `v`'s ready tasks in task order for as long
    /// as `admit` allows each one; a refused task stays ready for the
    /// next call. Returns how many were released (none for a node that
    /// is not launched gated, or drained).
    pub fn release(
        &mut self,
        env: &mut CloudEnv,
        v: usize,
        mut admit: impl FnMut(&CloudEnv, usize) -> bool,
    ) -> usize {
        let node = &self.nodes[v];
        let Some(handle) = node.handle.filter(|_| node.gated && !node.drained) else {
            return 0;
        };
        let mut released = 0;
        while let Some(t) = self.ready.next_ready(v) {
            if !admit(env, t) {
                break;
            }
            self.ready.take_ready(v);
            handle.release_task(env, t);
            released += 1;
        }
        released
    }

    /// The first node not launched yet, if any.
    pub fn next_unlaunched(&self) -> Option<usize> {
        self.nodes.iter().position(|n| n.handle.is_none())
    }

    /// Whether node `v`'s job was launched.
    pub fn is_launched(&self, v: usize) -> bool {
        self.nodes[v].handle.is_some()
    }

    /// Whether every node that node `v` has an edge from has drained.
    pub fn upstream_drained(&self, v: usize) -> bool {
        self.upstream[v].iter().all(|&u| self.nodes[u].drained)
    }

    /// Whether node `v`'s job finished and its result was taken.
    pub fn is_complete(&self, v: usize) -> bool {
        self.nodes[v].drained
    }

    /// Whether every node has drained.
    pub fn is_done(&self) -> bool {
        self.nodes.iter().all(|n| n.drained)
    }
}

/// How a DAG's nodes are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// BSP stage barriers: each node blocks until the previous fully
    /// drains. Byte-identical to the pre-dataflow executor.
    #[default]
    Barrier,
    /// Dependency-driven: all nodes submitted gated; tasks released as
    /// their upstream partitions complete.
    Pipelined,
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionMode::Barrier => f.write_str("barrier"),
            ExecutionMode::Pipelined => f.write_str("pipelined"),
        }
    }
}

/// Launches one node's job against the environment. `gated` asks for
/// the submission to withhold task dispatch (Pipelined mode); a Barrier
/// launch passes `false` and the job runs exactly as a plain `map`.
pub type LaunchFn<C> =
    Box<dyn FnMut(&mut C, &mut CloudEnv, bool) -> Result<JobHandle, ExecError>>;

/// One node of the graph: a `map` job plus its dependency edges.
pub struct DagNode<C> {
    /// Display label (reports, trace annotations).
    pub label: String,
    /// Progress group this node belongs to (a pipeline stage may lower
    /// to several nodes — scatter/gather, per-round exchanges).
    pub group: Option<usize>,
    /// Task count the node's job will have (known before launch so
    /// fan-in block ranges can be computed).
    pub tasks: usize,
    /// Upstream dependencies. Every `Edge::from` must point at a node
    /// with a strictly smaller index (topological submission order).
    pub deps: Vec<Edge>,
    /// Submits the node's job.
    pub launch: LaunchFn<C>,
}

/// A workflow graph over a shared driver context `C` (executors, plan
/// parameters — whatever the launch closures need).
pub struct Dag<C> {
    /// Group labels (pipeline stage names), indexed by `DagNode::group`.
    pub groups: Vec<String>,
    nodes: Vec<DagNode<C>>,
}

impl<C> Default for Dag<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> Dag<C> {
    /// An empty graph.
    pub fn new() -> Self {
        Dag { groups: Vec::new(), nodes: Vec::new() }
    }

    /// Registers a progress group (stage) label; returns its index.
    pub fn add_group(&mut self, label: impl Into<String>) -> usize {
        self.groups.push(label.into());
        self.groups.len() - 1
    }

    /// Adds a node; returns its index. Nodes must be added in a
    /// topological order.
    ///
    /// # Panics
    ///
    /// Panics if an edge points at this node or a later one, or if the
    /// node has zero tasks.
    pub fn add_node(&mut self, node: DagNode<C>) -> usize {
        let idx = self.nodes.len();
        assert!(node.tasks > 0, "node {:?} has zero tasks", node.label);
        for e in &node.deps {
            assert!(
                e.from < idx,
                "edge {} -> {} is not topological",
                e.from,
                idx
            );
        }
        self.nodes.push(node);
        idx
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to node `idx` (label, task count, edges).
    pub fn node(&self, idx: usize) -> &DagNode<C> {
        &self.nodes[idx]
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Per-node scheduling telemetry from a [`run_dag`] execution.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// The node's label.
    pub label: String,
    /// The node's group index, if any.
    pub group: Option<usize>,
    /// Task count.
    pub tasks: usize,
    /// When the node's job was submitted.
    pub launched_at: SimTime,
    /// When the node's job fully finished (results collected).
    pub finished_at: SimTime,
    /// When each task was released for dispatch (equals `launched_at`
    /// for every task in Barrier mode).
    pub released_at: Vec<SimTime>,
    /// When each task's completion was observed by the scheduler.
    pub done_at: Vec<SimTime>,
}

/// The result of a DAG execution: per-node stats in node order.
#[derive(Debug, Clone)]
pub struct DagStats {
    /// One entry per node, in submission (topological) order.
    pub nodes: Vec<NodeStats>,
}

/// Executes the graph. Consumes the DAG: each launch closure runs once.
///
/// In [`ExecutionMode::Barrier`] nodes run strictly one after another —
/// the degenerate DAG — reproducing the classic stage-chained executor
/// byte-for-byte (identical storage/compute call sequence, so golden
/// traces are unchanged); every task of a node counts as released at
/// its launch and done when it drains. In [`ExecutionMode::Pipelined`]
/// all nodes submit up front gated and tasks are released as their
/// dependencies complete.
///
/// When tracing is enabled, each group opens a `stage` span covering
/// its nodes; in pipelined mode each job span additionally carries a
/// `deps` attribute naming its upstream nodes (spans parented on DAG
/// edges).
///
/// # Errors
///
/// Propagates the first node failure or a drained (stalled) world.
pub fn run_dag<C>(
    env: &mut CloudEnv,
    ctx: &mut C,
    mut dag: Dag<C>,
    mode: ExecutionMode,
) -> Result<DagStats, ExecError> {
    let gated = mode == ExecutionMode::Pipelined;
    let mut run = DagRun::new(dag.nodes.iter().map(|n| (n.tasks, n.deps.iter().copied())));
    let mut open = vec![SpanId::NONE; dag.groups.len()];
    // One entry per launched node: nodes launch in index order.
    let mut stats: Vec<NodeStats> = Vec::with_capacity(dag.len());
    // Every node below `live` has drained, so the passes skip them.
    let mut live = 0;
    // A Barrier run waits only on whole jobs, and a job's result appears
    // exactly when the env's finished-job count moves.
    let mut finished = env.finished_jobs();
    loop {
        while stats.len() < dag.len() {
            let v = stats.len();
            if !gated && v > 0 && !run.is_complete(v - 1) {
                break;
            }
            stats.push(launch(env, ctx, &mut dag, &mut run, v, gated, &mut open)?);
        }
        let now = env.now();
        for (v, node) in stats.iter_mut().enumerate().skip(live) {
            run.release(env, v, |_, t| {
                node.released_at[t] = now;
                true
            });
        }
        if live == dag.len() {
            return Ok(DagStats { nodes: stats });
        }
        if matches!(env.pump(), EnvEvent::Drained) {
            let stuck: Vec<&str> = stats
                .iter()
                .enumerate()
                .filter(|&(v, _)| !run.is_complete(v))
                .map(|(_, node)| node.label.as_str())
                .collect();
            return Err(ExecError::Stalled(format!(
                "simulation drained with DAG nodes unfinished: {}",
                stuck.join(", ")
            )));
        }
        if !gated && env.finished_jobs() == finished {
            continue;
        }
        finished = env.finished_jobs();
        // Observe every node before releasing any; the first failure
        // ends the pass and the run.
        let now = env.now();
        for (v, node) in stats.iter_mut().enumerate().skip(live) {
            if run.is_complete(v) {
                continue;
            }
            let result = run.observe(env, v, |t| node.done_at[t] = now);
            if run.is_complete(v) {
                node.finished_at = now;
                if !gated {
                    node.done_at.fill(now);
                }
                maybe_end_group_span(env, &dag, v, &mut open);
            }
            result?;
        }
        while live < stats.len() && run.is_complete(live) {
            live += 1;
        }
    }
}

/// Launches node `v` under its group's span and records it in `run`: a
/// gated job span names its upstream nodes. Returns the node's stats,
/// stamped at launch.
fn launch<C>(
    env: &mut CloudEnv,
    ctx: &mut C,
    dag: &mut Dag<C>,
    run: &mut DagRun,
    v: usize,
    gated: bool,
    open: &mut [SpanId],
) -> Result<NodeStats, ExecError> {
    maybe_begin_group_span(env, dag, v, open);
    if let Some(g) = dag.nodes[v].group {
        env.set_job_parent(open[g]);
    }
    let launched_at = env.now();
    let handle = (dag.nodes[v].launch)(ctx, env, gated)?;
    env.set_job_parent(SpanId::NONE);
    let node = &dag.nodes[v];
    let tasks = handle.total_tasks(env);
    if gated {
        debug_assert_eq!(
            tasks, node.tasks,
            "node {} declared {} tasks but launched {}",
            node.label, node.tasks, tasks
        );
        if !node.deps.is_empty() {
            let deps: Vec<&str> = node
                .deps
                .iter()
                .map(|e| dag.nodes[e.from].label.as_str())
                .collect();
            env.annotate_job_span(handle.id, "deps", &deps.join(","));
        }
    }
    run.launch(v, handle, gated);
    let released_at = if gated { SimTime::ZERO } else { launched_at };
    Ok(NodeStats {
        label: node.label.clone(),
        group: node.group,
        tasks,
        launched_at,
        finished_at: launched_at,
        released_at: vec![released_at; tasks],
        done_at: vec![SimTime::ZERO; tasks],
    })
}

/// Begins the trace span of a group when `node` is its first member.
fn maybe_begin_group_span<C>(env: &mut CloudEnv, dag: &Dag<C>, node: usize, open: &mut [SpanId]) {
    let Some(g) = dag.nodes[node].group else {
        return;
    };
    if !env.tracing_enabled() || open[g] != SpanId::NONE {
        return;
    }
    let first = dag.nodes.iter().position(|n| n.group == Some(g));
    if first != Some(node) {
        return;
    }
    let now = env.now();
    let name = dag.groups[g].clone();
    let span = env
        .world_mut()
        .tracer_mut()
        .begin(now, &name, "stage", "pipeline", SpanId::NONE);
    open[g] = span;
}

/// Ends a group's span once its last member node finished.
fn maybe_end_group_span<C>(env: &mut CloudEnv, dag: &Dag<C>, node: usize, open: &mut [SpanId]) {
    let Some(g) = dag.nodes[node].group else {
        return;
    };
    if open[g] == SpanId::NONE {
        return;
    }
    let last = dag.nodes.iter().rposition(|n| n.group == Some(g));
    if last != Some(node) {
        return;
    }
    let now = env.now();
    env.world_mut().tracer_mut().end(open[g], now);
    open[g] = SpanId::NONE;
}
