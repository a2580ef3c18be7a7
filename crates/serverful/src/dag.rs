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
//! * [`ExecutionMode::Barrier`] — the classic BSP chain. Nodes run one
//!   at a time in submission order; each blocks until fully drained.
//!   A barrier is the *degenerate DAG* (all-to-all edges between
//!   consecutive stages collapsed into whole-job waits), and this mode
//!   reproduces the pre-dataflow executor byte-for-byte: identical
//!   world-call sequence, identical goldens.
//! * [`ExecutionMode::Pipelined`] — every node is submitted up front
//!   with its tasks *gated* ([`crate::executor::MapOptions::gated`]);
//!   the scheduler pumps the environment and releases each task the
//!   moment its [`FanIn`]-shaped upstream dependencies are satisfied.
//!   FaaS tasks launch immediately; serverful tasks enqueue on the
//!   already-warm worker pool.
//!
//! Both modes are plain loops over [`CloudEnv::pump`]. Pipelined mode
//! follows every pumped event with an *observe* pass over the nodes in
//! submission order, which reads only the new entries of each job's
//! completion log ([`JobHandle::completed_tasks`]) and collects finished
//! jobs, and then a *release* pass that hands out the tasks a
//! [`Readiness`] tracker found ready, in node then task order. Each
//! completion costs the downstream tasks that name it, and nothing costs
//! the whole graph per event. The fixed pass order is what makes the env
//! call sequence, span-id allocation, tables, traces and billing
//! byte-identical across repeat runs.
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
/// completion at a time. Both pipelined drivers, [`run_dag`] and the
/// fleet's, decide readiness through it, and nothing else releases a
/// gated task, whatever its backend or recovery mode.
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
/// traces are unchanged). In [`ExecutionMode::Pipelined`] all nodes
/// submit up front gated and tasks are released as their dependencies
/// complete.
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
    dag: Dag<C>,
    mode: ExecutionMode,
) -> Result<DagStats, ExecError> {
    match mode {
        ExecutionMode::Barrier => run_barrier(env, ctx, dag),
        ExecutionMode::Pipelined => run_pipelined(env, ctx, dag),
    }
}

fn run_barrier<C>(env: &mut CloudEnv, ctx: &mut C, mut dag: Dag<C>) -> Result<DagStats, ExecError> {
    let mut open = vec![SpanId::NONE; dag.groups.len()];
    let mut nodes = Vec::with_capacity(dag.len());
    for v in 0..dag.len() {
        maybe_begin_group_span(env, &dag, v, &mut open);
        if let Some(g) = dag.nodes[v].group {
            env.set_job_parent(open[g]);
        }
        let launched_at = env.now();
        let handle = (dag.nodes[v].launch)(ctx, env, false)?;
        let tasks = handle.total_tasks(env);
        // The barrier: pump until the node drains completely.
        let result = env.run_job(handle.id);
        env.set_job_parent(SpanId::NONE);
        maybe_end_group_span(env, &dag, v, &mut open);
        result?;
        let finished_at = env.now();
        nodes.push(NodeStats {
            label: dag.nodes[v].label.clone(),
            group: dag.nodes[v].group,
            tasks,
            launched_at,
            finished_at,
            released_at: vec![launched_at; tasks],
            done_at: vec![finished_at; tasks],
        });
    }
    Ok(DagStats { nodes })
}

/// Scheduling state of one submitted node in pipelined mode.
struct Live {
    handle: JobHandle,
    stats: NodeStats,
    /// Entries of the job's completion log observed so far.
    seen: usize,
    complete: bool,
}

fn run_pipelined<C>(
    env: &mut CloudEnv,
    ctx: &mut C,
    mut dag: Dag<C>,
) -> Result<DagStats, ExecError> {
    let mut open = vec![SpanId::NONE; dag.groups.len()];
    let mut live: Vec<Live> = Vec::with_capacity(dag.len());
    for v in 0..dag.len() {
        maybe_begin_group_span(env, &dag, v, &mut open);
        if let Some(g) = dag.nodes[v].group {
            env.set_job_parent(open[g]);
        }
        let launched_at = env.now();
        let handle = (dag.nodes[v].launch)(ctx, env, true)?;
        env.set_job_parent(SpanId::NONE);
        let node = &dag.nodes[v];
        let tasks = handle.total_tasks(env);
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
        live.push(Live {
            handle,
            stats: NodeStats {
                label: node.label.clone(),
                group: node.group,
                tasks,
                launched_at,
                finished_at: launched_at,
                released_at: vec![SimTime::ZERO; tasks],
                done_at: vec![SimTime::ZERO; tasks],
            },
            seen: 0,
            complete: false,
        });
    }

    let mut ready = Readiness::new(dag.nodes.iter().map(|n| (n.tasks, n.deps.iter().copied())));
    release_ready(env, &mut ready, &mut live);
    loop {
        if live.iter().all(|l| l.complete) {
            return Ok(DagStats {
                nodes: live.into_iter().map(|l| l.stats).collect(),
            });
        }
        if matches!(env.pump(), EnvEvent::Drained) {
            let stuck: Vec<&str> = live
                .iter()
                .filter(|l| !l.complete)
                .map(|l| l.stats.label.as_str())
                .collect();
            return Err(ExecError::Stalled(format!(
                "simulation drained with DAG nodes unfinished: {}",
                stuck.join(", ")
            )));
        }
        // Observe every node before releasing any; the first failure
        // ends the pass and the run.
        for (v, l) in live.iter_mut().enumerate() {
            if !l.complete {
                observe(env, &dag, v, l, &mut ready, &mut open)?;
            }
        }
        release_ready(env, &mut ready, &mut live);
    }
}

/// Stamps node `v`'s newly completed tasks and feeds them to the
/// tracker; collects its job when it finishes (ending the group span on
/// the group's last member).
fn observe<C>(
    env: &mut CloudEnv,
    dag: &Dag<C>,
    v: usize,
    l: &mut Live,
    ready: &mut Readiness,
    open: &mut [SpanId],
) -> Result<(), ExecError> {
    let now = env.now();
    let log = l.handle.completed_tasks(env);
    for &t in &log[l.seen..] {
        l.stats.done_at[t] = now;
        ready.complete(v, t);
    }
    l.seen = log.len();
    if !l.handle.is_finished(env) {
        return Ok(());
    }
    let result = env
        .try_job_result(l.handle.id)
        .expect("finished job yields a result");
    l.complete = true;
    l.stats.finished_at = now;
    maybe_end_group_span(env, dag, v, open);
    result.map(|_| ())
}

/// Releases, in node then task order, every gated task whose upstream
/// partitions are done.
fn release_ready(env: &mut CloudEnv, ready: &mut Readiness, live: &mut [Live]) {
    let now = env.now();
    for (v, l) in live.iter_mut().enumerate() {
        if l.complete {
            continue;
        }
        while let Some(t) = ready.take_ready(v) {
            l.stats.released_at[t] = now;
            l.handle.release_task(env, t);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_constructors() {
        assert_eq!(Edge::one_to_one(3), Edge { from: 3, fan_in: FanIn::OneToOne });
        assert_eq!(Edge::all_to_all(0), Edge { from: 0, fan_in: FanIn::AllToAll });
    }

    #[test]
    fn execution_mode_defaults_to_barrier() {
        assert_eq!(ExecutionMode::default(), ExecutionMode::Barrier);
        assert_eq!(ExecutionMode::Barrier.to_string(), "barrier");
        assert_eq!(ExecutionMode::Pipelined.to_string(), "pipelined");
    }

    fn leaf(label: &str, tasks: usize, deps: Vec<Edge>) -> DagNode<()> {
        DagNode {
            label: label.into(),
            group: None,
            tasks,
            deps,
            launch: Box::new(|_, _, _| unreachable!("never launched in this test")),
        }
    }

    #[test]
    fn one_to_one_block_mapping_covers_all_upstream_tasks() {
        // Upstream 8 tasks, downstream 3: blocks [0,2) [2,5) [5,8).
        let ranges: Vec<_> = (0..3)
            .map(|t| fan_in_range(FanIn::OneToOne, 8, 3, t))
            .collect();
        assert_eq!(ranges, vec![0..2, 2..5, 5..8]);
        // Every upstream task is covered.
        let covered: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(covered, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn one_to_one_widening_maps_each_downstream_to_one_upstream() {
        // Upstream 2 tasks, downstream 6: each downstream task waits on
        // exactly one upstream partition.
        let owners: Vec<_> = (0..6)
            .map(|t| fan_in_range(FanIn::OneToOne, 2, 6, t))
            .collect();
        assert_eq!(owners, vec![0..1, 0..1, 0..1, 1..2, 1..2, 1..2]);
    }

    #[test]
    fn all_to_all_spans_the_whole_upstream() {
        assert_eq!(fan_in_range(FanIn::AllToAll, 5, 2, 0), 0..5);
        assert_eq!(fan_in_range(FanIn::AllToAll, 5, 2, 1), 0..5);
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn forward_edges_are_rejected() {
        let mut dag: Dag<()> = Dag::new();
        dag.add_node(leaf("a", 1, vec![Edge::one_to_one(0)]));
    }
}
