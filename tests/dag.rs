//! Acceptance and property tests for the dependency-driven DAG
//! executor: pipelined scheduling must respect dependency order on
//! random graphs, stay seed-deterministic, and — the headline — beat
//! barrier execution on the paper's hybrid deployments at equal-or-lower
//! cost, all while the barrier mode keeps the pre-dataflow goldens
//! byte-identical (covered by the untouched `tests/goldens.rs`).
//!
//! Like `tests/properties.rs`, random cases come from seeded [`SimRng`]
//! draws (no crates.io access for `proptest`); failures print the case
//! seed, which reproduces the exact graph.

use std::sync::Arc;

use serverful_repro::bench::render::render_dag;
use serverful_repro::bench::dag_comparison;
use serverful_repro::metaspace::jobs;
use serverful_repro::serverful::{
    fan_in_range, run_dag, Backend, CloudEnv, Dag, DagNode, Edge, ExecutionMode, ExecutorConfig,
    FanIn, FunctionExecutor, MapOptions, Payload, RecoveryMode, ScriptTask,
};
use serverful_repro::simkernel::SimRng;
use serverful_repro::workload::MAX_TASKS_PER_STAGE;

struct Ctx {
    faas: FunctionExecutor,
    vm: FunctionExecutor,
}

impl Ctx {
    /// A FaaS executor and a VM pool on the decentralized recovery
    /// protocol, whose tasks write a completion counter to storage as
    /// they finish.
    fn new(env: &mut CloudEnv) -> Ctx {
        let faas = FunctionExecutor::new(env, Backend::faas(), ExecutorConfig::default());
        let mut cfg = ExecutorConfig::default();
        cfg.standalone.recovery = RecoveryMode::Decentralized;
        let vm = FunctionExecutor::new(env, Backend::vm(), cfg);
        Ctx { faas, vm }
    }
}

/// Builds a random topological DAG of map nodes: every node after the
/// first depends on 1–2 random earlier nodes through a random fan-in
/// shape, with per-node task counts, compute times and executors drawn
/// from the case rng.
fn random_dag(rng: &mut SimRng) -> Dag<Ctx> {
    let mut dag: Dag<Ctx> = Dag::new();
    let nodes = rng.uniform_u64(3, 8) as usize;
    for v in 0..nodes {
        let tasks = rng.uniform_u64(1, 6) as usize;
        let mut deps = Vec::new();
        if v > 0 {
            for _ in 0..rng.uniform_u64(1, 3) {
                let from = rng.uniform_u64(0, v as u64) as usize;
                if deps.iter().any(|e: &Edge| e.from == from) {
                    continue;
                }
                deps.push(Edge {
                    from,
                    fan_in: if rng.uniform_u64(0, 2) == 0 {
                        FanIn::OneToOne
                    } else {
                        FanIn::AllToAll
                    },
                });
            }
        }
        let secs = 0.1 + rng.uniform_u64(0, 10) as f64 / 10.0;
        let on_vm = rng.uniform_u64(0, 2) == 0;
        let label = format!("n{v}");
        dag.add_node(DagNode {
            label: label.clone(),
            group: None,
            tasks,
            deps,
            launch: Box::new(move |ctx, env, gated| {
                let mut opts = MapOptions::named(label.clone());
                if gated {
                    opts = opts.gated();
                }
                let factory = Arc::new(move |_: &Payload| {
                    ScriptTask::new()
                        .compute(secs)
                        .finish_value(Payload::U64(0))
                        .boxed()
                });
                let inputs = (0..tasks as u64).map(Payload::U64).collect();
                let exec = if on_vm { &mut ctx.vm } else { &mut ctx.faas };
                Ok(exec.map_with(env, factory, inputs, opts))
            }),
        });
    }
    dag
}

/// Remembers each node's shape so dependency ranges can be re-derived
/// from the stats alone after the DAG was consumed.
fn shapes(dag: &Dag<Ctx>) -> Vec<(usize, Vec<Edge>)> {
    (0..dag.len())
        .map(|v| (dag.node(v).tasks, dag.node(v).deps.clone()))
        .collect()
}

#[test]
fn pipelined_release_order_respects_random_dag_dependencies() {
    for case in 0..15u64 {
        let seed = 0xDA6 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        let dag = random_dag(&mut rng);
        let shape = shapes(&dag);
        let mut env = CloudEnv::new_default(seed);
        let mut ctx = Ctx::new(&mut env);
        let stats = run_dag(&mut env, &mut ctx, dag, ExecutionMode::Pipelined)
            .unwrap_or_else(|e| panic!("case seed {seed:#x}: pipelined run failed: {e}"));

        for (v, (tasks, deps)) in shape.iter().enumerate() {
            let node = &stats.nodes[v];
            for t in 0..*tasks {
                // The topological-order property: a task is released
                // only after every upstream partition its fan-in shape
                // names was observed complete, and so finishes after
                // them too. `released_at` is the driver's stamp;
                // `done_at` also catches a task started by anything else.
                for e in deps {
                    for u in fan_in_range(e.fan_in, stats.nodes[e.from].tasks, *tasks, t) {
                        let up = stats.nodes[e.from].done_at[u];
                        assert!(
                            node.done_at[t] >= up,
                            "case seed {seed:#x}: node {v} task {t} finished at {:?}, \
                             before upstream {} task {u} at {up:?}",
                            node.done_at[t],
                            e.from
                        );
                        assert!(
                            up <= node.released_at[t],
                            "case seed {seed:#x}: node {v} task {t} released before \
                             upstream {} task {u} completed",
                            e.from
                        );
                    }
                }
                assert!(
                    node.released_at[t] <= node.done_at[t],
                    "case seed {seed:#x}: node {v} task {t} done before release"
                );
            }
            assert!(
                node.finished_at >= *node.done_at.iter().max().expect("non-empty node"),
                "case seed {seed:#x}: node {v} finished before its last task"
            );
        }
    }
}

#[test]
fn barrier_mode_is_a_strict_stage_chain_on_random_dags() {
    for case in 0..10u64 {
        let seed = 0xBA44 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        let dag = random_dag(&mut rng);
        let mut env = CloudEnv::new_default(seed);
        let mut ctx = Ctx::new(&mut env);
        let stats = run_dag(&mut env, &mut ctx, dag, ExecutionMode::Barrier)
            .unwrap_or_else(|e| panic!("case seed {seed:#x}: barrier run failed: {e}"));
        // Each node launches only after the previous one fully drained
        // (the degenerate DAG), regardless of the declared edges.
        for w in stats.nodes.windows(2) {
            assert!(
                w[1].launched_at >= w[0].finished_at,
                "case seed {seed:#x}: barrier overlapped two nodes"
            );
        }
    }
}

#[test]
fn pipelined_smoke_comparison_is_seed_deterministic() {
    let job = jobs::brain();
    let a = render_dag(&dag_comparison(&job, 42, true).expect("smoke run"));
    let b = render_dag(&dag_comparison(&job, 42, true).expect("smoke run"));
    assert_eq!(a, b, "same seed must reproduce the comparison byte-for-byte");
    let c = render_dag(&dag_comparison(&job, 7, true).expect("smoke run"));
    assert_ne!(a, c, "a different seed should perturb the measured run");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn pipelined_hybrid_beats_barrier_on_brain_and_xenograft() {
    for job in [jobs::brain(), jobs::xenograft()] {
        let cmp = dag_comparison(&job, 42, false).expect("full-scale run");
        assert!(
            cmp.pipelined.wall_secs < cmp.barrier.wall_secs,
            "{}: pipelined {:.2}s must strictly beat barrier {:.2}s",
            job.name,
            cmp.pipelined.wall_secs,
            cmp.barrier.wall_secs
        );
        assert!(
            cmp.pipelined.cost_usd <= cmp.barrier.cost_usd + 1e-9,
            "{}: pipelined ${:.4} must not cost more than barrier ${:.4}",
            job.name,
            cmp.pipelined.cost_usd,
            cmp.barrier.cost_usd
        );
    }
}

// The graph types' own invariants: edge constructors, the default mode,
// fan-in block shapes and topological insertion.

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

/// The bound `Workload::validate` relies on without checking it per
/// partition: for any non-empty stages on either side of an edge, every
/// downstream task waits on a non-empty range that ends inside the
/// upstream stage, and the ranges sweep the upstream in order, from its
/// first task to its last, without a gap. Checked for both fan-in shapes
/// on every width pair up to 64 and at the corners of
/// `MAX_TASKS_PER_STAGE`.
#[test]
fn fan_in_ranges_stay_in_bounds_and_sweep_the_upstream_in_order() {
    let max = MAX_TASKS_PER_STAGE;
    let corners = [
        (1, max),
        (max, 1),
        (7, max),
        (max, 7),
        (max - 1, max),
        (max, max - 1),
        (max, max),
    ];
    let grid = (1..=64).flat_map(|up| (1..=64).map(move |down| (up, down)));
    for (up, down) in grid.chain(corners) {
        for fan_in in [FanIn::OneToOne, FanIn::AllToAll] {
            let ctx = format!("{fan_in:?} up={up} down={down}");
            let mut prev: Option<std::ops::Range<usize>> = None;
            for t in 0..down {
                let r = fan_in_range(fan_in, up, down, t);
                assert!(r.start < r.end && r.end <= up, "{ctx} t={t}: range {r:?}");
                match &prev {
                    None => assert_eq!(r.start, 0, "{ctx}: the first range starts past 0"),
                    Some(p) => {
                        assert!(
                            p.start <= r.start && p.end <= r.end,
                            "{ctx} t={t}: range {r:?} steps back from {p:?}"
                        );
                        assert!(r.start <= p.end, "{ctx} t={t}: gap between {p:?} and {r:?}");
                    }
                }
                prev = Some(r);
            }
            assert_eq!(prev.map(|r| r.end), Some(up), "{ctx}: the last range stops short");
        }
    }
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
