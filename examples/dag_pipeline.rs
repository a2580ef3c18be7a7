//! Dataflow execution through the library API.
//!
//! Builds a small diamond-shaped task DAG by hand — load fans out to
//! two parallel branches that join in a final collect — and runs it
//! twice on the FaaS backend: once under classic BSP stage barriers,
//! once dependency-driven ([`ExecutionMode::Pipelined`]), where each
//! task is released the moment its upstream partitions complete. The
//! same scheduler powers the full METASPACE pipeline behind
//! `repro dag <job>`; this example shows the raw [`Dag`] API. Run with:
//!
//! ```text
//! cargo run --release --example dag_pipeline
//! ```

use std::sync::Arc;

use serverful_repro::serverful::{
    run_dag, Backend, CloudEnv, Dag, DagNode, Edge, ExecutionMode, ExecutorConfig,
    FunctionExecutor, MapOptions, Payload, ScriptTask,
};

struct Ctx {
    exec: FunctionExecutor,
}

/// A map node: `tasks` parallel functions of `secs` compute each.
fn node(label: &str, tasks: usize, secs: f64, deps: Vec<Edge>) -> DagNode<Ctx> {
    let name = label.to_owned();
    DagNode {
        label: name.clone(),
        group: None,
        tasks,
        deps,
        launch: Box::new(move |ctx, env, gated| {
            let mut opts = MapOptions::named(name.clone());
            if gated {
                opts = opts.gated();
            }
            let factory = Arc::new(move |_: &Payload| {
                ScriptTask::new()
                    .compute(secs)
                    .finish_value(Payload::U64(0))
                    .boxed()
            });
            Ok(ctx.exec.map_with(env, factory, (0..tasks as u64).map(Payload::U64).collect(), opts))
        }),
    }
}

/// The diamond: load -> {left, right} -> join, with partition-wise
/// edges on the branches and a shuffle edge into the join.
fn diamond() -> Dag<Ctx> {
    let mut dag = Dag::new();
    let load = dag.add_node(node("load", 8, 2.0, vec![]));
    let left = dag.add_node(node("left", 8, 1.5, vec![Edge::one_to_one(load)]));
    let right = dag.add_node(node("right", 8, 0.5, vec![Edge::one_to_one(load)]));
    let _join = dag.add_node(node(
        "join",
        4,
        1.0,
        vec![Edge::all_to_all(left), Edge::all_to_all(right)],
    ));
    dag
}

fn run(mode: ExecutionMode) -> (f64, f64) {
    let mut env = CloudEnv::new_default(42);
    let exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let mut ctx = Ctx { exec };
    let stats = run_dag(&mut env, &mut ctx, diamond(), mode).expect("dag runs");
    println!("{mode}:");
    for n in &stats.nodes {
        println!(
            "  {:<6} {:2} tasks  launched {:7.2}s  finished {:7.2}s",
            n.label,
            n.tasks,
            n.launched_at.as_secs_f64(),
            n.finished_at.as_secs_f64()
        );
    }
    (env.now().as_secs_f64(), env.world().ledger().total())
}

fn main() {
    let (barrier_secs, barrier_usd) = run(ExecutionMode::Barrier);
    let (pipelined_secs, pipelined_usd) = run(ExecutionMode::Pipelined);
    println!("barrier   {barrier_secs:7.2}s  ${barrier_usd:.4}");
    println!("pipelined {pipelined_secs:7.2}s  ${pipelined_usd:.4}");
    println!(
        "speedup   {:.2}x (branches overlap; the join starts as soon as both drain)",
        barrier_secs / pipelined_secs
    );
}
