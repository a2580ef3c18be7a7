//! What-if deployment planning on a toy stage graph.
//!
//! Builds a three-stage pipeline (ingest → shuffle-sort → score), hands
//! it to the planner, and searches the full deployment space — every
//! stage-to-backend assignment, fleet size and host choice — printing
//! the Pareto frontier and the winner under each objective. The same
//! machinery powers `repro plan <job>`; this example shows the library
//! API on a workload that is *not* one of the paper's Table 2 jobs.
//! Run with:
//!
//! ```text
//! cargo run --release --example plan_search
//! ```

use serverful_repro::metaspace::{Stage, StageKind, Workload};
use serverful_repro::planner::{search, Evaluator, Objective, SearchConfig, SearchSpace};
use serverful_repro::serverful::FanIn;

/// A small ETL-ish pipeline: a wide stateless ingest, a stateful
/// exchange that must fit somewhere, and a cheap stateless scoring
/// pass over the sorted output, each stage all-to-all after the one
/// before.
fn toy_workload() -> Workload {
    Workload::builder("toy-etl")
        .stage(
            Stage {
                name: "ingest".into(),
                tasks: 64,
                cpu_secs_per_task: 2.0,
                read_mb_per_task: 48.0,
                write_mb_per_task: 24.0,
                kind: StageKind::Stateless {
                    read_spread: 4,
                    write_spread: 4,
                },
            },
            &[],
        )
        .stage(
            Stage {
                name: "shuffle-sort".into(),
                tasks: 32,
                cpu_secs_per_task: 3.0,
                read_mb_per_task: 0.0,
                write_mb_per_task: 0.0,
                kind: StageKind::Stateful { exchange_gb: 1.5 },
            },
            &[("ingest", FanIn::AllToAll)],
        )
        .stage(
            Stage {
                name: "score".into(),
                tasks: 64,
                cpu_secs_per_task: 1.0,
                read_mb_per_task: 24.0,
                write_mb_per_task: 4.0,
                kind: StageKind::Stateless {
                    read_spread: 4,
                    write_spread: 1,
                },
            },
            &[("shuffle-sort", FanIn::AllToAll)],
        )
        .build()
        .expect("the toy pipeline is valid")
}

fn main() {
    let w = toy_workload();
    let evaluator = Evaluator::for_workload(&w, 42);
    let space = SearchSpace::standard(&w.stages);

    let cfg = SearchConfig {
        objective: Objective::Pareto,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..SearchConfig::default()
    };
    let report = search(&evaluator, &space, &cfg);

    println!(
        "searched {} of {} candidate plans ({}), {} failed",
        report.evaluated,
        report.space_size,
        if report.exhaustive {
            "exhaustive grid"
        } else {
            "beam search"
        },
        report.failed,
    );

    println!("\nPareto frontier (cost vs makespan):");
    for p in report.frontier.points() {
        println!(
            "  {:<52} ${:.4}  {:>8.2}s",
            p.plan.key(),
            p.cost_usd,
            p.makespan_secs
        );
    }

    // Re-rank the same outcomes under each single objective: the search
    // is one pass, the objectives are just sort orders over it.
    for objective in [Objective::Cost, Objective::Latency] {
        let best = report
            .ranked
            .iter()
            .min_by(|a, b| objective.rank(a, b))
            .expect("non-empty space");
        println!(
            "\nbest plan ({objective}): {} (${:.4}, {:.2}s)",
            best.plan.key(),
            best.cost_usd,
            best.makespan_secs
        );
    }
}
