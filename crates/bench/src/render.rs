//! Text rendering of every table and figure, shared by the `repro`
//! binary and the golden-table regression suite.
//!
//! Each `render_*` function returns exactly what `repro <what>` prints
//! (heading included), so goldens snapshot the user-visible output.

use metaspace::{jobs, pipeline, run_workload, Architecture, DeploymentPlan, TraceOutput};
use planner::{Objective, SearchReport};
use telemetry::report::bar_chart;
use telemetry::{
    critical_path, dag_stage_table, plan_comparison, workload_table, PaperRow, PlanRow,
    StageWindow, Table, WorkloadRow,
};

use crate::{
    fig2, fig5, table1, table2, table3, table4, DagComparison, Table4Row, WorkloadComparison,
    FIG4_PAPER_RATIO, FIG5_PAPER_COST_RATIO, FIG5_PAPER_SPEEDUP, TABLE1_PAPER, TABLE3_PAPER,
    TABLE4_PAPER,
};

fn heading(out: &mut String, title: &str) {
    out.push_str(&format!("\n=== {title} ===\n"));
}

/// Renders Table 1.
pub fn render_table1(seed: u64) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Table 1: 100 x 5 s CPU-bound map across services (incl. (de)provisioning)",
    );
    let t = table1(seed);
    let mut table = Table::new(["Service", "Paper", "Measured"]);
    table.row([
        "AWS Lambda".to_owned(),
        format!("{:.2} s", TABLE1_PAPER.lambda_secs),
        format!("{:.2} s", t.lambda_secs),
    ]);
    table.row([
        "AWS EC2 (m6a.32xlarge)".to_owned(),
        format!("{:.2} s", TABLE1_PAPER.ec2_secs),
        format!("{:.2} s", t.ec2_secs),
    ]);
    table.row([
        "AWS EMR Serverless".to_owned(),
        format!("{:.2} s", TABLE1_PAPER.emr_secs),
        format!("{:.2} s", t.emr_secs),
    ]);
    out.push_str(&table.to_string());
    out
}

/// Renders Table 2.
pub fn render_table2() -> String {
    let mut out = String::new();
    heading(&mut out, "Table 2: METASPACE job setups");
    let mut table = Table::new([
        "Job",
        "Dataset (GB)",
        "Database (#formulas)",
        "Max volume (GB)",
    ]);
    for job in table2() {
        table.row([
            job.name.to_owned(),
            format!("{:.2}", job.dataset_gb),
            format!("{}k", job.db_formulas / 1000),
            format!("{:.2}", job.max_volume_gb),
        ]);
    }
    out.push_str(&table.to_string());
    out
}

/// Renders Table 3.
pub fn render_table3(seed: u64) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Table 3: CPU usage, Xenograft (cloud functions vs Spark), percent",
    );
    let t = table3(seed);
    let cf = t.cloud_functions;
    let sp = t.spark;
    let measured = [
        ("average", cf.average, sp.average),
        ("std-dev", cf.std_dev, sp.std_dev),
        ("maximum", cf.max, sp.max),
        ("minimum", cf.min, sp.min),
        ("stateful-average", cf.stateful_average, sp.stateful_average),
    ];
    let mut table = Table::new([
        "Metric",
        "CF paper",
        "CF measured",
        "Spark paper",
        "Spark measured",
    ]);
    for ((name, p_cf, p_sp), (_, m_cf, m_sp)) in TABLE3_PAPER.iter().zip(measured.iter()) {
        table.row([
            (*name).to_owned(),
            format!("{p_cf:.2}"),
            format!("{m_cf:.2}"),
            format!("{p_sp:.2}"),
            format!("{m_sp:.2}"),
        ]);
    }
    out.push_str(&table.to_string());
    out
}

/// Renders Table 4 from pre-computed rows.
pub fn render_table4_rows(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Table 4: end-to-end annotation time per architecture (seconds)",
    );
    let mut table = Table::new([
        "Job", "CF paper", "CF", "Hybrid paper", "Hybrid", "Spark paper", "Spark",
    ]);
    for row in rows {
        let (_, p_cf, p_hy, p_sp) = TABLE4_PAPER
            .iter()
            .find(|(n, ..)| *n == row.job.name)
            .expect("paper row");
        table.row([
            row.job.name.to_owned(),
            format!("{p_cf:.2}"),
            format!("{:.2}", row.cloud_functions.wall_secs),
            format!("{p_hy:.2}"),
            format!("{:.2}", row.hybrid.wall_secs),
            format!("{p_sp:.2}"),
            format!("{:.2}", row.spark.wall_secs),
        ]);
    }
    out.push_str(&table.to_string());
    out
}

/// Renders Table 4.
pub fn render_table4(seed: u64) -> String {
    render_table4_rows(&table4(seed))
}

/// Renders Figure 2.
pub fn render_fig2(seed: u64) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 2: concurrent functions per stage, serverless Xenograft",
    );
    out.push_str("(stateful stages marked *)\n");
    let stages = fig2(seed);
    let items: Vec<(String, f64)> = stages
        .iter()
        .map(|(name, tasks, stateful, _)| {
            let label = if *stateful {
                format!("*{name}")
            } else {
                name.clone()
            };
            (label, *tasks as f64)
        })
        .collect();
    out.push_str(&bar_chart(&items, 48));
    out
}

/// Renders Figure 3 from pre-computed rows.
pub fn render_fig3_rows(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 3: execution time, cloud functions vs Spark (seconds)",
    );
    let mut items = Vec::new();
    for row in rows {
        items.push((
            format!("{} CF", row.job.name),
            row.cloud_functions.wall_secs,
        ));
        items.push((format!("{} Spark", row.job.name), row.spark.wall_secs));
    }
    out.push_str(&bar_chart(&items, 48));
    let xeno = rows.iter().find(|r| r.job.name == "Xenograft").unwrap();
    out.push_str(&format!(
        "{}\n",
        PaperRow::new(
            "Xenograft speedup of CF over Spark",
            2.50,
            xeno.spark.wall_secs / xeno.cloud_functions.wall_secs
        )
    ));
    let x089 = rows.iter().find(|r| r.job.name == "X089").unwrap();
    out.push_str(&format!(
        "{}\n",
        PaperRow::new(
            "X089 annotation-time reduction (%)",
            81.0,
            (1.0 - x089.cloud_functions.wall_secs / x089.spark.wall_secs) * 100.0
        )
    ));
    out
}

/// Renders Figure 4 from pre-computed rows.
pub fn render_fig4_rows(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 4: cost, cloud functions vs Spark (dollars)");
    let mut items = Vec::new();
    for row in rows {
        items.push((format!("{} CF", row.job.name), row.cloud_functions.cost_usd));
        items.push((format!("{} Spark", row.job.name), row.spark.cost_usd));
    }
    out.push_str(&bar_chart(&items, 48));
    for row in rows {
        let (_, paper_ratio) = FIG4_PAPER_RATIO
            .iter()
            .find(|(n, _)| *n == row.job.name)
            .expect("paper ratio");
        out.push_str(&format!(
            "{}\n",
            PaperRow::new(
                format!("{} CF/Spark cost ratio", row.job.name),
                *paper_ratio,
                row.cloud_functions.cost_usd / row.spark.cost_usd
            )
        ));
    }
    out
}

/// Renders Figure 5.
pub fn render_fig5(seed: u64) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        "Figure 5: Xenograft distributed sort, serverless vs single VM",
    );
    let f = fig5(seed);
    let mut table = Table::new(["Architecture", "Time (s)", "Cost ($)"]);
    table.row([
        "37 x 1769 MB functions".to_owned(),
        format!("{:.1}", f.serverless.wall_secs),
        format!("{:.3}", f.serverless.cost_usd),
    ]);
    table.row([
        "one m4.4xlarge VM".to_owned(),
        format!("{:.1}", f.vm.wall_secs),
        format!("{:.3}", f.vm.cost_usd),
    ]);
    out.push_str(&table.to_string());
    out.push_str(&format!(
        "{}\n",
        PaperRow::new(
            "serverless speedup over the VM",
            FIG5_PAPER_SPEEDUP,
            f.vm.wall_secs / f.serverless.wall_secs
        )
    ));
    out.push_str(&format!(
        "{}\n",
        PaperRow::new(
            "VM cost advantage (x cheaper)",
            FIG5_PAPER_COST_RATIO,
            f.serverless.cost_usd / f.vm.cost_usd
        )
    ));
    out
}

/// Renders Figure 6 from pre-computed rows.
pub fn render_fig6_rows(rows: &[Table4Row]) -> String {
    let mut out = String::new();
    heading(&mut out, "Figure 6: cost-performance, 1/(latency x cost)");
    let mut items = Vec::new();
    for row in rows {
        items.push((
            format!("{} CF", row.job.name),
            row.cloud_functions.cost_performance(),
        ));
        items.push((
            format!("{} hybrid", row.job.name),
            row.hybrid.cost_performance(),
        ));
        items.push((
            format!("{} Spark", row.job.name),
            row.spark.cost_performance(),
        ));
    }
    out.push_str(&bar_chart(&items, 48));
    for (job, paper_gain) in [("Xenograft", 188.23), ("X089", 148.10)] {
        let row = rows.iter().find(|r| r.job.name == job).unwrap();
        let gain = (row.hybrid.cost_performance() / row.cloud_functions.cost_performance()
            - 1.0)
            * 100.0;
        out.push_str(&format!(
            "{}\n",
            PaperRow::new(
                format!("{job} hybrid cost-perf improvement (%)"),
                paper_gain,
                gain
            )
        ));
    }
    out
}

/// Renders Figure 6.
pub fn render_fig6(seed: u64) -> String {
    render_fig6_rows(&crate::table4(seed))
}

/// Renders a deployment-plan search: the Pareto frontier, the per-plan
/// comparison against the paper's named deployments, and the verdict
/// lines CI greps (`verdict: ...: yes|no|n/a`).
///
/// Deterministic: the text is a pure function of the report, and the
/// report is a pure function of `(workload, space, seed)` — never of
/// the worker count.
pub fn render_plan_search(job_label: &str, report: &SearchReport, objective: Objective) -> String {
    let mut out = String::new();
    heading(
        &mut out,
        &format!("Deployment-plan search: {job_label} (objective {objective})"),
    );
    out.push_str(&format!(
        "space {} candidates | evaluated {} ({}) | failed {}\n\n",
        report.space_size,
        report.evaluated,
        if report.exhaustive { "exhaustive grid" } else { "beam search" },
        report.failed,
    ));

    out.push_str("Pareto frontier (cost vs makespan):\n");
    let mut table = Table::new(["Plan", "Cost ($)", "Makespan (s)", "Waste", "Key"]);
    for p in report.frontier.points() {
        table.row([
            p.plan.name.clone(),
            format!("{:.4}", p.cost_usd),
            format!("{:.2}", p.makespan_secs),
            format!("{:.2}", p.waste),
            p.plan.key(),
        ]);
    }
    out.push_str(&table.to_string());

    // The paper's three hand-picked deployments next to the search's
    // best, when the space contained them.
    let named_outcome = |name: &str| report.ranked.iter().find(|o| o.plan.name == name);
    let mut rows: Vec<PlanRow> = Vec::new();
    for name in ["serverless", "hybrid", "spark"] {
        if let Some(o) = named_outcome(name) {
            rows.push(PlanRow::new(name, o.cost_usd, o.makespan_secs, o.waste));
        }
    }
    if let Some(best) = report.best() {
        if !matches!(best.plan.name.as_str(), "serverless" | "hybrid" | "spark") {
            rows.push(PlanRow::new(
                format!("best ({objective})"),
                best.cost_usd,
                best.makespan_secs,
                best.waste,
            ));
        }
    }
    if !rows.is_empty() {
        out.push_str("\nAgainst the paper's hand-picked deployments:\n");
        out.push_str(&plan_comparison(&rows));
    }

    // Verdicts: does the frontier hold a serverful (hybrid-family) plan
    // that matches or beats the paper's baselines? Each verdict
    // quantifies over the whole frontier; the *witness* verdict demands
    // one single plan that clears both bars at once (the acceptance
    // demo and CI grep these lines).
    let frontier_hybrids = || {
        report
            .frontier
            .points()
            .iter()
            .filter(|p| p.plan.architecture() == Architecture::Hybrid)
    };
    let serverless = named_outcome("serverless");
    let spark = named_outcome("spark");
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    let some = |cond: &dyn Fn(&planner::PlanOutcome) -> bool, baseline_present: bool| {
        if baseline_present {
            yes_no(frontier_hybrids().any(cond)).to_owned()
        } else {
            "n/a".to_owned()
        }
    };
    out.push('\n');
    out.push_str(&format!(
        "verdict: frontier beats pure-serverless on cost: {}\n",
        match serverless {
            Some(s) => yes_no(
                report
                    .frontier
                    .points()
                    .iter()
                    .any(|p| p.plan.name != "serverless" && p.cost_usd <= s.cost_usd)
            )
            .to_owned(),
            None => "n/a".to_owned(),
        }
    ));
    out.push_str(&format!(
        "verdict: hybrid-family plan on frontier: {}\n",
        yes_no(frontier_hybrids().next().is_some())
    ));
    out.push_str(&format!(
        "verdict: frontier hybrid with cost <= pure-serverless cost: {}\n",
        some(
            &|p| serverless.is_some_and(|s| p.cost_usd <= s.cost_usd),
            serverless.is_some()
        )
    ));
    out.push_str(&format!(
        "verdict: frontier hybrid with makespan <= cluster makespan: {}\n",
        some(
            &|p| spark.is_some_and(|s| p.makespan_secs <= s.makespan_secs),
            spark.is_some()
        )
    ));
    let witness = frontier_hybrids().find(|p| {
        serverless.is_some_and(|s| p.cost_usd <= s.cost_usd)
            && spark.is_some_and(|s| p.makespan_secs <= s.makespan_secs)
    });
    out.push_str(&format!(
        "verdict: one frontier hybrid beats both baselines: {}\n",
        match (serverless, spark) {
            (Some(_), Some(_)) => yes_no(witness.is_some()).to_owned(),
            _ => "n/a".to_owned(),
        }
    ));
    if let Some(w) = witness {
        out.push_str(&format!(
            "rediscovered hybrid: {} (${:.4}, {:.2}s)\n",
            w.plan, w.cost_usd, w.makespan_secs
        ));
    }
    if let Some(best) = report.best() {
        out.push_str(&format!("best plan ({objective}): {}\n", best.plan));
    }
    out
}

/// Renders a barrier-vs-pipelined comparison of one job's hybrid
/// deployment: the per-stage window table with dataflow overlap, the
/// makespan/cost summary, the DAG's critical path, and the verdict
/// line CI greps.
///
/// Deterministic: a pure function of the comparison, which is itself a
/// pure function of `(job, seed)` — never of the worker count.
pub fn render_dag(cmp: &DagComparison) -> String {
    let windows = |report: &metaspace::AnnotationReport| -> Vec<StageWindow> {
        report
            .stages
            .iter()
            .map(|s| StageWindow::new(s.name.clone(), s.start_secs, s.end_secs))
            .collect()
    };
    let barrier = windows(&cmp.barrier);
    let pipelined = windows(&cmp.pipelined);

    let mut out = String::new();
    heading(
        &mut out,
        &format!("Dataflow execution: {} hybrid, barrier vs pipelined", cmp.job),
    );
    out.push_str(&dag_stage_table(&barrier, &pipelined, &cmp.edges));

    out.push_str(&format!(
        "\nmakespan: barrier {:.2} s -> pipelined {:.2} s ({:.2}x)\n",
        cmp.barrier.wall_secs,
        cmp.pipelined.wall_secs,
        cmp.barrier.wall_secs / cmp.pipelined.wall_secs
    ));
    out.push_str(&format!(
        "cost:     barrier ${:.4} -> pipelined ${:.4}\n",
        cmp.barrier.cost_usd, cmp.pipelined.cost_usd
    ));
    // Stage durations under barriers are the per-stage work unskewed by
    // overlap, so the critical path over them is the *stage-granular*
    // dataflow bound; task-level release can dip below it.
    let cp = critical_path(&barrier, &cmp.edges);
    out.push_str(&format!(
        "critical path ({:.2} s): {}\n",
        cp.secs,
        cp.label(&barrier)
    ));
    let wins = cmp.pipelined.wall_secs < cmp.barrier.wall_secs
        && cmp.pipelined.cost_usd <= cmp.barrier.cost_usd;
    out.push_str(&format!(
        "verdict: pipelined beats barrier at equal-or-lower cost: {}\n",
        if wins { "yes" } else { "no" }
    ));
    out
}

/// The three [`WorkloadRow`]s of one comparison, baseline (hybrid
/// barrier) first — building blocks for both the single-workload render
/// and the combined `repro workload all` summary table.
pub fn workload_rows(cmp: &WorkloadComparison) -> Vec<WorkloadRow> {
    let stages = cmp.workload.stages.len();
    let tasks: usize = cmp.workload.stages.iter().map(|s| s.tasks).sum();
    let row = |plan: &str, r: &metaspace::AnnotationReport| WorkloadRow {
        workload: cmp.name.clone(),
        stages,
        tasks,
        plan: plan.to_owned(),
        cost_usd: r.cost_usd,
        makespan_secs: r.wall_secs,
    };
    vec![
        row("hybrid-barrier", &cmp.hybrid_barrier),
        row("hybrid-pipelined", &cmp.hybrid_pipelined),
        row("serverless", &cmp.serverless),
    ]
}

/// The two release-gate claims of one workload comparison, as greppable
/// `verdict:` lines: does dependency-driven scheduling still win on
/// this graph, and does the hybrid deployment still beat pure
/// serverless on cost? Families where either claim reverses print `no`
/// — the point of running more than METASPACE.
pub fn workload_verdicts(cmp: &WorkloadComparison) -> String {
    let pipelined_wins = cmp.hybrid_pipelined.wall_secs < cmp.hybrid_barrier.wall_secs
        && cmp.hybrid_pipelined.cost_usd <= cmp.hybrid_barrier.cost_usd;
    let hybrid_wins = cmp.hybrid_barrier.cost_usd < cmp.serverless.cost_usd;
    format!(
        "verdict: {}: pipelined beats barrier at equal-or-lower cost: {}\n\
         verdict: {}: hybrid beats serverless on cost: {}\n",
        cmp.name,
        if pipelined_wins { "yes" } else { "no" },
        cmp.name,
        if hybrid_wins { "yes" } else { "no" },
    )
}

/// Renders one workload-description comparison: its declared DAG with
/// both hybrid schedules side by side, the three-plan economics table,
/// the stage-granular critical path, and the verdict lines CI greps.
///
/// Deterministic: a pure function of the comparison, which is itself a
/// pure function of `(workload, seed)`.
pub fn render_workload(cmp: &WorkloadComparison) -> String {
    let windows = |report: &metaspace::AnnotationReport| -> Vec<StageWindow> {
        report
            .stages
            .iter()
            .map(|s| StageWindow::new(s.name.clone(), s.start_secs, s.end_secs))
            .collect()
    };
    let barrier = windows(&cmp.hybrid_barrier);
    let pipelined = windows(&cmp.hybrid_pipelined);

    let mut out = String::new();
    heading(
        &mut out,
        &format!(
            "Workload {}: {} stages, {} tasks, {:.0} cpu-s declared",
            cmp.name,
            cmp.workload.stages.len(),
            cmp.workload.stages.iter().map(|s| s.tasks).sum::<usize>(),
            cmp.workload.total_cpu_secs()
        ),
    );
    out.push_str(&dag_stage_table(&barrier, &pipelined, &cmp.edges));
    out.push('\n');
    out.push_str(&workload_table(&workload_rows(cmp)));
    let cp = critical_path(&barrier, &cmp.edges);
    out.push_str(&format!(
        "\ncritical path ({:.2} s): {}\n",
        cp.secs,
        cp.label(&barrier)
    ));
    out.push_str(&workload_verdicts(cmp));
    out
}

/// Runs an annotation job with span tracing on and returns the trace
/// (Chrome JSON + summary). `job` matches a Table 2 job name
/// case-insensitively; `arch` is one of `serverless`, `hybrid` or
/// `spark`.
///
/// # Errors
///
/// Returns a message for unknown jobs/architectures or failed runs.
pub fn render_trace(job: &str, arch: &str, seed: u64) -> Result<TraceOutput, String> {
    let spec = jobs::all()
        .into_iter()
        .find(|j| j.name.eq_ignore_ascii_case(job))
        .ok_or_else(|| format!("unknown job `{job}` (expected Brain, Xenograft or X089)"))?;
    let arch = match arch.to_ascii_lowercase().as_str() {
        "serverless" | "cf" | "faas" => Architecture::Serverless,
        "hybrid" => Architecture::Hybrid,
        "spark" | "cluster" => Architecture::Cluster,
        other => return Err(format!("unknown architecture `{other}`")),
    };
    let w = pipeline::job_workload(&spec);
    let plan = DeploymentPlan::for_architecture(arch, &w.stages);
    let (_, trace) = run_workload(&w, &plan, seed, cloudsim::CloudConfig::default(), true)
        .map_err(|e| format!("traced run failed: {e}"))?;
    Ok(trace.expect("traced run returns a trace"))
}
