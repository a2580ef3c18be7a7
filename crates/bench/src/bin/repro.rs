//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation and prints it next to the published numbers.
//!
//! ```text
//! repro [table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|ablations|extension|all] [seed]
//! repro trace <job> [--arch serverless|hybrid|spark] [--seed N]
//! repro plan <job> [--objective cost|latency|pareto] [--threads N] [--seed N] [--smoke|--providers]
//! repro fleet <scenario> [--arrival-rate R] [--duration S] [--seed N] [--threads N]
//! repro dag <job> [--seed N] [--smoke]
//! repro workload <name|all|path/to.wl> [--seed N] [--smoke] [--dsl]
//! repro workload --list
//! repro providers
//! ```
//!
//! `trace` writes deterministic Chrome trace-event JSON to stdout (load
//! it in `chrome://tracing` or <https://ui.perfetto.dev>) and a text
//! summary to stderr.
//!
//! `plan` searches the deployment-plan space for a job and prints the
//! Pareto frontier over (cost, makespan) — the what-if planner that
//! rediscovers the paper's hand-picked hybrid. `--threads` is purely a
//! speed knob: the frontier is byte-identical at any worker count.
//!
//! `fleet` replays multi-tenant traffic through the region under the
//! three deployment policies (serverless, per-job fleets, shared warm
//! pool) and prints per-policy and per-tenant cost/latency tables.
//! Like `plan`, `--threads` never changes a byte of output.
//!
//! `dag` runs a job's hybrid deployment twice from the same seed —
//! classic stage barriers vs dependency-driven (pipelined) scheduling —
//! and prints the stage-window table, overlap per stage, the DAG's
//! critical path and a greppable verdict line. `--smoke` shrinks the
//! stage graph for debug-fast CI gates.
//!
//! `workload` runs any workload description — bundled (METASPACE jobs
//! and the DSL families alike) or loaded from a `.wl` file on disk —
//! under three plans: hybrid barrier, hybrid pipelined, pure
//! serverless; it prints the declared DAG, the economics table and two
//! greppable verdict lines per workload. `workload all` sweeps every
//! bundled workload and closes with a combined summary table; `--list`
//! prints one name per line (the CI smoke gate enumerates it); `--dsl`
//! prints the workload's canonical DSL text instead of running it.
//!
//! `providers` prints the provider/region registry: each region's
//! catalog size, master instance, FaaS tariff, cold-start shape, quota
//! defaults and spot market. `plan --providers` sweeps provider ×
//! region × spot-vs-on-demand as free plan dimensions (region plans
//! carry `:@{region}` key suffixes, spot plans `:sp`).

use std::env;

use bench::render::{
    render_dag, render_fig2, render_fig3_rows, render_fig4_rows, render_fig5, render_fig6_rows,
    render_plan_search, render_table1, render_table2, render_table3, render_table4_rows,
    render_trace, render_workload, workload_rows,
};
use bench::{
    ablation_fault_rate, ablation_memory, ablation_prefix_bandwidth, ablation_reuse,
    dag_comparison, extension_huge_sort, table4, workload_comparison,
};
use fleet::Scenario;
use metaspace::jobs;
use planner::{search, Evaluator, Objective, SearchConfig, SearchSpace};
use telemetry::Table;

fn main() {
    let args: Vec<String> = env::args().collect();
    let what = args.get(1).map_or("all", String::as_str);
    if what == "trace" {
        run_trace(&args[2..]);
        return;
    }
    if what == "plan" {
        run_plan_cmd(&args[2..]);
        return;
    }
    if what == "fleet" {
        run_fleet(&args[2..]);
        return;
    }
    if what == "dag" {
        run_dag_cmd(&args[2..]);
        return;
    }
    if what == "workload" {
        run_workload_cmd(&args[2..]);
        return;
    }
    if what == "providers" {
        run_providers();
        return;
    }
    if let Some(extra) = args.get(3) {
        die(&format!("unexpected argument `{extra}`\n{USAGE}"));
    }
    let seed: u64 = match args.get(2) {
        None => 1,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| die(&format!("seed needs an integer, got `{s}`\n{USAGE}"))),
    };

    match what {
        "table1" => print!("{}", render_table1(seed)),
        "table2" => print!("{}", render_table2()),
        "table3" => print!("{}", render_table3(seed)),
        "table4" => print!("{}", render_table4_rows(&table4(seed))),
        "fig2" => print!("{}", render_fig2(seed)),
        "fig3" => print!("{}", render_fig3_rows(&table4(seed))),
        "fig4" => print!("{}", render_fig4_rows(&table4(seed))),
        "fig5" => print!("{}", render_fig5(seed)),
        "fig6" => print!("{}", render_fig6_rows(&table4(seed))),
        "ablations" => run_ablations(seed),
        "extension" => run_extension(seed),
        "all" => {
            print!("{}", render_table1(seed));
            print!("{}", render_table2());
            print!("{}", render_table3(seed));
            // Figures 3, 4 and 6 share Table 4's runs; compute once.
            let rows = table4(seed);
            print!("{}", render_table4_rows(&rows));
            print!("{}", render_fig3_rows(&rows));
            print!("{}", render_fig4_rows(&rows));
            print!("{}", render_fig6_rows(&rows));
            print!("{}", render_fig2(seed));
            print!("{}", render_fig5(seed));
            run_ablations(seed);
            run_extension(seed);
        }
        other => die(&format!("unknown experiment `{other}`\n{USAGE}")),
    }
}

/// `repro trace <job> [--arch A] [--seed N]`: trace JSON on stdout,
/// summary on stderr.
fn run_trace(args: &[String]) {
    let mut job = None;
    let mut arch = "serverless".to_owned();
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--arch" => match it.next() {
                Some(a) => arch = a.clone(),
                None => die("--arch needs a value"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed needs an integer"),
            },
            other if job.is_none() && !other.starts_with('-') => job = Some(other.to_owned()),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(job) = job else {
        die("usage: repro trace <job> [--arch serverless|hybrid|spark] [--seed N]");
    };
    match render_trace(&job, &arch, seed) {
        Ok(trace) => {
            print!("{}", trace.chrome_json);
            eprint!("{}", trace.summary);
        }
        Err(msg) => die(&msg),
    }
}

/// `repro plan <job> [--objective O] [--threads N] [--seed N]
/// [--smoke|--providers]`: searches the deployment space and prints the
/// Pareto frontier.
fn run_plan_cmd(args: &[String]) {
    let mut job = None;
    let mut objective = Objective::Pareto;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut seed = 42u64;
    let mut smoke = false;
    let mut providers = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--objective" => match it.next().map(String::as_str).and_then(Objective::parse) {
                Some(o) => objective = o,
                None => die("--objective needs cost|latency|pareto"),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => die("--threads needs a positive integer"),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed needs an integer"),
            },
            "--smoke" => smoke = true,
            "--providers" => providers = true,
            other if job.is_none() && !other.starts_with('-') => job = Some(other.to_owned()),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(job) = job else {
        die("usage: repro plan <job> [--objective cost|latency|pareto] [--threads N] [--seed N] [--smoke|--providers]");
    };
    if smoke && providers {
        die("--smoke and --providers name different search spaces; pick one");
    }
    let Some(spec) = jobs::by_name(&job) else {
        die(&format!("unknown job `{job}` (expected Brain, Xenograft or X089)"));
    };
    let ev = Evaluator::for_job(&spec, seed);
    let space = if providers {
        SearchSpace::provider_sweep(&ev.stages)
    } else if smoke {
        SearchSpace::smoke(&ev.stages)
    } else {
        SearchSpace::standard(&ev.stages)
    };
    let cfg = SearchConfig {
        objective,
        threads,
        seed,
        ..SearchConfig::default()
    };
    let report = search(&ev, &space, &cfg);
    print!("{}", render_plan_search(spec.name, &report, objective));
}

/// `repro fleet <scenario> [--arrival-rate R] [--duration S] [--seed N]
/// [--threads N]`: replays multi-tenant traffic under all three
/// policies and prints the comparison tables.
fn run_fleet(args: &[String]) {
    let mut scenario = None;
    let mut arrival_rate = None;
    let mut duration = None;
    let mut seed = 42u64;
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--arrival-rate" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && r > 0.0 => arrival_rate = Some(r),
                _ => die("--arrival-rate needs a finite positive number (jobs/minute)"),
            },
            "--duration" => match it.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(d) if d > 0.0 && d <= fleet::arrivals::MAX_DURATION_SECS => duration = Some(d),
                _ => die(&format!(
                    "--duration needs a positive number of seconds, at most {:e}",
                    fleet::arrivals::MAX_DURATION_SECS
                )),
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed needs an integer"),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => die("--threads needs a positive integer"),
            },
            other if scenario.is_none() && !other.starts_with('-') => {
                scenario = Some(other.to_owned())
            }
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(scenario) = scenario else {
        die("usage: repro fleet <scenario> [--arrival-rate R] [--duration S] [--seed N] [--threads N]");
    };
    let Some(mut sc) = Scenario::named(&scenario) else {
        die(&format!(
            "unknown scenario `{scenario}` (expected one of: {})",
            Scenario::all_names().join(", ")
        ));
    };
    if let Some(rate) = arrival_rate {
        sc.arrival_rate_per_min = rate;
    }
    if let Some(secs) = duration {
        sc.duration_secs = secs;
    }
    match fleet::run_scenario(&sc, seed, threads) {
        Ok(report) => print!("{}", fleet::report::render(&report)),
        Err(err) => die(&format!("fleet run failed: {err}")),
    }
}

/// `repro dag <job> [--seed N] [--smoke]`: barrier vs pipelined on the
/// job's hybrid deployment.
fn run_dag_cmd(args: &[String]) {
    let mut job = None;
    let mut seed = 42u64;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed needs an integer"),
            },
            "--smoke" => smoke = true,
            other if job.is_none() && !other.starts_with('-') => job = Some(other.to_owned()),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(job) = job else {
        die("usage: repro dag <job> [--seed N] [--smoke]");
    };
    let Some(spec) = jobs::by_name(&job) else {
        die(&format!("unknown job `{job}` (expected Brain, Xenograft or X089)"));
    };
    match dag_comparison(&spec, seed, smoke) {
        Ok(cmp) => print!("{}", render_dag(&cmp)),
        Err(err) => die(&format!("dag run failed: {err}")),
    }
}

/// `repro workload <name|all> [--seed N] [--smoke] [--dsl]` and
/// `repro workload --list`: the three-plan comparison of any bundled
/// workload description.
fn run_workload_cmd(args: &[String]) {
    let mut name = None;
    let mut seed = 42u64;
    let mut smoke = false;
    let mut dsl = false;
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => die("--seed needs an integer"),
            },
            "--smoke" => smoke = true,
            "--dsl" => dsl = true,
            "--list" => list = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_owned()),
            other => die(&format!("unexpected argument `{other}`")),
        }
    }
    if list {
        for n in metaspace::workloads::all_names() {
            println!("{n}");
        }
        return;
    }
    let Some(name) = name else {
        die("usage: repro workload <name|all> [--seed N] [--smoke] [--dsl]\n       repro workload --list");
    };
    let names = if name == "all" {
        metaspace::workloads::all_names()
    } else {
        vec![name]
    };
    let mut all_rows = Vec::new();
    for n in &names {
        let w = if n.ends_with(".wl") || n.contains('/') {
            load_workload_file(n)
        } else {
            match metaspace::workloads::named(n) {
                Some(w) => w,
                None => die(&format!(
                    "unknown workload `{n}` (one of: {}; or a .wl file path)",
                    metaspace::workloads::all_names().join(", ")
                )),
            }
        };
        if dsl {
            print!("{}", workload::emit(&w));
            continue;
        }
        match workload_comparison(&w, seed, smoke) {
            Ok(cmp) => {
                print!("{}", render_workload(&cmp));
                all_rows.extend(workload_rows(&cmp));
            }
            Err(err) => die(&format!("workload `{n}` failed: {err}")),
        }
    }
    if names.len() > 1 && !all_rows.is_empty() {
        heading("All bundled workloads: plan economics side by side");
        print!("{}", telemetry::workload_table(&all_rows));
    }
}

/// Loads and validates a workload description from a `.wl` file.
fn load_workload_file(path: &str) -> workload::Workload {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => die(&format!("cannot read workload file `{path}`: {err}")),
    };
    match workload::parse(&text) {
        Ok(w) => w,
        Err(err) => die(&format!("workload file `{path}`: {err}")),
    }
}

/// `repro providers`: the provider/region registry and spot markets.
fn run_providers() {
    heading("Provider/region registry (cloudsim::providers)");
    let mut table = Table::new([
        "Region",
        "Instances",
        "Master",
        "FaaS $/GiB-s",
        "Cold start p50 (s)",
        "Lambda quota",
        "vCPU quota",
        "Spot disc.",
        "Preempt p",
        "Reclaim window (s)",
    ]);
    for region in cloudsim::regions() {
        table.row([
            region.key(),
            format!("{}", region.catalog.len()),
            region.master_instance.to_owned(),
            format!("{:.9}", region.faas_tariff.usd_per_gib_second),
            format!("{:.1}", region.cold_start_median),
            format!("{}", region.quotas.lambda_concurrency),
            format!("{:.0}", region.quotas.ec2_vcpus),
            format!("{:.0}%", region.spot.discount * 100.0),
            format!("{:.2}", region.spot.preemption_prob),
            format!(
                "{:.0}-{:.0}",
                region.spot.preemption_after.0, region.spot.preemption_after.1
            ),
        ]);
    }
    print!("{table}");
    println!(
        "(default region: {}; `repro plan <job> --providers` sweeps region x tenancy,",
        cloudsim::default_region().key()
    );
    println!(" `repro fleet spot-storm` / `repro fleet spillover` exercise the markets under traffic)");
}

/// The usage text a usage error prints.
const USAGE: &str = "\
usage: repro [table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|ablations|extension|all] [seed]
       repro trace <job> [--arch serverless|hybrid|spark] [--seed N]
       repro plan <job> [--objective cost|latency|pareto] [--threads N] [--seed N] [--smoke|--providers]
       repro fleet <scenario> [--arrival-rate R] [--duration S] [--seed N] [--threads N]
       repro dag <job> [--seed N] [--smoke]
       repro workload <name|all|path/to.wl> [--seed N] [--smoke] [--dsl]
       repro workload --list
       repro providers";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

fn run_ablations(seed: u64) {
    heading("Ablation: proactive instance reuse across jobs (3 maps on the VM backend)");
    let (with_reuse, without) = ablation_reuse(seed);
    let mut table = Table::new(["Policy", "Time (s)"]);
    table.row(["reuse instances".to_owned(), format!("{with_reuse:.1}")]);
    table.row(["fresh VMs per job".to_owned(), format!("{without:.1}")]);
    print!("{table}");

    heading("Ablation: Lambda memory size (50 x 5 s CPU-bound map)");
    let mut table = Table::new(["Memory (MB)", "Time (s)", "Cost ($)"]);
    for mem in [885u32, 1769, 3538] {
        let (t, c) = ablation_memory(seed, mem);
        table.row([format!("{mem}"), format!("{t:.1}"), format!("{c:.4}")]);
    }
    print!("{table}");

    heading("Ablation: per-prefix storage bandwidth vs the serverless sort");
    let mut table = Table::new(["Prefix bandwidth (MB/s)", "Sort time (s)", "Cost ($)"]);
    for bw in [250.0e6, 500.0e6, 1000.0e6, 2000.0e6] {
        let r = ablation_prefix_bandwidth(seed, bw);
        table.row([
            format!("{:.0}", bw / 1e6),
            format!("{:.1}", r.wall_secs),
            format!("{:.3}", r.cost_usd),
        ]);
    }
    print!("{table}");

    heading("Ablation: fault rate vs retry overhead (40-task map, both backends)");
    let mut table = Table::new([
        "Fault rate (%)",
        "FaaS time (s)",
        "FaaS cost ($)",
        "VM time (s)",
        "VM cost ($)",
        "Faults",
        "Retries",
    ]);
    for rate in [0.0, 0.01, 0.02, 0.05] {
        let p = ablation_fault_rate(seed, rate);
        table.row([
            format!("{:.0}", rate * 100.0),
            format!("{:.1}", p.faas_wall_secs),
            format!("{:.4}", p.faas_cost_usd),
            format!("{:.1}", p.vm_wall_secs),
            format!("{:.4}", p.vm_cost_usd),
            format!("{}", p.faults_injected),
            format!("{}", p.retries),
        ]);
    }
    print!("{table}");
}

fn run_extension(seed: u64) {
    heading("Extension (paper §4.2 closing remark): vertically scaled huge sorts");
    let mut table = Table::new(["Volume (GB)", "Instance chosen", "Time (s)", "Cost ($)"]);
    for gb in [100.0, 300.0, 1000.0] {
        let (itype, wall, cost) = extension_huge_sort(seed, gb);
        table.row([
            format!("{gb:.0}"),
            itype,
            format!("{wall:.1}"),
            format!("{cost:.3}"),
        ]);
    }
    print!("{table}");
    println!("(instances up to the 12 TiB u7i keep even TB-scale sorts in one memory space)");
}
