//! The async-kernel microbenchmark binary behind `BENCH_kernel.json`.
//!
//! ```text
//! kernel [--seed N] [--git-rev REV] [--out PATH] [--check-against BASELINE] [--tiny]
//! ```
//!
//! Runs the [`bench::kernelbench`] scenarios, prints a human summary,
//! and writes the JSON report to `--out` (default `BENCH_kernel.json`).
//! With `--check-against`, compares against a committed baseline and
//! exits non-zero when any baseline scenario's throughput drops more
//! than 20% below it — that's the CI regression gate.

use std::process::exit;

use bench::kernelbench::{run, KernelBenchConfig, KernelBenchReport};

/// Throughput may regress at most this fraction below the baseline.
const MAX_REGRESSION: f64 = 0.20;

fn die(msg: &str) -> ! {
    eprintln!("kernel: {msg}");
    eprintln!(
        "usage: kernel [--seed N] [--git-rev REV] [--out PATH] \
         [--check-against BASELINE] [--tiny]"
    );
    exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut git_rev = "unknown".to_owned();
    let mut out = "BENCH_kernel.json".to_owned();
    let mut baseline: Option<String> = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| die("--seed needs a value"));
                seed = v.parse().unwrap_or_else(|_| die("--seed needs an integer"));
            }
            "--git-rev" => {
                git_rev = it.next().unwrap_or_else(|| die("--git-rev needs a value"));
            }
            "--out" => {
                out = it.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--check-against" => {
                baseline = Some(it.next().unwrap_or_else(|| die("--check-against needs a path")));
            }
            "--tiny" => tiny = true,
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let cfg = if tiny {
        KernelBenchConfig::tiny()
    } else {
        KernelBenchConfig::full()
    };
    let report = run(seed, &git_rev, &cfg);

    println!("async-kernel microbenchmarks (seed {seed}, rev {git_rev})");
    for s in &report.scenarios {
        println!(
            "  {:<28} {:>12} events  {:>9.3} ms  {:>14.0} events/sec",
            s.name,
            s.events,
            s.wall_secs * 1e3,
            s.events_per_sec
        );
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        die(&format!("cannot write {out}: {e}"));
    }
    println!("wrote {out}");

    let Some(baseline) = baseline else { return };
    let text = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| die(&format!("cannot read baseline {baseline}: {e}")));
    let base = KernelBenchReport::parse(&text)
        .unwrap_or_else(|e| die(&format!("bad baseline {baseline}: {e}")));
    let mut failed = false;
    for bs in &base.scenarios {
        let Some(cur) = report.scenario(&bs.name) else {
            eprintln!("kernel: FAIL baseline scenario {:?} missing from this run", bs.name);
            failed = true;
            continue;
        };
        let floor = bs.events_per_sec * (1.0 - MAX_REGRESSION);
        if cur.events_per_sec < floor {
            eprintln!(
                "kernel: FAIL {} regressed: {:.0} events/sec < {:.0} \
                 (baseline {:.0} - 20%)",
                bs.name, cur.events_per_sec, floor, bs.events_per_sec
            );
            failed = true;
        } else {
            println!(
                "  ok {:<28} {:>14.0} events/sec (floor {:.0})",
                bs.name, cur.events_per_sec, floor
            );
        }
    }
    if failed {
        exit(1);
    }
    println!("kernel bench within baseline");
}
