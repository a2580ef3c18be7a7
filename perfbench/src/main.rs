//! The simulator's performance ledger.
//!
//! ```text
//! perfbench --workload <annotate|shuffle|fleet|planner> --seed N --seconds S --trace <0|1>
//! ```
//!
//! A run times *cells*, each one real `repro` experiment on its own
//! sub-seed of `--seed`, until `--seconds` have passed, then re-runs the
//! first cell to check that its output repeats byte for byte. The last
//! stdout line is one JSON object:
//!
//! * `--trace 0`: host time per simulated task, the simulated latency
//!   and bill per job, and input set-up time;
//! * `--trace 1`: the same cells with span tracing on, split into host
//!   time per phase and per-layer counts.
//!
//! Every figure is a median over cells. Host times are measured on a
//! shared machine whose speed drifts by tens of percent within minutes,
//! so each cell's wall time is divided by that of a fixed reference loop
//! timed just before and just after it, and reported as time on a
//! nominal host on which the reference takes [`NOMINAL_REFERENCE_MS`].
//! Cells of one workload differ in size from seed to seed (a fleet draws
//! its tenant mix), so host time is reported per task the cell's inputs
//! declare.

mod cells;
mod layers;

use std::time::{Duration, Instant};

use cells::{Annotate, Cell, Fleet, Planner, Shuffle};
use layers::Layers;

/// Cells whose simulated latency and bill are reported: a fixed count,
/// so those figures never depend on how fast the host ran.
const SIM_CELLS: u64 = 15;
/// Timed samples of input building for `setup_s`.
const SETUP_SAMPLES: u64 = 21;
/// Inputs built per `setup_s` sample.
const SETUP_BATCH: u64 = 16;
/// Host milliseconds of one reference run on the nominal host.
const NOMINAL_REFERENCE_MS: f64 = 14.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `splitmix64` over the run seed and the cell index.
fn sub_seed(seed: u64, cell: u64) -> u64 {
    let mut z = seed ^ cell.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a cell's report text and reduced figures.
fn digest(report: &str, figures: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = report
        .bytes()
        .chain(figures.iter().flat_map(|f| f.to_bits().to_le_bytes()));
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The fixed reference: a discrete-event loop over a binary heap with a
/// hash map of per-event state, the shape of the simulator's hot path,
/// with a working set of several MB like the simulator's so that it
/// feels the same cache and memory contention. It is part of the
/// ledger, so no change to the program moves it.
fn reference() -> u64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    const LIVE: u64 = 25_000;
    const EVENTS: u64 = 40_000;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut pending: HashMap<u64, Vec<u64>> = HashMap::new();
    for id in 0..LIVE {
        heap.push(Reverse((next() % 1_000_000, id)));
        pending.insert(id, vec![id; 16]);
    }
    let (mut acc, mut fresh) = (0u64, LIVE);
    while let Some(Reverse((at, id))) = heap.pop() {
        let state = pending.remove(&id).expect("every event has state");
        acc = acc.wrapping_add(at ^ state[0]);
        if fresh < EVENTS {
            heap.push(Reverse((at + next() % 100_000, fresh)));
            pending.insert(fresh, vec![fresh; 16]);
            fresh += 1;
        }
    }
    acc
}

/// How much slower than nominal the host runs right now: one reference
/// run over [`NOMINAL_REFERENCE_MS`].
fn host_slowdown() -> f64 {
    let t = Instant::now();
    std::hint::black_box(reference());
    ms(t.elapsed()) / NOMINAL_REFERENCE_MS
}

/// One measured cell.
struct Measured {
    /// Host ms building inputs, simulating and reporting (raw wall time).
    inputs_ms: f64,
    simulate_ms: f64,
    report_ms: f64,
    /// Host slowdown, the mean of one measured just before the cell and
    /// one just after it.
    slowdown: f64,
    /// Tasks the cell's inputs declare.
    tasks: usize,
    mean_latency: f64,
    cost_per_job: f64,
    layers: Layers,
    digest: u64,
}

impl Measured {
    /// Host microseconds per declared task on the nominal host.
    fn task_us(&self) -> f64 {
        (self.inputs_ms + self.simulate_ms + self.report_ms) * 1e3
            / self.slowdown
            / self.tasks as f64
    }
}

fn measure<C: Cell>(seed: u64, trace: bool) -> Result<Measured, String> {
    let before = host_slowdown();
    let t0 = Instant::now();
    let input = C::build(seed);
    let t1 = Instant::now();
    let mut layers = Layers::default();
    let sim = C::simulate(&input, trace, &mut layers)?;
    let t2 = Instant::now();
    let out = C::report(&input, sim)?;
    let t3 = Instant::now();
    let slowdown = (before + host_slowdown()) / 2.0;
    let (mean_latency, cost_per_job) = (out.mean_latency(), out.cost_per_job());
    Ok(Measured {
        inputs_ms: ms(t1 - t0),
        simulate_ms: ms(t2 - t1),
        report_ms: ms(t3 - t2),
        slowdown,
        tasks: C::tasks(&input),
        mean_latency,
        cost_per_job,
        layers,
        digest: digest(&out.report, &[mean_latency, cost_per_job]),
    })
}

/// Seconds to build one cell's inputs on the nominal host: batches of
/// input builds, each divided by the host slowdown measured before it.
fn setup_secs<C: Cell>(seed: u64) -> f64 {
    let samples = (0..SETUP_SAMPLES)
        .map(|s| {
            let slowdown = host_slowdown();
            let t = Instant::now();
            for b in 0..SETUP_BATCH {
                std::hint::black_box(C::build(sub_seed(seed, s * SETUP_BATCH + b)));
            }
            t.elapsed().as_secs_f64() / SETUP_BATCH as f64 / slowdown
        })
        .collect();
    median(samples)
}

struct Ledger {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn run<C: Cell>(args: &Args) -> Result<Ledger, String> {
    let setup_s = setup_secs::<C>(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut cells: Vec<Measured> = Vec::new();
    let mut first: Option<u64> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted < SIM_CELLS || start.elapsed() < budget {
        let seed = sub_seed(args.seed, attempted);
        match measure::<C>(seed, args.trace) {
            Ok(m) => {
                if attempted == 0 {
                    first = Some(m.digest);
                }
                cells.push(m);
            }
            Err(e) => {
                eprintln!("cell {attempted} (seed {seed}) failed: {e}");
                failed += 1;
            }
        }
        attempted += 1;
    }
    // The simulator is deterministic: the first cell must repeat exactly.
    attempted += 1;
    let again = measure::<C>(sub_seed(args.seed, 0), args.trace).map(|m| m.digest);
    if !matches!((&again, first), (Ok(a), Some(f)) if *a == f) {
        eprintln!("cell 0 did not repeat: {again:?} vs {first:?}");
        failed += 1;
    }
    if cells.is_empty() {
        return Err("no cell succeeded".into());
    }

    let over = |f: &dyn Fn(&Measured) -> f64| median(cells.iter().map(f).collect());
    let metrics = if args.trace {
        let mut m = vec![
            ("inputs_ms", over(&|c| c.inputs_ms), "ms"),
            ("simulate_ms", over(&|c| c.simulate_ms), "ms"),
            ("report_ms", over(&|c| c.report_ms), "ms"),
            (
                "events_per_ms",
                over(&|c| c.layers.events_fired / c.simulate_ms),
                "1/ms",
            ),
        ];
        for (i, (name, _)) in Layers::default().named().iter().enumerate() {
            m.push((*name, over(&|c| c.layers.named()[i].1), "count"));
        }
        m
    } else {
        let sim = &cells[..cells.len().min(SIM_CELLS as usize)];
        vec![
            ("task_us", over(&Measured::task_us), "us"),
            (
                "sim_latency_s",
                median(sim.iter().map(|c| c.mean_latency).collect()),
                "s",
            ),
            (
                "sim_cost_usd",
                median(sim.iter().map(|c| c.cost_per_job).collect()),
                "usd",
            ),
            ("setup_s", setup_s, "s"),
        ]
    };
    Ok(Ledger {
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ledger = match args.workload.as_str() {
        "annotate" => run::<Annotate>(&args),
        "shuffle" => run::<Shuffle>(&args),
        "fleet" => run::<Fleet>(&args),
        "planner" => run::<Planner>(&args),
        other => Err(format!(
            "unknown workload `{other}` (annotate, shuffle, fleet, planner)"
        )),
    };
    let ledger = ledger.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    if let Some((name, v, _)) = ledger.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {v}");
        std::process::exit(1);
    }
    let metrics: Vec<String> = ledger
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    );
}
