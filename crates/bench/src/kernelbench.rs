//! Microbenchmarks of the deterministic async kernel
//! ([`simkernel::aio`]): raw event throughput, timer churn, fan-in
//! wakeup storms, and a fleet-shaped replay in which each job is a
//! future woken only by the gates of its own stages. `scripts/ci.sh`
//! runs these in `--release` every run, writes `BENCH_kernel.json`, and
//! fails the build when throughput regresses more than 20% below the
//! committed `BENCH_kernel_baseline.json`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};
use std::time::Instant;

use simkernel::{join_all, AsyncExecutor, EventQueue, Gate, SimDuration, SimRng, SimTime};

/// Identifies the JSON layout; bump on breaking changes.
pub const SCHEMA: &str = "bench-kernel/v3";

/// Scenario sizes; [`KernelBenchConfig::full`] for CI, `tiny` for
/// debug-fast schema tests.
#[derive(Debug, Clone, Copy)]
pub struct KernelBenchConfig {
    /// Tasks in the event-throughput scenario.
    pub throughput_tasks: usize,
    /// Sleeps each throughput task awaits.
    pub throughput_rounds: usize,
    /// Tasks in the timer-churn scenario.
    pub churn_tasks: usize,
    /// Schedule-then-cancel rounds per churn task.
    pub churn_rounds: usize,
    /// Fan-in groups (stages) in the wakeup-storm scenario.
    pub fanin_groups: usize,
    /// Producers per fan-in group.
    pub fanin_producers: usize,
    /// Jobs in the fleet-replay scenario.
    pub fleet_jobs: usize,
    /// Sequential stages per replayed job.
    pub fleet_stages: usize,
    /// Tasks per replayed stage.
    pub fleet_tasks: usize,
    /// Non-completion world events interleaved per task (sandbox
    /// starts, transfers).
    pub fleet_noise: usize,
}

impl KernelBenchConfig {
    /// The CI configuration: fleet-scale sizes.
    pub fn full() -> Self {
        KernelBenchConfig {
            throughput_tasks: 4000,
            throughput_rounds: 40,
            churn_tasks: 2000,
            churn_rounds: 50,
            fanin_groups: 200,
            fanin_producers: 100,
            fleet_jobs: 400,
            fleet_stages: 5,
            fleet_tasks: 40,
            fleet_noise: 4,
        }
    }

    /// A milliseconds-fast configuration for schema tests.
    pub fn tiny() -> Self {
        KernelBenchConfig {
            throughput_tasks: 8,
            throughput_rounds: 3,
            churn_tasks: 8,
            churn_rounds: 3,
            fanin_groups: 3,
            fanin_producers: 4,
            fleet_jobs: 3,
            fleet_stages: 2,
            fleet_tasks: 3,
            fleet_noise: 2,
        }
    }
}

/// One scenario's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (stable across runs; baselines match on it).
    pub name: String,
    /// Events the scenario processed (timer fires, polls, wakes, or
    /// world events — whatever the scenario's unit of work is).
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_secs: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
}

/// The full kernel-bench report, serialised to `BENCH_kernel.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBenchReport {
    /// Seed every scenario ran from.
    pub seed: u64,
    /// Git revision the binary was built from (passed in by ci.sh).
    pub git_rev: String,
    /// Per-scenario results, in a fixed order.
    pub scenarios: Vec<ScenarioResult>,
}

/// Runs every scenario and assembles the report.
pub fn run(seed: u64, git_rev: &str, cfg: &KernelBenchConfig) -> KernelBenchReport {
    let scenarios = vec![
        event_throughput(seed, cfg),
        timer_churn(seed, cfg),
        fanin_storm(seed, cfg),
        fleet_replay(seed, cfg),
    ];
    KernelBenchReport {
        seed,
        git_rev: git_rev.to_owned(),
        scenarios,
    }
}

fn result(name: &str, events: u64, wall_secs: f64) -> ScenarioResult {
    // Sub-microsecond walls only happen in tiny test configs; clamp so
    // events_per_sec stays finite there.
    let wall = wall_secs.max(1e-9);
    ScenarioResult {
        name: name.to_owned(),
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall,
    }
}

/// Raw event throughput: many tasks, each awaiting a chain of sleeps —
/// pure timer-wheel plus run-queue traffic.
fn event_throughput(seed: u64, cfg: &KernelBenchConfig) -> ScenarioResult {
    let exec = AsyncExecutor::new();
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..cfg.throughput_tasks {
        let exec2 = exec.clone();
        let rounds = cfg.throughput_rounds;
        let jitter = rng.uniform_u64(1, 997);
        exec.spawn(async move {
            for r in 0..rounds {
                let d = (jitter + r as u64 * 31) % 997 + 1;
                exec2.sleep(SimDuration::from_micros(d)).await;
            }
        });
    }
    let t = Instant::now();
    let stuck = exec.run();
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(stuck, 0, "throughput tasks all complete");
    let st = exec.stats();
    result(
        "event-throughput",
        st.timer_fires + st.polls + st.wakes,
        wall,
    )
}

/// Polls a future exactly once and completes regardless of its result
/// — drops (cancels) a pending timer the way an abandoned wait would.
struct PollOnce<F: Future + Unpin>(F);

impl<F: Future + Unpin> Future for PollOnce<F> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let _ = Pin::new(&mut self.0).poll(cx);
        Poll::Ready(())
    }
}

/// Timer churn: every round schedules a far-out timer, cancels it on
/// drop, then takes a real short sleep — the tombstone-pruning path.
fn timer_churn(seed: u64, cfg: &KernelBenchConfig) -> ScenarioResult {
    let exec = AsyncExecutor::new();
    let mut rng = SimRng::seed_from(seed ^ 0x5EED);
    let mut cancels = 0u64;
    for _ in 0..cfg.churn_tasks {
        let exec2 = exec.clone();
        let rounds = cfg.churn_rounds;
        let jitter = rng.uniform_u64(1, 113);
        cancels += rounds as u64;
        exec.spawn(async move {
            for r in 0..rounds {
                PollOnce(exec2.sleep(SimDuration::from_micros(1_000_000))).await;
                let d = (jitter + r as u64 * 7) % 113 + 1;
                exec2.sleep(SimDuration::from_micros(d)).await;
            }
        });
    }
    let t = Instant::now();
    let stuck = exec.run();
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(stuck, 0, "churn tasks all complete");
    result("timer-churn", exec.stats().timer_fires + cancels, wall)
}

/// Fan-in wakeup storm at fleet scale: each group's consumer joins a
/// herd of producers; a root joins every consumer — the `join_all`
/// shape every pipelined fleet job takes.
fn fanin_storm(seed: u64, cfg: &KernelBenchConfig) -> ScenarioResult {
    let exec = AsyncExecutor::new();
    let mut rng = SimRng::seed_from(seed ^ 0xFA41);
    let mut consumers = Vec::with_capacity(cfg.fanin_groups);
    for _ in 0..cfg.fanin_groups {
        let base = rng.uniform_u64(1, 53);
        let producers: Vec<_> = (0..cfg.fanin_producers)
            .map(|p| {
                let exec2 = exec.clone();
                exec.spawn(async move {
                    exec2
                        .sleep(SimDuration::from_micros(base + (p as u64 % 17)))
                        .await;
                })
            })
            .collect();
        consumers.push(exec.spawn(async move {
            join_all(producers).await;
        }));
    }
    let root = exec.spawn(async move {
        join_all(consumers).await;
    });
    let t = Instant::now();
    let stuck = exec.run();
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(stuck, 0, "storm tasks all complete");
    assert!(root.is_done(), "root fan-in completed");
    let st = exec.stats();
    result("fanin-storm", st.polls + st.wakes + st.timer_fires, wall)
}

/// A replayed world event: one task of `job` finishing `stage`, or
/// noise (transfers, sandbox starts) that wakes no job.
#[derive(Clone, Copy)]
enum Ev {
    Noise,
    Done { job: usize, stage: usize },
}

/// Per-task stage durations of the replayed fleet.
fn fleet_durations(seed: u64, cfg: &KernelBenchConfig) -> Vec<Vec<Vec<u64>>> {
    let mut rng = SimRng::seed_from(seed ^ 0xF1EE7);
    (0..cfg.fleet_jobs)
        .map(|_| {
            (0..cfg.fleet_stages)
                .map(|_| {
                    (0..cfg.fleet_tasks)
                        .map(|_| rng.uniform_u64(1_000, 500_000))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Schedules one stage's task events: noise at fractions of each task's
/// duration, the completion at the full duration.
fn schedule_stage(
    q: &mut EventQueue<Ev>,
    durs: &[Vec<Vec<u64>>],
    cfg: &KernelBenchConfig,
    job: usize,
    stage: usize,
    at: SimTime,
) {
    for &dur in &durs[job][stage] {
        for i in 1..=cfg.fleet_noise {
            let frac = dur * i as u64 / (cfg.fleet_noise as u64 + 1);
            q.schedule_at(SimTime::from_micros(at.as_micros() + frac), Ev::Noise);
        }
        q.schedule_at(
            SimTime::from_micros(at.as_micros() + dur),
            Ev::Done { job, stage },
        );
    }
}

fn fleet_arrival(job: usize) -> SimTime {
    SimTime::from_micros(job as u64 * 50_000)
}

/// Replays a fleet-shaped schedule on the async kernel: the reactor
/// pops world events and, on completions, only decrements a counter and
/// opens a gate; each job is a future that awaits its stage gates and
/// schedules the successor stage itself.
fn fleet_replay(seed: u64, cfg: &KernelBenchConfig) -> ScenarioResult {
    let exec = AsyncExecutor::new();
    let q = Rc::new(RefCell::new(EventQueue::<Ev>::new()));
    let durs = Rc::new(fleet_durations(seed, cfg));
    let gates: Vec<Vec<Gate>> = (0..cfg.fleet_jobs)
        .map(|_| (0..cfg.fleet_stages).map(|_| exec.gate()).collect())
        .collect();
    let mut remaining = vec![vec![cfg.fleet_tasks; cfg.fleet_stages]; cfg.fleet_jobs];
    for (job, stage_gates) in gates.iter().enumerate() {
        schedule_stage(&mut q.borrow_mut(), &durs, cfg, job, 0, fleet_arrival(job));
        let exec2 = exec.clone();
        let q2 = Rc::clone(&q);
        let durs2 = Rc::clone(&durs);
        let job_gates = stage_gates.clone();
        let cfg2 = *cfg;
        exec.spawn(async move {
            for (stage, gate) in job_gates.iter().enumerate() {
                gate.wait().await;
                let now = exec2.now();
                if stage + 1 < cfg2.fleet_stages {
                    schedule_stage(&mut q2.borrow_mut(), &durs2, &cfg2, job, stage + 1, now);
                }
            }
        });
    }
    let mut events = 0u64;
    let t = Instant::now();
    exec.run_ready();
    loop {
        let popped = q.borrow_mut().next();
        let Some((now, ev)) = popped else { break };
        events += 1;
        exec.advance_to(now);
        if let Ev::Done { job, stage } = ev {
            remaining[job][stage] -= 1;
            if remaining[job][stage] == 0 {
                gates[job][stage].open();
            }
        }
        exec.run_ready();
    }
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(exec.pending_tasks(), 0, "every replayed job completed");
    result("fleet-replay-async-kernel", events, wall)
}

impl KernelBenchReport {
    /// Serialises to the `BENCH_kernel.json` layout: one key per line,
    /// so the no-dependency parser (and grep) can read it back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"git_rev\": \"{}\",", self.git_rev.replace('"', ""));
        out.push_str("  \"scenarios\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
            let _ = writeln!(out, "      \"events\": {},", s.events);
            let _ = writeln!(out, "      \"wall_secs\": {:.9},", s.wall_secs);
            let _ = writeln!(out, "      \"events_per_sec\": {:.3}", s.events_per_sec);
            out.push_str(if i + 1 < self.scenarios.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the [`Self::to_json`] layout (line-based; tolerant of key
    /// order inside a scenario object but not of reformatting).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(json: &str) -> Result<Self, String> {
        fn str_field(line: &str) -> Option<&str> {
            let v = line.split(':').nth(1)?.trim().trim_end_matches(',');
            v.strip_prefix('"')?.strip_suffix('"').map(str::trim)
        }
        fn num_field(line: &str) -> Option<f64> {
            line.split(':').nth(1)?.trim().trim_end_matches(',').parse().ok()
        }

        let mut schema = None;
        let mut seed = None;
        let mut git_rev = None;
        let mut scenarios: Vec<ScenarioResult> = Vec::new();
        let mut cur: Option<ScenarioResult> = None;
        let mut in_scenarios = false;
        for line in json.lines() {
            let t = line.trim();
            if t.starts_with("\"scenarios\"") {
                in_scenarios = true;
            } else if in_scenarios && t.starts_with(']') {
                in_scenarios = false;
            } else if in_scenarios && t.starts_with('{') {
                cur = Some(ScenarioResult {
                    name: String::new(),
                    events: 0,
                    wall_secs: 0.0,
                    events_per_sec: 0.0,
                });
            } else if in_scenarios && t.starts_with('}') {
                let s = cur.take().ok_or("scenario object closed before it opened")?;
                if s.name.is_empty() {
                    return Err("scenario missing \"name\"".to_owned());
                }
                scenarios.push(s);
            } else if let Some(s) = cur.as_mut() {
                if t.starts_with("\"name\"") {
                    s.name = str_field(t).ok_or("bad scenario name")?.to_owned();
                } else if t.starts_with("\"events\"") {
                    s.events = num_field(t).ok_or("bad scenario events")? as u64;
                } else if t.starts_with("\"wall_secs\"") {
                    s.wall_secs = num_field(t).ok_or("bad scenario wall_secs")?;
                } else if t.starts_with("\"events_per_sec\"") {
                    s.events_per_sec = num_field(t).ok_or("bad scenario events_per_sec")?;
                }
            } else if t.starts_with("\"schema\"") {
                schema = str_field(t).map(str::to_owned);
            } else if t.starts_with("\"seed\"") {
                seed = num_field(t).map(|v| v as u64);
            } else if t.starts_with("\"git_rev\"") {
                git_rev = str_field(t).map(str::to_owned);
            }
        }
        let schema = schema.ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
        }
        if scenarios.is_empty() {
            return Err("no scenarios".to_owned());
        }
        Ok(KernelBenchReport {
            seed: seed.ok_or("missing \"seed\"")?,
            git_rev: git_rev.ok_or("missing \"git_rev\"")?,
            scenarios,
        })
    }

    /// Looks up one scenario by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_round_trips_through_json() {
        let report = run(7, "deadbeef", &KernelBenchConfig::tiny());
        let json = report.to_json();
        let back = KernelBenchReport::parse(&json).expect("parses");
        // Float fields are emitted rounded, so compare the canonical
        // serialisation (parse ∘ to_json must be idempotent) plus the
        // exact fields.
        assert_eq!(back.to_json(), json);
        assert_eq!(back.seed, report.seed);
        assert_eq!(back.git_rev, report.git_rev);
        assert_eq!(back.scenarios.len(), report.scenarios.len());
        for (b, r) in back.scenarios.iter().zip(&report.scenarios) {
            assert_eq!(b.name, r.name);
            assert_eq!(b.events, r.events);
        }
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert!(KernelBenchReport::parse("{}").is_err());
        let mut report = run(7, "x", &KernelBenchConfig::tiny());
        report.git_rev = String::new();
        let json = report.to_json().replace("\"git_rev\": \"\",\n", "");
        assert!(KernelBenchReport::parse(&json).is_err());
    }
}
