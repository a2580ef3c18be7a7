//! The traffic driver: runs one scenario's arrival schedule through a
//! shared simulated region, once per deployment policy.
//!
//! Each policy runs in its own *cell*: a fresh [`cloudsim::World`]
//! seeded identically, replaying the identical arrival schedule, so the
//! per-policy outcomes differ only by policy. Cells are independent
//! single-threaded simulations; [`run_scenario`] fans them out over
//! [`planner::parallel_map`] and merges in index order, which makes the
//! full report byte-identical for any `--threads`.
//!
//! Inside a cell, one loop pumps [`serverful::CloudEnv`] an event at a
//! time. Arrivals are [`serverful::CloudEnv::external_timer`]s: an
//! arriving job submits its first stage (barrier) or its gated
//! always-FaaS stages (pipelined). After every other event the loop
//! polls each in-flight stage through exactly one
//! [`serverful::FunctionExecutor::try_result`] dispatch
//! (`CellState::scan_completions`), jobs in arrival order and stages in
//! pipeline order, then advances the jobs whose stages drained, in job
//! order. That fixed scan order is what keeps a cell deterministic.
//! Every stage submission passes the [`Admission`] controller.

use std::collections::VecDeque;
use std::sync::Arc;

use cloudsim::{CloudConfig, ObjectBody};
use metaspace::pipeline::{Stage, StageEdge, StageKind};
use metaspace::plan::StageBackend;
use metaspace::runner::science_digest;
use serverful::executor::MapOptions;
use serverful::{
    fan_in_range, Backend, CloudEnv, EnvEvent, ExecError, ExecutionMode, ExecutorConfig,
    FunctionExecutor, JobHandle, Payload, ScriptTask,
};
use simkernel::{IdMap, SimTime};

use crate::admission::Admission;
use crate::arrivals::{self, Arrival};
use crate::pool::SharedPool;
use crate::scenario::{Policy, Scenario};
use telemetry::FaultKind;

/// Object-storage bucket fleet jobs stage data through.
const BUCKET: &str = "fleet-workspace";

/// One completed job's timing.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Index into the scenario's tenant list.
    pub tenant: usize,
    /// Job name, `{tenant}#{seq}`.
    pub name: String,
    /// Arrival (submission) time.
    pub arrived: SimTime,
    /// Completion time of the last stage.
    pub finished: SimTime,
}

impl JobOutcome {
    /// Arrival-to-completion latency, seconds — queueing included.
    pub fn latency_secs(&self) -> f64 {
        self.finished.saturating_since(self.arrived).as_secs_f64()
    }
}

/// Everything one policy cell measured.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Policy (or plan) label.
    pub label: String,
    /// Completed jobs, in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Total dollars billed in the cell's region.
    pub cost_usd: f64,
    /// Dollars directly attributable to each tenant's jobs (billing
    /// labels), index-aligned with the scenario's tenants. Shared-pool
    /// VM cost is split pro-rata by completed jobs on top.
    pub tenant_cost_usd: Vec<f64>,
    /// Stage submissions that waited for quota headroom.
    pub throttled: usize,
    /// Stage submissions rerouted between pool and FaaS under pressure.
    pub degraded: usize,
    /// Shared-pool leases granted (0 without a pool).
    pub pool_leases: usize,
    /// Shared-pool leases that found warm VMs.
    pub pool_hits: usize,
    /// Spot VMs the provider reclaimed in this cell (0 for on-demand
    /// runs, which never provision spot capacity).
    pub preemptions: u64,
    /// Spot worker slots that exhausted their preemption budget and
    /// fell back to on-demand capacity.
    pub spot_fallbacks: u64,
    /// FNV-1a digest of the science outputs in the cell's workspace
    /// bucket (job plumbing and recovery state excluded). Two cells
    /// that computed the same results digest identically even when
    /// preemptions reshuffled *where and when* the work ran — the
    /// release-gated storm test compares exactly this.
    pub science_digest: u64,
}

impl PolicyOutcome {
    /// Latency percentile over completed jobs (0 with no jobs).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let lat: Vec<f64> = self.jobs.iter().map(JobOutcome::latency_secs).collect();
        telemetry::stats::percentile(&lat, p).unwrap_or(0.0)
    }

    /// Warm-lease fraction in percent; `None` when the policy leased
    /// nothing from a shared pool.
    pub fn pool_hit_pct(&self) -> Option<f64> {
        (self.pool_leases > 0).then(|| self.pool_hits as f64 / self.pool_leases as f64 * 100.0)
    }

    /// Latency percentile over one tenant's jobs (0 with no jobs).
    pub fn tenant_latency_percentile(&self, tenant: usize, p: f64) -> f64 {
        let lat: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.tenant == tenant)
            .map(JobOutcome::latency_secs)
            .collect();
        telemetry::stats::percentile(&lat, p).unwrap_or(0.0)
    }

    /// Completed jobs of one tenant.
    pub fn tenant_jobs(&self, tenant: usize) -> usize {
        self.jobs.iter().filter(|j| j.tenant == tenant).count()
    }
}

/// A full fleet run: every policy's outcome over the same traffic.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Seed of the arrival schedule and every cell's world.
    pub seed: u64,
    /// Per-policy outcomes, in [`run_scenario`]'s fixed policy order.
    pub policies: Vec<PolicyOutcome>,
}

impl FleetReport {
    /// The outcome of one policy, if it ran.
    pub fn policy(&self, label: &str) -> Option<&PolicyOutcome> {
        self.policies.iter().find(|p| p.label == label)
    }
}

/// How a cell places each stage.
#[derive(Clone, Copy)]
pub(crate) enum Placement<'a> {
    /// One of the three named policies.
    Policy(Policy),
    /// An explicit per-stage backend assignment plus execution mode
    /// (what-if evaluation of a [`metaspace::plan::DeploymentPlan`]
    /// under load).
    Plan(&'a [StageBackend], ExecutionMode),
}

/// Runs every policy cell over the scenario's traffic and merges the
/// outcomes.
///
/// Under a [`crate::scenario::RegionOutage`] each policy runs *two*
/// cells: the home cell over arrivals outside the outage window, and a
/// spill cell (labelled `{policy}@{spill_to}`) over the arrivals the
/// outage diverted. The split is a pure function of the precomputed
/// schedule, so the whole report stays byte-deterministic.
///
/// # Errors
///
/// Propagates the first cell failure (stage failure or a stalled
/// simulation), in policy order.
pub fn run_scenario(sc: &Scenario, seed: u64, threads: usize) -> Result<FleetReport, ExecError> {
    let schedule = arrivals::schedule(sc, seed);
    let policies = [Policy::Serverless, Policy::PerJobFleet, Policy::SharedPool];
    let mut cells: Vec<(Policy, String, Option<String>, Vec<Arrival>)> = Vec::new();
    for policy in policies {
        match &sc.outage {
            None => cells.push((policy, policy.to_string(), sc.region.clone(), schedule.clone())),
            Some(o) => {
                let (spill, home): (Vec<Arrival>, Vec<Arrival>) = schedule
                    .iter()
                    .cloned()
                    .partition(|a| o.covers(a.at.as_secs_f64()));
                cells.push((policy, policy.to_string(), sc.region.clone(), home));
                cells.push((
                    policy,
                    format!("{policy}@{}", o.spill_to),
                    Some(o.spill_to.clone()),
                    spill,
                ));
            }
        }
    }
    let outcomes = planner::parallel_map(&cells, threads, |_, (policy, label, region, arrivals)| {
        run_cell_traffic(
            sc,
            Placement::Policy(*policy),
            label.clone(),
            seed,
            region.as_deref(),
            arrivals,
        )
    });
    let mut merged = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        merged.push(outcome?);
    }
    Ok(FleetReport {
        scenario: sc.clone(),
        seed,
        policies: merged,
    })
}

/// Runs a single policy cell over the full schedule in the scenario's
/// home region (outage spillover is [`run_scenario`]'s job).
///
/// # Errors
///
/// Propagates stage failures and stalled simulations.
pub fn run_policy(sc: &Scenario, policy: Policy, seed: u64) -> Result<PolicyOutcome, ExecError> {
    run_cell(sc, Placement::Policy(policy), policy.to_string(), seed)
}

/// Runs one cell over the scenario's full schedule at home.
pub(crate) fn run_cell(
    sc: &Scenario,
    placement: Placement<'_>,
    label: String,
    seed: u64,
) -> Result<PolicyOutcome, ExecError> {
    let schedule = arrivals::schedule(sc, seed);
    run_cell_traffic(sc, placement, label, seed, sc.region.as_deref(), &schedule)
}

/// Runs one cell: fresh world in the given region, the given arrivals,
/// one placement.
///
/// # Panics
///
/// Panics when `region` names no registered [`cloudsim::region`] — the
/// presets are validated by their tests, and an unknown key is a
/// configuration bug, not a runtime condition.
fn run_cell_traffic(
    sc: &Scenario,
    placement: Placement<'_>,
    label: String,
    seed: u64,
    region: Option<&str>,
    arrivals: &[Arrival],
) -> Result<PolicyOutcome, ExecError> {
    let mut cloud = CloudConfig {
        quotas: sc.quotas.clone(),
        ..CloudConfig::default()
    };
    let profile = region.map(|key| {
        cloudsim::region(key).unwrap_or_else(|| {
            panic!(
                "scenario `{}`: unknown region `{key}` (known: {})",
                sc.name,
                cloudsim::region_keys().join(", ")
            )
        })
    });
    if let Some(p) = profile {
        cloud = p.apply(&cloud);
        // The scenario's quotas are the experiment's control variable;
        // they win over the region profile's account defaults.
        cloud.quotas = sc.quotas.clone();
    }
    if let Some(m) = &sc.spot_market {
        cloud.vm.spot_discount = m.discount;
        cloud.faults.spot_preemption_prob = m.preemption_prob;
        cloud.faults.spot_preemption_after = m.preemption_after;
    }
    let mut env = CloudEnv::new(cloud, seed);
    let faas = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let needs_pool = matches!(
        placement,
        Placement::Policy(Policy::SharedPool) | Placement::Plan(..)
    );
    let pool =
        needs_pool.then(|| SharedPool::new(&mut env, &sc.pool, profile.map(|p| p.master_instance)));
    let pipelined = sc.pipelined
        || matches!(placement, Placement::Plan(_, ExecutionMode::Pipelined));
    let mut state = CellState {
        sc,
        placement,
        pipelined,
        env,
        faas,
        pool,
        adm: Admission::new(sc.quotas.clone()),
        jobs: Vec::new(),
        in_flight: Vec::new(),
        waiting: VecDeque::new(),
        arrival_tokens: IdMap::default(),
    };
    for a in arrivals {
        let delay = a.at.saturating_since(SimTime::ZERO);
        let token = state.env.external_timer(delay);
        state.arrival_tokens.insert(token, a.clone());
    }
    state.run()?;
    Ok(state.into_outcome(label))
}

/// Where a stage runs.
#[derive(Debug, Clone, Copy)]
enum ExecSlot {
    /// The shared FaaS executor.
    Faas,
    /// The job's own per-job fleet.
    Own,
    /// A shared-pool lease.
    Pool(usize),
}

/// One stage's scheduling state inside a job.
struct StageRun {
    /// The submitted job, once launched (pipelined FaaS stages launch
    /// gated at arrival; every other stage launches when admitted).
    handle: Option<JobHandle>,
    /// Whole stage finished and its result taken.
    complete: bool,
    /// Per-task released flags (gated FaaS stages).
    released: Vec<bool>,
    /// Whether this stage already counted one quota throttle.
    throttle_noted: bool,
}

/// One in-flight (or finished) job inside a cell.
struct JobRun {
    tenant: usize,
    name: String,
    stages: Vec<Stage>,
    /// Stage-level dataflow edges from the tenant's workload
    /// description (pipelined cells schedule on them).
    edges: Vec<Vec<StageEdge>>,
    /// Per-stage scheduling state, aligned with `stages`.
    runs: Vec<StageRun>,
    arrived: SimTime,
    finished: Option<SimTime>,
    /// The per-job fleet executor ([`Policy::PerJobFleet`] only).
    own: Option<FunctionExecutor>,
}

impl JobRun {
    /// The first stage not yet submitted (barrier cells submit in
    /// pipeline order), or `None` once every stage was.
    fn next_stage(&self) -> Option<usize> {
        self.runs.iter().position(|r| r.handle.is_none())
    }
}

/// A submitted stage that has not drained yet.
#[derive(Clone, Copy)]
struct InFlight {
    job: usize,
    stage: usize,
    handle: JobHandle,
    slot: ExecSlot,
}

struct CellState<'a> {
    sc: &'a Scenario,
    placement: Placement<'a>,
    /// Dependency-driven scheduling instead of BSP barriers.
    pipelined: bool,
    env: CloudEnv,
    faas: FunctionExecutor,
    pool: Option<SharedPool>,
    adm: Admission,
    jobs: Vec<JobRun>,
    /// Every submitted stage that has not drained, in job-then-stage
    /// order: what `scan_completions` polls after each event, kept
    /// apart from `jobs` so the poll touches only live stages.
    in_flight: Vec<InFlight>,
    /// Jobs whose next stage awaits quota headroom, FIFO (barrier cells
    /// only; pipelined cells rescan in job order instead).
    waiting: VecDeque<usize>,
    /// Pending arrival timers, token → arrival.
    arrival_tokens: IdMap<u64, Arrival>,
}

impl CellState<'_> {
    /// The cell's event loop: pump the world, then admit the arriving
    /// job or take in stage completions, then let queued or gated
    /// submissions progress.
    fn run(&mut self) -> Result<(), ExecError> {
        while !self.done() {
            match self.env.pump() {
                EnvEvent::Timer(token) => {
                    let a = self
                        .arrival_tokens
                        .remove(&token)
                        .expect("every external timer is an arrival");
                    self.arrive(&a);
                    self.progress_stages();
                }
                EnvEvent::Progress => {
                    self.scan_completions()?;
                    self.progress_stages();
                }
                EnvEvent::Drained => {
                    self.scan_completions()?;
                    let progressed = self.progress_stages();
                    if self.done() {
                        break;
                    }
                    if !progressed {
                        return Err(ExecError::Stalled(format!(
                            "fleet cell drained with {} jobs unfinished",
                            self.jobs.iter().filter(|j| j.finished.is_none()).count()
                        )));
                    }
                }
            }
        }
        if let Some(pool) = self.pool.as_mut() {
            pool.shutdown(&mut self.env);
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.arrival_tokens.is_empty()
            && self.waiting.is_empty()
            && self.jobs.iter().all(|j| j.finished.is_some())
    }

    /// Registers an arriving job and submits what can start at once: a
    /// barrier job's first stage (or queues it on admission), a
    /// pipelined job's always-FaaS stages.
    fn arrive(&mut self, a: &Arrival) {
        let w = self.sc.tenants[a.tenant].workload();
        let idx = self.jobs.len();
        self.jobs.push(JobRun {
            tenant: a.tenant,
            name: a.job_name(self.sc),
            runs: w
                .stages
                .iter()
                .map(|s| StageRun {
                    handle: None,
                    complete: false,
                    released: vec![false; s.tasks],
                    throttle_noted: false,
                })
                .collect(),
            stages: w.stages,
            edges: w.edges,
            arrived: self.env.now(),
            finished: None,
            own: None,
        });
        if !self.pipelined {
            self.advance_or_wait(idx, 0);
            return;
        }
        // Every always-FaaS stage submits up front with its tasks gated:
        // setup overlaps upstream work, tasks launch one by one as their
        // upstream partitions (and the Lambda quota) allow. Pool/own
        // stages launch from `pipe_pass` once their dependencies drain.
        for s in 0..self.jobs[idx].stages.len() {
            if self.faas_always(s) {
                self.submit_stage(idx, s, ExecSlot::Faas, true);
            }
        }
    }

    /// Stamps a job finished and shuts down its per-job fleet.
    fn finish_job(&mut self, idx: usize) {
        self.jobs[idx].finished = Some(self.env.now());
        if let Some(mut own) = self.jobs[idx].own.take() {
            own.shutdown(&mut self.env);
        }
    }

    /// The executor job `idx`'s stage slot names, borrowed alongside the
    /// environment.
    fn executor(&mut self, idx: usize, slot: ExecSlot) -> (&mut FunctionExecutor, &mut CloudEnv) {
        let exec = match slot {
            ExecSlot::Faas => &mut self.faas,
            ExecSlot::Own => self.jobs[idx].own.as_mut().expect("own slot has an executor"),
            ExecSlot::Pool(lease) => self
                .pool
                .as_mut()
                .expect("pool slot has a pool")
                .exec_mut(lease),
        };
        (exec, &mut self.env)
    }

    /// Polls every in-flight stage (jobs in arrival order, stages in
    /// pipeline order) through the driver's one `try_result` call, then
    /// advances, in job order, each job with a stage that drained: a
    /// barrier job moves to its next stage, and a job with every stage
    /// drained finishes.
    fn scan_completions(&mut self) -> Result<(), ExecError> {
        let mut drained = Vec::new();
        let mut k = 0;
        while k < self.in_flight.len() {
            let f = self.in_flight[k];
            let (exec, env) = self.executor(f.job, f.slot);
            let Some(result) = exec.try_result(env, f.handle) else {
                k += 1;
                continue;
            };
            result?;
            self.in_flight.remove(k);
            self.jobs[f.job].runs[f.stage].complete = true;
            if drained.last() != Some(&f.job) {
                drained.push(f.job);
            }
        }
        for idx in drained {
            let job = &self.jobs[idx];
            if job.runs.iter().all(|r| r.complete) {
                self.finish_job(idx);
            } else if !self.pipelined {
                let s = job.next_stage().expect("a barrier job with work left");
                self.advance_or_wait(idx, s);
            }
        }
        Ok(())
    }

    /// Makes queued or gated stages progress after any event, whichever
    /// scheduling discipline the cell runs.
    fn progress_stages(&mut self) -> bool {
        if self.pipelined {
            self.pipe_pass()
        } else {
            self.drain_waiting()
        }
    }

    /// Whether a stage's placement is unconditionally cloud functions
    /// (eligible for gated submission and task-granular release).
    fn faas_always(&self, stage_idx: usize) -> bool {
        match self.placement {
            Placement::Policy(Policy::Serverless) => true,
            Placement::Policy(_) => false,
            Placement::Plan(backends, _) => backends[stage_idx] == StageBackend::Functions,
        }
    }

    /// Attempts stage `s` of a barrier job; queues the job (counting the
    /// throttle) when the region has no headroom.
    fn advance_or_wait(&mut self, idx: usize, s: usize) {
        if !self.try_advance(idx, s) {
            self.adm.note_throttle();
            self.waiting.push_back(idx);
        }
    }

    /// Re-attempts queued submissions in FIFO order, stopping at the
    /// first that still does not fit (head-of-line, like a real
    /// admission queue). Returns whether anything was admitted.
    fn drain_waiting(&mut self) -> bool {
        let mut progressed = false;
        while let Some(&idx) = self.waiting.front() {
            let s = self.jobs[idx].next_stage().expect("a queued job has a stage left");
            if !self.try_advance(idx, s) {
                break;
            }
            self.waiting.pop_front();
            progressed = true;
        }
        progressed
    }

    /// One dependency-driven scheduling pass: launches pool/own stages
    /// whose upstream stages have fully drained, and releases gated
    /// FaaS tasks whose upstream *partitions* are done — each release
    /// individually admitted against the Lambda quota. Deterministic:
    /// jobs in arrival order, stages in pipeline order, tasks in index
    /// order. Returns whether anything launched or released.
    fn pipe_pass(&mut self) -> bool {
        let mut progressed = false;
        let mut released_now = 0usize;
        for idx in 0..self.jobs.len() {
            if self.jobs[idx].finished.is_some() {
                continue;
            }
            for s in 0..self.jobs[idx].stages.len() {
                if self.jobs[idx].runs[s].complete {
                    continue;
                }
                if self.jobs[idx].runs[s].handle.is_none() {
                    // Pool/own-placed stage: the in-memory exchange
                    // reads whole inputs, so it waits for every
                    // upstream stage to drain — then launches at once.
                    let ready = self.jobs[idx].edges[s]
                        .iter()
                        .all(|e| self.jobs[idx].runs[e.from].complete);
                    if !ready {
                        continue;
                    }
                    if self.try_advance(idx, s) {
                        progressed = true;
                    } else {
                        self.note_stage_throttle(idx, s);
                    }
                } else if self.release_ready_tasks(idx, s, &mut released_now) {
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Releases every gated task of stage `s` whose upstream partitions
    /// are done, stopping at the first that the Lambda quota cannot
    /// admit. Returns whether any task was released.
    fn release_ready_tasks(&mut self, idx: usize, s: usize, released_now: &mut usize) -> bool {
        let handle = self.jobs[idx].runs[s].handle.expect("caller checked submission");
        let tasks = self.jobs[idx].stages[s].tasks;
        let mut any = false;
        for t in 0..tasks {
            if self.jobs[idx].runs[s].released[t] {
                continue;
            }
            let job = &self.jobs[idx];
            let ready = job.edges[s].iter().all(|e| {
                let up = &job.runs[e.from];
                if up.complete {
                    return true;
                }
                let Some(uh) = up.handle else {
                    return false;
                };
                fan_in_range(e.fan_in, job.stages[e.from].tasks, tasks, t)
                    .all(|u| uh.task_done(&self.env, u))
            });
            if !ready {
                continue;
            }
            // Count this pass's not-yet-visible releases on top of the
            // world's active sandboxes: admission at task granularity.
            if !self.adm.admits_faas(self.env.world(), *released_now + 1) {
                self.note_stage_throttle(idx, s);
                break;
            }
            self.jobs[idx].runs[s].released[t] = true;
            handle.release_task(&mut self.env, t);
            *released_now += 1;
            any = true;
        }
        any
    }

    /// Counts at most one quota throttle per stage (pipelined cells
    /// rescan stages every pass; the barrier path counts per queueing).
    fn note_stage_throttle(&mut self, idx: usize, s: usize) {
        if !self.jobs[idx].runs[s].throttle_noted {
            self.adm.note_throttle();
            self.jobs[idx].runs[s].throttle_noted = true;
        }
    }

    /// Tries to submit the job's given stage. Returns `false` when the
    /// admission controller has no headroom for it yet.
    fn try_advance(&mut self, idx: usize, stage_idx: usize) -> bool {
        debug_assert!(self.jobs[idx].runs[stage_idx].handle.is_none());
        let stateful = self.jobs[idx].stages[stage_idx].is_stateful();
        let tasks = self.jobs[idx].stages[stage_idx].tasks;
        let wants_pool = match self.placement {
            Placement::Policy(Policy::Serverless) => false,
            Placement::Policy(Policy::PerJobFleet) => {
                return self.try_advance_own(idx, stage_idx);
            }
            Placement::Policy(Policy::SharedPool) => {
                // The pool is home; a stateless stage *degrades* to
                // cloud functions when every executor is busy and the
                // Lambda quota still has headroom (burst capacity).
                // Stateful stages always lease (the exchange needs the
                // master's memory).
                let saturated = !self
                    .pool
                    .as_ref()
                    .expect("shared-pool placement builds a pool")
                    .any_idle(&self.env);
                if !stateful && saturated && self.adm.admits_faas(self.env.world(), tasks) {
                    self.adm.note_degrade();
                    self.submit_stage(idx, stage_idx, ExecSlot::Faas, false);
                    return true;
                }
                true
            }
            Placement::Plan(backends, _) => backends[stage_idx] == StageBackend::Serverful,
        };
        if wants_pool {
            let lease = self
                .pool
                .as_mut()
                .expect("pool placements build a pool")
                .lease(&self.env);
            self.submit_stage(idx, stage_idx, ExecSlot::Pool(lease), false);
            return true;
        }
        if self.adm.admits_faas(self.env.world(), tasks) {
            self.submit_stage(idx, stage_idx, ExecSlot::Faas, false);
            return true;
        }
        false
    }

    /// Per-job-fleet advance: provision the job's own executor on first
    /// use, gated by the EC2 capacity quota.
    fn try_advance_own(&mut self, idx: usize, stage_idx: usize) -> bool {
        if self.jobs[idx].own.is_none() {
            // Resolved against the *cell's* catalog — a region cell may
            // price (or lack) instances the default catalog doesn't.
            let itype = *self
                .env
                .world()
                .lookup_instance(&self.sc.pool.instance)
                .expect("scenario instance is in the region's catalog");
            if !self.adm.admits_vm(self.env.world(), itype.vcpus as f64) {
                return false;
            }
            let mut cfg = ExecutorConfig::default();
            cfg.standalone.instance_override = Some(self.sc.pool.instance.clone());
            cfg.standalone.fleet_label = Some(format!("{}:vm", self.jobs[idx].name));
            cfg.standalone.recovery = self.sc.pool.recovery;
            let exec = FunctionExecutor::new(&mut self.env, Backend::vm(), cfg);
            self.jobs[idx].own = Some(exec);
        }
        self.submit_stage(idx, stage_idx, ExecSlot::Own, false);
        true
    }

    /// Seeds the stage's inputs and maps it on the chosen executor.
    ///
    /// Stage I/O model: stateless stages read/write their per-task
    /// volumes through object storage (spread over their prefixes);
    /// stateful stages on FaaS exchange through a *single* contended
    /// prefix (the paper's hindrance), while on a VM the exchange stays
    /// in the master's memory and only the CPU time is simulated.
    fn submit_stage(&mut self, idx: usize, stage_idx: usize, slot: ExecSlot, gated: bool) {
        let stage = self.jobs[idx].stages[stage_idx].clone();
        let job_name = self.jobs[idx].name.clone();
        let on_faas = matches!(slot, ExecSlot::Faas);
        let (read_bytes, write_bytes, read_spread, write_spread) = match stage.kind {
            StageKind::Stateless {
                read_spread,
                write_spread,
            } => (
                (stage.read_mb_per_task * 1e6) as u64,
                (stage.write_mb_per_task * 1e6) as u64,
                read_spread,
                write_spread,
            ),
            StageKind::Stateful { exchange_gb } if on_faas => {
                let share = (exchange_gb * 1e9 / stage.tasks as f64) as u64;
                (share, share, 1, 1)
            }
            StageKind::Stateful { .. } => (0, 0, 1, 1),
        };
        let prefix = format!("{job_name}/{}", stage.name);
        if read_bytes > 0 {
            for t in 0..stage.tasks {
                self.env.seed_object(
                    BUCKET,
                    &stage_key(&prefix, "in", t, read_spread),
                    ObjectBody::opaque(read_bytes),
                );
            }
        }
        let cpu = stage.cpu_secs_per_task;
        let in_prefix = prefix.clone();
        let factory: serverful::job::TaskFactory = Arc::new(move |input: &Payload| {
            let t = input.as_u64().expect("task index") as usize;
            let mut script = ScriptTask::new();
            if read_bytes > 0 {
                script = script.get(BUCKET, stage_key(&in_prefix, "in", t, read_spread));
            }
            script = script.compute(cpu);
            if write_bytes > 0 {
                script = script.put(
                    BUCKET,
                    stage_key(&in_prefix, "out", t, write_spread),
                    ObjectBody::opaque(write_bytes),
                );
            }
            script.finish_value(Payload::Unit).boxed()
        });
        let inputs: Vec<Payload> = (0..stage.tasks).map(|t| Payload::U64(t as u64)).collect();
        let mut opts = MapOptions::named(format!("{job_name}:{}", stage.name));
        if stage.is_stateful() {
            opts = opts.stateful();
        }
        if gated {
            opts = opts.gated();
        }
        let (exec, env) = self.executor(idx, slot);
        let handle = exec.map_with(env, factory, inputs, opts);
        self.jobs[idx].runs[stage_idx].handle = Some(handle);
        let at = self.in_flight.partition_point(|f| (f.job, f.stage) < (idx, stage_idx));
        self.in_flight.insert(at, InFlight { job: idx, stage: stage_idx, handle, slot });
    }

    /// Extracts the cell's measurements.
    fn into_outcome(self, label: String) -> PolicyOutcome {
        let faults = self.env.world().fault_ledger();
        let preemptions = faults.injected(FaultKind::SpotPreemption);
        let spot_fallbacks = faults.spot_fallbacks;
        let science_digest = science_digest(self.env.world().store(), BUCKET);
        let ledger = self.env.world().ledger();
        let total = ledger.total();
        let tenant_jobs: Vec<usize> = (0..self.sc.tenants.len())
            .map(|t| self.jobs.iter().filter(|j| j.tenant == t).count())
            .collect();
        let all_jobs: usize = tenant_jobs.iter().sum();
        // Direct cost carries the job's `{tenant}#{seq}` billing label;
        // shared-pool VM time is a common good, split by job count.
        let pool_cost = ledger.total_labelled("shared-pool");
        let tenant_cost_usd: Vec<f64> = self
            .sc
            .tenants
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let direct = ledger.total_labelled(&format!("{}#", spec.name));
                let share = if all_jobs > 0 {
                    pool_cost * tenant_jobs[t] as f64 / all_jobs as f64
                } else {
                    0.0
                };
                direct + share
            })
            .collect();
        let jobs = self
            .jobs
            .into_iter()
            .map(|j| JobOutcome {
                tenant: j.tenant,
                name: j.name,
                arrived: j.arrived,
                finished: j.finished.expect("the reactor completes every job"),
            })
            .collect();
        PolicyOutcome {
            label,
            jobs,
            cost_usd: total,
            tenant_cost_usd,
            throttled: self.adm.throttled,
            degraded: self.adm.degraded,
            pool_leases: self.pool.as_ref().map_or(0, |p| p.leases),
            pool_hits: self.pool.as_ref().map_or(0, |p| p.hits),
            preemptions,
            spot_fallbacks,
            science_digest,
        }
    }
}

/// The storage key of one task's stage input/output.
fn stage_key(prefix: &str, dir: &str, task: usize, spread: usize) -> String {
    format!("{prefix}-{dir}{}/{dir}-{task:05}", task % spread.max(1))
}
