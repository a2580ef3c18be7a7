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
//! arriving job clones its tenant's [`DagRun`], the same per-job state
//! machine [`serverful::run_dag`] steps, and submits its first stage
//! (barrier) or its gated always-FaaS stages (pipelined). A stage can
//! only drain when one of the env's jobs finishes, so after any other
//! event the loop looks at [`serverful::CloudEnv::finished_jobs`] and,
//! only when that count has moved since its last look, observes each
//! in-flight stage (`CellState::scan_completions`), jobs in arrival order
//! and stages in pipeline order, then advances the jobs whose stages
//! drained, in job order. A pipelined cell then observes each job's
//! launched stages and releases their ready gated tasks, each admitted
//! against the Lambda quota; a stage launched ungated is admitted whole.
//! That fixed scan order is what keeps a cell deterministic. Every stage
//! submission passes the [`Admission`] controller.

use std::collections::VecDeque;
use std::sync::Arc;

use cloudsim::{CloudConfig, ObjectBody};
use metaspace::pipeline::{Stage, StageKind};
use metaspace::plan::StageBackend;
use metaspace::runner::science_digest;
use serverful::executor::MapOptions;
use serverful::{
    Backend, CloudEnv, DagRun, Edge, EnvEvent, ExecError, ExecutionMode, ExecutorConfig,
    FunctionExecutor, Payload, ScriptTask,
};
use simkernel::{IdMap, SimTime};

use crate::admission::Admission;
use crate::arrivals::{self, Arrival};
use crate::pool::SharedPool;
use crate::scenario::{Policy, Scenario, TenantSpec};
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
        templates: sc.tenants.iter().map(JobTemplate::new).collect(),
        jobs: Vec::new(),
        unfinished: 0,
        in_flight: Vec::new(),
        scanned_finishes: 0,
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

/// One tenant's job, built once per cell; each arrival clones its DAG.
struct JobTemplate {
    stages: Vec<Stage>,
    /// A fresh job's stage DAG, nothing launched.
    dag: DagRun,
}

impl JobTemplate {
    fn new(tenant: &TenantSpec) -> JobTemplate {
        let w = tenant.workload();
        let dag = DagRun::new(w.stages.iter().zip(&w.edges).map(|(s, edges)| {
            let deps = edges.iter().map(|e| Edge {
                from: e.from,
                fan_in: e.fan_in,
            });
            (s.tasks, deps)
        }));
        JobTemplate {
            stages: w.stages,
            dag,
        }
    }
}

/// One in-flight (or finished) job inside a cell.
struct JobRun {
    tenant: usize,
    name: String,
    /// The job's stages in flight: launches, completions and which
    /// gated tasks may be released (pipelined FaaS stages launch gated
    /// at arrival; every other stage launches ungated when admitted).
    dag: DagRun,
    /// Per stage: whether it already counted one quota throttle.
    throttle_noted: Vec<bool>,
    arrived: SimTime,
    finished: Option<SimTime>,
    /// The per-job fleet executor ([`Policy::PerJobFleet`] only).
    own: Option<FunctionExecutor>,
}

/// A submitted stage that has not drained yet.
#[derive(Clone, Copy)]
struct InFlight {
    job: usize,
    stage: usize,
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
    /// Each tenant's job, index-aligned with the scenario's tenants.
    templates: Vec<JobTemplate>,
    jobs: Vec<JobRun>,
    /// Jobs that arrived and have not finished.
    unfinished: usize,
    /// Every submitted stage that has not drained, in job-then-stage
    /// order: what `scan_completions` polls, kept apart from `jobs` so
    /// the poll touches only live stages.
    in_flight: Vec<InFlight>,
    /// [`CloudEnv::finished_jobs`] when `scan_completions` last ran: no
    /// in-flight stage can have drained while the count stands still.
    scanned_finishes: usize,
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
                    self.progress_stages()?;
                }
                EnvEvent::Progress => {
                    if self.env.finished_jobs() != self.scanned_finishes {
                        self.scan_completions()?;
                    }
                    self.progress_stages()?;
                }
                EnvEvent::Drained => {
                    self.scan_completions()?;
                    let progressed = self.progress_stages()?;
                    if self.done() {
                        break;
                    }
                    if !progressed {
                        return Err(ExecError::Stalled(format!(
                            "fleet cell drained with {} jobs unfinished",
                            self.unfinished
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
        self.arrival_tokens.is_empty() && self.waiting.is_empty() && self.unfinished == 0
    }

    /// Registers an arriving job and submits what can start at once: a
    /// barrier job's first stage (or queues it on admission), a
    /// pipelined job's always-FaaS stages.
    fn arrive(&mut self, a: &Arrival) {
        let template = &self.templates[a.tenant];
        let stages = template.stages.len();
        let idx = self.jobs.len();
        self.jobs.push(JobRun {
            tenant: a.tenant,
            name: a.job_name(self.sc),
            dag: template.dag.clone(),
            throttle_noted: vec![false; stages],
            arrived: self.env.now(),
            finished: None,
            own: None,
        });
        self.unfinished += 1;
        if !self.pipelined {
            self.advance_or_wait(idx, 0);
            return;
        }
        // Every always-FaaS stage submits up front with its tasks gated:
        // setup overlaps upstream work, tasks launch one by one as their
        // upstream partitions (and the Lambda quota) allow. Pool/own
        // stages launch from `pipe_pass` once their dependencies drain.
        for s in 0..stages {
            if self.faas_always(s) {
                self.submit_stage(idx, s, ExecSlot::Faas, true);
            }
        }
    }

    /// Stamps a job finished and shuts down its per-job fleet.
    fn finish_job(&mut self, idx: usize) {
        self.jobs[idx].finished = Some(self.env.now());
        self.unfinished -= 1;
        if let Some(mut own) = self.jobs[idx].own.take() {
            own.shutdown(&mut self.env);
        }
    }

    /// Observes every in-flight stage (jobs in arrival order, stages in
    /// pipeline order), then advances, in job order, each job with a
    /// stage that drained: a barrier job moves to its next stage, and a
    /// job with every stage drained finishes.
    fn scan_completions(&mut self) -> Result<(), ExecError> {
        // Taken before the poll: a job finishing during this scan's own
        // submissions and shutdowns triggers the next one.
        self.scanned_finishes = self.env.finished_jobs();
        let mut drained = Vec::new();
        let mut k = 0;
        while k < self.in_flight.len() {
            let f = self.in_flight[k];
            let dag = &mut self.jobs[f.job].dag;
            dag.observe(&mut self.env, f.stage, |_| {})?;
            if !dag.is_complete(f.stage) {
                k += 1;
                continue;
            }
            self.in_flight.remove(k);
            if drained.last() != Some(&f.job) {
                drained.push(f.job);
            }
        }
        for idx in drained {
            let dag = &self.jobs[idx].dag;
            if dag.is_done() {
                self.finish_job(idx);
            } else if !self.pipelined {
                let s = dag.next_unlaunched().expect("a barrier job with work left");
                self.advance_or_wait(idx, s);
            }
        }
        Ok(())
    }

    /// Makes queued or gated stages progress after any event, whichever
    /// scheduling discipline the cell runs.
    fn progress_stages(&mut self) -> Result<bool, ExecError> {
        if self.pipelined {
            self.pipe_pass()
        } else {
            Ok(self.drain_waiting())
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
            let s = self.jobs[idx]
                .dag
                .next_unlaunched()
                .expect("a queued job has a stage left");
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
    fn pipe_pass(&mut self) -> Result<bool, ExecError> {
        let mut progressed = false;
        let mut released_now = 0usize;
        for idx in 0..self.jobs.len() {
            if self.jobs[idx].finished.is_some() {
                continue;
            }
            let stages = self.templates[self.jobs[idx].tenant].stages.len();
            // A job finishes only inside a pumped event, and the scan
            // after it took the result, so this only feeds the stages'
            // new completions to the job's tracker.
            for s in 0..stages {
                self.jobs[idx].dag.observe(&mut self.env, s, |_| {})?;
            }
            for s in 0..stages {
                let dag = &self.jobs[idx].dag;
                if dag.is_complete(s) {
                    continue;
                }
                if dag.is_launched(s) {
                    progressed |= self.release_stage(idx, s, &mut released_now);
                } else if dag.upstream_drained(s) {
                    // Pool/own-placed stage: the in-memory exchange
                    // reads whole inputs, so it waits for every
                    // upstream stage to drain — then launches at once.
                    if self.try_advance(idx, s) {
                        progressed = true;
                    } else {
                        self.note_stage_throttle(idx, s);
                    }
                }
            }
        }
        Ok(progressed)
    }

    /// Releases stage `s`'s ready gated tasks in task order, stopping at
    /// the first that the Lambda quota cannot admit; it stays ready for
    /// the next pass. Returns whether any task was released.
    fn release_stage(&mut self, idx: usize, s: usize, released_now: &mut usize) -> bool {
        let adm = &self.adm;
        let mut refused = false;
        let released = self.jobs[idx].dag.release(&mut self.env, s, |env, _| {
            // Count this pass's not-yet-visible releases on top of the
            // world's active sandboxes: admission at task granularity.
            refused = !adm.admits_faas(env.world(), *released_now + 1);
            *released_now += usize::from(!refused);
            !refused
        });
        if refused {
            self.note_stage_throttle(idx, s);
        }
        released > 0
    }

    /// Counts at most one quota throttle per stage (pipelined cells
    /// rescan stages every pass; the barrier path counts per queueing).
    fn note_stage_throttle(&mut self, idx: usize, s: usize) {
        if !std::mem::replace(&mut self.jobs[idx].throttle_noted[s], true) {
            self.adm.note_throttle();
        }
    }

    /// Tries to submit the job's given stage. Returns `false` when the
    /// admission controller has no headroom for it yet.
    fn try_advance(&mut self, idx: usize, stage_idx: usize) -> bool {
        debug_assert!(!self.jobs[idx].dag.is_launched(stage_idx));
        let stage = &self.templates[self.jobs[idx].tenant].stages[stage_idx];
        let (stateful, tasks) = (stage.is_stateful(), stage.tasks);
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
        let stage = self.templates[self.jobs[idx].tenant].stages[stage_idx].clone();
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
        let exec = match slot {
            ExecSlot::Faas => &mut self.faas,
            ExecSlot::Own => self.jobs[idx].own.as_mut().expect("own slot has an executor"),
            ExecSlot::Pool(lease) => self
                .pool
                .as_mut()
                .expect("pool slot has a pool")
                .exec_mut(lease),
        };
        let handle = exec.map_with(&mut self.env, factory, inputs, opts);
        self.jobs[idx].dag.launch(stage_idx, handle, gated);
        let at = self.in_flight.partition_point(|f| (f.job, f.stage) < (idx, stage_idx));
        self.in_flight.insert(at, InFlight { job: idx, stage: stage_idx });
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
        // shared-pool VM time is a common good, split by job count. One
        // pass over the ledger adds each entry to every sum whose label
        // names it, in entry order. The sums start at `0.0`, not at
        // `Iterator::sum`'s `-0.0`, so a tenant with no jobs costs `0.0`.
        let mut direct = vec![0.0; self.sc.tenants.len()];
        let mut pool_cost = 0.0;
        for e in ledger.entries() {
            if e.label.contains("shared-pool") {
                pool_cost += e.amount;
            }
            for (sum, spec) in direct.iter_mut().zip(&self.sc.tenants) {
                if bills_tenant(&e.label, &spec.name) {
                    *sum += e.amount;
                }
            }
        }
        let tenant_cost_usd: Vec<f64> = direct
            .iter()
            .zip(&tenant_jobs)
            .map(|(direct, &jobs)| {
                let share = if all_jobs > 0 {
                    pool_cost * jobs as f64 / all_jobs as f64
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

/// Whether a billing label holds `{tenant}#`, the prefix of every job
/// name the tenant submits: the tenant's name ends right before one of
/// the label's `#`s. A byte scan for `#` instead of a substring search.
fn bills_tenant(label: &str, tenant: &str) -> bool {
    label
        .match_indices('#')
        .any(|(at, _)| label[..at].ends_with(tenant))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bills_tenant_is_a_substring_match_on_the_job_prefix() {
        let labels = [
            "brain-lab#3:annotate",
            "xeno#12:vm",
            "a#b#1:x",
            "shared-pool-0",
            "#",
            "",
        ];
        let tenants = [
            "brain-lab",
            "lab",
            "xeno",
            "a",
            "a#b",
            "b",
            "shared-pool",
            "",
        ];
        for label in labels {
            for tenant in tenants {
                assert_eq!(
                    bills_tenant(label, tenant),
                    label.contains(&format!("{tenant}#")),
                    "{label:?} / {tenant:?}"
                );
            }
        }
    }
}
