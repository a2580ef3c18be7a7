//! The execution environment: world pump, notification routing, and the
//! backend state machines.
//!
//! [`CloudEnv`] owns the simulated [`World`] plus every in-flight job and
//! serverful resource pool. [`FunctionExecutor`](crate::FunctionExecutor)
//! is a thin facade over it: `map` registers a job here, `get_result`
//! pumps the world until the job's monitor declares it finished.
//!
//! ## FaaS job lifecycle (classic Lithops)
//!
//! 1. the client uploads each task's input bundle to object storage and
//!    invokes one sandbox per task;
//! 2. each sandbox cold-starts, fetches its input, runs the logical
//!    function (compute and I/O charged by the world), and writes its
//!    encoded result back to object storage;
//! 3. the client monitors completion by polling the job's result prefix,
//!    then collects and decodes the results.
//!
//! ## Serverful job lifecycle (the paper's contribution)
//!
//! 1. the executor connects to a master (provisioning it if needed);
//! 2. the master *proactively provisions* the required worker VMs —
//!    right-sized from the job's input size — and starts one worker
//!    process per vCPU over SSH;
//! 3. workers load logical functions from the Redis-like KV store on the
//!    master, execute them, and write results to object storage;
//! 4. the master monitors completion, collects the output and notifies
//!    the client; all instances are automatically stopped afterwards
//!    (unless instance reuse is enabled).

use std::collections::VecDeque;

use cloudsim::{
    CloudConfig, FaultKind, HostId, KvId, Notify, ObjectBody, OpId, OpOutcome, SandboxId,
    Tenancy, VmId, World,
};
use simkernel::{IdMap, IdSet, SimDuration, SimTime};
use telemetry::trace::SpanId;
use telemetry::{FleetTag, StageSpan, Timeline};

use crate::config::{ExecMode, StandaloneConfig};
use crate::dag::{fan_in_range, FanIn};
use crate::error::ExecError;
use crate::job::{JobBackend, JobState, PendingShape, TaskPhase, TaskRun};
use crate::payload::Payload;
use crate::recovery::{checkpoint_key, JobCheckpoint, MasterCheckpoint, RecoveryMode, RecoveryStats};
use crate::task::{Action, ActionOutcome, TaskStep};

mod failover;
mod monitor;
mod pools;
mod retrying;
mod routes;
mod tasks;

use failover::*;
use monitor::*;
use pools::*;
use retrying::*;
use routes::*;

/// What one [`CloudEnv::pump`] call produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvEvent {
    /// An internal notification was routed; state may have advanced.
    Progress,
    /// A caller-owned [`CloudEnv::external_timer`] fired; the value is
    /// the token that call returned.
    Timer(u64),
    /// The event queue is empty: nothing will ever happen again unless
    /// the caller issues new work.
    Drained,
}

/// The execution environment. See the [module docs](self).
pub struct CloudEnv {
    world: World,
    timeline: Timeline,
    jobs: Vec<JobState>,
    pools: Vec<StandalonePool>,
    op_routes: IdMap<OpId, Route>,
    /// Replay specs for in-flight storage ops (fault retries).
    op_specs: IdMap<OpId, (StorageSpec, u32)>,
    sandbox_routes: IdMap<SandboxId, Route>,
    vm_routes: IdMap<VmId, Route>,
    timer_routes: IdMap<u64, Route>,
    next_timer: u64,
    scheduler_fleet: FleetTag,
    active_jobs: usize,
    /// Span subsequently submitted jobs parent under (a pipeline's stage
    /// span, for example).
    job_parent: SpanId,
    /// Live completion-monitor handles, one per monitored job.
    monitors: IdMap<usize, MonitorHandle>,
    /// Task retries waiting out their backoff: `(job, task) -> attempt`.
    /// The re-adoption replay consults this so a backed-off task is not
    /// double-dispatched.
    pending_task_retries: IdMap<(usize, usize), u32>,
    /// High-water mark of concurrent same-generation monitor LISTs (the
    /// invariant says it never passes 1).
    max_list_overlap: u32,
    /// Recovery activity counters (checkpoints, re-adoptions,
    /// continuations); empty unless a non-default mode did work.
    recovery_stats: RecoveryStats,
    /// Registered decentralized DAG continuations.
    continuations: Vec<Continuation>,
    /// Per-job decentralized dispatch/counter state.
    dc_jobs: IdMap<usize, DcJob>,
    /// Armed chaos kills: `(pool, event index)`; fired once the routed
    /// event counter passes the index and the master VM is up.
    armed_kills: Vec<(usize, u64)>,
    /// Notifications routed so far (the chaos kills' event clock).
    events_routed: u64,
}

impl std::fmt::Debug for CloudEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudEnv")
            .field("now", &self.world.now())
            .field("jobs", &self.jobs.len())
            .field("pools", &self.pools.len())
            .finish()
    }
}

impl CloudEnv {
    /// Creates an environment over a fresh simulated cloud region.
    pub fn new(config: CloudConfig, seed: u64) -> Self {
        let mut world = World::new(config, seed);
        let scheduler_fleet = world.fleet("scheduler");
        let client_vcpus = world.config().client.vcpus as f64;
        // The Lithops scheduler host counts as provisioned resources for
        // the whole run (Table 3 includes it).
        world
            .cpu_monitor_mut()
            .add_provisioned(scheduler_fleet, SimTime::ZERO, client_vcpus);
        CloudEnv {
            world,
            timeline: Timeline::new(),
            jobs: Vec::new(),
            pools: Vec::new(),
            op_routes: IdMap::default(),
            op_specs: IdMap::default(),
            sandbox_routes: IdMap::default(),
            vm_routes: IdMap::default(),
            timer_routes: IdMap::default(),
            next_timer: 0,
            scheduler_fleet,
            active_jobs: 0,
            job_parent: SpanId::NONE,
            monitors: IdMap::default(),
            pending_task_retries: IdMap::default(),
            max_list_overlap: 0,
            recovery_stats: RecoveryStats::new(),
            continuations: Vec::new(),
            dc_jobs: IdMap::default(),
            armed_kills: Vec::new(),
            events_routed: 0,
        }
    }

    /// Creates an environment with the default cloud configuration.
    pub fn new_default(seed: u64) -> Self {
        Self::new(CloudConfig::default(), seed)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The underlying world (telemetry, store inspection, seeding).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The provider region this environment's catalog came from, or
    /// `None` for a hand-rolled catalog no registered region owns.
    /// Drives region-correct backend labels
    /// ([`Backend::label_in`](crate::executor::Backend::label_in)).
    pub fn region(&self) -> Option<&'static cloudsim::provider::RegionProfile> {
        cloudsim::provider::region_of(self.world.config())
    }

    /// Mutable access to the underlying world.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The timeline of completed stages.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Turns span tracing on for everything this environment runs. Costs
    /// nothing until enabled; see [`telemetry::trace::Tracer`].
    pub fn enable_tracing(&mut self) {
        self.world.set_tracing(true);
    }

    /// True when the environment records a span trace.
    pub fn tracing_enabled(&self) -> bool {
        self.world.tracer().is_enabled()
    }

    /// Sets the span subsequently submitted jobs parent under (a
    /// pipeline stage span). Pass [`SpanId::NONE`] to clear.
    pub fn set_job_parent(&mut self, span: SpanId) {
        self.job_parent = span;
    }

    /// Annotates a job's root span with a string attribute (no-op when
    /// tracing is off). The DAG scheduler uses this to parent spans on
    /// their dataflow edges: a `deps` attribute naming the upstream
    /// nodes each job waited on.
    pub(crate) fn annotate_job_span(&mut self, job: usize, key: &'static str, value: &str) {
        if !self.world.tracer().is_enabled() {
            return;
        }
        let span = self.jobs[job].span;
        self.world.tracer_mut().attr_str(span, key, value);
    }

    /// Pre-loads an object outside the timed path (experiment setup).
    pub fn seed_object(&mut self, bucket: &str, key: &str, body: ObjectBody) {
        self.world.seed_object(bucket, key, body);
    }

    // ------------------------------------------------------------------
    // Job submission (called by FunctionExecutor)
    // ------------------------------------------------------------------

    pub(crate) fn submit(&mut self, mut job: JobState) -> usize {
        let id = job.id;
        debug_assert_eq!(id, self.jobs.len());
        job.submitted_at = self.world.now();
        if self.world.tracer().is_enabled() {
            let now = self.world.now();
            let name = format!("job:{}", job.name);
            let backend = match &job.backend {
                JobBackend::Faas { .. } => "faas",
                JobBackend::Standalone { .. } => "serverful",
            };
            let parent = self.job_parent;
            let tracer = self.world.tracer_mut();
            let span = tracer.begin(now, &name, "job", "jobs", parent);
            tracer.attr_u64(span, "tasks", job.inputs.len() as u64);
            tracer.attr_str(span, "backend", backend);
            job.span = span;
        }
        self.world.set_bill_label(job.name.clone());
        self.job_activity(1);
        // Client-side setup: serialise the function and its modules and
        // upload them, before any dispatch happens (Lithops does this on
        // every map).
        let setup = job.setup_secs.max(1e-3);
        self.jobs.push(job);
        let client = self.world.client_host();
        let op = self.world.compute(client, setup);
        self.op_routes.insert(op, Route::JobSetup { job: id });
        id
    }

    fn on_job_setup(&mut self, id: usize) {
        match self.jobs[id].backend.clone() {
            JobBackend::Faas {
                memory_mb,
                fetch_input,
                fleet,
            } => {
                self.jobs[id].monitor_host = self.world.client_host();
                self.dispatch_faas(id, memory_mb, fetch_input, &fleet);
                self.jobs[id].dispatch_ready = true;
                self.maybe_start_monitor(id);
            }
            JobBackend::Standalone { pool } => {
                self.pools[pool].queue.push_back(id);
                self.pool_try_start(pool);
            }
        }
    }

    // ------------------------------------------------------------------
    // Gated (dataflow) task release
    // ------------------------------------------------------------------

    /// Releases one gated task for dispatch. No-op if the task was never
    /// gated, was already released, or the job already finished.
    pub(crate) fn release_task(&mut self, job: usize, task: usize) {
        if self.jobs[job].is_finished() || !self.jobs[job].tasks[task].held {
            return;
        }
        if self.jobs[job].first_release_at.is_none() {
            self.jobs[job].first_release_at = Some(self.world.now());
        }
        self.jobs[job].tasks[task].held = false;
        self.jobs[job].held_tasks -= 1;
        match self.jobs[job].backend.clone() {
            JobBackend::Faas {
                memory_mb,
                fetch_input,
                fleet,
            } => {
                // Before setup completes, clearing `held` is enough:
                // `dispatch_faas` picks the task up with the rest.
                if self.jobs[job].dispatch_ready {
                    self.dispatch_faas_task(job, task, memory_mb, fetch_input, &fleet);
                }
            }
            JobBackend::Standalone { pool } => {
                // Only once the job owns the pool does its queue exist;
                // a queued job's `pool_start_job` reads `held` later.
                if self.pools[pool].active == Some(job) {
                    self.requeue_task(pool, job, task);
                }
            }
        }
        self.maybe_start_monitor(job);
    }

    /// Releases every still-gated task of a job, in task order.
    pub(crate) fn release_all_tasks(&mut self, job: usize) {
        for task in 0..self.jobs[job].tasks.len() {
            self.release_task(job, task);
        }
    }

    // ------------------------------------------------------------------
    // Partition-level progress (JobHandle accessors)
    // ------------------------------------------------------------------

    pub(crate) fn job_total_tasks(&self, job: usize) -> usize {
        self.jobs[job].tasks.len()
    }

    pub(crate) fn job_done_tasks(&self, job: usize) -> usize {
        self.jobs[job].done_tasks
    }

    pub(crate) fn job_task_done(&self, job: usize, task: usize) -> bool {
        matches!(self.jobs[job].tasks[task].phase, TaskPhase::Done)
    }

    pub(crate) fn job_finished(&self, job: usize) -> bool {
        self.jobs[job].is_finished()
    }

    pub(crate) fn next_job_id(&self) -> usize {
        self.jobs.len()
    }

    /// Pumps the world until `job` finishes; returns its results in
    /// input order.
    ///
    /// External timers firing meanwhile are ignored — a blocking caller
    /// by definition is not juggling other work.
    ///
    /// # Errors
    ///
    /// Propagates task failures, decode failures and stalls.
    pub(crate) fn run_job(&mut self, job: usize) -> Result<Vec<Payload>, ExecError> {
        loop {
            if let Some(result) = self.try_job_result(job) {
                return result;
            }
            match self.pump() {
                EnvEvent::Progress | EnvEvent::Timer(_) => {}
                EnvEvent::Drained => {
                    return Err(ExecError::Stalled(format!(
                        "simulation drained with job {job} ({}) unfinished: {}/{} tasks done",
                        self.jobs[job].name,
                        self.jobs[job].done_tasks,
                        self.jobs[job].tasks.len()
                    )));
                }
            }
        }
    }

    /// Advances the world by one notification and routes it. This is the
    /// non-blocking counterpart of the blocking drive loop behind
    /// [`FunctionExecutor::get_result`]: a driver juggling many
    /// concurrent jobs (the `fleet` crate) calls this in a loop, polling
    /// its jobs with [`FunctionExecutor::try_result`] between events and
    /// receiving its own [`external_timer`]s (arrivals, deadlines) as
    /// [`EnvEvent::Timer`].
    ///
    /// [`FunctionExecutor::get_result`]: crate::FunctionExecutor::get_result
    /// [`FunctionExecutor::try_result`]: crate::FunctionExecutor::try_result
    ///
    /// [`external_timer`]: Self::external_timer
    pub fn pump(&mut self) -> EnvEvent {
        match self.world.step() {
            None => EnvEvent::Drained,
            Some((t, n)) => {
                if let Notify::Timer { tag } = &n {
                    if let Some(Route::External { token }) = self.timer_routes.get(tag) {
                        let token = *token;
                        self.timer_routes.remove(tag);
                        return EnvEvent::Timer(token);
                    }
                }
                self.dispatch(t, n);
                self.events_routed += 1;
                self.fire_armed_kills();
                EnvEvent::Progress
            }
        }
    }

    /// Registers a caller-owned timer; [`pump`](Self::pump) surfaces it
    /// as [`EnvEvent::Timer`] with the returned token after `delay` of
    /// virtual time.
    pub fn external_timer(&mut self, delay: SimDuration) -> u64 {
        let tag = self.next_timer;
        self.next_timer += 1;
        self.timer_routes.insert(tag, Route::External { token: tag });
        self.world.timer(delay, tag);
        tag
    }

    // ------------------------------------------------------------------
    // Master fault tolerance (see crate::recovery)
    // ------------------------------------------------------------------

    /// Recovery activity of this environment so far (checkpoints,
    /// master replacements, continuations). Empty unless a pool with a
    /// non-default [`RecoveryMode`] actually exercised it.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery_stats
    }

    /// Notifications routed by [`pump`](Self::pump) so far — the event
    /// clock [`arm_master_kill`](Self::arm_master_kill) indices refer to.
    pub fn events_routed(&self) -> u64 {
        self.events_routed
    }

    /// High-water mark of concurrent monitor LISTs belonging to a single
    /// live monitor generation, across every job so far. The monitor
    /// invariant — a monitor killed and replayed by checkpoint recovery
    /// never forks the LIST cycle — says this never exceeds 1.
    pub fn monitor_list_overlap(&self) -> u32 {
        self.max_list_overlap
    }

    /// The finished job's results (or error), if it has finished.
    /// Returns `None` while the job is still running. Calling this twice
    /// for the same finished job yields empty results — take it once.
    pub(crate) fn try_job_result(
        &mut self,
        job: usize,
    ) -> Option<Result<Vec<Payload>, ExecError>> {
        if !self.jobs[job].is_finished() {
            return None;
        }
        Some(self.take_job_result(job))
    }

    /// Extracts a finished job's results in input order.
    fn take_job_result(&mut self, job: usize) -> Result<Vec<Payload>, ExecError> {
        if let Some(err) = self.jobs[job].error.clone() {
            return Err(err);
        }
        let results = std::mem::take(&mut self.jobs[job].results);
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or_else(|| {
                    ExecError::TaskFailed(format!("task {i} produced no result"))
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, _t: SimTime, n: Notify) {
        match n {
            Notify::Op { op, outcome } => {
                let Some(route) = self.op_routes.remove(&op) else {
                    self.op_specs.remove(&op);
                    return; // op of an already-failed job or torn-down attempt
                };
                if let OpOutcome::Faulted { .. } = outcome {
                    let spec = self.op_specs.remove(&op);
                    self.on_storage_faulted(op, route, spec);
                    return;
                }
                self.op_specs.remove(&op);
                self.on_op(route, op, outcome);
            }
            Notify::SandboxUp { sandbox } => {
                // The route stays registered until the sandbox is
                // released: a mid-task crash must still find its task.
                if let Some(route) = self.sandbox_routes.get(&sandbox).cloned() {
                    self.on_sandbox_up(route, sandbox);
                }
            }
            Notify::SandboxFailed { sandbox, .. } => {
                if let Some(Route::Task { job, task }) = self.sandbox_routes.remove(&sandbox) {
                    self.jobs[job].tasks[task].sandbox = None;
                    self.task_attempt_failed(job, task, AttemptFailure::SandboxDead);
                }
            }
            Notify::VmUp { vm } => {
                // The route stays registered: a mid-job VM loss (long
                // after boot) must still find its pool slot.
                if let Some(route) = self.vm_routes.get(&vm).cloned() {
                    self.on_vm_up(route, vm);
                }
            }
            Notify::VmFailed { vm, fault } => {
                if let Some(route) = self.vm_routes.remove(&vm) {
                    self.on_pool_vm_failed(route, fault);
                }
            }
            Notify::Timer { tag } => {
                if let Some(route) = self.timer_routes.remove(&tag) {
                    self.on_timer(route);
                }
            }
            _ => {}
        }
    }

    /// The span a task's I/O should parent under: the current attempt's
    /// span, falling back to the job span before dispatch.
    fn task_span(&self, job: usize, task: usize) -> SpanId {
        let t = &self.jobs[job].tasks[task];
        if t.span.is_none() {
            self.jobs[job].span
        } else {
            t.span
        }
    }

    /// The trace span ops issued for `route` parent under.
    fn route_span(&self, route: &Route) -> SpanId {
        match route {
            Route::Task { job, task } | Route::InputPut { job, task } => {
                self.task_span(*job, *task)
            }
            other => match Self::route_job(other) {
                Some(job) => self.jobs[job].span,
                None => SpanId::NONE,
            },
        }
    }

    /// Begins the span of a task's next dispatch attempt. Returns
    /// [`SpanId::NONE`] (and allocates nothing) when tracing is off.
    fn begin_attempt_span(&mut self, job: usize, task: usize, fleet: &str) -> SpanId {
        if !self.world.tracer().is_enabled() {
            return SpanId::NONE;
        }
        let now = self.world.now();
        let name = format!("task {task}");
        let stage = self.jobs[job].name.clone();
        let parent = self.jobs[job].span;
        let attempt = u64::from(self.jobs[job].tasks[task].attempts) + 1;
        let tracer = self.world.tracer_mut();
        let span = tracer.begin(now, &name, "task", "tasks", parent);
        tracer.attr_str(span, "stage", &stage);
        tracer.attr_u64(span, "task", task as u64);
        tracer.attr_u64(span, "attempt", attempt);
        tracer.attr_str(span, "fleet", fleet);
        span
    }

    /// Arms a world timer that routes to `route` after `delay`. Timers
    /// are never cancelled: a stale one still fires (and counts on the
    /// event clock), and its handler drops it on the staleness key the
    /// route carries.
    fn set_timer(&mut self, delay: SimDuration, route: Route) {
        let tag = self.next_timer;
        self.next_timer += 1;
        self.timer_routes.insert(tag, route);
        self.world.timer(delay, tag);
    }

    fn job_activity(&mut self, delta: i64) {
        let now = self.world.now();
        let was = self.active_jobs;
        self.active_jobs = (self.active_jobs as i64 + delta) as usize;
        // The scheduler burns roughly one vCPU while any job is in
        // flight (dispatching, polling, collecting).
        if was == 0 && self.active_jobs > 0 {
            self.world
                .cpu_monitor_mut()
                .add_busy(self.scheduler_fleet, now, 1.0);
        } else if was > 0 && self.active_jobs == 0 {
            self.world
                .cpu_monitor_mut()
                .add_busy(self.scheduler_fleet, now, -1.0);
        }
    }

    // ------------------------------------------------------------------
    // FaaS backend
    // ------------------------------------------------------------------
}

/// Draws a latency from the world's RNG-free path: uses mean only when
/// std is zero. Implemented as a free function to avoid borrowing `self`
/// twice.
fn world_latency(world: &mut World, (mean, std): (f64, f64)) -> SimDuration {
    // The world does not expose its RNG; derive jitter deterministically
    // from current time to keep runs reproducible without threading a
    // second RNG through the env.
    let jitter = ((world.now().as_micros() % 997) as f64 / 997.0 - 0.5) * 2.0 * std;
    SimDuration::from_secs_f64((mean + jitter).max(0.1))
}
