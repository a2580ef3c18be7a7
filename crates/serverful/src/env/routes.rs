//! Event routing: the [`Route`] tag carried by every simulator
//! notification, and the dispatchers that fan completed ops, KV
//! failures and timers out to the focused modules. Every timed control
//! loop — monitor ticks, straggler sweeps, retry backoffs, checkpoint
//! cadence — is a world timer whose route carries the staleness key its
//! handler checks, so the world's event queue is the only clock.

use super::*;

/// Where a notification should be delivered.
#[derive(Debug, Clone)]
pub(super) enum Route {
    /// An op issued by a task's logic (or its result write).
    Task { job: usize, task: usize },
    /// The client PUT of a task's input bundle.
    InputPut { job: usize, task: usize },
    /// Client-side function/deps serialisation before dispatch.
    JobSetup { job: usize },
    /// A completion-monitor tick: issue the next LIST. Only
    /// `start_monitor` and a LIST reply of the same `generation` arm
    /// one, so at most one tick or LIST per generation is ever pending.
    MonitorTick { job: usize, generation: u64 },
    /// Monitor LIST. `generation` versions the monitor so a LIST issued
    /// before a checkpoint replay restarted the cycle is told apart from
    /// the replacement's.
    List { job: usize, generation: u64 },
    /// Monitor result GET (same `generation` discipline as
    /// [`Route::List`]).
    Collect { job: usize, task: usize, generation: u64 },
    /// A straggler-speculation sweep, riding the monitor `generation`
    /// it was started with.
    StragglerSweep { job: usize, generation: u64 },
    /// A task retry's backoff elapsed; a newer `attempt` supersedes it.
    RetryTask { job: usize, task: usize, attempt: u32 },
    /// A storage retry's backoff elapsed: re-issue the faulted request.
    RetryStorage(Box<StorageRetry>),
    /// A pool VM came up / finished SSH setup. Like every route naming a
    /// pool VM, it is dropped once `slot` no longer holds `vm` (see
    /// `CloudEnv::vm_live`).
    PoolVm { pool: usize, slot: PoolSlot, vm: VmId },
    /// Master pushed one task bundle into the KV queue.
    Push { pool: usize, job: usize },
    /// A worker process's KV pop from `job`'s queue, issued by worker VM
    /// `vm`.
    Pop { pool: usize, job: usize, vm_idx: usize, proc: usize, vm: VmId },
    /// The master's SSH notification reaching the client.
    MasterNotify { job: usize },
    /// Master re-pushing a requeued task bundle after a worker loss.
    Requeue { pool: usize },
    /// A caller-owned timer registered via [`CloudEnv::external_timer`];
    /// surfaced from [`CloudEnv::pump`] instead of being handled here.
    External { token: u64 },
    /// Keep-alive expiry for an idle pool. `epoch` versions the idle
    /// window: a job starting (or another window opening) invalidates
    /// earlier timers.
    PoolIdle { pool: usize, epoch: u64 },
    /// Periodic master-state snapshot ([`RecoveryMode::Checkpointed`]):
    /// the cadence timer of `job` on `pool`, and the snapshot PUT it
    /// issues.
    Checkpoint { pool: usize, job: usize },
    /// The checkpoint GET of replacement master `vm` during
    /// re-adoption; a twice-replaced master drops the first one's fetch.
    Readopt { pool: usize, job: usize, vm: VmId },
    /// Client PUT of a task bundle to object storage
    /// ([`RecoveryMode::Decentralized`] dispatch).
    DcBundle { pool: usize, job: usize, task: usize },
    /// Worker GET of a claimed task bundle (decentralized dispatch).
    DcClaim { pool: usize, job: usize, vm_idx: usize, proc: usize, vm: VmId, task: usize },
    /// Worker PUT of a per-task completion counter (decentralized
    /// dispatch).
    DcCounter { job: usize },
}

impl CloudEnv {
    /// The job a route belongs to, if any.
    pub(super) fn route_job(route: &Route) -> Option<usize> {
        match route {
            Route::Task { job, .. }
            | Route::InputPut { job, .. }
            | Route::JobSetup { job }
            | Route::List { job, .. }
            | Route::Collect { job, .. }
            | Route::Push { job, .. }
            | Route::MasterNotify { job }
            | Route::Checkpoint { job, .. }
            | Route::Readopt { job, .. }
            | Route::DcBundle { job, .. }
            | Route::DcClaim { job, .. }
            | Route::DcCounter { job } => Some(*job),
            _ => None,
        }
    }

    pub(super) fn on_op(&mut self, route: Route, op: OpId, outcome: OpOutcome) {
        if matches!(outcome, OpOutcome::KvUnreachable) {
            self.on_kv_unreachable(route);
            return;
        }
        match route {
            Route::Task { job, task } => self.on_task_op(job, task, op, outcome),
            Route::InputPut { job, task } => {
                if !self.jobs[job].is_finished() {
                    self.invoke_task(job, task);
                }
            }
            Route::JobSetup { job } => self.on_job_setup(job),
            Route::List { job, generation } => self.on_list(job, generation, outcome),
            Route::Collect {
                job,
                task,
                generation,
            } => self.on_collect(job, task, generation, outcome),
            Route::Push { pool, job } => self.on_push_done(pool, job),
            Route::Pop { pool, job, vm_idx, proc, vm } => {
                self.on_pop(pool, job, vm_idx, proc, vm, outcome)
            }
            Route::Requeue { pool } => self.on_requeue_done(pool),
            Route::Checkpoint { pool, .. } => {
                if self.pools[pool].cfg.recovery == RecoveryMode::Checkpointed {
                    self.recovery_stats.checkpoints_written += 1;
                }
            }
            Route::Readopt { pool, job, vm } => self.on_readopt(pool, job, vm, outcome),
            Route::DcBundle { pool, job, task } => self.on_dc_bundle(pool, job, task),
            Route::DcClaim { pool, job, vm_idx, proc, vm, task } => {
                self.on_dc_claim(pool, job, vm_idx, proc, vm, task, outcome)
            }
            Route::DcCounter { .. } => self.recovery_stats.counters_written += 1,
            other => unreachable!("op completion routed to {other:?}"),
        }
    }

    /// An in-flight KV operation lost its server (master death). Each
    /// route has a graceful landing; none of them may panic, because
    /// under [`RecoveryMode::Protected`] this is exactly how a forced
    /// master kill is supposed to strand the run.
    pub(super) fn on_kv_unreachable(&mut self, route: Route) {
        match route {
            // The worker process survives the master: it idles until
            // recovery requeues work (or forever).
            Route::Pop { pool, job, vm_idx, proc, vm }
                if self.vm_live(pool, PoolSlot::Worker(vm_idx), vm) =>
            {
                self.pools[pool].idle_procs.push((job, vm_idx, proc, vm));
            }
            Route::Push { pool, job } => {
                // Keep the outstanding-push bookkeeping moving so the
                // job reaches its (stalled or recovered) steady state.
                self.on_push_done(pool, job);
            }
            Route::Task { job, task } => {
                // A task's KV action (shuffle exchange) lost the server
                // mid-transfer: the attempt is torn down and retried
                // through the normal task budget.
                self.task_attempt_failed(job, task, AttemptFailure::StorageExhausted);
            }
            // A requeue push that died with the queue: the checkpoint
            // replay (or the stall) owns the task now.
            Route::Requeue { .. } => {}
            _ => {}
        }
    }

    pub(super) fn on_timer(&mut self, route: Route) {
        match route {
            Route::MonitorTick { job, generation } => self.on_monitor_tick(job, generation),
            Route::StragglerSweep { job, generation } => self.on_straggler_sweep(job, generation),
            Route::RetryTask { job, task, attempt } => self.on_retry_task(job, task, attempt),
            Route::RetryStorage(retry) => self.on_retry_storage(*retry),
            Route::PoolVm { pool, slot, vm } => self.on_pool_vm_ready(pool, slot, vm),
            Route::PoolIdle { pool, epoch } => self.on_pool_idle(pool, epoch),
            Route::Checkpoint { pool, job } => self.on_checkpoint_tick(pool, job),
            Route::MasterNotify { job } => {
                // The notifying master must still be alive when the SSH
                // message lands; a freshly-dead master notifies no one.
                if self.world.host_alive(self.jobs[job].monitor_host) {
                    self.complete_job(job, None);
                }
            }
            other => unreachable!("timer routed to {other:?}"),
        }
    }
}
