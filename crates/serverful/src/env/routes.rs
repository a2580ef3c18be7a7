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
    /// An op of one task attempt: its input fetch, its logic's ops or
    /// its result write, and the attempt's sandbox. `attempt` is the
    /// task's attempt count when the op was issued, and `slot` the op's
    /// index in a multi-op action (0 otherwise). Only an op whose attempt
    /// is still live lands (see `CloudEnv::attempt_live`).
    Task { job: usize, task: usize, attempt: u32, slot: u32 },
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
    /// A task put on its pool's queue: the master's KV push, or the
    /// client's bundle PUT. `initial` marks the job's first wave.
    QueuePut { pool: usize, job: usize, task: usize, initial: bool },
    /// A worker process's claim on its pool's queue: a KV pop, or a GET
    /// of the bundle of the task it picked.
    QueueClaim(Claim),
    /// The master's SSH notification reaching the client.
    MasterNotify { job: usize },
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
    /// Worker PUT of a finished task's completion counter (a pool whose
    /// queue is in storage).
    Counter { job: usize },
}

// Every in-flight op keeps its route in `op_routes`: don't let it grow.
const _: () = assert!(std::mem::size_of::<Route>() <= 56);

impl CloudEnv {
    /// The job a route belongs to, if any.
    pub(super) fn route_job(route: &Route) -> Option<usize> {
        match route {
            Route::Task { job, .. }
            | Route::InputPut { job, .. }
            | Route::JobSetup { job }
            | Route::List { job, .. }
            | Route::Collect { job, .. }
            | Route::QueuePut { job, .. }
            | Route::QueueClaim(Claim { job, .. })
            | Route::MasterNotify { job }
            | Route::Checkpoint { job, .. }
            | Route::Readopt { job, .. }
            | Route::Counter { job } => Some(*job),
            _ => None,
        }
    }

    pub(super) fn on_op(&mut self, route: Route, outcome: OpOutcome) {
        if matches!(outcome, OpOutcome::KvUnreachable) {
            self.on_kv_unreachable(route);
            return;
        }
        match route {
            Route::Task { job, task, slot, .. } => self.on_task_op(job, task, slot, outcome),
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
            Route::QueuePut {
                pool,
                job,
                task,
                initial,
            } => self.on_queue_put(pool, job, task, initial),
            Route::QueueClaim(claim) => self.on_queue_claim(claim, outcome),
            Route::Checkpoint { .. } => self.recovery_stats.checkpoints_written += 1,
            Route::Readopt { pool, job, vm } => self.on_readopt(pool, job, vm, outcome),
            Route::Counter { .. } => self.recovery_stats.counters_written += 1,
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
            // recovery puts work back (or forever).
            Route::QueueClaim(c) if self.vm_live(c.pool, PoolSlot::Worker(c.vm_idx), c.vm) => {
                self.pools[c.pool].idle_procs.push((c.job, c.vm_idx, c.proc, c.vm));
            }
            // Keep the first wave's gate moving so the job reaches its
            // (stalled or recovered) steady state.
            Route::QueuePut { pool, job, initial: true, .. } => self.on_push_done(pool, job),
            Route::Task { job, task, .. } => {
                // A task's KV action (shuffle exchange) lost the server
                // mid-transfer: the attempt is torn down and retried
                // through the normal task budget.
                self.task_attempt_failed(job, task, AttemptFailure::StorageExhausted);
            }
            // A later put that died with the queue: the checkpoint replay
            // (or the stall) owns the task now.
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
