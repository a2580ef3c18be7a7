//! Failure handling and re-arming: storage op retries with
//! exponential backoff and task attempt retries, both re-armed as
//! world timers ([`Route::RetryStorage`], [`Route::RetryTask`]). A
//! faulted storage request comes back from the world whole
//! ([`OpOutcome::Faulted`]), so the env keeps no copy of an op in
//! flight.

use super::*;

/// A faulted storage request waiting out its backoff
/// ([`Route::RetryStorage`]).
#[derive(Debug, Clone)]
pub(super) struct StorageRetry {
    /// The host that issued the request.
    pub(super) host: HostId,
    /// The request, as the world handed it back.
    pub(super) request: StorageRequest,
    /// Attempts made so far (the faulted one included).
    pub(super) attempts: u32,
    /// Where the re-issued op's completion goes. A task op's route
    /// names its attempt and its slot in a multi-op action, so the
    /// re-issued op fills the slot the faulted one left open, and a
    /// sibling cannot complete the action around the hole.
    pub(super) route: Route,
}

/// Why a task attempt ended prematurely (selects the retry counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum AttemptFailure {
    /// The sandbox died under the task (already torn down by the world).
    SandboxDead,
    /// A storage op of the attempt ran out of its retry budget.
    StorageExhausted,
    /// The monitor abandoned the attempt as a straggler (sandbox still
    /// running; it is billed and abandoned).
    Straggler,
}

impl CloudEnv {
    /// Moves a storage request from `host` into the world; `attempts`
    /// counts this one, and the route table keeps the count until the op
    /// lands. All env storage traffic flows through here.
    pub(super) fn issue_storage(
        &mut self,
        host: HostId,
        request: StorageRequest,
        attempts: u32,
        route: Route,
    ) {
        // Track the in-flight LIST window of the current monitor
        // generation (see [`Self::monitor_list_overlap`]).
        if let Route::List { job, generation } = &route {
            if let Some(handle) = self.monitors.get_mut(job) {
                if handle.generation == *generation {
                    handle.lists_in_flight += 1;
                    self.max_list_overlap = self.max_list_overlap.max(handle.lists_in_flight);
                }
            }
        }
        // A dedicated master holding no queue must stay out of the data
        // path entirely; any op issued from its host is counted so the
        // chaos suite can assert the count stays zero.
        let from_idle_master = self.pools.iter().any(|p| {
            !p.task_queue.on_master() && p.master.as_ref().is_some_and(|m| m.host == host)
        });
        if from_idle_master {
            self.recovery_stats.master_data_ops += 1;
        }
        // Storage is charged synchronously at issue time; bill it to the
        // issuing route's job so concurrent jobs attribute correctly.
        if let Some(job) = Self::route_job(&route) {
            let label = self.jobs[job].name.clone();
            self.world.set_bill_label(label);
        }
        let parent = self.route_span(&route);
        self.world.set_trace_parent(parent);
        let op = self.world.storage(host, request);
        self.world.set_trace_parent(SpanId::NONE);
        self.op_routes.insert(op, (route, attempts));
    }

    /// A storage op came back with an injected fault (transient 5xx or
    /// SlowDown), handing back `request` from `host` after `attempts`
    /// tries. Monitor ops retry indefinitely — a polling loop just polls
    /// again; everything else obeys the job's retry budget and escalates
    /// to a task-level retry when exhausted.
    pub(super) fn on_storage_faulted(
        &mut self,
        op: OpId,
        route: Route,
        host: HostId,
        request: StorageRequest,
        attempts: u32,
    ) {
        // A faulted LIST leaves the in-flight window now; its retry
        // re-enters through `issue_storage` after the backoff.
        if let Route::List { job, generation } = &route {
            if let Some(handle) = self.monitors.get_mut(job) {
                if handle.generation == *generation {
                    handle.lists_in_flight = handle.lists_in_flight.saturating_sub(1);
                }
            }
        }
        let Some(job) = Self::route_job(&route) else {
            unreachable!("faulted op routed to {route:?}")
        };
        if self.jobs[job].is_finished() {
            return;
        }
        let policy = self.jobs[job].retry.clone();
        // Recovery and queue control traffic (checkpoints, re-adoption
        // fetches, bundle puts and claims, completion counters) retries
        // indefinitely like the monitor: losing one to a transient must
        // not fail a task attempt.
        let monitor = matches!(
            route,
            Route::List { .. }
                | Route::Collect { .. }
                | Route::Checkpoint { .. }
                | Route::Readopt { .. }
                | Route::QueuePut { .. }
                | Route::QueueClaim(_)
                | Route::Counter { .. }
        );
        if !monitor && !policy.allows_retry(attempts) {
            self.world.fault_ledger_mut().attempts_exhausted += 1;
            match route {
                Route::Task { job, task, .. } | Route::InputPut { job, task } => {
                    self.task_attempt_failed(job, task, AttemptFailure::StorageExhausted);
                }
                other => unreachable!("storage budget exhausted on {other:?}"),
            }
            return;
        }
        self.world.fault_ledger_mut().storage_retries += 1;
        let retry_now = self.world.now();
        self.world
            .tracer_mut()
            .instant(retry_now, "storage-retry", "retry", "retries");
        let backoff = policy
            .jittered_backoff_secs(attempts.min(policy.max_attempts.max(1)), op.index());
        let retry = StorageRetry {
            host,
            request,
            attempts,
            route,
        };
        self.set_timer(
            SimDuration::from_secs_f64(backoff),
            Route::RetryStorage(Box::new(retry)),
        );
    }

    /// A task attempt failed (sandbox death, exhausted storage budget, or
    /// straggler abandonment): tear the attempt down and either schedule
    /// a re-dispatch or fail the job when the budget is spent.
    pub(super) fn task_attempt_failed(&mut self, job: usize, task: usize, why: AttemptFailure) {
        if self.jobs[job].is_finished() {
            return;
        }
        self.clear_task_attempt(job, task, why);
        let attempts = self.jobs[job].tasks[task].attempts;
        let policy = self.jobs[job].retry.clone();
        if !policy.allows_retry(attempts) {
            self.world.fault_ledger_mut().attempts_exhausted += 1;
            let err = ExecError::AttemptsExhausted {
                what: format!("task {task} of job '{}'", self.jobs[job].name),
                attempts: attempts.max(1),
            };
            self.complete_job(job, Some(err));
            return;
        }
        match why {
            AttemptFailure::Straggler => {
                self.world.fault_ledger_mut().stragglers_redispatched += 1;
            }
            _ => self.world.fault_ledger_mut().task_retries += 1,
        }
        if self.world.tracer().is_enabled() {
            let now = self.world.now();
            let name = match why {
                AttemptFailure::Straggler => format!("straggler task {task}"),
                _ => format!("retry task {task}"),
            };
            self.world.tracer_mut().instant(now, &name, "retry", "retries");
        }
        let backoff = policy.jittered_backoff_secs(
            attempts.max(1),
            ((job as u64) << 32) | task as u64,
        );
        self.jobs[job].tasks[task].phase = TaskPhase::Backoff;
        self.set_timer(
            SimDuration::from_secs_f64(backoff),
            Route::RetryTask {
                job,
                task,
                attempt: attempts,
            },
        );
    }

    /// Drops every trace of a task's current attempt: the run, the
    /// sandbox (abandoned unless already dead) and the worker slot (its
    /// process goes back to popping). The attempt's ops still in flight
    /// are dropped where they land, by `attempt_live`.
    pub(super) fn clear_task_attempt(&mut self, job: usize, task: usize, why: AttemptFailure) {
        if let Some(mut run) = self.jobs[job].tasks[task].run.take() {
            self.end_io_busy(&mut run);
        }
        if let Some(sandbox) = self.jobs[job].tasks[task].sandbox.take() {
            self.sandbox_routes.remove(&sandbox);
            if why != AttemptFailure::SandboxDead {
                // Abandon the still-running sandbox: billed (AWS bills
                // failed executions) and booked as waste.
                self.world.faas_abandon(sandbox);
            }
        }
        if let Some((vm_idx, proc)) = self.jobs[job].tasks[task].worker.take() {
            // The freed worker process claims its next task (this task
            // goes back on the queue only after backoff).
            if let JobBackend::Standalone { pool } = self.jobs[job].backend {
                self.worker_claim(pool, vm_idx, proc);
            }
        }
        let now = self.world.now();
        let span = std::mem::replace(&mut self.jobs[job].tasks[task].span, SpanId::NONE);
        let tracer = self.world.tracer_mut();
        let abandoned = match why {
            AttemptFailure::SandboxDead => "sandbox-dead",
            AttemptFailure::StorageExhausted => "storage-exhausted",
            AttemptFailure::Straggler => "straggler",
        };
        tracer.attr_str(span, "abandoned", abandoned);
        tracer.end(span, now);
        self.jobs[job].tasks[task].phase = TaskPhase::Queued;
        self.jobs[job].tasks[task].started_at = None;
    }

    /// Backoff elapsed: re-dispatch a failed task attempt.
    pub(super) fn on_retry_task(&mut self, job: usize, task: usize, attempt: u32) {
        if self.jobs[job].is_finished() {
            return;
        }
        if self.jobs[job].tasks[task].attempts != attempt {
            return; // a newer attempt superseded this timer
        }
        self.jobs[job].tasks[task].phase = TaskPhase::Queued;
        match self.jobs[job].backend {
            JobBackend::Faas { .. } => self.dispatch_faas_task(job, task),
            JobBackend::Standalone { pool } => self.queue_put(pool, job, task, false),
        }
    }

    /// Backoff elapsed: re-issue a faulted storage request, unless the
    /// attempt it belonged to was torn down meanwhile.
    pub(super) fn on_retry_storage(&mut self, retry: StorageRetry) {
        let StorageRetry {
            host,
            request,
            attempts,
            route,
        } = retry;
        let Some(job) = Self::route_job(&route) else {
            unreachable!("storage retry routed to {route:?}")
        };
        if self.jobs[job].is_finished() {
            return;
        }
        if let Route::Task { job, task, attempt, .. } = route {
            if !self.attempt_live(job, task, attempt) {
                return; // the attempt was torn down; drop the op
            }
        }
        if !self.world.host_alive(host) {
            // Issuing host died; task-level recovery owns this — except
            // a storage claim, whose task would otherwise be stranded (it
            // has no worker assigned yet): it goes back on the queue.
            if let Route::QueueClaim(Claim { pool, job, task: Some(task), .. }) = route {
                self.queue_put(pool, job, task as usize, false);
            }
            return;
        }
        self.issue_storage(host, request, attempts + 1, route);
    }
}
