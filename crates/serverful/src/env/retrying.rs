//! Failure handling and re-arming: storage op retries with
//! exponential backoff and task attempt retries, both re-armed as
//! world timers ([`Route::RetryStorage`], [`Route::RetryTask`]).

use super::*;

/// A retryable storage request, kept verbatim so a faulted op can be
/// re-issued after backoff.
#[derive(Debug, Clone)]
pub(super) enum StorageSpec {
    Get { host: HostId, bucket: String, key: String },
    Put { host: HostId, bucket: String, key: String, body: ObjectBody },
    List { host: HostId, bucket: String, prefix: String },
    Delete { host: HostId, bucket: String, key: String },
}

impl StorageSpec {
    pub(super) fn host(&self) -> HostId {
        match self {
            StorageSpec::Get { host, .. }
            | StorageSpec::Put { host, .. }
            | StorageSpec::List { host, .. }
            | StorageSpec::Delete { host, .. } => *host,
        }
    }
}

/// A faulted storage request waiting out its backoff
/// ([`Route::RetryStorage`]).
#[derive(Debug, Clone)]
pub(super) struct StorageRetry {
    pub(super) spec: StorageSpec,
    /// Attempts made so far (the faulted one included).
    pub(super) attempts: u32,
    /// Where the re-issued op's completion goes.
    pub(super) route: Route,
    /// `(faulted op, its slot)` in the task action's pending map, if
    /// any. The faulted op stays in the map as a placeholder while the
    /// backoff runs — so a sibling op of a multi-op action cannot drain
    /// the map and assemble a result with a hole — and is swapped for
    /// the re-issued op at fire time.
    pub(super) pending_slot: Option<(OpId, usize)>,
    /// Task attempt the op belonged to; a mismatch at fire time means
    /// the whole attempt was torn down meanwhile.
    pub(super) task_attempt: u32,
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
    /// Issues a storage request from its spec, remembering it so a fault
    /// can re-issue it after backoff. All env storage traffic flows
    /// through here.
    pub(super) fn issue_storage(&mut self, spec: StorageSpec, attempts: u32, route: Route) -> OpId {
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
        // A decentralized pool's dedicated master must stay out of the
        // data path entirely; any op issued from its host is counted so
        // the chaos suite can assert the count stays zero.
        let from_dc_master = self.pools.iter().any(|p| {
            p.cfg.recovery == RecoveryMode::Decentralized
                && !p.consolidated()
                && p.master.as_ref().is_some_and(|m| m.host == spec.host())
        });
        if from_dc_master {
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
        let op = match &spec {
            StorageSpec::Get { host, bucket, key } => {
                self.world.get_object(*host, bucket, key)
            }
            StorageSpec::Put {
                host,
                bucket,
                key,
                body,
            } => self.world.put_object(*host, bucket, key, body.clone()),
            StorageSpec::List {
                host,
                bucket,
                prefix,
            } => self.world.list_objects(*host, bucket, prefix),
            StorageSpec::Delete { host, bucket, key } => {
                self.world.delete_object(*host, bucket, key)
            }
        };
        self.world.set_trace_parent(SpanId::NONE);
        self.op_specs.insert(op, (spec, attempts));
        self.op_routes.insert(op, route);
        op
    }

    /// A storage op came back with an injected fault (transient 5xx or
    /// SlowDown). Monitor ops retry indefinitely — a polling loop just
    /// polls again; everything else obeys the job's retry budget and
    /// escalates to a task-level retry when exhausted.
    pub(super) fn on_storage_faulted(&mut self, op: OpId, route: Route, spec: Option<(StorageSpec, u32)>) {
        let Some((spec, attempts)) = spec else {
            unreachable!("faulted op without a stored spec")
        };
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
        // Recovery control traffic (checkpoints, re-adoption fetches,
        // completion counters) retries indefinitely like the monitor:
        // losing one to a transient must not fail a task attempt.
        let monitor = matches!(
            route,
            Route::List { .. }
                | Route::Collect { .. }
                | Route::Checkpoint { .. }
                | Route::Readopt { .. }
                | Route::DcBundle { .. }
                | Route::DcClaim { .. }
                | Route::DcCounter { .. }
        );
        if !monitor && !policy.allows_retry(attempts) {
            self.world.fault_ledger_mut().attempts_exhausted += 1;
            match route {
                Route::Task { job, task } | Route::InputPut { job, task } => {
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
        // For task-logic ops, the faulted op STAYS in the attempt's
        // pending map as a placeholder (siblings of a multi-op action
        // must not see the map drain and assemble a holey result); the
        // retry swaps in its replacement.
        let (pending_slot, task_attempt) = match &route {
            Route::Task { job, task } => {
                let t = &mut self.jobs[*job].tasks[*task];
                let index = t.run.as_ref().and_then(|r| r.pending.get(&op).copied());
                (index.map(|i| (op, i)), t.attempts)
            }
            _ => (None, 0),
        };
        let backoff = policy
            .jittered_backoff_secs(attempts.min(policy.max_attempts.max(1)), op.index());
        let retry = StorageRetry {
            spec,
            attempts,
            route,
            pending_slot,
            task_attempt,
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
        self.pending_task_retries.insert((job, task), attempts);
        self.set_timer(
            SimDuration::from_secs_f64(backoff),
            Route::RetryTask {
                job,
                task,
                attempt: attempts,
            },
        );
    }

    /// Drops every trace of a task's current attempt: pending op routes,
    /// the run, the sandbox (abandoned unless already dead) and the
    /// worker slot (its process goes back to popping).
    pub(super) fn clear_task_attempt(&mut self, job: usize, task: usize, why: AttemptFailure) {
        if let Some(mut run) = self.jobs[job].tasks[task].run.take() {
            for op in run.pending.keys() {
                self.op_routes.remove(op);
                self.op_specs.remove(op);
            }
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
            // The freed worker process fetches its next bundle (this
            // task's own requeued bundle arrives only after backoff).
            if let JobBackend::Standalone { pool } = self.jobs[job].backend {
                self.worker_pop(pool, vm_idx, proc);
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
        if self.pending_task_retries.get(&(job, task)) == Some(&attempt) {
            self.pending_task_retries.remove(&(job, task));
        }
        if self.jobs[job].is_finished() {
            return;
        }
        if self.jobs[job].tasks[task].attempts != attempt {
            return; // a newer attempt superseded this timer
        }
        match self.jobs[job].backend.clone() {
            JobBackend::Faas {
                memory_mb,
                fetch_input,
                fleet,
            } => self.dispatch_faas_task(job, task, memory_mb, fetch_input, &fleet),
            JobBackend::Standalone { pool } => {
                self.requeue_task(pool, job, task);
            }
        }
    }

    /// Backoff elapsed: re-issue a faulted storage request, unless the
    /// attempt it belonged to was torn down meanwhile.
    pub(super) fn on_retry_storage(&mut self, retry: StorageRetry) {
        let StorageRetry {
            spec,
            attempts,
            route,
            pending_slot,
            task_attempt,
        } = retry;
        let Some(job) = Self::route_job(&route) else {
            unreachable!("storage retry routed to {route:?}")
        };
        if self.jobs[job].is_finished() {
            return;
        }
        if let Route::Task { job: j, task } = route {
            if self.jobs[j].tasks[task].attempts != task_attempt {
                return; // the whole attempt was retried; drop the op
            }
        }
        if !self.world.host_alive(spec.host()) {
            // Issuing host died; task-level recovery owns this — except
            // an in-flight decentralized claim, whose task would
            // otherwise be stranded (it has no worker assigned yet).
            if let Route::DcClaim { pool, task, .. } = route {
                self.pools[pool].dc_ready.push_back(task);
                self.on_requeue_done(pool);
            }
            return;
        }
        let op = self.issue_storage(spec, attempts + 1, route.clone());
        if let Route::Task { job: j, task } = route {
            if let (Some((stale, idx)), Some(run)) =
                (pending_slot, self.jobs[j].tasks[task].run.as_mut())
            {
                run.pending.remove(&stale);
                run.pending.insert(op, idx);
            }
        }
    }
}
