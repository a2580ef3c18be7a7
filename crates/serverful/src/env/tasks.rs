//! Task execution on both backends: FaaS dispatch, sandbox and
//! worker task startup, the action/step engine driving [`TaskLogic`],
//! and task completion/failure.

use super::*;

impl CloudEnv {
    pub(super) fn dispatch_faas(&mut self, job: usize) {
        let n = self.jobs[job].inputs.len();
        for task in 0..n {
            if self.jobs[job].tasks[task].held {
                continue; // gated; dispatched on release
            }
            self.dispatch_faas_task(job, task);
        }
    }

    /// Dispatches (or re-dispatches) one FaaS task: uploads its input
    /// bundle, and invokes the sandbox once the upload lands, so the
    /// sandbox never races its own input. Re-uploading the bundle on
    /// retries is idempotent and covers the case where the original
    /// upload itself was lost.
    pub(super) fn dispatch_faas_task(&mut self, job: usize, task: usize) {
        let key = self.jobs[job].input_key(task);
        let body = ObjectBody::real(self.jobs[job].inputs[task].encode());
        let client = self.world.client_host();
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            client,
            StorageRequest::Put { bucket, key, body },
            1,
            Route::InputPut { job, task },
        );
    }

    pub(super) fn invoke_task(&mut self, job: usize, task: usize) {
        let JobBackend::Faas { memory_mb } = self.jobs[job].backend else {
            unreachable!("sandbox invoke for a non-FaaS job")
        };
        let span = self.begin_attempt_span(job, task, FAAS_FLEET);
        // The sandbox captures the label at invoke time and bills its
        // whole execution to this job, however late it retires.
        let label = self.jobs[job].name.clone();
        self.world.set_bill_label(label);
        self.world.set_trace_parent(span);
        let sandbox = self.world.faas_invoke(memory_mb, FAAS_FLEET);
        self.world.set_trace_parent(SpanId::NONE);
        let now = self.world.now();
        let t = &mut self.jobs[job].tasks[task];
        t.sandbox = Some(sandbox);
        t.phase = TaskPhase::Starting;
        t.attempts += 1;
        t.started_at = Some(now);
        t.span = span;
        let route = self.task_route(job, task, 0);
        self.sandbox_routes.insert(sandbox, route);
    }

    pub(super) fn on_sandbox_up(&mut self, route: Route, sandbox: SandboxId) {
        let Route::Task { job, task, .. } = route else {
            unreachable!("sandbox route is always a task")
        };
        if self.jobs[job].is_finished() {
            // Job failed while this sandbox was starting; bill and drop.
            self.sandbox_routes.remove(&sandbox);
            self.world.faas_release(sandbox);
            return;
        }
        let host = self.world.sandbox_host(sandbox);
        self.jobs[job].tasks[task].phase = TaskPhase::FetchingInput;
        let bucket = self.jobs[job].bucket.clone();
        let key = self.jobs[job].input_key(task);
        // The fetch is the attempt's first op: it goes out under the
        // sandbox's route, and the attempt's run holds the host for when
        // the input arrives.
        self.issue_storage(host, StorageRequest::Get { bucket, key }, 1, route);
        self.jobs[job].tasks[task].run = Some(TaskRun::new(host, None));
    }

    /// Starts a task on `run` with the logic the job's factory builds.
    pub(super) fn start_task(
        &mut self,
        job: usize,
        task: usize,
        mut run: TaskRun,
        input: &Payload,
    ) {
        run.logic = (self.jobs[job].factory)(input);
        self.jobs[job].tasks[task].phase = TaskPhase::Running;
        let step = run.logic.on_start(input);
        self.apply_step(job, task, run, step);
    }

    /// Applies a task step: issues the action's ops or finishes the task.
    pub(super) fn apply_step(&mut self, job: usize, task: usize, mut run: TaskRun, step: TaskStep) {
        match step {
            TaskStep::Act(action) => {
                match self.issue_action(job, task, &mut run, action) {
                    Ok(()) => self.jobs[job].tasks[task].run = Some(run),
                    Err(err) => self.fail_task(job, task, run, err.to_string()),
                }
            }
            TaskStep::Finish(payload) => {
                self.jobs[job].tasks[task].run = Some(run);
                self.finish_task(job, task, payload);
            }
            TaskStep::Fail(msg) => self.fail_task(job, task, run, msg),
        }
    }

    pub(super) fn issue_action(
        &mut self,
        job: usize,
        task: usize,
        run: &mut TaskRun,
        action: Action,
    ) -> Result<(), ExecError> {
        let host = run.host;
        run.shape = PendingShape::Single;
        let route = self.task_route(job, task, 0);
        // Data-path actions burn partial CPU for (de)serialisation while
        // the transfer is in flight (accounting only).
        let overlapped = !matches!(action, Action::Compute { .. } | Action::Sleep { .. });
        if overlapped {
            self.world.task_io_busy(host, IO_COMPUTE_OVERLAP);
            run.io_busy = IO_COMPUTE_OVERLAP;
        }
        match action {
            Action::Compute { cpu_secs } => {
                let op = self.world.compute(host, cpu_secs);
                self.op_routes.insert(op, (route, 1));
            }
            Action::Sleep { secs } => {
                let op = self.world.sleep(SimDuration::from_secs_f64(secs));
                self.op_routes.insert(op, (route, 1));
            }
            Action::Get { bucket, key } => {
                self.issue_storage(host, StorageRequest::Get { bucket, key }, 1, route);
            }
            Action::Put { bucket, key, body } => {
                let request = StorageRequest::Put { bucket, key, body };
                self.issue_storage(host, request, 1, route);
            }
            Action::Delete { bucket, key } => {
                let request = StorageRequest::Delete { bucket, key };
                self.issue_storage(host, request, 1, route);
            }
            Action::List { bucket, prefix } => {
                let request = StorageRequest::List { bucket, prefix };
                self.issue_storage(host, request, 1, route);
            }
            Action::GetMany { bucket, keys } => {
                assert!(!keys.is_empty(), "GetMany with no keys");
                run.shape = PendingShape::Multi {
                    results: vec![None; keys.len()],
                    remaining: keys.len(),
                    puts: false,
                };
                for (slot, key) in (0..).zip(keys) {
                    let request = StorageRequest::Get {
                        bucket: bucket.clone(),
                        key,
                    };
                    let route = self.task_route(job, task, slot);
                    self.issue_storage(host, request, 1, route);
                }
            }
            Action::PutMany { bucket, entries } => {
                assert!(!entries.is_empty(), "PutMany with no entries");
                run.shape = PendingShape::Multi {
                    results: Vec::new(),
                    remaining: entries.len(),
                    puts: true,
                };
                for (slot, (key, body)) in (0..).zip(entries) {
                    let request = StorageRequest::Put {
                        bucket: bucket.clone(),
                        key,
                        body,
                    };
                    let route = self.task_route(job, task, slot);
                    self.issue_storage(host, request, 1, route);
                }
            }
            Action::KvGet { key } => {
                let kv = run.kv.ok_or_else(|| {
                    ExecError::Unsupported("KV access outside the serverful backend".into())
                })?;
                self.world.set_trace_parent(self.task_span(job, task));
                let op = self.world.kv_get(host, kv, key);
                self.world.set_trace_parent(SpanId::NONE);
                self.op_routes.insert(op, (route, 1));
            }
            Action::KvPut { key, body } => {
                let kv = run.kv.ok_or_else(|| {
                    ExecError::Unsupported("KV access outside the serverful backend".into())
                })?;
                self.world.set_trace_parent(self.task_span(job, task));
                let op = self.world.kv_put(host, kv, key, body);
                self.world.set_trace_parent(SpanId::NONE);
                self.op_routes.insert(op, (route, 1));
            }
        }
        Ok(())
    }

    /// The route of an op the current attempt of `task` issues; `slot`
    /// is the op's index in a multi-op action, 0 for any other op.
    pub(super) fn task_route(&self, job: usize, task: usize, slot: u32) -> Route {
        let attempt = self.jobs[job].tasks[task].attempts;
        Route::Task {
            job,
            task,
            attempt,
            slot,
        }
    }

    /// The one staleness rule for a task's ops ([`Route::Task`]), the
    /// task-attempt twin of `vm_live`: an op, or a storage retry of one,
    /// is live only while its job is unfinished and the attempt that
    /// issued it is the task's current one and still holds its run.
    /// Tearing an attempt down takes the run, and the next attempt counts
    /// up, so the ops of a torn-down attempt are dropped where they land.
    pub(super) fn attempt_live(&self, job: usize, task: usize, attempt: u32) -> bool {
        let t = &self.jobs[job].tasks[task];
        !self.jobs[job].is_finished() && t.attempts == attempt && t.run.is_some()
    }

    /// An op of a live task attempt completed: its input fetch, an op of
    /// its logic's action (`slot` in a multi-op one) or its result write.
    pub(super) fn on_task_op(&mut self, job: usize, task: usize, slot: u32, outcome: OpOutcome) {
        // The task's host may have died at this very timestamp with its
        // failure notification still queued behind this op: issuing the
        // next action would hit a dead host. Drop the completion — the
        // pending SandboxFailed/VmFailed tears the attempt down.
        let t = &mut self.jobs[job].tasks[task];
        let mut run = t.run.take().expect("a live attempt holds its run");
        if !self.world.host_alive(run.host) {
            t.run = Some(run);
            return;
        }
        match t.phase {
            TaskPhase::FetchingInput => {
                let body = match outcome {
                    OpOutcome::GetOk { body } => body,
                    OpOutcome::GetMissing => {
                        self.fail_task(job, task, run, "input bundle missing".into());
                        return;
                    }
                    other => unreachable!("input fetch yielded {other:?}"),
                };
                let bytes = body.bytes().expect("input bundles are always real bytes");
                let input = match Payload::decode(bytes) {
                    Ok(input) => input,
                    Err(e) => {
                        self.fail_task(job, task, run, e.to_string());
                        return;
                    }
                };
                self.start_task(job, task, run, &input);
            }
            TaskPhase::Running => {
                // A listing or a KV value is its single-op action's whole
                // outcome; any other op reports to its slot.
                let done = match outcome {
                    OpOutcome::ListOk { keys } => Some(ActionOutcome::Keys(keys)),
                    OpOutcome::KvValue { body } => Some(ActionOutcome::KvValue(body)),
                    outcome => run.complete_op(slot, outcome),
                };
                match done {
                    Some(outcome) => {
                        // The overlapped-I/O accounting ends with the
                        // action.
                        self.end_io_busy(&mut run);
                        let step = run.logic.on_action(outcome);
                        self.apply_step(job, task, run, step);
                    }
                    None => self.jobs[job].tasks[task].run = Some(run),
                }
            }
            TaskPhase::WritingResult => {
                debug_assert!(matches!(outcome, OpOutcome::PutOk));
                t.run = Some(run);
                self.task_done(job, task);
            }
            ref other => unreachable!("op completed in phase {other:?}"),
        }
    }

    /// Task logic finished: write the encoded result to object storage.
    pub(super) fn finish_task(&mut self, job: usize, task: usize, payload: Payload) {
        let host = self.jobs[job].tasks[task].run.as_ref().unwrap().host;
        self.jobs[job].tasks[task].phase = TaskPhase::WritingResult;
        let bucket = self.jobs[job].bucket.clone();
        let key = self.jobs[job].result_key(task);
        let body = ObjectBody::real(payload.encode());
        let route = self.task_route(job, task, 0);
        self.issue_storage(host, StorageRequest::Put { bucket, key, body }, 1, route);
    }

    /// Result written: retire the task's host slot.
    pub(super) fn task_done(&mut self, job: usize, task: usize) {
        let now = self.world.now();
        let span = std::mem::replace(&mut self.jobs[job].tasks[task].span, SpanId::NONE);
        self.world.tracer_mut().end(span, now);
        self.jobs[job].tasks[task].phase = TaskPhase::Done;
        self.jobs[job].completed.push(task);
        if let Some(sandbox) = self.jobs[job].tasks[task].sandbox {
            self.sandbox_routes.remove(&sandbox);
            self.world.faas_release(sandbox);
        }
        if let Some((vm_idx, proc)) = self.jobs[job].tasks[task].worker {
            if let JobBackend::Standalone { pool } = self.jobs[job].backend {
                // With the queue in storage, the completion counter goes
                // to storage before the process moves on.
                if !self.pools[pool].task_queue.on_master() {
                    self.write_counter(pool, job, task, vm_idx);
                }
                // The worker process claims its next logical function.
                self.worker_claim(pool, vm_idx, proc);
            }
        }
    }

    /// Ends the overlapped-I/O busy accounting of a task's action.
    pub(super) fn end_io_busy(&mut self, run: &mut TaskRun) {
        if run.io_busy > 0.0 {
            self.world.task_io_busy(run.host, -run.io_busy);
            run.io_busy = 0.0;
        }
    }

    pub(super) fn fail_task(&mut self, job: usize, task: usize, mut run: TaskRun, msg: String) {
        self.end_io_busy(&mut run);
        drop(run);
        let now = self.world.now();
        let span = std::mem::replace(&mut self.jobs[job].tasks[task].span, SpanId::NONE);
        let tracer = self.world.tracer_mut();
        tracer.attr_str(span, "failed", &msg);
        tracer.end(span, now);
        self.jobs[job].tasks[task].phase = TaskPhase::Failed;
        if let Some(sandbox) = self.jobs[job].tasks[task].sandbox {
            self.sandbox_routes.remove(&sandbox);
            self.world.faas_release(sandbox);
        }
        let err = ExecError::TaskFailed(format!("task {task}: {msg}"));
        self.complete_job(job, Some(err));
    }

    // ------------------------------------------------------------------
    // Completion monitor (shared: client for FaaS, master for VMs)
    // ------------------------------------------------------------------
}
