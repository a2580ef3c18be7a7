//! The storage-polling completion monitor: tick and LIST/GET
//! handling, straggler speculation, and job completion. A monitor is a
//! chain of world timers ([`Route::MonitorTick`]) stamped with its
//! generation; there is no loop state beyond [`MonitorHandle`].

use super::*;

/// Per-job completion-monitor state. A (re)start bumps `generation`,
/// and every tick, LIST, GET and straggler sweep carries the generation
/// that armed it, so work of a superseded monitor is dropped on arrival.
/// Only a monitor start and a LIST reply of the current generation arm
/// the next tick, which is what keeps the LIST cycle from forking.
pub(super) struct MonitorHandle {
    /// Bumped on every (re)start; stale ticks, LISTs and collects are
    /// dropped on mismatch.
    pub(super) generation: u64,
    /// LIST requests of the *current* generation in flight. The
    /// "exactly one LIST cycle" invariant says this never exceeds 1;
    /// [`CloudEnv::monitor_list_overlap`] exposes the high-water mark so
    /// tests can assert it.
    pub(super) lists_in_flight: u32,
    /// Result GETs outstanding in the final collection, once the LIST
    /// came back complete.
    pub(super) collecting: Option<usize>,
}

impl CloudEnv {
    /// Starts the storage-polling completion monitor once it can make
    /// progress: infrastructure dispatched *and* every task released.
    /// Deferring the first poll past the last release keeps a gated job
    /// from burning LIST requests on results that cannot exist yet; for
    /// ungated jobs `held_tasks` is 0 and the monitor starts exactly
    /// where it always did.
    pub(super) fn maybe_start_monitor(&mut self, job: usize) {
        let j = &self.jobs[job];
        if j.monitor_started || !j.dispatch_ready || j.held_tasks > 0 {
            return;
        }
        self.jobs[job].monitor_started = true;
        self.start_monitor(job);
    }

    /// (Re)starts a job's completion monitor under a fresh generation —
    /// plus a straggler sweep when the retry policy enables one. Ticks
    /// and LISTs of a previous generation (say, of a master lost before
    /// a checkpoint replay) are dropped when they land, so exactly one
    /// LIST cycle can ever be in flight.
    pub(super) fn start_monitor(&mut self, job: usize) {
        let generation = self.monitors.get(&job).map_or(0, |h| h.generation + 1);
        self.monitors.insert(
            job,
            MonitorHandle {
                generation,
                lists_in_flight: 0,
                collecting: None,
            },
        );
        let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
        self.set_timer(interval, Route::MonitorTick { job, generation });
        // Straggler speculation only applies to FaaS jobs, and only when
        // the policy sets a timeout: golden runs arm exactly one timer.
        let straggling = self.jobs[job].retry.straggler_timeout_secs.is_some()
            && matches!(self.jobs[job].backend, JobBackend::Faas { .. });
        if straggling {
            self.set_timer(interval, Route::StragglerSweep { job, generation });
        }
    }

    /// True while `generation` is the job's live monitor (a finished
    /// job has none: `complete_job` drops its handle).
    fn monitor_current(&self, job: usize, generation: u64) -> bool {
        self.monitors
            .get(&job)
            .is_some_and(|h| h.generation == generation)
    }

    /// A monitor tick fired: run one LIST cycle — unless the tick is
    /// stale (job finished, superseded generation) or its monitoring
    /// host died, which ends the chain.
    pub(super) fn on_monitor_tick(&mut self, job: usize, generation: u64) {
        if !self.monitor_current(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        let host = self.jobs[job].monitor_host;
        let bucket = self.jobs[job].bucket.clone();
        let prefix = self.jobs[job].result_prefix();
        self.issue_storage(
            host,
            StorageRequest::List { bucket, prefix },
            1,
            Route::List { job, generation },
        );
    }

    /// A straggler-speculation sweep fired: abandon late FaaS attempts,
    /// then re-arm while the job runs under the same monitor.
    pub(super) fn on_straggler_sweep(&mut self, job: usize, generation: u64) {
        if !self.monitor_current(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        self.check_stragglers(job);
        if self.jobs[job].is_finished() {
            return; // straggler handling may exhaust a task's budget
        }
        let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
        self.set_timer(interval, Route::StragglerSweep { job, generation });
    }

    /// Speculative re-execution: on each poll, FaaS task attempts older
    /// than the straggler timeout are abandoned (billed, booked as waste)
    /// and re-dispatched. Disabled unless the policy sets a timeout.
    pub(super) fn check_stragglers(&mut self, job: usize) {
        let Some(timeout) = self.jobs[job].retry.straggler_timeout_secs else {
            return;
        };
        if !matches!(self.jobs[job].backend, JobBackend::Faas { .. }) {
            return;
        }
        let now = self.world.now();
        let policy = self.jobs[job].retry.clone();
        let late: Vec<usize> = self
            .jobs[job]
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                // Only attempts whose sandbox has started can be safely
                // abandoned (cold starts are left to finish).
                matches!(
                    t.phase,
                    TaskPhase::FetchingInput | TaskPhase::Running | TaskPhase::WritingResult
                ) && policy.allows_retry(t.attempts)
                    && t.started_at
                        .is_some_and(|s| (now - s).as_secs_f64() > timeout)
            })
            .map(|(i, _)| i)
            .collect();
        for task in late {
            self.task_attempt_failed(job, task, AttemptFailure::Straggler);
            if self.jobs[job].is_finished() {
                return;
            }
        }
    }

    pub(super) fn on_list(&mut self, job: usize, generation: u64, outcome: OpOutcome) {
        // The reply ends its request's in-flight window whatever the
        // guards below decide.
        if let Some(handle) = self.monitors.get_mut(&job) {
            if handle.generation == generation {
                handle.lists_in_flight = handle.lists_in_flight.saturating_sub(1);
            }
        }
        // The job finished, a checkpoint replay already restarted the
        // monitor (generation mismatch), or the listing master died while
        // the op was in flight: drop the reply and arm nothing. In the latter case the
        // replacement monitor (or the stall, under
        // [`RecoveryMode::Protected`]) owns the job from here.
        if !self.monitor_current(job, generation)
            || !self.world.host_alive(self.jobs[job].monitor_host)
        {
            return;
        }
        let OpOutcome::ListOk { keys } = outcome else {
            unreachable!("list op yielded a non-list outcome")
        };
        let total = self.jobs[job].tasks.len();
        if keys.len() < total {
            let interval = SimDuration::from_secs_f64(self.jobs[job].poll_interval);
            self.set_timer(interval, Route::MonitorTick { job, generation });
            return;
        }
        // All results present: collect them; no further tick is armed.
        let host = self.jobs[job].monitor_host;
        let prefix = self.jobs[job].result_prefix();
        let mut outstanding = 0;
        for key in keys {
            let Some(task) = key.strip_prefix(&prefix).and_then(|t| t.parse().ok()) else {
                continue;
            };
            let bucket = self.jobs[job].bucket.clone();
            self.issue_storage(
                host,
                StorageRequest::Get { bucket, key },
                1,
                Route::Collect {
                    job,
                    task,
                    generation,
                },
            );
            outstanding += 1;
        }
        self.monitors
            .get_mut(&job)
            .expect("monitor handle vanished")
            .collecting = Some(outstanding);
    }

    pub(super) fn on_collect(&mut self, job: usize, task: usize, generation: u64, outcome: OpOutcome) {
        if self.jobs[job].is_finished() {
            return;
        }
        // Collector died mid-gather (master loss): the replacement's
        // replay restarts the whole monitor cycle from a fresh LIST.
        if !self.world.host_alive(self.jobs[job].monitor_host) {
            return;
        }
        let body = match outcome {
            OpOutcome::GetOk { body } => body,
            other => unreachable!("collect yielded {other:?}"),
        };
        let decoded = match body.bytes() {
            Some(bytes) => Payload::decode(bytes),
            None => Ok(Payload::Opaque { size: body.len() }),
        };
        // The result is stored even when the cycle below turns out to be
        // superseded: it is ground truth either way.
        match decoded {
            Ok(p) => self.jobs[job].results[task] = Some(p),
            Err(e) => {
                self.complete_job(job, Some(e));
                return;
            }
        }
        let done = {
            // A straggling GET of a monitor cycle that a checkpoint
            // replay already superseded decrements nothing.
            let Some(handle) = self.monitors.get_mut(&job) else {
                return;
            };
            if handle.generation != generation {
                return;
            }
            let Some(outstanding) = handle.collecting.as_mut() else {
                return;
            };
            *outstanding -= 1;
            if *outstanding == 0 {
                handle.collecting = None;
                true
            } else {
                false
            }
        };
        if !done {
            return;
        }
        match self.jobs[job].backend {
            JobBackend::Standalone { pool } if self.pools[pool].task_queue.on_master() => {
                // Master -> client SSH notification latency.
                self.set_timer(SimDuration::from_millis(60), Route::MasterNotify { job });
            }
            // The client collected its own results (FaaS, or a pool whose
            // queue is in storage): there is no master to hear from.
            _ => self.complete_job(job, None),
        }
    }

    pub(super) fn complete_job(&mut self, job: usize, error: Option<ExecError>) {
        if self.jobs[job].is_finished() {
            return;
        }
        // The monitor (and any straggler sweep riding it) dies with the
        // job; its pending timers find no handle and are dropped.
        self.monitors.remove(&job);
        let now = self.world.now();
        self.jobs[job].finished_at = Some(now);
        self.jobs[job].error = error;
        self.finished_jobs += 1;
        let span = self.jobs[job].span;
        if self.world.tracer().is_enabled() {
            if let Some(err) = &self.jobs[job].error {
                let msg = err.to_string();
                self.world.tracer_mut().attr_str(span, "error", &msg);
            }
        }
        self.world.tracer_mut().end(span, now);
        self.job_activity(-1);
        let j = &self.jobs[job];
        self.timeline.record(StageSpan {
            name: j.name.to_string(),
            start: j.first_release_at.unwrap_or(j.submitted_at),
            end: now,
            tasks: j.tasks.len(),
            stateful: j.stateful,
        });
        if let JobBackend::Standalone { pool } = self.jobs[job].backend {
            self.pool_job_finished(pool, job);
        }
    }

    // ------------------------------------------------------------------
    // Serverful pool machinery
    // ------------------------------------------------------------------
}
