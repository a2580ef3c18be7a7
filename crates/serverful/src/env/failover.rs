//! Master fault tolerance: armed master kills, checkpointing,
//! checkpointed re-adoption, and the decentralized continuation-passing
//! protocol, plus registered recovery continuations.

use super::*;

/// A registered DAG continuation: when upstream tasks of `up_job` land
/// their completion counters in storage, downstream tasks of `down_job`
/// whose fan-in block is fully counted are released directly — no
/// master (and no driver) in the path.
#[derive(Debug, Clone, Copy)]
pub(super) struct Continuation {
    pub(super) up_job: usize,
    pub(super) down_job: usize,
    pub(super) fan_in: FanIn,
    pub(super) up_tasks: usize,
    pub(super) down_tasks: usize,
}

/// Decentralized-mode bookkeeping for one job.
#[derive(Debug)]
pub(super) struct DcJob {
    /// Tasks whose bundle PUT has been issued (bundles persist in
    /// storage, so a requeue after worker loss needs no re-upload).
    pub(super) uploaded: Vec<bool>,
    /// Tasks whose completion counter has landed in storage.
    pub(super) counters: Vec<bool>,
}

/// Storage key of a decentralized task's input bundle.
pub(super) fn dc_bundle_key(job: usize, task: usize) -> String {
    format!("jobs/{job}/bundles/{task:05}")
}

/// Storage key of a decentralized task's completion counter.
pub(super) fn dc_counter_key(job: usize, task: usize) -> String {
    format!("jobs/{job}/counters/{task:05}")
}

impl CloudEnv {
    /// Arms a forced chaos kill of `pool`'s master VM: once the routed
    /// event counter reaches `at_event`, the master (the single worker
    /// VM in consolidated mode) is torn down through
    /// [`World::kill_vm`], bypassing fault-injection suppression. If the
    /// master is not up yet at the index, the kill retries on every
    /// subsequent event until it lands; a kill still pending when the
    /// run drains simply never fires.
    pub fn arm_master_kill(&mut self, pool: usize, at_event: u64) {
        self.armed_kills.push((pool, at_event));
    }

    /// Armed chaos kills that have not fired yet.
    pub fn pending_master_kills(&self) -> usize {
        self.armed_kills.len()
    }

    /// Registers a decentralized continuation edge: completion counters
    /// of `up_job` release the fan-in-satisfied tasks of `down_job`
    /// directly from the environment (no master, no driver). Registered
    /// unconditionally by the pipelined DAG drivers; consulted only for
    /// jobs on [`RecoveryMode::Decentralized`] pools.
    pub(crate) fn register_continuation(
        &mut self,
        up_job: usize,
        down_job: usize,
        fan_in: FanIn,
        up_tasks: usize,
        down_tasks: usize,
    ) {
        self.continuations.push(Continuation {
            up_job,
            down_job,
            fan_in,
            up_tasks,
            down_tasks,
        });
    }

    /// Fires every armed kill whose event index has passed, retrying
    /// kills whose master VM is not up yet.
    pub(super) fn fire_armed_kills(&mut self) {
        if self.armed_kills.is_empty() {
            return;
        }
        let events = self.events_routed;
        let armed = std::mem::take(&mut self.armed_kills);
        for (pool, at) in armed {
            if events >= at && self.try_kill_master(pool) {
                continue;
            }
            self.armed_kills.push((pool, at));
        }
    }

    pub(super) fn try_kill_master(&mut self, pool: usize) -> bool {
        let Some(vm) = self
            .pools
            .get(pool)
            .and_then(|p| p.master_pv())
            .map(|m| m.vm)
        else {
            return false;
        };
        if !self.world.kill_vm(vm) {
            return false;
        }
        let now = self.world.now();
        self.world
            .tracer_mut()
            .instant(now, "chaos-master-kill", "recovery", "recovery");
        true
    }

    /// The pool's acting master VM (and with it the KV store and the
    /// job monitor) was lost mid-run. What happens next is the whole
    /// point of [`crate::recovery`].
    pub(super) fn on_master_lost(&mut self, pool: usize, mode: RecoveryMode) {
        let now = self.world.now();
        match mode {
            RecoveryMode::Protected => {
                // The paper's stance has no answer: queued bundles died
                // with the KV store and the monitor stops listing. The
                // run stalls, which `run_job` surfaces as an error.
                self.world.tracer_mut().instant(
                    now,
                    "master-lost-unprotected",
                    "recovery",
                    "recovery",
                );
            }
            RecoveryMode::Checkpointed => {
                // The replacement master provisions through the normal
                // slot budget; once its SSH setup completes,
                // `on_pool_vm_ready` fetches the checkpoint.
                self.recovery_stats.masters_replaced += 1;
                self.pools[pool].recovering = true;
                self.world
                    .tracer_mut()
                    .instant(now, "master-lost", "recovery", "recovery");
            }
            RecoveryMode::Decentralized => {
                // Nothing to do: dispatch and continuations live in
                // object storage, and the client collects results.
                self.world.tracer_mut().instant(
                    now,
                    "master-lost-nonevent",
                    "recovery",
                    "recovery",
                );
            }
        }
    }

    /// A checkpoint tick of `job`: snapshot and re-arm, so ticks land at
    /// job start + k·interval for as long as the job owns the pool; a
    /// tick of a job that no longer does ends the cadence. Tick 0 runs
    /// when the job starts, so a replay baseline exists as soon as the
    /// job does, even for jobs shorter than the interval.
    pub(super) fn on_checkpoint_tick(&mut self, pool: usize, job: usize) {
        if self.pools[pool].active != Some(job) {
            return;
        }
        self.write_checkpoint(pool);
        let interval = SimDuration::from_secs_f64(
            self.pools[pool].cfg.checkpoint_interval_secs.max(0.05),
        );
        self.set_timer(interval, Route::Checkpoint { pool, job });
    }

    /// Snapshots the master's orchestration state to object storage.
    /// Skipped while the master is down or mid-replacement; the PUT pays
    /// state-proportional I/O and bills to the active job.
    pub(super) fn write_checkpoint(&mut self, pool: usize) {
        if self.pools[pool].cfg.recovery != RecoveryMode::Checkpointed
            || self.pools[pool].recovering
        {
            return;
        }
        let Some(job) = self.pools[pool].active else {
            return;
        };
        if self.jobs[job].is_finished() {
            return;
        }
        let Some(master) = self.pools[pool].master_pv() else {
            return;
        };
        if master.phase != VmPhase::Ready {
            return;
        }
        let host = master.host;
        if !self.world.host_alive(host) {
            return;
        }
        self.pools[pool].ckpt_seq += 1;
        let tasks = &self.jobs[job].tasks;
        let snapshot = MasterCheckpoint {
            seq: self.pools[pool].ckpt_seq,
            worker_vms: self.pools[pool].workers.iter().map(|w| w.vm.index()).collect(),
            jobs: vec![JobCheckpoint {
                job: job as u64,
                released: tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.held)
                    .map(|(i, _)| i as u64)
                    .collect(),
                acked: tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t.phase, TaskPhase::Done))
                    .map(|(i, _)| i as u64)
                    .collect(),
            }],
        };
        let bytes = snapshot.encode();
        self.recovery_stats.checkpoint_bytes += bytes.len() as u64;
        let now = self.world.now();
        self.world
            .tracer_mut()
            .instant(now, "checkpoint", "recovery", "recovery");
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            StorageSpec::Put {
                host,
                bucket,
                key: checkpoint_key(pool),
                body: ObjectBody::real(bytes),
            },
            1,
            Route::Checkpoint { pool, job },
        );
    }

    /// The replacement master finished SSH setup: fetch the checkpoint
    /// so the replay can re-adopt workers and re-dispatch work. The
    /// fetch names the replacement's VM, so a master lost again before
    /// it lands leaves the reply to the next replacement.
    pub(super) fn begin_readopt(&mut self, pool: usize) {
        let active = self.pools[pool].active;
        let finished = active.is_some_and(|j| self.jobs[j].is_finished());
        let Some(job) = active.filter(|_| !finished) else {
            // Nothing to recover: the pool simply has a fresh master.
            self.pools[pool].recovering = false;
            return;
        };
        let Some(master) = self.pools[pool].master_pv() else {
            return;
        };
        if master.phase != VmPhase::Ready || !self.world.host_alive(master.host) {
            return; // replacement died too; the next one fetches instead
        }
        let (host, vm) = (master.host, master.vm);
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            StorageSpec::Get {
                host,
                bucket,
                key: checkpoint_key(pool),
            },
            1,
            Route::Readopt { pool, job, vm },
        );
    }

    /// Checkpoint fetched: replay it. Every worker that is ready and
    /// alive re-registers, the monitor restarts on the new master, and
    /// every unacknowledged, unowned task is re-dispatched. Tasks still
    /// running on surviving workers keep running — their results land in
    /// object storage either way, which is what bounds the billing delta
    /// to re-executed work.
    pub(super) fn on_readopt(&mut self, pool: usize, job: usize, vm: VmId, outcome: OpOutcome) {
        let master = self.pools[pool].master_slot();
        if !self.vm_live(pool, master, vm) || !self.pools[pool].recovering {
            return;
        }
        // A missing object (master died before the first snapshot) or a
        // torn write decodes to `None`: the replay falls back to "adopt
        // everything, re-dispatch everything unowned" — the snapshot
        // only ever narrows work, the result LIST is the ground truth.
        let snapshot = match &outcome {
            OpOutcome::GetOk { body } => {
                body.bytes().and_then(|b| MasterCheckpoint::decode(b).ok())
            }
            _ => None,
        };
        self.pools[pool].recovering = false;
        if let Some(s) = &snapshot {
            self.pools[pool].ckpt_seq = self.pools[pool].ckpt_seq.max(s.seq);
        }
        // Every live worker re-registers with the replacement master.
        let readopted = self.pools[pool]
            .workers
            .iter()
            .filter(|w| w.phase == VmPhase::Ready && self.world.host_alive(w.host))
            .count() as u64;
        self.recovery_stats.workers_readopted += readopted;
        if self.pools[pool].active != Some(job) || self.jobs[job].is_finished() {
            return;
        }
        // The monitor moves to the new master and restarts under a new
        // generation; the old one's tick or LIST is dropped when it
        // lands, so the LIST cycle never forks.
        self.jobs[job].monitor_host = self.pools[pool].master_host();
        if self.jobs[job].monitor_started {
            self.start_monitor(job);
        }
        // Re-dispatch released tasks that nothing owns: not done, not
        // running on a surviving worker, not already backed off for a
        // retry. The old KV queue died with the old master, so queued
        // bundles are re-pushed from the replayed release frontier.
        let retry_pending: IdSet<usize> = self
            .pending_task_retries
            .keys()
            .filter(|(j, _)| *j == job)
            .map(|(_, task)| *task)
            .collect();
        let redispatch: Vec<usize> = self.jobs[job]
            .tasks
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                !t.held
                    && t.worker.is_none()
                    && !retry_pending.contains(i)
                    && !matches!(t.phase, TaskPhase::Done | TaskPhase::Failed(_))
            })
            .map(|(i, _)| i)
            .collect();
        let now = self.world.now();
        self.world
            .tracer_mut()
            .instant(now, "master-readopted", "recovery", "recovery");
        for task in redispatch {
            self.recovery_stats.tasks_redispatched += 1;
            self.requeue_task(pool, job, task);
        }
    }

    // ------------------------------------------------------------------
    // Decentralized continuation passing (RecoveryMode::Decentralized)
    // ------------------------------------------------------------------

    /// Decentralized job start: the client uploads task bundles straight
    /// to object storage and collects results itself. The master VM (if
    /// the pool even has a dedicated one) never touches the data path.
    pub(super) fn dc_start_job(&mut self, pool: usize, job: usize) {
        self.jobs[job].monitor_host = self.world.client_host();
        let n = self.jobs[job].inputs.len();
        self.dc_jobs.insert(
            job,
            DcJob {
                uploaded: vec![false; n],
                counters: vec![false; n],
            },
        );
        let ready: Vec<usize> = (0..n)
            .filter(|&t| !self.jobs[job].tasks[t].held)
            .collect();
        self.pools[pool].pushes_outstanding = ready.len();
        if ready.is_empty() {
            // Fully gated job: workers spin up idle and wait for
            // continuation-released bundles.
            self.pool_pushes_complete(pool, job);
            return;
        }
        for task in ready {
            self.dc_dispatch_task(pool, job, task);
        }
    }

    /// Makes a task claimable in decentralized mode: first dispatch
    /// uploads the bundle; a requeue (worker loss, retry) reuses the
    /// durable bundle already in storage.
    pub(super) fn dc_dispatch_task(&mut self, pool: usize, job: usize, task: usize) {
        if self.jobs[job].is_finished() || self.pools[pool].active != Some(job) {
            return;
        }
        let Some(dc) = self.dc_jobs.get_mut(&job) else {
            return;
        };
        let first = !dc.uploaded[task];
        dc.uploaded[task] = true;
        if !first {
            self.pools[pool].dc_ready.push_back(task);
            self.on_requeue_done(pool);
            return;
        }
        let host = self.world.client_host();
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            StorageSpec::Put {
                host,
                bucket,
                key: dc_bundle_key(job, task),
                body: self.task_bundle(job, task),
            },
            1,
            Route::DcBundle { pool, job, task },
        );
    }

    /// A bundle PUT landed: the task is claimable. During the initial
    /// upload wave this also advances the pushes-outstanding gate that
    /// starts the worker processes.
    pub(super) fn on_dc_bundle(&mut self, pool: usize, job: usize, task: usize) {
        if self.jobs[job].is_finished() || self.pools[pool].active != Some(job) {
            return;
        }
        self.pools[pool].dc_ready.push_back(task);
        if self.pools[pool].pushes_outstanding > 0 {
            self.on_push_done(pool, job);
        } else {
            self.on_requeue_done(pool);
        }
    }

    /// A worker process claims the next ready task from storage (the
    /// conditional-put claim of a real implementation) and fetches its
    /// bundle. An empty ready list idles the process.
    pub(super) fn worker_claim(&mut self, pool: usize, job: usize, vm_idx: usize, proc: usize) {
        let Some(w) = self.pools[pool].workers.get(vm_idx) else {
            return;
        };
        if w.phase != VmPhase::Ready {
            return;
        }
        let (host, vm) = (w.host, w.vm);
        if !self.world.host_alive(host) {
            return; // VM just died; its VmFailed notification is queued
        }
        let task = loop {
            let Some(t) = self.pools[pool].dc_ready.pop_front() else {
                self.pools[pool].idle_procs.push((job, vm_idx, proc, vm));
                return;
            };
            let ts = &self.jobs[job].tasks[t];
            if matches!(ts.phase, TaskPhase::Queued) && ts.worker.is_none() && !ts.held {
                break t;
            }
            // Stale entry (task got owned or finished meanwhile): skip.
        };
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            StorageSpec::Get {
                host,
                bucket,
                key: dc_bundle_key(job, task),
            },
            1,
            Route::DcClaim { pool, job, vm_idx, proc, vm, task },
        );
    }

    /// A claimed bundle arrived: run the task on the claiming process —
    /// unless the claimer died in flight (the task goes back to the
    /// ready list) or the task got owned meanwhile (the process claims
    /// something else).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_dc_claim(
        &mut self,
        pool: usize,
        job: usize,
        vm_idx: usize,
        proc: usize,
        vm: VmId,
        task: usize,
        outcome: OpOutcome,
    ) {
        if self.pools[pool].active != Some(job) || self.jobs[job].is_finished() {
            return;
        }
        if !self.vm_live(pool, PoolSlot::Worker(vm_idx), vm) {
            // The bundle is durable in storage: hand the claim back.
            self.pools[pool].dc_ready.push_back(task);
            self.on_requeue_done(pool);
            return;
        }
        let ts = &self.jobs[job].tasks[task];
        if !(matches!(ts.phase, TaskPhase::Queued) && ts.worker.is_none() && !ts.held) {
            self.worker_pop(pool, vm_idx, proc);
            return;
        }
        let OpOutcome::GetOk { body } = outcome else {
            // Claims are queued only after the bundle PUT acks, so a
            // miss means an injected fault path; just claim again.
            self.worker_pop(pool, vm_idx, proc);
            return;
        };
        self.start_bundle(pool, job, vm_idx, proc, &body);
    }

    /// A finishing decentralized task writes its completion counter to
    /// object storage before its process claims new work.
    pub(super) fn dc_write_counter(&mut self, pool: usize, job: usize, task: usize, vm_idx: usize) {
        let Some(w) = self.pools[pool].workers.get(vm_idx) else {
            return;
        };
        let host = w.host;
        if !self.world.host_alive(host) {
            return;
        }
        let bucket = self.jobs[job].bucket.clone();
        self.issue_storage(
            StorageSpec::Put {
                host,
                bucket,
                key: dc_counter_key(job, task),
                body: ObjectBody::real(Payload::U64(task as u64).encode()),
            },
            1,
            Route::DcCounter { pool, job, task },
        );
    }

    /// A completion counter landed: continuation passing. The finishing
    /// task consults the registered DAG fan-in metadata and releases
    /// every downstream task whose upstream counter block is complete —
    /// directly from storage state, no master involved.
    pub(super) fn on_dc_counter(&mut self, _pool: usize, job: usize, task: usize) {
        self.recovery_stats.counters_written += 1;
        let n = self.jobs[job].tasks.len();
        let dc = self.dc_jobs.entry(job).or_insert_with(|| DcJob {
            uploaded: vec![false; n],
            counters: vec![false; n],
        });
        dc.counters[task] = true;
        let counters = dc.counters.clone();
        let conts: Vec<Continuation> = self
            .continuations
            .iter()
            .filter(|c| c.up_job == job)
            .copied()
            .collect();
        for c in conts {
            if self.jobs[c.down_job].is_finished() {
                continue;
            }
            let fire: Vec<usize> = (0..c.down_tasks)
                .filter(|&t| {
                    self.jobs[c.down_job].tasks[t].held && {
                        let range = fan_in_range(c.fan_in, c.up_tasks, c.down_tasks, t);
                        range.contains(&task) && range.clone().all(|u| counters[u])
                    }
                })
                .collect();
            for t in fire {
                self.recovery_stats.continuations_fired += 1;
                self.release_task(c.down_job, t);
            }
        }
    }
}
