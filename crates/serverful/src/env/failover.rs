//! Master fault tolerance: armed master kills, checkpointing and
//! checkpointed re-adoption. A decentralized pool needs none of it: its
//! task queue is in object storage (see `pools`). Nothing here releases a
//! gated task: the job's `DagRun`, which both DAG drivers step, does
//! that, whatever the pool's recovery mode.

use super::*;

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
    pub(super) fn on_master_lost(&mut self, pool: usize) {
        let now = self.world.now();
        match self.pools[pool].cfg.recovery {
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
                // Nothing to do: the task queue and completion counters
                // live in object storage, and the client collects
                // results.
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
        if self.pools[pool].recovering {
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
        let request = StorageRequest::Put {
            bucket,
            key: checkpoint_key(pool),
            body: ObjectBody::real(bytes),
        };
        self.issue_storage(host, request, 1, Route::Checkpoint { pool, job });
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
        let request = StorageRequest::Get {
            bucket,
            key: checkpoint_key(pool),
        };
        self.issue_storage(host, request, 1, Route::Readopt { pool, job, vm });
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
        let redispatch: Vec<usize> = self.jobs[job]
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !t.held
                    && t.worker.is_none()
                    && !matches!(
                        t.phase,
                        TaskPhase::Done | TaskPhase::Failed | TaskPhase::Backoff
                    )
            })
            .map(|(i, _)| i)
            .collect();
        let now = self.world.now();
        self.world
            .tracer_mut()
            .instant(now, "master-readopted", "recovery", "recovery");
        for task in redispatch {
            self.recovery_stats.tasks_redispatched += 1;
            self.queue_put(pool, job, task, false);
        }
    }
}
