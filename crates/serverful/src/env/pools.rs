//! Serverful (standalone) pools: VM provisioning, master/worker
//! lifecycle, the task queue in either medium, and pool idle/teardown.

use super::*;

/// Storage key of a task's bundle in a storage-held queue.
fn bundle_key(job: usize, task: usize) -> String {
    format!("jobs/{job}/bundles/{task:05}")
}

/// Storage key of a finished task's completion counter.
fn counter_key(job: usize, task: usize) -> String {
    format!("jobs/{job}/counters/{task:05}")
}

/// A task's queue bundle, decoded: its index and input.
fn decode_bundle(body: &ObjectBody) -> (usize, Payload) {
    let bytes = body.bytes().expect("task bundles are always real bytes");
    let Ok(Payload::List(mut items)) = Payload::decode(bytes) else {
        panic!("a task bundle decodes to a list");
    };
    let input = items.pop().expect("bundle[1] is the input");
    let task = items[0].as_u64().expect("bundle[0] is the index") as usize;
    (task, input)
}

/// True while a task waits for a worker: released, queued and unowned.
fn claimable(t: &TaskState) -> bool {
    matches!(t.phase, TaskPhase::Queued) && t.worker.is_none() && !t.held
}

/// The medium a pool's task queue lives in. [`RecoveryMode`] picks it
/// once, in `create_pool`; it decides whether the master VM is in the
/// data path at all.
pub(super) enum TaskQueue {
    /// The paper's queue: one list per job in the KV server on the
    /// master VM. The master pushes bundles and workers pop them. `None`
    /// until the master's server starts, and after the pool's VMs are
    /// torn down.
    Kv(Option<KvId>),
    /// Bundles in object storage, in the unum style: the client PUTs
    /// them and workers claim them with a GET, so the master never
    /// enters the data path. Both fields describe the active job.
    Storage {
        /// Tasks whose bundles are claimable, in the order they became
        /// so.
        ready: VecDeque<usize>,
        /// Per task: whether its bundle was PUT. Bundles persist in
        /// storage, so a task put again goes straight back on `ready`.
        uploaded: Vec<bool>,
    },
}

impl TaskQueue {
    /// True when the master VM holds the queue, and with it the job's
    /// monitor; false when object storage holds it and the client
    /// monitors.
    pub(super) fn on_master(&self) -> bool {
        matches!(self, TaskQueue::Kv(_))
    }
}

/// A worker process's claim on its pool's task queue
/// ([`Route::QueueClaim`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct Claim {
    pub(super) pool: usize,
    pub(super) job: usize,
    /// The claiming process: process `proc` of worker slot `vm_idx`,
    /// whose VM is `vm`.
    pub(super) vm_idx: usize,
    pub(super) proc: usize,
    pub(super) vm: VmId,
    /// The task a storage claim picked before its GET; a KV pop learns
    /// its task from the bundle. A `u32` keeps [`Route`] at 56 bytes.
    pub(super) task: Option<u32>,
}

/// Which pool VM a lifecycle notification concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PoolSlot {
    Master,
    Worker(usize),
}

/// Lifecycle of a pool VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum VmPhase {
    /// Provisioned, and still booting or in SSH setup.
    Booting,
    Ready,
    /// The slot's VM is gone and its provisioning budget is spent; a new
    /// job re-provisions it with a fresh budget.
    Dead,
}

#[derive(Debug)]
pub(super) struct PoolVm {
    /// Also the slot generation: a world never reissues a VM id, so a
    /// replaced VM's notifications name an id the slot no longer holds.
    pub(super) vm: VmId,
    pub(super) host: HostId,
    pub(super) itype: cloudsim::InstanceType,
    pub(super) phase: VmPhase,
    /// Provisioning attempts charged against this slot for the current
    /// job (boot failures and losses both consume the budget).
    pub(super) provision_attempts: u32,
    /// Spot preemptions this slot has absorbed for the current job;
    /// carried across replacements so a [`BidPolicy::Spot`] budget can
    /// fall the slot back to on-demand.
    pub(super) preemptions: u32,
}

/// A serverful resource pool: one per executor using the VM backend.
pub(crate) struct StandalonePool {
    pub(super) cfg: StandaloneConfig,
    /// Dedicated master VM (fleet mode). In consolidated mode the single
    /// worker VM doubles as the master.
    pub(super) master: Option<PoolVm>,
    pub(super) workers: Vec<PoolVm>,
    /// Jobs waiting for the pool, in arrival order.
    pub(super) queue: VecDeque<usize>,
    pub(super) active: Option<usize>,
    /// Where the active job's task bundles wait for workers.
    pub(super) task_queue: TaskQueue,
    /// Puts of the active job's first wave still in flight; workers
    /// start claiming once they all land.
    pub(super) pushes_outstanding: usize,
    /// Worker processes `(job, slot, proc, vm)` that found `job`'s queue
    /// empty and went idle; woken when a later put lands.
    pub(super) idle_procs: Vec<(usize, usize, usize, VmId)>,
    /// Idle-window generation for the keep-alive timer (see
    /// [`Route::PoolIdle`]).
    pub(super) idle_epoch: u64,
    pub(super) fleet_name: String,
    /// True between a master loss and the replacement's checkpoint
    /// replay (Checkpointed mode); dispatch defers to the re-adoption.
    pub(super) recovering: bool,
    /// Monotonic checkpoint sequence number (survives master swaps via
    /// the snapshot itself).
    pub(super) ckpt_seq: u64,
}

impl StandalonePool {
    pub(super) fn consolidated(&self) -> bool {
        matches!(self.cfg.exec_mode, ExecMode::Consolidated)
    }

    /// The slot acting as master: the single worker VM in consolidated
    /// mode, the dedicated master VM otherwise.
    pub(super) fn master_slot(&self) -> PoolSlot {
        if self.consolidated() {
            PoolSlot::Worker(0)
        } else {
            PoolSlot::Master
        }
    }

    /// The slot's VM, if the slot still exists (pool shutdowns drain the
    /// worker list while replacements may still be booting).
    pub(super) fn slot_vm(&self, slot: PoolSlot) -> Option<&PoolVm> {
        match slot {
            PoolSlot::Master => self.master.as_ref(),
            PoolSlot::Worker(i) => self.workers.get(i),
        }
    }

    /// The VM currently acting as master, if the slot is populated.
    pub(super) fn master_pv(&self) -> Option<&PoolVm> {
        self.slot_vm(self.master_slot())
    }

    pub(super) fn master_host(&self) -> HostId {
        self.master_pv().expect("master missing").host
    }

    pub(super) fn all_ready(&self) -> bool {
        let workers_ready = !self.workers.is_empty()
            && self.workers.iter().all(|w| w.phase == VmPhase::Ready);
        if self.consolidated() {
            workers_ready
        } else {
            workers_ready && self.master.as_ref().is_some_and(|m| m.phase == VmPhase::Ready)
        }
    }
}

impl CloudEnv {
    pub(crate) fn create_pool(&mut self, cfg: StandaloneConfig) -> usize {
        let idx = self.pools.len();
        let fleet_name = cfg
            .fleet_label
            .clone()
            .unwrap_or_else(|| format!("standalone-{idx}"));
        let task_queue = if cfg.recovery == RecoveryMode::Decentralized {
            TaskQueue::Storage {
                ready: VecDeque::new(),
                uploaded: Vec::new(),
            }
        } else {
            TaskQueue::Kv(None)
        };
        self.pools.push(StandalonePool {
            cfg,
            master: None,
            workers: Vec::new(),
            queue: VecDeque::new(),
            active: None,
            task_queue,
            pushes_outstanding: 0,
            idle_procs: Vec::new(),
            idle_epoch: 0,
            fleet_name,
            recovering: false,
            ckpt_seq: 0,
        });
        idx
    }

    /// True when every VM of the pool is provisioned and SSH-ready — a
    /// job submitted now starts without paying boot time.
    pub(crate) fn pool_ready(&self, pool: usize) -> bool {
        self.pools[pool].all_ready()
    }

    /// Jobs currently running or queued on the pool (lease pressure).
    pub(crate) fn pool_backlog(&self, pool: usize) -> usize {
        self.pools[pool].queue.len() + usize::from(self.pools[pool].active.is_some())
    }

    /// Tears a pool's VMs down (executor shutdown).
    pub(crate) fn shutdown_pool(&mut self, pool: usize) {
        let p = &mut self.pools[pool];
        assert!(p.active.is_none(), "shutdown with an active job");
        let mut terminate = Vec::new();
        for w in p.workers.drain(..) {
            self.vm_routes.remove(&w.vm);
            if w.phase == VmPhase::Ready {
                terminate.push(w.vm);
            }
        }
        if let Some(m) = p.master.take() {
            self.vm_routes.remove(&m.vm);
            if m.phase == VmPhase::Ready {
                terminate.push(m.vm);
            }
        }
        if let TaskQueue::Kv(kv) = &mut p.task_queue {
            *kv = None;
        }
        for vm in terminate {
            self.world.vm_terminate(vm);
        }
    }

    pub(super) fn pool_try_start(&mut self, pool: usize) {
        if self.pools[pool].active.is_some() {
            return;
        }
        let Some(&job) = self.pools[pool].queue.front() else {
            return;
        };
        // Proactive provisioning: figure out the fleet this job needs.
        if !self.pool_ensure_infra(pool, job) {
            return; // infra still coming up; retried on VM readiness
        }
        self.pools[pool].queue.pop_front();
        self.pools[pool].active = Some(job);
        // A job starting closes any idle window: pending keep-alive
        // timers must not tear down the pool under it.
        self.pools[pool].idle_epoch += 1;
        self.pool_start_job(pool, job);
    }

    /// Provisions (or re-provisions) a pool VM slot, protecting master
    /// hosts from injected VM loss (the paper's design assumes the
    /// orchestrating master stays up; boot failures still apply).
    ///
    /// `preemptions` is the slot's spot-reclaim history for the current
    /// job: under [`BidPolicy::Spot`] a worker slot bids spot until that
    /// history exhausts the policy's budget, then falls back to
    /// on-demand. Masters (including the consolidated single VM, which
    /// doubles as one) always run on-demand.
    pub(super) fn pool_provision(
        &mut self,
        pool: usize,
        slot: PoolSlot,
        itype: cloudsim::InstanceType,
        provision_attempts: u32,
        preemptions: u32,
    ) {
        let fleet_name = self.pools[pool].fleet_name.clone();
        // Pool VMs outlive individual jobs (reuse, keep-alive), so their
        // uptime bills under the pool's fleet label, not whichever job
        // happens to be current when they terminate.
        self.world.set_bill_label(fleet_name.as_str());
        let is_master_vm = slot == self.pools[pool].master_slot();
        let tenancy = match self.pools[pool].cfg.bid {
            crate::sizing::BidPolicy::Spot { max_preemptions }
                if !is_master_vm && preemptions < max_preemptions =>
            {
                Tenancy::Spot
            }
            _ => Tenancy::OnDemand,
        };
        let vm = self.world.vm_provision_with(&itype, &fleet_name, tenancy);
        let host = self.world.vm_host(vm);
        let pv = PoolVm {
            vm,
            host,
            itype,
            phase: VmPhase::Booting,
            provision_attempts,
            preemptions,
        };
        match slot {
            PoolSlot::Master => self.pools[pool].master = Some(pv),
            PoolSlot::Worker(i) => {
                let workers = &mut self.pools[pool].workers;
                if i < workers.len() {
                    workers[i] = pv;
                } else {
                    debug_assert_eq!(i, workers.len());
                    workers.push(pv);
                }
            }
        }
        // Only the paper's Protected stance exempts the master from
        // injected loss; the recovery modes let it die and survive it.
        if is_master_vm && self.pools[pool].cfg.recovery == RecoveryMode::Protected {
            self.world.protect_host(host);
        }
        self.vm_routes.insert(vm, Route::PoolVm { pool, slot, vm });
    }

    /// Re-provisions any slot left `Dead` by an exhausted replacement
    /// budget, with a fresh budget (called when a new job starts).
    pub(super) fn pool_replace_dead(&mut self, pool: usize) {
        if let Some(m) = &self.pools[pool].master {
            if m.phase == VmPhase::Dead {
                let itype = m.itype;
                self.pool_provision(pool, PoolSlot::Master, itype, 1, 0);
            }
        }
        let dead: Vec<(usize, cloudsim::InstanceType)> = self.pools[pool]
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.phase == VmPhase::Dead)
            .map(|(i, w)| (i, w.itype))
            .collect();
        for (i, itype) in dead {
            self.pool_provision(pool, PoolSlot::Worker(i), itype, 1, 0);
        }
    }

    /// Ensures master + workers exist and are ready. Returns true when
    /// everything is ready now.
    pub(super) fn pool_ensure_infra(&mut self, pool: usize, job: usize) -> bool {
        self.pool_replace_dead(pool);
        let consolidated = self.pools[pool].consolidated();
        if consolidated {
            // Single right-sized VM: sizing from the job's input bytes.
            let wanted = match &self.pools[pool].cfg.instance_override {
                Some(name) => *self
                    .world
                    .lookup_instance(name)
                    .unwrap_or_else(|| panic!("unknown instance type {name}")),
                None => *self.pools[pool]
                    .cfg
                    .sizing
                    .choose_from(self.world.catalog(), self.jobs[job].input_data_size()),
            };
            if self.pools[pool].workers.is_empty() {
                self.pool_provision(pool, PoolSlot::Worker(0), wanted, 1, 0);
                return false;
            }
            // An existing VM is reused only if it is big enough.
            let current = &self.pools[pool].workers[0];
            if current.itype.mem_gib < wanted.mem_gib && current.phase == VmPhase::Ready {
                let old = self.pools[pool].workers.remove(0);
                self.vm_routes.remove(&old.vm);
                self.world.vm_terminate(old.vm);
                if let TaskQueue::Kv(kv) = &mut self.pools[pool].task_queue {
                    *kv = None;
                }
                return self.pool_ensure_infra(pool, job);
            }
            return self.pools[pool].all_ready();
        }
        // Fleet mode: dedicated master + N workers of a fixed type.
        let ExecMode::Fleet {
            instance_type,
            count,
        } = self.pools[pool].cfg.exec_mode.clone()
        else {
            unreachable!()
        };
        if self.pools[pool].master.is_none() {
            let master_name = self.pools[pool].cfg.master_instance.clone();
            let itype = *self
                .world
                .lookup_instance(&master_name)
                .unwrap_or_else(|| panic!("unknown instance type {master_name}"));
            self.pool_provision(pool, PoolSlot::Master, itype, 1, 0);
        }
        let itype = *self
            .world
            .lookup_instance(&instance_type)
            .unwrap_or_else(|| panic!("unknown instance type {instance_type}"));
        while self.pools[pool].workers.len() < count {
            let slot = self.pools[pool].workers.len();
            self.pool_provision(pool, PoolSlot::Worker(slot), itype, 1, 0);
        }
        self.pools[pool].all_ready()
    }

    /// A pool VM booted: start its SSH setup. The timer names the VM, so
    /// it is dropped if the VM is replaced or lost meanwhile.
    pub(super) fn on_vm_up(&mut self, route: Route, vm: VmId) {
        let Route::PoolVm { pool, slot, .. } = route else {
            unreachable!("vm route is always a pool vm")
        };
        self.routed_vm(pool, slot, vm);
        let delay = world_latency(&mut self.world, VM_SSH_SETUP_SECS);
        self.set_timer(delay, route);
    }

    pub(super) fn on_pool_vm_ready(&mut self, pool: usize, slot: PoolSlot, vm: VmId) {
        if !self.vm_live(pool, slot, vm) {
            return; // stale SSH timer of a replaced or lost VM, or a shut pool
        }
        self.routed_vm(pool, slot, vm).phase = VmPhase::Ready;
        // A KV-held queue's server starts as soon as the master's VM is
        // ready.
        let is_master_vm = slot == self.pools[pool].master_slot();
        if let (true, TaskQueue::Kv(kv)) = (is_master_vm, &mut self.pools[pool].task_queue) {
            if kv.is_none_or(|kv| !self.world.kv_alive(kv)) {
                *kv = Some(self.world.kv_create(vm));
            }
        }
        // A replacement worker joining mid-job starts its processes
        // immediately; a job starting now starts them itself, once its
        // initial pushes land (`pool_pushes_complete`).
        let mid_job = self.pools[pool].active.is_some();
        self.pool_try_start(pool);
        if let PoolSlot::Worker(i) = slot {
            if mid_job && self.pools[pool].pushes_outstanding == 0 {
                let vcpus = self.pools[pool].workers[i].itype.vcpus as usize;
                for proc in 0..vcpus {
                    self.worker_claim(pool, i, proc);
                }
            }
        }
        // A replacement master finishing SSH setup fetches the
        // checkpoint it replays (Checkpointed mode).
        if is_master_vm && self.pools[pool].recovering {
            self.begin_readopt(pool);
        }
    }

    /// A pool VM failed: boot failure, mid-job loss or spot preemption.
    /// Replacement VMs are provisioned into the same slot while the
    /// budget lasts; a lost worker's in-flight tasks go back on the
    /// pool's task queue. A preempted slot's reclaim history advances,
    /// and the replacement falls back to on-demand once the bid policy's
    /// budget is spent (ledgered as a spot fallback).
    pub(super) fn on_pool_vm_failed(&mut self, route: Route, fault: FaultKind) {
        let Route::PoolVm { pool, slot, vm } = route else {
            unreachable!("vm route is always a pool vm")
        };
        let preempted = fault == FaultKind::SpotPreemption;
        let pv = self.routed_vm(pool, slot, vm);
        let was_ready = pv.phase == VmPhase::Ready;
        pv.phase = VmPhase::Dead;
        if preempted {
            pv.preemptions += 1;
        }
        let (itype, attempts, preemptions) = (pv.itype, pv.provision_attempts, pv.preemptions);
        if preempted {
            if let crate::sizing::BidPolicy::Spot { max_preemptions } = self.pools[pool].cfg.bid
            {
                // The reclaim that exhausts the budget flips this slot's
                // replacements to on-demand; count the concession once.
                if preemptions == max_preemptions {
                    self.world.fault_ledger_mut().spot_fallbacks += 1;
                }
            }
        }
        // Idle processes of this VM stay listed until a wake drops them
        // by the staleness rule (see `vm_live`).
        if let PoolSlot::Worker(i) = slot {
            if was_ready {
                self.pool_worker_lost(pool, i);
            }
        }
        if slot == self.pools[pool].master_slot() && was_ready {
            self.on_master_lost(pool);
            if slot == PoolSlot::Master && !self.pools[pool].task_queue.on_master() {
                // A dedicated master holding no queue is pure overhead
                // once the job is submitted: don't even replace it.
                return;
            }
        }
        let budget = self.pools[pool].cfg.max_provision_attempts.max(1);
        if attempts >= budget {
            self.world.fault_ledger_mut().attempts_exhausted += 1;
            self.fail_pool_job(
                pool,
                ExecError::InfraFailed(format!(
                    "pool VM slot {slot:?} failed {attempts} provisioning attempts"
                )),
            );
            return;
        }
        self.world.fault_ledger_mut().vm_replacements += 1;
        self.pool_provision(pool, slot, itype, attempts + 1, preemptions);
    }

    /// Requeues every unfinished task that was running on a lost worker
    /// VM. Attempt budgets are charged per task; an exhausted task fails
    /// the job.
    pub(super) fn pool_worker_lost(&mut self, pool: usize, vm_idx: usize) {
        let Some(job) = self.pools[pool].active else {
            return;
        };
        let lost: Vec<usize> = self.jobs[job]
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(t.worker, Some((v, _)) if v == vm_idx)
                    && !matches!(t.phase, TaskPhase::Done)
            })
            .map(|(i, _)| i)
            .collect();
        for task in lost {
            if self.jobs[job].is_finished() {
                return;
            }
            let attempts = self.jobs[job].tasks[task].attempts;
            if !self.jobs[job].retry.allows_retry(attempts) {
                self.world.fault_ledger_mut().attempts_exhausted += 1;
                let err = ExecError::AttemptsExhausted {
                    what: format!("task {task} of job '{}'", self.jobs[job].name),
                    attempts: attempts.max(1),
                };
                self.complete_job(job, Some(err));
                return;
            }
            // Tear the attempt down without touching the (dead) worker's
            // process bookkeeping, then put the task back.
            self.jobs[job].tasks[task].worker = None;
            self.clear_task_attempt(job, task, AttemptFailure::SandboxDead);
            self.world.fault_ledger_mut().task_retries += 1;
            self.queue_put(pool, job, task, false);
        }
    }

    /// A task's queue bundle: its index and input, as
    /// [`decode_bundle`] reads it.
    pub(super) fn task_bundle(&self, job: usize, task: usize) -> ObjectBody {
        let input = self.jobs[job].inputs[task].clone();
        ObjectBody::real(Payload::List(vec![Payload::U64(task as u64), input]).encode())
    }

    /// Puts `task` of `job` on the pool's task queue: the master pushes
    /// its bundle onto the job's KV list, or the client PUTs it to
    /// object storage. `initial` puts are the job's first wave; the rest
    /// come from a release, a retry, a lost worker or a claimer that
    /// died before starting the task. A bundle already in storage needs
    /// no second PUT: its task goes straight back on the ready list.
    pub(super) fn queue_put(&mut self, pool: usize, job: usize, task: usize, initial: bool) {
        let p = &mut self.pools[pool];
        // Only the job that owns the pool has a queue; a waiting job's
        // `pool_start_job` reads `held` later. A replacement master's
        // checkpoint replay re-puts everything unacknowledged, so a
        // later put now would race it.
        if p.active != Some(job) || (p.recovering && !initial) {
            return;
        }
        let route = Route::QueuePut {
            pool,
            job,
            task,
            initial,
        };
        match &mut p.task_queue {
            TaskQueue::Kv(kv) => {
                let Some(kv) = *kv else {
                    return; // pool torn down meanwhile
                };
                if !initial && !self.world.kv_alive(kv) {
                    // Master (and queue) gone without a recovery mode:
                    // the bundle has nowhere to go — the job stalls.
                    return;
                }
                let master = self.pools[pool].master_host();
                let body = self.task_bundle(job, task);
                self.world.set_trace_parent(self.jobs[job].span);
                let op = self.world.kv_push(master, kv, format!("job-{job}"), body);
                self.world.set_trace_parent(SpanId::NONE);
                self.op_routes.insert(op, (route, 1));
            }
            TaskQueue::Storage { ready, uploaded } => {
                if std::mem::replace(&mut uploaded[task], true) {
                    ready.push_back(task);
                    self.wake_idle_procs(pool);
                    return;
                }
                let request = StorageRequest::Put {
                    bucket: self.jobs[job].bucket.clone(),
                    key: bundle_key(job, task),
                    body: self.task_bundle(job, task),
                };
                let client = self.world.client_host();
                self.issue_storage(client, request, 1, route);
            }
        }
    }

    /// A put landed. A bundle in storage becomes claimable while its job
    /// still owns the pool. A put of the first wave then advances the
    /// gate that starts the worker processes; any other put wakes the
    /// idle ones.
    pub(super) fn on_queue_put(&mut self, pool: usize, job: usize, task: usize, initial: bool) {
        let p = &mut self.pools[pool];
        if let TaskQueue::Storage { ready, .. } = &mut p.task_queue {
            if p.active != Some(job) {
                return;
            }
            ready.push_back(task);
        }
        if initial {
            self.on_push_done(pool, job);
        } else {
            self.wake_idle_procs(pool);
        }
    }

    /// Wakes the worker processes that found the queue empty, so one of
    /// them claims the task just put.
    fn wake_idle_procs(&mut self, pool: usize) {
        let idle = std::mem::take(&mut self.pools[pool].idle_procs);
        for (job, vm_idx, proc, vm) in idle {
            // A finished job's processes were restarted for the next job.
            if self.pools[pool].active == Some(job)
                && self.vm_live(pool, PoolSlot::Worker(vm_idx), vm)
            {
                self.worker_claim(pool, vm_idx, proc);
            }
        }
    }

    /// Fails the pool's current job — or, before any job is active, the
    /// one waiting at the head of the queue — with `err`.
    pub(super) fn fail_pool_job(&mut self, pool: usize, err: ExecError) {
        if let Some(job) = self.pools[pool].active {
            self.complete_job(job, Some(err));
        } else if let Some(job) = self.pools[pool].queue.pop_front() {
            self.complete_job(job, Some(err));
        }
    }

    /// The one staleness rule for notifications that name a pool VM (SSH
    /// timers, queue claims, idle processes, re-adoption fetches): one is
    /// live only while `slot` still holds `vm` and its host is up.
    pub(super) fn vm_live(&self, pool: usize, slot: PoolSlot, vm: VmId) -> bool {
        self.pools[pool]
            .slot_vm(slot)
            .is_some_and(|pv| pv.vm == vm && self.world.host_alive(pv.host))
    }

    /// The slot's VM, which must be `vm`: the caller checked, or holds a
    /// `VmUp` or `VmFailed`. Those need no staleness check: they arrive
    /// through `vm_routes`, whose entry leaves exactly when its VM
    /// leaves its slot.
    fn routed_vm(&mut self, pool: usize, slot: PoolSlot, vm: VmId) -> &mut PoolVm {
        let pv = match slot {
            PoolSlot::Master => self.pools[pool].master.as_mut(),
            PoolSlot::Worker(i) => self.pools[pool].workers.get_mut(i),
        };
        pv.filter(|pv| pv.vm == vm).expect("a routed VM is still in its slot")
    }

    /// Infra ready: puts every task of `job` on the pool's queue. Gated
    /// tasks are skipped — they arrive one by one through `release_task`
    /// as upstream partitions complete. A KV-held queue leaves the job's
    /// monitor on the master. With the queue in storage the client
    /// monitors, and the master (if the pool even has a dedicated one)
    /// never touches the data path.
    pub(super) fn pool_start_job(&mut self, pool: usize, job: usize) {
        if self.pools[pool].cfg.recovery == RecoveryMode::Checkpointed {
            self.on_checkpoint_tick(pool, job);
        }
        self.jobs[job].monitor_host = if self.pools[pool].task_queue.on_master() {
            self.pools[pool].master_host()
        } else {
            self.world.client_host()
        };
        let n = self.jobs[job].inputs.len();
        if let TaskQueue::Storage { uploaded, .. } = &mut self.pools[pool].task_queue {
            *uploaded = vec![false; n];
        }
        let ready: Vec<usize> = (0..n)
            .filter(|&t| !self.jobs[job].tasks[t].held)
            .collect();
        self.pools[pool].pushes_outstanding = ready.len();
        for task in ready {
            self.queue_put(pool, job, task, true);
        }
        if self.pools[pool].pushes_outstanding == 0 {
            // Fully gated job: workers spin up idle and wait for
            // released tasks.
            self.pool_pushes_complete(pool, job);
        }
    }

    pub(super) fn on_push_done(&mut self, pool: usize, job: usize) {
        self.pools[pool].pushes_outstanding -= 1;
        if self.pools[pool].pushes_outstanding > 0 {
            return;
        }
        self.pool_pushes_complete(pool, job);
    }

    /// All initially-queued bundles landed: start one worker process per
    /// vCPU of every worker that is up (replacements still booting join
    /// on ready) and arm the master's result monitor.
    pub(super) fn pool_pushes_complete(&mut self, pool: usize, job: usize) {
        let worker_specs: Vec<(usize, usize)> = self.pools[pool]
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.phase == VmPhase::Ready)
            .flat_map(|(vm_idx, w)| {
                (0..w.itype.vcpus as usize).map(move |proc| (vm_idx, proc))
            })
            .collect();
        for (vm_idx, proc) in worker_specs {
            self.worker_claim(pool, vm_idx, proc);
        }
        // The master begins monitoring result objects (once every gated
        // task has been released).
        self.jobs[job].dispatch_ready = true;
        self.maybe_start_monitor(job);
    }

    /// Process `proc` of worker slot `vm_idx` claims the next task of the
    /// pool's active job: a pop from the master's KV list, or a GET of
    /// the next ready task's bundle from storage (the conditional-put
    /// claim of a real implementation). An empty queue idles the
    /// process until a put wakes it.
    pub(super) fn worker_claim(&mut self, pool: usize, vm_idx: usize, proc: usize) {
        let p = &mut self.pools[pool];
        let Some(job) = p.active else {
            return;
        };
        let Some(w) = p.workers.get(vm_idx).filter(|w| w.phase == VmPhase::Ready) else {
            return;
        };
        let (host, vm) = (w.host, w.vm);
        if !self.world.host_alive(host) {
            return; // VM just died; its VmFailed notification is queued
        }
        let mut claim = Claim {
            pool,
            job,
            vm_idx,
            proc,
            vm,
            task: None,
        };
        match &mut p.task_queue {
            TaskQueue::Kv(None) => {}
            TaskQueue::Kv(Some(kv)) => {
                let kv = *kv;
                if !self.world.kv_alive(kv) {
                    // Queue died with the master; idle until recovery (or
                    // the stall, under Protected) resolves the run.
                    p.idle_procs.push((job, vm_idx, proc, vm));
                    return;
                }
                self.world.set_trace_parent(self.jobs[job].span);
                let op = self.world.kv_pop(host, kv, format!("job-{job}"));
                self.world.set_trace_parent(SpanId::NONE);
                self.op_routes.insert(op, (Route::QueueClaim(claim), 1));
            }
            TaskQueue::Storage { ready, .. } => {
                // Entries whose task got owned or finished meanwhile are
                // stale: skip them.
                let tasks = &self.jobs[job].tasks;
                let Some(task) = std::iter::from_fn(|| ready.pop_front())
                    .find(|&t| claimable(&tasks[t]))
                else {
                    p.idle_procs.push((job, vm_idx, proc, vm));
                    return;
                };
                claim.task = Some(u32::try_from(task).expect("a job has fewer than 2^32 tasks"));
                let request = StorageRequest::Get {
                    bucket: self.jobs[job].bucket.clone(),
                    key: bundle_key(job, task),
                };
                self.issue_storage(host, request, 1, Route::QueueClaim(claim));
            }
        }
    }

    /// A claim came back. A KV pop yields a task's bundle, or nothing
    /// once the list is drained (the process idles until a put wakes it).
    /// A storage claim picked its task before the GET, and a missing
    /// bundle (an injected fault) sends the process to claim again. On
    /// both media one rule decides whether the bundle's task is still the
    /// process's to run, `claimable`: a bundle whose task another process
    /// owns, that has finished, or that waits out a retry backoff is
    /// dropped, and the process claims again. A claimer that died in
    /// flight puts its task back for the others.
    pub(super) fn on_queue_claim(&mut self, claim: Claim, outcome: OpOutcome) {
        let Claim {
            pool,
            job,
            vm_idx,
            proc,
            vm,
            task,
        } = claim;
        if self.pools[pool].active != Some(job) {
            return; // the job finished; its processes restart for the next
        }
        let bundle = match outcome {
            OpOutcome::KvValue { body } => body,
            OpOutcome::GetOk { body } => Some(body),
            _ => None,
        };
        let bundle = bundle.as_ref().map(decode_bundle);
        if !self.vm_live(pool, PoolSlot::Worker(vm_idx), vm) {
            // Claim issued by a since-lost worker VM (or one whose crash
            // notification is still queued): its task must not vanish
            // with it.
            let picked = task.map(|t| t as usize);
            if let Some(task) = picked.or_else(|| bundle.as_ref().map(|(t, _)| *t)) {
                self.queue_put(pool, job, task, false);
            }
            return;
        }
        match bundle {
            Some((task, input)) if claimable(&self.jobs[job].tasks[task]) => {
                self.start_bundle(pool, job, vm_idx, proc, task, &input);
            }
            // A drained KV list.
            None if task.is_none() => self.pools[pool].idle_procs.push((job, vm_idx, proc, vm)),
            // A stale bundle, or a storage claim's missing one.
            _ => self.worker_claim(pool, vm_idx, proc),
        }
    }

    /// Runs `task` of a claimed bundle on worker process `(vm_idx,
    /// proc)`. A storage-held queue runs no KV server, so its tasks get
    /// no handle: they have no master to exchange through (stage tasks
    /// only touch object storage).
    pub(super) fn start_bundle(
        &mut self,
        pool: usize,
        job: usize,
        vm_idx: usize,
        proc: usize,
        task: usize,
        input: &Payload,
    ) {
        debug_assert!(
            !self.jobs[job].tasks.iter().enumerate().any(|(i, t)| i != task
                && t.worker == Some((vm_idx, proc))
                && !matches!(t.phase, TaskPhase::Done)),
            "worker process {proc} of slot {vm_idx} already runs a task of job {job}"
        );
        let host = self.pools[pool].workers[vm_idx].host;
        let kv = match self.pools[pool].task_queue {
            TaskQueue::Kv(kv) => kv,
            TaskQueue::Storage { .. } => None,
        };
        let fleet = self.pools[pool].fleet_name.clone();
        let span = self.begin_attempt_span(job, task, &fleet);
        let now = self.world.now();
        let t = &mut self.jobs[job].tasks[task];
        t.worker = Some((vm_idx, proc));
        t.attempts += 1;
        t.started_at = Some(now);
        t.span = span;
        self.start_task(job, task, TaskRun::new(host, kv), input);
    }

    /// A task finished on a pool whose queue is in storage: its worker
    /// writes the completion counter before claiming new work. The
    /// counter is the storage queue's per-task price; its landing only
    /// counts it.
    pub(super) fn write_counter(&mut self, pool: usize, job: usize, task: usize, vm_idx: usize) {
        let Some(w) = self.pools[pool].workers.get(vm_idx) else {
            return;
        };
        let host = w.host;
        if !self.world.host_alive(host) {
            return;
        }
        let request = StorageRequest::Put {
            bucket: self.jobs[job].bucket.clone(),
            key: counter_key(job, task),
            body: ObjectBody::real(Payload::U64(task as u64).encode()),
        };
        self.issue_storage(host, request, 1, Route::Counter { job });
    }

    // ------------------------------------------------------------------
    // Checkpointed master recovery (RecoveryMode::Checkpointed)
    // ------------------------------------------------------------------

    pub(super) fn pool_job_finished(&mut self, pool: usize, _job: usize) {
        // Clearing `active` also ends the job's checkpoint cadence.
        self.pools[pool].active = None;
        self.pools[pool].recovering = false;
        if let TaskQueue::Storage { ready, uploaded } = &mut self.pools[pool].task_queue {
            ready.clear();
            uploaded.clear();
        }
        // "Once all logical functions have been completed, all resources
        // are automatically stopped" — unless reuse is configured and
        // more work may come.
        if !self.pools[pool].cfg.reuse_instances && self.pools[pool].queue.is_empty() {
            self.shutdown_pool(pool);
        } else if self.pools[pool].queue.is_empty() {
            // Reuse with a keep-alive budget: open an idle window. If no
            // job arrives before it closes, the warm VMs are released
            // (they re-provision on the next job).
            if let Some(secs) = self.pools[pool].cfg.idle_timeout_secs {
                self.pools[pool].idle_epoch += 1;
                let epoch = self.pools[pool].idle_epoch;
                self.set_timer(
                    SimDuration::from_secs_f64(secs),
                    Route::PoolIdle { pool, epoch },
                );
            }
        }
        self.pool_try_start(pool);
    }

    /// The keep-alive window of an idle pool closed: release its warm
    /// VMs. Stale timers (a job started meanwhile, opening a newer
    /// window) are dropped by the epoch check; VMs still mid-provision
    /// push the teardown back by one more window so nothing leaks
    /// unterminated.
    pub(super) fn on_pool_idle(&mut self, pool: usize, epoch: u64) {
        let p = &self.pools[pool];
        if p.idle_epoch != epoch || p.active.is_some() || !p.queue.is_empty() {
            return;
        }
        if p.workers.is_empty() && p.master.is_none() {
            return; // nothing warm to release
        }
        let settled = |pv: &PoolVm| matches!(pv.phase, VmPhase::Ready | VmPhase::Dead);
        let all_settled =
            p.workers.iter().all(settled) && p.master.as_ref().is_none_or(settled);
        if !all_settled {
            if let Some(secs) = self.pools[pool].cfg.idle_timeout_secs {
                self.set_timer(
                    SimDuration::from_secs_f64(secs),
                    Route::PoolIdle { pool, epoch },
                );
            }
            return;
        }
        self.shutdown_pool(pool);
    }

    // ------------------------------------------------------------------
    // Route demultiplexers
    // ------------------------------------------------------------------
}
