//! The simulated cloud region.
//!
//! [`World`] owns the event queue and every service model. Frameworks
//! drive it with an issue-then-pump pattern:
//!
//! 1. issue asynchronous operations (`get_object`, `compute`,
//!    `vm_provision`, ...), each returning a handle;
//! 2. call [`World::step`] repeatedly; internal events (bandwidth-pool
//!    ticks, admissions, boots) are processed silently and completed
//!    operations surface as [`Notify`] values in virtual-time order.
//!
//! Billing flows into a [`telemetry::CostLedger`] and CPU occupancy into
//! a [`telemetry::CpuMonitor`], both owned by the world.
//!
//! A storage request ([`StorageRequest`]) has one owner at a time. The
//! caller moves it into [`World::storage`]; the world holds it while it
//! is in flight and moves a PUT's key and body into the
//! [`ObjectStore`] when the transfer lands, so nothing is copied. A
//! request that faults comes back whole in [`OpOutcome::Faulted`], ready
//! to re-issue.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use simkernel::fair_share::FlowId;
use simkernel::{
    EventQueue, EventToken, FairShare, IdMap, IdSet, SchedStats, SimDuration, SimRng, SimTime,
};
use telemetry::trace::{SpanId, Tracer};
use telemetry::{
    CostCategory, CostLedger, CpuMonitor, FaultKind, FaultLedger, FleetTag, SuppressReason,
};

use crate::config::CloudConfig;
use crate::emr::{EmrJob, EmrJobId};
use crate::faults::{FaultInjector, SandboxFault, VmFault};
use crate::host::{Host, HostId, PendingCompute};
use crate::ids::{KvId, OpId, SandboxId, VmId};
use crate::pricing::InstanceType;
use crate::store::{ObjectBody, ObjectStore};
use crate::util::{RateLimiter, TokenBucket};

/// A completion surfaced by [`World::step`].
#[derive(Debug)]
#[non_exhaustive]
pub enum Notify {
    /// An asynchronous operation finished.
    Op {
        /// The handle returned when the operation was issued.
        op: OpId,
        /// What happened.
        outcome: OpOutcome,
    },
    /// A FaaS sandbox finished its cold start and is executing.
    SandboxUp {
        /// The sandbox.
        sandbox: SandboxId,
    },
    /// A VM finished booting and is ready for work.
    VmUp {
        /// The VM.
        vm: VmId,
    },
    /// A timer set with [`World::timer`] fired.
    Timer {
        /// The caller-chosen tag.
        tag: u64,
    },
    /// A managed-service job finished (all tasks done, application torn
    /// down).
    EmrDone {
        /// The job.
        job: EmrJobId,
    },
    /// An injected fault took a sandbox down: either the invocation
    /// errored during cold start or the sandbox crashed mid-execution.
    /// The sandbox is dead; do not release it again.
    SandboxFailed {
        /// The sandbox.
        sandbox: SandboxId,
        /// What happened.
        fault: FaultKind,
    },
    /// An injected fault took a VM down: the provision request failed
    /// at boot or the running instance was lost. The VM is dead; do not
    /// terminate it again.
    VmFailed {
        /// The VM.
        vm: VmId,
        /// What happened.
        fault: FaultKind,
    },
}

/// The result of a completed operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum OpOutcome {
    /// Object stored.
    PutOk,
    /// Object fetched.
    GetOk {
        /// The object body (real bytes or opaque size).
        body: ObjectBody,
    },
    /// GET on a key that does not exist.
    GetMissing,
    /// Keys matching the listed prefix, in lexicographic order.
    ListOk {
        /// Matching keys.
        keys: Vec<String>,
    },
    /// Object deleted (or did not exist).
    DeleteOk,
    /// Compute segment finished.
    ComputeOk,
    /// Sleep elapsed.
    SleepOk,
    /// KV write (put/push) applied.
    KvOk,
    /// KV read (get/pop) result; `None` if the key/queue was empty.
    KvValue {
        /// The value, if present.
        body: Option<ObjectBody>,
    },
    /// Host-to-host transfer finished.
    TransferOk,
    /// The KV server this operation targeted died (its host was lost)
    /// before the operation completed. Not retryable against the same
    /// server; recovery must re-route to a replacement.
    KvUnreachable,
    /// A storage request failed with an injected transient fault; the
    /// caller may re-issue the request it gets back.
    Faulted {
        /// The injected fault class.
        fault: FaultKind,
        /// The host that issued the request.
        from: HostId,
        /// The request, handed back unchanged.
        request: StorageRequest,
    },
}

/// An object-storage request, issued with [`World::storage`]. The world
/// owns it while it is in flight (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageRequest {
    /// Fetch an object.
    Get {
        /// The bucket.
        bucket: String,
        /// The object's key.
        key: String,
    },
    /// Store (or replace) an object.
    Put {
        /// The bucket.
        bucket: String,
        /// The object's key.
        key: String,
        /// The object's contents.
        body: ObjectBody,
    },
    /// List the keys under a prefix.
    List {
        /// The bucket.
        bucket: String,
        /// The key prefix.
        prefix: String,
    },
    /// Delete an object.
    Delete {
        /// The bucket.
        bucket: String,
        /// The object's key.
        key: String,
    },
}

/// Internal events.
#[derive(Debug)]
enum Ev {
    StorageStart { op: OpId },
    VpcStart { op: OpId },
    KvStart { op: OpId },
    LinkTick { link: LinkId },
    ComputeDone { host: HostId, op: OpId },
    SleepDone { op: OpId },
    SandboxUp { sandbox: SandboxId },
    VmUp { vm: VmId },
    Timer { tag: u64 },
    EmrUp { job: EmrJobId },
    EmrTaskDone { job: EmrJobId },
    EmrTorn { job: EmrJobId },
    // Injected faults.
    StorageFault { op: OpId, fault: FaultKind },
    SandboxInvokeFail { sandbox: SandboxId },
    SandboxCrash { sandbox: SandboxId },
    VmBootFail { vm: VmId },
    VmCrash { vm: VmId },
    VmPreempt { vm: VmId },
}

/// How a VM's capacity is bought.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tenancy {
    /// Regular on-demand capacity at the catalog price (the default —
    /// and the paper's only mode).
    #[default]
    OnDemand,
    /// Spot capacity: uptime bills at `(1 - discount) ×` the catalog
    /// price ([`VmConfig::spot_discount`](crate::VmConfig)), but the
    /// provider may reclaim the instance at any time — surfacing as
    /// [`Notify::VmFailed`] with [`FaultKind::SpotPreemption`].
    Spot,
}

/// One fair-share data plane: a bandwidth pool, the flows in flight
/// over it and the event armed for its next completion.
#[derive(Debug)]
struct Link {
    pool: FairShare,
    tick: Option<EventToken>,
    flows: IdMap<FlowId, FlowDone>,
}

impl Link {
    fn new(pool: FairShare) -> Link {
        Link {
            pool,
            tick: None,
            flows: IdMap::default(),
        }
    }
}

/// Which [`Link`]: object storage, the VPC, or one KV server's NIC.
#[derive(Debug, Clone, Copy)]
enum LinkId {
    Storage,
    Vpc,
    Kv(KvId),
}

/// What to do when a storage/KV flow completes.
#[derive(Debug)]
enum FlowDone {
    Get { op: OpId, body: ObjectBody },
    Put {
        op: OpId,
        bucket: String,
        key: String,
        body: ObjectBody,
    },
    KvValue { op: OpId, kv: KvId, body: ObjectBody },
    KvPut { op: OpId, kv: KvId, key: String, body: ObjectBody },
    KvPush { op: OpId, kv: KvId, queue: String, body: ObjectBody },
    TransferDone { op: OpId },
}

/// Pending operation state between issue and completion.
#[derive(Debug)]
enum OpKind {
    Storage { from: HostId, req: StorageRequest },
    Compute,
    Sleep,
    KvPut { from: HostId, kv: KvId, key: String, body: ObjectBody },
    KvGet { from: HostId, kv: KvId, key: String },
    KvPush { from: HostId, kv: KvId, queue: String, body: ObjectBody },
    KvPop { from: HostId, kv: KvId, queue: String },
    Transfer { from: HostId, to: HostId, bytes: u64 },
}

impl OpKind {
    /// A traced op's span name and track, and the key and byte count
    /// its span records.
    fn trace_label(&self) -> (&'static str, &'static str, Option<&str>, Option<u64>) {
        match self {
            OpKind::Storage { req, .. } => match req {
                StorageRequest::Get { key, .. } => ("GET", "storage", Some(key), None),
                StorageRequest::Put { key, body, .. } => {
                    ("PUT", "storage", Some(key), Some(body.len()))
                }
                StorageRequest::List { prefix, .. } => ("LIST", "storage", Some(prefix), None),
                StorageRequest::Delete { key, .. } => ("DELETE", "storage", Some(key), None),
            },
            OpKind::KvPut { key, body, .. } => ("KV PUT", "kv", Some(key), Some(body.len())),
            OpKind::KvGet { key, .. } => ("KV GET", "kv", Some(key), None),
            OpKind::KvPush { queue, body, .. } => ("KV PUSH", "kv", Some(queue), Some(body.len())),
            OpKind::KvPop { queue, .. } => ("KV POP", "kv", Some(queue), None),
            OpKind::Transfer { bytes, .. } => ("TRANSFER", "vpc", None, Some(*bytes)),
            OpKind::Compute | OpKind::Sleep => unreachable!("compute and sleep ops are not traced"),
        }
    }
}

#[derive(Debug)]
struct Sandbox {
    host: HostId,
    mem_mb: u32,
    started: Option<SimTime>,
    released: bool,
    fleet: FleetTag,
    /// Bill label captured at invoke time, so the charge lands on the
    /// job that created the sandbox even if another job's label is
    /// current when it retires (concurrent multi-job worlds).
    bill_label: Arc<str>,
    /// Injected crash scheduled to fire this long after user code
    /// starts (decided at invoke time).
    planned_crash: Option<SimDuration>,
    /// Trace span covering invoke + burst admission + cold start.
    cold_span: SpanId,
    /// Trace span covering the billed execution window.
    exec_span: SpanId,
    /// Parent span recorded at invoke time, inherited by `exec_span`.
    span_parent: SpanId,
}

#[derive(Debug)]
struct Vm {
    host: HostId,
    itype: InstanceType,
    up_at: Option<SimTime>,
    terminated: bool,
    fleet: FleetTag,
    /// Bill label captured at provision time (see [`Sandbox::bill_label`]).
    bill_label: Arc<str>,
    /// Injected loss scheduled to fire this long after the VM comes up
    /// (decided at provision time).
    planned_loss: Option<SimDuration>,
    /// How the capacity was bought (spot uptime bills discounted).
    tenancy: Tenancy,
    /// Uptime price multiplier: 1.0 on-demand, `1 - discount` for spot.
    price_mult: f64,
    /// Spot reclaim scheduled to fire this long after the VM comes up
    /// (decided at provision time; spot tenancy only).
    planned_preempt: Option<SimDuration>,
    /// Trace span covering boot + agent setup.
    boot_span: SpanId,
    /// Trace span covering the billed uptime.
    run_span: SpanId,
    /// Parent span recorded at provision time, inherited by `run_span`.
    span_parent: SpanId,
}

#[derive(Debug)]
struct Kv {
    host: HostId,
    link: Link,
    data: HashMap<String, ObjectBody>,
    queues: HashMap<String, VecDeque<ObjectBody>>,
    /// Set when the hosting VM was killed; every subsequent (or still
    /// in-flight) operation resolves as [`OpOutcome::KvUnreachable`].
    dead: bool,
}

/// The simulated cloud region. See the [module docs](self).
#[derive(Debug)]
pub struct World {
    cfg: CloudConfig,
    queue: EventQueue<Ev>,
    rng: SimRng,
    outbox: VecDeque<Notify>,

    // Object storage.
    store: ObjectStore,
    storage_link: Link,
    st_get_rl: RateLimiter,
    st_put_rl: RateLimiter,
    prefix_groups: HashMap<String, u64>,

    // Direct host-to-host transfers (cluster shuffle traffic).
    vpc_link: Link,
    /// The flows one `FairShare::advance` call finished, reused by every
    /// link.
    done_flows: Vec<FlowId>,

    // Hosts / sandboxes / VMs / KV.
    hosts: Vec<Host>,
    client: HostId,
    sandboxes: Vec<Sandbox>,
    faas_bucket: TokenBucket,
    vms: Vec<Vm>,
    kvs: Vec<Kv>,
    emr_jobs: Vec<EmrJob>,

    // Op bookkeeping.
    ops: IdMap<OpId, OpKind>,
    next_op: u64,
    /// Host-local KV transfers finishing after a plain delay.
    local_finishers: IdMap<OpId, FlowDone>,

    // Fault injection.
    faults: FaultInjector,
    /// Hosts the injector must never take down mid-job (masters; hosts
    /// running a KV server are spared automatically).
    protected_hosts: IdSet<HostId>,

    // Telemetry.
    ledger: CostLedger,
    cpu: CpuMonitor,
    fault_ledger: FaultLedger,
    fleets: HashMap<String, FleetTag>,
    /// Shared with every charge made under it, so a charge clones a
    /// pointer, not the string.
    bill_label: Arc<str>,

    // Region-quota usage (the counters the fleet admission controller
    // reads; enforcement policy lives above this crate).
    active_sandboxes: usize,
    active_vm_vcpus: f64,

    // Tracing (zero-cost while the tracer is disabled).
    tracer: Tracer,
    /// Parent for spans opened at issue time; set by the framework
    /// around the operations it issues on behalf of a task.
    trace_parent: SpanId,
    /// Open span per in-flight operation.
    op_spans: IdMap<OpId, SpanId>,
}

impl World {
    /// Creates a region from a configuration and a deterministic seed.
    pub fn new(cfg: CloudConfig, seed: u64) -> World {
        let mut st_pool = FairShare::new(cfg.storage.aggregate_bps, cfg.storage.per_conn_bps);
        let mut hosts = Vec::new();
        let client_host = Host::new(cfg.client.vcpus as f64, 1.0, cfg.client.net_bps, None);
        st_pool.set_group_cap(0, client_host.nic_bps);
        let mut vpc_pool = FairShare::new(f64::INFINITY, 1.25e9);
        vpc_pool.set_group_cap(0, client_host.nic_bps);
        hosts.push(client_host);
        hosts[0].alive = true;
        let faas_bucket = TokenBucket::new(cfg.faas.burst as f64, cfg.faas.starts_per_sec);
        let st_get_rl = RateLimiter::per_second(cfg.storage.get_rate_per_sec);
        let st_put_rl = RateLimiter::per_second(cfg.storage.put_rate_per_sec);
        let faults = FaultInjector::new(cfg.faults.clone(), seed);
        World {
            queue: EventQueue::new(),
            rng: SimRng::seed_from(seed),
            outbox: VecDeque::new(),
            store: ObjectStore::new(),
            storage_link: Link::new(st_pool),
            st_get_rl,
            st_put_rl,
            prefix_groups: HashMap::new(),
            vpc_link: Link::new(vpc_pool),
            done_flows: Vec::new(),
            hosts,
            client: HostId::from_index(0),
            sandboxes: Vec::new(),
            faas_bucket,
            vms: Vec::new(),
            kvs: Vec::new(),
            emr_jobs: Vec::new(),
            ops: IdMap::default(),
            next_op: 0,
            local_finishers: IdMap::default(),
            faults,
            protected_hosts: IdSet::default(),
            ledger: CostLedger::new(),
            cpu: CpuMonitor::new(),
            fault_ledger: FaultLedger::new(),
            fleets: HashMap::new(),
            bill_label: Arc::from(""),
            active_sandboxes: 0,
            active_vm_vcpus: 0.0,
            tracer: Tracer::new(),
            trace_parent: SpanId::NONE,
            op_spans: IdMap::default(),
            cfg,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The host the framework client (scheduler) runs on.
    pub fn client_host(&self) -> HostId {
        self.client
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// Read access to the object store (for tests and result collection
    /// outside the timed path).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Inserts an object directly, bypassing the timing and billing
    /// models. For experiment setup (pre-loading input datasets), never
    /// for the measured path.
    pub fn seed_object(&mut self, bucket: &str, key: &str, body: ObjectBody) {
        self.store.put(bucket, key, body);
    }

    /// The billing ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Mutable billing ledger (e.g. to reset between warm-up and
    /// measurement).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// Cloud-function sandboxes currently counted against the account's
    /// regional concurrency (invoked and not yet retired). The `fleet`
    /// admission controller compares this against
    /// [`RegionQuotas::lambda_concurrency`](crate::RegionQuotas).
    pub fn faas_active(&self) -> usize {
        self.active_sandboxes
    }

    /// Total vCPUs of VMs currently counted against the account's
    /// regional EC2 capacity (provisioned and not yet terminated).
    /// Compared against [`RegionQuotas::ec2_vcpus`](crate::RegionQuotas).
    pub fn vm_vcpus_active(&self) -> f64 {
        self.active_vm_vcpus
    }

    /// The CPU monitor.
    pub fn cpu_monitor(&self) -> &CpuMonitor {
        &self.cpu
    }

    /// Mutable CPU monitor (frameworks add their scheduler occupancy).
    pub fn cpu_monitor_mut(&mut self) -> &mut CpuMonitor {
        &mut self.cpu
    }

    /// The fault/retry ledger.
    pub fn fault_ledger(&self) -> &FaultLedger {
        &self.fault_ledger
    }

    /// Mutable fault/retry ledger (frameworks record their retries and
    /// give-ups next to the world's injection counters).
    pub fn fault_ledger_mut(&mut self) -> &mut FaultLedger {
        &mut self.fault_ledger
    }

    /// Turns span recording on or off. Off (the default) makes every
    /// tracing hook a no-op.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// The trace collector.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable trace collector (frameworks record their own spans —
    /// jobs, task attempts, pipeline stages — into the same trace).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Sets the parent span that operations issued from now on are
    /// attributed to (the framework's current task attempt). Pass
    /// [`SpanId::NONE`] to clear.
    pub fn set_trace_parent(&mut self, parent: SpanId) {
        self.trace_parent = parent;
    }

    /// Lifetime scheduler counters from the event queue (events
    /// scheduled / fired / cancelled).
    pub fn sched_stats(&self) -> SchedStats {
        self.queue.stats()
    }

    /// True while a host can issue and receive operations.
    pub fn host_alive(&self, host: HostId) -> bool {
        self.hosts[host.index() as usize].alive
    }

    /// Marks a host as exempt from injected mid-job VM loss. Frameworks
    /// protect single points of failure the paper's design assumes are
    /// reliable (the master VM; hosts running a KV server are spared
    /// automatically).
    pub fn protect_host(&mut self, host: HostId) {
        self.protected_hosts.insert(host);
    }

    /// Registers (or fetches) a fleet tag by name for CPU accounting.
    pub fn fleet(&mut self, name: &str) -> FleetTag {
        if let Some(&tag) = self.fleets.get(name) {
            return tag;
        }
        let tag = self.cpu.register(name);
        self.fleets.insert(name.to_owned(), tag);
        tag
    }

    /// Sets the label attached to subsequent billing entries (typically
    /// the current job/stage name).
    pub fn set_bill_label(&mut self, label: impl Into<Arc<str>>) {
        self.bill_label = label.into();
    }

    /// Advances the simulation until something noteworthy happens.
    /// Internal events are handled silently. Returns `None` when the
    /// simulation has fully drained.
    pub fn step(&mut self) -> Option<(SimTime, Notify)> {
        loop {
            if let Some(n) = self.outbox.pop_front() {
                return Some((self.queue.now(), n));
            }
            let (t, ev) = self.queue.next()?;
            self.handle(ev, t);
        }
    }

    /// Adjusts a host's busy-vCPU accounting by a *fraction* of one
    /// task's share. Frameworks use this to model the (de)serialisation
    /// CPU that user code burns while overlapping storage I/O ("reads
    /// and writes are parallelized to overlap (de)serialization with
    /// I/O"). No scheduling effect — accounting only.
    pub fn task_io_busy(&mut self, host: HostId, delta_fraction: f64) {
        let h = &self.hosts[host.index() as usize];
        if let Some(fleet) = h.fleet {
            let delta = delta_fraction * h.busy_equiv();
            let now = self.queue.now();
            self.cpu.add_busy(fleet, now, delta);
        }
    }

    // ------------------------------------------------------------------
    // Object storage operations
    // ------------------------------------------------------------------

    /// Starts an asynchronous object-storage request from `from`'s
    /// vantage point. The world owns the request until it completes; if
    /// it faults, [`OpOutcome::Faulted`] hands it back.
    pub fn storage(&mut self, from: HostId, req: StorageRequest) -> OpId {
        self.assert_alive(from);
        let cfg = &self.cfg.storage;
        let (put_rate, latency, fee) = match &req {
            StorageRequest::Get { .. } => (false, cfg.get_latency, Some(cfg.tariff.usd_per_get)),
            StorageRequest::Put { .. } => (true, cfg.put_latency, Some(cfg.tariff.usd_per_put)),
            StorageRequest::List { .. } => (false, cfg.list_latency, Some(cfg.tariff.usd_per_list)),
            // DELETE requests are free.
            StorageRequest::Delete { .. } => (true, cfg.put_latency, None),
        };
        let op = self.alloc_op(OpKind::Storage { from, req });
        self.trace_op_begin(op);
        let now = self.queue.now();
        let at = if put_rate {
            self.st_put_rl.admit(now)
        } else {
            self.st_get_rl.admit(now)
        };
        let lat = self.lat(latency);
        if let Some(fault) = self.faults.storage_fault(now) {
            // Failed requests (5xx / SlowDown) are not billed.
            self.queue
                .schedule_at(at + lat, Ev::StorageFault { op, fault });
            return op;
        }
        if let Some(fee) = fee {
            self.charge(CostCategory::StorageRequests, fee);
        }
        self.queue.schedule_at(at + lat, Ev::StorageStart { op });
        op
    }

    /// Starts an asynchronous GET.
    pub fn get_object(
        &mut self,
        from: HostId,
        bucket: impl Into<String>,
        key: impl Into<String>,
    ) -> OpId {
        let (bucket, key) = (bucket.into(), key.into());
        self.storage(from, StorageRequest::Get { bucket, key })
    }

    /// Starts an asynchronous PUT.
    pub fn put_object(
        &mut self,
        from: HostId,
        bucket: impl Into<String>,
        key: impl Into<String>,
        body: ObjectBody,
    ) -> OpId {
        let (bucket, key) = (bucket.into(), key.into());
        self.storage(from, StorageRequest::Put { bucket, key, body })
    }

    /// Starts an asynchronous LIST of keys under `prefix`.
    pub fn list_objects(
        &mut self,
        from: HostId,
        bucket: impl Into<String>,
        prefix: impl Into<String>,
    ) -> OpId {
        let (bucket, prefix) = (bucket.into(), prefix.into());
        self.storage(from, StorageRequest::List { bucket, prefix })
    }

    /// Starts an asynchronous DELETE.
    pub fn delete_object(
        &mut self,
        from: HostId,
        bucket: impl Into<String>,
        key: impl Into<String>,
    ) -> OpId {
        let (bucket, key) = (bucket.into(), key.into());
        self.storage(from, StorageRequest::Delete { bucket, key })
    }

    // ------------------------------------------------------------------
    // Compute / sleep / timer
    // ------------------------------------------------------------------

    /// Runs `cpu_secs` of single-threaded compute on one of `host`'s
    /// slots (FIFO if all slots are busy).
    ///
    /// # Panics
    ///
    /// Panics if the host is not alive or `cpu_secs` is negative.
    pub fn compute(&mut self, host: HostId, cpu_secs: f64) -> OpId {
        self.assert_alive(host);
        assert!(cpu_secs >= 0.0, "compute time cannot be negative");
        let op = self.alloc_op(OpKind::Compute);
        let pending = PendingCompute { op, cpu_secs };
        let admitted = self.hosts[host.index() as usize].slots.submit(pending);
        if let Some(p) = admitted {
            self.start_compute(host, p);
        }
        op
    }

    /// Completes after `duration` without occupying any resource
    /// (framework-internal waits).
    pub fn sleep(&mut self, duration: SimDuration) -> OpId {
        let op = self.alloc_op(OpKind::Sleep);
        self.queue.schedule_in(duration, Ev::SleepDone { op });
        op
    }

    /// Fires [`Notify::Timer`] with `tag` after `delay`.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        self.queue.schedule_in(delay, Ev::Timer { tag });
    }

    /// Moves `bytes` directly between two hosts over the VPC network
    /// (cluster shuffle traffic). Both hosts' NICs constrain the flow.
    ///
    /// # Panics
    ///
    /// Panics if either host is not alive.
    pub fn net_transfer(&mut self, from: HostId, to: HostId, bytes: u64) -> OpId {
        self.assert_alive(from);
        self.assert_alive(to);
        let op = self.alloc_op(OpKind::Transfer { from, to, bytes });
        self.trace_op_begin(op);
        // TCP setup / first-byte latency within a VPC.
        let lat = self.lat((0.0008, 0.0002));
        self.queue.schedule_in(lat, Ev::VpcStart { op });
        op
    }

    // ------------------------------------------------------------------
    // FaaS
    // ------------------------------------------------------------------

    /// Invokes a cloud function with `mem_mb` of memory. The sandbox
    /// surfaces as [`Notify::SandboxUp`] after invoke latency, burst
    /// admission and cold start.
    pub fn faas_invoke(&mut self, mem_mb: u32, fleet: &str) -> SandboxId {
        assert!(mem_mb >= 128, "Lambda memory must be at least 128 MB");
        let tariff = self.cfg.faas.tariff;
        let vcpus = tariff.vcpus_for_mb(mem_mb);
        let speed = vcpus.min(1.0);
        let fleet_tag = self.fleet(fleet);
        let host = self.add_host(Host::new(
            vcpus,
            speed,
            self.cfg.faas.sandbox_net_bps,
            Some(fleet_tag),
        ));
        let sandbox = SandboxId::from_index(self.sandboxes.len() as u64);
        let now = self.queue.now();
        let fault = self.faults.sandbox_fault(now);
        let cold_span = self
            .tracer
            .begin(now, "cold-start", "faas", fleet, self.trace_parent);
        self.tracer.attr_u64(cold_span, "mem_mb", mem_mb as u64);
        self.sandboxes.push(Sandbox {
            host,
            mem_mb,
            started: None,
            released: false,
            fleet: fleet_tag,
            bill_label: self.bill_label.clone(),
            planned_crash: match fault {
                Some(SandboxFault::CrashAfter(after)) => Some(after),
                _ => None,
            },
            cold_span,
            exec_span: SpanId::NONE,
            span_parent: self.trace_parent,
        });
        self.active_sandboxes += 1;
        let invoke = self.lat(self.cfg.faas.invoke_latency);
        let admitted = self.faas_bucket.admit(now + invoke);
        let cold = SimDuration::from_secs_f64(
            self.rng
                .lognormal_median(self.cfg.faas.cold_start_median, self.cfg.faas.cold_start_sigma),
        );
        if matches!(fault, Some(SandboxFault::InvokeError)) {
            // The runtime fails to initialise: the error surfaces where
            // the sandbox would have come up; nothing is billed.
            self.queue
                .schedule_at(admitted + cold, Ev::SandboxInvokeFail { sandbox });
        } else {
            self.queue.schedule_at(admitted + cold, Ev::SandboxUp { sandbox });
        }
        sandbox
    }

    /// Ends a sandbox, billing its execution time.
    ///
    /// # Panics
    ///
    /// Panics if the sandbox never started or was already released.
    pub fn faas_release(&mut self, sandbox: SandboxId) {
        self.retire_sandbox(sandbox);
    }

    /// Abandons a running sandbox whose work will be redone elsewhere
    /// (speculative straggler re-dispatch): bills it like a release and
    /// books the billed GB-seconds as wasted.
    ///
    /// # Panics
    ///
    /// Panics if the sandbox never started or was already released.
    pub fn faas_abandon(&mut self, sandbox: SandboxId) {
        let gb_secs = self.retire_sandbox(sandbox);
        self.fault_ledger.wasted_gb_secs += gb_secs;
    }

    /// Bills and tears down a started sandbox; returns its billed
    /// GB-seconds.
    fn retire_sandbox(&mut self, sandbox: SandboxId) -> f64 {
        let now = self.queue.now();
        let sb = &mut self.sandboxes[sandbox.index() as usize];
        let started = sb.started.expect("released a sandbox that never started");
        assert!(!sb.released, "sandbox released twice");
        sb.released = true;
        let secs = (now - started).as_secs_f64();
        let tariff = self.cfg.faas.tariff;
        let compute = tariff.compute_usd(sb.mem_mb, secs);
        let gb_secs = sb.mem_mb as f64 / 1024.0 * secs;
        let host = sb.host;
        let fleet = sb.fleet;
        let exec_span = sb.exec_span;
        let label = sb.bill_label.clone();
        let vcpus = self.hosts[host.index() as usize].vcpus;
        self.hosts[host.index() as usize].alive = false;
        self.cpu.add_provisioned(fleet, now, -vcpus);
        self.active_sandboxes -= 1;
        self.charge_as(CostCategory::FaasCompute, compute, label.clone());
        self.charge_as(CostCategory::FaasRequests, tariff.usd_per_request, label);
        self.tracer.attr_f64(exec_span, "gb_secs", gb_secs);
        self.tracer.end(exec_span, now);
        gb_secs
    }

    /// The host a sandbox executes on.
    pub fn sandbox_host(&self, sandbox: SandboxId) -> HostId {
        self.sandboxes[sandbox.index() as usize].host
    }

    // ------------------------------------------------------------------
    // VMs
    // ------------------------------------------------------------------

    /// Provisions an on-demand VM of the given type; it surfaces as
    /// [`Notify::VmUp`] after boot and agent setup.
    pub fn vm_provision(&mut self, itype: &InstanceType, fleet: &str) -> VmId {
        self.vm_provision_with(itype, fleet, Tenancy::OnDemand)
    }

    /// Provisions a VM with an explicit [`Tenancy`]. Spot provisions
    /// bill uptime at the configured discount and draw a seeded
    /// preemption decision at provision time (on-demand provisions
    /// never touch the spot RNG stream, preserving byte-identical
    /// replays of spot-free runs).
    pub fn vm_provision_with(
        &mut self,
        itype: &InstanceType,
        fleet: &str,
        tenancy: Tenancy,
    ) -> VmId {
        let fleet_tag = self.fleet(fleet);
        let host = self.add_host(Host::new(
            itype.vcpus as f64,
            1.0,
            itype.net_bytes_per_sec(),
            Some(fleet_tag),
        ));
        let vm = VmId::from_index(self.vms.len() as u64);
        let fault = self.faults.vm_fault(self.queue.now());
        let (price_mult, planned_preempt) = match tenancy {
            Tenancy::OnDemand => (1.0, None),
            Tenancy::Spot => (
                self.cfg.vm.spot_price_mult(),
                self.faults.spot_fault(self.queue.now()),
            ),
        };
        let boot_span =
            self.tracer
                .begin(self.queue.now(), "vm-boot", "vm", fleet, self.trace_parent);
        self.tracer.attr_str(boot_span, "instance_type", itype.name);
        if tenancy == Tenancy::Spot {
            self.tracer.attr_str(boot_span, "tenancy", "spot");
        }
        self.vms.push(Vm {
            host,
            itype: *itype,
            up_at: None,
            terminated: false,
            fleet: fleet_tag,
            bill_label: self.bill_label.clone(),
            planned_loss: match fault {
                Some(VmFault::LossAfter(after)) => Some(after),
                _ => None,
            },
            tenancy,
            price_mult,
            planned_preempt,
            boot_span,
            run_span: SpanId::NONE,
            span_parent: self.trace_parent,
        });
        self.active_vm_vcpus += itype.vcpus as f64;
        let boot = self.lat_floor(self.cfg.vm.boot, 5.0);
        let setup = self.lat_floor(self.cfg.vm.setup, 0.5);
        if matches!(fault, Some(VmFault::BootFailure)) {
            // Capacity errors surface at boot time; nothing is billed.
            self.queue.schedule_in(boot, Ev::VmBootFail { vm });
        } else {
            self.queue.schedule_in(boot + setup, Ev::VmUp { vm });
        }
        vm
    }

    /// Terminates a VM, billing its uptime (per-second with the
    /// configured minimum).
    ///
    /// # Panics
    ///
    /// Panics if the VM never came up or was already terminated.
    pub fn vm_terminate(&mut self, vm: VmId) {
        let now = self.queue.now();
        let rec = &mut self.vms[vm.index() as usize];
        let up_at = rec.up_at.expect("terminated a VM that never came up");
        assert!(!rec.terminated, "VM terminated twice");
        rec.terminated = true;
        let secs = (now - up_at).as_secs_f64() + self.cfg.vm.terminate_secs;
        let billed = secs.max(self.cfg.vm.min_billed_secs);
        let cost = billed * rec.itype.usd_per_second() * rec.price_mult;
        let host = rec.host;
        let fleet = rec.fleet;
        let run_span = rec.run_span;
        let label = rec.bill_label.clone();
        let itype_vcpus = rec.itype.vcpus as f64;
        let vcpus = self.hosts[host.index() as usize].vcpus;
        self.hosts[host.index() as usize].alive = false;
        self.cpu.add_provisioned(fleet, now, -vcpus);
        self.active_vm_vcpus -= itype_vcpus;
        self.charge_as(CostCategory::VmCompute, cost, label);
        self.tracer.attr_f64(run_span, "billed_secs", billed);
        self.tracer.end(run_span, now);
    }

    /// The host a VM provides.
    pub fn vm_host(&self, vm: VmId) -> HostId {
        self.vms[vm.index() as usize].host
    }

    /// How a VM's capacity was bought.
    pub fn vm_tenancy(&self, vm: VmId) -> Tenancy {
        self.vms[vm.index() as usize].tenancy
    }

    /// The regional instance catalog this world was configured with.
    pub fn catalog(&self) -> &'static [InstanceType] {
        self.cfg.vm.catalog
    }

    /// Looks up an instance type in this world's regional catalog (the
    /// region-aware replacement for the free function
    /// [`crate::instance_type`], which always answers from the default
    /// us-east-1 catalog).
    pub fn lookup_instance(&self, name: &str) -> Option<&'static InstanceType> {
        self.cfg.vm.instance_type(name)
    }

    // ------------------------------------------------------------------
    // KV (Redis-on-master)
    // ------------------------------------------------------------------

    /// Starts a Redis-like KV server on a running VM.
    ///
    /// # Panics
    ///
    /// Panics if the VM is not up.
    pub fn kv_create(&mut self, vm: VmId) -> KvId {
        let host = self.vm_host(vm);
        self.assert_alive(host);
        let nic = self.hosts[host.index() as usize].nic_bps;
        let pool = FairShare::new(nic, self.cfg.kv.per_conn_bps);
        let kv = KvId::from_index(self.kvs.len() as u64);
        self.kvs.push(Kv {
            host,
            link: Link::new(pool),
            data: HashMap::new(),
            queues: HashMap::new(),
            dead: false,
        });
        kv
    }

    /// True while a KV server's hosting VM is up (operations against a
    /// dead server resolve as [`OpOutcome::KvUnreachable`]).
    pub fn kv_alive(&self, kv: KvId) -> bool {
        !self.kvs[kv.index() as usize].dead
    }

    /// Asynchronously stores `body` under `key` in a KV server.
    pub fn kv_put(
        &mut self,
        from: HostId,
        kv: KvId,
        key: impl Into<String>,
        body: ObjectBody,
    ) -> OpId {
        let key = key.into();
        self.kv_op(
            from,
            OpKind::KvPut {
                from,
                kv,
                key,
                body,
            },
        )
    }

    /// Asynchronously fetches `key` from a KV server.
    pub fn kv_get(&mut self, from: HostId, kv: KvId, key: impl Into<String>) -> OpId {
        let key = key.into();
        self.kv_op(from, OpKind::KvGet { from, kv, key })
    }

    /// Asynchronously appends `body` to a KV queue.
    pub fn kv_push(
        &mut self,
        from: HostId,
        kv: KvId,
        queue: impl Into<String>,
        body: ObjectBody,
    ) -> OpId {
        let queue = queue.into();
        self.kv_op(
            from,
            OpKind::KvPush {
                from,
                kv,
                queue,
                body,
            },
        )
    }

    /// Asynchronously pops the head of a KV queue (`None` if empty).
    pub fn kv_pop(&mut self, from: HostId, kv: KvId, queue: impl Into<String>) -> OpId {
        let queue = queue.into();
        self.kv_op(from, OpKind::KvPop { from, kv, queue })
    }

    fn kv_op(&mut self, from: HostId, kind: OpKind) -> OpId {
        self.assert_alive(from);
        let op = self.alloc_op(kind);
        self.trace_op_begin(op);
        let lat = self.lat(self.cfg.kv.op_latency);
        self.queue.schedule_in(lat, Ev::KvStart { op });
        op
    }

    // ------------------------------------------------------------------
    // Managed service (EMR-Serverless-like)
    // ------------------------------------------------------------------

    /// Submits a map job of `tasks` tasks, each `cpu_secs_per_task`
    /// seconds of CPU, to the managed analytics service. Completion
    /// surfaces as [`Notify::EmrDone`]; billing covers the application
    /// lifetime.
    pub fn emr_submit(&mut self, tasks: usize, cpu_secs_per_task: f64) -> EmrJobId {
        assert!(tasks > 0, "managed job needs at least one task");
        let job = EmrJobId::from_index(self.emr_jobs.len() as u64);
        self.emr_jobs.push(EmrJob::new(
            tasks,
            cpu_secs_per_task,
            self.cfg.emr.default_vcpus as usize,
        ));
        let startup = self.lat_floor(self.cfg.emr.startup, 10.0);
        self.queue.schedule_in(startup, Ev::EmrUp { job });
        job
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn alloc_op(&mut self, kind: OpKind) -> OpId {
        let op = OpId::from_index(self.next_op);
        self.next_op += 1;
        self.ops.insert(op, kind);
        op
    }

    /// Opens a span for an in-flight operation (no-op while tracing is
    /// off). Object/KV keys are attributed; storage keys also get their
    /// top-level prefix, the unit of bandwidth contention.
    fn trace_op_begin(&mut self, op: OpId) {
        if !self.tracer.is_enabled() {
            return;
        }
        let (name, track, key, bytes) = self.ops[&op].trace_label();
        let span = self
            .tracer
            .begin(self.queue.now(), name, "storage", track, self.trace_parent);
        if let Some(key) = key {
            self.tracer.attr_str(span, "key", key);
            if track == "storage" {
                let prefix = key.split('/').next().unwrap_or(key);
                self.tracer.attr_str(span, "prefix", prefix);
            }
        }
        if let Some(bytes) = bytes {
            self.tracer.attr_u64(span, "bytes", bytes);
        }
        self.op_spans.insert(op, span);
    }

    fn add_host(&mut self, host: Host) -> HostId {
        let id = HostId::from_index(self.hosts.len() as u64);
        self.storage_link
            .pool
            .set_group_cap(id.index(), host.nic_bps);
        self.vpc_link.pool.set_group_cap(id.index(), host.nic_bps);
        self.hosts.push(host);
        id
    }

    fn assert_alive(&self, host: HostId) {
        assert!(
            self.hosts[host.index() as usize].alive,
            "{host} is not alive"
        );
    }

    fn lat(&mut self, (mean, std): (f64, f64)) -> SimDuration {
        self.rng.latency(mean, std)
    }

    fn lat_floor(&mut self, (mean, std): (f64, f64), floor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.rng.normal_at_least(mean, std, floor))
    }

    fn charge(&mut self, category: CostCategory, amount: f64) {
        let label = Arc::clone(&self.bill_label);
        self.charge_as(category, amount, label);
    }

    /// Charges under an explicit label; used by sandbox/VM retirement,
    /// which must bill the job that *created* the resource rather than
    /// whichever label is current at teardown time.
    fn charge_as(&mut self, category: CostCategory, amount: f64, label: Arc<str>) {
        self.ledger.charge(self.queue.now(), category, amount, label);
    }

    fn notify_op(&mut self, op: OpId, outcome: OpOutcome) {
        self.ops.remove(&op);
        if let Some(span) = self.op_spans.remove(&op) {
            match &outcome {
                OpOutcome::GetOk { body } => self.tracer.attr_u64(span, "bytes", body.len()),
                OpOutcome::KvValue { body: Some(body) } => {
                    self.tracer.attr_u64(span, "bytes", body.len())
                }
                OpOutcome::GetMissing => self.tracer.attr_str(span, "result", "missing"),
                OpOutcome::Faulted { fault, .. } => {
                    self.tracer.attr_str(span, "fault", fault.name())
                }
                _ => {}
            }
            self.tracer.end(span, self.queue.now());
        }
        self.outbox.push_back(Notify::Op { op, outcome });
    }

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::StorageStart { op } => self.on_storage_start(op, now),
            Ev::VpcStart { op } => self.on_vpc_start(op, now),
            Ev::KvStart { op } => self.on_kv_start(op, now),
            Ev::LinkTick { link } => {
                self.link_collect(link, now);
                self.link_reschedule(link, now);
            }
            Ev::ComputeDone { host, op } => self.on_compute_done(host, op, now),
            Ev::SleepDone { op } => {
                if let Some(done) = self.local_finishers.remove(&op) {
                    self.ops.remove(&op);
                    self.finish_flow(done);
                } else {
                    self.notify_op(op, OpOutcome::SleepOk);
                }
            }
            Ev::SandboxUp { sandbox } => self.on_sandbox_up(sandbox, now),
            Ev::VmUp { vm } => self.on_vm_up(vm, now),
            Ev::Timer { tag } => self.outbox.push_back(Notify::Timer { tag }),
            Ev::EmrUp { job } => self.on_emr_up(job, now),
            Ev::EmrTaskDone { job } => self.on_emr_task_done(job, now),
            Ev::EmrTorn { job } => self.on_emr_torn(job, now),
            Ev::StorageFault { op, fault } => {
                self.fault_ledger.record_fault(fault);
                self.tracer.instant(now, fault.name(), "fault", "faults");
                let Some(OpKind::Storage { from, req }) = self.ops.remove(&op) else {
                    unreachable!("fault on a non-storage op")
                };
                let outcome = OpOutcome::Faulted {
                    fault,
                    from,
                    request: req,
                };
                self.notify_op(op, outcome);
            }
            Ev::SandboxInvokeFail { sandbox } => self.on_sandbox_invoke_fail(sandbox),
            Ev::SandboxCrash { sandbox } => self.on_sandbox_crash(sandbox, now),
            Ev::VmBootFail { vm } => self.on_vm_boot_fail(vm),
            Ev::VmCrash { vm } => self.on_vm_crash(vm, now),
            Ev::VmPreempt { vm } => self.on_vm_preempt(vm, now),
        }
    }

    // --- storage flow plumbing ---

    fn on_storage_start(&mut self, op: OpId, now: SimTime) {
        let Some(OpKind::Storage { from, req }) = self.ops.remove(&op) else {
            unreachable!("unknown storage op")
        };
        match req {
            StorageRequest::Get { bucket, key } => match self.store.get(&bucket, &key) {
                None => self.notify_op(op, OpOutcome::GetMissing),
                Some(body) => {
                    let body = body.clone();
                    let len = body.len();
                    let groups = self.st_flow_groups(now, from, &key);
                    let done = FlowDone::Get { op, body };
                    self.link_join(LinkId::Storage, now, len, &groups, done);
                }
            },
            StorageRequest::Put { bucket, key, body } => {
                let len = body.len();
                let groups = self.st_flow_groups(now, from, &key);
                let done = FlowDone::Put {
                    op,
                    bucket,
                    key,
                    body,
                };
                self.link_join(LinkId::Storage, now, len, &groups, done);
            }
            StorageRequest::List { bucket, prefix } => {
                let keys = self.store.list_prefix(&bucket, &prefix);
                self.notify_op(op, OpOutcome::ListOk { keys });
            }
            StorageRequest::Delete { bucket, key } => {
                self.store.delete(&bucket, &key);
                self.notify_op(op, OpOutcome::DeleteOk);
            }
        }
    }

    /// Collects the storage link, then names the groups a flow from
    /// `from` under `key` joins: the host's NIC and the key's prefix.
    fn st_flow_groups(&mut self, now: SimTime, from: HostId, key: &str) -> [u64; 2] {
        self.link_collect(LinkId::Storage, now);
        [from.index(), self.prefix_group(key)]
    }

    /// The flow group for a key's top-level prefix. S3-like stores scale
    /// throughput per key prefix, so each top-level prefix gets its own
    /// bandwidth pool — all-to-all shuffle traffic under one prefix
    /// saturates while wide scans across many prefixes scale out.
    fn prefix_group(&mut self, key: &str) -> u64 {
        const PREFIX_GROUP_BASE: u64 = 1 << 48;
        let prefix = key.split('/').next().unwrap_or(key);
        if let Some(&id) = self.prefix_groups.get(prefix) {
            return id;
        }
        let id = PREFIX_GROUP_BASE + self.prefix_groups.len() as u64;
        self.prefix_groups.insert(prefix.to_owned(), id);
        self.storage_link
            .pool
            .set_group_cap(id, self.cfg.storage.per_prefix_bps);
        id
    }

    fn on_vpc_start(&mut self, op: OpId, now: SimTime) {
        let kind = self.ops.remove(&op).expect("unknown transfer op");
        let OpKind::Transfer { from, to, bytes } = kind else {
            unreachable!("non-transfer op in vpc start")
        };
        self.link_collect(LinkId::Vpc, now);
        let done = FlowDone::TransferDone { op };
        self.link_join(LinkId::Vpc, now, bytes, &[from.index(), to.index()], done);
    }

    fn link(&mut self, id: LinkId) -> &mut Link {
        match id {
            LinkId::Storage => &mut self.storage_link,
            LinkId::Vpc => &mut self.vpc_link,
            LinkId::Kv(kv) => &mut self.kvs[kv.index() as usize].link,
        }
    }

    /// Finishes every flow of the link that is done by `now`.
    fn link_collect(&mut self, id: LinkId, now: SimTime) {
        let mut flows = std::mem::take(&mut self.done_flows);
        self.link(id).pool.advance(now, &mut flows);
        for flow in &flows {
            let done = self.link(id).flows.remove(flow).expect("unknown flow");
            self.finish_flow(done);
        }
        self.done_flows = flows;
    }

    /// Starts a flow of `bytes` through the link's `groups` and re-arms
    /// its tick. A caller collects the link first, then sets any group
    /// cap the flow needs.
    fn link_join(&mut self, id: LinkId, now: SimTime, bytes: u64, groups: &[u64], done: FlowDone) {
        let link = self.link(id);
        let flow = link.pool.start(now, bytes, groups);
        link.flows.insert(flow, done);
        self.link_reschedule(id, now);
    }

    /// Re-arms the link's tick for its next flow completion, if any.
    fn link_reschedule(&mut self, id: LinkId, now: SimTime) {
        if let Some(tok) = self.link(id).tick.take() {
            self.queue.cancel(tok);
        }
        if let Some(at) = self.link(id).pool.next_completion() {
            let at = at.max(now);
            let tok = self.queue.schedule_at(at, Ev::LinkTick { link: id });
            self.link(id).tick = Some(tok);
        }
    }

    fn finish_flow(&mut self, done: FlowDone) {
        match done {
            FlowDone::Get { op, body } => self.notify_op(op, OpOutcome::GetOk { body }),
            FlowDone::Put {
                op,
                bucket,
                key,
                body,
            } => {
                self.store.put(&bucket, key, body);
                self.notify_op(op, OpOutcome::PutOk);
            }
            FlowDone::KvValue { op, kv, body } => {
                if self.kvs[kv.index() as usize].dead {
                    self.notify_op(op, OpOutcome::KvUnreachable);
                } else {
                    self.notify_op(op, OpOutcome::KvValue { body: Some(body) })
                }
            }
            FlowDone::KvPut { op, kv, key, body } => {
                if self.kvs[kv.index() as usize].dead {
                    self.notify_op(op, OpOutcome::KvUnreachable);
                } else {
                    self.kvs[kv.index() as usize].data.insert(key, body);
                    self.notify_op(op, OpOutcome::KvOk);
                }
            }
            FlowDone::KvPush {
                op,
                kv,
                queue,
                body,
            } => {
                if self.kvs[kv.index() as usize].dead {
                    self.notify_op(op, OpOutcome::KvUnreachable);
                } else {
                    self.kvs[kv.index() as usize]
                        .queues
                        .entry(queue)
                        .or_default()
                        .push_back(body);
                    self.notify_op(op, OpOutcome::KvOk);
                }
            }
            FlowDone::TransferDone { op } => {
                self.notify_op(op, OpOutcome::TransferOk);
            }
        }
    }

    // --- KV flow plumbing ---

    fn on_kv_start(&mut self, op: OpId, now: SimTime) {
        let kind = self.ops.remove(&op).expect("unknown KV op");
        let target = match &kind {
            OpKind::KvPut { kv, .. }
            | OpKind::KvGet { kv, .. }
            | OpKind::KvPush { kv, .. }
            | OpKind::KvPop { kv, .. } => *kv,
            other => unreachable!("non-KV op in KV start: {other:?}"),
        };
        if self.kvs[target.index() as usize].dead {
            self.notify_op(op, OpOutcome::KvUnreachable);
            return;
        }
        match kind {
            OpKind::KvPut { from, kv, key, body } => {
                let len = body.len();
                self.kv_begin_flow(kv, now, len, from, FlowDone::KvPut { op, kv, key, body });
            }
            OpKind::KvPush {
                from,
                kv,
                queue,
                body,
            } => {
                let len = body.len();
                self.kv_begin_flow(
                    kv,
                    now,
                    len,
                    from,
                    FlowDone::KvPush { op, kv, queue, body },
                );
            }
            OpKind::KvGet { from, kv, key } => {
                match self.kvs[kv.index() as usize].data.get(&key).cloned() {
                    None => self.notify_op(op, OpOutcome::KvValue { body: None }),
                    Some(body) => {
                        let len = body.len();
                        self.kv_begin_flow(kv, now, len, from, FlowDone::KvValue { op, kv, body });
                    }
                }
            }
            OpKind::KvPop { from, kv, queue } => {
                let popped = self.kvs[kv.index() as usize]
                    .queues
                    .get_mut(&queue)
                    .and_then(VecDeque::pop_front);
                match popped {
                    None => self.notify_op(op, OpOutcome::KvValue { body: None }),
                    Some(body) => {
                        let len = body.len();
                        self.kv_begin_flow(kv, now, len, from, FlowDone::KvValue { op, kv, body });
                    }
                }
            }
            other => unreachable!("non-KV op in KV start: {other:?}"),
        }
    }

    fn kv_begin_flow(
        &mut self,
        kv: KvId,
        now: SimTime,
        bytes: u64,
        from: HostId,
        done: FlowDone,
    ) {
        self.link_collect(LinkId::Kv(kv), now);
        let kv_host = self.kvs[kv.index() as usize].host;
        let local = kv_host == from;
        // Local (same-VM) exchanges move through shared memory: very fast
        // and not constrained by the NIC. Remote exchanges contend on the
        // KV host's NIC and the requester's NIC.
        if local {
            // Same-VM exchange through shared memory: a fixed-rate copy,
            // not constrained by any NIC.
            let delay = SimDuration::from_secs_f64(bytes as f64 / self.cfg.kv.local_bps);
            self.schedule_flow_finish(delay, done);
            return;
        }
        let from_nic = self.hosts[from.index() as usize].nic_bps;
        let link = &mut self.kvs[kv.index() as usize].link;
        link.pool.set_group_cap(from.index(), from_nic);
        self.link_join(LinkId::Kv(kv), now, bytes, &[from.index()], done);
    }

    /// Finishes a flow after a fixed delay (host-local transfers).
    fn schedule_flow_finish(&mut self, delay: SimDuration, done: FlowDone) {
        let op = self.alloc_op(OpKind::Sleep);
        self.local_finishers.insert(op, done);
        self.queue.schedule_in(delay, Ev::SleepDone { op });
    }

    // --- compute ---

    fn start_compute(&mut self, host: HostId, p: PendingCompute) {
        let now = self.queue.now();
        let h = &self.hosts[host.index() as usize];
        let dur = SimDuration::from_secs_f64(p.cpu_secs / h.speed);
        let equiv = h.busy_equiv();
        if let Some(fleet) = h.fleet {
            self.cpu.add_busy(fleet, now, equiv);
        }
        self.queue.schedule_in(dur, Ev::ComputeDone { host, op: p.op });
    }

    fn on_compute_done(&mut self, host: HostId, op: OpId, now: SimTime) {
        let h = &mut self.hosts[host.index() as usize];
        let equiv = h.busy_equiv();
        let fleet = h.fleet;
        let next = h.slots.release();
        if let Some(fleet) = fleet {
            self.cpu.add_busy(fleet, now, -equiv);
        }
        self.notify_op(op, OpOutcome::ComputeOk);
        if let Some(p) = next {
            self.start_compute(host, p);
        }
    }

    // --- lifecycle events ---

    fn on_sandbox_up(&mut self, sandbox: SandboxId, now: SimTime) {
        let sb = &mut self.sandboxes[sandbox.index() as usize];
        sb.started = Some(now);
        let host = sb.host;
        let fleet = sb.fleet;
        let planned_crash = sb.planned_crash;
        let cold_span = sb.cold_span;
        let span_parent = sb.span_parent;
        self.tracer.end(cold_span, now);
        if self.tracer.is_enabled() {
            let track = self.cpu.fleet_name(fleet).to_owned();
            let span = self.tracer.begin(now, "sandbox", "faas", &track, span_parent);
            self.sandboxes[sandbox.index() as usize].exec_span = span;
        }
        self.hosts[host.index() as usize].alive = true;
        let vcpus = self.hosts[host.index() as usize].vcpus;
        self.cpu.add_provisioned(fleet, now, vcpus);
        if let Some(after) = planned_crash {
            self.queue.schedule_in(after, Ev::SandboxCrash { sandbox });
        }
        self.outbox.push_back(Notify::SandboxUp { sandbox });
    }

    fn on_vm_up(&mut self, vm: VmId, now: SimTime) {
        let rec = &mut self.vms[vm.index() as usize];
        rec.up_at = Some(now);
        let host = rec.host;
        let fleet = rec.fleet;
        let planned_loss = rec.planned_loss;
        let planned_preempt = rec.planned_preempt;
        let boot_span = rec.boot_span;
        let span_parent = rec.span_parent;
        let itype_name = rec.itype.name;
        self.tracer.end(boot_span, now);
        if self.tracer.is_enabled() {
            let track = self.cpu.fleet_name(fleet).to_owned();
            let span = self.tracer.begin(now, "vm", "vm", &track, span_parent);
            self.tracer.attr_str(span, "instance_type", itype_name);
            self.vms[vm.index() as usize].run_span = span;
        }
        self.hosts[host.index() as usize].alive = true;
        let vcpus = self.hosts[host.index() as usize].vcpus;
        self.cpu.add_provisioned(fleet, now, vcpus);
        if let Some(after) = planned_loss {
            self.queue.schedule_in(after, Ev::VmCrash { vm });
        }
        if let Some(after) = planned_preempt {
            self.queue.schedule_in(after, Ev::VmPreempt { vm });
        }
        self.outbox.push_back(Notify::VmUp { vm });
    }

    // --- injected faults ---

    /// The invocation failed during cold start: user code never ran, the
    /// host never came alive, nothing is billed.
    fn on_sandbox_invoke_fail(&mut self, sandbox: SandboxId) {
        let sb = &mut self.sandboxes[sandbox.index() as usize];
        debug_assert!(sb.started.is_none());
        sb.released = true;
        let cold_span = sb.cold_span;
        self.active_sandboxes -= 1;
        let now = self.queue.now();
        self.tracer.attr_str(cold_span, "fault", FaultKind::SandboxInvokeError.name());
        self.tracer.end(cold_span, now);
        self.tracer
            .instant(now, FaultKind::SandboxInvokeError.name(), "fault", "faults");
        self.fault_ledger.record_fault(FaultKind::SandboxInvokeError);
        self.outbox.push_back(Notify::SandboxFailed {
            sandbox,
            fault: FaultKind::SandboxInvokeError,
        });
    }

    /// A planned crash fires mid-execution. If the sandbox finished
    /// first (already released) the plan is moot. AWS bills crashed
    /// Lambda executions, so the partial run is billed — and booked as
    /// wasted GB-seconds, since its output never materialised.
    fn on_sandbox_crash(&mut self, sandbox: SandboxId, now: SimTime) {
        if self.sandboxes[sandbox.index() as usize].released {
            return;
        }
        let gb_secs = self.retire_sandbox(sandbox);
        let exec_span = self.sandboxes[sandbox.index() as usize].exec_span;
        self.tracer
            .attr_str(exec_span, "fault", FaultKind::SandboxCrash.name());
        self.tracer
            .instant(now, FaultKind::SandboxCrash.name(), "fault", "faults");
        self.fault_ledger.wasted_gb_secs += gb_secs;
        self.fault_ledger.record_fault(FaultKind::SandboxCrash);
        self.outbox.push_back(Notify::SandboxFailed {
            sandbox,
            fault: FaultKind::SandboxCrash,
        });
    }

    /// The provision request failed: the VM never came up, nothing is
    /// billed.
    fn on_vm_boot_fail(&mut self, vm: VmId) {
        let rec = &mut self.vms[vm.index() as usize];
        debug_assert!(rec.up_at.is_none());
        rec.terminated = true;
        let lost_vcpus = rec.itype.vcpus as f64;
        let boot_span = rec.boot_span;
        self.active_vm_vcpus -= lost_vcpus;
        let now = self.queue.now();
        self.tracer
            .attr_str(boot_span, "fault", FaultKind::VmBootFailure.name());
        self.tracer.end(boot_span, now);
        self.tracer
            .instant(now, FaultKind::VmBootFailure.name(), "fault", "faults");
        self.fault_ledger.record_fault(FaultKind::VmBootFailure);
        self.outbox.push_back(Notify::VmFailed {
            vm,
            fault: FaultKind::VmBootFailure,
        });
    }

    /// A planned VM loss fires. Terminated VMs and protected hosts
    /// (masters, KV hosts — the single points of failure the paper's
    /// design keeps reliable) are spared, with the swallowed injection
    /// recorded in the fault ledger. Uptime until the loss is billed
    /// (per-second, with the minimum) and booked as wasted
    /// instance-seconds.
    fn on_vm_crash(&mut self, vm: VmId, now: SimTime) {
        if self.vm_loss_suppressed(vm, FaultKind::VmLoss) {
            return;
        }
        self.vm_crash_teardown(vm, now, FaultKind::VmLoss);
    }

    /// A planned spot preemption fires. The same suppression rules as
    /// injected VM loss apply (terminated VMs are moot; protected and
    /// KV hosts are spared and the swallowed reclaim is ledgered — a
    /// framework that puts a master on spot capacity against advice
    /// still keeps its deterministic gates).
    fn on_vm_preempt(&mut self, vm: VmId, now: SimTime) {
        if self.vm_loss_suppressed(vm, FaultKind::SpotPreemption) {
            return;
        }
        self.vm_crash_teardown(vm, now, FaultKind::SpotPreemption);
    }

    /// Shared suppression check for mid-run VM loss classes: already
    /// terminated (moot), protected host or live KV host (spared, the
    /// swallowed injection recorded under `kind`).
    fn vm_loss_suppressed(&mut self, vm: VmId, kind: FaultKind) -> bool {
        let rec = &self.vms[vm.index() as usize];
        if rec.terminated {
            return true;
        }
        let host = rec.host;
        if self.protected_hosts.contains(&host) {
            self.fault_ledger
                .record_suppressed(kind, SuppressReason::ProtectedHost);
            return true;
        }
        if self.kvs.iter().any(|kv| kv.host == host && !kv.dead) {
            self.fault_ledger
                .record_suppressed(kind, SuppressReason::KvHost);
            return true;
        }
        false
    }

    /// Forcibly terminates a running VM right now, bypassing fault
    /// suppression — the chaos suite's master-kill switch. Any KV
    /// server on the host dies with it: its in-flight remote flows
    /// resolve as [`OpOutcome::KvUnreachable`] before the
    /// [`Notify::VmFailed`] surfaces, and queued or future operations
    /// against it resolve the same way. Billing follows the
    /// injected-loss path (uptime billed and booked as wasted).
    /// Returns `false` (no-op) if the VM never came up or already
    /// terminated.
    pub fn kill_vm(&mut self, vm: VmId) -> bool {
        let rec = &self.vms[vm.index() as usize];
        if rec.terminated || rec.up_at.is_none() {
            return false;
        }
        let host = rec.host;
        self.kill_kvs_on(host);
        let now = self.queue.now();
        self.vm_crash_teardown(vm, now, FaultKind::VmLoss);
        true
    }

    /// Marks every KV server on `host` dead and fails its in-flight
    /// remote flows as [`OpOutcome::KvUnreachable`] (in ascending op
    /// order, for determinism). Host-local exchanges and queued op
    /// starts resolve lazily through the `dead` flag when their timers
    /// fire.
    fn kill_kvs_on(&mut self, host: HostId) {
        let mut orphans: Vec<OpId> = Vec::new();
        for state in &mut self.kvs {
            if state.host != host || state.dead {
                continue;
            }
            state.dead = true;
            if let Some(tok) = state.link.tick.take() {
                self.queue.cancel(tok);
            }
            for (_, done) in state.link.flows.drain() {
                let (FlowDone::Get { op, .. }
                | FlowDone::Put { op, .. }
                | FlowDone::KvValue { op, .. }
                | FlowDone::KvPut { op, .. }
                | FlowDone::KvPush { op, .. }
                | FlowDone::TransferDone { op }) = done;
                orphans.push(op);
            }
        }
        orphans.sort_by_key(|op| op.index());
        for op in orphans {
            self.notify_op(op, OpOutcome::KvUnreachable);
        }
    }

    /// The shared teardown of a mid-job VM loss (injected crash, forced
    /// kill or spot preemption): bill the uptime as wasted — at the spot
    /// rate for spot tenancy — release the host and surface
    /// [`Notify::VmFailed`] carrying `kind`.
    fn vm_crash_teardown(&mut self, vm: VmId, now: SimTime, kind: FaultKind) {
        let rec = &mut self.vms[vm.index() as usize];
        let host = rec.host;
        let up_at = rec.up_at.expect("crashed a VM that never came up");
        rec.terminated = true;
        let secs = (now - up_at).as_secs_f64();
        let billed = secs.max(self.cfg.vm.min_billed_secs);
        let cost = billed * rec.itype.usd_per_second() * rec.price_mult;
        let fleet = rec.fleet;
        let run_span = rec.run_span;
        let label = rec.bill_label.clone();
        let lost_vcpus = rec.itype.vcpus as f64;
        let vcpus = self.hosts[host.index() as usize].vcpus;
        self.hosts[host.index() as usize].alive = false;
        self.cpu.add_provisioned(fleet, now, -vcpus);
        self.active_vm_vcpus -= lost_vcpus;
        self.charge_as(CostCategory::VmCompute, cost, label);
        self.tracer.attr_str(run_span, "fault", kind.name());
        self.tracer.attr_f64(run_span, "wasted_secs", billed);
        self.tracer.end(run_span, now);
        self.tracer.instant(now, kind.name(), "fault", "faults");
        self.fault_ledger.wasted_instance_secs += billed;
        self.fault_ledger.record_fault(kind);
        self.outbox.push_back(Notify::VmFailed { vm, fault: kind });
    }

    // --- EMR ---

    fn on_emr_up(&mut self, job: EmrJobId, now: SimTime) {
        let dispatch = self.cfg.emr.dispatch_overhead;
        let rec = &mut self.emr_jobs[job.index() as usize];
        rec.started = Some(now);
        let admitted = rec.start_all();
        for _ in 0..admitted {
            let dur = SimDuration::from_secs_f64(dispatch + rec.cpu_secs_per_task);
            self.queue.schedule_in(dur, Ev::EmrTaskDone { job });
        }
    }

    fn on_emr_task_done(&mut self, job: EmrJobId, _now: SimTime) {
        let dispatch = self.cfg.emr.dispatch_overhead;
        let rec = &mut self.emr_jobs[job.index() as usize];
        let more = rec.task_done();
        if more {
            let dur = SimDuration::from_secs_f64(dispatch + rec.cpu_secs_per_task);
            self.queue.schedule_in(dur, Ev::EmrTaskDone { job });
        } else if rec.remaining == 0 {
            let teardown = self.lat_floor(self.cfg.emr.teardown, 1.0);
            self.queue.schedule_in(teardown, Ev::EmrTorn { job });
        }
    }

    fn on_emr_torn(&mut self, job: EmrJobId, now: SimTime) {
        let rec = &self.emr_jobs[job.index() as usize];
        let started = rec.started.expect("EMR job torn down before start");
        let secs = (now - started).as_secs_f64();
        let vcpus = rec.vcpus as f64;
        let gib = vcpus * self.cfg.emr.gib_per_vcpu;
        let tariff = self.cfg.emr.tariff;
        let cost = vcpus * secs * tariff.usd_per_vcpu_second
            + gib * secs * tariff.usd_per_gib_second;
        self.charge(CostCategory::ManagedService, cost);
        self.outbox.push_back(Notify::EmrDone { job });
    }
}
