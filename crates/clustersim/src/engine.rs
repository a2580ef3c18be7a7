//! The BSP execution engine.

use std::collections::VecDeque;

use cloudsim::{HostId, Notify, ObjectBody, OpId, OpOutcome, VmId, World};
use simkernel::{IdMap, IdSet, SimDuration, SimTime};
use telemetry::{CostCategory, StageSpan, Timeline};

use crate::config::{ClusterConfig, StageDef};

/// The outcome of one pipeline run on the cluster.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// End-to-end wall-clock seconds (cluster init excluded).
    pub wall_secs: f64,
    /// Dollars: instance-seconds for the job window.
    pub cost_usd: f64,
    /// Per-stage spans.
    pub timeline: Timeline,
}

/// Which step of its life a running task is in.
#[derive(Debug, Clone, Copy)]
enum TaskPhase {
    Reading,
    Computing,
    Writing,
}

#[derive(Debug)]
struct RunningTask {
    vm_slot: usize,
    phase: TaskPhase,
}

/// A provisioned, long-lived cluster. See the [crate docs](crate).
#[derive(Debug)]
pub struct ClusterEngine {
    cfg: ClusterConfig,
    itype: cloudsim::InstanceType,
    vms: Vec<VmId>,
    hosts: Vec<HostId>,
    total_slots: usize,
}

impl ClusterEngine {
    /// Provisions the cluster and waits (in virtual time) until every
    /// instance is up. The paper excludes this from job measurements;
    /// call [`Self::run`] afterwards for the timed part.
    ///
    /// # Panics
    ///
    /// Panics if the instance type is unknown or the world drains before
    /// the cluster is up.
    pub fn provision(world: &mut World, cfg: ClusterConfig) -> Self {
        let itype = *cloudsim::instance_type(&cfg.instance_type)
            .unwrap_or_else(|| panic!("unknown instance type {}", cfg.instance_type));
        let vms: Vec<VmId> = (0..cfg.count)
            .map(|_| world.vm_provision(&itype, "cluster"))
            .collect();
        let mut up = 0;
        while up < vms.len() {
            match world.step() {
                Some((_, Notify::VmUp { .. })) => up += 1,
                Some(_) => {}
                None => panic!("world drained before the cluster came up"),
            }
        }
        let hosts = vms.iter().map(|&vm| world.vm_host(vm)).collect();
        let total_slots = itype.vcpus as usize * cfg.count;
        ClusterEngine {
            cfg,
            itype,
            vms,
            hosts,
            total_slots,
        }
    }

    /// Total task slots (vCPUs across the pool).
    pub fn slots(&self) -> usize {
        self.total_slots
    }

    /// The instances backing the cluster.
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// Runs the stages back to back (BSP) and reports wall time and the
    /// cluster cost for the job window.
    ///
    /// # Panics
    ///
    /// Panics if the world drains mid-stage (a model bug).
    pub fn run(&mut self, world: &mut World, stages: &[StageDef]) -> ClusterReport {
        let start = world.now();
        let mut timeline = Timeline::new();
        for stage in stages {
            let span = self.run_stage(world, stage);
            timeline.record(span);
        }
        let end = world.now();
        let wall_secs = (end - start).as_secs_f64();
        // The fixed pool is billed for the whole job window regardless of
        // utilisation — the crux of the cost comparison.
        let cost_usd = wall_secs * self.cfg.count as f64 * self.itype.usd_per_second();
        world.ledger_mut().charge(
            end,
            CostCategory::VmCompute,
            cost_usd,
            format!("cluster job ({} stages)", stages.len()),
        );
        ClusterReport {
            wall_secs,
            cost_usd,
            timeline,
        }
    }

    fn run_stage(&mut self, world: &mut World, stage: &StageDef) -> StageSpan {
        let stage_start = world.now();
        world.set_bill_label(format!("cluster/{}", stage.name));

        // DAG-scheduler overhead.
        let op = world_sleep(world, self.cfg.stage_overhead_secs);
        wait_op(world, op);

        // Shuffle feeding this stage: all-to-all across executors.
        if stage.shuffle_bytes > 0 && self.cfg.count > 1 {
            let pairs = (self.cfg.count * (self.cfg.count - 1)) as u64;
            let per_pair = stage.shuffle_bytes / pairs.max(1);
            let mut pending = Vec::new();
            for (i, &from) in self.hosts.iter().enumerate() {
                for (j, &to) in self.hosts.iter().enumerate() {
                    if i != j {
                        pending.push(world.net_transfer(from, to, per_pair));
                    }
                }
            }
            wait_all(world, pending);
            // External-sort spill: the shuffled data is written to and
            // re-read from local disk on every node.
            let disk_secs = 2.0 * stage.shuffle_bytes as f64
                / (self.cfg.count as f64 * self.cfg.disk_bps_per_node);
            let op = world_sleep(world, disk_secs);
            wait_op(world, op);
        } else if stage.shuffle_bytes > 0 {
            // Single-node "shuffle" is a memory copy; negligible.
            let op = world_sleep(world, 0.05);
            wait_op(world, op);
        }

        // Seed this stage's input objects (setup, untimed): one object
        // per task under the stage's prefix.
        for t in 0..stage.tasks {
            if stage.read_bytes_per_task > 0 {
                world.seed_object(
                    "cluster-data",
                    &stage_input_key(stage, t),
                    ObjectBody::opaque(stage.read_bytes_per_task),
                );
            }
        }

        // Execute tasks in waves over the slot pool.
        let mut queue: VecDeque<usize> = (0..stage.tasks).collect();
        let mut running: IdMap<OpId, (usize, RunningTask)> = IdMap::default();
        let mut in_flight = 0usize;
        let mut next_slot = 0usize;
        let mut done = 0usize;

        let launch = |world: &mut World,
                          queue: &mut VecDeque<usize>,
                          running: &mut IdMap<OpId, (usize, RunningTask)>,
                          in_flight: &mut usize,
                          next_slot: &mut usize| {
            while *in_flight < self.total_slots {
                let Some(task) = queue.pop_front() else {
                    break;
                };
                let vm_slot = *next_slot % self.cfg.count;
                *next_slot += 1;
                *in_flight += 1;
                let host = self.hosts[vm_slot];
                let op = if stage.read_bytes_per_task > 0 {
                    world.get_object(host, "cluster-data", stage_input_key(stage, task))
                } else {
                    world.compute(host, stage.cpu_secs_per_task + self.cfg.task_overhead_secs)
                };
                let phase = if stage.read_bytes_per_task > 0 {
                    TaskPhase::Reading
                } else {
                    TaskPhase::Computing
                };
                running.insert(op, (task, RunningTask { vm_slot, phase }));
            }
        };

        launch(world, &mut queue, &mut running, &mut in_flight, &mut next_slot);

        while done < stage.tasks {
            let Some((_, notify)) = world.step() else {
                panic!("world drained mid-stage {}", stage.name);
            };
            let Notify::Op { op, outcome } = notify else {
                continue;
            };
            let Some((task, state)) = running.remove(&op) else {
                continue;
            };
            let host = self.hosts[state.vm_slot];
            match (state.phase, outcome) {
                (TaskPhase::Reading, OpOutcome::GetOk { .. }) => {
                    let op = world
                        .compute(host, stage.cpu_secs_per_task + self.cfg.task_overhead_secs);
                    running.insert(
                        op,
                        (
                            task,
                            RunningTask {
                                vm_slot: state.vm_slot,
                                phase: TaskPhase::Computing,
                            },
                        ),
                    );
                }
                (TaskPhase::Computing, OpOutcome::ComputeOk) => {
                    if stage.write_bytes_per_task > 0 {
                        let key = format!(
                            "{}-{}/out/{}/{}",
                            stage.storage_prefix,
                            task % stage.prefix_spread.max(1),
                            stage.name,
                            task
                        );
                        let op = world.put_object(
                            host,
                            "cluster-data",
                            key,
                            ObjectBody::opaque(stage.write_bytes_per_task),
                        );
                        running.insert(
                            op,
                            (
                                task,
                                RunningTask {
                                    vm_slot: state.vm_slot,
                                    phase: TaskPhase::Writing,
                                },
                            ),
                        );
                    } else {
                        done += 1;
                        in_flight -= 1;
                        launch(world, &mut queue, &mut running, &mut in_flight, &mut next_slot);
                    }
                }
                (TaskPhase::Writing, OpOutcome::PutOk) => {
                    done += 1;
                    in_flight -= 1;
                    launch(world, &mut queue, &mut running, &mut in_flight, &mut next_slot);
                }
                (phase, outcome) => {
                    panic!("stage {}: unexpected {outcome:?} in {phase:?}", stage.name)
                }
            }
        }

        StageSpan {
            name: stage.name.clone(),
            start: stage_start,
            end: world.now(),
            tasks: stage.tasks,
            stateful: stage.stateful,
        }
    }
}

fn stage_input_key(stage: &StageDef, task: usize) -> String {
    format!(
        "{}-{}/in/{}/{}",
        stage.storage_prefix,
        task % stage.prefix_spread.max(1),
        stage.name,
        task
    )
}

fn world_sleep(world: &mut World, secs: f64) -> OpId {
    world.sleep(SimDuration::from_secs_f64(secs))
}

/// Pumps until one op completes.
fn wait_op(world: &mut World, op: OpId) -> SimTime {
    loop {
        match world.step() {
            Some((t, Notify::Op { op: done, .. })) if done == op => return t,
            Some(_) => continue,
            None => panic!("world drained waiting on {op}"),
        }
    }
}

/// Pumps until every listed op completes.
fn wait_all(world: &mut World, ops: Vec<OpId>) {
    let mut remaining: IdSet<OpId> = ops.into_iter().collect();
    while !remaining.is_empty() {
        match world.step() {
            Some((_, Notify::Op { op, .. })) => {
                remaining.remove(&op);
            }
            Some(_) => {}
            None => panic!("world drained waiting on transfers"),
        }
    }
}
