//! Master fault tolerance for the serverful backend.
//!
//! The paper's standalone backend concentrates orchestration on one
//! master VM (task queue, worker control, job monitor) — a single
//! point of failure its design simply assumes away. This module makes
//! that assumption explicit and optional via [`RecoveryMode`]:
//!
//! * [`RecoveryMode::Protected`] — the paper's stance. The master host
//!   is exempted from injected VM loss; if it is killed anyway (the
//!   chaos suite's forced kill), in-flight jobs stall and fail.
//! * [`RecoveryMode::Checkpointed`] — the master periodically
//!   snapshots its task queue, completion counters and worker registry
//!   to object storage ([`MasterCheckpoint`], sequence-numbered). On
//!   master loss a replacement boots, fetches the snapshot, re-adopts
//!   every worker that is still ready and alive, and re-dispatches only
//!   the tasks whose acknowledgement died with the old master.
//! * [`RecoveryMode::Decentralized`] — the pool's task queue moves from
//!   the master's KV server into object storage, in the unum style: the
//!   client PUTs each task's bundle there, workers claim bundles with a
//!   GET, and each finished task writes a completion counter. The
//!   master never enters the data path, so losing it after submission
//!   is a non-event. The counters are the mode's per-task cost; a DAG's
//!   gated successors are released by the job's
//!   [`DagRun`](crate::dag::DagRun), as in every mode.
//!
//! The pool puts and claims tasks through one queue API in either
//! medium; the mode picks the medium once, when the pool is created.
//! The executor/environment wiring lives in `crate::env`; recovery
//! activity is counted in [`telemetry::RecoveryStats`].

use std::fmt;

use crate::error::ExecError;
use crate::payload::Payload;

pub use telemetry::RecoveryStats;

/// What happens when the serverful master VM is lost mid-job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// The master is a protected host (the paper's assumption): the
    /// fault injector spares it, and a forced kill strands the job.
    #[default]
    Protected,
    /// Periodic master-state checkpoints to object storage; a
    /// replacement master replays the snapshot and re-adopts workers.
    Checkpointed,
    /// No master in the data path: the task queue lives in object
    /// storage, and each task writes a completion counter. DAG
    /// successors are released by the job's
    /// [`DagRun`](crate::dag::DagRun), as in every mode.
    Decentralized,
}

impl RecoveryMode {
    /// All modes, in sweep order.
    pub const ALL: [RecoveryMode; 3] = [
        RecoveryMode::Protected,
        RecoveryMode::Checkpointed,
        RecoveryMode::Decentralized,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::Protected => "protected",
            RecoveryMode::Checkpointed => "checkpointed",
            RecoveryMode::Decentralized => "decentralized",
        }
    }

    /// Plan-key suffix. Empty for the default mode so every existing
    /// plan key stays byte-identical.
    pub fn key_suffix(self) -> &'static str {
        match self {
            RecoveryMode::Protected => "",
            RecoveryMode::Checkpointed => ":ck",
            RecoveryMode::Decentralized => ":dc",
        }
    }
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The storage key a pool's master checkpoints under.
pub fn checkpoint_key(pool: usize) -> String {
    format!("recovery/pool-{pool:03}/checkpoint")
}

/// One job's entry in a [`MasterCheckpoint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobCheckpoint {
    /// The job id.
    pub job: u64,
    /// Task indices the master has released for dispatch.
    pub released: Vec<u64>,
    /// Task indices whose results the master has acknowledged.
    pub acked: Vec<u64>,
}

/// A snapshot of the master's orchestration state: active jobs with
/// their release/acknowledgement frontiers, plus the worker registry
/// (the VM id in each worker slot).
///
/// Serialised through the framework's own [`Payload`] wire format, so
/// the checkpoint PUT/GET pays realistic, state-proportional storage
/// I/O.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MasterCheckpoint {
    /// Monotonic snapshot sequence number.
    pub seq: u64,
    /// VM id (its index) of each worker slot at snapshot time.
    pub worker_vms: Vec<u64>,
    /// Per-active-job dispatch state.
    pub jobs: Vec<JobCheckpoint>,
}

impl MasterCheckpoint {
    /// Encodes the snapshot to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Payload::List(vec![
                    Payload::U64(j.job),
                    Payload::List(j.released.iter().map(|t| Payload::U64(*t)).collect()),
                    Payload::List(j.acked.iter().map(|t| Payload::U64(*t)).collect()),
                ])
            })
            .collect();
        Payload::List(vec![
            Payload::U64(self.seq),
            Payload::List(self.worker_vms.iter().map(|v| Payload::U64(*v)).collect()),
            Payload::List(jobs),
        ])
        .encode()
    }

    /// Decodes a snapshot from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Decode`] on malformed input.
    pub fn decode(data: &[u8]) -> Result<MasterCheckpoint, ExecError> {
        fn u64s(p: &Payload) -> Result<Vec<u64>, ExecError> {
            let Payload::List(items) = p else {
                return Err(ExecError::Decode("checkpoint list expected".into()));
            };
            items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| ExecError::Decode("checkpoint u64 expected".into()))
                })
                .collect()
        }
        let value = Payload::decode(data)?;
        let Payload::List(top) = &value else {
            return Err(ExecError::Decode("checkpoint envelope expected".into()));
        };
        let [seq, vms, jobs] = top.as_slice() else {
            return Err(ExecError::Decode("checkpoint arity mismatch".into()));
        };
        let seq = seq
            .as_u64()
            .ok_or_else(|| ExecError::Decode("checkpoint seq expected".into()))?;
        let worker_vms = u64s(vms)?;
        let Payload::List(jobs) = jobs else {
            return Err(ExecError::Decode("checkpoint job list expected".into()));
        };
        let jobs = jobs
            .iter()
            .map(|j| {
                let Payload::List(parts) = j else {
                    return Err(ExecError::Decode("checkpoint job entry expected".into()));
                };
                let [job, released, acked] = parts.as_slice() else {
                    return Err(ExecError::Decode("checkpoint job arity mismatch".into()));
                };
                Ok(JobCheckpoint {
                    job: job
                        .as_u64()
                        .ok_or_else(|| ExecError::Decode("checkpoint job id expected".into()))?,
                    released: u64s(released)?,
                    acked: u64s(acked)?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MasterCheckpoint {
            seq,
            worker_vms,
            jobs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_protected_with_empty_key_suffix() {
        assert_eq!(RecoveryMode::default(), RecoveryMode::Protected);
        assert_eq!(RecoveryMode::Protected.key_suffix(), "");
        assert_eq!(RecoveryMode::Checkpointed.key_suffix(), ":ck");
        assert_eq!(RecoveryMode::Decentralized.key_suffix(), ":dc");
    }

    #[test]
    fn checkpoint_roundtrips_through_wire_bytes() {
        let ckpt = MasterCheckpoint {
            seq: 7,
            worker_vms: vec![1, 2, 5],
            jobs: vec![
                JobCheckpoint {
                    job: 4,
                    released: vec![0, 1, 2, 5],
                    acked: vec![0, 2],
                },
                JobCheckpoint {
                    job: 9,
                    released: vec![],
                    acked: vec![],
                },
            ],
        };
        let bytes = ckpt.encode();
        assert!(!bytes.is_empty());
        assert_eq!(MasterCheckpoint::decode(&bytes).unwrap(), ckpt);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(MasterCheckpoint::decode(&[0xFF, 0x01, 0x02]).is_err());
    }

    #[test]
    fn checkpoint_keys_are_per_pool() {
        assert_ne!(checkpoint_key(0), checkpoint_key(1));
        assert!(checkpoint_key(0).starts_with("recovery/"));
    }
}
