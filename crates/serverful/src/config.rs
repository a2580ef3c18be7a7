//! Executor configuration.

use crate::recovery::RecoveryMode;
use crate::retry::RetryPolicy;
use crate::sizing::{BidPolicy, SizingPolicy};

/// The workspace bucket: [`ExecutorConfig::bucket`]'s default, where
/// jobs keep their metadata, inputs and results and where the pipelines
/// write their science outputs.
pub const WORKSPACE_BUCKET: &str = "lithops-workspace";

/// Client's storage-polling interval while monitoring a FaaS job,
/// seconds (the period of the job's monitor ticks).
pub const FAAS_POLL_INTERVAL_SECS: f64 = 2.0;

/// Client-side seconds spent per `map` call on the FaaS backend
/// serialising the function and its dependencies and uploading them
/// before dispatch.
pub const FAAS_MAP_SETUP_SECS: f64 = 2.5;

/// Client-side setup per `map` on the serverful backend, seconds —
/// small, because the runtime and modules already live on the VMs.
pub const VM_MAP_SETUP_SECS: f64 = 0.5;

/// Mean/std of the SSH connect + worker bootstrap performed on each
/// fresh VM, seconds.
pub const VM_SSH_SETUP_SECS: (f64, f64) = (2.0, 0.4);

/// Fraction of a vCPU a logical function burns while waiting on
/// storage/KV I/O ((de)serialisation overlapped with transfers).
/// Accounting only; affects the Table 3 utilisation statistics.
pub const IO_COMPUTE_OVERLAP: f64 = 0.35;

/// How the serverful (VM) backend lays out compute.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecMode {
    /// One right-sized VM runs the master process, the KV store and one
    /// worker per vCPU — the deployment the paper uses for in-place
    /// sorts. The instance type comes from the sizing policy unless
    /// overridden.
    Consolidated,
    /// A dedicated master VM plus `count` worker VMs of `instance_type`.
    Fleet {
        /// Worker instance type name (must be in the catalog).
        instance_type: String,
        /// Number of worker VMs.
        count: usize,
    },
}

/// Configuration of the serverful (standalone) backend.
#[derive(Debug, Clone, PartialEq)]
pub struct StandaloneConfig {
    /// Compute layout.
    pub exec_mode: ExecMode,
    /// Instance type for the dedicated master VM (fleet mode).
    pub master_instance: String,
    /// Force a specific worker instance type instead of the sizing
    /// policy's choice (consolidated mode).
    pub instance_override: Option<String>,
    /// Input-size-driven sizing policy.
    pub sizing: SizingPolicy,
    /// Keep VMs alive between jobs of the same executor ("use existing,
    /// previously configured VMs"); `false` tears everything down after
    /// each job.
    pub reuse_instances: bool,
    /// Master's storage-polling interval while monitoring a job,
    /// seconds (the period of the job's monitor ticks).
    pub poll_interval: f64,
    /// Attempts per VM slot before a provisioning failure is surfaced
    /// to the job (replacement VMs after boot failures or losses).
    pub max_provision_attempts: u32,
    /// Keep-alive window for an idle pool with `reuse_instances`:
    /// after this many seconds without queued or running jobs the
    /// pool's VMs are torn down (they re-provision on the next job).
    /// `None` keeps warm VMs until executor shutdown — the original
    /// single-job behaviour.
    pub idle_timeout_secs: Option<f64>,
    /// Fleet name the pool's VMs are provisioned (and billed) under.
    /// Defaults to `standalone-{pool index}`; the cross-job shared
    /// pool labels its fleet so per-tenant cost reports can split
    /// pool cost from direct job cost.
    pub fleet_label: Option<String>,
    /// What happens when the master VM is lost mid-job. The default
    /// [`RecoveryMode::Protected`] reproduces the paper's assumption
    /// (the master cannot fail); the other modes survive its loss. See
    /// [`crate::recovery`].
    pub recovery: RecoveryMode,
    /// Seconds between master checkpoint snapshots under
    /// [`RecoveryMode::Checkpointed`]; ignored by the other modes.
    pub checkpoint_interval_secs: f64,
    /// How worker slots bid for VM capacity: on-demand (default, the
    /// paper's behaviour) or discounted-but-preemptible spot with a
    /// bounded per-slot preemption budget. Master slots always run
    /// on-demand regardless.
    pub bid: BidPolicy,
}

impl Default for StandaloneConfig {
    fn default() -> Self {
        StandaloneConfig {
            exec_mode: ExecMode::Consolidated,
            master_instance: "c5.large".to_owned(),
            instance_override: None,
            sizing: SizingPolicy::default(),
            reuse_instances: true,
            poll_interval: 1.0,
            max_provision_attempts: 5,
            idle_timeout_secs: None,
            fleet_label: None,
            recovery: RecoveryMode::Protected,
            checkpoint_interval_secs: 5.0,
            bid: BidPolicy::OnDemand,
        }
    }
}

/// Configuration shared by all backends of one executor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Bucket used for job metadata, inputs and results.
    pub bucket: String,
    /// Sandbox memory for the FaaS backend, MB (1769 MB = 1 vCPU).
    pub runtime_memory_mb: u32,
    /// Retry/backoff/straggler policy applied to every job of this
    /// executor (task re-dispatch, storage re-issue, worker requeue).
    pub retry: RetryPolicy,
    /// Serverful-backend options.
    pub standalone: StandaloneConfig,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            bucket: WORKSPACE_BUCKET.to_owned(),
            runtime_memory_mb: 1769,
            retry: RetryPolicy::default(),
            standalone: StandaloneConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = ExecutorConfig::default();
        // 1769 MB is the paper's Lambda configuration (= 1 vCPU).
        assert_eq!(cfg.runtime_memory_mb, 1769);
        assert!(matches!(cfg.standalone.exec_mode, ExecMode::Consolidated));
        assert!(cfg.standalone.reuse_instances);
        // The paper assumes the master cannot fail; surviving its loss
        // is opt-in.
        assert_eq!(cfg.standalone.recovery, RecoveryMode::Protected);
    }

    #[test]
    fn fleet_mode_is_expressible() {
        let mode = ExecMode::Fleet {
            instance_type: "c5.4xlarge".into(),
            count: 4,
        };
        match mode {
            ExecMode::Fleet { count, .. } => assert_eq!(count, 4),
            other => panic!("unexpected {other:?}"),
        }
    }
}
