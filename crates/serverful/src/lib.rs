//! The paper's contribution: a Lithops-style unified serverless
//! programming framework with **serverful backends**.
//!
//! A [`FunctionExecutor`] ports parallel function calls to a cloud
//! backend while keeping the developer agnostic about resource
//! management. The same `map` call runs on:
//!
//! * **cloud functions** ([`Backend::Faas`]) — one sandbox per logical
//!   function, monitored through object storage (the classic Lithops
//!   architecture); or
//! * **virtual machines** ([`Backend::Vm`]) — the paper's addition:
//!   the executor connects to a master that proactively provisions
//!   right-sized VMs, spawns one worker process per vCPU, distributes
//!   logical functions through a Redis-like KV store on the master, and
//!   automatically stops every instance when the job completes
//!   ("serverful execution performed in a serverless manner").
//!
//! Stages on different backends share data through [`CloudObjectRef`]s
//! over object storage, exactly as Listing 1 of the paper:
//!
//! ```
//! use serverful::{Backend, CloudEnv, ExecutorConfig, FunctionExecutor, Payload, ScriptTask};
//! use std::sync::Arc;
//!
//! let mut env = CloudEnv::new_default(7);
//! // Lambda execution.
//! let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
//! let job = exec.map(
//!     &mut env,
//!     Arc::new(|input: &Payload| {
//!         let x = input.as_u64().expect("u64 input");
//!         ScriptTask::new().compute(0.5).finish_value(Payload::U64(x * 2)).boxed()
//!     }),
//!     vec![Payload::U64(1), Payload::U64(2), Payload::U64(3)],
//! );
//! let doubled = exec.get_result(&mut env, job).expect("job succeeds");
//! assert_eq!(doubled, vec![Payload::U64(2), Payload::U64(4), Payload::U64(6)]);
//! ```
//!
//! The crate is backed by the [`cloudsim`] substrate; all latencies,
//! contention and billing come from its calibrated models. The
//! orchestration core lives in the [`env`](mod@env) module tree:
//! [`CloudEnv`] pumps world notifications, and its timed control loops
//! — the completion monitor, straggler speculation, retry backoffs and
//! checkpoint cadence — are world timers whose routes carry the
//! staleness key their handlers check, so the world's event queue is
//! the only clock. See `env/`'s submodule docs for the per-concern
//! breakdown. The DAG driver ([`run_dag`]) is a plain loop over
//! [`CloudEnv::pump`] that steps one [`DagRun`], scanning its nodes in
//! submission order.

#![warn(missing_docs)]

pub mod cloudobject;
pub mod config;
pub mod dag;
pub mod env;
pub mod error;
pub mod executor;
pub mod job;
pub mod payload;
pub mod recovery;
pub mod retry;
pub mod sizing;
pub mod storage;
pub mod task;

pub use cloudobject::CloudObjectRef;
pub use config::{ExecMode, ExecutorConfig, StandaloneConfig};
pub use dag::{
    fan_in_range, run_dag, Dag, DagNode, DagRun, DagStats, Edge, ExecutionMode, FanIn, NodeStats,
    Readiness,
};
pub use env::{CloudEnv, EnvEvent};
pub use error::ExecError;
pub use executor::{Backend, FunctionExecutor, JobHandle, MapOptions};
pub use payload::Payload;
pub use recovery::{RecoveryMode, RecoveryStats};
pub use retry::RetryPolicy;
pub use sizing::{BidPolicy, SizingPolicy};
pub use storage::Storage;
pub use task::{Action, ActionOutcome, ScriptTask, TaskLogic, TaskStep};
