//! A calibrated cloud-region model.
//!
//! `cloudsim` is the substrate the paper ran on, rebuilt as a
//! deterministic discrete-event simulation: an S3-like object storage
//! service whose throughput saturates under parallelism, a Lambda-like
//! FaaS control plane (cold starts, burst limits, memory→vCPU mapping,
//! GB-second billing), an EC2-like VM lifecycle (instance catalog, AMI
//! boot delays, per-second billing with a one-minute minimum), an
//! EMR-Serverless-like managed service, and a Redis-like KV store that
//! the serverful master runs for task distribution.
//!
//! All prices are the us-east-1 on-demand prices the paper quotes
//! (30 June 2024); see [`pricing`].
//!
//! The central type is [`World`]. Clients issue asynchronous operations
//! (`get_object`, `compute`, `vm_provision`, ...), receive [`OpId`]s, and
//! pump [`World::step`] to receive [`Notify`] completions in virtual-time
//! order. Everything above this crate — the Lithops-like framework, the
//! Spark-like baseline — is written against that interface.
//!
//! # Example
//!
//! ```
//! use cloudsim::{CloudConfig, Notify, ObjectBody, OpOutcome, World};
//!
//! let mut world = World::new(CloudConfig::default(), 42);
//! let client = world.client_host();
//! let op = world.put_object(client, "bucket", "hello", ObjectBody::opaque(1024));
//! let (t, notify) = world.step().expect("put completes");
//! match notify {
//!     Notify::Op { op: done, outcome: cloudsim::OpOutcome::PutOk } => assert_eq!(done, op),
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert!(t.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod emr;
pub mod faults;
pub mod host;
pub mod ids;
pub mod pricing;
pub mod provider;
pub mod store;
pub mod util;
pub mod world;

pub use config::{CloudConfig, FaasConfig, KvConfig, RegionQuotas, StorageConfig, VmConfig};
pub use emr::EmrJobId;
pub use faults::{FaultConfig, FaultKind};
pub use host::HostId;
pub use ids::{KvId, OpId, SandboxId, VmId};
pub use pricing::{
    catalog, instance_type, instances_within_mem, largest_instance_within_mem,
    smallest_instance_with_mem, InstanceType, LambdaTariff, S3Tariff,
};
pub use provider::{
    default_region, providers, region, region_keys, region_of, regions, Provider, RegionProfile,
    SpotMarket,
};
pub use store::{ObjectBody, ObjectStore};
pub use world::{Notify, OpOutcome, StorageRequest, Tenancy, World};
