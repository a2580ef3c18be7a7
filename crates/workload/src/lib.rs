//! Declarative stage-DAG workload descriptions.
//!
//! The executors, planner and fleet simulator are workload-generic —
//! they consume a list of [`Stage`]s plus dependency [`StageEdge`]s and
//! schedule the resulting task DAG on any backend. This crate owns the
//! *description* side of that contract:
//!
//! - [`Workload`]: a named stage graph — stages with task counts,
//!   CPU-seconds, bytes in/out and data-movement kind, plus one edge
//!   list per stage ([`serverful::FanIn::OneToOne`] map chains,
//!   [`serverful::FanIn::AllToAll`] shuffles, multiple roots, joins).
//! - Validation ([`Workload::validate`]), in O(stages + edges):
//!   acyclicity (edges must point at earlier stages) and resource
//!   sanity (no zero-task stages, finite non-negative volumes, positive
//!   exchanges); fan-in ranges then stay in bounds by construction.
//! - Deterministic scaling ([`Workload::scaled`]): task counts and
//!   exchange volumes multiplied down with fixed floors (two tasks,
//!   0.005 GB), so smoke tests and fleet tenants run the same *shape*
//!   at tractable volume.
//! - A line-oriented text DSL ([`dsl::parse`] / [`dsl::emit`]) whose
//!   canonical form round-trips exactly, plus a [`WorkloadBuilder`] for
//!   programmatic construction.
//! - Bundled families ([`families`], [`catalog`]): the paper's
//!   METASPACE annotation pipeline expressed as a workload description,
//!   an ML data-prep + training pipeline, a Montage-like wide
//!   fan-out/fan-in mosaic workflow, and a shuffle-heavy terasort
//!   family at three scales.
//!
//! Downstream, `metaspace::runner` compiles any valid workload to the
//! executors' stage DAG (`run_workload`), the planner searches
//! deployment plans over it, and the fleet simulator replays it under
//! multi-tenant traffic.

#![warn(missing_docs)]

pub mod catalog;
pub mod dsl;
pub mod families;
mod spec;

pub use dsl::{emit, parse, DslError};
pub use spec::{
    Stage, StageEdge, StageKind, ValidateError, Workload, WorkloadBuilder, MAX_CPU_SECS_PER_TASK,
    MAX_EXCHANGE_GB_PER_STAGE, MAX_READ_MB_PER_TASK, MAX_TASKS_PER_STAGE, MAX_WRITE_MB_PER_TASK,
    MIN_EXCHANGE_GB_PER_STAGE,
};
