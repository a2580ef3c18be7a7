//! Deterministic discrete-event simulation kernel.
//!
//! `simkernel` provides the building blocks every other crate in this
//! workspace rests on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time
//!   newtypes ([`time`]).
//! * [`EventQueue`] — a cancellable, deterministic event queue ([`engine`]).
//!   The cloud world's clock runs on one; it is the workspace's only
//!   scheduler.
//! * [`FairShare`] — a max-min fair bandwidth-sharing pool used to model
//!   contended links such as object-storage aggregate throughput and VM
//!   NICs ([`fair_share`]).
//! * [`IdMap`] / [`IdSet`] — hash maps and sets keyed by program-issued
//!   integer ids, with a fast unkeyed hasher ([`idmap`]).
//! * [`SlotPool`] — a FIFO vCPU slot pool used to model compute capacity
//!   ([`slots`]).
//! * [`StepSeries`] — a step-function time series used to record
//!   utilisation traces ([`series`]).
//! * [`SimRng`] — seeded random numbers plus the handful of distributions
//!   the cloud model needs ([`rng`]).
//!
//! # Example
//!
//! ```
//! use simkernel::{EventQueue, SimDuration};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule_in(SimDuration::from_secs_f64(2.0), "second");
//! queue.schedule_in(SimDuration::from_secs_f64(1.0), "first");
//! let (t1, ev1) = queue.next().expect("event");
//! assert_eq!(ev1, "first");
//! assert_eq!(t1.as_secs_f64(), 1.0);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod fair_share;
pub mod idmap;
pub mod rng;
pub mod series;
pub mod slots;
pub mod time;

pub use engine::{EventQueue, EventToken, SchedStats};
pub use fair_share::{FairShare, FlowId};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use rng::SimRng;
pub use series::StepSeries;
pub use slots::SlotPool;
pub use time::{SimDuration, SimTime};
