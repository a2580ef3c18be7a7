//! The METASPACE-style metabolomics annotation workload.
//!
//! The paper validates its hybrid architecture on the METASPACE
//! metabolite-annotation pipeline: imaging-mass-spectrometry datasets are
//! compared against a database of molecular formulas to detect plausible
//! metabolites and their locations. This crate reproduces that workload
//! at two levels:
//!
//! * **Real algorithms on synthetic data** ([`data`], [`algo`]) — an IMS
//!   dataset generator (pixels × centroided spectra), a formula database
//!   generator with isotopic patterns, m/z sorting and segmentation,
//!   isotopic pattern matching, and FDR-controlled annotation with decoy
//!   formulas (the METASPACE method of Palmer et al.). Runnable at MB
//!   scale end-to-end; every step is tested for correctness.
//! * **Paper-scale pipeline profiles** ([`jobs`], [`pipeline`],
//!   [`runner`]) — the multi-stage pipeline of the paper's Figure 2 with
//!   the Table 2 job setups (Brain / Xenograft / X089), runnable on three
//!   architectures: pure cloud functions, the hybrid
//!   serverless/serverful deployment, and the fixed Spark-like cluster.
//!   These drive the reproduction of Tables 3–4 and Figures 2–4 & 6.
//!
//! Since the real METASPACE inputs (proprietary-scale IMS scans) are not
//! available here, stage shapes (task counts, data volumes, CPU
//! densities) are profile parameters derived from the paper's published
//! characterisation; see `jobs` and DESIGN.md for the mapping.

#![warn(missing_docs)]

pub mod algo;
pub mod data;
pub mod jobs;
pub mod pipeline;
pub mod plan;
pub mod runner;
pub mod workloads;

pub use jobs::JobSpec;
pub use pipeline::{Stage, StageEdge, StageKind, Workload};
pub use plan::{ClusterPlan, DeploymentPlan, FunctionsPlan, PlanKind, StageBackend};
pub use runner::{
    run_annotation, run_plan_graph, run_workload, run_workload_chaos, AnnotationReport,
    Architecture, ChaosReport, TraceOutput,
};
