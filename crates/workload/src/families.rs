//! Bundled workload families.
//!
//! Each family is a deterministic constructor from a few physical
//! parameters to a full [`Workload`]: the paper's METASPACE annotation
//! pipeline ([`metaspace`]), an ML data-prep + training pipeline
//! ([`ml_pipeline`], after the serverless+HPC ML-pipeline line of
//! work), a Montage-like mosaic workflow with wide fan-out/fan-in
//! ([`montage`], after Malawski's scientific-workflow studies), and a
//! shuffle-heavy terasort family ([`terasort`], the paper's §4.2 sort
//! scaled to several volumes).
//!
//! The families deliberately stress different corners of the
//! serverful-vs-serverless tradeoff: METASPACE mixes both; the ML
//! pipeline is training-dominated (few long tasks, small exchanges);
//! Montage is wide and stateless (fan-out 6 → 180, fan-in 180 → 4);
//! terasort is exchange-dominated at every scale.

use serverful::FanIn::{AllToAll, OneToOne};

use crate::spec::{Stage, StageKind, Workload};

fn clamp(x: f64, lo: usize, hi: usize) -> usize {
    (x.round() as usize).clamp(lo, hi)
}

fn stateless(
    name: &str,
    tasks: usize,
    cpu_secs_per_task: f64,
    read_mb_per_task: f64,
    write_mb_per_task: f64,
    read_spread: usize,
    write_spread: usize,
) -> Stage {
    Stage {
        name: name.into(),
        tasks,
        cpu_secs_per_task,
        read_mb_per_task,
        write_mb_per_task,
        kind: StageKind::Stateless { read_spread, write_spread },
    }
}

fn stateful(name: &str, tasks: usize, cpu_secs_per_task: f64, exchange_gb: f64) -> Stage {
    Stage {
        name: name.into(),
        tasks,
        cpu_secs_per_task,
        // The exchange's own chunks are the input/output.
        read_mb_per_task: 0.0,
        write_mb_per_task: 0.0,
        kind: StageKind::Stateful { exchange_gb },
    }
}

/// Physical parameters of a METASPACE annotation job (the Table 2
/// columns plus the profile-derived sort volumes the caller computes
/// from them — see `metaspace::pipeline`).
#[derive(Debug, Clone, PartialEq)]
pub struct MetaspaceParams {
    /// Workload name (e.g. the dataset name).
    pub name: String,
    /// Dataset size, GB.
    pub dataset_gb: f64,
    /// Database formulas, thousands.
    pub db_formulas_k: f64,
    /// Peak intermediate volume, GB.
    pub max_volume_gb: f64,
    /// CPU-seconds per annotate task.
    pub annotate_cpu_secs: f64,
    /// Dataset segmentation sort volume, GB.
    pub dataset_sort_gb: f64,
    /// Database segmentation sort volume, GB.
    pub db_sort_gb: f64,
}

/// The canonical 9-stage METASPACE annotation workload: the dataset
/// branch (`load-dataset` → `parse-spectra` → `ds-segment`) and the
/// database branch (`formula-gen` → `db-segment`) proceed independently
/// until `annotate` joins them — partition-wise against the dataset
/// segments, all-to-all against the (replicated) database segments —
/// and the scoring tail (`metrics` → `fdr`) chains partition-wise into
/// the final `collect` shuffle.
pub fn metaspace(p: &MetaspaceParams) -> Workload {
    let ds = p.dataset_gb;
    let db_k = p.db_formulas_k;
    let vol = p.max_volume_gb;

    let load_tasks = clamp(ds * 32.0, 8, 96);
    let formula_tasks = clamp(db_k * 3.2, 32, 300);
    let annotate_tasks = clamp(vol * 8.5, 64, 4000);
    let fdr_tasks = clamp(annotate_tasks as f64 / 4.0, 32, 1000);
    let ds_sort = p.dataset_sort_gb;
    let db_sort = p.db_sort_gb;
    // The serverless sort scales out with partition count, but under a
    // saturated prefix extra functions only add idle cost — the paper's
    // hindrance.
    let ds_sort_tasks = clamp(ds_sort * 5.0, 32, 100);

    Workload::builder(&p.name)
        .stage(
            stateless(
                "load-dataset",
                load_tasks,
                2.0 + ds * 1024.0 / load_tasks as f64 * 0.01,
                ds * 1024.0 / load_tasks as f64,
                ds * 1024.0 / load_tasks as f64,
                8,
                8,
            ),
            &[],
        )
        .stage(
            stateless(
                "parse-spectra",
                load_tasks,
                1.5 + ds * 1024.0 / load_tasks as f64 * 0.008,
                ds * 1024.0 / load_tasks as f64,
                ds * 1024.0 / load_tasks as f64 * 1.3,
                8,
                8,
            ),
            &[("load-dataset", OneToOne)],
        )
        .stage(stateless("formula-gen", formula_tasks, 8.0, 1.0, 4.0, 16, 16), &[])
        .stage(
            stateful("db-segment", 32, db_sort * 1024.0 / 32.0 * 0.05, db_sort),
            &[("formula-gen", AllToAll)],
        )
        .stage(
            stateful(
                "ds-segment",
                ds_sort_tasks,
                ds_sort * 1024.0 / ds_sort_tasks as f64 * 0.05,
                ds_sort,
            ),
            &[("parse-spectra", AllToAll)],
        )
        .stage(
            stateless(
                "annotate",
                annotate_tasks,
                p.annotate_cpu_secs,
                vol * 1024.0 / annotate_tasks as f64,
                8.0,
                64,
                32,
            ),
            &[("ds-segment", OneToOne), ("db-segment", AllToAll)],
        )
        .stage(
            stateless(
                "metrics",
                clamp(annotate_tasks as f64 / 2.0, 64, 2000),
                p.annotate_cpu_secs * 0.25,
                20.0,
                6.0,
                32,
                32,
            ),
            &[("annotate", OneToOne)],
        )
        .stage(
            stateless(
                "fdr",
                fdr_tasks,
                (p.annotate_cpu_secs / 6.0).max(1.0),
                20.0,
                4.0,
                32,
                32,
            ),
            &[("metrics", OneToOne)],
        )
        .stage(stateful("collect", 16, 0.5, 0.4), &[("fdr", AllToAll)])
        .build()
        .expect("the METASPACE family is valid by construction")
}

/// An ML data-prep + training pipeline: a map-chained preparation
/// front (`ingest` → `clean` → `featurize`), one example shuffle, then
/// a training stage of few long data-parallel tasks that dominates the
/// critical path, evaluation, and a small model-publish collect.
///
/// The interesting property is the *inverse* of METASPACE: almost all
/// CPU sits in 8 training tasks, so task-level pipelining has little
/// left to overlap and the serverful backend's exchange advantage only
/// touches a modest shuffle.
pub fn ml_pipeline() -> Workload {
    Workload::builder("mlpipe")
        .stage(stateless("ingest", 48, 3.0, 96.0, 96.0, 8, 8), &[])
        .stage(
            stateless("clean", 48, 2.5, 96.0, 64.0, 8, 8),
            &[("ingest", OneToOne)],
        )
        .stage(
            stateless("featurize", 96, 6.0, 32.0, 24.0, 16, 16),
            &[("clean", OneToOne)],
        )
        .stage(
            stateful("shuffle-examples", 32, 12.0 * 1024.0 / 32.0 * 0.05, 12.0),
            &[("featurize", AllToAll)],
        )
        .stage(
            stateless("train", 8, 240.0, 1536.0, 16.0, 8, 8),
            &[("shuffle-examples", AllToAll)],
        )
        .stage(
            stateless("evaluate", 24, 8.0, 64.0, 4.0, 8, 8),
            &[("train", AllToAll)],
        )
        .stage(
            stateful("publish-model", 4, 0.5, 0.2),
            &[("evaluate", AllToAll)],
        )
        .build()
        .expect("the ML pipeline family is valid by construction")
}

/// A Montage-like mosaic workflow: a narrow fetch fans out to a wide
/// stateless projection (6 → 180 tasks), a narrow background model
/// fans the projections back in (180 → 4), a diamond join corrects
/// every projection against the model, and a single co-add exchange
/// assembles the mosaic.
///
/// The interesting property is width without exchanges: only one small
/// stateful stage, but wide one-to-one chains and a fan-in/fan-out
/// diamond that dataflow pipelining can overlap aggressively.
pub fn montage() -> Workload {
    Workload::builder("montage")
        .stage(stateless("fetch-tiles", 6, 1.0, 512.0, 512.0, 4, 4), &[])
        .stage(
            stateless("project", 180, 9.0, 18.0, 20.0, 32, 32),
            &[("fetch-tiles", AllToAll)],
        )
        .stage(
            stateless("bg-model", 4, 30.0, 64.0, 2.0, 4, 4),
            &[("project", AllToAll)],
        )
        .stage(
            stateless("background", 180, 4.0, 20.0, 20.0, 32, 32),
            &[("project", OneToOne), ("bg-model", AllToAll)],
        )
        .stage(
            stateful("coadd", 24, 8.0 * 1024.0 / 24.0 * 0.05, 8.0),
            &[("background", AllToAll)],
        )
        .stage(
            stateless("shrink-publish", 8, 2.0, 48.0, 12.0, 8, 8),
            &[("coadd", AllToAll)],
        )
        .build()
        .expect("the Montage family is valid by construction")
}

/// A terasort at `sort_gb` GB: generate, one dominant all-to-all sort
/// exchange, validate partition-wise. `name` distinguishes the scales
/// (e.g. `terasort-small`).
///
/// The interesting property is exchange dominance: the sort *is* the
/// job, so the serverful in-memory exchange advantage (the paper's
/// §4.2) should grow with volume while pipelining finds almost nothing
/// to overlap in the linear chain.
pub fn terasort(name: &str, sort_gb: f64) -> Workload {
    let gen_tasks = clamp(sort_gb * 2.0, 8, 128);
    let sort_tasks = clamp(sort_gb * 5.0, 16, 100);
    Workload::builder(name)
        .stage(
            stateless(
                "gen",
                gen_tasks,
                1.5,
                0.0,
                sort_gb * 1024.0 / gen_tasks as f64,
                16,
                16,
            ),
            &[],
        )
        .stage(
            stateful(
                "sort",
                sort_tasks,
                sort_gb * 1024.0 / sort_tasks as f64 * 0.05,
                sort_gb,
            ),
            &[("gen", AllToAll)],
        )
        .stage(
            stateless(
                "validate",
                gen_tasks,
                1.0,
                sort_gb * 1024.0 / gen_tasks as f64,
                1.0,
                16,
                16,
            ),
            &[("sort", OneToOne)],
        )
        .build()
        .expect("the terasort family is valid by construction")
}
