//! The annotation pipeline's stage graph.
//!
//! Figure 2 of the paper shows the Xenograft annotation as a sequence of
//! stages whose parallelism swings from tens (stateful sorts, red bars)
//! to thousands (the Cartesian comparison, grey bars). [`job_workload`]
//! builds that graph for any Table 2 job as a [`Workload`]: nine stages
//! plus their dataflow edges, from the
//! [`workload::families::metaspace`] family.
//!
//! 1. `load-dataset` — parse/chunk the imzML input (stateless).
//! 2. `parse-spectra` — parse the spectra, partition-wise after
//!    `load-dataset` (stateless).
//! 3. `formula-gen` — generate database formulas ("a maximum of a few
//!    hundred parallel tasks", stateless); the second root.
//! 4. `db-segment` — sort & segment the database (**stateful**, the
//!    paper's "32 tasks in database partitioning").
//! 5. `ds-segment` — sort & partition the dataset (**stateful**, the
//!    dominant all-to-all; for Xenograft this is the §4.2 sort
//!    experiment's ~25 GB / 64 GB-of-memory operation).
//! 6. `annotate` — compare dataset segments against database segments
//!    (Cartesian, massively parallel): partition-wise after
//!    `ds-segment`, all-to-all after `db-segment`.
//! 7. `metrics` and 8. `fdr` — image metrics and decoy scoring,
//!    partition-wise (stateless).
//! 9. `collect` — group and publish results (**stateful**, small).
//!
//! That workload is the one description of the graph: the runner, the
//! planner and the fleet all take it (or [`Workload::scaled`] replicas
//! of it) whole, edges included.
//!
//! Task counts and volumes derive from the Table 2 columns; CPU
//! densities are profile parameters standing in for the real datasets
//! (see [`jobs`](crate::jobs)).

use crate::jobs::JobSpec;

// The stage description types live in the `workload` crate now (the
// general stage-DAG workload layer); re-exported here so the rest of
// the workspace keeps addressing them as `metaspace::pipeline::Stage`
// and friends.
pub use workload::{Stage, StageEdge, StageKind, Workload};

/// The sort volume of the dataset segmentation stage, GB. (The paper's
/// §4.2 sort experiment processes a larger standalone volume — ~25 GB
/// under 64 GB of memory — than the in-pipeline segmentation, whose
/// stateful window Table 3 shows at ~40 % of the run.)
pub fn dataset_sort_gb(job: &JobSpec) -> f64 {
    match job.name {
        "Brain" => 0.7,
        "Xenograft" => 20.0,
        "X089" => 30.0,
        _ => job.dataset_gb * 10.0,
    }
}

/// The database segmentation volume, GB (formula envelopes + metadata).
pub fn db_sort_gb(job: &JobSpec) -> f64 {
    job.db_formulas as f64 / 1000.0 * 0.045
}

/// The job's annotation pipeline as a full workload description (the
/// canonical 9-stage graph with its dataflow edges), expressed through
/// the [`workload::families::metaspace`] family.
pub fn job_workload(job: &JobSpec) -> Workload {
    workload::families::metaspace(&workload::families::MetaspaceParams {
        name: job.name.to_owned(),
        dataset_gb: job.dataset_gb,
        db_formulas_k: job.db_formulas as f64 / 1000.0,
        max_volume_gb: job.max_volume_gb,
        annotate_cpu_secs: job.annotate_cpu_secs,
        dataset_sort_gb: dataset_sort_gb(job),
        db_sort_gb: db_sort_gb(job),
    })
}

/// Builds the stage graph for a job: the stages of [`job_workload`].
pub fn stages(job: &JobSpec) -> Vec<Stage> {
    job_workload(job).stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs;

    #[test]
    fn xenograft_shape_matches_figure2() {
        let stages = stages(&jobs::xenograft());
        assert_eq!(stages.len(), 9);
        // Stateful stages: db-segment, ds-segment, collect.
        let stateful: Vec<&str> = stages
            .iter()
            .filter(|s| s.is_stateful())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(stateful, vec!["db-segment", "ds-segment", "collect"]);
        // db partitioning runs 32 tasks, as the paper says.
        assert_eq!(stages.iter().find(|s| s.name == "db-segment").unwrap().tasks, 32);
        // The comparison stage reaches a few thousand parallel tasks.
        let annotate = stages.iter().find(|s| s.name == "annotate").unwrap();
        assert!((1500..=4000).contains(&annotate.tasks), "{}", annotate.tasks);
    }

    #[test]
    fn elasticity_spans_orders_of_magnitude() {
        // "parallelism of a workload ranges from modestly parallel stages
        // to massive concurrency".
        let stages = stages(&jobs::xenograft());
        let min = stages.iter().map(|s| s.tasks).min().unwrap();
        let max = stages.iter().map(|s| s.tasks).max().unwrap();
        assert!(max / min >= 50, "min {min} max {max}");
    }

    #[test]
    fn xenograft_dataset_sort_matches_section_4_2() {
        // 25 GB at the 2.5x memory factor fills the 64 GB the paper
        // provisions in the sort experiment.
        let v = dataset_sort_gb(&jobs::xenograft());
        assert!((10.0..26.0).contains(&v));
    }

    #[test]
    fn bigger_jobs_have_bigger_annotate_stages() {
        let brain = stages(&jobs::brain());
        let xeno = stages(&jobs::xenograft());
        let a = |s: &[Stage]| s.iter().find(|s| s.name == "annotate").unwrap().tasks;
        assert!(a(&xeno) > 4 * a(&brain));
    }

    #[test]
    fn scaled_jobs_keep_shape_and_edges_at_lower_volume() {
        let full = job_workload(&jobs::xenograft());
        let scaled = full.scaled(0.05);
        scaled.validate().expect("scaled workloads stay valid");
        assert_eq!(scaled.edges, full.edges);
        assert_eq!(full.stages.len(), scaled.stages.len());
        for (f, s) in full.stages.iter().zip(&scaled.stages) {
            assert_eq!(f.name, s.name);
            assert!(s.tasks >= 2);
            assert!(s.tasks <= f.tasks);
            assert_eq!(f.is_stateful(), s.is_stateful());
        }
        let tasks = |w: &Workload| w.stages.iter().map(|s| s.tasks).sum::<usize>();
        assert!(tasks(&scaled) * 10 < tasks(&full));
    }

    #[test]
    fn job_workloads_validate_and_round_trip() {
        // Every run validates its workload first, and the description
        // must survive a text round trip unchanged.
        for job in jobs::all() {
            let w = job_workload(&job);
            w.validate().expect("job workloads validate");
            let back = workload::parse(&workload::emit(&w)).expect("round-trip parses");
            assert_eq!(back, w, "{} drifts through the DSL", job.name);
        }
    }

    #[test]
    fn annotate_volume_covers_table2_max_volume() {
        for job in jobs::all() {
            let st = stages(&job);
            let annotate = st.iter().find(|s| s.name == "annotate").unwrap();
            let total_read_gb = annotate.tasks as f64 * annotate.read_mb_per_task / 1024.0;
            assert!(
                (total_read_gb - job.max_volume_gb).abs() / job.max_volume_gb < 0.01,
                "{}: {total_read_gb} vs {}",
                job.name,
                job.max_volume_gb
            );
        }
    }
}
