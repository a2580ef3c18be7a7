//! The workload-description subsystem, end to end: every bundled
//! workload must round-trip through the DSL, compile to the same graph
//! everywhere, and replay deterministically; random valid workloads
//! must survive parse → validate → compile unchanged; and — the reason
//! the families exist at all — each new family carries a release-gated
//! verdict on whether the paper's hybrid/pipelined wins hold or reverse
//! on *its* graph shape, not just METASPACE's. The crate's own
//! invariants follow at the end, one module per source module.
//!
//! Like `tests/properties.rs`, random cases come from seeded [`SimRng`]
//! draws (no crates.io access for `proptest`); failures print the case
//! seed, which reproduces the exact workload.

use serverful_repro::bench::render::{render_workload, workload_verdicts};
use serverful_repro::bench::workload_comparison;
use serverful_repro::metaspace::workloads;
use serverful_repro::serverful::{fan_in_range, FanIn};
use serverful_repro::simkernel::SimRng;
use serverful_repro::workload::{
    emit, parse, Stage, StageEdge, StageKind, Workload, MAX_CPU_SECS_PER_TASK,
    MAX_EXCHANGE_GB_PER_STAGE, MAX_READ_MB_PER_TASK, MAX_TASKS_PER_STAGE, MAX_WRITE_MB_PER_TASK,
    MIN_EXCHANGE_GB_PER_STAGE,
};

/// Every bundled workload — the METASPACE Table 2 jobs and the DSL
/// families — emits to canonical DSL text and parses back to the
/// *identical* value (float bits included: `{}` is shortest-round-trip
/// and `parse::<f64>` restores the same bits).
#[test]
fn every_bundled_workload_round_trips_through_the_dsl() {
    for name in workloads::all_names() {
        let w = workloads::named(&name).expect("bundled name resolves");
        let text = emit(&w);
        let back = parse(&text).unwrap_or_else(|e| panic!("{name}: re-parse failed: {e}"));
        assert_eq!(w, back, "{name}: DSL round trip changed the workload");
        assert_eq!(text, emit(&back), "{name}: emit is not canonical");
    }
}

/// A stage field out of the simulator's range is rejected when the text
/// is loaded, naming the stage and the field, instead of failing deep
/// in a run: a per-task `cpu_secs` past the clock's range would panic
/// with a virtual-time overflow, a huge `tasks` count would abort on
/// allocation, and a huge CPU time or data volume would keep the run
/// going for minutes or forever. So would an exchange below its floor,
/// which packs the stage's CPU budget into a few bytes: at `1e-12` GB a
/// compute time came out negative and the run panicked.
/// Every bundled workload stays within every bound.
#[test]
fn out_of_range_stage_fields_are_rejected_at_validation() {
    let text = emit(&workloads::named("terasort-small").expect("bundled name resolves"));
    for (stage, field, value) in [
        ("gen", "cpu_secs", "1e308"),
        ("validate", "cpu_secs", "1e6"),
        ("gen", "tasks", "1000000000000"),
        ("validate", "read_mb", "1e308"),
        ("gen", "write_mb", "1e308"),
        ("sort", "exchange_gb", "1e308"),
        ("sort", "exchange_gb", "1e-12"),
        ("sort", "exchange_gb", "1e-9"),
    ] {
        let edit = format!("{field}={value}");
        let edited: String = text
            .lines()
            .map(|line| {
                if !line.starts_with(&format!("stage {stage} ")) {
                    return format!("{line}\n");
                }
                let fields: Vec<&str> = line
                    .split(' ')
                    .map(|f| if f.starts_with(&format!("{field}=")) { edit.as_str() } else { f })
                    .collect();
                format!("{}\n", fields.join(" "))
            })
            .collect();
        assert!(edited.contains(&edit), "the edit must land:\n{edited}");
        let err = parse(&edited)
            .expect_err("an out-of-range field must not validate")
            .to_string();
        assert!(
            err.contains(field) && err.contains(&format!("{stage:?}")),
            "{stage} {edit}: unhelpful error: {err}"
        );
    }

    for name in workloads::all_names() {
        let w = workloads::named(&name).expect("bundled name resolves");
        w.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        for s in &w.stages {
            let ctx = format!("{name} stage {}", s.name);
            assert!(s.cpu_secs_per_task <= MAX_CPU_SECS_PER_TASK, "{ctx}: CPU ceiling");
            assert!(s.tasks <= MAX_TASKS_PER_STAGE, "{ctx}: task-count ceiling");
            assert!(s.read_mb_per_task <= MAX_READ_MB_PER_TASK, "{ctx}: read ceiling");
            assert!(s.write_mb_per_task <= MAX_WRITE_MB_PER_TASK, "{ctx}: write ceiling");
            if let StageKind::Stateful { exchange_gb } = s.kind {
                assert!(
                    (MIN_EXCHANGE_GB_PER_STAGE..=MAX_EXCHANGE_GB_PER_STAGE).contains(&exchange_gb),
                    "{ctx}: exchange bounds"
                );
            }
        }
    }
}

/// Draws a random valid workload: 1–7 stages, random shapes, every
/// non-root stage wired to 1–2 random earlier stages through random
/// fan-in shapes (so roots, branches and joins all occur).
fn arb_workload(rng: &mut SimRng) -> Workload {
    let n = rng.uniform_u64(1, 8) as usize;
    let mut stages = Vec::new();
    let mut edges = Vec::new();
    for i in 0..n {
        let tasks = rng.uniform_u64(1, 40) as usize;
        let kind = if rng.uniform_u64(0, 3) == 0 {
            StageKind::Stateful {
                exchange_gb: 0.01 + rng.uniform_u64(0, 100) as f64 / 100.0,
            }
        } else {
            StageKind::Stateless {
                read_spread: rng.uniform_u64(1, 8) as usize,
                write_spread: rng.uniform_u64(1, 8) as usize,
            }
        };
        stages.push(Stage {
            name: format!("s{i}"),
            tasks,
            cpu_secs_per_task: rng.uniform_u64(1, 200) as f64 / 10.0,
            read_mb_per_task: rng.uniform_u64(0, 64) as f64,
            write_mb_per_task: rng.uniform_u64(0, 64) as f64,
            kind,
        });
        let mut deps: Vec<StageEdge> = Vec::new();
        if i > 0 {
            for _ in 0..rng.uniform_u64(1, 3) {
                let from = rng.uniform_u64(0, i as u64) as usize;
                if deps.iter().any(|e| e.from == from) {
                    continue;
                }
                deps.push(StageEdge {
                    from,
                    fan_in: if rng.uniform_u64(0, 2) == 0 {
                        FanIn::OneToOne
                    } else {
                        FanIn::AllToAll
                    },
                });
            }
        }
        edges.push(deps);
    }
    Workload {
        name: format!("rand{}", rng.uniform_u64(0, 1 << 20)),
        stages,
        edges,
    }
}

/// Property: random valid workloads validate, survive the DSL round
/// trip bit-for-bit, and keep scaling sane (no stage ever drops to zero
/// tasks, edges stay aligned).
#[test]
fn random_workloads_validate_round_trip_and_scale() {
    for case in 0..40u64 {
        let seed = 0x3014 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        let w = arb_workload(&mut rng);
        w.validate()
            .unwrap_or_else(|e| panic!("case seed {seed:#x}: generated workload invalid: {e}"));
        let back = parse(&emit(&w))
            .unwrap_or_else(|e| panic!("case seed {seed:#x}: round trip failed: {e}"));
        assert_eq!(w, back, "case seed {seed:#x}: round trip changed the workload");

        let tiny = w.scaled(0.0001);
        tiny.validate()
            .unwrap_or_else(|e| panic!("case seed {seed:#x}: tiny scale broke validity: {e}"));
        assert!(
            tiny.stages.iter().all(|s| s.tasks >= 1),
            "case seed {seed:#x}: tiny scale produced a zero-task stage"
        );
        assert_eq!(tiny.edges.len(), tiny.stages.len());
    }
}

/// Property: the fan-in ranges every edge of a random workload declares
/// are exactly the in-bounds ranges the DAG executor will wait on —
/// one-to-one partitions tile the upstream without gaps, all-to-all
/// covers it whole. `Workload::validate` checks no range per partition:
/// `serverful::fan_in_range` stays in bounds for any two non-empty
/// stages, which `tests/dag.rs` pins across widths, so this property
/// checks the graphs valid workloads compile to, not a validation rule.
#[test]
fn random_workload_edges_compile_to_in_bounds_fan_in_ranges() {
    for case in 0..25u64 {
        let seed = 0xFA91 ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        let w = arb_workload(&mut rng);
        for (to, deps) in w.edges.iter().enumerate() {
            let down = w.stages[to].tasks;
            for e in deps {
                assert!(e.from < to, "case seed {seed:#x}: edge breaks topological order");
                let up = w.stages[e.from].tasks;
                let mut covered = vec![false; up];
                for t in 0..down {
                    let r = fan_in_range(e.fan_in, up, down, t);
                    assert!(
                        r.end <= up && r.start <= r.end,
                        "case seed {seed:#x}: range {r:?} escapes upstream of {up}"
                    );
                    r.for_each(|u| covered[u] = true);
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "case seed {seed:#x}: fan-in leaves upstream partitions unawaited"
                );
            }
        }
    }
}

/// The `repro workload` comparison replays byte-identically from one
/// seed and actually moves when the seed changes, for a family whose
/// graph the METASPACE fallback would mis-wire.
#[test]
fn workload_comparison_is_seed_deterministic() {
    let w = workloads::named("montage").expect("bundled family");
    let a = render_workload(&workload_comparison(&w, 42, true).expect("smoke run"));
    let b = render_workload(&workload_comparison(&w, 42, true).expect("smoke run"));
    assert_eq!(a, b, "same seed must reproduce the comparison byte-for-byte");
    let c = render_workload(&workload_comparison(&w, 7, true).expect("smoke run"));
    assert_ne!(a, c, "a different seed should perturb the measured run");
}

/// Release gate, ML pipeline: a long training tail (few tasks, heavy
/// CPU) leaves little for dependency-driven release to overlap, but the
/// paper's wins must still *hold* — pipelined no worse, hybrid cheaper
/// than serverless.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn verdict_mlpipe_wins_hold() {
    let w = workloads::named("mlpipe").expect("bundled family");
    let cmp = workload_comparison(&w, 42, false).expect("full-scale run");
    let v = workload_verdicts(&cmp);
    assert!(
        v.contains("pipelined beats barrier at equal-or-lower cost: yes"),
        "mlpipe pipelined verdict reversed:\n{v}"
    );
    assert!(
        v.contains("hybrid beats serverless on cost: yes"),
        "mlpipe hybrid verdict reversed:\n{v}"
    );
}

/// Release gate, Montage: the wide fan-out/fan-in montage graph is the
/// dependency-driven scheduler's best case — both wins must hold, and
/// the pipelined speedup must be visible (>2%).
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn verdict_montage_wins_hold() {
    let w = workloads::named("montage").expect("bundled family");
    let cmp = workload_comparison(&w, 42, false).expect("full-scale run");
    let v = workload_verdicts(&cmp);
    assert!(
        v.contains("pipelined beats barrier at equal-or-lower cost: yes"),
        "montage pipelined verdict reversed:\n{v}"
    );
    assert!(
        v.contains("hybrid beats serverless on cost: yes"),
        "montage hybrid verdict reversed:\n{v}"
    );
    assert!(
        cmp.hybrid_pipelined.wall_secs < cmp.hybrid_barrier.wall_secs * 0.98,
        "montage: expected a visible pipelined speedup, got {:.2}s vs {:.2}s",
        cmp.hybrid_pipelined.wall_secs,
        cmp.hybrid_barrier.wall_secs
    );
}

/// Release gate, terasort: the shuffle-dominated sort is where the
/// hybrid architecture earns its keep (the paper's §4.2 claim), at
/// every bundled scale — but the three-stage chain leaves pipelining
/// almost nothing to overlap, so *that* win is allowed to be a wash and
/// is recorded, not asserted.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn verdict_terasort_hybrid_wins_at_every_scale() {
    for name in ["terasort-small", "terasort-medium", "terasort-large"] {
        let w = workloads::named(name).expect("bundled family");
        let cmp = workload_comparison(&w, 42, false).expect("full-scale run");
        let v = workload_verdicts(&cmp);
        assert!(
            v.contains("hybrid beats serverless on cost: yes"),
            "{name} hybrid verdict reversed:\n{v}"
        );
        assert!(
            cmp.hybrid_pipelined.wall_secs <= cmp.hybrid_barrier.wall_secs * 1.02,
            "{name}: pipelined should never lose noticeably on a chain, got {:.2}s vs {:.2}s",
            cmp.hybrid_pipelined.wall_secs,
            cmp.hybrid_barrier.wall_secs
        );
    }
}

/// The workload builder, `Workload::validate`'s rejections and the
/// scaling floors.
mod spec {
    use serverful_repro::serverful::FanIn;
    use serverful_repro::workload::{Stage, StageEdge, StageKind, Workload};

    fn stateless(name: &str, tasks: usize) -> Stage {
        Stage {
            name: name.into(),
            tasks,
            cpu_secs_per_task: 1.0,
            read_mb_per_task: 1.0,
            write_mb_per_task: 1.0,
            kind: StageKind::Stateless { read_spread: 2, write_spread: 2 },
        }
    }

    fn chain(n: usize) -> Workload {
        let w = Workload {
            name: "chain".into(),
            stages: (0..n).map(|i| stateless(&format!("s{i}"), 4)).collect(),
            edges: (0..n)
                .map(|i| {
                    if i == 0 {
                        vec![]
                    } else {
                        vec![StageEdge::one_to_one(i - 1)]
                    }
                })
                .collect(),
        };
        w.validate().expect("chain is valid");
        w
    }

    #[test]
    fn builder_resolves_names_and_validates() {
        let w = Workload::builder("toy")
            .stage(stateless("a", 4), &[])
            .stage(stateless("b", 4), &[("a", FanIn::OneToOne)])
            .stage(stateless("c", 2), &[("b", FanIn::AllToAll)])
            .build()
            .unwrap();
        assert_eq!(w.edges[1], vec![StageEdge::one_to_one(0)]);
        assert_eq!(w.edge_pairs(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn unknown_dependency_is_an_error() {
        let e = Workload::builder("w")
            .stage(stateless("a", 1), &[("ghost", FanIn::AllToAll)])
            .build()
            .unwrap_err();
        assert!(e.0.contains("ghost"), "{e}");
    }

    #[test]
    fn forward_edges_are_rejected() {
        let mut w = chain(2);
        w.edges[0] = vec![StageEdge::all_to_all(1)];
        w.edges[1] = vec![];
        assert!(w.validate().unwrap_err().0.contains("not topological"));
    }

    #[test]
    fn zero_task_stages_are_rejected() {
        let mut w = chain(2);
        w.stages[1].tasks = 0;
        assert!(w.validate().unwrap_err().0.contains("zero tasks"));
    }

    #[test]
    fn non_positive_exchange_is_rejected() {
        let mut w = chain(2);
        w.stages[1].kind = StageKind::Stateful { exchange_gb: 0.0 };
        assert!(w.validate().unwrap_err().0.contains("exchange_gb"));
    }

    #[test]
    fn duplicate_stage_names_are_rejected() {
        let mut w = chain(2);
        w.stages[1].name = "s0".into();
        assert!(w.validate().unwrap_err().0.contains("duplicate stage name"));
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let mut w = chain(2);
        w.edges[1] = vec![StageEdge::one_to_one(0), StageEdge::all_to_all(0)];
        assert!(w.validate().unwrap_err().0.contains("duplicate edges"));
    }

    #[test]
    fn tiny_scales_never_drop_to_zero_tasks() {
        // A small stage at a tiny scale rounds to zero tasks; the scaler
        // keeps two so the stage still runs in parallel (and a zero-task
        // stage could never be released).
        let mut w = chain(3);
        w.stages[0].tasks = 1;
        w.stages[1].kind = StageKind::Stateful { exchange_gb: 1.0 };
        let s = w.scaled(0.001);
        assert!(s.stages.iter().all(|s| s.tasks == 2), "{s:?}");
        s.validate().expect("scaled workload stays valid");
        match s.stages[1].kind {
            StageKind::Stateful { exchange_gb } => assert_eq!(exchange_gb, 0.005),
            _ => unreachable!(),
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        chain(2).scaled(0.0);
    }
}

/// The workload DSL: canonical round trips, comments, float bits and
/// parse errors.
mod dsl {
    use serverful_repro::workload::{emit, parse, DslError};

    const CANONICAL: &str = "\
workload terasort-toy
stage gen tasks=4 cpu_secs=1.5 read_mb=0 write_mb=512 stateless read_spread=16 write_spread=16
stage sort tasks=4 cpu_secs=10.24 read_mb=0 write_mb=0 stateful exchange_gb=5
stage validate tasks=4 cpu_secs=1 read_mb=512 write_mb=1 stateless read_spread=16 write_spread=16
edge sort <- gen all-to-all
edge validate <- sort one-to-one
";

    #[test]
    fn canonical_text_round_trips_exactly() {
        let w = parse(CANONICAL).unwrap();
        assert_eq!(emit(&w), CANONICAL);
        assert_eq!(parse(&emit(&w)).unwrap(), w);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let noisy = format!("# a comment\n\n{CANONICAL}\n# trailing note\n");
        assert_eq!(parse(&noisy).unwrap(), parse(CANONICAL).unwrap());
        let inline = CANONICAL.replace("workload terasort-toy", "workload terasort-toy # the name");
        assert_eq!(parse(&inline).unwrap(), parse(CANONICAL).unwrap());
    }

    #[test]
    fn float_precision_survives_the_round_trip() {
        // A value with no short decimal representation must re-parse to
        // the identical bits (Rust Display is shortest-round-trip).
        let mut w = parse(CANONICAL).unwrap();
        w.stages[0].cpu_secs_per_task = 0.1 + 0.2; // 0.30000000000000004
        let back = parse(&emit(&w)).unwrap();
        assert_eq!(
            back.stages[0].cpu_secs_per_task.to_bits(),
            w.stages[0].cpu_secs_per_task.to_bits()
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = CANONICAL.replace("edge sort <- gen all-to-all", "edge sort <- gen sideways");
        match parse(&bad).unwrap_err() {
            DslError::Parse { line, message } => {
                assert_eq!(line, 5);
                assert!(message.contains("sideways"), "{message}");
            }
            e => panic!("expected parse error, got {e}"),
        }
    }

    #[test]
    fn unknown_stage_reference_is_an_error() {
        let bad = CANONICAL.replace("edge sort <- gen", "edge sort <- ghost");
        assert!(matches!(parse(&bad).unwrap_err(), DslError::Parse { .. }));
    }

    #[test]
    fn missing_header_is_an_error() {
        let e = parse("stage a tasks=1 cpu_secs=1 read_mb=0 write_mb=0 stateful exchange_gb=1\n")
            .unwrap_err();
        assert!(matches!(e, DslError::Parse { .. }), "{e}");
    }

    #[test]
    fn forward_edge_fails_validation() {
        // `validate` is declared after `sort`, so an edge sort <- validate
        // parses but is rejected as non-topological.
        let bad = CANONICAL.replace("edge validate <- sort", "edge sort <- validate");
        assert!(matches!(parse(&bad).unwrap_err(), DslError::Invalid(_)));
    }
}

/// The bundled workload families' shapes.
mod families {
    use serverful_repro::workload::families::{
        metaspace, ml_pipeline, montage, terasort, MetaspaceParams,
    };
    use serverful_repro::workload::{emit, parse, StageEdge, StageKind};

    fn brain_params() -> MetaspaceParams {
        // The Table 2 Brain row as metaspace::jobs computes it.
        MetaspaceParams {
            name: "Brain".into(),
            dataset_gb: 0.05,
            db_formulas_k: 12.0,
            max_volume_gb: 37.45,
            annotate_cpu_secs: 3.5,
            dataset_sort_gb: 0.7,
            db_sort_gb: 12.0 * 0.045,
        }
    }

    #[test]
    fn metaspace_family_has_the_canonical_shape() {
        let w = metaspace(&brain_params());
        w.validate().unwrap();
        assert_eq!(w.stages.len(), 9);
        assert_eq!(w.stages[3].name, "db-segment");
        assert_eq!(w.stages[3].tasks, 32);
        // Two roots (dataset + database branches), annotate joins both.
        let roots: Vec<usize> = w
            .edges
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots, vec![0, 2]);
        assert_eq!(w.edges[5].len(), 2);
        // Shuffles are all-to-all; map chains are one-to-one.
        assert_eq!(w.edges[4], vec![StageEdge::all_to_all(1)], "ds-segment");
        assert_eq!(w.edges[6], vec![StageEdge::one_to_one(5)], "metrics");
    }

    #[test]
    fn every_family_validates_and_round_trips() {
        let brain = brain_params();
        for w in [
            metaspace(&brain),
            ml_pipeline(),
            montage(),
            terasort("terasort-small", 5.0),
            terasort("terasort-large", 50.0),
        ] {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let back = parse(&emit(&w))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(back, w, "{} drifts through the DSL", w.name);
        }
    }

    #[test]
    fn ml_pipeline_is_training_dominated() {
        let w = ml_pipeline();
        let train = w.stages.iter().find(|s| s.name == "train").unwrap();
        assert!(train.total_cpu_secs() > 0.5 * w.total_cpu_secs());
    }

    #[test]
    fn montage_fans_wide_then_narrow() {
        let w = montage();
        let tasks: Vec<usize> = w.stages.iter().map(|s| s.tasks).collect();
        let max = *tasks.iter().max().unwrap();
        let min = *tasks.iter().min().unwrap();
        assert!(max / min >= 30, "fan ratio {max}/{min}");
        // The diamond: background depends on both project and bg-model.
        assert_eq!(w.edges[3].len(), 2);
    }

    #[test]
    fn terasort_scales_keep_the_exchange_dominant() {
        for gb in [5.0, 20.0, 50.0] {
            let w = terasort("t", gb);
            let sort = &w.stages[1];
            match sort.kind {
                StageKind::Stateful { exchange_gb } => assert_eq!(exchange_gb, gb),
                _ => panic!("sort must be stateful"),
            }
            assert!(sort.total_cpu_secs() > 0.5 * w.total_cpu_secs(), "{gb}");
        }
    }
}

/// The catalog of bundled family instances, by name.
mod catalog {
    use serverful_repro::workload::catalog::{named, names};

    #[test]
    fn every_name_resolves_to_a_valid_workload_of_that_name() {
        for n in names() {
            let w = named(n).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(&w.name, n);
            w.validate().unwrap_or_else(|e| panic!("{n}: {e}"));
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(named("Montage").is_some());
        assert!(named("TERASORT-SMALL").is_some());
        assert!(named("nope").is_none());
    }
}
