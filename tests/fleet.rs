//! Fleet-level integration tests: determinism of the multi-tenant
//! traffic simulator and its headline economics claim, then the fleet
//! crate's own invariants: arrival schedules, scenario presets, region
//! admission, shared-pool leases and what-if plan checks.

use serverful_repro::cloudsim::{CloudConfig, RegionQuotas, World};
use serverful_repro::fleet::arrivals::MAX_DURATION_SECS;
use serverful_repro::fleet::whatif::plan_under_load;
use serverful_repro::fleet::{
    report, run_policy, run_scenario, schedule, Admission, Policy, PoolConfig, RegionOutage,
    Scenario, SharedPool, TenantSpec,
};
use serverful_repro::metaspace::plan::{ClusterPlan, DeploymentPlan, PlanKind};
use serverful_repro::serverful::{CloudEnv, ExecError};
use serverful_repro::simkernel::SimTime;
use serverful_repro::{cloudsim, metaspace, serverful};

/// Same seed, same scenario, any thread count, run twice: the rendered
/// report must be byte-identical. This is the library-level twin of the
/// `repro fleet` determinism gate in CI.
#[test]
fn smoke_report_is_byte_identical_across_threads_and_runs() {
    let sc = Scenario::smoke();
    let one = run_scenario(&sc, 42, 1).expect("smoke completes");
    let two = run_scenario(&sc, 42, 2).expect("smoke completes");
    let eight = run_scenario(&sc, 42, 8).expect("smoke completes");
    let again = run_scenario(&sc, 42, 1).expect("smoke completes");
    let text = report::render(&one);
    assert_eq!(text, report::render(&two), "threads must not change bytes");
    assert_eq!(text, report::render(&eight), "threads must not change bytes");
    assert_eq!(text, report::render(&again), "repeat runs must not drift");
    assert!(!text.is_empty());
}

/// Different seeds produce different traffic (sanity that the seed is
/// actually threaded through the arrival process).
#[test]
fn smoke_seeds_differ() {
    let sc = Scenario::smoke();
    let a = run_scenario(&sc, 1, 1).expect("smoke completes");
    let b = run_scenario(&sc, 2, 1).expect("smoke completes");
    assert_ne!(report::render(&a), report::render(&b));
}

/// Every policy cell replays the *same* arrivals: job counts and
/// per-job names/arrival times must match across policies.
#[test]
fn all_policies_replay_identical_traffic() {
    let sc = Scenario::smoke();
    let fleet = run_scenario(&sc, 7, 1).expect("smoke completes");
    assert_eq!(fleet.policies.len(), 3);
    let names = |p: usize| -> Vec<(String, f64)> {
        fleet.policies[p]
            .jobs
            .iter()
            .map(|j| (j.name.clone(), j.arrived.as_secs_f64()))
            .collect()
    };
    assert_eq!(names(0), names(1));
    assert_eq!(names(0), names(2));
}

/// Tenants are not limited to METASPACE jobs: a DSL workload family
/// (terasort) joins the smoke traffic mix — dependency-driven, so its
/// declared one-to-one edge is exercised — and the region stays
/// byte-deterministic.
#[test]
fn dsl_family_tenants_share_the_region_deterministically() {
    let mut sc = Scenario::smoke();
    sc.name = "smoke+terasort".to_owned();
    sc.pipelined = true;
    sc.tenants.push(TenantSpec {
        name: "sorters".to_owned(),
        job: "terasort-small".to_owned(),
        weight: 2.0,
        scale: 0.05,
    });
    let a = run_scenario(&sc, 42, 2).expect("mixed-family traffic completes");
    let b = run_scenario(&sc, 42, 2).expect("mixed-family traffic completes");
    let text = report::render(&a);
    assert_eq!(text, report::render(&b), "repeat runs must not drift");
    assert!(
        a.policies[0].jobs.iter().any(|j| j.name.starts_with("sorters#")),
        "the terasort tenant never submitted a job"
    );
    // A pipelined shared-pool cell leases or degrades whole stages and
    // launches none gated, so no task release can wait on the quota.
    let pool = a.policy("shared-pool").expect("shared-pool cell");
    assert_eq!(pool.throttled, 0, "{pool:?}");
}

/// The smoke scenario's quota is sized so pure serverless actually
/// throttles — keeps the admission path exercised in the fast suite.
#[test]
fn smoke_serverless_throttles() {
    let outcome = run_policy(&Scenario::smoke(), Policy::Serverless, 42)
        .expect("serverless cell completes");
    assert!(outcome.throttled > 0, "quota never bound: {outcome:?}");
}

/// The issue's headline, paper-scale: at a high arrival rate the warm
/// shared pool strictly beats per-job fleets on cost (no per-job boot
/// and minimum-billing tax), stays far below pure serverless on p99
/// (which the Lambda quota visibly throttles), and serves almost every
/// lease warm.
#[test]
// Paper-scale simulation: slow under debug; run with --release.
#[cfg_attr(debug_assertions, ignore = "paper-scale run; use --release")]
fn shared_pool_dominates_under_load() {
    let fleet = run_scenario(&Scenario::mixed(), 1, 4).expect("mixed completes");
    let sl = fleet.policy("serverless").expect("serverless cell");
    let pj = fleet.policy("per-job-fleet").expect("per-job cell");
    let sp = fleet.policy("shared-pool").expect("shared-pool cell");

    // The region is genuinely contended: the Lambda quota throttles
    // pure serverless.
    assert!(sl.throttled > 0, "lambda quota never bound: {sl:?}");

    // Headline: the shared warm pool strictly dominates per-job fleets
    // on cost…
    assert!(
        sp.cost_usd < pj.cost_usd,
        "shared pool (${:.4}) should undercut per-job fleets (${:.4})",
        sp.cost_usd,
        pj.cost_usd
    );
    // …at a p99 far better than quota-throttled serverless.
    assert!(
        sp.latency_percentile(99.0) * 2.0 < sl.latency_percentile(99.0),
        "shared-pool p99 {:.1}s should be well under serverless p99 {:.1}s",
        sp.latency_percentile(99.0),
        sl.latency_percentile(99.0)
    );
    // The pool really is warm across jobs, not re-booting per lease.
    let hit = sp.pool_hit_pct().expect("pool leased something");
    assert!(hit > 50.0, "pool hit rate {hit:.1}% too cold");

    // Every cell finished the whole arrival schedule.
    assert_eq!(sl.jobs.len(), pj.jobs.len());
    assert_eq!(sl.jobs.len(), sp.jobs.len());
}

// --- arrival schedules -------------------------------------------------

#[test]
fn schedule_is_deterministic_and_ordered() {
    let sc = Scenario::smoke();
    let a = schedule(&sc, 42);
    let b = schedule(&sc, 42);
    assert_eq!(a, b);
    assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    assert!(!a.is_empty(), "smoke scenario generates traffic");
}

#[test]
fn different_seeds_differ() {
    let sc = Scenario::smoke();
    assert_ne!(schedule(&sc, 1), schedule(&sc, 2));
}

#[test]
fn weights_bias_the_mix() {
    let mut sc = Scenario::smoke();
    sc.duration_secs = 10_000.0;
    sc.max_jobs = 2_000;
    let arrivals = schedule(&sc, 7);
    let heavy = arrivals.iter().filter(|a| a.tenant == 0).count();
    let light = arrivals.iter().filter(|a| a.tenant == 1).count();
    // Tenant 0 has 3x the weight of tenant 1.
    assert!(heavy > 2 * light, "heavy {heavy} light {light}");
}

#[test]
#[should_panic(expected = "arrival_rate_per_min must be finite and positive")]
fn an_infinite_rate_is_rejected() {
    let mut sc = Scenario::smoke();
    sc.arrival_rate_per_min = f64::INFINITY;
    schedule(&sc, 42);
}

#[test]
#[should_panic(expected = "duration_secs must be finite and at most 1e9")]
fn a_window_past_the_bound_is_rejected() {
    let mut sc = Scenario::smoke();
    sc.duration_secs = 1e300;
    schedule(&sc, 42);
}

#[test]
fn the_window_bound_leaves_virtual_time_for_late_jobs() {
    // A job arriving at the very end of the longest window can still
    // run for 10,000 times the window without overflowing the clock.
    let end = SimTime::from_secs_f64(MAX_DURATION_SECS * 1e4);
    assert!(end > SimTime::from_secs_f64(MAX_DURATION_SECS));
}

#[test]
fn max_jobs_caps_the_schedule() {
    let mut sc = Scenario::smoke();
    sc.max_jobs = 3;
    sc.duration_secs = 10_000.0;
    assert_eq!(schedule(&sc, 42).len(), 3);
}

#[test]
fn sequence_numbers_are_per_tenant() {
    let sc = Scenario::smoke();
    let arrivals = schedule(&sc, 42);
    for tenant in 0..sc.tenants.len() {
        let seqs: Vec<usize> = arrivals
            .iter()
            .filter(|a| a.tenant == tenant)
            .map(|a| a.seq)
            .collect();
        assert_eq!(seqs, (0..seqs.len()).collect::<Vec<_>>());
    }
}

// --- scenario presets and tenant graphs --------------------------------

#[test]
fn named_scenarios_resolve() {
    for name in Scenario::all_names() {
        let sc = Scenario::named(name).expect("listed scenario resolves");
        assert!(!sc.tenants.is_empty());
        assert!(sc.arrival_rate_per_min > 0.0);
    }
    assert!(Scenario::named("nope").is_none());
}

#[test]
fn regioned_presets_name_registered_regions_and_catalog_instances() {
    for sc in [Scenario::spot_storm(), Scenario::spillover()] {
        let key = sc.region.as_deref().expect("regioned preset");
        let profile = cloudsim::region(key).expect("region is registered");
        assert!(
            profile.instance_type(&sc.pool.instance).is_some(),
            "{}: pool instance `{}` missing from {key}'s catalog",
            sc.name,
            sc.pool.instance
        );
        if let Some(o) = &sc.outage {
            cloudsim::region(&o.spill_to).expect("spill region is registered");
        }
    }
}

#[test]
fn spot_storm_pool_is_spot_eligible() {
    let sc = Scenario::spot_storm();
    assert!(sc.pool.bid.is_spot());
    assert!(
        sc.pool.workers > 0,
        "spot bids only bite on dedicated worker slots; consolidated VMs are masters"
    );
    let m = sc.spot_market.expect("storm overrides the market");
    assert!(m.preemption_prob > 0.5, "a storm should reclaim most spot VMs");
}

#[test]
fn outage_window_is_half_open() {
    let o = RegionOutage {
        start_secs: 30.0,
        duration_secs: 40.0,
        spill_to: "aws-eu-west-1".into(),
    };
    assert!(!o.covers(29.9));
    assert!(o.covers(30.0));
    assert!(o.covers(69.9));
    assert!(!o.covers(70.0));
}

#[test]
fn tenant_stage_graphs_build() {
    for t in Scenario::mixed().tenants {
        let stages = t.stages();
        assert_eq!(stages.len(), 9);
        assert!(stages.iter().all(|s| s.tasks >= 2));
    }
}

#[test]
fn dsl_family_tenants_resolve_with_their_declared_edges() {
    let t = TenantSpec {
        name: "sorters".to_owned(),
        job: "terasort-small".to_owned(),
        weight: 1.0,
        scale: 0.1,
    };
    let w = t.workload();
    w.validate().expect("scaled family stays valid");
    assert_eq!(w.stages.len(), 3);
    assert!(w.stages.iter().all(|s| s.tasks >= 2));
    // validate -> sort is one-to-one: the declared edges must
    // survive into the fleet.
    assert!(w
        .edges
        .iter()
        .any(|deps| deps.iter().any(|e| e.fan_in == serverful::FanIn::OneToOne)));
}

// --- region admission --------------------------------------------------

#[test]
fn idle_region_always_admits() {
    let world = World::new(CloudConfig::default(), 1);
    let adm = Admission::new(RegionQuotas {
        lambda_concurrency: 4,
        ec2_vcpus: 2.0,
    });
    // Wider than the whole quota, but nothing is running.
    assert!(adm.admits_faas(&world, 1000));
    assert!(adm.admits_vm(&world, 64.0));
}

#[test]
fn counters_accumulate() {
    let mut adm = Admission::new(RegionQuotas::default());
    adm.note_throttle();
    adm.note_throttle();
    adm.note_degrade();
    assert_eq!((adm.throttled, adm.degraded), (2, 1));
}

// --- shared pool leases ------------------------------------------------

#[test]
fn cold_pool_leases_are_misses() {
    let mut env = CloudEnv::new_default(3);
    let mut pool = SharedPool::new(&mut env, &PoolConfig::default(), None);
    let lease = pool.lease(&env);
    assert!(lease < PoolConfig::default().size);
    assert_eq!(pool.leases, 1);
    assert_eq!(pool.hits, 0, "nothing is provisioned yet");
    assert_eq!(pool.hit_pct(), Some(0.0));
}

#[test]
fn empty_lease_history_has_no_hit_rate() {
    let mut env = CloudEnv::new_default(3);
    let pool = SharedPool::new(&mut env, &PoolConfig::default(), None);
    assert_eq!(pool.hit_pct(), None);
}

// --- what-if plan evaluation -------------------------------------------

#[test]
fn cluster_plans_are_rejected() {
    let plan = DeploymentPlan {
        name: "spark".into(),
        kind: PlanKind::Cluster(ClusterPlan {
            instance: "c5.4xlarge".into(),
            nodes: 4,
        }),
    };
    let err = plan_under_load(&Scenario::smoke(), &plan, 42).unwrap_err();
    assert!(matches!(err, ExecError::Unsupported(_)));
}

#[test]
fn mismatched_stage_counts_are_rejected() {
    use metaspace::plan::FunctionsPlan;
    let plan = DeploymentPlan::functions("short", FunctionsPlan::serverless(3));
    let err = plan_under_load(&Scenario::smoke(), &plan, 42).unwrap_err();
    assert!(matches!(err, ExecError::Unsupported(_)));
}
