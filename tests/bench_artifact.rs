//! Schema gate for the `BENCH_kernel.json` artifact `scripts/ci.sh`
//! writes on every run: the committed baseline, a freshly generated
//! tiny-config report, and (when present) the artifact itself must all
//! parse to the current `bench-kernel` layout ([`SCHEMA`]) with the
//! required fields — scenario names, seed, git rev — and finite positive
//! throughput.

use serverful_repro::bench::kernelbench::{
    run, KernelBenchConfig, KernelBenchReport, SCHEMA,
};

/// Scenario names ci.sh's regression gate matches on; renaming one
/// silently un-gates it, so the set is pinned here.
const REQUIRED_SCENARIOS: [&str; 4] = [
    "event-throughput",
    "timer-churn",
    "fanin-storm",
    "fleet-replay-async-kernel",
];

fn assert_well_formed(report: &KernelBenchReport, what: &str) {
    assert!(!report.git_rev.is_empty(), "{what}: empty git_rev");
    for name in REQUIRED_SCENARIOS {
        let s = report
            .scenario(name)
            .unwrap_or_else(|| panic!("{what}: scenario {name:?} missing"));
        assert!(s.events > 0, "{what}: {name} ran no events");
        assert!(
            s.wall_secs.is_finite() && s.wall_secs > 0.0,
            "{what}: {name} wall_secs {}",
            s.wall_secs
        );
        assert!(
            s.events_per_sec.is_finite() && s.events_per_sec > 0.0,
            "{what}: {name} events_per_sec {}",
            s.events_per_sec
        );
    }
}

#[test]
fn committed_baseline_parses_and_is_well_formed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernel_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_kernel_baseline.json is committed");
    assert!(
        text.contains(SCHEMA),
        "baseline does not declare schema {SCHEMA:?}"
    );
    let report = KernelBenchReport::parse(&text).expect("baseline parses");
    assert_well_formed(&report, "baseline");
}

#[test]
fn generated_report_round_trips_and_is_well_formed() {
    let report = run(42, "test-rev", &KernelBenchConfig::tiny());
    assert_eq!(report.seed, 42);
    assert_eq!(report.git_rev, "test-rev");
    assert_well_formed(&report, "generated");
    let parsed = KernelBenchReport::parse(&report.to_json()).expect("emitted JSON parses");
    assert_eq!(parsed.seed, 42);
    assert_well_formed(&parsed, "re-parsed");
}

/// When ci.sh already produced the artifact, hold it to the same
/// schema. (Absent on a fresh checkout — the bench step writes it.)
#[test]
fn ci_artifact_when_present_is_well_formed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_kernel.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let report = KernelBenchReport::parse(&text)
        .expect("BENCH_kernel.json parses as the current bench-kernel schema");
    assert_well_formed(&report, "BENCH_kernel.json");
}
