//! Property-style tests for [`RetryPolicy`]: the backoff schedule and
//! attempt accounting the whole fault-recovery layer leans on.
//!
//! No crates.io access means no `proptest`; instead each property runs
//! over a few hundred seeded random policies/salts drawn from
//! [`SimRng`], printing the failing case's seed on assertion failure
//! (`SimRng::seed_from(seed)` regenerates the exact case).

use serverful::RetryPolicy;
use simkernel::SimRng;

/// Runs `body` over `n` seeded cases; the case seed is passed through
/// so failures print a reproducible starting point.
fn forall_cases(n: u64, mut body: impl FnMut(u64, &mut SimRng)) {
    for case in 0..n {
        let seed = 0xBACC0FF ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        body(seed, &mut rng);
    }
}

/// An arbitrary but sane retry policy.
fn arb_policy(rng: &mut SimRng) -> RetryPolicy {
    RetryPolicy {
        max_attempts: rng.uniform_u64(1, 10) as u32,
        base_backoff_secs: rng.uniform(0.0, 5.0),
        backoff_multiplier: rng.uniform(1.0, 4.0),
        max_backoff_secs: rng.uniform(1.0, 120.0),
        jitter_frac: rng.uniform(0.0, 1.0),
        straggler_timeout_secs: None,
    }
}

/// Un-jittered backoff is monotone non-decreasing in the attempt
/// number: a later failure never waits less than an earlier one.
#[test]
fn backoff_is_monotone_in_attempt() {
    forall_cases(300, |seed, rng| {
        let p = arb_policy(rng);
        let mut prev = 0.0f64;
        for attempt in 1..=30u32 {
            let b = p.backoff_secs(attempt);
            assert!(
                b >= prev,
                "seed {seed:#x}: backoff({attempt}) = {b} < backoff({}) = {prev} for {p:?}",
                attempt - 1
            );
            prev = b;
        }
    });
}

/// Backoff (jittered or not) never exceeds the configured cap plus its
/// jitter allowance, and is never negative.
#[test]
fn backoff_is_bounded_by_the_cap() {
    forall_cases(300, |seed, rng| {
        let p = arb_policy(rng);
        let salt = rng.next_u64();
        for attempt in 1..=40u32 {
            let base = p.backoff_secs(attempt);
            assert!(
                (0.0..=p.max_backoff_secs).contains(&base),
                "seed {seed:#x}: backoff({attempt}) = {base} outside [0, {}]",
                p.max_backoff_secs
            );
            let jittered = p.jittered_backoff_secs(attempt, salt);
            let cap = p.max_backoff_secs * (1.0 + p.jitter_frac) + 1e-9;
            assert!(
                jittered >= base && jittered <= cap,
                "seed {seed:#x}: jittered({attempt}, {salt}) = {jittered} outside [{base}, {cap}]"
            );
        }
    });
}

/// Jitter is a pure function of `(policy, attempt, salt)`: recomputing
/// it yields the same delay, always — the bedrock of replayable chaos.
#[test]
fn jittered_backoff_is_deterministic() {
    forall_cases(300, |seed, rng| {
        let p = arb_policy(rng);
        for _ in 0..16 {
            let attempt = rng.uniform_u64(1, 20) as u32;
            let salt = rng.next_u64();
            let a = p.jittered_backoff_secs(attempt, salt);
            let b = p.jittered_backoff_secs(attempt, salt);
            assert_eq!(
                a, b,
                "seed {seed:#x}: jitter not reproducible for attempt {attempt}, salt {salt}"
            );
        }
    });
}

/// Distinct salts actually spread retries out: across many salts the
/// jittered delays are not all identical (unless jitter is disabled).
#[test]
fn jitter_spreads_across_salts() {
    let p = RetryPolicy::default();
    let first = p.jittered_backoff_secs(3, 0);
    let spread = (1..200u64).any(|salt| p.jittered_backoff_secs(3, salt) != first);
    assert!(spread, "200 salts all produced the same jittered backoff");
}

/// Simulating the executor's bookkeeping — attempt, fail, consult the
/// policy — never runs more attempts than `max_attempts`, and runs
/// exactly `max_attempts` when every attempt fails.
#[test]
fn attempts_never_exceed_the_budget() {
    forall_cases(300, |seed, rng| {
        let p = arb_policy(rng);
        let mut attempts = 0u32;
        loop {
            attempts += 1; // the attempt itself (it fails)
            if !p.allows_retry(attempts) {
                break;
            }
            assert!(
                attempts < p.max_attempts,
                "seed {seed:#x}: retry allowed after {attempts}/{} attempts",
                p.max_attempts
            );
        }
        assert_eq!(
            attempts, p.max_attempts,
            "seed {seed:#x}: an all-failing task must use exactly the budget"
        );
    });
}

// The default schedule at fixed points, and the no-retry and
// zero-jitter corners.

#[test]
fn backoff_grows_geometrically_until_the_cap() {
    let p = RetryPolicy::default();
    assert!((p.backoff_secs(1) - 0.5).abs() < 1e-12);
    assert!((p.backoff_secs(2) - 1.0).abs() < 1e-12);
    assert!((p.backoff_secs(3) - 2.0).abs() < 1e-12);
    assert!((p.backoff_secs(30) - 20.0).abs() < 1e-12);
}

#[test]
fn jitter_is_deterministic_and_bounded() {
    let p = RetryPolicy::default();
    for attempt in 1..10 {
        for salt in 0..50u64 {
            let a = p.jittered_backoff_secs(attempt, salt);
            let b = p.jittered_backoff_secs(attempt, salt);
            assert_eq!(a, b);
            let base = p.backoff_secs(attempt);
            assert!(a >= base);
            assert!(a <= base * (1.0 + p.jitter_frac) + 1e-12);
        }
    }
}

#[test]
fn no_retries_policy_allows_exactly_one_attempt() {
    let p = RetryPolicy::no_retries();
    assert!(p.allows_retry(0));
    assert!(!p.allows_retry(1));
}

#[test]
fn zero_jitter_returns_the_base_backoff() {
    let p = RetryPolicy {
        jitter_frac: 0.0,
        ..RetryPolicy::default()
    };
    assert_eq!(p.jittered_backoff_secs(2, 99), p.backoff_secs(2));
}
