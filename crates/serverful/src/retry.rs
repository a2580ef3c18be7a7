//! Retry, backoff and straggler policy.
//!
//! One [`RetryPolicy`] governs every recovery mechanism the executor
//! runs: re-invoking failed sandboxes, re-issuing faulted storage
//! requests, requeueing tasks of lost workers, and speculatively
//! re-dispatching stragglers. Backoff jitter is derived from a hash of
//! the attempt and a caller salt — not from an RNG — so retry schedules
//! are deterministic for a fixed simulation seed.

/// Exponential-backoff retry policy with deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per unit of work, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the second attempt, seconds.
    pub base_backoff_secs: f64,
    /// Multiplier applied per further attempt.
    pub backoff_multiplier: f64,
    /// Upper bound on the un-jittered backoff, seconds.
    pub max_backoff_secs: f64,
    /// Fraction of the backoff added as deterministic jitter, in
    /// `[0, 1)`; avoids retry stampedes without sacrificing replay.
    pub jitter_frac: f64,
    /// Wall-clock seconds after dispatch at which the monitor abandons
    /// a task attempt and speculatively re-dispatches it (FaaS backend).
    /// `None` disables straggler handling — the default, so runs
    /// without faults replay byte-identically.
    pub straggler_timeout_secs: Option<f64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 0.5,
            backoff_multiplier: 2.0,
            max_backoff_secs: 20.0,
            jitter_frac: 0.1,
            straggler_timeout_secs: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no stragglers).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// True when another attempt is allowed after `attempts_made`
    /// attempts have already run.
    pub fn allows_retry(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }

    /// The un-jittered backoff after `attempt` failed attempts
    /// (`attempt >= 1`): `min(base * multiplier^(attempt-1), cap)`.
    /// Monotone non-decreasing in `attempt` and bounded by
    /// `max_backoff_secs`.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        assert!(attempt >= 1, "backoff is defined after the first attempt");
        let exp = self
            .base_backoff_secs
            .max(0.0)
            * self.backoff_multiplier.max(1.0).powi(attempt as i32 - 1);
        exp.min(self.max_backoff_secs)
    }

    /// The backoff with deterministic jitter: up to `jitter_frac` of
    /// the base value, derived from a hash of `(salt, attempt)`. Same
    /// inputs, same delay — always.
    pub fn jittered_backoff_secs(&self, attempt: u32, salt: u64) -> f64 {
        let base = self.backoff_secs(attempt);
        let frac = self.jitter_frac.clamp(0.0, 1.0);
        if frac == 0.0 {
            return base;
        }
        let unit = hash2(salt, attempt as u64) as f64 / u64::MAX as f64;
        base * (1.0 + frac * unit)
    }
}

/// Stateless 64-bit mix of two words (splitmix64 finalizer over their
/// combination); the source of deterministic jitter.
fn hash2(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
