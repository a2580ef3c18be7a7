//! The seeded arrival process: who submits a job, and when.

use simkernel::{SimRng, SimTime};

use crate::scenario::Scenario;

/// The longest arrival window [`schedule`] accepts, seconds (about 32
/// years). Virtual time counts `u64` microseconds, so [`SimTime`] ends
/// near 1.8e13 s; a window of at most 1e9 s leaves over 1.8e13 s for the
/// jobs that arrive at its end to run.
pub const MAX_DURATION_SECS: f64 = 1e9;

/// One scheduled job arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual time the job is submitted.
    pub at: SimTime,
    /// Index into the scenario's tenant list.
    pub tenant: usize,
    /// Per-tenant submission counter (the `#seq` of the job name).
    pub seq: usize,
}

impl Arrival {
    /// The job's name under the scenario: `{tenant}#{seq}`.
    pub fn job_name(&self, sc: &Scenario) -> String {
        format!("{}#{}", sc.tenants[self.tenant].name, self.seq)
    }
}

/// Draws the scenario's full arrival schedule from one seed: Poisson
/// inter-arrival gaps at the scenario rate, tenants picked by weight.
/// The schedule is a pure function of `(scenario, seed)` — every policy
/// cell of a run replays the identical traffic.
///
/// # Panics
///
/// Panics if `sc.arrival_rate_per_min` is not finite and positive: an
/// infinite rate makes the mean gap zero. Panics if `sc.duration_secs`
/// is not finite or exceeds [`MAX_DURATION_SECS`]: an arrival that late
/// would overflow virtual time.
pub fn schedule(sc: &Scenario, seed: u64) -> Vec<Arrival> {
    let rate = sc.arrival_rate_per_min;
    assert!(
        rate.is_finite() && rate > 0.0,
        "Scenario::arrival_rate_per_min must be finite and positive, got {rate}"
    );
    let duration = sc.duration_secs;
    assert!(
        duration.is_finite() && duration <= MAX_DURATION_SECS,
        "Scenario::duration_secs must be finite and at most {MAX_DURATION_SECS:e}, got {duration}"
    );
    // A fixed stream id keeps the arrival draw independent of any other
    // use of the seed (each policy cell's world forks its own streams).
    let mut rng = SimRng::seed_from(seed ^ 0xf1ee_7a11);
    let weights: Vec<f64> = sc.tenants.iter().map(|t| t.weight).collect();
    let mean_gap_secs = 60.0 / rate;
    let mut out = Vec::new();
    let mut seqs = vec![0usize; sc.tenants.len()];
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_gap_secs);
        if t > sc.duration_secs || out.len() >= sc.max_jobs {
            break;
        }
        let tenant = rng.weighted_index(&weights);
        out.push(Arrival {
            at: SimTime::from_secs_f64(t),
            tenant,
            seq: seqs[tenant],
        });
        seqs[tenant] += 1;
    }
    out
}
