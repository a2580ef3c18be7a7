//! Property-based tests on the core data structures and invariants.
//!
//! The build environment has no crates.io access, so instead of
//! `proptest` these properties run over seeded random cases drawn from
//! [`SimRng`]: each test executes a few hundred generated inputs and
//! reports the failing case's seed on assertion failure, which is enough
//! to reproduce (`SimRng::seed_from(seed)` regenerates the exact case).

use serverful_repro::cloudsim::{catalog, LambdaTariff, ObjectBody};
use serverful_repro::serverful::{fan_in_range, CloudObjectRef, Edge, Payload, Readiness};
use serverful_repro::telemetry::{CostCategory, CostLedger};
use serverful_repro::shuffle::data as sortdata;
use serverful_repro::simkernel::{
    EventQueue, EventToken, FairShare, FlowId, SchedStats, SimDuration, SimRng, SimTime, StepSeries,
};

/// Runs `body` over `n` seeded cases; the case seed is passed through so
/// failures print a reproducible starting point.
fn forall_cases(n: u64, mut body: impl FnMut(u64, &mut SimRng)) {
    for case in 0..n {
        let seed = 0xC0FFEE ^ case.wrapping_mul(0x9E3779B97F4A7C15);
        let mut rng = SimRng::seed_from(seed);
        body(seed, &mut rng);
    }
}

fn arb_string(rng: &mut SimRng, max_len: u64) -> String {
    let len = rng.uniform_u64(0, max_len + 1) as usize;
    (0..len)
        .map(|_| char::from(b'a' + rng.uniform_u64(0, 26) as u8))
        .collect()
}

fn arb_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let len = rng.uniform_u64(0, max_len + 1) as usize;
    (0..len).map(|_| rng.uniform_u64(0, 256) as u8).collect()
}

/// An arbitrary payload of bounded depth.
fn arb_payload(rng: &mut SimRng, depth: u32) -> Payload {
    let variants = if depth == 0 { 7 } else { 8 };
    match rng.uniform_u64(0, variants) {
        0 => Payload::Unit,
        1 => Payload::U64(rng.next_u64()),
        // NaN is not round-trip comparable with PartialEq; use finite.
        2 => Payload::F64(rng.uniform(-1e300, 1e300)),
        3 => Payload::Str(arb_string(rng, 32)),
        4 => Payload::Bytes(bytes::Bytes::from(arb_bytes(rng, 64))),
        5 => Payload::CloudObject(CloudObjectRef::new(
            arb_string(rng, 8),
            arb_string(rng, 16),
            rng.next_u64(),
        )),
        6 => Payload::Opaque { size: rng.next_u64() },
        _ => {
            let n = rng.uniform_u64(0, 6) as usize;
            Payload::List((0..n).map(|_| arb_payload(rng, depth - 1)).collect())
        }
    }
}

/// The wire codec round-trips every payload.
#[test]
fn payload_codec_roundtrips() {
    forall_cases(256, |seed, rng| {
        let p = arb_payload(rng, 3);
        let encoded = p.encode();
        let decoded = Payload::decode(&encoded).expect("decode");
        assert_eq!(decoded, p, "seed {seed}");
    });
}

/// Decoding arbitrary bytes never panics (it may error).
#[test]
fn payload_decode_never_panics() {
    forall_cases(512, |_seed, rng| {
        let bytes = arb_bytes(rng, 256);
        let _ = Payload::decode(&bytes);
    });
}

/// Sort-key encoding round-trips.
#[test]
fn sort_keys_roundtrip() {
    forall_cases(128, |seed, rng| {
        let n = rng.uniform_u64(0, 512) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let encoded = sortdata::encode_keys(&keys);
        assert_eq!(sortdata::decode_keys(&encoded), keys, "seed {seed}");
    });
}

/// Range partitioning conserves keys and respects splitter bounds.
#[test]
fn partitioning_conserves_keys() {
    forall_cases(128, |seed, rng| {
        let n = rng.uniform_u64(1, 512) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let ranges = rng.uniform_u64(1, 16) as usize;
        let splitters = sortdata::uniform_splitters(ranges);
        let buckets = sortdata::partition_keys(&keys, &splitters);
        assert_eq!(buckets.len(), ranges, "seed {seed}");
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, keys.len(), "seed {seed}");
        for (i, bucket) in buckets.iter().enumerate() {
            for &k in bucket {
                if i > 0 {
                    assert!(k >= splitters[i - 1], "seed {seed}");
                }
                if i < splitters.len() {
                    assert!(k < splitters[i], "seed {seed}");
                }
            }
        }
    });
}

/// The event queue pops in non-decreasing time order regardless of
/// insertion order.
#[test]
fn event_queue_is_time_ordered() {
    forall_cases(128, |seed, rng| {
        let n = rng.uniform_u64(1, 64) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.next() {
            assert!(t >= last, "seed {seed}");
            last = t;
            count += 1;
        }
        assert_eq!(count, delays.len(), "seed {seed}");
    });
}

/// Under random schedules, cancels and pops, the queue matches a model
/// that keeps each live event's time and insertion index. Every pop
/// returns the model's smallest `(time, insertion)` entry, and after
/// every step `peek_time`, `len` and the counters agree with the model.
/// Cancels hit live events, the current head, already-cancelled tokens
/// and tokens whose event fired long ago; only a live one is counted.
/// Half the cases draw delays of 0–2 µs, so that ties dominate.
#[test]
fn event_queue_counts_match_a_model() {
    let mut case = 0;
    forall_cases(128, |seed, rng| {
        case += 1;
        let max_delay = if case % 2 == 0 { 3 } else { 1_000 };
        let mut q: EventQueue<usize> = EventQueue::new();
        // Per scheduled event, by insertion index: its token, and its
        // time while it is live.
        let mut events: Vec<(EventToken, Option<SimTime>)> = Vec::new();
        // Insertion indices of fired events, in firing order.
        let mut fired: Vec<usize> = Vec::new();
        let mut cancelled = 0;
        let head = |events: &[(EventToken, Option<SimTime>)]| {
            events
                .iter()
                .enumerate()
                .filter_map(|(i, &(_, at))| Some((at?, i)))
                .min()
        };
        // Random steps, then pops until the model has no live event.
        let steps = rng.uniform_u64(1, 200);
        for step in 0.. {
            let draining = step >= steps;
            let mut cancel = |events: &mut Vec<(EventToken, Option<SimTime>)>, i: usize| {
                q.cancel(events[i].0);
                if events[i].1.take().is_some() {
                    cancelled += 1;
                }
            };
            match if draining { 7 } else { rng.uniform_u64(0, 8) } {
                0..=2 => {
                    let delay = SimDuration::from_micros(rng.uniform_u64(0, max_delay));
                    let at = q.now() + delay;
                    events.push((q.schedule_in(delay, events.len()), Some(at)));
                }
                3 if !events.is_empty() => {
                    let i = rng.uniform_u64(0, events.len() as u64) as usize;
                    cancel(&mut events, i);
                }
                4 => {
                    if let Some((_, i)) = head(&events) {
                        cancel(&mut events, i);
                    }
                }
                5 if !fired.is_empty() => {
                    // One of the older half of the fired events.
                    let i = fired[rng.uniform_u64(0, fired.len() as u64 / 2 + 1) as usize];
                    cancel(&mut events, i);
                }
                _ => {
                    let want = head(&events);
                    let got = q.next();
                    assert_eq!(got, want, "seed {seed} step {step}: pop order");
                    if let Some((_, i)) = got {
                        events[i].1 = None;
                        fired.push(i);
                    }
                }
            }
            let live = events.iter().filter(|(_, at)| at.is_some()).count();
            assert_eq!(q.len(), live, "seed {seed} step {step}");
            assert_eq!(
                q.peek_time(),
                head(&events).map(|(at, _)| at),
                "seed {seed} step {step}"
            );
            let want = SchedStats {
                scheduled: events.len() as u64,
                fired: fired.len() as u64,
                cancelled,
            };
            assert_eq!(q.stats(), want, "seed {seed} step {step}");
            if draining && live == 0 {
                break;
            }
        }
        assert!(q.is_empty(), "seed {seed}");
        assert_eq!(
            events.len(),
            fired.len() + cancelled as usize,
            "seed {seed}"
        );
    });
}

/// Fair-share transfers all complete, and total completion time is
/// bounded below by aggregate capacity.
#[test]
fn fair_share_conserves_bytes() {
    forall_cases(64, |seed, rng| {
        let n = rng.uniform_u64(1, 32) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| rng.uniform_u64(1, 1_000_000)).collect();
        let aggregate = 1_000_000.0;
        let mut pool = FairShare::new(aggregate, 500_000.0);
        let t0 = SimTime::ZERO;
        for &s in &sizes {
            pool.start(t0, s, &[]);
        }
        let total: u64 = sizes.iter().sum();
        let mut done = 0;
        let mut finished = Vec::new();
        let mut now = t0;
        let mut guard = 0;
        while pool.active() > 0 {
            let next = pool.next_completion().expect("active pool has a completion");
            assert!(next >= now, "seed {seed}");
            now = next;
            pool.advance(now, &mut finished);
            done += finished.len();
            guard += 1;
            assert!(guard < 10_000, "pool failed to drain (seed {seed})");
        }
        assert_eq!(done, sizes.len(), "seed {seed}");
        // No faster than the aggregate cap allows.
        let lower_bound = total as f64 / aggregate;
        assert!(now.as_secs_f64() >= lower_bound * 0.999, "seed {seed}");
    });
}

/// How a [`ModelPool`] brings progress up to date.
#[derive(Clone, Copy)]
enum Arithmetic {
    /// The pool's documented arithmetic, done naively: one service
    /// counter per group tuple that in-flight flows name, zero whenever
    /// the tuple has no flows, growing by `rate * dt` over an interval and
    /// rebased past 2^32 bytes; a flow keeps the tag `counter + bytes`
    /// taken at its start, and has `tag - counter` bytes left.
    Counter,
    /// The per-flow formula the counter re-associates: over an interval
    /// each flow's remaining bytes become `(remaining - rate * dt).max(0)`.
    PerFlow,
}

/// Counters past this many bytes are rebased, as in the pool.
const REBASE_BYTES: f64 = 4_294_967_296.0;

/// A naive fair-share pool: every call recomputes every rate from the
/// formula in the `fair_share` module docs, with each group's membership
/// counted by scanning every flow.
struct ModelPool {
    arithmetic: Arithmetic,
    aggregate_bps: f64,
    per_flow_bps: f64,
    caps: Vec<(u64, f64)>,
    /// In-flight flows in start order: the real pool's id, the flow's tag
    /// (counter) or remaining bytes (per-flow), and its groups.
    flows: Vec<(FlowId, f64, Vec<u64>)>,
    /// The counter of each group tuple that in-flight flows name.
    counters: Vec<(Vec<u64>, f64)>,
    last_update: SimTime,
    /// The residue of finished flows, as `FairShare::finished_residue_bytes`.
    residue: f64,
}

impl ModelPool {
    fn new(arithmetic: Arithmetic, aggregate_bps: f64, per_flow_bps: f64) -> Self {
        ModelPool {
            arithmetic,
            aggregate_bps,
            per_flow_bps,
            caps: Vec::new(),
            flows: Vec::new(),
            counters: Vec::new(),
            last_update: SimTime::ZERO,
            residue: 0.0,
        }
    }

    fn set_group_cap(&mut self, group: u64, cap: f64) {
        match self.caps.iter_mut().find(|(g, _)| *g == group) {
            Some(entry) => entry.1 = cap,
            None => self.caps.push((group, cap)),
        }
    }

    /// Every flow's rate, in start order: `min(per_flow, aggregate / n)`,
    /// then `min(cap(g) / members(g))` for each group `g` of the flow, in
    /// order.
    fn rates(&self) -> Vec<f64> {
        let n = self.flows.len().max(1) as f64;
        let base = self.per_flow_bps.min(self.aggregate_bps / n);
        let shares: Vec<(u64, f64)> = self
            .caps
            .iter()
            .map(|&(group, cap)| {
                let members: usize = self
                    .flows
                    .iter()
                    .map(|(_, _, gs)| gs.iter().filter(|&&g| g == group).count())
                    .sum();
                (group, cap / members.max(1) as f64)
            })
            .collect();
        self.flows
            .iter()
            .map(|(_, _, gs)| {
                gs.iter().fold(base, |rate, g| {
                    rate.min(shares.iter().find(|(s, _)| s == g).expect("declared").1)
                })
            })
            .collect()
    }

    /// The counter of the tuple `groups`: zero while no flow names it.
    fn counter(&self, groups: &[u64]) -> f64 {
        self.counters
            .iter()
            .find(|(tuple, _)| tuple == groups)
            .map_or(0.0, |&(_, served)| served)
    }

    /// The bytes each in-flight flow has left, in start order; negative
    /// once a counter flow overshot.
    fn left(&self) -> Vec<f64> {
        self.flows
            .iter()
            .map(|(_, value, groups)| match self.arithmetic {
                Arithmetic::Counter => value - self.counter(groups),
                Arithmetic::PerFlow => *value,
            })
            .collect()
    }

    fn progress_to(&mut self, now: SimTime) {
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        let rates = self.rates();
        match self.arithmetic {
            Arithmetic::PerFlow => {
                for (flow, rate) in self.flows.iter_mut().zip(rates) {
                    flow.1 = (flow.1 - rate * dt).max(0.0);
                }
            }
            Arithmetic::Counter => {
                for (tuple, served) in &mut self.counters {
                    // Every flow of the tuple has the same rate.
                    let first = self
                        .flows
                        .iter()
                        .position(|(_, _, groups)| groups == tuple)
                        .expect("a counted tuple has flows");
                    *served += rates[first] * dt;
                    if *served > REBASE_BYTES {
                        for flow in self.flows.iter_mut().filter(|f| f.2 == *tuple) {
                            flow.1 -= *served;
                        }
                        *served = 0.0;
                    }
                }
            }
        }
    }

    fn start(&mut self, now: SimTime, id: FlowId, bytes: u64, groups: &[u64]) {
        self.progress_to(now);
        let value = match self.arithmetic {
            Arithmetic::Counter => {
                if !self.counters.iter().any(|(tuple, _)| tuple == groups) {
                    self.counters.push((groups.to_vec(), 0.0));
                }
                self.counter(groups) + bytes as f64
            }
            Arithmetic::PerFlow => bytes as f64,
        };
        self.flows.push((id, value, groups.to_vec()));
    }

    /// Flows with at most 1e-3 bytes left are done.
    fn advance(&mut self, now: SimTime) -> Vec<FlowId> {
        self.progress_to(now);
        let mut done = Vec::new();
        for (&(id, ..), left) in self.flows.iter().zip(self.left()) {
            if left <= 1e-3 {
                done.push(id);
                self.residue += 0.0f64.max(left);
            }
        }
        self.flows.retain(|(id, ..)| !done.contains(id));
        let flows = &self.flows;
        self.counters
            .retain(|(tuple, _)| flows.iter().any(|(_, _, groups)| groups == tuple));
        done
    }

    fn next_completion(&self) -> Option<SimTime> {
        let secs = self
            .left()
            .into_iter()
            .zip(self.rates())
            .map(|(left, rate)| left.max(0.0) / rate)
            .fold(f64::INFINITY, f64::min);
        secs.is_finite()
            .then(|| self.last_update + SimDuration::from_micros((secs * 1e6).ceil() as u64))
    }
}

/// A pool and its two models, driven with the same calls.
struct Harness {
    pool: FairShare,
    /// The pool's own arithmetic: it must match bit for bit.
    counter: ModelPool,
    /// The per-flow formula: it must finish the same flows at every step
    /// and complete within a microsecond.
    per_flow: ModelPool,
    /// One buffer for every advance: `advance` must clear it first.
    done: Vec<FlowId>,
}

impl Harness {
    fn new(aggregate: f64, per_flow: f64) -> Self {
        Harness {
            pool: FairShare::new(aggregate, per_flow),
            counter: ModelPool::new(Arithmetic::Counter, aggregate, per_flow),
            per_flow: ModelPool::new(Arithmetic::PerFlow, aggregate, per_flow),
            done: Vec::new(),
        }
    }

    fn set_group_cap(&mut self, group: u64, cap: f64) {
        self.pool.set_group_cap(group, cap);
        self.counter.set_group_cap(group, cap);
        self.per_flow.set_group_cap(group, cap);
    }

    fn start(&mut self, now: SimTime, bytes: u64, groups: &[u64]) {
        let id = self.pool.start(now, bytes, groups);
        self.counter.start(now, id, bytes, groups);
        self.per_flow.start(now, id, bytes, groups);
    }

    /// Advances all three to `now`; they must finish the same flows.
    fn advance(&mut self, now: SimTime, ctx: &str) -> usize {
        self.pool.advance(now, &mut self.done);
        assert_eq!(self.done, self.counter.advance(now), "{ctx}: counter model");
        assert_eq!(
            self.done,
            self.per_flow.advance(now),
            "{ctx}: per-flow model"
        );
        self.done.len()
    }

    fn next_completion(&mut self) -> Option<SimTime> {
        self.pool.next_completion()
    }

    /// Asserts that the pool and the counter model agree on everything
    /// observable, bit for bit: the flows in flight, the next completion
    /// and the finished flows' residue. The per-flow model must have the
    /// same flows in flight and a next completion within 1 µs.
    fn check(&mut self, ctx: &str) {
        let next = self.pool.next_completion();
        assert_eq!(self.pool.active(), self.counter.flows.len(), "{ctx}");
        assert_eq!(next, self.counter.next_completion(), "{ctx}");
        assert_eq!(
            self.pool.finished_residue_bytes().to_bits(),
            self.counter.residue.to_bits(),
            "{ctx}"
        );
        let ids = |model: &ModelPool| model.flows.iter().map(|f| f.0).collect::<Vec<_>>();
        assert_eq!(
            ids(&self.per_flow),
            ids(&self.counter),
            "{ctx}: flows in flight"
        );
        let micros = |t: Option<SimTime>| t.map(|t| t.as_micros() as i64);
        match (micros(next), micros(self.per_flow.next_completion())) {
            (Some(a), Some(b)) => assert!((a - b).abs() <= 1, "{ctx}: {a} vs per-flow {b} us"),
            (a, b) => assert_eq!(a, b, "{ctx}"),
        }
    }
}

fn log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.uniform(lo, hi))
}

/// The pool computes exactly what its documented arithmetic says: the
/// same completions, the same completion instants and bit-identical
/// residue as a naive model of it. A naive model of the per-flow formula,
/// which the counter arithmetic re-associates, finishes the same flows at
/// every step and completes within a microsecond. Two regimes:
///
/// Small random pools: random group caps (changed while flows are in
/// flight), zero-byte and simultaneous completions, and advances at,
/// before and again at the same instant. Rates reach down to 10 B/s and
/// some advances land a few microseconds before a completion, so flows
/// finish with a sub-epsilon residue whose bits expose any reordered
/// float operation through `finished_residue_bytes`.
///
/// Pools sized like the world's storage pool: a few hundred flows in a
/// handful of shared signatures (flows naming the same groups), filled
/// and drained in phases so that signatures empty and refill, which
/// resets their counters. Flows start in bursts of equal sizes (ties),
/// some at the instant another completes; one-flow signatures, flows
/// naming the same group twice, zero-byte flows and in-flight cap changes
/// are mixed in.
#[test]
fn fair_share_matches_formula_model() {
    forall_cases(128, |seed, rng| {
        let aggregate = if rng.uniform_u64(0, 4) == 0 {
            f64::INFINITY
        } else {
            log_uniform(rng, 3.0, 10.0)
        };
        let per_flow = log_uniform(rng, 2.0, 9.0);
        let mut pools = Harness::new(aggregate, per_flow);
        let mut declared: Vec<u64> = Vec::new();
        let mut now = SimTime::ZERO;
        for step in 0..rng.uniform_u64(1, 80) {
            let ctx = format!("seed {seed} step {step}");
            match rng.uniform_u64(0, 6) {
                0 => {
                    let group = rng.uniform_u64(0, 4);
                    let cap = log_uniform(rng, 1.0, 9.0);
                    pools.set_group_cap(group, cap);
                    if !declared.contains(&group) {
                        declared.push(group);
                    }
                }
                1 | 2 => {
                    let k = rng.uniform_u64(0, 3).min(declared.len() as u64);
                    let groups: Vec<u64> = (0..k)
                        .map(|_| declared[rng.uniform_u64(0, declared.len() as u64) as usize])
                        .collect();
                    let bytes = match rng.uniform_u64(0, 4) {
                        0 => 0,
                        1 => rng.uniform_u64(1, 1_000),
                        _ => rng.uniform_u64(0, 1_000_000_001),
                    };
                    pools.start(now, bytes, &groups);
                }
                3 => {
                    now = pools
                        .next_completion()
                        .unwrap_or(now + SimDuration::from_micros(rng.uniform_u64(0, 1_000)));
                    pools.advance(now, &ctx);
                }
                4 => {
                    let horizon = pools
                        .next_completion()
                        .map_or(1_000, |t| (t - now).as_micros());
                    let ahead = if rng.uniform_u64(0, 2) == 0 {
                        rng.uniform_u64(0, horizon + 1)
                    } else {
                        horizon.saturating_sub(rng.uniform_u64(1, 32))
                    };
                    now += SimDuration::from_micros(ahead);
                    pools.advance(now, &ctx);
                }
                _ => {
                    pools.advance(now, &ctx);
                    pools.advance(now, &ctx);
                }
            }
            pools.check(&ctx);
        }
    });

    // Hosts 0..4 and prefixes 100 and 101 make the shared signatures;
    // each one-flow signature gets a host group of its own from 1_000 on.
    const SHARED: [u64; 6] = [0, 1, 2, 3, 100, 101];
    forall_cases(4, |seed, rng| {
        let aggregate = log_uniform(rng, 8.0, 10.0);
        let per_flow = log_uniform(rng, 6.0, 8.5);
        let mut pools = Harness::new(aggregate, per_flow);
        for group in SHARED {
            pools.set_group_cap(group, log_uniform(rng, 7.0, 9.0));
        }
        let mut lone = 1_000;
        let mut now = SimTime::ZERO;
        for step in 0..240 {
            let ctx = format!("large seed {seed} step {step}");
            let filling = step % 80 < 40;
            match rng.uniform_u64(0, 10) {
                0..=5 if filling => {
                    if rng.uniform_u64(0, 3) == 0 {
                        // Start at the instant of the next completion,
                        // before the advance that reports it.
                        now = pools.next_completion().unwrap_or(now);
                    }
                    let host = rng.uniform_u64(0, 4);
                    let groups = match rng.uniform_u64(0, 6) {
                        0 => vec![host, host],
                        1 => vec![host],
                        _ => vec![host, 100 + rng.uniform_u64(0, 2)],
                    };
                    let bytes = match rng.uniform_u64(0, 8) {
                        0 => 0,
                        _ => rng.uniform_u64(1, 64) * 1_000_000,
                    };
                    for _ in 0..rng.uniform_u64(1, 24) {
                        let bytes = match rng.uniform_u64(0, 6) {
                            0 => rng.uniform_u64(0, 64_000_001),
                            _ => bytes,
                        };
                        pools.start(now, bytes, &groups);
                    }
                }
                0 | 1 => {
                    pools.set_group_cap(lone, log_uniform(rng, 6.0, 8.0));
                    let bytes = rng.uniform_u64(0, 64_000_001);
                    let groups = [lone, 100 + rng.uniform_u64(0, 2)];
                    pools.start(now, bytes, &groups);
                    lone += 1;
                }
                2 => {
                    let group = SHARED[rng.uniform_u64(0, 6) as usize];
                    pools.set_group_cap(group, log_uniform(rng, 7.0, 9.0));
                }
                3 => {
                    let horizon = pools
                        .next_completion()
                        .map_or(1_000, |t| (t - now).as_micros());
                    now += SimDuration::from_micros(horizon.saturating_sub(rng.uniform_u64(1, 32)));
                    pools.advance(now, &ctx);
                }
                _ => {
                    now = pools.next_completion().unwrap_or(now);
                    pools.advance(now, &ctx);
                }
            }
            pools.check(&ctx);
        }
    });
}

/// A signature that stays open while it serves more than 2^40 bytes to
/// each member keeps the resolution of a new one, because the pool
/// rebases its counter past 2^32 bytes: at 2^40 a counter's float
/// spacing is 2^-12 B, 24 µs at 10 B/s. Two lanes of 1–16 GB flows at
/// 4 GB/s each keep one signature open for over 2^40 bytes; then its cap
/// drops so that a new member of a few hundred bytes runs at ~10 B/s,
/// with advances at random instants before its completion. Every flow
/// finishes, the pool matches the counter model bit for bit, and the
/// slow member completes within 1 µs of the per-flow model.
#[test]
fn fair_share_long_lived_signature_keeps_its_resolution() {
    forall_cases(4, |seed, rng| {
        let mut pools = Harness::new(f64::INFINITY, 4e9);
        pools.set_group_cap(0, 8e9);
        let mut started = 0;
        let mut finished = 0;
        let mut served = 0.0;
        let mut now = SimTime::ZERO;
        for _ in 0..2 {
            pools.start(now, rng.uniform_u64(1_000_000_000, 16_000_000_001), &[0]);
            started += 1;
        }
        let mut step = 0;
        while served <= 2f64.powi(40) {
            let ctx = format!("seed {seed} step {step}: filling");
            let next = pools.next_completion().expect("two flows in flight");
            served += 4e9 * (next - now).as_secs_f64();
            now = next;
            let done = pools.advance(now, &ctx);
            finished += done;
            for _ in 0..done {
                pools.start(now, rng.uniform_u64(1_000_000_000, 16_000_000_001), &[0]);
                started += 1;
            }
            pools.check(&ctx);
            step += 1;
        }
        // Three members at cap / 3 each: ~10 B/s.
        pools.set_group_cap(0, log_uniform(rng, 1.45, 1.5));
        pools.start(now, rng.uniform_u64(100, 1_000), &[0]);
        started += 1;
        pools.check(&format!("seed {seed}: slow member started"));
        while finished < started - 2 {
            let ctx = format!("seed {seed} step {step}: slow");
            let horizon = (pools.next_completion().expect("in flight") - now).as_micros();
            now += SimDuration::from_micros(match rng.uniform_u64(0, 3) {
                0 => horizon,
                _ => rng.uniform_u64(0, horizon),
            });
            finished += pools.advance(now, &ctx);
            pools.check(&ctx);
            step += 1;
        }
        pools.set_group_cap(0, 8e9);
        while let Some(next) = pools.next_completion() {
            let ctx = format!("seed {seed} step {step}: draining");
            now = next;
            finished += pools.advance(now, &ctx);
            pools.check(&ctx);
            step += 1;
        }
        assert_eq!(finished, started, "seed {seed}");
    });
}

/// The pipelined drivers' readiness tracker against the fan-in rule it
/// replaced: a task is ready iff, for every edge into its node, every
/// upstream task of the edge's `fan_in_range` block is done. Graphs of
/// 1-6 nodes, widths 1-40, mix one-to-one edges that narrow, widen and
/// keep width with all-to-all edges and with two edges from one
/// upstream node. Tasks complete in random batches, now and then a
/// whole node at once, and some twice. After each batch every node's
/// ready and untaken tasks must be the model's; then a random prefix of
/// each is taken, as the fleet's quota does, and the rest carried over.
#[test]
fn readiness_matches_the_fan_in_rule() {
    forall_cases(150, |seed, rng| {
        let nodes = rng.uniform_u64(1, 7) as usize;
        let mut widths: Vec<usize> = Vec::new();
        let mut deps: Vec<Vec<Edge>> = Vec::new();
        for v in 0..nodes {
            let width = if v > 0 && rng.uniform_u64(0, 3) == 0 {
                widths[rng.uniform_u64(0, v as u64) as usize]
            } else {
                rng.uniform_u64(1, 41) as usize
            };
            let mut edges: Vec<Edge> = Vec::new();
            for _ in 0..if v > 0 { rng.uniform_u64(0, 3) } else { 0 } {
                let from = match edges.last() {
                    Some(e) if rng.uniform_u64(0, 2) == 0 => e.from,
                    _ => rng.uniform_u64(0, v as u64) as usize,
                };
                edges.push(if rng.uniform_u64(0, 3) == 0 {
                    Edge::all_to_all(from)
                } else {
                    Edge::one_to_one(from)
                });
            }
            widths.push(width);
            deps.push(edges);
        }
        let mut tracker = Readiness::new(widths.iter().copied().zip(deps.iter().cloned()));
        let mut done: Vec<Vec<bool>> = widths.iter().map(|&w| vec![false; w]).collect();
        let mut taken = done.clone();
        let mut order: Vec<(usize, usize)> = (0..nodes)
            .flat_map(|v| (0..widths[v]).map(move |t| (v, t)))
            .collect();
        let repeats: Vec<(usize, usize)> = order
            .iter()
            .copied()
            .filter(|_| rng.uniform_u64(0, 8) == 0)
            .collect();
        order.extend(repeats);
        rng.shuffle(&mut order);
        let mut next = 0;
        for batch in 0.. {
            for v in 0..nodes {
                let want: Vec<usize> = (0..widths[v])
                    .filter(|&t| {
                        !taken[v][t]
                            && deps[v].iter().all(|e| {
                                fan_in_range(e.fan_in, widths[e.from], widths[v], t)
                                    .all(|u| done[e.from][u])
                            })
                    })
                    .collect();
                let ctx =
                    format!("seed {seed} batch {batch} node {v} widths {widths:?} deps {deps:?}");
                let mut got: Vec<usize> = tracker.ready(v).collect();
                got.sort_unstable();
                assert_eq!(got, want, "{ctx}");
                assert_eq!(tracker.next_ready(v), want.first().copied(), "{ctx}");
                let prefix = rng.uniform_u64(0, want.len() as u64 + 1) as usize;
                for &t in &want[..prefix] {
                    assert_eq!(tracker.take_ready(v), Some(t), "{ctx}");
                    taken[v][t] = true;
                }
            }
            if next == order.len() {
                break;
            }
            if rng.uniform_u64(0, 10) == 0 {
                let v = rng.uniform_u64(0, nodes as u64) as usize;
                tracker.complete_node(v);
                done[v].iter_mut().for_each(|d| *d = true);
            }
            let end = (next + rng.uniform_u64(1, 13) as usize).min(order.len());
            for &(v, t) in &order[next..end] {
                tracker.complete(v, t);
                done[v][t] = true;
            }
            next = end;
        }
    });
}

/// Step-series integrals are additive over adjacent intervals.
#[test]
fn step_series_integral_is_additive() {
    forall_cases(128, |seed, rng| {
        let n = rng.uniform_u64(1, 32) as usize;
        let mut points: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.uniform_u64(0, 1000), rng.uniform(-100.0, 100.0)))
            .collect();
        let split = rng.uniform_u64(1, 999);
        points.sort_by_key(|&(t, _)| t);
        let mut series = StepSeries::new(0.0);
        let mut last = None;
        for (t, v) in points {
            if last == Some(t) {
                continue;
            }
            series.set(SimTime::from_micros(t), v);
            last = Some(t);
        }
        let a = SimTime::ZERO;
        let m = SimTime::from_micros(split);
        let b = SimTime::from_micros(1000);
        let whole = series.integral(a, b);
        let parts = series.integral(a, m) + series.integral(m, b);
        assert!((whole - parts).abs() < 1e-9, "seed {seed}");
    });
}

/// Object bodies report the length their constructor was given.
#[test]
fn object_body_length_is_stable() {
    forall_cases(128, |seed, rng| {
        let size = rng.uniform_u64(0, u64::from(u32::MAX)) as u32;
        let body = ObjectBody::opaque(size as u64);
        assert_eq!(body.len(), size as u64, "seed {seed}");
        let real = ObjectBody::real(vec![0u8; (size % 4096) as usize]);
        assert_eq!(real.len(), (size % 4096) as u64, "seed {seed}");
    });
}

/// SimDuration arithmetic is consistent with float seconds.
#[test]
fn duration_arithmetic_consistent() {
    forall_cases(256, |seed, rng| {
        let a = rng.uniform(0.0, 1e6);
        let b = rng.uniform(0.0, 1e6);
        let da = SimDuration::from_secs_f64(a);
        let db = SimDuration::from_secs_f64(b);
        let sum = (da + db).as_secs_f64();
        assert!((sum - (a + b)).abs() < 1e-5, "seed {seed}");
    });
}

/// Lambda billing is monotone in both duration and memory, and a GB-s
/// charge is never negative — even at zero duration or tiny memory.
#[test]
fn lambda_billing_monotone_and_non_negative() {
    let tariff = LambdaTariff::default();
    forall_cases(256, |seed, rng| {
        let mem_lo = rng.uniform_u64(0, 10_240) as u32;
        let mem_hi = mem_lo + rng.uniform_u64(0, 10_240) as u32;
        let secs_lo = rng.uniform(0.0, 3600.0);
        let secs_hi = secs_lo + rng.uniform(0.0, 3600.0);
        let base = tariff.compute_usd(mem_lo, secs_lo);
        assert!(base.is_finite() && base >= 0.0, "seed {seed}: {base}");
        assert!(
            tariff.compute_usd(mem_lo, secs_hi) >= base,
            "seed {seed}: longer run must not be cheaper"
        );
        assert!(
            tariff.compute_usd(mem_hi, secs_lo) >= base,
            "seed {seed}: more memory must not be cheaper"
        );
        assert!(tariff.compute_usd(0, 0.0) == 0.0, "seed {seed}");
    });
}

/// Per-second VM billing is positive and monotone in duration for every
/// catalog instance.
#[test]
fn vm_billing_monotone_in_duration() {
    forall_cases(128, |seed, rng| {
        let it = &catalog()[rng.uniform_u64(0, catalog().len() as u64) as usize];
        assert!(it.usd_per_second() > 0.0, "seed {seed}: {}", it.name);
        let lo = rng.uniform(0.0, 1e5);
        let hi = lo + rng.uniform(0.0, 1e5);
        assert!(
            it.usd_per_second() * hi >= it.usd_per_second() * lo,
            "seed {seed}: {}",
            it.name
        );
    });
}

/// A ledger's grand total is exactly the sum over its categories.
#[test]
fn ledger_total_is_sum_of_categories() {
    const CATEGORIES: [CostCategory; 5] = [
        CostCategory::FaasCompute,
        CostCategory::FaasRequests,
        CostCategory::StorageRequests,
        CostCategory::VmCompute,
        CostCategory::ManagedService,
    ];
    forall_cases(128, |seed, rng| {
        let mut ledger = CostLedger::new();
        let n = rng.uniform_u64(0, 64);
        for _ in 0..n {
            let cat = CATEGORIES[rng.uniform_u64(0, 5) as usize];
            ledger.charge(SimTime::ZERO, cat, rng.uniform(0.0, 10.0), "entry");
        }
        let by_category: f64 = CATEGORIES.iter().map(|&c| ledger.total_for(c)).sum();
        assert!(
            (ledger.total() - by_category).abs() < 1e-9,
            "seed {seed}: {} vs {}",
            ledger.total(),
            by_category
        );
    });
}

/// The hybrid architecture's bill is the sum of its fleet ledgers:
/// absorbing per-fleet ledgers into one preserves both the entries and
/// the total.
#[test]
fn hybrid_cost_is_sum_of_fleet_ledgers() {
    forall_cases(128, |seed, rng| {
        let fleets = rng.uniform_u64(1, 6) as usize;
        let mut parts = Vec::new();
        for f in 0..fleets {
            let mut ledger = CostLedger::new();
            for _ in 0..rng.uniform_u64(0, 16) {
                let cat = if f == 0 {
                    CostCategory::FaasCompute
                } else {
                    CostCategory::VmCompute
                };
                ledger.charge(SimTime::ZERO, cat, rng.uniform(0.0, 5.0), format!("fleet-{f}"));
            }
            parts.push(ledger);
        }
        let expected_total: f64 = parts.iter().map(CostLedger::total).sum();
        let expected_entries: usize = parts.iter().map(|l| l.entries().len()).sum();
        let mut merged = CostLedger::new();
        for part in parts {
            merged.absorb(part);
        }
        assert_eq!(merged.entries().len(), expected_entries, "seed {seed}");
        assert!(
            (merged.total() - expected_total).abs() < 1e-9,
            "seed {seed}: {} vs {expected_total}",
            merged.total()
        );
    });
}

// ---------------------------------------------------------------------
// Master fault tolerance (serverful::recovery)
// ---------------------------------------------------------------------

/// Shape of one node of a random recovery graph — plain data so the
/// same graph can be rebuilt for the fault-free and the killed run.
struct RecNode {
    tasks: usize,
    /// `(upstream node, all_to_all)` dependency edges.
    deps: Vec<(usize, bool)>,
    secs: f64,
}

fn arb_recovery_graph(rng: &mut SimRng) -> Vec<RecNode> {
    let nodes = rng.uniform_u64(3, 7) as usize;
    (0..nodes)
        .map(|v| {
            let tasks = rng.uniform_u64(1, 5) as usize;
            let mut deps: Vec<(usize, bool)> = Vec::new();
            if v > 0 {
                for _ in 0..rng.uniform_u64(1, 3) {
                    let from = rng.uniform_u64(0, v as u64) as usize;
                    if !deps.iter().any(|d| d.0 == from) {
                        deps.push((from, rng.uniform_u64(0, 2) == 1));
                    }
                }
            }
            RecNode {
                tasks,
                deps,
                secs: 0.05 + rng.uniform_u64(0, 8) as f64 / 20.0,
            }
        })
        .collect()
}

struct RecCtx {
    exec: serverful_repro::serverful::FunctionExecutor,
}

/// Every task writes one deterministic object keyed by its node and
/// partition — re-executions after a master kill rewrite the same
/// key/content, so the bucket digest is invariant iff recovery loses
/// and duplicates nothing.
fn build_recovery_dag(
    spec: &[RecNode],
) -> serverful_repro::serverful::Dag<RecCtx> {
    use serverful_repro::serverful::{Dag, DagNode, Edge, FanIn, MapOptions, ScriptTask};
    let mut dag: Dag<RecCtx> = Dag::new();
    for (v, n) in spec.iter().enumerate() {
        let tasks = n.tasks;
        let secs = n.secs;
        let label = format!("n{v}");
        dag.add_node(DagNode {
            label: label.clone(),
            group: None,
            tasks,
            deps: n
                .deps
                .iter()
                .map(|&(from, all)| Edge {
                    from,
                    fan_in: if all { FanIn::AllToAll } else { FanIn::OneToOne },
                })
                .collect(),
            launch: Box::new(move |ctx: &mut RecCtx, env, gated| {
                let mut opts = MapOptions::named(label.clone());
                if gated {
                    opts = opts.gated();
                }
                let node = v;
                let factory = std::sync::Arc::new(move |input: &Payload| {
                    let t = match input {
                        Payload::U64(t) => *t,
                        _ => unreachable!("recovery graph inputs are U64"),
                    };
                    ScriptTask::new()
                        .compute(secs)
                        .put(
                            "recprop",
                            format!("out/n{node}/t{t:03}"),
                            ObjectBody::opaque(256 + 16 * (node as u64 * 31 + t)),
                        )
                        .finish_value(Payload::U64(t))
                        .boxed()
                });
                let inputs = (0..tasks as u64).map(Payload::U64).collect();
                Ok(ctx.exec.map_with(env, factory, inputs, opts))
            }),
        });
    }
    dag
}

/// FNV-1a over the output bucket's keys and object lengths.
fn recovery_bucket_digest(env: &serverful_repro::serverful::CloudEnv) -> u64 {
    let store = env.world().store();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for key in store.list_prefix("recprop", "") {
        key.as_bytes().iter().for_each(|b| mix(*b));
        mix(0);
        let len = store.get("recprop", &key).expect("listed key exists").len();
        len.to_le_bytes().iter().for_each(|b| mix(*b));
    }
    h
}

/// Runs one recovery graph on a small dedicated-master fleet under
/// `mode`, optionally killing the master at routed-event index
/// `kill_at`; returns the output digest and events routed.
fn run_recovery_case(
    spec: &[RecNode],
    seed: u64,
    mode: serverful_repro::serverful::RecoveryMode,
    kill_at: Option<u64>,
) -> Result<(u64, u64), serverful_repro::serverful::ExecError> {
    use serverful_repro::serverful::{
        run_dag, Backend, CloudEnv, ExecMode, ExecutionMode, ExecutorConfig, FunctionExecutor,
    };
    let mut env = CloudEnv::new_default(seed);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.large".to_owned(),
        count: 2,
    };
    cfg.standalone.recovery = mode;
    // Short jobs: checkpoint aggressively so kills land on real replays,
    // not just the adopt-everything fallback.
    cfg.standalone.checkpoint_interval_secs = 0.5;
    let exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    if let Some(at) = kill_at {
        env.arm_master_kill(0, at);
    }
    let mut ctx = RecCtx { exec };
    let dag = build_recovery_dag(spec);
    run_dag(&mut env, &mut ctx, dag, ExecutionMode::Pipelined)?;
    assert_eq!(
        env.pending_master_kills(),
        0,
        "armed master kill never fired (landed beyond the run's event horizon)"
    );
    Ok((recovery_bucket_digest(&env), env.events_routed()))
}

/// The recovery property: killing the master at *any* routed-event
/// index leaves the final task-output digest identical to the
/// fault-free run.
fn master_kill_preserves_outputs(mode: serverful_repro::serverful::RecoveryMode) {
    forall_cases(6, |seed, rng| {
        let spec = arb_recovery_graph(rng);
        let (base, events) = run_recovery_case(&spec, seed, mode, None)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: fault-free {} run: {e}", mode.name()));
        assert!(events > 20, "seed {seed:#x}: suspiciously quiet run");
        for _ in 0..2 {
            let at = rng.uniform_u64(events / 10 + 1, events * 4 / 5 + 2);
            let (digest, _) = run_recovery_case(&spec, seed, mode, Some(at))
                .unwrap_or_else(|e| {
                    panic!("seed {seed:#x}: {} kill at {at}/{events}: {e}", mode.name())
                });
            assert_eq!(
                digest, base,
                "seed {seed:#x}: {} master kill at event {at}/{events} changed the outputs",
                mode.name()
            );
        }
    });
}

#[test]
fn master_kill_preserves_outputs_checkpointed() {
    master_kill_preserves_outputs(serverful_repro::serverful::RecoveryMode::Checkpointed);
}

#[test]
fn master_kill_preserves_outputs_decentralized() {
    master_kill_preserves_outputs(serverful_repro::serverful::RecoveryMode::Decentralized);
}

/// The paper's unprotected master, as a property: the same graphs and
/// kill points that the recoverable modes survive must *fail* under
/// [`RecoveryMode::Protected`] — queued bundles die with the KV store.
#[test]
fn master_kill_strands_protected_runs() {
    use serverful_repro::serverful::RecoveryMode;
    forall_cases(4, |seed, rng| {
        let spec = arb_recovery_graph(rng);
        let (_, events) = run_recovery_case(&spec, seed, RecoveryMode::Protected, None)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: fault-free protected run: {e}"));
        let at = rng.uniform_u64(events / 10 + 1, events / 2 + 2);
        assert!(
            run_recovery_case(&spec, seed, RecoveryMode::Protected, Some(at)).is_err(),
            "seed {seed:#x}: protected run survived a master kill at {at}/{events}"
        );
    });
}
