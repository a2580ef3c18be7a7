//! Unit behaviour of the fair-share pool through its public API: rates
//! under the per-flow, aggregate and group caps, departures speeding up
//! the flows left, completion instants rounded up to the microsecond, and
//! the panics on undeclared groups and on a third group.

use simkernel::{FairShare, FlowId, SimTime};

fn t(secs: f64) -> SimTime {
    SimTime::from_secs_f64(secs)
}

/// The flows `pool.advance(now, ..)` finished.
fn advance(pool: &mut FairShare, now: SimTime) -> Vec<FlowId> {
    let mut done = Vec::new();
    pool.advance(now, &mut done);
    done
}

#[test]
fn single_flow_runs_at_per_flow_cap() {
    let mut pool = FairShare::new(1000.0, 100.0);
    pool.start(t(0.0), 100, &[]);
    assert_eq!(pool.next_completion(), Some(t(1.0)));
    let done = advance(&mut pool, t(1.0));
    assert_eq!(done.len(), 1);
    assert_eq!(pool.active(), 0);
}

#[test]
fn aggregate_cap_splits_between_flows() {
    // Aggregate 100 B/s, per-flow 100 B/s: two flows run at 50 each.
    let mut pool = FairShare::new(100.0, 100.0);
    pool.start(t(0.0), 100, &[]);
    pool.start(t(0.0), 100, &[]);
    assert_eq!(pool.next_completion(), Some(t(2.0)));
    assert_eq!(advance(&mut pool, t(2.0)).len(), 2);
}

#[test]
fn departure_speeds_up_survivors() {
    // Flow A: 50 bytes, flow B: 150 bytes, aggregate 100 B/s.
    let mut pool = FairShare::new(100.0, 100.0);
    pool.start(t(0.0), 50, &[]);
    pool.start(t(0.0), 150, &[]);
    // Both at 50 B/s; A finishes at t=1 with B holding 100 bytes.
    assert_eq!(pool.next_completion(), Some(t(1.0)));
    assert_eq!(advance(&mut pool, t(1.0)).len(), 1);
    // B alone now runs at 100 B/s: 100 bytes -> 1 more second.
    assert_eq!(pool.next_completion(), Some(t(2.0)));
    assert_eq!(advance(&mut pool, t(2.0)).len(), 1);
}

#[test]
fn group_cap_limits_colocated_flows() {
    // Huge aggregate, per-flow 100, but the two flows share a 100 B/s
    // NIC -> 50 each.
    let mut pool = FairShare::new(f64::INFINITY, 100.0);
    pool.set_group_cap(7, 100.0);
    pool.start(t(0.0), 100, &[7]);
    pool.start(t(0.0), 100, &[7]);
    assert_eq!(pool.next_completion(), Some(t(2.0)));
    // A flow on another group is unaffected.
    pool.set_group_cap(8, 1000.0);
    pool.start(t(0.0), 100, &[8]);
    // Third flow runs at min(100, inf/3, 1000/1) = 100 B/s -> 1s.
    assert_eq!(pool.next_completion(), Some(t(1.0)));
}

#[test]
fn zero_byte_flow_completes_immediately() {
    let mut pool = FairShare::new(100.0, 100.0);
    pool.start(t(0.0), 0, &[]);
    assert_eq!(advance(&mut pool, t(0.0)).len(), 1);
}

#[test]
fn completion_time_rounds_up() {
    // 1 byte at 3 B/s = 333333.33 micros; must round *up*.
    let mut pool = FairShare::new(100.0, 3.0);
    pool.start(t(0.0), 1, &[]);
    let done_at = pool.next_completion().unwrap();
    assert!(done_at.as_micros() >= 333_334);
    assert_eq!(advance(&mut pool, done_at).len(), 1);
}

#[test]
#[should_panic(expected = "declared before use")]
fn undeclared_group_panics() {
    let mut pool = FairShare::new(100.0, 100.0);
    pool.start(t(0.0), 10, &[99]);
}

#[test]
#[should_panic(expected = "at most 2 groups")]
fn third_group_panics() {
    let mut pool = FairShare::new(100.0, 100.0);
    for g in 0..3 {
        pool.set_group_cap(g, 100.0);
    }
    pool.start(t(0.0), 10, &[0, 1, 2]);
}
