//! Max-min style bandwidth sharing for contended links.
//!
//! [`FairShare`] models a shared transfer medium — the aggregate throughput
//! of an object-storage service, a VM NIC, the memory bus of a host — as a
//! set of concurrent flows that split capacity. Each flow's instantaneous
//! rate is
//!
//! ```text
//! rate(f) = min(per_flow_cap, aggregate_cap / n_active, group_cap(f) / n_group(f))
//! ```
//!
//! which is a *conservative* approximation of true max-min fairness:
//! capacity left unused by flows bottlenecked elsewhere is not
//! redistributed. This errs towards slower transfers under contention,
//! which is the effect the paper's storage-saturation argument rests on.
//!
//! The pool does not own an event queue. Drivers integrate it with three
//! calls: [`FairShare::start`]/[`FairShare::advance`] whenever membership
//! changes, and [`FairShare::next_completion`] to know when to look again.
//!
//! # Layout and cost
//!
//! In-flight flows live in one `Vec` in [`FlowId`] order, each holding its
//! remaining bytes and up to two group slots inline. Groups live in a
//! `Vec` indexed by the slot [`FairShare::set_group_cap`] assigned, and
//! each caches its per-member share `cap / members`, refreshed whenever
//! its membership or cap changes. So [`FairShare::advance`] and
//! [`FairShare::next_completion`] are each one pass over the in-flight
//! flows with no hashing, and no allocation beyond the returned list of
//! finished flows; `advance` compacts the vector in place, which keeps
//! [`FlowId`] order. Only `set_group_cap`, `has_group` and `start` map a
//! group id to its slot.
//!
//! The pool is deliberately not a virtual-time design (a cumulative
//! service counter per group signature and a heap of finish tags), which
//! would make each call O(log n): that design subtracts service in a
//! different association order, which moves completions by a microsecond.
//! Every flow here performs these float operations, in this order, and
//! simulated outputs depend on them bit for bit:
//!
//! * rate is `per_flow.min(aggregate / n)`, then `.min(share)` for each of
//!   the flow's groups in the order given to `start`;
//! * over an interval `dt`, remaining becomes `(remaining - rate * dt).max(0.0)`;
//! * the next completion is `ceil(min(remaining.max(0) / rate) * 1e6)` µs
//!   after the last update;
//! * finished flows are reported, and their residue added to
//!   [`FairShare::completed_bytes`], in [`FlowId`] order.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// Identifies an in-flight transfer within one [`FairShare`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Remaining bytes below this threshold count as "done"; guards against
/// float residue when progress is integrated in pieces.
const DONE_EPSILON_BYTES: f64 = 1e-3;

/// The most groups one flow may belong to: the world constrains a flow by
/// the requester's NIC and the key prefix, or by both endpoints' NICs.
const MAX_GROUPS: usize = 2;

#[derive(Debug, Clone)]
struct Flow {
    id: FlowId,
    remaining: f64,
    /// Slots of this flow's groups in [`FairShare::groups`]; the first
    /// `n_groups` are in use.
    slots: [usize; MAX_GROUPS],
    n_groups: usize,
}

impl Flow {
    fn slots(&self) -> &[usize] {
        &self.slots[..self.n_groups]
    }

    /// This flow's rate: `base` capped by each of its groups' shares.
    fn rate(&self, base: f64, groups: &[Group]) -> f64 {
        self.slots()
            .iter()
            .fold(base, |rate, &slot| rate.min(groups[slot].share))
    }
}

#[derive(Debug, Clone, Default)]
struct Group {
    cap_bps: f64,
    active: usize,
    /// `cap_bps / active.max(1)`: the most each member may take.
    share: f64,
}

impl Group {
    /// Recomputes `share` after `cap_bps` or `active` changed.
    fn refresh(&mut self) {
        self.share = self.cap_bps / self.active.max(1) as f64;
    }
}

/// A fair-share bandwidth pool. See the [module docs](self) for the model.
///
/// # Example
///
/// ```
/// use simkernel::{FairShare, SimTime};
///
/// // 100 B/s aggregate, 80 B/s per flow.
/// let mut pool = FairShare::new(100.0, 80.0);
/// let t0 = SimTime::ZERO;
/// pool.start(t0, 80, &[]); // alone: runs at 80 B/s -> 1 s
/// assert_eq!(pool.next_completion().unwrap().as_secs_f64(), 1.0);
/// ```
#[derive(Debug)]
pub struct FairShare {
    aggregate_bps: f64,
    per_flow_bps: f64,
    /// In-flight flows in [`FlowId`] order.
    flows: Vec<Flow>,
    groups: Vec<Group>,
    /// Group id to its slot in `groups`.
    slot_of: HashMap<u64, usize>,
    last_update: SimTime,
    next_id: u64,
    /// Total bytes that have finished transferring through this pool.
    completed_bytes: f64,
}

impl FairShare {
    /// Creates a pool with the given aggregate and per-flow caps in
    /// bytes/second. The aggregate cap may be `f64::INFINITY` for an
    /// uncontended medium; the per-flow cap must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `per_flow_bps` is not finite and positive, or if
    /// `aggregate_bps` is not positive.
    pub fn new(aggregate_bps: f64, per_flow_bps: f64) -> Self {
        assert!(
            per_flow_bps.is_finite() && per_flow_bps > 0.0,
            "per-flow cap must be finite and positive"
        );
        assert!(aggregate_bps > 0.0, "aggregate cap must be positive");
        FairShare {
            aggregate_bps,
            per_flow_bps,
            flows: Vec::new(),
            groups: Vec::new(),
            slot_of: HashMap::new(),
            last_update: SimTime::ZERO,
            next_id: 0,
            completed_bytes: 0.0,
        }
    }

    /// Declares (or updates) the capacity of a flow group, typically one
    /// host's NIC. A new cap applies to in-flight members from the last
    /// update on.
    ///
    /// # Panics
    ///
    /// Panics if `cap_bps` is not positive.
    pub fn set_group_cap(&mut self, group: u64, cap_bps: f64) {
        assert!(cap_bps > 0.0, "group cap must be positive");
        let groups = &mut self.groups;
        let slot = *self.slot_of.entry(group).or_insert_with(|| {
            groups.push(Group::default());
            groups.len() - 1
        });
        let group = &mut groups[slot];
        group.cap_bps = cap_bps;
        group.refresh();
    }

    /// Starts a transfer of `bytes` at time `now`, constrained by zero,
    /// one or two group caps (e.g. the host's NIC and the storage key
    /// prefix). Progress of all existing flows is brought up to `now`
    /// first; call [`Self::advance`] *before* `start` if you need the
    /// completions that may occur at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if `groups` names more than two groups, if `now` precedes
    /// the last update, or if a group was never declared via
    /// [`Self::set_group_cap`].
    pub fn start(&mut self, now: SimTime, bytes: u64, groups: &[u64]) -> FlowId {
        assert!(
            groups.len() <= MAX_GROUPS,
            "a flow belongs to at most {MAX_GROUPS} groups, got {}",
            groups.len()
        );
        self.progress_to(now);
        let mut slots = [0; MAX_GROUPS];
        for (slot, g) in slots.iter_mut().zip(groups) {
            *slot = *self
                .slot_of
                .get(g)
                .expect("flow group must be declared before use");
            let group = &mut self.groups[*slot];
            group.active += 1;
            group.refresh();
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.push(Flow {
            id,
            remaining: bytes as f64,
            slots,
            n_groups: groups.len(),
        });
        id
    }

    /// Whether a group has been declared.
    pub fn has_group(&self, group: u64) -> bool {
        self.slot_of.contains_key(&group)
    }

    /// Advances all flows to `now` and returns the flows that completed,
    /// in deterministic (FlowId) order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) -> Vec<FlowId> {
        self.progress_to(now);
        let mut done = Vec::new();
        let (groups, completed_bytes) = (&mut self.groups, &mut self.completed_bytes);
        self.flows.retain(|flow| {
            if flow.remaining > DONE_EPSILON_BYTES {
                return true;
            }
            *completed_bytes += 0.0f64.max(flow.remaining); // residue is ~0
            for &slot in flow.slots() {
                let group = &mut groups[slot];
                group.active -= 1;
                group.refresh();
            }
            done.push(flow.id);
            false
        });
        done
    }

    /// The earliest instant at which some current flow completes, assuming
    /// membership does not change. `None` when the pool is idle.
    pub fn next_completion(&self) -> Option<SimTime> {
        let base = self.base_rate();
        let min_secs = self
            .flows
            .iter()
            .map(|f| f.remaining.max(0.0) / f.rate(base, &self.groups))
            .fold(f64::INFINITY, f64::min);
        if min_secs.is_finite() {
            // Round up to the next whole microsecond so the driver's tick
            // never lands strictly before the flow is actually done.
            let micros = (min_secs * 1e6).ceil() as u64;
            Some(self.last_update + SimDuration::from_micros(micros))
        } else {
            None
        }
    }

    /// Number of in-flight transfers.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes fully transferred through this pool so far.
    pub fn completed_bytes(&self) -> f64 {
        self.completed_bytes
    }

    /// The cap every flow is under before its groups':
    /// `per_flow.min(aggregate / n)`.
    fn base_rate(&self) -> f64 {
        let n = self.flows.len().max(1) as f64;
        self.per_flow_bps.min(self.aggregate_bps / n)
    }

    fn progress_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "fair-share pool asked to move backwards: {} < {}",
            now,
            self.last_update
        );
        let dt = (now - self.last_update).as_secs_f64();
        self.last_update = now;
        if dt == 0.0 || self.flows.is_empty() {
            return;
        }
        // Rates depend only on membership, which is constant over the
        // interval, so a single linear step is exact.
        let base = self.base_rate();
        for flow in &mut self.flows {
            let rate = flow.rate(base, &self.groups);
            flow.remaining = (flow.remaining - rate * dt).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_runs_at_per_flow_cap() {
        let mut pool = FairShare::new(1000.0, 100.0);
        pool.start(t(0.0), 100, &[]);
        assert_eq!(pool.next_completion(), Some(t(1.0)));
        let done = pool.advance(t(1.0));
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
        assert_eq!(pool.advance(t(2.0)).len(), 2);
    }

    #[test]
    fn departure_speeds_up_survivors() {
        // Flow A: 50 bytes, flow B: 150 bytes, aggregate 100 B/s.
        let mut pool = FairShare::new(100.0, 100.0);
        pool.start(t(0.0), 50, &[]);
        pool.start(t(0.0), 150, &[]);
        // Both at 50 B/s; A finishes at t=1 with B holding 100 bytes.
        assert_eq!(pool.next_completion(), Some(t(1.0)));
        assert_eq!(pool.advance(t(1.0)).len(), 1);
        // B alone now runs at 100 B/s: 100 bytes -> 1 more second.
        assert_eq!(pool.next_completion(), Some(t(2.0)));
        assert_eq!(pool.advance(t(2.0)).len(), 1);
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
        assert_eq!(pool.advance(t(0.0)).len(), 1);
    }

    #[test]
    fn completion_time_rounds_up() {
        // 1 byte at 3 B/s = 333333.33 micros; must round *up*.
        let mut pool = FairShare::new(100.0, 3.0);
        pool.start(t(0.0), 1, &[]);
        let done_at = pool.next_completion().unwrap();
        assert!(done_at.as_micros() >= 333_334);
        assert_eq!(pool.advance(done_at).len(), 1);
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
}
