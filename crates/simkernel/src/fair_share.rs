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
//! Flows that name the same group slots in the same order form a
//! *signature*, e.g. one host's NIC plus one key prefix. Every member of
//! a signature has the same rate at every instant, so each interval
//! takes the same `rate * dt` off all of them and their order by
//! remaining bytes never changes. Each signature keeps its members in
//! that order: the one with the fewest remaining bytes inline, the rest
//! in a buffer sorted most-first, so the next to finish is popped from
//! its back. Signatures live in one vector; an emptied one moves past
//! the live ones and is reused, buffer included, by the next new
//! signature. Groups live in a vector indexed by the slot
//! [`FairShare::set_group_cap`] assigned, each caching its per-member
//! share `cap / members`.
//!
//! So the cost of a call is O(signatures), not O(flows), for the rates
//! (one per signature), for [`FairShare::next_completion`] (a
//! signature's next completion is its smallest member's) and for finding
//! the finished flows in [`FairShare::advance`] (a prefix of each
//! signature). What stays O(flows) is bringing progress up to date, one
//! contiguous `(remaining - served).max(0.0)` loop per signature, and
//! placing a started flow among its signature's members. Only
//! `set_group_cap` and `start` map a group id to its slot. `start` finds
//! a flow's signature by comparing slots, with no hashing, and skips the
//! search when one of its groups had no members: then no signature names
//! that group. A signature of one flow holds it inline and allocates
//! nothing.
//!
//! # Exactness
//!
//! Simulated outputs depend bit for bit on these float operations, which
//! are those of the per-flow formula, with the same operands in the same
//! order:
//!
//! * rate is `per_flow.min(aggregate / n)`, then `.min(share)` for each
//!   of the flow's groups in the order given to `start`. `min` is exact,
//!   so one rate per signature is every member's rate;
//! * over an interval `dt`, remaining becomes
//!   `(remaining - rate * dt).max(0.0)`, with `rate * dt` rounded once
//!   per signature. Rounding is monotone, so the step keeps a
//!   signature's members in order;
//! * the next completion is `ceil(min(remaining.max(0) / rate) * 1e6)` µs
//!   after the last update. Dividing by a positive rate is monotone, so a
//!   signature's minimum is its smallest member's, and `min` over the
//!   signatures is order-free;
//! * finished flows are reported, and their residue added to
//!   [`FairShare::completed_bytes`], in [`FlowId`] order: they are
//!   gathered from the signatures and sorted by id first.
//!
//! The pool is deliberately not a virtual-time design, a cumulative
//! service counter per signature and a heap of finish tags, which would
//! drop the O(flows) step and make each call O(log n): that design
//! subtracts service in a different association order, which moves
//! completions by a microsecond.

use crate::idmap::IdMap;
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

/// Fills the group slots a [`Signature`] does not use.
const NO_SLOT: u32 = u32::MAX;

/// An in-flight flow.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: FlowId,
    remaining: f64,
}

/// The in-flight flows that name the same group slots in the same order.
#[derive(Debug)]
struct Signature {
    /// Slots of the groups in [`FairShare::groups`], then [`NO_SLOT`].
    slots: [u32; MAX_GROUPS],
    /// The member with the fewest remaining bytes: the next to finish.
    head: Member,
    /// The other members, most remaining bytes first.
    rest: Vec<Member>,
}

impl Signature {
    fn slots(&self) -> impl Iterator<Item = &u32> {
        self.slots.iter().take_while(|&&slot| slot != NO_SLOT)
    }

    /// Every member's rate: `base` capped by each of the groups' shares.
    fn rate(&self, base: f64, groups: &[Group]) -> f64 {
        self.slots()
            .fold(base, |rate, &slot| rate.min(groups[slot as usize].share))
    }

    /// Adds a member in its place by remaining bytes.
    fn insert(&mut self, member: Member) {
        if member.remaining < self.head.remaining {
            self.rest.push(std::mem::replace(&mut self.head, member));
        } else {
            let at = self
                .rest
                .partition_point(|m| m.remaining > member.remaining);
            self.rest.insert(at, member);
        }
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
    /// Signatures with in-flight flows (`..live`), then emptied ones
    /// kept for reuse.
    sigs: Vec<Signature>,
    live: usize,
    /// In-flight flows, over all signatures.
    flows: usize,
    groups: Vec<Group>,
    /// Group id to its slot in `groups`.
    slot_of: IdMap<u64, u32>,
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
            sigs: Vec::new(),
            live: 0,
            flows: 0,
            groups: Vec::new(),
            slot_of: IdMap::default(),
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
            u32::try_from(groups.len() - 1).expect("a pool holds fewer than 2^32 groups")
        });
        let group = &mut groups[slot as usize];
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
        let mut slots = [NO_SLOT; MAX_GROUPS];
        // A group that no in-flight flow names is in no live signature.
        let mut fresh = false;
        for (slot, g) in slots.iter_mut().zip(groups) {
            *slot = *self
                .slot_of
                .get(g)
                .expect("flow group must be declared before use");
            let group = &mut self.groups[*slot as usize];
            fresh |= group.active == 0;
            group.active += 1;
            group.refresh();
        }
        let member = Member {
            id: FlowId(self.next_id),
            remaining: bytes as f64,
        };
        self.next_id += 1;
        self.flows += 1;
        let live = &mut self.sigs[..self.live];
        let found = if fresh {
            None
        } else {
            live.iter_mut().find(|sig| sig.slots == slots)
        };
        if let Some(sig) = found {
            sig.insert(member);
        } else if let Some(sig) = self.sigs.get_mut(self.live) {
            (sig.slots, sig.head) = (slots, member);
            self.live += 1;
        } else {
            self.sigs.push(Signature {
                slots,
                head: member,
                rest: Vec::new(),
            });
            self.live += 1;
        }
        member.id
    }

    /// Advances all flows to `now` and returns the flows that completed,
    /// in deterministic (FlowId) order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime) -> Vec<FlowId> {
        self.progress_to(now);
        // Most calls finish nothing; look for a finished head first.
        let first = self.sigs[..self.live]
            .iter()
            .position(|sig| sig.head.remaining <= DONE_EPSILON_BYTES);
        let Some(mut i) = first else {
            return Vec::new();
        };
        let mut done = Vec::new();
        while i < self.live {
            let sig = &mut self.sigs[i];
            let before = done.len();
            let mut emptied = false;
            while sig.head.remaining <= DONE_EPSILON_BYTES {
                done.push(sig.head);
                match sig.rest.pop() {
                    Some(next) => sig.head = next,
                    None => {
                        emptied = true;
                        break;
                    }
                }
            }
            let finished = done.len() - before;
            if finished > 0 {
                for &slot in sig.slots() {
                    let group = &mut self.groups[slot as usize];
                    group.active -= finished;
                    group.refresh();
                }
            }
            if emptied {
                self.live -= 1;
                self.sigs.swap(i, self.live);
            } else {
                i += 1;
            }
        }
        self.flows -= done.len();
        done.sort_unstable_by_key(|m| m.id);
        done.iter()
            .map(|m| {
                self.completed_bytes += 0.0f64.max(m.remaining); // residue is ~0
                m.id
            })
            .collect()
    }

    /// The earliest instant at which some current flow completes, assuming
    /// membership does not change. `None` when the pool is idle.
    pub fn next_completion(&self) -> Option<SimTime> {
        let base = self.base_rate();
        let min_secs = self.sigs[..self.live]
            .iter()
            .map(|sig| sig.head.remaining.max(0.0) / sig.rate(base, &self.groups))
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
        self.flows
    }

    /// Total bytes fully transferred through this pool so far.
    pub fn completed_bytes(&self) -> f64 {
        self.completed_bytes
    }

    /// The cap every flow is under before its groups':
    /// `per_flow.min(aggregate / n)`.
    fn base_rate(&self) -> f64 {
        let n = self.flows.max(1) as f64;
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
        if dt == 0.0 || self.flows == 0 {
            return;
        }
        // Rates depend only on membership, which is constant over the
        // interval, so a single linear step is exact.
        let base = self.base_rate();
        for sig in &mut self.sigs[..self.live] {
            let served = sig.rate(base, &self.groups) * dt;
            sig.head.remaining = (sig.head.remaining - served).max(0.0);
            for m in &mut sig.rest {
                m.remaining = (m.remaining - served).max(0.0);
            }
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
