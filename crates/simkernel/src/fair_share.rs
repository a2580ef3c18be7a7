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
//! a signature has the same rate at every instant, so the signature
//! keeps one service counter, `served`: the bytes it has served to each
//! member since it opened. An interval `dt` adds `rate * dt` to the
//! counter and touches no member. A member keeps the finish tag
//! `served + bytes` taken when it starts and never changed after, so its
//! remaining bytes are `(tag - served).max(0.0)` and the member with the
//! smallest tag is the next to finish. Each signature keeps that member
//! inline and the others in a buffer sorted by tag, largest first, so
//! the next to finish is popped from its back.
//!
//! Each signature also caches its rate. A start, a finish or a cap
//! change marks every cached rate stale, and the next call that needs
//! rates computes them again, once per signature. Signatures live in one
//! vector; an emptied one moves past the live ones and is reused, buffer
//! included, by the next new signature, with its counter back at zero.
//! Groups live in a vector indexed by the slot
//! [`FairShare::set_group_cap`] assigned, each caching its per-member
//! share `cap / members`.
//!
//! So bringing progress up to date, [`FairShare::next_completion`] and
//! finding the finished flows in [`FairShare::advance`] each touch every
//! live signature once and no member: a call costs O(signatures), not
//! O(flows). Per member there is only placing a started flow among its
//! signature's members and popping a finished one. Only `set_group_cap`
//! and `start` map a group id to its slot. `start` finds a flow's
//! signature by comparing slots, with no hashing, and skips the search
//! when one of its groups had no members: then no signature names that
//! group. A signature of one flow holds it inline and allocates nothing.
//!
//! A counter grows for as long as its signature has members, and
//! `tag - served` loses resolution as it grows: at 2^40 bytes the float
//! spacing is 2^-12 B, 24 µs at 10 B/s. So once a counter passes 2^32
//! bytes the signature is *rebased*: the counter is subtracted from each
//! member's tag and set to zero. Below 2^32 the spacing is at most
//! 2^-20 B (~1e-6 B), that of a few-GB per-flow value.
//!
//! # Exactness
//!
//! Simulated outputs depend bit for bit on these float operations:
//!
//! * rate is `per_flow.min(aggregate / n)`, then `.min(share)` for each
//!   of the flow's groups in the order given to `start`. `min` is exact,
//!   so one rate per signature is every member's rate;
//! * over an interval `dt`, a signature's counter becomes
//!   `served + rate * dt`. If that exceeds 2^32 bytes, every member's tag
//!   becomes `tag - served` and the counter zero;
//! * a flow of `bytes` started into a signature takes the tag
//!   `served + bytes`, after progress is brought up to the start. A
//!   signature that opens, or opens again after it emptied, starts its
//!   counter at zero;
//! * a member is done once `tag - served` is at most 1e-3 B. Rounding is
//!   monotone, so sorting by tag sorts by remaining bytes, and the done
//!   members are a prefix;
//! * the next completion is `ceil(min((tag - served).max(0) / rate) * 1e6)`
//!   µs after the last update. Dividing by a positive rate is monotone,
//!   so a signature's minimum is its smallest tag's, and `min` over the
//!   signatures is order-free;
//! * finished flows are reported, and their residue
//!   `(tag - served).max(0)` added to [`FairShare::finished_residue_bytes`],
//!   in [`FlowId`] order: they are gathered from the signatures into a
//!   buffer the pool keeps, and sorted by id first. The ids go into a
//!   vector the caller owns, so a call allocates nothing once both
//!   buffers have grown.
//!
//! In exact arithmetic this is the per-flow formula, each flow's
//! remaining bytes falling by `rate * dt` over every interval. In floats
//! the counter sums the services in another association order, so a
//! completion may come a microsecond apart from that formula's, with the
//! same flows in flight at every step.

use crate::idmap::IdMap;
use crate::time::{SimDuration, SimTime};

/// Identifies an in-flight transfer within one [`FairShare`] pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Remaining bytes below this threshold count as "done"; guards against
/// float residue when progress is integrated in pieces.
const DONE_EPSILON_BYTES: f64 = 1e-3;

/// A signature whose counter passes this many bytes is rebased, so that
/// `tag - served` keeps a resolution of 2^-20 B.
const REBASE_BYTES: f64 = (1u64 << 32) as f64;

/// The most groups one flow may belong to: the world constrains a flow by
/// the requester's NIC and the key prefix, or by both endpoints' NICs.
const MAX_GROUPS: usize = 2;

/// Fills the group slots a [`Signature`] does not use.
const NO_SLOT: u32 = u32::MAX;

/// An in-flight flow.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: FlowId,
    /// Its signature's counter at which the flow is done.
    tag: f64,
}

/// The in-flight flows that name the same group slots in the same order.
#[derive(Debug)]
struct Signature {
    /// Slots of the groups in [`FairShare::groups`], then [`NO_SLOT`].
    slots: [u32; MAX_GROUPS],
    /// Bytes served to each member since the signature opened or was
    /// last rebased.
    served: f64,
    /// Every member's rate, unless [`FairShare::rates_stale`] is set.
    rate: f64,
    /// The member with the smallest tag: the next to finish.
    head: Member,
    /// The other members, largest tag first.
    rest: Vec<Member>,
}

impl Signature {
    fn slots(&self) -> impl Iterator<Item = &u32> {
        self.slots.iter().take_while(|&&slot| slot != NO_SLOT)
    }

    /// The head's remaining bytes, negative once it overshot.
    fn head_left(&self) -> f64 {
        self.head.tag - self.served
    }

    /// Adds a member in its place by tag.
    fn insert(&mut self, member: Member) {
        if member.tag < self.head.tag {
            self.rest.push(std::mem::replace(&mut self.head, member));
        } else {
            let at = self.rest.partition_point(|m| m.tag > member.tag);
            self.rest.insert(at, member);
        }
    }

    /// Serves `bytes` to every member, rebasing the signature once its
    /// counter passes [`REBASE_BYTES`].
    fn serve(&mut self, bytes: f64) {
        self.served += bytes;
        if self.served > REBASE_BYTES {
            let served = std::mem::take(&mut self.served);
            self.head.tag -= served;
            for m in &mut self.rest {
                m.tag -= served;
            }
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
    /// Set when a start, a finish or a cap change may have moved the
    /// live signatures' rates since they were last computed.
    rates_stale: bool,
    /// The flows one [`Self::advance`] call finished, each with its
    /// `tag - served`; empty between calls, kept for its capacity.
    finished: Vec<(FlowId, f64)>,
    groups: Vec<Group>,
    /// Group id to its slot in `groups`.
    slot_of: IdMap<u64, u32>,
    last_update: SimTime,
    next_id: u64,
    /// See [`Self::finished_residue_bytes`].
    finished_residue: f64,
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
            rates_stale: false,
            finished: Vec::new(),
            groups: Vec::new(),
            slot_of: IdMap::default(),
            last_update: SimTime::ZERO,
            next_id: 0,
            finished_residue: 0.0,
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
        self.rates_stale = true;
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
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows += 1;
        self.rates_stale = true;
        let live = &mut self.sigs[..self.live];
        let found = if fresh {
            None
        } else {
            live.iter_mut().find(|sig| sig.slots == slots)
        };
        if let Some(sig) = found {
            let tag = sig.served + bytes as f64;
            sig.insert(Member { id, tag });
            return id;
        }
        // A new signature's counter starts at zero.
        let head = Member {
            id,
            tag: bytes as f64,
        };
        if let Some(sig) = self.sigs.get_mut(self.live) {
            (sig.slots, sig.served, sig.head) = (slots, 0.0, head);
        } else {
            self.sigs.push(Signature {
                slots,
                served: 0.0,
                rate: 0.0,
                head,
                rest: Vec::new(),
            });
        }
        self.live += 1;
        id
    }

    /// Advances all flows to `now` and fills `done` (cleared first) with
    /// the flows that completed, in deterministic (FlowId) order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the last update.
    pub fn advance(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        done.clear();
        self.progress_to(now);
        // Most calls finish nothing; look for a finished head first.
        let first = self.sigs[..self.live]
            .iter()
            .position(|sig| sig.head_left() <= DONE_EPSILON_BYTES);
        let Some(mut i) = first else {
            return;
        };
        self.rates_stale = true;
        let finished = &mut self.finished;
        while i < self.live {
            let sig = &mut self.sigs[i];
            let before = finished.len();
            let mut emptied = false;
            while sig.head_left() <= DONE_EPSILON_BYTES {
                finished.push((sig.head.id, sig.head_left()));
                match sig.rest.pop() {
                    Some(next) => sig.head = next,
                    None => {
                        emptied = true;
                        break;
                    }
                }
            }
            let count = finished.len() - before;
            if count > 0 {
                for &slot in sig.slots() {
                    let group = &mut self.groups[slot as usize];
                    group.active -= count;
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
        self.flows -= finished.len();
        finished.sort_unstable_by_key(|&(id, _)| id);
        for (id, left) in finished.drain(..) {
            self.finished_residue += 0.0f64.max(left);
            done.push(id);
        }
    }

    /// The earliest instant at which some current flow completes, assuming
    /// membership does not change. `None` when the pool is idle.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.refresh_rates();
        let min_secs = self.sigs[..self.live]
            .iter()
            .map(|sig| sig.head_left().max(0.0) / sig.rate)
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

    /// The bytes that finished flows had left when [`Self::advance`]
    /// reported them, clamped at zero and summed in [`FlowId`] order.
    ///
    /// A flow is done once fewer than 1e-3 bytes are left, so this is
    /// float residue, about zero, not a count of bytes transferred. Its
    /// bits expose any change in the pool's float operations.
    pub fn finished_residue_bytes(&self) -> f64 {
        self.finished_residue
    }

    /// Computes every live signature's rate again if a start, a finish or
    /// a cap change may have moved it: `per_flow.min(aggregate / n)`,
    /// then each group's share in order.
    fn refresh_rates(&mut self) {
        if !self.rates_stale {
            return;
        }
        self.rates_stale = false;
        let n = self.flows.max(1) as f64;
        let base = self.per_flow_bps.min(self.aggregate_bps / n);
        let groups = &self.groups;
        for sig in &mut self.sigs[..self.live] {
            sig.rate = sig
                .slots()
                .fold(base, |rate, &slot| rate.min(groups[slot as usize].share));
        }
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
        self.refresh_rates();
        for sig in &mut self.sigs[..self.live] {
            sig.serve(sig.rate * dt);
        }
    }
}
