//! The event queue at the heart of the simulation.
//!
//! [`EventQueue`] is a deterministic priority queue of `(SimTime, E)`
//! pairs. Ties are broken by insertion order, so two runs with the same
//! seed and the same schedule produce byte-identical traces. Cancelling
//! through the [`EventToken`] returned at scheduling time removes the
//! event; this is how the bandwidth-sharing pools retract a provisional
//! completion when pool membership changes. Cancelling a token whose
//! event already fired (or was already cancelled) is a no-op and is not
//! counted.
//!
//! # Layout
//!
//! Each pending event sits in a *slot* of a vector, beside the insertion
//! sequence number it was scheduled with. A fired or cancelled event
//! frees its slot, and freed slots go on a free list for reuse. A binary
//! min-heap orders `(time, sequence, slot)` entries. A token names its
//! slot and sequence number, and a heap entry is *live* only while its
//! slot still holds an event with the entry's sequence number.
//! Cancelling empties the slot and leaves the entry in the heap, dead;
//! after every cancel and pop, dead entries at the top of the heap are
//! popped at once, so the top entry is always live.
//!
//! # Cost
//!
//! Scheduling is one heap push, and popping one heap pop, each O(log n)
//! in the heap's entries, live and dead. Cancelling is O(1) plus the
//! dead entries it uncovers at the top; each dead entry is popped once,
//! so over a run that is one heap pop per cancel.
//!
//! # Why pop order and counters are exact
//!
//! Sequence numbers are unique and grow with insertion, so
//! `(time, sequence)` orders entries strictly: the heap pops by time,
//! then by insertion. The top entry is always live, so
//! [`EventQueue::peek_time`] is exact without mutating the queue, and
//! the queue is empty exactly when the heap is. A token matches its slot
//! only while its event is pending: firing or cancelling empties the
//! slot, and reusing it stores a new sequence number. So cancelling a
//! fired, cancelled or reused token changes nothing and is not counted,
//! and once the queue drains `scheduled == fired + cancelled`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled later.
///
/// Tokens are unique for the lifetime of the queue and are never reused,
/// even when the slot they name is. They order by insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken {
    seq: u64,
    slot: u32,
}

/// A heap entry; entries order by firing time, then by insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// Holds the pending event scheduled with `seq`, or nothing once that
/// event fired or was cancelled.
#[derive(Debug)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Lifetime counters of scheduler activity.
///
/// These are the queue's contribution to a trace: they cost two counter
/// increments per event and let an observer report how much scheduling
/// work a run performed without the queue depending on any telemetry
/// machinery. Once the queue drains, `scheduled == fired + cancelled`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Events ever scheduled (including later-cancelled ones).
    pub scheduled: u64,
    /// Live events popped by [`EventQueue::next`].
    pub fired: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
}

/// A deterministic, cancellable discrete-event queue.
///
/// # Example
///
/// ```
/// use simkernel::{EventQueue, SimDuration};
///
/// let mut q: EventQueue<u32> = EventQueue::new();
/// q.schedule_in(SimDuration::from_secs(5), 5);
/// let tok = q.schedule_in(SimDuration::from_secs(1), 1);
/// q.cancel(tok);
/// let (t, ev) = q.next().expect("one live event");
/// assert_eq!((t.as_secs_f64(), ev), (5.0, 5));
/// assert!(q.next().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Live and dead entries; the top one is always live.
    heap: BinaryHeap<Reverse<Entry>>,
    slots: Vec<Slot<E>>,
    /// Slots holding no event.
    free: Vec<u32>,
    now: SimTime,
    next_seq: u64,
    stats: SchedStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            stats: SchedStats::default(),
        }
    }

    /// Lifetime scheduling counters (see [`SchedStats`]).
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event, or zero if none has been popped yet.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`Self::now`]; the simulation cannot
    /// schedule into its own past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {} < {}",
            at,
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.scheduled += 1;
        let filled = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = filled;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending events");
                self.slots.push(filled);
                slot
            }
        };
        self.heap.push(Reverse(Entry { at, seq, slot }));
        EventToken { seq, slot }
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op and is not
    /// counted.
    pub fn cancel(&mut self, token: EventToken) {
        let slot = &mut self.slots[token.slot as usize];
        if slot.seq == token.seq && slot.event.take().is_some() {
            self.free.push(token.slot);
            self.stats.cancelled += 1;
            self.drop_dead_top();
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue has drained.
    ///
    /// Named `next` deliberately (the queue is not an `Iterator`: popping
    /// advances the simulation clock, a semantic iterators must not have).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let Reverse(top) = self.heap.pop()?;
        let event = self.slots[top.slot as usize]
            .event
            .take()
            .expect("the top heap entry is live");
        self.free.push(top.slot);
        self.drop_dead_top();
        debug_assert!(top.at >= self.now, "event queue went backwards");
        self.now = top.at;
        self.stats.fired += 1;
        Some((top.at, event))
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(top)| top.at)
    }

    /// Number of live (not cancelled) events currently scheduled.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pops dead entries off the top of the heap until a live one (or
    /// nothing) is left there.
    fn drop_dead_top(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            let slot = &self.slots[top.slot as usize];
            if slot.seq == top.seq && slot.event.is_some() {
                break;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs_f64(3.0), "c");
        q.schedule_at(SimTime::from_secs_f64(1.0), "a");
        q.schedule_at(SimTime::from_secs_f64(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.next()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs_f64(1.0);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.next()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.next();
        assert_eq!(q.now(), SimTime::from_secs_f64(2.0));
        // schedule_in is now relative to t=2.
        q.schedule_in(SimDuration::from_secs(1), ());
        let (t, _) = q.next().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(3.0));
    }

    #[test]
    fn cancel_is_idempotent_and_skips() {
        let mut q = EventQueue::new();
        let tok = q.schedule_in(SimDuration::from_secs(1), 1);
        q.schedule_in(SimDuration::from_secs(2), 2);
        q.cancel(tok);
        q.cancel(tok);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next().map(|(_, e)| e), Some(2));
        assert!(q.next().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule_in(SimDuration::from_secs(1), 1);
        q.schedule_in(SimDuration::from_secs(2), 2);
        assert_eq!(q.next().map(|(_, e)| e), Some(1));
        q.cancel(tok);
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().cancelled, 0);
        assert_eq!(q.next().map(|(_, e)| e), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_in(SimDuration::from_secs(1), 1);
        q.schedule_in(SimDuration::from_secs(5), 2);
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs_f64(5.0)));
        assert_eq!(q.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn stats_count_scheduled_fired_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.schedule_in(SimDuration::from_secs(1), 1);
        q.schedule_in(SimDuration::from_secs(2), 2);
        q.schedule_in(SimDuration::from_secs(3), 3);
        q.cancel(tok);
        q.cancel(tok); // idempotent: counted once
        while q.next().is_some() {}
        let stats = q.stats();
        assert_eq!(stats.scheduled, 3);
        assert_eq!(stats.fired, 2);
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn cancel_of_a_reused_slot_is_a_noop() {
        let mut q = EventQueue::new();
        let fired = q.schedule_in(SimDuration::from_secs(1), 1);
        assert_eq!(q.next().map(|(_, e)| e), Some(1));
        // Takes the slot the fired event freed.
        let live = q.schedule_in(SimDuration::from_secs(1), 2);
        assert_ne!(fired, live);
        q.cancel(fired);
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().cancelled, 0);
        assert_eq!(q.next().map(|(_, e)| e), Some(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), ());
        q.next();
        q.schedule_at(SimTime::from_secs_f64(1.0), ());
    }
}
