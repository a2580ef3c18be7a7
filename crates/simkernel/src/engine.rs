//! The event queue at the heart of the simulation.
//!
//! [`EventQueue`] is a deterministic priority queue of `(SimTime, E)`
//! pairs. Ties are broken by insertion order, so two runs with the same
//! seed and the same schedule produce byte-identical traces. Pending
//! events live in an ordered map keyed by `(time, insertion sequence)`:
//! popping takes the first key, and cancelling through the [`EventToken`]
//! returned at scheduling time removes the event outright. This is how
//! the bandwidth-sharing pools retract a provisional completion when pool
//! membership changes. Cancelling a token whose event already fired (or
//! was already cancelled) is a no-op and is not counted.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled later.
///
/// Tokens are unique for the lifetime of the queue and are never reused.
/// They order by firing time, then by insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventToken {
    at: SimTime,
    seq: u64,
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
    pending: BTreeMap<EventToken, E>,
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
            pending: BTreeMap::new(),
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
        let token = EventToken {
            at,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.stats.scheduled += 1;
        self.pending.insert(token, event);
        token
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Cancelling an event that has
    /// already fired (or was already cancelled) is a no-op and is not
    /// counted.
    pub fn cancel(&mut self, token: EventToken) {
        if self.pending.remove(&token).is_some() {
            self.stats.cancelled += 1;
        }
    }

    /// Pops the next live event, advancing the clock to its timestamp.
    /// Returns `None` when the queue has drained.
    ///
    /// Named `next` deliberately (the queue is not an `Iterator`: popping
    /// advances the simulation clock, a semantic iterators must not have).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (token, event) = self.pending.pop_first()?;
        debug_assert!(token.at >= self.now, "event queue went backwards");
        self.now = token.at;
        self.stats.fired += 1;
        Some((token.at, event))
    }

    /// The timestamp of the next live event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(token, _)| token.at)
    }

    /// Number of live (not cancelled) events currently scheduled.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
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
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), ());
        q.next();
        q.schedule_at(SimTime::from_secs_f64(1.0), ());
    }
}
