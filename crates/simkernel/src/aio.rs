//! A deterministic single-threaded async executor on virtual time.
//!
//! The executor runs a seeded queue of futures over [`SimTime`], so
//! drivers that juggle many concurrent jobs — the DAG scheduler's
//! nodes, the fleet driver's tenant jobs — are straight-line `await`
//! code instead of hand-rolled polling loops. The primitives are
//! deliberately few: [`AsyncExecutor::spawn`] with [`JoinHandle`] and
//! [`join_all`], [`AsyncExecutor::sleep`], one-shot [`Gate`]s and
//! multi-round [`Notifier`]s. Determinism is a hard invariant, not an
//! accident:
//!
//! * **Wakeup order is keyed on `(SimTime, spawn_seq)`.** Every task
//!   carries the sequence number it was spawned with ([`TaskId`]); when
//!   several tasks are runnable at the same virtual instant they run in
//!   ascending spawn order, never in hash-map iteration order. The
//!   ready set is a [`BTreeSet`] and the timer wheel is the kernel's
//!   own [`EventQueue`], so two runs with the same seed and the same
//!   spawn sequence replay byte-identical schedules.
//! * **Wakes are explicit.** The leaf futures ([`AsyncExecutor::sleep`],
//!   [`Gate`], [`Notifier`], [`JoinHandle`]) register the
//!   polling task with the executor and wake it by [`TaskId`]; the
//!   [`std::task::Waker`] in the poll context is a no-op. External
//!   futures that rely on waker plumbing are therefore not supported —
//!   by design, since third-party reactors would smuggle in
//!   nondeterminism.
//!
//! The executor has two clocking modes:
//!
//! * **Self-clocked** ([`AsyncExecutor::run`]): the executor owns the
//!   clock and advances it timer-batch by timer-batch, like a classic
//!   discrete-event loop. This is what the kernel microbenchmarks and
//!   the pure-executor property tests use.
//! * **Host-clocked** ([`AsyncExecutor::advance_to`] +
//!   [`AsyncExecutor::run_ready`]): an outer simulation (the cloud
//!   world) owns the clock; the executor is pumped after each host
//!   event. This is how the DAG scheduler and the fleet driver run
//!   their jobs as futures on top of `CloudEnv`.
//!
//! # Example
//!
//! ```
//! use simkernel::{AsyncExecutor, SimDuration};
//!
//! let exec = AsyncExecutor::new();
//! let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
//! for (i, delay) in [3u64, 1, 2].into_iter().enumerate() {
//!     let exec2 = exec.clone();
//!     let order2 = order.clone();
//!     exec.spawn(async move {
//!         exec2.sleep(SimDuration::from_secs(delay)).await;
//!         order2.borrow_mut().push(i);
//!     });
//! }
//! exec.run();
//! assert_eq!(*order.borrow(), vec![1, 2, 0]);
//! assert_eq!(exec.now().as_secs_f64(), 3.0);
//! ```

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::engine::{EventQueue, EventToken};
use crate::time::{SimDuration, SimTime};

/// Identifies a spawned task. The numeric value is the task's spawn
/// sequence number and doubles as the deterministic wakeup tie-break:
/// tasks runnable at the same instant run in ascending [`TaskId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u64);

/// Lifetime counters of executor activity, the async twin of
/// [`crate::SchedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tasks ever spawned.
    pub spawned: u64,
    /// Tasks run to completion.
    pub completed: u64,
    /// Individual task polls.
    pub polls: u64,
    /// Explicit wakes delivered (timer fires, gate opens, notifies,
    /// join completions).
    pub wakes: u64,
    /// Timer entries fired.
    pub timer_fires: u64,
}

type TaskFuture = Pin<Box<dyn Future<Output = ()>>>;

struct Inner {
    /// Task storage, indexed by spawn sequence. A slot is `None` once
    /// its task completed (or while the task is being polled).
    slots: Vec<Option<TaskFuture>>,
    /// Runnable tasks, drained in ascending [`TaskId`] order.
    ready: BTreeSet<u64>,
    /// Sleeping tasks keyed by wake deadline.
    timers: EventQueue<u64>,
    /// The virtual clock (monotonic; host-clocked mode pushes it).
    now: SimTime,
    /// The task currently being polled, if any.
    current: Option<u64>,
    stats: ExecStats,
}

impl Inner {
    fn new() -> Self {
        Inner {
            slots: Vec::new(),
            ready: BTreeSet::new(),
            timers: EventQueue::new(),
            now: SimTime::ZERO,
            current: None,
            stats: ExecStats::default(),
        }
    }

    fn task_alive(&self, id: u64) -> bool {
        self.current == Some(id) || self.slots.get(id as usize).is_some_and(Option::is_some)
    }

    fn wake(&mut self, id: u64) {
        if self.task_alive(id) {
            self.stats.wakes += 1;
            self.ready.insert(id);
        }
    }

    fn current_task(&self) -> u64 {
        self.current
            .expect("simkernel::aio leaf future polled outside its executor")
    }
}

/// Wakes every task in `ids` (used by the shared synchronisation
/// primitives when their executor is still alive).
fn wake_all(exec: &Weak<RefCell<Inner>>, ids: impl IntoIterator<Item = u64>) {
    if let Some(inner) = exec.upgrade() {
        let mut inner = inner.borrow_mut();
        for id in ids {
            inner.wake(id);
        }
    }
}

/// The deterministic async executor. Cloning is cheap and yields a
/// handle to the same run queue (tasks routinely carry a clone to
/// spawn children or sleep).
#[derive(Clone)]
pub struct AsyncExecutor {
    inner: Rc<RefCell<Inner>>,
}

impl Default for AsyncExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AsyncExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("AsyncExecutor")
            .field("now", &inner.now)
            .field("ready", &inner.ready.len())
            .field("timers", &inner.timers.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl AsyncExecutor {
    /// Creates an empty executor positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        AsyncExecutor {
            inner: Rc::new(RefCell::new(Inner::new())),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> ExecStats {
        self.inner.borrow().stats
    }

    /// Number of live (spawned, not yet completed) tasks.
    pub fn pending_tasks(&self) -> usize {
        let inner = self.inner.borrow();
        inner.slots.iter().filter(|s| s.is_some()).count() + usize::from(inner.current.is_some())
    }

    /// Spawns a future as a new task. The task starts runnable and is
    /// first polled on the next [`Self::run_ready`] drain; its spawn
    /// order is its deterministic tie-break forever.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: Option::<T>::None,
            taken: false,
            waiters: Vec::new(),
            exec: Rc::downgrade(&self.inner),
        }));
        let state2 = state.clone();
        let wrapped: TaskFuture = Box::pin(async move {
            let out = fut.await;
            let waiters = {
                let mut st = state2.borrow_mut();
                st.result = Some(out);
                std::mem::take(&mut st.waiters)
            };
            let exec = state2.borrow().exec.clone();
            wake_all(&exec, waiters);
        });
        let mut inner = self.inner.borrow_mut();
        let id = inner.slots.len() as u64;
        inner.slots.push(Some(wrapped));
        inner.ready.insert(id);
        inner.stats.spawned += 1;
        JoinHandle {
            id: TaskId(id),
            state,
        }
    }

    /// A future that completes at absolute virtual time `at` (or
    /// immediately if `at` is not in the future).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            exec: Rc::downgrade(&self.inner),
            at,
            token: None,
            fired: false,
        }
    }

    /// A future that completes after `delay` of virtual time.
    pub fn sleep(&self, delay: SimDuration) -> Sleep {
        let at = self.inner.borrow().now + delay;
        self.sleep_until(at)
    }

    /// Polls every runnable task until the ready set drains, in
    /// ascending spawn order. Tasks woken mid-drain at the same instant
    /// join the same drain (still in spawn order). The clock does not
    /// move.
    pub fn run_ready(&self) {
        loop {
            let (id, fut) = {
                let mut inner = self.inner.borrow_mut();
                let Some(id) = inner.ready.pop_first() else {
                    break;
                };
                let Some(fut) = inner.slots[id as usize].take() else {
                    continue; // completed while queued
                };
                inner.current = Some(id);
                inner.stats.polls += 1;
                (id, fut)
            };
            let mut fut = fut;
            let mut cx = Context::from_waker(Waker::noop());
            let poll = fut.as_mut().poll(&mut cx);
            let mut inner = self.inner.borrow_mut();
            inner.current = None;
            match poll {
                Poll::Ready(()) => {
                    inner.ready.remove(&id);
                    inner.stats.completed += 1;
                }
                Poll::Pending => {
                    inner.slots[id as usize] = Some(fut);
                }
            }
        }
    }

    /// Advances the clock to the next timer deadline and wakes every
    /// task sleeping on that instant. Returns `false` (clock untouched)
    /// when no timers are armed. Does not poll anything: callers
    /// interleave [`Self::run_ready`].
    pub fn advance(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some(at) = inner.timers.peek_time() else {
            return false;
        };
        while inner.timers.peek_time() == Some(at) {
            let (_, id) = inner.timers.next().expect("peeked entry");
            inner.stats.timer_fires += 1;
            inner.wake(id);
        }
        debug_assert!(at >= inner.now, "timer wheel went backwards");
        inner.now = at;
        true
    }

    /// Host-clocked mode: fires every timer due at or before `t`
    /// (instant by instant, draining the ready set between instants)
    /// and then pins the clock to `t`. A host simulation calls this
    /// after each of its own events so `await`ed sleeps and the host
    /// clock agree.
    pub fn advance_to(&self, t: SimTime) {
        loop {
            let due = {
                let mut inner = self.inner.borrow_mut();
                inner.timers.peek_time().filter(|at| *at <= t)
            };
            if due.is_none() {
                break;
            }
            self.advance();
            self.run_ready();
        }
        let mut inner = self.inner.borrow_mut();
        if t > inner.now {
            inner.now = t;
        }
    }

    /// Self-clocked mode: runs until every task either completed or is
    /// blocked on something no timer will ever wake. Returns the number
    /// of tasks still pending (0 means the run drained fully).
    pub fn run(&self) -> usize {
        self.run_ready();
        while self.advance() {
            self.run_ready();
        }
        self.pending_tasks()
    }

    /// A one-shot gate bound to this executor.
    pub fn gate(&self) -> Gate {
        Gate {
            state: Rc::new(RefCell::new(GateState {
                open: false,
                waiters: Vec::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }

    /// A multi-round broadcast notifier bound to this executor.
    pub fn notifier(&self) -> Notifier {
        Notifier {
            state: Rc::new(RefCell::new(NotifyState {
                epoch: 0,
                waiters: Vec::new(),
                exec: Rc::downgrade(&self.inner),
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Sleep
// ---------------------------------------------------------------------

/// A timer future created by [`AsyncExecutor::sleep`] /
/// [`AsyncExecutor::sleep_until`]. Dropping it before the deadline
/// cancels the underlying timer entry.
#[derive(Debug)]
pub struct Sleep {
    exec: Weak<RefCell<Inner>>,
    at: SimTime,
    token: Option<EventToken>,
    fired: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let inner = self.exec.upgrade().expect("executor dropped mid-sleep");
        let mut inner = inner.borrow_mut();
        if inner.now >= self.at {
            self.fired = true;
            return Poll::Ready(());
        }
        if self.token.is_none() {
            let id = inner.current_task();
            let token = inner.timers.schedule_at(self.at, id);
            self.token = Some(token);
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if self.fired {
            return;
        }
        if let (Some(token), Some(inner)) = (self.token, self.exec.upgrade()) {
            inner.borrow_mut().timers.cancel(token);
        }
    }
}

// ---------------------------------------------------------------------
// JoinHandle
// ---------------------------------------------------------------------

struct JoinState<T> {
    result: Option<T>,
    taken: bool,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// Owns the result of a spawned task. Await it (from another task) to
/// join; or poll [`Self::try_take`] from outside the executor — the
/// pattern reactor loops use to collect a driver task's output.
pub struct JoinHandle<T> {
    id: TaskId,
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id (its deterministic spawn sequence).
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// True once the task ran to completion (whether or not the result
    /// was taken).
    pub fn is_done(&self) -> bool {
        let st = self.state.borrow();
        st.taken || st.result.is_some()
    }

    /// Takes the task's result if it completed and the result was not
    /// already taken.
    pub fn try_take(&self) -> Option<T> {
        let mut st = self.state.borrow_mut();
        let out = st.result.take();
        if out.is_some() {
            st.taken = true;
        }
        out
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if let Some(out) = st.result.take() {
            st.taken = true;
            return Poll::Ready(out);
        }
        assert!(!st.taken, "task result already taken");
        let exec = st.exec.upgrade().expect("executor dropped mid-join");
        let id = exec.borrow().current_task();
        if !st.waiters.contains(&id) {
            st.waiters.push(id);
        }
        Poll::Pending
    }
}

/// Awaits every handle in order and collects the results. The handles
/// run concurrently as spawned tasks; this only sequences collection.
pub async fn join_all<T: 'static>(handles: Vec<JoinHandle<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    for h in handles {
        out.push(h.await);
    }
    out
}

// ---------------------------------------------------------------------
// Gate (one-shot event)
// ---------------------------------------------------------------------

struct GateState {
    open: bool,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A one-shot event: any number of tasks [`Gate::wait`] until some
/// other code (a task or the host reactor) calls [`Gate::open`]. Once
/// open it stays open. Clones share the same state.
#[derive(Clone)]
pub struct Gate {
    state: Rc<RefCell<GateState>>,
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gate")
            .field("open", &self.is_open())
            .finish()
    }
}

impl Gate {
    /// True once [`Self::open`] was called.
    pub fn is_open(&self) -> bool {
        self.state.borrow().open
    }

    /// Opens the gate, waking every waiter (idempotent).
    pub fn open(&self) {
        let (exec, waiters) = {
            let mut st = self.state.borrow_mut();
            if st.open {
                return;
            }
            st.open = true;
            (st.exec.clone(), std::mem::take(&mut st.waiters))
        };
        wake_all(&exec, waiters);
    }

    /// A future that resolves once the gate is open.
    pub fn wait(&self) -> GateWait {
        GateWait {
            state: self.state.clone(),
            registered: false,
        }
    }
}

/// Future returned by [`Gate::wait`].
#[derive(Debug)]
pub struct GateWait {
    state: Rc<RefCell<GateState>>,
    registered: bool,
}

impl std::fmt::Debug for GateState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateState").field("open", &self.open).finish()
    }
}

impl Future for GateWait {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.open {
            return Poll::Ready(());
        }
        if !this.registered {
            let exec = st.exec.upgrade().expect("executor dropped mid-wait");
            let id = exec.borrow().current_task();
            st.waiters.push(id);
            this.registered = true;
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------
// Notifier (multi-round broadcast)
// ---------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    waiters: Vec<u64>,
    exec: Weak<RefCell<Inner>>,
}

/// A multi-round broadcast: [`Notifier::notified`] resolves at the
/// next [`Notifier::notify_all`] after the future was created. Host
/// reactors use one as the per-event "epoch" signal that re-runs every
/// waiting scheduler task in spawn order. Clones share the same state.
#[derive(Clone)]
pub struct Notifier {
    state: Rc<RefCell<NotifyState>>,
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notifier")
            .field("epoch", &self.state.borrow().epoch)
            .finish()
    }
}

impl Notifier {
    /// Wakes every currently waiting task and advances the epoch.
    pub fn notify_all(&self) {
        let (exec, waiters) = {
            let mut st = self.state.borrow_mut();
            st.epoch += 1;
            (st.exec.clone(), std::mem::take(&mut st.waiters))
        };
        wake_all(&exec, waiters);
    }

    /// A future resolving at the next [`Self::notify_all`].
    pub fn notified(&self) -> Notified {
        Notified {
            state: self.state.clone(),
            start_epoch: self.state.borrow().epoch,
            registered: false,
        }
    }
}

/// Future returned by [`Notifier::notified`].
pub struct Notified {
    state: Rc<RefCell<NotifyState>>,
    start_epoch: u64,
    registered: bool,
}

impl std::fmt::Debug for Notified {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Notified")
            .field("start_epoch", &self.start_epoch)
            .finish()
    }
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut st = this.state.borrow_mut();
        if st.epoch > this.start_epoch {
            return Poll::Ready(());
        }
        if !this.registered {
            let exec = st.exec.upgrade().expect("executor dropped mid-wait");
            let id = exec.borrow().current_task();
            st.waiters.push(id);
            this.registered = true;
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared event log for ordering assertions.
    fn log<T>() -> Rc<RefCell<Vec<T>>> {
        Rc::new(RefCell::new(Vec::new()))
    }

    #[test]
    fn same_instant_wakes_run_in_spawn_order() {
        let exec = AsyncExecutor::new();
        let events = log();
        // Spawn in reverse-delay order; all three sleep to the SAME
        // deadline. Wakeup order must be spawn order, not timer
        // insertion order.
        for i in 0..3 {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep_until(SimTime::from_secs_f64(1.0)).await;
                ev.borrow_mut().push(format!("t{i}"));
            });
        }
        assert_eq!(exec.run(), 0);
        assert_eq!(*events.borrow(), vec!["t0", "t1", "t2"]);
    }

    #[test]
    fn timers_order_by_deadline_then_spawn_seq() {
        let exec = AsyncExecutor::new();
        let events = log();
        let delays = [2.0, 1.0, 2.0, 1.0];
        for (i, d) in delays.into_iter().enumerate() {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep(SimDuration::from_secs_f64(d)).await;
                ev.borrow_mut().push(i);
            });
        }
        exec.run();
        assert_eq!(*events.borrow(), vec![1, 3, 0, 2]);
        assert_eq!(exec.now().as_secs_f64(), 2.0);
    }

    #[test]
    fn join_handle_passes_results_and_wakes_joiners() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        let worker = exec.spawn(async move {
            exec2.sleep(SimDuration::from_secs(5)).await;
            42u64
        });
        let joined = exec.spawn(async move { worker.await * 2 });
        exec.run();
        assert_eq!(joined.try_take(), Some(84));
    }

    #[test]
    fn join_all_collects_in_handle_order() {
        let exec = AsyncExecutor::new();
        let handles: Vec<_> = (0..5u64)
            .map(|i| {
                let exec2 = exec.clone();
                exec.spawn(async move {
                    // Later tasks finish earlier; collection order must
                    // still be handle order.
                    exec2.sleep(SimDuration::from_secs(10 - i)).await;
                    i
                })
            })
            .collect();
        let all = exec.spawn(join_all(handles));
        exec.run();
        assert_eq!(all.try_take(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn join_of_already_completed_task_is_immediate() {
        let exec = AsyncExecutor::new();
        let h = exec.spawn(async { 7u32 });
        exec.run_ready();
        assert!(h.is_done());
        let j = exec.spawn(async move { h.await + 1 });
        exec.run_ready();
        assert_eq!(j.try_take(), Some(8));
    }

    #[test]
    fn gate_wakes_all_waiters_in_spawn_order() {
        let exec = AsyncExecutor::new();
        let gate = exec.gate();
        let events = log();
        for i in 0..3 {
            let g = gate.clone();
            let ev = events.clone();
            exec.spawn(async move {
                g.wait().await;
                ev.borrow_mut().push(i);
            });
        }
        exec.run_ready();
        assert!(events.borrow().is_empty());
        gate.open();
        exec.run_ready();
        assert_eq!(*events.borrow(), vec![0, 1, 2]);
        // Late waiters pass straight through an open gate.
        let late = exec.spawn({
            let g = gate.clone();
            async move {
                g.wait().await;
                99
            }
        });
        exec.run_ready();
        assert_eq!(late.try_take(), Some(99));
    }

    #[test]
    fn notifier_is_per_epoch() {
        let exec = AsyncExecutor::new();
        let n = exec.notifier();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        let n2 = n.clone();
        exec.spawn(async move {
            for _ in 0..3 {
                n2.notified().await;
                *c.borrow_mut() += 1;
            }
        });
        exec.run_ready();
        assert_eq!(*count.borrow(), 0);
        for round in 1..=3 {
            n.notify_all();
            exec.run_ready();
            assert_eq!(*count.borrow(), round);
        }
        // Extra notifies with nobody waiting are harmless.
        n.notify_all();
        exec.run_ready();
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn sleep_drop_cancels_timer() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        exec.spawn(async move {
            let long = exec2.sleep(SimDuration::from_secs(100));
            let short = exec2.sleep(SimDuration::from_secs(1));
            short.await;
            drop(long);
        });
        exec.run();
        // The cancelled 100 s timer must not drag the clock forward.
        assert_eq!(exec.now().as_secs_f64(), 1.0);
    }

    #[test]
    fn host_clocked_advance_to_fires_due_timers() {
        let exec = AsyncExecutor::new();
        let events = log();
        for d in [1.0, 2.0, 5.0] {
            let exec2 = exec.clone();
            let ev = events.clone();
            exec.spawn(async move {
                exec2.sleep(SimDuration::from_secs_f64(d)).await;
                ev.borrow_mut().push(format!("{d}"));
            });
        }
        exec.run_ready();
        exec.advance_to(SimTime::from_secs_f64(3.0));
        assert_eq!(*events.borrow(), vec!["1", "2"]);
        assert_eq!(exec.now().as_secs_f64(), 3.0);
        exec.advance_to(SimTime::from_secs_f64(10.0));
        assert_eq!(*events.borrow(), vec!["1", "2", "5"]);
        assert_eq!(exec.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn spawn_inside_a_task_joins_the_same_drain() {
        let exec = AsyncExecutor::new();
        let events = log();
        let exec2 = exec.clone();
        let ev = events.clone();
        exec.spawn(async move {
            ev.borrow_mut().push("parent");
            let ev2 = ev.clone();
            let child = exec2.spawn(async move {
                ev2.borrow_mut().push("child");
                5u8
            });
            assert_eq!(child.await, 5);
            ev.borrow_mut().push("joined");
        });
        assert_eq!(exec.run(), 0);
        assert_eq!(*events.borrow(), vec!["parent", "child", "joined"]);
    }

    #[test]
    fn stats_count_activity() {
        let exec = AsyncExecutor::new();
        let exec2 = exec.clone();
        exec.spawn(async move {
            exec2.sleep(SimDuration::from_secs(1)).await;
        });
        exec.spawn(async {});
        exec.run();
        let stats = exec.stats();
        assert_eq!(stats.spawned, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.timer_fires, 1);
        assert!(stats.polls >= 3);
        assert_eq!(exec.pending_tasks(), 0);
    }

    #[test]
    fn run_reports_stuck_tasks() {
        let exec = AsyncExecutor::new();
        let gate = exec.gate();
        exec.spawn({
            let g = gate.clone();
            async move { g.wait().await }
        });
        // Nothing will ever open the gate: run() returns 1 pending.
        assert_eq!(exec.run(), 1);
    }

    #[test]
    fn identical_runs_produce_identical_event_orders() {
        let run_once = || {
            let exec = AsyncExecutor::new();
            let events = log();
            let mut rng = crate::SimRng::seed_from(0xFEED);
            for i in 0..50u64 {
                let d = rng.uniform_u64(1, 10);
                let exec2 = exec.clone();
                let ev = events.clone();
                exec.spawn(async move {
                    exec2.sleep(SimDuration::from_secs(d)).await;
                    ev.borrow_mut().push((i, exec2.now().as_micros()));
                });
            }
            exec.run();
            let out = events.borrow().clone();
            out
        };
        assert_eq!(run_once(), run_once());
    }
}
