//! Logical functions.
//!
//! A *logical function* is the unit of work a
//! [`FunctionExecutor`](crate::FunctionExecutor) maps over inputs.
//! Because execution happens
//! inside a discrete-event simulation, a logical function is written as a
//! small state machine ([`TaskLogic`]): it emits an [`Action`] (compute,
//! storage I/O, master-KV access), receives the [`ActionOutcome`] once
//! the simulated environment completes it, and eventually finishes with
//! a result payload.
//!
//! Most functions are a straight line of actions; [`ScriptTask`] builds
//! those without hand-writing a state machine. Data-dependent control
//! flow (a sort that partitions based on sampled splitters, say)
//! implements [`TaskLogic`] directly.

use cloudsim::ObjectBody;

use crate::payload::Payload;

/// One effect a logical function asks its environment to perform.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Action {
    /// Burn `cpu_secs` of single-threaded CPU.
    Compute {
        /// CPU-seconds at full speed (scaled by the host's vCPU share).
        cpu_secs: f64,
    },
    /// Read one object from cloud storage.
    Get {
        /// Bucket.
        bucket: String,
        /// Key.
        key: String,
    },
    /// Read several objects concurrently (Lithops parallelises reads to
    /// overlap deserialisation with I/O).
    GetMany {
        /// Bucket.
        bucket: String,
        /// Keys, fetched concurrently; outcomes arrive in this order.
        keys: Vec<String>,
    },
    /// Write one object to cloud storage.
    Put {
        /// Bucket.
        bucket: String,
        /// Key.
        key: String,
        /// Data to store.
        body: ObjectBody,
    },
    /// Write several objects concurrently.
    PutMany {
        /// Bucket.
        bucket: String,
        /// `(key, body)` pairs, written concurrently.
        entries: Vec<(String, ObjectBody)>,
    },
    /// Delete one object.
    Delete {
        /// Bucket.
        bucket: String,
        /// Key.
        key: String,
    },
    /// List keys under a prefix.
    List {
        /// Bucket.
        bucket: String,
        /// Prefix.
        prefix: String,
    },
    /// Read a key from the master's KV store (serverful backend only;
    /// same-VM access uses shared memory).
    KvGet {
        /// Key.
        key: String,
    },
    /// Write a key to the master's KV store (serverful backend only).
    KvPut {
        /// Key.
        key: String,
        /// Data to store.
        body: ObjectBody,
    },
    /// Idle for a wall-clock duration (e.g. an external call).
    Sleep {
        /// Seconds to sleep.
        secs: f64,
    },
}

/// What came back from a completed [`Action`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ActionOutcome {
    /// Compute / put / delete / sleep / kv-put completed.
    Done,
    /// `Get` result.
    Object(ObjectBody),
    /// `Get` on a missing key (the task fails unless its logic handles
    /// it).
    MissingObject,
    /// `GetMany` results, in request order. Missing keys surface as
    /// failures before this is delivered.
    Objects(Vec<ObjectBody>),
    /// `List` result.
    Keys(Vec<String>),
    /// `KvGet` result (`None` when the key is absent).
    KvValue(Option<ObjectBody>),
}

/// The next move of a logical function.
#[derive(Debug)]
pub enum TaskStep {
    /// Perform an action; [`TaskLogic::on_action`] is called with its
    /// outcome.
    Act(Action),
    /// The function is done; the payload is its result.
    Finish(Payload),
    /// The function failed; the job surfaces
    /// [`ExecError::TaskFailed`](crate::ExecError::TaskFailed).
    Fail(String),
}

/// A logical function as a state machine.
///
/// `on_start` is called exactly once with the task's input; thereafter
/// `on_action` is called with each action's outcome until the logic
/// returns [`TaskStep::Finish`] or [`TaskStep::Fail`].
pub trait TaskLogic: Send {
    /// Called once when the function begins executing on its host.
    fn on_start(&mut self, input: &Payload) -> TaskStep;

    /// Called with the outcome of the previously emitted action.
    fn on_action(&mut self, outcome: ActionOutcome) -> TaskStep;
}

/// A deferred finisher: computes the result from the input and the
/// collected action outcomes.
type FinishFn = Box<dyn FnOnce(&Payload, Vec<ActionOutcome>) -> TaskStep + Send>;

/// How a [`ScriptTask`] produces its final payload.
enum ScriptFinish {
    Value(Payload),
    /// Computes the result from the input and the outcome of every
    /// action, in order.
    FromOutcomes(FinishFn),
}

/// A linear logical function: a fixed sequence of actions followed by a
/// finish.
///
/// # Example
///
/// ```
/// use serverful::{Payload, ScriptTask};
/// use cloudsim::ObjectBody;
///
/// // Read a chunk, crunch it for 2 CPU-seconds, write a summary.
/// let task = ScriptTask::new()
///     .get("data", "chunk-0")
///     .compute(2.0)
///     .put("data", "summary-0", ObjectBody::opaque(1024))
///     .finish_value(Payload::Unit);
/// # let _ = task;
/// ```
pub struct ScriptTask {
    actions: std::collections::VecDeque<Action>,
    outcomes: Vec<ActionOutcome>,
    input: Option<Payload>,
    finish: Option<ScriptFinish>,
}

impl std::fmt::Debug for ScriptTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptTask")
            .field("pending_actions", &self.actions.len())
            .field("outcomes", &self.outcomes.len())
            .finish()
    }
}

impl Default for ScriptTask {
    fn default() -> Self {
        Self::new()
    }
}

impl ScriptTask {
    /// Starts an empty script.
    pub fn new() -> Self {
        ScriptTask {
            actions: std::collections::VecDeque::new(),
            outcomes: Vec::new(),
            input: None,
            finish: None,
        }
    }

    /// Appends an arbitrary action.
    pub fn action(mut self, action: Action) -> Self {
        self.actions.push_back(action);
        self
    }

    /// Appends a compute segment.
    pub fn compute(self, cpu_secs: f64) -> Self {
        self.action(Action::Compute { cpu_secs })
    }

    /// Appends a GET.
    pub fn get(self, bucket: impl Into<String>, key: impl Into<String>) -> Self {
        self.action(Action::Get {
            bucket: bucket.into(),
            key: key.into(),
        })
    }

    /// Appends a concurrent multi-GET.
    pub fn get_many(self, bucket: impl Into<String>, keys: Vec<String>) -> Self {
        self.action(Action::GetMany {
            bucket: bucket.into(),
            keys,
        })
    }

    /// Appends a PUT.
    pub fn put(
        self,
        bucket: impl Into<String>,
        key: impl Into<String>,
        body: ObjectBody,
    ) -> Self {
        self.action(Action::Put {
            bucket: bucket.into(),
            key: key.into(),
            body,
        })
    }

    /// Appends a sleep.
    pub fn sleep(self, secs: f64) -> Self {
        self.action(Action::Sleep { secs })
    }

    /// Finishes with a fixed payload.
    pub fn finish_value(mut self, payload: Payload) -> Self {
        self.finish = Some(ScriptFinish::Value(payload));
        self
    }

    /// Finishes by computing the payload from the input and the collected
    /// action outcomes (in action order).
    pub fn finish_with(
        mut self,
        f: impl FnOnce(&Payload, Vec<ActionOutcome>) -> TaskStep + Send + 'static,
    ) -> Self {
        self.finish = Some(ScriptFinish::FromOutcomes(Box::new(f)));
        self
    }

    /// Boxes the script as a [`TaskLogic`] trait object.
    pub fn boxed(self) -> Box<dyn TaskLogic> {
        Box::new(self)
    }

    fn next_step(&mut self) -> TaskStep {
        if let Some(action) = self.actions.pop_front() {
            return TaskStep::Act(action);
        }
        match self.finish.take() {
            Some(ScriptFinish::Value(payload)) => TaskStep::Finish(payload),
            Some(ScriptFinish::FromOutcomes(f)) => {
                let input = self.input.take().unwrap_or(Payload::Unit);
                let outcomes = std::mem::take(&mut self.outcomes);
                f(&input, outcomes)
            }
            None => TaskStep::Finish(Payload::Unit),
        }
    }
}

impl TaskLogic for ScriptTask {
    fn on_start(&mut self, input: &Payload) -> TaskStep {
        self.input = Some(input.clone());
        self.next_step()
    }

    fn on_action(&mut self, outcome: ActionOutcome) -> TaskStep {
        if let ActionOutcome::MissingObject = outcome {
            return TaskStep::Fail("script read a missing object".into());
        }
        self.outcomes.push(outcome);
        self.next_step()
    }
}
