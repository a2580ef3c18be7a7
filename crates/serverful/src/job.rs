//! Job and task state.
//!
//! A *job* is one `map` call: a factory applied to N inputs, producing N
//! results. Tasks move through backend-specific phases; the common parts
//! (the task run executing a [`TaskLogic`] against the simulated world,
//! and the storage-based completion monitor) live here.

use std::sync::Arc;

use cloudsim::{HostId, KvId, ObjectBody, OpOutcome, SandboxId};
use simkernel::SimTime;
use telemetry::trace::SpanId;

use crate::error::ExecError;
use crate::payload::Payload;
use crate::retry::RetryPolicy;
use crate::task::{ActionOutcome, TaskLogic, TaskStep};

/// Creates a fresh [`TaskLogic`] for an input. Shared by all tasks of a
/// job (the "function" being mapped).
pub type TaskFactory = Arc<dyn Fn(&Payload) -> Box<dyn TaskLogic> + Send + Sync>;

/// Which backend executes a job.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobBackend {
    Faas { memory_mb: u32 },
    Standalone { pool: usize },
}

/// The in-flight I/O shape of a task's current action.
#[derive(Debug)]
pub(crate) enum PendingShape {
    /// A single op; outcome forwarded directly.
    Single,
    /// A multi-op (GetMany/PutMany) with `remaining` ops in flight; each
    /// GET's body fills its slot of `results` (empty for a PutMany).
    Multi {
        results: Vec<Option<ObjectBody>>,
        remaining: usize,
        puts: bool,
    },
}

/// A logical function executing on a host.
pub(crate) struct TaskRun {
    pub logic: Box<dyn TaskLogic>,
    pub host: HostId,
    /// The master's KV store, when running on the serverful backend.
    pub kv: Option<KvId>,
    pub shape: PendingShape,
    /// The overlapped-I/O busy fraction currently applied (0 = none).
    pub io_busy: f64,
}

impl std::fmt::Debug for TaskRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRun")
            .field("host", &self.host)
            .finish_non_exhaustive()
    }
}

/// Stand-in logic of a run whose task has not started, such as a FaaS
/// attempt fetching its input. Zero-sized, so boxing it allocates nothing.
struct Unstarted;

impl TaskLogic for Unstarted {
    fn on_start(&mut self, _: &Payload) -> TaskStep {
        unreachable!("a task starts on its factory's logic")
    }

    fn on_action(&mut self, _: ActionOutcome) -> TaskStep {
        unreachable!("a task acts through its factory's logic")
    }
}

impl TaskRun {
    pub(crate) fn new(host: HostId, kv: Option<KvId>) -> Self {
        TaskRun {
            logic: Box::new(Unstarted),
            host,
            kv,
            shape: PendingShape::Single,
            io_busy: 0.0,
        }
    }

    /// Records the outcome of the action's op in `slot` (0 unless the
    /// action is a multi-op); returns the action's outcome once its last
    /// op has landed. A multi-op action never ends early, so none of its
    /// ops outlives it: a GET that found no object leaves its slot empty,
    /// and the whole action then reads as a missing object.
    pub(crate) fn complete_op(&mut self, slot: u32, outcome: OpOutcome) -> Option<ActionOutcome> {
        match &mut self.shape {
            PendingShape::Single => Some(match outcome {
                OpOutcome::GetOk { body } => ActionOutcome::Object(body),
                OpOutcome::GetMissing => ActionOutcome::MissingObject,
                _ => ActionOutcome::Done,
            }),
            PendingShape::Multi {
                results,
                remaining,
                puts,
            } => {
                if let OpOutcome::GetOk { body } = outcome {
                    results[slot as usize] = Some(body);
                }
                *remaining -= 1;
                if *remaining > 0 {
                    return None;
                }
                if *puts {
                    return Some(ActionOutcome::Done);
                }
                if results.iter().any(Option::is_none) {
                    return Some(ActionOutcome::MissingObject);
                }
                let bodies = results
                    .iter_mut()
                    .map(|r| r.take().expect("every slot is filled"));
                Some(ActionOutcome::Objects(bodies.collect()))
            }
        }
    }
}

/// A task's lifecycle phase.
#[derive(Debug)]
pub(crate) enum TaskPhase {
    /// Waiting to be dispatched (queued behind infra or a worker slot).
    Queued,
    /// A failed attempt's retry is waiting out its backoff; the retry
    /// timer puts the task back to `Queued` and re-dispatches it.
    Backoff,
    /// Sandbox invoked, cold start in progress (FaaS).
    Starting,
    /// Fetching the input bundle from object storage (FaaS).
    FetchingInput,
    /// Logic executing.
    Running,
    /// Writing the encoded result to object storage.
    WritingResult,
    /// Finished successfully.
    Done,
    /// Finished with an error (the job's [`ExecError`] holds the
    /// message).
    Failed,
}

/// One task of a job.
#[derive(Debug)]
pub(crate) struct TaskState {
    pub phase: TaskPhase,
    pub run: Option<TaskRun>,
    pub sandbox: Option<SandboxId>,
    /// Worker slot (vm index, proc index) on the serverful backend.
    pub worker: Option<(usize, usize)>,
    /// Dispatch attempts made so far. It also versions the task's
    /// in-flight work: every op and retry timer carries the count it was
    /// issued under, and one from an earlier attempt is dropped.
    pub attempts: u32,
    /// When the current attempt was dispatched (straggler detection).
    pub started_at: Option<SimTime>,
    /// Trace span of the current attempt ([`SpanId::NONE`] when tracing is
    /// off or no attempt is in flight).
    pub span: SpanId,
    /// Gated submission: the task is withheld from dispatch until a DAG
    /// scheduler releases it ([`crate::env::CloudEnv`]'s `release_task`).
    pub held: bool,
}

impl TaskState {
    pub(crate) fn new() -> Self {
        TaskState {
            phase: TaskPhase::Queued,
            run: None,
            sandbox: None,
            worker: None,
            attempts: 0,
            started_at: None,
            span: SpanId::NONE,
            held: false,
        }
    }
}

/// One `map` invocation.
pub(crate) struct JobState {
    pub id: usize,
    /// Shared with the bill label of every charge the job makes.
    pub name: Arc<str>,
    pub stateful: bool,
    pub backend: JobBackend,
    pub bucket: String,
    pub poll_interval: f64,
    pub factory: TaskFactory,
    pub retry: RetryPolicy,
    pub inputs: Vec<Payload>,
    pub tasks: Vec<TaskState>,
    pub results: Vec<Option<Payload>>,
    /// Tasks in the order they completed. `TaskPhase::Done` is terminal,
    /// so each task appears at most once.
    pub completed: Vec<usize>,
    /// Tasks still gated behind an explicit release (dataflow mode);
    /// 0 for ordinary jobs.
    pub held_tasks: usize,
    /// Backend infrastructure is ready to dispatch released tasks
    /// immediately (FaaS setup done / pool pushes acknowledged).
    pub dispatch_ready: bool,
    /// The storage-polling completion monitor has been started. Deferred
    /// until every task is released, so a gated job does not burn LIST
    /// requests polling for results that cannot exist yet.
    pub monitor_started: bool,
    pub submitted_at: SimTime,
    /// When the first gated task was released; `None` for ordinary
    /// (ungated) jobs, whose work starts at submission. The timeline's
    /// stage window opens here, so a pipelined stage's recorded start
    /// is when it first got runnable work, not when its gated shell was
    /// submitted.
    pub first_release_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
    pub error: Option<ExecError>,
    /// The host running the completion monitor (client for FaaS, the
    /// acting master for VMs); the monitor's loop state itself lives in
    /// the environment's per-job monitor handle.
    pub monitor_host: HostId,
    /// Root trace span covering the whole job.
    pub span: SpanId,
}

impl std::fmt::Debug for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobState")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("tasks", &self.tasks.len())
            .field("done", &self.completed.len())
            .finish()
    }
}

impl JobState {
    /// Total logical bytes the job's inputs reference; drives VM sizing.
    pub(crate) fn input_data_size(&self) -> u64 {
        self.inputs.iter().map(Payload::data_size).sum()
    }

    /// Key of a task's input bundle.
    pub(crate) fn input_key(&self, task: usize) -> String {
        format!("jobs/{}/input/{:05}", self.id, task)
    }

    /// Key of a task's result object.
    pub(crate) fn result_key(&self, task: usize) -> String {
        format!("jobs/{}/results/{:05}", self.id, task)
    }

    /// Prefix under which all result objects of the job live.
    pub(crate) fn result_prefix(&self) -> String {
        format!("jobs/{}/results/", self.id)
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ScriptTask;

    fn dummy_job() -> JobState {
        JobState {
            id: 3,
            name: "stage".into(),
            stateful: false,
            backend: JobBackend::Faas { memory_mb: 1769 },
            bucket: "b".into(),
            poll_interval: 1.0,
            factory: Arc::new(|_| ScriptTask::new().boxed()),
            retry: RetryPolicy::default(),
            inputs: vec![Payload::U64(1), Payload::Opaque { size: 100 }],
            tasks: vec![TaskState::new(), TaskState::new()],
            results: vec![None, None],
            completed: Vec::new(),
            held_tasks: 0,
            dispatch_ready: false,
            monitor_started: false,
            submitted_at: SimTime::ZERO,
            first_release_at: None,
            finished_at: None,
            error: None,
            monitor_host: HostId::from_index(0),
            span: SpanId::NONE,
        }
    }

    #[test]
    fn result_keys_are_stable_and_under_the_prefix() {
        let job = dummy_job();
        assert_eq!(job.result_key(7), "jobs/3/results/00007");
        assert!(job.result_key(7).starts_with(&job.result_prefix()));
    }

    #[test]
    fn input_size_sums_payloads() {
        let job = dummy_job();
        assert_eq!(job.input_data_size(), 108);
    }

    /// A GET's outcome, with an opaque body of `len` bytes.
    fn got(len: u64) -> OpOutcome {
        OpOutcome::GetOk {
            body: ObjectBody::opaque(len),
        }
    }

    #[test]
    fn single_op_completion_forwards_body() {
        let mut run = TaskRun::new(HostId::from_index(0), None);
        match run.complete_op(0, got(5)) {
            Some(ActionOutcome::Object(body)) => assert_eq!(body.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_op_waits_for_all_and_orders_results() {
        let mut run = TaskRun::new(HostId::from_index(0), None);
        run.shape = PendingShape::Multi {
            results: vec![None, None],
            remaining: 2,
            puts: false,
        };
        // Complete out of order.
        assert!(run.complete_op(1, got(2)).is_none());
        match run.complete_op(0, got(1)) {
            Some(ActionOutcome::Objects(objs)) => {
                assert_eq!(objs[0].len(), 1);
                assert_eq!(objs[1].len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_put_completion_is_done() {
        let mut run = TaskRun::new(HostId::from_index(0), None);
        run.shape = PendingShape::Multi {
            results: Vec::new(),
            remaining: 1,
            puts: true,
        };
        assert!(matches!(
            run.complete_op(0, OpOutcome::PutOk),
            Some(ActionOutcome::Done)
        ));
    }
}
