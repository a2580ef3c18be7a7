//! Job and task state.
//!
//! A *job* is one `map` call: a factory applied to N inputs, producing N
//! results. Tasks move through backend-specific phases; the common parts
//! (the task run executing a [`TaskLogic`] against the simulated world,
//! and the storage-based completion monitor) live here.

use std::sync::Arc;

use cloudsim::{HostId, KvId, ObjectBody, OpId, SandboxId};
use simkernel::{IdMap, SimTime};
use telemetry::trace::SpanId;

use crate::error::ExecError;
use crate::payload::Payload;
use crate::retry::RetryPolicy;
use crate::task::{ActionOutcome, TaskLogic};

/// Creates a fresh [`TaskLogic`] for an input. Shared by all tasks of a
/// job (the "function" being mapped).
pub type TaskFactory = Arc<dyn Fn(&Payload) -> Box<dyn TaskLogic> + Send + Sync>;

/// Which backend executes a job.
#[derive(Debug, Clone)]
pub(crate) enum JobBackend {
    Faas {
        memory_mb: u32,
        fetch_input: bool,
        fleet: String,
    },
    Standalone {
        pool: usize,
    },
}

/// The in-flight I/O shape of a task's current action.
#[derive(Debug)]
pub(crate) enum PendingShape {
    /// A single op; outcome forwarded directly.
    Single,
    /// A multi-op (GetMany/PutMany); results gathered in request order.
    Multi { results: Vec<Option<ObjectBody>>, puts: bool },
}

/// A logical function executing on a host.
pub(crate) struct TaskRun {
    pub logic: Box<dyn TaskLogic>,
    pub host: HostId,
    /// The master's KV store, when running on the serverful backend.
    pub kv: Option<KvId>,
    /// Outstanding ops of the current action, mapped to their index.
    pub pending: IdMap<OpId, usize>,
    pub shape: PendingShape,
    /// The overlapped-I/O busy fraction currently applied (0 = none).
    pub io_busy: f64,
}

impl std::fmt::Debug for TaskRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskRun")
            .field("host", &self.host)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl TaskRun {
    pub(crate) fn new(logic: Box<dyn TaskLogic>, host: HostId, kv: Option<KvId>) -> Self {
        TaskRun {
            logic,
            host,
            kv,
            pending: IdMap::default(),
            shape: PendingShape::Single,
            io_busy: 0.0,
        }
    }

    /// Records a completed op; returns the assembled outcome when the
    /// action is fully done.
    pub(crate) fn complete_op(
        &mut self,
        op: OpId,
        body: Option<ObjectBody>,
    ) -> Option<ActionOutcome> {
        let index = self
            .pending
            .remove(&op)
            .expect("op completed for a task that did not issue it");
        match &mut self.shape {
            PendingShape::Single => {
                debug_assert!(self.pending.is_empty());
                Some(match body {
                    Some(b) => ActionOutcome::Object(b),
                    None => ActionOutcome::Done,
                })
            }
            PendingShape::Multi { results, puts } => {
                results[index] = Some(body.unwrap_or_else(|| ObjectBody::opaque(0)));
                if self.pending.is_empty() {
                    let collected: Vec<ObjectBody> = results
                        .iter_mut()
                        .map(|r| r.take().expect("hole in multi-op results"))
                        .collect();
                    Some(if *puts {
                        ActionOutcome::Done
                    } else {
                        ActionOutcome::Objects(collected)
                    })
                } else {
                    None
                }
            }
        }
    }
}

/// A task's lifecycle phase.
#[derive(Debug)]
pub(crate) enum TaskPhase {
    /// Waiting to be dispatched (queued behind infra or a worker slot).
    Queued,
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
    /// Finished with an error (message kept for debugging).
    #[allow(dead_code)]
    Failed(String),
}

/// One task of a job.
#[derive(Debug)]
pub(crate) struct TaskState {
    pub phase: TaskPhase,
    pub run: Option<TaskRun>,
    pub sandbox: Option<SandboxId>,
    /// Worker slot (vm index, proc index) on the serverful backend.
    pub worker: Option<(usize, usize)>,
    /// Dispatch attempts made so far (also versions the task's in-flight
    /// work: stale retry timers from a previous attempt are dropped).
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
    pub name: String,
    pub stateful: bool,
    pub backend: JobBackend,
    pub bucket: String,
    pub poll_interval: f64,
    pub factory: TaskFactory,
    pub setup_secs: f64,
    pub io_overlap: f64,
    pub retry: RetryPolicy,
    pub inputs: Vec<Payload>,
    pub tasks: Vec<TaskState>,
    pub results: Vec<Option<Payload>>,
    pub done_tasks: usize,
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
            .field("done", &self.done_tasks)
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

    /// Parses the task index out of a result key.
    pub(crate) fn task_of_result_key(&self, key: &str) -> Option<usize> {
        key.strip_prefix(&self.result_prefix())?.parse().ok()
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
            backend: JobBackend::Faas {
                memory_mb: 1769,
                fetch_input: true,
                fleet: "lambda".into(),
            },
            bucket: "b".into(),
            poll_interval: 1.0,
            factory: Arc::new(|_| ScriptTask::new().boxed()),
            setup_secs: 0.0,
            io_overlap: 0.0,
            retry: RetryPolicy::default(),
            inputs: vec![Payload::U64(1), Payload::Opaque { size: 100 }],
            tasks: vec![TaskState::new(), TaskState::new()],
            results: vec![None, None],
            done_tasks: 0,
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
    fn keys_are_stable_and_parseable() {
        let job = dummy_job();
        assert_eq!(job.result_key(7), "jobs/3/results/00007");
        assert_eq!(job.task_of_result_key("jobs/3/results/00007"), Some(7));
        assert_eq!(job.task_of_result_key("jobs/3/results/xyz"), None);
        assert_eq!(job.task_of_result_key("other/3/results/1"), None);
    }

    #[test]
    fn input_size_sums_payloads() {
        let job = dummy_job();
        assert_eq!(job.input_data_size(), 108);
    }

    #[test]
    fn single_op_completion_forwards_body() {
        let mut run = TaskRun::new(ScriptTask::new().boxed(), HostId::from_index(0), None);
        let op = OpId::from_index(1);
        run.pending.insert(op, 0);
        match run.complete_op(op, Some(ObjectBody::opaque(5))) {
            Some(ActionOutcome::Object(body)) => assert_eq!(body.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_op_waits_for_all_and_orders_results() {
        let mut run = TaskRun::new(ScriptTask::new().boxed(), HostId::from_index(0), None);
        run.shape = PendingShape::Multi {
            results: vec![None, None],
            puts: false,
        };
        let a = OpId::from_index(1);
        let b = OpId::from_index(2);
        run.pending.insert(a, 0);
        run.pending.insert(b, 1);
        // Complete out of order.
        assert!(run.complete_op(b, Some(ObjectBody::opaque(2))).is_none());
        match run.complete_op(a, Some(ObjectBody::opaque(1))) {
            Some(ActionOutcome::Objects(objs)) => {
                assert_eq!(objs[0].len(), 1);
                assert_eq!(objs[1].len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multi_put_completion_is_done() {
        let mut run = TaskRun::new(ScriptTask::new().boxed(), HostId::from_index(0), None);
        run.shape = PendingShape::Multi {
            results: vec![None],
            puts: true,
        };
        let a = OpId::from_index(1);
        run.pending.insert(a, 0);
        assert!(matches!(
            run.complete_op(a, None),
            Some(ActionOutcome::Done)
        ));
    }
}
