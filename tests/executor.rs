//! End-to-end tests of the FunctionExecutor on both backends.

use std::sync::Arc;

use cloudsim::ObjectBody;
use serverful::executor::MapOptions;
use serverful::{
    Action, ActionOutcome, Backend, CloudEnv, ExecMode, ExecutorConfig, FunctionExecutor, Payload,
    ScriptTask, Storage, TaskLogic, TaskStep,
};
use telemetry::CostCategory;

fn double_factory() -> serverful::job::TaskFactory {
    Arc::new(|input: &Payload| {
        let x = input.as_u64().expect("u64 input");
        ScriptTask::new()
            .compute(1.0)
            .finish_value(Payload::U64(x * 2))
            .boxed()
    })
}

#[test]
fn faas_map_returns_results_in_input_order() {
    let mut env = CloudEnv::new_default(11);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let inputs: Vec<Payload> = (0..20).map(Payload::U64).collect();
    let job = exec.map(&mut env, double_factory(), inputs);
    let results = exec.get_result(&mut env, job).expect("job succeeds");
    let expected: Vec<Payload> = (0..20).map(|x| Payload::U64(x * 2)).collect();
    assert_eq!(results, expected);
}

#[test]
fn faas_map_bills_lambda_and_storage() {
    let mut env = CloudEnv::new_default(11);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let job = exec.map(&mut env, double_factory(), vec![Payload::U64(1)]);
    exec.get_result(&mut env, job).unwrap();
    let ledger = env.world().ledger();
    assert!(ledger.total_for(CostCategory::FaasCompute) > 0.0);
    assert!(ledger.total_for(CostCategory::FaasRequests) > 0.0);
    // Input upload, result write, monitor LIST/GET all hit storage.
    assert!(ledger.total_for(CostCategory::StorageRequests) > 0.0);
    assert_eq!(ledger.total_for(CostCategory::VmCompute), 0.0);
}

#[test]
fn faas_map_takes_realistic_wall_time() {
    let mut env = CloudEnv::new_default(11);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let inputs: Vec<Payload> = (0..100).map(Payload::U64).collect();
    let factory: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .compute(5.0)
            .finish_value(Payload::Unit)
            .boxed()
    });
    let job = exec.map(&mut env, factory, inputs);
    exec.get_result(&mut env, job).unwrap();
    let secs = env.now().as_secs_f64();
    // The paper's Table 1 measures 12.56 s for this exact shape.
    assert!(
        (7.0..20.0).contains(&secs),
        "100x5s map should take ~8-15 s end-to-end, got {secs}"
    );
}

#[test]
fn vm_backend_runs_map_on_consolidated_instance() {
    let mut env = CloudEnv::new_default(13);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let inputs: Vec<Payload> = (0..8).map(Payload::U64).collect();
    let job = exec.map(&mut env, double_factory(), inputs);
    let results = exec.get_result(&mut env, job).expect("job succeeds");
    assert_eq!(results.len(), 8);
    assert_eq!(results[3], Payload::U64(6));
    // VM time was billed, not Lambda time... but only after teardown.
    exec.shutdown(&mut env);
    let ledger = env.world().ledger();
    assert_eq!(ledger.total_for(CostCategory::FaasCompute), 0.0);
    assert!(ledger.total_for(CostCategory::VmCompute) > 0.0);
    // Provisioning dominates: ~30 s boot + setup + ssh + work.
    let secs = env.now().as_secs_f64();
    assert!((30.0..90.0).contains(&secs), "got {secs}");
}

#[test]
fn vm_backend_reuses_instances_across_jobs() {
    let mut env = CloudEnv::new_default(13);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let job = exec.map(&mut env, double_factory(), vec![Payload::U64(1)]);
    exec.get_result(&mut env, job).unwrap();
    let after_first = env.now().as_secs_f64();
    let job = exec.map(&mut env, double_factory(), vec![Payload::U64(2)]);
    exec.get_result(&mut env, job).unwrap();
    let second_duration = env.now().as_secs_f64() - after_first;
    // No second boot: the job runs in a few seconds.
    assert!(
        second_duration < 0.5 * after_first,
        "second job ({second_duration} s) should be much faster than first ({after_first} s)"
    );
    exec.shutdown(&mut env);
}

#[test]
fn vm_backend_without_reuse_tears_down_after_job() {
    let mut env = CloudEnv::new_default(13);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.reuse_instances = false;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let job = exec.map(&mut env, double_factory(), vec![Payload::U64(1)]);
    exec.get_result(&mut env, job).unwrap();
    // VM billing already recorded without an explicit shutdown.
    assert!(env.world().ledger().total_for(CostCategory::VmCompute) > 0.0);
}

#[test]
fn vm_fleet_mode_uses_master_plus_workers() {
    let mut env = CloudEnv::new_default(17);
    let mut cfg = ExecutorConfig::default();
    cfg.standalone.exec_mode = ExecMode::Fleet {
        instance_type: "c5.2xlarge".into(),
        count: 2,
    };
    cfg.standalone.reuse_instances = false;
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), cfg);
    let inputs: Vec<Payload> = (0..32).map(Payload::U64).collect();
    let job = exec.map(&mut env, double_factory(), inputs);
    let results = exec.get_result(&mut env, job).expect("job succeeds");
    assert_eq!(results.len(), 32);
    // Three VMs were billed: master + 2 workers.
    let entries = env
        .world()
        .ledger()
        .entries()
        .iter()
        .filter(|e| e.category == CostCategory::VmCompute)
        .count();
    assert_eq!(entries, 3);
}

#[test]
fn hybrid_listing1_flow_passes_cloudobjects_between_backends() {
    // The paper's Listing 1: create objects on Lambda, double them on EC2.
    let mut env = CloudEnv::new_default(19);
    let _storage = Storage::new("lithops-workspace");

    // Stage 1 on Lambda: store x*10 as a cloudobject.
    let mut lambda = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let create: serverful::job::TaskFactory = Arc::new(|input: &Payload| {
        let x = input.as_u64().expect("u64");
        let data = Payload::U64(x * 10).encode();
        let key = format!("stage1/{x}");
        let len = data.len() as u64;
        ScriptTask::new()
            .put("lithops-workspace", &key, ObjectBody::real(data))
            .finish_value(Payload::CloudObject(serverful::CloudObjectRef::new(
                "lithops-workspace",
                key,
                len,
            )))
            .boxed()
    });
    let job = lambda.map(&mut env, create, vec![Payload::U64(1), Payload::U64(2)]);
    let cobjs = lambda.get_result(&mut env, job).expect("stage 1");

    // Stage 2 on EC2: read each object, double, return the value.
    let mut ec2 = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    let double: serverful::job::TaskFactory = Arc::new(|input: &Payload| {
        let r = input.as_cloudobject().expect("ref").clone();
        ScriptTask::new()
            .get(r.bucket.clone(), r.key.clone())
            .compute(0.1)
            .finish_with(|_, outcomes| {
                let body = match &outcomes[0] {
                    serverful::ActionOutcome::Object(b) => b,
                    other => panic!("unexpected {other:?}"),
                };
                let inner = Payload::decode(body.bytes().unwrap()).unwrap();
                TaskStep::Finish(Payload::U64(inner.as_u64().unwrap() * 2))
            })
            .boxed()
    });
    let job = ec2.map_with(
        &mut env,
        double,
        cobjs,
        MapOptions::named("double").stateful(),
    );
    let results = ec2.get_result(&mut env, job).expect("stage 2");
    assert_eq!(results, vec![Payload::U64(20), Payload::U64(40)]);
    ec2.shutdown(&mut env);

    // Both backends were billed.
    let ledger = env.world().ledger();
    assert!(ledger.total_for(CostCategory::FaasCompute) > 0.0);
    assert!(ledger.total_for(CostCategory::VmCompute) > 0.0);
    // The timeline recorded both stages, the second stateful.
    let tl = env.timeline();
    assert_eq!(tl.spans().len(), 2);
    assert!(tl.span("double").unwrap().stateful);
}

#[test]
fn failed_task_surfaces_as_error() {
    let mut env = CloudEnv::new_default(23);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let failing: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .get("nope-bucket", "nope-key")
            .finish_value(Payload::Unit)
            .boxed()
    });
    let job = exec.map(&mut env, failing, vec![Payload::Unit]);
    let err = exec.get_result(&mut env, job).expect_err("must fail");
    assert!(err.to_string().contains("task failed"), "{err}");
}

/// A multi-GET that misses a key ends once its last GET has landed, as
/// a missing object. A logic that carries on after the miss must not
/// see the action's other GETs land on its next action.
#[test]
fn multi_get_with_a_missing_key_ends_when_its_last_get_lands() {
    struct ToleratesMiss;
    impl TaskLogic for ToleratesMiss {
        fn on_start(&mut self, _: &Payload) -> TaskStep {
            let keys = vec!["big-0".into(), "nope".into(), "big-1".into()];
            TaskStep::Act(Action::GetMany {
                bucket: "data".into(),
                keys,
            })
        }

        fn on_action(&mut self, outcome: ActionOutcome) -> TaskStep {
            match outcome {
                ActionOutcome::MissingObject => TaskStep::Act(Action::Compute { cpu_secs: 0.1 }),
                ActionOutcome::Done => TaskStep::Finish(Payload::U64(42)),
                other => TaskStep::Fail(format!("unexpected {other:?}")),
            }
        }
    }
    let mut env = CloudEnv::new_default(37);
    for key in ["big-0", "big-1"] {
        env.seed_object("data", key, ObjectBody::opaque(16 << 20));
    }
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let factory: serverful::job::TaskFactory = Arc::new(|_| Box::new(ToleratesMiss));
    let job = exec.map(&mut env, factory, vec![Payload::Unit]);
    let results = exec
        .get_result(&mut env, job)
        .expect("the logic tolerates the miss");
    assert_eq!(results, vec![Payload::U64(42)]);
}

#[test]
fn kv_access_fails_cleanly_on_faas_backend() {
    let mut env = CloudEnv::new_default(29);
    let mut exec = FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
    let kv_task: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .action(serverful::Action::KvGet { key: "x".into() })
            .finish_value(Payload::Unit)
            .boxed()
    });
    let job = exec.map(&mut env, kv_task, vec![Payload::Unit]);
    let err = exec.get_result(&mut env, job).expect_err("must fail");
    assert!(err.to_string().contains("unsupported"), "{err}");
}

#[test]
fn kv_actions_work_on_vm_backend() {
    let mut env = CloudEnv::new_default(31);
    let mut exec = FunctionExecutor::new(&mut env, Backend::vm(), ExecutorConfig::default());
    // Task 0 writes to the master KV; then a second job reads it back
    // (same pool, instances reused).
    let writer: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .action(serverful::Action::KvPut {
                key: "shared".into(),
                body: ObjectBody::real(vec![42u8]),
            })
            .finish_value(Payload::Unit)
            .boxed()
    });
    let job = exec.map(&mut env, writer, vec![Payload::Unit]);
    exec.get_result(&mut env, job).unwrap();

    let reader: serverful::job::TaskFactory = Arc::new(|_| {
        ScriptTask::new()
            .action(serverful::Action::KvGet {
                key: "shared".into(),
            })
            .finish_with(|_, outcomes| match &outcomes[0] {
                serverful::ActionOutcome::KvValue(Some(body)) => {
                    TaskStep::Finish(Payload::U64(body.bytes().unwrap()[0] as u64))
                }
                other => panic!("unexpected {other:?}"),
            })
            .boxed()
    });
    let job = exec.map(&mut env, reader, vec![Payload::Unit]);
    let results = exec.get_result(&mut env, job).unwrap();
    assert_eq!(results, vec![Payload::U64(42)]);
    exec.shutdown(&mut env);
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let mut env = CloudEnv::new_default(37);
        let mut exec =
            FunctionExecutor::new(&mut env, Backend::faas(), ExecutorConfig::default());
        let job = exec.map(&mut env, double_factory(), (0..10).map(Payload::U64).collect());
        exec.get_result(&mut env, job).unwrap();
        (env.now(), env.world().ledger().total())
    };
    assert_eq!(run(), run());
}

/// `ScriptTask` driven by hand: action order, `finish_with`, the empty
/// script, a missing object and a multi-GET's result order.
mod task {
    use cloudsim::ObjectBody;
    use serverful::{Action, ActionOutcome, Payload, ScriptTask, TaskLogic, TaskStep};

    fn drive(mut logic: Box<dyn TaskLogic>, input: Payload) -> (Vec<String>, TaskStep) {
        let mut trace = Vec::new();
        let mut step = logic.on_start(&input);
        loop {
            match step {
                TaskStep::Act(action) => {
                    trace.push(format!("{action:?}"));
                    let outcome = match &action {
                        Action::Get { .. } => ActionOutcome::Object(ObjectBody::opaque(4)),
                        Action::GetMany { keys, .. } => ActionOutcome::Objects(
                            keys.iter().map(|_| ObjectBody::opaque(1)).collect(),
                        ),
                        Action::List { .. } => ActionOutcome::Keys(vec![]),
                        Action::KvGet { .. } => ActionOutcome::KvValue(None),
                        _ => ActionOutcome::Done,
                    };
                    step = logic.on_action(outcome);
                }
                terminal => return (trace, terminal),
            }
        }
    }

    #[test]
    fn script_runs_actions_in_order() {
        let task = ScriptTask::new()
            .compute(1.0)
            .get("b", "k")
            .put("b", "out", ObjectBody::opaque(8))
            .finish_value(Payload::U64(7));
        let (trace, end) = drive(task.boxed(), Payload::Unit);
        assert_eq!(trace.len(), 3);
        assert!(trace[0].contains("Compute"));
        assert!(trace[1].contains("Get"));
        assert!(trace[2].contains("Put"));
        match end {
            TaskStep::Finish(Payload::U64(7)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn finish_with_sees_input_and_outcomes() {
        let task = ScriptTask::new()
            .get("b", "k")
            .finish_with(|input, outcomes| {
                let x = input.as_u64().unwrap();
                let got = match &outcomes[0] {
                    ActionOutcome::Object(body) => body.len(),
                    other => panic!("unexpected {other:?}"),
                };
                TaskStep::Finish(Payload::U64(x + got))
            });
        let (_, end) = drive(task.boxed(), Payload::U64(10));
        match end {
            TaskStep::Finish(Payload::U64(14)) => {} // 10 + 4-byte object
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_script_finishes_unit() {
        let (trace, end) = drive(ScriptTask::new().boxed(), Payload::Unit);
        assert!(trace.is_empty());
        assert!(matches!(end, TaskStep::Finish(Payload::Unit)));
    }

    #[test]
    fn missing_object_fails_script() {
        let mut logic = ScriptTask::new().get("b", "k").finish_value(Payload::Unit);
        let step = logic.on_start(&Payload::Unit);
        assert!(matches!(step, TaskStep::Act(Action::Get { .. })));
        let step = logic.on_action(ActionOutcome::MissingObject);
        assert!(matches!(step, TaskStep::Fail(_)));
    }

    #[test]
    fn get_many_preserves_key_order_contract() {
        let task = ScriptTask::new()
            .get_many("b", vec!["k1".into(), "k2".into(), "k3".into()])
            .finish_with(|_, outcomes| match &outcomes[0] {
                ActionOutcome::Objects(objs) => TaskStep::Finish(Payload::U64(objs.len() as u64)),
                other => panic!("unexpected {other:?}"),
            });
        let (_, end) = drive(task.boxed(), Payload::Unit);
        assert!(matches!(end, TaskStep::Finish(Payload::U64(3))));
    }
}

/// `Storage`'s cloud-object round trips: real and opaque payloads, a
/// dangling ref, a delete and distinct keys.
mod storage {
    use serverful::{CloudEnv, CloudObjectRef, ExecError, Payload, Storage};

    #[test]
    fn cloudobject_roundtrip_through_storage() {
        let mut env = CloudEnv::new_default(5);
        let storage = Storage::new("data");
        let payload = Payload::Str("hello".into());
        let cobj = storage.put_cloudobject(&mut env, &payload).unwrap();
        assert!(cobj.size > 0);
        let back = storage.get_cloudobject(&mut env, &cobj).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn opaque_payloads_stay_opaque() {
        let mut env = CloudEnv::new_default(5);
        let storage = Storage::new("data");
        let payload = Payload::Opaque { size: 1 << 20 };
        let cobj = storage.put_cloudobject(&mut env, &payload).unwrap();
        assert_eq!(cobj.size, 1 << 20);
        let back = storage.get_cloudobject(&mut env, &cobj).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn dangling_ref_reports_missing() {
        let mut env = CloudEnv::new_default(5);
        let storage = Storage::new("data");
        let cobj = CloudObjectRef::new("data", "nope", 1);
        match storage.get_cloudobject(&mut env, &cobj) {
            Err(ExecError::MissingObject { key, .. }) => assert_eq!(key, "nope"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_removes_object() {
        let mut env = CloudEnv::new_default(5);
        let storage = Storage::new("data");
        let cobj = storage
            .put_cloudobject(&mut env, &Payload::U64(1))
            .unwrap();
        storage.delete_cloudobject(&mut env, &cobj).unwrap();
        assert!(matches!(
            storage.get_cloudobject(&mut env, &cobj),
            Err(ExecError::MissingObject { .. })
        ));
    }

    #[test]
    fn refs_get_distinct_keys() {
        let mut env = CloudEnv::new_default(5);
        let storage = Storage::new("data");
        let a = storage.put_cloudobject(&mut env, &Payload::U64(1)).unwrap();
        let b = storage.put_cloudobject(&mut env, &Payload::U64(2)).unwrap();
        assert_ne!(a.key, b.key);
    }
}
