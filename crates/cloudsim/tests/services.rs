//! Service-model behaviours: burst limits, request-rate admission,
//! billing attribution, the managed service, and host-to-host transfers.

use cloudsim::{instance_type, CloudConfig, Notify, ObjectBody, OpId, World};
use simkernel::SimTime;
use telemetry::CostCategory;

fn pump_all_sandboxes(world: &mut World, n: usize) -> Vec<SimTime> {
    let mut times = Vec::new();
    while times.len() < n {
        match world.step() {
            Some((t, Notify::SandboxUp { .. })) => times.push(t),
            Some(_) => {}
            None => panic!("drained with {} of {n} sandboxes up", times.len()),
        }
    }
    times
}

#[test]
fn faas_burst_limit_throttles_sandbox_starts() {
    let mut cfg = CloudConfig::default();
    cfg.faas.burst = 10;
    cfg.faas.starts_per_sec = 5.0;
    cfg.faas.cold_start_median = 0.2;
    cfg.faas.cold_start_sigma = 0.01;
    let mut w = World::new(cfg, 31);
    for _ in 0..30 {
        w.faas_invoke(1769, "lambda");
    }
    let times = pump_all_sandboxes(&mut w, 30);
    // The first 10 start right after invoke+cold; the remaining 20 drip
    // at 5/s => the last lands around (20/5) = 4 s later.
    let first = times.iter().copied().min().unwrap().as_secs_f64();
    let last = times.iter().copied().max().unwrap().as_secs_f64();
    assert!(last - first > 3.0, "burst not throttled: {first}..{last}");
}

#[test]
fn storage_request_rate_limits_admission() {
    let mut cfg = CloudConfig::default();
    cfg.storage.put_rate_per_sec = 100.0; // 10 ms gap
    let mut w = World::new(cfg, 33);
    let client = w.client_host();
    let ops: Vec<OpId> = (0..200)
        .map(|i| w.put_object(client, "b", format!("k{i}"), ObjectBody::opaque(1)))
        .collect();
    let mut remaining: std::collections::HashSet<OpId> = ops.into_iter().collect();
    let mut last = SimTime::ZERO;
    while !remaining.is_empty() {
        match w.step() {
            Some((t, Notify::Op { op, .. })) => {
                if remaining.remove(&op) {
                    last = last.max(t);
                }
            }
            Some(_) => {}
            None => panic!("drained early"),
        }
    }
    // 200 requests at 100/s take at least 2 s regardless of size.
    assert!(last.as_secs_f64() >= 1.9, "got {last}");
}

#[test]
fn billing_labels_attribute_charges() {
    let mut w = World::new(CloudConfig::default(), 35);
    let client = w.client_host();
    w.set_bill_label("stage-a");
    let op = w.put_object(client, "b", "x", ObjectBody::opaque(1));
    drain_op(&mut w, op);
    w.set_bill_label("stage-b");
    let op = w.put_object(client, "b", "y", ObjectBody::opaque(1));
    drain_op(&mut w, op);
    let ledger = w.ledger();
    assert!(ledger.total_labelled("stage-a") > 0.0);
    assert!(ledger.total_labelled("stage-b") > 0.0);
    assert_eq!(ledger.total_labelled("stage-c"), 0.0);
}

fn drain_op(w: &mut World, op: OpId) {
    loop {
        match w.step() {
            Some((_, Notify::Op { op: done, .. })) if done == op => return,
            Some(_) => {}
            None => panic!("drained before {op}"),
        }
    }
}

#[test]
fn emr_jobs_run_independently() {
    let mut w = World::new(CloudConfig::default(), 37);
    let a = w.emr_submit(10, 1.0);
    let _b = w.emr_submit(200, 2.0);
    let mut done = Vec::new();
    while done.len() < 2 {
        match w.step() {
            Some((t, Notify::EmrDone { job })) => done.push((job, t)),
            Some(_) => {}
            None => panic!("drained"),
        }
    }
    let (first_job, first_t) = done[0];
    assert_eq!(first_job, a, "the small job finishes first");
    let (_, second_t) = done[1];
    assert!(second_t > first_t);
    assert!(w.ledger().total_for(CostCategory::ManagedService) > 0.0);
}

#[test]
fn net_transfer_is_bounded_by_the_slower_nic() {
    let mut w = World::new(CloudConfig::default(), 39);
    let m4 = instance_type("m4.4xlarge").unwrap(); // 2.0 Gbit/s
    let c5 = instance_type("c5.4xlarge").unwrap(); // 5.0 Gbit/s
    let vm_a = w.vm_provision(m4, "x");
    let vm_b = w.vm_provision(c5, "x");
    let mut up = 0;
    while up < 2 {
        if let Some((_, Notify::VmUp { .. })) = w.step() {
            up += 1;
        }
    }
    let a = w.vm_host(vm_a);
    let b = w.vm_host(vm_b);
    let t0 = w.now();
    // 2.5 GB over a 2 Gbit/s (250 MB/s) bottleneck: ~10 s.
    let op = w.net_transfer(a, b, 2_500_000_000);
    drain_op(&mut w, op);
    let secs = (w.now() - t0).as_secs_f64();
    assert!((9.5..12.0).contains(&secs), "got {secs}");
}

#[test]
fn concurrent_transfers_share_a_nic() {
    let mut w = World::new(CloudConfig::default(), 41);
    let m4 = instance_type("m4.4xlarge").unwrap();
    let c5 = instance_type("c5.4xlarge").unwrap();
    let hub = w.vm_provision(m4, "x");
    let spoke1 = w.vm_provision(c5, "x");
    let spoke2 = w.vm_provision(c5, "x");
    let mut up = 0;
    while up < 3 {
        if let Some((_, Notify::VmUp { .. })) = w.step() {
            up += 1;
        }
    }
    let hub_host = w.vm_host(hub);
    let t0 = w.now();
    // Two 1.25 GB transfers out of the same 250 MB/s NIC: 10 s total.
    let op1 = w.net_transfer(hub_host, w.vm_host(spoke1), 1_250_000_000);
    let op2 = w.net_transfer(hub_host, w.vm_host(spoke2), 1_250_000_000);
    let mut remaining: std::collections::HashSet<OpId> = [op1, op2].into_iter().collect();
    while !remaining.is_empty() {
        match w.step() {
            Some((_, Notify::Op { op, .. })) => {
                remaining.remove(&op);
            }
            Some(_) => {}
            None => panic!("drained before both transfers finished"),
        }
    }
    let secs = (w.now() - t0).as_secs_f64();
    assert!((9.5..12.0).contains(&secs), "got {secs}");
}

#[test]
fn opaque_and_real_bodies_cost_the_same_to_move() {
    let run = |body: ObjectBody| {
        let mut w = World::new(CloudConfig::default(), 43);
        let client = w.client_host();
        let op = w.put_object(client, "b", "k", body);
        drain_op(&mut w, op);
        w.now()
    };
    let real = run(ObjectBody::real(vec![7u8; 1_000_000]));
    let opaque = run(ObjectBody::opaque(1_000_000));
    assert_eq!(real, opaque, "timing must not depend on materialisation");
}

#[test]
fn vcpu_seconds_track_provisioning_windows() {
    let mut w = World::new(CloudConfig::default(), 45);
    let it = instance_type("c5.large").unwrap(); // 2 vCPUs
    let vm = w.vm_provision(it, "fleet");
    let up_at = loop {
        if let Some((t, Notify::VmUp { .. })) = w.step() {
            break t;
        }
    };
    let op = w.compute(w.vm_host(vm), 100.0);
    drain_op(&mut w, op);
    w.vm_terminate(vm);
    let end = w.now();
    let provisioned = w.cpu_monitor().provisioned_vcpu_seconds(up_at, end);
    assert!((provisioned - 200.0).abs() < 1.0, "got {provisioned}");
    let busy = w.cpu_monitor().busy_vcpu_seconds(up_at, end);
    assert!((busy - 100.0).abs() < 1.0, "got {busy}");
}
