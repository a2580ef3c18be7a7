//! A deterministic allocation budget for one paper-scale Brain run.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed` and
//! `realloc` call per thread (the harness runs tests on parallel
//! threads, and a run never leaves its thread). The simulation is
//! deterministic, so the count repeats exactly run after run, and debug
//! builds count what release builds count: a performance gate that
//! counts instead of timing, so it cannot flake on a shared host.
//!
//! Most of a run is storage traffic (every cloud-function task reads its
//! input from object storage and writes its result back). A storage
//! request has one owner at a time and bill labels are shared, so an op
//! copies neither its key nor its job's name. Before that change the
//! seed-42 runs made 96,960 (serverless) and 48,489 (hybrid)
//! allocations, after it 47,478 and 25,377. A cloud-function attempt's
//! run, made when its input fetch starts, carries on into the task with
//! a zero-sized stand-in logic, instead of a boxed empty script and a
//! second run: that took the runs from 46,577 and 24,666 to 45,035 and
//! 23,444 allocations. A task's ops now carry their attempt and their
//! slot in a multi-op action, so a run keeps no map of its ops and a
//! multi-PUT no result slots: 43,496 and 22,785. Each bound below is the
//! current count plus about 10%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use serverful_repro::cloudsim::CloudConfig;
use serverful_repro::metaspace::{self, jobs, pipeline, DeploymentPlan, Stage};

/// [`System`], counting allocation calls on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during a thread's own teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one untraced seed-42 run of Brain under `plan`.
fn brain_run_allocations(plan: fn(&[Stage]) -> DeploymentPlan) -> u64 {
    let w = pipeline::job_workload(&jobs::brain());
    let plan = plan(&w.stages);
    let before = ALLOCATIONS.with(Cell::get);
    let run = metaspace::run_workload(&w, &plan, 42, CloudConfig::default(), false);
    drop(run.expect("Brain runs"));
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn serverless_brain_run_stays_within_its_allocation_budget() {
    let n = brain_run_allocations(DeploymentPlan::serverless);
    eprintln!("serverless Brain run: {n} allocations");
    assert!(
        n <= 48_000,
        "serverless Brain run made {n} allocations (budget 48,000)"
    );
}

#[test]
fn hybrid_brain_run_stays_within_its_allocation_budget() {
    let n = brain_run_allocations(DeploymentPlan::hybrid);
    eprintln!("hybrid Brain run: {n} allocations");
    assert!(
        n <= 25_100,
        "hybrid Brain run made {n} allocations (budget 25,100)"
    );
}
