//! The region-level admission controller.
//!
//! [`cloudsim::World`] tracks usage ([`cloudsim::World::faas_active`],
//! [`cloudsim::World::vm_vcpus_active`]); *policy* lives here: a stage
//! submission is admitted only while it fits under the shared
//! [`RegionQuotas`], otherwise the driver queues it (throttle) or — for
//! the shared-pool policy — reroutes it to a warm VM (degrade).

use cloudsim::{RegionQuotas, World};

/// Admission decisions plus the throttle/degrade counters the report
/// surfaces.
#[derive(Debug, Clone)]
pub struct Admission {
    quotas: RegionQuotas,
    /// Stage submissions that had to wait for quota headroom.
    pub throttled: usize,
    /// Stage submissions rerouted between the pool and cloud functions
    /// under pressure (a saturated pool bursting a stateless stage to
    /// FaaS).
    pub degraded: usize,
}

impl Admission {
    /// Creates a controller over the given quotas.
    pub fn new(quotas: RegionQuotas) -> Self {
        Admission {
            quotas,
            throttled: 0,
            degraded: 0,
        }
    }

    /// Whether a FaaS stage of `tasks` sandboxes fits under the Lambda
    /// concurrency quota right now. An idle region always admits, so a
    /// stage wider than the whole quota degrades to sequential-by-quota
    /// behaviour instead of deadlocking.
    pub fn admits_faas(&self, world: &World, tasks: usize) -> bool {
        world.faas_active() == 0 || world.faas_active() + tasks <= self.quotas.lambda_concurrency
    }

    /// Whether provisioning `vcpus` more EC2 vCPUs fits under the
    /// region's capacity limit (same idle-region escape hatch).
    pub fn admits_vm(&self, world: &World, vcpus: f64) -> bool {
        world.vm_vcpus_active() == 0.0
            || world.vm_vcpus_active() + vcpus <= self.quotas.ec2_vcpus
    }

    /// Records one throttled submission.
    pub fn note_throttle(&mut self) {
        self.throttled += 1;
    }

    /// Records one degraded submission.
    pub fn note_degrade(&mut self) {
        self.degraded += 1;
    }
}
