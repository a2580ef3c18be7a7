//! The cross-job shared VM pool.
//!
//! Extends serverful's proactive provisioning across *jobs*: a fixed
//! set of serverful executors stays alive for the whole run, leased to
//! whichever job next needs a stateful stage (or a degraded stateless
//! one). The executors keep their instances warm between leases
//! ([`serverful::StandaloneConfig::reuse_instances`]) and tear them
//! down after the scenario's keep-alive window
//! ([`serverful::StandaloneConfig::idle_timeout_secs`]), so pool cost
//! tracks load instead of wall clock.

use serverful::{Backend, CloudEnv, ExecMode, ExecutorConfig, FunctionExecutor};

use crate::scenario::PoolConfig;

/// A shared pool of warm serverful executors plus its lease statistics.
pub struct SharedPool {
    execs: Vec<FunctionExecutor>,
    /// Total leases granted.
    pub leases: usize,
    /// Leases that found the chosen executor's VMs already warm (no
    /// boot time on the critical path).
    pub hits: usize,
}

impl SharedPool {
    /// Creates the pool's executors. VMs provision lazily on the first
    /// lease of each executor, so an unused pool costs nothing.
    ///
    /// With [`PoolConfig::workers`] `> 0` each executor runs fleet-mode
    /// (a dedicated master plus that many `instance`-typed workers, the
    /// layout whose worker slots can bid spot); `master_instance`
    /// overrides the master type for regions whose catalog lacks the
    /// AWS default (see [`cloudsim::RegionProfile::master_instance`]).
    pub fn new(env: &mut CloudEnv, cfg: &PoolConfig, master_instance: Option<&str>) -> Self {
        assert!(cfg.size > 0, "shared pool needs at least one executor");
        let execs = (0..cfg.size)
            .map(|i| {
                let mut exec_cfg = ExecutorConfig::default();
                exec_cfg.standalone.instance_override = Some(cfg.instance.clone());
                exec_cfg.standalone.idle_timeout_secs = Some(cfg.idle_timeout_secs);
                exec_cfg.standalone.fleet_label = Some(format!("shared-pool-{i}"));
                exec_cfg.standalone.recovery = cfg.recovery;
                exec_cfg.standalone.bid = cfg.bid;
                if cfg.workers > 0 {
                    exec_cfg.standalone.exec_mode = ExecMode::Fleet {
                        instance_type: cfg.instance.clone(),
                        count: cfg.workers,
                    };
                }
                if let Some(master) = master_instance {
                    exec_cfg.standalone.master_instance = master.to_owned();
                }
                FunctionExecutor::new(env, Backend::vm(), exec_cfg)
            })
            .collect();
        SharedPool {
            execs,
            leases: 0,
            hits: 0,
        }
    }

    /// Leases an executor for one stage: the first warm idle executor,
    /// else the one with the shortest backlog (first index on ties —
    /// deterministic). Returns the executor's index; counts the lease a
    /// *hit* when the chosen executor was warm.
    pub fn lease(&mut self, env: &CloudEnv) -> usize {
        let chosen = self
            .execs
            .iter()
            .enumerate()
            .find(|(_, e)| e.warm(env) && e.backlog(env) == 0)
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                (0..self.execs.len())
                    .min_by_key(|&i| self.execs[i].backlog(env))
                    .expect("pool is non-empty")
            });
        self.leases += 1;
        if self.execs[chosen].warm(env) {
            self.hits += 1;
        }
        chosen
    }

    /// The executor behind a lease.
    pub fn exec_mut(&mut self, lease: usize) -> &mut FunctionExecutor {
        &mut self.execs[lease]
    }

    /// Whether some executor has nothing running or queued — when every
    /// executor is busy the driver bursts stateless stages to cloud
    /// functions instead of queueing behind the pool.
    pub fn any_idle(&self, env: &CloudEnv) -> bool {
        self.execs.iter().any(|e| e.backlog(env) == 0)
    }

    /// Warm-lease fraction in percent; `None` before the first lease.
    pub fn hit_pct(&self) -> Option<f64> {
        (self.leases > 0).then(|| self.hits as f64 / self.leases as f64 * 100.0)
    }

    /// Tears down every executor's remaining VMs.
    pub fn shutdown(&mut self, env: &mut CloudEnv) {
        for e in &mut self.execs {
            e.shutdown(env);
        }
    }
}
