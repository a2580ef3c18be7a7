//! Per-layer counts of one cell. Traced runs report the world's span
//! census and event-queue counters; fleet cells report their admission
//! and pool counters (the fleet crate keeps its worlds private, so its
//! world-level counts stay zero); plan searches report candidates.

/// Counts one cell accumulated, summed over every region it simulated.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// World events ever scheduled.
    pub events_scheduled: f64,
    /// World events fired.
    pub events_fired: f64,
    /// World events cancelled before firing.
    pub events_cancelled: f64,
    /// Object-storage and KV request spans.
    pub storage_ops: f64,
    /// Cloud-function sandbox spans (cold start plus billed execution).
    pub faas_spans: f64,
    /// VM spans (boot plus billed uptime).
    pub vm_spans: f64,
    /// Task attempt spans.
    pub task_attempts: f64,
    /// Map job spans.
    pub map_jobs: f64,
    /// Stage submissions the fleet admission controller held back.
    pub admission_throttles: f64,
    /// Shared-pool leases granted.
    pub pool_leases: f64,
    /// Shared-pool leases that found warm VMs.
    pub pool_hits: f64,
    /// Planner candidates evaluated.
    pub plans_evaluated: f64,
}

impl Layers {
    /// Counts one traced run from its trace summary.
    pub fn record_trace(&mut self, summary: &str) -> Result<(), String> {
        let census = summary
            .lines()
            .find_map(|l| l.strip_prefix("trace: "))
            .and_then(|l| Some(&l[l.find('(')? + 1..l.find(')')?]))
            .ok_or_else(|| format!("trace summary has no span census:\n{summary}"))?;
        for entry in census.split(", ").filter(|e| !e.is_empty()) {
            let (cat, n) = entry
                .rsplit_once(' ')
                .and_then(|(c, n)| Some((c, n.parse::<f64>().ok()?)))
                .ok_or_else(|| format!("bad span census entry `{entry}`"))?;
            match cat {
                "storage" => self.storage_ops += n,
                "faas" => self.faas_spans += n,
                "vm" => self.vm_spans += n,
                "task" => self.task_attempts += n,
                "job" => self.map_jobs += n,
                _ => {}
            }
        }
        let sched: Vec<f64> = summary
            .lines()
            .find_map(|l| l.strip_prefix("scheduler: "))
            .ok_or_else(|| format!("trace summary has no scheduler line:\n{summary}"))?
            .split(", ")
            .filter_map(|part| part.split(' ').next()?.parse().ok())
            .collect();
        let [scheduled, fired, cancelled] = sched[..] else {
            return Err(format!("bad scheduler line in:\n{summary}"));
        };
        self.events_scheduled += scheduled;
        self.events_fired += fired;
        self.events_cancelled += cancelled;
        Ok(())
    }

    /// Counts one fleet policy cell.
    pub fn record_policy(&mut self, p: &fleet::PolicyOutcome) {
        self.admission_throttles += p.throttled as f64;
        self.pool_leases += p.pool_leases as f64;
        self.pool_hits += p.pool_hits as f64;
    }

    /// Every count by its ledger name, in a fixed order.
    pub fn named(&self) -> [(&'static str, f64); 12] {
        [
            ("events_scheduled", self.events_scheduled),
            ("events_fired", self.events_fired),
            ("events_cancelled", self.events_cancelled),
            ("storage_ops", self.storage_ops),
            ("faas_spans", self.faas_spans),
            ("vm_spans", self.vm_spans),
            ("task_attempts", self.task_attempts),
            ("map_jobs", self.map_jobs),
            ("admission_throttles", self.admission_throttles),
            ("pool_leases", self.pool_leases),
            ("pool_hits", self.pool_hits),
            ("plans_evaluated", self.plans_evaluated),
        ]
    }
}
