//! Master fault-tolerance accounting.
//!
//! The serverful backend's master VM is a single point of failure; the
//! recovery subsystem (`serverful::recovery`) either checkpoints its
//! state or removes it from the data path entirely. This module owns
//! the counters both strategies report through, so chaos experiments
//! can compare them: how often the master was replaced, how much work
//! was re-dispatched, and what the checkpoint stream cost in I/O.

use std::fmt;

/// Counters of recovery activity, the fault-tolerance twin of
/// [`crate::FaultLedger`].
///
/// Comparing two runs' stats for equality is how the chaos matrix
/// checks a seeded master-kill schedule replays exactly; the
/// `master_data_ops` counter is how the decentralized mode proves the
/// master left the data path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoint snapshots written to object storage.
    pub checkpoints_written: u64,
    /// Bytes of checkpoint payload written.
    pub checkpoint_bytes: u64,
    /// Replacement masters booted after a master-VM loss.
    pub masters_replaced: u64,
    /// Live workers re-adopted by a replacement master (epoch
    /// handshake).
    pub workers_readopted: u64,
    /// Task bundles re-dispatched because their acknowledgement was
    /// lost with the master.
    pub tasks_redispatched: u64,
    /// Completion-counter objects written to storage by finishing
    /// tasks (decentralized mode).
    pub counters_written: u64,
    /// Data-path operations routed through the master host after job
    /// submission. Decentralized mode must keep this at zero.
    pub master_data_ops: u64,
}

impl RecoveryStats {
    /// An empty stats block.
    pub fn new() -> RecoveryStats {
        RecoveryStats::default()
    }

    /// True when nothing was recorded — the expected state of a
    /// `Protected` run without master faults.
    pub fn is_empty(&self) -> bool {
        *self == RecoveryStats::default()
    }

    /// A plain-text report block (empty string when nothing happened).
    pub fn report(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("master recovery\n");
        let rows: [(&str, u64); 6] = [
            ("checkpoints written", self.checkpoints_written),
            ("checkpoint bytes", self.checkpoint_bytes),
            ("masters replaced", self.masters_replaced),
            ("workers re-adopted", self.workers_readopted),
            ("tasks re-dispatched", self.tasks_redispatched),
            ("counters written", self.counters_written),
        ];
        for (name, n) in rows {
            if n > 0 {
                out.push_str(&format!("  {name:<24} {n}\n"));
            }
        }
        out.push_str(&format!(
            "  {:<24} {}\n",
            "master data-path ops", self.master_data_ops
        ));
        out
    }
}

impl fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stats_are_empty_and_report_nothing() {
        let stats = RecoveryStats::new();
        assert!(stats.is_empty());
        assert!(stats.report().is_empty());
    }

    #[test]
    fn report_names_recorded_activity() {
        let mut stats = RecoveryStats::new();
        stats.masters_replaced = 1;
        stats.tasks_redispatched = 4;
        let report = stats.report();
        assert!(report.contains("masters replaced"));
        assert!(report.contains("tasks re-dispatched"));
        assert!(!report.contains("checkpoints written"));
        assert!(report.contains("master data-path ops"));
    }
}
