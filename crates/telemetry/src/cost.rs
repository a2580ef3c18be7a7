//! Billing ledger.
//!
//! Every simulated charge flows through a [`CostLedger`]: Lambda GB-second
//! and request fees, EC2 instance-seconds, S3 request fees, and managed
//! service premiums. Keeping the raw entries (rather than one running
//! total) lets the harness answer the paper's finer-grained questions,
//! e.g. "the time for reading, exchanging and writing data with cloud
//! functions is charged at $0.75" (Figure 5 discussion).

use std::fmt;
use std::sync::Arc;

use simkernel::SimTime;

/// What a charge pays for. Categories follow the services in the paper's
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CostCategory {
    /// Cloud-function compute (GB-seconds).
    FaasCompute,
    /// Cloud-function invocation fees (per request).
    FaasRequests,
    /// Object-storage request fees (GET/PUT/LIST).
    StorageRequests,
    /// Virtual-machine instance time (per-second billing).
    VmCompute,
    /// Managed-service premium (the EMR-Serverless-style baseline).
    ManagedService,
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CostCategory::FaasCompute => "faas-compute",
            CostCategory::FaasRequests => "faas-requests",
            CostCategory::StorageRequests => "storage-requests",
            CostCategory::VmCompute => "vm-compute",
            CostCategory::ManagedService => "managed-service",
        };
        f.write_str(name)
    }
}

/// One billed charge.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEntry {
    /// When the charge accrued (end of the billed activity).
    pub at: SimTime,
    /// Service category.
    pub category: CostCategory,
    /// Dollars.
    pub amount: f64,
    /// Free-form attribution, e.g. a stage or job name. Shared, so
    /// charging many entries under one label copies no string.
    pub label: Arc<str>,
}

/// An append-only ledger of simulated charges, in dollars.
///
/// # Example
///
/// ```
/// use simkernel::SimTime;
/// use telemetry::{CostCategory, CostLedger};
///
/// let mut ledger = CostLedger::new();
/// ledger.charge(SimTime::ZERO, CostCategory::VmCompute, 0.05, "sort VM");
/// assert_eq!(ledger.total_for(CostCategory::VmCompute), 0.05);
/// assert_eq!(ledger.total_for(CostCategory::FaasCompute), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    entries: Vec<CostEntry>,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Appends a charge.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite; refunds are not a
    /// thing in this simulation.
    pub fn charge(
        &mut self,
        at: SimTime,
        category: CostCategory,
        amount: f64,
        label: impl Into<Arc<str>>,
    ) {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "charges must be finite and non-negative, got {amount}"
        );
        self.entries.push(CostEntry {
            at,
            category,
            amount,
            label: label.into(),
        });
    }

    /// Sum of all charges.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|e| e.amount).sum()
    }

    /// Sum of charges in one category.
    pub fn total_for(&self, category: CostCategory) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.category == category)
            .map(|e| e.amount)
            .sum()
    }

    /// Sum of charges whose label contains `needle`; used for per-stage
    /// cost attribution.
    pub fn total_labelled(&self, needle: &str) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.label.contains(needle))
            .map(|e| e.amount)
            .sum()
    }

    /// All entries in append order.
    pub fn entries(&self) -> &[CostEntry] {
        &self.entries
    }

    /// Folds another ledger into this one.
    pub fn absorb(&mut self, other: CostLedger) {
        self.entries.extend(other.entries);
    }

    /// Drops all entries (e.g. to exclude warm-up from a measurement).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn totals_by_category() {
        let mut ledger = CostLedger::new();
        ledger.charge(t0(), CostCategory::FaasCompute, 1.0, "a");
        ledger.charge(t0(), CostCategory::FaasCompute, 2.0, "b");
        ledger.charge(t0(), CostCategory::VmCompute, 4.0, "c");
        assert_eq!(ledger.total(), 7.0);
        assert_eq!(ledger.total_for(CostCategory::FaasCompute), 3.0);
        assert_eq!(ledger.total_for(CostCategory::StorageRequests), 0.0);
    }

    #[test]
    fn labelled_totals_match_substring() {
        let mut ledger = CostLedger::new();
        ledger.charge(t0(), CostCategory::FaasCompute, 1.0, "sort/map");
        ledger.charge(t0(), CostCategory::StorageRequests, 0.5, "sort/merge");
        ledger.charge(t0(), CostCategory::FaasCompute, 8.0, "annotate");
        assert_eq!(ledger.total_labelled("sort"), 1.5);
        assert_eq!(ledger.total_labelled("annotate"), 8.0);
    }

    #[test]
    fn absorb_merges_entries() {
        let mut a = CostLedger::new();
        a.charge(t0(), CostCategory::VmCompute, 1.0, "x");
        let mut b = CostLedger::new();
        b.charge(t0(), CostCategory::VmCompute, 2.0, "y");
        a.absorb(b);
        assert_eq!(a.total(), 3.0);
        assert_eq!(a.entries().len(), 2);
    }

    #[test]
    fn reset_clears() {
        let mut ledger = CostLedger::new();
        ledger.charge(t0(), CostCategory::VmCompute, 1.0, "x");
        ledger.reset();
        assert_eq!(ledger.total(), 0.0);
        assert!(ledger.entries().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_charge_panics() {
        CostLedger::new().charge(t0(), CostCategory::VmCompute, -0.1, "refund");
    }
}
