//! The bundled non-METASPACE workload instances, by name.
//!
//! The METASPACE jobs live with their Table 2 parameters in
//! `metaspace::jobs`; this catalog holds the fixed instances of the
//! other families so every layer (CLI, CI smoke gate, fleet tenants)
//! resolves the same names to the same graphs.

use crate::spec::Workload;
use crate::families;

/// The catalog's workload names, in presentation order.
pub fn names() -> &'static [&'static str] {
    &[
        "mlpipe",
        "montage",
        "terasort-small",
        "terasort-medium",
        "terasort-large",
    ]
}

/// Resolves a bundled workload by (case-insensitive) name.
pub fn named(name: &str) -> Option<Workload> {
    let canon = name.to_ascii_lowercase();
    match canon.as_str() {
        "mlpipe" => Some(families::ml_pipeline()),
        "montage" => Some(families::montage()),
        "terasort-small" => Some(families::terasort("terasort-small", 5.0)),
        "terasort-medium" => Some(families::terasort("terasort-medium", 20.0)),
        "terasort-large" => Some(families::terasort("terasort-large", 50.0)),
        _ => None,
    }
}
