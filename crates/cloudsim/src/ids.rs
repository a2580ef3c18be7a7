//! Identifier newtypes for cloud entities.
//!
//! Each identifier is issued by exactly one [`World`](crate::World) and is
//! only meaningful within it. A world issues ids in increasing order and
//! never reissues one, not even after its entity is gone, so an id can
//! stand for the generation of whatever slot holds it: the serverful
//! pool drops a notification naming a VM its slot no longer holds. The
//! newtypes keep op handles, sandboxes, VMs and KV servers from being
//! confused for one another at compile time.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u64);

        impl $name {
            #[doc(hidden)]
    pub fn from_index(index: u64) -> Self {
                $name(index)
            }

            #[doc(hidden)]
    pub fn index(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "-{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Handle for an asynchronous operation (storage, compute, KV, sleep).
    /// Completion arrives as [`Notify::Op`](crate::Notify::Op).
    OpId,
    "op"
);

id_type!(
    /// A FaaS sandbox (one cloud-function instance).
    SandboxId,
    "sandbox"
);

id_type!(
    /// A virtual machine instance.
    VmId,
    "vm"
);

id_type!(
    /// A Redis-like KV server hosted on a VM.
    KvId,
    "kv"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(OpId::from_index(3).to_string(), "op-3");
        assert_eq!(VmId::from_index(0).to_string(), "vm-0");
        assert_eq!(SandboxId::from_index(9).to_string(), "sandbox-9");
        assert_eq!(KvId::from_index(1).to_string(), "kv-1");
    }

    #[test]
    fn ids_are_ordered_by_issue_index() {
        assert!(OpId::from_index(1) < OpId::from_index(2));
    }
}
