//! Hash maps and sets keyed by integer ids.
//!
//! [`IdMap`] and [`IdSet`] are std's `HashMap` and `HashSet` hashed by
//! [`IdHasher`], a multiplicative hash in the style of FxHash: each
//! integer written is folded in with one rotate, one xor and one
//! multiply. std's default hasher, SipHash with a random per-process key,
//! costs several times that per lookup, and the simulator looks up an op,
//! flow, sandbox or VM id on almost every event.
//!
//! # Why an unkeyed hash is safe here
//!
//! A keyed hash protects a map from keys chosen to collide. Every key of
//! these maps is an id the program issues itself (op handles, flows,
//! sandboxes, VMs, hosts, timer tags, job and task indices), never a
//! value read from a workload file or any other outside input, so no
//! input can choose them. Maps keyed by outside strings (object keys,
//! key prefixes, fleet names) keep std's hasher.
//!
//! The multiplier is odd, so the low bits of a single id's hash, which
//! pick its bucket, are a bijection of the id's low bits: consecutive ids
//! never collide. Iteration order is the same in every run but is still
//! arbitrary; no simulated output may depend on it, so code that walks
//! one of these maps either sorts or does not care about order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a program-issued integer id (see the
/// [module docs](self)).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-issued integer ids (see the
/// [module docs](self)).
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// FxHash's multiplier, an odd constant near 2^64 divided by pi.
const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// The unkeyed hasher behind [`IdMap`] and [`IdSet`].
///
/// # Example
///
/// ```
/// use simkernel::IdMap;
///
/// let mut names: IdMap<u64, &str> = IdMap::default();
/// names.insert(7, "seven");
/// assert_eq!(names.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_fill_distinct_buckets() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut buckets: Vec<u64> = (0..1024u64).map(|id| build.hash_one(id) & 1023).collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
    }

    #[test]
    fn tuple_keys_hash_every_field() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_ne!(
            build.hash_one((1usize, 2usize)),
            build.hash_one((2usize, 1usize))
        );
    }
}
