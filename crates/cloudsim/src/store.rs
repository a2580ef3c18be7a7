//! The object-storage data plane.
//!
//! [`ObjectStore`] holds the durable state behind the storage service's
//! timing model. Objects carry an [`ObjectBody`]: either real bytes (used
//! by correctness tests and small-scale examples, so a distributed sort
//! can be verified to actually sort) or an *opaque* declared size (used by
//! paper-scale benchmark runs, where materialising hundreds of GB would
//! be pointless — timing depends only on the size).

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

/// The contents of a stored object.
#[derive(Clone, PartialEq, Eq)]
pub enum ObjectBody {
    /// Real bytes; `len` is their actual length.
    Real(Bytes),
    /// A size-only stand-in for large synthetic payloads.
    Opaque {
        /// Logical size in bytes.
        size: u64,
    },
}

impl ObjectBody {
    /// Creates a real body from bytes.
    pub fn real(data: impl Into<Bytes>) -> Self {
        ObjectBody::Real(data.into())
    }

    /// Creates a size-only body.
    pub fn opaque(size: u64) -> Self {
        ObjectBody::Opaque { size }
    }

    /// Logical length in bytes (drives transfer time either way).
    pub fn len(&self) -> u64 {
        match self {
            ObjectBody::Real(b) => b.len() as u64,
            ObjectBody::Opaque { size } => *size,
        }
    }

    /// True if the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real bytes, if this body carries any.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            ObjectBody::Real(b) => Some(b),
            ObjectBody::Opaque { .. } => None,
        }
    }
}

impl fmt::Debug for ObjectBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectBody::Real(b) => write!(f, "Real({} bytes)", b.len()),
            ObjectBody::Opaque { size } => write!(f, "Opaque({size} bytes)"),
        }
    }
}

impl From<Vec<u8>> for ObjectBody {
    fn from(v: Vec<u8>) -> Self {
        ObjectBody::Real(Bytes::from(v))
    }
}

impl From<Bytes> for ObjectBody {
    fn from(b: Bytes) -> Self {
        ObjectBody::Real(b)
    }
}

/// A bucket/key-addressed object map with ordered keys (so `LIST` returns
/// keys in lexicographic order, as S3 does).
///
/// # Example
///
/// ```
/// use cloudsim::{ObjectBody, ObjectStore};
///
/// let mut store = ObjectStore::new();
/// store.put("b", "jobs/0/status", ObjectBody::opaque(64));
/// store.put("b", "jobs/1/status", ObjectBody::opaque(64));
/// assert_eq!(store.list_prefix("b", "jobs/").len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ObjectStore {
    buckets: BTreeMap<String, BTreeMap<String, ObjectBody>>,
}

impl ObjectStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ObjectStore::default()
    }

    /// Inserts (or replaces) an object, returning the previous body if
    /// any.
    pub fn put(&mut self, bucket: &str, key: &str, body: ObjectBody) -> Option<ObjectBody> {
        let objects = match self.buckets.get_mut(bucket) {
            Some(objects) => objects,
            None => self.buckets.entry(bucket.to_owned()).or_default(),
        };
        objects.insert(key.to_owned(), body)
    }

    /// Reads an object.
    pub fn get(&self, bucket: &str, key: &str) -> Option<&ObjectBody> {
        self.buckets.get(bucket)?.get(key)
    }

    /// Removes an object, returning it if present.
    pub fn delete(&mut self, bucket: &str, key: &str) -> Option<ObjectBody> {
        self.buckets.get_mut(bucket)?.remove(key)
    }

    /// Keys in `bucket` starting with `prefix`, in lexicographic order.
    pub fn list_prefix(&self, bucket: &str, prefix: &str) -> Vec<String> {
        match self.buckets.get(bucket) {
            None => Vec::new(),
            Some(objs) => objs
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, _)| k.clone())
                .collect(),
        }
    }

    /// The objects in `bucket`, borrowed in place, in lexicographic key
    /// order.
    pub fn objects<'a>(&'a self, bucket: &str) -> impl Iterator<Item = (&'a str, &'a ObjectBody)> {
        self.buckets
            .get(bucket)
            .into_iter()
            .flatten()
            .map(|(key, body)| (key.as_str(), body))
    }

    /// Number of objects across all buckets.
    pub fn object_count(&self) -> usize {
        self.buckets.values().map(BTreeMap::len).sum()
    }

    /// Total logical bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.buckets
            .values()
            .flat_map(|b| b.values())
            .map(ObjectBody::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_real_bytes() {
        let mut store = ObjectStore::new();
        store.put("b", "k", ObjectBody::real(vec![1, 2, 3]));
        let body = store.get("b", "k").unwrap();
        assert_eq!(body.len(), 3);
        assert_eq!(body.bytes().unwrap().as_ref(), &[1, 2, 3]);
    }

    #[test]
    fn opaque_body_has_no_bytes_but_a_length() {
        let body = ObjectBody::opaque(1 << 30);
        assert_eq!(body.len(), 1 << 30);
        assert!(body.bytes().is_none());
        assert!(!body.is_empty());
    }

    #[test]
    fn put_replaces_and_returns_previous() {
        let mut store = ObjectStore::new();
        assert!(store.put("b", "k", ObjectBody::opaque(1)).is_none());
        let prev = store.put("b", "k", ObjectBody::opaque(2)).unwrap();
        assert_eq!(prev.len(), 1);
        assert_eq!(store.get("b", "k").unwrap().len(), 2);
    }

    #[test]
    fn list_prefix_is_ordered_and_bounded() {
        let mut store = ObjectStore::new();
        for key in ["a/2", "a/1", "a/3", "b/1", "a"] {
            store.put("bk", key, ObjectBody::opaque(0));
        }
        assert_eq!(store.list_prefix("bk", "a/"), vec!["a/1", "a/2", "a/3"]);
        assert_eq!(store.list_prefix("bk", "c/"), Vec::<String>::new());
        assert_eq!(store.list_prefix("missing", ""), Vec::<String>::new());
    }

    #[test]
    fn objects_walk_one_bucket_in_key_order() {
        let mut store = ObjectStore::new();
        for (bucket, key) in [("bk", "b"), ("other", "a"), ("bk", "a"), ("bk", "c")] {
            store.put(bucket, key, ObjectBody::opaque(key.len() as u64));
        }
        let keys: Vec<&str> = store.objects("bk").map(|(key, _)| key).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(store.objects("missing").count(), 0);
    }

    #[test]
    fn delete_removes() {
        let mut store = ObjectStore::new();
        store.put("b", "k", ObjectBody::opaque(5));
        assert_eq!(store.delete("b", "k").unwrap().len(), 5);
        assert!(store.get("b", "k").is_none());
        assert!(store.delete("b", "k").is_none());
    }

    #[test]
    fn totals_track_contents() {
        let mut store = ObjectStore::new();
        store.put("b", "x", ObjectBody::opaque(10));
        store.put("b", "y", ObjectBody::real(vec![0u8; 20]));
        store.put("c", "z", ObjectBody::opaque(30));
        assert_eq!(store.object_count(), 3);
        assert_eq!(store.total_bytes(), 60);
    }
}
