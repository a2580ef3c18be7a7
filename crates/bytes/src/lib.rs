//! A minimal, API-compatible stand-in for the parts of the `bytes` crate
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the real crate
//! cannot be fetched. [`Bytes`] here is an immutable, cheaply cloneable
//! byte container backed by `Arc<[u8]>` — reference-counted clones, no
//! slicing views. That is exactly the subset the workspace relies on:
//! payload bodies and object-store contents are created once and shared.

#![warn(missing_docs)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous byte buffer.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
///
/// let a = Bytes::from(vec![1u8, 2, 3]);
/// let b = a.clone(); // O(1), shares the allocation
/// assert_eq!(a, b);
/// assert_eq!(&a[..], &[1, 2, 3]);
/// ```
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a slice (inherent, mirroring the real crate's API).
    #[allow(clippy::should_implement_trait)]
    pub fn as_ref(&self) -> &[u8] {
        &self.data
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.data[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.data.cmp(&other.data)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter().take(32) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.data.len() > 32 {
            write!(f, "..{} bytes", self.data.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrips() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
    }

    #[test]
    fn copy_from_slice_copies() {
        let src = [5u8, 6, 7];
        let b = Bytes::copy_from_slice(&src);
        assert_eq!(&b[..], &src);
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
    }

    #[test]
    fn equality_with_slices() {
        let b = Bytes::from(vec![1u8, 2]);
        assert_eq!(b, *[1u8, 2].as_slice());
        assert_eq!(b, vec![1u8, 2]);
    }

    #[test]
    fn debug_is_bounded() {
        let b = Bytes::from(vec![0u8; 100]);
        let s = format!("{b:?}");
        assert!(s.contains("100 bytes"));
    }
}
