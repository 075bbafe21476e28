//! Versioned model lineage.
//!
//! A base model is an **immutable, versioned artefact**, not an
//! anonymous byte blob: every [`crate::bundle::EdgeBundle`] carries a
//! [`Lineage`] — a monotonic [`ModelVersion`] plus the content hash of
//! the parent bundle it was derived from. Cloud pretraining stamps the
//! root, v1. The lineage threads through the bundle wire format
//! (`storage.rs` frames carry the version, spool files validate it) and
//! lets the rollout driver prove that version N+1 really descends from
//! the version N a device is serving before it applies a delta diff.

use crate::error::CoreError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A monotonically increasing base-model version, starting at v1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ModelVersion(pub u32);

impl ModelVersion {
    /// The successor version.
    #[must_use]
    pub fn next(self) -> ModelVersion {
        ModelVersion(self.0 + 1)
    }
}

impl fmt::Display for ModelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Where a bundle sits in the version history: its own version and the
/// content hash of the bundle it was derived from (`None` for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lineage {
    /// This bundle's version. Must be ≥ 1: bundle validation refuses
    /// v0.
    pub version: ModelVersion,
    /// FNV-1a hash of the parent bundle's full-precision wire bytes,
    /// or `None` for the first versioned release.
    pub parent: Option<u64>,
}

impl Lineage {
    /// A root lineage: the first versioned release, with no parent.
    pub fn root(version: u32) -> Lineage {
        Lineage {
            version: ModelVersion(version),
            parent: None,
        }
    }

    /// Check that `self` is a valid direct successor of a parent with
    /// the given version and content hash: strictly greater version and
    /// a matching parent hash.
    ///
    /// # Errors
    /// [`CoreError::InvalidBundle`] naming the violated constraint.
    pub fn validate_succession(
        &self,
        parent_version: ModelVersion,
        parent_hash: u64,
    ) -> Result<()> {
        if self.version <= parent_version {
            return Err(CoreError::InvalidBundle(format!(
                "version {} does not advance past parent {parent_version}",
                self.version
            )));
        }
        match self.parent {
            Some(h) if h == parent_hash => Ok(()),
            Some(h) => Err(CoreError::InvalidBundle(format!(
                "lineage parent hash {h:016x} does not match parent bundle {parent_hash:016x}"
            ))),
            None => Err(CoreError::InvalidBundle(
                "lineage claims to be a root but a parent bundle exists".into(),
            )),
        }
    }
}

/// Streaming FNV-1a 64-bit digest as an [`std::io::Write`] sink, so a
/// bundle can be content-hashed without materialising its wire bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Fold bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl std::io::Write for Fnv64 {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_order_and_display() {
        assert!(ModelVersion(2) > ModelVersion(1));
        assert_eq!(ModelVersion(3).next(), ModelVersion(4));
        assert_eq!(ModelVersion(7).to_string(), "v7");
    }

    #[test]
    fn succession_requires_monotonic_version_and_matching_hash() {
        let child = Lineage {
            version: ModelVersion(2),
            parent: Some(0xabcd),
        };
        assert!(child.validate_succession(ModelVersion(1), 0xabcd).is_ok());
        // Wrong parent hash.
        assert!(child.validate_succession(ModelVersion(1), 0xdcba).is_err());
        // Non-advancing version.
        assert!(child.validate_succession(ModelVersion(2), 0xabcd).is_err());
        // Root where a parent exists.
        assert!(Lineage::root(5)
            .validate_succession(ModelVersion(1), 0xabcd)
            .is_err());
    }

    #[test]
    fn fnv_digest_matches_reference() {
        // FNV-1a("a") and FNV-1a("") are published reference values.
        let empty = Fnv64::new();
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Fnv64::new();
        a.update(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn lineage_serde_roundtrip() {
        let l = Lineage {
            version: ModelVersion(4),
            parent: Some(42),
        };
        let json = serde_json::to_string(&l).unwrap();
        let back: Lineage = serde_json::from_str(&json).unwrap();
        assert_eq!(l, back);
    }
}
