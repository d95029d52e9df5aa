//! Identifiers for apps, packages and developers.
//!
//! The paper identifies a unique *app* across markets by its **package
//! name**; a unique *release* by package name + **version code**; and a
//! unique *developer* by the signing key extracted from the APK (the paper
//! uses `ApkSigner`; we use a 20-byte key digest with identical equality
//! semantics).

use crate::error::CoreError;
use crate::hash;
use std::fmt;
use std::sync::Arc;

/// An Android application package name, e.g. `com.kugou.android`.
///
/// Validated to follow the Android rules: one or more dot-separated
/// segments, each starting with an ASCII letter and containing only ASCII
/// letters, digits and underscores. At least two segments are required (the
/// platform itself enforces this for published apps).
///
/// Internally reference-counted: package names are duplicated millions of
/// times across snapshots, listings and analysis tables.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackageName(Arc<str>);

impl PackageName {
    /// Parse and validate a package name.
    pub fn new(s: &str) -> Result<Self, CoreError> {
        if Self::is_valid(s) {
            Ok(PackageName(Arc::from(s)))
        } else {
            Err(CoreError::InvalidPackageName(s.to_owned()))
        }
    }

    /// Validation predicate used by [`PackageName::new`].
    pub fn is_valid(s: &str) -> bool {
        if s.is_empty() || s.len() > 255 {
            return false;
        }
        let segments: Vec<&str> = s.split('.').collect();
        if segments.len() < 2 {
            return false;
        }
        segments.iter().all(|seg| {
            let mut chars = seg.chars();
            match chars.next() {
                Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
                _ => return false,
            }
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
    }

    /// The package name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PackageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for PackageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A monotonically increasing Android `versionCode`.
///
/// The paper assumes version codes are assigned incrementally regardless of
/// store (Section 5.4), which lets "outdated app" analysis order releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionCode(pub u32);

impl fmt::Display for VersionCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A developer signing identity: the digest of the signing key.
///
/// Two APKs signed with the same key compare equal; the signature cannot be
/// spoofed by a repackager who lacks the original key — repackaged releases
/// therefore show up with a *different* `DeveloperKey`, which is exactly
/// the signal the signature-based clone detector uses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeveloperKey(pub [u8; 20]);

impl DeveloperKey {
    /// Derive a key deterministically from an arbitrary label (used by the
    /// synthetic-world generator: one label per developer identity).
    pub fn from_label(label: &str) -> Self {
        let d = hash::md5(label.as_bytes());
        let mut k = [0u8; 20];
        k[..16].copy_from_slice(&d);
        let c = hash::crc32(label.as_bytes());
        k[16..].copy_from_slice(&c.to_be_bytes());
        DeveloperKey(k)
    }

    /// Hex rendering of the key digest.
    pub(crate) fn to_hex(self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            use std::fmt::Write;
            let _ = write!(s, "{b:02x}");
        }
        s
    }
}

impl fmt::Display for DeveloperKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for DeveloperKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeveloperKey({})", &self.to_hex()[..8])
    }
}

/// The primary key for one *release* of an app: package + version.
///
/// The paper uses (package name, version name) to join Google Play metadata
/// with AndroZoo APKs; we use the integer version code.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppKey {
    /// The app's package name.
    pub package: PackageName,
    /// The release's version code.
    pub version: VersionCode,
}

impl AppKey {
    /// Construct a key from parts.
    pub fn new(package: PackageName, version: VersionCode) -> Self {
        AppKey { package, version }
    }
}

impl fmt::Display for AppKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.package, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_package_names() {
        for ok in [
            "com.kugou.android",
            "com.a",
            "org.fmod",
            "a.b.c.d.e",
            "com.foo_bar.baz9",
            "_x.y",
        ] {
            assert!(PackageName::is_valid(ok), "{ok} should be valid");
        }
    }

    #[test]
    fn invalid_package_names() {
        for bad in [
            "",
            "single",
            "com.",
            ".com",
            "com..x",
            "com.9abc",
            "com.a-b",
            "有.中文",
        ] {
            assert!(!PackageName::is_valid(bad), "{bad} should be invalid");
        }
    }

    #[test]
    fn rejects_overlong() {
        let long = format!("a.{}", "b".repeat(300));
        assert!(PackageName::new(&long).is_err());
    }

    #[test]
    fn developer_key_deterministic_and_distinct() {
        let a = DeveloperKey::from_label("dev-001");
        let b = DeveloperKey::from_label("dev-001");
        let c = DeveloperKey::from_label("dev-002");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_hex().len(), 40);
    }

    #[test]
    fn app_key_display_and_order() {
        let k1 = AppKey::new(PackageName::new("a.b").unwrap(), VersionCode(1));
        let k2 = AppKey::new(PackageName::new("a.b").unwrap(), VersionCode(2));
        assert!(k1 < k2);
        assert_eq!(k1.to_string(), "a.b@v1");
    }

    #[test]
    fn package_name_equality_is_by_value() {
        let a = PackageName::new("com.x.y").unwrap();
        let b = PackageName::new("com.x.y").unwrap();
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(a);
        assert!(s.contains(&b));
    }
}
