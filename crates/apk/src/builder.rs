//! Constructing signed APKs.
//!
//! The builder assembles manifest + DEX into a ZIP, computes the
//! payload digest over everything *outside* `META-INF/`, and signs it.
//! Excluding `META-INF/` from the digest mirrors JAR (v1) signing: it is
//! what lets app stores inject **channel files** into `META-INF/` after
//! signing — producing listings that are byte-different (different MD5)
//! yet identically signed, exactly the store-introduced bias the paper
//! dissects in Section 5.3 (the `kgchannel` example).

use crate::cert::Signature;
use crate::dex::DexFile;
use crate::error::ApkError;
use crate::manifest::Manifest;
use crate::zip::ZipArchive;
use marketscope_core::hash::Md5;
use marketscope_core::DeveloperKey;

/// Well-known entry names.
pub(crate) const MANIFEST_ENTRY: &str = "AndroidManifest.xml";
/// The DEX payload entry.
pub(crate) const DEX_ENTRY: &str = "classes.dex";
/// The signature entry.
pub const CERT_ENTRY: &str = "META-INF/CERT.SF";

/// Builds signed APK byte blobs.
#[derive(Debug, Clone)]
pub struct ApkBuilder {
    manifest: Manifest,
    dex: DexFile,
    channel: Option<(String, Vec<u8>)>,
}

impl ApkBuilder {
    /// Start from the two mandatory components.
    pub fn new(manifest: Manifest, dex: DexFile) -> Self {
        ApkBuilder {
            manifest,
            dex,
            channel: None,
        }
    }

    /// Set a store channel file, stored as `META-INF/<name>` after the
    /// signature, where a store that injects it into a signed APK puts
    /// it. Channel files do not affect the signature (see module docs).
    pub fn channel(mut self, name: &str, data: Vec<u8>) -> Self {
        self.channel = Some((format!("META-INF/{name}"), data));
        self
    }

    /// Sign with `developer`'s key and serialize to APK bytes. A DEX
    /// model the format cannot carry is refused as [`DexFile::encode`]
    /// refuses it.
    pub fn build(self, developer: DeveloperKey) -> Result<Vec<u8>, ApkError> {
        let mut zip = ZipArchive::new();
        zip.add(MANIFEST_ENTRY, self.manifest.encode())?;
        zip.add(DEX_ENTRY, self.dex.encode()?)?;
        let sig = Signature::sign(developer, &payload_digest(&zip));
        zip.add(CERT_ENTRY, sig.encode())?;
        if let Some((name, data)) = self.channel {
            zip.add(&name, data)?;
        }
        Ok(zip.to_bytes())
    }
}

/// Digest of all entries outside `META-INF/` (names and payloads, in
/// archive order).
pub(crate) fn payload_digest(zip: &ZipArchive) -> [u8; 16] {
    digest_entries(
        zip.entries()
            .iter()
            .map(|e| (e.name.as_str(), e.data.as_slice())),
    )
}

/// [`payload_digest`] over `(name, payload)` pairs, each field streamed
/// into the hash as it stands.
pub(crate) fn digest_entries<'a>(entries: impl Iterator<Item = (&'a str, &'a [u8])>) -> [u8; 16] {
    let mut h = Md5::new();
    for (name, data) in entries.filter(|(name, _)| !name.starts_with("META-INF/")) {
        h.update(&(name.len() as u32).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&(data.len() as u32).to_le_bytes());
        h.update(data);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiCallId;
    use marketscope_core::hash::md5;
    use marketscope_core::{PackageName, VersionCode};

    fn manifest() -> Manifest {
        Manifest {
            package: PackageName::new("com.example.app").unwrap(),
            version_code: VersionCode(3),
            version_name: "1.2".into(),
            min_sdk: 9,
            target_sdk: 23,
            app_label: "Example".into(),
            permissions: vec!["android.permission.INTERNET".into()],
            category: "Tools".into(),
            components: vec![],
        }
    }

    fn dex() -> DexFile {
        let mut dex = DexFile::default();
        dex.push_class("Lcom/example/app/Main;");
        dex.push_method(77, &[ApiCallId(5)], &[]);
        dex
    }

    /// The payload of the entry named `name`.
    fn entry<'a>(zip: &'a ZipArchive, name: &str) -> Option<&'a [u8]> {
        let entry = zip.entries().iter().find(|e| e.name == name)?;
        Some(&entry.data)
    }

    #[test]
    fn builds_valid_zip_with_core_entries() {
        let bytes = ApkBuilder::new(manifest(), dex())
            .build(DeveloperKey::from_label("d1"))
            .unwrap();
        let zip = ZipArchive::parse(&bytes).unwrap();
        assert!(entry(&zip, MANIFEST_ENTRY).is_some());
        assert!(entry(&zip, DEX_ENTRY).is_some());
        assert!(entry(&zip, CERT_ENTRY).is_some());
    }

    #[test]
    fn channel_file_changes_md5_but_not_signature() {
        let dev = DeveloperKey::from_label("d1");
        let a = ApkBuilder::new(manifest(), dex()).build(dev).unwrap();
        let b = ApkBuilder::new(manifest(), dex())
            .channel("kgchannel", b"market=tencent".to_vec())
            .build(dev)
            .unwrap();
        assert_ne!(md5(&a), md5(&b), "listings must be byte-different");
        let za = ZipArchive::parse(&a).unwrap();
        let zb = ZipArchive::parse(&b).unwrap();
        assert_eq!(
            entry(&za, CERT_ENTRY).unwrap(),
            entry(&zb, CERT_ENTRY).unwrap()
        );
        assert_eq!(payload_digest(&za), payload_digest(&zb));
    }

    #[test]
    fn a_model_the_format_cannot_carry_is_a_bounds_error() {
        let mut dex = dex();
        dex.push_method(78, &vec![ApiCallId(5); 70_000], &[]);
        let err = ApkBuilder::new(manifest(), dex)
            .build(DeveloperKey::from_label("d1"))
            .unwrap_err();
        assert!(
            matches!(
                err,
                ApkError::Bounds {
                    what: "call count",
                    value: 70_000
                }
            ),
            "{err:?}"
        );
    }
}
