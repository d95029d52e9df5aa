//! The top-level APK parser: what every analysis consumes.

use crate::builder::{digest_entries, CERT_ENTRY, DEX_ENTRY, MANIFEST_ENTRY};
use crate::cert::Signature;
use crate::dex::DexFile;
use crate::error::ApkError;
use crate::manifest::Manifest;
use crate::zip;
use marketscope_core::hash::md5;
use marketscope_core::DeveloperKey;

/// A fully parsed APK: manifest, code, identity and provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedApk {
    /// Decoded manifest.
    pub manifest: Manifest,
    /// Decoded code container.
    pub dex: DexFile,
    /// The developer signature found in `META-INF/CERT.SF`.
    pub signature: Signature,
    /// Whether the signature verifies against the payload digest.
    pub signature_valid: bool,
    /// MD5 of the *entire* APK file — the byte-identity the paper compares
    /// in Section 5.3.
    pub file_md5: [u8; 16],
    /// Store channel files found under `META-INF/` (name, payload),
    /// excluding the certificate itself.
    pub channels: Vec<(String, Vec<u8>)>,
    /// All entry names, in archive order.
    pub entry_names: Vec<String>,
}

impl ParsedApk {
    /// Parse raw APK bytes. Verifies ZIP structure, entry CRCs, manifest,
    /// DEX and the signature's well-formedness (validity is *recorded*,
    /// not required — the study wants to observe bad actors, not reject
    /// them at ingest).
    pub fn parse(bytes: &[u8]) -> Result<ParsedApk, ApkError> {
        let entries = zip::read_entries(bytes)?;
        let get = |name: &'static str| {
            entries
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, data)| *data)
                .ok_or(ApkError::MissingEntry(name))
        };
        let manifest = Manifest::decode(get(MANIFEST_ENTRY)?)?;
        let dex = DexFile::decode(get(DEX_ENTRY)?)?;
        let signature = Signature::decode(get(CERT_ENTRY)?)?;
        let signature_valid = signature.verify(&digest_entries(entries.iter().copied()));
        let channels = entries
            .iter()
            .filter(|(name, _)| name.starts_with("META-INF/") && *name != CERT_ENTRY)
            .map(|(name, data)| ((*name).to_owned(), data.to_vec()))
            .collect();
        Ok(ParsedApk {
            manifest,
            dex,
            signature,
            signature_valid,
            file_md5: md5(bytes),
            channels,
            entry_names: entries.iter().map(|(name, _)| (*name).to_owned()).collect(),
        })
    }

    /// The developer identity (from the signature).
    pub fn developer(&self) -> DeveloperKey {
        self.signature.developer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ApkBuilder;
    use crate::zip::ZipArchive;
    use crate::ApiCallId;
    use marketscope_core::{AppKey, PackageName, VersionCode};

    /// The release key: package + version code.
    fn app_key(apk: &ParsedApk) -> AppKey {
        AppKey::new(apk.manifest.package.clone(), apk.manifest.version_code)
    }

    fn manifest() -> Manifest {
        Manifest {
            package: PackageName::new("com.example.app").unwrap(),
            version_code: VersionCode(3),
            version_name: "1.2".into(),
            min_sdk: 14,
            target_sdk: 25,
            app_label: "Example".into(),
            permissions: vec!["android.permission.CAMERA".into()],
            category: "Photography".into(),
            components: vec![],
        }
    }

    fn dex() -> DexFile {
        let mut dex = DexFile::default();
        dex.push_class("Lcom/example/app/Main;");
        dex.push_method(5, &[ApiCallId(9)], &[]);
        dex
    }

    #[test]
    fn full_round_trip() {
        let dev = DeveloperKey::from_label("dev-x");
        let bytes = ApkBuilder::new(manifest(), dex())
            .channel("kgchannel", b"src=baidu".to_vec())
            .build(dev)
            .unwrap();
        let apk = ParsedApk::parse(&bytes).unwrap();
        assert_eq!(apk.manifest, manifest());
        assert_eq!(apk.dex, dex());
        assert_eq!(apk.developer(), dev);
        assert!(apk.signature_valid);
        assert_eq!(apk.channels.len(), 1);
        assert_eq!(apk.channels[0].0, "META-INF/kgchannel");
        assert_eq!(app_key(&apk).to_string(), "com.example.app@v3");
        assert_eq!(apk.file_md5, md5(&bytes));
    }

    #[test]
    fn missing_entries_are_reported() {
        let mut zip = ZipArchive::new();
        zip.add("foo", vec![]).unwrap();
        let err = ParsedApk::parse(&zip.to_bytes()).unwrap_err();
        assert_eq!(err, ApkError::MissingEntry(MANIFEST_ENTRY));
        let mut zip = ZipArchive::new();
        zip.add(MANIFEST_ENTRY, manifest().encode()).unwrap();
        let err = ParsedApk::parse(&zip.to_bytes()).unwrap_err();
        assert_eq!(err, ApkError::MissingEntry(DEX_ENTRY));
    }

    #[test]
    fn tampered_payload_yields_invalid_signature_not_error() {
        let dev = DeveloperKey::from_label("dev-x");
        let bytes = ApkBuilder::new(manifest(), dex()).build(dev).unwrap();
        // Rebuild the archive with a modified asset list (simulating a
        // tamper that fixes up CRCs — i.e., a repackager who forgot to
        // re-sign).
        let zip = ZipArchive::parse(&bytes).unwrap();
        let mut tampered = ZipArchive::new();
        for e in zip.entries() {
            tampered.add(&e.name, e.data.clone()).unwrap();
        }
        tampered.add("assets/injected.bin", vec![0xEE; 16]).unwrap();
        let apk = ParsedApk::parse(&tampered.to_bytes()).unwrap();
        assert!(!apk.signature_valid, "stale signature must not verify");
    }

    #[test]
    fn different_developers_different_identity() {
        let a = ApkBuilder::new(manifest(), dex())
            .build(DeveloperKey::from_label("alice"))
            .unwrap();
        let b = ApkBuilder::new(manifest(), dex())
            .build(DeveloperKey::from_label("bob"))
            .unwrap();
        let pa = ParsedApk::parse(&a).unwrap();
        let pb = ParsedApk::parse(&b).unwrap();
        assert_ne!(pa.developer(), pb.developer());
        assert_eq!(app_key(&pa), app_key(&pb)); // same package+version: an SB clone
    }
}
