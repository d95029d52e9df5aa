//! Dissect an APK the way the paper's tooling does: build one, walk its
//! ZIP entries, decode the manifest and DEX, extract the analysis digest,
//! then tamper with it and watch the signature check catch it.
//!
//! ```text
//! cargo run --release --example apk_anatomy
//! ```

use marketscope::apk::apicalls::ApiCallId;
use marketscope::apk::builder::{ApkBuilder, CERT_ENTRY};
use marketscope::apk::dex::DexFile;
use marketscope::apk::digest::ApkDigest;
use marketscope::apk::manifest::Manifest;
use marketscope::apk::zip::ZipArchive;
use marketscope::apk::ParsedApk;
use marketscope::core::hash::to_hex;
use marketscope::core::{DeveloperKey, PackageName, VersionCode};

fn main() {
    // 1. A developer builds and signs an app.
    let manifest = Manifest {
        package: PackageName::new("com.kugou.android").unwrap(),
        version_code: VersionCode(870),
        version_name: "8.7.0".into(),
        min_sdk: 9,
        target_sdk: 25,
        app_label: "酷狗音乐".into(),
        permissions: vec![
            "android.permission.INTERNET".into(),
            "android.permission.READ_PHONE_STATE".into(),
        ],
        category: "Music".into(),
        components: vec![],
    };
    let mut dex = DexFile::default();
    dex.push_class("Lcom/kugou/android/Player;");
    dex.push_method(0xFEED_0001, &[ApiCallId(101), ApiCallId(2044)], &[]);
    dex.push_class("Lcom/umeng/analytics/Agent;");
    dex.push_method(0xFEED_0002, &[ApiCallId(7)], &[]);
    let dev = DeveloperKey::from_label("kugou-official");
    let bytes = ApkBuilder::new(manifest, dex)
        .channel("kgchannel", b"source=tencent".to_vec())
        .build(dev)
        .unwrap();
    println!("built {} bytes, signed by {:?}\n", bytes.len(), dev);

    // 2. The container: ZIP entries.
    let zip = ZipArchive::parse(&bytes).unwrap();
    println!("zip entries:");
    for e in zip.entries() {
        println!("  {:<28} {:>6} bytes", e.name, e.data.len());
    }

    // 3. The parsed view.
    let apk = ParsedApk::parse(&bytes).unwrap();
    println!(
        "\nmanifest: {} v{} (min SDK {})",
        apk.manifest.package, apk.manifest.version_code, apk.manifest.min_sdk
    );
    println!("label:    {}", apk.manifest.app_label);
    println!("perms:    {:?}", apk.manifest.permissions);
    println!("classes:  {}", apk.dex.class_count());
    for class in apk.dex.classes() {
        let calls: usize = class.methods().map(|m| m.api_calls().len()).sum();
        println!(
            "  {:<28} {} method(s), {calls} API call(s)",
            class.name(),
            class.method_count()
        );
    }
    println!("signature valid: {}", apk.signature_valid);
    println!("file md5: {}", to_hex(&apk.file_md5));
    println!(
        "channels: {:?}",
        apk.channels.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );

    // 4. The analysis digest (what the crawler stores).
    let digest = ApkDigest::from_bytes(&bytes).unwrap();
    println!("\ndigest package features:");
    for f in &digest.package_features {
        println!(
            "  {:<24} {} classes, feature hash {:016x}",
            f.java_package, f.class_count, f.feature_hash
        );
    }

    // 5. Tamper: rewrite the first method's code without re-signing.
    let mut tampered = ZipArchive::new();
    for e in zip.entries() {
        if e.name == "classes.dex" {
            let original = DexFile::decode(&e.data).unwrap();
            let mut dex = DexFile::default();
            for class in original.classes() {
                dex.push_class(class.name());
                for m in class.methods() {
                    let first = dex.method_count() == 0;
                    let hash = if first {
                        m.code_hash() ^ 0xBAD
                    } else {
                        m.code_hash()
                    };
                    dex.push_method(hash, m.api_calls(), m.invokes());
                }
            }
            tampered.add(&e.name, dex.encode().unwrap()).unwrap();
        } else {
            tampered.add(&e.name, e.data.clone()).unwrap();
        }
    }
    let hacked = ParsedApk::parse(&tampered.to_bytes()).unwrap();
    println!(
        "\nafter tampering with a method body: signature valid = {} (cert entry untouched: {})",
        hacked.signature_valid,
        hacked.entry_names.iter().any(|n| n == CERT_ENTRY)
    );
}
