//! Property tests for the `Sync` batch APIs: for arbitrary APK corpora and
//! worker counts, `scan_batch` / `analyze_batch` must equal the per-digest
//! `scan` / `analyze` loop element for element.

use marketscope_analysis::av::AvSimulator;
use marketscope_analysis::overpriv::OverprivilegeAnalyzer;
use marketscope_apk::apicalls::ApiCallId;
use marketscope_apk::builder::ApkBuilder;
use marketscope_apk::dex::DexFile;
use marketscope_apk::digest::ApkDigest;
use marketscope_apk::manifest::Manifest;
use marketscope_apk::permmap::PERMISSIONS;
use marketscope_core::propcheck::{check, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_core::{DeveloperKey, PackageName, VersionCode};

/// Build a digest from generated parameters: a permission subset, one
/// class of methods with generated API calls and code hashes.
fn build_digest(salt: u64, perm_mask: u32, calls: &[u32], hashes: &[u64]) -> ApkDigest {
    let permissions: Vec<String> = PERMISSIONS
        .iter()
        .enumerate()
        .filter(|(i, _)| *i < 32 && perm_mask & (1 << i) != 0)
        .map(|(_, p)| (*p).to_owned())
        .collect();
    let manifest = Manifest {
        package: PackageName::new(&format!("com.prop.a{}", salt % 97)).unwrap(),
        version_code: VersionCode((salt % 40) as u32 + 1),
        version_name: "1".into(),
        min_sdk: 9,
        target_sdk: 23,
        app_label: format!("App{}", salt % 11),
        permissions,
        category: "Tools".into(),
        components: vec![],
    };
    let calls: Vec<ApiCallId> = calls.iter().map(|c| ApiCallId(*c)).collect();
    let mut dex = DexFile::default();
    dex.push_class(&format!("Lcom/prop/a{}/Main;", salt % 97));
    for h in hashes {
        dex.push_method(h ^ salt, &calls, &[]);
    }
    let bytes = ApkBuilder::new(manifest, dex)
        .build(DeveloperKey::from_label(&format!("dev{}", salt % 13)))
        .unwrap();
    ApkDigest::from_bytes(&bytes).unwrap()
}

/// An arbitrary corpus of 1..12 digests.
fn arb_corpus(rng: &mut DetRng) -> Vec<ApkDigest> {
    vec_of(rng, 1..12, |r| {
        let salt = r.range_u64(0, 1_000_000);
        let perm_mask = r.range_u64(0, u32::MAX.into()) as u32;
        let calls = vec_of(r, 0..6, |r| r.range_u64(0, 2_000) as u32);
        let hashes = vec_of(r, 1..5, |r| r.range_u64(1, u64::MAX));
        build_digest(salt, perm_mask, &calls, &hashes)
    })
}

/// This suite's runner: 24 cases per property, streams named
/// `batch_properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("batch_properties::{name}"), 24, body);
}

#[test]
fn scan_batch_equals_per_digest_scan() {
    property("scan_batch_equals_per_digest_scan", |rng| {
        let digests = arb_corpus(rng);
        let workers = usize_in(rng, 1..9);
        let refs: Vec<&ApkDigest> = digests.iter().collect();
        let sim = AvSimulator::new();
        let batch = sim.scan_batch(&refs, workers);
        let sequential: Vec<_> = refs.iter().map(|d| sim.scan(d)).collect();
        assert_eq!(batch, sequential, "workers = {workers}");
    });
}

#[test]
fn analyze_batch_equals_per_digest_analyze() {
    property("analyze_batch_equals_per_digest_analyze", |rng| {
        let digests = arb_corpus(rng);
        let workers = usize_in(rng, 1..9);
        let refs: Vec<&ApkDigest> = digests.iter().collect();
        let analyzer = OverprivilegeAnalyzer::new();
        let batch = analyzer.analyze_batch(&refs, workers);
        let sequential: Vec<_> = refs.iter().map(|d| analyzer.analyze(d)).collect();
        assert_eq!(batch, sequential, "workers = {workers}");
    });
}
